import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from tdlinnik import StableParams, TdlParams, coeffs, sample_batch
from tdlinnik.cli import _SAMPLE_CHUNK, main


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, list(args), catch_exceptions=False)


class TestPmfCommand:
    def test_geometric_csv(self, runner):
        res = invoke(
            runner, "pmf", "--law", "tdl", "-a", "1", "-b", "1", "-c", "0.5",
            "-d", "1", "--kmax", "5", "--format", "csv",
        )
        assert res.exit_code == 0
        lines = res.output.strip().splitlines()
        assert lines[0] == "k,p,cumulative"
        assert lines[-1].startswith("tail,")
        k0 = lines[1].split(",")
        assert float(k0[1]) == pytest.approx(2 / 3, rel=1e-15, abs=0)
        k1 = lines[2].split(",")
        assert float(k1[1]) == pytest.approx(2 / 9, rel=1e-15, abs=0)

    def test_degenerate_point_mass(self, runner):
        res = invoke(
            runner, "pmf", "-a", "0", "-b", "1", "-c", "0.5", "-d", "1", "--kmax", "3",
        )
        assert res.exit_code == 0
        rows = [line.split(",") for line in res.output.strip().splitlines()[1:-1]]
        assert [float(r[1]) for r in rows] == [1.0, 0.0, 0.0, 0.0]

    def test_json_fields_match_table_names(self, runner):
        res = invoke(
            runner, "pmf", "-a", "0.5", "-b", "1", "-c", "0.5", "-d", "1",
            "--kmax", "4", "--format", "json",
        )
        payload = json.loads(res.output)
        assert set(payload) == {"law", "params", "kmax", "p", "tail_mass"}
        assert payload["kmax"] == 4
        assert len(payload["p"]) == 5

    def test_domain_error_exit_code(self, runner):
        res = runner.invoke(
            main, ["pmf", "-a", "-1", "-b", "1", "-c", "1", "-d", "1"]
        )
        assert res.exit_code == 2

    def test_continuous_law_rejected(self, runner):
        res = runner.invoke(main, ["pmf", "--law", "ps", "--gamma", "0.5", "--lambda", "1"])
        assert res.exit_code == 2

    def test_oracle_path_agrees(self, runner):
        base = invoke(runner, "pmf", "-a", "0.5", "-b", "1", "-c", "0.5", "-d", "1", "--kmax", "8")
        orac = invoke(
            runner, "pmf", "-a", "0.5", "-b", "1", "-c", "0.5", "-d", "1",
            "--kmax", "8", "--oracle",
        )
        for lb, lo in zip(base.output.splitlines()[1:-1], orac.output.splitlines()[1:-1]):
            assert float(lb.split(",")[1]) == pytest.approx(
                float(lo.split(",")[1]), rel=1e-10, abs=0
            )

    def test_missing_flag_reported(self, runner):
        res = runner.invoke(main, ["pmf", "--law", "nb", "--pi", "0.5"])
        assert res.exit_code == 2
        assert "--delta" in res.output

    def test_missing_short_flag_named_with_one_dash(self, runner):
        res = runner.invoke(main, ["pmf", "--law", "tdl", "-a", "0.5", "-b", "1", "-c", "0.5"])
        assert res.exit_code == 2
        assert "law requires -d" in res.output


class TestSampleCommand:
    def test_deterministic_runs(self, runner):
        args = [
            "sample", "--law", "tdl", "-a", "0.5", "-b", "1", "-c", "0.5",
            "-d", "1", "-n", "10", "--seed", "42",
        ]
        a = invoke(runner, *args)
        b = invoke(runner, *args)
        assert a.exit_code == 0
        assert a.output == b.output
        assert len(a.output.strip().splitlines()) == 10
        assert all(int(x) >= 0 for x in a.output.split())

    @pytest.mark.parametrize("law, flags, params, fmt", [
        ("tdl", "-a -1 -b 1 -c 0.9 -d 0.5", TdlParams(-1.0, 1.0, 0.9, 0.5), lambda v: str(int(v))),
        ("ps", "--gamma 0.5 --lambda 1", StableParams(0.5, 1.0), lambda v: repr(float(v))),
    ])
    def test_output_across_write_chunks_is_one_line_per_draw(self, runner, law, flags, params, fmt):
        n = _SAMPLE_CHUNK + 3
        res = invoke(runner, "sample", "--law", law, *flags.split(), "-n", str(n), "--seed", "5")
        assert res.exit_code == 0
        values = sample_batch(law, params, n, 5).values
        assert res.output == "".join(f"{fmt(v)}\n" for v in values)

    def test_route_flag(self, runner):
        res = invoke(
            runner, "sample", "--law", "tdl", "-a", "-1", "-b", "1", "-c", "0.5",
            "-d", "1", "-n", "5", "--seed", "7", "--route", "c",
        )
        assert res.exit_code == 0
        assert len(res.output.strip().splitlines()) == 5

    def test_incompatible_route_exit(self, runner):
        res = runner.invoke(
            main,
            ["sample", "--law", "tdl", "-a", "0.5", "-b", "1", "-c", "0.5",
             "-d", "1", "--route", "b", "--seed", "1"],
        )
        assert res.exit_code == 2

    @pytest.mark.parametrize("args", [
        ["sample", "--law", "poisson", "--lambda", "1", "--seed", "-5"],
        ["sample", "--law", "poisson", "--lambda", "1", "--seed", "1", "--stream", "-2"],
        ["check", "--seed", "-1"],
    ])
    def test_negative_seed_or_stream_exit(self, runner, args):
        res = runner.invoke(main, args)
        assert res.exit_code == 2
        assert res.output.startswith("error: ")
        assert len(res.output.strip().splitlines()) == 1

    def test_route_on_a_law_without_routes_exit(self, runner):
        res = runner.invoke(
            main, ["sample", "--law", "nb", "--pi", "0.5", "--delta", "2", "--route", "c", "--seed", "1"],
        )
        assert res.exit_code == 2
        assert res.output.startswith("error: ")

    def test_route_d_on_a_d_zero_record_draws_the_compound(self, runner):
        # route a rejects here and runs out of 100 tries; route d does not reject
        args = ["sample", "--law", "tdl", "-a", "0.5", "-b", "20", "-c", "0.9", "-d", "0",
                "-n", "1000", "--seed", "1", "--max-tries", "100"]
        res = runner.invoke(main, [*args, "--route", "d"])
        assert res.exit_code == 0, res.output
        assert len(res.output.split()) == 1000
        assert runner.invoke(main, [*args, "--route", "a"]).exit_code == 4

    def test_continuous_law_draws_positive_reals(self, runner):
        res = invoke(
            runner, "sample", "--law", "ps", "--gamma", "0.5", "--lambda", "1",
            "-n", "5", "--seed", "7",
        )
        values = [float(x) for x in res.output.strip().splitlines()]
        assert len(values) == 5
        assert all(v > 0 for v in values)

    def test_seed_echoed_when_defaulted(self, runner):
        res = runner.invoke(
            main,
            ["sample", "--law", "poisson", "--lambda", "1", "-n", "3"],
        )
        assert res.exit_code == 0
        assert "seed:" in res.output  # CliRunner mixes stderr into output

    def test_rejection_budget_exit(self, runner):
        res = runner.invoke(
            main,
            ["sample", "--law", "tps", "--gamma", "0.5", "--lambda", "30",
             "--theta", "5", "-n", "2", "--seed", "1", "--max-tries", "10"],
        )
        assert res.exit_code == 4


class TestMomentsCommand:
    def test_json_fields(self, runner):
        res = invoke(
            runner, "moments", "-a", "1", "-b", "1", "-c", "0.5", "-d", "1",
        )
        payload = json.loads(res.output)
        assert list(payload) == ["mu", "sigma2", "D", "m3", "m4", "alpha3", "alpha4"]
        assert payload["mu"] == pytest.approx(0.5)

    def test_poisson_tweedie_dispersion_value(self, runner):
        res = invoke(
            runner, "moments", "-a", "0.5", "-b", "1", "-c", "0.5", "-d", "0",
        )
        assert json.loads(res.output)["D"] == pytest.approx(1.5)

    def test_csv_format(self, runner):
        res = invoke(
            runner, "moments", "-a", "1", "-b", "1", "-c", "0.5", "-d", "1",
            "--format", "csv",
        )
        header, row = res.output.strip().splitlines()
        assert header == "mu,sigma2,D,m3,m4,alpha3,alpha4"
        assert float(row.split(",")[0]) == pytest.approx(0.5)

    def test_degenerate_exit_code(self, runner):
        res = runner.invoke(
            main, ["moments", "-a", "0", "-b", "1", "-c", "0.5", "-d", "1"]
        )
        assert res.exit_code == 5


class TestFigureCommand:
    def test_preset_one_header_and_inequality(self, runner):
        res = invoke(runner, "figure", "--preset", "1", "--grid-c", "6", "--grid-d", "6")
        assert res.exit_code == 0
        lines = res.output.strip().splitlines()
        assert lines[0].startswith("# d range clipped to [0.0")
        assert lines[1] == "c,d,alpha3,alpha4"
        assert len(lines) == 2 + 36
        for line in lines[2:]:
            c, d, a3, a4 = map(float, line.split(","))
            assert 0.3 <= c <= 0.7 and 0.0 <= d <= 3.0
            assert a4 >= a3**2 + 1.0

    def test_preset_four_ranges(self, runner):
        res = invoke(runner, "figure", "--preset", "4", "--grid-c", "5", "--grid-d", "4")
        lines = res.output.strip().splitlines()
        assert lines[0] == "c,d,alpha3,alpha4"  # no clipping note: d starts at 0
        rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
        assert min(r[0] for r in rows) == pytest.approx(0.1)
        assert max(r[0] for r in rows) == pytest.approx(0.9)
        assert min(r[1] for r in rows) == 0.0

    def test_single_point_matches_moments(self, runner):
        fig = invoke(
            runner, "figure", "-a", "0.25", "-b", "1", "--c-min", "0.5",
            "--c-max", "0.5", "--d-min", "1", "--d-max", "1",
            "--grid-c", "1", "--grid-d", "1",
        )
        row = fig.output.strip().splitlines()[-1].split(",")
        mom = json.loads(
            invoke(runner, "moments", "-a", "0.25", "-b", "1", "-c", "0.5", "-d", "1").output
        )
        assert float(row[2]) == pytest.approx(mom["alpha3"], rel=1e-15, abs=0)
        assert float(row[3]) == pytest.approx(mom["alpha4"], rel=1e-15, abs=0)

    def test_svg_output(self, runner):
        res = invoke(runner, "figure", "--preset", "2", "--grid-c", "4",
                     "--grid-d", "4", "--format", "svg")
        assert res.output.startswith("<svg")
        assert "<polyline" in res.output

    def test_explicit_range_requires_all_flags(self, runner):
        res = runner.invoke(main, ["figure", "-a", "0.5", "-b", "1"])
        assert res.exit_code == 2


class TestCheckCommand:
    def test_small_grid_passes_and_is_deterministic(self, runner):
        a = invoke(runner, "check", "--grid", "small", "--seed", "42")
        b = invoke(runner, "check", "--grid", "small", "--seed", "42")
        assert a.exit_code == 0
        assert a.output == b.output
        assert "[PASS]" in a.output and "[FAIL]" not in a.output

    def test_injected_coefficient_bug_fails(self, runner, monkeypatch):
        monkeypatch.setattr(coeffs, "coeff_half", lambda m, k: 0.123)
        res = runner.invoke(main, ["check", "--grid", "small", "--seed", "42"])
        assert res.exit_code == 1
        assert "[FAIL]" in res.output


class TestOutputFiles:
    def test_out_flag_writes_file(self, runner, tmp_path):
        target = tmp_path / "pmf.csv"
        res = invoke(
            runner, "pmf", "-a", "0.5", "-b", "1", "-c", "0.5", "-d", "1",
            "--kmax", "3", "--out", str(target),
        )
        assert res.exit_code == 0
        assert target.read_text().startswith("k,p,cumulative")


class TestStartup:
    def test_version_from_source_checkout(self, runner):
        res = runner.invoke(main, ["--version"])
        assert res.exit_code == 0
        assert res.output.split()[-1] == "0.1.0"

    def test_import_does_not_load_scipy(self):
        src = Path(__file__).resolve().parent.parent / "src"
        code = (
            "import sys, tdlinnik, tdlinnik.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
        )
        assert out.stdout.strip() == "[]"
