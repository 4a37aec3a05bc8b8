import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import tdlinnik
from tdlinnik import StableParams, TdlParams, coeffs, sample_batch
from tdlinnik.cli import _SAMPLE_CHUNK, main


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, list(args), catch_exceptions=False)


def run_python(*args, check=True):
    """A fresh interpreter on the source tree; stdout and stderr kept apart."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, check=check
    )


def imported_modules(*args):
    """The exit code of ``python -X importtime *args`` and the modules it imported."""
    res = run_python("-X", "importtime", *args, check=False)
    lines = [line for line in res.stderr.splitlines() if line.startswith("import time:")]
    return res.returncode, {line.rsplit("|", 1)[-1].strip() for line in lines}


POINT = ("-a", "0.5", "-b", "1", "-c", "0.5", "-d", "1")

#: modules that --help, --version, usage errors and a bare import do not load
NOT_AT_START = {"numpy", "tdlinnik.laws", "tdlinnik.params", "tdlinnik.moments", "decimal", "json"}


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

    @pytest.mark.parametrize("a, b, c", [
        ("-2.6", "0.245", "0.9999998"), ("-1.54", "34582", "0.99998"),
    ])
    def test_mean_far_past_kmax_prints_the_all_zero_table(self, runner, a, b, c):
        res = invoke(runner, "pmf", "-a", a, "-b", b, "-c", c, "-d", "0", "--kmax", "400")
        assert res.exit_code == 0
        lines = res.output.splitlines()
        assert lines[-2:] == ["400,0.0,0.0", "tail,1.0,1.0"]

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

    @pytest.mark.parametrize("args, kmax", [
        (("--law", "dl", "--gamma", "0.5", "--lambda", "1", "--delta", "2"), 500),
        (("-a", "0.5", "-b", "1", "-c", "0.5", "-d", "1", "--oracle"), 300),
    ])
    def test_series_path_cap_names_the_kmax_flag(self, runner, args, kmax):
        res = runner.invoke(main, ["pmf", *args, "--kmax", str(kmax)])
        assert res.exit_code == 2
        # CliRunner mixes stderr into output; stdout stays empty
        assert res.output == (
            "error: --kmax must lie in [0, 200] on the series path "
            f"(--oracle, or any law but tdl and tds), got {kmax}\n"
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

    @pytest.mark.parametrize("law, flags", [
        ("tdl", "-a -1 -b 1 -c 0.9 -d 0.5"),
        ("ps", "--gamma 0.5 --lambda 1"),
    ])
    def test_zero_draws_print_nothing(self, runner, law, flags):
        res = invoke(runner, "sample", "--law", law, *flags.split(), "-n", "0", "--seed", "5")
        assert res.exit_code == 0
        assert res.output == ""

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

    @pytest.mark.parametrize("a, b, d, message", [
        pytest.param("0.001", "0.0062", "0.00034",
                     "positive stable draw overflowed double precision (gamma = 0.001)",
                     id="0.001-0.0062-0.00034"),
        # no stable draw overflows, but one passes the Poisson intensity cap
        pytest.param("0.001", "0.00034", "0",
                     "Poisson intensity exceeded the generator cap 9e+18",
                     id="0.001-0.00034-0"),
    ])
    def test_overflowing_stable_draw_exits_4_with_one_error_line(self, a, b, d, message):
        out = run_python("-m", "tdlinnik", "sample", "--law", "tdl", "-a", a, "-b", b,
                         "-c", "1", "-d", d, "-n", "1000", "--seed", "1", check=False)
        assert out.returncode == 4
        assert out.stdout == ""
        assert out.stderr == f"error: {message}\n"

    @pytest.mark.parametrize("args, message", [
        (("--law", "tds", "-a", "-2", "-b", "1e5", "-c", "0.9999999"),
         "Poisson intensity exceeded the generator cap 9e+18"),
        (("--law", "poisson", "--lambda", "1e19"),
         "Poisson intensity exceeded the generator cap 9e+18"),
    ])
    def test_intensity_past_the_generator_cap_exits_4_with_one_error_line(self, args, message):
        out = run_python("-m", "tdlinnik", "sample", *args, "-n", "3", "--seed", "1",
                         check=False)
        assert out.returncode == 4
        assert out.stdout == ""
        assert out.stderr == f"error: {message}\n"

    def test_gds_past_its_table_samples_without_a_budget(self, runner):
        # 1 - (1e-4)^1e-4 = 9.2e-4 of the Sibuya draws are kept, with no rejection
        res = runner.invoke(main, ["sample", "--law", "gds", "--gamma", "1e-4", "--tau", "0.9999",
                                   "-n", "1000", "--seed", "1", "--max-tries", "100"])
        assert res.exit_code == 0, res.output
        assert len(res.output.split()) == 1000

    def test_small_gamma_route_a_samples(self, runner):
        res = runner.invoke(main, ["sample", "--law", "tdl", "-a", "0.01", "-b", "1", "-c", "0.5",
                                   "-d", "0", "--route", "a", "-n", "10000", "--seed", "1"])
        assert res.exit_code == 0, res.output
        assert len(res.output.split()) == 10000

    def test_route_a_out_of_budget_is_refused_up_front(self, runner):
        # exp(20 * 0.9^0.5 * (1/0.9 - 1)^0.5) = 5.6e2 expected tries per draw
        res = runner.invoke(main, [
            "sample", "--law", "tdl", "-a", "0.5", "-b", "20", "-c", "0.9", "-d", "0",
            "--route", "a", "--max-tries", "100", "-n", "1000", "--seed", "1",
        ])
        assert res.exit_code == 4
        assert "tempering rejection expects" in res.output

    @pytest.mark.parametrize("args", [
        ["--law", "tps", "--gamma", "0.5", "--lambda", "1", "--theta", "1", "--max-tries", "-3"],
        ["--law", "tdl", "-a", "0.5", "-b", "1", "-c", "0.5", "-d", "1", "--max-tries", "0"],
    ], ids=["tps-negative", "tdl-zero"])
    def test_max_tries_below_one_is_a_domain_error(self, runner, args):
        res = runner.invoke(main, ["sample", *args, "-n", "5", "--seed", "1"])
        assert res.exit_code == 2
        assert res.output == "error: max_tries must be >= 1, got " + args[-1] + "\n"

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

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_tds_is_the_d_zero_member(self, runner, fmt):
        point = ["-a", "-1", "-b", "2", "-c", "0.3", "--format", fmt]
        tds = invoke(runner, "moments", "--law", "tds", *point)
        tdl = invoke(runner, "moments", "--law", "tdl", *point, "-d", "0")
        assert tds.exit_code == tdl.exit_code == 0
        assert tds.stdout_bytes == tdl.stdout_bytes

    def test_other_laws_have_no_moment_formulas(self, runner):
        res = runner.invoke(main, ["moments", "--law", "nb", "--pi", "0.5", "--delta", "2"])
        assert res.exit_code == 2
        assert res.output.startswith("error: moment formulas")


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
        code = (
            "import sys, tdlinnik, tdlinnik.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        assert run_python("-c", code).stdout.strip() == "[]"

    def test_import_loads_neither_mpmath_nor_fractions(self):
        # the 40-digit oracle runs on decimal, coeff_c on integers
        code = (
            "import sys, tdlinnik.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('mpmath', 'fractions')))"
        )
        assert run_python("-c", code).stdout.strip() == "[]"

    @pytest.mark.parametrize(
        "args, code, absent",
        [
            (("-m", "tdlinnik", "--help"), 0, NOT_AT_START),
            (("-m", "tdlinnik", "--version"), 0, NOT_AT_START),
            (("-m", "tdlinnik", "pmf", "--bogus"), 2, NOT_AT_START),
            (("-c", "import tdlinnik.cli"), 0, NOT_AT_START),
            (("-m", "tdlinnik", "moments", *POINT, "--format", "json"), 0, {"numpy"}),
            (("-m", "tdlinnik", "moments", *POINT, "--format", "csv"), 0, {"numpy"}),
            (("-m", "tdlinnik", "moments", "-a", "0.5", "-c", "0.5", "-d", "1"), 2, {"numpy"}),
            (("-c", "import tdlinnik"), 0, NOT_AT_START),
            (("-m", "tdlinnik", "figure", "--preset", "1", "--grid-c", "3", "--grid-d", "3"),
             0, {"numpy"}),
            (("-m", "tdlinnik", "figure", "--preset", "4", "--grid-c", "3", "--grid-d", "3",
              "--format", "svg"), 0, {"numpy"}),
        ],
        ids=["help", "version", "usage-error", "import-cli", "moments-json", "moments-csv",
             "moments-missing-b", "import", "figure-csv", "figure-svg"],
    )
    def test_starts_without_numpy(self, args, code, absent):
        # --help, --version and usage errors build the options from limits
        # alone; every command but the array ones starts without numpy
        returncode, modules = imported_modules(*args)
        assert returncode == code
        assert not modules & absent

    def test_pmf_loads_numpy(self):
        # the positive control: the import log does name numpy when it loads
        returncode, modules = imported_modules("-m", "tdlinnik", "pmf", "--kmax", "5", *POINT)
        assert returncode == 0
        assert "numpy" in modules

    def test_moments_loads_the_law_records(self):
        # the positive control of the start-up set: a command loads the records
        returncode, modules = imported_modules("-m", "tdlinnik", "moments", *POINT)
        assert returncode == 0
        assert "tdlinnik.params" in modules

    def test_series_pmf_does_not_load_the_sampler(self):
        returncode, modules = imported_modules(
            "-m", "tdlinnik", "pmf", "--law", "dl", "--gamma", "0.5", "--lambda", "1",
            "--delta", "2", "--kmax", "50",
        )
        assert returncode == 0
        assert "tdlinnik.oracle" in modules and "tdlinnik.sampler" not in modules

    def test_every_export_is_the_object_of_its_defining_module(self):
        for name in tdlinnik.__all__:
            value = getattr(tdlinnik, name)
            module = f"tdlinnik.{tdlinnik._MODULE_OF[name]}"
            assert getattr(importlib.import_module(module), name) is value, name
            # a class or function is exported from where it is defined, not
            # from a module that imports it
            assert getattr(value, "__module__", module) == module, name

    def test_star_import_binds_every_export(self):
        namespace = {}
        exec("from tdlinnik import *", namespace)
        for name in tdlinnik.__all__:
            assert namespace[name] is getattr(tdlinnik, name), name

    def test_unknown_attribute_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            tdlinnik.no_such_name
