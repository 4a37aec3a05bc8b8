"""Self-test of the benchmark at a tiny size; run from the repository root:

    PYTHONPATH=src:bench python3 -m pytest -q bench

Checks that every metric named in BENCHMARK.json is emitted with its
unit, and that each checker counts a corrupted table, batch or CLI
output as wrong.
"""

import dataclasses
import json
import os
import subprocess
from pathlib import Path

import numpy as np
import pytest

import report
from spans import Tracer, self_times
from tdlinnik import (
    PmfTable,
    SampleBatch,
    StableParams,
    TdlParams,
    build_pmf_table,
    moments_from_pmf,
    sample_batch,
    tdl_moments,
)
from workloads import (
    FALLBACK,
    OK,
    WRONG,
    CliSession,
    Op,
    PmfFit,
    Simulate,
    check_batch,
    check_cli,
    check_table,
)

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
os.environ["PYTHONPATH"] = os.pathsep.join((str(ROOT / "src"), str(ROOT / "bench")))


def emitted_units(out: dict) -> dict:
    assert out["attempted"] >= 1 and out["correct"]
    for metric in out["metrics"].values():
        assert np.isfinite(metric["value"])
    return {name: metric["unit"] for name, metric in out["metrics"].items()}


def test_metric_tables_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == report.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == report.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == ["pmf-fit", "simulate", "cli-session"]


@pytest.mark.parametrize("wl", [
    lambda: PmfFit(1, ladder=(50, 200)),
    lambda: Simulate(1, n=2000),
    lambda: CliSession(1),
], ids=["pmf-fit", "simulate", "cli-session"])
def test_end_to_end_metrics_emitted(wl):
    out = report.end_to_end(wl(), 1e-3, setup_reps=1)
    assert emitted_units(out) == report.END_TO_END


def test_per_layer_metrics_emitted():
    out, tracer = report.traced(PmfFit(1, ladder=(50, 200)), 1e-3, setup_reps=1, probe_reps=1)
    assert emitted_units(out) == report.PER_LAYER
    assert out["metrics"]["analytic.build_pmf_table.kmax50_ms"]["value"] > 0
    assert out["metrics"]["oracle.series_pmf.order50_ms"]["value"] > 0
    assert tracer.spans


def test_self_time_subtracts_children():
    spans = [
        ["op", 0.0, 10.0, -1, 0, {}],
        ["analytic.build_pmf_table", 1.0, 4.0, 0, 0, {}],
        ["moments.tdl_moments", 5.0, 6.0, 0, 0, {}],
    ]
    got = self_times(spans)
    assert got["bench"] == 6.0 and got["analytic"] == 3.0 and got["moments"] == 1.0


P = TdlParams(-1.0, 1.0, 0.5, 1.0)


def pmf_outputs(kmax=200):
    table = build_pmf_table(P, kmax)
    return table, tdl_moments(P), moments_from_pmf(table)


def test_check_table_accepts_and_rejects():
    stats = {"analytic.max_relerr_vs_oracle": 0.0, "moments.max_relerr": 0.0}
    table, closed, summed = pmf_outputs()
    assert check_table(P, 200, table, closed, summed, Tracer(False), stats) == OK
    p = table.p.copy()
    p[3] *= 1.0 + 1e-6
    bad = PmfTable(table.law, table.params, table.kmax, p, 1.0 - p.sum())
    assert check_table(P, 200, bad, closed, summed, Tracer(False), stats) == WRONG
    off = dataclasses.replace(summed, sigma2=summed.sigma2 * (1.0 + 1e-6))
    assert check_table(P, 200, table, closed, off, Tracer(False), stats) == WRONG


def test_check_batch_accepts_and_rejects():
    batch = sample_batch("tdl", P, 5000, 7)
    assert check_batch("tdl", P, 5000, batch, Tracer(False), {}) == OK
    shifted = SampleBatch("tdl", P, 5000, batch.values + 1, 7)
    assert check_batch("tdl", P, 5000, shifted, Tracer(False), {}) == WRONG
    ps = StableParams(0.5, 1.0)
    batch = sample_batch("ps", ps, 5000, 7)
    assert check_batch("ps", ps, 5000, batch, Tracer(False), {}) == OK
    scaled = SampleBatch("ps", ps, 5000, batch.values * 1.5, 7)
    assert check_batch("ps", ps, 5000, scaled, Tracer(False), {}) == WRONG


def test_default_route_out_of_budget_is_retried_in_the_operation():
    wl = Simulate(1, n=2000)
    p = TdlParams(0.9, 1.4, 0.03, 2.0)  # route a runs out of max_tries=100 here
    tr = Tracer(True)
    op = Op("tdl.route_default", ("tdl", p, None, 7), 2000)
    batch = wl.run(op, tr)
    assert wl.check(op, batch, tr) == OK
    calls = [s[5] for s in tr.spans if s[0] == "sampler.sample_batch"]
    assert calls[0] == {"kind": "tdl.route_default", "n": 2000, "error": "RejectionBudgetExceeded"}
    assert calls[1] == {"kind": FALLBACK, "n": 2000}


def test_check_cli_accepts_and_rejects():
    def expect(tr):
        return "k,p,cumulative\n"

    def proc(rc, stdout):
        return subprocess.CompletedProcess([], rc, stdout=stdout, stderr=b"")

    assert check_cli(proc(0, b"k,p,cumulative\n"), expect, Tracer(False)) == OK
    assert check_cli(proc(0, b"k,p,cumulative \n"), expect, Tracer(False)) == WRONG
    assert check_cli(proc(4, b"k,p,cumulative\n"), expect, Tracer(False)) == WRONG
    assert check_cli(proc(0, b"[PASS] a: x\nall 1 checks passed\n"), None, Tracer(False)) == OK
    assert check_cli(proc(0, b"[FAIL] a: x\nall 1 checks passed\n"), None, Tracer(False)) == WRONG
