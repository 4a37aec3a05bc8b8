"""Metric names and units, and how a run turns into them.

End-to-end metrics come from an untraced run.  Per-layer metrics come
from a traced run: it first runs the workload untraced for half the
window, then replays the same rounds with spans on (the difference in
work_per_s is the tracing overhead), then times a fixed probe table.  A
per-layer time or rate reads 0 when the workload made no such call.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import mpmath
import numpy as np
import scipy

from spans import LAYERS, Tracer, p50_ms, self_times
from tdlinnik import RejectionBudgetExceeded, TdlParams, build_pmf_table, sample_batch, series_pmf
from workloads import FALLBACK, OK, ROOT, WRONG, CliSession, timed_loop

END_TO_END = {
    "setup_s": "s",
    "work_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}

CLI_KINDS = CliSession.kinds
#: per-layer sampler rate -> simulate operation kinds it covers
SAMPLER_RATES = {
    "tdl.route_default": ("tdl.route_default", FALLBACK),
    "tdl.route_c": ("tdl.route_c",),
    "tdl.route_d": ("tdl.route_d",),
    "tds": ("tds_neg", "tds_pos"),
    **{k: (k,) for k in ("ps", "tps_pos", "tps_neg", "gds", "sibuya", "nb", "poisson", "dl")},
}
SAMPLER_ERRORS = ("RejectionBudgetExceeded", "HeavyTailOverflow")
TABLE_SIZES = (50, 200, 800, 1600)
SERIES_ORDERS = (50, 200)
PROBE_NEG = TdlParams(-1.0, 1.0, 0.5, 1.0)
PROBE_POS = TdlParams(0.5, 1.0, 0.5, 1.0)
PROBE_ROUTES = (("a", PROBE_POS), ("b", PROBE_NEG), ("c", PROBE_NEG), ("d", PROBE_POS))
PROBE_DRAWS = 1_000_000

PER_LAYER = {
    "cli.import_s": "s",
    "cli.help_s": "s",
    **{f"cli.{kind}_s": "s" for kind in CLI_KINDS},
    "cli.stdout_bytes": "count",
    "cli.failed": "count",
    "analytic.build_pmf_table.calls": "count",
    "analytic.build_pmf_table.entries": "count",
    "analytic.build_pmf_table.busy_s": "s",
    **{f"analytic.build_pmf_table.kmax{k}_ms": "ms" for k in TABLE_SIZES},
    "analytic.max_relerr_vs_oracle": "ratio",
    "moments.tdl_moments.busy_s": "s",
    "moments.moments_from_pmf.busy_s": "s",
    "moments.max_relerr": "ratio",
    "sampler.sample_batch.calls": "count",
    "sampler.sample_batch.draws": "count",
    "sampler.sample_batch.busy_s": "s",
    **{f"sampler.failed.{err}": "count" for err in SAMPLER_ERRORS},
    "sampler.tdl.route_default.fail_ratio": "ratio",
    **{f"sampler.{name}.draws_per_s": "1/s" for name in SAMPLER_RATES},
    **{f"oracle.series_pmf.order{k}_ms": "ms" for k in SERIES_ORDERS},
    "oracle.series_pmf.busy_s": "s",
    "oracle.chi_square_gof.calls": "count",
    "oracle.chi_square_gof.bins": "count",
    "oracle.chi_square_gof.busy_s": "s",
    "oracle.gof_min_p": "ratio",
    **{f"{layer}.self_s": "s" for layer in (*LAYERS, "bench")},
    "trace.spans": "count",
    "trace.work_per_s_untraced": "1/s",
    "trace.work_per_s_traced": "1/s",
    "trace.overhead_ratio": "ratio",
    "probe.build_pmf_table.a_neg1_kmax800_s": "s",
    "probe.build_pmf_table.a_neg1_kmax1600_s": "s",
    "probe.series_pmf.order200_s": "s",
    **{f"probe.tdl.route_{route}.draws_per_s": "1/s" for route, _ in PROBE_ROUTES},
}

#: fresh set-ups per run, after one discarded set-up
SETUP_REPS = 5


class SetupFailed(RuntimeError):
    pass


def time_setup(argv) -> float:
    """Wall time of one fresh interpreter running ``argv``."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True, timeout=120)
    if proc.returncode != 0:
        raise SetupFailed(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr.decode()}")
    return time.perf_counter() - t0


class SpreadSetups:
    """Set-ups spread over the timed window, between operations.

    The machine's speed drifts over seconds, so ``reps`` back-to-back
    set-ups all land in one phase of it; spread out, their median follows
    the same phases as the operations.  One discarded set-up first warms
    the page cache and ``__pycache__``.
    """

    def __init__(self, argv, reps: int, seconds: float) -> None:
        self.argv, self.reps, self.seconds = argv, reps, seconds
        time_setup(argv)
        self.times: list[float] = []

    def between_ops(self, rec) -> None:
        if len(self.times) < self.reps and rec.timed >= len(self.times) * self.seconds / self.reps:
            self.times.append(time_setup(self.argv))

    def median(self) -> float:
        while len(self.times) < self.reps:
            self.times.append(time_setup(self.argv))
        return statistics.median(self.times)


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def result(rec, metrics: dict, units: dict) -> dict:
    return {
        "correct": WRONG not in rec.outcomes,
        "attempted": len(rec.outcomes),
        "failed": sum(o != OK for o in rec.outcomes),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def end_to_end(wl, seconds: float, setup_reps: int = SETUP_REPS) -> dict:
    setups = SpreadSetups(wl.setup_argv, setup_reps, seconds)
    wl.warmup()
    rec = timed_loop(wl, Tracer(False), seconds, between_ops=setups.between_ops)
    times = np.array(rec.times)
    metrics = {
        "setup_s": setups.median(),
        "work_per_s": rec.work_per_s,
        "op_p50_ms": float(np.percentile(times, 50)) * 1e3,
        "op_p90_ms": float(np.percentile(times, 90)) * 1e3,
        "ok_ratio": rec.outcomes.count(OK) / len(rec.outcomes),
        "peak_rss_mb": peak_rss_mb(children=isinstance(wl, CliSession)),
    }
    return result(rec, metrics, END_TO_END)


def median_time(fn, reps: int = 3) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def probe(reps: int = 3) -> dict:
    """The fixed-point probe table of ROADMAP item 1, re-measured."""
    out = {
        "probe.build_pmf_table.a_neg1_kmax800_s": median_time(lambda: build_pmf_table(PROBE_NEG, 800), reps),
        "probe.build_pmf_table.a_neg1_kmax1600_s": median_time(lambda: build_pmf_table(PROBE_NEG, 1600), reps),
        "probe.series_pmf.order200_s": median_time(lambda: series_pmf("tdl", PROBE_NEG, 200), reps),
    }
    for route, p in PROBE_ROUTES:
        try:
            t = median_time(lambda: sample_batch("tdl", p, PROBE_DRAWS, 1, route=route), reps)
            rate = PROBE_DRAWS / t
        except RejectionBudgetExceeded:
            rate = 0.0
        out[f"probe.tdl.route_{route}.draws_per_s"] = rate
    return out


def per_layer(spans: list, stats: dict) -> dict:
    """Per-layer metrics derived from the spans of a traced run."""
    by = defaultdict(list)
    for s in spans:
        by[s[0]].append(s)

    def dur(s):
        return s[2] - s[1]

    def busy(name):
        return sum(dur(s) for s in by[name])

    def ok(s):
        return "error" not in s[5]

    m = {}
    for kind in CLI_KINDS:
        ds = [dur(s) for s in by[f"cli.{kind}"]]
        m[f"cli.{kind}_s"] = statistics.median(ds) if ds else 0.0
    m["cli.stdout_bytes"] = sum(s[5].get("bytes", 0) for k in CLI_KINDS for s in by[f"cli.{k}"])
    m["cli.failed"] = sum(s[5]["kind"] in CLI_KINDS and s[5]["outcome"] != OK for s in by["op"])

    tables = by["analytic.build_pmf_table"]
    m["analytic.build_pmf_table.calls"] = len(tables)
    m["analytic.build_pmf_table.entries"] = sum(s[5]["kmax"] + 1 for s in tables)
    m["analytic.build_pmf_table.busy_s"] = busy("analytic.build_pmf_table")
    for k in TABLE_SIZES:
        m[f"analytic.build_pmf_table.kmax{k}_ms"] = p50_ms([dur(s) for s in tables if s[5]["kmax"] == k])
    m["analytic.max_relerr_vs_oracle"] = stats.get("analytic.max_relerr_vs_oracle", 0.0)
    m["moments.tdl_moments.busy_s"] = busy("moments.tdl_moments")
    m["moments.moments_from_pmf.busy_s"] = busy("moments.moments_from_pmf")
    m["moments.max_relerr"] = stats.get("moments.max_relerr", 0.0)

    batches = by["sampler.sample_batch"]
    m["sampler.sample_batch.calls"] = len(batches)
    m["sampler.sample_batch.draws"] = sum(s[5]["n"] for s in batches if ok(s))
    m["sampler.sample_batch.busy_s"] = busy("sampler.sample_batch")
    for err in SAMPLER_ERRORS:
        m[f"sampler.failed.{err}"] = sum(s[5].get("error") == err for s in batches)
    default = [s for s in batches if s[5]["kind"] == "tdl.route_default"]
    m["sampler.tdl.route_default.fail_ratio"] = (
        sum(not ok(s) for s in default) / len(default) if default else 0.0
    )
    for name, kinds in SAMPLER_RATES.items():
        sel = [s for s in batches if s[5]["kind"] in kinds]
        t = sum(dur(s) for s in sel)
        m[f"sampler.{name}.draws_per_s"] = sum(s[5]["n"] for s in sel if ok(s)) / t if t else 0.0

    series = by["oracle.series_pmf"]
    for k in SERIES_ORDERS:
        m[f"oracle.series_pmf.order{k}_ms"] = p50_ms([dur(s) for s in series if s[5]["order"] == k])
    m["oracle.series_pmf.busy_s"] = busy("oracle.series_pmf")
    gof = by["oracle.chi_square_gof"]
    m["oracle.chi_square_gof.calls"] = len(gof)
    m["oracle.chi_square_gof.bins"] = sum(s[5].get("bins", 0) for s in gof)
    m["oracle.chi_square_gof.busy_s"] = busy("oracle.chi_square_gof")
    # 1.0 (no evidence against any sampler) when no GOF ran
    m["oracle.gof_min_p"] = min((s[5]["p"] for s in gof if "p" in s[5]), default=1.0)

    for layer, t in self_times(spans).items():
        m[f"{layer}.self_s"] = t
    m["trace.spans"] = len(spans)
    return m


def traced(wl, seconds: float, setup_reps: int = SETUP_REPS, probe_reps: int = 3):
    """Per-layer metrics, the spans and the verified record of a traced run."""
    # back-to-back set-ups: per-layer metrics carry no bound
    extra = {
        "cli.import_s": SpreadSetups(("-c", "import tdlinnik"), setup_reps, 0.0).median(),
        "cli.help_s": (
            SpreadSetups(CliSession.setup_argv, setup_reps, 0.0).median()
            if isinstance(wl, CliSession) else 0.0
        ),
    }
    wl.warmup()
    plain = timed_loop(wl, Tracer(False), seconds / 2)
    tracer = Tracer(True)
    rec = timed_loop(wl, tracer, rounds=plain.rounds)
    metrics = per_layer(tracer.spans, getattr(wl, "stats", {}))
    metrics.update(extra)
    metrics["trace.work_per_s_untraced"] = plain.work_per_s
    metrics["trace.work_per_s_traced"] = rec.work_per_s
    metrics["trace.overhead_ratio"] = 1.0 - rec.work_per_s / plain.work_per_s if plain.work_per_s else 0.0
    metrics.update(probe(probe_reps))
    return result(rec, metrics, PER_LAYER), tracer


def meta(workload: str, seed: int, seconds: float) -> dict:
    """Machine and library versions, stored with the spans of a traced run."""
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
    }
