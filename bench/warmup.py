"""Tiny calls of each public function a library workload times.

A set-up is a fresh interpreter that imports ``tdlinnik`` and runs one of
these; the runner also calls them in-process before its timed window.
This module imports nothing from the benchmark, so a set-up pays for the
library alone.
"""

import tdlinnik as t

#: retry budget passed to every ``sample_batch`` call (``max_tries``)
MAX_TRIES = 100


def pmf_fit() -> None:
    p = t.TdlParams(-1.0, 1.0, 0.5, 1.0)
    t.tdl_moments(p)
    t.moments_from_pmf(t.build_pmf_table(p, 200))


def simulate() -> None:
    neg, pos = t.TdlParams(-1.0, 1.0, 0.5, 1.0), t.TdlParams(0.5, 1.0, 0.5, 1.0)
    calls = [
        ("tdl", neg, {}),
        ("tdl", neg, {"route": "c"}),
        ("tdl", pos, {"route": "d"}),
        ("tds", t.TdsParams(0.5, 1.0, 0.5), {}),
        ("ps", t.StableParams(0.5, 1.0), {}),
        ("tps", t.TemperedStableParams(0.5, 1.0, 1.0), {}),
        ("tps", t.TemperedStableParams(-1.0, 1.0, 1.0), {}),
        ("gds", t.GdsSibuyaParams(0.5, 0.5), {}),
        ("sibuya", t.SibuyaParams(0.7), {}),
        ("nb", t.NegativeBinomialParams(0.5, 2.0), {}),
        ("poisson", t.PoissonParams(3.0), {}),
        ("dl", t.LinnikParams(0.5, 1.0, 2.0), {}),
    ]
    for law, params, kwargs in calls:
        t.sample_batch(law, params, 10, 0, max_tries=MAX_TRIES, **kwargs)
