"""The bounded-time contract of the analytic front ends, as a seeded sweep.

A low-discrepancy (Kronecker) sample of the tdl/tds domain, pushed to its
extremes (b from 1e-4 to 1e5, c within 1e-7 of 0 and 1, a in {+-1e-3,
0.999, 1}, d = 0 or up to 1e3), and extreme points of the other six count
laws go through every analytic front end.  Each call must return or raise
a ``TdlError`` subclass, print no warning, and take at most about ten
times the median call of its front end on its law.

Every inversion table of the sampler is held to the same rule on every
tdl/tds point of the sample and of the float box below, and on the count
laws' extreme points: route auto's ``sampler._family_cdf``, the Poisson
and NB counts of ``sampler._count_cdf`` (the thinned and unthinned counts
of routes c and d, and the poisson and nb laws), and the jump and gds
tables of ``sampler._jump_cdf``.  Each must return a CDF table or None,
and a table's mean must match the law's closed-form mean wherever that is
a finite normal double, so a table cut short shows.

The sampling half holds ``sample_batch`` to the same rule wherever its work
per draw is bounded today, on this sample and on the whole float box (a
from -50 to 0.999, b and d out to 1e-300 and 1e300, c within 1e-300 of 0
and 1e-12 of 1): every route at a < 0 (b uncapped), route a at
a > 0 (its tempering rejection is budgeted by ``max_tries``), the default
route at c = 1, and every law without routes at extreme points.  Route d,
and the default route where it resolves to d (0 < a <= 1, c < 1), draw
every non-zero jump, so their work grows with b and they are left out
until that is bounded (ROADMAP item 6).
"""

import dataclasses
import itertools
import math
import sys
import statistics
import time
import warnings

import numpy as np
from click.testing import CliRunner

from tdlinnik import (
    GammaParams,
    GdsSibuyaParams,
    LinnikParams,
    NegativeBinomialParams,
    PoissonParams,
    SibuyaParams,
    StableParams,
    TdlError,
    TdlParams,
    TdsParams,
    TemperedLinnikParams,
    TemperedStableParams,
    build_pmf_table,
    moments_from_pmf,
    sample_batch,
    series_pmf,
    tdl_moments,
)
from tdlinnik.cli import main
from tdlinnik.laws import LAWS
from tdlinnik.sampler import _count_cdf, _family_cdf, _jump_cdf, _log_jump_mass, _tdl_family

SEED = 2016
N_TDL = 300
#: table length on the Panjer path, series order on the series path
KMAX, ORDER = 400, 60
#: a call may take SLOWDOWN times the median call of its front end and law;
#: FLOOR_S absorbs timer and scheduler jitter on calls of a millisecond
SLOWDOWN, FLOOR_S = 10.0, 0.02

_ALPHA = np.sqrt([2.0, 3.0, 5.0, 7.0, 11.0]) % 1.0
A_EXTREMES = (-1e-3, 1e-3, 0.999, 1.0)

#: draws per sample_batch call and the rejection budget of each
N_DRAWS, MAX_TRIES = 1000, 100

#: the points where build_pmf_table once raised a raw OverflowError
TDL_FIXED = [TdlParams(-2.6, 0.245, 0.9999998, 0.0), TdlParams(-1.54, 34582.0, 0.99998, 0.0)]

OTHER_LAWS = (
    [("nb", NegativeBinomialParams(pi, delta))
     for pi, delta in itertools.product((1e-9, 0.5, 0.999999), (1e-4, 1.0, 1e5))]
    + [("poisson", PoissonParams(lam)) for lam in (1e-9, 1.0, 50.0, 1e6)]
    + [("sibuya", SibuyaParams(g)) for g in (1e-6, 0.5, 1.0)]
    + [("gds", GdsSibuyaParams(g, tau))
       for g, tau in itertools.product((1e-300, 1e-6, 0.5, 1.0),
                                       (5e-324, 1e-300, 1e-9, 0.999999, 1.0))]
    + [("dl", LinnikParams(g, lam, delta))
       for g, lam, delta in itertools.product((1e-6, 1.0), (1e-9, 1e6), (1e-4, 1e5))]
    + [("ds", StableParams(g, lam)) for g, lam in itertools.product((1e-6, 1.0), (1e-9, 1e6))]
)

#: extreme points of the positive laws, which only sampling sweeps
POSITIVE_LAWS = (
    [("ps", StableParams(g, lam)) for g, lam in itertools.product((1e-6, 0.5, 1.0), (1e-9, 1e6))]
    + [("pl", LinnikParams(g, lam, delta))
       for g, lam, delta in itertools.product((1e-6, 0.5, 1.0), (1e-9, 1e6), (1e-4, 1e5))]
    + [("tps", TemperedStableParams(g, lam, theta))
       for g, lam, theta in itertools.product((-3.0, -1e-3, 1e-3, 0.5, 1.0), (1e-9, 1e6),
                                              (1e-9, 1.0, 1e6))]
    + [("tps", TemperedStableParams(g, 1.0, 0.0)) for g in (1e-3, 0.5, 1.0)]
    + [("tpl", TemperedLinnikParams(g, lam, theta, delta))
       for g, lam, theta, delta in itertools.product((-3.0, 1e-3, 0.5), (1e-9, 1e6),
                                                     (1e-9, 1e6), (1e-4, 1e5))]
    + [("gamma", GammaParams(scale, shape))
       for scale, shape in itertools.product((1e-9, 1.0, 1e6), (1e-9, 1.0, 1e6))]
)


def tdl_point(u):
    """One admissible tdl or tds record from a point u of [0, 1)^5."""
    if u[4] < 0.3:
        a = A_EXTREMES[int(u[0] * len(A_EXTREMES))]
    else:
        a = -3.0 + 4.0 * u[0]
    b = 10.0 ** (-4.0 + 9.0 * u[1])
    band, v = divmod(7.0 * u[2], 1.0)
    c = (0.0, 1.0, 1e-7 * v, 1.0 - 1e-7 * v, v / 3, (1 + v) / 3, (2 + v) / 3)[int(band)]
    if a <= 0:
        c = min(c, 1.0 - 1e-7)
    if u[3] < 0.3:
        return TdsParams(a, b, c) if u[4] < 0.5 else TdlParams(a, b, c, 0.0)
    return TdlParams(a, b, c, 10.0 ** (-3.0 + 6.0 * (u[3] - 0.3) / 0.7))


def tdl_points(seed, n):
    shift = np.random.default_rng(seed).random(5)
    return [tdl_point((shift + r * _ALPHA) % 1.0) for r in range(n)] + TDL_FIXED


def timed(fn, *args):
    """(seconds, result or TdlError) of one call; a warning raises."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except TdlError as exc:
            out = exc
        return time.perf_counter() - t0, out


def cli_pmf(tag, params):
    flags = []
    for name, value in zip(LAWS[tag].flags, dataclasses.astuple(params)):
        flags += ["-" + name if len(name) == 1 else "--" + name, repr(value)]
    kmax = KMAX if tag in ("tdl", "tds") else ORDER
    res = CliRunner().invoke(main, ["pmf", "--law", tag, *flags, "--kmax", str(kmax)])
    # exit 1 on pmf is an unhandled exception; a warning raised as an error lands here too
    assert res.exit_code in (0, 2, 3, 5), (tag, params, res.exception)
    return res.exit_code


def assert_bounded(calls):
    """Time each (front end, law, call); no call may take more than SLOWDOWN
    times the median of its front end on its law.  Returns what each call
    returned or raised."""
    times, outs = {}, []
    for front, tag, call in calls:
        seconds, out = timed(*call)
        outs.append(out)
        times.setdefault((front, tag), []).append((seconds, call))
        if front == "build_pmf_table" and not isinstance(out, TdlError):
            follow = (moments_from_pmf, out)
            times.setdefault(("moments_from_pmf", tag), []).append((timed(*follow)[0], follow))

    for key, runs in times.items():
        bound = max(SLOWDOWN * statistics.median(s for s, _ in runs), FLOOR_S)
        for seconds, call in runs:
            if seconds > bound:
                # timed once more, so that one preemption alone fails nothing
                seconds = min(seconds, timed(*call)[0])
            assert seconds <= bound, (key, call[1:], seconds, bound)
    return outs


def draw(tag, params, route):
    return sample_batch(tag, params, N_DRAWS, SEED, route=route, max_tries=MAX_TRIES)


#: the whole float box on the sampling routes: exponents near the ends of
#: double precision and c next to 0 and 1 (a <= 0 needs c < 1)
FLOAT_BOX = [
    TdlParams(a, b, c, d)
    for a, b, c, d in itertools.product(
        (-50.0, -10.0, -3.5, 1e-3, 0.999), (1e-300, 1e-10, 1e10, 1e300),
        (1e-300, 1e-7, 0.5, 1.0 - 1e-12, 1.0), (0.0, 1e-300, 1e300))
    if a > 0 or c < 1
]


def test_every_call_returns_or_fails_typed_in_bounded_time():
    calls = []  # (front end, law, call)
    for p in tdl_points(SEED, N_TDL):
        tag = "tds" if isinstance(p, TdsParams) else "tdl"
        calls += [
            ("build_pmf_table", tag, (build_pmf_table, p, KMAX)),
            ("series_pmf", tag, (series_pmf, tag, p, ORDER)),
            ("tdl_moments", tag, (tdl_moments, p)),
            ("cli pmf", tag, (cli_pmf, tag, p)),
        ]
    calls += [("series_pmf", tag, (series_pmf, tag, p, ORDER)) for tag, p in OTHER_LAWS]
    calls += [("cli pmf", tag, (cli_pmf, tag, p)) for tag, p in OTHER_LAWS]
    assert_bounded(calls)


def test_every_draw_returns_or_fails_typed_in_bounded_time():
    calls = []
    for p in tdl_points(SEED, N_TDL):
        tag = "tds" if isinstance(p, TdsParams) else "tdl"
        if p.a < 0:
            routes = ("auto", "a", "b", "c")
        else:
            routes = ("a", "auto") if p.c == 1 else ("a",)
        calls += [(f"sample_batch route {r}", tag, (draw, tag, p, r)) for r in routes]
    calls += [("sample_batch", tag, (draw, tag, p, "auto")) for tag, p in OTHER_LAWS + POSITIVE_LAWS]
    assert_bounded(calls)


def test_every_draw_on_the_float_box_returns_or_fails_typed_in_bounded_time():
    # route a forms B c^a, and B (1-c)^a for a < 0, as sums of logs, so a
    # factor past double precision (c^a = 1e15000 at a = -50, c = 1e-300)
    # no longer overflows where the product does not
    calls = []
    for p in FLOAT_BOX:
        if p.a < 0:
            routes = ("auto", "a", "b", "c")
        else:
            routes = ("a", "auto") if p.c == 1 else ("a",)
        calls += [(f"sample_batch route {r}", "tdl", (draw, "tdl", p, r)) for r in routes]
    assert_bounded(calls)


def _exp(x):
    """exp(x), inf past double precision."""
    return math.exp(x) if x < 709.0 else math.inf


def check_table(cdf, log_mean, where):
    """A table is a CDF or None.  Where the law's mean exp(log_mean) is a
    finite normal double, the table's mean, the sum of P(X > k) below its
    end, matches it to rel 1e-9.  A CDF held in doubles resolves a mean
    only up to its running sums' rounding, about k ulps of 1 at entry k, so
    K^2 ulps over K entries are allowed on top: 4e-6 at 2^17 entries, so a
    table cut short by 1e-9 of its mass at k >= 1e3 still fails."""
    if cdf is None:
        return
    assert cdf[-1] == 1.0 and np.all(np.diff(cdf) >= 0.0), where
    mean = _exp(log_mean)
    if sys.float_info.min <= mean < math.inf:
        got = math.fsum(1.0 - cdf[:-1])
        assert abs(got - mean) <= 1e-9 * mean + len(cdf) ** 2 * sys.float_info.epsilon, (
            where, got, mean)


def family_tables(p):
    """Route auto's table of a tdl or tds record, of mean -beta a c (1-c)^(a-1),
    times power where the outer function is one."""
    a, c, beta, power = _tdl_family(p)
    log_mean = -math.inf
    if 0.0 < c < 1.0 and beta != 0.0:
        log_mean = (math.log(abs(beta)) + math.log(abs(a)) + math.log(c)
                    + (a - 1) * math.log1p(-c) + (0.0 if power is None else math.log(abs(power))))
    return [("_family_cdf", "tdl", _family_cdf, (a, c, beta, power), log_mean)]


def compound_tables(p):
    """The count and jump tables routes c and d would draw for a tdl or tds
    record with c < 1: the thinned count (mean b |h|) and the unthinned
    ones (mean b for a > 0, b (1-c)^a for a < 0), the jumps given X > 0 and,
    for 0 < a <= 1, the gds law of the jumps."""
    if p.a == 0.0 or not 0.0 < p.c < 1.0:
        return []
    log_b, log_h = math.log(p.b), _log_jump_mass(p.a, p.c)
    count = "poisson" if p.d == 0 else "nb"
    full = log_b + (0.0 if p.a > 0 else p.a * math.log1p(-p.c))
    out = [("_count_cdf", count, _count_cdf, (_exp(m), p.d), m) for m in (log_b + log_h, full)]
    # E[J] = |a| c (1-c)^(a-1), over |h| given J > 0
    log_jump_mean = math.log(abs(p.a)) + math.log(p.c) + (p.a - 1) * math.log1p(-p.c)
    if log_h > -math.inf:
        out.append(("_jump_cdf", "jumps", _jump_cdf, (p.a, p.c), log_jump_mean - log_h))
    if 0.0 < p.a <= 1.0:
        out.append(("_jump_cdf", "gds", _jump_cdf, (p.a, p.c, True), log_jump_mean))
    return out


def law_tables(tag, params):
    """The table the poisson, nb or gds law would invert."""
    if tag == "poisson":
        return [("_count_cdf", tag, _count_cdf, (params.lam, 0.0), math.log(params.lam))]
    if tag == "nb":
        mean = params.delta * params.pi / (1.0 - params.pi)
        log_mean = math.log(params.delta) + math.log(params.pi) - math.log1p(-params.pi)
        return [("_count_cdf", tag, _count_cdf, (mean, 1.0 / params.delta), log_mean)]
    if tag == "gds":
        return compound_tables(TdsParams(params.gamma, 1.0, params.tau))[-1:]
    return []


def test_every_table_is_a_cdf_or_none_in_bounded_time():
    points = tdl_points(SEED, N_TDL) + FLOAT_BOX
    tables = [t for p in points for t in family_tables(p) + compound_tables(p)]
    tables += [t for tag, p in OTHER_LAWS for t in law_tables(tag, p)]
    outs = assert_bounded([(front, tag, (build, *args)) for front, tag, build, args, _ in tables])
    for (front, _, _, args, log_mean), cdf in zip(tables, outs):
        check_table(cdf, log_mean, (front, args))
