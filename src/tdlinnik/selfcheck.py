"""Built-in consistency checks behind the ``check`` CLI subcommand.

Runs reduced-size versions of the verification suite: closed-form
identities between neighbouring laws, finite-sum PMFs against the power
series oracle, coefficient reductions, moment formulas against PMF sums,
and seeded goodness-of-fit tests for the samplers.  Deterministic for a
fixed (grid, seed) pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analytic, coeffs, laws, moments, oracle
from .params import (
    GdsSibuyaParams,
    NegativeBinomialParams,
    StableParams,
    TdlParams,
    TdsParams,
    TemperedStableParams,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _sgrid(n: int = 21) -> np.ndarray:
    return np.linspace(0.0, 1.0, n)


def _check_identities(reduced: bool) -> CheckResult:
    """Pointwise p.g.f. identities between the law and its special cases."""
    worst = 0.0
    ss = _sgrid(11 if reduced else 41)
    # a = 1 collapses to the negative binomial, c = 1 to the discrete Linnik
    for a, b, c, d in ((1.0, 1.0, 0.5, 1.0), (1.0, 2.0, 0.3, 0.5), (1.0, 0.5, 0.9, 4.0),
                       (0.5, 1.0, 1.0, 1.0), (0.25, 2.0, 1.0, 0.5)):
        p = TdlParams(a, b, c, d)
        pair = laws.reduce_special_case(p)
        for s in ss:
            worst = max(worst, abs(analytic.tdl_pgf(p, s) - laws.family_pgf(*pair, s)))
    # compound representations of the tempered discrete Linnik p.g.f.
    for a, b, c, d in ((0.5, 1.0, 0.5, 1.0), (-1.0, 2.0, 0.3, 0.5)):
        p = TdlParams(a, b, c, d)
        for s in ss:
            if a > 0:
                inner = analytic.gds_pgf(GdsSibuyaParams(a, c), s)
                composite = math.exp(
                    -math.log1p(b * d * (1.0 - inner)) / d
                )
            else:
                inner = analytic.nb_pgf(NegativeBinomialParams(c, -a), s)
                composite = math.exp(
                    -math.log1p(b * d * (1 - c) ** a * (1.0 - inner)) / d
                )
            worst = max(worst, abs(analytic.tdl_pgf(p, s) - composite))
    ok = worst < 1e-12
    # d -> 0 continuity against the Poisson-Tweedie branch
    cont = 0.0
    for a, b, c in ((0.5, 1.0, 0.5), (-1.0, 1.0, 0.5)):
        tiny = TdlParams(a, b, c, 1e-8)
        tds = TdsParams(a, b, c)
        for s in ss:
            cont = max(
                cont, abs(analytic.tdl_pgf(tiny, s) - analytic.tds_pgf(tds, s))
            )
    ok = ok and cont < 1e-6
    # tempering identity of the continuous law
    ratio_dev = 0.0
    ps = StableParams(0.5, 1.0)
    tps = TemperedStableParams(0.5, 1.0, 0.7)
    for t in (0.25, 0.5, 1.0, 2.0):
        lhs = analytic.tps_laplace(tps, t)
        rhs = analytic.ps_laplace(ps, tps.theta + t) / analytic.ps_laplace(
            ps, tps.theta
        )
        ratio_dev = max(ratio_dev, abs(lhs - rhs))
    ok = ok and ratio_dev < 1e-14
    return CheckResult(
        "pgf-identities",
        ok,
        f"max deviation {worst:.2e}; d->0 {cont:.2e}; tempering {ratio_dev:.2e}",
    )


def _check_oracle(reduced: bool) -> CheckResult:
    """Finite-sum PMFs against the power-series oracle."""
    order = 25 if reduced else 50
    pts = [
        (-1.5, 1.0, 0.4, 0.5),
        (-1.0, 2.0, 0.7, 1.0),
        (0.5, 1.0, 0.5, 1.0),
        (0.25, 0.5, 0.9, 2.0),
        (0.75, 2.0, 0.3, 0.25),
    ]
    worst = 0.0
    for a, b, c, d in pts:
        p = TdlParams(a, b, c, d)
        table = analytic.build_pmf_table(p, order)
        ref = laws.series_pmf("tdl", p, order)
        rel = np.abs(table.p - ref.p) / np.maximum(np.abs(ref.p), 1e-13)
        worst = max(worst, float(rel.max()))
        tds = TdsParams(a, b, c)
        table = analytic.build_pmf_table(tds, order)
        ref = laws.series_pmf("tds", tds, order)
        rel = np.abs(table.p - ref.p) / np.maximum(np.abs(ref.p), 1e-13)
        worst = max(worst, float(rel.max()))
    return CheckResult(
        "pmf-oracle-agreement", worst < 1e-10, f"max relative deviation {worst:.2e}"
    )


def _check_coefficients(reduced: bool) -> CheckResult:
    """Closed forms and recurrences against the defining alternating sum."""
    kmax = 12 if reduced else 20
    worst = 0.0
    for gamma, closed in ((0.5, coeffs.coeff_half), (-1.0, coeffs.coeff_neg1)):
        table = coeffs.build_table(gamma, kmax)
        for k in range(kmax + 1):
            for m in range(k + 1):
                ref = coeffs.coeff_c(gamma, m, k)
                for val in (closed(m, k), table.values[m, k]):
                    worst = max(worst, abs(val - ref) / max(abs(ref), 1e-12))
    return CheckResult(
        "coefficient-reductions", worst < 1e-10, f"max relative deviation {worst:.2e}"
    )


def _check_moments(reduced: bool) -> CheckResult:
    """Closed-form moments against PMF sums, and d-invariance of the mean."""
    pts = [
        (0.5, 1.0, 0.5, 1.0),
        (1.0, 1.0, 0.5, 1.0),
        (-1.0, 1.0, 0.3, 0.5),
        (-0.5, 2.0, 0.5, 2.0),
    ]
    kmax = 400 if reduced else 800
    worst = 0.0
    for a, b, c, d in pts:
        p = TdlParams(a, b, c, d)
        formulas = moments.tdl_moments(p)
        table = analytic.build_pmf_table(p, kmax)
        summed = moments.moments_from_pmf(table)
        for got, want, tol in (
            (summed.mu, formulas.mu, 1e-7),
            (summed.sigma2, formulas.sigma2, 1e-7),
            (summed.m3, formulas.m3, 1e-6),
            (summed.m4, formulas.m4, 1e-5),
        ):
            worst = max(worst, abs(got - want) / abs(want) / tol)
    mu_fixed = all(
        moments.tdl_moments(TdlParams(a, b, c, d1)).mu
        == moments.tdl_moments(TdlParams(a, b, c, d2)).mu
        for a, b, c in ((0.5, 1.0, 0.5), (-1.0, 2.0, 0.4))
        for d1, d2 in ((0.25, 4.0),)
    )
    ok = worst < 1.0 and mu_fixed
    return CheckResult(
        "moment-formulas",
        ok,
        f"worst deviation {worst:.2f}x tolerance; mu d-invariant: {mu_fixed}",
    )


def _check_samplers(reduced: bool, seed: int) -> CheckResult:
    """Seeded goodness-of-fit for the TDL routes against the analytic PMF."""
    n = 20000 if reduced else 100000
    cases = [
        (TdlParams(1.0, 1.0, 0.5, 1.0), "a"),
        (TdlParams(0.5, 1.0, 0.5, 1.0), "a"),
        (TdlParams(0.5, 1.0, 0.5, 1.0), "d"),
        (TdlParams(-1.0, 1.0, 0.5, 1.0), "a"),
        (TdlParams(-1.0, 1.0, 0.5, 1.0), "b"),
        (TdlParams(-1.0, 1.0, 0.5, 1.0), "c"),
    ]
    failures = []
    min_p = 1.0
    for i, (p, route) in enumerate(cases):
        table = analytic.build_pmf_table(p, 200)
        batch = laws.sample_batch("tdl", p, n, seed, stream=i, route=route)
        report = oracle.chi_square_gof(batch, table)
        min_p = min(min_p, report.p_value)
        if not report.passed:
            failures.append(f"{p} route {route}: p={report.p_value:.2e}")
    detail = f"{len(cases)} GOF runs, min p-value {min_p:.3f}"
    if failures:
        detail += "; failures: " + "; ".join(failures)
    return CheckResult("sampler-gof", not failures, detail)


def _check_determinism(seed: int) -> CheckResult:
    p = TdlParams(0.5, 1.0, 0.5, 1.0)
    a = laws.sample_batch("tdl", p, 500, seed, route="a")
    b = laws.sample_batch("tdl", p, 500, seed, route="a")
    same = bool(np.array_equal(a.values, b.values))
    return CheckResult("sampler-determinism", same, "identical batches" if same else "mismatch")


def _check_dispersion(reduced: bool) -> CheckResult:
    """D(d) - D(0) must equal d * mu to rounding error."""
    worst = 0.0
    for a, b, c in ((0.5, 1.0, 0.5), (-1.0, 2.0, 0.3), (0.25, 0.5, 0.7)):
        base = moments.tdl_moments(TdlParams(a, b, c, 0.0)).D
        for d in (0.25, 1.0, 4.0):
            m = moments.tdl_moments(TdlParams(a, b, c, d))
            dev = abs((m.D - base) - d * m.mu) / max(1.0, abs(d * m.mu))
            worst = max(worst, dev)
    return CheckResult(
        "dispersion-offset", worst < 1e-12, f"max relative deviation {worst:.2e}"
    )


def run_checks(grid: str = "small", seed: int = 42) -> list[CheckResult]:
    """Run the whole self-check battery; grid is ``small`` or ``full``."""
    reduced = grid != "full"
    return [
        _check_identities(reduced),
        _check_oracle(reduced),
        _check_coefficients(reduced),
        _check_moments(reduced),
        _check_dispersion(reduced),
        _check_samplers(reduced, seed),
        _check_determinism(seed),
    ]
