"""Independent verification paths for the analytic and sampling modules.

Two oracles live here:

* truncated power series in extended precision (mpmath, 40 significant
  digits by default), used to extract PMF values directly as Taylor
  coefficients of the generating functions (``series_pmf`` in :mod:`laws`
  picks each count law's builder).  This path shares nothing with the
  finite-sum evaluation it checks: powers and exponentials of series are
  expanded by the classical coefficient recurrences (J.C.P. Miller), so
  it is strictly more accurate than the production double-precision path.
* Monte-Carlo utilities: a pooled-bin chi-square goodness-of-fit report
  (its upper tail is mpmath's regularized incomplete gamma) and the
  empirical probability generating function with its standard error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import mpmath as mp
import numpy as np

from .analytic import PmfTable
from .errors import (
    DomainError,
    InsufficientSample,
    SingularComposition,
    UnsupportedOuterFunction,
)
from .params import (
    GdsSibuyaParams,
    LinnikParams,
    NegativeBinomialParams,
    PoissonParams,
    SibuyaParams,
    StableParams,
    TdlParams,
    TdsParams,
    sgn,
)
from .sampler import SampleBatch

#: working precision (significant decimal digits) for series arithmetic
ORACLE_DPS = 40

#: hard cap on the series truncation order
MAX_SERIES_ORDER = 200

OuterTag = Union[str, tuple]


@dataclass(frozen=True)
class TruncatedSeries:
    """Coefficients c[0..K] of a power series truncated at order K.

    Coefficients are mpmath floats; arithmetic on two series carries the
    smaller truncation order.
    """

    coeffs: tuple

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        k = min(self.order, other.order)
        return TruncatedSeries(
            tuple(a + b for a, b in zip(self.coeffs[: k + 1], other.coeffs[: k + 1]))
        )

    def scaled(self, factor) -> "TruncatedSeries":
        f = mp.mpf(factor)
        return TruncatedSeries(tuple(f * c for c in self.coeffs))

    def shifted_constant(self, constant) -> "TruncatedSeries":
        """Add a constant to the series (affects only the 0th coefficient)."""
        c0 = self.coeffs[0] + mp.mpf(constant)
        return TruncatedSeries((c0,) + self.coeffs[1:])

    def to_floats(self) -> np.ndarray:
        return np.array([float(c) for c in self.coeffs])


def series_binomial_power(c: float, a: float, order: int) -> TruncatedSeries:
    """Taylor series of (1 - c s)^a: coefficients binom(a, k) (-c)^k."""
    if not abs(c) <= 1.0:
        raise DomainError(f"|c| must be <= 1, got {c}")
    if order < 0:
        raise DomainError(f"order must be >= 0, got {order}")
    with mp.workdps(ORACLE_DPS):
        ncm, am = -mp.mpf(c), mp.mpf(a)
        out = [mp.mpf(1)]
        for k in range(order):
            out.append(out[-1] * ncm * (am - k) / (k + 1))
    return TruncatedSeries(tuple(out))


def series_compose_outer(inner: TruncatedSeries, outer: OuterTag) -> TruncatedSeries:
    """Taylor coefficients of phi(inner(s)) for phi = exp or a real power.

    ``outer`` is ``"exp"`` or ``("power", p)``.  Powers use Miller's
    recurrence b_n = (1/(n a_0)) sum_j (j(p+1) - n) a_j b_{n-j}, which
    requires the constant term a_0 to sit strictly inside the analyticity
    domain (a_0 > 0); a branch-point constant term raises
    :class:`SingularComposition`.
    """
    order = inner.order
    a = inner.coeffs
    with mp.workdps(ORACLE_DPS):
        # each inner sum is one mp.fdot (exact products, rounded once) over
        # precomputed lists; the b lists are kept reversed, b_rev[i] = b_{n-1-i}
        if outer == "exp":
            ja = [j * a[j] for j in range(order + 1)]
            b_rev = [mp.e ** a[0]]
            for n in range(1, order + 1):
                b_rev.insert(0, mp.fdot(ja[1 : n + 1], b_rev) / n)
            return TruncatedSeries(tuple(reversed(b_rev)))
        if isinstance(outer, tuple) and len(outer) == 2 and outer[0] == "power":
            p = mp.mpf(outer[1])
            if a[0] <= 0:
                raise SingularComposition(
                    f"power composition needs a positive constant term, got {a[0]}"
                )
            # (j(p+1) - n) a_j b_{n-j} = (p j a_j) b_{n-j} + a_j (-(n-j) b_{n-j})
            pja = tuple(p * j * a[j] for j in range(order + 1))
            b_rev = [a[0] ** p]
            neg_kb_rev = [mp.mpf(0)]  # -k b_k, reversed like b_rev
            for n in range(1, order + 1):
                acc = mp.fdot(pja[1 : n + 1] + a[1 : n + 1], b_rev + neg_kb_rev)
                bn = acc / (n * a[0])
                b_rev.insert(0, bn)
                neg_kb_rev.insert(0, -n * bn)
            return TruncatedSeries(tuple(reversed(b_rev)))
    raise UnsupportedOuterFunction(f"outer must be 'exp' or ('power', p), got {outer!r}")


def _tdl_series(p: TdlParams, order: int) -> TruncatedSeries:
    s = sgn(p.a)
    inner = series_binomial_power(p.c, p.a, order)
    with mp.workdps(ORACLE_DPS):
        beta = mp.mpf(s) * p.b * p.d
        # 1 + beta ((1-cs)^a - (1-c)^a): the constant term is exactly 1 at c = 0
        u = inner.shifted_constant(-(1 - mp.mpf(p.c)) ** p.a).scaled(beta).shifted_constant(1)
    return series_compose_outer(u, ("power", -1.0 / p.d))


def _tds_series(p: TdsParams, order: int) -> TruncatedSeries:
    s = sgn(p.a)
    inner = series_binomial_power(p.c, p.a, order)
    with mp.workdps(ORACLE_DPS):
        beta = -mp.mpf(s) * p.b
        alpha = -beta * (1 - mp.mpf(p.c)) ** p.a
        u = inner.scaled(beta).shifted_constant(alpha)
    return series_compose_outer(u, "exp")


def _dl_series(p: LinnikParams, order: int) -> TruncatedSeries:
    inner = series_binomial_power(1.0, p.gamma, order)
    with mp.workdps(ORACLE_DPS):
        u = inner.scaled(mp.mpf(p.lam) / p.delta).shifted_constant(1)
    return series_compose_outer(u, ("power", -p.delta))


def _ds_series(p: StableParams, order: int) -> TruncatedSeries:
    inner = series_binomial_power(1.0, p.gamma, order)
    return series_compose_outer(inner.scaled(-p.lam), "exp")


def _nb_series(p: NegativeBinomialParams, order: int) -> TruncatedSeries:
    inner = series_binomial_power(p.pi, -p.delta, order)
    with mp.workdps(ORACLE_DPS):
        norm = (1 - mp.mpf(p.pi)) ** p.delta
    return inner.scaled(norm)


def _sibuya_series(p: SibuyaParams, order: int) -> TruncatedSeries:
    inner = series_binomial_power(1.0, p.gamma, order)
    return inner.scaled(-1).shifted_constant(1)


def _gds_series(p: GdsSibuyaParams, order: int) -> TruncatedSeries:
    inner = series_binomial_power(p.tau, p.gamma, order)
    with mp.workdps(ORACLE_DPS):
        const = 1 + (1 - mp.mpf(p.tau)) ** p.gamma
    return inner.scaled(-1).shifted_constant(const)


def _poisson_series(p: PoissonParams, order: int) -> TruncatedSeries:
    with mp.workdps(ORACLE_DPS):
        lam = mp.mpf(p.lam)
        coeffs = [mp.e**-lam]
        for k in range(order):
            coeffs.append(coeffs[-1] * lam / (k + 1))
    return TruncatedSeries(tuple(coeffs))


# ---------------------------------------------------------------------------
# Monte-Carlo utilities

#: minimum sample size for the Monte-Carlo estimators
MIN_SAMPLE = 10**3

#: minimum expected count per pooled chi-square bin
MIN_EXPECTED = 5.0


@dataclass(frozen=True)
class GofReport:
    """Pearson chi-square goodness-of-fit summary over pooled bins.

    ``bins`` lists the pooled support intervals (lo, hi) with hi = -1 for
    the open right tail.
    """

    statistic: float
    dof: int
    p_value: float
    bins: tuple
    n: int

    @property
    def passed(self) -> bool:
        """Conventional acceptance at the 0.001 significance level."""
        return self.p_value > 0.001


def _pool_bins(expected: np.ndarray) -> list[tuple[int, int]]:
    """Pool support cells left to right until each bin expects >= 5 counts.

    The remainder of the table plus the analytic tail becomes a final
    open-ended bin (lo, -1).
    """
    bins: list[tuple[int, int]] = []
    acc = 0.0
    lo = 0
    for k, e in enumerate(expected):
        acc += e
        if acc >= MIN_EXPECTED:
            bins.append((lo, k))
            lo = k + 1
            acc = 0.0
    bins.append((lo, -1))
    return bins


def _chi2_sf(x: float, dof: int) -> float:
    """Upper chi-square tail P(X > x): the regularized upper incomplete gamma."""
    return float(mp.gammainc(dof / 2, x / 2, regularized=True))


def chi_square_gof(samples: SampleBatch, pmf: PmfTable) -> GofReport:
    """Pearson chi-square test of integer samples against a PMF table.

    Support cells are pooled left to right so every bin has expected count
    at least 5; the final bin is open-ended and absorbs the tail mass.
    A report with ``p_value`` from the upper chi-square tail is returned
    (no significance decision is made here).
    """
    n = samples.n
    if n < MIN_SAMPLE:
        raise InsufficientSample(f"need at least {MIN_SAMPLE} samples, got {n}")
    values = np.asarray(samples.values)
    if values.size and values.min() < 0:
        raise DomainError("integer samples expected: negative values present")
    expected_cells = n * pmf.p
    bins = _pool_bins(expected_cells)
    if len(bins) > 1 and expected_cells[bins[-1][0] :].sum() + n * pmf.tail_mass < MIN_EXPECTED:
        # open tail too thin on its own: merge it into the previous bin
        lo = bins[-2][0]
        bins = bins[:-2] + [(lo, -1)]
    observed_cells = np.bincount(
        np.minimum(values, pmf.kmax + 1).astype(np.int64), minlength=pmf.kmax + 2
    )
    stat = 0.0
    for lo, hi in bins:
        if hi == -1:
            e = expected_cells[lo:].sum() + n * pmf.tail_mass
            o = observed_cells[lo:].sum()
        else:
            e = expected_cells[lo : hi + 1].sum()
            o = observed_cells[lo : hi + 1].sum()
        stat += (o - e) ** 2 / e
    dof = max(1, len(bins) - 1)
    return GofReport(
        statistic=float(stat),
        dof=dof,
        p_value=_chi2_sf(stat, dof),
        bins=tuple(bins),
        n=n,
    )


def empirical_pgf(samples: SampleBatch, s: float) -> tuple[float, float]:
    """Monte-Carlo estimate of E[s^X] with its standard error."""
    if samples.n < MIN_SAMPLE:
        raise InsufficientSample(
            f"need at least {MIN_SAMPLE} samples, got {samples.n}"
        )
    if not 0.0 <= s <= 1.0:
        raise DomainError(f"s must lie in [0, 1], got {s}")
    powers = np.power(float(s), np.asarray(samples.values, dtype=float))
    est = float(powers.mean())
    se = float(powers.std(ddof=1) / math.sqrt(samples.n))
    return est, se


def empirical_laplace(samples: SampleBatch, t: float) -> tuple[float, float]:
    """Monte-Carlo estimate of E[exp(-t X)] with its standard error."""
    if samples.n < MIN_SAMPLE:
        raise InsufficientSample(
            f"need at least {MIN_SAMPLE} samples, got {samples.n}"
        )
    if not t > 0:
        raise DomainError(f"t must be > 0, got {t}")
    vals = np.exp(-t * np.asarray(samples.values, dtype=float))
    est = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(samples.n))
    return est, se
