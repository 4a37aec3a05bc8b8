"""Independent verification paths for the analytic and sampling modules.

Two oracles live here:

* truncated power series in 40-digit decimal arithmetic (the standard
  library's :mod:`decimal`), used to extract PMF values directly as Taylor
  coefficients of the generating functions, each series truncated at
  order K the tuple of its :class:`Decimal` coefficients c[0..K].
  ``series_pmf`` in :mod:`laws` reads each count law's family coordinates
  and runs the one family builder, :func:`_family_series`, inside one
  :func:`precision_scope`, at ``ORACLE_DPS`` (40) significant digits with
  an unbounded exponent range; the builder sets no precision of its own.
  All eight count laws read outer(beta ((1-cs)^a - (1-c)^a)) with outer
  exp or a real power: nb is a = 1, Poisson a = c = 1, and the Sibuya and
  GDS-Sibuya jump laws are the power-1 member, 1 + u itself.  Each Miller
  inner sum stops at the inner series' last nonzero coefficient, so at
  a = 1, where that series has degree 1, an expansion costs O(order)
  terms, not O(order^2).
  This path shares nothing with the finite-sum evaluation it checks:
  powers and exponentials of series are expanded by the classical
  coefficient recurrences (J.C.P. Miller), so it is strictly more accurate
  than the production double-precision path.
* Monte-Carlo utilities: a pooled-bin chi-square goodness-of-fit report
  (its upper tail is a double-precision regularized incomplete gamma) and
  the empirical probability generating function with its standard error.
"""

from __future__ import annotations

import decimal
import math
import operator
from dataclasses import dataclass
from decimal import Decimal
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    DomainError,
    InsufficientSample,
    NumericalInstability,
    SingularComposition,
)
from .limits import MAX_SERIES_ORDER  # noqa: F401  (re-exported)

if TYPE_CHECKING:
    from .analytic import PmfTable
    from .sampler import SampleBatch

#: working precision (significant decimal digits) for series arithmetic
ORACLE_DPS = 40


def _context(digits: int) -> decimal.Context:
    return decimal.Context(prec=digits, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)


def precision_scope():
    """Run the enclosed :class:`Decimal` arithmetic at ``ORACLE_DPS`` digits,
    whatever the ambient decimal context."""
    return decimal.localcontext(_context(ORACLE_DPS))


def _dot(xs, ys) -> Decimal:
    """sum x_i y_i with exact products, rounded far below ``ORACLE_DPS``.

    Products of two ``ORACLE_DPS``-digit operands have at most twice as
    many digits, so at 2 ORACLE_DPS + 10 digits they are exact and the sum
    carries ten guard digits beyond them.
    """
    with decimal.localcontext(_context(2 * ORACLE_DPS + 10)):
        return sum(map(operator.mul, xs, ys), Decimal(0))


def series_binomial_power(c: float, a: float, order: int) -> tuple[Decimal, ...]:
    """Taylor series of (1 - c s)^a: coefficients binom(a, k) (-c)^k."""
    if not abs(c) <= 1.0:
        raise DomainError(f"|c| must be <= 1, got {c}")
    if order < 0:
        raise DomainError(f"order must be >= 0, got {order}")
    with precision_scope():
        ncm, am = Decimal(-c), Decimal(a)
        out = [Decimal(1)]
        for k in range(order):
            out.append(out[-1] * ncm * (am - k) / (k + 1))
    return tuple(out)


def series_compose_outer(inner, power=None) -> tuple[Decimal, ...]:
    """Taylor coefficients of phi(inner(s)) for phi(x) = x^power (a float,
    int or Decimal), or exp(x) where ``power`` is None, as the registry has it.

    ``inner`` is any sequence of numbers, each converted exactly by
    ``Decimal(x)``; the result has as many coefficients, computed at
    ``ORACLE_DPS`` whatever the ambient decimal context.  Powers use
    Miller's recurrence b_n = (1/(n a_0)) sum_j (j(p+1) - n) a_j b_{n-j},
    which requires the constant term a_0 to sit strictly inside the
    analyticity domain (a_0 > 0); a branch-point constant term raises
    :class:`SingularComposition`.  Each inner sum runs over j <= m, the
    degree of the last nonzero a_j: the terms it drops are exact zeros.
    """
    a = tuple(map(Decimal, inner))
    order = len(a) - 1
    m = max((j for j, x in enumerate(a) if x), default=0)
    with precision_scope():
        # each inner sum is one _dot of the inner terms j = 1..m against the
        # history b_{n-1}, b_{n-2}, ..., newest first; _dot stops where the
        # shorter list ends, so the sum runs over j <= min(n, m)
        if power is None:
            ja = [j * a[j] for j in range(1, m + 1)]
            b_rev = [a[0].exp()]
            for n in range(1, order + 1):
                b_rev.insert(0, _dot(ja, b_rev) / n)
            return tuple(reversed(b_rev))
        p = Decimal(power)
        if a[0] <= 0:
            raise SingularComposition(
                f"power composition needs a positive constant term, got {a[0]}"
            )
        # (j(p+1) - n) a_j b_{n-j} = (p j a_j) b_{n-j} + a_j (-(n-j) b_{n-j}),
        # so the history interleaves b_k and -k b_k
        terms = [t for j in range(1, m + 1) for t in (p * j * a[j], a[j])]
        hist = [a[0] ** p, Decimal(0)]
        for n in range(1, order + 1):
            bn = _dot(terms, hist) / (n * a[0])
            hist[:0] = (bn, -n * bn)
        return tuple(hist[-2::-2])


def _family_series(a: float, c: float, beta, power, order: int) -> list | tuple:
    """Taylor coefficients of the family p.g.f. form at the current precision.

    With u = beta ((1-cs)^a - (1-c)^a), it expands exp(u) when ``power`` is
    None and (1 + u)^power otherwise; the constant term is exactly 0 resp.
    1 at c = 0, and c = 1 (a > 0) gives the discrete stable and Linnik laws.
    At power 1 the series is the list 1 + u itself: Miller's recurrence
    needs a positive constant term, and the Sibuya law has P(0) = 0.
    """
    beta = Decimal(beta)
    u = [beta * x for x in series_binomial_power(c, a, order)]
    u[0] = beta * (1 - (1 - Decimal(c)) ** Decimal(a))
    if power is None:
        return series_compose_outer(u)
    u[0] += 1
    if power == 1:
        return u
    return series_compose_outer(u, power)


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
    """Upper chi-square tail P(X > x): the regularized upper incomplete gamma
    Q(s, t) at s = dof/2, t = x/2, in double precision.

    Below t = s + 1 it is 1 - P(s, t) with P from its power series
    t^s e^-t / Gamma(s+1) sum_n t^n / ((s+1)...(s+n)); above, Q comes from
    its continued fraction, evaluated by the modified Lentz method
    (Numerical Recipes, 3rd ed., section 6.2).
    """
    s, t = dof / 2, x / 2
    if math.isnan(t):
        return math.nan
    if t <= 0:
        return 1.0
    if t == math.inf:
        return 0.0
    front = math.exp(s * math.log(t) - t - math.lgamma(s))  # t^s e^-t / Gamma(s)
    eps = 2.0**-52
    if t < s + 1:
        term = total = 1.0 / s
        n = s
        while term > total * eps:
            n += 1
            term *= t / n
            total += term
        return max(0.0, 1.0 - front * total)
    tiny = 1e-300  # stands in for a zero denominator
    b = t + 1 - s
    c, d = 1 / tiny, 1 / b
    h = d
    for i in range(1, 300 + 10 * math.isqrt(int(s) + 1)):
        an = -i * (i - s)
        b += 2
        d = an * d + b
        d = 1 / (d if abs(d) > tiny else tiny)
        c = b + an / c
        c = c if abs(c) > tiny else tiny
        step = d * c
        h *= step
        if abs(step - 1) <= eps:
            return front * h
    raise NumericalInstability(f"chi-square tail did not converge at x = {x!r}, dof = {dof}")


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
