"""Moments and shape indexes of the tempered discrete Linnik law.

Closed forms (valid for c < 1; the mean does not involve d, so the law
shares its mean with the Poisson-Tweedie obtained at d = 0):

    mu      = sgn(a) a b c (1-c)^(a-1)
    sigma^2 = d mu^2 + (1 - a c) mu / (1-c)
    D       = sigma^2 / mu = d mu + (1 - a c)/(1-c)
    m3      = sigma^4 / mu + d mu sigma^2 + c (1-a) mu / (1-c)^2
    m4      = 3 (2d+1) sigma^4 + (4 c (1-a) + (1 - a c)^2) sigma^2 / (1-c)^2
              + c^2 (1 - a^2) mu / (1-c)^3

The dispersion index D is computed through the right-hand form above, so
the identity D(d) - D(0) = d * mu holds to rounding error by construction.
:func:`moments_from_pmf` provides the independent numerical path (direct
summation over a tabulated PMF) used to cross-validate the closed forms.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import (
    DegenerateDistribution,
    DomainError,
    EmptyGrid,
    NumericalInstability,
    TailTooHeavy,
)
from .params import TdlParams, TdsParams, sgn

if TYPE_CHECKING:
    from .analytic import PmfTable

#: tables with more tail mass than this cannot support trusted moments
MOMENT_TAIL_LIMIT = 1e-9


@dataclass(frozen=True, slots=True)
class MomentSummary:
    """Mean, variance, dispersion index, and shape indexes of a count law."""

    mu: float
    sigma2: float
    D: float
    m3: float
    m4: float
    alpha3: float
    alpha4: float


def tdl_moments(p: TdlParams | TdsParams) -> MomentSummary:
    """Closed-form moment summary at a parameter point (a tds record is d = 0).

    Raises :class:`DegenerateDistribution` when the law is a point mass
    (a == 0 or c == 0: mu = 0, the indexes are undefined),
    :class:`DomainError` at c == 1 where the (1-c) denominators vanish, and
    :class:`NumericalInstability` where mu rounds to 0 or a moment is not a
    finite double (the closed forms divide by mu and by powers of 1-c).
    """
    if p.is_degenerate:
        raise DegenerateDistribution(
            "moments undefined: the law degenerates at zero (a == 0 or c == 0)"
        )
    if p.c == 1:
        raise DomainError("moment formulas require c < 1")
    a, b, c, d = p.a, p.b, p.c, p.d
    omc = 1.0 - c
    try:
        mu = sgn(a) * a * b * c * omc ** (a - 1.0)
        sigma2 = d * mu * mu + (1.0 - a * c) * mu / omc
        disp = d * mu + (1.0 - a * c) / omc
        m3 = sigma2 * sigma2 / mu + d * mu * sigma2 + c * (1.0 - a) * mu / omc**2
        m4 = (
            3.0 * (2.0 * d + 1.0) * sigma2 * sigma2
            + (4.0 * c * (1.0 - a) + (1.0 - a * c) ** 2) * sigma2 / omc**2
            + c**2 * (1.0 - a * a) * mu / omc**3
        )
        sig = math.sqrt(sigma2)
        values = (mu, sigma2, disp, m3, m4, m3 / sig**3, m4 / sigma2**2)
    except (OverflowError, ZeroDivisionError):  # a power past double precision, or mu = 0
        values = (math.nan,)
    if not all(map(math.isfinite, values)):
        raise NumericalInstability(
            f"the moments of {p} are not finite doubles (mu rounds to 0 or a moment overflows)"
        )
    return MomentSummary(*values)


def moments_from_pmf(table: PmfTable) -> MomentSummary:
    """Moment summary by direct summation over a PMF table.

    The numerical cross-check for :func:`tdl_moments`; requires
    ``tail_mass`` below 1e-9, otherwise the sums are untrusted and
    :class:`TailTooHeavy` is raised.  Accuracy of the higher moments
    improves with deeper tables, since the discarded tail is weighted by
    (k - mu)^4.
    """
    if not table.tail_mass < MOMENT_TAIL_LIMIT:
        raise TailTooHeavy(
            f"tail mass {table.tail_mass:.3g} exceeds {MOMENT_TAIL_LIMIT:g}; "
            "increase kmax"
        )
    k = table.support.astype(float)
    p = table.p
    mu = float(k @ p)
    centered = k - mu
    sigma2 = float(centered**2 @ p)
    m3 = float(centered**3 @ p)
    m4 = float(centered**4 @ p)
    if mu == 0.0 or sigma2 == 0.0:
        # degenerate table: all central moments vanish, indexes undefined
        return MomentSummary(
            mu=mu, sigma2=sigma2, D=float("nan"), m3=m3, m4=m4,
            alpha3=float("nan"), alpha4=float("nan"),
        )
    # one division at a time: sigma^3 and sigma2^2 can pass double precision
    # where the indexes do not
    return MomentSummary(
        mu=mu,
        sigma2=sigma2,
        D=sigma2 / mu,
        m3=m3,
        m4=m4,
        alpha3=m3 / sigma2 / math.sqrt(sigma2),
        alpha4=m4 / sigma2 / sigma2,
    )


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    """n evenly spaced points from lo to hi, both included, bit for bit as
    ``numpy.linspace`` gives them: lo + i (hi - lo)/(n - 1), then hi."""
    if n == 1:
        return [lo]
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n - 1)] + [hi]


def skew_kurt_trace(
    a: float,
    b: float,
    c_range: tuple[float, float],
    d_range: tuple[float, float],
    grid: tuple[int, int] | int = (50, 50),
) -> list[tuple[float, float, float, float]]:
    """Rectangular (c, d) sweep of the skewness/kurtosis pair.

    Returns rows (c, d, alpha3, alpha4) suitable for a parametric plot of
    the reachable region.  Negative d values in ``d_range`` are skipped
    with a warning (that branch is out of scope); an all-negative range
    raises :class:`EmptyGrid`.
    """
    if isinstance(grid, int):
        grid = (grid, grid)
    nc, nd = grid
    if nc < 1 or nd < 1:
        raise EmptyGrid(f"grid must be positive, got {grid}")
    c_lo, c_hi = c_range
    d_lo, d_hi = d_range
    if not (0.0 < c_lo <= c_hi < 1.0):
        raise DomainError(f"c range must lie inside (0, 1), got {c_range}")
    if d_hi < d_lo:
        raise DomainError(f"empty d range {d_range}")
    if d_lo < 0:
        warnings.warn(
            "negative d values are out of scope and were clipped to d >= 0",
            stacklevel=2,
        )
    cs = _linspace(c_lo, c_hi, nc)
    ds = [d for d in _linspace(d_lo, d_hi, nd) if d >= 0]
    if not ds:
        raise EmptyGrid("no admissible d values after clipping to d >= 0")
    rows = []
    for c in cs:
        for d in ds:
            m = tdl_moments(TdlParams(a, b, float(c), float(d)))
            rows.append((float(c), float(d), m.alpha3, m.alpha4))
    return rows
