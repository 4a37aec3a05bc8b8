"""Closed-form generating functions, Laplace transforms, and finite-sum PMFs.

Generating functions are evaluated through ``log1p``-based powers so the
identities between neighbouring laws (d -> 0, theta -> 0, c -> 1) hold to
full precision.  The probability functions of the tempered discrete stable
and tempered discrete Linnik laws are the finite sums

    P(X_TDS = k) = exp(-sgn(a) b (1-(1-c)^a)) (-c)^k
                   sum_{m=0}^{k} (sgn(a) b)^m / m!  C_{a,m}(k)

    P(X_TDL = k) = (-c)^k sum_{m=0}^{k} binom(-1/d, m)
                   (-sgn(a) b d)^m / (1 + sgn(a) b d (1-(1-c)^a))^(m+1/d)
                   C_{a,m}(k)

Both are specializations of the same coefficient form with outer function
exp(x) resp. x^(-1/d); see :func:`general_pmf_coefficient_form`.  The
TDS law is the d = 0 member of the TDL family (a :class:`TdsParams`
record reads d as 0), so :func:`tdl_pgf`, :func:`tdl_pmf` and
:func:`build_pmf_table` each have one body for both laws, branching on
d only where the outer function changes; ``tds_pgf`` and ``tds_pmf`` are
other names for the first two.

Every term of the m-sum carries the same sign, so the sums themselves are
cancellation-free, but the raw coefficients overflow double precision for
a < 0 around k ~ 150 while c^k underflows.  :func:`build_pmf_table`
therefore reads the m-sum as a compound law, a Poisson (TDS) or negative
binomial (TDL) number of jumps with weights |binom(a, j)| c^j, and
evaluates it by Panjer's recursion: O(kmax^2) work, all-positive terms,
and a running power-of-two scale, so whole tables stay accurate out to k
in the thousands even where P(X = 0) underflows.  The finite sum itself
remains the reference path the tests check the tables against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .coeffs import CoeffTable, _abs_binom_sequence, build_table
from .errors import (
    DomainError,
    NumericalInstability,
    UnsupportedOuterFunction,
)
from .params import (
    GammaParams,
    GdsSibuyaParams,
    LinnikParams,
    NegativeBinomialParams,
    PoissonParams,
    SibuyaParams,
    StableParams,
    TdlParams,
    TdsParams,
    TemperedLinnikParams,
    TemperedStableParams,
    sgn,
)

#: abort threshold for probabilities escaping [0, 1] before clamping
INSTABILITY_TOLERANCE = 1e-6

#: default table size for PMF evaluation (CLI exposes an override)
DEFAULT_KMAX = 60

_LN2 = math.log(2.0)

#: the Panjer recursion shifts its scaled values down by 2^_RESCALE_BITS
#: once one passes _RESCALE_AT, far below overflow
_RESCALE_BITS = 800
_RESCALE_AT = 2.0**_RESCALE_BITS


def _check_s(s: float) -> None:
    if not 0.0 <= s <= 1.0:
        raise DomainError(f"s must lie in [0, 1], got {s}")


def _pow_one_minus(x: float, a: float) -> float:
    """(1 - x)^a for x in [0, 1], accurate for x near 0 and 1.

    The x == 1 corner only arises with a > 0 (c = 1 requires a in (0, 1]).
    """
    if x >= 1.0:
        return 0.0
    return math.exp(a * math.log1p(-x))


# ---------------------------------------------------------------------------
# Probability generating functions


def tdl_pgf(p: Union[TdlParams, TdsParams], s: float) -> float:
    """Tempered discrete Linnik p.g.f.

    g(s) = (1 + sgn(a) b d ((1-cs)^a - (1-c)^a))^(-1/d) for d > 0, and its
    d == 0 member, the Poisson-Tweedie law, g(s) = exp(sgn(a) b ((1-c)^a - (1-cs)^a)).
    """
    _check_s(s)
    if p.a == 0:
        return 1.0
    delta = _pow_one_minus(p.c * s, p.a) - _pow_one_minus(p.c, p.a)
    if p.d == 0:
        return math.exp(-sgn(p.a) * p.b * delta)
    return math.exp(-math.log1p(sgn(p.a) * p.b * p.d * delta) / p.d)


#: the tempered discrete stable (Poisson-Tweedie) p.g.f., the d == 0 member
tds_pgf = tdl_pgf


def ds_pgf(p: StableParams, s: float) -> float:
    """Discrete stable p.g.f. exp(-lam (1-s)^gamma)."""
    _check_s(s)
    return math.exp(-p.lam * _pow_one_minus(s, p.gamma))


def dl_pgf(p: LinnikParams, s: float) -> float:
    """Discrete Linnik p.g.f. (1 + lam (1-s)^gamma / delta)^(-delta)."""
    _check_s(s)
    return math.exp(
        -p.delta * math.log1p(p.lam * _pow_one_minus(s, p.gamma) / p.delta)
    )


def sibuya_pgf(p: SibuyaParams, s: float) -> float:
    """Sibuya p.g.f. 1 - (1-s)^gamma."""
    _check_s(s)
    return 1.0 - _pow_one_minus(s, p.gamma)


def gds_pgf(p: GdsSibuyaParams, s: float) -> float:
    """Geometric down-weighting Sibuya p.g.f. 1 + (1-tau)^gamma - (1-tau s)^gamma."""
    _check_s(s)
    return 1.0 + _pow_one_minus(p.tau, p.gamma) - _pow_one_minus(p.tau * s, p.gamma)


def nb_pgf(p: NegativeBinomialParams, s: float) -> float:
    """Negative binomial p.g.f. ((1-pi) / (1-pi s))^delta."""
    _check_s(s)
    return math.exp(p.delta * (math.log1p(-p.pi) - math.log1p(-p.pi * s)))


def poisson_pgf(p: PoissonParams, s: float) -> float:
    _check_s(s)
    return math.exp(-p.lam * (1.0 - s))


# ---------------------------------------------------------------------------
# Laplace transforms (real argument t > 0 only)


def _check_t(t: float) -> None:
    if not t > 0:
        raise DomainError(f"t must be > 0, got {t}")


def ps_laplace(p: StableParams, t: float) -> float:
    """Positive stable Laplace transform exp(-lam t^gamma)."""
    _check_t(t)
    return math.exp(-p.lam * t**p.gamma)


def tps_laplace(p: TemperedStableParams, t: float) -> float:
    """Tweedie / tempered positive stable transform.

    L(t) = exp(sgn(gamma) lam (theta^gamma - (theta+t)^gamma)).
    """
    _check_t(t)
    if p.gamma == 0:
        return 1.0
    return math.exp(
        sgn(p.gamma) * p.lam * (p.theta**p.gamma - (p.theta + t) ** p.gamma)
    )


def pl_laplace(p: LinnikParams, t: float) -> float:
    """Positive Linnik transform (1 + lam t^gamma / delta)^(-delta)."""
    _check_t(t)
    return math.exp(-p.delta * math.log1p(p.lam * t**p.gamma / p.delta))


def tpl_laplace(p: TemperedLinnikParams, t: float) -> float:
    """Tempered positive Linnik transform.

    L(t) = (1 + sgn(gamma) lam ((theta+t)^gamma - theta^gamma) / delta)^(-delta).
    """
    _check_t(t)
    if p.gamma == 0:
        return 1.0
    inner = sgn(p.gamma) * p.lam * ((p.theta + t) ** p.gamma - p.theta**p.gamma)
    return math.exp(-p.delta * math.log1p(inner / p.delta))


def gamma_laplace(p: GammaParams, t: float) -> float:
    """Gamma transform (1 + scale*t)^(-shape)."""
    _check_t(t)
    return math.exp(-p.shape * math.log1p(p.scale * t))


# ---------------------------------------------------------------------------
# Finite-sum probability functions


@dataclass(frozen=True)
class PmfTable:
    """Probabilities p[0..kmax] of an integer law plus tail accounting.

    ``tail_mass`` is defined as 1 - sum(p), so the two always add to one
    by construction; a tail below -1e-9 would indicate a broken build and
    is rejected at construction time.
    """

    law: str
    params: object
    kmax: int
    p: np.ndarray
    tail_mass: float

    def __post_init__(self) -> None:
        self.p.setflags(write=False)

    @property
    def support(self) -> np.ndarray:
        return np.arange(self.kmax + 1)


def _finalize_pmf(law: str, params, raw: np.ndarray) -> PmfTable:
    """Instability check, clamp to [0, 1], and tail-mass bookkeeping."""
    if not np.all(np.isfinite(raw)):
        raise NumericalInstability(f"{law} PMF produced non-finite values")
    low, high = raw.min(), raw.max()
    if low < -INSTABILITY_TOLERANCE or high > 1.0 + INSTABILITY_TOLERANCE:
        raise NumericalInstability(
            f"{law} PMF left [0, 1] by more than {INSTABILITY_TOLERANCE:g} "
            f"(min {low:.3g}, max {high:.3g}); reduce kmax or use the series oracle"
        )
    p = np.clip(raw, 0.0, 1.0)
    tail = 1.0 - p.sum()
    if tail < -1e-9:
        raise NumericalInstability(f"{law} PMF sums to {p.sum():.12f} > 1 + 1e-9")
    return PmfTable(law=law, params=params, kmax=len(p) - 1, p=p, tail_mass=tail)


def general_pmf_coefficient_form(
    outer: str,
    alpha: float,
    beta: float,
    gamma: float,
    phi_damp: float,
    k: int,
    *,
    power_exponent: float | None = None,
    table: CoeffTable | None = None,
) -> float:
    """P(X = k) for a law with p.g.f. phi(alpha + beta (1 - phi_damp*s)^gamma).

    The probability is the finite sum

        (-phi_damp)^k sum_{m=0}^{k} (-beta)^m / m! * phi^(m)(alpha+beta)
                      * C_{gamma,m}(k)

    with ``outer`` selecting phi: ``"exp"`` or ``"power"`` (x^power_exponent,
    the exponent passed separately).  Derivative factors are accumulated by
    term ratios, so no factorial or binomial overflows occur.
    """
    if k < 0:
        raise DomainError(f"k must be >= 0, got {k}")
    if not 0.0 <= phi_damp <= 1.0:
        raise DomainError(f"phi_damp must lie in [0, 1], got {phi_damp}")
    if outer not in ("exp", "power"):
        raise UnsupportedOuterFunction(
            f"outer must be 'exp' or 'power', got {outer!r}"
        )
    if outer == "power" and power_exponent is None:
        raise UnsupportedOuterFunction("outer 'power' needs power_exponent")
    x = alpha + beta
    if outer == "power" and x <= 0:
        raise DomainError(f"power outer needs alpha + beta > 0, got {x}")
    if table is None:
        table = build_table(gamma, k)
    elif table.gamma != gamma or table.kmax < k:
        raise DomainError("coefficient table does not cover (gamma, k)")

    # term_m = (-beta)^m / m! * phi^(m)(x), advanced by its ratio
    term = math.exp(x) if outer == "exp" else x**power_exponent
    total = 0.0
    col = table.values[: k + 1, k]
    for m in range(k + 1):
        total += term * col[m]
        if outer == "exp":
            term *= -beta / (m + 1)
        else:
            term *= -beta * (power_exponent - m) / ((m + 1) * x)
    return (-phi_damp) ** k * total


def tdl_pmf(p: Union[TdlParams, TdsParams], k: int, table: CoeffTable | None = None) -> float:
    """Tempered discrete Linnik probability P(X = k).

    Outer function x^(-1/d) with alpha = 1 - sgn(a) b d (1-c)^a and
    beta = sgn(a) b d; at d == 0 (the tempered discrete stable law) exp(x)
    with alpha = sgn(a) b (1-c)^a and beta = -sgn(a) b.  Requires a
    coefficient table for gamma = a covering k (built on the fly when
    omitted).
    """
    if p.is_degenerate:
        return 1.0 if k == 0 else 0.0
    s = sgn(p.a)
    omc = _pow_one_minus(p.c, p.a)
    if p.d == 0:
        outer, alpha, beta, power = "exp", s * p.b * omc, -s * p.b, None
    else:
        outer, alpha, beta, power = "power", 1.0 - s * p.b * p.d * omc, s * p.b * p.d, -1.0 / p.d
    val = general_pmf_coefficient_form(
        outer, alpha=alpha, beta=beta, gamma=p.a, phi_damp=p.c, k=k,
        power_exponent=power, table=table,
    )
    return min(max(val, 0.0), 1.0)


#: the tempered discrete stable probability P(X = k), the d == 0 member
tds_pmf = tdl_pmf


def _panjer(a: float, b: float, c: float, kmax: int, *, d: float) -> np.ndarray:
    """All-positive evaluation of the finite-sum PMF for k = 0..kmax.

    The law is compound: a Poisson (d == 0, the tempered discrete stable
    law) or negative binomial (d > 0) primary with jump weights
    r_j = |binom(a, j)| c^j.  Panjer's (a, b, 0) recursion gives

        g_k = sum_{j=1..k} (A + B j/k) r_j g_{k-j}
        d == 0:  g_0 = exp(-sgn(a) b h),  A = 0, B = b
        d > 0:   g_0 = x0^(-1/d),         A = y, B = y (1/d - 1)

    with h = 1 - (1-c)^a, x0 = 1 + sgn(a) b d h and y = b d / x0.  Writing
    A + B j/k = A (k-j)/k + (A + B) j/k gives two dot products with
    non-negative weights whatever the sign of B, so no term cancels.  The
    recursion runs on g_k / 2^e, starting from log g_0 and raising e
    whenever the scaled values grow large, so a g_0 that underflows double
    precision still yields the mass lying inside kmax.
    """
    g = np.zeros(kmax + 1)
    if a == 0 or c == 0:
        g[0] = 1.0
        return g
    h = 1.0 - _pow_one_minus(c, a)
    s = sgn(a)
    if d == 0:
        log_g0 = -s * b * h
        A, A_plus_B = 0.0, b
    else:
        arg = s * b * d * h
        log_g0 = -math.log1p(arg) / d  # log (1 + sgn(a) b d h)^(-1/d)
        A = b * d / (1.0 + arg)
        A_plus_B = A / d
    r = _abs_binom_sequence(a, kmax, damp=c)
    # reversed, so that each step dots contiguous slices:
    # sum_{j=1..k} r_j g_{k-j} = dot(rev_r[kmax-k : kmax], g[:k])
    rev_r = r[::-1].copy()
    rev_jr = (np.arange(kmax + 1) * r)[::-1].copy()
    kg = np.zeros(kmax + 1)  # k g_k, on the same scale as g
    e = math.floor(log_g0 / _LN2)
    g[0] = math.exp(log_g0 - e * _LN2)
    for k in range(1, kmax + 1):
        lo = kmax - k
        gk = float(
            A * np.dot(rev_r[lo:kmax], kg[:k]) + A_plus_B * np.dot(rev_jr[lo:kmax], g[:k])
        ) / k
        g[k] = gk
        kg[k] = k * gk
        if gk > _RESCALE_AT:
            g[: k + 1] = np.ldexp(g[: k + 1], -_RESCALE_BITS)
            kg[: k + 1] = np.ldexp(kg[: k + 1], -_RESCALE_BITS)
            e += _RESCALE_BITS
    return np.ldexp(g, e)


def build_pmf_table(p: Union[TdlParams, TdsParams], kmax: int) -> PmfTable:
    """Tabulate P(X = k) for k = 0..kmax with tail-mass accounting.

    Accepts tempered discrete Linnik or tempered discrete stable
    parameters; a d == 0 record gives the table of its tds law.  Raises
    :class:`NumericalInstability` if any pre-clamp probability leaves
    [0, 1] by more than 1e-6.
    """
    if kmax < 0:
        raise DomainError(f"kmax must be >= 0, got {kmax}")
    if not isinstance(p, (TdlParams, TdsParams)):
        raise DomainError(f"expected TdlParams or TdsParams, got {type(p).__name__}")
    raw = _panjer(p.a, p.b, p.c, kmax, d=p.d)
    if p.d == 0:
        return _finalize_pmf("tds", TdsParams(p.a, p.b, p.c), raw)
    return _finalize_pmf("tdl", p, raw)
