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
exp(x) resp. x^(-1/d); see :func:`general_pmf_coefficient_form`, which
takes the outer function as the registry records it: a real ``power``, or
None for exp.  The TDS law is the d = 0 member of the TDL family (a
:class:`TdsParams` record reads d as 0), so :func:`tdl_pgf`, :func:`tdl_pmf` and
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
in the thousands even where P(X = 0) underflows.  Each entry is one dot
product, over the interleaved pairs (k g_k, g_k) at d > 0 and over the
g_k alone at d = 0, since up to a few thousand entries the cost per entry
is interpreter overhead.  The recursion stops at
K* = min_s (log G(s) + 1076 log 2 + 1) / log s over a ladder of
s in (1, 1/c): by the Chernoff bound P(X = k) <= G(s) / s^k every entry
past K* is below 2^-1076, rounds to 0 and is set to 0.  Entries before
K* that lie in the subnormal range still carry few significant bits.  The
finite sum itself remains the reference path the tests check the tables
against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .coeffs import CoeffTable, _abs_binom_sequence, _chernoff_index, _log1m_cs, build_table
from .errors import DomainError, NumericalInstability
from .limits import DEFAULT_KMAX  # noqa: F401  (re-exported)
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

_LN2 = math.log(2.0)

#: the Panjer recursion shifts its scaled values down by 2^_RESCALE_BITS
#: once one passes _RESCALE_AT, far below overflow
_RESCALE_BITS = 800
_RESCALE_AT = 2.0**_RESCALE_BITS

#: log of a level below which a table entry rounds to 0: 2^-1076, half of
#: the 2^-1075 below which a double is 0, with a further factor e of margin
#: for the rounding of log G in the Chernoff bound that proves it
_LOG_ROUNDS_TO_ZERO = -(1076 * _LN2 + 1.0)


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
    by construction; a tail below -1e-9 would indicate a broken build.
    :func:`_finalize_pmf`, through which the package builds every table,
    rejects one; the constructor itself checks nothing.
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
    """Instability check, clamp to [0, 1], and tail-mass bookkeeping.

    A d == 0 tdl record is tabulated as its tds law.
    """
    if law == "tdl" and params.d == 0:
        law, params = "tds", TdsParams(params.a, params.b, params.c)
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
    alpha: float,
    beta: float,
    gamma: float,
    phi_damp: float,
    k: int,
    *,
    power: float | None = None,
    table: CoeffTable | None = None,
) -> float:
    """P(X = k) for a law with p.g.f. phi(alpha + beta (1 - phi_damp*s)^gamma).

    The probability is the finite sum

        (-phi_damp)^k sum_{m=0}^{k} (-beta)^m / m! * phi^(m)(alpha+beta)
                      * C_{gamma,m}(k)

    with phi(x) = x^power, or exp(x) where ``power`` is None, the encoding
    of the registry's family coordinates.  Derivative factors are
    accumulated by term ratios, so no factorial or binomial overflows occur.
    """
    if k < 0:
        raise DomainError(f"k must be >= 0, got {k}")
    if not 0.0 <= phi_damp <= 1.0:
        raise DomainError(f"phi_damp must lie in [0, 1], got {phi_damp}")
    x = alpha + beta
    if power is not None and x <= 0:
        raise DomainError(f"power outer needs alpha + beta > 0, got {x}")
    if table is None:
        table = build_table(gamma, k)
    elif table.gamma != gamma or table.kmax < k:
        raise DomainError("coefficient table does not cover (gamma, k)")

    # term_m = (-beta)^m / m! * phi^(m)(x), advanced by its ratio
    term = math.exp(x) if power is None else x**power
    total = 0.0
    col = table.values[: k + 1, k]
    for m in range(k + 1):
        total += term * col[m]
        if power is None:
            term *= -beta / (m + 1)
        else:
            term *= -beta * (power - m) / ((m + 1) * x)
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
        alpha, beta, power = s * p.b * omc, -s * p.b, None
    else:
        alpha, beta, power = 1.0 - s * p.b * p.d * omc, s * p.b * p.d, -1.0 / p.d
    val = general_pmf_coefficient_form(alpha, beta, p.a, p.c, k, power=power, table=table)
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
    A + B j/k = A (k-j)/k + (A + B) j/k and i = k - j gives

        k g_k = sum_{i=0..k-1} A r_{k-i} (i g_i) + (A + B) (k-i) r_{k-i} g_i,

    non-negative weights whatever the sign of B, so no term cancels.  Each
    entry costs one contiguous dot product (at these sizes the per-entry
    cost is interpreter overhead, not arithmetic) of the reversed weights
    w with the sequence z: the pairs (i g_i, g_i) interleaved where A != 0,
    the g_i alone at A == 0 (d == 0), where the i g_i would meet zeros.
    The recursion runs on g_k / 2^e, starting from log g_0 and raising e
    whenever the scaled values grow large, so a g_0 that underflows double
    precision still yields the mass lying inside kmax.  Subnormal entries
    carry few significant bits, and one whose true value rounds to 0 can
    come out as a few units of 2^-1074; :func:`build_pmf_table` stops the
    recursion where :func:`_panjer_stop` proves every later entry rounds
    to 0.
    """
    if a == 0 or c == 0:
        g = np.zeros(kmax + 1)
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
    if log_g0 < -_LN2 * (_RESCALE_BITS * kmax + 2100):
        # e rises by at most _RESCALE_BITS per entry and the scaled values
        # stay below 2^1024, so every entry lies below 2^-1076 and rounds
        # to 0; e itself would leave the int32 range of np.ldexp
        return np.zeros(kmax + 1)
    r = _abs_binom_sequence(a, kmax, damp=c)
    jr = A_plus_B * np.arange(kmax + 1) * r
    # with width 2, w[2m] = A r_j and w[2m+1] = (A+B) j r_j, j = kmax - m, so
    # that k g_k = dot(w[2(kmax-k) : 2 kmax], z[:2k]) with z[2i] = i g_i
    # and z[2i+1] = g_i; with width 1, w[m] = (A+B) j r_j and z[i] = g_i;
    # all on the running scale 2^e
    width = 1 if A == 0.0 else 2
    w = jr[::-1].copy() if width == 1 else np.column_stack((A * r, jr))[::-1].ravel()
    z = np.zeros(width * (kmax + 1))
    e = math.floor(log_g0 / _LN2)
    z[width - 1] = math.exp(log_g0 - e * _LN2)
    top = width * kmax
    for k in range(1, kmax + 1):
        at = width * k
        gk = float(w[top - at : top].dot(z[:at])) / k
        if width == 2:
            z[at] = k * gk
        z[at + width - 1] = gk
        if gk > _RESCALE_AT:
            z[: at + width] = np.ldexp(z[: at + width], -_RESCALE_BITS)
            e += _RESCALE_BITS
    return np.ldexp(z[width - 1 :: width], e)


def _panjer_stop(p: Union[TdlParams, TdsParams], kmax: int) -> int:
    """min(kmax, K*), the last index the Panjer recursion must compute.

    P(X = k) <= G(s) / s^k at every s in (1, 1/c), so past
    K* = the least (log G(s) + 1076 log 2 + 1) / log s over the Chernoff
    ladder s = c^-f (:func:`coeffs._chernoff_index`) every entry is below
    2^-1076 and rounds to 0; where kmax (-log c) <= 1076 log 2 + 1 no
    ladder point can cut, and G is not evaluated.  log G comes from this
    module's closed form G(s) = outer(-sgn(a) b ((1-cs)^a - (1-c)^a)), the
    difference taken as (1-c)^a (r^a - 1) with r = (1-cs)/(1-c) so that it
    keeps its digits at a small c; past G's radius (d > 0) it is not
    finite and the point drops out.
    """
    if p.a == 0 or not 0.0 < p.c < 1.0:
        return kmax
    a, d = p.a, p.d
    log_c, log_omc = math.log(p.c), math.log1p(-p.c)
    log_scale = math.log(p.b) + a * log_omc

    def log_pgf(f):
        # x = b |(1-cs)^a - (1-c)^a|: log G is x at d = 0, -log(1 - d x)/d at d > 0
        x = np.exp(log_scale) * np.abs(np.expm1(a * (_log1m_cs(log_c, f) - log_omc)))
        return x if d == 0 else -np.log1p(-d * x) / d

    k = _chernoff_index(-log_c, log_pgf, _LOG_ROUNDS_TO_ZERO, kmax)
    return kmax if k is None else k


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
    stop = _panjer_stop(p, kmax)
    g = _panjer(p.a, p.b, p.c, stop, d=p.d)
    if stop < kmax:
        g = np.concatenate((g, np.zeros(kmax - stop)))
    return _finalize_pmf("tdl", p, g)
