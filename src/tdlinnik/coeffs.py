"""Generalized binomial coefficients and the C_{gamma,m}(k) family.

The finite-sum PMFs of the tempered laws are built from

    C_{gamma,m}(k) = sum_{j=0}^{m} (-1)^j binom(m, j) binom(gamma*j, k),

the k-th Taylor coefficient of (1 - (1-s)^gamma)^m up to the sign (-1)^k.
Three evaluation paths are provided and cross-checked against each other:

* :func:`coeff_c` -- the defining alternating sum, evaluated in exact
  integer arithmetic and rounded once on return.  The alternating sum
  loses all significance in double precision for gamma < 0 already around
  k ~ 25 (the largest term exceeds the result by ~18 orders of magnitude),
  so the definitional path is kept exact and serves as the slow oracle.
* closed forms and one-step recurrences for gamma = 1/2 and gamma = -1
  (:func:`coeff_half`, :func:`coeff_neg1` and their ``_step`` companions),
  checked against the other two paths by the test suite and ``check``.
* :func:`build_table` -- dense triangular tables, for every gamma, via
  convolution powers of the coefficient sequence of (1-s)^gamma - 1,
  which involves only same-sign accumulation and stays accurate for k in
  the hundreds.

It also holds the one Chernoff rule by which every table of a count law
is cut, :func:`_chernoff_index`: the sampler's inversion tables and the
Panjer tables of :mod:`analytic` read it with their own tail levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

#: the points s = sigma^f, f in (0, 1), of every table's Chernoff bound:
#: geometric ladders toward s = 1 and toward the p.g.f.'s radius sigma
_LADDER = 2.0 ** -(np.arange(1, 97) / 4)
_CHERNOFF_F = np.concatenate((_LADDER, 1.0 - _LADDER))


def gen_binom(x: float, k: int) -> float:
    """Generalized binomial coefficient binom(x, k) = x(x-1)...(x-k+1)/k!.

    Computed as a running product (never through gamma functions, which
    blow up when x crosses the negative integers).  k = 0 gives 1.
    """
    if k < 0:
        raise DomainError(f"k must be >= 0, got {k}")
    out = 1.0
    for i in range(k):
        out *= (x - i) / (i + 1)
    return out


def coeff_c(gamma: float, m: int, k: int) -> float:
    """The alternating sum sum_j (-1)^j binom(m,j) binom(gamma*j, k).

    Exact integer evaluation on the binary value of ``gamma`` = N / D (D a
    power of two): with binom(gamma j, k) = prod_{i<k} (N j - i D) / (D^k k!),
    the sum of the numerators is one integer, and its true division by
    D^k k! is the only rounding.  Intended as the reference path; cost
    grows with m*k, so use :func:`build_table` in bulk.
    """
    if m < 0 or k < 0:
        raise DomainError("m and k must be >= 0")
    num, den = float(gamma).as_integer_ratio()
    total = 0
    for j in range(m + 1):
        term = math.comb(m, j)
        for i in range(k):
            term *= num * j - i * den
        total += -term if j & 1 else term
    return total / (den**k * math.factorial(k))


def coeff_half(m: int, k: int) -> float:
    """Closed form of C_{1/2,m}(k).

    For k >= 1:  (-1)^k 2^(m-2k) * m/(2k-m) * binom(2k-m, k); zero when
    m = 0 or m > k.  At k = 0 the defining sum forces the convention
    C_{gamma,m}(0) = 1 if m == 0 else 0 (binomial theorem), which is what
    this function returns.
    """
    if m < 0 or k < 0:
        raise DomainError("m and k must be >= 0")
    if k == 0:
        return 1.0 if m == 0 else 0.0
    if m == 0 or m > k:
        return 0.0
    # ldexp keeps the power-of-two scaling exact; comb is an exact integer.
    mag = math.ldexp(float(math.comb(2 * k - m, k)) * m / (2 * k - m), m - 2 * k)
    return -mag if k & 1 else mag


def coeff_half_step(m: int, k: int, prev: float) -> float:
    """Advance C_{1/2,m}(k) to C_{1/2,m}(k+1), for k >= m.

    The ratio follows from the closed form:

        C(k+1)/C(k) = -(2k-m)(2k+1-m) / (4 (k+1)(k+1-m)).

    (The single-factor ratio -(2k-m)/(4(2k-m+2)) sometimes quoted for this
    family contradicts both the closed form and the defining sum; see the
    regression tests pinning C_{1/2,1}(2) = 1/8.)
    """
    if k < m:
        raise DomainError(f"recurrence needs k >= m, got m={m}, k={k}")
    if m == 0:
        return 0.0
    return prev * (-(2 * k - m) * (2 * k + 1 - m)) / (4.0 * (k + 1) * (k + 1 - m))


def coeff_neg1(m: int, k: int) -> float:
    """Closed form of C_{-1,m}(k) = (-1)^(k+m) binom(k-1, m-1) for k >= 1."""
    if m < 0 or k < 0:
        raise DomainError("m and k must be >= 0")
    if k == 0:
        return 1.0 if m == 0 else 0.0
    if m == 0:
        return 0.0
    mag = float(math.comb(k - 1, m - 1))
    return -mag if (k + m) & 1 else mag


def coeff_neg1_step(m: int, k: int, prev: float) -> float:
    """Advance C_{-1,m}(k) to C_{-1,m}(k+1), for k >= m.

    Ratio from the closed form: C(k+1)/C(k) = -k / (k - m + 1).
    """
    if k < m:
        raise DomainError(f"recurrence needs k >= m, got m={m}, k={k}")
    if m == 0:
        return 0.0
    return prev * (-k) / (k - m + 1.0)


@dataclass(frozen=True)
class CoeffTable:
    """Dense triangular cache of C_{gamma,m}(k) for 0 <= m, k <= kmax.

    ``values[m, k]`` holds C_{gamma,m}(k); entries with m > k are exact
    zeros (the m-th finite difference of a degree-k polynomial vanishes).
    The array is frozen after construction and safe to share.
    """

    gamma: float
    kmax: int
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values.setflags(write=False)


def _abs_binom_sequence(gamma: float, kmax: int, damp: float = 1.0) -> np.ndarray:
    """|binom(gamma, j)| * damp^j for j = 0..kmax, with the j = 0 slot zeroed.

    These are the absolute Taylor coefficients of (1-damp*s)^gamma - 1; for
    gamma in (0, 1] they are the (damped) Sibuya probabilities.  Built as
    one running product of the ratios r_{j+1}/r_j = damp (j-gamma)/(j+1).
    """
    r = np.zeros(kmax + 1)
    if kmax >= 1:
        j = np.arange(1.0, kmax)
        r[1] = abs(gamma) * damp
        r[2:] = damp * (j - gamma) / (j + 1)
        np.cumprod(r[1:], out=r[1:])
    return r


def build_table(gamma: float, kmax: int) -> CoeffTable:
    """Build the C_{gamma,m}(k) table for 0 <= m, k <= kmax.

    Row m holds, up to the sign (-1)^(k+m) * sign((1-s)^gamma - 1)^m, the
    coefficients of the m-th convolution power of |binom(gamma, .)|, an
    all-positive computation with no cancellation.
    """
    if kmax < 0:
        raise DomainError(f"kmax must be >= 0, got {kmax}")
    n = kmax + 1
    values = np.zeros((n, n))
    r = _abs_binom_sequence(gamma, kmax)
    sign_v = -1.0 if gamma > 0 else 1.0
    ks = np.arange(n)
    w = np.zeros(n)
    w[0] = 1.0
    for m in range(n):
        if m > 0:
            w = np.convolve(w, r)[:n]
        values[m] = (-1.0) ** (ks + m) * sign_v**m * w
    return CoeffTable(gamma=gamma, kmax=kmax, values=values)


def _log1m_cs(log_c: float, f: np.ndarray) -> np.ndarray:
    """log(1 - cs) at s = c^-f: log1p(-cs) where cs < 1/2, log(-expm1(.))
    above, so that neither end loses digits."""
    y = log_c * (1.0 - f)
    return np.where(y < -math.log(2.0), np.log1p(-np.exp(y)), np.log(-np.expm1(y)))


def _chernoff_index(log_sigma: float, log_pgf, log_tail: float, cap: float) -> int | None:
    """The least floor((log G(s) - log_tail) / log s) over s = sigma^f, f in
    ``_CHERNOFF_F``, and at least 1, for a count law whose p.g.f. G
    converges for s < sigma; None where that exceeds ``cap`` (or at
    sigma <= 1).  At every s > 1, P(X = k) <= P(X >= k) <= G(s) / s^k, so
    past the returned K each entry, and the mass P(X > K), is below
    exp(log_tail).  ``log_pgf(f)`` gives log G(sigma^f); a point where it
    is not finite is dropped.  G(s) >= 1 at s > 1, so no point cuts below
    -log_tail / log sigma, and where that reaches ``cap`` G is not
    evaluated."""
    if not 0.0 < log_sigma < math.inf or -log_tail >= cap * log_sigma:
        return None
    with np.errstate(all="ignore"):
        k = (log_pgf(_CHERNOFF_F) - log_tail) / (log_sigma * _CHERNOFF_F)
    k = k[np.isfinite(k)]
    if not k.size or not k.min() <= cap:
        return None
    return max(int(k.min()), 1)
