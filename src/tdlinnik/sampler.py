"""Random variate generation for every law in the hierarchy.

All draws come from explicit :class:`RngStream` objects (PCG64 keyed by a
64-bit seed plus a stream id), so results are reproducible bit-for-bit
within one build.  Streams are single-owner mutable state: send them
between threads, never share one concurrently; parallel work should use
``stream.split(i)`` to derive independently seeded streams.  Each law's
batch sampler ``_sample_<tag>(gen, params, n, route, max_tries)`` is listed
in the registry of :mod:`laws`, whose ``sample_batch`` is the one sampling
front end; only the tdl sampler reads ``route``.  It also serves tds, and
the discrete stable and discrete Linnik laws, which the registry draws as
their TDL members ds(gamma, lam) = tds(gamma, lam, 1) and
dl(gamma, lam, delta) = tdl(gamma, lam, 1, 1/delta).

Generation routes follow the mixture/compound identities of the family:

* positive stable: Kanter's ratio-of-sines representation driven by one
  uniform and one exponential variate (Kanter 1975, *Ann. Probab.* 3(4)),
  its sines taken from half-angle tangents, sin x = 2t/(1+t^2) with
  t = tan(x/2), and the scale brought in as log lam: one exp per draw,
* tempered positive stable: for gamma < 0 the compound Poisson-of-Gammas
  Gamma(1/theta, -gamma * Poisson(lam theta^gamma)) (an atom at zero with
  mass exp(-lam theta^gamma)), whose counts at one intensity invert the
  Poisson count table; for gamma in (0, 1] exponential rejection of
  stable proposals with acceptance probability exp(-theta * X),
* tempered discrete Linnik, with the tempered discrete stable law as its
  d = 0 member (one sampler serves both tags), on four routes and a
  default, where B = b at d = 0 and B ~ Gamma(b d, 1/d) (scale, shape)
  otherwise, and |h| = |(1-c)^a - 1|:
    a     (any a)       Poisson(TPS(a, B c^a, 1/c - 1))
    b     (a < 0)       route a: for a < 0 its tempering step is the
                        Poisson-Gamma compound Poisson(Gamma(c/(1-c),
                        -a Poisson(B (1-c)^a))), so b names the same draws
    c     (a < 0)       a sum of Poisson(b |h|) (d = 0) or NB(q/(1+q), 1/d)
                        with q = b d |h| jumps NB(c, -a) given > 0; above
                        ``NEG_JUMPS_MAX`` jumps per draw, or where the jump
                        table would pass ``GDS_TABLE_MAX``, the closed form
                        NB(c, -a N), N ~ Poisson(b (1-c)^a) or NB with
                        q = b d (1-c)^a, while N's mean is under the
                        generator cap (past it, the thinned sum up to
                        ``JUMP_BLOCK`` jumps per draw)
    d     (a in (0,1])  a sum of Poisson(b |h|) or NB(q/(1+q), 1/d) with
                        q = b d |h| jumps GDS-Sibuya(a, c) given > 0; past
                        the jump table, or at c = 1, a sum of Poisson(b) or
                        NB with q = b d down-weighted Sibuya jumps (below)
    auto  for c < 1 the law's own PMF table, inverted, where it fits and
          pays (below); else route c for a < 0, route d for a in (0, 1];
          route a at c = 1.

Where the jump table fits, routes c and d draw only the non-zero jumps: of
a Poisson or NB number of jumps with mass (1-c)^|a| at zero, the non-zero
ones are a count of the same family thinned to mean b |h| (the (a, b, 0)
primaries of Panjer's recursion), each with mass |binom(a, j)| c^j / |h|
at j >= 1.  Route a's intensity B c^a, and B (1-c)^a of its tempering step
for a < 0, are formed as sums of logs, so a c^a past double precision
does not overflow an intensity of order one.

Counts, jumps, the gds law and route auto invert CDF tables, each sized
before any work by one rule, :func:`_table_size`, and used while it has
at most ``GDS_TABLE_MAX`` entries.  Route auto's table is one inverse FFT
of the closed-form p.g.f. outer(beta ((1-cs)^a - (1-c)^a)) at the M-th
roots of unity (Abate & Whitt 1992), built only where that costs no more
than the compound route's draws (:func:`_family_table_max`), and not where
b d is subnormal or 1/d overflows.  It shares no p.g.f. evaluation with
the Panjer tables, and no code with the series oracle, that check it.

Route auto, the default, has no tempering rejection: its table and routes
c and d have no tempering step, and route a skips it at c = 1
(theta = 0).  Only the explicit routes a and b (and tps, tpl) temper: by
rejection for a > 0 and c < 1, as a Poisson sum of Gammas for a < 0.
The rejection knows its expected tries per draw before it starts and
raises :class:`RejectionBudgetExceeded` up front when that exceeds
``max_tries``, which bounds nothing else.

The poisson and nb laws invert the count tables of routes c and d, and
so do the counts of the Poisson-Gamma compound where its intensity is one
number (tps, and routes a and b at a < 0 and d = 0).  Past
``GDS_TABLE_MAX`` entries, and for per-draw intensities, Poisson, Gamma
and negative binomial primitives are delegated to numpy's Generator;
their correctness is enforced by the goodness-of-fit suite rather than by
pinning a particular classical algorithm; an intensity past their cap
raises :class:`HeavyTailOverflow` first, and so does a Gamma law's draw
past double precision.  The Sibuya
law is drawn exactly in O(1) per variate through its beta-mixed geometric
representation: P(X > k | W) = W^k with W ~ Beta(1-gamma, gamma), so
X = ceil(log(U) / log(W)).  Its first step X = 1 has mass gamma, and
from gamma = ``_ZERO_SPLIT_MIN`` on one uniform splits it off; the rest is
1 + ceil(log(U) / log(W)) with W size-biased to Beta(2-gamma, gamma).
(Sequential inversion of the pmf recurrence
p_{k+1} = p_k (k-gamma)/(k+1), used for tabulation, has infinite expected
cost per draw because the law has no mean.)  Draws beyond the 1e9 support
cap raise :class:`HeavyTailOverflow`.  Past its table, and at tau = 1,
GDS-Sibuya(gamma, tau) is drawn by geometric down-weighting, exactly and
with no rejection: a Sibuya(gamma) draw Y kept with probability tau^Y,
else 0 (Devroye 1993, *Statist. Probab. Lett.* 18(5)).  Compound draws
take their jumps ``JUMP_BLOCK`` at a time, so their memory does not grow
with the number of jumps.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .coeffs import _abs_binom_sequence, _chernoff_index, _log1m_cs
from .errors import (
    DomainError,
    HeavyTailOverflow,
    IncompatibleRoute,
    RejectionBudgetExceeded,
)
from .limits import DEFAULT_MAX_TRIES, TDL_ROUTES
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
)

#: support cap for heavy-tailed integer draws
SIBUYA_SUPPORT_CAP = 10**9

#: longest inversion table (counts, jumps, the gds law, route auto's); longer
#: ones take another method
GDS_TABLE_MAX = 1 << 17

#: jumps drawn at a time by the compound routes c and d
JUMP_BLOCK = 1 << 16

#: route c (a < 0) draws the closed form NB(c, -a N) above this many
#: non-zero jumps per draw, b |(1-c)^a - 1|; below it the thinned compound
NEG_JUMPS_MAX = 4.0

#: points of the unit circle at which a family table's p.g.f. is evaluated
#: at a time, so the build's temporaries stay small
_PGF_BLOCK = 1 << 12

#: route auto's family table pays where its build costs no more than the
#: compound route's draws (measured crossover): one entry costs about as
#: much as this many jump draws, and route c's closed form about as much
#: as _CLOSED_FORM_JUMPS per draw
_ENTRY_JUMPS = 7.0
_CLOSED_FORM_JUMPS = 9.0

#: draws split off a point mass before drawing the rest from this mass on:
#: the zeros of a table (u < P(0); same draws either way) and Sibuya's
#: first step X = 1; below it the split costs more than it saves (Sibuya's
#: measured crossover is nearer 0.25-0.3, so up to 0.4 it keeps its
#: unsplit draw, within about 10% of the split one there)
_ZERO_SPLIT_MIN = 0.4

#: log of the mass an inversion table may leave out
_LOG_TABLE_TAIL = math.log(1e-17)

#: log of the smallest normal double
_LOG_TINY = math.log(sys.float_info.min)

#: numpy's Poisson and NB generators reject an intensity (NB: a mean) above about
#: 9.22e18; anything near that is a heavy-tail blowup we surface as a typed error
_POISSON_LAM_CAP = 9.0e18


class RngStream:
    """Deterministic pseudo-random stream keyed by (seed, stream).

    Same key, same build: identical draw sequence.  ``split(i)`` derives
    the i-th parallel stream of the same seed.
    """

    __slots__ = ("seed", "stream", "_gen")

    def __init__(self, seed: int, stream: int = 0) -> None:
        self.seed = int(seed)
        self.stream = int(stream)
        if self.seed < 0 or self.stream < 0:
            raise DomainError(f"seed and stream must be >= 0, got {self.seed} and {self.stream}")
        self._gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence((self.seed, self.stream)))
        )

    def split(self, stream: int) -> "RngStream":
        return RngStream(self.seed, stream)

    @property
    def generator(self) -> np.random.Generator:
        return self._gen

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream={self.stream})"


@dataclass(frozen=True)
class SampleBatch:
    """A batch of draws with the law descriptor and seed that produced it."""

    law: str
    params: object
    n: int
    values: np.ndarray
    seed: int
    stream: int = 0

    def __post_init__(self) -> None:
        if len(self.values) != self.n:
            raise DomainError("values length does not match n")
        self.values.setflags(write=False)


# ---------------------------------------------------------------------------
# negative binomial


def _nb_vec(gen: np.random.Generator, pi, delta, n: int | None = None) -> np.ndarray:
    """Negative binomial NB(pi, delta) draws; numpy's p is the 1-pi convention.
    A mean delta pi/(1-pi) past the cap, 1-pi = 0 included, raises first."""
    q = 1.0 - np.asarray(pi)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        mean = np.max(delta, initial=0.0) * (pi / q)
    if not np.all(mean <= _POISSON_LAM_CAP):
        raise HeavyTailOverflow(
            f"negative binomial mean exceeded the generator cap {_POISSON_LAM_CAP:g}"
        )
    return gen.negative_binomial(delta, q, size=n)


# ---------------------------------------------------------------------------
# Sibuya and its geometric down-weighting


def _sibuya_float(gen: np.random.Generator, gamma: float, n: int) -> np.ndarray:
    """Sibuya(gamma) draws as floats, with no support cap.

    Given W ~ Beta(1-gamma, gamma), X is geometric: P(X > k | W) = W^k, so
    X = ceil(log U / log W).  Its first step has mass P(X = 1) = E[1 - W] =
    gamma; from gamma = ``_ZERO_SPLIT_MIN`` on, that point mass is split
    off by one uniform, and X > 1 is 1 + ceil(log U / log W) with W
    size-biased, W ~ Beta(2-gamma, gamma).
    """
    if gamma == 1.0:
        return np.ones(n)
    shift = 1.0 if gamma >= _ZERO_SPLIT_MIN else 0.0
    more = np.flatnonzero(gen.random(n) >= gamma) if shift else None
    m = n if more is None else more.size
    w = gen.beta(1.0 - gamma + shift, gamma, size=m)
    u = 1.0 - gen.random(m)  # in (0, 1]
    # clip away the measure-zero fp endpoints of W before taking logs
    w = np.clip(w, 5e-324, np.nextafter(1.0, 0.0))
    y = np.maximum(np.ceil(np.log(u) / np.log(w)), 1.0) + shift
    if more is None:
        return y
    x = np.ones(n)
    x[more] = y
    return x


def _capped(x: np.ndarray) -> np.ndarray:
    """Integer Sibuya-type draws; a draw beyond the support cap raises."""
    if np.any(x > SIBUYA_SUPPORT_CAP):
        raise HeavyTailOverflow(
            f"Sibuya draw exceeded the support cap {SIBUYA_SUPPORT_CAP:g}"
        )
    return x.astype(np.int64)


def _sample_sibuya(gen, p: SibuyaParams, n: int, route=None, max_tries=None) -> np.ndarray:
    return _capped(_sibuya_float(gen, p.gamma, n))


def _gds_draws(gen: np.random.Generator, gamma: float, tau: float, m: int) -> np.ndarray:
    """m GDS-Sibuya(gamma, tau) draws: a Sibuya(gamma) Y kept with
    probability tau^Y, else 0, has p.g.f. E[(tau s)^Y] + 1 - E[tau^Y] =
    1 + (1-tau)^gamma - (1 - tau s)^gamma.  A Y past the support cap that
    is not kept is 0; only a kept one raises."""
    y = _sibuya_float(gen, gamma, m)
    if tau < 1.0:
        y[np.log(1.0 - gen.random(m)) > y * math.log(tau)] = 0.0
    return _capped(y)


# ---------------------------------------------------------------------------
# inversion tables: jumps of routes c and d, the gds law, the counts of c and d


def _table_search(cdf: np.ndarray):
    """A function ``search(u)`` giving, for each u in [0, 1), the first i
    with u < cdf[i] (len(cdf) if there is none): inversion of a CDF table
    whose last entry is 1, or within rounding of it.

    It starts each u from a guide table of 4 len(cdf) buckets, the first i
    past the bucket's lower edge (Chen & Asau 1974, *AIIE Trans.* 6(2));
    only the u whose bucket holds a table step below them take a binary
    search.  The result equals ``np.searchsorted(cdf, u, side="right")``.
    """
    m = 4 * len(cdf)
    # guide[b] counts the entries whose own bucket is below b: each is at
    # most every u of bucket b, so the answer for such a u is not among them
    bucket = np.multiply(cdf, m, out=np.empty(len(cdf), np.intp), casting="unsafe")
    bucket += 1
    guide = np.bincount(bucket, minlength=m + 1)[: m + 1]
    np.cumsum(guide, out=guide)
    np.minimum(guide, len(cdf) - 1, out=guide)

    def search(u: np.ndarray) -> np.ndarray:
        i = np.multiply(u, m, out=np.empty(len(u), np.intp), casting="unsafe")
        i = guide[i]
        short = np.flatnonzero(cdf[i] <= u)
        i[short] = np.searchsorted(cdf, u[short], side="right")
        return i

    return search


def _split_draws(gen: np.random.Generator, cdf: np.ndarray, n: int) -> tuple:
    """n inversions of the CDF table over k = 0, 1, ..., one uniform each,
    as (index, values) for :func:`_scattered`: where P(0) is at least
    ``_ZERO_SPLIT_MIN``, only the u >= P(0) are searched and index holds
    their positions; below it every u is searched (index ``slice(None)``),
    which gives the same draws."""
    u = gen.random(n)
    if cdf[0] < _ZERO_SPLIT_MIN:
        return slice(None), _table_search(cdf)(u)
    nz = np.flatnonzero(u >= cdf[0])
    u = u[nz]  # the batch-sized uniforms are freed before the search
    return nz, _table_search(cdf)(u)


def _scattered(n: int, index, values: np.ndarray) -> np.ndarray:
    """The n draws that are ``values`` at ``index`` and 0 elsewhere."""
    if isinstance(index, slice):
        return values
    out = np.zeros(n, dtype=values.dtype)
    out[index] = values
    return out


def _table_draws(gen: np.random.Generator, cdf: np.ndarray, n: int) -> np.ndarray:
    """n draws of the CDF table over k = 0, 1, ..."""
    return _scattered(n, *_split_draws(gen, cdf, n))


def _table_size(log_sigma: float, log_pgf) -> int | None:
    """The last index K of a table over k = 0..K that leaves out less than
    1e-17 of a count law whose p.g.f. G converges for s < sigma, by the
    Chernoff rule :func:`coeffs._chernoff_index` (at least 1, so that the
    table holds the mean), or None past ``GDS_TABLE_MAX`` (or at
    sigma <= 1).  ``log_pgf(f)`` gives log G(sigma^f)."""
    return _chernoff_index(log_sigma, log_pgf, _LOG_TABLE_TAIL, GDS_TABLE_MAX)


def _log_jump_mass(a: float, c: float) -> float:
    """log |h| with h = (1-c)^a - 1: the mass 1 - (1-c)^a of the non-zero
    GDS-Sibuya(a, c) jumps for a > 0, and (1-c)^a - 1 = (1-c)^a P(X > 0)
    for the NB(c, -a) jumps of a < 0; 0 at c = 1."""
    if c == 1.0:
        return 0.0
    x = a * math.log1p(-c)
    if x > 0:
        return x + math.log(-math.expm1(-x))
    return math.log(-math.expm1(x)) if x < 0 else -math.inf  # a c below the subnormals


def _jump_cdf(a: float, c: float, zero: bool = False) -> np.ndarray | None:
    """CDF table over j = 0, 1, ... of the jumps of routes c and d given
    X > 0, NB(c, -a) (a < 0) or GDS-Sibuya(a, c) (a > 0), or with ``zero``
    of the GDS-Sibuya(a, c) law itself; None at c = 1 or past
    ``GDS_TABLE_MAX`` entries.  Its weights are P(0), which is 0 given
    X > 0 and (1-c)^a at ``zero``, and r_j = |binom(a, j)| c^j, whose sum
    is |h| = |(1-c)^a - 1|; normalised by their own sum, they never
    subtract a P(0).  Its p.g.f., (P(0) + |(1-cs)^a - 1|) / (P(0) + |h|),
    converges for s < 1/c."""
    if c == 1.0:
        return None
    log_c = math.log(c)
    p0 = math.exp(a * math.log1p(-c)) if zero else 0.0
    log_norm = 0.0 if zero else _log_jump_mass(a, c)
    size = _table_size(-log_c, lambda f: np.log(
        p0 + np.abs(np.expm1(a * _log1m_cs(log_c, f)))) - log_norm)
    if size is None:
        return None
    cdf = _abs_binom_sequence(a, size, damp=c)
    cdf[0] = p0
    np.cumsum(cdf, out=cdf)
    cdf /= cdf[-1]
    return cdf


def _sample_gds(gen, p: GdsSibuyaParams, n: int, route=None, max_tries=None) -> np.ndarray:
    """GDS-Sibuya(gamma, tau): its own table inverted, else :func:`_gds_draws`."""
    cdf = _jump_cdf(p.gamma, p.tau, zero=True)
    if cdf is None:
        return _gds_draws(gen, p.gamma, p.tau, n)
    return _table_draws(gen, cdf, n)


def _count_cdf(mean: float, d: float) -> np.ndarray | None:
    """CDF table over k = 0, 1, ... of the Poisson(mean) (d = 0) or
    NB(q/(1+q), 1/d) (d > 0, q = d mean) count, the (a, b, 0) primaries of
    Panjer's recursion, or None where no table is drawn from.

    The table follows P(k)/P(k-1) = A + B/k from P(0) = 1 and is normalised
    by its own sum.  It is used while it fits (:func:`_table_size`) and its
    P(0) is a normal double, so that the running product cannot overflow.
    """
    if not mean > 0.0:
        return None
    if d == 0:
        # G(s) = exp(mean (s - 1)) is entire; sigma holds the Chernoff
        # optimum s = (K+1)/mean of every K that the bound can return
        log_p0, A, B = -mean, 0.0, mean
        log_sigma = math.log(2.0 * (mean - _LOG_TABLE_TAIL)) - math.log(mean)
        size = _table_size(log_sigma, lambda f: mean * np.expm1(log_sigma * f))
    else:
        q, delta = d * mean, 1.0 / d
        pi = q / (1.0 + q)
        log_p0, A, B = -delta * math.log1p(q), pi, pi * (delta - 1.0)
        # G(s) = ((1-pi)/(1-pi s))^delta converges for s < 1/pi
        log_pi = math.log(pi) if pi > 0.0 else -math.inf  # q = d mean underflowed to 0
        size = _table_size(-log_pi, lambda f: delta * (-math.log1p(q) - _log1m_cs(log_pi, f)))
    if size is None or log_p0 < _LOG_TINY:
        return None
    cdf = np.empty(size + 1)
    cdf[0] = 1.0
    cdf[1:] = A + B / np.arange(1.0, size + 1)
    np.cumprod(cdf, out=cdf)
    np.cumsum(cdf, out=cdf)
    cdf /= cdf[-1]
    return cdf


def _count_draws(gen: np.random.Generator, log_mean: float, d: float, n: int) -> tuple:
    """n counts of mean exp(log_mean), Poisson at d = 0 and NB(q/(1+q), 1/d)
    with q = d mean at d > 0, as (index, values) for :func:`_scattered`:
    :func:`_split_draws` of :func:`_count_cdf` where it has a table, else
    numpy's generators behind the cap, every count at index ``slice(None)``."""
    with np.errstate(over="ignore"):
        mean = float(np.exp(log_mean))
    cdf = _count_cdf(mean, d)
    if cdf is not None:
        return _split_draws(gen, cdf, n)
    if d == 0:
        return slice(None), _poisson_mix(gen, mean, n)
    q = d * mean
    return slice(None), _nb_vec(gen, q / (1.0 + q), 1.0 / d, n)


def _compound(gen: np.random.Generator, counts: np.ndarray, draw) -> np.ndarray:
    """Sums of counts[i] jumps ``draw(gen, m)`` for each i.

    The jumps are drawn in order, at most ``JUMP_BLOCK`` at a time from the
    one generator, so memory stays bounded whatever the total; each block
    adds its running sums at the count ends it covers.  A total past the
    int64 range of the running count ends raises
    :class:`HeavyTailOverflow` before any jump is drawn.
    """
    jumps = float(counts.sum(dtype=np.float64))
    if not jumps < 2.0**63:
        raise HeavyTailOverflow(f"the batch's {jumps:.3g} jumps pass the int64 range")
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    at_ends = np.zeros(len(counts), dtype=np.int64)  # sum of all jumps before each end
    carry = 0
    for lo in range(0, total, JUMP_BLOCK):
        hi = min(lo + JUMP_BLOCK, total)
        csum = draw(gen, hi - lo)
        np.cumsum(csum, out=csum)
        csum += carry
        i0, i1 = np.searchsorted(ends, (lo, hi), side="right")
        at_ends[i0:i1] = csum[ends[i0:i1] - lo - 1]
        carry = int(csum[-1])
    return np.diff(at_ends, prepend=0)


# ---------------------------------------------------------------------------
# the family's own PMF table (route auto)


def _family_log_pgf(a: float, c: float, beta: float, power, log_r, arg_w) -> tuple:
    """log |G| and arg G of G(s) = outer(beta ((1-cs)^a - (1-c)^a)), outer
    x^power of 1 + x, or exp at ``power`` None, from log |r| and arg r of
    r = (1 - cs) / (1 - c).  In polar form a real s (arg r = 0) and the
    unit circle share one evaluation in real arithmetic.  The inner term is
    beta (1-c)^a (r^a - 1), with r^a - 1 formed from expm1 and sin^2, so it
    keeps its digits where (1-cs)^a and (1-c)^a agree in most of theirs (a
    small c).  log |1 + x| is formed from x, as
    log1p(x_re (2 + x_re) + x_im^2) / 2, so a small x keeps its digits
    however large |power| is.  At a real s, G is finite and positive only
    where log |G| is finite and arg G is 0: 1 + x <= 0 gives an infinite
    modulus or an argument of power pi."""
    scale = beta * np.exp(a * np.log1p(-c))
    theta = a * arg_w
    re = scale * (np.expm1(a * log_r) * np.cos(theta) - 2.0 * np.sin(0.5 * theta) ** 2)
    im = scale * np.exp(a * log_r) * np.sin(theta)
    if power is None:
        return re, im
    log_mod = 0.5 * np.log1p(re * (2.0 + re) + im * im)
    return power * log_mod, power * np.arctan2(im, 1.0 + re)


def _family_cdf(a: float, c: float, beta: float, power,
                max_len: float = GDS_TABLE_MAX) -> np.ndarray | None:
    """CDF table over k = 0, 1, ... of the count law with p.g.f.
    G(s) = outer(beta ((1-cs)^a - (1-c)^a)), c < 1, in the coordinates of
    the law registry (``power`` None for exp), or None where it would pass
    ``max_len`` or ``GDS_TABLE_MAX`` entries.

    It is sized before any work by :func:`_table_size`, from G itself,
    which converges for s < 1/c, and is then one inverse FFT of G at the
    M-th roots of unity, M the first power of two above K (Abate & Whitt
    1992, *Oper. Res. Lett.* 12(5)), so the aliased mass is that bounded
    tail.  Negative round-off is clipped to 0 and the
    table is normalised by its own sum.  A subnormal beta, or an infinite
    power, is refused: |power| would multiply the digits beta has lost.
    """
    if not 0.0 < c < 1.0:
        return None
    if power is not None and not (abs(beta) >= sys.float_info.min and math.isfinite(power)):
        return None
    log_c = math.log(c)

    def log_pgf(f):
        # G is finite and positive at a real s only where arg G is 0
        log_r = _log1m_cs(log_c, f) - math.log1p(-c)
        log_g, arg_g = _family_log_pgf(a, c, beta, power, log_r, 0.0)
        return np.where(arg_g == 0.0, log_g, np.nan)

    size = _table_size(-log_c, log_pgf)
    if size is None or size > max_len:
        return None
    m = 1 << size.bit_length()
    g = np.empty(m // 2 + 1, complex)
    for lo in range(0, len(g), _PGF_BLOCK):
        phi = np.arange(lo, min(lo + _PGF_BLOCK, len(g))) * (2.0 * math.pi / m)
        # |1 - c e^(i phi)|^2 = (1-c)^2 + 4 c sin^2(phi/2), and its real part
        # 1 - c cos(phi) = (1-c) + 2 c sin^2(phi/2): neither cancels
        sin2 = np.sin(0.5 * phi) ** 2
        with np.errstate(all="ignore"):
            log_g, arg_g = _family_log_pgf(a, c, beta, power,
                                           0.5 * np.log1p(4.0 * c * sin2 / (1.0 - c) ** 2),
                                           np.arctan2(c * np.sin(phi), 2.0 * c * sin2 + (1.0 - c)))
            g[lo:lo + len(phi)] = np.exp(log_g + 1j * arg_g)
    pmf = np.fft.irfft(g, m)[: size + 1]
    cdf = np.cumsum(np.maximum(pmf, 0.0, out=pmf))  # a copy: the FFT's M entries are freed
    if not 0.0 < cdf[-1] < math.inf:
        return None
    cdf /= cdf[-1]
    return cdf


# ---------------------------------------------------------------------------
# positive stable and its tempering


def _half_sine(x: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """sin(2x)/2 = t/(1 + t^2) with t = tan x, for x in [0, pi/2), in place
    over x (tmp is scratch): numpy's tan costs a fraction of its sin, and
    no reciprocal of a tiny t is formed."""
    np.tan(x, out=x)
    np.multiply(x, x, out=tmp)
    tmp += 1.0
    x /= tmp
    return x


def _kanter_vec(gen: np.random.Generator, gamma: float, log_lam, n: int) -> np.ndarray:
    """PS(gamma, lam) draws via Kanter's representation, gamma in (0, 1),
    with log_lam = log lam a number or an array (mixture draws).

    X = lam^(1/gamma) (A(U)/E)^((1-gamma)/gamma) with
    A(u) = [sin(gamma pi u)^gamma sin((1-gamma) pi u)^(1-gamma)
            / sin(pi u)]^(1/(1-gamma)).
    With h = pi u / 2 in (0, pi/2] and the half-angle tangent form
    r(x) = sin(2x)/2 = tan x / (1 + tan^2 x) (:func:`_half_sine`),
    log X = log(r(gamma h) / r(h))
            + [(1-gamma) log(r((1-gamma) h) / (E r(h))) + log lam] / gamma,
    the factors 2 cancelling, and X is one exp of it: the scale enters as
    its log, so no power of it can underflow.  A draw beyond double
    precision comes back as inf, and one that rounding leaves indeterminate
    (at a subnormal gamma, gamma h can round to 0) as nan, without a
    warning; the callers decide what that means.
    """
    h = gen.random(n)
    np.subtract(1.0, h, out=h)
    h *= 0.5 * math.pi  # the double pi/2 is below pi/2: tan h is finite and positive
    e = gen.standard_exponential(n)
    tmp = np.empty(n)
    x = _half_sine(np.multiply(h, gamma), tmp)
    e /= _half_sine(np.multiply(h, 1.0 - gamma), tmp)
    r = _half_sine(h, tmp)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        x /= r
        np.log(x, out=x)
        e *= r
        np.log(e, out=e)
        e *= gamma - 1.0
        e += log_lam
        e /= gamma
        x += e
        return np.exp(x, out=x)


def _poisson_gamma(gen: np.random.Generator, gamma: float, log_t, theta: float,
                   n: int) -> np.ndarray:
    """Gamma(-gamma N, 1/theta) draws (shape, scale) with N ~ Poisson(exp(log_t)),
    for gamma < 0: the tempered positive stable law as a compound Poisson
    of Gammas.  One intensity (log_t a number) draws its counts from the
    count table (:func:`_count_draws`), and only the non-zero ones take
    a Gamma draw; an array log_t draws them from numpy, and is overwritten.
    An intensity past the Poisson cap raises, and log_t = -inf gives 0."""
    if np.ndim(log_t) == 0:
        index, counts = _count_draws(gen, float(log_t), 0.0, n)
        return _scattered(n, index, gen.gamma(shape=-gamma * counts, scale=1.0 / theta))
    with np.errstate(over="ignore"):
        counts = _poisson_mix(gen, np.exp(log_t, out=log_t))
    return gen.gamma(shape=-gamma * counts, scale=1.0 / theta)


def _overflowed(gamma: float) -> HeavyTailOverflow:
    return HeavyTailOverflow(
        f"positive stable draw overflowed double precision (gamma = {gamma:g})"
    )


def _tps_vec(
    gen: np.random.Generator,
    gamma: float,
    log_lam,
    theta: float,
    n: int,
    max_tries: int = DEFAULT_MAX_TRIES,
) -> np.ndarray:
    """TPS(gamma, lam, theta) draws, theta = 0 for the positive stable law,
    with log_lam = log lam a number or an array (mixture scales; a zero
    scale, log_lam = -inf, draws 0).  An untempered draw beyond double
    precision, or any indeterminate (nan) proposal, raises
    :class:`HeavyTailOverflow`."""
    if gamma == 0.0:
        return np.zeros(n)
    if gamma == 1.0:
        # Laplace transform exp(-lam t), whatever theta: point mass at lam
        return np.exp(np.broadcast_to(log_lam, (n,)))
    if gamma < 0.0:
        # the intensity lam theta^gamma as a sum of logs: a zero scale gives
        # log 0 = -inf and so a zero draw, whatever theta^gamma is
        return _poisson_gamma(gen, gamma, log_lam + gamma * math.log(theta), theta, n)
    if theta == 0.0:
        x = _kanter_vec(gen, gamma, log_lam, n)
        if not np.isfinite(x).all():
            raise _overflowed(gamma)
        return x
    # the draw with the largest lam expects exp(lam theta^gamma) tries
    with np.errstate(over="ignore"):
        log_tries = float(np.exp(np.max(log_lam, initial=-np.inf) + gamma * math.log(theta)))
    if log_tries > math.log(max_tries):
        raise RejectionBudgetExceeded(
            f"tempering rejection expects exp({log_tries:.4g}) tries for its worst draw, "
            f"above max_tries = {max_tries} (acceptance rate exp(-lam theta^gamma) too small)"
        )
    one_scale = np.ndim(log_lam) == 0
    out = np.zeros(n)
    active = np.arange(n) if one_scale else np.flatnonzero(log_lam > -np.inf)
    tries = 0
    # a proposal with theta x past double precision, inf included, is
    # accepted with probability exp(-inf) = 0
    with np.errstate(over="ignore"):
        while active.size:
            tries += 1
            if tries > max_tries:
                raise RejectionBudgetExceeded(
                    f"tempering rejection exceeded {max_tries} tries per draw "
                    f"(acceptance rate exp(-lam theta^gamma) too small)"
                )
            x = _kanter_vec(gen, gamma, log_lam if one_scale else log_lam[active], active.size)
            if np.isnan(x).any():
                raise _overflowed(gamma)
            accept = gen.random(active.size) < np.exp(-theta * x)
            out[active[accept]] = x[accept]
            active = active[~accept]
    return out


# ---------------------------------------------------------------------------
# the discrete hierarchy


def _poisson_mix(gen: np.random.Generator, t, n: int | None = None) -> np.ndarray:
    """Poisson(t) draws for intensities t, guarded against blowups."""
    if not np.all(t <= _POISSON_LAM_CAP):
        raise HeavyTailOverflow(
            f"Poisson intensity exceeded the generator cap {_POISSON_LAM_CAP:g}"
        )
    return gen.poisson(t, size=n)


def _compound_jumps(gen: np.random.Generator, p: TdlParams | TdsParams, n: int) -> np.ndarray:
    """Routes c and d: sums of the jumps of each draw.

    Of a Poisson(b) (d = 0) or NB(q/(1+q), 1/d) (d > 0, q = b d) number of
    GDS-Sibuya(a, c) jumps (a > 0), or of Poisson(b (1-c)^a) or NB with
    q = b d (1-c)^a NB(c, -a) jumps (a < 0), the non-zero ones are a count
    of the same family with mean b |h|, |h| = |(1-c)^a - 1|: the count is
    thinned.  Where :func:`_jump_cdf` has a table, that count and the
    inverted table draw them.  Past it, a > 0 draws the unthinned count,
    of mean b, of :func:`_gds_draws`.  For a < 0, past it or above
    ``NEG_JUMPS_MAX`` non-zero jumps per draw, the closed form NB(c, -a N)
    of the unthinned count N is cheaper.  Where N's mean b (1-c)^a passes
    the generator cap, the thinned count's mean b |h| can still be small
    (a small c): up to ``JUMP_BLOCK`` non-zero jumps per draw, the thinned
    compound is drawn instead, so its work per draw stays bounded whatever
    b is; beyond that the closed form's count raises
    :class:`HeavyTailOverflow`.
    """
    log_b = math.log(p.b)
    log_jumps = log_b + _log_jump_mass(p.a, p.c)
    if log_jumps == -math.inf:
        return np.zeros(n, dtype=np.int64)
    closed = p.a < 0 and log_jumps > math.log(NEG_JUMPS_MAX) and (
        _closed_form_fits(p) or log_jumps > math.log(JUMP_BLOCK))
    cdf = None if closed else _jump_cdf(p.a, p.c)
    if cdf is not None:
        search = _table_search(cdf)
        index, counts = _count_draws(gen, log_jumps, p.d, n)
        values = _compound(gen, counts, lambda gen, m: search(gen.random(m)))
    elif p.a > 0:
        index, counts = _count_draws(gen, log_b, p.d, n)
        values = _compound(gen, counts, lambda gen, m: _gds_draws(gen, p.a, p.c, m))
    else:
        counts = _scattered(n, *_count_draws(gen, log_b + p.a * math.log1p(-p.c), p.d, n))
        # NB(c, -a N) is 0 at N = 0, a shape numpy refuses
        index = np.flatnonzero(counts)
        shapes = -p.a * counts[index]
        del counts  # freed before the NB draw, like the uniforms of the counts
        values = _nb_vec(gen, p.c, shapes)
    return _scattered(n, index, values)


def _closed_form_fits(p: TdlParams | TdsParams) -> bool:
    """Whether route c's closed form NB(c, -a N) can be drawn at a < 0:
    the mean b (1-c)^a of N is under the generator cap."""
    return math.log(p.b) + p.a * math.log1p(-p.c) <= math.log(_POISSON_LAM_CAP)


def _tdl_family(p: TdlParams | TdsParams) -> tuple:
    """The family coordinates (a, c, beta, power) of a tdl or tds record, as
    the law registry records them, in doubles."""
    beta = math.copysign(p.b, p.a)
    if p.d == 0:
        return p.a, p.c, -beta, None
    return p.a, p.c, beta * p.d, -1.0 / p.d


def _family_table_max(p: TdlParams | TdsParams, n: int) -> float:
    """The longest family table route auto builds for n draws: one whose
    build costs at most what the compound route's draws would.  An entry
    costs about ``_ENTRY_JUMPS`` jump draws, and a compound draw 1 + b|h|,
    or for a < 0 at most 1 + ``_CLOSED_FORM_JUMPS`` where route c's closed
    form can be drawn and caps it."""
    with np.errstate(over="ignore"):
        jumps = float(np.exp(math.log(p.b) + _log_jump_mass(p.a, p.c)))
    if p.a < 0 and _closed_form_fits(p):
        jumps = min(jumps, _CLOSED_FORM_JUMPS)
    return n * (1.0 + jumps) / _ENTRY_JUMPS


def _sample_tdl(
    gen: np.random.Generator,
    p: TdlParams | TdsParams,
    n: int,
    route: str = "auto",
    max_tries: int = DEFAULT_MAX_TRIES,
) -> np.ndarray:
    """Tempered discrete Linnik, and tempered discrete stable as its d = 0
    member, on the routes of the module docstring."""
    if route not in TDL_ROUTES:
        raise IncompatibleRoute(f"route must be one of {TDL_ROUTES}, got {route!r}")
    if p.is_degenerate:
        # a point mass at zero, whatever the requested route
        return np.zeros(n, dtype=np.int64)
    if route in ("b", "c") and p.a >= 0:
        raise IncompatibleRoute(f"route {route!r} requires a < 0, got a = {p.a}")
    if route == "d" and not 0.0 < p.a <= 1.0:
        raise IncompatibleRoute(f"route 'd' requires a in (0, 1], got a = {p.a}")
    if route == "auto":
        if p.c < 1:
            cdf = _family_cdf(*_tdl_family(p), _family_table_max(p, n))
            if cdf is not None:
                return _table_draws(gen, cdf, n)
        route = "c" if p.a < 0 else "d" if p.c < 1 else "a"
    if route in ("c", "d"):
        return _compound_jumps(gen, p, n)
    # routes a and b: Poisson(TPS(a, B c^a, 1/c - 1)) with B = b at d = 0
    # and B ~ Gamma(b d, 1/d) otherwise, formed in logs: B c^a, or for a < 0
    # the tempering intensity B c^a theta^a = B (1-c)^a, may pass double
    # precision in a factor although the product does not
    if p.d == 0:
        log_lam = math.log(p.b)
    else:
        log_lam = gen.gamma(shape=1.0 / p.d, size=n)
        with np.errstate(divide="ignore"):
            np.log(log_lam, out=log_lam)
        log_lam += math.log(p.b) + math.log(p.d)
    theta = 1.0 / p.c - 1.0
    if p.a < 0:
        log_lam += p.a * math.log1p(-p.c)
        return _poisson_mix(gen, _poisson_gamma(gen, p.a, log_lam, theta, n))
    if theta == math.inf:
        # a subnormal c, where 1/c overflows: TPS(a, lam, theta) is
        # TPS(a, lam theta^a, 1) / theta, with lam theta^a = B (1-c)^a
        log_lam += p.a * math.log1p(-p.c)
        x = _tps_vec(gen, p.a, log_lam, 1.0, n, max_tries)
        return _poisson_mix(gen, x * (p.c / (1.0 - p.c)))
    log_lam += p.a * math.log(p.c)
    return _poisson_mix(gen, _tps_vec(gen, p.a, log_lam, theta, n, max_tries))


# ---------------------------------------------------------------------------
# the remaining per-law samplers


def _linnik_log_scales(gen: np.random.Generator, p, n: int) -> np.ndarray:
    """Logs of the Gamma(delta, lam/delta) mixing scales of the (tempered)
    Linnik laws, -inf where a scale underflows to 0."""
    x = gen.gamma(shape=p.delta, scale=p.lam / p.delta, size=n)
    with np.errstate(divide="ignore"):
        return np.log(x, out=x)


def _sample_ps(gen, p: StableParams, n, route, max_tries):
    return _tps_vec(gen, p.gamma, math.log(p.lam), 0.0, n, max_tries)


def _sample_tps(gen, p: TemperedStableParams, n, route, max_tries):
    return _tps_vec(gen, p.gamma, math.log(p.lam), p.theta, n, max_tries)


def _sample_pl(gen, p: LinnikParams, n, route, max_tries):
    return _tps_vec(gen, p.gamma, _linnik_log_scales(gen, p, n), 0.0, n, max_tries)


def _sample_tpl(gen, p: TemperedLinnikParams, n, route, max_tries):
    return _tps_vec(gen, p.gamma, _linnik_log_scales(gen, p, n), p.theta, n, max_tries)


def _sample_nb(gen, p: NegativeBinomialParams, n, route, max_tries):
    cdf = _count_cdf(p.delta * p.pi / (1.0 - p.pi), 1.0 / p.delta)
    if cdf is None:
        return _nb_vec(gen, p.pi, p.delta, n)
    return _table_draws(gen, cdf, n)


def _sample_poisson(gen, p: PoissonParams, n, route, max_tries):
    cdf = _count_cdf(p.lam, 0.0)
    if cdf is None:
        return _poisson_mix(gen, p.lam, n)
    return _table_draws(gen, cdf, n)


def _sample_gamma(gen, p: GammaParams, n, route, max_tries):
    x = gen.gamma(shape=p.shape, scale=p.scale, size=n)
    if not np.isfinite(x).all():
        raise HeavyTailOverflow(
            f"gamma draw overflowed double precision (scale = {p.scale:g}, shape = {p.shape:g})"
        )
    return x
