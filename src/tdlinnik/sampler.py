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
  uniform and one exponential variate, scaled by lam^(1/gamma),
* tempered positive stable: for gamma < 0 the compound Poisson-of-Gammas
  Gamma(1/theta, -gamma * Poisson(lam theta^gamma)) (an atom at zero with
  mass exp(-lam theta^gamma)); for gamma in (0, 1] exponential rejection
  of stable proposals with acceptance probability exp(-theta * X),
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
                        q = b d (1-c)^a
    d     (a in (0,1])  a sum of Poisson(b |h|) or NB(q/(1+q), 1/d) with
                        q = b d |h| jumps GDS-Sibuya(a, c) given > 0
    auto  for c < 1 the law's own PMF table, inverted, where it fits and
          pays (below); else route c for a < 0, route d for a in (0, 1];
          route a at c = 1.

Routes c and d draw only the non-zero jumps: of a Poisson or NB number of
jumps with mass (1-c)^|a| at zero, the non-zero ones are a count of the
same family thinned to mean b |h| (the (a, b, 0) primaries of Panjer's
recursion), and they are the jump law given X > 0, with mass
|binom(a, j)| c^j / |h| at j >= 1.  Counts and jumps are drawn by
inverting CDF tables that are sized before any work; a count whose table
would pass ``GDS_TABLE_MAX`` entries comes from numpy's Poisson or NB
generator.  Route a's intensity B c^a, and B (1-c)^a of its tempering step
for a < 0, are formed as sums of logs, so a c^a past double precision does
not overflow an intensity of order one.

Route auto's table is one inverse FFT of the closed-form p.g.f.
outer(beta ((1-cs)^a - (1-c)^a)) at the M-th roots of unity (Abate &
Whitt 1992), sized before any work by a Chernoff bound on its tail at
fixed real s in (1, 1/c).  It is built while it has at most
``GDS_TABLE_MAX`` entries and its build costs no more than the compound
route's draws would (:func:`_family_table_max`), and not where b d is
subnormal or 1/d overflows.  It shares no code with the Panjer tables and
the series oracle that check it.

Route auto, the default, has no tempering rejection: its table and routes
c and d have no tempering step, and route a skips it at c = 1
(theta = 0).  Only the explicit routes a and b (and tps, tpl) temper: by
rejection for a > 0 and c < 1, as a Poisson sum of Gammas for a < 0.
Both rejection steps, tempering and GDS-Sibuya thinning (below), know
their expected tries per draw before they start and raise
:class:`RejectionBudgetExceeded` up front when it exceeds ``max_tries``.

The poisson and nb laws invert the count tables of routes c and d.  Past
``GDS_TABLE_MAX`` entries, and in route a and the tempered laws, Poisson,
Gamma and negative binomial primitives are delegated to numpy's Generator;
their correctness is enforced by the goodness-of-fit suite rather than by
pinning a particular classical algorithm; an intensity past their cap
raises :class:`HeavyTailOverflow` first, and so does a Gamma law's draw
past double precision.  The Sibuya
law is drawn exactly in O(1) per variate through its beta-mixed geometric
representation: P(X > k | W) = W^k with W ~ Beta(1-gamma, gamma), so
X = ceil(log(U) / log(W)).  (Sequential inversion of the pmf recurrence
p_{k+1} = p_k (k-gamma)/(k+1), used for tabulation, has infinite expected
cost per draw because the law has no mean.)  Draws beyond the 1e9 support
cap raise :class:`HeavyTailOverflow`.  The GDS-Sibuya law is 0 with
probability (1-tau)^gamma, else a non-zero jump of route d from the same
sampler: the inverted table of |binom(gamma, k)| tau^k while it has at
most ``GDS_TABLE_MAX`` entries, past it a Sibuya X kept with probability
tau^X.  Compound draws take their jumps ``JUMP_BLOCK`` at a time, so their
memory does not grow with the number of jumps.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .coeffs import _abs_binom_sequence
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

#: longest inversion table of jumps or counts; longer ones take another method
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

#: table draws split off the zeros (u < P(0)) before the search from this
#: P(0) on; below it searching every u is cheaper (same draws either way)
_ZERO_SPLIT_MIN = 0.4

#: log of the mass a count, jump or family CDF table may leave out
_LOG_TABLE_TAIL = math.log(1e-17)

#: the points s = c^-f, f in (0, 1), of a family table's Chernoff bound:
#: geometric ladders toward s = 1 and toward the singularity at s = 1/c
_LADDER = 2.0 ** -(np.arange(1, 97) / 4)
_CHERNOFF_F = np.concatenate((_LADDER, 1.0 - _LADDER))

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
    """Sibuya(gamma) draws as floats, with no support cap."""
    if gamma == 1.0:
        return np.ones(n)
    w = gen.beta(1.0 - gamma, gamma, size=n)
    u = 1.0 - gen.random(n)  # in (0, 1]
    # clip away the measure-zero fp endpoints of W before taking logs
    w = np.clip(w, 5e-324, np.nextafter(1.0, 0.0))
    return np.maximum(np.ceil(np.log(u) / np.log(w)), 1.0)


def _capped(x: np.ndarray) -> np.ndarray:
    """Integer Sibuya-type draws; a draw beyond the support cap raises."""
    if np.any(x > SIBUYA_SUPPORT_CAP):
        raise HeavyTailOverflow(
            f"Sibuya draw exceeded the support cap {SIBUYA_SUPPORT_CAP:g}"
        )
    return x.astype(np.int64)


def _sample_sibuya(gen, p: SibuyaParams, n: int, route=None, max_tries=None) -> np.ndarray:
    return _capped(_sibuya_float(gen, p.gamma, n))


def _thin_sibuya(gen: np.random.Generator, gamma: float, tau: float, m: int) -> np.ndarray:
    """m draws of GDS-Sibuya(gamma, tau) given X > 0: Sibuya(gamma) draws X,
    each kept with probability tau^X and redrawn until kept.  A rejected X
    beyond the Sibuya support cap is discarded; only a kept one raises."""
    out = np.empty(m, dtype=np.int64)
    active = np.arange(m)
    log_tau = math.log(tau)
    while active.size:
        x = _sibuya_float(gen, gamma, active.size)
        keep = np.log(1.0 - gen.random(active.size)) <= x * log_tau
        out[active[keep]] = _capped(x[keep])
        active = active[~keep]
    return out


# ---------------------------------------------------------------------------
# non-zero jumps (routes c and d, the gds law) and the thinned counts of c and d


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


def _inverse_draws(gen: np.random.Generator, cdf: np.ndarray,
                   n: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices and values of the non-zero draws among n inversions of a CDF
    table over k = 0, 1, ...: one uniform each, and only the u >= P(0) are
    searched."""
    u = gen.random(n)
    nz = np.flatnonzero(u >= cdf[0])
    u = u[nz]  # the batch-sized uniforms are freed before the search
    return nz, _table_search(cdf)(u)


def _table_draws(gen: np.random.Generator, cdf: np.ndarray, n: int) -> np.ndarray:
    """n draws of the CDF table over k = 0, 1, ...: :func:`_inverse_draws`
    where P(0) is at least ``_ZERO_SPLIT_MIN``; below it the split costs
    more than it saves, and searching every u gives the same draws."""
    if cdf[0] < _ZERO_SPLIT_MIN:
        return _table_search(cdf)(gen.random(n))
    nz, values = _inverse_draws(gen, cdf, n)
    out = np.zeros(n, dtype=np.int64)
    out[nz] = values
    return out


def _table_len(log_tail) -> int | None:
    """The smallest table length K <= ``GDS_TABLE_MAX`` whose left-out mass,
    bounded by exp(log_tail(K)), is below 1e-17, or None if there is none.
    log_tail must not increase with K; the search costs O(log K) calls."""
    if not log_tail(GDS_TABLE_MAX) < _LOG_TABLE_TAIL:
        return None
    lo, hi = 0, GDS_TABLE_MAX
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if log_tail(mid) < _LOG_TABLE_TAIL:
            hi = mid
        else:
            lo = mid
    return hi


def _nb_log_tail(k: float, pi: float, delta: float) -> float:
    """Log of the Chernoff bound on P(X >= k) for X ~ NB(pi, delta), k >= 1;
    0 (the trivial bound) while k is at most the mean delta pi/(1-pi), and
    -inf at pi = 0, a point mass at 0."""
    if pi == 0.0:
        return -math.inf
    if k * (1.0 - pi) <= delta * pi:
        return 0.0
    return (delta * math.log1p(-pi) + k * math.log(pi)
            + delta * math.log1p(k / delta) + k * math.log1p(delta / k))


def _poisson_log_tail(k: float, lam: float) -> float:
    """Log of the Chernoff bound on P(X >= k) for X ~ Poisson(lam); 0 while
    k <= lam."""
    return k - lam + k * (math.log(lam) - math.log(k)) if k > lam else 0.0


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


def _jump_cdf(a: float, c: float) -> np.ndarray | None:
    """CDF table over j = 1, 2, ... of the non-zero jumps of routes c and d,
    c < 1, or None where it would pass ``GDS_TABLE_MAX`` entries.

    The jumps are NB(c, -a) (a < 0) or GDS-Sibuya(a, c) (a > 0) given
    X > 0; both put mass r_j / |h| on j >= 1, with r_j = |binom(a, j)| c^j
    and |h| = |(1-c)^a - 1| = sum of r_j.  The table is built from r_j
    itself and normalised by its own sum, so no P(0) is ever subtracted.
    It is sized before any work: for a > 0, r_j / |h| <= c^(j-1) leaves a
    tail of at most c^K / (1-c) beyond K entries; for a < 0 the tail is the
    Chernoff bound of NB(c, -a) at K + 1 over P(X > 0).
    """
    if a > 0:
        log_c, log_1mc = math.log(c), math.log1p(-c)
        size = _table_len(lambda k: k * log_c - log_1mc)
    else:
        log_nz = math.log(-math.expm1(-a * math.log1p(-c)))  # P(X > 0)
        size = _table_len(lambda k: _nb_log_tail(k + 1, c, -a) - log_nz)
    if size is None:
        return None
    cdf = np.cumsum(_abs_binom_sequence(a, size, damp=c)[1:])
    cdf /= cdf[-1]
    return cdf


def _jump_sampler(a: float, c: float, max_tries: int):
    """A function ``draw(gen, m)`` giving m non-zero jumps of routes c and d
    and of the GDS-Sibuya law: :func:`_jump_cdf` inverted, or None where
    a < 0 and that table would be too long.  Past it, a > 0 thins Sibuya
    draws (cheaper than so long a table), after raising
    :class:`RejectionBudgetExceeded` if 1 / (1 - (1-c)^a) expected tries
    per draw exceed ``max_tries``.  At c = 1 the jumps are Sibuya(a) draws.
    """
    if c == 1.0:
        return lambda gen, m: _capped(_sibuya_float(gen, a, m))
    cdf = _jump_cdf(a, c)
    if cdf is not None:
        search = _table_search(cdf)

        def draw(gen: np.random.Generator, m: int) -> np.ndarray:
            j = search(gen.random(m))
            j += 1
            return j

        return draw
    if a < 0:
        return None
    accept = -math.expm1(a * math.log1p(-c))
    if accept * max_tries < 1.0:
        raise RejectionBudgetExceeded(
            f"GDS-Sibuya thinning expects {1.0 / accept:.4g} tries per draw, "
            f"above max_tries = {max_tries} (acceptance rate 1 - (1-tau)^gamma too small)"
        )
    return lambda gen, m: _thin_sibuya(gen, a, c, m)


def _sample_gds(gen, p: GdsSibuyaParams, n: int, route=None,
                max_tries=DEFAULT_MAX_TRIES) -> np.ndarray:
    """GDS-Sibuya(gamma, tau): 0 with probability (1-tau)^gamma, else a
    non-zero jump of route d, from :func:`_jump_sampler`."""
    if _log_jump_mass(p.gamma, p.tau) == -math.inf:
        return np.zeros(n, dtype=np.int64)
    draw = _jump_sampler(p.gamma, p.tau, max_tries)
    if p.tau == 1.0:
        return draw(gen, n)
    out = np.zeros(n, dtype=np.int64)
    nz = np.flatnonzero(gen.random(n) >= math.exp(p.gamma * math.log1p(-p.tau)))
    out[nz] = draw(gen, nz.size)
    return out


def _count_cdf(mean: float, d: float) -> np.ndarray | None:
    """CDF table over k = 0, 1, ... of the Poisson(mean) (d = 0) or
    NB(q/(1+q), 1/d) (d > 0, q = d mean) count, the (a, b, 0) primaries of
    Panjer's recursion, or None where no table is drawn from.

    The table follows P(k)/P(k-1) = A + B/k from P(0) = 1 and is normalised
    by its own sum.  It is used while its length, sized before any work by
    the Chernoff bound of the count's tail, is at most ``GDS_TABLE_MAX``
    and its P(0) is a normal double, so that the running product cannot
    overflow.
    """
    if not mean > 0.0:
        return None
    if d == 0:
        log_p0, A, B = -mean, 0.0, mean
        size = _table_len(lambda k: _poisson_log_tail(k + 1, mean))
    else:
        q, delta = d * mean, 1.0 / d
        pi = q / (1.0 + q)
        log_p0, A, B = -delta * math.log1p(q), pi, pi * (delta - 1.0)
        size = _table_len(lambda k: _nb_log_tail(k + 1, pi, delta))
    if size is None or log_p0 < _LOG_TINY:
        return None
    cdf = np.empty(size + 1)
    cdf[0] = 1.0
    cdf[1:] = A + B / np.arange(1.0, size + 1)
    np.cumprod(cdf, out=cdf)
    np.cumsum(cdf, out=cdf)
    cdf /= cdf[-1]
    return cdf


def _nonzero_counts(gen: np.random.Generator, log_mean: float, d: float,
                    n: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices and values of the non-zero draws among n counts of mean
    exp(log_mean), Poisson at d = 0 and NB(q/(1+q), 1/d) with q = d mean
    at d > 0: :func:`_count_cdf` inverted where it has a table, numpy's
    generators behind the cap otherwise."""
    with np.errstate(over="ignore"):
        mean = float(np.exp(log_mean))
    cdf = _count_cdf(mean, d)
    if cdf is None:
        if d == 0:
            counts = _poisson_mix(gen, mean, n)
        else:
            q = d * mean
            counts = _nb_vec(gen, q / (1.0 + q), 1.0 / d, n)
        nz = np.flatnonzero(counts)
        return nz, counts[nz]
    return _inverse_draws(gen, cdf, n)


def _compound(gen: np.random.Generator, counts: np.ndarray, draw) -> np.ndarray:
    """Sums of counts[i] jumps ``draw(gen, m)`` for each i.

    The jumps are drawn in order, at most ``JUMP_BLOCK`` at a time from the
    one generator, so memory stays bounded whatever the total; each block
    adds its running sums at the count ends it covers.
    """
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


def _family_log_pgf(a: float, c: float, beta: float, power, log_w, arg_w) -> tuple:
    """log |G| and arg G of G(s) = outer(beta ((1-cs)^a - (1-c)^a)), outer
    x^power of 1 + x, or exp at ``power`` None, from log |w| and arg w of
    w = 1 - cs.  In polar form a real s (arg w = 0) and the unit circle
    share one evaluation in real arithmetic.  log |1 + x| is formed from x,
    as log1p(x_re (2 + x_re) + x_im^2) / 2, so a small x keeps its digits
    however large |power| is.  At a real s, G is finite and positive only
    where log |G| is finite and arg G is 0: 1 + x <= 0 gives an infinite
    modulus or an argument of power pi."""
    mod = np.exp(a * log_w)
    re = beta * (mod * np.cos(a * arg_w) - np.exp(a * np.log1p(-c)))
    im = beta * mod * np.sin(a * arg_w)
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

    It is sized before any work by :func:`_table_len`: the tail beyond K
    entries is at most the Chernoff bound G(s) / s^(K+1), taken at the best
    s = c^-f of ``_CHERNOFF_F`` where G is finite.  The table is then one
    inverse FFT of G at the M-th roots of unity, M the first power of two
    above K (Abate & Whitt 1992, *Oper. Res. Lett.* 12(5)), so the aliased
    mass is that bounded tail.  Negative round-off is clipped to 0 and the
    table is normalised by its own sum.  A subnormal beta, or an infinite
    power, is refused: |power| would multiply the digits beta has lost.
    """
    if not 0.0 < c < 1.0:
        return None
    if power is not None and not (abs(beta) >= sys.float_info.min and math.isfinite(power)):
        return None
    log_c = math.log(c)
    with np.errstate(all="ignore"):
        log_g, arg_g = _family_log_pgf(
            a, c, beta, power, np.log(-np.expm1(log_c * (1.0 - _CHERNOFF_F))), 0.0)
    finite = np.isfinite(log_g) & (arg_g == 0.0)
    if not finite.any():
        return None
    log_g, log_s = log_g[finite], -log_c * _CHERNOFF_F[finite]
    size = _table_len(lambda k: float(np.min(log_g - (k + 1) * log_s)))
    if size is None or size > max_len:
        return None
    m = 1 << size.bit_length()
    g = np.empty(m // 2 + 1, complex)
    for lo in range(0, len(g), _PGF_BLOCK):
        phi = np.arange(lo, min(lo + _PGF_BLOCK, len(g))) * (2.0 * math.pi / m)
        re_w = 2.0 * c * np.sin(0.5 * phi) ** 2 + (1.0 - c)  # 1 - c cos(phi), no cancellation
        im_w = c * np.sin(phi)
        with np.errstate(all="ignore"):
            log_g, arg_g = _family_log_pgf(a, c, beta, power,
                                           0.5 * np.log(re_w * re_w + im_w * im_w),
                                           np.arctan2(im_w, re_w))
            g[lo:lo + len(phi)] = np.exp(log_g + 1j * arg_g)
    pmf = np.fft.irfft(g, m)[: size + 1]
    cdf = np.cumsum(np.maximum(pmf, 0.0, out=pmf))  # a copy: the FFT's M entries are freed
    if not 0.0 < cdf[-1] < math.inf:
        return None
    cdf /= cdf[-1]
    return cdf


# ---------------------------------------------------------------------------
# positive stable and its tempering


def _kanter_vec(gen: np.random.Generator, gamma: float, lam, n: int) -> np.ndarray:
    """PS(gamma, lam) draws via Kanter's representation, gamma in (0, 1).

    X = lam^(1/gamma) * (A(U)/E)^((1-gamma)/gamma) with
    A(u) = [sin(gamma pi u)^gamma sin((1-gamma) pi u)^(1-gamma)
            / sin(pi u)]^(1/(1-gamma)),
    evaluated in log space; u is kept inside (0, pi] so the sines never
    vanish exactly.  lam may be an array for mixture draws.  A draw beyond
    double precision comes back as inf, or as nan (0 * inf) where
    lam^(1/gamma) underflows; the callers decide what that means.
    """
    u = (1.0 - gen.random(n)) * np.pi
    e = gen.standard_exponential(n)
    bracket = (
        gamma * np.log(np.sin(gamma * u))
        + (1.0 - gamma) * np.log(np.sin((1.0 - gamma) * u))
        - np.log(np.sin(u))
    )
    with np.errstate(over="ignore", invalid="ignore"):
        x = np.exp(bracket / gamma - (1.0 - gamma) / gamma * np.log(e))
        return np.asarray(lam) ** (1.0 / gamma) * x


def _overflowed(gamma: float) -> HeavyTailOverflow:
    return HeavyTailOverflow(
        f"positive stable draw overflowed double precision (gamma = {gamma:g})"
    )


def _ps_vec(gen: np.random.Generator, gamma: float, lam, n: int) -> np.ndarray:
    """PS(gamma, lam) draws; a draw beyond double precision raises
    :class:`HeavyTailOverflow`."""
    if gamma == 1.0:
        # Laplace transform exp(-lam t): point mass at lam
        return np.broadcast_to(np.asarray(lam, dtype=float), (n,)).copy()
    x = _kanter_vec(gen, gamma, lam, n)
    if not np.isfinite(x).all():
        raise _overflowed(gamma)
    return x


def _poisson_gamma(gen: np.random.Generator, gamma: float, log_t: np.ndarray,
                   theta: float) -> np.ndarray:
    """Gamma(-gamma N, 1/theta) draws (shape, scale) with N ~ Poisson(exp(log_t)),
    for gamma < 0: the tempered positive stable law as a compound Poisson
    of Gammas.  log_t is overwritten; an intensity past the Poisson cap
    raises, and log_t = -inf gives 0."""
    with np.errstate(over="ignore"):
        counts = _poisson_mix(gen, np.exp(log_t, out=log_t))
    return gen.gamma(shape=-gamma * counts, scale=1.0 / theta)


def _tps_vec(
    gen: np.random.Generator,
    gamma: float,
    lam,
    theta: float,
    n: int,
    max_tries: int = DEFAULT_MAX_TRIES,
) -> np.ndarray:
    """Tempered positive stable draws; lam may be an array (mixture scale)."""
    lam = np.broadcast_to(np.asarray(lam, dtype=float), (n,))
    if gamma == 0.0:
        return np.zeros(n)
    if gamma < 0.0:
        # the intensity lam theta^gamma as a sum of logs: a zero scale gives
        # log 0 = -inf and so a zero draw, whatever theta^gamma is
        with np.errstate(divide="ignore"):
            log_t = np.log(lam)
        log_t += gamma * math.log(theta)
        return _poisson_gamma(gen, gamma, log_t, theta)
    if theta == 0.0 or gamma == 1.0:
        return _ps_vec(gen, gamma, lam, n)
    out = np.empty(n)
    active = np.flatnonzero(lam > 0)
    out[lam == 0] = 0.0
    # the draw with the largest lam expects exp(lam theta^gamma) tries
    log_tries = float(lam.max(initial=0.0)) * theta**gamma
    if log_tries > math.log(max_tries):
        raise RejectionBudgetExceeded(
            f"tempering rejection expects exp({log_tries:.4g}) tries for its worst draw, "
            f"above max_tries = {max_tries} (acceptance rate exp(-lam theta^gamma) too small)"
        )
    tries = 0
    while active.size:
        tries += 1
        if tries > max_tries:
            raise RejectionBudgetExceeded(
                f"tempering rejection exceeded {max_tries} tries per draw "
                f"(acceptance rate exp(-lam theta^gamma) too small)"
            )
        x = _kanter_vec(gen, gamma, lam[active], active.size)
        if np.isnan(x).any():
            raise _overflowed(gamma)
        # an inf proposal is accepted with probability exp(-theta inf) = 0
        accept = (gen.random(active.size) <= np.exp(-theta * x)) & (x < np.inf)
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


def _compound_jumps(gen: np.random.Generator, p: TdlParams | TdsParams, n: int,
                    max_tries: int) -> np.ndarray:
    """Routes c and d: sums of the non-zero jumps of each draw.

    Of a Poisson(b) (d = 0) or NB(q/(1+q), 1/d) (d > 0, q = b d) number of
    GDS-Sibuya(a, c) jumps (a > 0), or of Poisson(b (1-c)^a) or NB with
    q = b d (1-c)^a NB(c, -a) jumps (a < 0), the non-zero ones are a count
    of the same family with mean b |h|, |h| = |(1-c)^a - 1|: the count is
    thinned.  Both counts and jumps come from :func:`_nonzero_counts` and
    :func:`_jump_sampler`.  For a < 0, above ``NEG_JUMPS_MAX`` non-zero
    jumps per draw, or where the jump table would be too long, the closed
    form NB(c, -a N) of the unthinned count N is cheaper.
    """
    log_b = math.log(p.b)
    log_jumps = log_b + _log_jump_mass(p.a, p.c)
    if log_jumps == -math.inf:
        return np.zeros(n, dtype=np.int64)
    draw = None
    if p.a > 0 or log_jumps <= math.log(NEG_JUMPS_MAX):
        draw = _jump_sampler(p.a, p.c, max_tries)
    if draw is None:
        nz, counts = _nonzero_counts(gen, log_b + p.a * math.log1p(-p.c), p.d, n)
        shapes = -p.a * counts
        del counts  # freed before the NB draw, like the uniforms of the counts
        values = _nb_vec(gen, p.c, shapes)
    else:
        nz, counts = _nonzero_counts(gen, log_jumps, p.d, n)
        values = _compound(gen, counts, draw)
    out = np.zeros(n, dtype=np.int64)
    out[nz] = values
    return out


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
    or for a < 0 at most 1 + ``_CLOSED_FORM_JUMPS`` (route c's closed form
    caps it)."""
    with np.errstate(over="ignore"):
        jumps = float(np.exp(math.log(p.b) + _log_jump_mass(p.a, p.c)))
    if p.a < 0:
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
        return _compound_jumps(gen, p, n, max_tries)
    # routes a and b: Poisson(TPS(a, B c^a, 1/c - 1)) with B = b at d = 0
    # and B ~ Gamma(b d, 1/d) otherwise, formed in logs: B c^a, or for a < 0
    # the tempering intensity B c^a theta^a = B (1-c)^a, may pass double
    # precision in a factor although the product does not
    if p.d == 0:
        log_lam = np.full(n, math.log(p.b))
    else:
        log_lam = gen.gamma(shape=1.0 / p.d, size=n)
        with np.errstate(divide="ignore"):
            np.log(log_lam, out=log_lam)
        log_lam += math.log(p.b) + math.log(p.d)
    theta = 1.0 / p.c - 1.0
    if p.a < 0:
        log_lam += p.a * math.log1p(-p.c)
        return _poisson_mix(gen, _poisson_gamma(gen, p.a, log_lam, theta))
    if theta == math.inf:
        # a subnormal c, where 1/c overflows: TPS(a, lam, theta) is
        # TPS(a, lam theta^a, 1) / theta, with lam theta^a = B (1-c)^a
        log_lam += p.a * math.log1p(-p.c)
        with np.errstate(over="ignore"):
            lam = np.exp(log_lam, out=log_lam)
        x = _tps_vec(gen, p.a, lam, 1.0, n, max_tries)
        return _poisson_mix(gen, x * (p.c / (1.0 - p.c)))
    log_lam += p.a * math.log(p.c)
    with np.errstate(over="ignore"):
        lam = np.exp(log_lam, out=log_lam)
    return _poisson_mix(gen, _tps_vec(gen, p.a, lam, theta, n, max_tries))


# ---------------------------------------------------------------------------
# the remaining per-law samplers


def _linnik_scales(gen: np.random.Generator, p, n: int) -> np.ndarray:
    """Gamma(delta, lam/delta) mixing scales of the (tempered) Linnik laws."""
    return gen.gamma(shape=p.delta, scale=p.lam / p.delta, size=n)


def _sample_ps(gen, p: StableParams, n, route, max_tries):
    return _ps_vec(gen, p.gamma, p.lam, n)


def _sample_tps(gen, p: TemperedStableParams, n, route, max_tries):
    return _tps_vec(gen, p.gamma, p.lam, p.theta, n, max_tries)


def _sample_pl(gen, p: LinnikParams, n, route, max_tries):
    return _ps_vec(gen, p.gamma, _linnik_scales(gen, p, n), n)


def _sample_tpl(gen, p: TemperedLinnikParams, n, route, max_tries):
    return _tps_vec(gen, p.gamma, _linnik_scales(gen, p, n), p.theta, n, max_tries)


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
