"""Random variate generation for every law in the hierarchy.

All draws come from explicit :class:`RngStream` objects (PCG64 keyed by a
64-bit seed plus a stream id), so results are reproducible bit-for-bit
within one build.  Streams are single-owner mutable state: send them
between threads, never share one concurrently; parallel work should use
``stream.split(i)`` to derive independently seeded streams.  Each law's
batch sampler ``_sample_<tag>(gen, params, n, route, max_tries)`` is listed
in the registry of :mod:`laws`, whose ``sample_batch`` is the one sampling
front end; only the tdl sampler, which also serves tds, reads ``route``.

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
  otherwise:
    a     (any a)       Poisson(TPS(a, B c^a, 1/c - 1))
    b     (a < 0)       route a: for a < 0 its tempering step is the
                        Poisson-Gamma compound Poisson(Gamma(c/(1-c),
                        -a Poisson(B (1-c)^a))), so b names the same draws
    c     (a < 0)       a sum of Poisson(b (1-c)^a) (d = 0) or
                        NB(q/(1+q), 1/d) with q = b d (1-c)^a copies of NB(c, -a)
    d     (a in (0,1])  a sum of Poisson(b) (d = 0) or NB(b d/(1+b d), 1/d)
                        copies of GDS-Sibuya(a, c)
    auto  route d for a in (0, 1] and c < 1, route a otherwise.

Route auto, the default, has no tempering rejection: route a's tempering
step is a Poisson sum of Gammas for a < 0 and is skipped at c = 1
(theta = 0).  Only the explicit route a (and tps, tpl) temper by
rejection, for a > 0 and c < 1; the one other rejection step, GDS-Sibuya
thinning (below), knows its expected tries per draw before it starts.

Poisson, Gamma and negative binomial primitives are delegated
to numpy's Generator; their correctness is enforced by the goodness-of-fit
suite rather than by pinning a particular classical algorithm.  The Sibuya
law is drawn exactly in O(1) per variate through its beta-mixed geometric
representation: P(X > k | W) = W^k with W ~ Beta(1-gamma, gamma), so
X = ceil(log(U) / log(W)).  (Sequential inversion of the pmf recurrence
p_{k+1} = p_k (k-gamma)/(k+1), used for tabulation, has infinite expected
cost per draw because the law has no mean.)  Draws beyond the 1e9 support
cap raise :class:`HeavyTailOverflow`.  The GDS-Sibuya law with tau < 1 is
exact at every tau.  Its CDF table, built from the same damped jump
sequence |binom(gamma, k)| tau^k that the PMF tables use
(:func:`coeffs._abs_binom_sequence`), is sized before any work through
P(k) <= gamma tau^k and inverted while that size is at most
``GDS_TABLE_MAX`` entries.  Beyond it, thinning of Sibuya draws is
cheaper: 0 with probability (1-tau)^gamma, else a Sibuya X kept with
probability tau^X.  Compound draws take their jumps ``JUMP_BLOCK`` at a
time, so their memory does not grow with the number of jumps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coeffs import _abs_binom_sequence
from .errors import (
    DomainError,
    HeavyTailOverflow,
    IncompatibleRoute,
    RejectionBudgetExceeded,
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
)

#: tries per draw allowed to the rejection samplers: the rounds of the
#: tempering step, and the expected tries of GDS-Sibuya thinning
DEFAULT_MAX_TRIES = 10**6

#: support cap for heavy-tailed integer draws
SIBUYA_SUPPORT_CAP = 10**9

#: longest GDS-Sibuya inversion table; longer ones give way to thinning
GDS_TABLE_MAX = 1 << 17

#: jumps drawn at a time by the GDS-Sibuya compound samplers
JUMP_BLOCK = 1 << 20

#: numpy's Poisson generator rejects intensities above roughly 2^63 * 1e-1;
#: anything near that is a heavy-tail blowup we surface as a typed error
_POISSON_LAM_CAP = 9.0e18

TDL_ROUTES = ("auto", "a", "b", "c", "d")


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
    """Negative binomial NB(pi, delta) draws; numpy's p is the 1-pi convention."""
    return gen.negative_binomial(delta, 1.0 - np.asarray(pi), size=n)


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


def _gds_table_len(gamma: float, tau: float) -> int:
    """Pre-sized length of the GDS-Sibuya CDF table: the kmax where the tail
    bound gamma tau^k tau/(1-tau) (from P(k) <= gamma tau^k) falls below 1e-17."""
    return max(1, math.ceil(math.log(1e-17 * (1.0 - tau) / gamma) / math.log(tau)))


def _gds_pmf_cdf(gamma: float, tau: float) -> np.ndarray:
    """CDF table of the GDS-Sibuya law, cut where the tail is below 1e-17.

    P(0) = (1-tau)^gamma and P(k) = |binom(gamma, k)| tau^k for k >= 1.
    The jump sequence is sized once by :func:`_gds_table_len` and cut at
    the first k with P(k) tau/(1-tau) < 1e-17 (P(j+1) <= tau P(j), so this
    bounds the remaining tail; a subtractive running survival would stall
    on rounding noise).  tau = 1 must use the exact Sibuya sampler instead.
    """
    probs = _abs_binom_sequence(gamma, _gds_table_len(gamma, tau), damp=tau)
    probs[0] = math.exp(gamma * math.log1p(-tau))
    end = 1 + int(np.argmax(probs[1:] * tau / (1.0 - tau) < 1e-17))
    return np.cumsum(probs[: end + 1])


def _gds_sampler(gamma: float, tau: float, max_tries: int):
    """A function ``draw(gen, m)`` giving m GDS-Sibuya(gamma, tau) draws.

    tau = 1 is the Sibuya law.  Below it, a CDF table of pre-sized length
    at most ``GDS_TABLE_MAX`` is inverted.  Past that, building and
    searching the table costs more than thinning (for a batch of 1e5 the
    two cross between 1.5e5 and 4.7e5 entries), so the law is drawn
    exactly by thinning Sibuya(gamma) draws: 0 with probability (1-tau)^gamma,
    otherwise a Sibuya X accepted with probability tau^X, redrawn until
    accepted.  The acceptance rate E[tau^X] = 1 - (1-tau)^gamma is known,
    so an expected number of tries above ``max_tries`` raises
    :class:`RejectionBudgetExceeded` before any draw.  A rejected X beyond
    the Sibuya support cap is discarded; only an accepted one raises.
    """
    if tau == 1.0:
        return lambda gen, m: _capped(_sibuya_float(gen, gamma, m))
    if _gds_table_len(gamma, tau) <= GDS_TABLE_MAX:
        cdf = _gds_pmf_cdf(gamma, tau)
        return lambda gen, m: np.searchsorted(cdf, gen.random(m), side="right").astype(np.int64)
    log_p0 = gamma * math.log1p(-tau)
    accept = -math.expm1(log_p0)
    if accept * max_tries < 1.0:
        raise RejectionBudgetExceeded(
            f"GDS-Sibuya thinning expects {1.0 / accept:.4g} tries per draw, "
            f"above max_tries = {max_tries} (acceptance rate 1 - (1-tau)^gamma too small)"
        )
    p0, log_tau = math.exp(log_p0), math.log(tau)

    def draw(gen: np.random.Generator, m: int) -> np.ndarray:
        out = np.zeros(m, dtype=np.int64)
        active = np.flatnonzero(gen.random(m) >= p0)
        while active.size:
            x = _sibuya_float(gen, gamma, active.size)
            keep = np.log(1.0 - gen.random(active.size)) <= x * log_tau
            out[active[keep]] = _capped(x[keep])
            active = active[~keep]
        return out

    return draw


def _sample_gds(gen, p: GdsSibuyaParams, n: int, route=None,
                max_tries=DEFAULT_MAX_TRIES) -> np.ndarray:
    return _gds_sampler(p.gamma, p.tau, max_tries)(gen, n)


def _compound_gds(gen: np.random.Generator, counts: np.ndarray, a: float, c: float,
                  max_tries: int) -> np.ndarray:
    """Sums of counts[i] GDS-Sibuya(a, c) jumps for each i.

    The jumps are drawn in order, at most ``JUMP_BLOCK`` at a time from the
    one generator, so memory stays bounded whatever the total; each block
    adds its running sums at the count ends it covers.
    """
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    at_ends = np.zeros(len(counts), dtype=np.int64)  # sum of all jumps before each end
    if total:
        draw = _gds_sampler(a, c, max_tries)
        carry = 0
        for lo in range(0, total, JUMP_BLOCK):
            hi = min(lo + JUMP_BLOCK, total)
            csum = np.cumsum(draw(gen, hi - lo))
            csum += carry
            i0, i1 = np.searchsorted(ends, (lo, hi), side="right")
            at_ends[i0:i1] = csum[ends[i0:i1] - lo - 1]
            carry = int(csum[-1])
    return np.diff(at_ends, prepend=0)


# ---------------------------------------------------------------------------
# positive stable and its tempering


def _kanter_vec(gen: np.random.Generator, gamma: float, lam, n: int) -> np.ndarray:
    """PS(gamma, lam) draws via Kanter's representation, gamma in (0, 1).

    X = lam^(1/gamma) * (A(U)/E)^((1-gamma)/gamma) with
    A(u) = [sin(gamma pi u)^gamma sin((1-gamma) pi u)^(1-gamma)
            / sin(pi u)]^(1/(1-gamma)),
    evaluated in log space; u is kept inside (0, pi] so the sines never
    vanish exactly.  lam may be an array for mixture draws.
    """
    u = (1.0 - gen.random(n)) * np.pi
    e = gen.standard_exponential(n)
    bracket = (
        gamma * np.log(np.sin(gamma * u))
        + (1.0 - gamma) * np.log(np.sin((1.0 - gamma) * u))
        - np.log(np.sin(u))
    )
    x = np.exp(bracket / gamma - (1.0 - gamma) / gamma * np.log(e))
    return np.asarray(lam) ** (1.0 / gamma) * x


def _ps_vec(gen: np.random.Generator, gamma: float, lam, n: int) -> np.ndarray:
    if gamma == 1.0:
        # Laplace transform exp(-lam t): point mass at lam
        return np.broadcast_to(np.asarray(lam, dtype=float), (n,)).copy()
    return _kanter_vec(gen, gamma, lam, n)


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
        counts = gen.poisson(lam * theta**gamma)
        return gen.gamma(shape=-gamma * counts, scale=1.0 / theta)
    if theta == 0.0 or gamma == 1.0:
        return _ps_vec(gen, gamma, lam, n)
    out = np.empty(n)
    active = np.flatnonzero(lam > 0)
    out[lam == 0] = 0.0
    tries = 0
    while active.size:
        tries += 1
        if tries > max_tries:
            raise RejectionBudgetExceeded(
                f"tempering rejection exceeded {max_tries} tries per draw "
                f"(acceptance rate exp(-lam theta^gamma) too small)"
            )
        x = _kanter_vec(gen, gamma, lam[active], active.size)
        accept = gen.random(active.size) <= np.exp(-theta * x)
        out[active[accept]] = x[accept]
        active = active[~accept]
    return out


# ---------------------------------------------------------------------------
# the discrete hierarchy


def _poisson_mix(gen: np.random.Generator, t: np.ndarray) -> np.ndarray:
    """Poisson(t) draws for mixing intensities t, guarded against blowups."""
    if np.any(t > _POISSON_LAM_CAP):
        raise HeavyTailOverflow(
            "Poisson mixing intensity exceeded the generator cap "
            f"{_POISSON_LAM_CAP:g} (heavy-tailed mixture draw)"
        )
    return gen.poisson(t)


def _compound_jumps(gen: np.random.Generator, p: TdlParams | TdsParams, n: int,
                    max_tries: int) -> np.ndarray:
    """Routes c and d: sums of a Poisson (d = 0) or NB(q/(1+q), 1/d)
    (d > 0) number of jumps with mean b w, where q = b d w.  The jumps are
    NB(c, -a) with w = (1-c)^a for a < 0, and GDS-Sibuya(a, c) with w = 1
    for a > 0."""
    w = (1.0 - p.c) ** p.a if p.a < 0 else 1.0
    if p.d == 0:
        counts = _poisson_mix(gen, np.full(n, p.b * w))
    else:
        q = p.b * p.d * w
        counts = _nb_vec(gen, q / (1.0 + q), 1.0 / p.d, n)
    if p.a > 0:
        return _compound_gds(gen, counts, p.a, p.c, max_tries)
    out = np.zeros(n, dtype=np.int64)
    nz = counts > 0
    if np.any(nz):
        out[nz] = _nb_vec(gen, p.c, -p.a * counts[nz])
    return out


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
        route = "d" if p.a > 0 and p.c < 1 else "a"
    if route in ("c", "d"):
        return _compound_jumps(gen, p, n, max_tries)
    # routes a and b: Poisson(TPS(a, B c^a, 1/c - 1)) with B = b at d = 0
    # and B ~ Gamma(b d, 1/d) otherwise, c^a folded into the Gamma scale
    if p.d == 0:
        lam = p.b * p.c**p.a
    else:
        lam = gen.gamma(shape=1.0 / p.d, scale=p.b * p.d * p.c**p.a, size=n)
    return _poisson_mix(gen, _tps_vec(gen, p.a, lam, 1.0 / p.c - 1.0, n, max_tries))


# ---------------------------------------------------------------------------
# the remaining per-law samplers


def _linnik_scales(gen: np.random.Generator, p, n: int) -> np.ndarray:
    """Gamma(delta, lam/delta) mixing scales of the (tempered) Linnik laws."""
    return gen.gamma(shape=p.delta, scale=p.lam / p.delta, size=n)


def _sample_ds(gen, p: StableParams, n, route, max_tries):
    return _poisson_mix(gen, _ps_vec(gen, p.gamma, p.lam, n))


def _sample_dl(gen, p: LinnikParams, n, route, max_tries):
    return _poisson_mix(gen, _ps_vec(gen, p.gamma, _linnik_scales(gen, p, n), n))


def _sample_ps(gen, p: StableParams, n, route, max_tries):
    return _ps_vec(gen, p.gamma, p.lam, n)


def _sample_tps(gen, p: TemperedStableParams, n, route, max_tries):
    return _tps_vec(gen, p.gamma, p.lam, p.theta, n, max_tries)


def _sample_pl(gen, p: LinnikParams, n, route, max_tries):
    return _ps_vec(gen, p.gamma, _linnik_scales(gen, p, n), n)


def _sample_tpl(gen, p: TemperedLinnikParams, n, route, max_tries):
    return _tps_vec(gen, p.gamma, _linnik_scales(gen, p, n), p.theta, n, max_tries)


def _sample_nb(gen, p: NegativeBinomialParams, n, route, max_tries):
    return _nb_vec(gen, p.pi, p.delta, n)


def _sample_poisson(gen, p: PoissonParams, n, route, max_tries):
    return gen.poisson(p.lam, size=n)


def _sample_gamma(gen, p: GammaParams, n, route, max_tries):
    return gen.gamma(shape=p.shape, scale=p.scale, size=n)
