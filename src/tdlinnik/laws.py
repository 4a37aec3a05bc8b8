"""The law registry, one :class:`Law` record per tag, and its front ends.

Each law is wired here once; the functions its record names live in
:mod:`analytic` and :mod:`sampler`, which never import this.  The special
cases of the TDL family are named here too: ds and dl by the TDL record
each equals, and a TDL point by :func:`reduce_special_case`.  They are
looked up when a front end calls them, so loading the registry loads no
numpy.

Each count law records its coordinates (a, c, beta, power) in the p.g.f.
family outer(beta ((1-cs)^a - (1-c)^a)) once, and the oracle's one family
builder expands them.  A coordinate derived from parameters is a
:class:`Decimal` expression, evaluated inside the oracle's precision scope,
so it is rounded at the oracle's 40 digits, not to a double.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from typing import TYPE_CHECKING, Callable

from .errors import DomainError, IncompatibleRoute, UnknownLaw
from .limits import DEFAULT_MAX_TRIES, MAX_SERIES_ORDER
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

if TYPE_CHECKING:
    from .analytic import PmfTable
    from .sampler import SampleBatch


@dataclass(frozen=True)
class Law:
    """A law's params class, the CLI flags that fill it in field order, and
    the names of its functions in :mod:`analytic` and :mod:`sampler`.
    ``transform(params, x)`` is the p.g.f. at s in [0, 1] of a count law,
    or the Laplace transform at t > 0 of a positive law;
    ``sample(gen, params, n, route, max_tries)`` draws n variates.  Exactly
    the count laws have ``family(params) -> (a, c, beta, power)``, their
    coordinates in the p.g.f. family outer(beta ((1-cs)^a - (1-c)^a)), with
    outer x^power, or exp where ``power`` is None; the closed-form
    ``transform`` is the independent check on them.  A law that equals a
    member of the TDL family has ``member(params)``, the tdl or tds record
    of that member, and is sampled as it.
    """

    params: type
    flags: tuple
    transform_name: str
    sample_name: str
    family: Callable | None = None
    member: Callable | None = None

    @property
    def is_count(self) -> bool:
        return self.family is not None

    @property
    def transform(self) -> Callable:
        from . import analytic

        return getattr(analytic, self.transform_name)

    @property
    def sample(self) -> Callable:
        from . import sampler

        return getattr(sampler, self.sample_name)


def _tdl_family(p: TdlParams | TdsParams) -> tuple:
    """The family coordinates of a tdl record, or of its d = 0 member tds."""
    beta = sgn(p.a) * p.b
    if p.d == 0:
        return p.a, p.c, -beta, None
    return p.a, p.c, Decimal(beta) * Decimal(p.d), Decimal(-1) / Decimal(p.d)


LAWS = {
    "tdl": Law(TdlParams, ("a", "b", "c", "d"), "tdl_pgf", "_sample_tdl", _tdl_family),
    "tds": Law(TdsParams, ("a", "b", "c"), "tds_pgf", "_sample_tdl", _tdl_family),
    "dl": Law(LinnikParams, ("gamma", "lambda", "delta"), "dl_pgf", "_sample_tdl",
              lambda p: (p.gamma, 1, Decimal(p.lam) / Decimal(p.delta), -p.delta),
              lambda p: TdlParams(p.gamma, p.lam, 1.0, 1.0 / p.delta)),
    "ds": Law(StableParams, ("gamma", "lambda"), "ds_pgf", "_sample_tdl",
              lambda p: (p.gamma, 1, -p.lam, None), lambda p: TdsParams(p.gamma, p.lam, 1.0)),
    "ps": Law(StableParams, ("gamma", "lambda"), "ps_laplace", "_sample_ps"),
    "tps": Law(TemperedStableParams, ("gamma", "lambda", "theta"), "tps_laplace", "_sample_tps"),
    "pl": Law(LinnikParams, ("gamma", "lambda", "delta"), "pl_laplace", "_sample_pl"),
    "tpl": Law(TemperedLinnikParams, ("gamma", "lambda", "theta", "delta"), "tpl_laplace",
               "_sample_tpl"),
    "nb": Law(NegativeBinomialParams, ("pi", "delta"), "nb_pgf", "_sample_nb",
              lambda p: (1, p.pi, 1 / (1 - Decimal(p.pi)), -p.delta)),
    "sibuya": Law(SibuyaParams, ("gamma",), "sibuya_pgf", "_sample_sibuya",
                  lambda p: (p.gamma, 1, -1, 1)),
    "gds": Law(GdsSibuyaParams, ("gamma", "tau"), "gds_pgf", "_sample_gds",
               lambda p: (p.gamma, p.tau, -1, 1)),
    "poisson": Law(PoissonParams, ("lambda",), "poisson_pgf", "_sample_poisson",
                   lambda p: (1, 1, -p.lam, None)),
    "gamma": Law(GammaParams, ("lambda", "delta"), "gamma_laplace", "_sample_gamma"),
}


def _lookup(tag: str, params, what: str, count: bool | None = None) -> Law:
    """The record of ``tag``, if it has ``what``, checked against ``params``."""
    law = LAWS.get(tag)
    if law is None or count is not None and law.is_count != count:
        raise UnknownLaw(f"no {what} for law {tag!r}")
    if not isinstance(params, law.params):
        raise DomainError(
            f"law {tag!r} takes {law.params.__name__}, got {type(params).__name__}"
        )
    return law


def family_pgf(law: str, params, s: float) -> float:
    """Evaluate the p.g.f. of a named integer law at s in [0, 1]."""
    return _lookup(law, params, "p.g.f.", count=True).transform(params, s)


def family_laplace(law: str, params, t: float) -> float:
    """Evaluate the Laplace transform of a named positive law at real t > 0."""
    return _lookup(law, params, "Laplace transform", count=False).transform(params, t)


def series_pmf(law: str, params, order: int) -> PmfTable:
    """Ground-truth PMF of an integer law from its p.g.f. Taylor coefficients.

    Independent of the finite-sum coefficient formulas; computed in
    decimal arithmetic as a tuple of ``order + 1`` :class:`Decimal` Taylor
    coefficients, each rounded to a double on return.  The builder runs at
    ``oracle.ORACLE_DPS`` significant digits, set here once for the whole
    expansion, the law's family coordinates included, by
    :func:`oracle.precision_scope`.  ``order`` is capped at 200.  A d == 0
    TDL record gives the table of its tds law.
    """
    import numpy as np

    from . import analytic, oracle

    if not 0 <= order <= MAX_SERIES_ORDER:
        raise DomainError(f"order must lie in [0, {MAX_SERIES_ORDER}], got {order}")
    family = _lookup(law, params, "series expansion", count=True).family
    with oracle.precision_scope():
        coeffs = oracle._family_series(*family(params), order)
    return analytic._finalize_pmf(law, params, np.array([float(x) for x in coeffs]))


def sample_batch(
    law: str,
    params,
    n: int,
    seed: int,
    stream: int = 0,
    route: str = "auto",
    max_tries: int = DEFAULT_MAX_TRIES,
) -> SampleBatch:
    """Draw n variates of a named law from a fresh (seed, stream) stream.

    A law registered with a TDL ``member`` (ds, dl) is drawn as that tdl
    or tds record; the batch still names ``law`` and ``params``.
    ``route`` picks the generation identity of tdl and tds (one of
    ``sampler.TDL_ROUTES``; tds is the d = 0 member of tdl and reads the
    routes the same way), and so of the laws drawn as their members.
    Other laws have one identity and take only ``"auto"``; any other route
    raises :class:`IncompatibleRoute`.  The default ``"auto"`` has no
    tempering rejection: for c < 1 it inverts the law's own PMF table, one
    inverse FFT of its p.g.f., where that table costs no more to build than
    the compound route's draws; otherwise, for a < 0, it is route c, a sum
    of NB(c, -a) jumps over NB or Poisson counts, and for a > 0 route d,
    the same with GDS-Sibuya(a, c) jumps; at c = 1 it is route a, which
    needs no tempering there.  An explicit route "a" keeps the
    Poisson(TPS) identity, which rejects for a > 0 and c < 1 and raises
    :class:`RejectionBudgetExceeded` after ``max_tries`` rounds.
    ``max_tries`` bounds only that tempering rejection, of routes a and b
    and of tps and tpl; gds and routes c and d never reject.
    """
    from . import sampler

    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    if max_tries < 1:
        raise DomainError(f"max_tries must be >= 1, got {max_tries}")
    entry = _lookup(law, params, "sampler")
    if route != "auto" and entry.sample is not sampler._sample_tdl:
        raise IncompatibleRoute(f"law {law!r} has no generation routes, got route {route!r}")
    drawn = entry.member(params) if entry.member else params
    r = sampler.RngStream(seed, stream)
    values = entry.sample(r.generator, drawn, n, route, max_tries)
    return sampler.SampleBatch(law, params, n, values, seed, stream)


def reduce_special_case(p: TdlParams | TdsParams) -> tuple[str, object] | None:
    """The registered ``(tag, params)`` pair of the law a TDL point equals.

    Checked in order: d == 0 gives ``("tds", (a, b, c))``, a == 1 the
    negative binomial ``("nb", (bcd / (1 + bcd), 1/d))`` and c == 1 the
    discrete Linnik ``("dl", (a, b, 1/d))``.  An interior point gives None,
    and so does a point mass at zero (``p.is_degenerate``), which every
    front end serves as it is; it is checked first, so c == 0 never gives
    pi == 0.  Any front end takes the pair: ``series_pmf(*pair, order)``.
    """
    if p.is_degenerate:
        return None
    if p.d == 0:
        return "tds", TdsParams(p.a, p.b, p.c)
    if p.a == 1:
        bcd = p.b * p.c * p.d
        return "nb", NegativeBinomialParams(bcd / (1.0 + bcd), 1.0 / p.d)
    if p.c == 1:
        return "dl", LinnikParams(p.a, p.b, 1.0 / p.d)
    return None
