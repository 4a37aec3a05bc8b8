"""The law registry, one :class:`Law` record per tag, and its front ends.

Each law is wired here once; the functions its record points to live in
:mod:`analytic`, :mod:`oracle` and :mod:`sampler`, which never import this.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import analytic, oracle, sampler
from .errors import DomainError, UnknownLaw
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


@dataclass(frozen=True)
class Law:
    """A law's params class, the CLI flags that fill it in field order, and
    its functions.  ``transform(params, x)`` is the p.g.f. at s in [0, 1]
    of a count law, or the Laplace transform at t > 0 of a positive law;
    ``sample(gen, params, n, route, max_tries)`` draws n variates; the
    oracle's ``series(params, order)`` exists exactly for the count laws.
    """

    params: type
    flags: tuple
    transform: Callable
    sample: Callable
    series: Callable | None = None

    @property
    def is_count(self) -> bool:
        return self.series is not None


LAWS = {
    "tdl": Law(TdlParams, ("a", "b", "c", "d"), analytic.tdl_pgf,
               sampler._sample_tdl, oracle._tdl_series),
    "tds": Law(TdsParams, ("a", "b", "c"), analytic.tds_pgf,
               sampler._sample_tds, oracle._tds_series),
    "dl": Law(LinnikParams, ("gamma", "lambda", "delta"), analytic.dl_pgf,
              sampler._sample_dl, oracle._dl_series),
    "ds": Law(StableParams, ("gamma", "lambda"), analytic.ds_pgf,
              sampler._sample_ds, oracle._ds_series),
    "ps": Law(StableParams, ("gamma", "lambda"), analytic.ps_laplace, sampler._sample_ps),
    "tps": Law(TemperedStableParams, ("gamma", "lambda", "theta"), analytic.tps_laplace,
               sampler._sample_tps),
    "pl": Law(LinnikParams, ("gamma", "lambda", "delta"), analytic.pl_laplace,
              sampler._sample_pl),
    "tpl": Law(TemperedLinnikParams, ("gamma", "lambda", "theta", "delta"),
               analytic.tpl_laplace, sampler._sample_tpl),
    "nb": Law(NegativeBinomialParams, ("pi", "delta"), analytic.nb_pgf,
              sampler._sample_nb, oracle._nb_series),
    "sibuya": Law(SibuyaParams, ("gamma",), analytic.sibuya_pgf,
                  sampler._sample_sibuya, oracle._sibuya_series),
    "gds": Law(GdsSibuyaParams, ("gamma", "tau"), analytic.gds_pgf,
               sampler._sample_gds, oracle._gds_series),
    "poisson": Law(PoissonParams, ("lambda",), analytic.poisson_pgf,
                   sampler._sample_poisson, oracle._poisson_series),
    "gamma": Law(GammaParams, ("lambda", "delta"), analytic.gamma_laplace,
                 sampler._sample_gamma),
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
    """Evaluate the p.g.f. of a named integer law at s in [0, 1].

    A d == 0 TDL record is evaluated as its tds law.
    """
    transform = _lookup(law, params, "p.g.f.", count=True).transform
    if law == "tdl" and params.d == 0:
        return analytic.tds_pgf(params.tds(), s)
    return transform(params, s)


def family_laplace(law: str, params, t: float) -> float:
    """Evaluate the Laplace transform of a named positive law at real t > 0."""
    return _lookup(law, params, "Laplace transform", count=False).transform(params, t)


def series_pmf(law: str, params, order: int) -> analytic.PmfTable:
    """Ground-truth PMF of an integer law from its p.g.f. Taylor coefficients.

    Independent of the finite-sum coefficient formulas; computed in
    extended precision and rounded to double on return.  ``order`` is
    capped at 200.  A d == 0 TDL record gives the table of its tds law.
    """
    if not 0 <= order <= oracle.MAX_SERIES_ORDER:
        raise DomainError(f"order must lie in [0, {oracle.MAX_SERIES_ORDER}], got {order}")
    series = _lookup(law, params, "series expansion", count=True).series
    if law == "tdl" and params.d == 0:
        return series_pmf("tds", params.tds(), order)
    if law in ("tdl", "tds") and params.is_degenerate:
        raw = np.zeros(order + 1)
        raw[0] = 1.0
        return analytic._finalize_pmf(law, params, raw)
    return analytic._finalize_pmf(law, params, series(params, order).to_floats())


def sample_batch(
    law: str,
    params,
    n: int,
    seed: int,
    stream: int = 0,
    route: str = "auto",
    max_tries: int = sampler.DEFAULT_MAX_TRIES,
) -> sampler.SampleBatch:
    """Draw n variates of a named law from a fresh (seed, stream) stream.

    ``route`` picks the generation identity of tdl (one of
    ``sampler.TDL_ROUTES``) and of tds; other laws ignore it.  The default
    ``"auto"`` has no tempering rejection: for a > 0 and c < 1 it sums
    GDS-Sibuya(a, c) jumps over NB counts (tdl route d) or Poisson(b)
    counts (tds), and otherwise takes route a, whose tempering step is a
    Poisson sum of Gammas for a < 0 and needs no tempering at c = 1.  An
    explicit route "a" keeps the Poisson(TPS) identity, which rejects for
    a > 0 and c < 1 and raises :class:`RejectionBudgetExceeded` after
    ``max_tries`` rounds; ``max_tries`` also bounds the expected tries per
    draw of the GDS-Sibuya thinning sampler.
    """
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    r = sampler.RngStream(seed, stream)
    values = _lookup(law, params, "sampler").sample(r.generator, params, n, route, max_tries)
    return sampler.SampleBatch(law, params, n, values, seed, stream)
