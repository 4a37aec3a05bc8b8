"""Parameter records and domain validation for the distribution hierarchy.

All records are immutable values and validate themselves on construction,
so an instance in hand is always admissible.  The tempered discrete Linnik
(TDL) law is parameterized by

    a : tail exponent, a <= 1 (a <= 0 admissible thanks to tempering)
    b : scale, b > 0
    c : geometric tempering factor, 0 <= c <= 1 (c < 1 strictly when a <= 0)
    d : shape, d >= 0

``d == 0`` is represented explicitly as the Poisson-Tweedie branch (the
shape enters the generating function through 1/d, so zero is a separate
branch rather than a limit), and ``a == 0`` or ``c == 0`` make the law a
point mass at zero.  A :class:`TdsParams` record is that branch on its
own, and reads ``d`` as 0.0, so every TDL function takes it as well.
Negative ``d`` is rejected: its admissibility region is not
characterized, so that branch is out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from .errors import DomainError


def _check_finite(**values: float) -> None:
    for name, v in values.items():
        if not math.isfinite(v):
            raise DomainError(f"{name} must be a finite real, got {v!r}")


def sgn(x: float) -> float:
    """Sign with the sgn(0) = 0 convention used throughout the family."""
    if x == 0:
        return 0.0
    return math.copysign(1.0, x)


@dataclass(frozen=True, slots=True)
class TdlParams:
    """Tempered discrete Linnik parameters (a, b, c, d)."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self) -> None:
        _check_finite(a=self.a, b=self.b, c=self.c, d=self.d)
        if self.a > 1:
            raise DomainError(f"a must be <= 1, got {self.a}")
        if self.b <= 0:
            raise DomainError(f"b must be > 0, got {self.b}")
        if not 0.0 <= self.c <= 1.0:
            raise DomainError(f"c must lie in [0, 1], got {self.c}")
        if self.a <= 0 and self.c >= 1.0:
            raise DomainError("c must be < 1 when a <= 0")
        if self.d < 0:
            raise DomainError(
                f"d must be >= 0, got {self.d} (negative shape is out of scope)"
            )

    @property
    def is_poisson_tweedie(self) -> bool:
        """d == 0: the law is the Poisson-Tweedie (tempered discrete stable)."""
        return self.d == 0

    @property
    def is_degenerate(self) -> bool:
        """a == 0 or c == 0: point mass at zero."""
        return self.a == 0 or self.c == 0

    def tds(self) -> "TdsParams":
        """The (a, b, c) record of the d == 0 branch."""
        return TdsParams(self.a, self.b, self.c)


@dataclass(frozen=True, slots=True)
class TdsParams:
    """Tempered discrete stable (Poisson-Tweedie) parameters (a, b, c)."""

    a: float
    b: float
    c: float

    def __post_init__(self) -> None:
        _check_finite(a=self.a, b=self.b, c=self.c)
        if self.a > 1:
            raise DomainError(f"a must be <= 1, got {self.a}")
        if self.b <= 0:
            raise DomainError(f"b must be > 0, got {self.b}")
        if not 0.0 <= self.c <= 1.0:
            raise DomainError(f"c must lie in [0, 1], got {self.c}")
        if self.a <= 0 and self.c >= 1.0:
            raise DomainError("c must be < 1 when a <= 0")

    @property
    def d(self) -> float:
        """The TDL shape of this law: it is the d == 0 member of the family."""
        return 0.0

    @property
    def is_degenerate(self) -> bool:
        return self.a == 0 or self.c == 0


@dataclass(frozen=True, slots=True)
class StableParams:
    """Positive stable / discrete stable parameters (gamma, lam).

    gamma in (0, 1] is the tail index, lam > 0 the scale.
    """

    gamma: float
    lam: float

    def __post_init__(self) -> None:
        _check_finite(gamma=self.gamma, lam=self.lam)
        if not 0.0 < self.gamma <= 1.0:
            raise DomainError(f"gamma must lie in (0, 1], got {self.gamma}")
        if self.lam <= 0:
            raise DomainError(f"lam must be > 0, got {self.lam}")


@dataclass(frozen=True, slots=True)
class TemperedStableParams:
    """Tweedie / tempered positive stable parameters (gamma, lam, theta).

    gamma <= 1; theta >= 0 is the exponential tempering rate and must be
    strictly positive when gamma <= 0.
    """

    gamma: float
    lam: float
    theta: float

    def __post_init__(self) -> None:
        _check_finite(gamma=self.gamma, lam=self.lam, theta=self.theta)
        if self.gamma > 1:
            raise DomainError(f"gamma must be <= 1, got {self.gamma}")
        if self.lam <= 0:
            raise DomainError(f"lam must be > 0, got {self.lam}")
        if self.theta < 0:
            raise DomainError(f"theta must be >= 0, got {self.theta}")
        if self.gamma <= 0 and self.theta == 0:
            raise DomainError("theta must be > 0 when gamma <= 0")


@dataclass(frozen=True, slots=True)
class LinnikParams:
    """Discrete Linnik / positive Linnik parameters (gamma, lam, delta)."""

    gamma: float
    lam: float
    delta: float

    def __post_init__(self) -> None:
        _check_finite(gamma=self.gamma, lam=self.lam, delta=self.delta)
        if not 0.0 < self.gamma <= 1.0:
            raise DomainError(f"gamma must lie in (0, 1], got {self.gamma}")
        if self.lam <= 0:
            raise DomainError(f"lam must be > 0, got {self.lam}")
        if self.delta <= 0:
            raise DomainError(f"delta must be > 0, got {self.delta}")


@dataclass(frozen=True, slots=True)
class TemperedLinnikParams:
    """Tempered positive Linnik parameters (gamma, lam, theta, delta)."""

    gamma: float
    lam: float
    theta: float
    delta: float

    def __post_init__(self) -> None:
        _check_finite(
            gamma=self.gamma, lam=self.lam, theta=self.theta, delta=self.delta
        )
        if self.gamma > 1:
            raise DomainError(f"gamma must be <= 1, got {self.gamma}")
        if self.lam <= 0:
            raise DomainError(f"lam must be > 0, got {self.lam}")
        if self.theta < 0:
            raise DomainError(f"theta must be >= 0, got {self.theta}")
        if self.gamma <= 0 and self.theta == 0:
            raise DomainError("theta must be > 0 when gamma <= 0")
        if self.delta <= 0:
            raise DomainError(f"delta must be > 0, got {self.delta}")


@dataclass(frozen=True, slots=True)
class NegativeBinomialParams:
    """Negative binomial (pi, delta): success probability pi, shape delta."""

    pi: float
    delta: float

    def __post_init__(self) -> None:
        _check_finite(pi=self.pi, delta=self.delta)
        if not 0.0 < self.pi < 1.0:
            raise DomainError(f"pi must lie in (0, 1), got {self.pi}")
        if self.delta <= 0:
            raise DomainError(f"delta must be > 0, got {self.delta}")


@dataclass(frozen=True, slots=True)
class GammaParams:
    """Gamma law with Laplace transform (1 + scale*t)^(-shape)."""

    scale: float
    shape: float

    def __post_init__(self) -> None:
        _check_finite(scale=self.scale, shape=self.shape)
        if self.scale <= 0:
            raise DomainError(f"scale must be > 0, got {self.scale}")
        if self.shape <= 0:
            raise DomainError(f"shape must be > 0, got {self.shape}")


@dataclass(frozen=True, slots=True)
class PoissonParams:
    lam: float

    def __post_init__(self) -> None:
        _check_finite(lam=self.lam)
        if self.lam <= 0:
            raise DomainError(f"lam must be > 0, got {self.lam}")


@dataclass(frozen=True, slots=True)
class SibuyaParams:
    gamma: float

    def __post_init__(self) -> None:
        _check_finite(gamma=self.gamma)
        if not 0.0 < self.gamma <= 1.0:
            raise DomainError(f"gamma must lie in (0, 1], got {self.gamma}")


@dataclass(frozen=True, slots=True)
class GdsSibuyaParams:
    """Geometric down-weighting Sibuya (gamma, tau), both in (0, 1]."""

    gamma: float
    tau: float

    def __post_init__(self) -> None:
        _check_finite(gamma=self.gamma, tau=self.tau)
        if not 0.0 < self.gamma <= 1.0:
            raise DomainError(f"gamma must lie in (0, 1], got {self.gamma}")
        if not 0.0 < self.tau <= 1.0:
            raise DomainError(f"tau must lie in (0, 1], got {self.tau}")


AuxParams = Union[
    NegativeBinomialParams, GammaParams, PoissonParams, SibuyaParams, GdsSibuyaParams
]


def validate_tdl(a: float, b: float, c: float, d: float) -> TdlParams:
    """Validate (a, b, c, d) and return the parameter record.

    Raises :class:`DomainError` naming the violated constraint.  ``d == 0``
    is admitted and flagged as the Poisson-Tweedie branch; ``a == 0`` is
    flagged as the degenerate-at-zero branch.
    """
    return TdlParams(float(a), float(b), float(c), float(d))


# ---------------------------------------------------------------------------
# Special-case reductions


@dataclass(frozen=True, slots=True)
class DegenerateAtZero:
    """The law is a point mass at 0 (a == 0 or c == 0)."""


@dataclass(frozen=True, slots=True)
class NegativeBinomialReduction:
    """a == 1, d > 0: the law is NB(b*c*d / (1 + b*c*d), 1/d)."""

    params: NegativeBinomialParams


@dataclass(frozen=True, slots=True)
class DiscreteLinnikReduction:
    """c == 1, a in (0, 1]: the law is discrete Linnik (a, b, 1/d)."""

    params: LinnikParams


@dataclass(frozen=True, slots=True)
class PoissonTweedieReduction:
    """d == 0: the law is the Poisson-Tweedie / tempered discrete stable."""

    params: TdsParams


Reduction = Union[
    DegenerateAtZero,
    NegativeBinomialReduction,
    DiscreteLinnikReduction,
    PoissonTweedieReduction,
]


def reduce_special_case(p: TdlParams) -> Reduction | None:
    """Recognize the classical law a TDL parameter point collapses to.

    Returns ``None`` for a genuine interior point.  Total on valid params.
    The degenerate check precedes the a == 1 check so that c == 0 never
    produces a negative-binomial tag with pi == 0.
    """
    if p.is_degenerate:
        return DegenerateAtZero()
    if p.d == 0:
        return PoissonTweedieReduction(p.tds())
    if p.a == 1:
        bcd = p.b * p.c * p.d
        return NegativeBinomialReduction(
            NegativeBinomialParams(pi=bcd / (1.0 + bcd), delta=1.0 / p.d)
        )
    if p.c == 1:
        return DiscreteLinnikReduction(
            LinnikParams(gamma=p.a, lam=p.b, delta=1.0 / p.d)
        )
    return None
