"""Tempered discrete Linnik distribution and its ancestral family.

Exact PMF evaluation, generating functions and Laplace transforms, moment
formulas, and seeded random variate generation for the integer-valued laws
connected to stable subordination: positive/discrete stable, Tweedie
(tempered positive stable), Poisson-Tweedie (tempered discrete stable),
discrete/positive Linnik and their tempered versions, plus the Sibuya,
geometric down-weighting Sibuya, negative binomial, Poisson, and Gamma
building blocks.  A power-series oracle and chi-square goodness-of-fit
harness cross-verify every production path.
"""

from .analytic import (
    PmfTable,
    build_pmf_table,
    general_pmf_coefficient_form,
    tdl_pgf,
    tdl_pmf,
    tds_pgf,
    tds_pmf,
)
from .coeffs import (
    CoeffTable,
    build_table,
    coeff_c,
    coeff_half,
    coeff_half_step,
    coeff_neg1,
    coeff_neg1_step,
    gen_binom,
)
from .errors import (
    DegenerateDistribution,
    DomainError,
    EmptyGrid,
    HeavyTailOverflow,
    IncompatibleRoute,
    InsufficientSample,
    NumericalInstability,
    RejectionBudgetExceeded,
    SingularComposition,
    TailTooHeavy,
    TdlError,
    UnknownLaw,
    UnsupportedOuterFunction,
)
from .laws import family_laplace, family_pgf, sample_batch, series_pmf
from .moments import MomentSummary, moments_from_pmf, skew_kurt_trace, tdl_moments
from .oracle import (
    GofReport,
    TruncatedSeries,
    chi_square_gof,
    empirical_laplace,
    empirical_pgf,
    series_binomial_power,
    series_compose_outer,
)
from .params import (
    AuxParams,
    DegenerateAtZero,
    DiscreteLinnikReduction,
    GammaParams,
    GdsSibuyaParams,
    LinnikParams,
    NegativeBinomialParams,
    NegativeBinomialReduction,
    PoissonParams,
    PoissonTweedieReduction,
    SibuyaParams,
    StableParams,
    TdlParams,
    TdsParams,
    TemperedLinnikParams,
    TemperedStableParams,
    reduce_special_case,
    validate_tdl,
)
from .sampler import RngStream, SampleBatch

__version__ = "0.1.0"
