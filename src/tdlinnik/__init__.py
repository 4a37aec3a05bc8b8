"""Tempered discrete Linnik distribution and its ancestral family.

Exact PMF evaluation, generating functions and Laplace transforms, moment
formulas, and seeded random variate generation for the integer-valued laws
connected to stable subordination: positive/discrete stable, Tweedie
(tempered positive stable), Poisson-Tweedie (tempered discrete stable),
discrete/positive Linnik and their tempered versions, plus the Sibuya,
geometric down-weighting Sibuya, negative binomial, Poisson, and Gamma
building blocks.  A power-series oracle and chi-square goodness-of-fit
harness cross-verify every production path.

Every public name below is exported lazily (PEP 562): it is imported
from its defining module when first used, so ``import tdlinnik`` loads no
numpy until a name that needs it is looked up.
"""

import importlib

#: the public names, by the module that defines them
_EXPORTS = {
    "analytic": ("PmfTable", "build_pmf_table", "general_pmf_coefficient_form", "tdl_pgf",
                 "tdl_pmf", "tds_pgf", "tds_pmf"),
    "coeffs": ("CoeffTable", "build_table", "coeff_c", "coeff_half", "coeff_half_step",
               "coeff_neg1", "coeff_neg1_step", "gen_binom"),
    "errors": ("DegenerateDistribution", "DomainError", "EmptyGrid", "HeavyTailOverflow",
               "IncompatibleRoute", "InsufficientSample", "NumericalInstability",
               "RejectionBudgetExceeded", "SingularComposition", "TailTooHeavy", "TdlError",
               "UnknownLaw"),
    "laws": ("family_laplace", "family_pgf", "reduce_special_case", "sample_batch",
             "series_pmf"),
    "moments": ("MomentSummary", "moments_from_pmf", "skew_kurt_trace", "tdl_moments"),
    "oracle": ("GofReport", "chi_square_gof", "empirical_laplace", "empirical_pgf",
               "series_binomial_power", "series_compose_outer"),
    "params": ("GammaParams", "GdsSibuyaParams", "LinnikParams", "NegativeBinomialParams",
               "PoissonParams", "SibuyaParams", "StableParams", "TdlParams", "TdsParams",
               "TemperedLinnikParams", "TemperedStableParams", "validate_tdl"),
    "sampler": ("RngStream", "SampleBatch"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"
__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value
