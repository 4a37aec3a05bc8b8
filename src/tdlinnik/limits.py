"""Defaults, caps and route names that the CLI reads to build its options.

They live apart from :mod:`analytic`, :mod:`oracle` and :mod:`sampler`,
which re-export them, so that building the options imports no numpy.
"""

#: default table size for PMF evaluation (CLI exposes an override)
DEFAULT_KMAX = 60

#: hard cap on the series truncation order
MAX_SERIES_ORDER = 200

#: tries per draw allowed to the rejection samplers: the rounds of the
#: tempering step, and the expected tries of GDS-Sibuya thinning
DEFAULT_MAX_TRIES = 10**6

TDL_ROUTES = ("auto", "a", "b", "c", "d")
