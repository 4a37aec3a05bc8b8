"""Defaults, caps, route names and law tags that the CLI reads to build its
options.

They live apart from the modules that use them, so that building the
options imports neither numpy nor the law registry.  :mod:`analytic`,
:mod:`oracle` and :mod:`sampler` re-export the defaults and caps;
``LAW_TAGS`` is the registry's key order, ``tuple(laws.LAWS)``.
"""

#: default table size for PMF evaluation (CLI exposes an override)
DEFAULT_KMAX = 60

#: hard cap on the series truncation order
MAX_SERIES_ORDER = 200

#: tries per draw allowed to the one rejection step, the tempering of
#: routes a and b and of tps and tpl (up front in expectation, then in rounds)
DEFAULT_MAX_TRIES = 10**6

TDL_ROUTES = ("auto", "a", "b", "c", "d")

#: the tags of :data:`laws.LAWS`, in registry order: the CLI's ``--law`` choices
LAW_TAGS = ("tdl", "tds", "dl", "ds", "ps", "tps", "pl", "tpl", "nb", "sibuya", "gds",
            "poisson", "gamma")
