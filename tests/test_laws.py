"""The law registry: every tag builds from the CLI and is wired consistently."""

import pytest
from click.testing import CliRunner

from tdlinnik import (
    DomainError,
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
    family_laplace,
    family_pgf,
    sample_batch,
    series_pmf,
)
from tdlinnik.cli import main
from tdlinnik.laws import LAWS

#: per law, the CLI flags and the params record they must build; distinct
#: values per field, so a flag wired to the wrong field changes the law
CASES = {
    "tdl": ("-a 0.5 -b 1 -c 0.3 -d 2", TdlParams(0.5, 1.0, 0.3, 2.0)),
    "tds": ("-a -1 -b 2 -c 0.3", TdsParams(-1.0, 2.0, 0.3)),
    "dl": ("--gamma 0.5 --lambda 1.5 --delta 2", LinnikParams(0.5, 1.5, 2.0)),
    "ds": ("--gamma 0.7 --lambda 2", StableParams(0.7, 2.0)),
    "ps": ("--gamma 0.5 --lambda 2", StableParams(0.5, 2.0)),
    "tps": ("--gamma 0.5 --lambda 1 --theta 2", TemperedStableParams(0.5, 1.0, 2.0)),
    "pl": ("--gamma 0.6 --lambda 1 --delta 3", LinnikParams(0.6, 1.0, 3.0)),
    "tpl": (
        "--gamma -0.5 --lambda 1 --theta 2 --delta 3",
        TemperedLinnikParams(-0.5, 1.0, 2.0, 3.0),
    ),
    "nb": ("--pi 0.4 --delta 3", NegativeBinomialParams(0.4, 3.0)),
    "sibuya": ("--gamma 0.6", SibuyaParams(0.6)),
    "gds": ("--gamma 0.5 --tau 0.7", GdsSibuyaParams(0.5, 0.7)),
    "poisson": ("--lambda 3", PoissonParams(3.0)),
    "gamma": ("--lambda 2 --delta 3", GammaParams(scale=2.0, shape=3.0)),
}

COUNT_LAWS = [tag for tag, law in LAWS.items() if law.is_count]


def test_family_has_thirteen_laws_eight_of_them_count_laws():
    assert set(LAWS) == set(CASES)
    assert COUNT_LAWS == ["tdl", "tds", "dl", "ds", "nb", "sibuya", "gds", "poisson"]


def test_tds_is_sampled_as_the_d_zero_member_of_tdl():
    assert LAWS["tds"].sample is LAWS["tdl"].sample


@pytest.mark.parametrize("tag", list(LAWS))
def test_cli_sample_builds_every_law_from_its_flags(tag):
    flags, params = CASES[tag]
    res = CliRunner().invoke(
        main, ["sample", "--law", tag, *flags.split(), "--seed", "1", "-n", "5"]
    )
    assert res.exit_code == 0, res.output
    want = sample_batch(tag, params, 5, 1).values
    assert [float(x) for x in res.output.split()] == [float(v) for v in want]


@pytest.mark.parametrize("tag", COUNT_LAWS)
def test_series_matches_registered_pgf(tag):
    params = CASES[tag][1]
    table = series_pmf(tag, params, 60)
    s = 0.5
    partial = sum(pk * s**k for k, pk in enumerate(table.p))
    # the terms beyond k = 60 add between 0 and tail_mass * s^61
    gap = family_pgf(tag, params, s) - partial
    assert -1e-10 <= gap <= table.tail_mass * s**61 + 1e-10


TDL = TdlParams(0.5, 1.0, 0.5, 1.0)
STABLE = StableParams(0.5, 1.0)


@pytest.mark.parametrize(
    "call, expected",
    [
        (lambda: sample_batch("nb", TDL, 5, 1), "NegativeBinomialParams"),
        (lambda: series_pmf("nb", TDL, 5), "NegativeBinomialParams"),
        (lambda: family_pgf("nb", TDL, 0.5), "NegativeBinomialParams"),
        (lambda: family_laplace("gamma", STABLE, 1.0), "GammaParams"),
        (lambda: sample_batch("gamma", STABLE, 5, 1), "GammaParams"),
    ],
    ids=["sample_batch", "series_pmf", "family_pgf", "family_laplace", "sample_batch-positive"],
)
def test_params_record_of_another_law_is_a_domain_error(call, expected):
    with pytest.raises(DomainError, match=expected):
        call()
