"""The law registry: every tag builds from the CLI and is wired consistently."""

import pytest
from click.testing import CliRunner

from tdlinnik import (
    DomainError,
    GammaParams,
    GdsSibuyaParams,
    IncompatibleRoute,
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
from tdlinnik.limits import LAW_TAGS

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


def test_cli_law_choices_are_the_registry_tags_in_order():
    # the CLI builds its --law choices without importing the registry, and
    # the subcommand --help texts print them in this order
    assert LAW_TAGS == tuple(LAWS)
    for command in ("pmf", "sample", "moments"):
        (option,) = [p for p in main.commands[command].params if p.name == "law"]
        assert tuple(option.type.choices) == LAW_TAGS, command


MEMBER_LAWS = [tag for tag, law in LAWS.items() if law.member]


def test_tds_and_every_member_law_are_sampled_by_the_tdl_sampler():
    assert MEMBER_LAWS == ["dl", "ds"]
    for tag in ["tds", *MEMBER_LAWS]:
        assert LAWS[tag].sample is LAWS["tdl"].sample, tag


@pytest.mark.parametrize("tag", MEMBER_LAWS)
def test_member_law_draws_its_tdl_member_under_its_own_name(tag):
    params = CASES[tag][1]
    member = LAWS[tag].member(params)
    batch = sample_batch(tag, params, 2000, 3)
    want = sample_batch("tds" if isinstance(member, TdsParams) else "tdl", member, 2000, 3)
    assert batch.values.tobytes() == want.values.tobytes()
    assert (batch.law, batch.params) == (tag, params)


@pytest.mark.parametrize("tag", MEMBER_LAWS)
def test_member_law_takes_the_tdl_routes(tag):
    params = CASES[tag][1]
    auto = sample_batch(tag, params, 2000, 5).values
    assert sample_batch(tag, params, 2000, 5, route="a").values.tobytes() == auto.tobytes()
    for route in ("b", "c"):  # they need a < 0, and the member has a = gamma > 0
        with pytest.raises(IncompatibleRoute, match="requires a < 0"):
            sample_batch(tag, params, 5, 1, route=route)


def test_law_without_routes_takes_only_auto():
    with pytest.raises(IncompatibleRoute, match="has no generation routes"):
        sample_batch("nb", CASES["nb"][1], 5, 1, route="a")
    res = CliRunner().invoke(
        main, ["sample", "--law", "poisson", "--lambda", "3", "--route", "c", "--seed", "1"]
    )
    assert res.exit_code == 2
    assert "law 'poisson' has no generation routes, got route 'c'" in res.output


@pytest.mark.parametrize("tag", list(LAWS))
def test_cli_sample_builds_every_law_from_its_flags(tag):
    flags, params = CASES[tag]
    res = CliRunner().invoke(
        main, ["sample", "--law", tag, *flags.split(), "--seed", "1", "-n", "5"]
    )
    assert res.exit_code == 0, res.output
    want = sample_batch(tag, params, 5, 1).values
    assert [float(x) for x in res.output.split()] == [float(v) for v in want]


@pytest.mark.parametrize("tag", list(LAWS))
def test_max_tries_below_one_is_a_domain_error(tag):
    with pytest.raises(DomainError, match="max_tries must be >= 1"):
        sample_batch(tag, CASES[tag][1], 5, 1, max_tries=0)


#: corners of the registered family coordinates, checked against each
#: law's closed-form p.g.f.
SERIES_CORNERS = {
    "tdl-d0": ("tdl", TdlParams(0.5, 1.0, 0.3, 0.0)),
    "tdl-c1": ("tdl", TdlParams(0.5, 1.5, 1.0, 2.0)),
    "tds-c1": ("tds", TdsParams(0.75, 2.0, 1.0)),
    "tdl-a-neg": ("tdl", TdlParams(-1.5, 0.7, 0.6, 0.5)),
    "tdl-a1": ("tdl", TdlParams(1.0, 1.5, 0.4, 0.7)),  # inner series of degree 1
    "sibuya-gamma1": ("sibuya", SibuyaParams(1.0)),
    "gds-tau1": ("gds", GdsSibuyaParams(0.5, 1.0)),
    "gds-gamma1": ("gds", GdsSibuyaParams(1.0, 0.7)),
    "nb-pi0.999": ("nb", NegativeBinomialParams(0.999, 3.0)),
    "poisson-lambda50": ("poisson", PoissonParams(50.0)),
}


@pytest.mark.parametrize(
    "tag, params",
    [(tag, CASES[tag][1]) for tag in COUNT_LAWS] + list(SERIES_CORNERS.values()),
    ids=COUNT_LAWS + list(SERIES_CORNERS),
)
def test_series_matches_registered_pgf(tag, params):
    table = series_pmf(tag, params, 60)
    for s in (0.1, 0.5, 0.9):
        partial = sum(pk * s**k for k, pk in enumerate(table.p))
        # the terms beyond k = 60 add between 0 and tail_mass * s^61
        gap = family_pgf(tag, params, s) - partial
        assert -1e-10 <= gap <= table.tail_mass * s**61 + 1e-10, s


@pytest.mark.parametrize("tag, params", [
    ("sibuya", SibuyaParams(0.6)),
    ("sibuya", SibuyaParams(1.0)),
    ("gds", GdsSibuyaParams(0.5, 1.0)),
])
def test_sibuya_jumps_have_no_mass_at_zero(tag, params):
    assert series_pmf(tag, params, 60).p[0] == 0.0


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
