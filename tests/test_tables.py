"""The family and case tables, and the parameter checks that read them."""

import json

import pytest
from click.testing import CliRunner

from ospdim.characters import (
    CASES,
    FAMILIES,
    IrrepSpec,
    cummins_king_check,
    d21_sdim_closed,
    d21_sdim_t,
    osp1_dim_t,
    osp1_numerator,
    ospB_sdim_t,
    ospD_sdim_t,
    so_even_dim_t,
    so_odd_dim_t,
    sp_dim_t,
    spinor_sdim,
    spinor_tdim,
    verify_correspondence,
)
from ospdim import selftest
from ospdim.cli import main
from ospdim.series import TruncatedSeries


def run(*args):
    return CliRunner().invoke(main, list(args))


def choices(command: str, option: str) -> list[str]:
    (param,) = [p for p in main.commands[command].params if p.name == option]
    return list(param.type.choices)


# the lower bound of every integer parameter, as the builders enforce them
BOUNDS = {
    "gl": {"n": 1},
    "glsuper": {"m": 0, "n": 0},
    "osp1": {"n": 1, "p": 0},
    "ospB": {"m": 0, "n": 0, "p": 0},
    "ospD": {"m": 0, "n": 0, "p": 0},
    "soOdd": {"k": 1, "p": 0},
    "soEven": {"k": 2, "p": 0},
    "sp": {"k": 1, "p": 0},
    "d21": {"p": 1},
    "spinor": {"m": 0, "n": 0},
}
EXTRAS = {"gl": {"lam": ()}, "glsuper": {"lam": ()}, "soEven": {"chirality": "last"}}


def lowest(family: str) -> dict:
    return {**BOUNDS[family], **EXTRAS.get(family, {})}


class TestIrrepSpecChecks:
    def test_negative_rank_rejected(self):
        with pytest.raises(ValueError, match="n >= 1"):
            IrrepSpec("gl", n=-3, lam=(1,))

    @pytest.mark.parametrize("family", list(BOUNDS))
    def test_every_lower_bound(self, family):
        IrrepSpec(family, **lowest(family))
        for name, low in BOUNDS[family].items():
            with pytest.raises(ValueError, match=f"{name} >= {low}"):
                IrrepSpec(family, **{**lowest(family), name: low - 1})

    @pytest.mark.parametrize("family", list(BOUNDS))
    def test_parameter_not_taken_rejected(self, family):
        unused = {"m": 1, "n": 1, "k": 2, "p": 1, "chirality": "last", "lam": (1,)}
        for name in lowest(family):
            del unused[name]
        assert unused
        for name, value in unused.items():
            with pytest.raises(ValueError, match=f"takes no parameter {name}"):
                IrrepSpec(family, **lowest(family), **{name: value})

    def test_lam_must_be_a_partition(self):
        for lam in [(1, 2), (-1,), (1.0,), 3]:
            with pytest.raises(ValueError, match="family 'gl' needs lam a partition"):
                IrrepSpec("gl", n=3, lam=lam)
        with pytest.raises(ValueError, match=r"needs lam a partition, got \(2, 1, 0\)"):
            IrrepSpec("gl", n=3, lam=(2, 1, 0))

    def test_lam_is_stored_as_a_tuple(self):
        given_list = IrrepSpec("gl", n=2, lam=[2, 1])
        assert given_list.lam == (2, 1)
        assert given_list == IrrepSpec("gl", n=2, lam=(2, 1))
        assert hash(given_list) == hash(IrrepSpec("gl", n=2, lam=(2, 1)))

    def test_table_covers_every_family(self):
        assert list(FAMILIES) == list(BOUNDS)

    @pytest.mark.parametrize("family", [f for f, row in FAMILIES.items() if row.routes])
    def test_builders_accept_the_lowest_spec(self, family):
        spec = IrrepSpec(family, **lowest(family))
        for build in FAMILIES[family].routes.values():
            assert build(spec, 4).order == 4


class TestChoicesComeFromTables:
    def test_dim_family(self):
        assert choices("dim", "family") == [f for f, row in FAMILIES.items() if row.values]

    def test_series_family(self):
        assert choices("series", "family") == [f for f, row in FAMILIES.items() if row.routes]

    def test_verify_case(self):
        assert choices("verify", "case") == list(CASES)

    def test_sweep_case(self):
        assert choices("sweep", "case") == list(CASES) + ["all"]

    def test_selftest_verifies_every_case_once(self, monkeypatch):
        # a new row is checked with no selftest edit
        monkeypatch.setitem(CASES, "d21-again", CASES["d21-vs-so2"])
        calls = []

        def recorded(case, **params):
            calls.append((case, params))
            return verify_correspondence(case, **params)

        monkeypatch.setattr(selftest, "verify_correspondence", recorded)
        selftest._check_correspondences()
        assert [case for case, _ in calls] == list(CASES)
        assert calls[-1] == ("d21-again", {"order": 10, "p": 3})


# (family, route, options, the builder called directly)
SERIES = [
    ("osp1", "sum", {"n": 3, "p": 2}, lambda o: osp1_dim_t(3, 2, o, route="sum")),
    ("osp1", "closed", {"n": 3, "p": 2}, lambda o: osp1_dim_t(3, 2, o, route="closed")),
    ("ospB", "branching", {"m": 1, "n": 3, "p": 2}, lambda o: ospB_sdim_t(1, 3, 2, o)),
    ("ospD", "branching", {"m": 4, "n": 1, "p": 2}, lambda o: ospD_sdim_t(4, 1, 2, o)),
    ("soOdd", "branching", {"k": 3, "p": 2}, lambda o: so_odd_dim_t(3, 2, o)),
    (
        "soEven",
        "branching",
        {"k": 4, "p": 2, "chirality": "next_to_last"},
        lambda o: so_even_dim_t(4, 2, "next_to_last", o),
    ),
    ("sp", "branching", {"k": 3, "p": 2}, lambda o: sp_dim_t(3, 2, o)),
    ("d21", "branching", {"p": 3}, lambda o: d21_sdim_t(3, o)),
    ("d21", "closed", {"p": 3}, lambda o: d21_sdim_closed(3, o)),
    ("spinor", "closed", {"m": 1, "n": 3}, lambda o: spinor_tdim(1, 3, o)),
]


class TestSeriesJson:
    def test_one_row_per_route(self):
        table = [(f, r) for f, row in FAMILIES.items() for r in row.routes]
        assert [(f, r) for f, r, _, _ in SERIES] == table

    @pytest.mark.parametrize(
        "family, route, options, build", SERIES, ids=[f"{f}-{r}" for f, r, _, _ in SERIES]
    )
    def test_payload(self, family, route, options, build):
        args = ["series", "--family", family, "--order", "9", "--format", "json"]
        for name, value in options.items():
            args += [f"--{name}", str(value)]
        if len(FAMILIES[family].routes) > 1:
            args += ["--route", route]
        result = run(*args)
        assert result.exit_code == 0, result.output
        spec = IrrepSpec(family, **options)
        expected = {"spec": spec.to_json_dict(), "meta": {"route": route}}
        expected.update(build(9).to_json_dict())
        assert json.loads(result.output) == expected


@pytest.mark.parametrize(
    "family, route, options", [row[:3] for row in SERIES], ids=[f"{f}-{r}" for f, r, _, _ in SERIES]
)
def test_no_route_long_divides(monkeypatch, family, route, options):
    # every closed form divides by its (1 - t^j) factors as running sums
    def refuse(self, other):
        raise AssertionError(f"{family} {route} called TruncatedSeries.__truediv__")

    monkeypatch.setattr(TruncatedSeries, "__truediv__", refuse)
    series = FAMILIES[family].routes[route](IrrepSpec(family, **options), 30)
    assert series.order == 30


class TestUnusedOptionsRejected:
    def test_verify_examples(self):
        result = run("verify", "--case", "d21-vs-so2", "--p", "2", "--k", "99")
        assert result.exit_code == 2
        assert "takes no parameter k" in result.output
        result = run("verify", "--case", "ospB-vs-soOdd", "--k", "2", "--p", "1", "--m", "7")
        assert result.exit_code == 2
        assert "takes no parameter m" in result.output

    @pytest.mark.parametrize("case", list(CASES))
    def test_verify_every_case(self, case):
        row = CASES[case]
        base = ["verify", "--case", case, "--order", "4"]
        for name, low in row.bounds.items():
            base += [f"--{name}", str(low + 1)]
        if row.free:
            base += [f"--{row.free}", "2"]
        assert run(*base).exit_code == 0
        for name in ("m", "n", "k", "p"):
            if name not in (*row.bounds, row.free):
                result = run(*base, f"--{name}", "1")
                assert result.exit_code == 2, (case, name)
                assert f"takes no parameter {name}" in result.output

    def test_series_option_not_taken(self):
        result = run("series", "--family", "ospB", "--m", "2", "--n", "1", "--p", "1", "--k", "9")
        assert result.exit_code == 2
        assert "takes no parameter k" in result.output

    def test_series_out_of_range(self):
        result = run("series", "--family", "osp1", "--n", "0", "--p", "1")
        assert result.exit_code == 2
        assert "n >= 1" in result.output

    def test_dim_option_not_taken(self):
        result = run("dim", "--family", "spinor", "--m", "2", "--n", "1", "--lambda", "3,1")
        assert result.exit_code == 2
        assert "takes no parameter lam" in result.output
        result = run("dim", "--family", "gl", "--m", "2", "--n", "3")
        assert result.exit_code == 2
        assert "takes no parameter m" in result.output

    def test_dim_negative_rank(self):
        result = run("dim", "--family", "glsuper", "--m", "-1", "--n", "2")
        assert result.exit_code == 2
        assert "m >= 0" in result.output

    def test_missing_option_message_kept(self):
        result = run("series", "--family", "sp", "--p", "1")
        assert result.exit_code == 2
        assert "missing required option --k" in result.output
        result = run("dim", "--family", "spinor", "--n", "1")
        assert result.exit_code == 2
        assert "missing required option --m" in result.output


def lowest_case(case: str) -> dict:
    row = CASES[case]
    return {**row.bounds, **({row.free: 1} if row.free else {})}


class TestCaseSidesNameFamilyRoutes:
    @pytest.mark.parametrize("case", list(CASES))
    def test_distinct_routes_of_the_family_table(self, case):
        row = CASES[case]
        named = []
        for side in (row.left, row.right):
            family = side.spec(**lowest_case(case)).family
            assert side.route in FAMILIES[family].routes
            named.append((family, side.route))
        assert named[0] != named[1]

    @pytest.mark.parametrize("case", list(CASES))
    def test_series_command_gives_each_side(self, case):
        args = ["verify", "--case", case, "--order", "7", "--format", "json"]
        for name, value in lowest_case(case).items():
            args += [f"--{name}", str(value + 1)]
        report = json.loads(run(*args).output)
        for side in (report["left"], report["right"]):
            route = side["route"].removesuffix(" at -t")
            spec = side["spec"]
            args = ["series", "--family", spec["family"], "--route", route, "--order", "7",
                    "--format", "json"]
            for name in FAMILIES[spec["family"]].params:
                args += [f"--{name}", str(spec[name])]
            result = run(*args)
            assert result.exit_code == 0, result.output
            got = TruncatedSeries.from_json_dict(json.loads(result.output))
            if route != side["route"]:
                got = got.substitute_neg_t()
            assert got.to_json_dict() == {"order": side["order"], "coeffs": side["coeffs"]}


class TestStrictParameters:
    def test_verify_correspondence_refuses_unused_parameters(self):
        with pytest.raises(ValueError, match="takes no parameter k"):
            verify_correspondence("d21-vs-so2", p=2, k=99)
        with pytest.raises(ValueError, match="takes no parameter m"):
            verify_correspondence("ospB-vs-soOdd", k=2, p=1, m=7)

    def test_series_refuses_chirality_and_route_a_family_lacks(self):
        base = ["series", "--family", "ospB", "--m", "2", "--n", "1", "--p", "1"]
        result = run(*base, "--chirality", "next_to_last")
        assert result.exit_code == 2
        assert "takes no parameter chirality" in result.output
        result = run(*base, "--route", "closed")
        assert result.exit_code == 2
        assert "has no route 'closed'" in result.output

    def test_negative_free_parameter_blamed_on_itself(self):
        with pytest.raises(ValueError, match="case 'ospB-vs-soOdd' needs n >= 0"):
            verify_correspondence("ospB-vs-soOdd", k=2, p=1, n=-3)
        result = run("verify", "--case", "ospB-vs-soOdd", "--k", "2", "--p", "1", "--n", "-3")
        assert result.exit_code == 2
        assert "case 'ospB-vs-soOdd' needs n >= 0" in result.output
        assert verify_correspondence("ospB-vs-soOdd", k=2, p=1, n=0, order=6).match


# each route's builder called directly, its family's parameters passed by name
BUILDERS = {
    ("osp1", "sum"): lambda n, p: osp1_dim_t(n, p, 4, route="sum"),
    ("osp1", "closed"): lambda n, p: osp1_dim_t(n, p, 4, route="closed"),
    ("ospB", "branching"): lambda m, n, p: ospB_sdim_t(m, n, p, 4),
    ("ospD", "branching"): lambda m, n, p: ospD_sdim_t(m, n, p, 4),
    ("soOdd", "branching"): lambda k, p: so_odd_dim_t(k, p, 4),
    ("soEven", "branching"): lambda k, p, chirality: so_even_dim_t(k, p, chirality, 4),
    ("sp", "branching"): lambda k, p: sp_dim_t(k, p, 4),
    ("d21", "branching"): lambda p: d21_sdim_t(p, 4),
    ("d21", "closed"): lambda p: d21_sdim_closed(p, 4),
    ("spinor", "closed"): lambda m, n: spinor_tdim(m, n, 4),
}
INT_RULES = [(f, name, low) for f, row in FAMILIES.items() if row.routes
             for name, low in row.params.items() if type(low) is int]


def case_rules(case: str) -> dict:
    row = CASES[case]
    return {**row.bounds, **({row.free: 0} if row.free else {})}


def cases_feeding(family: str, name: str, low: int) -> list[str]:
    """The cases with a side of the family and the same rule for name."""
    return [c for c, row in CASES.items()
            if family in (side.spec(**lowest_case(c)).family for side in (row.left, row.right))
            and case_rules(c).get(name) == low]


class TestOneCheckerForEveryEntryPoint:
    def test_builders_cover_every_route(self):
        assert list(BUILDERS) == [(f, r) for f, row in FAMILIES.items() for r in row.routes]

    @pytest.mark.parametrize("family, name, low", INT_RULES,
                             ids=[f"{f}-{name}" for f, name, _ in INT_RULES])
    def test_builder_spec_and_case_refuse_alike(self, family, name, low):
        builders = [b for (f, _), b in BUILDERS.items() if f == family]
        cases = cases_feeding(family, name, low)
        for bad in (low - 1, float(low), bool(low)):
            values = {**lowest(family), name: bad}
            for build in builders:
                with pytest.raises(ValueError, match=f"family '{family}' needs {name}"):
                    build(**values)
            with pytest.raises(ValueError, match=f"family '{family}' needs {name}"):
                IrrepSpec(family, **values)
            for case in cases:
                with pytest.raises(ValueError, match=f"case '{case}' needs {name}"):
                    verify_correspondence(case, order=4, **{**lowest_case(case), name: bad})

    @pytest.mark.parametrize("case", list(CASES))
    def test_every_case_rule_refuses_alike(self, case):
        # osp1's n is fed by the case's k, so not every rule has a family twin
        for name, low in {**case_rules(case), "order": 0}.items():
            for bad in (low - 1, float(low), bool(low)):
                with pytest.raises(ValueError, match=f"case '{case}' needs {name}"):
                    verify_correspondence(case, **{"order": 4, **lowest_case(case), name: bad})

    def test_spinor_sdim_checks_the_spinor_row(self):
        # not a route builder; spinor_sdim(2.5, 0) once returned a float
        for bad in (-1, 2.5, True):
            with pytest.raises(ValueError, match="family 'spinor' needs m"):
                spinor_sdim(bad, 0)
        with pytest.raises(ValueError, match="needs m an int >= 0, got 2.5"):
            spinor_sdim(2.5, 0)

    @pytest.mark.parametrize("family, route, build", [(f, r, b) for f, r, _, b in SERIES],
                             ids=[f"{f}-{r}" for f, r, _, _ in SERIES])
    def test_every_route_builder_checks_order(self, family, route, build):
        for bad in (-1, 2.5, True):
            with pytest.raises(ValueError, match=f"family '{family}' needs order"):
                build(bad)

    @pytest.mark.parametrize("case", list(CASES))
    def test_every_case_refuses_a_parameter_its_row_lacks(self, case):
        with pytest.raises(ValueError, match=f"case '{case}' takes no parameter q"):
            verify_correspondence(case, order=4, q=1, **lowest_case(case))

    @pytest.mark.parametrize("name", ["n", "p", "order"])
    def test_osp1_numerator_checks_each_argument(self, name):
        args = {"n": 2, "p": 1, "order": 4}
        osp1_numerator(**args)
        for bad in (-1, 2.5, True):
            with pytest.raises(ValueError, match=f"function 'osp1_numerator' needs {name}"):
                osp1_numerator(**{**args, name: bad})

    @pytest.mark.parametrize("name", ["m", "n", "order", "trials"])
    def test_cummins_king_check_checks_each_argument(self, name):
        args = {"m": 1, "n": 1, "order": 2, "trials": 1}
        assert cummins_king_check(**args).match
        for bad in (-1, 2.5, True):
            with pytest.raises(ValueError, match=f"function 'cummins_king_check' needs {name}"):
                cummins_king_check(**{**args, name: bad})

    def test_osp1_route_is_a_rule_of_the_row(self):
        for bad in ("x", None, "branching"):
            with pytest.raises(ValueError, match="family 'osp1' needs route sum or closed"):
                osp1_dim_t(2, 1, 4, route=bad)
