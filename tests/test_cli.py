import csv
import io
import json

import pytest
from click.testing import CliRunner

import ospdim.characters as characters
import ospdim.cli as cli_mod
from ospdim.cli import main
from ospdim.series import TruncatedSeries


def run(*args, env=None):
    return CliRunner().invoke(main, list(args), env=env)


def count_comparisons(monkeypatch) -> list:
    """Record every TruncatedSeries.first_divergence call from now on."""
    calls = []
    real = TruncatedSeries.first_divergence

    def counted(self, other):
        calls.append(other)
        return real(self, other)

    monkeypatch.setattr(TruncatedSeries, "first_divergence", counted)
    return calls


# The output contract: exact stdout and exit code of every command in each
# format, plus two usage errors.  Editing a row changes what users see.
CONTRACT = [
    ('dim --family gl --n 3 --lambda 2,1',
     '8\nweyl=hook=frobenius: true\n',
     0),
    ('dim --family gl --n 3 --lambda 2,1 --format json',
     '{"spec": {"family": "gl", "label": "(2,1)", "m": null, "n": 3, "k": null, "p": null, "lambda": [2, 1]}, "value": 8, "weyl": 8, "hook": 8, "frobenius": 8, "agreement": true}\n',
     0),
    ('dim --family gl --n 3 --lambda 2,1 --format csv',
     'family,n,lambda,value,agreement\ngl,3,"(2,1)",8,true\n',
     0),
    ('dim --family glsuper --m 1 --n 3 --lambda 2,1',
     '-2\n',
     0),
    ('dim --family glsuper --m 1 --n 3 --lambda 2,1 --format json',
     '{"spec": {"family": "glsuper", "label": "(2,1)", "m": 1, "n": 3, "k": null, "p": null, "lambda": [2, 1]}, "value": -2}\n',
     0),
    ('dim --family glsuper --m 1 --n 3 --lambda 2,1 --format csv',
     'family,m,n,lambda,value\nglsuper,1,3,"(2,1)",-2\n',
     0),
    ('dim --family spinor --m 1 --n 3',
     '1/4\n',
     0),
    ('dim --family spinor --m 1 --n 3 --format json',
     '{"spec": {"family": "spinor", "label": "[0,0,0,1]", "m": 1, "n": 3, "k": null, "p": null}, "value": "1/4"}\n',
     0),
    ('dim --family spinor --m 1 --n 3 --format csv',
     'family,m,n,value\nspinor,1,3,1/4\n',
     0),
    ('series --family ospB --m 5 --n 2 --p 2 --order 8',
     '1 + 3t + 9t^2 + 9t^3 + 9t^4 + 3t^5 + t^6\n',
     0),
    ('series --family osp1 --n 3 --p 2 --order 4 --route closed --format json',
     '{"spec": {"family": "osp1", "label": "[0,0,-2]", "m": null, "n": 3, "k": null, "p": 2}, "meta": {"route": "closed"}, "order": 4, "coeffs": ["1", "3", "9", "18", "36"]}\n',
     0),
    ('series --family soEven --k 4 --p 1 --order 3 --chirality next_to_last --format csv',
     'power,coefficient\n0,4\n1,0\n2,4\n3,0\n',
     0),
    ('verify --case ospB-vs-soOdd --k 2 --p 1 --n 1 --order 4',
     'case ospB-vs-soOdd (order 4)\nleft : [0,0,0,1] osp(7|2) via branching\n       1 + 2t + t^2\nright: [0,1] so(5) via branching\n       1 + 2t + t^2\nverdict: match\n',
     0),
    ('verify --case ospD-vs-sp --k 2 --p 1 --m 1 --order 3 --format json',
     '{"case": "ospD-vs-sp", "left": {"spec": {"family": "ospD", "label": "[0,0,0,1]", "m": 1, "n": 3, "k": null, "p": 1}, "route": "branching", "order": 3, "coeffs": ["1", "0", "3", "0"]}, "right": {"spec": {"family": "sp", "label": "[0,-1/2]", "m": null, "n": null, "k": 2, "p": 1}, "route": "branching at -t", "order": 3, "coeffs": ["1", "0", "3", "0"]}, "verdict": "match", "first_divergence": null}\n',
     0),
    ('verify --case d21-vs-so2 --p 3 --order 6 --format csv',
     'case,order,verdict,first_divergence\nd21-vs-so2,6,match,\n',
     0),
    ('sweep --case ospD-vs-soEven --k-max 3 --p-max 1 --free-count 1 --order 4',
     'ospD-vs-soEven k=2 p=0 n=1: match\nospD-vs-soEven k=2 p=1 n=1: match\nospD-vs-soEven k=3 p=0 n=1: match\nospD-vs-soEven k=3 p=1 n=1: match\nchecked 4 combinations at order 4: 0 mismatch(es)\n',
     0),
    ('sweep --case d21-vs-so2 --p-max 2 --order 3 --format json',
     '{"order": 3, "checked": 2, "mismatches": 0, "results": [{"case": "d21-vs-so2", "params": {"p": 1}, "verdict": "match", "first_divergence": null}, {"case": "d21-vs-so2", "params": {"p": 2}, "verdict": "match", "first_divergence": null}]}\n',
     0),
    ('sweep --case ospB-vs-osp1 --k-max 1 --p-max 1 --free-count 1 --order 3 --format csv',
     'case,params,order,verdict,first_divergence\nospB-vs-osp1,k=1 p=0 m=1,3,match,\nospB-vs-osp1,k=1 p=1 m=1,3,match,\n',
     0),
    ('selftest --seed 3',
     'ok   partition-conjugate\nok   frobenius-coordinates\nok   hook-lengths\nok   constrained-enumerators\nok   gl-dimensions\nok   gl-superdimensions\nok   closed-form-numerators\nok   osp1-series\nok   ospB-series\nok   ospD-series\nok   sp-series\nok   spinor-series\nok   d21-series\nok   correspondences\nok   product-expansion-1-1 (seed=3)\nok   product-expansion-2-1 (seed=3)\n16/16 checks passed\n',
     0),
    ('selftest --format json',
     '{"seed": 0, "passed": 16, "failed": 0, "results": [{"name": "partition-conjugate", "ok": true, "detail": ""}, {"name": "frobenius-coordinates", "ok": true, "detail": ""}, {"name": "hook-lengths", "ok": true, "detail": ""}, {"name": "constrained-enumerators", "ok": true, "detail": ""}, {"name": "gl-dimensions", "ok": true, "detail": ""}, {"name": "gl-superdimensions", "ok": true, "detail": ""}, {"name": "closed-form-numerators", "ok": true, "detail": ""}, {"name": "osp1-series", "ok": true, "detail": ""}, {"name": "ospB-series", "ok": true, "detail": ""}, {"name": "ospD-series", "ok": true, "detail": ""}, {"name": "sp-series", "ok": true, "detail": ""}, {"name": "spinor-series", "ok": true, "detail": ""}, {"name": "d21-series", "ok": true, "detail": ""}, {"name": "correspondences", "ok": true, "detail": ""}, {"name": "product-expansion-1-1", "ok": true, "detail": "seed=0"}, {"name": "product-expansion-2-1", "ok": true, "detail": "seed=0"}]}\n',
     0),
    ('selftest --format csv',
     'name,status,detail\npartition-conjugate,ok,\nfrobenius-coordinates,ok,\nhook-lengths,ok,\nconstrained-enumerators,ok,\ngl-dimensions,ok,\ngl-superdimensions,ok,\nclosed-form-numerators,ok,\nosp1-series,ok,\nospB-series,ok,\nospD-series,ok,\nsp-series,ok,\nspinor-series,ok,\nd21-series,ok,\ncorrespondences,ok,\nproduct-expansion-1-1,ok,seed=0\nproduct-expansion-2-1,ok,seed=0\n',
     0),
    ('verify --case ospB-vs-soOdd --p 1',
     '',
     2),
    ('series --family soEven --k 1 --p 1 --format json',
     '',
     2),
]


@pytest.mark.parametrize("argv, stdout, exit_code", CONTRACT, ids=[row[0] for row in CONTRACT])
def test_output_contract(argv, stdout, exit_code):
    result = run(*argv.split(), env={"OSPDIM_ORDER": None})
    assert result.stdout_bytes.decode() == stdout  # .stdout would hide a \r\n
    assert result.exit_code == exit_code


class TestDim:
    def test_gl_reports_agreement(self):
        result = run("dim", "--family", "gl", "--n", "5", "--lambda", "5,4,4,2")
        assert result.exit_code == 0
        assert result.output == "1701\nweyl=hook=frobenius: true\n"

    @pytest.mark.parametrize("text", ["0", " 0 ", "0,0"])
    def test_a_zero_lambda_is_the_empty_shape(self, text):
        result = run("dim", "--family", "gl", "--n", "3", "--lambda", text)
        assert result.exit_code == 0
        assert result.output.splitlines()[0] == "1"

    def test_glsuper_negative_value(self):
        result = run("dim", "--family", "glsuper", "--m", "1", "--n", "3", "--lambda", "2,1")
        assert result.exit_code == 0
        assert result.output.strip() == "-2"

    def test_spinor_fractional_value(self):
        result = run("dim", "--family", "spinor", "--m", "1", "--n", "3")
        assert result.exit_code == 0
        assert result.output.strip() == "1/4"

    def test_json_payload(self):
        result = run("dim", "--family", "gl", "--n", "3", "--lambda", "2,1", "--format", "json")
        payload = json.loads(result.output)
        assert payload["value"] == 8
        assert payload["weyl"] == payload["hook"] == payload["frobenius"] == 8
        assert payload["agreement"] is True
        assert payload["spec"]["family"] == "gl"

    def test_csv_payload(self):
        result = run("dim", "--family", "gl", "--n", "3", "--lambda", "2,1", "--format", "csv")
        lines = result.output.strip().splitlines()
        assert lines[0] == "family,n,lambda,value,agreement"
        assert lines[1] == 'gl,3,"(2,1)",8,true'

    def test_csv_rows_have_as_many_fields_as_the_header(self):
        for args in (["gl", "--n", "3"], ["glsuper", "--m", "1", "--n", "3"]):
            result = run("dim", "--family", *args, "--lambda", "2,1", "--format", "csv")
            header, row = csv.reader(io.StringIO(result.output))
            assert len(row) == len(header)
            assert row[header.index("lambda")] == "(2,1)"

    def test_formula_disagreement_exits_one(self, monkeypatch):
        monkeypatch.setattr(characters, "dim_gl_hook", lambda n, lam: 0)
        result = run("dim", "--family", "gl", "--n", "3", "--lambda", "2,1")
        assert result.exit_code == 1
        assert result.output == "8\nweyl=hook=frobenius: false\n"
        result = run("dim", "--family", "gl", "--n", "3", "--lambda", "2,1", "--format", "json")
        assert result.exit_code == 1
        assert json.loads(result.output)["agreement"] is False

    def test_empty_partition_default(self):
        result = run("dim", "--family", "gl", "--n", "4")
        assert result.exit_code == 0
        assert result.output.strip().splitlines()[0] == "1"

    def test_missing_parameter_is_usage_error(self):
        result = run("dim", "--family", "gl", "--lambda", "2,1")
        assert result.exit_code == 2
        assert "missing required option --n" in result.output

    def test_bad_partition_is_usage_error(self):
        result = run("dim", "--family", "gl", "--n", "3", "--lambda", "2,x")
        assert result.exit_code == 2
        result = run("dim", "--family", "gl", "--n", "3", "--lambda", "1,2")
        assert result.exit_code == 2

    def test_unknown_family_rejected_by_click(self):
        result = run("dim", "--family", "so", "--n", "3")
        assert result.exit_code == 2


class TestSeries:
    def test_contract_example(self):
        result = run(
            "series", "--family", "ospB", "--m", "5", "--n", "2", "--p", "2",
            "--order", "8", "--format", "text",
        )
        assert result.exit_code == 0
        assert result.output == "1 + 3t + 9t^2 + 9t^3 + 9t^4 + 3t^5 + t^6\n"

    def test_json_round_trips(self):
        result = run(
            "series", "--family", "osp1", "--n", "3", "--p", "2", "--order", "6",
            "--format", "json",
        )
        payload = json.loads(result.output)
        assert payload["spec"]["label"] == "[0,0,-2]"
        assert payload["meta"]["route"] == "sum"
        series = TruncatedSeries.from_json_dict(payload)
        assert str(series) == "1 + 3t + 9t^2 + 18t^3 + 36t^4 + 60t^5 + 100t^6"

    def test_csv_lists_coefficients(self):
        result = run(
            "series", "--family", "soOdd", "--k", "3", "--p", "1", "--order", "3",
            "--format", "csv",
        )
        assert result.output.splitlines() == [
            "power,coefficient",
            "0,1",
            "1,3",
            "2,3",
            "3,1",
        ]

    def test_route_flag(self):
        for route in ("sum", "closed"):
            result = run(
                "series", "--family", "osp1", "--n", "2", "--p", "1",
                "--order", "5", "--route", route,
            )
            assert result.exit_code == 0
            assert result.output == "1 + 2t + 3t^2 + 4t^3 + 5t^4 + 6t^5\n"

    def test_closed_route_at_a_large_rank(self):
        # n = 1000 divides by (1 - t)^1000 (1 - t^2)^499500: t^2 gets
        # C(1001, 2) + 499500; the numerator is 1 below degree p + 1
        result = run(
            "series", "--family", "osp1", "--n", "1000", "--p", "1000",
            "--order", "2", "--route", "closed",
        )
        assert result.exit_code == 0
        assert result.output == "1 + 1000t + 1000000t^2\n"

    def test_closed_route_at_a_huge_rank(self):
        # n = 100000 divides by (1 - t^2)^4999950000: one product per residue
        # class, not billions of running sums, and the numerator cancels it
        result = run(
            "series", "--family", "osp1", "--n", "100000", "--p", "0",
            "--order", "2", "--route", "closed",
        )
        assert result.exit_code == 0
        assert result.output == "1\n"

    def test_chirality_flag(self):
        base = ["series", "--family", "soEven", "--k", "5", "--p", "1", "--order", "4"]
        assert run(*base).output == "5 + 10t^2 + t^4\n"
        assert run(*base, "--chirality", "next_to_last").output == "1 + 10t^2 + 5t^4\n"

    def test_spinor_series(self):
        result = run("series", "--family", "spinor", "--m", "2", "--n", "1", "--order", "3")
        assert result.output == "4 + 4t + 4t^2 + 4t^3\n"

    def test_d21_series(self):
        result = run("series", "--family", "d21", "--p", "2", "--order", "3")
        assert result.output == "3 - 4t + 4t^2 - 4t^3\n"

    def test_missing_parameter(self):
        result = run("series", "--family", "ospB", "--m", "2", "--p", "1")
        assert result.exit_code == 2
        assert "missing required option --n" in result.output

    def test_domain_error_becomes_usage_error(self):
        result = run("series", "--family", "soEven", "--k", "1", "--p", "1")
        assert result.exit_code == 2


class TestVerify:
    def test_contract_example(self):
        result = run("verify", "--case", "ospB-vs-soOdd", "--k", "3", "--p", "1", "--order", "10")
        assert result.exit_code == 0
        assert "verdict: match" in result.output
        assert "osp(9|2)" in result.output
        assert "so(7)" in result.output

    def test_json_verdict(self):
        result = run(
            "verify", "--case", "ospD-vs-sp", "--k", "2", "--p", "1",
            "--order", "8", "--format", "json",
        )
        payload = json.loads(result.output)
        assert payload["verdict"] == "match"
        assert payload["first_divergence"] is None
        assert payload["left"]["coeffs"] == payload["right"]["coeffs"]

    def test_csv_row(self):
        result = run(
            "verify", "--case", "d21-vs-so2", "--p", "3", "--order", "6", "--format", "csv",
        )
        assert result.output.splitlines() == [
            "case,order,verdict,first_divergence",
            "d21-vs-so2,6,match,",
        ]

    def test_mismatch_exits_one(self, monkeypatch):
        from ospdim.characters import verify_correspondence as real

        def broken(case, **kwargs):
            report = real(case, **kwargs)
            flipped = report.right.series + TruncatedSeries.monomial(2, report.right.series.order)
            right = type(report.right)(report.right.spec, report.right.route, flipped)
            return type(report)(report.case, report.left, right)

        monkeypatch.setattr(cli_mod, "verify_correspondence", broken)
        result = run("verify", "--case", "ospB-vs-soOdd", "--k", "2", "--p", "1", "--order", "6")
        assert result.exit_code == 1
        assert "mismatch, first divergence at t^2" in result.output

    def test_missing_case_parameter(self):
        result = run("verify", "--case", "ospB-vs-soOdd", "--p", "1")
        assert result.exit_code == 2

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_compares_the_two_series_once(self, monkeypatch, fmt):
        calls = count_comparisons(monkeypatch)
        result = run("verify", "--case", "ospB-vs-soOdd", "--k", "2", "--p", "1", "--order", "6", "--format", fmt)
        assert result.exit_code == 0
        assert len(calls) == 1


class TestSweep:
    def test_small_sweep(self):
        result = run(
            "sweep", "--case", "ospB-vs-soOdd", "--k-max", "2", "--p-max", "2",
            "--free-count", "2", "--order", "6",
        )
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        # 2 k-values x 3 p-values x 2 free values, plus the summary line
        assert len(lines) == 13
        assert lines[-1] == "checked 12 combinations at order 6: 0 mismatch(es)"
        assert all("match" in line for line in lines[:-1])

    def test_csv_header(self):
        result = run(
            "sweep", "--case", "d21-vs-so2", "--p-max", "2", "--order", "6",
            "--format", "csv",
        )
        lines = result.output.strip().splitlines()
        assert lines[0] == "case,params,order,verdict,first_divergence"
        assert lines[1] == "d21-vs-so2,p=1,6,match,"
        assert len(lines) == 3

    def test_json_counts(self):
        result = run(
            "sweep", "--case", "ospD-vs-soEven", "--k-max", "3", "--p-max", "1",
            "--free-count", "1", "--order", "6", "--format", "json",
        )
        payload = json.loads(result.output)
        assert payload["checked"] == 4  # k in {2,3}, p in {0,1}
        assert payload["mismatches"] == 0
        assert all(r["verdict"] == "match" for r in payload["results"])

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_compares_each_combination_once(self, monkeypatch, fmt):
        calls = count_comparisons(monkeypatch)
        result = run("sweep", "--k-max", "2", "--p-max", "1", "--free-count", "2", "--order", "4", "--format", fmt)
        assert result.exit_code == 0
        # 8 combinations of each case with k and a free rank, 4 of ospD-vs-soEven (k = 2) and one of d21
        assert len(calls) == 8 * 3 + 4 + 1

    def test_all_cases_smoke(self):
        result = run(
            "sweep", "--k-max", "2", "--p-max", "1", "--free-count", "1", "--order", "4",
        )
        assert result.exit_code == 0
        assert "0 mismatch(es)" in result.output

    def test_negative_order_is_usage_error(self):
        result = run("sweep", "--case", "d21-vs-so2", "--p-max", "1", "--order", "-1")
        assert result.exit_code == 2
        assert "'--order'" in result.output
        assert "x>=0" in result.output

    def test_nothing_to_check_is_usage_error(self):
        result = run("sweep", "--case", "ospD-vs-soEven", "--k-max", "1")
        assert result.exit_code == 2
        assert "no combinations to check" in result.output
        result = run("sweep", "--case", "d21-vs-so2", "--p-max", "0", "--format", "json")
        assert result.exit_code == 2

    def test_every_case_of_a_sweep_checks_something(self):
        # each run leaves some cases with combinations, but not the one named
        for args in (["--k-max", "0", "--p-max", "1"], ["--free-count", "0"]):
            result = run("sweep", *args, "--order", "4")
            assert result.exit_code == 2, args
            assert "case 'ospB-vs-soOdd' no combinations to check" in result.output
        result = run("sweep", "--k-max", "1", "--p-max", "0", "--order", "4")
        assert result.exit_code == 2
        assert "case 'ospD-vs-soEven' no combinations to check" in result.output


class TestSelftest:
    def test_passes_and_is_deterministic(self):
        first = run("selftest", "--seed", "3")
        second = run("selftest", "--seed", "3")
        assert first.exit_code == 0
        assert first.output == second.output
        assert first.output.strip().splitlines()[-1].endswith("checks passed")

    def test_one_line_per_check(self):
        result = run("selftest")
        lines = result.output.strip().splitlines()
        total = lines[-1].split()[0]  # "16/16 checks passed"
        passed, _, declared = total.partition("/")
        assert passed == declared
        assert len(lines) == int(declared) + 1
        assert all(line.startswith("ok") for line in lines[:-1])

    def test_json_format(self):
        result = run("selftest", "--format", "json")
        payload = json.loads(result.output)
        assert payload["failed"] == 0
        assert payload["passed"] == len(payload["results"])

    def test_a_failed_golden_reads_fail_and_exits_1(self, monkeypatch):
        import ospdim.selftest as selftest_mod

        monkeypatch.setattr(selftest_mod, "so_odd_dim_t", lambda k, p, order: TruncatedSeries.one(order))
        result = run("selftest")
        assert result.exit_code == 1
        lines = result.output.splitlines()
        assert [line for line in lines if not line.startswith("ok   ")] == [
            "FAIL ospB-series (so(7) p=1 series: got 1, want 1 + 3t + 3t^2 + t^3)",
            "15/16 checks passed",
        ]
        result = run("selftest", "--format", "json")
        assert result.exit_code == 1
        assert json.loads(result.output)["failed"] == 1

    def test_goldens_raise_no_series_to_a_power(self, monkeypatch):
        from ospdim.selftest import run_selftest

        def refuse(self, e):
            raise AssertionError("selftest called TruncatedSeries.__pow__")

        monkeypatch.setattr(TruncatedSeries, "__pow__", refuse)
        assert [r.name for r in run_selftest() if not r.ok] == []

    def test_other_commands_never_load_it(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": src}
        code = "import sys, ospdim.cli; print('ospdim.selftest' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout == "False\n"


class TestOrderEnv:
    def test_env_sets_default_order(self):
        result = run(
            "series", "--family", "osp1", "--n", "2", "--p", "1",
            env={"OSPDIM_ORDER": "3"},
        )
        assert result.output == "1 + 2t + 3t^2 + 4t^3\n"

    def test_flag_beats_env(self):
        result = run(
            "series", "--family", "osp1", "--n", "2", "--p", "1", "--order", "2",
            env={"OSPDIM_ORDER": "9"},
        )
        assert result.output == "1 + 2t + 3t^2\n"

    def test_bad_env_is_usage_error(self):
        result = run(
            "series", "--family", "osp1", "--n", "2", "--p", "1",
            env={"OSPDIM_ORDER": "many"},
        )
        assert result.exit_code == 2
        result = run(
            "series", "--family", "osp1", "--n", "2", "--p", "1",
            env={"OSPDIM_ORDER": "-4"},
        )
        assert result.exit_code == 2

    def test_env_applies_to_sweep(self):
        result = run(
            "sweep", "--case", "d21-vs-so2", "--p-max", "1",
            env={"OSPDIM_ORDER": "5"},
        )
        assert "order 5" in result.output

    def test_sweep_default_order_is_twelve(self):
        result = run("sweep", "--case", "d21-vs-so2", "--p-max", "1", env={"OSPDIM_ORDER": None})
        assert result.exit_code == 0
        assert "order 12" in result.output

    def test_bad_env_is_usage_error_for_sweep(self):
        for value in ("abc", "-3"):
            result = run(
                "sweep", "--case", "d21-vs-so2", "--p-max", "1",
                env={"OSPDIM_ORDER": value},
            )
            assert result.exit_code == 2
            assert "OSPDIM_ORDER" in result.output

    def test_env_applies_to_verify(self):
        result = run("verify", "--case", "d21-vs-so2", "--p", "2", env={"OSPDIM_ORDER": "5"})
        assert result.exit_code == 0
        assert "(order 5)" in result.output

    def test_flag_beats_env_for_verify(self):
        result = run(
            "verify", "--case", "d21-vs-so2", "--p", "2", "--order", "3",
            env={"OSPDIM_ORDER": "9"},
        )
        assert result.exit_code == 0
        assert "(order 3)" in result.output

    def test_bad_env_is_usage_error_for_verify(self):
        for value in ("abc", "-3"):
            result = run("verify", "--case", "d21-vs-so2", "--p", "2", env={"OSPDIM_ORDER": value})
            assert result.exit_code == 2
            assert "OSPDIM_ORDER" in result.output

    @pytest.mark.parametrize("command, default", [("series", 16), ("verify", 16), ("sweep", 12)])
    def test_help_shows_env_var_and_default(self, command, default):
        result = run(command, "--help", env={"OSPDIM_ORDER": None})
        assert result.exit_code == 0
        # help wraps to the terminal width, so compare with runs of spaces collapsed
        assert f"[env var: OSPDIM_ORDER; default: {default}; x>=0]" in " ".join(result.output.split())

    def test_empty_env_counts_as_unset(self):
        result = run("series", "--family", "osp1", "--n", "2", "--p", "1", env={"OSPDIM_ORDER": ""})
        assert result.exit_code == 0
        assert result.output.rstrip().endswith("17t^16")
        result = run("verify", "--case", "d21-vs-so2", "--p", "2", env={"OSPDIM_ORDER": ""})
        assert "(order 16)" in result.output
        result = run("sweep", "--case", "d21-vs-so2", "--p-max", "1", env={"OSPDIM_ORDER": ""})
        assert "order 12" in result.output


class TestVersion:
    def test_version_comes_from_the_package(self):
        import ospdim

        result = run("--version")
        assert result.exit_code == 0
        assert result.output == f"ospdim, version {ospdim.__version__}\n"

    def test_package_and_project_versions_agree(self):
        from pathlib import Path

        import ospdim

        tomllib = pytest.importorskip("tomllib")

        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        with pyproject.open("rb") as fh:
            assert tomllib.load(fh)["project"]["version"] == ospdim.__version__


class TestInternalErrors:
    @staticmethod
    def broken(*args, **kwargs):
        raise RuntimeError("broken builder")

    def test_crash_exits_three_with_one_stderr_line(self, monkeypatch):
        monkeypatch.setattr(characters, "so_odd_dim_t", self.broken)
        result = run("series", "--family", "soOdd", "--k", "2", "--p", "1")
        assert result.exit_code == 3
        assert result.stdout == ""
        assert result.stderr.splitlines() == ["internal error: RuntimeError('broken builder')"]

    def test_crash_in_verify_is_not_a_mismatch(self, monkeypatch):
        monkeypatch.setattr(cli_mod, "verify_correspondence", self.broken)
        result = run("verify", "--case", "ospB-vs-soOdd", "--k", "2", "--p", "1")
        assert result.exit_code == 3
        assert "internal error" in result.stderr

    def test_exceptions_propagate_without_standalone_mode(self, monkeypatch):
        error = RuntimeError("broken builder")

        def broken(*args, **kwargs):
            raise error

        monkeypatch.setattr(characters, "so_odd_dim_t", broken)
        args = ["series", "--family", "soOdd", "--k", "2", "--p", "1"]
        with pytest.raises(RuntimeError) as info:
            CliRunner().invoke(main, args, standalone_mode=False, catch_exceptions=False)
        assert info.value is error
