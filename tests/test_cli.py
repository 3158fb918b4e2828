import json

import pytest
from click.testing import CliRunner

import ospdim.cli as cli_mod
from ospdim.cli import main
from ospdim.series import TruncatedSeries


def run(*args, env=None):
    return CliRunner().invoke(main, list(args), env=env)


class TestDim:
    def test_gl_reports_agreement(self):
        result = run("dim", "--family", "gl", "--n", "5", "--lambda", "5,4,4,2")
        assert result.exit_code == 0
        assert result.output == "1701\nweyl=hook=frobenius: true\n"

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
        assert lines[1] == "gl,3,(2,1),8,true"

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
            return type(report)(report.case, report.left, right, False, 2)

        monkeypatch.setattr(cli_mod, "verify_correspondence", broken)
        result = run("verify", "--case", "ospB-vs-soOdd", "--k", "2", "--p", "1", "--order", "6")
        assert result.exit_code == 1
        assert "mismatch, first divergence at t^2" in result.output

    def test_missing_case_parameter(self):
        result = run("verify", "--case", "ospB-vs-soOdd", "--p", "1")
        assert result.exit_code == 2


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

    def test_all_cases_smoke(self):
        result = run(
            "sweep", "--k-max", "2", "--p-max", "1", "--free-count", "1", "--order", "4",
        )
        assert result.exit_code == 0
        assert "0 mismatch(es)" in result.output

    def test_negative_order_is_usage_error(self):
        result = run("sweep", "--case", "d21-vs-so2", "--p-max", "1", "--order", "-1")
        assert result.exit_code == 2
        assert "--order must be non-negative" in result.output

    def test_nothing_to_check_is_usage_error(self):
        result = run("sweep", "--case", "ospD-vs-soEven", "--k-max", "1")
        assert result.exit_code == 2
        assert "no combinations to check" in result.output
        result = run("sweep", "--case", "d21-vs-so2", "--p-max", "0", "--format", "json")
        assert result.exit_code == 2


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
