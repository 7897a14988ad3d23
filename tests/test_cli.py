import json
from fractions import Fraction

import pytest

from unitycert import cli
from unitycert.momatrix import NotPositiveDefiniteError, rational_matrix_from_json


def run_json(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestExitCodeContract:
    def test_verify_pell(self, capsys):
        code, payload = run_json(capsys, ["verify", "--identity", "pell", "--n", "5", "--format", "json"])
        assert code == 0
        assert payload["holds"] is True
        assert payload["constant"] == "1"

    def test_maxent_handelman_weights(self, capsys):
        code, payload = run_json(capsys, ["maxent", "handelman", "--n", "1", "--target-constant", "3"])
        assert code == 0
        weights = {tuple(w["alpha"]): w["value"] for w in payload["certificate"]["weights"]}
        assert abs(weights[(0, 0)] - 1.0) < 1e-6
        assert abs(weights[(1, 0)] - 2.0) < 1e-6
        assert abs(weights[(0, 1)] - 2.0) < 1e-6

    def test_verify_simplex_unity(self, capsys):
        code, payload = run_json(capsys, ["verify", "--identity", "simplex-unity", "--d", "2", "--n", "1"])
        assert code == 0
        assert payload["constant"] == "4"

    def test_nonconvergence_is_exit_1(self, capsys):
        code = cli.run(["maxent", "handelman", "--n", "3", "--target-coeffs", "0,1"])
        out = capsys.readouterr().out
        assert code == 1
        payload = json.loads(out)
        assert payload["report"]["converged"] is False
        assert "no interior certificate" in payload["error"]

    def test_usage_errors_are_exit_2(self, capsys):
        assert cli.run(["bogus"]) == 2
        assert cli.run(["verify", "--identity", "pell"]) == 2  # missing --n
        assert cli.run(["verify", "--identity", "nope", "--n", "1"]) == 2
        capsys.readouterr()

    def test_invalid_value_is_exit_2(self, capsys):
        assert cli.run(["verify", "--identity", "pell", "--n", "0"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            ["maxent", "handelman", "--n", "3", "--tol", "nan"],
            ["maxent", "handelman", "--n", "3", "--tol", "-1"],
            ["maxent", "handelman", "--n", "3", "--tol", "0"],
            ["maxent", "putinar", "--n", "2", "--tol", "inf"],
            ["maxent", "handelman", "--n", "3", "--max-iter", "-1"],
            ["moments", "--measure", "arcsine", "--max-degree", "-1"],
        ],
    )
    def test_out_of_range_flag_is_exit_2(self, capsys, argv):
        code = cli.run(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: --")

    def test_numeric_failure_is_exit_3(self, capsys, monkeypatch):
        def boom(measure, n, shift=None):
            raise NotPositiveDefiniteError(1, Fraction(-1))

        monkeypatch.setattr("unitycert.cli.momatrix.moment_matrix", boom)
        assert cli.run(["matrix", "--measure", "arcsine", "--n", "1"]) == 3
        assert "not positive definite" in capsys.readouterr().err

    def test_help_is_exit_0(self, capsys):
        assert cli.run(["--help"]) == 0
        capsys.readouterr()


class TestPellCommand:
    def test_direct_subcommand(self, capsys):
        code, payload = run_json(capsys, ["pell", "--n", "12"])
        assert code == 0
        assert payload["identity"] == "pell"
        assert payload["holds"] is True


class TestMoments:
    def test_csv(self, capsys):
        code = cli.run(["moments", "--measure", "arcsine", "--max-degree", "4", "--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "exponent,value"
        assert lines[1:] == ["0,1", "1,0", "2,1/2", "3,0", "4,3/8"]

    def test_csv_multivariate_quoting(self, capsys):
        code = cli.run(["moments", "--measure", "simplex-uniform", "--d", "2", "--max-degree", "1", "--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        assert '"1,0",1/3' in out

    def test_json(self, capsys):
        code, payload = run_json(capsys, ["moments", "--measure", "lebesgue01", "--max-degree", "3"])
        assert code == 0
        assert payload["moments"][3] == {"exponent": [3], "value": "1/4"}


class TestMatrixAndChristoffel:
    def test_matrix_round_trip(self, capsys):
        code, payload = run_json(capsys, ["matrix", "--measure", "arcsine", "--n", "2"])
        assert code == 0
        entries = rational_matrix_from_json(payload["entries"])
        assert entries[0][2] == Fraction(1, 2)
        assert payload["basis"] == [[0], [1], [2]]

    def test_christoffel(self, capsys):
        code, payload = run_json(capsys, ["christoffel", "--measure", "arcsine", "--n", "1"])
        assert code == 0
        assert payload["polynomial"]["coefficients"] == ["1", "0", "2"]

    def test_equilibrium_normalization_flag(self, capsys):
        code, payload = run_json(
            capsys,
            ["matrix", "--measure", "simplex-equilibrium", "--normalization", "probability", "--n", "1"],
        )
        assert code == 0
        assert payload["entries"][0][0] == "1"


class TestVerifyCommand:
    def test_all_identities(self, capsys):
        cases = [
            (["verify", "--identity", "unity-interval", "--n", "3", "--variant", "cheby2"], "7"),
            (["verify", "--identity", "unity-01", "--n", "4"], "15"),
            (["verify", "--identity", "simplex-equilibrium", "--n", "1"], "3"),
        ]
        for argv, constant in cases:
            code, payload = run_json(capsys, argv)
            assert code == 0
            assert payload["constant"] == constant


class TestMaxentCommand:
    def test_putinar_exact(self, capsys):
        code, payload = run_json(capsys, ["maxent", "putinar", "--n", "2", "--exact"])
        assert code == 0
        assert payload["exact_reconstruction"] is True
        assert payload["exact_certificate"]["gramA"][0][0] == "3"
        assert payload["report"]["converged"] is True

    def test_simplex_mode(self, capsys):
        code, payload = run_json(capsys, ["maxent", "simplex", "--d", "2", "--n", "1"])
        assert code == 0
        assert payload["certificate"]["d"] == 2
        assert payload["residual"] <= 1e-9

    def test_simplex_rejects_target_flags(self, capsys):
        code = cli.run(["maxent", "simplex", "--d", "2", "--n", "1", "--target-constant", "5"])
        assert code == 2
        assert "fixed target" in capsys.readouterr().err

    def test_handelman_exact_flag(self, capsys):
        code, payload = run_json(
            capsys, ["maxent", "handelman", "--n", "2", "--exact"]
        )
        assert code == 0
        assert payload["exact_reconstruction"] is True
        values = {tuple(w["alpha"]): w["value"] for w in payload["exact_certificate"]["weights"]}
        assert values[(1, 1)] == "6"


class TestPartition:
    def test_interval01_example(self, capsys):
        code, payload = run_json(
            capsys, ["partition", "--domain", "interval01", "--n", "1", "--points", "0.25"]
        )
        assert code == 0
        ev = payload["evaluations"][0]
        assert ev["values"] == pytest.approx([1 / 3, 1 / 6, 1 / 2], abs=1e-12)
        assert ev["sum"] == pytest.approx(1.0, abs=1e-12)

    def test_interval11_example(self, capsys):
        code, payload = run_json(
            capsys, ["partition", "--domain", "interval11", "--n", "1", "--points", "0.0"]
        )
        assert code == 0
        ev = payload["evaluations"][0]
        assert ev["values"] == pytest.approx([1 / 3, 0.0, 2 / 3], abs=1e-12)

    def test_simplex_barycenter(self, capsys):
        code, payload = run_json(
            capsys,
            ["partition", "--domain", "simplex", "--d", "2", "--n", "1", "--points", "0.333333333333,0.333333333333"],
        )
        assert code == 0
        ev = payload["evaluations"][0]
        assert ev["values"] == pytest.approx([0.25] * 4, abs=1e-9)
        assert ev["sum"] == pytest.approx(1.0, abs=1e-12)

    def test_row_sums_at_many_points(self, capsys):
        points = ";".join(str(x / 10) for x in range(1, 10))
        for domain, n in (("interval01", 4), ("interval11", 5)):
            code, payload = run_json(
                capsys, ["partition", "--domain", domain, "--n", str(n), "--points", points]
            )
            assert code == 0
            for ev in payload["evaluations"]:
                assert ev["sum"] == pytest.approx(1.0, abs=1e-12)

    def test_members_carry_exact_weights(self, capsys):
        code, payload = run_json(capsys, ["partition", "--domain", "interval01", "--n", "1"])
        assert code == 0
        weights = [m["weight"] for m in payload["members"]]
        assert weights == ["1/3", "2/3", "2/3"]

    def test_bad_point_dimension(self, capsys):
        code = cli.run(["partition", "--domain", "simplex", "--d", "2", "--n", "1", "--points", "0.5"])
        assert code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("points", ["inf", "nan", "-inf", "1e400", "0.5;nan"])
    def test_non_finite_point_is_exit_2(self, capsys, points):
        code = cli.run(["partition", "--domain", "interval01", "--n", "3", f"--points={points}"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "non-finite" in captured.err


class TestOutputFile:
    def test_write_to_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code = cli.run(["pell", "--n", "3", "--output", str(target)])
        assert code == 0
        assert capsys.readouterr().out == ""
        payload = json.loads(target.read_text(encoding="utf-8"))
        assert payload["holds"] is True
        assert target.read_text(encoding="utf-8").endswith("\n")
