import json
import logging
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from unitycert import cli, identities, momatrix
from unitycert.measures import LEBESGUE01, simplex_equilibrium, simplex_uniform
from unitycert.momatrix import NotPositiveDefiniteError, rational_matrix_from_json
from unitycert.polycore import MPoly, UPoly, poly_eval


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
            ["maxent", "handelman", "--n", "2", "--target-constant", "1/0"],
            ["maxent", "putinar", "--n", "2", "--target-coeffs", "1/0"],
            ["maxent", "putinar", "--n", "2", "--target-coeffs", "1,2/0"],
            ["pell", "--n", "3", "--output", "/nonexistent/p.json"],
            ["moments", "--measure", "arcsine", "--max-degree", "2", "--format", "csv",
             "--output", "/nonexistent/p.csv"],
            ["maxent", "handelman", "--n", "12", "--output", "/nonexistent/p.json"],
        ],
    )
    def test_out_of_range_flag_is_exit_2(self, capsys, argv):
        code = cli.run(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: --")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["maxent", "putinar", "--n", "2", "--target-coeffs", "1e400"],
            ["maxent", "putinar", "--n", "2", "--target-constant=-1e400"],
            ["maxent", "handelman", "--n", "2", "--target-constant", "1e400"],
            ["maxent", "handelman", "--n", "2", "--target-coeffs", "1,2,1e400"],
        ],
    )
    def test_target_past_double_range_is_exit_2(self, capsys, argv):
        code = cli.run(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: target coefficients must fit in a finite double\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["moments", "--measure", "simplex-equilibrium", "--max-degree", "2"],
            ["matrix", "--measure", "simplex-equilibrium", "--n", "1"],
            ["christoffel", "--measure", "simplex-equilibrium", "--n", "1"],
            ["verify", "--identity", "simplex-equilibrium", "--n", "1"],
        ],
    )
    def test_simplex_equilibrium_is_the_triangle(self, capsys, argv):
        assert cli.run(argv) == 0
        default = capsys.readouterr().out
        assert cli.run(argv + ["--d", "2"]) == 0
        assert capsys.readouterr().out == default
        assert cli.run(argv + ["--d", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --d must be 2 for simplex-equilibrium, got 3\n"

    def test_numeric_failure_is_exit_3(self, capsys, monkeypatch):
        def boom(measure, n, shift=None):
            raise NotPositiveDefiniteError(1, Fraction(-1))

        monkeypatch.setattr("unitycert.cli.momatrix.moment_matrix", boom)
        assert cli.run(["matrix", "--measure", "arcsine", "--n", "1"]) == 3
        assert "not positive definite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["moments", "--measure", "arcsine", "--d", "3", "--max-degree", "2"],
            ["matrix", "--measure", "lebesgue01", "--d", "2", "--n", "1"],
            ["christoffel", "--measure", "arcsine-g", "--d", "1", "--n", "1"],
            ["partition", "--domain", "interval01", "--d", "7", "--n", "1"],
            ["partition", "--domain", "interval11", "--d", "2", "--n", "1"],
            ["verify", "--identity", "pell", "--d", "3", "--n", "2"],
            ["verify", "--identity", "unity-interval", "--d", "2", "--n", "2"],
            ["verify", "--identity", "unity-01", "--d", "1", "--n", "2"],
            ["maxent", "handelman", "--d", "2", "--n", "2"],
            ["maxent", "putinar", "--n", "4", "--d", "5"],
        ],
    )
    def test_d_of_a_one_dimensional_command_is_exit_2(self, capsys, argv):
        assert cli.run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --d does not apply to ")
        assert captured.err.endswith(", which is one-dimensional\n")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["christoffel", "--measure", "arcsine", "--n", "1", "--normalization", "probability"],
             "--normalization does not apply to arcsine"),
            (["moments", "--measure", "simplex-uniform", "--max-degree", "1",
              "--normalization", "pi-density"],
             "--normalization does not apply to simplex-uniform"),
            (["matrix", "--measure", "lebesgue01", "--n", "1", "--normalization", "probability"],
             "--normalization does not apply to lebesgue01"),
            (["verify", "--identity", "unity-01", "--n", "2", "--normalization", "probability"],
             "--normalization does not apply to --identity unity-01"),
            (["verify", "--identity", "unity-interval", "--n", "2", "--normalization", "pi-density"],
             "--normalization does not apply to --identity unity-interval"),
            (["verify", "--identity", "pell", "--n", "2", "--variant", "unity1"],
             "--variant does not apply to --identity pell"),
            (["verify", "--identity", "simplex-equilibrium", "--n", "1", "--variant", "unity2"],
             "--variant does not apply to --identity simplex-equilibrium"),
            (["maxent", "handelman", "--n", "2", "--target-constant", "7", "--target-coeffs", "6"],
             "give --target-constant or --target-coeffs, not both"),
            (["maxent", "putinar", "--n", "2", "--target-coeffs", "3", "--target-constant", "5"],
             "give --target-constant or --target-coeffs, not both"),
            (["maxent", "handelman", "--n", "2", "--target-coeffs", ""],
             "--target-coeffs '' is not a rational number"),
            (["maxent", "simplex", "--n", "1", "--target-coeffs", ""],
             "simplex mode has a fixed target; drop the target flags"),
            (["maxent", "handelman", "--n", "2", "--target-coeffs", "abc"],
             "--target-coeffs 'abc' is not a rational number"),
            (["maxent", "putinar", "--n", "2", "--target-coeffs", "1,,2"],
             "--target-coeffs '' is not a rational number"),
            (["maxent", "putinar", "--n", "2", "--target-constant", "1.5e"],
             "--target-constant '1.5e' is not a rational number"),
        ],
    )
    def test_flag_the_command_does_not_read_is_exit_2(self, capsys, argv, message):
        assert cli.run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["pell", "--n", "2"],
            ["matrix", "--measure", "arcsine", "--n", "1"],
            ["christoffel", "--measure", "arcsine", "--n", "1"],
            ["verify", "--identity", "pell", "--n", "2"],
            ["maxent", "putinar", "--n", "2"],
            ["partition", "--domain", "interval01", "--n", "1"],
        ],
    )
    def test_csv_where_there_is_no_csv_form_is_exit_2(self, capsys, argv):
        code = cli.run(argv)
        default = capsys.readouterr().out
        assert cli.run(argv + ["--format", "json"]) == code
        assert capsys.readouterr().out == default
        assert cli.run(argv + ["--format", "csv"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("error:") == 1
        assert "argument --format: invalid choice: 'csv'" in captured.err

    @pytest.mark.parametrize(
        "argv, flags",
        [
            (["verify", "--identity", "simplex-equilibrium", "--n", "2"],
             ["--normalization", "pi-density"]),
            (["moments", "--measure", "simplex-equilibrium", "--max-degree", "2"],
             ["--normalization", "pi-density"]),
            (["christoffel", "--measure", "simplex-equilibrium", "--n", "1"],
             ["--normalization", "pi-density"]),
            (["verify", "--identity", "unity-interval", "--n", "3"], ["--variant", "unity2"]),
        ],
    )
    def test_omitted_flag_is_its_documented_default(self, capsys, argv, flags):
        assert cli.run(argv) == 0
        default = capsys.readouterr().out
        assert cli.run(argv + flags) == 0
        assert capsys.readouterr().out == default

    @pytest.mark.parametrize(
        "exc, message",
        [
            (MemoryError("Unable to allocate 193. GiB for an array"),
             "error: out of memory: Unable to allocate 193. GiB for an array\n"),
            (MemoryError(), "error: out of memory\n"),
        ],
    )
    def test_memory_error_is_exit_3(self, capsys, monkeypatch, exc, message):
        def refuse(*args, **kwargs):
            raise exc

        monkeypatch.setattr("unitycert.cli.maxent.solve_putinar", refuse)
        assert cli.run(["maxent", "putinar", "--n", "400"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message

    def test_help_is_exit_0(self, capsys):
        # Twice, since in-process runs share one parser.
        assert cli.run(["--help"]) == 0
        first = capsys.readouterr().out
        assert first.startswith("usage: unitycert ")
        assert cli.run(["--help"]) == 0
        assert capsys.readouterr().out == first


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

    @pytest.mark.parametrize(
        "flags, measure",
        [
            (["--measure", "lebesgue01", "--n", "3"], LEBESGUE01),
            (["--measure", "simplex-uniform", "--d", "2", "--n", "2"], simplex_uniform(2)),
            (["--measure", "simplex-equilibrium", "--n", "2"], simplex_equilibrium()),
        ],
        ids=["lebesgue01", "simplex-uniform", "simplex-equilibrium"],
    )
    def test_christoffel_inverse_strings(self, capsys, flags, measure):
        # Written from the integer triangle, as str() of the Fraction inverse
        # (the equilibrium inverse has entries such as -15/4).
        code, payload = run_json(capsys, ["christoffel"] + flags)
        assert code == 0
        form = momatrix.christoffel_form(measure, payload["degree"])
        assert payload["inverse"] == [[str(v) for v in row] for row in form.inverse]

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

    @pytest.mark.parametrize(
        "argv", [["handelman", "--n", "12"], ["putinar", "--n", "4"], ["simplex", "--d", "3", "--n", "4"]]
    )
    def test_residual_is_the_reports(self, capsys, argv):
        code, payload = run_json(capsys, ["maxent", *argv])
        assert code == 0
        assert payload["residual"] == payload["report"]["residual"]

    def test_simplex_rejects_target_flags(self, capsys):
        code = cli.run(["maxent", "simplex", "--d", "2", "--n", "1", "--target-constant", "5"])
        assert code == 2
        assert "fixed target" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, code, stop",
        [
            (["--n", "4"], 0, "tol"),
            (["--n", "4", "--max-iter", "0"], 1, "budget"),
            (["--target-coeffs", "0,1", "--n", "3"], 1, "diverged"),
        ],
    )
    def test_report_carries_stop_reason(self, capsys, argv, code, stop):
        got, payload = run_json(capsys, ["maxent", "handelman", *argv])
        assert got == code
        assert payload["report"]["stop_reason"] == stop

    @pytest.mark.parametrize("mode", ["handelman", "putinar"])
    def test_negative_n_reports_n(self, capsys, mode):
        assert cli.run(["maxent", mode, "--n", "-3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: n must be >= 1\n"

    def test_handelman_exact_flag(self, capsys):
        code, payload = run_json(
            capsys, ["maxent", "handelman", "--n", "2", "--exact"]
        )
        assert code == 0
        assert payload["exact_reconstruction"] is True
        values = {tuple(w["alpha"]): w["value"] for w in payload["exact_certificate"]["weights"]}
        assert values[(1, 1)] == "6"

    @pytest.mark.parametrize("mode, n", [("handelman", 32), ("putinar", 24)])
    def test_exact_flag_past_a_double_duals_snap(self, capsys, mode, n):
        code, payload = run_json(capsys, ["maxent", mode, "--n", str(n), "--exact"])
        assert code == 0
        assert payload["exact_reconstruction"] is True
        assert payload["exact_certificate"] == payload["certificate"]

    def test_exact_flag_ships_an_exact_solver_certificate(self, capsys):
        # The solve rounds its certificate to rational weights with residual 0,
        # while its double dual does not snap.
        argv = ["maxent", "handelman", "--n", "8", "--target-coeffs", "2,1,-1"]
        code, payload = run_json(capsys, [*argv, "--exact"])
        assert code == 0
        assert payload["report"]["residual"] == 0
        assert "exact_error" not in payload
        assert payload["exact_reconstruction"] is True
        assert payload["exact_certificate"] == payload["certificate"]
        assert all(isinstance(w["value"], str) for w in payload["certificate"]["weights"])

    @pytest.mark.parametrize("argv, error", [
        (["handelman", "--n", "12", "--target-coeffs", "2,1,-1"],
         "dual does not snap to a strictly feasible point"),
        (["putinar", "--n", "6", "--target-coeffs", "3,1,2"],
         "dual does not snap to rational Chebyshev moments"),
    ])
    def test_exact_flag_on_a_dual_that_does_not_snap(self, capsys, argv, error):
        # A converged solve of a valid target whose optimum is not rational.
        code = cli.run(["maxent", *argv, "--exact"])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        payload = json.loads(captured.out)
        assert payload["report"]["converged"] is True
        assert payload["certificate"]["type"] == argv[0]
        assert payload["exact_certificate"] is None
        assert payload["exact_reconstruction"] is False
        assert payload["exact_error"] == error


class TestPartition:
    def test_interval01_example(self, capsys):
        code, payload = run_json(
            capsys, ["partition", "--domain", "interval01", "--n", "1", "--points", "0.25"]
        )
        assert code == 0
        ev = payload["evaluations"][0]
        assert ev["values"] == pytest.approx([1 / 3, 1 / 6, 1 / 2], abs=1e-12)
        assert ev["sum"] == pytest.approx(1.0, abs=1e-12)

    def test_one_simplex_members_are_those_of_interval01(self, capsys):
        _, simplex = run_json(capsys, ["partition", "--domain", "simplex", "--d", "1", "--n", "3"])
        _, interval = run_json(capsys, ["partition", "--domain", "interval01", "--n", "3"])
        assert [m["polynomial"] for m in simplex["members"]] == [
            m["polynomial"] for m in interval["members"]]
        assert set(simplex["members"][-1]["polynomial"]) == {"coefficients"}

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

    @pytest.mark.parametrize("domain, d, point", [("simplex", 3, [0.1, 0.2]), ("simplex", 1, [0.1, 0.2]),
                                                  ("interval01", 2, [0.1, 0.2]), ("interval11", 2, [])])
    def test_emit_partition_rejects_wrong_point_dimension(self, domain, d, point):
        with pytest.raises(ValueError, match="point dimension mismatch"):
            cli.emit_partition(domain, 2, d=d, points=[point])

    @pytest.mark.parametrize("points", ["inf", "nan", "-inf", "1e400", "0.5;nan"])
    def test_non_finite_point_is_exit_2(self, capsys, points):
        code = cli.run(["partition", "--domain", "interval01", "--n", "3", f"--points={points}"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "non-finite" in captured.err


def poly_from_json(obj):
    if "coefficients" in obj:
        return UPoly.from_coeffs(Fraction(c) for c in obj["coefficients"])
    return MPoly.make(obj["dimension"], {tuple(t["alpha"]): Fraction(t["value"]) for t in obj["terms"]})


class TestPolyToJson:
    """Coefficient strings are those of ``str(Fraction)``, byte for byte."""

    VALUES = [Fraction(-3, 4), Fraction(0), Fraction(5), Fraction(-7), Fraction(6, 8),
              Fraction(-10, 4), Fraction(1, 12), Fraction(24, 12), Fraction(-9, 3)]

    def test_upoly_coefficients(self):
        for den in (1, 4, 12):
            coeffs = [v / den for v in self.VALUES] + [Fraction(0), Fraction(1, 3)]
            p = UPoly.from_coeffs(coeffs)
            assert p.den > 1 or den == 1
            assert cli._poly_to_json(p) == {"coefficients": [str(c) for c in coeffs]}
        assert cli._poly_to_json(UPoly.from_coeffs([0, -2, 6])) == {"coefficients": ["0", "-2", "6"]}
        assert cli._poly_to_json(UPoly.zero()) == {"coefficients": []}

    def test_mpoly_terms(self):
        for den in (1, 4, 12):
            terms = {(k, 1): v / den for k, v in enumerate(self.VALUES)}
            p = MPoly.make(2, terms)
            want = [{"alpha": list(e), "value": str(c)} for e, c in sorted(terms.items()) if c]
            assert cli._poly_to_json(p) == {"dimension": 2, "terms": want}
        assert cli._poly_to_json(MPoly.zero(3)) == {"dimension": 3, "terms": []}

    def test_ratio_strs_match_fraction_str(self):
        nums = [0, 1, -1, 6, -6, 12, -35, 70, 10**30 + 6, -(2**70)]
        for den in (1, 2, 6, 35, 3 << 40):
            for k in (1, -1, 2, 3, 7, 10, -70, 1 << 40):
                assert cli._ratio_strs(nums, den, k) == [str(Fraction(k * c, den)) for c in nums]
        assert cli._ratio_strs(iter([4, -3, 0]), 6) == ["2/3", "-1/2", "0"]
        assert cli._ratio_strs([], 5) == []


class TestModuleEntryPoint:
    """Fresh interpreters: ``python -m unitycert`` runs the command line, and
    exact work never imports numpy."""

    @staticmethod
    def run_python(*argv):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        return subprocess.run([sys.executable, *argv], env=env,
                              capture_output=True, text=True, timeout=60)

    # Exact library work in a fresh interpreter, then the first cli.run, then
    # the package's first float solve.
    COLD_START = """
import contextlib, io, sys
import unitycert as uc
from unitycert import cli
def loaded():
    return [m for m in ("argparse", "csv") if m in sys.modules], cli._build_parser.cache_info().currsize
assert uc.verify_pell(8).holds
uc.christoffel_form(uc.ARCSINE, 4)
cli.emit_partition("interval01", 2, points=[[0.25]])
print(*loaded())
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.run(["partition", "--domain", "interval01", "--n", "2", "--points", "0.25"]) == 0
print(*loaded())
print(sorted(m for m in sys.modules if m.startswith("numpy.")))
cert, dual, report = uc.solve_handelman(uc.UPoly.constant(3), 1)
print(report.converged, [float(v) for v in dual.values])
"""

    def test_exact_work_never_imports_numpy(self):
        # pytest has imported numpy, argparse and csv already, so this needs
        # its own process.  Neither module loads, and no parser is built,
        # before the first cli.run.
        done = self.run_python("-c", self.COLD_START)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == [
            "[] 0", "['argparse'] 1", "[]", "True [1.0, 0.5]"]

    def test_success_is_exit_0(self):
        done = self.run_python("-m", "unitycert", "verify", "--identity", "pell", "--n", "3")
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["holds"] is True

    def test_usage_error_is_exit_2(self):
        done = self.run_python("-m", "unitycert", "verify", "--identity", "pell", "--n", "0")
        assert done.returncode == 2
        assert done.stdout == ""


class TestPartitionMembersSumToOne:
    @pytest.mark.parametrize("domain, d", [("interval01", 2), ("interval11", 2), ("simplex", 2), ("simplex", 3)])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_members_read_back_sum_to_one(self, domain, d, n):
        members = cli.emit_partition(domain, n, d=d)["members"]
        polys = [poly_from_json(m["polynomial"]) for m in members]
        total = polys[0]
        for p in polys[1:]:
            total = total + p
        one = UPoly.constant(1) if domain.startswith("interval") else MPoly.constant(d, 1)
        assert total == one
        for member, p, (_, weight, generator) in zip(
            members, polys, identities.partition_members(domain, n, d)
        ):
            assert Fraction(member["weight"]) == weight / len(members)
            assert p == generator * Fraction(member["weight"])


def odd_points(seed, low, high, d, count=6):
    """Seeded points whose coordinates are odd multiples of 1/1024 in [low, high)/1024."""
    rng = random.Random(seed)
    return [[rng.randrange(low, high, 2) / 1024 for _ in range(d)] for _ in range(count)]


class TestPartitionValuesAreExactlyRounded:
    """Each reported value is the double nearest the member's exact value."""

    @pytest.mark.parametrize(
        "domain, n, d, points",
        [("interval01", 7, 2, odd_points(71, 1, 1024, 1) + [[0.1], [1 / 3]]),
         ("interval11", 9, 2, odd_points(73, -1023, 1024, 1) + [[-0.1], [1 / 3]]),
         ("simplex", 5, 1, odd_points(79, 1, 1024, 1) + [[0.1], [1 / 3]]),
         ("simplex", 6, 2, odd_points(83, 1, 512, 2) + [[0.1, 1 / 3]]),
         ("simplex", 3, 3, odd_points(89, 1, 341, 3) + [[1 / 3, 0.1, 1 / 3]])],
    )
    def test_values_equal_float_of_exact_value(self, domain, n, d, points):
        report = cli.emit_partition(domain, n, d=d, points=points)
        members = identities.partition_members(domain, n, d)
        assert len(report["evaluations"]) == len(points)
        for point, evaluation in zip(points, report["evaluations"]):
            exact_point = [Fraction(v) for v in point]
            want = [float(poly_eval(generator * (weight / len(members)), exact_point))
                    for _, weight, generator in members]
            assert evaluation["point"] == point
            assert evaluation["values"] == want
            assert evaluation["sum"] == sum(want)


class TestOutputFile:
    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    def test_unwritable_output_fails_before_the_work(self, tmp_path, capsys, monkeypatch, where):
        def no_work(args):
            raise AssertionError("the command ran before --output was checked")

        monkeypatch.setattr(cli, "_dispatch", no_work)
        target = tmp_path / "missing" / "p.json" if where == "missing-dir" else tmp_path
        code = cli.run(["maxent", "handelman", "--n", "12", "--output", str(target)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: --output ")
        assert captured.err.count("\n") == 1

    def test_failed_command_leaves_existing_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        target.write_text("keep\n", encoding="utf-8")
        code = cli.run(["maxent", "handelman", "--n", "3", "--tol", "nan", "--output", str(target)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: --tol")
        assert target.read_text(encoding="utf-8") == "keep\n"

    def test_failed_command_creates_no_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code = cli.run(["maxent", "handelman", "--n", "3", "--tol", "nan", "--output", str(target)])
        assert code == 2
        assert not target.exists()

    def test_write_to_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code = cli.run(["pell", "--n", "3", "--output", str(target)])
        assert code == 0
        assert capsys.readouterr().out == ""
        payload = json.loads(target.read_text(encoding="utf-8"))
        assert payload["holds"] is True
        assert target.read_text(encoding="utf-8").endswith("\n")


class TestLogLevel:
    ARGV = ["christoffel", "--measure", "arcsine", "--n", "4"]

    def test_debug_records_go_to_stderr_as_json_lines(self, capsys):
        assert cli.run(self.ARGV) == 0
        plain = capsys.readouterr()
        assert cli.run(["--log-level", "DEBUG"] + self.ARGV) == 0
        logged = capsys.readouterr()
        assert logged.out == plain.out
        records = [json.loads(line) for line in logged.err.splitlines()]
        assert records and all(set(r) == {"level", "logger", "message"} for r in records)
        assert any(
            r["level"] == "DEBUG"
            and r["logger"] == "unitycert.momatrix"
            and r["message"].startswith("inverted dim=5 ")
            for r in records
        )

    def test_debug_records_solver_stop(self, capsys):
        argv = ["maxent", "putinar", "--n", "4"]
        assert cli.run(argv) == 0
        plain = capsys.readouterr()
        assert cli.run(["--log-level", "DEBUG"] + argv) == 0
        logged = capsys.readouterr()
        assert logged.out == plain.out
        records = [json.loads(line) for line in logged.err.splitlines()]
        solves = [r for r in records if r["logger"] == "unitycert.maxent"]
        assert len(solves) == 1 and solves[0]["level"] == "DEBUG"
        assert solves[0]["message"].startswith("solve=putinar n=4 iterations=")
        assert " stop=tol residual=" in solves[0]["message"]

    def test_warning_level_drops_debug_and_keeps_warnings(self, capsys):
        argv = ["verify", "--identity", "simplex-equilibrium", "--n", "2"]
        assert cli.run(["--log-level", "WARNING"] + argv) == 0
        records = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        assert [(r["level"], r["logger"]) for r in records] == [
            ("WARNING", "unitycert.identities")
        ]

    def test_unknown_level_is_exit_2(self, capsys):
        assert cli.run(["--log-level", "TRACE"] + self.ARGV) == 2
        assert capsys.readouterr().out == ""

    def test_no_handler_remains_after_run(self, capsys):
        package_logger = logging.getLogger("unitycert")
        handlers, level = list(package_logger.handlers), package_logger.level
        for _ in range(3):
            assert cli.run(["--log-level", "DEBUG"] + self.ARGV) == 0
        assert cli.run(["--log-level", "INFO", "verify", "--identity", "pell", "--n", "0"]) == 2
        assert package_logger.handlers == handlers
        assert package_logger.level == level
        capsys.readouterr()


class TestParserReuse:
    """One process, one parser: no run leaks into the next."""

    def test_second_run_builds_no_parser(self, capsys):
        argv = ["verify", "--identity", "pell", "--n", "3"]
        assert cli.run(argv) == 0
        built = cli._build_parser.cache_info().misses
        assert cli.run(argv) == 0
        assert cli._build_parser.cache_info().misses == built
        capsys.readouterr()

    def test_exact_flag_does_not_stick(self, capsys):
        argv = ["maxent", "handelman", "--n", "2"]
        code, plain = run_json(capsys, argv)
        assert code == 0 and "exact_certificate" not in plain
        code, exact = run_json(capsys, argv + ["--exact"])
        assert code == 0 and exact["exact_reconstruction"] is True
        code, again = run_json(capsys, argv)
        assert code == 0 and again == plain

    def test_log_level_does_not_stick(self, capsys):
        package_logger = logging.getLogger("unitycert")
        handlers = list(package_logger.handlers)
        argv = ["christoffel", "--measure", "arcsine", "--n", "2"]
        assert cli.run(["--log-level", "DEBUG"] + argv) == 0
        assert capsys.readouterr().err != ""
        assert cli.run(argv) == 0
        assert capsys.readouterr().err == ""
        assert package_logger.handlers == handlers

    def test_output_file_does_not_stick(self, tmp_path, capsys):
        target = tmp_path / "pell.json"
        argv = ["pell", "--n", "4"]
        assert cli.run(argv + ["--output", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert cli.run(argv) == 0
        assert capsys.readouterr().out == target.read_text(encoding="utf-8")

    def test_usage_error_between_runs_matches_fresh_processes(self, capsys, monkeypatch):
        # argparse wraps usage lines to the terminal width; fix it for both sides.
        monkeypatch.setenv("COLUMNS", "80")
        runs = [
            ["verify", "--identity", "unity-01", "--n", "3"],
            ["verify", "--identity", "pell", "--n", "-2", "--frobnicate"],
            ["partition", "--domain", "interval11", "--n", "2", "--points", "0.5"],
        ]
        for argv in runs:
            code = cli.run(argv)
            captured = capsys.readouterr()
            fresh = TestModuleEntryPoint.run_python("-m", "unitycert", *argv)
            assert (code, captured.out, captured.err) == (
                fresh.returncode, fresh.stdout, fresh.stderr)
        assert code == 0
