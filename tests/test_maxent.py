import json
import logging
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from unitycert import maxent
from unitycert.maxent import (
    DualFunctional,
    HandelmanCertificate,
    NoInteriorCertificateError,
    PutinarCertificate,
    certificate_from_json,
    certificate_to_json,
    exact_handelman,
    exact_putinar,
    solve_handelman,
    solve_putinar,
    solve_simplex,
    verify_certificate,
    verify_certificate_exact,
)
from unitycert.momatrix import (
    NotPositiveDefiniteError,
    invert_exact,
    invert_symmetric_rational,
    moment_matrix,
)
from unitycert.measures import ARCSINE, functional_for, simplex_uniform
from unitycert.polycore import (
    MPoly,
    UPoly,
    monomials_upto,
    multinomial,
    simplex_generator_power,
)

def const(v):
    return UPoly.constant(v)


def _arcsine_moments(n):
    return [Fraction(math.comb(k, k // 2), 2**k) if k % 2 == 0 else Fraction(0)
            for k in range(2 * n + 1)]


def _hankel_pair(lam, n):
    """The explicit Hankel moment and (1 - x^2)-localizing matrices of lam."""
    return ([[lam[i + j] for j in range(n + 1)] for i in range(n + 1)],
            [[lam[i + j] - lam[i + j + 2] for j in range(n)] for i in range(n)])


def _uniform_simplex_moments(d, basis):
    return [Fraction(math.factorial(d) * math.prod(map(math.factorial, beta)),
                     math.factorial(d + sum(beta))) for beta in basis]


def _power_rows(d, alphas, basis):
    """The coefficients of each g^alpha over basis, from polycore's closed form."""
    rows = []
    for alpha in alphas:
        g = simplex_generator_power(d, alpha)
        assert g.den == 1
        rows.append([g.sparse_nums.get(e, 0) for e in basis])
    return rows


def _dense(rows, width):
    """A table's sparse (column, integer) rows as a dense matrix of Python ints."""
    out = np.zeros((len(rows), width), dtype=object)
    for values, row in zip(out, rows):
        for j, c in row:
            values[j] = c
    return out


class TestSolveHandelman:
    def test_n1_closed_form(self):
        cert, dual, report = solve_handelman(const(3), 1)
        assert report.converged
        expected = {(0, 0): 1.0, (1, 0): 2.0, (0, 1): 2.0}
        for alpha, value in expected.items():
            assert abs(cert.weights[alpha] - value) < 1e-9
        assert abs(dual.values[0] - 1.0) < 1e-9
        assert abs(dual.values[1] - 0.5) < 1e-9

    def test_n2_closed_form(self):
        cert, _, report = solve_handelman(const(6), 2)
        assert report.converged
        expected = {(0, 0): 1, (1, 0): 2, (0, 1): 2, (2, 0): 3, (1, 1): 6, (0, 2): 3}
        for alpha, value in expected.items():
            assert abs(cert.weights[alpha] - value) < 1e-8

    def test_recovery_range(self):
        for n in range(1, 9):
            s = (n + 1) * (n + 2) // 2
            cert, dual, report = solve_handelman(const(s), n)
            assert report.converged
            assert report.residual <= 1e-10
            assert report.iterations <= 100
            for k, value in enumerate(dual.values):
                assert abs(value - 1.0 / (k + 1)) * (k + 1) <= 1e-8
            for (i, j), w in cert.weights.items():
                closed = (i + j + 1) * math.comb(i + j, i)
                assert abs(w - closed) / closed <= 1e-6

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            solve_handelman(UPoly.from_coeffs([0, 0, 1]), 1)

    def test_generic_interior_target(self):
        # 2 + x - x^2 is strictly positive on [0,1].
        p = UPoly.from_coeffs([2, 1, -1])
        cert, _, report = solve_handelman(p, 4)
        assert report.converged
        assert verify_certificate(cert, p) <= 1e-9
        assert all(w > 0 for w in cert.weights.values())

    def test_boundary_target_diagnosed(self):
        with pytest.raises(NoInteriorCertificateError) as exc:
            solve_handelman(UPoly.x(), 3)
        assert "degree 3" in str(exc.value)
        assert not exc.value.report.converged

    def test_kkt_consistency(self):
        tol = 1e-10
        for n in (2, 4, 6):
            s = (n + 1) * (n + 2) // 2
            cert, dual, _ = solve_handelman(const(s), n, tol=tol)
            rows = _power_rows(1, cert.weights, monomials_upto(1, n))
            for (alpha, w), row in zip(cert.weights.items(), rows):
                pairing = sum(float(c) * dual.values[k] for k, c in enumerate(row))
                assert abs(w * pairing - 1.0) <= 10 * tol

    def test_dual_descent_monotone(self):
        _, _, report = solve_handelman(const(21), 5)
        values = report.dual_values
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_uniqueness_two_starts(self):
        tol = 1e-10
        target = const(15)
        cert1, _, _ = solve_handelman(target, 4, tol=tol)
        other_start = [2.0 / ((k + 1) * (k + 2)) for k in range(5)]
        cert2, _, _ = solve_handelman(target, 4, tol=tol, initial=other_start)
        for alpha in cert1.weights:
            assert abs(cert1.weights[alpha] - cert2.weights[alpha]) <= 100 * tol

    def test_infeasible_initial_rejected(self):
        with pytest.raises(ValueError):
            solve_handelman(const(3), 1, initial=[1.0, 2.0])  # <lam, 1-x> < 0

    def test_multivariate_target_rejected_before_solving(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("the solve ran")

        monkeypatch.setattr(maxent, "_solve_handelman_family", boom)
        with pytest.raises(ValueError, match="univariate"):
            solve_handelman(MPoly.constant(2, 6), 12)

    def test_near_boundary_interior_target_still_converges(self):
        # Interior but barely: the dual grows large yet bounded, and must not
        # trip the divergence diagnostic.
        p = UPoly.from_coeffs([Fraction(1, 100), 1])
        cert, dual, report = solve_handelman(p, 3)
        assert report.converged
        assert verify_certificate(cert, p) <= 1e-9

    def test_objective_optimality_cross_check(self):
        for n in (3, 5):
            s = (n + 1) * (n + 2) // 2
            _, _, report = solve_handelman(const(s), n)
            closed = sum(
                math.log((i + j + 1) * math.comb(i + j, i))
                for (i, j) in monomials_upto(2, n)
            )
            assert closed >= report.objective - 1e-6


def _log_barrier(t):
    """value(x) = t x - log x on x > 0 and its Newton system; minimum at 1/t."""

    def value(x):
        return t * x[0] - np.log(x[0]) if x[0] > 0 else None

    def newton_system(x):
        return np.array([t - 1 / x[0]]), lambda: np.array([[1 / x[0] ** 2]])

    return value, newton_system


class TestDampedNewton:
    X0 = np.array([1.0])

    def newton(self, value, newton_system, max_iter=50, x0=X0):
        return maxent._damped_newton(x0, value, newton_system, 1e-10, max_iter)

    def test_tol(self):
        x, iterations, steps, values, stop = self.newton(*_log_barrier(2.0))
        assert stop == "tol" and abs(float(x[0]) - 0.5) <= 1e-12
        assert 0 < iterations == len(steps) == len(values)
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_tol_at_the_start_forms_no_hessian(self):
        value, _ = _log_barrier(2.0)

        def newton_system(x):
            def hessian():
                raise AssertionError("Hessian formed on the final iteration")

            return np.array([2.0 - 1 / x[0]]), hessian

        x0 = np.array([0.5])
        assert self.newton(value, newton_system, x0=x0) == (x0, 0, (), (), "tol")

    def test_budget(self):
        assert self.newton(*_log_barrier(2.0), max_iter=0) == (self.X0, 0, (), (), "budget")

    def test_diverged(self):
        # -log x has no minimizer: each Newton step doubles x.
        x, iterations, steps, _, stop = self.newton(*_log_barrier(0.0))
        assert stop == "diverged" and float(x[0]) > maxent.DIVERGENCE_BOUND
        assert steps == (1.0,) * iterations

    def test_singular(self):
        value, _ = _log_barrier(2.0)
        assert self.newton(value, lambda x: None)[1:] == (0, (), (), "singular")

    def test_line_search(self):
        _, newton_system = _log_barrier(2.0)

        def value(x):  # the domain is the start point alone
            return 0.0 if x[0] == 1 else None

        assert self.newton(value, newton_system)[1:] == (0, (), (), "line_search")

    def test_plateau(self):
        # The gradient stays at 1 while every step is accepted.
        def newton_system(x):
            return np.array([1.0]), lambda: np.array([[1.0]])

        x, iterations, _, _, stop = self.newton(lambda x: x[0], newton_system)
        assert stop == "plateau" and iterations == maxent.PLATEAU_LIMIT
        assert float(x[0]) == 1.0 - maxent.PLATEAU_LIMIT

    def test_damped_phase_is_not_a_plateau(self):
        # The first step raises the gradient a millionfold; it then falls
        # tenfold per step while the objective falls, below the start only
        # after PLATEAU_LIMIT steps.
        gradients = iter([1.0] + [10.0**k for k in range(6, -13, -1)])

        def newton_system(x):
            return np.array([next(gradients)]), lambda: np.array([[1.0]])

        _, iterations, _, _, stop = self.newton(lambda x: 1e3 * x[0], newton_system)
        assert stop == "tol" and iterations == 18

    def test_infeasible_start_rejected(self):
        with pytest.raises(ValueError, match="not strictly feasible"):
            self.newton(*_log_barrier(2.0), x0=np.array([-1.0]))


class TestSolvePutinar:
    def test_n1_closed_form(self):
        cert, dual, report = solve_putinar(1)
        assert report.converged
        assert abs(cert.gram_a[0][0] - 1.0) < 1e-9
        assert abs(cert.gram_a[1][1] - 2.0) < 1e-9
        assert abs(cert.gram_a[0][1]) < 1e-9
        assert abs(cert.gram_b[0][0] - 2.0) < 1e-9
        assert [round(v, 9) for v in dual.values] == [1.0, 0.0, 0.5]

    def test_recovery_range(self):
        for n in range(1, 9):
            cert, dual, report = solve_putinar(n)
            assert report.converged and report.residual <= 1e-10
            assert report.iterations <= 100
            for k, value in enumerate(dual.values):
                if k % 2:
                    assert abs(value) <= 1e-8
                else:
                    exact = math.comb(k, k // 2) / 2**k
                    assert abs(value - exact) / exact <= 1e-8
            inverse = invert_exact(moment_matrix(ARCSINE, n))
            for i in range(n + 1):
                for j in range(n + 1):
                    assert abs(cert.gram_a[i][j] - float(inverse[i][j])) <= 1e-6

    def test_negative_target_diagnosed(self):
        with pytest.raises(NoInteriorCertificateError):
            solve_putinar(1, target=const(-1))

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            solve_putinar(1, target=UPoly.from_coeffs([0, 0, 0, 1]))

    def test_generic_target(self):
        target = UPoly.from_coeffs([3, 1])  # 3 + x > 0 on [-1,1]
        cert, _, report = solve_putinar(3, target=target)
        assert report.converged
        assert verify_certificate(cert, target) <= 1e-9

    def test_kkt_consistency(self):
        tol = 1e-10
        cert, dual, _ = solve_putinar(4, tol=tol)
        n = cert.degree
        moment = [[dual.values[i + j] for j in range(n + 1)] for i in range(n + 1)]
        for i in range(n + 1):
            for j in range(n + 1):
                acc = sum(cert.gram_a[i][k] * moment[k][j] for k in range(n + 1))
                assert abs(acc - (1.0 if i == j else 0.0)) <= 10 * tol

    def test_uniqueness_two_starts(self):
        tol = 1e-10
        cert1, _, _ = solve_putinar(3, tol=tol)
        other = [(0.9**k) * (1 + (-1) ** k) / (2 * (k + 1)) for k in range(7)]
        cert2, _, _ = solve_putinar(3, tol=tol, initial=other)
        for row1, row2 in zip(cert1.gram_a, cert2.gram_a):
            for a, b in zip(row1, row2):
                assert abs(a - b) <= 100 * tol


class TestPutinarAtLargeN:
    """Flagships past the timed sizes, on the O(n^2) node tables."""

    @pytest.mark.parametrize("n", [48, 96])
    def test_flagship_is_the_arcsine_inverse_pair(self, n):
        target = const(2 * n + 1)
        cert, _, report = solve_putinar(n)
        assert report.stop == "tol" and report.residual == 0
        assert cert == maxent._hankel_inverse_pair(n, _arcsine_moments(n), target)

    @pytest.mark.parametrize("n", [1, 2, 5, 12, 24, 48, 96, 160])
    def test_gradient_vanishes_at_the_arcsine_point(self, n):
        # z = e_0 is the flagship optimum: K_A + (1 - x^2) K_B = 2n+1 (CHEBY2).
        table = maxent._chebyshev_table(n)
        unit = np.eye(2 * n + 1)[0]
        _, newton_system, inverses = maxent._putinar_barrier(table, (2 * n + 1) * unit)
        grad, _ = newton_system(unit)
        assert np.all(np.abs(grad) <= _node_bounds(table, inverses(unit))[1])

    @pytest.mark.parametrize("n", [4, 12, 24, 48])
    def test_objective_is_the_exact_log_det(self, n):
        # det M_n = 2^(-n^2) for the arcsine moments, and likewise for the
        # localizing matrix: log det A + log det B = 2 n^2 log 2.
        _, _, report = solve_putinar(n)
        assert math.isclose(report.objective, 2 * n * n * math.log(2), rel_tol=1e-14)

    def test_node_tables_stay_small(self):
        n = 96
        tracemalloc.start()
        try:
            table = maxent._ChebyshevTable(n)
            _, newton_system, _ = maxent._putinar_barrier(table, np.zeros(2 * n + 1))
            _, hessian = newton_system(np.eye(2 * n + 1)[0])
            hessian()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestSolveSimplex:
    def test_d2_n1(self):
        cert, _, report = solve_simplex(2, 1)
        assert report.converged
        expected = {(0, 0, 0): 1.0, (1, 0, 0): 3.0, (0, 1, 0): 3.0, (0, 0, 1): 3.0}
        for alpha, value in expected.items():
            assert abs(cert.weights[alpha] - value) < 1e-8
        # 1 + 3x + 3y + 3(1-x-y) = 4 reconstructs the target constant.
        assert verify_certificate(cert, MPoly.constant(2, 4)) <= 1e-9

    def test_d3_n2_quadratic_weights(self):
        cert, _, report = solve_simplex(3, 2)
        assert report.converged
        assert abs(cert.weights[(2, 0, 0, 0)] - 10.0) < 1e-7
        assert abs(cert.weights[(1, 1, 0, 0)] - 20.0) < 1e-7

    def test_proved_degrees_match_reciprocal_moments(self):
        for d, n in ((1, 1), (1, 2), (2, 1), (2, 2), (3, 2)):
            cert, _, report = solve_simplex(d, n)
            assert report.converged
            f = functional_for(simplex_uniform(d))
            for alpha, w in cert.weights.items():
                closed = 1 / f.poly_moment(simplex_generator_power(d, alpha))
                assert abs(w - float(closed)) / float(closed) <= 1e-6

    def test_exploration_degree_reports_only(self):
        # Beyond the proved degrees the solver's result is an observation;
        # assert convergence and strict positivity, nothing more.
        cert, _, report = solve_simplex(2, 3)
        assert report.converged
        assert all(w > 0 for w in cert.weights.values())


class TestPastTheMonomialCeiling:
    """Sizes where monomial-moment Newton plateaus above the tolerance."""

    def test_handelman_n12(self):
        n = 12
        flagship = const(91)
        cert, dual, report = solve_handelman(flagship, n)
        assert report.converged and report.residual == 0
        assert verify_certificate_exact(cert, flagship)
        assert all(w > 0 for w in cert.weights.values())
        assert all(abs(v - 1 / (k + 1)) <= 1e-15 for k, v in enumerate(dual.values))
        p = UPoly.from_coeffs([2, 1, -1])
        cert, _, report = solve_handelman(p, n)
        assert report.converged and report.residual <= 1e-10
        assert all(w > 0 for w in cert.weights.values())

    def test_simplex_d3_n7(self):
        cert, _, report = solve_simplex(3, 7)
        assert report.converged and report.residual <= 1e-10
        assert all(w > 0 for w in cert.weights.values())
        assert verify_certificate(cert, MPoly.constant(3, math.comb(11, 7))) <= 1e-9


def _rational_pd(rng, size):
    """m m' + size I for a random rational m: rational and positive definite."""
    m = [[Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(size)] for _ in range(size)]
    return [[sum((m[i][k] * m[j][k] for k in range(size)), Fraction(size * (i == j)))
             for j in range(size)] for i in range(size)]


def _putinar_target(gram_a, gram_b, n):
    """v_n' A v_n + (1-x^2) v_{n-1}' B v_{n-1}."""
    coeffs = [Fraction(0)] * (2 * n + 1)
    for i in range(n + 1):
        for j in range(n + 1):
            coeffs[i + j] += gram_a[i][j]
    for i in range(n):
        for j in range(n):
            coeffs[i + j] += gram_b[i][j]
            coeffs[i + j + 2] -= gram_b[i][j]
    return UPoly.from_coeffs(coeffs)


class TestExactStep:
    """Solves whose double certificate misses the tolerance ship an exact one."""

    @pytest.mark.parametrize("n", [12, 16])
    def test_putinar_flagship_snaps_in_chebyshev_moments(self, n):
        # The arcsine moments need denominators 2^(2n-2) > 10^6 in monomials.
        target = const(2 * n + 1)
        cert, dual, report = solve_putinar(n)
        assert report.converged and report.residual == 0
        assert verify_certificate_exact(cert, target)
        exact_inverse = invert_exact(moment_matrix(ARCSINE, n))
        assert cert.gram_a == exact_inverse
        assert exact_putinar(n, dual, target=target).gram_a == exact_inverse

    @pytest.mark.parametrize("n", [32, 48])
    def test_handelman_dual_rebuilds_the_certificate(self, n):
        # The snapped Bernstein point comes back as an exact dual; a double
        # copy of it no longer snaps at this size.
        flagship = const(Fraction((n + 1) * (n + 2), 2))
        cert, dual, report = solve_handelman(flagship, n)
        assert report.converged and report.residual == 0
        assert dual.values == tuple(Fraction(1, k + 1) for k in range(n + 1))
        assert exact_handelman(flagship, n, dual).weights == cert.weights
        with pytest.raises(ValueError, match="does not snap"):
            exact_handelman(flagship, n, DualFunctional(tuple(map(float, dual.values))))

    @pytest.mark.parametrize("n", [24, 32])
    def test_putinar_dual_rebuilds_the_certificate(self, n):
        target = const(2 * n + 1)
        cert, dual, report = solve_putinar(n)
        assert report.converged and report.residual == 0
        assert list(dual.values) == _arcsine_moments(n)
        assert exact_putinar(n, dual, target=target) == cert

    def test_putinar_double_dual_that_snaps_wrongly(self):
        # Rounded to doubles, the n=32 flagship dual passes _recover but snaps
        # to a point whose Hankel pair is not positive definite.
        n = 32
        lam = _arcsine_moments(n)
        doubles = DualFunctional(tuple(map(float, lam)))
        assert maxent._recover(maxent._chebyshev_table(n).chebyshev_moments(doubles.values))
        with pytest.raises(ValueError, match="does not snap to a strictly feasible point"):
            exact_putinar(n, doubles)
        # The exact dual is inverted as it is.
        assert exact_putinar(n, DualFunctional(tuple(lam))).gram_a == invert_exact(
            moment_matrix(ARCSINE, n))

    def test_snap_after_a_budget_stop(self):
        # Started at the optimum with no iterations: the snap still ships,
        # while rounding waits for a tol or plateau stop.
        n = 12
        cert, _, report = solve_putinar(n, max_iter=0, initial=_arcsine_moments(n))
        assert report.stop == "budget" and report.converged and report.residual == 0
        assert cert.gram_a == invert_exact(moment_matrix(ARCSINE, n))
        with pytest.raises(NoInteriorCertificateError):
            solve_putinar(n, max_iter=0)

    def test_best_rational_matches_limit_denominator(self):
        rng = random.Random(20261019)
        bound = maxent.RATIONALIZE_DENOMINATOR_BOUND
        values = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1 / 3, -2.0, 1e300]
        for _ in range(2000):
            bits = rng.getrandbits(64)
            if bits >> 52 & 0x7FF != 0x7FF:  # skip infinities and NaNs
                values.append(np.frombuffer(bits.to_bytes(8, "little"), dtype=np.float64)[0])
            values.append(rng.uniform(-1, 1))
            q = rng.randrange(1, 2 * bound)
            values.append(rng.randrange(-q, q) / q * (1 + rng.uniform(-1e-12, 1e-12)))
        for v in values:
            want = Fraction(float(v)).limit_denominator(bound)
            p, q = maxent._best_rational(*float(v).as_integer_ratio(), bound)
            assert (p, q) == (want.numerator, want.denominator), v

    def test_recover_keeps_only_points_near_their_snap(self):
        point = maxent._recover(np.array([1 / 3, 0.25, 1e-17, -2.0]))
        assert point == [Fraction(1, 3), Fraction(1, 4), 0, -2]
        assert maxent._recover(np.array([0.25, math.pi / 10])) is None

    # At n=4 the double certificate already meets the default tolerance;
    # tol=0 asks for an exact one.
    @pytest.mark.parametrize("n, seed, tol", [(4, 0, 0.0), (4, 1, 0.0),
                                              (8, 2, maxent.DEFAULT_TOL), (8, 3, maxent.DEFAULT_TOL)])
    def test_seeded_putinar_targets_are_exact(self, n, seed, tol):
        rng = random.Random(1300 + seed)
        target = _putinar_target(_rational_pd(rng, n + 1), _rational_pd(rng, n), n)
        cert, _, report = solve_putinar(n, tol=tol, target=target)
        assert report.converged and report.residual == 0
        assert verify_certificate_exact(cert, target)
        for gram in (cert.gram_a, cert.gram_b):
            invert_symmetric_rational(gram)  # positive definite, or it raises


class TestVerifyCertificate:
    def test_handelman_examples(self):
        cert = HandelmanCertificate(
            dimension=1,
            degree=1,
            weights={(0, 0): Fraction(1), (1, 0): Fraction(2), (0, 1): Fraction(2)},
        )
        assert verify_certificate(cert, const(3)) == 0
        assert verify_certificate(cert, const(4)) == 1
        assert verify_certificate_exact(cert, const(3))
        assert not verify_certificate_exact(cert, const(4))

    def test_putinar_example(self):
        cert = PutinarCertificate(
            degree=1,
            gram_a=((Fraction(1), Fraction(0)), (Fraction(0), Fraction(2))),
            gram_b=((Fraction(2),),),
        )
        assert verify_certificate(cert, const(3)) == 0
        assert verify_certificate_exact(cert, const(3))

    def test_exact_mode_requires_rationals(self):
        cert = HandelmanCertificate(dimension=1, degree=1, weights={(0, 0): 1.0})
        with pytest.raises(TypeError):
            verify_certificate_exact(cert, const(1))

    def test_dimension_mismatch(self):
        cert = HandelmanCertificate(dimension=2, degree=1, weights={(0, 0, 0): Fraction(1)})
        with pytest.raises(ValueError):
            verify_certificate(cert, const(1))

    def test_float_certificate_is_exact_residual(self):
        handelman = HandelmanCertificate(
            dimension=1, degree=1, weights={(0, 0): 0.1, (1, 0): 0.2, (0, 1): 0.3}
        )
        putinar, _, _ = solve_putinar(4)
        for cert, target in ((handelman, const(Fraction(3, 10))), (putinar, const(9))):
            assert verify_certificate(cert, target) == float(maxent._exact_residual(cert, target))
        assert verify_certificate(handelman, const(Fraction(3, 10))) > 0

    @pytest.mark.parametrize(
        "gram_a, gram_b",
        [
            (((1, 0), (0,)), ((1,),)),  # ragged A
            (((1, 0, 0), (0, 1, 0), (0, 0, 1)), ((1,),)),  # A of degree 2
            (((1, 0), (0, 1)), ((1, 0), (0, 1))),  # B of degree 2
            (((1, 0), (0, 1)), ()),  # no B
        ],
        ids=["ragged-a", "a-3x3", "b-2x2", "b-empty"],
    )
    def test_malformed_gram_shapes_rejected(self, gram_a, gram_b):
        # A is (n+1) x (n+1) and B is n x n, or the flattened entries misread.
        cert = PutinarCertificate(1, gram_a, gram_b)
        from_json = certificate_from_json({"type": "putinar", "n": 1, "gramA": gram_a,
                                           "gramB": gram_b})
        for check in (verify_certificate, verify_certificate_exact):
            for c in (cert, from_json):
                with pytest.raises(ValueError, match="Putinar certificate must be"):
                    check(c, const(3))

    @pytest.mark.parametrize("n", [-1, -3])
    def test_negative_putinar_degree_rejected(self, n):
        cert = certificate_from_json({"type": "putinar", "n": n, "gramA": [], "gramB": []})
        for check in (verify_certificate, verify_certificate_exact):
            with pytest.raises(ValueError, match=f"degree must be >= 0, got {n}$"):
                check(cert, const(3))

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_entries_rejected(self, bad):
        handelman = certificate_from_json(json.loads(
            '{"type": "handelman", "d": 1, "n": 1, "weights": [{"alpha": [0, 0], "value": 1.0},'
            f' {{"alpha": [1, 0], "value": {bad}}}, {{"alpha": [0, 1], "value": 2.0}}]}}'
        ))
        putinar = certificate_from_json(json.loads(
            f'{{"type": "putinar", "n": 1, "gramA": [[1.0, 0.0], [0.0, {bad}]], "gramB": [[2.0]]}}'
        ))
        for cert in (handelman, putinar):
            with pytest.raises(ValueError, match="must be finite"):
                verify_certificate(cert, const(3))


class TestRationalization:
    def test_dual_rationalizes_to_lebesgue_moments(self):
        # The flagship weights are 1/<lebesgue, x^i (1-x)^j> = (i+j+1) C(i+j, i).
        n = 3
        _, dual, _ = solve_handelman(const(10), n)
        cert = exact_handelman(const(10), n, dual)
        assert cert.weights == {(i, j): (i + j + 1) * math.comb(i + j, i)
                                for i, j in monomials_upto(2, n)}

    def test_exact_handelman(self):
        _, dual, _ = solve_handelman(const(3), 1)
        cert = exact_handelman(const(3), 1, dual)
        assert cert.weights == {(0, 0): 1, (1, 0): 2, (0, 1): 2}
        assert verify_certificate_exact(cert, const(3))

    def test_exact_simplex(self):
        _, dual, _ = solve_simplex(2, 2)
        target = MPoly.constant(2, 10)
        cert = exact_handelman(target, 2, dual)
        assert verify_certificate_exact(cert, target)

    def test_exact_putinar(self):
        for n in (1, 4, 8):
            _, dual, _ = solve_putinar(n)
            cert = exact_putinar(n, dual, target=const(2 * n + 1))
            assert verify_certificate_exact(cert, const(2 * n + 1))
            exact_inverse = invert_exact(moment_matrix(ARCSINE, n))
            assert cert.gram_a == exact_inverse

    def test_exact_putinar_n11_flagship(self):
        # The largest flagship the benchmark solves.  Exact recovery rests on
        # the dual snapping to the arcsine moments, whose denominators reach
        # 2^19; in Chebyshev moments the solve lands on them to within a few
        # ulps, far inside the snapping resolution.
        n = 11
        target = const(2 * n + 1)
        _, dual, report = solve_putinar(n)
        assert report.converged and report.residual <= 1e-10
        assert max(abs(v - float(m)) for v, m in zip(dual.values, _arcsine_moments(n))) <= 1e-15
        cert = exact_putinar(n, dual, target=target)
        assert verify_certificate_exact(cert, target)
        assert cert.gram_a == invert_exact(moment_matrix(ARCSINE, n))

    def test_exact_putinar_matches_bareiss(self):
        for n in range(1, 17):
            lam = _arcsine_moments(n)
            cert = exact_putinar(n, DualFunctional(tuple(lam)))
            hankel, localizing = _hankel_pair(lam, n)
            assert cert.gram_a == invert_symmetric_rational(hankel)
            assert cert.gram_b == invert_symmetric_rational(localizing)

    @pytest.mark.parametrize(
        "lam",
        [
            (1, 0, 2),  # localizing [1 - 2]
            (1, 1, Fraction(1, 2), 0, 0),  # moment minor of order 2 is -1/2
            (1, 0, Fraction(1, 2), 0, Fraction(1, 2)),  # localizing minor of order 2 is 0
        ],
    )
    def test_not_positive_definite_dual_like_bareiss(self, lam):
        lam = tuple(map(Fraction, lam))
        n = len(lam) // 2
        want = None
        for matrix in _hankel_pair(lam, n):
            try:
                invert_symmetric_rational(matrix)
            except NotPositiveDefiniteError as exc:
                want = (exc.order, exc.minor)
                break
        assert want is not None
        with pytest.raises(NotPositiveDefiniteError) as exc:
            exact_putinar(n, DualFunctional(lam))
        assert (exc.value.order, exc.value.minor) == want

    def test_length_check(self):
        with pytest.raises(ValueError):
            exact_putinar(2, DualFunctional((1.0, 0.0, 0.5)))

    def test_degree_zero_rejected_like_the_solver(self):
        for call in (lambda: exact_putinar(0, DualFunctional((Fraction(1),))),
                     lambda: solve_putinar(0)):
            with pytest.raises(ValueError, match="n must be >= 1"):
                call()

    def test_infeasible_rationalized_dual(self):
        with pytest.raises(ValueError):
            exact_handelman(const(3), 1, DualFunctional((1.0, 2.0)))  # <lam, 1-x> < 0


class TestSerialization:
    def test_handelman_round_trip(self):
        cert, _, report = solve_handelman(const(3), 1)
        payload = certificate_to_json(cert)
        assert payload["type"] == "handelman"
        recovered = certificate_from_json(json.loads(json.dumps(payload)))
        assert recovered.dimension == cert.dimension
        assert recovered.degree == cert.degree
        assert recovered.weights == dict(cert.weights)
        assert set(report.to_json()) == {
            "iterations", "residual", "objective", "converged", "stop_reason"
        }
        assert report.to_json()["stop_reason"] == report.stop == "tol"

    def test_exact_values_round_trip_as_strings(self):
        cert = HandelmanCertificate(
            dimension=1, degree=1, weights={(0, 0): Fraction(1, 3)}
        )
        payload = certificate_to_json(cert)
        assert payload["weights"][0]["value"] == "1/3"
        recovered = certificate_from_json(payload)
        assert recovered.weights[(0, 0)] == Fraction(1, 3)

    def test_putinar_round_trip(self):
        cert, _, _ = solve_putinar(2)
        payload = certificate_to_json(cert)
        recovered = certificate_from_json(payload)
        assert recovered.gram_a == cert.gram_a
        assert recovered.gram_b == cert.gram_b

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            certificate_from_json({"type": "mystery"})

    @pytest.mark.parametrize(
        "payload, field",
        [
            ({"n": 1}, "type"),
            ({"type": "putinar", "n": 1}, "gramA"),
            ({"type": "putinar", "n": 1, "gramA": [[1]]}, "gramB"),
            ({"type": "putinar", "gramA": [[1]], "gramB": []}, "n"),
            ({"type": "handelman", "d": 1, "n": 1}, "weights"),
            ({"type": "handelman", "n": 1, "weights": []}, "d"),
            ({"type": "handelman", "d": 1, "n": 1, "weights": [{"value": "1"}]}, "alpha"),
            ({"type": "handelman", "d": 1, "n": 1, "weights": [{"alpha": [0, 0]}]}, "value"),
        ],
        ids=["type", "gramA", "gramB", "putinar-n", "weights", "d", "alpha", "value"],
    )
    def test_missing_field_rejected(self, payload, field):
        with pytest.raises(ValueError, match=f"no '{field}' field"):
            certificate_from_json(payload)

    def test_repeated_alpha_rejected(self):
        # Read as a dict, the second weight would silently replace the first.
        payload = {"type": "handelman", "d": 1, "n": 1, "weights": [
            {"alpha": [0, 0], "value": "1"}, {"alpha": [1, 0], "value": "1"},
            {"alpha": [0, 0], "value": "2"}]}
        with pytest.raises(ValueError, match=r"alpha \[0, 0\] twice"):
            certificate_from_json(payload)


class TestTargetRange:
    HUGE = 10**400  # finite as a rational, past the largest double

    def test_putinar_rejects_huge_coefficient(self):
        with pytest.raises(ValueError, match="finite double"):
            solve_putinar(2, target=const(self.HUGE))

    def test_handelman_rejects_huge_coefficient(self):
        with pytest.raises(ValueError, match="finite double"):
            solve_handelman(UPoly.from_coeffs([1, -self.HUGE]), 2)


class TestSolveLog:
    def test_one_debug_record_per_solve(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="unitycert.maxent"):
            solve_handelman(const(6), 2)
            solve_simplex(2, 1)
            solve_putinar(2)
        messages = [r.getMessage() for r in caplog.records if r.name == "unitycert.maxent"]
        assert [m.split()[:2] for m in messages] == [
            ["solve=handelman", "n=2"],
            ["solve=simplex", "n=1"],
            ["solve=putinar", "n=2"],
        ]
        assert all(" stop=tol " in m and " residual=" in m for m in messages)

    def test_failed_solve_logs_its_stop_reason(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="unitycert.maxent"):
            with pytest.raises(NoInteriorCertificateError):
                solve_handelman(UPoly.x(), 3)
            with pytest.raises(NoInteriorCertificateError):
                solve_putinar(2, target=const(5), max_iter=0)
        stops = [
            dict(field.split("=") for field in r.getMessage().split())["stop"]
            for r in caplog.records
            if r.name == "unitycert.maxent"
        ]
        assert stops == ["diverged", "budget"]

    def test_silent_above_debug(self, caplog):
        with caplog.at_level(logging.INFO, logger="unitycert.maxent"):
            solve_putinar(1)
        assert not [r for r in caplog.records if r.name == "unitycert.maxent"]


class TestBasisMaps:
    @pytest.mark.parametrize("n", [1, 4, 12])
    def test_bernstein_moments_of_lebesgue(self, n):
        # Every b_{i,n} integrates to 1/(n+1) on [0,1].
        table = maxent._generator_table(1, n)
        lebesgue = [Fraction(1, k + 1) for k in range(n + 1)]
        assert table.monomial_moments([Fraction(1, n + 1)] * (n + 1)) == lebesgue
        assert table.bernstein_moments(lebesgue) == [Fraction(1, n + 1)] * (n + 1)

    @pytest.mark.parametrize("d, n", [(2, 3), (3, 2)])
    def test_bernstein_moments_of_the_uniform_simplex(self, d, n):
        table = maxent._generator_table(d, n)
        uniform = _uniform_simplex_moments(d, table.basis)
        mass = Fraction(1, math.comb(n + d, d))
        assert table.bernstein_moments(uniform) == [mass] * len(table.basis)
        assert table.monomial_moments([mass] * len(table.basis)) == uniform

    @pytest.mark.parametrize("d, n", [(1, 6), (2, 3), (3, 2)])
    def test_pairing_is_the_generator_pairing(self, d, n):
        # The lift rows of the x^beta write them in the top-degree generators:
        # the inverse of their coefficient rows.
        table = maxent._generator_table(d, n)
        size = len(table.basis)
        homog = _dense([table.homogenized(beta) for beta in table.basis], size)
        assert (homog @ _dense(table.top_terms, size) == np.eye(size, dtype=int)).all()
        uniform = _uniform_simplex_moments(d, table.basis)
        rows = _power_rows(d, table.alphas, table.basis)
        exact = [sum(c * y for c, y in zip(row, uniform)) for row in rows]
        z = np.array([float(v) for v in table.bernstein_moments(uniform)])
        assert np.allclose(table.pairing @ z, [float(v) for v in exact], rtol=1e-15, atol=0)
        assert (table.pairing >= 0).all()

    @pytest.mark.parametrize("n", [1, 4, 11])
    def test_chebyshev_unit_is_the_arcsine_functional(self, n):
        table = maxent._chebyshev_table(n)
        unit = [Fraction(int(k == 0)) for k in range(2 * n + 1)]
        assert table.monomial_moments(unit) == _arcsine_moments(n)
        assert table.chebyshev_moments(_arcsine_moments(n)) == unit
        assert (table.monomial >= 0).all()

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_chebyshev_moment_matrices_are_congruent(self, n):
        # M_T(z) = Q M(y) Q' and L_T(z) = Q L(y) Q' for the T_j coefficients Q.
        rng = random.Random(1100 + n)
        y = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(2 * n + 1)]
        table = maxent._chebyshev_table(n)
        z = np.array(table.chebyshev_moments(y), dtype=object)
        q = table.cheb
        hankel = np.array([[y[i + j] for j in range(n + 1)] for i in range(n + 1)])
        localizing = np.array([[y[i + j] - y[i + j + 2] for j in range(n)] for i in range(n)])
        q_n = q[: n + 1, : n + 1]
        m_t, l_t = _chebyshev_pair(z, n)
        assert (m_t == q_n @ hankel @ q_n.T).all()
        assert (l_t == q[:n, :n] @ localizing @ q[:n, :n].T).all()
        # The solver's node Gram holds the same pair in its diagonal blocks.
        z_double = np.array([float(v) for v in z])
        _assert_gram_matches(table, z_double, m_t, l_t)

    def test_initial_converts_exactly(self):
        rng = random.Random(1200)
        for table in (maxent._generator_table(1, 5), maxent._generator_table(2, 3)):
            y = [Fraction(rng.randint(1, 99), rng.randint(1, 99)) for _ in table.basis]
            assert table.monomial_moments(table.bernstein_moments(y)) == y
        table = maxent._chebyshev_table(4)
        y = [Fraction(rng.randint(-99, 99), rng.randint(1, 99)) for _ in range(9)]
        assert table.monomial_moments(table.chebyshev_moments(y)) == y
        # Dyadic double moments convert without rounding, also as numpy scalars.
        arcsine = np.array([float(v) for v in _arcsine_moments(4)], dtype=np.float32)
        start = maxent._doubles_of(table.chebyshev_moments, arcsine, "")
        assert start.tolist() == [1.0] + [0.0] * 8
        _, _, report = solve_putinar(2, initial=np.array([6, 0, 2, 0, 1]))  # numpy ints
        assert report.converged

    def test_infeasible_start_rejected(self):
        with pytest.raises(ValueError, match="not strictly feasible"):
            solve_handelman(const(3), 1, initial=[1.0, 2.0])  # <y, 1-x> < 0
        with pytest.raises(ValueError, match="not strictly feasible"):
            solve_putinar(2, initial=[1.0, 0.0, 0.5, 0.0, 0.1])  # det M(y) < 0
        with pytest.raises(ValueError, match="finite"):
            solve_putinar(2, initial=[1.0, 0.0, 0.5])
        with pytest.raises(ValueError, match="finite"):
            solve_simplex(2, 1, initial=[1.0, math.nan, 0.3])


def _finite_differences(function, x, h):
    """Central differences of function along each coordinate, as columns."""
    columns = []
    for l in range(len(x)):
        step = np.zeros(len(x))
        step[l] = h
        columns.append((np.asarray(function(x + step)) - np.asarray(function(x - step))) / (2 * h))
    return np.array(columns).T


def _chebyshev_pair(z, n):
    """M_T(z) and L_T(z) entry by entry: (z_{i+j} + z_{|i-j|}) / 2 = <y, T_i T_j>, and
    the same over s_k = <y, (1 - x^2) T_k> = z_k/2 - (z_{k+2} + z_{|k-2|})/4."""
    s = [z[k] / 2 - (z[k + 2] + z[abs(k - 2)]) / 4 for k in range(2 * n - 1)]
    return tuple(np.array([[(seq[i + j] + seq[abs(i - j)]) / 2 for j in range(size)]
                           for i in range(size)]) for seq, size in ((z, n + 1), (s, n)))


def _assert_gram_matches(table, z, m_t, l_t):
    """``table.gram(z)`` is M_T and L_T within (4n+4) eps |V|' diag(|P|'|z|) |V|,
    for the node values V and transform P, and exactly zero off its diagonal blocks."""
    n = table.n
    gram = table.gram(z)
    values = np.abs(table.values)
    bound = (4 * n + 4) * np.finfo(float).eps * (
        values.T @ (values * (np.abs(z) @ np.abs(table.transform))[:, None]))
    assert not gram[: n + 1, n + 1 :].any() and not gram[n + 1 :, : n + 1].any()
    for exact, rows in ((m_t, slice(0, n + 1)), (l_t, slice(n + 1, None))):
        assert np.all(np.abs(gram[rows, rows] - exact.astype(float)) <= bound[rows, rows])


class TestBarriers:
    @pytest.mark.parametrize("d, n", [(1, 6), (2, 3)])
    def test_handelman_derivatives_match_finite_differences(self, d, n):
        table = maxent._generator_table(d, n)
        z = np.array([float(v) for v in table.bernstein_moments(
            _uniform_simplex_moments(d, table.basis))])
        value, newton_system, _ = maxent._handelman_barrier(table.pairing, np.zeros(len(z)))
        grad, hessian = newton_system(z)
        h = 1e-4 * z.min()
        fd_grad = _finite_differences(lambda x: [value(x)], z, h)[0]
        assert np.max(np.abs(fd_grad - grad)) <= 1e-6 * np.max(np.abs(grad))
        fd_hess = _finite_differences(lambda x: newton_system(x)[0], z, h)
        assert np.max(np.abs(fd_hess - hessian())) <= 1e-6 * np.max(np.abs(hessian()))

    def test_barriers_keep_the_newest_point(self):
        table = maxent._generator_table(1, 4)
        z = np.array([float(v) for v in table.bernstein_moments(
            _uniform_simplex_moments(1, table.basis))])
        value, _, pairings = maxent._handelman_barrier(table.pairing, np.zeros(len(z)))
        value(z)
        kept = pairings(z)
        assert pairings(z) is kept
        assert pairings(z.copy()) is not kept
        n = 3
        table = maxent._chebyshev_table(n)
        z = np.array([float(v) for v in table.chebyshev_moments(_arcsine_moments(n))])
        _, newton_system, inverses = maxent._putinar_barrier(table, np.zeros(2 * n + 1))
        newton_system(z)
        kept = inverses(z)
        assert inverses(z) is kept
        assert all(np.array_equal(a, b) for a, b in zip(inverses(z.copy()), kept))


def _chebyshev_moments_of_atoms(rng, n):
    """Chebyshev moments of 2n+2 weighted atoms on [-1, 1]: T_k(cos t) = cos kt."""
    angles = np.pi * rng.random(2 * n + 2)
    masses = 0.5 + rng.random(2 * n + 2)
    return np.array([(masses * np.cos(k * angles)).sum() for k in range(2 * n + 1)])


def _loop_cheb_derivatives(n):
    """d M_T / d z_k and d L_T / d z_k, entry by entry, one matrix per k."""

    def ds(j, k):  # of s_j = z_j/2 - (z_{j+2} + z_{|j-2|})/4
        return (j == k) / 2 - ((j + 2 == k) + (abs(j - 2) == k)) / 4

    size = 2 * n + 1
    moment = [[[((i + j == k) + (abs(i - j) == k)) / 2 for j in range(n + 1)]
               for i in range(n + 1)] for k in range(size)]
    localizing = [[[(ds(i + j, k) + ds(abs(i - j), k)) / 2 for j in range(n)]
                   for i in range(n)] for k in range(size)]
    return np.array(moment, dtype=float), np.array(localizing, dtype=float)


def _loop_logdet_gradient(grams, derivatives):
    """-sum_ij W[i][j] E_k[i][j] over both log-dets, entry by entry."""
    return np.array([
        -sum(w[i, j] * e[k][i, j] for w, e in zip(grams, derivatives)
             for i in range(len(w)) for j in range(len(w)))
        for k in range(len(derivatives[0]))
    ])


def _loop_logdet_hessian(grams, derivatives):
    """tr(W E_k W E_l) over both log-dets, one (k, l) at a time."""
    size = len(derivatives[0])
    return np.array([
        [sum(np.trace(w @ e[k] @ w @ e[l]) for w, e in zip(grams, derivatives))
         for l in range(size)]
        for k in range(size)
    ])


def _node_bounds(table, grams):
    """First-order rounding bounds of the node products, for the node values V,
    the transform P and the block-diagonal pair W of inverse Grams:
    5(n+1) eps |P| (|V||W||V|')^2 |P|' for the Hessian and
    5(n+1) eps |P| diag(|V||W||V|') for the gradient."""
    n = table.n
    w = np.zeros((2 * n + 1, 2 * n + 1))
    w[: n + 1, : n + 1], w[n + 1 :, n + 1 :] = np.abs(grams[0]), np.abs(grams[1])
    values, transform = np.abs(table.values), np.abs(table.transform)
    kernel = values @ w @ values.T
    scale = 5 * (n + 1) * np.finfo(float).eps
    return scale * transform @ kernel**2 @ transform.T, scale * transform @ np.diag(kernel)


class TestKernels:
    """The Putinar barrier's node kernels against the loop and kron log-det derivatives."""

    @pytest.mark.parametrize("n", range(1, 13))
    def test_logdet_hessian_matches_loop(self, n):
        rng = np.random.default_rng(100 + n)
        z = _chebyshev_moments_of_atoms(rng, n)
        table = maxent._chebyshev_table(n)
        _, newton_system, inverses = maxent._putinar_barrier(table, np.zeros(2 * n + 1))
        grams = inverses(z)
        derivatives = _loop_cheb_derivatives(n)
        want = _loop_logdet_hessian(grams, derivatives)
        assert np.all(np.abs(newton_system(z)[1]() - want) <= _node_bounds(table, grams)[0])

    @pytest.mark.parametrize("n", range(1, 13))
    def test_logdet_hessian_is_the_antidiagonal_kron_product(self, n):
        # The maps are A_M = [vec dM_T/dz_k]_k and A_L = [vec dL_T/dz_k]_k;
        # the Hessian is A' (W kron W) A summed over both.
        rng = np.random.default_rng(200 + n)
        z = _chebyshev_moments_of_atoms(rng, n)
        t = rng.standard_normal(2 * n + 1)
        table = maxent._chebyshev_table(n)
        _, newton_system, inverses = maxent._putinar_barrier(table, t)
        maps = [e.reshape(2 * n + 1, -1).T for e in _loop_cheb_derivatives(n)]
        grams = inverses(z)
        grad, hessian = newton_system(z)
        want_grad = t - sum(a.T @ w.ravel() for a, w in zip(maps, grams))
        want_hess = sum(a.T @ np.kron(w, w) @ a for a, w in zip(maps, grams))
        assert np.allclose(grad, want_grad, rtol=0, atol=1e-14 * np.abs(want_grad).max())
        assert np.allclose(hessian(), want_hess, rtol=0, atol=1e-14 * np.abs(want_hess).max())

    @pytest.mark.parametrize("n", range(1, 13))
    def test_logdet_hessian_matches_finite_differences(self, n):
        rng = np.random.default_rng(300 + n)
        z = _chebyshev_moments_of_atoms(rng, n)
        table = maxent._chebyshev_table(n)
        value, newton_system, inverses = maxent._putinar_barrier(table, np.zeros(2 * n + 1))
        grad, hessian = newton_system(z)
        # Steps of 1e-4 of the smallest eigenvalue of M_T and L_T: truncation
        # error about 1e-8 relative.
        smallest = min(np.linalg.eigvalsh(np.linalg.inv(w))[0] for w in inverses(z))
        h = 1e-4 * smallest
        fd_grad = _finite_differences(lambda x: [value(x)], z, h)[0]
        assert np.max(np.abs(fd_grad - grad)) <= 1e-6 * np.max(np.abs(grad))
        fd_hess = _finite_differences(lambda x: newton_system(x)[0], z, h)
        assert np.max(np.abs(fd_hess - hessian())) <= 1e-6 * np.max(np.abs(hessian()))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_antidiag_sums_match_loop(self, n):
        # The gradient of -log det M_T - log det L_T: minus the pairings tr(W E_k).
        rng = np.random.default_rng(400 + n)
        z = _chebyshev_moments_of_atoms(rng, n)
        table = maxent._chebyshev_table(n)
        _, newton_system, inverses = maxent._putinar_barrier(table, np.zeros(2 * n + 1))
        grams = inverses(z)
        derivatives = _loop_cheb_derivatives(n)
        want = _loop_logdet_gradient(grams, derivatives)
        assert np.all(np.abs(newton_system(z)[0] - want) <= _node_bounds(table, grams)[1])

    @pytest.mark.parametrize("n", range(1, 12))
    def test_localizing_assembly_matches_loop(self, n):
        rng = np.random.default_rng(500 + n)
        z = rng.integers(-99, 99, 2 * n + 1).astype(float)
        s = [z[k] / 2 - (z[k + 2] + z[abs(k - 2)]) / 4 for k in range(2 * n - 1)]
        want = np.array([[(s[i + j] + s[abs(i - j)]) / 2 for j in range(n)] for i in range(n)])
        moment = np.array([[(z[i + j] + z[abs(i - j)]) / 2 for j in range(n + 1)]
                           for i in range(n + 1)])
        _assert_gram_matches(maxent._chebyshev_table(n), z, moment, want)


class TestIntegerExactSide:
    @pytest.mark.parametrize("d, n", [(1, 6), (2, 4), (3, 3)])
    def test_generator_rows_are_integer_coefficients(self, d, n):
        # The top block holds the coefficients of x^gamma, and lift writes
        # every g^alpha in the x^gamma: together they give its coefficients.
        table = maxent._generator_table(d, n)
        assert all(type(c) is int for rows in (table.top_terms, table.lift)
                   for row in rows for _, c in row)
        block = _dense(table.top_terms, len(table.basis))
        assert block.tolist() == _power_rows(d, table.tops, table.basis)
        lift = _dense(table.lift, len(table.tops))
        assert (lift @ block).tolist() == _power_rows(d, table.alphas, table.basis)

    @pytest.mark.parametrize("d, n", [(1, 5), (2, 3)])
    def test_exact_sup_residual_matches_fractions(self, d, n):
        rng = random.Random(800 + d)
        table = maxent._generator_table(d, n)
        alphas, basis = table.alphas, table.basis
        rows = _power_rows(d, alphas, basis)
        weights = [rng.uniform(0.1, 50.0) for _ in rows]
        target = [Fraction(rng.randint(-99, 99), rng.randint(1, 12)) for _ in basis]
        recon = [Fraction(0)] * len(basis)
        for w, row in zip(weights, rows):
            for k, c in enumerate(row):
                recon[k] += Fraction(w) * c
        want = max(abs(r - t) for r, t in zip(recon, target))
        cert = HandelmanCertificate(d, n, dict(zip(alphas, weights)))
        target_poly = (
            UPoly.from_coeffs(target) if d == 1 else MPoly.make(d, dict(zip(basis, target)))
        )
        got = maxent._exact_residual(cert, target_poly)
        assert isinstance(got, Fraction) and got == want

    @pytest.mark.parametrize("d, n", [(1, 6), (2, 3), (3, 2)])
    def test_exact_handelman_pairings_match_fractions(self, d, n):
        # Moments of a positive measure on rational interior points of the
        # simplex: every generator power pairs positively with them.
        rng = random.Random(900 + d)
        points = []
        for _ in range(4):
            cuts = sorted(Fraction(rng.randint(1, 97), 100) for _ in range(d))
            points.append([b - a for a, b in zip([Fraction(0)] + cuts, cuts)])
        masses = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in points]
        basis = monomials_upto(d, n)
        lam = tuple(
            sum(w * math.prod(p**b for p, b in zip(pt, beta)) for w, pt in zip(masses, points))
            for beta in basis
        )
        target = MPoly.constant(d, 1) if d > 1 else const(1)
        cert = exact_handelman(target, n, DualFunctional(lam))  # rational: kept as is
        alphas = monomials_upto(d + 1, n)
        rows = _power_rows(d, alphas, basis)
        want = {
            alpha: 1 / sum((l * c for l, c in zip(lam, row)), Fraction(0))
            for alpha, row in zip(alphas, rows)
        }
        assert cert.weights == want
        assert all(type(w) is Fraction for w in cert.weights.values())

    @pytest.mark.parametrize(
        "d, alpha",
        [(1, (0, 0, 0)), (2, (1, 0)), (1, (2, 1)), (2, (0, 0, 3)), (1, (-1, 1)), (2, (2, -1, 0))],
        ids=["long", "short", "above-n", "above-n-d2", "negative", "negative-d2"],
    )
    def test_weight_exponent_outside_the_table(self, d, alpha):
        one = MPoly.constant(d, 1) if d > 1 else const(1)
        zero = (0,) * (d + 1)
        cert = HandelmanCertificate(d, 2, {zero: Fraction(1, 2), alpha: 1})
        for check in (verify_certificate, verify_certificate_exact, maxent._exact_residual):
            with pytest.raises(ValueError, match="a weight exponent is not in the certificate's"):
                check(cert, one)

    @pytest.mark.parametrize(
        "cert, target, want",
        [
            (HandelmanCertificate(1, 1, {(0, 0): 1}), UPoly.from_coeffs([0, 0, 0, 1]), 1.0),
            # 1 against 1 + 3 x_1 x_2: only the term of degree 2 > n is left.
            (HandelmanCertificate(2, 1, {(0, 0, 0): 1}),
             MPoly.make(2, {(0, 0): 1, (1, 1): 3}), 3.0),
            # x_1 + x_2 + (1 - x_1 - x_2) = 1 against 1 - x_1^2 x_2 / 2.
            (HandelmanCertificate(2, 1, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}),
             MPoly.make(2, {(0, 0): 1, (2, 1): Fraction(-1, 2)}), 0.5),
        ],
        ids=["d1", "d2", "d2-exact-below"],
    )
    def test_target_above_the_degree_keeps_its_residual(self, cert, target, want):
        assert verify_certificate(cert, target) == want
        assert maxent._exact_residual(cert, target) == Fraction(want)
        assert not verify_certificate_exact(cert, target)

    @pytest.mark.parametrize(
        "cert, target, want",
        [
            # 2x + 2(1 - x) = 2
            (HandelmanCertificate(1, 2, {(1, 0): 2, (0, 1): 2}), const(2), 0),
            # x^2 against 1
            (HandelmanCertificate(1, 2, {(2, 0): 1}), const(1), 1),
            # x_1 + x_2 + (1 - x_1 - x_2) = 1, at degree 3
            (HandelmanCertificate(2, 3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}),
             MPoly.constant(2, 1), 0),
            # x_1 x_2 / 4 against 1: -1 on 1 and 1/4 on x_1 x_2
            (HandelmanCertificate(2, 3, {(1, 1, 0): Fraction(1, 4)}), MPoly.constant(2, 1), 1),
        ],
        ids=["d1-exact", "d1-off", "d2-exact", "d2-off"],
    )
    def test_weights_naming_some_alphas(self, cert, target, want):
        assert maxent._exact_residual(cert, target) == want
        assert verify_certificate_exact(cert, target) is (want == 0)

    @pytest.mark.parametrize("d, n", [(1, 6), (1, 20), (2, 8), (3, 6), (4, 5)])
    def test_partition_of_unity_reconstructs(self, d, n):
        # sum_alpha multinom(d; alpha) g^alpha = C(d+1+n, n), Handelman's
        # certificate that 1 is positive.
        weights = {alpha: multinomial((d,) + alpha) for alpha in monomials_upto(d + 1, n)}
        constant = math.comb(d + 1 + n, n)
        target = MPoly.constant(d, constant) if d > 1 else const(constant)
        assert verify_certificate_exact(HandelmanCertificate(d, n, weights), target)
        weights[(n,) + (0,) * d] += Fraction(1, 3)  # one third of x_1^n more
        assert maxent._exact_residual(HandelmanCertificate(d, n, weights), target) == Fraction(1, 3)

    @pytest.mark.parametrize("d, n", [(1, 6), (1, 20), (2, 8), (3, 6), (4, 5)])
    def test_partition_of_unity_in_bernstein_coordinates(self, d, n):
        # sum_alpha multinom(d; alpha) lift[alpha, gamma] = C(d+1+n, n) multinom(n; gamma)
        table = maxent._generator_table(d, n)
        sums = [0] * len(table.tops)
        for alpha, row in zip(table.alphas, table.lift):
            for g, c in row:
                sums[g] += multinomial((d,) + alpha) * c
        assert sums == [math.comb(d + 1 + n, n) * multinomial(gamma) for gamma in table.tops]

    def test_rounding_absorbs_the_residual(self):
        n, flagship = 12, const(91)
        table = maxent._generator_table(1, n)
        # One ulp above each exact flagship weight: the double certificate
        # misses the target.
        weights = {
            (i, j): math.nextafter(float((i + j + 1) * math.comb(i + j, i)), math.inf)
            for i, j in table.alphas
        }
        cert = HandelmanCertificate(1, n, weights)
        assert maxent._exact_residual(cert, flagship) > 0
        rounded = maxent._round_handelman(cert, flagship, table)
        assert maxent._exact_residual(rounded, flagship) == 0
        assert all(type(w) is Fraction and w > 0 for w in rounded.weights.values())
        moved = {a for a in table.alphas if rounded.weights[a] != weights[a]}
        assert moved and moved <= set(table.tops)

    def test_rounding_keeps_weights_positive(self):
        # x is on the boundary of the cone: absorbing its residual would
        # need a negative weight on (1 - x).
        cert = HandelmanCertificate(1, 1, {(0, 0): 1e-3, (1, 0): 1e-3, (0, 1): 1e-3})
        assert maxent._round_handelman(cert, UPoly.x(), maxent._generator_table(1, 1)) is None

    @pytest.mark.parametrize("case", ["one ulp off the flagship", "boundary target"])
    def test_putinar_rounding(self, case):
        n = 8
        table = maxent._chebyshev_table(n)
        unit = np.array([1.0] + [0.0] * (2 * n))  # the arcsine optimum, z = e_0
        _, _, inverses = maxent._putinar_barrier(table, np.zeros(2 * n + 1))
        grams = [np.nextafter(w, np.inf) for w in inverses(unit)]
        if case == "boundary target":
            # x^2 vanishes at 0: absorbing its residual leaves A indefinite.
            assert maxent._round_putinar(grams, UPoly.from_coeffs([0, 0, 1]), table) is None
            return
        flagship = const(2 * n + 1)
        q = table.cheb[: n + 1, : n + 1].astype(float)
        double = PutinarCertificate(n, *(tuple(map(tuple, b.T @ w @ b))
                                          for b, w in zip((q, q[:n, :n]), grams)))
        assert maxent._exact_residual(double, flagship) > 0
        rounded = maxent._round_putinar(grams, flagship, table)
        assert maxent._exact_residual(rounded, flagship) == 0
        assert all(type(v) is Fraction for v in maxent._gram_entries(rounded))
        for gram, exact in zip((rounded.gram_a, rounded.gram_b), _hankel_pair(_arcsine_moments(n), n)):
            invert_symmetric_rational(gram)  # positive definite, or it raises
            want = invert_symmetric_rational(exact)
            assert max(abs(a - b) for ra, rb in zip(gram, want) for a, b in zip(ra, rb)) < 1e-9

    @staticmethod
    def fraction_putinar_coeffs(gram_a, gram_b, n):
        """One Fraction per double Gram entry, summed by coefficient."""
        coeffs = [Fraction(0)] * (2 * n + 1)
        for i in range(n + 1):
            for j in range(n + 1):
                coeffs[i + j] += Fraction(gram_a[i][j])
        for i in range(n):
            for j in range(n):
                v = Fraction(gram_b[i][j])
                coeffs[i + j] += v
                coeffs[i + j + 2] -= v
        return coeffs

    @pytest.mark.parametrize("n", range(1, 13))
    def test_putinar_exact_residual_matches_fractions(self, n):
        rng = np.random.default_rng(1000 + n)
        for _ in range(5):
            a = rng.standard_normal((n + 1, n + 1)) * 10.0 ** rng.integers(-6, 4)
            b = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-6, 4)
            gram_a = tuple(tuple(float(v) for v in row) for row in (a + a.T))
            gram_b = tuple(tuple(float(v) for v in row) for row in (b + b.T))
            target = UPoly.from_coeffs(
                Fraction(int(rng.integers(-99, 99)), int(rng.integers(1, 12)))
                for _ in range(int(rng.integers(1, 2 * n + 2)))
            )
            coeffs = self.fraction_putinar_coeffs(gram_a, gram_b, n)
            want = max(abs(c - target.coefficient(k)) for k, c in enumerate(coeffs))
            cert = PutinarCertificate(n, gram_a, gram_b)
            got = maxent._exact_residual(cert, target)
            assert type(got) is Fraction and got == want
            exact_target = UPoly.from_coeffs(coeffs)
            assert maxent._exact_residual(cert, exact_target) == 0
