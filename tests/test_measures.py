import math
import random
from fractions import Fraction

import numpy as np
import pytest

from unitycert.measures import (
    ARCSINE,
    ARCSINE_G,
    LEBESGUE01,
    MomentFunctional,
    SimplexNormalization,
    bernstein_envelope,
    beta_integral,
    dirichlet,
    functional_for,
    quadrature_oracle,
    simplex_equilibrium,
    simplex_uniform,
    simplex_uniform_moment_oracle,
)
from unitycert.polycore import (
    ChebKind,
    MPoly,
    UPoly,
    cheb,
    cheb_orthonormal_square,
    monomials_upto,
)


class TestClosedForms:
    def test_arcsine(self):
        f = functional_for(ARCSINE)
        assert f.moment((0,)) == 1
        assert f.moment((1,)) == 0
        assert f.moment((2,)) == Fraction(1, 2)
        assert f.moment((4,)) == Fraction(3, 8)
        assert f.moment((40,)) == Fraction(137846528820, 2**40)

    def test_lebesgue(self):
        f = functional_for(LEBESGUE01)
        assert f.moment((3,)) == Fraction(1, 4)
        assert f.moment((0,)) == 1

    def test_lebesgue_is_the_one_simplex(self):
        assert simplex_uniform(1) == LEBESGUE01 == dirichlet((1, 1))
        assert (LEBESGUE01.label(), LEBESGUE01.dimension) == ("lebesgue01", 1)
        assert functional_for(simplex_uniform(1)) is functional_for(LEBESGUE01)
        assert [functional_for(LEBESGUE01).moment(k) for k in range(40)] == [
            Fraction(1, k + 1) for k in range(40)]

    def test_simplex_uniform(self):
        f = functional_for(simplex_uniform(2))
        assert f.moment((0, 0)) == 1
        assert f.moment((1, 0)) == Fraction(1, 3)
        assert f.moment((1, 1)) == Fraction(1, 12)
        f3 = functional_for(simplex_uniform(3))
        assert f3.moment((2, 0, 0)) == Fraction(1, 10)

    def test_simplex_equilibrium(self):
        raw = functional_for(simplex_equilibrium())
        assert raw.moment((0, 0)) == 2
        assert raw.moment((1, 0)) == Fraction(2, 3)
        assert raw.moment((2, 0)) == Fraction(2, 5)
        assert raw.moment((1, 1)) == Fraction(2, 15)
        prob = functional_for(simplex_equilibrium(SimplexNormalization.PROBABILITY))
        assert prob.moment((0, 0)) == 1
        assert prob.moment((1, 0)) == Fraction(1, 3)

    def test_arcsine_g_is_shifted_arcsine(self):
        f = functional_for(ARCSINE)
        g = functional_for(ARCSINE_G)
        shift = UPoly.from_coeffs([1, 0, -1])
        for k in range(41):
            mono = UPoly.from_coeffs([0] * k + [1])
            assert g.moment((k,)) == f.poly_moment(mono * shift)

    def test_int_exponent_accepted(self):
        assert functional_for(ARCSINE).moment(2) == Fraction(1, 2)

    def test_non_integer_exponent_rejected(self):
        f = functional_for(simplex_uniform(2))
        for alpha in ((1.5, 0), (1.0, 0), (Fraction(1), 2)):
            with pytest.raises(TypeError):
                f.moment(alpha)
        assert f.moment((True, np.int64(2))) == f.moment((1, 2)) == Fraction(1, 30)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            functional_for(ARCSINE).moment((1, 2))
        with pytest.raises(ValueError):
            functional_for(simplex_uniform(2)).moment((1,))


class TestMeasureValidation:
    @pytest.mark.parametrize(
        "kappa, mass",
        [((), 1), ((1,), 1), ((1, 0), 1), ((1, -2, 1), 1), ((Fraction(-1, 2), 1), 1),
         ((1, 1), 0), ((1, 1, 1), Fraction(-1, 3))],
    )
    def test_dirichlet_rejects_bad_input(self, kappa, mass):
        with pytest.raises(ValueError):
            dirichlet(kappa, mass)

    def test_uniform_needs_positive_d(self):
        with pytest.raises(ValueError):
            simplex_uniform(0)

    def test_dimensions(self):
        assert ARCSINE.dimension == 1
        assert simplex_uniform(4).dimension == 4
        assert simplex_equilibrium().dimension == 2
        assert dirichlet((1, 2)).dimension == 1


def _uniform_reference(d, alpha):
    # d! a_1! ... a_d! / (d + |a|)!
    num = math.factorial(d) * math.prod(math.factorial(a) for a in alpha)
    return Fraction(num, math.factorial(d + sum(alpha)))


def _equilibrium_reference(a, b):
    # Raw density (mass 2): G(a) G(b) 4^(m+1) (m+1)! / (2m+2)!, m = a + b and
    # G(k) = (2k)! / (4^k k!) = Gamma(k + 1/2) / Gamma(1/2).
    def ratio(k):
        return Fraction(math.factorial(2 * k), 4**k * math.factorial(k))

    m = a + b
    return ratio(a) * ratio(b) * Fraction(4 ** (m + 1) * math.factorial(m + 1), math.factorial(2 * m + 2))


class TestDirichletMoments:
    """One Dirichlet formula against the separate closed forms it replaced."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_uniform_is_the_factorial_formula(self, d):
        f = functional_for(simplex_uniform(d))
        for alpha in monomials_upto(d, 10):
            assert f.moment(alpha) == _uniform_reference(d, alpha)

    @pytest.mark.parametrize("normalization", list(SimplexNormalization))
    def test_equilibrium_is_the_double_factorial_formula(self, normalization):
        f = functional_for(simplex_equilibrium(normalization))
        scale = Fraction(1, 2) if normalization is SimplexNormalization.PROBABILITY else 1
        for a, b in monomials_upto(2, 10):
            assert f.moment((a, b)) == scale * _equilibrium_reference(a, b)

    def test_mass_scales_every_moment(self):
        raw = functional_for(dirichlet((Fraction(1, 2), 3, Fraction(5, 2))))
        scaled = functional_for(dirichlet((Fraction(1, 2), 3, Fraction(5, 2)), Fraction(7, 3)))
        for alpha in monomials_upto(2, 6):
            assert scaled.moment(alpha) == Fraction(7, 3) * raw.moment(alpha)

    def test_beta_moments(self):
        # Dirichlet(a, b) in one variable is Beta(a, b): E[x^k] = B(a + k, b) / B(a, b).
        f = functional_for(dirichlet((3, 2)))
        for k in range(12):
            assert f.moment((k,)) == beta_integral(k + 2, 1) / beta_integral(2, 1)

    @pytest.mark.parametrize(
        "kappa, alpha",
        [((1, 1), (2000,)), ((Fraction(1, 2), Fraction(3, 2)), (64,)),
         ((Fraction(1, 2), Fraction(3, 2)), (65,)), ((Fraction(2, 3), 1, Fraction(5, 4)), (300, 129))],
    )
    def test_long_runs_match_the_direct_product(self, kappa, alpha):
        # Rising factorials past the direct-product length are split into
        # halves; the value is that of the one left-to-right product.
        measure = dirichlet(kappa, Fraction(3, 7))
        q = math.lcm(*(k.denominator for k in measure.kappa))
        p = [k.numerator * (q // k.denominator) for k in measure.kappa]
        num = math.prod(math.prod(range(pi, pi + a * q, q)) for pi, a in zip(p, alpha))
        den = math.prod(range(sum(p), sum(p) + sum(alpha) * q, q))
        assert MomentFunctional(measure).moment(alpha) == Fraction(3 * num, 7 * den)

    def test_names_do_not_split_the_memo(self):
        assert simplex_uniform(1) == dirichlet((1, 1))
        assert hash(simplex_uniform(1)) == hash(dirichlet((1, 1)))
        assert functional_for(simplex_uniform(1)) is functional_for(dirichlet((1, 1)))
        assert simplex_equilibrium() == dirichlet([Fraction(1, 2)] * 3, 2)
        assert simplex_equilibrium() != simplex_equilibrium(SimplexNormalization.PROBABILITY)

    def test_labels(self):
        assert simplex_uniform(2).label() == "simplex-uniform(d=2)"
        assert simplex_equilibrium().label() == "simplex-equilibrium(pi-density)"
        prob = simplex_equilibrium(SimplexNormalization.PROBABILITY)
        assert prob.label() == "simplex-equilibrium(probability)"
        assert dirichlet((1, 2), name="beta").label() == "beta"
        assert dirichlet((Fraction(1, 2), 2), 3).label() == "dirichlet(kappa=(1/2, 2), mass=3)"


class TestPolyMoment:
    def test_examples(self):
        assert functional_for(ARCSINE).poly_moment(UPoly.from_coeffs([1, 0, -1])) == Fraction(1, 2)
        assert functional_for(LEBESGUE01).poly_moment(UPoly.from_coeffs([0, 1, -1])) == Fraction(1, 6)
        p = MPoly.make(2, {(1, 0): 1, (2, 0): -1, (1, 1): -1})  # x(1-x-y)
        assert functional_for(simplex_uniform(2)).poly_moment(p) == Fraction(1, 12)

    def test_linearity(self):
        rng = random.Random(3)
        f = functional_for(ARCSINE)
        for _ in range(25):
            p = UPoly.from_coeffs(Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(5))
            q = UPoly.from_coeffs(Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(4))
            a = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
            b = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
            assert f.poly_moment(a * p + b * q) == a * f.poly_moment(p) + b * f.poly_moment(q)

    def test_orthonormality_small(self):
        f = functional_for(ARCSINE)
        g = functional_for(ARCSINE_G)
        for j in range(9):
            assert f.poly_moment(cheb_orthonormal_square(ChebKind.FIRST, j)) == 1
            assert g.poly_moment(cheb_orthonormal_square(ChebKind.SECOND, j)) == 1
        for i in range(6):
            for j in range(i + 1, 6):
                assert f.poly_moment(cheb(ChebKind.FIRST, i) * cheb(ChebKind.FIRST, j)) == 0


class TestBetaIntegral:
    def test_examples(self):
        assert beta_integral(0, 0) == 1
        assert beta_integral(1, 1) == Fraction(1, 6)
        assert beta_integral(2, 0) == Fraction(1, 3)

    def test_matches_lebesgue_moment(self):
        one_minus_x = UPoly.from_coeffs([1, -1])
        f = functional_for(LEBESGUE01)
        for i in range(6):
            for j in range(6):
                p = (UPoly.x() ** i) * (one_minus_x**j)
                assert beta_integral(i, j) == f.poly_moment(p)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            beta_integral(-1, 0)


class TestQuadratureOracle:
    def test_examples(self):
        x4 = UPoly.from_coeffs([0, 0, 0, 0, 1])
        assert abs(quadrature_oracle(ARCSINE, x4, 3) - 0.375) <= 1e-12
        assert abs(quadrature_oracle(LEBESGUE01, UPoly.x(), 2) - 0.5) <= 1e-12
        assert abs(quadrature_oracle(ARCSINE, UPoly.x(), 1)) <= 1e-12
        # Gauss-Legendre for every multiple of Lebesgue measure on [0,1].
        x3 = UPoly.from_coeffs([0, 0, 0, 1])
        assert abs(quadrature_oracle(dirichlet((1, 1), 3), x3, 2) - 0.75) <= 1e-12

    def test_interval_equivalence_moderate_degree(self):
        for measure in (ARCSINE, ARCSINE_G, LEBESGUE01):
            f = functional_for(measure)
            for k in range(13):
                mono = UPoly.from_coeffs([0] * k + [1])
                exact = float(f.moment((k,)))
                approx = quadrature_oracle(measure, mono, 10)
                assert abs(exact - approx) <= 1e-12

    def test_simplex_monte_carlo_cross_check(self):
        x = MPoly.variable(2, 0)
        est = quadrature_oracle(simplex_equilibrium(), x, 200_000)
        assert abs(est - 2.0 / 3.0) < 5e-3
        xy = MPoly.make(2, {(1, 1): 1})
        est = quadrature_oracle(simplex_uniform(2), xy, 200_000)
        assert abs(est - 1.0 / 12.0) < 5e-3

    def test_zero_nodes_rejected(self):
        with pytest.raises(ValueError):
            quadrature_oracle(ARCSINE, UPoly.x(), 0)


class TestSimplexUniformOracle:
    def test_agrees_with_closed_form(self):
        for d in (1, 2, 3):
            f = functional_for(simplex_uniform(d))
            for alpha in monomials_upto(d, 6):
                assert simplex_uniform_moment_oracle(d, alpha) == f.moment(alpha)


class TestBernsteinEnvelope:
    def test_values(self):
        assert abs(bernstein_envelope(1, 0.5) - 0.7978845608028654) < 1e-12
        assert abs(bernstein_envelope(2, 0.5) - 0.3989422804014327) < 1e-12

    def test_domain_errors(self):
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                bernstein_envelope(1, bad)
        with pytest.raises(ValueError):
            bernstein_envelope(0, 0.5)


class TestMemoization:
    def test_memo_grows_and_is_consistent(self):
        f = MomentFunctional(ARCSINE)
        assert f.memo_size() == 0
        first = f.moment((6,))
        assert f.memo_size() == 1
        assert f.moment((6,)) == first

    def test_shared_functional(self):
        assert functional_for(ARCSINE) is functional_for(ARCSINE)


class TestMasses:
    def test_total_masses(self):
        assert functional_for(simplex_uniform(3)).moment((0, 0, 0)) == 1
        assert functional_for(simplex_equilibrium()).moment((0, 0)) == 2
        prob = simplex_equilibrium(SimplexNormalization.PROBABILITY)
        assert functional_for(prob).moment((0, 0)) == 1
