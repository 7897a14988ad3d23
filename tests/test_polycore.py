import math
import random
from fractions import Fraction

import pytest

from unitycert.polycore import (
    ChebKind,
    MPoly,
    UPoly,
    bernstein,
    cheb,
    cheb_orthonormal_square,
    monomials_upto,
    poly_eval,
    simplex_generator_power,
)


def upoly(*coeffs):
    return UPoly.from_coeffs(coeffs)


class TestCheb:
    def test_base_cases(self):
        assert cheb(ChebKind.FIRST, 0) == upoly(1)
        assert cheb(ChebKind.FIRST, 1) == upoly(0, 1)
        assert cheb(ChebKind.SECOND, 0) == upoly(1)
        assert cheb(ChebKind.SECOND, 1) == upoly(0, 2)

    def test_recurrence_examples(self):
        assert cheb(ChebKind.FIRST, 2) == upoly(-1, 0, 2)
        assert cheb(ChebKind.SECOND, 2) == upoly(-1, 0, 4)
        assert cheb(ChebKind.FIRST, 3) == upoly(0, -3, 0, 4)

    def test_degree_and_integer_coefficients(self):
        for n in range(12):
            for kind in ChebKind:
                p = cheb(kind, n)
                assert p.degree == n
                assert all(c.denominator == 1 for c in p.coeffs)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            cheb(ChebKind.FIRST, -1)

    def test_pell_identity_small(self):
        g = upoly(1, 0, -1)
        for n in range(1, 9):
            t = cheb(ChebKind.FIRST, n)
            u = cheb(ChebKind.SECOND, n - 1)
            assert t * t + g * (u * u) == upoly(1)


class TestOrthonormalSquare:
    def test_examples(self):
        assert cheb_orthonormal_square(ChebKind.FIRST, 0) == upoly(1)
        assert cheb_orthonormal_square(ChebKind.FIRST, 1) == upoly(0, 0, 2)
        assert cheb_orthonormal_square(ChebKind.SECOND, 0) == upoly(2)

    def test_relation_to_plain_squares(self):
        for kind in ChebKind:
            for j in range(10):
                base = cheb(kind, j)
                factor = 1 if (kind is ChebKind.FIRST and j == 0) else 2
                assert cheb_orthonormal_square(kind, j) == base * base * factor


class TestBernstein:
    def test_examples(self):
        assert bernstein(2, 1) == upoly(0, 2, -2)
        assert bernstein(1, 0) == upoly(1, -1)

    def test_partition_of_unity(self):
        for n in range(17):
            total = UPoly.zero()
            for j in range(n + 1):
                total = total + bernstein(n, j)
            assert total == upoly(1)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            bernstein(3, 4)
        with pytest.raises(ValueError):
            bernstein(3, -1)


class TestSimplexGeneratorPower:
    def test_empty_product(self):
        assert simplex_generator_power(2, (0, 0, 0)) == MPoly.constant(2, 1)

    def test_expansion(self):
        expected = MPoly.make(2, {(1, 0): 1, (2, 0): -1, (1, 1): -1})
        assert simplex_generator_power(2, (1, 0, 1)) == expected
        assert simplex_generator_power(1, (1, 1)) == MPoly.make(1, {(1,): 1, (2,): -1})

    def test_bad_alpha(self):
        with pytest.raises(ValueError):
            simplex_generator_power(2, (1, 0))
        with pytest.raises(ValueError):
            simplex_generator_power(2, (1, 0, -1))


class TestPolyEval:
    def test_univariate(self):
        assert poly_eval(upoly(-1, 0, 2), [Fraction(1, 2)]) == Fraction(-1, 2)
        assert poly_eval(UPoly.zero(), [7]) == 0

    def test_multivariate(self):
        p = simplex_generator_power(2, (1, 0, 1))
        assert poly_eval(p, [Fraction(1, 3), Fraction(1, 3)]) == Fraction(1, 9)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            poly_eval(upoly(1, 2), [1, 2])
        with pytest.raises(ValueError):
            poly_eval(MPoly.constant(2, 1), [1])


class TestRingStructure:
    def test_distributivity_univariate(self):
        rng = random.Random(7)

        def rand_poly():
            return UPoly.from_coeffs(
                Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rng.randint(0, 5))
            )

        for _ in range(50):
            p, q, r = rand_poly(), rand_poly(), rand_poly()
            assert (p + q) * r == p * r + q * r
            assert p * q == q * p

    def test_distributivity_multivariate(self):
        rng = random.Random(11)

        def rand_poly():
            terms = {}
            for _ in range(rng.randint(0, 4)):
                e = (rng.randint(0, 2), rng.randint(0, 2))
                terms[e] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            return MPoly.make(2, terms)

        for _ in range(50):
            p, q, r = rand_poly(), rand_poly(), rand_poly()
            assert (p + q) * r == p * r + q * r
            assert p * q == q * p


class TestRepresentation:
    def test_zero_polynomial_conventions(self):
        z = UPoly.zero()
        assert z.degree == -1
        assert z.coeffs == ()
        assert upoly(0, 0) == z
        assert MPoly.make(2, {(1, 1): 0}) == MPoly.zero(2)

    def test_trailing_zeros_trimmed(self):
        assert upoly(1, 2, 0, 0).coeffs == (Fraction(1), Fraction(2))

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            UPoly.from_coeffs([0.5])
        with pytest.raises(TypeError):
            UPoly.x() * 0.5
        with pytest.raises(TypeError):
            UPoly.x().eval(0.5)
        with pytest.raises(TypeError):
            MPoly.constant(2, 0.5)

    def test_immutable(self):
        p = upoly(1, 2)
        with pytest.raises(AttributeError):
            p.coeffs = ()


def _ref_trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _ref_add(a, b, sign=1):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    return _ref_trim(x + sign * y for x, y in zip(a, b))


def _ref_mul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _ref_trim(out)


def _assert_canonical(p):
    assert p.den > 0
    assert math.gcd(p.den, *p.nums) == 1
    assert not p.nums or p.nums[-1] != 0
    if not p.nums:
        assert p.den == 1


class TestIntegerNumeratorKernel:
    """UPoly against a plain Fraction-list reference computed here."""

    @staticmethod
    def rand_coeffs(rng):
        return _ref_trim(
            Fraction(rng.randint(-30, 30), rng.choice([1, 2, 3, 4, 6, 7, 9, 12, 25]))
            for _ in range(rng.randint(0, 7))
        )

    def test_ring_operations_match_reference(self):
        rng = random.Random(2023)
        for _ in range(200):
            a, b = self.rand_coeffs(rng), self.rand_coeffs(rng)
            p, q = UPoly.from_coeffs(a), UPoly.from_coeffs(b)
            assert p.coeffs == a
            for result, want in (
                (p + q, _ref_add(a, b)),
                (p - q, _ref_add(a, b, -1)),
                (-p, _ref_trim(-c for c in a)),
                (p * q, _ref_mul(a, b)),
            ):
                assert result.coeffs == want
                _assert_canonical(result)

    def test_scalar_multiplication_matches_reference(self):
        rng = random.Random(5)
        for _ in range(100):
            a = self.rand_coeffs(rng)
            scalar = Fraction(rng.randint(-12, 12), rng.randint(1, 15))
            want = _ref_trim(c * scalar for c in a)
            for result in (UPoly.from_coeffs(a) * scalar, scalar * UPoly.from_coeffs(a)):
                assert result.coeffs == want
                _assert_canonical(result)
            k = rng.randint(-5, 5)
            assert (k * UPoly.from_coeffs(a)).coeffs == _ref_trim(c * k for c in a)

    def test_powers_match_repeated_multiplication(self):
        rng = random.Random(17)
        for _ in range(20):
            a = self.rand_coeffs(rng)[:4]
            p = UPoly.from_coeffs(a)
            want = (Fraction(1),)
            for n in range(10):
                result = p**n
                assert result.coeffs == want
                _assert_canonical(result)
                want = _ref_mul(want, a)

    def test_eval_matches_reference(self):
        rng = random.Random(29)
        for _ in range(100):
            a = self.rand_coeffs(rng)
            for x in (Fraction(rng.randint(-20, 20), rng.randint(1, 16)), rng.randint(-3, 3)):
                want = sum((c * Fraction(x) ** k for k, c in enumerate(a)), Fraction(0))
                assert UPoly.from_coeffs(a).eval(x) == want

    def test_canonical_form(self):
        half = UPoly.from_coeffs([Fraction(2, 4)])
        assert half == UPoly.constant(Fraction(1, 2))
        assert hash(half) == hash(UPoly.constant(Fraction(1, 2)))
        assert (half.nums, half.den) == ((1,), 2)
        p = UPoly.from_coeffs([Fraction(1, 6), Fraction(-1, 4), Fraction(2, 3)])
        assert (p.nums, p.den) == ((2, -3, 8), 12)
        assert p * Fraction(6, 1) == UPoly.from_coeffs([1, Fraction(-3, 2), 4])
        assert (p * 12).den == 1
        _assert_canonical(p + p)

    def test_zero_conventions(self):
        rng = random.Random(3)
        p = UPoly.from_coeffs(self.rand_coeffs(rng) + (Fraction(5, 3),))
        for z in (UPoly.zero(), UPoly.from_coeffs([0, 0]), UPoly.from_coeffs([]),
                  p - p, p * 0, p * UPoly.zero(), UPoly.zero() * p, p + (-p)):
            assert (z.nums, z.den) == ((), 1)
            assert z == UPoly.zero()
            assert z.degree == -1
        assert UPoly.zero().eval(Fraction(1, 3)) == 0
        assert UPoly.zero() ** 0 == UPoly.constant(1)


class TestMonomialOrder:
    def test_graded_lex_bivariate(self):
        assert monomials_upto(2, 2) == (
            (0, 0),
            (1, 0),
            (0, 1),
            (2, 0),
            (1, 1),
            (0, 2),
        )

    def test_univariate(self):
        assert monomials_upto(1, 3) == ((0,), (1,), (2,), (3,))

    def test_counts(self):
        import math

        for d in range(1, 5):
            for n in range(5):
                assert len(monomials_upto(d, n)) == math.comb(d + n, n)
