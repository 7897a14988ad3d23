import math
import random
from fractions import Fraction

import numpy as np
import pytest

from unitycert.polycore import (
    ChebKind,
    MPoly,
    UPoly,
    bernstein,
    cheb,
    cheb_orthonormal_square,
    cheb_orthonormal_squares,
    cheb_table,
    generator_powers,
    linear_combination,
    monomials_of_degree,
    monomials_upto,
    multinomial,
    poly_eval,
    poly_from_sparse_nums,
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
        for kind in ChebKind:
            with pytest.raises(ValueError):
                cheb_table(kind, -1)

    def test_table_matches_per_degree_recurrence(self):
        two_x = upoly(0, 2)
        for kind in ChebKind:
            # The recurrence rerun from degree 0 for every degree, in UPoly.
            want = []
            for n in range(65):
                p0, p1 = upoly(1), (upoly(0, 1) if kind is ChebKind.FIRST else two_x)
                for _ in range(n):
                    p0, p1 = p1, two_x * p1 - p0
                want.append(p0)
            for n in range(65):
                table = cheb_table(kind, n)
                assert table == want[: n + 1]
                assert cheb(kind, n) == want[n]
                for p in table:
                    _assert_canonical(p)

    def test_closed_form_matches_table(self):
        # cheb writes the explicit coefficients; cheb_table runs the recurrence.
        for kind in ChebKind:
            table = cheb_table(kind, 300)
            for n, want in enumerate(table):
                got = cheb(kind, n)
                assert got == want
                _assert_canonical(got)

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

    def test_table_matches_single_squares(self):
        for kind in ChebKind:
            for n in range(10):
                assert cheb_orthonormal_squares(kind, n) == [
                    cheb_orthonormal_square(kind, j) for j in range(n + 1)
                ]


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
        # [0,1] is the 1-simplex, and its generator powers are UPolys.
        assert simplex_generator_power(1, (1, 1)) == upoly(0, 1, -1)
        assert simplex_generator_power(1, (0, 0)) == upoly(1)

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

    @pytest.mark.parametrize(
        "build",
        [lambda: MPoly.make(1, {(1,): 1}), lambda: MPoly.make(0, {}), lambda: MPoly.zero(1),
         lambda: MPoly.constant(1, 3), lambda: MPoly.variable(1, 0)],
        ids=["make", "make-0", "zero", "constant", "variable"],
    )
    def test_mpoly_has_at_least_two_variables(self, build):
        with pytest.raises(ValueError, match="dimension >= 2"):
            build()

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

    @staticmethod
    def sparse_coeffs(rng):
        """Coefficients with interior zeros, every other one zero (as in
        Chebyshev polynomials), or none zero, over non-unit denominators."""
        n = rng.randint(1, 14)
        zero_share = rng.choice([0.0, 0.4])
        coeffs = [
            Fraction(0) if rng.random() < zero_share
            else Fraction(rng.randint(-40, 40), rng.choice([1, 2, 3, 5, 8, 12]))
            for _ in range(n)
        ]
        if rng.random() < 0.5:
            parity = rng.randint(0, 1)
            coeffs = [c if k % 2 == parity else Fraction(0) for k, c in enumerate(coeffs)]
        return _ref_trim(coeffs + [Fraction(rng.choice([-7, 1, 3]), rng.choice([1, 4, 9]))])

    def test_square_matches_product_and_reference(self):
        rng = random.Random(41)
        for _ in range(300):
            a = self.sparse_coeffs(rng)
            p = UPoly.from_coeffs(a)
            copy = UPoly(p.nums, p.den)
            assert copy is not p
            square = p * p
            assert square == p * copy == copy * p
            assert square.coeffs == _ref_mul(a, a)
            _assert_canonical(square)

    def test_sparse_powers_match_reference(self):
        rng = random.Random(43)
        for _ in range(40):
            a = self.sparse_coeffs(rng)[:6]
            p = UPoly.from_coeffs(a)
            copy = UPoly(p.nums, p.den)
            want, by_copy = (Fraction(1),), UPoly.constant(1)
            for k in range(10):
                result = p**k
                assert result.coeffs == want
                assert result == by_copy
                _assert_canonical(result)
                want = _ref_mul(want, a)
                by_copy = by_copy * copy

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


def _mref_add(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + sign * c
    return {e: c for e, c in out.items() if c != 0}


def _mref_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(i + j for i, j in zip(ea, eb))
            out[e] = out.get(e, Fraction(0)) + ca * cb
    return {e: c for e, c in out.items() if c != 0}


def _mref_eval(a, point):
    total = Fraction(0)
    for e, c in a.items():
        for v, k in zip(point, e):
            c *= Fraction(v) ** k
        total += c
    return total


def _assert_mcanonical(p):
    assert p.den > 0
    assert all(type(c) is int and c != 0 for c in p.nums.values())
    assert math.gcd(p.den, *p.nums.values()) == 1
    if not p.nums:
        assert p.den == 1


class TestMPolyIntegerNumerators:
    """MPoly against a plain exponent->Fraction reference computed here."""

    @staticmethod
    def rand_terms(rng, d, size=6):
        terms = {}
        for _ in range(rng.randint(0, size)):
            e = tuple(rng.randint(0, 3) for _ in range(d))
            terms[e] = Fraction(rng.randint(-30, 30), rng.choice([1, 2, 3, 4, 6, 7, 9, 12, 25]))
        return {e: c for e, c in terms.items() if c != 0}

    def test_ring_operations_match_reference(self):
        rng = random.Random(2024)
        for _ in range(200):
            d = rng.choice([2, 3])
            a, b = self.rand_terms(rng, d), self.rand_terms(rng, d)
            p, q = MPoly.make(d, a), MPoly.make(d, b)
            assert p.terms == a
            for result, want in (
                (p + q, _mref_add(a, b)),
                (p - q, _mref_add(a, b, -1)),
                (-p, {e: -c for e, c in a.items()}),
                (p * q, _mref_mul(a, b)),
            ):
                assert result.terms == want
                _assert_mcanonical(result)

    def test_scalar_multiplication_matches_reference(self):
        rng = random.Random(6)
        for _ in range(100):
            d = rng.choice([2, 3])
            a = self.rand_terms(rng, d)
            scalar = Fraction(rng.randint(-12, 12), rng.randint(1, 15))
            want = {e: c * scalar for e, c in a.items() if c * scalar != 0}
            for result in (MPoly.make(d, a) * scalar, scalar * MPoly.make(d, a)):
                assert result.terms == want
                _assert_mcanonical(result)
            k = rng.randint(-5, 5)
            assert (k * MPoly.make(d, a)).terms == {e: c * k for e, c in a.items() if k}

    def test_powers_match_repeated_multiplication(self):
        rng = random.Random(19)
        for _ in range(20):
            d = rng.choice([2, 3])
            a = self.rand_terms(rng, d, size=3)
            p = MPoly.make(d, a)
            want = {(0,) * d: Fraction(1)}
            for n in range(7):
                result = p**n
                assert result.terms == want
                _assert_mcanonical(result)
                want = _mref_mul(want, a)

    def test_eval_matches_reference(self):
        rng = random.Random(31)
        for _ in range(100):
            d = rng.choice([2, 3])
            a = self.rand_terms(rng, d)
            point = [Fraction(rng.randint(-20, 20), rng.randint(1, 16)) for _ in range(d)]
            assert MPoly.make(d, a).eval(point) == _mref_eval(a, point)
            ints = [rng.randint(-3, 3) for _ in range(d)]
            assert MPoly.make(d, a).eval(ints) == _mref_eval(a, ints)

    def test_canonical_form(self):
        p = MPoly.make(2, {(1, 0): Fraction(1, 6), (0, 1): Fraction(-1, 4), (2, 2): Fraction(2, 3)})
        assert (p.nums, p.den) == ({(1, 0): 2, (0, 1): -3, (2, 2): 8}, 12)
        half = MPoly.make(2, {(1, 1): Fraction(2, 4)})
        assert (half.nums, half.den) == ({(1, 1): 1}, 2)
        assert (p * 12).den == 1
        assert MPoly.make(2, {(1, 0): 1, (0, 1): 1}) == MPoly.make(2, {(0, 1): 1, (1, 0): 1})
        _assert_mcanonical(p + p)
        _assert_mcanonical(p * p)

    def test_zero_conventions(self):
        p = MPoly.make(3, {(1, 0, 2): Fraction(5, 3), (0, 0, 0): Fraction(-1, 2)})
        for z in (MPoly.zero(3), MPoly.make(3, {(1, 1, 1): 0}), MPoly.make(3, {}),
                  p - p, p * 0, p * MPoly.zero(3), MPoly.zero(3) * p, p + (-p)):
            assert (z.nums, z.den) == ({}, 1)
            assert z == MPoly.zero(3)
            assert z.degree == -1
            assert z.terms == {}
        assert MPoly.zero(3).eval([Fraction(1, 3), 2, 5]) == 0
        assert MPoly.zero(3) ** 0 == MPoly.constant(3, 1)

    def test_terms_is_a_read_only_view(self):
        p = MPoly.make(2, {(1, 0): Fraction(3, 4), (0, 2): Fraction(-5, 6)})
        view = p.terms
        assert all(type(c) is Fraction and c == Fraction(p.nums[e], p.den) for e, c in view.items())
        view[(1, 0)] = Fraction(99)
        view[(5, 5)] = Fraction(1)
        assert p.terms == {(1, 0): Fraction(3, 4), (0, 2): Fraction(-5, 6)}
        assert p.terms is not p.terms
        with pytest.raises(AttributeError):
            p.terms = {}

    def test_non_integer_exponents_rejected(self):
        with pytest.raises(TypeError):
            MPoly.make(2, {(1.5, 0): 1})
        with pytest.raises(TypeError):
            MPoly.make(2, {(1.0, 0): 1})
        with pytest.raises(TypeError):
            MPoly.make(2, {(Fraction(1), 0): 1})
        exact = MPoly.make(2, {(True, np.int64(2)): 3})
        assert exact == MPoly.make(2, {(1, 2): 3})
        assert all(type(k) is int for e in exact.nums for k in e)


class TestClosedFormGeneratorPower:
    def test_matches_repeated_multiplication(self):
        for d in range(1, 5):
            if d == 1:
                variables, one = [UPoly.x()], UPoly.constant(1)
            else:
                variables, one = [MPoly.variable(d, i) for i in range(d)], MPoly.constant(d, 1)
            last = one
            for v in variables:
                last = last - v
            last_powers = [one]
            for _ in range(6):
                last_powers.append(last_powers[-1] * last)
            for alpha in monomials_upto(d + 1, 6):
                want = last_powers[alpha[d]]
                for v, a in zip(variables, alpha):
                    for _ in range(a):
                        want = want * v
                got = simplex_generator_power(d, alpha)
                assert type(got) is type(want) and got == want
                assert got.den == 1
                (_assert_canonical if d == 1 else _assert_mcanonical)(got)

    def test_large_coefficients(self):
        for alpha, beta in (((0, 0, 0, 12), (0, 0, 0)), ((2, 0, 1, 12), (2, 0, 1))):
            p = simplex_generator_power(3, alpha)
            assert len(p.nums) == math.comb(3 + 12, 12)
            for gamma in monomials_upto(3, 12):
                k = sum(gamma)
                want = math.comb(12, k) * math.factorial(k)
                for g in gamma:
                    want //= math.factorial(g)
                e = tuple(b + g for b, g in zip(beta, gamma))
                assert p.nums[e] == (-1) ** k * want
        assert simplex_generator_power(3, (0, 0, 0, 12)).nums[(4, 4, 4)] == 34650

    def test_non_integer_exponents_rejected(self):
        with pytest.raises(TypeError):
            simplex_generator_power(2, (1.7, 0, 0.9))
        with pytest.raises(TypeError):
            simplex_generator_power(2, (1.0, 0, 1))
        with pytest.raises(TypeError):
            simplex_generator_power(2, (Fraction(1), 0, 1))
        assert simplex_generator_power(2, (np.int64(1), False, True)) == simplex_generator_power(
            2, (1, 0, 1)
        )


class TestGeneratorPowers:
    def test_matches_one_power_at_a_time(self):
        for d in range(1, 6):
            for n in range(9):
                alphas = monomials_upto(d + 1, n)
                powers = generator_powers(d, n)
                assert list(powers.items()) == [(a, simplex_generator_power(d, a)) for a in alphas]
                assert all(type(g) is (UPoly if d == 1 else MPoly) for g in powers.values())

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            generator_powers(0, 2)
        with pytest.raises(ValueError):
            generator_powers(2, -1)

    def test_multinomial_is_the_factorial_quotient(self):
        for parts in [(), (0,), (5,), (1, 0, 3), *monomials_upto(4, 7)]:
            want = math.factorial(sum(parts)) // math.prod(map(math.factorial, parts))
            assert multinomial(parts) == want


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

    @staticmethod
    def recursive_monomials(dimension, total):
        """The recursive definition: first exponent descending, then the rest."""
        if dimension == 1:
            return [(total,)]
        return [
            (first,) + rest
            for first in range(total, -1, -1)
            for rest in TestMonomialOrder.recursive_monomials(dimension - 1, total - first)
        ]

    def test_of_degree_matches_recursive_definition(self):
        for d in range(1, 6):
            for total in range(9):
                assert monomials_of_degree(d, total) == self.recursive_monomials(d, total)


def seeded_upolys(seed, count=40):
    """Random UPolys with zero gaps, plus the zero and a constant."""
    rng = random.Random(seed)
    out = [UPoly.zero(), UPoly.constant(Fraction(-7, 3))]
    for _ in range(count):
        coeffs = [
            Fraction(rng.randint(-9, 9), rng.randint(1, 6)) if rng.random() < 0.7 else 0
            for _ in range(rng.randint(1, 9))
        ]
        out.append(UPoly.from_coeffs(coeffs))
    return out


def as_mpoly(p):
    """p(x_1) as a two-variable MPoly, built from the coefficients."""
    return MPoly.make(2, {(k, 0): c for k, c in enumerate(p.coeffs)})


def _first_exponents(terms):
    return {e[:1]: c for e, c in terms.items()}


class TestSharedReadInterface:
    """UPoly p(x) reads like the two-variable MPoly p(x_1)."""

    def test_dimension_terms_and_sparse_view(self):
        for p in seeded_upolys(11):
            m = as_mpoly(p)
            assert (p.dimension, m.dimension) == (1, 2)
            assert p.terms == _first_exponents(m.terms)
            assert all(c != 0 for c in p.terms.values())
            assert p.sparse_nums == _first_exponents(m.sparse_nums)
            assert all(type(c) is int and c != 0 for c in p.sparse_nums.values())
            assert p.den == m.den
            assert p.degree == m.degree
            assert p.constant_term == m.constant_term

    def test_sparse_view_has_gaps_removed(self):
        p = upoly(Fraction(1, 2), 0, 0, Fraction(-3, 4))
        assert p.sparse_nums == {(0,): 2, (3,): -3}
        assert p.den == 4
        assert p.terms == {(0,): Fraction(1, 2), (3,): Fraction(-3, 4)}

    def test_from_sparse_nums_round_trip(self):
        for p in seeded_upolys(12):
            q = poly_from_sparse_nums(1, p.sparse_nums, p.den)
            assert type(q) is UPoly and q == p
        m = MPoly.make(2, {(1, 0): Fraction(1, 2), (0, 3): 5})
        q = poly_from_sparse_nums(2, dict(m.sparse_nums), m.den)
        assert type(q) is MPoly and q == m

    def test_from_sparse_nums_canonicalizes(self):
        p = poly_from_sparse_nums(1, {(0,): 2, (1,): 0, (2,): 4}, 6)
        assert (p.nums, p.den) == ((1, 0, 2), 3)
        assert poly_from_sparse_nums(1, {(3,): 0}, 5) == UPoly.zero()
        assert poly_from_sparse_nums(1, {}, 1) == UPoly.zero()
        q = poly_from_sparse_nums(2, {(1, 1): 3, (0, 0): 0}, 9)
        assert (q.nums, q.den) == ({(1, 1): 1}, 3)


def _upoly_ref_eval(p, x):
    return sum((c * Fraction(x) ** k for k, c in enumerate(p.coeffs)), Fraction(0))


def _points(rng, d):
    """Rational, negative and integer points of dimension d."""
    return [
        [Fraction(rng.randint(-20, 20), rng.randint(1, 16)) for _ in range(d)],
        [Fraction(-rng.randint(1, 9), rng.randint(2, 7)) for _ in range(d)],
        [rng.randint(-3, 3) for _ in range(d)],
    ]


class TestEval:
    """Each class's eval against a Fraction reference computed here."""

    def test_upoly_matches_reference(self):
        rng = random.Random(41)
        for point in _points(rng, 1):
            for p in seeded_upolys(13):
                got = p.eval(point[0])
                assert type(got) is Fraction and got == _upoly_ref_eval(p, point[0])

    def test_mpoly_of_mixed_degrees_matches_reference(self):
        rng = random.Random(43)
        for _ in range(40):
            d = rng.choice([2, 3])
            # Degrees 0..6 in each variable, the zero polynomial among them.
            terms = [TestMPolyIntegerNumerators.rand_terms(rng, d) for _ in range(5)]
            terms.append({tuple(rng.randint(0, 6) for _ in range(d)): Fraction(5, 3)})
            terms.append({})
            for point in _points(rng, d):
                for t in terms:
                    assert MPoly.make(d, t).eval(point) == _mref_eval(t, point)

    def test_univariate_classes_agree(self):
        rng = random.Random(47)
        for point in _points(rng, 1):
            for p in seeded_upolys(17, count=10):
                want = _upoly_ref_eval(p, point[0])
                assert p.eval(point[0]) == as_mpoly(p).eval(point + [Fraction(5, 7)]) == want

    def test_eval_equals_poly_eval(self):
        rng = random.Random(53)
        for p in seeded_upolys(19, count=10):
            x = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            assert p.eval(x) == poly_eval(p, [x]) == _upoly_ref_eval(p, x)
        m = simplex_generator_power(3, (2, 0, 1, 3))
        point = [Fraction(1, 3), Fraction(-1, 2), 2]
        assert m.eval(point) == poly_eval(m, point) == _mref_eval(m.terms, point)

    def test_zero_polynomial(self):
        assert UPoly.zero().eval(Fraction(1, 3)) == poly_eval(UPoly.zero(), [-2]) == 0
        assert MPoly.zero(2).eval([2, Fraction(-1, 5)]) == poly_eval(MPoly.zero(2), [2, 1]) == 0

    def test_rejects_floats_and_wrong_dimensions(self):
        for call in (lambda: upoly(1, 2).eval(0.5),
                     lambda: poly_eval(upoly(1, 2), [0.5]),
                     lambda: MPoly.constant(2, 1).eval([1, 0.25]),
                     lambda: poly_eval(MPoly.constant(2, 1), [1, 0.25]),
                     lambda: MPoly.zero(2).eval([0.5, 1])):
            with pytest.raises(TypeError):
                call()
        for call in (lambda: poly_eval(upoly(1, 2), [1, 2]),
                     lambda: poly_eval(upoly(1, 2), []),
                     lambda: poly_eval(MPoly.constant(2, 1), [1]),
                     lambda: MPoly.constant(2, 1).eval([1]),
                     lambda: MPoly.constant(3, 1).eval([1, 2]),
                     lambda: MPoly.zero(2).eval([1, 2, 3])):
            with pytest.raises(ValueError, match="point dimension mismatch"):
                call()


class TestLinearCombination:
    """linear_combination against the sequential sum of weight * poly."""

    @staticmethod
    def sequential(pairs):
        total = pairs[0][1] * pairs[0][0]
        for w, p in pairs[1:]:
            total = total + p * w
        return total

    def test_upoly_matches_sequential_sum(self):
        rng = random.Random(59)
        polys = seeded_upolys(23)
        pairs = [(Fraction(rng.randint(-9, 9), rng.randint(1, 8)), p) for p in polys]
        for k in (1, 2, len(pairs)):
            got = linear_combination(pairs[:k])
            assert type(got) is UPoly and got == self.sequential(pairs[:k])
            _assert_canonical(got)

    def test_mpoly_matches_sequential_sum(self):
        rng = random.Random(61)
        for _ in range(30):
            d = rng.choice([2, 3])
            pairs = [(Fraction(rng.randint(-9, 9), rng.randint(1, 8)),
                      MPoly.make(d, TestMPolyIntegerNumerators.rand_terms(rng, d)))
                     for _ in range(rng.randint(1, 6))]
            got = linear_combination(iter(pairs))
            assert type(got) is MPoly and got == self.sequential(pairs)
            _assert_mcanonical(got)

    def test_dimension_one_gives_a_upoly(self):
        # The d=1 simplex generators are UPolys, and so is their sum.
        pairs = [(Fraction(3, k + 1), simplex_generator_power(1, a))
                 for k, a in enumerate(monomials_upto(2, 4))]
        assert all(type(p) is UPoly for _, p in pairs)
        got = linear_combination(pairs)
        assert type(got) is UPoly and got == self.sequential(pairs)
        _assert_canonical(got)
        ups = seeded_upolys(29, count=8)
        dense = [(Fraction(1, 3), p) for p in ups] + [(Fraction(-2, 5), p) for p in ups]
        got = linear_combination(dense)
        assert type(got) is UPoly and got == self.sequential(dense)

    def test_cancellation_and_bad_input(self):
        p = upoly(Fraction(1, 2), 3)
        assert linear_combination([(2, p), (-1, p * 2)]) == UPoly.zero()
        with pytest.raises(ValueError):
            linear_combination([])
        with pytest.raises(ValueError):
            linear_combination([(1, upoly(1)), (1, MPoly.constant(2, 1))])
        with pytest.raises(TypeError):
            linear_combination([(0.5, upoly(1))])
