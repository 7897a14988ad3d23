import dataclasses
import inspect
import itertools
import logging
import random
from fractions import Fraction
from math import comb, gcd, lcm

import pytest
import sympy

from unitycert.measures import (
    ARCSINE,
    ARCSINE_G,
    LEBESGUE01,
    SimplexNormalization,
    dirichlet,
    functional_for,
    localized,
    simplex_equilibrium,
    simplex_uniform,
)
from unitycert import momatrix
from unitycert.identities import UnityVariant, verify_simplex_equilibrium, verify_unity_interval
from unitycert.momatrix import (
    NotPositiveDefiniteError,
    _dirichlet_basis,
    christoffel_eval,
    christoffel_form,
    christoffel_form_of_matrix,
    invert_exact,
    invert_hankel,
    invert_symmetric_rational,
    is_positive_definite,
    matrix_to_json,
    moment_matrix,
    rational_matrix_from_json,
)
from unitycert.polycore import (
    ChebKind,
    MPoly,
    UPoly,
    cheb,
    cheb_orthonormal_square,
    monomials_upto,
    simplex_generator_power,
)

G = UPoly.from_coeffs([1, 0, -1])  # 1 - x^2


def frac_rows(rows):
    return tuple(tuple(Fraction(v) for v in row) for row in rows)


class TestMomentMatrix:
    def test_arcsine_n1(self):
        m = moment_matrix(ARCSINE, 1)
        assert m.entries == frac_rows([[1, 0], [0, Fraction(1, 2)]])
        assert m.basis == ((0,), (1,))

    def test_localizing(self):
        m = moment_matrix(ARCSINE, 1, shift=G)
        assert m.entries == frac_rows([[Fraction(1, 2), 0], [0, Fraction(1, 8)]])

    def test_simplex_uniform_n1(self):
        m = moment_matrix(simplex_uniform(2), 1)
        third = Fraction(1, 3)
        assert m.entries == frac_rows(
            [[1, third, third], [third, Fraction(1, 6), Fraction(1, 12)], [third, Fraction(1, 12), Fraction(1, 6)]]
        )

    def test_hankel_structure(self):
        f = functional_for(ARCSINE)
        for n in range(9):
            m = moment_matrix(ARCSINE, n)
            for i in range(n + 1):
                for j in range(n + 1):
                    assert m.entry(i, j) == f.moment((i + j,))

    def test_localizing_hankel_structure(self):
        # Entry (i, j) of the localizing matrix is L(g x^(i+j)).
        f = functional_for(LEBESGUE01)
        m = moment_matrix(LEBESGUE01, 4, UPoly.from_coeffs([0, 1, -1]))
        for i in range(5):
            for j in range(5):
                assert m.entry(i, j) == f.moment((i + j + 1,)) - f.moment((i + j + 2,))

    def test_shift_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            moment_matrix(simplex_uniform(2), 1, shift=G)
        with pytest.raises(ValueError, match="dimension"):
            moment_matrix(simplex_equilibrium(), 2, MPoly.make(3, {(1, 1, 0): 1}))

    @pytest.mark.parametrize(
        "measure, n, shift",
        [
            (simplex_uniform(3), 3, None),
            (simplex_equilibrium(), 3, MPoly.make(2, {(1, 0): 1, (2, 0): -1, (1, 1): -1})),
            (simplex_uniform(2), 3, MPoly.make(2, {(0, 0): 1, (1, 0): 1})),
        ],
    )
    def test_multivariate_entries(self, measure, n, shift):
        # Entry (a, b) is L(g x^(a+b)), integrated here one entry at a time.
        f = functional_for(measure)
        g = shift if shift is not None else MPoly.constant(measure.dimension, 1)
        m = moment_matrix(measure, n, shift)
        for i, a in enumerate(m.basis):
            for j, b in enumerate(m.basis):
                e = tuple(x + y for x, y in zip(a, b))
                assert m.entry(i, j) == f.poly_moment(g * MPoly.make(measure.dimension, {e: 1}))


class TestInvertExact:
    def test_diagonal(self):
        m = moment_matrix(ARCSINE, 1)
        assert invert_exact(m) == frac_rows([[1, 0], [0, 2]])

    def test_one_by_one(self):
        assert invert_symmetric_rational([[Fraction(1, 2)]]) == frac_rows([[2]])

    def test_equilibrium_m1(self):
        m = moment_matrix(simplex_equilibrium(), 1)
        expected = [
            [3, Fraction(-15, 4), Fraction(-15, 4)],
            [Fraction(-15, 4), Fraction(15, 2), Fraction(15, 4)],
            [Fraction(-15, 4), Fraction(15, 4), Fraction(15, 2)],
        ]
        assert invert_exact(m) == frac_rows(expected)

    def test_product_is_identity(self):
        cases = [
            (ARCSINE, 6, None),
            (ARCSINE_G, 5, None),
            (LEBESGUE01, 6, None),
            (ARCSINE, 4, G),
            (simplex_uniform(2), 3, None),
            (simplex_equilibrium(), 2, None),
        ]
        for measure, n, shift in cases:
            m = moment_matrix(measure, n, shift=shift)
            inv = invert_exact(m)
            size = m.size
            for i in range(size):
                for j in range(size):
                    acc = sum(m.entry(i, k) * inv[k][j] for k in range(size))
                    assert acc == (1 if i == j else 0)

    def test_against_sympy_oracle(self):
        rng = random.Random(5)
        for _ in range(8):
            size = rng.randint(1, 5)
            lower = [[Fraction(0)] * size for _ in range(size)]
            for i in range(size):
                for j in range(i):
                    lower[i][j] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                lower[i][i] = Fraction(rng.randint(1, 4), rng.randint(1, 2))
            spd = [
                [sum(lower[i][k] * lower[j][k] for k in range(size)) for j in range(size)]
                for i in range(size)
            ]
            ours = invert_symmetric_rational(spd)
            oracle = sympy.Matrix([[sympy.Rational(v) for v in row] for row in spd]).inv()
            for i in range(size):
                for j in range(size):
                    assert ours[i][j] == Fraction(int(oracle[i, j].p), int(oracle[i, j].q))

    def test_singular_matrix_names_minor(self):
        with pytest.raises(NotPositiveDefiniteError) as exc:
            invert_symmetric_rational([[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]])
        assert exc.value.order == 2
        assert "order 2" in str(exc.value)

    def test_negative_definite_rejected(self):
        with pytest.raises(NotPositiveDefiniteError) as exc:
            invert_symmetric_rational([[Fraction(-1)]])
        assert exc.value.order == 1

    def test_positive_definite_check_is_the_elimination(self):
        rng = random.Random(170)
        for size in (1, 4, 7):
            spd = random_spd(rng, size)
            assert is_positive_definite(spd)
            # Lowering the last entry by the Schur complement leaves it singular.
            last = Fraction(1) / invert_symmetric_rational(spd)[-1][-1]
            singular = [row[:-1] + [row[-1] - last * (i == size - 1)] for i, row in enumerate(spd)]
            assert not is_positive_definite(singular)
        assert is_positive_definite([[2, 1], [1, 2]]) and not is_positive_definite([[1, 2], [2, 1]])



def random_spd(rng, size):
    """L L^T for a random lower-triangular L with mixed denominators."""
    lower = [[Fraction(0)] * size for _ in range(size)]
    for i in range(size):
        for j in range(i):
            lower[i][j] = Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 5, 7, 12, 25]))
        lower[i][i] = Fraction(rng.randint(1, 9), rng.choice([1, 2, 3, 4, 11]))
    return [
        [sum(lower[i][k] * lower[j][k] for k in range(size)) for j in range(size)]
        for i in range(size)
    ]


def sympy_matrix(rows):
    return sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row] for row in rows])


class TestIntegerBackSubstitution:
    def test_hilbert_closed_form(self):
        # The LEBESGUE01 moment matrix is the Hilbert matrix, whose inverse
        # has integer entries in closed form.
        for n in range(12):
            m = n + 1
            inv = invert_exact(moment_matrix(LEBESGUE01, n))
            for i in range(m):
                for j in range(m):
                    expected = (
                        (-1) ** (i + j)
                        * (i + j + 1)
                        * comb(m + i, m - j - 1)
                        * comb(m + j, m - i - 1)
                        * comb(i + j, i) ** 2
                    )
                    assert inv[i][j] == expected

    def test_random_spd_against_sympy(self):
        rng = random.Random(23)
        for size in range(6, 13):
            spd = random_spd(rng, size)
            ours = invert_symmetric_rational(spd)
            oracle = sympy_matrix(spd).inv()
            for i in range(size):
                for j in range(size):
                    assert ours[i][j] == Fraction(int(oracle[i, j].p), int(oracle[i, j].q))

    def test_inverse_is_exactly_symmetric(self):
        rng = random.Random(29)
        matrices = [random_spd(rng, size) for size in (2, 7, 11)]
        matrices += [
            moment_matrix(simplex_uniform(2), 3).entries,
            moment_matrix(simplex_equilibrium(), 2).entries,
            moment_matrix(ARCSINE, 5, shift=G).entries,
        ]
        for entries in matrices:
            inv = invert_symmetric_rational(entries)
            size = len(entries)
            for i in range(size):
                for j in range(size):
                    assert inv[i][j] == inv[j][i]

    def test_failure_reports_first_nonpositive_leading_minor(self):
        rows = [
            [Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(1, 7)],
            [Fraction(1, 3), Fraction(1, 2), Fraction(1, 5), Fraction(2, 9)],
            [Fraction(1, 4), Fraction(1, 5), Fraction(1, 100), Fraction(1, 6)],
            [Fraction(1, 7), Fraction(2, 9), Fraction(1, 6), Fraction(3)],
        ]
        minors = [sympy_matrix(rows)[:k, :k].det() for k in (1, 2, 3)]
        assert minors[0] > 0 and minors[1] > 0 and minors[2] < 0
        with pytest.raises(NotPositiveDefiniteError) as exc:
            invert_symmetric_rational(rows)
        assert exc.value.order == 3
        assert exc.value.minor == Fraction(int(minors[2].p), int(minors[2].q))

    def test_empty_matrix(self):
        assert invert_symmetric_rational([]) == ()

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            invert_symmetric_rational([[Fraction(1), Fraction(0)]])
        with pytest.raises(ValueError):
            invert_symmetric_rational([[Fraction(1), Fraction(0)], [Fraction(0)]])

    def test_non_symmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            invert_symmetric_rational([[Fraction(2), Fraction(1)], [Fraction(1, 2), Fraction(2)]])

    def test_int_entries(self):
        inv = invert_symmetric_rational([[2, 1], [1, 2]])
        assert inv == frac_rows([[Fraction(2, 3), Fraction(-1, 3)], [Fraction(-1, 3), Fraction(2, 3)]])
        assert all(isinstance(v, Fraction) for row in inv for v in row)

    @pytest.mark.parametrize(
        "entries, message",
        [
            ([[1.0, 0.5], [0.5, 0.3]], "exact layer does not accept floats"),
            ([[Fraction(1), 0.5], [0.5, 1]], "exact layer does not accept floats"),
            ([["1", "1/2"], ["1/2", "1/3"]], "exact layer does not accept str values"),
        ],
        ids=["floats", "one-float", "strings"],
    )
    def test_inexact_entries_rejected(self, entries, message):
        for check in (invert_symmetric_rational, is_positive_definite):
            with pytest.raises(TypeError, match=message):
                check(entries)

    def test_debug_record_reports_sizes(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="unitycert.momatrix"):
            invert_symmetric_rational([[2, 1], [1, 2]])
        # det = 3 and det * A^{-1} = [[2, -1], [-1, 2]]: two bits each.
        assert [r.getMessage() for r in caplog.records] == [
            "inverted dim=2 method=bareiss det_bits=2 entry_bits_max=2"
        ]

    def test_no_debug_record_by_default(self, caplog):
        with caplog.at_level(logging.INFO, logger="unitycert.momatrix"):
            invert_symmetric_rational([[2, 1], [1, 2]])
        assert caplog.records == []

class TestChristoffelForm:
    def test_arcsine_n1(self):
        form = christoffel_form(ARCSINE, 1)
        assert form.quadratic_form_poly == UPoly.from_coeffs([1, 0, 2])

    def test_localized_constant(self):
        form = christoffel_form_of_matrix(moment_matrix(ARCSINE, 0, G))
        assert form.quadratic_form_poly == UPoly.from_coeffs([2])

    def test_reads_the_measure_alone(self, monkeypatch):
        # Every measure has its orthogonal polynomials: no moment functional,
        # no filled matrix and no Bareiss elimination.
        assert list(inspect.signature(christoffel_form).parameters) == ["measure", "n"]

        def boom(*args, **kwargs):
            raise AssertionError("christoffel_form built a matrix")

        for name in ("functional_for", "moment_matrix", "_bareiss_upper", "_bareiss_inverse_nums"):
            monkeypatch.setattr(momatrix, name, boom)
        measures = [ARCSINE, ARCSINE_G, LEBESGUE01, dirichlet((Fraction(1, 3), 2), Fraction(5, 7)),
                    simplex_uniform(3), localized(simplex_equilibrium(), (1, 1, 0))]
        for measure in measures:
            for n in range(4):
                christoffel_form(measure, n)

    def test_lebesgue_constant(self):
        form = christoffel_form(LEBESGUE01, 0)
        assert form.quadratic_form_poly == UPoly.from_coeffs([1])

    def test_eval_examples(self):
        form = christoffel_form(ARCSINE, 1)
        assert christoffel_eval(form, [Fraction(0)]) == 1
        assert christoffel_eval(form, [Fraction(1)]) == 3
        flat = christoffel_form(ARCSINE, 0)
        assert christoffel_eval(flat, [Fraction(5)]) == 1

    def test_degree_is_2n(self):
        for n in range(5):
            form = christoffel_form(ARCSINE, n)
            assert form.quadratic_form_poly.degree == 2 * n

    def test_sum_of_squares_identity(self):
        # The unshifted form is the sum of squared orthonormal polynomials,
        # and the localized one the same for the second family.
        for n in range(1, 17):
            form = christoffel_form(ARCSINE, n)
            total = UPoly.zero()
            for j in range(n + 1):
                total = total + cheb_orthonormal_square(ChebKind.FIRST, j)
            assert form.quadratic_form_poly == total
        for n in range(16):
            form = christoffel_form_of_matrix(moment_matrix(ARCSINE, n, G))
            total = UPoly.zero()
            for j in range(n + 1):
                total = total + cheb_orthonormal_square(ChebKind.SECOND, j)
            assert form.quadratic_form_poly == total

    def test_trace_identity(self):
        cases = [
            (ARCSINE, 7),
            (ARCSINE_G, 6),
            (LEBESGUE01, 7),
            (simplex_uniform(2), 4),
            (simplex_equilibrium(), 3),
        ]
        for measure, max_n in cases:
            f = functional_for(measure)
            for n in range(max_n + 1):
                form = christoffel_form(measure, n)
                size = len(moment_matrix(measure, n).basis)
                assert f.poly_moment(form.quadratic_form_poly) == size

    def test_scaling_covariance(self):
        # Scaling every moment by t > 0 scales the form by exactly 1/t.
        rng = random.Random(17)
        base = moment_matrix(ARCSINE, 3)
        form = christoffel_form_of_matrix(base).quadratic_form_poly
        for _ in range(5):
            t = Fraction(rng.randint(1, 40), rng.randint(1, 40))
            scaled = dataclasses.replace(
                base, entries=tuple(tuple(t * v for v in row) for row in base.entries)
            )
            scaled_form = christoffel_form_of_matrix(scaled).quadratic_form_poly
            assert scaled_form * t == form

    def test_normalization_pair_scaling(self):
        raw = christoffel_form(simplex_equilibrium(), 2).quadratic_form_poly
        prob = christoffel_form(
            simplex_equilibrium(SimplexNormalization.PROBABILITY), 2
        ).quadratic_form_poly
        assert prob == raw * 2


def fraction_quadratic_form(basis, inverse, dim):
    """v^T inverse v summed term by term in Fractions, each pair (i, j) visited."""
    terms = {}
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            e = tuple(x + y for x, y in zip(a, b))
            terms[e] = terms.get(e, Fraction(0)) + inverse[i][j]
    if dim == 1:
        top = max(e[0] for e in terms)
        return UPoly.from_coeffs(terms.get((k,), Fraction(0)) for k in range(top + 1))
    return MPoly.make(dim, terms)


class TestIntegerQuadraticForm:
    @pytest.mark.parametrize(
        "measure, n, shift",
        [
            (ARCSINE, 12, None),
            (ARCSINE, 6, G),
            (ARCSINE_G, 5, None),
            (LEBESGUE01, 8, None),
            (simplex_uniform(2), 3, None),
            (simplex_uniform(3), 2, None),
            (simplex_equilibrium(), 2, MPoly.make(2, {(1, 1): 1})),
        ],
    )
    def test_matches_fraction_sum(self, measure, n, shift):
        matrix = moment_matrix(measure, n, shift)
        form = christoffel_form_of_matrix(matrix)
        want = fraction_quadratic_form(matrix.basis, form.inverse, measure.dimension)
        assert type(form.quadratic_form_poly) is type(want)
        assert form.quadratic_form_poly == want


SHIFTS = {
    "none": None,
    "1-x^2": G,
    "1-x": UPoly.from_coeffs([1, -1]),
    "x(1-x)": UPoly.from_coeffs([0, 1, -1]),
    "3": UPoly.from_coeffs([3]),
    "x-1/2": UPoly.from_coeffs([Fraction(-1, 2), 1]),
    "zero": UPoly.zero(),
}


def bareiss_outcome(matrix):
    """The Bareiss inverse, or (order, minor) of its NotPositiveDefiniteError."""
    try:
        return invert_symmetric_rational(matrix.entries)
    except NotPositiveDefiniteError as exc:
        return exc.order, exc.minor


def shifted_moments(measure, n, shift):
    """L(shift x^k) for k = 0..2n, one ``poly_moment`` each."""
    f = functional_for(measure)
    g = UPoly.constant(1) if shift is None else shift
    return [f.poly_moment(g * UPoly((0,) * k + (1,))) for k in range(2 * n + 1)]


def hankel_form(measure, n, shift):
    """The form of ``shift * measure`` from the Chebyshev algorithm on its
    shifted moments, the integer core of ``invert_hankel``."""
    moments = shifted_moments(measure, n, shift)
    return momatrix._christoffel_form(measure, n, shift, *momatrix._hankel_inverse_nums(moments))


class TestRecurrenceInverse:
    """The univariate recurrence (Chebyshev algorithm) against Bareiss as the oracle."""

    @pytest.mark.parametrize("shift", list(SHIFTS), ids=list(SHIFTS))
    @pytest.mark.parametrize("measure", [ARCSINE, ARCSINE_G, LEBESGUE01], ids=lambda m: m.label())
    def test_matches_bareiss(self, measure, shift):
        # invert_hankel runs the Chebyshev algorithm on every input here.
        # With no shift christoffel_form is checked too: ARCSINE and
        # ARCSINE_G take their closed forms and LEBESGUE01 the Dirichlet route.
        shift = SHIFTS[shift]
        for n in range(21):
            matrix = moment_matrix(measure, n, shift)
            want = bareiss_outcome(matrix)
            moments = shifted_moments(measure, n, shift)
            if isinstance(want[0], int):
                # x(1-x) is negative on most of [-1,1]; both must agree on why.
                with pytest.raises(NotPositiveDefiniteError) as exc:
                    invert_hankel(moments)
                assert (exc.value.order, exc.value.minor) == want
                continue
            assert invert_hankel(moments) == want
            form = christoffel_form(measure, n) if shift is None else hankel_form(measure, n, shift)
            assert form.inverse == want
            assert form.quadratic_form_poly == fraction_quadratic_form(matrix.basis, want, 1)

    @pytest.mark.parametrize(
        "measure, shift, order, minor",
        [
            (ARCSINE, UPoly.from_coeffs([0, 1]), 1, Fraction(0)),
            (LEBESGUE01, UPoly.from_coeffs([Fraction(-1, 2), 1]), 1, Fraction(0)),
            (LEBESGUE01, UPoly.from_coeffs([Fraction(-1, 3), 1]), 2, Fraction(-1, 216)),
            (ARCSINE, UPoly.from_coeffs([-1]), 1, Fraction(-1)),
            (LEBESGUE01, UPoly.zero(), 1, Fraction(0)),
        ],
    )
    def test_not_positive_definite_like_bareiss(self, measure, shift, order, minor):
        for n in range(order - 1, 6):
            matrix = moment_matrix(measure, n, shift)
            assert bareiss_outcome(matrix) == (order, minor)
            with pytest.raises(NotPositiveDefiniteError) as exc:
                invert_hankel(shifted_moments(measure, n, shift))
            assert (exc.value.order, exc.value.minor) == (order, minor)
            assert f"order {order} is {minor}" in str(exc.value)

    def test_random_hankel_like_bareiss(self):
        # Moments of r rational atoms: the minors are positive up to order r
        # and 0 after it, and a perturbed top moment moves the last minor.
        rng = random.Random(23)
        failures = set()
        for _ in range(80):
            atoms = [(Fraction(rng.randint(1, 9), rng.randint(1, 9)),
                      Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
                     for _ in range(rng.randint(1, 6))]
            n = rng.randint(0, 6)
            moments = [sum(w * x**k for w, x in atoms) for k in range(2 * n + 1)]
            moments[-1] += Fraction(rng.randint(-3, 1), rng.randint(1, 5))
            try:
                want = invert_symmetric_rational([moments[i : i + n + 1] for i in range(n + 1)])
            except NotPositiveDefiniteError as exc:
                with pytest.raises(NotPositiveDefiniteError) as got:
                    invert_hankel(moments)
                assert (got.value.order, got.value.minor) == (exc.order, exc.minor)
                failures.add((exc.order, exc.minor < 0))
                continue
            assert invert_hankel(moments) == want
        # Zero and negative minors, first met at several orders.
        assert {negative for _, negative in failures} == {False, True}
        assert len({order for order, _ in failures}) >= 4

    def test_arcsine_degree_96(self):
        form = christoffel_form(ARCSINE, 96)
        total = UPoly.zero()
        for j in range(97):
            total = total + cheb_orthonormal_square(ChebKind.FIRST, j)
        assert form.quadratic_form_poly == total

    def test_invert_hankel_direct(self):
        # [[1, 1/2], [1/2, 1/3]] is the Hilbert matrix of Lebesgue on [0,1].
        inverse = invert_hankel([Fraction(1), Fraction(1, 2), Fraction(1, 3)])
        assert inverse == frac_rows([[4, -6], [-6, 12]])
        with pytest.raises(ValueError, match="odd"):
            invert_hankel([Fraction(1), Fraction(0)])

    @pytest.mark.parametrize(
        "moments, message",
        [
            ([1.0, 0.5, 0.3], "exact layer does not accept floats"),
            ([Fraction(1), 0, 0.5], "exact layer does not accept floats"),
            (["1", "1/2", "1/3"], "exact layer does not accept str values"),
        ],
        ids=["floats", "one-float", "strings"],
    )
    def test_inexact_moments_rejected(self, moments, message):
        with pytest.raises(TypeError, match=message):
            invert_hankel(moments)

    def test_int_moments(self):
        assert invert_hankel([1, 0, 1]) == frac_rows([[1, 0], [0, 1]])

    def test_shift_dimension_mismatch(self):
        # A univariate localizing matrix takes a univariate shift only.
        with pytest.raises(ValueError, match="dimension"):
            moment_matrix(ARCSINE, 2, MPoly.make(2, {(1, 1): 1}))

    def test_arcsine_g_is_the_localized_arcsine(self):
        # CHEBY2 reads ARCSINE_G's own polynomials in place of the Chebyshev
        # algorithm on L((1 - x^2) x^k).
        for n in range(17):
            form = christoffel_form(ARCSINE_G, n)
            want = hankel_form(ARCSINE, n, G)
            assert (form.inverse_upper, form.inverse_den) == (want.inverse_upper, want.inverse_den)
            assert form.quadratic_form_poly == want.quadratic_form_poly

    def test_non_hankel_matrix_inverted_exactly(self):
        # A built matrix goes to Bareiss whatever its dimension, so a
        # symmetric univariate matrix that is not Hankel is inverted too.
        base = moment_matrix(ARCSINE, 2)
        rows = [list(row) for row in base.entries]
        rows[0][2] = rows[2][0] = Fraction(1, 4)  # mu_2 = 1/2 stays at (1, 1)
        edited = dataclasses.replace(base, entries=tuple(tuple(row) for row in rows))
        inverse = invert_exact(edited)
        oracle = sympy_matrix(edited.entries).inv()
        assert inverse == tuple(tuple(Fraction(int(v.p), int(v.q)) for v in oracle.row(i))
                                for i in range(3))
        form = christoffel_form_of_matrix(edited)
        assert form.inverse == inverse
        assert form.quadratic_form_poly == fraction_quadratic_form(base.basis, inverse, 1)


class TestChebyshevForms:
    """ARCSINE and ARCSINE_G with no shift: closed-form Chebyshev polynomials
    in place of the Chebyshev algorithm on their moments."""

    @pytest.mark.parametrize("measure", [ARCSINE, ARCSINE_G], ids=lambda m: m.label())
    def test_matches_the_moment_route(self, caplog, measure):
        f = functional_for(measure)
        for n in range(65):
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="unitycert.momatrix"):
                form = christoffel_form(measure, n)
                moments = [f.moment((k,)) for k in range(2 * n + 1)]
                want = momatrix._christoffel_form(measure, n, None,
                                                  *momatrix._hankel_inverse_nums(moments))
            # The same DEBUG record from both routes.
            records = [r.getMessage() for r in caplog.records if r.name == "unitycert.momatrix"]
            assert len(records) == 2 and records[0] == records[1]
            assert form.inverse_upper == want.inverse_upper
            assert form.inverse_den == want.inverse_den
            assert form.quadratic_form_poly == want.quadratic_form_poly
            if n <= 8:
                bareiss = christoffel_form_of_matrix(moment_matrix(measure, n))
                assert (form.inverse_upper, form.inverse_den) == (bareiss.inverse_upper,
                                                                  bareiss.inverse_den)
                assert form.quadratic_form_poly == bareiss.quadratic_form_poly

    def test_runs_no_chebyshev_algorithm(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("_chebyshev_algorithm was called")

        monkeypatch.setattr(momatrix, "_chebyshev_algorithm", boom)
        for n in range(9):
            christoffel_form(ARCSINE, n)
            christoffel_form(ARCSINE_G, n)
        assert verify_unity_interval(8, UnityVariant.CHEBY2).holds
        with pytest.raises(AssertionError, match="_chebyshev_algorithm"):
            invert_hankel(shifted_moments(ARCSINE, 2, G))

    @pytest.mark.parametrize("measure, kind", [(ARCSINE, ChebKind.FIRST), (ARCSINE_G, ChebKind.SECOND)],
                             ids=["arcsine", "arcsine-g"])
    def test_constants_are_the_chebyshev_algorithm(self, measure, kind):
        # The documented p_k and h_k, from the Chebyshev algorithm on the moments.
        f = functional_for(measure)
        polys, norms = momatrix._chebyshev_algorithm([f.moment((k,)) for k in range(129)])
        for k in range(65):
            coeffs = cheb(kind, k).coeffs
            if kind is ChebKind.FIRST:  # T_k / 2^(k-1), h_k = 2^(1-2k); p_0 = 1, h_0 = 1
                want = ([1], Fraction(1)) if k == 0 else (
                    [c / 2 ** (k - 1) for c in coeffs], Fraction(1, 2 ** (2 * k - 1)))
            else:  # U_k / 2^k, h_k = 2^(-2k-1)
                want = [c / 2**k for c in coeffs], Fraction(1, 2 ** (2 * k + 1))
            nums, den = polys[k]
            assert ([Fraction(v, den) for v in nums], Fraction(*norms[k])) == want
            closed_polys, closed_norms = momatrix._chebyshev_pair(kind, k)
            nums, den = closed_polys[-1]
            assert ([Fraction(v, den) for v in nums], Fraction(*closed_norms[-1])) == want
            if k:
                assert closed_polys[0] == momatrix._chebyshev_pair(kind, k - 1)[0][-1]


def lowest_upper(y, den):
    """An upper-triangle inverse ``y / den`` over its lowest denominator."""
    g = gcd(den, *itertools.chain.from_iterable(y))
    return [[v // g for v in row] for row in y], den // g


def random_rational(rng, top=9):
    return Fraction(rng.randint(1, top), rng.randint(1, top))


def atom_moments(atoms, n):
    """mu_0 .. mu_2n of the discrete measure with ``(weight, point)`` atoms."""
    return [sum(w * x**k for w, x in atoms) for k in range(2 * n + 1)]


def random_atoms(rng, count):
    """``count`` atoms at distinct rational points with positive rational weights."""
    points = set()
    while len(points) < count:
        points.add(Fraction(rng.randint(-12, 12), rng.randint(1, 6)))
    return [(random_rational(rng), x) for x in sorted(points)]


class TestChristoffelDarboux:
    """``_kernel_nums`` (Christoffel-Darboux, O(m^2)) against the sum of outer
    products ``_inverse_nums`` and against Bareiss."""

    @pytest.mark.parametrize("shift", [None, G], ids=["plain", "1-x^2"])
    @pytest.mark.parametrize("measure", [ARCSINE, ARCSINE_G, LEBESGUE01], ids=lambda m: m.label())
    def test_matches_sum_of_outer_products(self, measure, shift):
        f = functional_for(measure)
        g = UPoly.constant(1) if shift is None else shift
        moments = [f.poly_moment(g * UPoly((0,) * k + (1,))) for k in range(2 * 96 + 1)]
        sizes = range(97)
        if measure is LEBESGUE01 and shift is G:
            # The reference sums outer products of integers of thousands of
            # bits here: every n <= 24 and two larger sizes keep it under a second.
            sizes = [*range(25), 48, 96]
        for n in sizes:
            polys, norms = momatrix._chebyshev_algorithm(moments[: 2 * n + 1])
            y, den = momatrix._kernel_nums(polys, norms)
            assert (y, den) == lowest_upper(*momatrix._inverse_nums(polys, norms, n + 1))

    def test_discrete_measures_match_bareiss(self):
        rng = random.Random(2028)
        for n in range(11):
            for _ in range(4):
                moments = atom_moments(random_atoms(rng, n + 1 + rng.randint(0, 3)), n)
                want = invert_symmetric_rational([moments[i : i + n + 1] for i in range(n + 1)])
                assert invert_hankel(moments) == want

    def test_too_few_atoms_fail_like_bareiss(self):
        rng = random.Random(2029)
        for n in range(1, 11):
            atoms = random_atoms(rng, rng.randint(1, n))
            moments = atom_moments(atoms, n)
            with pytest.raises(NotPositiveDefiniteError) as want:
                invert_symmetric_rational([moments[i : i + n + 1] for i in range(n + 1)])
            # The minors are positive up to order len(atoms) and 0 after it.
            assert (want.value.order, want.value.minor) == (len(atoms) + 1, 0)
            with pytest.raises(NotPositiveDefiniteError) as got:
                invert_hankel(moments)
            assert (got.value.order, got.value.minor) == (want.value.order, want.value.minor)

    def test_beta_measures_match_bareiss(self):
        rng = random.Random(2030)
        shifts = [None, UPoly.x(), UPoly.from_coeffs([1, -1]), UPoly.from_coeffs([0, 1, -1])]
        for _ in range(6):
            measure = dirichlet((random_rational(rng), random_rational(rng)), random_rational(rng))
            for n in range(7):
                for shift in shifts:
                    assert_matches_bareiss(measure, n, shift)

    @pytest.mark.parametrize(
        "measure, shift",
        [(ARCSINE, None), (ARCSINE, G), (ARCSINE_G, None), (LEBESGUE01, None),
         (LEBESGUE01, UPoly.from_coeffs([0, 1, -1])), (LEBESGUE01, G),
         (dirichlet((Fraction(1, 3), 2), Fraction(5, 7)), UPoly.x())],
        ids=["arcsine", "arcsine-1-x^2", "arcsine-g", "lebesgue01", "lebesgue01-x(1-x)",
             "lebesgue01-1-x^2", "beta-x"],
    )
    def test_univariate_sums_no_outer_products(self, monkeypatch, measure, shift):
        def boom(*args, **kwargs):
            raise AssertionError("_inverse_nums was called")

        monkeypatch.setattr(momatrix, "_inverse_nums", boom)
        for n in range(6):
            if shift is None:
                christoffel_form(measure, n)
            else:
                invert_hankel(shifted_moments(measure, n, shift))
        assert verify_unity_interval(8, UnityVariant.CHEBY2).holds
        with pytest.raises(AssertionError, match="_inverse_nums"):
            christoffel_form(simplex_uniform(2), 2)

    def test_shared_beta_tables_unchanged(self):
        polys, norms = momatrix._beta_recurrence(Fraction(1), Fraction(1), 6)
        before = [(list(p), d) for p, d in polys], list(norms)
        # 2/3 LEBESGUE01 scales the norms of the same table by its mass.
        christoffel_form(dirichlet((1, 1), Fraction(2, 3)), 6)
        christoffel_form(LEBESGUE01, 6)
        assert momatrix._beta_recurrence(Fraction(1), Fraction(1), 6) == (polys, norms)
        assert ([(list(p), d) for p, d in polys], list(norms)) == before


class TestInversionLog:
    def records(self, caplog, build):
        with caplog.at_level(logging.DEBUG, logger="unitycert.momatrix"):
            build()
        return [r.getMessage() for r in caplog.records if r.name == "unitycert.momatrix"]

    def test_univariate_logs_recurrence(self, caplog):
        # M = [[1, 0], [0, 1/2]]: L = 1 and L * M^{-1} = [[1, 0], [0, 2]].
        messages = self.records(caplog, lambda: christoffel_form(ARCSINE, 1))
        assert messages == ["inverted dim=2 method=recurrence den_bits=1 num_bits_max=2"]

    def test_localized_logs_recurrence(self, caplog):
        messages = self.records(caplog, lambda: invert_hankel(shifted_moments(ARCSINE, 4, G)))
        assert len(messages) == 1
        assert messages[0].startswith("inverted dim=5 method=recurrence den_bits=")

    @pytest.mark.parametrize(
        "measure, shift",
        [(ARCSINE, None), (ARCSINE, G), (ARCSINE_G, None), (LEBESGUE01, UPoly.from_coeffs([3])),
         (LEBESGUE01, G)],
        ids=["arcsine", "arcsine-1-x^2", "arcsine-g", "lebesgue01-3", "lebesgue01-1-x^2"],
    )
    def test_univariate_builds_no_matrix(self, caplog, monkeypatch, measure, shift):
        # Both univariate kernels that are not Dirichlet are built by
        # Christoffel-Darboux with no matrix: christoffel_form's from the
        # closed-form Chebyshev polynomials, invert_hankel's from the moments.
        def boom(*args, **kwargs):
            raise AssertionError("moment_matrix was called")

        monkeypatch.setattr(momatrix, "moment_matrix", boom)

        def build():
            if shift is None:
                christoffel_form(measure, 4)
            else:
                invert_hankel(shifted_moments(measure, 4, shift))

        messages = self.records(caplog, build)
        assert len(messages) == 1
        assert messages[0].startswith("inverted dim=5 method=recurrence den_bits=")

    def test_built_univariate_matrix_logs_bareiss(self, caplog):
        matrix = moment_matrix(ARCSINE, 2)
        for invert in (invert_exact, christoffel_form_of_matrix):
            caplog.clear()
            messages = self.records(caplog, lambda: invert(matrix))
            assert len(messages) == 1
            assert messages[0].startswith("inverted dim=3 method=bareiss det_bits=")

    @pytest.mark.parametrize("measure", [simplex_uniform(2), simplex_equilibrium()],
                             ids=lambda m: m.label())
    def test_simplex_logs_bareiss(self, caplog, measure):
        # A built multivariate matrix still goes through Bareiss.
        messages = self.records(
            caplog, lambda: christoffel_form_of_matrix(moment_matrix(measure, 2)))
        assert len(messages) == 1
        assert messages[0].startswith("inverted dim=6 method=bareiss det_bits=")

    def test_simplex_logs_dirichlet(self, caplog):
        # M^{-1} = [[9, -12, -12], [-12, 24, 12], [-12, 12, 24]]: L = 1.
        messages = self.records(caplog, lambda: christoffel_form(simplex_uniform(2), 1))
        assert messages == ["inverted dim=3 method=dirichlet den_bits=1 num_bits_max=5"]

    def test_localized_simplex_logs_dirichlet(self, caplog):
        edge = localized(simplex_equilibrium(), (1, 1, 0))  # x y times the measure
        messages = self.records(caplog, lambda: christoffel_form(edge, 2))
        assert len(messages) == 1
        assert messages[0].startswith("inverted dim=6 method=dirichlet den_bits=")

    def test_polynomial_shift_on_the_simplex_logs_bareiss(self, caplog):
        # x y spelled as a polynomial shift builds its localizing matrix and
        # inverts it by Bareiss, to the form of the localized measure.
        mu = simplex_equilibrium()
        matrix = moment_matrix(mu, 2, MPoly.make(2, {(1, 1): 1}))
        forms = []
        messages = self.records(caplog, lambda: forms.append(christoffel_form_of_matrix(matrix)))
        assert len(messages) == 1
        assert messages[0].startswith("inverted dim=6 method=bareiss det_bits=")
        want = christoffel_form(localized(mu, (1, 1, 0)), 2)
        assert forms[0].inverse == want.inverse
        assert forms[0].quadratic_form_poly == want.quadratic_form_poly


class TestLazyInverse:
    """``ChristoffelForm`` keeps its inverse in integers and builds the
    ``Fraction`` matrix only when ``inverse`` is read."""

    @pytest.mark.parametrize(
        "measure, n, shift",
        [
            (ARCSINE, 6, None),
            (LEBESGUE01, 6, None),
            (simplex_uniform(2), 4, None),
            (simplex_equilibrium(), 3, MPoly.make(2, {(1, 1): 1})),
        ],
        ids=["arcsine", "lebesgue01", "simplex-uniform", "equilibrium-x1x2"],
    )
    def test_inverse_is_bareiss_of_the_built_matrix(self, measure, n, shift):
        matrix = moment_matrix(measure, n, shift)
        form = christoffel_form(measure, n) if shift is None else christoffel_form_of_matrix(matrix)
        assert "inverse" not in vars(form)
        want = invert_symmetric_rational(matrix.entries)
        assert form.inverse == want
        assert form.inverse is form.inverse
        assert form.inverse_den == lcm(*(v.denominator for row in want for v in row))

    def test_equality_is_same_inverse_and_form(self):
        # The Dirichlet sum and Bareiss reach the inverse over different
        # denominators; both are kept in lowest terms.
        measure = simplex_uniform(2)
        form = christoffel_form(measure, 3)
        assert form == christoffel_form_of_matrix(moment_matrix(measure, 3))
        assert form != christoffel_form(measure, 2)
        assert form != christoffel_form_of_matrix(moment_matrix(measure, 3, MPoly.make(2, {(1, 0): 1})))

    def test_identity_verifiers_build_no_inverse(self, monkeypatch):
        calls = []
        build = momatrix._fractions_of_upper

        def counted(y, den):
            calls.append(len(y))
            return build(y, den)

        monkeypatch.setattr(momatrix, "_fractions_of_upper", counted)
        verify_simplex_equilibrium(3, SimplexNormalization.PI_DENSITY)
        assert verify_unity_interval(16, UnityVariant.CHEBY2).holds
        assert calls == []
        christoffel_form(ARCSINE, 2).inverse
        assert calls == [3]


EQUILIBRIA = [simplex_equilibrium(norm) for norm in SimplexNormalization]


def barycentric_subsets(d):
    """The exponent alpha of x_S for every nonempty S of {0..d}, one 0/1
    entry per barycentric coordinate; index d is x_{d+1} = 1 - sum x."""
    for r in range(1, d + 2):
        for subset in itertools.combinations(range(d + 1), r):
            yield tuple(int(i in subset) for i in range(d + 1))


def case_id(value):
    return value.label() if hasattr(value, "label") else str(value)


def assert_matches_bareiss(measure, n, shift=None):
    """``christoffel_form`` of the measure, or with a univariate shift the
    Chebyshev algorithm on its shifted moments, against Bareiss on the built
    (localizing) matrix."""
    form = christoffel_form(measure, n) if shift is None else hankel_form(measure, n, shift)
    want = christoffel_form_of_matrix(moment_matrix(measure, n, shift))
    assert form.inverse == want.inverse
    assert form.quadratic_form_poly == want.quadratic_form_poly
    assert (form.measure, form.degree, form.shift) == (measure, n, shift)


def assert_localized_matches_bareiss(measure, n, alpha):
    """The form of ``localized(measure, alpha)`` against Bareiss on the
    localizing matrix of g^alpha, which never reads ``localized``."""
    form = christoffel_form(localized(measure, alpha), n)
    shift = simplex_generator_power(measure.dimension, alpha)
    want = christoffel_form_of_matrix(moment_matrix(measure, n, shift))
    assert (form.inverse_upper, form.inverse_den) == (want.inverse_upper, want.inverse_den)
    assert form.quadratic_form_poly == want.quadratic_form_poly
    return form


def logged_methods(caplog, build):
    """The method word of each inversion record ``build`` logs."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="unitycert.momatrix"):
        build()
    return [r.getMessage().split()[2] for r in caplog.records if r.name == "unitycert.momatrix"]


class TestDirichletForm:
    """Simplex forms from the orthogonal basis, against fill + Bareiss as the oracle."""

    @pytest.mark.parametrize(
        "measure, max_n",
        [(simplex_uniform(2), 6), (simplex_uniform(3), 4), (simplex_uniform(4), 3)]
        + [(m, 5) for m in EQUILIBRIA],
        ids=case_id,
    )
    def test_matches_bareiss(self, measure, max_n):
        for n in range(max_n + 1):
            assert_matches_bareiss(measure, n)

    @pytest.mark.parametrize(
        "measure",
        [simplex_uniform(1), dirichlet((Fraction(1, 2), Fraction(3, 2)), 5),
         dirichlet((2, Fraction(1, 3)))],
        ids=case_id,
    )
    def test_one_dimensional_matches_hankel(self, caplog, measure):
        # Beta(a, b) on [0,1], and its localizations by x, 1 - x and x(1 - x),
        # take the Dirichlet path; Bareiss on the localizing matrix is the oracle.
        alphas = [(0, 0), (1, 0), (0, 1), (1, 1)]
        for n in range(6):
            assert_matches_bareiss(measure, n)
            for alpha in alphas:
                assert_localized_matches_bareiss(measure, n, alpha)
        edge = localized(measure, alphas[-1])
        assert logged_methods(caplog, lambda: christoffel_form(edge, 3)) == ["method=dirichlet"]

    @pytest.mark.parametrize("n", [0, 1, 8, 16, 24])
    def test_lebesgue01_matches_its_hankel_matrix(self, caplog, n):
        # [0,1] is the 1-simplex: LEBESGUE01 and its localization by x(1-x)
        # take the Dirichlet path, and the filled Hankel matrix is the oracle.
        for alpha in ((0, 0), (1, 1)):
            assert logged_methods(
                caplog, lambda: christoffel_form(localized(LEBESGUE01, alpha), n)
            ) == ["method=dirichlet"]
            assert_localized_matches_bareiss(LEBESGUE01, n, alpha)

    def test_one_simplex_equilibrium_sum(self):
        # K_n + x(1-x) K_{n-1}^{x(1-x) mu} = C(2n+1, 1) for mu = Dirichlet(1/2, 1/2),
        # the arcsine law on [0,1]: the d=1 case of the simplex equilibrium sum.
        mu = dirichlet((Fraction(1, 2), Fraction(1, 2)))
        g = simplex_generator_power(1, (1, 1))
        edge = localized(mu, (1, 1))
        for n in range(1, 9):
            total = (christoffel_form(mu, n).quadratic_form_poly
                     + g * christoffel_form(edge, n - 1).quadratic_form_poly)
            assert total == UPoly.constant(2 * n + 1)

    @pytest.mark.parametrize(
        "measure, n",
        [(simplex_uniform(2), 3), (simplex_uniform(3), 2)] + [(m, 3) for m in EQUILIBRIA],
        ids=case_id,
    )
    def test_every_barycentric_shift(self, measure, n):
        for alpha in barycentric_subsets(measure.dimension):
            form = assert_localized_matches_bareiss(measure, n, alpha)
            assert [k - b for k, b in zip(form.measure.kappa, measure.kappa)] == list(alpha)

    def test_parameters(self):
        half = Fraction(1, 2)
        assert (simplex_uniform(3).kappa, simplex_uniform(3).mass) == ((1, 1, 1, 1), 1)
        assert (simplex_equilibrium().kappa, simplex_equilibrium().mass) == ((half,) * 3, 2)
        prob = simplex_equilibrium(SimplexNormalization.PROBABILITY)
        assert (prob.kappa, prob.mass) == ((half,) * 3, 1)
        assert (LEBESGUE01.kappa, LEBESGUE01.mass) == ((1, 1), 1)

    @pytest.mark.parametrize(
        "shift, alpha, scale",
        [
            (MPoly.make(2, {(0, 0): 1, (1, 0): 1}), None, None),  # 1 + x_1
            (MPoly.make(2, {(1, 1): 2}), (1, 1, 0), 2),  # 2 x y
            (MPoly.make(2, {(2, 0): 1}), (2, 0, 0), 1),  # x^2
            (MPoly.make(2, {(0, 0): 1, (1, 1): 1}), None, None),  # 1 + x y
            (MPoly.make(2, {(1, 0): 1, (1, 1): -1}), None, None),  # x (1 - y)
        ],
        ids=["1+x", "2xy", "x^2", "1+xy", "x(1-y)"],
    )
    def test_other_shift_falls_back(self, caplog, shift, alpha, scale):
        # Any polynomial shift of a simplex measure has its form from Bareiss
        # on the built localizing matrix.  Where the shift is scale * x_S, the
        # form is 1/scale times the Dirichlet form of the localized measure.
        for measure in [simplex_uniform(2), simplex_equilibrium()]:
            matrix = moment_matrix(measure, 2, shift)
            forms = []
            methods = logged_methods(caplog, lambda: forms.append(christoffel_form_of_matrix(matrix)))
            assert methods == ["method=bareiss"]
            form = forms[0]
            assert form.inverse == invert_symmetric_rational(matrix.entries)
            if alpha is not None:
                local = christoffel_form(localized(measure, alpha), 2).quadratic_form_poly
                assert scale * form.quadratic_form_poly == local

    @pytest.mark.parametrize(
        "measure, alpha",
        [
            (simplex_equilibrium(SimplexNormalization.PROBABILITY), (0, 0, 0)),
            (simplex_equilibrium(SimplexNormalization.PROBABILITY), (1, 0, 1)),
            (simplex_uniform(3), (0, 1, 1, 0)),
        ],
        ids=["kappa=(1/2,1/2,1/2)", "kappa=(3/2,1/2,3/2)", "kappa=(1,2,2,1)"],
    )
    def test_basis_orthogonal(self, measure, alpha):
        # Orthogonal under g^alpha times the measure, read through the
        # measure's own moments; only kappa and the mass come from ``localized``.
        local = localized(measure, alpha)
        kappa, mass = local.kappa, local.mass
        g = simplex_generator_power(measure.dimension, alpha)
        f = functional_for(measure)
        n = 3
        basis = _dirichlet_basis(kappa, n)
        assert len(basis) == len(monomials_upto(measure.dimension, n))
        polys = [MPoly.make(measure.dimension, {e: Fraction(c, den) for e, c in nums.items()})
                 for nums, den, _, _ in basis]
        for (_, _, degree, _), p in zip(basis, polys):
            assert p.degree == degree
        for (i, p), (j, q) in itertools.combinations_with_replacement(enumerate(polys), 2):
            want = mass * Fraction(*basis[i][3]) if i == j else 0
            assert f.poly_moment(g * p * q) == want

    def test_errors(self):
        for measure in [simplex_uniform(2)] + EQUILIBRIA:
            with pytest.raises(ValueError):
                christoffel_form(measure, -1)

    def test_uniform_degree_14(self):
        form = christoffel_form(simplex_uniform(2), 14)
        assert form.quadratic_form_poly.degree == 28
        # The integral of the form is the dimension of the space, C(16, 2).
        assert functional_for(simplex_uniform(2)).poly_moment(form.quadratic_form_poly) == 120


EDGES = [(1, 1, 0), (1, 0, 1), (0, 1, 1)]


class TestChristoffelPolynomial:
    """``christoffel_polynomial`` (no inverse built) against the polynomial
    of ``christoffel_form`` (summed from the inverse)."""

    @pytest.mark.parametrize(
        "measure, max_n",
        [(LEBESGUE01, 8), (ARCSINE, 8), (ARCSINE_G, 8), (simplex_uniform(2), 8),
         (simplex_uniform(3), 5), (simplex_uniform(4), 3)]
        + [(m, 8) for m in EQUILIBRIA]
        + [(localized(m, alpha), 8) for m in EQUILIBRIA for alpha in EDGES]
        + [(dirichlet((Fraction(1, 2), Fraction(3, 2), 2), Fraction(3, 7)), 8),
           (dirichlet((Fraction(5, 2), Fraction(1, 3)), Fraction(3, 7)), 8)],
        ids=case_id,
    )
    def test_matches_the_form(self, measure, max_n):
        for n in range(max_n + 1):
            poly = momatrix.christoffel_polynomial(measure, n)
            want = christoffel_form(measure, n).quadratic_form_poly
            assert type(poly) is type(want)
            assert poly == want

    @pytest.mark.parametrize("measure", [LEBESGUE01, ARCSINE, ARCSINE_G, simplex_uniform(3)]
                             + EQUILIBRIA, ids=case_id)
    def test_negative_degree_rejected(self, measure):
        with pytest.raises(ValueError, match="degree must be nonnegative"):
            momatrix.christoffel_polynomial(measure, -1)

    def test_identity_sums_build_no_inverse(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("an inverse moment matrix was built")

        for name in ("_inverse_nums", "_dirichlet_basis", "_form_poly"):
            monkeypatch.setattr(momatrix, name, boom)
        for normalization in SimplexNormalization:
            for n in range(1, 4):
                assert verify_simplex_equilibrium(n, normalization).holds
        assert verify_unity_interval(8, UnityVariant.CHEBY2).holds
        with pytest.raises(AssertionError, match="inverse moment matrix"):
            christoffel_form(simplex_uniform(2), 1)

    @pytest.mark.parametrize("measure", [simplex_uniform(3), localized(simplex_equilibrium(), (1, 1, 0)),
                                         LEBESGUE01], ids=case_id)
    def test_reads_the_beta_tables_of_the_basis(self, monkeypatch, measure):
        # No Beta table beyond those the orthogonal basis reads.
        keys = []
        table = momatrix._beta_recurrence

        def recorded(a, b, n):
            keys.append((a, b, n))
            return table(a, b, n)

        monkeypatch.setattr(momatrix, "_beta_recurrence", recorded)
        momatrix.christoffel_polynomial(measure, 4)
        product = set(keys)
        keys.clear()
        christoffel_form(measure, 4)
        assert product == set(keys)

    def records(self, caplog, build):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="unitycert.momatrix"):
            build()
        return [(r.levelno, r.getMessage()) for r in caplog.records if r.name == "unitycert.momatrix"]

    def test_logs_one_record(self, caplog):
        # K_1 = 9 - 24x - 24y + 24x^2 + 24xy + 24y^2 on the uniform triangle,
        # and 1 + 2x^2 for the arcsine measure.
        poly = momatrix.christoffel_polynomial
        assert self.records(caplog, lambda: poly(simplex_uniform(2), 1)) == [
            (logging.DEBUG, "christoffel polynomial dim=3 method=product den_bits=1 num_bits_max=5")]
        assert self.records(caplog, lambda: poly(ARCSINE, 1)) == [
            (logging.DEBUG, "christoffel polynomial dim=2 method=recurrence den_bits=1 num_bits_max=2")]
        # The n + 1 Beta kernels of the product sum log nothing of their own.
        for measure, dim in [(simplex_equilibrium(), 15), (simplex_uniform(3), 35), (LEBESGUE01, 5)]:
            messages = self.records(caplog, lambda: poly(measure, 4))
            assert len(messages) == 1
            assert messages[0][1].startswith(f"christoffel polynomial dim={dim} method=product den_bits=")

    def test_identity_verifier_logs_one_record_per_measure(self, caplog):
        messages = self.records(
            caplog, lambda: verify_simplex_equilibrium(3, SimplexNormalization.PROBABILITY))
        assert [m.split()[2] for _, m in messages] == ["dim=10", "dim=6", "dim=6", "dim=6"]
        assert all(m.startswith("christoffel polynomial ") for _, m in messages)

    def test_impossible_size_raises_at_once(self):
        for measure in [LEBESGUE01, simplex_uniform(2), simplex_equilibrium()]:
            with pytest.raises(OverflowError):
                momatrix.christoffel_polynomial(measure, 10**19)
            with pytest.raises(OverflowError):
                christoffel_form(measure, 10**19)

    def test_antidiagonal_sums_are_the_form(self):
        rng = random.Random(34)
        for m in range(1, 12):
            y = [[rng.randint(-99, 99) for _ in range(m - i)] for i in range(m)]
            want = [0] * (2 * m - 1)
            for i in range(m):
                for j in range(m):
                    want[i + j] += y[min(i, j)][abs(i - j)]
            assert momatrix._antidiagonal_sums(y) == want


class TestJson:
    def test_round_trip(self):
        m = moment_matrix(simplex_uniform(2), 2)
        payload = matrix_to_json(m)
        assert payload["basis"][1] == [1, 0]
        recovered = rational_matrix_from_json(payload["entries"])
        assert recovered == m.entries
