import dataclasses
import itertools
import logging
import random
from fractions import Fraction
from math import comb, lcm

import pytest
import sympy

from unitycert.measures import (
    ARCSINE,
    ARCSINE_G,
    LEBESGUE01,
    SimplexNormalization,
    dirichlet,
    dirichlet_parameters,
    functional_for,
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
        with pytest.raises(ValueError):
            moment_matrix(simplex_uniform(2), 1, shift=G)

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
        form = christoffel_form(ARCSINE, 0, shift=G)
        assert form.quadratic_form_poly == UPoly.from_coeffs([2])

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
            form = christoffel_form(ARCSINE, n, shift=G)
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


class TestRecurrenceInverse:
    """The univariate route (Chebyshev algorithm) against Bareiss as the oracle."""

    @pytest.mark.parametrize("shift", list(SHIFTS), ids=list(SHIFTS))
    @pytest.mark.parametrize("measure", [ARCSINE, ARCSINE_G, LEBESGUE01], ids=lambda m: m.label())
    def test_matches_bareiss(self, measure, shift):
        # christoffel_form takes the recurrence for every input here but
        # LEBESGUE01 with an x_S shift (none, 1-x, x(1-x)), which takes the
        # Dirichlet basis; invert_hankel runs the recurrence on all of them.
        shift = SHIFTS[shift]
        for n in range(21):
            matrix = moment_matrix(measure, n, shift)
            want = bareiss_outcome(matrix)
            moments = shifted_moments(measure, n, shift)
            if isinstance(want[0], int):
                # x(1-x) is negative on most of [-1,1]; every route must agree on why.
                for route in (lambda: christoffel_form(measure, n, shift),
                              lambda: invert_hankel(moments)):
                    with pytest.raises(NotPositiveDefiniteError) as exc:
                        route()
                    assert (exc.value.order, exc.value.minor) == want
                continue
            assert invert_hankel(moments) == want
            form = christoffel_form(measure, n, shift)
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
                christoffel_form(measure, n, shift)
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

    def test_shift_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            christoffel_form(ARCSINE, 2, MPoly.make(2, {(1, 1): 1}))

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
        messages = self.records(caplog, lambda: christoffel_form(ARCSINE, 4, shift=G))
        assert len(messages) == 1
        assert messages[0].startswith("inverted dim=5 method=recurrence den_bits=")

    @pytest.mark.parametrize(
        "measure, shift",
        [(ARCSINE, None), (ARCSINE, G), (ARCSINE_G, None), (LEBESGUE01, UPoly.from_coeffs([3])),
         (LEBESGUE01, G)],
        ids=["arcsine", "arcsine-1-x^2", "arcsine-g", "lebesgue01-3", "lebesgue01-1-x^2"],
    )
    def test_univariate_builds_no_matrix(self, caplog, monkeypatch, measure, shift):
        # Any univariate input that is not Dirichlet goes to the recurrence
        # straight from its shifted moments.
        def boom(*args, **kwargs):
            raise AssertionError("moment_matrix was called")

        monkeypatch.setattr(momatrix, "moment_matrix", boom)
        messages = self.records(caplog, lambda: christoffel_form(measure, 4, shift))
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
        xy = MPoly.make(2, {(1, 1): 1})
        messages = self.records(caplog, lambda: christoffel_form(simplex_equilibrium(), 2, xy))
        assert len(messages) == 1
        assert messages[0].startswith("inverted dim=6 method=dirichlet den_bits=")


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
        form = christoffel_form(measure, n, shift)
        assert "inverse" not in vars(form)
        want = invert_symmetric_rational(moment_matrix(measure, n, shift).entries)
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
        assert form != christoffel_form(measure, 3, MPoly.make(2, {(1, 0): 1}))

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


def barycentric_products(d):
    """(S, x_S) for every nonempty S of {0..d}; index d is x_{d+1} = 1 - sum x."""
    for r in range(1, d + 2):
        for subset in itertools.combinations(range(d + 1), r):
            yield subset, simplex_generator_power(d, [int(i in subset) for i in range(d + 1)])


def case_id(value):
    return value.label() if hasattr(value, "label") else str(value)


def assert_matches_bareiss(measure, n, shift=None):
    form = christoffel_form(measure, n, shift)
    want = christoffel_form_of_matrix(moment_matrix(measure, n, shift))
    assert form.inverse == want.inverse
    assert form.quadratic_form_poly == want.quadratic_form_poly
    assert (form.measure, form.degree, form.shift) == (measure, n, shift)


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
        # take the Dirichlet path too; the Hankel recurrence is the oracle.
        shifts = [None, UPoly.x(), UPoly.from_coeffs([1, -1]), UPoly.from_coeffs([0, 1, -1])]
        for n in range(6):
            for shift in shifts:
                assert_matches_bareiss(measure, n, shift)
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="unitycert.momatrix"):
            christoffel_form(measure, 3, shifts[-1])
        methods = [r.getMessage().split()[2] for r in caplog.records
                   if r.name == "unitycert.momatrix"]
        assert methods == ["method=dirichlet"]

    @pytest.mark.parametrize("n", [0, 1, 8, 16, 24])
    def test_lebesgue01_matches_its_hankel_matrix(self, caplog, n):
        # [0,1] is the 1-simplex: LEBESGUE01 and its localization by x(1-x)
        # take the Dirichlet path, and the filled Hankel matrix is the oracle.
        for shift in (None, UPoly.from_coeffs([0, 1, -1])):
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="unitycert.momatrix"):
                form = christoffel_form(LEBESGUE01, n, shift)
            assert [r.getMessage().split()[2] for r in caplog.records
                    if r.name == "unitycert.momatrix"] == ["method=dirichlet"]
            want = christoffel_form_of_matrix(moment_matrix(LEBESGUE01, n, shift))
            assert (form.inverse_upper, form.inverse_den) == (want.inverse_upper, want.inverse_den)
            assert form.quadratic_form_poly == want.quadratic_form_poly

    def test_one_simplex_equilibrium_sum(self):
        # K_n + x(1-x) K_{n-1}^{x(1-x) mu} = C(2n+1, 1) for mu = Dirichlet(1/2, 1/2),
        # the arcsine law on [0,1]: the d=1 case of the simplex equilibrium sum.
        mu = dirichlet((Fraction(1, 2), Fraction(1, 2)))
        g = simplex_generator_power(1, (1, 1))
        for n in range(1, 9):
            localized = christoffel_form(mu, n - 1, shift=g).quadratic_form_poly
            total = christoffel_form(mu, n).quadratic_form_poly + g * localized
            assert total == UPoly.constant(2 * n + 1)

    @pytest.mark.parametrize(
        "measure, n",
        [(simplex_uniform(2), 3), (simplex_uniform(3), 2)] + [(m, 3) for m in EQUILIBRIA],
        ids=case_id,
    )
    def test_every_barycentric_shift(self, measure, n):
        for subset, shift in barycentric_products(measure.dimension):
            kappa, _ = dirichlet_parameters(measure, shift)
            base, _ = dirichlet_parameters(measure)
            assert [k - b for k, b in zip(kappa, base)] == [int(i in subset) for i in range(len(base))]
            assert_matches_bareiss(measure, n, shift)

    def test_parameters(self):
        half = Fraction(1, 2)
        assert dirichlet_parameters(simplex_uniform(3)) == ((1, 1, 1, 1), 1)
        assert dirichlet_parameters(simplex_equilibrium()) == ((half, half, half), 2)
        prob = simplex_equilibrium(SimplexNormalization.PROBABILITY)
        assert dirichlet_parameters(prob) == ((half, half, half), 1)
        assert dirichlet_parameters(LEBESGUE01) == ((1, 1), 1)
        for measure in (ARCSINE, ARCSINE_G):
            assert dirichlet_parameters(measure) is None
        # The mass of x_S times the measure is its integral.
        for measure in [simplex_uniform(2), simplex_uniform(3)] + EQUILIBRIA:
            for _, shift in barycentric_products(measure.dimension):
                _, mass = dirichlet_parameters(measure, shift)
                assert mass == functional_for(measure).poly_moment(shift)

    @pytest.mark.parametrize(
        "shift",
        [
            MPoly.make(2, {(0, 0): 1, (1, 0): 1}),  # 1 + x_1
            MPoly.make(2, {(1, 1): 2}),  # 2 x y
            MPoly.make(2, {(2, 0): 1}),  # x^2
            MPoly.make(2, {(0, 0): 1, (1, 1): 1}),  # 1 + x y
            MPoly.make(2, {(1, 0): 1, (1, 1): -1}),  # x (1 - y)
        ],
        ids=["1+x", "2xy", "x^2", "1+xy", "x(1-y)"],
    )
    def test_other_shift_falls_back(self, caplog, shift):
        for measure in [simplex_uniform(2), simplex_equilibrium()]:
            assert dirichlet_parameters(measure, shift) is None
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="unitycert.momatrix"):
                christoffel_form(measure, 2, shift)
            methods = [r.getMessage().split()[2] for r in caplog.records
                       if r.name == "unitycert.momatrix"]
            assert methods == ["method=bareiss"]
            assert_matches_bareiss(measure, 2, shift)

    @pytest.mark.parametrize(
        "measure, shift",
        [
            (simplex_equilibrium(SimplexNormalization.PROBABILITY), None),
            (simplex_equilibrium(SimplexNormalization.PROBABILITY), MPoly.make(2, {(1, 0): 1, (2, 0): -1, (1, 1): -1})),
            (simplex_uniform(3), MPoly.make(3, {(0, 1, 1): 1})),
        ],
        ids=["kappa=(1/2,1/2,1/2)", "kappa=(3/2,1/2,3/2)", "kappa=(1,2,2,1)"],
    )
    def test_basis_orthogonal(self, measure, shift):
        kappa, mass = dirichlet_parameters(measure, shift)
        g = shift if shift is not None else MPoly.constant(measure.dimension, 1)
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
            with pytest.raises(ValueError):
                christoffel_form(measure, -1, MPoly.make(2, {(1, 1): 1}))
            with pytest.raises(ValueError):
                christoffel_form(measure, 2, shift=G)
            with pytest.raises(ValueError):
                christoffel_form(measure, 2, shift=MPoly.make(3, {(1, 1, 0): 1}))

    def test_uniform_degree_14(self):
        form = christoffel_form(simplex_uniform(2), 14)
        assert form.quadratic_form_poly.degree == 28
        # The integral of the form is the dimension of the space, C(16, 2).
        assert functional_for(simplex_uniform(2)).poly_moment(form.quadratic_form_poly) == 120


class TestJson:
    def test_round_trip(self):
        m = moment_matrix(simplex_uniform(2), 2)
        payload = matrix_to_json(m)
        assert payload["basis"][1] == [1, 0]
        recovered = rational_matrix_from_json(payload["entries"])
        assert recovered == m.entries
