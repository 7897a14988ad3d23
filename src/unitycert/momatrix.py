"""Moment and localizing matrices with exact rational inversion.

Matrices are indexed by the graded lexicographic monomial basis of degree
<= n.  The unshifted univariate case is Hankel.  Inversion is exact and runs
in integers: fraction-free Bareiss elimination on an integer-scaled copy
(Bareiss, Math. Comp. 1968), then back-substitution to ``det * A^{-1}``, which
is an integer matrix; every division is checked exact, and each entry is
divided by ``det`` once at the end.  The Bareiss pivots are the leading
principal minors, which doubles as the positive definiteness check.  The
inverse assembled into a quadratic form gives the reciprocal Christoffel
function as an explicit polynomial.  With ``logging`` at DEBUG, each
inversion logs its dimension and the bit lengths of ``det`` and of the
largest entry of ``det * A^{-1}``.

Inversion time grows with the Bareiss intermediates, roughly cubically in
the matrix dimension times their bit length; ``perfbench/README.md`` has
measured times by measure and degree.
"""

from __future__ import annotations

import logging
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .measures import MeasureId, functional_for
from .polycore import AnyPoly, Exponent, monomials_upto, poly_eval, poly_from_sparse_nums

RationalMatrix = tuple[tuple[Fraction, ...], ...]

logger = logging.getLogger(__name__)


class NotPositiveDefiniteError(ArithmeticError):
    """Raised when exact elimination meets a nonpositive leading minor."""

    def __init__(self, order: int, minor: Fraction | int) -> None:
        self.order = order
        self.minor = minor
        super().__init__(
            f"matrix is not positive definite: leading principal minor of order "
            f"{order} is {minor}"
        )


@dataclass(frozen=True)
class MomentMatrix:
    measure: MeasureId
    degree: int
    basis: tuple[Exponent, ...]
    entries: RationalMatrix
    shift: Optional[AnyPoly] = None

    @property
    def size(self) -> int:
        return len(self.basis)

    def entry(self, i: int, j: int) -> Fraction:
        return self.entries[i][j]


@dataclass(frozen=True)
class ChristoffelForm:
    measure: MeasureId
    degree: int
    inverse: RationalMatrix
    quadratic_form_poly: AnyPoly
    shift: Optional[AnyPoly] = None


def _shift_terms(shift: Optional[AnyPoly], dimension: int) -> list[tuple[Exponent, Fraction]]:
    if shift is None:
        return [((0,) * dimension, Fraction(1))]
    if shift.dimension != dimension:
        raise ValueError("shift polynomial dimension does not match the measure")
    return list(shift.terms.items())


def moment_matrix(measure: MeasureId, n: int, shift: Optional[AnyPoly] = None) -> MomentMatrix:
    """Moment matrix of degree n; with a shift g it is the localizing matrix.

    Entry (a, b) is the moment of g * x^(a+b).
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    functional = functional_for(measure)
    dim = measure.dimension
    basis = monomials_upto(dim, n)
    terms = _shift_terms(shift, dim)
    size = len(basis)
    rows = [[Fraction(0)] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            total = tuple(a + b for a, b in zip(basis[i], basis[j]))
            value = sum(
                (c * functional.moment(tuple(t + g for t, g in zip(total, gamma))) for gamma, c in terms),
                Fraction(0),
            )
            rows[i][j] = value
            rows[j][i] = value
    entries = tuple(tuple(row) for row in rows)
    return MomentMatrix(measure=measure, degree=n, basis=basis, entries=entries, shift=shift)


def invert_symmetric_rational(entries: Sequence[Sequence[Fraction]]) -> RationalMatrix:
    """Exact inverse of a symmetric positive definite rational matrix.

    Entries are ``int`` or ``Fraction`` (any value with integer ``numerator``
    and ``denominator``); a non-square or non-symmetric matrix raises
    ``ValueError``.  Scales to integers, runs Bareiss fraction-free
    elimination on the augmented system ``[A_int | scale*I]`` (each division
    checked exact) and verifies that every pivot -- a leading principal
    minor -- is positive, raising ``NotPositiveDefiniteError`` otherwise.
    The last pivot ``det`` makes ``Y = det * A^{-1}`` an integer matrix
    (Cramer's rule), so back-substitution runs in integers, each division
    again checked exact, and each entry becomes one ``Fraction(Y_ij, det)``.
    """
    m = len(entries)
    if any(len(row) != m for row in entries):
        raise ValueError("matrix must be square")
    if m == 0:
        return ()
    scale = math.lcm(*(value.denominator for row in entries for value in row))
    # A_int, eliminated in place into the upper-triangular U.
    a = [[value.numerator * (scale // value.denominator) for value in row] for row in entries]
    if any(a[i][j] != a[j][i] for i in range(m) for j in range(i)):
        raise ValueError("matrix must be symmetric")
    # Bareiss elimination on [A_int | scale*I].  The trailing block stays
    # symmetric, so only entries on and above the diagonal are updated.  The
    # back-substitution below reads only the diagonal of the right block, and
    # its row-k entry is scale times the pivot before k, so it is not stored.
    rhs = []
    prev = 1
    for k in range(m):
        pivot_row = a[k]
        pivot = pivot_row[k]
        if pivot <= 0:
            raise NotPositiveDefiniteError(k + 1, Fraction(pivot, scale ** (k + 1)))
        rhs.append(scale * prev)
        for i in range(k + 1, m):
            row = a[i]
            factor = pivot_row[i]
            for j in range(i, m):
                q, r = divmod(pivot * row[j] - factor * pivot_row[j], prev)
                if r:
                    raise AssertionError("Bareiss division was not exact")
                row[j] = q
        prev = pivot
    det = prev
    # Y = det * A^{-1} is integral (Cramer's rule) and symmetric.  Columns run
    # last to first: rows below the diagonal of column col are mirrored from
    # the columns already solved, and rows <= col are back-substituted.
    y = [[0] * m for _ in range(m)]
    for col in range(m - 1, -1, -1):
        y_col = y[col]  # y[col][j] == y[j][col]
        for i in range(col, -1, -1):
            row = a[i]
            acc = det * rhs[col] if i == col else 0
            for j in range(i + 1, m):
                acc -= row[j] * y_col[j]
            q, r = divmod(acc, row[i])
            if r:
                raise AssertionError("back-substitution division was not exact")
            y_col[i] = y[i][col] = q
    if logger.isEnabledFor(logging.DEBUG):
        logger.debug(
            "inverted dim=%d det_bits=%d entry_bits_max=%d",
            m,
            det.bit_length(),
            max(value.bit_length() for row in y for value in row),
        )
    inverse = [[Fraction(0)] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            inverse[i][j] = inverse[j][i] = Fraction(y[i][j], det)
    return tuple(tuple(row) for row in inverse)


def invert_exact(matrix: MomentMatrix) -> RationalMatrix:
    """Exact inverse of a moment matrix; M * M^{-1} is the identity exactly."""
    return invert_symmetric_rational(matrix.entries)


def _quadratic_form_poly(basis: tuple[Exponent, ...], inverse: RationalMatrix, dim: int) -> AnyPoly:
    """v(x)^T inverse v(x) for the monomial vector v over ``basis``.

    Sums the numerators by exponent in integers over the lcm of the entry
    denominators; the symmetric inverse contributes each off-diagonal pair
    once, doubled.
    """
    den = math.lcm(*(value.denominator for row in inverse for value in row))
    add = operator.add
    nums: dict[Exponent, int] = {}
    get = nums.get
    for i, a in enumerate(basis):
        row = inverse[i]
        for j in range(i, len(basis)):
            value = row[j]
            c = value.numerator * (den // value.denominator)
            e = tuple(map(add, a, basis[j]))
            nums[e] = get(e, 0) + (c if i == j else 2 * c)
    return poly_from_sparse_nums(dim, nums, den)


def christoffel_form_of_matrix(matrix: MomentMatrix) -> ChristoffelForm:
    """Reciprocal Christoffel function v_n(x)^T M^{-1} v_n(x) of a built matrix."""
    inverse = invert_exact(matrix)
    poly = _quadratic_form_poly(matrix.basis, inverse, matrix.measure.dimension)
    return ChristoffelForm(
        measure=matrix.measure,
        degree=matrix.degree,
        inverse=inverse,
        quadratic_form_poly=poly,
        shift=matrix.shift,
    )


def christoffel_form(measure: MeasureId, n: int, shift: Optional[AnyPoly] = None) -> ChristoffelForm:
    return christoffel_form_of_matrix(moment_matrix(measure, n, shift))


def christoffel_eval(form: ChristoffelForm, point: Sequence) -> Fraction:
    """Exact value of the reciprocal Christoffel function at a point."""
    return poly_eval(form.quadratic_form_poly, point)


def matrix_to_json(matrix: MomentMatrix) -> dict:
    return {
        "measure": matrix.measure.label(),
        "degree": matrix.degree,
        "basis": [list(e) for e in matrix.basis],
        "entries": [[str(v) for v in row] for row in matrix.entries],
    }


def rational_matrix_from_json(rows: Sequence[Sequence[str]]) -> RationalMatrix:
    return tuple(tuple(Fraction(v) for v in row) for row in rows)
