"""Moment and localizing matrices with exact rational inversion.

Matrices are indexed by the graded lexicographic monomial basis of degree
<= n.  The unshifted univariate case is Hankel.  Inversion is exact:
fraction-free Bareiss elimination on an integer-scaled copy (every division
is asserted to be exact) followed by rational back-substitution.  The Bareiss
pivots are the leading principal minors, which doubles as the positive
definiteness check.  The inverse assembled into a quadratic form gives the
reciprocal Christoffel function as an explicit polynomial.

Inversion time grows with the Bareiss intermediates, roughly cubically in
the matrix dimension times their bit length; ``perfbench/README.md`` has
measured times by measure and degree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .measures import MeasureId, functional_for
from .polycore import (
    AnyPoly,
    Exponent,
    MPoly,
    UPoly,
    monomials_upto,
    poly_dimension,
    poly_eval,
)

RationalMatrix = tuple[tuple[Fraction, ...], ...]


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
    if poly_dimension(shift) != dimension:
        raise ValueError("shift polynomial dimension does not match the measure")
    if isinstance(shift, UPoly):
        return [((k,), c) for k, c in enumerate(shift.coeffs) if c != 0]
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

    Scales to integers, runs Bareiss fraction-free elimination on the
    augmented system (each interior division checked exact), verifies that
    every pivot -- a leading principal minor -- is positive, then
    back-substitutes in rational arithmetic.
    """
    m = len(entries)
    if any(len(row) != m for row in entries):
        raise ValueError("matrix must be square")
    if m == 0:
        return ()
    scale = 1
    for row in entries:
        for value in row:
            scale = scale * Fraction(value).denominator // math.gcd(scale, Fraction(value).denominator)
    # Augment [A_int | scale * I]; the solution of A_int X = scale*I is A^{-1}.
    aug = [
        [int(Fraction(value) * scale) for value in row] + [scale if k == i else 0 for k in range(m)]
        for i, row in enumerate(entries)
    ]
    width = 2 * m
    prev = 1
    for k in range(m):
        pivot = aug[k][k]
        if pivot <= 0:
            minor = Fraction(pivot, scale**(k + 1))
            raise NotPositiveDefiniteError(k + 1, minor)
        for i in range(k + 1, m):
            factor = aug[i][k]
            for j in range(k, width):
                num = pivot * aug[i][j] - factor * aug[k][j]
                q, r = divmod(num, prev)
                if r:
                    raise AssertionError("Bareiss division was not exact")
                aug[i][j] = q
        prev = pivot
    # Back-substitution on the upper-triangular integer system.
    inverse = [[Fraction(0)] * m for _ in range(m)]
    for col in range(m):
        x = [Fraction(0)] * m
        for i in range(m - 1, -1, -1):
            acc = Fraction(aug[i][m + col])
            for j in range(i + 1, m):
                acc -= aug[i][j] * x[j]
            x[i] = acc / aug[i][i]
        for i in range(m):
            inverse[i][col] = x[i]
    return tuple(tuple(row) for row in inverse)


def invert_exact(matrix: MomentMatrix) -> RationalMatrix:
    """Exact inverse of a moment matrix; M * M^{-1} is the identity exactly."""
    return invert_symmetric_rational(matrix.entries)


def _quadratic_form_poly(basis: tuple[Exponent, ...], inverse: RationalMatrix, dim: int) -> AnyPoly:
    if dim == 1:
        coeffs: dict[int, Fraction] = {}
        for i, a in enumerate(basis):
            for j, b in enumerate(basis):
                k = a[0] + b[0]
                coeffs[k] = coeffs.get(k, Fraction(0)) + inverse[i][j]
        top = max(coeffs, default=0)
        return UPoly.from_coeffs(coeffs.get(k, Fraction(0)) for k in range(top + 1))
    terms: dict[Exponent, Fraction] = {}
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            e = tuple(x + y for x, y in zip(a, b))
            terms[e] = terms.get(e, Fraction(0)) + inverse[i][j]
    return MPoly.make(dim, terms)


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
