"""Exact symbolic verification of the partition-of-unity identities.

Each verifier expands its left-hand side in exact rational arithmetic and
reports whether the result is a constant polynomial.  ``holds`` is true
exactly when the nonconstant residual is identically zero -- never "small".
When a closed-form constant is predicted, it is recorded as
``expected_constant``; a mismatch against the computed constant is logged as
a warning rather than treated as a failure, so the reports stay honest about
conventions (normalization of the simplex equilibrium measure) and about
degrees where the identity has conjecture status.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Mapping, Optional

from . import measures
from .measures import (
    SimplexNormalization,
    beta_integral,
    functional_for,
    simplex_equilibrium,
    simplex_uniform,
)
from .momatrix import christoffel_form
from .polycore import (
    AnyPoly,
    ChebKind,
    MPoly,
    UPoly,
    cheb,
    cheb_orthonormal_square,
    monomials_upto,
    powers,
    simplex_generator_power,
)

logger = logging.getLogger(__name__)


class UnityVariant(Enum):
    UNITY1 = "unity1"
    UNITY2 = "unity2"
    CHEBY2 = "cheby2"


@dataclass(frozen=True)
class IdentityReport:
    identity: str
    params: Mapping[str, object]
    holds: bool
    constant: Optional[Fraction]
    residual_terms: int
    expected_constant: Optional[Fraction]

    def to_json(self) -> dict:
        return {
            "identity": self.identity,
            "params": dict(self.params),
            "holds": self.holds,
            "constant": None if self.constant is None else str(self.constant),
            "expected_constant": None
            if self.expected_constant is None
            else str(self.expected_constant),
            "residual_terms": self.residual_terms,
        }

    @staticmethod
    def from_json(obj: Mapping) -> "IdentityReport":
        return IdentityReport(
            identity=obj["identity"],
            params=dict(obj["params"]),
            holds=bool(obj["holds"]),
            constant=None if obj["constant"] is None else Fraction(obj["constant"]),
            residual_terms=int(obj["residual_terms"]),
            expected_constant=None
            if obj["expected_constant"] is None
            else Fraction(obj["expected_constant"]),
        )


def constant_reduce(p: AnyPoly) -> Optional[Fraction]:
    """The value of p if it is a constant polynomial, else None."""
    if isinstance(p, UPoly):
        if p.degree <= 0:
            return p.constant_term
        return None
    if all(sum(e) == 0 for e in p.terms):
        return p.constant_term
    return None


def _nonconstant_terms(p: AnyPoly) -> int:
    if isinstance(p, UPoly):
        return sum(1 for k, c in enumerate(p.coeffs) if k > 0 and c != 0)
    return sum(1 for e, c in p.terms.items() if sum(e) > 0 and c != 0)


def _report(
    identity: str,
    params: Mapping[str, object],
    expression: AnyPoly,
    expected: Optional[Fraction],
) -> IdentityReport:
    residual_terms = _nonconstant_terms(expression)
    holds = residual_terms == 0
    constant = expression.constant_term if holds else None
    if holds and expected is not None and constant != expected:
        logger.warning(
            "%s %s reduces to the constant %s, not the predicted %s",
            identity,
            dict(params),
            constant,
            expected,
        )
    return IdentityReport(
        identity=identity,
        params=dict(params),
        holds=holds,
        constant=constant,
        residual_terms=residual_terms,
        expected_constant=expected,
    )


_G_INTERVAL = UPoly.from_coeffs([1, 0, -1])  # 1 - x^2


def verify_pell(n: int) -> IdentityReport:
    """Check T_n^2 + (1-x^2) U_{n-1}^2 = 1 exactly."""
    if n < 1:
        raise ValueError("n must be >= 1")
    t = cheb(ChebKind.FIRST, n)
    u = cheb(ChebKind.SECOND, n - 1)
    expression = t * t + _G_INTERVAL * (u * u)
    return _report("pell", {"n": n}, expression, Fraction(1))


def verify_unity_interval(n: int, variant: UnityVariant) -> IdentityReport:
    """Check the Chebyshev partition of unity on [-1,1] in one of three forms.

    UNITY1 averages the raw squares (constant 1), UNITY2 sums the squared
    orthonormal families (constant 2n+1), and CHEBY2 rebuilds the same sums
    as quadratic forms in the exact inverse moment and localizing matrices.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if variant is UnityVariant.UNITY1:
        total = UPoly.zero()
        for j in range(n + 1):
            tj = cheb(ChebKind.FIRST, j)
            total = total + tj * tj
        second = UPoly.zero()
        for i in range(n):
            ui = cheb(ChebKind.SECOND, i)
            second = second + ui * ui
        expression = (total + _G_INTERVAL * second) * Fraction(1, n + 1)
        expected = Fraction(1)
    elif variant is UnityVariant.UNITY2:
        total = UPoly.zero()
        for j in range(n + 1):
            total = total + cheb_orthonormal_square(ChebKind.FIRST, j)
        second = UPoly.zero()
        for i in range(n):
            second = second + cheb_orthonormal_square(ChebKind.SECOND, i)
        expression = total + _G_INTERVAL * second
        expected = Fraction(2 * n + 1)
    else:
        first = christoffel_form(measures.ARCSINE, n).quadratic_form_poly
        second = christoffel_form(measures.ARCSINE, n - 1, shift=_G_INTERVAL).quadratic_form_poly
        expression = first + _G_INTERVAL * second
        expected = Fraction(2 * n + 1)
    return _report(
        "unity-interval", {"n": n, "variant": variant.value}, expression, expected
    )


def verify_unity_01(n: int) -> IdentityReport:
    """Check the Bernstein-family partition of unity on [0,1].

    Sums x^i (1-x)^j over i+j <= n, each divided by its Beta integral; the
    constant is the number of terms, (n+1)(n+2)/2.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    x_powers = powers(UPoly.x(), n)
    one_minus_x_powers = powers(UPoly.from_coeffs([1, -1]), n)
    expression = UPoly.zero()
    for i in range(n + 1):
        for j in range(n + 1 - i):
            term = x_powers[i] * one_minus_x_powers[j] * (1 / beta_integral(i, j))
            expression = expression + term
    expected = Fraction((n + 1) * (n + 2), 2)
    return _report("unity-01", {"n": n}, expression, expected)


def verify_simplex_unity(d: int, n: int) -> IdentityReport:
    """Check the generator-power partition of unity on the canonical simplex.

    Sums g^alpha / phi(g^alpha) over |alpha| <= n against the uniform
    probability measure.  The constant C(d+1+n, n) is proved for n <= 2; for
    n >= 3 this runs as a conjecture check and records what it finds without
    a predicted constant.
    """
    if d < 1 or n < 1:
        raise ValueError("d and n must be >= 1")
    functional = functional_for(simplex_uniform(d))
    expression = MPoly.zero(d)
    for alpha in monomials_upto(d + 1, n):
        g = simplex_generator_power(d, alpha)
        expression = expression + g * (1 / functional.poly_moment(g))
    expected = Fraction(math.comb(d + 1 + n, n)) if n <= 2 else None
    return _report("simplex-unity", {"d": d, "n": n}, expression, expected)


_SIMPLEX_QUADRATIC_GENERATORS = (
    MPoly.make(2, {(1, 1): 1}),  # x*y
    MPoly.make(2, {(1, 0): 1, (2, 0): -1, (1, 1): -1}),  # x*(1-x-y)
    MPoly.make(2, {(0, 1): 1, (0, 2): -1, (1, 1): -1}),  # y*(1-x-y)
)


def verify_simplex_equilibrium(
    n: int, normalization: SimplexNormalization
) -> IdentityReport:
    """Check whether the triangle's Christoffel-function combination is constant.

    Computes the reciprocal Christoffel function of the equilibrium measure at
    degree n plus the sum over the quadratic edge generators g_i of
    g_i times the degree-(n-1) localized form, all exactly.  The predicted
    constant s(n)+s(n-1) = (n+1)^2 is recorded; the computed constant depends
    on the measure normalization and is reported as found (a mismatch is a
    logged warning).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    measure = simplex_equilibrium(normalization)
    expression = christoffel_form(measure, n).quadratic_form_poly
    for g in _SIMPLEX_QUADRATIC_GENERATORS:
        localized = christoffel_form(measure, n - 1, shift=g).quadratic_form_poly
        expression = expression + g * localized
    expected = Fraction((n + 1) ** 2)  # s(n) + s(n-1)
    return _report(
        "simplex-equilibrium",
        {"n": n, "normalization": normalization.value},
        expression,
        expected,
    )
