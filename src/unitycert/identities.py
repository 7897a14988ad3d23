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
from typing import Mapping, Optional, Sequence

from . import measures
from .measures import SimplexNormalization, simplex_equilibrium
from .momatrix import christoffel_form
from .polycore import (
    AnyPoly,
    ChebKind,
    UPoly,
    _frac,
    cheb,
    cheb_orthonormal_squares,
    cheb_table,
    generator_powers,
    linear_combination,
    monomials_upto,
    multinomial,
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
    return p.constant_term if p.degree <= 0 else None


def _nonconstant_terms(p: AnyPoly) -> int:
    # Numerators are nonzero, and only the all-zero exponent has degree 0.
    nums = p.sparse_nums
    return len(nums) - ((0,) * p.dimension in nums)


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


def partition_members(domain: str, n: int, d: int = 2) -> list[tuple[dict, Fraction, AnyPoly]]:
    """The ``(label, weight, generator)`` members of a partition of unity.

    Each weight is 1/phi(generator), so the weighted generators sum to the
    member count.  On the d-simplex, phi(g^alpha) for the uniform probability
    measure is the Dirichlet(1, ..., 1) moment d! prod alpha_i! / (d+|alpha|)!,
    so the weight is the multinomial (d+|alpha|)! / (d! prod alpha_i!):

    * ``interval01``: x^i (1-x)^j over i+j <= n, the ``simplex`` members for
      d = 1 labelled ``{"i", "j"}``; phi is Lebesgue measure on [0,1].
    * ``interval11``: the squared orthonormal Chebyshev polynomials of the
      first kind, j <= n, then 1-x^2 times those of the second kind, j < n;
      phi is the arcsine measure, against which each integrates to 1.
    * ``simplex``: the generator powers g^alpha of ``generator_powers(d, n)``,
      in its order; phi is the uniform probability measure.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if domain == "interval11":
        first = cheb_orthonormal_squares(ChebKind.FIRST, n)
        second = [_G_INTERVAL * g for g in cheb_orthonormal_squares(ChebKind.SECOND, n - 1)]
        return [({"kind": "first", "j": j}, Fraction(1), g) for j, g in enumerate(first)] + [
            ({"kind": "second", "j": j}, Fraction(1), g) for j, g in enumerate(second)
        ]
    if domain not in ("interval01", "simplex"):
        raise ValueError(f"unknown domain {domain!r}")
    interval = domain == "interval01"
    if interval:
        d = 1
    elif d < 1:
        raise ValueError("d must be >= 1")
    return [({"i": a[0], "j": a[1]} if interval else {"alpha": list(a)},
             Fraction(multinomial((d,) + a)), g) for a, g in generator_powers(d, n).items()]


def partition_values(domain: str, n: int, points: Sequence, d: int = 2) -> list[list[tuple[int, int]]]:
    """Each ``partition_members`` generator's exact value at each rational point.

    One list per point of unreduced integer pairs ``(num, den)``, ``den > 0``,
    in member order, computed from the members' factors rather than their
    expansions.  Handelman members (``interval01`` is the d=1 simplex) put a
    point over one denominator Q, with numerators P_1..P_d and P_{d+1} = Q -
    sum P_i, and read g^alpha as prod P_i^alpha_i over Q^|alpha| from one power
    table per generator, the alphas listed once per call.  On ``interval11``,
    x = p/q, t_{j+1} = 2p t_j - q^2 t_{j-1} gives T_j and U_j over q^j.
    """
    dimension = d if domain == "simplex" else 1
    if n < 1 or dimension < 1:
        raise ValueError("n and d must be >= 1")
    points = [[_frac(v) for v in point] for point in points]
    if any(len(values) != dimension for values in points):
        raise ValueError("point dimension mismatch")
    out = []
    if domain == "interval11":
        for (x,) in points:
            p, q2 = x.numerator, x.denominator**2
            t, u = [1, p], [1, 2 * p]
            for row in (t, u):
                while len(row) <= n:
                    row.append(2 * p * row[-1] - q2 * row[-2])
            g = 2 * (q2 - p * p)  # 2 (1 - x^2) over q^2
            out.append([(1, 1)] + [(2 * t[j] * t[j], q2**j) for j in range(1, n + 1)] + [
                (g * u[j] * u[j], q2 ** (j + 1)) for j in range(n)])
        return out
    if domain not in ("interval01", "simplex"):
        raise ValueError(f"unknown domain {domain!r}")
    alphas = monomials_upto(dimension + 1, n)
    pick, prod = list.__getitem__, math.prod
    for values in points:
        q = math.lcm(*(v.denominator for v in values))
        nums = [v.numerator * (q // v.denominator) for v in values]
        tables = []
        for g in (*nums, q - sum(nums), q):
            row = [1]
            for _ in range(n):
                row.append(row[-1] * g)
            tables.append(row)
        q_pows = tables.pop()
        out.append([(prod(map(pick, tables, a)), q_pows[sum(a)]) for a in alphas])
    return out


def christoffel_sum(measure: measures.MeasureId, n: int, multipliers: Sequence[AnyPoly]) -> AnyPoly:
    """``K_n^mu + sum_g g K_{n-1}^{g mu}`` for ``mu = measure``, exactly.

    ``K`` is the reciprocal Christoffel function (``christoffel_form``) and
    each multiplier g localizes the measure once, at degree n - 1.
    """
    expression = christoffel_form(measure, n).quadratic_form_poly
    for g in multipliers:
        expression = expression + g * christoffel_form(measure, n - 1, shift=g).quadratic_form_poly
    return expression


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
        total = linear_combination((1, tj * tj) for tj in cheb_table(ChebKind.FIRST, n))
        second = linear_combination((1, ui * ui) for ui in cheb_table(ChebKind.SECOND, n - 1))
        expression = (total + _G_INTERVAL * second) * Fraction(1, n + 1)
        expected = Fraction(1)
    elif variant is UnityVariant.UNITY2:
        expression = linear_combination((w, g) for _, w, g in partition_members("interval11", n))
        expected = Fraction(2 * n + 1)
    else:
        expression = christoffel_sum(measures.ARCSINE, n, [_G_INTERVAL])
        expected = Fraction(2 * n + 1)
    return _report(
        "unity-interval", {"n": n, "variant": variant.value}, expression, expected
    )


def verify_unity_01(n: int) -> IdentityReport:
    """Check the Bernstein-family partition of unity on [0,1].

    Sums x^i (1-x)^j over i+j <= n, each divided by its Beta integral; the
    constant is the number of terms, (n+1)(n+2)/2.
    """
    expression = linear_combination((w, g) for _, w, g in partition_members("interval01", n))
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
    expression = linear_combination((w, g) for _, w, g in partition_members("simplex", n, d))
    expected = Fraction(math.comb(d + 1 + n, n)) if n <= 2 else None
    return _report("simplex-unity", {"d": d, "n": n}, expression, expected)


def verify_simplex_equilibrium(
    n: int, normalization: SimplexNormalization
) -> IdentityReport:
    """Check whether the triangle's Christoffel-function combination is constant.

    Computes the reciprocal Christoffel function of the equilibrium measure at
    degree n plus the sum over the three edge products g = x_i x_j of
    barycentric coordinates (``simplex_generator_power`` of (1,1,0), (1,0,1)
    and (0,1,1)) of g times the degree-(n-1) localized form, all exactly.
    The predicted constant s(n)+s(n-1) = (n+1)^2 is recorded; the computed
    constant depends on the measure normalization and is reported as found
    (a mismatch is a logged warning).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    edges = [simplex_generator_power(2, pair) for pair in ((1, 1, 0), (1, 0, 1), (0, 1, 1))]
    expression = christoffel_sum(simplex_equilibrium(normalization), n, edges)
    expected = Fraction((n + 1) ** 2)  # s(n) + s(n-1)
    return _report(
        "simplex-equilibrium",
        {"n": n, "normalization": normalization.value},
        expression,
        expected,
    )
