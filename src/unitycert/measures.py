"""Moment functionals for the measures behind the partition identities.

Exact monomial moments, in closed form, for:

* ``Arcsine`` -- dx/(pi sqrt(1-x^2)) on [-1,1], the equilibrium measure of
  the interval; even moments are central binomials C(k, k/2)/2^k.  Its
  monic orthogonal polynomials are p_0 = 1 and p_k = T_k / 2^(k-1), with
  norms h_0 = 1 and h_k = 2^(1-2k).
* ``ArcsineG`` -- (1-x^2) times Arcsine.  Its monic orthogonal polynomials
  are p_k = U_k / 2^k, with norms h_k = 2^(-2k-1).  ``momatrix`` inverts
  both measures from these closed forms, not from their moments.
* ``dirichlet(kappa, mass)`` -- ``mass`` times the Dirichlet(kappa)
  probability measure on the d-simplex, d = len(kappa) - 1, with moments
  mass * prod (kappa_i)_{a_i} / (|kappa|)_{|a|} (Dunkl and Xu, *Orthogonal
  Polynomials of Several Variables*, 2nd ed., 2014, section 5.3).  The
  paper's measures on [0,1], the 1-simplex, and on the simplex are
  constructors over it: ``LEBESGUE01`` and ``simplex_uniform(d)``, the
  uniform probability measure, are Dirichlet(1, ..., 1);
  ``simplex_equilibrium`` is Dirichlet(1/2, 1/2, 1/2) on the triangle,
  dx dy/(pi sqrt(x y (1-x-y))) with its raw total mass 2 (``PI_DENSITY``)
  or rescaled to a probability measure (``PROBABILITY``).

A Dirichlet measure localized by a generator power g^alpha = prod x_i^alpha_i
of the barycentric coordinates is Dirichlet again: ``localized(measure,
alpha)`` is ``mass E[g^alpha] * Dirichlet(kappa + alpha)``, built from
alpha rather than recognized in an expanded polynomial.

Floating-point quadrature oracles (Gauss-Chebyshev, Gauss-Legendre for
Dirichlet(1, 1), and fixed-seed Monte Carlo on the simplex) are provided as
independent cross-checks of the closed forms.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Sequence

from .polycore import AnyPoly, Exponent

_MC_SEED = 20260809  # fixed seed: the simplex oracles must be deterministic


class SimplexNormalization(Enum):
    PI_DENSITY = "pi-density"
    PROBABILITY = "probability"


class _Kind(Enum):
    ARCSINE = "arcsine"
    ARCSINE_G = "arcsine-g"
    DIRICHLET = "dirichlet"


@dataclass(frozen=True)
class MeasureId:
    """A measure by kind; a ``DIRICHLET`` one is ``mass * Dirichlet(kappa)``.

    ``name`` is the label and takes no part in equality, so two names for
    one measure share one ``functional_for`` memo.
    """

    kind: _Kind
    kappa: tuple[Fraction, ...] = ()
    mass: Fraction = Fraction(1)
    name: str = field(default="", compare=False)

    @property
    def dimension(self) -> int:
        return len(self.kappa) - 1 if self.kappa else 1

    def label(self) -> str:
        return self.name or self.kind.value


ARCSINE = MeasureId(_Kind.ARCSINE)
ARCSINE_G = MeasureId(_Kind.ARCSINE_G)


def dirichlet(kappa: Sequence, mass=1, name: str = "") -> MeasureId:
    """``mass * Dirichlet(kappa)`` on the d-simplex, d = len(kappa) - 1.

    Dirichlet(kappa) is the probability measure with density proportional
    to x_1^(kappa_1 - 1) ... x_{d+1}^(kappa_{d+1} - 1), x_{d+1} = 1 - sum x_i.
    ``name`` is the label; the default one spells out kappa and the mass.
    """
    kappa, mass = tuple(map(Fraction, kappa)), Fraction(mass)
    if len(kappa) < 2:
        raise ValueError(f"a Dirichlet measure needs at least 2 parameters, got {len(kappa)}")
    if min(kappa) <= 0 or mass <= 0:
        raise ValueError("Dirichlet parameters and mass must be positive")
    name = name or f"dirichlet(kappa=({', '.join(map(str, kappa))}), mass={mass})"
    return MeasureId(_Kind.DIRICHLET, kappa, mass, name)


LEBESGUE01 = dirichlet((1, 1), name="lebesgue01")


def simplex_uniform(d: int) -> MeasureId:
    return dirichlet((1,) * (d + 1), name=f"simplex-uniform(d={d})")


def simplex_equilibrium(
    normalization: SimplexNormalization = SimplexNormalization.PI_DENSITY,
) -> MeasureId:
    mass = 2 if normalization is SimplexNormalization.PI_DENSITY else 1
    return dirichlet((Fraction(1, 2),) * 3, mass, f"simplex-equilibrium({normalization.value})")


def beta_integral(i: int, j: int) -> Fraction:
    """Exact value of the integral of x^i (1-x)^j over [0,1]: i! j!/(i+j+1)!."""
    if i < 0 or j < 0:
        raise ValueError("exponents must be nonnegative")
    return Fraction(math.factorial(i) * math.factorial(j), math.factorial(i + j + 1))


def _arcsine_moment(k: int) -> Fraction:
    if k % 2:
        return Fraction(0)
    return Fraction(math.comb(k, k // 2), 2**k)


def _normalize_alpha(measure: MeasureId, alpha) -> Exponent:
    if isinstance(alpha, int):
        alpha = (alpha,)
    alpha = tuple(map(operator.index, alpha))
    if len(alpha) != measure.dimension:
        raise ValueError(
            f"exponent {alpha} has dimension {len(alpha)}, measure expects {measure.dimension}"
        )
    if min(alpha) < 0:
        raise ValueError("exponents must be nonnegative")
    return alpha


def _rising(p: int, q: int, a: int) -> int:
    """``prod_{j < a} (p + j q)``, the product split into balanced halves so
    that long runs multiply operands of similar size."""
    if a <= 64:
        return math.prod(range(p, p + a * q, q))
    h = a // 2
    return _rising(p, q, h) * _rising(p + h * q, q, a - h)


def _closed_form_moment(measure: MeasureId, alpha: Exponent) -> Fraction:
    if measure.kind is _Kind.ARCSINE:
        return _arcsine_moment(alpha[0])
    if measure.kind is _Kind.ARCSINE_G:
        return _arcsine_moment(alpha[0]) - _arcsine_moment(alpha[0] + 2)
    # mass * prod (kappa_i)_{a_i} / (|kappa|)_{|a|} over the entries of alpha:
    # a monomial's d, x_{d+1} at exponent 0, or all d+1 from ``localized``.
    # Over a common denominator, kappa_i = p_i / q and (p / q)_a is
    # prod (p + j q) / q^a, so the powers of q cancel: one Fraction at the end.
    q = math.lcm(*(k.denominator for k in measure.kappa))
    p = [k.numerator * (q // k.denominator) for k in measure.kappa]
    num = math.prod(_rising(pi, q, a) for pi, a in zip(p, alpha))
    den = _rising(sum(p), q, sum(alpha))
    return Fraction(measure.mass.numerator * num, measure.mass.denominator * den)


def localized(measure: MeasureId, alpha: Sequence[int]) -> MeasureId:
    """``g^alpha * measure`` for a Dirichlet measure, itself a Dirichlet measure.

    ``alpha`` has one nonnegative exponent per barycentric coordinate x_1 ..
    x_d, x_{d+1} = 1 - sum x_i, and g^alpha = prod x_i^alpha_i.  Then
    g^alpha * mass * Dirichlet(kappa) is mass E[g^alpha] * Dirichlet(kappa +
    alpha): the density gains the factor g^alpha, and its total is the
    moment of alpha.  Any other measure, or a wrong length or negative entry
    of alpha, raises ``ValueError``.
    """
    if measure.kind is not _Kind.DIRICHLET:
        raise ValueError(f"only a Dirichlet measure localizes to one, not {measure.label()}")
    alpha = tuple(map(operator.index, alpha))
    if len(alpha) != len(measure.kappa) or min(alpha) < 0:
        raise ValueError(f"alpha needs {len(measure.kappa)} nonnegative exponents, got {alpha}")
    kappa = [k + a for k, a in zip(measure.kappa, alpha)]
    return dirichlet(kappa, _closed_form_moment(measure, alpha))


_ONLY_INTS = frozenset((int,)).issuperset


class MomentFunctional:
    """A measure together with a memo table of its exact monomial moments.

    The memo grows monotonically and is never evicted; concurrent readers may
    race to fill an entry but always compute the same value.
    """

    def __init__(self, measure: MeasureId) -> None:
        self.measure = measure
        self._memo: dict[Exponent, Fraction] = {}

    def moment(self, alpha) -> Fraction:
        # Every key was validated on insertion, so a tuple of exact ints that
        # is found is valid; only exact ints, since 1.0 and True hash as 1.
        if type(alpha) is tuple and _ONLY_INTS(map(type, alpha)):
            value = self._memo.get(alpha)
            if value is not None:
                return value
        alpha = _normalize_alpha(self.measure, alpha)
        value = self._memo.get(alpha)
        if value is None:
            value = _closed_form_moment(self.measure, alpha)
            self._memo[alpha] = value
        return value

    def poly_moment(self, p: AnyPoly) -> Fraction:
        if p.dimension != self.measure.dimension:
            raise ValueError("polynomial dimension does not match the measure")
        # Sum nums[e] * moment(e) in integers over the lcm of the moment
        # denominators; one Fraction at the end.
        num, den = 0, 1
        for e, c in p.sparse_nums.items():
            value = self.moment(e)
            vd = value.denominator
            if vd == den:
                num += c * value.numerator
            else:
                g = math.gcd(den, vd)
                num = num * (vd // g) + c * value.numerator * (den // g)
                den *= vd // g
        return Fraction(num, den * p.den)

    def memo_size(self) -> int:
        return len(self._memo)


_FUNCTIONALS: dict[MeasureId, MomentFunctional] = {}


def functional_for(measure: MeasureId) -> MomentFunctional:
    """Shared functional per measure so memo tables accumulate across calls."""
    return _FUNCTIONALS.setdefault(measure, MomentFunctional(measure))


def simplex_uniform_moment_oracle(d: int, alpha: Sequence[int]) -> Fraction:
    """Uniform-simplex moment by iterated Beta integrals.

    Peels off one variable at a time: integrating x_1^{a_1} over its range
    leaves a rescaled copy of the lower-dimensional simplex, contributing the
    factor B(a_1+1, a_2+...+a_d + d), i.e. beta_integral(a_1, rest + d - 1).
    Independent of the Dirichlet closed form used by ``MomentFunctional``.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != d:
        raise ValueError("alpha length must equal the dimension")
    raw = Fraction(1)
    remaining = d
    for k, a in enumerate(alpha):
        rest = sum(alpha[k + 1 :])
        raw *= beta_integral(a, rest + remaining - 1)
        remaining -= 1
    return math.factorial(d) * raw


def _eval_float(p: AnyPoly, point: np.ndarray) -> np.ndarray:
    """Evaluate p at an array of points (shape (N, dim)) in float arithmetic."""
    import numpy as np

    total = np.zeros(point.shape[0])
    for exponent, coeff in p.terms.items():
        term = np.full(point.shape[0], float(coeff))
        for axis, e in enumerate(exponent):
            if e:
                term = term * point[:, axis] ** e
        total += term
    return total


def quadrature_oracle(measure: MeasureId, p: AnyPoly, nodes: int) -> float:
    """Floating-point estimate of the integral of p against the measure.

    Gauss-Chebyshev nodes cos((2k-1)pi/2N) for the arcsine measures,
    Gauss-Legendre on [0,1] for multiples of Dirichlet(1, 1), Lebesgue (both
    exact to rounding once 2*nodes exceeds the degree), and fixed-seed
    Dirichlet Monte Carlo with ``nodes`` samples for the other ones.
    """
    import numpy as np  # the exact functions here never need it

    if nodes <= 0:
        raise ValueError("nodes must be positive")
    if measure.kind in (_Kind.ARCSINE, _Kind.ARCSINE_G):
        k = np.arange(1, nodes + 1)
        x = np.cos((2 * k - 1) * np.pi / (2 * nodes))
        values = _eval_float(p, x[:, None])
        if measure.kind is _Kind.ARCSINE_G:
            values = values * (1.0 - x**2)
        return float(values.mean())
    if measure.kappa == (1, 1):
        t, w = np.polynomial.legendre.leggauss(nodes)
        x = (t + 1.0) / 2.0
        return float(measure.mass / 2 * np.dot(w, _eval_float(p, x[:, None])))
    rng = np.random.default_rng(_MC_SEED)
    kappa = [float(k) for k in measure.kappa]
    samples = rng.dirichlet(kappa, size=nodes)[:, : measure.dimension]
    return float(measure.mass) * float(_eval_float(p, samples).mean())


def bernstein_envelope(n: int, x: float) -> float:
    """Envelope of the degree-n Bernstein basis: 1/(n sqrt(2 pi x (1-x)))."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 < x < 1.0:
        raise ValueError("x must lie strictly inside (0, 1)")
    return 1.0 / (n * math.sqrt(2.0 * math.pi * x * (1.0 - x)))
