"""Exact polynomial algebra over the rationals.

Univariate polynomials are dense tuples of integer numerators over one common
denominator, so their products are integer convolutions; multivariate ones
are sparse exponent->``fractions.Fraction`` maps.  All arithmetic here is
exact; floating point never enters this module.  On top of the generic ring
operations it provides the classical families used throughout the package:
Chebyshev polynomials of both kinds, their squared orthonormalizations, the
Bernstein basis on [0,1], and power products of the affine generators of the
canonical simplex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

Rational = Fraction

Exponent = tuple[int, ...]


class ChebKind(Enum):
    FIRST = "first"
    SECOND = "second"


def _frac(value) -> Fraction:
    if isinstance(value, float):
        raise TypeError("exact layer does not accept floats")
    return Fraction(value)


@dataclass(frozen=True)
class UPoly:
    """Dense univariate polynomial with integer numerators over one denominator.

    The coefficient of x^k is ``nums[k] / den``.  The form is canonical: the
    highest stored numerator is nonzero, ``den > 0`` and
    ``gcd(den, *nums) == 1``, and the zero polynomial is ``((), 1)``, so
    ``==`` and ``hash`` compare values exactly.  The degree of the zero
    polynomial is -1.  The constructor does not check the form; build
    polynomials with ``from_coeffs`` or the ring operations, which keep it.
    """

    nums: tuple[int, ...]
    den: int = 1

    @staticmethod
    def _canonical(nums: list[int], den: int) -> "UPoly":
        """The canonical form of nums/den, for den > 0."""
        while nums and not nums[-1]:
            nums.pop()
        if not nums:
            return UPoly((), 1)
        if den != 1:
            g = math.gcd(den, *nums)
            if g != 1:
                nums = [c // g for c in nums]
                den //= g
        return UPoly(tuple(nums), den)

    @staticmethod
    def from_coeffs(values: Iterable) -> "UPoly":
        coeffs = [_frac(v) for v in values]
        den = math.lcm(*(c.denominator for c in coeffs))
        return UPoly._canonical([c.numerator * (den // c.denominator) for c in coeffs], den)

    @staticmethod
    def zero() -> "UPoly":
        return UPoly(())

    @staticmethod
    def constant(value) -> "UPoly":
        return UPoly.from_coeffs([value])

    @staticmethod
    def x() -> "UPoly":
        return UPoly((0, 1))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as fractions; ``coeffs[k]`` is that of x^k."""
        # tuple() of a list, not of a generator: a tuple grown from a generator
        # is resized in place, and such tuples pile up in the interpreter's
        # tuple free lists until a full collection, raising peak memory.
        return tuple([Fraction(c, self.den) for c in self.nums])

    @property
    def degree(self) -> int:
        return len(self.nums) - 1

    def is_zero(self) -> bool:
        return not self.nums

    def coefficient(self, k: int) -> Fraction:
        return Fraction(self.nums[k], self.den) if 0 <= k < len(self.nums) else Fraction(0)

    @property
    def constant_term(self) -> Fraction:
        return self.coefficient(0)

    def _combine(self, other: "UPoly", sign: int) -> "UPoly":
        # self + sign * other over the lcm of the two denominators.
        g = math.gcd(self.den, other.den)
        fa, fb = other.den // g, sign * (self.den // g)
        a = [c * fa for c in self.nums]
        b = [c * fb for c in other.nums]
        if len(a) < len(b):
            a, b = b, a
        for k, c in enumerate(b):
            a[k] += c
        return UPoly._canonical(a, self.den * fa)

    def __add__(self, other: "UPoly") -> "UPoly":
        return self._combine(other, 1)

    def __sub__(self, other: "UPoly") -> "UPoly":
        return self._combine(other, -1)

    def __neg__(self) -> "UPoly":
        return UPoly(tuple([-c for c in self.nums]), self.den)

    def __mul__(self, other) -> "UPoly":
        if isinstance(other, UPoly):
            a, b = self.nums, other.nums
            if not a or not b:
                return UPoly.zero()
            out = [0] * (len(a) + len(b) - 1)
            for i, c in enumerate(a):
                if c:
                    for k, d in enumerate(b, i):
                        out[k] += c * d
            return UPoly._canonical(out, self.den * other.den)
        scalar = _frac(other)
        return UPoly._canonical(
            [c * scalar.numerator for c in self.nums], self.den * scalar.denominator
        )

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "UPoly":
        # Repeated squaring.
        if n < 0:
            raise ValueError("negative power")
        result = UPoly.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def eval(self, point) -> Fraction:
        # Horner's scheme on p/q in integers: sum nums[k] p^k q^(deg-k).
        x = _frac(point)
        if not self.nums:
            return Fraction(0)
        p, q = x.numerator, x.denominator
        descending = reversed(self.nums)
        acc, scale = next(descending), 1
        for c in descending:
            scale *= q
            acc = acc * p + c * scale
        return Fraction(acc, self.den * scale)

    def __repr__(self) -> str:
        if self.is_zero():
            return "UPoly(0)"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            parts.append(f"{c}" if k == 0 else f"{c}*x^{k}")
        return "UPoly(" + " + ".join(parts) + ")"


@dataclass(frozen=True)
class MPoly:
    """Sparse multivariate polynomial in a fixed number of variables.

    ``terms`` maps exponent tuples of length ``dimension`` to nonzero
    rational coefficients; the zero polynomial has an empty map.
    """

    dimension: int
    terms: Mapping[Exponent, Fraction]

    @staticmethod
    def make(dimension: int, terms: Mapping[Exponent, object]) -> "MPoly":
        if dimension < 1:
            raise ValueError("dimension must be positive")
        clean: dict[Exponent, Fraction] = {}
        for exponent, value in terms.items():
            exponent = tuple(int(e) for e in exponent)
            if len(exponent) != dimension:
                raise ValueError(
                    f"exponent {exponent} has length {len(exponent)}, expected {dimension}"
                )
            if any(e < 0 for e in exponent):
                raise ValueError(f"negative exponent in {exponent}")
            coeff = _frac(value)
            if coeff != 0:
                clean[exponent] = clean.get(exponent, Fraction(0)) + coeff
        clean = {e: c for e, c in clean.items() if c != 0}
        return MPoly(dimension, clean)

    @staticmethod
    def zero(dimension: int) -> "MPoly":
        return MPoly.make(dimension, {})

    @staticmethod
    def constant(dimension: int, value) -> "MPoly":
        return MPoly.make(dimension, {(0,) * dimension: value})

    @staticmethod
    def variable(dimension: int, index: int) -> "MPoly":
        if not 0 <= index < dimension:
            raise ValueError(f"variable index {index} out of range")
        exponent = [0] * dimension
        exponent[index] = 1
        return MPoly.make(dimension, {tuple(exponent): 1})

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=-1)

    def coefficient(self, exponent: Exponent) -> Fraction:
        return self.terms.get(tuple(exponent), Fraction(0))

    @property
    def constant_term(self) -> Fraction:
        return self.coefficient((0,) * self.dimension)

    def _check(self, other: "MPoly") -> None:
        if self.dimension != other.dimension:
            raise ValueError("dimension mismatch")

    def __add__(self, other: "MPoly") -> "MPoly":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return MPoly.make(self.dimension, out)

    def __sub__(self, other: "MPoly") -> "MPoly":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) - c
        return MPoly.make(self.dimension, out)

    def __neg__(self) -> "MPoly":
        return MPoly(self.dimension, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other) -> "MPoly":
        if isinstance(other, MPoly):
            self._check(other)
            out: dict[Exponent, Fraction] = {}
            for ea, ca in self.terms.items():
                for eb, cb in other.terms.items():
                    e = tuple(i + j for i, j in zip(ea, eb))
                    out[e] = out.get(e, Fraction(0)) + ca * cb
            return MPoly.make(self.dimension, out)
        scalar = _frac(other)
        return MPoly.make(self.dimension, {e: c * scalar for e, c in self.terms.items()})

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MPoly":
        if n < 0:
            raise ValueError("negative power")
        result = MPoly.constant(self.dimension, 1)
        for _ in range(n):
            result = result * self
        return result

    def eval(self, point: Sequence) -> Fraction:
        if len(point) != self.dimension:
            raise ValueError("point dimension mismatch")
        values = [_frac(v) for v in point]
        total = Fraction(0)
        for exponent, coeff in self.terms.items():
            term = coeff
            for e, v in zip(exponent, values):
                if e:
                    term *= v**e
            total += term
        return total

    def __repr__(self) -> str:
        if self.is_zero():
            return f"MPoly({self.dimension}, 0)"
        parts = [f"{c}*x^{e}" for e, c in sorted(self.terms.items())]
        return f"MPoly({self.dimension}, " + " + ".join(parts) + ")"


AnyPoly = Union[UPoly, MPoly]


def poly_dimension(p: AnyPoly) -> int:
    return 1 if isinstance(p, UPoly) else p.dimension


def poly_eval(p: AnyPoly, point: Sequence) -> Fraction:
    """Exact evaluation of a polynomial at a rational point."""
    if isinstance(p, UPoly):
        if len(point) != 1:
            raise ValueError("univariate polynomial takes a 1-dimensional point")
        return p.eval(point[0])
    return p.eval(point)


def monomials_of_degree(dimension: int, total: int) -> list[Exponent]:
    """Exponent tuples of the given total degree, in descending lex order."""
    if dimension == 1:
        return [(total,)]
    out: list[Exponent] = []
    for first in range(total, -1, -1):
        for rest in monomials_of_degree(dimension - 1, total - first):
            out.append((first,) + rest)
    return out


def monomials_upto(dimension: int, degree: int) -> tuple[Exponent, ...]:
    """Graded lexicographic monomial basis of degree <= ``degree``."""
    out: list[Exponent] = []
    for total in range(degree + 1):
        out.extend(monomials_of_degree(dimension, total))
    return tuple(out)


def powers(p: UPoly, n: int) -> list[UPoly]:
    """The list [p^0, p^1, ..., p^n], one multiplication per entry."""
    out = [UPoly.constant(1)]
    for _ in range(n):
        out.append(out[-1] * p)
    return out


def cheb(kind: ChebKind, n: int) -> UPoly:
    """Chebyshev polynomial T_n (first kind) or U_n (second kind).

    Three-term recurrence p_{k+1} = 2x p_k - p_{k-1} with T_0 = 1, T_1 = x
    and U_0 = 1, U_1 = 2x; all coefficients are integers.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    p0 = UPoly.constant(1)
    if n == 0:
        return p0
    p1 = UPoly.x() if kind is ChebKind.FIRST else UPoly.from_coeffs([0, 2])
    two_x = UPoly.from_coeffs([0, 2])
    for _ in range(n - 1):
        p0, p1 = p1, two_x * p1 - p0
    return p1


def cheb_orthonormal_square(kind: ChebKind, j: int) -> UPoly:
    """Square of the orthonormalized Chebyshev polynomial.

    Orthonormal with respect to the arcsine measure dx/(pi sqrt(1-x^2))
    for the first kind, and with respect to (1-x^2) times it for the second
    kind.  The squared norms are 1 for T_0 and 1/2 otherwise, so the squares
    are 2 T_j^2 (j >= 1), T_0^2, and 2 U_j^2; only squares are exposed so
    that every coefficient stays rational.
    """
    if j < 0:
        raise ValueError("index must be nonnegative")
    base = cheb(kind, j)
    square = base * base
    if kind is ChebKind.FIRST and j == 0:
        return square
    return square * 2


def bernstein(n: int, j: int) -> UPoly:
    """Bernstein basis polynomial C(n,j) x^j (1-x)^(n-j), expanded."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    if not 0 <= j <= n:
        raise ValueError(f"index j={j} out of range for degree {n}")
    one_minus_x = UPoly.from_coeffs([1, -1])
    return math.comb(n, j) * (UPoly.x() ** j) * (one_minus_x ** (n - j))


def simplex_generator_power(d: int, alpha: Sequence[int]) -> MPoly:
    """Power product g_1^a1 ... g_{d+1}^a_{d+1} of the simplex generators.

    The generators are g_j = x_j for j <= d and g_{d+1} = 1 - sum(x_j); the
    result is expanded in the monomial basis of dimension d.
    """
    if d < 1:
        raise ValueError("dimension must be positive")
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != d + 1:
        raise ValueError(f"alpha has length {len(alpha)}, expected {d + 1}")
    if any(a < 0 for a in alpha):
        raise ValueError("alpha entries must be nonnegative")
    last = MPoly.constant(d, 1) - sum(
        (MPoly.variable(d, i) for i in range(d)), MPoly.zero(d)
    )
    result = MPoly.constant(d, 1)
    for i in range(d):
        result = result * (MPoly.variable(d, i) ** alpha[i])
    return result * (last ** alpha[d])
