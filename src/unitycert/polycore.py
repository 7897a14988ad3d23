"""Exact polynomial algebra over the rationals.

Polynomials store integer numerators over one common denominator: univariate
ones as dense tuples, multivariate ones as sparse exponent->numerator maps,
so their products are integer convolutions with one gcd at the end.
Evaluation and weighted sums run in integers as well: each class evaluates
itself at a rational point, ``UPoly`` by Horner's scheme and ``MPoly`` from
one power table per coordinate, and ``linear_combination`` adds weighted
polynomials over one common denominator.  All arithmetic here is exact;
floating point never enters this module.  On top of the generic ring
operations it provides the classical families used throughout the package:
Chebyshev polynomials of both kinds, their squared orthonormalizations, the
Bernstein basis on [0,1], and the simplex generator powers, singly or as the
table of degree <= n, shifts of one closed-form expansion of (1 - sum x)^m.
"""

from __future__ import annotations

import math
import operator
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
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError("exact layer does not accept floats")
    return Fraction(value)


def _power(base, one, n: int):
    """base^n by repeated squaring; ``one`` is the unit of base's ring."""
    if n < 0:
        raise ValueError("negative power")
    result = one
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


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
    def dimension(self) -> int:
        return 1

    @property
    def terms(self) -> dict[Exponent, Fraction]:
        """The nonzero coefficients as fractions, keyed by ``(k,)``."""
        return {(k,): Fraction(c, self.den) for k, c in enumerate(self.nums) if c}

    @property
    def sparse_nums(self) -> dict[Exponent, int]:
        """The nonzero numerators over ``den``, keyed by ``(k,)``."""
        return {(k,): c for k, c in enumerate(self.nums) if c}

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
            # Only nonzero entries enter: Chebyshev polynomials and their
            # squares are zero at every other degree.
            right = [(k, d) for k, d in enumerate(b) if d]
            out = [0] * (len(a) + len(b) - 1)
            if self is other:
                # A square: each cross product once, doubled, then the diagonal.
                for pos, (i, c) in enumerate(right):
                    for k, d in right[pos + 1 :]:
                        out[i + k] += c * d
                out = [v + v for v in out]
                for i, c in right:
                    out[i + i] += c * c
            else:
                for i, c in enumerate(a):
                    if c:
                        for k, d in right:
                            out[i + k] += c * d
            return UPoly._canonical(out, self.den * other.den)
        scalar = _frac(other)
        return UPoly._canonical(
            [c * scalar.numerator for c in self.nums], self.den * scalar.denominator
        )

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "UPoly":
        return _power(self, UPoly.constant(1), n)

    def eval(self, x) -> Fraction:
        """The exact value at a rational x = p/q, by Horner's scheme in integers.

        The value is sum nums[k] p^k q^(deg-k) over den q^deg.
        """
        x = _frac(x)
        if not self.nums:
            return Fraction(0)
        p, q = x.numerator, x.denominator
        descending = reversed(self.nums)
        acc, power = next(descending), 1
        for c in descending:
            power *= q
            acc = acc * p + c * power
        return Fraction(acc, self.den * power)

    def __repr__(self) -> str:
        parts = [f"{c}" if k == 0 else f"{c}*x^{k}" for (k,), c in self.terms.items()]
        return "UPoly(" + (" + ".join(parts) or "0") + ")"


@dataclass(frozen=True)
class MPoly:
    """Sparse multivariate polynomial with integer numerators over one denominator.

    The dimension is at least 2; a polynomial in one variable is a ``UPoly``.
    ``nums`` maps exponent tuples of length ``dimension`` to nonzero integer
    numerators; the coefficient of x^e is ``nums[e] / den``.  The form is
    canonical: no stored numerator is zero, ``den > 0`` and
    ``gcd(den, *nums.values()) == 1``, and the zero polynomial is ``({}, 1)``,
    so ``==`` compares values exactly.  The constructor does not check the
    form; build polynomials with ``make`` or the ring operations, which keep
    it.
    """

    dimension: int
    nums: dict[Exponent, int]
    den: int = 1

    @staticmethod
    def _canonical(dimension: int, nums: dict[Exponent, int], den: int) -> "MPoly":
        """The canonical form of nums/den, for den > 0."""
        if 0 in nums.values():
            nums = {e: c for e, c in nums.items() if c}
        if not nums:
            return MPoly(dimension, {}, 1)
        if den != 1:
            g = math.gcd(den, *nums.values())
            if g != 1:
                nums = {e: c // g for e, c in nums.items()}
                den //= g
        return MPoly(dimension, nums, den)

    @staticmethod
    def make(dimension: int, terms: Mapping[Exponent, object]) -> "MPoly":
        if dimension < 2:
            raise ValueError(f"an MPoly has dimension >= 2, got {dimension}; use UPoly")
        clean: dict[Exponent, Fraction] = {}
        for exponent, value in terms.items():
            exponent = tuple(map(operator.index, exponent))
            if len(exponent) != dimension:
                raise ValueError(
                    f"exponent {exponent} has length {len(exponent)}, expected {dimension}"
                )
            if any(e < 0 for e in exponent):
                raise ValueError(f"negative exponent in {exponent}")
            coeff = _frac(value)
            if coeff != 0:
                clean[exponent] = clean.get(exponent, 0) + coeff
        den = math.lcm(*(c.denominator for c in clean.values()))
        return MPoly._canonical(
            dimension,
            {e: c.numerator * (den // c.denominator) for e, c in clean.items()},
            den,
        )

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

    @property
    def terms(self) -> dict[Exponent, Fraction]:
        """The coefficients as fractions, in a fresh dict built on each call."""
        return {e: Fraction(c, self.den) for e, c in self.nums.items()}

    @property
    def sparse_nums(self) -> dict[Exponent, int]:
        """The numerators over ``den``; the stored map itself, not a copy."""
        return self.nums

    def is_zero(self) -> bool:
        return not self.nums

    @property
    def degree(self) -> int:
        return max((sum(e) for e in self.nums), default=-1)

    def coefficient(self, exponent: Exponent) -> Fraction:
        c = self.nums.get(tuple(exponent))
        return Fraction(c, self.den) if c else Fraction(0)

    @property
    def constant_term(self) -> Fraction:
        return self.coefficient((0,) * self.dimension)

    def _check(self, other: "MPoly") -> None:
        if self.dimension != other.dimension:
            raise ValueError("dimension mismatch")

    def _combine(self, other: "MPoly", sign: int) -> "MPoly":
        # self + sign * other over the lcm of the two denominators.
        self._check(other)
        g = math.gcd(self.den, other.den)
        fa, fb = other.den // g, sign * (self.den // g)
        out = dict(self.nums) if fa == 1 else {e: c * fa for e, c in self.nums.items()}
        get = out.get
        for e, c in other.nums.items():
            out[e] = get(e, 0) + c * fb
        return MPoly._canonical(self.dimension, out, self.den * fa)

    def __add__(self, other: "MPoly") -> "MPoly":
        return self._combine(other, 1)

    def __sub__(self, other: "MPoly") -> "MPoly":
        return self._combine(other, -1)

    def __neg__(self) -> "MPoly":
        return MPoly(self.dimension, {e: -c for e, c in self.nums.items()}, self.den)

    def __mul__(self, other) -> "MPoly":
        if isinstance(other, MPoly):
            self._check(other)
            out: dict[Exponent, int] = {}
            get = out.get
            add = operator.add
            right = other.nums.items()
            for ea, ca in self.nums.items():
                for eb, cb in right:
                    e = tuple(map(add, ea, eb))
                    out[e] = get(e, 0) + ca * cb
            return MPoly._canonical(self.dimension, out, self.den * other.den)
        scalar = _frac(other)
        k = scalar.numerator
        return MPoly._canonical(
            self.dimension, {e: c * k for e, c in self.nums.items()}, self.den * scalar.denominator
        )

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MPoly":
        return _power(self, MPoly.constant(self.dimension, 1), n)

    def eval(self, point: Sequence) -> Fraction:
        """The exact value at a rational point, in integers.

        With x_i = p_i/q_i and D_i the top degree in x_i, one table of
        p_i^k q_i^(D_i - k) per coordinate gives the value as
        sum nums[e] * prod table_i[e_i] over den * prod q_i^D_i.
        """
        values = [_frac(v) for v in point]
        if len(values) != self.dimension:
            raise ValueError("point dimension mismatch")
        tables, scale = [], self.den
        for v, top in zip(values, map(max, zip(*self.nums))):
            p, q = v.numerator, v.denominator
            p_pows, q_pows = [1], [1]
            for _ in range(top):
                p_pows.append(p_pows[-1] * p)
                q_pows.append(q_pows[-1] * q)
            tables.append([p_pows[k] * q_pows[top - k] for k in range(top + 1)])
            scale *= q_pows[top]
        pick, prod = list.__getitem__, math.prod
        acc = 0
        for e, c in self.nums.items():
            acc += c * prod(map(pick, tables, e))
        return Fraction(acc, scale)

    def __repr__(self) -> str:
        if self.is_zero():
            return f"MPoly({self.dimension}, 0)"
        parts = [f"{c}*x^{e}" for e, c in sorted(self.terms.items())]
        return f"MPoly({self.dimension}, " + " + ".join(parts) + ")"


# Both classes read alike through dimension, degree, terms, sparse_nums, den
# and constant_term; only this module tells dense from sparse storage.
AnyPoly = Union[UPoly, MPoly]


def poly_from_sparse_nums(dimension: int, nums: dict[Exponent, int], den: int) -> AnyPoly:
    """The polynomial sum of ``nums[e] / den * x^e``, for ``den > 0``.

    A ``UPoly`` for dimension 1 and an ``MPoly`` otherwise.  ``nums`` may
    hold zeros; the exponents are trusted to have length ``dimension``.
    """
    if dimension == 1:
        dense = [0] * (max((e[0] for e in nums), default=-1) + 1)
        for (k,), c in nums.items():
            dense[k] = c
        return UPoly._canonical(dense, den)
    return MPoly._canonical(dimension, nums, den)


def poly_eval(p: AnyPoly, point: Sequence) -> Fraction:
    """Exact evaluation of a polynomial at a rational point of its dimension."""
    if len(point) != p.dimension:
        raise ValueError("point dimension mismatch")
    return p.eval(point[0]) if isinstance(p, UPoly) else p.eval(point)


def linear_combination(pairs: Iterable[tuple[object, AnyPoly]]) -> AnyPoly:
    """The sum of weight * poly over a nonempty list of ``(weight, poly)`` pairs.

    Every term is scaled to one common denominator and added in integers:
    densely by degree for ``UPoly`` terms, by exponent for ``MPoly`` ones.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("linear_combination of no terms")
    dimension = pairs[0][1].dimension
    if any(p.dimension != dimension for _, p in pairs):
        raise ValueError("dimension mismatch")
    weights = [_frac(w) for w, _ in pairs]
    dens = [w.denominator * p.den for w, (_, p) in zip(weights, pairs)]
    den = math.lcm(*dens)
    factors = [w.numerator * (den // d) for w, d in zip(weights, dens)]
    if dimension == 1:
        dense = [0] * (max(p.degree for _, p in pairs) + 1)
        for f, (_, p) in zip(factors, pairs):
            for k, c in enumerate(p.nums):
                dense[k] += f * c
        return UPoly._canonical(dense, den)
    nums: dict[Exponent, int] = {}
    get = nums.get
    for f, (_, p) in zip(factors, pairs):
        for e, c in p.nums.items():
            nums[e] = get(e, 0) + f * c
    return MPoly._canonical(dimension, nums, den)


def monomials_of_degree(dimension: int, total: int) -> list[Exponent]:
    """Exponent tuples of the given total degree, in descending lex order.

    Each exponent's successor moves one unit out of its last nonzero entry
    before the final one, and gathers everything after that entry right
    behind it; the list ends when the final entry holds the whole total.
    """
    last = dimension - 1
    a = [total] + [0] * last
    out = [tuple(a)]
    while a[last] != total:
        i = last - 1
        while not a[i]:
            i -= 1
        a[i] -= 1
        rest = a[last] + 1
        a[last] = 0
        a[i + 1] = rest
        out.append(tuple(a))
    return out


def monomials_upto(dimension: int, degree: int) -> tuple[Exponent, ...]:
    """Graded lexicographic monomial basis of degree <= ``degree``."""
    out: list[Exponent] = []
    for total in range(degree + 1):
        out.extend(monomials_of_degree(dimension, total))
    return tuple(out)


def multinomial(parts: Sequence[int]) -> int:
    """The multinomial coefficient (sum parts)! / prod(part!), as a product of binomials."""
    out, total = 1, 0
    for p in parts:
        total += p
        out *= math.comb(total, p)
    return out


def cheb_table(kind: ChebKind, n: int) -> list[UPoly]:
    """Chebyshev polynomials [P_0, ..., P_n] of one kind, from one recurrence.

    Three-term recurrence p_{k+1} = 2x p_k - p_{k-1} with T_0 = 1, T_1 = x
    and U_0 = 1, U_1 = 2x; all coefficients are integers, so it runs on
    plain integer lists.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    rows = [[1], [0, 1] if kind is ChebKind.FIRST else [0, 2]]
    for _ in range(n - 1):
        prev, cur = rows[-2], rows[-1]
        # [0] + cur is x * p_k; p_{k-1} is padded to the same length.
        rows.append([c + c - b for c, b in zip([0] + cur, prev + [0, 0])])
    # Leading coefficients are powers of two and den is 1: already canonical.
    return [UPoly(tuple(row)) for row in rows[: n + 1]]


def cheb(kind: ChebKind, n: int) -> UPoly:
    """Chebyshev polynomial T_n (first kind) or U_n (second kind).

    Written from the explicit integer coefficients, without the lower rows:
    U_n has (-1)^k C(n-k, k) 2^(n-2k) on x^(n-2k), and T_n (n >= 1) has
    (-1)^k n C(n-k, k) 2^(n-2k) / (2(n-k)), an exact division.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    if n == 0:
        return UPoly((1,))
    nums = [0] * (n + 1)
    for k in range(n // 2 + 1):
        c = math.comb(n - k, k) << (n - 2 * k)
        if kind is ChebKind.FIRST:
            c = n * c // (2 * (n - k))
        nums[n - 2 * k] = -c if k & 1 else c
    # The leading coefficient is a power of two and den is 1: canonical.
    return UPoly(tuple(nums))


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
    return _orthonormal_square(kind, j, cheb(kind, j))


def cheb_orthonormal_squares(kind: ChebKind, n: int) -> list[UPoly]:
    """``cheb_orthonormal_square(kind, j)`` for j = 0..n, from one ``cheb_table``."""
    return [_orthonormal_square(kind, j, base) for j, base in enumerate(cheb_table(kind, n))]


def _orthonormal_square(kind: ChebKind, j: int, base: UPoly) -> UPoly:
    # base is P_j of the given kind; its square is multiplied out, never
    # rewritten by a product formula such as T_j^2 = (1 + T_2j)/2.
    square = base * base
    if kind is ChebKind.FIRST and j == 0:
        return square
    return square * 2


def bernstein(n: int, j: int) -> UPoly:
    """Bernstein basis polynomial C(n,j) x^j (1-x)^(n-j), expanded: C(n,j) times
    a generator power of [0,1], the 1-simplex."""
    if not 0 <= j <= n:
        raise ValueError(f"index j={j} out of range for degree {n}")
    return math.comb(n, j) * simplex_generator_power(1, (j, n - j))


def simplex_generator_power(d: int, alpha: Sequence[int]) -> AnyPoly:
    """Power product g_1^a1 ... g_{d+1}^a_{d+1} of the simplex generators.

    The generators are g_j = x_j for j <= d and g_{d+1} = 1 - sum(x_j).  With
    beta = (a_1..a_d) and m = a_{d+1}, g^alpha = x^beta (1 - sum x)^m in integer
    coefficients over the monomial basis of dimension d (``_complement_power``):
    a ``UPoly`` on [0,1], the 1-simplex, and an ``MPoly`` for d >= 2.
    """
    if d < 1:
        raise ValueError("dimension must be positive")
    alpha = tuple(map(operator.index, alpha))
    if len(alpha) != d + 1:
        raise ValueError(f"alpha has length {len(alpha)}, expected {d + 1}")
    if any(a < 0 for a in alpha):
        raise ValueError("alpha entries must be nonnegative")
    return _shifted_powers(d, [alpha], {alpha[d]: _complement_power(d, alpha[d])})[alpha]


def generator_powers(d: int, n: int) -> dict[Exponent, AnyPoly]:
    """``simplex_generator_power(d, alpha)`` keyed by alpha, for every alpha in
    ``monomials_upto(d + 1, n)`` in that order, each (1 - sum x)^m expanded once."""
    if d < 1 or n < 0:
        raise ValueError("dimension must be positive and degree nonnegative")
    expansions = [_complement_power(d, m) for m in range(n + 1)]
    return _shifted_powers(d, monomials_upto(d + 1, n), expansions)


def _complement_power(d: int, m: int):
    """(1 - x_1 - ... - x_d)^m by the multinomial theorem, x^gamma having (-1)^|gamma|
    m! / ((m - |gamma|)! gamma!): a dense row for d = 1, else (gamma, coefficient) pairs."""
    if d == 1:
        return tuple([-math.comb(m, k) if k & 1 else math.comb(m, k) for k in range(m + 1)])
    return [(gamma, (-1) ** k * math.perm(m, k) // math.prod(map(math.factorial, gamma)))
            for k in range(m + 1) for gamma in monomials_of_degree(d, k)]


def _shifted_powers(d: int, alphas: Sequence[Exponent], expansions) -> dict[Exponent, AnyPoly]:
    """x^beta (1 - sum x)^m keyed by alpha = (beta, m), from ``expansions[m]``;
    all coefficients are nonzero integers, so each product is canonical."""
    if d == 1:
        return {alpha: UPoly((0,) * alpha[0] + expansions[alpha[1]]) for alpha in alphas}
    # map stops at gamma's length d, so it adds beta, not m.
    add = operator.add
    return {alpha: MPoly(d, {tuple(map(add, alpha, gamma)): c for gamma, c in expansions[alpha[d]]})
            for alpha in alphas}
