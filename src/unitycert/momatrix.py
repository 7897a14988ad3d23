"""Moment and localizing matrices with exact rational inversion.

Matrices are indexed by the graded lexicographic monomial basis of degree
<= n.  ``christoffel_form`` picks one of three inversions, once per input:

* A Dirichlet measure (``measures.dirichlet``, in any dimension:
  ``LEBESGUE01`` on [0,1] and the uniform and equilibrium simplex measures
  among them), or its localization by a product ``x_S`` of barycentric
  coordinates (``measures.dirichlet_parameters``), goes to its explicit
  orthogonal basis (Dunkl and Xu, *Orthogonal Polynomials of Several
  Variables*, 2nd ed., 2014, section 5.3): products of univariate Beta
  orthogonal polynomials with closed-form norms.
* Any other univariate measure or shift goes to the recurrence on its 2n+1
  moments ``mu_k = L(g x^k)``, and no matrix is built: the Chebyshev
  algorithm (Gautschi, *Orthogonal Polynomials: Computation and
  Approximation*, 2004, section 2.1.7) gives the recurrence coefficients and
  the norms of the monic orthogonal polynomials ``p_k``, and the three-term
  recurrence builds the ``p_k``.  The coefficients and norms are reduced
  integer ``(numerator, denominator)`` pairs, so the algorithm builds no
  ``Fraction``; the leading principal minor of order ``k+1`` is
  ``h_0 ... h_k``, which doubles as the positive definiteness check.  The
  Beta polynomials of the first route come from the same algorithm.
* Anything else -- and every built ``MomentMatrix``, of any dimension, given
  to ``invert_exact`` or ``christoffel_form_of_matrix`` -- goes to
  fraction-free Bareiss elimination on an integer-scaled copy (Bareiss,
  Math. Comp. 1968), then back-substitution to ``det * A^{-1}``, which is an
  integer matrix; every division is checked exact.  The Bareiss pivots are
  the leading principal minors; the tests use this route as the oracle for
  the other two.

The first two routes sum ``M^{-1} = sum_k c_k c_k^T / h_k``, with ``c_k``
the monomial coefficients of the k-th orthogonal polynomial and
``h_k = L(g P_k^2)`` its norm.  All three hand back the upper triangle of
``L * M^{-1}`` in integers over one denominator ``L`` (``det`` for Bareiss).
A ``ChristoffelForm`` keeps that triangle in lowest terms and sums the
quadratic form from it -- the reciprocal Christoffel function as an
explicit polynomial -- and builds the ``Fraction`` matrix ``inverse`` only
when it is read; the identity verifiers never read it.

With ``logging`` at DEBUG, each inversion logs one record with its
dimension and method: for Bareiss the bit lengths of ``det`` and of the
largest entry of ``det * A^{-1}``, for ``recurrence`` and ``dirichlet``
those of the common denominator ``L`` and of the largest entry of
``L * M^{-1}``.  Bareiss time grows with its intermediates, roughly
cubically in the matrix dimension times their bit length: arcsine n=48
logs ``det_bits=2303 entry_bits_max=2419``.  The orthogonal-basis sums make
about ``m^3 / 6`` integer products for a matrix of dimension m or fewer;
at arcsine n=48 and 96, arcsine-g n=20 and lebesgue01 n=24 their
denominator is 1 and their widest integer is the widest inverse entry (117
bits at arcsine n=48).  Simplex-uniform d=2 n=8 logs ``den_bits=1
num_bits_max=48`` on the Dirichlet path and ``det_bits=395
entry_bits_max=442`` through Bareiss.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .measures import MeasureId, MomentFunctional, dirichlet_parameters, functional_for
from .polycore import AnyPoly, Exponent, monomials_upto, poly_eval, poly_from_sparse_nums

RationalMatrix = tuple[tuple[Fraction, ...], ...]
Ratio = tuple[int, int]  # (numerator, denominator), denominator > 0
ShiftTerms = Optional[list[tuple[Exponent, Fraction]]]  # None for no shift

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
    """A reciprocal Christoffel function and its inverse moment matrix.

    Entry (i, j), j >= i, of the inverse is ``inverse_upper[i][j - i] /
    inverse_den`` in lowest terms, so ``==`` compares inverses exactly; the
    ``Fraction`` matrix ``inverse`` is built on first read.
    """

    measure: MeasureId
    degree: int
    inverse_upper: tuple[tuple[int, ...], ...]
    inverse_den: int
    quadratic_form_poly: AnyPoly
    shift: Optional[AnyPoly] = None

    @functools.cached_property
    def inverse(self) -> RationalMatrix:
        return _fractions_of_upper(self.inverse_upper, self.inverse_den)


def _shift_terms(shift: Optional[AnyPoly], dimension: int) -> ShiftTerms:
    """The shift's ``(exponent, coefficient)`` pairs, or None for no shift."""
    if shift is None:
        return None
    if shift.dimension != dimension:
        raise ValueError("shift polynomial dimension does not match the measure")
    return list(shift.terms.items())


def _shifted_moment(functional: MomentFunctional, terms: ShiftTerms, e: Exponent) -> Fraction:
    """``L(g x^e)`` for the shift g given by its ``_shift_terms``."""
    if terms is None:
        return functional.moment(e)
    return sum((c * functional.moment(tuple(map(operator.add, e, gamma))) for gamma, c in terms),
               Fraction(0))


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
    # One moment sum per distinct exponent a+b, shared by every entry that has it.
    add = operator.add
    values: dict[Exponent, Fraction] = {}
    size = len(basis)
    rows: list[list] = [[None] * size for _ in range(size)]
    for i, a in enumerate(basis):
        row = rows[i]
        for j in range(i, size):
            total = tuple(map(add, a, basis[j]))
            value = values.get(total)
            if value is None:
                value = values[total] = _shifted_moment(functional, terms, total)
            row[j] = rows[j][i] = value
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
    return _fractions_of_upper(*_bareiss_inverse_nums(entries))


def _bareiss_upper(entries: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], int]:
    """Bareiss fraction-free elimination of a symmetric rational matrix.

    Returns ``(U, scale)``: ``A_int = scale * A`` eliminated in place, whose
    upper triangle holds the pivots -- the leading principal minors of
    ``A_int`` -- on its diagonal.  Raises ``NotPositiveDefiniteError`` at the
    first pivot that is not positive.
    """
    m = len(entries)
    if any(len(row) != m for row in entries):
        raise ValueError("matrix must be square")
    scale = math.lcm(*(value.denominator for row in entries for value in row))
    a = [[value.numerator * (scale // value.denominator) for value in row] for row in entries]
    if any(a[i][j] != a[j][i] for i in range(m) for j in range(i)):
        raise ValueError("matrix must be symmetric")
    # The trailing block stays symmetric, so only entries on and above the
    # diagonal are updated.
    prev = 1
    for k in range(m):
        pivot_row = a[k]
        pivot = pivot_row[k]
        if pivot <= 0:
            raise NotPositiveDefiniteError(k + 1, Fraction(pivot, scale ** (k + 1)))
        for i in range(k + 1, m):
            row = a[i]
            factor = pivot_row[i]
            for j in range(i, m):
                q, r = divmod(pivot * row[j] - factor * pivot_row[j], prev)
                if r:
                    raise AssertionError("Bareiss division was not exact")
                row[j] = q
        prev = pivot
    return a, scale


def is_positive_definite(entries: Sequence[Sequence[Fraction]]) -> bool:
    """Whether a symmetric rational matrix is positive definite, by the
    elimination of ``invert_symmetric_rational`` without its back-substitution."""
    try:
        _bareiss_upper(entries)
    except NotPositiveDefiniteError:
        return False
    return True


def _bareiss_inverse_nums(entries: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], int]:
    """The integer core of ``invert_symmetric_rational``: ``(Y, det)`` with
    ``A^{-1} = Y / det``, ``Y`` as its upper triangle ``Y[i][j - i]``."""
    if not entries:
        return [], 1
    a, scale = _bareiss_upper(entries)
    m = len(a)
    det = a[-1][-1]
    # Bareiss on [A_int | scale*I]: back-substitution reads only the diagonal
    # of the right block, whose row-k entry is scale times the pivot before k.
    rhs = [scale * (a[k - 1][k - 1] if k else 1) for k in range(m)]
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
            "inverted dim=%d method=bareiss det_bits=%d entry_bits_max=%d",
            m,
            det.bit_length(),
            max(value.bit_length() for row in y for value in row),
        )
    return [row[i:] for i, row in enumerate(y)], det


def _lowest(nums: list[int], den: int) -> tuple[list[int], int]:
    """``nums / den`` with the common factor removed by one gcd."""
    g = math.gcd(den, *nums)
    if g != 1:
        nums = [v // g for v in nums]
        den //= g
    return nums, den


def _reduced(num: int, den: int) -> Ratio:
    """``num / den`` in lowest terms, for ``den > 0``."""
    g = math.gcd(num, den)
    return (num // g, den // g) if g != 1 else (num, den)


def _three_term(x: list[int], y: list[int], x_den: int, alpha: Ratio,
                z: list[int], z_den: int, beta: Ratio) -> tuple[list[int], int]:
    """Numerators and denominator of ``x - alpha*y - beta*z``, in lowest terms.

    ``x`` and ``y`` are numerators over ``x_den`` and ``z`` over ``z_den``;
    the lists are read position by position up to the shortest.
    """
    an, ad = alpha
    bn, bd = beta
    den = math.lcm(x_den * ad, z_den * bd)
    c1 = den // x_den
    c2 = an * (den // (x_den * ad))
    c3 = bn * (den // (z_den * bd))
    return _lowest([c1 * a - c2 * b - c3 * c for a, b, c in zip(x, y, z)], den)


def invert_hankel(moments: Sequence[Fraction]) -> RationalMatrix:
    """Exact inverse of the Hankel matrix ``[mu_{i+j}]`` of ``mu_0 .. mu_{2n}``.

    Runs the Chebyshev algorithm on the moments.  Row k holds
    ``sigma_{k,l} = L(p_k x^l)`` for ``l = k .. 2n-k`` as integer numerators
    over one denominator, and the norms ``h_k = sigma_{k,k}`` and recurrence
    coefficients ``alpha_k``, ``beta_k = h_k / h_{k-1}`` are read off it.  The
    monic orthogonal ``p_{k+1} = (x - alpha_k) p_k - beta_k p_{k-1}`` are
    stored the same way, and ``Y = L * sum_k p_k p_k^T / h_k``, with ``L``
    the lcm of the weight denominators, is summed in integers, upper
    triangle only; each entry becomes one ``Fraction(Y_ij, L)``.  The
    leading principal minor of order ``k+1`` is ``h_0 ... h_k``;
    ``NotPositiveDefiniteError`` names the first one that is not positive.
    """
    return _fractions_of_upper(*_hankel_inverse_nums(moments))


def _hankel_inverse_nums(moments: Sequence[Fraction]) -> tuple[list[list[int]], int]:
    """The integer core of ``invert_hankel``: ``(Y, L)`` with ``M^{-1} = Y / L``.

    ``Y`` is returned as its upper triangle, ``Y[i][j - i]`` for ``j >= i``.
    """
    if len(moments) % 2 == 0:
        raise ValueError("a Hankel matrix needs an odd number of moments")
    polys, norms = _chebyshev_algorithm(moments)
    return _inverse_nums(polys, norms, len(polys), "recurrence")


def _chebyshev_algorithm(moments: Sequence[Fraction]) -> tuple[list[tuple[list[int], int]], list[Ratio]]:
    """Monic orthogonal ``p_0 .. p_n`` and norms ``h_k`` from ``mu_0 .. mu_2n``.

    Each ``p_k`` is ``(nums, den)``: integer numerators of 1, x, .., x^k over
    one denominator.  Each ``h_k``, like the recurrence coefficients, is a
    reduced ``(numerator, denominator)`` pair.  ``NotPositiveDefiniteError``
    names the first leading principal minor ``h_0 ... h_k`` that is not
    positive.
    """
    n = len(moments) // 2
    mu_den = math.lcm(*(mu.denominator for mu in moments))
    # sigma_k (s over s_den) and sigma_{k-1}, starting from sigma_{-1} = 0;
    # p_k (p over p_den) and p_{k-1}, starting from p_{-1} = 0.
    s, s_den = _lowest([mu.numerator * (mu_den // mu.denominator) for mu in moments], mu_den)
    s_prev, s_prev_den = [0] * len(s), 1
    p, p_den = [1], 1
    p_prev, p_prev_den = [0], 1
    norms: list[Ratio] = []
    polys: list[tuple[list[int], int]] = []
    beta = (0, 1)
    for k in range(n + 1):
        h = _reduced(s[0], s_den)
        if h[0] <= 0:
            minor = Fraction(math.prod(v for v, _ in norms) * h[0],
                             math.prod(d for _, d in norms) * h[1])
            raise NotPositiveDefiniteError(k + 1, minor)
        if norms:
            beta = _reduced(h[0] * norms[-1][1], h[1] * norms[-1][0])
        norms.append(h)
        polys.append((p, p_den))
        if k == n:
            break
        # alpha_k = sigma_{k,k+1} / sigma_{k,k} - sigma_{k-1,k} / sigma_{k-1,k-1}.
        if k:
            alpha = _reduced(s[1] * s_prev[0] - s_prev[1] * s[0], s[0] * s_prev[0])
        else:
            alpha = _reduced(s[1], s[0])
        s_prev, s_prev_den, (s, s_den) = s, s_den, _three_term(
            s[2:], s[1:], s_den, alpha, s_prev[2:], s_prev_den, beta)
        p_prev, p_prev_den, (p, p_den) = p, p_den, _three_term(
            [0] + p, p + [0], p_den, alpha, p_prev + [0, 0], p_prev_den, beta)
    return polys, norms


def _inverse_nums(polys: Sequence[tuple[list[int], int]], norms: Sequence[Ratio], m: int,
                  method: str) -> tuple[list[list[int]], int]:
    """``(Y, L)`` with ``Y / L = sum_k c_k c_k^T / h_k``, upper triangle only.

    ``c_k`` is ``polys[k] = (nums, e)``, integer numerators over ``e`` of the
    first ``len(nums)`` of the ``m`` basis monomials, and ``h_k > 0`` is
    ``norms[k]``; ``L`` is the lcm of the weights ``1 / (h_k e^2)`` in lowest
    terms.  Logs one DEBUG record naming ``method``.
    """
    # c_k = nums / e, so nums nums^T enters with weight 1 / (h_k * e^2).
    weights = [_reduced(hd, hn * e * e) for (hn, hd), (_, e) in zip(norms, polys)]
    den = math.lcm(*(wd for _, wd in weights))
    y = [[0] * (m - i) for i in range(m)]  # y[i][j - i] for j >= i
    for (nums, _), (wn, wd) in zip(polys, weights):
        c = wn * (den // wd)
        top = len(nums)
        for i in range(top):
            ci = c * nums[i]
            if ci:
                row = y[i]
                row[: top - i] = [a + ci * b for a, b in zip(row, nums[i:])]
    if logger.isEnabledFor(logging.DEBUG):
        logger.debug(
            "inverted dim=%d method=%s den_bits=%d num_bits_max=%d",
            m,
            method,
            den.bit_length(),
            max(value.bit_length() for row in y for value in row),
        )
    return y, den


@functools.lru_cache(maxsize=128)
def _beta_recurrence(a: Fraction, b: Fraction, n: int) -> tuple[list[tuple[list[int], int]], list[Ratio]]:
    """``_chebyshev_algorithm`` of the Beta(a, b) probability measure on [0, 1].

    Its moments are ``(a)_k / (a+b)_k``.  The tables are shared between
    calls and must not be mutated.
    """
    moments = [Fraction(1)]
    for k in range(2 * n):
        moments.append(moments[-1] * (a + k) / (a + b + k))
    return _chebyshev_algorithm(moments)


def _dirichlet_basis(kappa: tuple[Fraction, ...], n: int) -> list[tuple[dict[Exponent, int], int, int, Ratio]]:
    """A mutually orthogonal basis of degree <= n for Dirichlet(kappa) on T^d.

    d = len(kappa) - 1.  Each entry is ``(nums, den, degree, norm)``: integer
    numerators over ``den`` keyed by exponents of length d, and the norm
    ``E[P^2]`` under the probability measure, a ``Ratio`` not necessarily in
    lowest terms.  With x = (x_1, x') and ``Q_beta`` this basis for
    ``kappa' = kappa[1:]`` on T^(d-1), of degree m,

        P_{j,beta}(x) = p_j(x_1) (1 - x_1)^m Q_beta(x' / (1 - x_1)),

    where ``p_j`` is monic orthogonal for Beta(kappa_1, |kappa'| + 2m), with
    norm ``g_j (|kappa'|)_2m / (|kappa|)_2m h_beta`` (Dunkl and Xu,
    *Orthogonal Polynomials of Several Variables*, 2nd ed., 2014, section
    5.3): x_1 is Beta(kappa_1, |kappa'|) and x' / (1 - x_1) is an
    independent Dirichlet(kappa').
    """
    if len(kappa) == 1:
        return [({(): 1}, 1, 0, (1, 1))]
    a, rest = kappa[0], kappa[1:]
    b = sum(rest)
    bn, bd = b.numerator, b.denominator
    cn, cd = (a + b).numerator, (a + b).denominator
    out = []
    by_degree: dict[int, tuple] = {}
    for q, q_den, m, q_norm in _dirichlet_basis(rest, n):
        if m not in by_degree:
            polys, norms = _beta_recurrence(a, b + 2 * m, n - m)
            # (b)_2m / (a+b)_2m, each rising factorial one integer product.
            rn = math.prod(bn + i * bd for i in range(2 * m)) * cd ** (2 * m)
            rd = math.prod(cn + i * cd for i in range(2 * m)) * bd ** (2 * m)
            rn, rd = _reduced(rn, rd)
            # shifted[j][s]: numerators of p_j(t) (1 - t)^s over p_j's denominator.
            shifted = []
            for nums, _ in polys:
                row = [nums]
                for _ in range(m):
                    row.append([c - prev for c, prev in zip(row[-1] + [0], [0] + row[-1])])
                shifted.append(row)
            by_degree[m] = polys, [(gn * rn, gd * rd) for gn, gd in norms], shifted
        polys, norms, shifted = by_degree[m]
        terms = [(gamma, c, m - sum(gamma)) for gamma, c in q.items()]
        for j, ((_, p_den), (gn, gd)) in enumerate(zip(polys, norms)):
            products = shifted[j]
            nums = {}
            for gamma, c, s in terms:
                for i, v in enumerate(products[s]):
                    if v:
                        nums[(i,) + gamma] = c * v
            den = q_den * p_den
            g = math.gcd(den, *nums.values())
            if g != 1:
                nums = {e: v // g for e, v in nums.items()}
                den //= g
            out.append((nums, den, j + m, (gn * q_norm[0], gd * q_norm[1])))
    return out


def _dirichlet_form(measure: MeasureId, n: int, shift: Optional[AnyPoly],
                    kappa: tuple[Fraction, ...], mass: Fraction) -> ChristoffelForm:
    """The Christoffel form of ``mass * Dirichlet(kappa)`` from ``_dirichlet_basis``."""
    basis = monomials_upto(measure.dimension, n)
    index = {e: i for i, e in enumerate(basis)}
    polys, norms = [], []
    for nums, den, _, (hn, hd) in _dirichlet_basis(kappa, n):
        dense = [0] * (max(index[e] for e in nums) + 1)
        for e, c in nums.items():
            dense[index[e]] = c
        polys.append((dense, den))
        norms.append((hn * mass.numerator, hd * mass.denominator))
    y, den = _inverse_nums(polys, norms, len(basis), "dirichlet")
    return _christoffel_form(measure, n, shift, y, den)


def _christoffel_form(measure: MeasureId, n: int, shift: Optional[AnyPoly],
                      y: list[list[int]], den: int) -> ChristoffelForm:
    """The form of degree n whose inverse moment matrix is the upper triangle
    ``y[i][j - i] / den`` over ``monomials_upto(measure.dimension, n)``,
    which it keeps in lowest terms."""
    basis = monomials_upto(measure.dimension, n)
    g = math.gcd(den, *itertools.chain.from_iterable(y))
    upper = tuple(tuple(v // g for v in row) for row in y) if g != 1 else tuple(map(tuple, y))
    return ChristoffelForm(
        measure=measure,
        degree=n,
        inverse_upper=upper,
        inverse_den=den // g,
        quadratic_form_poly=_form_poly(basis, upper, den // g, measure.dimension),
        shift=shift,
    )


def _fractions_of_upper(y: Sequence[Sequence[int]], den: int) -> RationalMatrix:
    """The symmetric matrix with entries ``y[i][j - i] / den`` for j >= i."""
    m = len(y)
    inverse = [[Fraction(0)] * m for _ in range(m)]
    for i, row in enumerate(y):
        for j, value in enumerate(row, i):
            inverse[i][j] = inverse[j][i] = Fraction(value, den)
    return tuple(tuple(row) for row in inverse)


def invert_exact(matrix: MomentMatrix) -> RationalMatrix:
    """Exact inverse of a built moment matrix, of any dimension, by Bareiss
    elimination; M * M^{-1} is the identity exactly."""
    return invert_symmetric_rational(matrix.entries)


def _form_poly(basis: tuple[Exponent, ...], y: Sequence[Sequence[int]], den: int, dim: int) -> AnyPoly:
    """sum_ij (Y_ij / den) x^(a_i + a_j) for the upper triangle ``y[i][j - i]``.

    Sums the numerators by exponent in integers; each off-diagonal pair
    enters once, doubled.  Exponents are packed into integers in a base
    above every exponent of a sum, so that ``a_i + a_j`` is one integer
    addition.
    """
    base = 2 * max(map(max, basis)) + 1
    codes = []
    for a in basis:
        code = 0
        for e in reversed(a):
            code = code * base + e
        codes.append(code)
    sums: dict[int, int] = {}
    get = sums.get
    for i, (ci, row) in enumerate(zip(codes, y)):
        k = ci + ci
        sums[k] = get(k, 0) + row[0]
        for cj, value in zip(codes[i + 1 :], row[1:]):
            k = ci + cj
            sums[k] = get(k, 0) + 2 * value
    nums: dict[Exponent, int] = {}
    for code, value in sums.items():
        e = []
        for _ in range(dim):
            code, r = divmod(code, base)
            e.append(r)
        nums[tuple(e)] = value
    return poly_from_sparse_nums(dim, nums, den)


def christoffel_form_of_matrix(matrix: MomentMatrix) -> ChristoffelForm:
    """Reciprocal Christoffel function v_n(x)^T M^{-1} v_n(x) of a built
    matrix, inverted by Bareiss elimination."""
    return _christoffel_form(matrix.measure, matrix.degree, matrix.shift,
                             *_bareiss_inverse_nums(matrix.entries))


def christoffel_form(measure: MeasureId, n: int, shift: Optional[AnyPoly] = None) -> ChristoffelForm:
    """Reciprocal Christoffel function of degree n of ``shift * measure``.

    The one place that picks an inversion: a Dirichlet measure or ``x_S``
    shift (``measures.dirichlet_parameters``) is summed from its orthogonal
    basis; any other univariate input runs the Chebyshev algorithm on its
    2n+1 shifted moments ``L(shift x^k)`` and builds no matrix; anything
    else is filled by ``moment_matrix`` and inverted by Bareiss elimination.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    parameters = dirichlet_parameters(measure, shift)
    if parameters is not None:
        return _dirichlet_form(measure, n, shift, *parameters)
    if measure.dimension == 1:
        functional = functional_for(measure)
        terms = _shift_terms(shift, 1)
        moments = [_shifted_moment(functional, terms, (k,)) for k in range(2 * n + 1)]
        return _christoffel_form(measure, n, shift, *_hankel_inverse_nums(moments))
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
