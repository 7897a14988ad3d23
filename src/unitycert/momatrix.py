"""Moment and localizing matrices with exact rational inversion.

Matrices are indexed by the graded lexicographic monomial basis of degree
<= n.  A form comes from its measure; a built matrix goes to Bareiss.

* ``christoffel_form`` reads the measure alone: every measure it takes has
  explicit orthogonal polynomials, and no moment is computed.  A Dirichlet
  measure (``measures.dirichlet``, in any dimension: ``LEBESGUE01`` on
  [0,1], the uniform and equilibrium simplex measures, and their
  localizations ``measures.localized`` by generator powers g^alpha among
  them) has an explicit orthogonal basis (Dunkl and Xu, *Orthogonal
  Polynomials of Several Variables*, 2nd ed., 2014, section 5.3): products
  of univariate Beta orthogonal polynomials with closed-form norms.  For
  d = 1 that basis is the monic Beta polynomials themselves.  ``ARCSINE``
  and ``ARCSINE_G`` have the Chebyshev polynomials: the monic ``p_k = T_k /
  2^(k-1)`` (k >= 1, ``p_0 = 1``) with norms ``h_k = 2^(1-2k)`` (``h_0 =
  1``), and ``p_k = U_k / 2^k`` with ``h_k = 2^(-2k-1)``, each written from
  ``polycore.cheb``'s integer coefficients.
* Every built ``MomentMatrix``, of any dimension -- a localizing matrix
  ``moment_matrix(mu, n, g)`` for any polynomial g among them -- given to
  ``invert_exact`` or ``christoffel_form_of_matrix`` goes to fraction-free
  Bareiss elimination on an integer-scaled copy (Bareiss, Math. Comp.
  1968), then back-substitution to ``det * A^{-1}``, which is an integer
  matrix; every division is checked exact.  The Bareiss pivots are the
  leading principal minors; the tests use this route as the oracle for the
  orthogonal polynomials.

``invert_hankel`` inverts a Hankel matrix from its moment sequence
``mu_0 .. mu_2n`` with no matrix built: the Chebyshev algorithm (Gautschi,
*Orthogonal Polynomials: Computation and Approximation*, 2004, section
2.1.7) gives the recurrence coefficients and the norms of the monic
orthogonal polynomials ``p_k``, and the three-term recurrence builds the
``p_k``.  The coefficients and norms are reduced integer ``(numerator,
denominator)`` pairs, so the algorithm builds no ``Fraction``; the leading
principal minor of order ``k+1`` is ``h_0 ... h_k``, which doubles as the
positive definiteness check.  The algorithm serves only ``invert_hankel``
and the cached Beta tables of the Dirichlet forms.

With ``h_k = L(p_k^2)`` the norm of the orthogonal ``p_k``, ``M^{-1}`` is
the coefficient matrix of the kernel ``K_n(x, y) = sum_k p_k(x) p_k(y) / h_k``.
Every univariate kernel (``invert_hankel``, the arcsine forms, and the
Dirichlet forms for d = 1) is built by the Christoffel-Darboux formula
(Szego, *Orthogonal Polynomials*, 1939, Theorem 3.2.2): with
``p~ = x p_n - beta_n p_{n-1}`` and ``beta_n = h_n / h_{n-1}``,

    (x - y) K_n(x, y) = (p~(x) p_n(y) - p_n(x) p~(y)) / h_n.

The recurrence coefficient ``alpha_n`` of ``p_{n+1}`` cancels, so no moment
past ``mu_2n`` is needed, and matching the coefficients of ``x^i y^j``
gives each row of the kernel from the row before, from ``p_n`` and
``p_{n-1}`` alone: about ``m^2`` integer products for dimension m.  The
product basis of the Dirichlet forms in d >= 2 has no three-term
recurrence, so ``M^{-1} = sum_k c_k c_k^T / h_k`` is summed from it, with
``c_k`` the monomial coefficients of the k-th basis polynomial: about
``m^3 / 6`` integer products.  Every inversion hands back the upper
triangle of ``L * M^{-1}`` in integers over one denominator ``L`` (``det``
for Bareiss).  A ``ChristoffelForm`` keeps that triangle in lowest terms
and sums the quadratic form from it -- the reciprocal Christoffel function
as an explicit polynomial, for d = 1 the anti-diagonal sums of the
triangle -- and builds the ``Fraction`` matrix ``inverse`` only when it is
read.

``christoffel_polynomial`` gives the same polynomial with no inverse built,
and the identity verifiers take it: they never build an inverse moment
matrix.  A univariate measure sums the anti-diagonals of its
Christoffel-Darboux kernel.  For ``mass * Dirichlet(kappa)`` with ``kappa =
(a, kappa')``, ``b = |kappa'|``, ``x = (x_1, x')`` and ``u = x' / (1 -
x_1)``, the product basis (Dunkl and Xu 2014, section 5.3) gives

    K_n^kappa(x) = (1/mass) sum_{m=0..n} [(a+b)_2m / (b)_2m]
                   D_{n-m}^{(a, b+2m)}(x_1) (1 - x_1)^2m Pi_m^{kappa'}(u),

with ``D_N^{(a,b)}`` the degree-N Christoffel polynomial of Beta(a, b),
from its Christoffel-Darboux kernel, and ``Pi_m^{kappa'} = K_m^{kappa'} -
K_{m-1}^{kappa'}`` the exact-degree-m piece, by the same sum with the
squares ``p_j^2 / h_j`` of the Beta polynomials in place of ``D`` (for a
2-entry ``kappa'`` just ``p_m(u)^2 / h_m``).  ``(1 - x_1)^2m Pi_m(u)`` is a
polynomial, and ``D (1 - x_1)^(2m-s)`` is built one factor ``1 - x_1`` at a
time: about ``n^3`` integer products for d = 2, against ``m^3 / 6`` with
``m = C(n+2, 2)`` for the inverse.

With ``logging`` at DEBUG, each inversion logs one record with its
dimension and method: for Bareiss the bit lengths of ``det`` and of the
largest entry of ``det * A^{-1}``, for ``recurrence`` (``invert_hankel`` and
the closed-form Chebyshev forms) and ``dirichlet`` those of the common
denominator ``L`` and of the largest entry of ``L * M^{-1}`` (in lowest terms
on the Christoffel-Darboux route).  Each ``christoffel_polynomial`` logs one
record, ``christoffel polynomial``, with the dimension, the method
(``product`` or ``recurrence``) and the bit lengths of the polynomial's
denominator and largest numerator; the kernels it sums log none.
Bareiss time grows with its intermediates, roughly cubically in the matrix
dimension times their bit length: arcsine n=48 logs ``det_bits=2303
entry_bits_max=2419``.  At arcsine n=48 and 96, arcsine-g n=20 and
lebesgue01 n=24 the orthogonal route's denominator is 1 and its widest
integer is the widest inverse entry (117 bits at arcsine n=48).
Simplex-uniform d=2 n=8 logs ``den_bits=1 num_bits_max=48`` on the
Dirichlet path and ``det_bits=395 entry_bits_max=442`` through Bareiss.
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

from .measures import ARCSINE, ARCSINE_G, MeasureId, functional_for
from .polycore import (AnyPoly, ChebKind, Exponent, cheb, monomials_upto, poly_eval,
                       poly_from_sparse_nums)

RationalMatrix = tuple[tuple[Fraction, ...], ...]
Ratio = tuple[int, int]  # (numerator, denominator), denominator > 0

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


def moment_matrix(measure: MeasureId, n: int, shift: Optional[AnyPoly] = None) -> MomentMatrix:
    """Moment matrix of degree n; with a shift g it is the localizing matrix.

    Entry (a, b) is the moment of g * x^(a+b).
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    functional = functional_for(measure)
    dim = measure.dimension
    basis = monomials_upto(dim, n)
    add = operator.add
    moment = functional.moment
    if shift is not None:
        if shift.dimension != dim:
            raise ValueError("shift polynomial dimension does not match the measure")
        terms = list(shift.terms.items())

        def moment(e: Exponent) -> Fraction:
            return sum((c * functional.moment(tuple(map(add, e, gamma))) for gamma, c in terms),
                       Fraction(0))

    # One moment sum per distinct exponent a+b, shared by every entry that has it.
    values: dict[Exponent, Fraction] = {}
    size = len(basis)
    rows: list[list] = [[None] * size for _ in range(size)]
    for i, a in enumerate(basis):
        row = rows[i]
        for j in range(i, size):
            total = tuple(map(add, a, basis[j]))
            value = values.get(total)
            if value is None:
                value = values[total] = moment(total)
            row[j] = rows[j][i] = value
    entries = tuple(tuple(row) for row in rows)
    return MomentMatrix(measure=measure, degree=n, basis=basis, entries=entries, shift=shift)


def invert_symmetric_rational(entries: Sequence[Sequence[Fraction]]) -> RationalMatrix:
    """Exact inverse of a symmetric positive definite rational matrix.

    Entries are ``int`` or ``Fraction`` (any value with integer ``numerator``
    and ``denominator``); a float or string raises ``TypeError``, a
    non-square or non-symmetric matrix ``ValueError``.  Scales to integers, runs Bareiss fraction-free
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
    flat, scale = _scaled([value for row in entries for value in row])
    a = [flat[i : i + m] for i in range(0, m * m, m)]
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


def _scaled(values: Sequence) -> tuple[list[int], int]:
    """Integer numerators of exact rationals over the lcm of their denominators.

    Each value is an ``int`` or ``Fraction`` (any value with integer
    ``numerator`` and ``denominator``); a float, a string or any other value
    raises the exact layer's ``TypeError``.
    """
    try:
        scale = math.lcm(*(value.denominator for value in values))
        return [value.numerator * (scale // value.denominator) for value in values], scale
    except AttributeError:
        bad = next(value for value in values if not hasattr(value, "denominator"))
    if isinstance(bad, float):
        raise TypeError("exact layer does not accept floats")
    raise TypeError(f"exact layer does not accept {type(bad).__name__} values")


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
    stored the same way, and ``Y = L * sum_k p_k p_k^T / h_k``, upper
    triangle only over its lowest denominator ``L``, is built from ``p_n``
    and ``p_{n-1}`` by the Christoffel-Darboux formula (``_kernel_nums``);
    each entry becomes one ``Fraction(Y_ij, L)``.  Entries are ``int`` or
    ``Fraction``; a float or string raises ``TypeError``.  The leading
    principal minor of order ``k+1`` is ``h_0 ... h_k``;
    ``NotPositiveDefiniteError`` names the first one that is not positive.
    """
    return _fractions_of_upper(*_hankel_inverse_nums(moments))


def _hankel_inverse_nums(moments: Sequence[Fraction]) -> tuple[list[list[int]], int]:
    """The integer core of ``invert_hankel``: ``(Y, L)`` with ``M^{-1} = Y / L``.

    ``Y`` is returned as its upper triangle, ``Y[i][j - i]`` for ``j >= i``.
    """
    if len(moments) % 2 == 0:
        raise ValueError("a Hankel matrix needs an odd number of moments")
    y, den = _kernel_nums(*_chebyshev_algorithm(moments))
    _log_inverse(len(y), "recurrence", y, den)
    return y, den


def _chebyshev_algorithm(moments: Sequence[Fraction]) -> tuple[list[tuple[list[int], int]], list[Ratio]]:
    """Monic orthogonal ``p_0 .. p_n`` and norms ``h_k`` from ``mu_0 .. mu_2n``.

    Each ``p_k`` is ``(nums, den)``: integer numerators of 1, x, .., x^k over
    one denominator.  Each ``h_k``, like the recurrence coefficients, is a
    reduced ``(numerator, denominator)`` pair.  ``NotPositiveDefiniteError``
    names the first leading principal minor ``h_0 ... h_k`` that is not
    positive.
    """
    n = len(moments) // 2
    # sigma_k (s over s_den) and sigma_{k-1}, starting from sigma_{-1} = 0;
    # p_k (p over p_den) and p_{k-1}, starting from p_{-1} = 0.
    s, s_den = _lowest(*_scaled(moments))
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


def _kernel_nums(polys: Sequence[tuple[list[int], int]],
                 norms: Sequence[Ratio]) -> tuple[list[list[int]], int]:
    """``(Y, L)`` with ``Y / L = sum_k p_k p_k^T / h_k``, upper triangle only,
    in lowest terms, by the Christoffel-Darboux formula.

    ``polys`` are monic orthogonal ``p_0 .. p_n`` as ``(nums, den)`` pairs
    and ``norms`` their norms ``h_k > 0``; only the last two of each are
    read.  With ``p~ = x p_n - beta_n p_{n-1}`` and ``beta_n = h_n / h_{n-1}``
    (Szego, *Orthogonal Polynomials*, 1939, Theorem 3.2.2),

        (x - y) K_n(x, y) = (p~(x) p_n(y) - p_n(x) p~(y)) / h_n,

    so ``alpha_n`` cancels and no moment past ``mu_2n`` is needed.  In
    integers ``N = a b^T - b a^T``, for the numerators ``a`` of ``p~``
    and ``b`` of ``p_n``, and matching coefficients gives
    ``K[i][j] = N[i+1][j] + K[i+1][j-1]``: row 0 is column 0, ``N[j+1][0]``,
    and the upper part of row i+1 is that of row i shifted left by one, less
    ``N[i+1]``.  Each entry costs two products, ``m^2 / 2`` entries in all.
    Logs nothing: an inversion logs its own record, and the kernel factors of
    ``christoffel_polynomial`` none.
    """
    b, b_den = polys[-1]
    n = len(b) - 1
    hn, hd = norms[-1]
    if n:
        c, c_den = polys[-2]
        gn, gd = norms[-2]
        beta = _reduced(hn * gd, hd * gn)
    else:
        c, c_den, beta = [0], 1, (0, 1)
    # New lists throughout: ``polys`` may be a shared ``_beta_recurrence`` table.
    b = b + [0]  # p_n to degree n+1, as p~
    # p~ = x p_n - 0 * p_n - beta_n p_{n-1}
    a, a_den = _three_term([0] + b, b, b_den, (0, 1), c + [0, 0], c_den, beta)
    # K = N hd / (a_den b_den hn): cancel hd against the denominator first,
    # so that the products stay as narrow as the result.
    den = a_den * b_den * hn
    g = math.gcd(hd, den)
    if hd != g:
        a = [hd // g * v for v in a]
    den //= g
    a0, b0 = a[0], b[0]
    row = [ai * b0 - bi * a0 for ai, bi in zip(a[1:], b[1:])]
    y = [row]
    for i in range(1, n + 1):
        ai, bi = a[i], b[i]
        row = [r - ai * bj + bi * aj for r, aj, bj in zip(row[2:] + [0], a[i + 1 :], b[i + 1 :])]
        y.append(row)
    g = math.gcd(den, *itertools.chain.from_iterable(y))
    if g != 1:
        y = [[v // g for v in row] for row in y]
        den //= g
    return y, den


def _antidiagonal_sums(y: Sequence[Sequence[int]]) -> list[int]:
    """The numerators of ``sum_ij Y_ij x^(i+j)`` for the upper triangle
    ``y[i][j - i]`` of a symmetric ``Y``: the coefficient of ``x^k`` is the
    sum along the k-th anti-diagonal, each off-diagonal entry twice."""
    m = len(y)
    sums = [0] * (2 * m - 1)
    for i, row in enumerate(y):
        # Row i holds Y[i][i..m-1], which lands on x^(2i) .. x^(m-1+i).
        sums[2 * i : m + i] = map(operator.add, sums[2 * i : m + i], row)
    nums = [v + v for v in sums]
    for i, row in enumerate(y):
        nums[2 * i] -= row[0]
    return nums


def _univariate_poly(y: Sequence[Sequence[int]], den: int) -> AnyPoly:
    """The polynomial ``sum_ij (Y_ij / den) x^(i+j)`` of an upper triangle."""
    return poly_from_sparse_nums(1, {(k,): v for k, v in enumerate(_antidiagonal_sums(y))}, den)


def _log_inverse(m: int, method: str, y: list[list[int]], den: int) -> None:
    """The DEBUG record of an orthogonal-basis inversion ``y / den``."""
    if logger.isEnabledFor(logging.DEBUG):
        logger.debug(
            "inverted dim=%d method=%s den_bits=%d num_bits_max=%d",
            m,
            method,
            den.bit_length(),
            max(value.bit_length() for row in y for value in row),
        )


def _inverse_nums(polys: Sequence[tuple[list[int], int]], norms: Sequence[Ratio],
                  m: int) -> tuple[list[list[int]], int]:
    """``(Y, L)`` with ``Y / L = sum_k c_k c_k^T / h_k``, upper triangle only.

    ``c_k`` is ``polys[k] = (nums, e)``, integer numerators over ``e`` of the
    first ``len(nums)`` of the ``m`` basis monomials, and ``h_k > 0`` is
    ``norms[k]``; ``L`` is the lcm of the weights ``1 / (h_k e^2)`` in lowest
    terms.  About ``m^3 / 6`` integer products: this is for the product
    basis of ``_dirichlet_basis`` in d >= 2, which has no three-term
    recurrence; univariate inputs take ``_kernel_nums``.  Logs one DEBUG
    record, ``method=dirichlet``.
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
    _log_inverse(m, "dirichlet", y, den)
    return y, den


@functools.lru_cache(maxsize=128)
def _beta_recurrence(a: Fraction, b: Fraction, n: int) -> tuple[list[tuple[list[int], int]], list[Ratio]]:
    """``_chebyshev_algorithm`` of the Beta(a, b) probability measure on [0, 1].

    Its moments are ``(a)_k / (a+b)_k``.  The tables are shared between
    calls and must not be mutated.  The moment list is sized first, so an n
    past any list raises ``OverflowError`` before the loop.
    """
    moments = [Fraction(1)] * (2 * n + 1)
    for k in range(2 * n):
        moments[k + 1] = moments[k] * (a + k) / (a + b + k)
    return _chebyshev_algorithm(moments)


def _rising_ratios(a: Fraction, b: Fraction, n: int) -> list[Ratio]:
    """``(a+b)_2m / (b)_2m`` for m = 0 .. n, in lowest terms: with b = bn / bd
    and a+b = cn / cd, step m multiplies in ``(a+b+i) / (b+i)`` for i = 2m-2
    and 2m-1, each ``(cn + i cd) bd / ((bn + i bd) cd)``."""
    bn, bd = b.numerator, b.denominator
    cn, cd = (a + b).numerator, (a + b).denominator
    ratios = [(1, 1)]
    for i in range(0, 2 * n, 2):
        rn, rd = ratios[-1]
        ratios.append(_reduced(rn * (cn + i * cd) * (cn + (i + 1) * cd) * bd * bd,
                               rd * (bn + i * bd) * (bn + (i + 1) * bd) * cd * cd))
    return ratios


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
    ratios = _rising_ratios(a, b, n)
    out = []
    by_degree: dict[int, tuple] = {}
    for q, q_den, m, q_norm in _dirichlet_basis(rest, n):
        if m not in by_degree:
            polys, norms = _beta_recurrence(a, b + 2 * m, n - m)
            rd, rn = ratios[m]  # (b)_2m / (a+b)_2m
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


_CHEBYSHEV_KINDS = {ARCSINE: ChebKind.FIRST, ARCSINE_G: ChebKind.SECOND}


def _chebyshev_pair(kind: ChebKind, n: int) -> tuple[list[tuple[list[int], int]], list[Ratio]]:
    """Monic orthogonal ``p_{n-1}, p_n`` (only ``p_0`` for n = 0) and their
    norms for the measure whose orthogonal polynomials are ``cheb(kind, k)``.

    ``T_k`` (k >= 1) and ``U_k`` lead with ``2^s``, s = k - 1 and k, so
    ``p_k = P_k / 2^s`` with numerators ``P_k`` over ``2^s``.  Each ``P_k``
    has the squared norm 1/2 (``T_0 = p_0`` has 1): ``h_k = 2^(-2s-1)``, that
    is ``2^(1-2k)`` for ``ARCSINE`` and ``2^(-2k-1)`` for ``ARCSINE_G``.
    """
    polys, norms = [], []
    for k in range(max(n - 1, 0), n + 1):
        s = k - 1 if kind is ChebKind.FIRST else k
        if s < 0:  # T_0
            polys.append(([1], 1))
            norms.append((1, 1))
        else:
            polys.append((list(cheb(kind, k).nums), 1 << s))
            norms.append((1, 1 << (2 * s + 1)))
    return polys, norms


def _univariate_pair(measure: MeasureId, n: int) -> tuple[list[tuple[list[int], int]], list[Ratio]]:
    """The monic orthogonal ``p_{n-1}, p_n`` (only ``p_0`` for n = 0) and
    their norms under a univariate measure, all ``_kernel_nums`` reads: from
    the Beta recurrence for ``mass * Dirichlet(a, b)``, its norms times the
    mass, and from ``_chebyshev_pair`` for the arcsine measures."""
    if not measure.kappa:
        return _chebyshev_pair(_CHEBYSHEV_KINDS[measure], n)
    polys, norms = _beta_recurrence(measure.kappa[0], measure.kappa[1], n)
    mass = measure.mass
    return polys[-2:], [(hn * mass.numerator, hd * mass.denominator) for hn, hd in norms[-2:]]


def _dirichlet_form(measure: MeasureId, n: int) -> ChristoffelForm:
    """The Christoffel form of ``mass * Dirichlet(kappa)`` in d >= 2, its
    inverse summed from ``_dirichlet_basis``."""
    basis = monomials_upto(measure.dimension, n)
    index = {e: i for i, e in enumerate(basis)}
    mass = measure.mass
    polys, norms = [], []
    for nums, den, _, (hn, hd) in _dirichlet_basis(measure.kappa, n):
        dense = [0] * (max(index[e] for e in nums) + 1)
        for e, c in nums.items():
            dense[index[e]] = c
        polys.append((dense, den))
        norms.append((hn * mass.numerator, hd * mass.denominator))
    y, den = _inverse_nums(polys, norms, len(basis))
    return _christoffel_form(measure, n, None, y, den)


def _squares(polys: Sequence[tuple[list[int], int]], norms: Sequence[Ratio]) -> list[tuple[list[int], int]]:
    """``p_j^2 / h_j`` for each orthogonal ``p_j = (nums, den)`` and its norm
    ``h_j``, as ``(nums, den)`` in lowest terms: the square's coefficients
    are the anti-diagonal sums of ``nums nums^T``."""
    out = []
    for (p, den), (hn, hd) in zip(polys, norms):
        square = _antidiagonal_sums([[c * v for v in p[i:]] for i, c in enumerate(p)])
        out.append(_lowest([v * hd for v in square], den * den * hn))
    return out


def _product_sum(ratios: Sequence[Ratio], factors: Sequence[tuple[list[int], int]],
                 pieces: Sequence[tuple[dict[Exponent, int], int]]) -> tuple[dict[Exponent, int], int]:
    """``sum_m r_m F_m(x_1) (1 - x_1)^2m Pi_m(x' / (1 - x_1))`` over the m of
    ``factors``.

    ``r_m = ratios[m]``; ``factors[m]`` is the univariate ``F_m`` as ``(nums,
    den)`` and ``pieces[m]`` is ``Pi_m``, of degree 2m in d - 1 variables, as
    sparse ``(nums, den)``.  A term ``c u^gamma`` of ``Pi_m`` contributes ``c
    x'^gamma F_m(x_1) (1 - x_1)^(2m - |gamma|)``, and ``F_m (1 - x_1)^t`` is
    built one factor ``1 - x_1`` at a time.  Returns sparse numerators in d
    variables over one denominator.
    """
    dens = [rd * f_den * p_den for (_, rd), (_, f_den), (_, p_den) in zip(ratios, factors, pieces)]
    den = math.lcm(*dens)
    # One dense row of x_1 numerators per gamma.  The contributions to it have
    # one length: F_m has degree 2(N - m), N = n for K_n and k for Pi_k, so
    # F_m (1 - x_1)^(2m - |gamma|) has degree 2N - |gamma| for every m.
    rows: dict[Exponent, list[int]] = {}
    for m, ((rn, _), dm, (f, _), (piece, _)) in enumerate(zip(ratios, dens, factors, pieces)):
        scale = rn * (den // dm)
        shifted = [f]  # shifted[t] = F_m (1 - x_1)^t
        for _ in range(2 * m):
            last = shifted[-1]
            shifted.append([c - prev for c, prev in zip(last + [0], [0] + last)])
        for gamma, c in piece.items():
            f_t = shifted[2 * m - sum(gamma)]
            c *= scale
            row = rows.get(gamma)
            rows[gamma] = [c * v for v in f_t] if row is None else [r + c * v for r, v in zip(row, f_t)]
    return {(i,) + gamma: v for gamma, row in rows.items() for i, v in enumerate(row) if v}, den


def _dirichlet_pieces(kappa: tuple[Fraction, ...], n: int) -> list[tuple[dict[Exponent, int], int]]:
    """``Pi_0 .. Pi_n`` of the Dirichlet(kappa) probability measure on T^d,
    d = len(kappa) - 1, as sparse ``(nums, den)`` keyed by exponents of length d.

    ``Pi_k = K_k - K_{k-1}`` is the sum of ``P^2 / E[P^2]`` over the
    orthogonal polynomials P of exact degree k, whatever the basis.  For
    d = 1 it is ``p_k^2 / h_k`` of Beta(kappa_1, kappa_2).  Otherwise, in the
    product basis of ``_dirichlet_basis``, it is the ``_product_sum`` of the
    squares ``p_{k-m}^2 / g_{k-m}`` of Beta(kappa_1, |kappa'| + 2m) and the
    ``Pi_m`` of ``kappa' = kappa[1:]``.
    """
    a, rest = kappa[0], kappa[1:]
    if len(rest) == 1:
        return [({(i,): v for i, v in enumerate(nums) if v}, den)
                for nums, den in _squares(*_beta_recurrence(a, rest[0], n))]
    b = sum(rest)
    lower = _dirichlet_pieces(rest, n)
    ratios = _rising_ratios(a, b, n)
    squares = [_squares(*_beta_recurrence(a, b + 2 * m, n - m)) for m in range(n + 1)]
    return [_product_sum(ratios, [squares[m][k - m] for m in range(k + 1)], lower)
            for k in range(n + 1)]


def _dirichlet_kernel(kappa: tuple[Fraction, ...], n: int) -> tuple[dict[Exponent, int], int]:
    """``K_n`` of the Dirichlet(kappa) probability measure in d >= 2 as
    sparse ``(nums, den)``: the ``_product_sum`` of the Christoffel
    polynomials ``D_{n-m}`` of Beta(kappa_1, |kappa'| + 2m), each the
    anti-diagonal sums of its Christoffel-Darboux kernel, and the ``Pi_m`` of
    ``kappa' = kappa[1:]``.  It reads the Beta tables ``_dirichlet_basis``
    reads, and no others."""
    a, rest = kappa[0], kappa[1:]
    b = sum(rest)
    factors = []
    for m in range(n + 1):
        y, den = _kernel_nums(*_beta_recurrence(a, b + 2 * m, n - m))
        factors.append((_antidiagonal_sums(y), den))
    return _product_sum(_rising_ratios(a, b, n), factors, _dirichlet_pieces(rest, n))


def _christoffel_form(measure: MeasureId, n: int, shift: Optional[AnyPoly],
                      y: list[list[int]], den: int) -> ChristoffelForm:
    """The form of degree n whose inverse moment matrix is the upper triangle
    ``y[i][j - i] / den`` over ``monomials_upto(measure.dimension, n)``,
    which it keeps in lowest terms."""
    dim = measure.dimension
    g = math.gcd(den, *itertools.chain.from_iterable(y))
    upper = tuple(tuple(v // g for v in row) for row in y) if g != 1 else tuple(map(tuple, y))
    den //= g
    return ChristoffelForm(
        measure=measure,
        degree=n,
        inverse_upper=upper,
        inverse_den=den,
        quadratic_form_poly=_univariate_poly(upper, den) if dim == 1
        else _form_poly(monomials_upto(dim, n), upper, den, dim),
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
    """sum_ij (Y_ij / den) x^(a_i + a_j) for the upper triangle ``y[i][j - i]``
    in d >= 2 variables; a univariate form is ``_antidiagonal_sums``.

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


def christoffel_form(measure: MeasureId, n: int) -> ChristoffelForm:
    """Reciprocal Christoffel function of degree n of a measure and its
    inverse moment matrix, from the measure's orthogonal polynomials.

    The route reads the measure alone, and no moment is computed: a
    Dirichlet measure (``measures.localized`` builds one for a generator
    power) goes to its orthogonal basis (for d = 1 the Beta recurrence), and
    ``ARCSINE`` and ``ARCSINE_G`` to their closed-form monic Chebyshev
    polynomials ``T_k / 2^(k-1)`` and ``U_k / 2^k``.  Every univariate kernel
    is assembled by Christoffel-Darboux.  The form of any other localization
    ``g * mu`` is ``christoffel_form_of_matrix(moment_matrix(mu, n, g))``.
    ``christoffel_polynomial`` gives the same polynomial with no inverse.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    if measure.dimension > 1:
        return _dirichlet_form(measure, n)
    y, den = _kernel_nums(*_univariate_pair(measure, n))
    _log_inverse(n + 1, "dirichlet" if measure.kappa else "recurrence", y, den)
    return _christoffel_form(measure, n, None, y, den)


def christoffel_polynomial(measure: MeasureId, n: int) -> AnyPoly:
    """Reciprocal Christoffel function of degree n of a measure, with no
    inverse moment matrix built: ``christoffel_form(measure, n)
    .quadratic_form_poly``, summed from the orthogonal polynomials.

    A univariate measure sums the anti-diagonals of its Christoffel-Darboux
    kernel.  ``mass * Dirichlet(kappa)`` in d >= 2 is ``1 / mass`` times the
    product formula of ``_dirichlet_kernel``.  Logs one DEBUG record: the
    dimension of the degree-n space, the method (``product`` for a Dirichlet
    measure, ``recurrence`` for the arcsine ones) and the bit lengths of the
    polynomial's denominator and largest numerator.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    dim = measure.dimension
    if dim == 1:
        poly = _univariate_poly(*_kernel_nums(*_univariate_pair(measure, n)))
    else:
        nums, den = _dirichlet_kernel(measure.kappa, n)
        mass = measure.mass
        if mass.denominator != 1:
            nums = {e: v * mass.denominator for e, v in nums.items()}
        poly = poly_from_sparse_nums(dim, nums, den * mass.numerator)
    if logger.isEnabledFor(logging.DEBUG):
        logger.debug(
            "christoffel polynomial dim=%d method=%s den_bits=%d num_bits_max=%d",
            math.comb(n + dim, dim),
            "product" if measure.kappa else "recurrence",
            poly.den.bit_length(),
            max(v.bit_length() for v in poly.sparse_nums.values()),
        )
    return poly


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
