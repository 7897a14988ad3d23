"""Dual Newton solvers for max-entropy positivity certificates.

Two certificate families are covered, both solved through their smooth convex
duals rather than the constrained primals:

* Handelman weights on [0,1] or the canonical simplex: maximize the sum of
  log-weights subject to reconstructing the target from the generator powers
  g^alpha.  The dual is D(lam) = <lam, p> - sum_a log <lam, m_a> over the
  open set where every pairing is positive; the KKT conditions give the
  weights back as reciprocals of the pairings.

* Putinar Gram pair (A, B) on [-1,1] with the fixed multiplier g = 1 - x^2:
  maximize log det A + log det B subject to v_n' A v_n + g v_{n-1}' B v_{n-1}
  equal to the target.  The dual minimizes <y, target> minus the log-dets of
  the moment and localizing matrices built from y; at the optimum A and B are
  their inverses.

Both solvers use damped Newton with backtracking (Armijo factor 1e-4, step
halving) and a hard domain guard: positivity of all pairings, or successful
Cholesky factorizations.  The iteration runs in extended precision
(``np.longdouble``); in plain double the monomial-basis Hessians are
ill-conditioned enough that the gradient noise floor sits above the default
tolerance near degree 8.  LAPACK has no extended-precision kernels, so the
dense kernels are written here as whole-array longdouble operations: the
elimination and the Cholesky factorization take one rank-1 or column update
per pivot, and the Hankel log-det gradient and Hessian are S vec(W) and
S (W kron W) S' for the 0/1 antidiagonal-sum matrix S, with the
(1 - x^2)-localizing part pulled back through a shift matrix G.

The exact checks of the Handelman family run in integers: generator powers
have integer coefficients, so residuals and pairings are integer sums over
one common denominator, with one ``Fraction`` per result.  With ``logging``
at DEBUG, each solve logs its family, degree, iteration count, stop reason
(tol, plateau, diverged, budget, line_search or singular) and exact residual.

The gradient of either dual is the coefficient residual of the primal
reconstruction.  Convergence is judged on the residual that actually matters:
the reconstruction residual of the *returned* double-precision certificate,
computed in exact rational arithmetic.

Non-convergence is a diagnostic, not a proof: a target on the cone boundary
(or outside) makes the dual unbounded and the iteration runs out of budget.

The dual vectors at the optima of the flagship targets are rational, so a
continued-fraction rationalization step can turn numeric convergence into an
exactly verified certificate.
"""

from __future__ import annotations

import logging
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from .momatrix import NotPositiveDefiniteError, RationalMatrix, invert_symmetric_rational
from .polycore import (
    AnyPoly,
    Exponent,
    MPoly,
    UPoly,
    monomials_upto,
    simplex_generator_power,
)

Number = Union[float, Fraction]

ARMIJO = 1e-4
MIN_STEP = 1e-20
DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 200
RATIONALIZE_DENOMINATOR_BOUND = 10**6
DIVERGENCE_BOUND = 1e8  # dual iterates past this norm indicate a boundary target
PLATEAU_LIMIT = 6  # consecutive non-improving steps once progress stops

_LD = np.longdouble
_EPS_LD = float(np.finfo(np.longdouble).eps)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SolverReport:
    iterations: int
    residual: float
    objective: float
    converged: bool
    steps: tuple[float, ...] = ()
    dual_values: tuple[float, ...] = ()

    def to_json(self) -> dict:
        return {
            "iterations": self.iterations,
            "residual": self.residual,
            "objective": self.objective,
            "converged": self.converged,
        }


@dataclass(frozen=True)
class DualFunctional:
    """Dual vector indexed by the graded-lex monomials of the working degree."""

    values: tuple[Number, ...]


@dataclass(frozen=True)
class HandelmanCertificate:
    """Positive combination of generator powers reconstructing the target.

    ``weights`` maps alpha in N^(d+1) with |alpha| <= degree to the
    coefficient of g^alpha; the univariate case d = 1 has generators
    x^i (1-x)^j with alpha = (i, j).
    """

    dimension: int
    degree: int
    weights: Mapping[Exponent, Number]
    target: Optional[AnyPoly] = None


@dataclass(frozen=True)
class PutinarCertificate:
    """Gram pair certifying target = v_n' A v_n + (1-x^2) v_{n-1}' B v_{n-1}."""

    degree: int
    gram_a: tuple[tuple[Number, ...], ...]
    gram_b: tuple[tuple[Number, ...], ...]
    target: Optional[UPoly] = None


class NoInteriorCertificateError(RuntimeError):
    """Solver diagnostic; does not certify that no certificate exists."""

    def __init__(self, message: str, report: SolverReport) -> None:
        super().__init__(message)
        self.report = report


# ---------------------------------------------------------------------------
# Extended-precision dense kernels
#
# One Python step per pivot, column or row; the work inside each step is a
# whole-array longdouble operation.  NumPy's longdouble dot and matmul sum
# sequentially from zero, so each entry sees the same operations in the same
# order as an element-by-element loop would.


def _ld_solve(matrix: np.ndarray, rhs: np.ndarray) -> Optional[np.ndarray]:
    """Gaussian elimination with partial pivoting in longdouble."""
    a = matrix.astype(_LD, copy=True)
    b = rhs.astype(_LD, copy=True)
    m = a.shape[0]
    for k in range(m):
        pivot = int(np.argmax(np.abs(a[k:, k]))) + k
        if a[pivot, k] == 0:
            return None
        if pivot != k:
            a[[k, pivot]] = a[[pivot, k]]
            b[[k, pivot]] = b[[pivot, k]]
        # Rank-1 update of the trailing block: one multiply-subtract per entry.
        factors = a[k + 1 :, k] / a[k, k]
        a[k + 1 :, k:] -= factors[:, None] * a[k, k:]
        b[k + 1 :] -= factors * b[k]
    x = np.zeros(m, dtype=_LD)
    for i in range(m - 1, -1, -1):
        x[i] = (b[i] - a[i, i + 1 :] @ x[i + 1 :]) / a[i, i]
    return x


def _ld_cholesky(matrix: np.ndarray) -> Optional[np.ndarray]:
    """Lower Cholesky factor in longdouble, or None if not positive definite."""
    m = matrix.shape[0]
    chol = np.zeros((m, m), dtype=_LD)
    for j in range(m):
        pivot = matrix[j, j] - chol[j, :j] @ chol[j, :j]
        if pivot <= 0:
            return None
        chol[j, j] = np.sqrt(pivot)
        chol[j + 1 :, j] = (matrix[j + 1 :, j] - chol[j + 1 :, :j] @ chol[j, :j]) / chol[j, j]
    return chol


def _ld_spd_inverse(matrix: np.ndarray) -> Optional[np.ndarray]:
    chol = _ld_cholesky(matrix)
    if chol is None:
        return None
    m = matrix.shape[0]
    # Invert the lower-triangular factor row by row, then A^{-1} = L^{-T} L^{-1}.
    inv_l = np.zeros((m, m), dtype=_LD)
    for i in range(m):
        inv_l[i, :i] = -(chol[i, :i] @ inv_l[:i, :i]) / chol[i, i]
        inv_l[i, i] = 1.0 / chol[i, i]
    return inv_l.T @ inv_l


def _ld_logdet_from_chol(chol: np.ndarray) -> np.longdouble:
    return 2.0 * np.log(np.diag(chol)).sum()


# ---------------------------------------------------------------------------
# Handelman family (shared engine for the interval and the simplex)


def _generator_table(d: int, n: int):
    """Generator exponents alpha, monomial basis, and integer coefficient rows.

    Every generator power x^beta (1 - sum x)^m has integer coefficients
    (denominator 1), so each row is a tuple of ints over the basis.
    """
    alphas = monomials_upto(d + 1, n)
    basis = monomials_upto(d, n)
    index = {e: i for i, e in enumerate(basis)}
    rows = []
    for alpha in alphas:
        g = simplex_generator_power(d, alpha)
        row = [0] * len(basis)
        for e, c in g.nums.items():
            row[index[e]] = c
        rows.append(tuple(row))
    return alphas, basis, rows


def _log_sum_dual_newton(
    target: np.ndarray,
    gens: np.ndarray,
    lam0: np.ndarray,
    tol: float,
    max_iter: int,
):
    """Minimize <lam, target> - sum log(gens @ lam) by damped Newton.

    Runs in longdouble; the gradient equals the coefficient residual of the
    primal reconstruction.  Stops when the gradient sup norm falls below
    tol/10 (margin for the final cast to double), when progress plateaus at
    machine resolution, when the iterates diverge (boundary target), or when
    the budget runs out; the stop reason is returned as one of the words
    ``tol plateau diverged budget line_search singular``.
    """
    target = target.astype(_LD)
    gens = gens.astype(_LD)
    lam = lam0.astype(_LD, copy=True)
    pair = gens @ lam
    if not np.all(pair > 0):
        raise ValueError("initial dual point is not strictly feasible")
    inner_tol = tol * 0.1

    def dual_value(pairings, point):
        return target @ point - np.log(pairings).sum()

    steps: list[float] = []
    history: list[float] = []
    iterations = 0
    stop = "budget"
    best = math.inf
    no_improve = 0
    for _ in range(max_iter):
        grad = target - gens.T @ (1.0 / pair)
        residual = float(np.max(np.abs(grad)))
        if residual <= inner_tol:
            stop = "tol"
            break
        if residual < 0.9 * best:
            best = residual
            no_improve = 0
        else:
            no_improve += 1
            if no_improve >= PLATEAU_LIMIT:
                stop = "plateau"
                break
        weight = 1.0 / pair**2
        hessian = gens.T @ (weight[:, None] * gens)
        delta = _ld_solve(hessian, -grad)
        if delta is None or not np.all(np.isfinite(delta)):
            stop = "singular"
            break
        current = dual_value(pair, lam)
        slope = grad @ delta
        # Near the optimum the predicted decrease drops below the resolution
        # of the objective itself; then the Armijo test is pure noise and the
        # full Newton step is the right move (domain guard still applies).
        flat = abs(float(slope)) <= 64.0 * _EPS_LD * max(1.0, abs(float(current)))
        step = _LD(1.0)
        accepted = False
        while step >= MIN_STEP:
            candidate = lam + step * delta
            cand_pair = gens @ candidate
            if np.all(cand_pair > 0):
                value = dual_value(cand_pair, candidate)
                if flat or value <= current + ARMIJO * step * slope:
                    accepted = True
                    break
            step = step / 2
        if not accepted:
            stop = "line_search"
            break
        lam = candidate
        pair = cand_pair
        iterations += 1
        steps.append(float(step))
        history.append(float(value))
        if float(np.max(np.abs(lam))) > DIVERGENCE_BOUND:
            stop = "diverged"
            break
    return lam, pair, iterations, tuple(steps), tuple(history), stop


def _target_doubles(coeffs: Iterable[Fraction]) -> np.ndarray:
    """Exact target coefficients as doubles; ValueError if one overflows."""
    try:
        return np.array([float(c) for c in coeffs])
    except OverflowError:
        raise ValueError("target coefficients must fit in a finite double") from None


def _log_solve(family: str, n: int, iterations: int, stop: str, residual: float) -> None:
    if logger.isEnabledFor(logging.DEBUG):
        logger.debug(
            "solve=%s n=%d iterations=%d stop=%s residual=%.3e",
            family, n, iterations, stop, residual,
        )


def _beta22_moments(count: int) -> np.ndarray:
    # Moments of the density 6x(1-x) on [0,1]: strictly feasible and distinct
    # from the Lebesgue optimum, so recovery runs are nontrivial.
    return np.array([6.0 / ((k + 2) * (k + 3)) for k in range(count)])


def _simplex_initial_moments(d: int, basis: Sequence[Exponent]) -> np.ndarray:
    # Moments of the Dirichlet(2, 1, ..., 1) distribution on the simplex.
    values = []
    for beta in basis:
        num = math.factorial(beta[0] + 1)
        for b in beta[1:]:
            num *= math.factorial(b)
        num *= math.factorial(d + 1)
        values.append(num / math.factorial(d + 1 + sum(beta)))
    return np.array(values)


def _common_numerators(values: Sequence[Number]) -> tuple[list[int], int]:
    """Integer numerators of exact values over the lcm of their denominators."""
    ratios = [v.as_integer_ratio() for v in values]
    den = math.lcm(*(q for _, q in ratios))
    return [p * (den // q) for p, q in ratios], den


def _exact_sup_residual(
    weights: Sequence[float],
    rows: Sequence[Sequence[int]],
    target: Sequence[Fraction],
) -> Fraction:
    """Exact sup-norm residual of sum_a w_a m_a against the target vector.

    The double weights are dyadic rationals; the sums run in integers over
    the lcm of their denominators and the target's.
    """
    nums, den = _common_numerators([*weights, *target])
    weight_nums, target_nums = nums[: len(weights)], nums[len(weights) :]
    residual = max(
        (abs(sum(map(operator.mul, weight_nums, column)) - t)
         for column, t in zip(zip(*rows), target_nums)),
        default=0,
    )
    return Fraction(residual, den)


def _solve_handelman_family(
    family: str,
    d: int,
    n: int,
    target_poly: AnyPoly,
    target_exact: Sequence[Fraction],
    lam0: np.ndarray,
    tol: float,
    max_iter: int,
):
    alphas, _, rows = _generator_table(d, n)
    gens = np.array(rows, dtype=float)
    target_vec = _target_doubles(target_exact)
    lam, pair, iterations, steps, history, stop = _log_sum_dual_newton(
        target_vec, gens, lam0, tol, max_iter
    )
    weight_values = [float(1.0 / p) for p in pair]
    residual = _exact_sup_residual(weight_values, rows, target_exact)
    objective = float(sum(math.log(w) for w in weight_values))
    report = SolverReport(
        iterations=iterations,
        residual=float(residual),
        objective=objective,
        converged=stop != "diverged" and residual <= tol,
        steps=steps,
        dual_values=history,
    )
    _log_solve(family, n, iterations, stop, report.residual)
    if not report.converged:
        raise NoInteriorCertificateError(
            f"no interior certificate found at degree {n}", report
        )
    weights = {alpha: w for alpha, w in zip(alphas, weight_values)}
    certificate = HandelmanCertificate(
        dimension=d, degree=n, weights=weights, target=target_poly
    )
    return certificate, DualFunctional(tuple(float(v) for v in lam)), report


def solve_handelman(
    p: UPoly,
    n: int,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    initial: Optional[Sequence[float]] = None,
):
    """Max-entropy Handelman certificate of p over the generators of [0,1].

    Solves sup { sum log c_ij : p = sum c_ij x^i (1-x)^j, (i, j) in N^2_n }
    through its dual.  Requires deg(p) <= n; converges when p lies in the
    interior of the cone (strictly positive on [0,1] up to degree slack).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if p.degree > n:
        raise ValueError(f"target degree {p.degree} exceeds n = {n}")
    target_exact = [p.coefficient(k) for k in range(n + 1)]
    lam0 = _beta22_moments(n + 1) if initial is None else np.asarray(initial, float)
    return _solve_handelman_family("handelman", 1, n, p, target_exact, lam0, tol, max_iter)


def solve_simplex(
    d: int,
    n: int,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    initial: Optional[Sequence[float]] = None,
):
    """Max-entropy certificate of the constant C(d+1+n, n) on the simplex.

    Same dual Newton scheme as ``solve_handelman`` with generator powers
    g^alpha, alpha in N^(d+1)_n.  For n <= 2 the optimal weights are the
    reciprocal uniform-measure moments of the generators.
    """
    if d < 1 or n < 1:
        raise ValueError("d and n must be >= 1")
    basis = monomials_upto(d, n)
    shat = math.comb(d + 1 + n, n)
    target_poly = MPoly.constant(d, shat)
    target_exact = [Fraction(0)] * len(basis)
    target_exact[0] = Fraction(shat)
    lam0 = (
        _simplex_initial_moments(d, basis)
        if initial is None
        else np.asarray(initial, float)
    )
    return _solve_handelman_family(
        "simplex", d, n, target_poly, target_exact, lam0, tol, max_iter
    )


# ---------------------------------------------------------------------------
# Putinar Gram pair on [-1,1]


def _hankel(values: np.ndarray, size: int) -> np.ndarray:
    index = np.arange(size)
    return values[index[:, None] + index]


def _localized(y: np.ndarray) -> np.ndarray:
    # Sequence of the shifted functional y_k - y_{k+2} for g = 1 - x^2.
    return y[:-2] - y[2:]


def _antidiag_sum_rows(x: np.ndarray) -> np.ndarray:
    """S @ x for the (2m-1) x m^2 0/1 matrix S with S[k, i*m + j] = 1 iff i + j = k.

    Row block i of x (rows i*m .. i*m + m - 1) is added at offset i, in order
    of i, starting from zero: the sums of the 0/1 product, bit for bit,
    without its m^3 multiplications by zero.
    """
    m = math.isqrt(x.shape[0])
    blocks = x.reshape(m, m, *x.shape[1:])
    out = np.zeros((2 * m - 1, *x.shape[1:]), dtype=x.dtype)
    for i in range(m):
        out[i : i + m] += blocks[i]
    return out


def _localizing_shift(m: int) -> np.ndarray:
    """The (m+2) x m matrix G of multiplication by g = 1 - x^2 on sequences.

    G[a, a] = 1 and G[a+2, a] = -1: the localized sequence is G.T @ y, so
    gradients pull back through G and Hessians through G . G.T.
    """
    return np.eye(m + 2, m, dtype=_LD) - np.eye(m + 2, m, k=-2, dtype=_LD)


def _antidiag_sums(matrix: np.ndarray) -> np.ndarray:
    """Antidiagonal sums S @ vec(W); at W = H(y)^{-1}, the gradient of log det H(y)."""
    return _antidiag_sum_rows(matrix.ravel())


def _logdet_hessian(inverse: np.ndarray) -> np.ndarray:
    """Hessian of -log det of a Hankel matrix w.r.t. its defining sequence.

    With W = H^{-1}, H[k, l] = sum over j + r = k, i + s = l of W[j, i] W[r, s],
    that is S (W kron W) S' for the antidiagonal matrix S.
    """
    left = _antidiag_sum_rows(np.kron(inverse, inverse))
    return _antidiag_sum_rows(left.T).T


def _putinar_gram_inverses(
    lam: Sequence[Fraction], n: int
) -> tuple[RationalMatrix, RationalMatrix]:
    """Exact inverses of the Hankel moment and (1 - x^2)-localizing matrices of lam."""
    moment = [[lam[i + j] for j in range(n + 1)] for i in range(n + 1)]
    shifted = [lam[k] - lam[k + 2] for k in range(2 * n - 1)]
    localizing = [[shifted[i + j] for j in range(n)] for i in range(n)]
    return invert_symmetric_rational(moment), invert_symmetric_rational(localizing)


def _snapped_putinar_grams(y: np.ndarray, n: int):
    """Double-cast exact inverses of the rationalized moment vector, if PD."""
    lam = [
        Fraction(float(v)).limit_denominator(RATIONALIZE_DENOMINATOR_BOUND) for v in y
    ]
    try:
        inv_m, inv_l = _putinar_gram_inverses(lam, n)
    except NotPositiveDefiniteError:
        return None
    gram_a = tuple(tuple(float(v) for v in row) for row in inv_m)
    gram_b = tuple(tuple(float(v) for v in row) for row in inv_l)
    return gram_a, gram_b


def _putinar_exact_residual(
    gram_a: Sequence[Sequence[float]],
    gram_b: Sequence[Sequence[float]],
    target: UPoly,
    n: int,
) -> Fraction:
    recon = _putinar_reconstruction(gram_a, gram_b, n, exact=True)
    return max(abs(c - target.coefficient(k)) for (k,), c in recon.items())


def solve_putinar(
    n: int,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    target: Optional[UPoly] = None,
    initial: Optional[Sequence[float]] = None,
):
    """Max-entropy Putinar Gram pair for a target positive on [-1,1].

    Defaults to the constant target 2n+1.  Minimizes
    <y, target> - log det M_n(y) - log det M_{n-1}(g.y) over the moment
    vectors y whose Hankel and localizing matrices are positive definite,
    starting from the moments of the uniform probability measure on [-1,1].
    At the optimum A = M_n(y)^{-1} and B = M_{n-1}(g.y)^{-1}.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if target is None:
        target = UPoly.constant(2 * n + 1)
    if target.degree > 2 * n:
        raise ValueError(f"target degree {target.degree} exceeds 2n = {2 * n}")
    size = 2 * n + 1
    t = _target_doubles(target.coefficient(k) for k in range(size)).astype(_LD)
    if initial is None:
        y = np.array(
            [(1.0 + (-1.0) ** k) / (2.0 * (k + 1)) for k in range(size)], dtype=_LD
        )
    else:
        y = np.asarray(initial, dtype=float).astype(_LD)
    inner_tol = tol * 0.1
    shift = _localizing_shift(2 * n - 1)

    def objective_value(point):
        chol_m = _ld_cholesky(_hankel(point, n + 1))
        if chol_m is None:
            return None
        chol_l = _ld_cholesky(_hankel(_localized(point), n))
        if chol_l is None:
            return None
        return t @ point - _ld_logdet_from_chol(chol_m) - _ld_logdet_from_chol(chol_l)

    if objective_value(y) is None:
        raise ValueError("initial moment vector is not strictly feasible")

    def refined_inverse(matrix):
        inverse = _ld_spd_inverse(matrix)
        if inverse is None:
            return None
        # One step of Newton refinement knocks the kappa*eps inversion error
        # down to evaluation noise; the Gram matrices inherit the accuracy.
        eye = np.eye(matrix.shape[0], dtype=_LD)
        return inverse + inverse @ (eye - matrix @ inverse)

    def gradient(point):
        inv_m = refined_inverse(_hankel(point, n + 1))
        inv_l = refined_inverse(_hankel(_localized(point), n))
        if inv_m is None or inv_l is None:
            return None, None, None
        return t - _antidiag_sums(inv_m) - shift @ _antidiag_sums(inv_l), inv_m, inv_l

    steps: list[float] = []
    history: list[float] = []
    iterations = 0
    stop = "budget"
    best = math.inf
    no_improve = 0
    for _ in range(max_iter):
        grad, inv_m, inv_l = gradient(y)
        if grad is None:
            stop = "singular"
            break
        residual = float(np.max(np.abs(grad)))
        if residual <= inner_tol:
            stop = "tol"
            break
        if residual < 0.9 * best:
            best = residual
            no_improve = 0
        else:
            no_improve += 1
            if no_improve >= PLATEAU_LIMIT:
                stop = "plateau"
                break
        hess = _logdet_hessian(inv_m)  # already full size 2n+1
        hess += shift @ _logdet_hessian(inv_l) @ shift.T
        delta = _ld_solve(hess, -grad)
        if delta is None or not np.all(np.isfinite(delta)):
            stop = "singular"
            break
        current = objective_value(y)
        slope = grad @ delta
        flat = abs(float(slope)) <= 64.0 * _EPS_LD * max(1.0, abs(float(current)))
        step = _LD(1.0)
        accepted = False
        while step >= MIN_STEP:
            candidate = y + step * delta
            value = objective_value(candidate)
            if value is not None and (flat or value <= current + ARMIJO * step * slope):
                accepted = True
                break
            step = step / 2
        if not accepted:
            stop = "line_search"
            break
        y = candidate
        iterations += 1
        steps.append(float(step))
        history.append(float(value))
        if float(np.max(np.abs(y))) > DIVERGENCE_BOUND:
            stop = "diverged"
            break

    diverged = stop == "diverged"
    grad, inv_m, inv_l = gradient(y)
    if grad is None:
        _log_solve("putinar", n, iterations, stop, math.inf)
        raise NoInteriorCertificateError(
            f"no interior certificate found at degree {n}",
            SolverReport(iterations, math.inf, math.nan, False, tuple(steps), tuple(history)),
        )
    gram_a = tuple(tuple(float(v) for v in row) for row in inv_m)
    gram_b = tuple(tuple(float(v) for v in row) for row in inv_l)
    residual = _putinar_exact_residual(gram_a, gram_b, target, n)
    if not diverged:
        # The optima of the flagship targets have rational moments; inverting
        # the rationalized dual exactly can beat the extended-precision path.
        # The exact residual decides which candidate ships.
        snapped = _snapped_putinar_grams(y, n)
        if snapped is not None:
            alt_a, alt_b = snapped
            alt_residual = _putinar_exact_residual(alt_a, alt_b, target, n)
            if alt_residual < residual:
                gram_a, gram_b, residual = alt_a, alt_b, alt_residual
    sign_a, logdet_a = np.linalg.slogdet(np.array(gram_a, dtype=float))
    sign_b, logdet_b = np.linalg.slogdet(np.array(gram_b, dtype=float))
    objective = float(logdet_a + logdet_b)  # log det A + log det B
    report = SolverReport(
        iterations=iterations,
        residual=float(residual),
        objective=objective,
        converged=not diverged and residual <= tol,
        steps=tuple(steps),
        dual_values=tuple(history),
    )
    _log_solve("putinar", n, iterations, stop, report.residual)
    if not report.converged:
        raise NoInteriorCertificateError(
            f"no interior certificate found at degree {n}", report
        )
    certificate = PutinarCertificate(
        degree=n, gram_a=gram_a, gram_b=gram_b, target=target
    )
    return certificate, DualFunctional(tuple(float(v) for v in y)), report


# ---------------------------------------------------------------------------
# Certificate verification and exact rationalization


def _is_rational(value: Number) -> bool:
    return isinstance(value, (Fraction, int))


def _handelman_reconstruction(cert: HandelmanCertificate, exact: bool):
    gens = [
        (weight, simplex_generator_power(cert.dimension, alpha))
        for alpha, weight in cert.weights.items()
    ]
    if not exact:
        terms: dict[Exponent, float] = {}
        for weight, g in gens:
            w = float(weight)
            for e, c in g.nums.items():
                terms[e] = terms.get(e, 0.0) + w * (c / g.den)
        return terms
    # Sum in integer numerators over the lcm of all weight and generator
    # denominators; one Fraction per monomial at the end.
    weights = [(Fraction(weight), g) for weight, g in gens]
    den = math.lcm(*(w.denominator * g.den for w, g in weights))
    nums: dict[Exponent, int] = {}
    for w, g in weights:
        factor = w.numerator * (den // (w.denominator * g.den))
        for e, c in g.nums.items():
            nums[e] = nums.get(e, 0) + factor * c
    return {e: Fraction(c, den) for e, c in nums.items()}


def _target_terms(target: AnyPoly, dimension: int, exact: bool):
    if target.dimension != dimension:
        raise ValueError("target dimension does not match the certificate")
    items = target.terms
    if exact:
        return items
    return {e: float(c) for e, c in items.items()}


def _putinar_reconstruction(gram_a, gram_b, n: int, exact: bool):
    """Coefficients of v_n' A v_n + (1-x^2) v_{n-1}' B v_{n-1} by exponent.

    Exact: the entries (rational, or dyadic doubles) are summed in integers
    over the lcm of their denominators, one Fraction per coefficient at the
    end.  Otherwise the entries are summed as floats.
    """
    entries = [v for gram in (gram_a, gram_b) for row in gram for v in row]
    if exact:
        entries, den = _common_numerators(entries)
    else:
        entries = [float(v) for v in entries]
    values = iter(entries)
    coeffs = [0] * (2 * n + 1)
    for i in range(n + 1):
        for j in range(n + 1):
            coeffs[i + j] += next(values)
    sigma1 = [0] * (2 * n - 1)
    for i in range(n):
        for j in range(n):
            sigma1[i + j] += next(values)
    for k, v in enumerate(sigma1):
        coeffs[k] += v  # g = 1 - x^2 contributes sigma1 shifted by 0 and -x^2
        coeffs[k + 2] -= v
    if exact:
        coeffs = [Fraction(c, den) for c in coeffs]
    return {(k,): c for k, c in enumerate(coeffs)}


def verify_certificate(
    cert: Union[HandelmanCertificate, PutinarCertificate], target: AnyPoly
) -> float:
    """Sup norm of the coefficient residual between reconstruction and target."""
    if isinstance(cert, HandelmanCertificate):
        recon = _handelman_reconstruction(cert, exact=False)
        want = _target_terms(target, cert.dimension, exact=False)
    else:
        recon = _putinar_reconstruction(cert.gram_a, cert.gram_b, cert.degree, exact=False)
        want = _target_terms(target, 1, exact=False)
    residual = 0.0
    for e in set(recon) | set(want):
        residual = max(residual, abs(recon.get(e, 0.0) - want.get(e, 0.0)))
    return residual


def verify_certificate_exact(
    cert: Union[HandelmanCertificate, PutinarCertificate], target: AnyPoly
) -> bool:
    """Whether a rational-valued certificate reconstructs the target exactly."""
    if isinstance(cert, HandelmanCertificate):
        if not all(_is_rational(w) for w in cert.weights.values()):
            raise TypeError("certificate weights are not rational-valued")
        recon = _handelman_reconstruction(cert, exact=True)
        want = _target_terms(target, cert.dimension, exact=True)
    else:
        values = [v for row in cert.gram_a for v in row]
        values += [v for row in cert.gram_b for v in row]
        if not all(_is_rational(v) for v in values):
            raise TypeError("certificate Gram entries are not rational-valued")
        recon = _putinar_reconstruction(cert.gram_a, cert.gram_b, cert.degree, exact=True)
        want = _target_terms(target, 1, exact=True)
    keys = set(recon) | set(want)
    return all(recon.get(e, Fraction(0)) == want.get(e, Fraction(0)) for e in keys)


def rationalize_dual(
    dual: DualFunctional, max_denominator: int = RATIONALIZE_DENOMINATOR_BOUND
) -> DualFunctional:
    """Best rational approximations (bounded denominator) of the dual vector."""
    return DualFunctional(
        tuple(
            v if isinstance(v, Fraction) else Fraction(float(v)).limit_denominator(max_denominator)
            for v in dual.values
        )
    )


def exact_handelman(
    target: AnyPoly,
    n: int,
    dual: DualFunctional,
    max_denominator: int = RATIONALIZE_DENOMINATOR_BOUND,
) -> HandelmanCertificate:
    """Exact-weight certificate from a rationalized dual vector.

    Weights are the reciprocal pairings 1/<lam, g^alpha> computed in exact
    arithmetic; combine with ``verify_certificate_exact`` to confirm that the
    numeric solve landed on an exactly reconstructing optimum.
    """
    d = target.dimension
    lam = rationalize_dual(dual, max_denominator).values
    alphas, basis, rows = _generator_table(d, n)
    if len(lam) != len(basis):
        raise ValueError("dual vector length does not match the working degree")
    # Pairings in integers over the lcm of the dual's denominators; the
    # weight 1/<lam, g^alpha> is then den / pairing numerator.
    lam_nums, den = _common_numerators(lam)
    weights: dict[Exponent, Fraction] = {}
    for alpha, row in zip(alphas, rows):
        pairing = sum(map(operator.mul, lam_nums, row))
        if pairing <= 0:
            raise ValueError("rationalized dual is not strictly feasible")
        weights[alpha] = Fraction(den, pairing)
    return HandelmanCertificate(dimension=d, degree=n, weights=weights, target=target)


def exact_putinar(
    n: int,
    dual: DualFunctional,
    target: Optional[UPoly] = None,
    max_denominator: int = RATIONALIZE_DENOMINATOR_BOUND,
) -> PutinarCertificate:
    """Exact Gram pair from a rationalized moment vector (exact Hankel inverses)."""
    lam = rationalize_dual(dual, max_denominator).values
    if len(lam) != 2 * n + 1:
        raise ValueError("dual vector length does not match the working degree")
    gram_a, gram_b = _putinar_gram_inverses(lam, n)
    return PutinarCertificate(degree=n, gram_a=gram_a, gram_b=gram_b, target=target)


# ---------------------------------------------------------------------------
# JSON serialization


def _value_to_json(value: Number):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, int):
        return str(Fraction(value))
    return float(value)


def _value_from_json(raw) -> Number:
    if isinstance(raw, str):
        return Fraction(raw)
    return float(raw)


def certificate_to_json(
    cert: Union[HandelmanCertificate, PutinarCertificate],
) -> dict:
    if isinstance(cert, HandelmanCertificate):
        return {
            "type": "handelman",
            "d": cert.dimension,
            "n": cert.degree,
            "weights": [
                {"alpha": list(alpha), "value": _value_to_json(w)}
                for alpha, w in cert.weights.items()
            ],
        }
    return {
        "type": "putinar",
        "n": cert.degree,
        "gramA": [[_value_to_json(v) for v in row] for row in cert.gram_a],
        "gramB": [[_value_to_json(v) for v in row] for row in cert.gram_b],
    }


def certificate_from_json(obj: Mapping):
    if obj["type"] == "handelman":
        weights = {
            tuple(entry["alpha"]): _value_from_json(entry["value"])
            for entry in obj["weights"]
        }
        return HandelmanCertificate(
            dimension=int(obj["d"]), degree=int(obj["n"]), weights=weights
        )
    if obj["type"] == "putinar":
        return PutinarCertificate(
            degree=int(obj["n"]),
            gram_a=tuple(tuple(_value_from_json(v) for v in row) for row in obj["gramA"]),
            gram_b=tuple(tuple(_value_from_json(v) for v in row) for row in obj["gramB"]),
        )
    raise ValueError(f"unknown certificate type {obj.get('type')!r}")
