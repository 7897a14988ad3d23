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

Both duals are minimized by one damped-Newton driver, ``_damped_newton``, with
backtracking (Armijo factor 1e-4, step halving) and a hard domain guard.  Each
family is a barrier around it: a value that is None outside the open domain
(a nonpositive pairing for Handelman, a failed Cholesky factorization for
Putinar) and a Newton system (gradient and a lazily formed Hessian).  The
driver returns one stop word per solve, reported as ``SolverReport.stop``.

The iteration runs in extended precision (``np.longdouble``); in plain
double the monomial-basis Hessians are ill-conditioned enough that the
gradient noise floor sits above the default tolerance near degree 8.  LAPACK has no extended-precision kernels, so the
dense kernels are written here as whole-array longdouble operations: the
elimination and the Cholesky factorization take one rank-1 or column update
per pivot, and the Hankel log-det gradient and Hessian are S vec(W) and
S (W kron W) S' for the 0/1 antidiagonal-sum matrix S, with the
(1 - x^2)-localizing part pulled back through a shift matrix G.

The exact checks run in integers: generator powers have integer
coefficients, and double or rational weights and Gram entries are brought to
integer numerators over one common denominator, so each family has one
integer reconstruction, ``_exact_residual`` is the one exact residual, and
each result is one ``Fraction``.  With ``logging`` at DEBUG, each solve logs
its family, degree, iteration count, stop reason (tol, plateau, diverged,
budget, line_search or singular) and exact residual.

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
from itertools import compress
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

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
    stop: str  # tol, plateau, diverged, budget, line_search or singular
    steps: tuple[float, ...] = ()
    dual_values: tuple[float, ...] = ()

    def to_json(self) -> dict:
        return {
            "iterations": self.iterations,
            "residual": self.residual,
            "objective": self.objective,
            "converged": self.converged,
            "stop_reason": self.stop,
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
# Damped Newton driver


def _damped_newton(
    x0: np.ndarray,
    value: Callable[[np.ndarray], Optional[np.longdouble]],
    newton_system: Callable[[np.ndarray], Optional[tuple]],
    tol: float,
    max_iter: int,
):
    """Minimize a barrier objective from a strictly feasible x0 by damped Newton.

    ``value(x)`` is the longdouble objective, or None outside the open
    domain.  ``newton_system(x)`` is None where the Newton system cannot be
    formed, and otherwise ``(gradient, hessian)``, the Hessian a thunk called
    only when a step is taken.  The gradient equals the coefficient residual
    of the primal reconstruction.  Stops when its sup norm falls below tol/10 (margin for
    the final cast to double), when progress plateaus at machine resolution,
    when the iterates diverge (boundary target), or when the budget runs out.
    Returns ``(x, iterations, steps, dual_values, stop)``, with the stop
    reason one of the words ``tol plateau diverged budget line_search
    singular``.
    """
    x = x0
    current = value(x)
    if current is None:
        raise ValueError("initial dual point is not strictly feasible")
    inner_tol = tol * 0.1
    steps: list[float] = []
    history: list[float] = []
    stop = "budget"
    best = math.inf
    no_improve = 0
    for _ in range(max_iter):
        system = newton_system(x)
        if system is None:
            stop = "singular"
            break
        grad, hessian = system
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
        delta = _ld_solve(hessian(), -grad)
        if delta is None or not np.all(np.isfinite(delta)):
            stop = "singular"
            break
        slope = grad @ delta
        # Near the optimum the predicted decrease drops below the resolution
        # of the objective itself; then the Armijo test is pure noise and the
        # full Newton step is the right move (domain guard still applies).
        flat = abs(float(slope)) <= 64.0 * _EPS_LD * max(1.0, abs(float(current)))
        step = _LD(1.0)
        while step >= MIN_STEP:
            candidate = x + step * delta
            candidate_value = value(candidate)
            if candidate_value is not None and (
                flat or candidate_value <= current + ARMIJO * step * slope
            ):
                break
            step = step / 2
        else:
            stop = "line_search"
            break
        x, current = candidate, candidate_value
        steps.append(float(step))
        history.append(float(current))
        if float(np.max(np.abs(x))) > DIVERGENCE_BOUND:
            stop = "diverged"
            break
    return x, len(steps), tuple(steps), tuple(history), stop


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


# ---------------------------------------------------------------------------
# Handelman family (shared barrier for the interval and the simplex)


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


def _solve_handelman_family(
    family: str,
    d: int,
    n: int,
    target_poly: AnyPoly,
    lam0: np.ndarray,
    tol: float,
    max_iter: int,
):
    """Minimize <lam, target> - sum log(gens @ lam) over the positive pairings."""
    alphas, basis, rows = _generator_table(d, n)
    gens = np.array(rows, dtype=float).astype(_LD)
    terms = target_poly.terms
    target = _target_doubles(terms.get(e, 0) for e in basis).astype(_LD)

    def value(lam):
        pair = gens @ lam
        if not np.all(pair > 0):
            return None
        return target @ lam - np.log(pair).sum()

    def newton_system(lam):
        pair = gens @ lam
        grad = target - gens.T @ (1.0 / pair)
        return grad, lambda: gens.T @ ((1.0 / pair**2)[:, None] * gens)

    lam, iterations, steps, history, stop = _damped_newton(
        lam0.astype(_LD, copy=True), value, newton_system, tol, max_iter
    )
    weight_values = [float(1.0 / p) for p in gens @ lam]
    certificate = HandelmanCertificate(
        dimension=d, degree=n, weights=dict(zip(alphas, weight_values)), target=target_poly
    )
    # The table rows as (exponent, nonzero coefficient) pairs.
    nonzero = [compress(zip(basis, row), row) for row in rows]
    residual = _exact_residual(certificate, target_poly, nonzero)
    report = SolverReport(
        iterations=iterations,
        residual=float(residual),
        objective=float(sum(math.log(w) for w in weight_values)),
        converged=stop != "diverged" and residual <= tol,
        stop=stop,
        steps=steps,
        dual_values=history,
    )
    _log_solve(family, n, iterations, stop, report.residual)
    if not report.converged:
        raise NoInteriorCertificateError(
            f"no interior certificate found at degree {n}", report
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
    lam0 = _beta22_moments(n + 1) if initial is None else np.asarray(initial, float)
    return _solve_handelman_family("handelman", 1, n, p, lam0, tol, max_iter)


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
    target = MPoly.constant(d, math.comb(d + 1 + n, n))
    lam0 = (
        _simplex_initial_moments(d, monomials_upto(d, n))
        if initial is None
        else np.asarray(initial, float)
    )
    return _solve_handelman_family("simplex", d, n, target, lam0, tol, max_iter)


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


def _doubles(gram) -> tuple[tuple[float, ...], ...]:
    return tuple(tuple(float(v) for v in row) for row in gram)


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
        y0 = np.array(
            [(1.0 + (-1.0) ** k) / (2.0 * (k + 1)) for k in range(size)], dtype=_LD
        )
    else:
        y0 = np.asarray(initial, dtype=float).astype(_LD)
    shift = _localizing_shift(2 * n - 1)

    def value(point):
        chol_m = _ld_cholesky(_hankel(point, n + 1))
        if chol_m is None:
            return None
        chol_l = _ld_cholesky(_hankel(_localized(point), n))
        if chol_l is None:
            return None
        return t @ point - _ld_logdet_from_chol(chol_m) - _ld_logdet_from_chol(chol_l)

    def refined_inverse(matrix):
        inverse = _ld_spd_inverse(matrix)
        if inverse is None:
            return None
        # One step of Newton refinement knocks the kappa*eps inversion error
        # down to evaluation noise; the Gram matrices inherit the accuracy.
        eye = np.eye(matrix.shape[0], dtype=_LD)
        return inverse + inverse @ (eye - matrix @ inverse)

    def inverses(point):
        inv_m = refined_inverse(_hankel(point, n + 1))
        inv_l = refined_inverse(_hankel(_localized(point), n))
        return None if inv_m is None or inv_l is None else (inv_m, inv_l)

    def newton_system(point):
        grams = inverses(point)
        if grams is None:
            return None
        inv_m, inv_l = grams

        def hessian():
            hess = _logdet_hessian(inv_m)  # already full size 2n+1
            hess += shift @ _logdet_hessian(inv_l) @ shift.T
            return hess

        return t - _antidiag_sums(inv_m) - shift @ _antidiag_sums(inv_l), hessian

    y, iterations, steps, history, stop = _damped_newton(
        y0, value, newton_system, tol, max_iter
    )
    grams = inverses(y)
    if grams is None:
        _log_solve("putinar", n, iterations, stop, math.inf)
        raise NoInteriorCertificateError(
            f"no interior certificate found at degree {n}",
            SolverReport(iterations, math.inf, math.nan, False, stop, steps, history),
        )
    dual = DualFunctional(tuple(float(v) for v in y))
    certificate = PutinarCertificate(n, *map(_doubles, grams), target)
    residual = _exact_residual(certificate, target)
    if stop != "diverged":
        # The optima of the flagship targets have rational moments; inverting
        # the rationalized dual exactly can beat the extended-precision path.
        # The exact residual decides which candidate ships.
        try:
            exact = exact_putinar(n, dual)
        except NotPositiveDefiniteError:
            pass
        else:
            grams = (exact.gram_a, exact.gram_b)
            snapped = PutinarCertificate(n, *map(_doubles, grams), target)
            snapped_residual = _exact_residual(snapped, target)
            if snapped_residual < residual:
                certificate, residual = snapped, snapped_residual
    sign_a, logdet_a = np.linalg.slogdet(np.array(certificate.gram_a, dtype=float))
    sign_b, logdet_b = np.linalg.slogdet(np.array(certificate.gram_b, dtype=float))
    report = SolverReport(
        iterations=iterations,
        residual=float(residual),
        objective=float(logdet_a + logdet_b),  # log det A + log det B
        converged=stop != "diverged" and residual <= tol,
        stop=stop,
        steps=steps,
        dual_values=history,
    )
    _log_solve("putinar", n, iterations, stop, report.residual)
    if not report.converged:
        raise NoInteriorCertificateError(
            f"no interior certificate found at degree {n}", report
        )
    return certificate, dual, report


# ---------------------------------------------------------------------------
# Certificate verification and exact rationalization


def _is_rational(value: Number) -> bool:
    return isinstance(value, (Fraction, int))


def _common_numerators(values: Sequence[Number]) -> tuple[list[int], int]:
    """Integer numerators of exact values over the lcm of their denominators."""
    ratios = [v.as_integer_ratio() for v in values]
    den = math.lcm(*(q for _, q in ratios))
    return [p * (den // q) for p, q in ratios], den


def _generator_pairs(cert: HandelmanCertificate):
    """The (exponent, integer coefficient) pairs of each g^alpha, in weight order."""
    return [simplex_generator_power(cert.dimension, alpha).nums.items() for alpha in cert.weights]


def _handelman_reconstruction(weights: Iterable, rows: Iterable) -> dict:
    """Coefficients of sum_a w_a g^alpha by exponent.

    ``rows`` yields the (exponent, integer coefficient) pairs of each
    generator power, in the order of ``weights``; the sums are floats for
    float weights and integers for integer numerators.
    """
    terms: dict[Exponent, Number] = {}
    for w, row in zip(weights, rows):
        for e, c in row:
            terms[e] = terms.get(e, 0) + w * c
    return terms


def _gram_entries(cert: PutinarCertificate) -> list:
    return [v for gram in (cert.gram_a, cert.gram_b) for row in gram for v in row]


def _putinar_reconstruction(entries: Iterable, n: int) -> dict:
    """Coefficients of v_n' A v_n + (1-x^2) v_{n-1}' B v_{n-1} by exponent.

    ``entries`` are those of A, then of B, row by row; the sums are floats
    for float entries and integers for integer numerators.
    """
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
    return {(k,): c for k, c in enumerate(coeffs)}


def _check_dimension(target: AnyPoly, dimension: int) -> None:
    if target.dimension != dimension:
        raise ValueError("target dimension does not match the certificate")


def _exact_residual(
    cert: Union[HandelmanCertificate, PutinarCertificate],
    target: AnyPoly,
    rows: Optional[Iterable] = None,
) -> Fraction:
    """Exact sup norm of the coefficient residual between reconstruction and target.

    The weights or Gram entries (rational, or dyadic doubles) become integer
    numerators over the lcm of their denominators, the reconstruction runs in
    integers, and the target joins it over one common denominator: one
    ``Fraction`` for the result.  A Handelman caller that already holds the
    generator rows (as ``_generator_pairs`` gives them) passes them.
    """
    if isinstance(cert, HandelmanCertificate):
        dimension = cert.dimension
        nums, den = _common_numerators(list(cert.weights.values()))
        recon = _handelman_reconstruction(nums, _generator_pairs(cert) if rows is None else rows)
    else:
        dimension = 1
        nums, den = _common_numerators(_gram_entries(cert))
        recon = _putinar_reconstruction(nums, cert.degree)
    _check_dimension(target, dimension)
    scale = math.lcm(den, target.den)
    factor, target_factor = scale // den, scale // target.den
    want = target.sparse_nums
    residual = max(
        (abs(recon.get(e, 0) * factor - want.get(e, 0) * target_factor)
         for e in recon.keys() | want.keys()),
        default=0,
    )
    return Fraction(residual, scale)


def verify_certificate(
    cert: Union[HandelmanCertificate, PutinarCertificate], target: AnyPoly
) -> float:
    """Sup norm of the coefficient residual between reconstruction and target."""
    if isinstance(cert, HandelmanCertificate):
        weights = [float(w) for w in cert.weights.values()]
        recon = _handelman_reconstruction(weights, _generator_pairs(cert))
        _check_dimension(target, cert.dimension)
    else:
        entries = [float(v) for v in _gram_entries(cert)]
        recon = _putinar_reconstruction(entries, cert.degree)
        _check_dimension(target, 1)
    want = {e: float(c) for e, c in target.terms.items()}
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
    elif not all(_is_rational(v) for v in _gram_entries(cert)):
        raise TypeError("certificate Gram entries are not rational-valued")
    return _exact_residual(cert, target) == 0


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
