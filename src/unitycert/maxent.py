"""Dual Newton solvers for max-entropy positivity certificates.

Two certificate families are covered, both solved through their smooth convex
duals rather than the constrained primals:

* Handelman weights on [0,1] or the canonical simplex: maximize the sum of
  log-weights subject to reconstructing the target from the generator powers
  g^alpha.  The dual is D(y) = <y, p> - sum_a log <y, g^alpha>; the KKT
  conditions give the weights back as reciprocals of the pairings.
* Putinar Gram pair (A, B) on [-1,1] with the fixed multiplier g = 1 - x^2:
  maximize log det A + log det B subject to v_n' A v_n + g v_{n-1}' B v_{n-1}
  equal to the target.  The dual minimizes <y, target> minus the log-dets of
  the moment and localizing matrices of y; at the optimum A and B are their
  inverses.

One damped-Newton driver, ``_damped_newton``, minimizes both in float64 and
names why it stopped (``SolverReport.stop``).  Each family is a barrier
around it in the basis the paper pairs with its domain, where the dual
Hessian is well conditioned: at the flagship optima its condition number is
(n+2)/2 for Handelman and 2n for Putinar, against 3.7e10 and 2.7e16 at n=12
in monomial moments.

* Handelman and the simplex run in the degree-n Bernstein moments
  z_gamma = <y, b_gamma>, b_gamma = multinom(n; gamma) x^gamma in barycentric
  coordinates; g^alpha pairs with z through the nonnegative
  multinom(n-|alpha|; gamma-alpha) / multinom(n; gamma).
* Putinar runs in the Chebyshev moments z_k = <y, T_k>: the moment matrix is
  M_T[i][j] = (z_{i+j} + z_{|i-j|}) / 2, the localizing matrix has the same
  form over s_k = z_k/2 - (z_{k+2} + z_{|k-2|})/4, and for the linear map
  A: z -> vec(M_T) and W = M_T^{-1} the gradient of -log det M_T is
  -A' vec(W) and its Hessian A' (W kron W) A.  The Gram matrices return to
  the monomial basis through the integer coefficients of T_j.

Starts, targets and the returned dual (in monomial moments) cross between the
bases exactly and are rounded once.  A double Handelman certificate soon
misses the tolerance (one ulp on the flagship weights moves the monomial
residual by 1.5e-11 at n=12, 7.1e-9 at n=16).  So when the driver stops at
tol or plateau above the tolerance, one exact rounding step in the style of
Peyrl & Parrilo (TCS 409, 2008), ``_round_handelman``, moves the exact
residual into the top-degree weights; if all stay positive, the certificate
ships with rational weights and zero residual.

Every certificate is checked one way: one integer reconstruction per family
over one common denominator and one residual, ``_exact_residual``, which
``verify_certificate`` rounds to a double.  A solve converges when that
residual of the *returned* certificate is within the tolerance.
Non-convergence is a diagnostic, not a proof: a target on the cone boundary
(or outside) makes the dual unbounded.  The flagship optima have rational
duals, so a continued-fraction rationalization step and the exact Hankel
inverses of ``momatrix.invert_hankel`` turn numeric convergence into an
exactly verified certificate.  With ``logging`` at DEBUG, each solve logs its
family, degree, iteration count, stop reason and residual.
"""

from __future__ import annotations

import functools
import logging
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from .momatrix import NotPositiveDefiniteError, invert_hankel
from .polycore import (
    AnyPoly,
    ChebKind,
    Exponent,
    MPoly,
    UPoly,
    cheb_table,
    monomials_of_degree,
    monomials_upto,
    multinomial,
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

_EPS = float(np.finfo(float).eps)
_TARGET_RANGE = "target coefficients must fit in a finite double"
_START_FORM = "initial dual point must be finite, one entry per monomial"

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
# Damped Newton driver


def _damped_newton(
    x0: np.ndarray,
    value: Callable[[np.ndarray], Optional[float]],
    newton_system: Callable[[np.ndarray], Optional[tuple]],
    tol: float,
    max_iter: int,
):
    """Minimize a barrier objective from a strictly feasible x0 by damped Newton.

    ``value(x)`` is the objective, or None outside the open domain.
    ``newton_system(x)`` is None where the Newton system cannot be formed,
    and otherwise ``(gradient, hessian)``, the Hessian a thunk called only
    when a step is taken; steps are ``np.linalg.solve`` with Armijo
    backtracking.  The gradient is the coefficient residual of the primal
    reconstruction in the barrier's basis.  Stops when its sup norm falls
    below tol/10 (margin for the change to the monomial basis), when
    progress plateaus, when the iterates diverge (boundary target), or when
    the budget runs out.  Returns ``(x, iterations, steps, dual_values,
    stop)``, with the stop word one of ``tol plateau diverged budget
    line_search singular``.
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
        try:
            delta = np.linalg.solve(hessian(), -grad)
        except np.linalg.LinAlgError:
            delta = None
        if delta is None or not np.all(np.isfinite(delta)):
            stop = "singular"
            break
        slope = float(grad @ delta)
        # Near the optimum the predicted decrease drops below the resolution
        # of the objective itself; then the Armijo test is pure noise and the
        # full Newton step is the right move (domain guard still applies).
        flat = abs(slope) <= 64.0 * _EPS * max(1.0, abs(float(current)))
        step = 1.0
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
        steps.append(step)
        history.append(float(current))
        if float(np.max(np.abs(x))) > DIVERGENCE_BOUND:
            stop = "diverged"
            break
    return x, len(steps), tuple(steps), tuple(history), stop


def _doubles_of(convert: Callable, values, message: str) -> np.ndarray:
    """The exact ``convert(values)`` rounded once to doubles; ValueError(message) if
    a value is not finite, the length is wrong or a result overflows."""
    try:
        return np.array([float(v) for v in convert(values)])
    except (OverflowError, ValueError):
        raise ValueError(message) from None


def _report(family: str, n: int, tol: float, newton: tuple, residual, objective) -> SolverReport:
    """The solve's report, logged at DEBUG; NoInteriorCertificateError unless it converged."""
    _, iterations, steps, history, stop = newton
    report = SolverReport(iterations, float(residual), float(objective),
                          stop != "diverged" and residual <= tol, stop, steps, history)
    logger.debug("solve=%s n=%d iterations=%d stop=%s residual=%.3e",
                 family, n, iterations, stop, report.residual)
    if not report.converged:
        raise NoInteriorCertificateError(f"no interior certificate found at degree {n}", report)
    return report


# ---------------------------------------------------------------------------
# Handelman family (shared barrier for the interval and the simplex)


def _object_matrix(rows) -> np.ndarray:
    """A read-only matrix of Python ints, for exact matrix products."""
    matrix = np.array(rows, dtype=object)
    matrix.setflags(write=False)
    return matrix


def _exact_matvec(matrix: np.ndarray, values: Sequence[Number]) -> list[Fraction]:
    """``matrix @ values`` exactly, for an integer matrix and rational or real values."""
    nums, den = _common_numerators([v if _is_rational(v) else float(v) for v in values])
    return [Fraction(v, den) for v in matrix @ np.array(nums, dtype=object)]


class _GeneratorTable:
    """The generator powers of degree <= n on the d-simplex, and their Bernstein forms.

    ``rows[a]`` holds the integer monomial coefficients of g^alphas[a] over
    ``basis`` and ``pairs[a]`` its nonzero (exponent, coefficient) pairs.
    The Bernstein index gamma runs over ``tops``, the alphas of degree n,
    whose generator powers are the x^gamma.  ``homog[b, g]`` is the integer
    multinom(n-|beta|; gamma-beta), the coefficient of x^gamma in x^beta
    homogenized to degree n, and ``pairing[a, g]`` the double
    multinom(n-|alpha|; gamma-alpha) / multinom(n; gamma).
    """

    def __init__(self, d: int, n: int) -> None:
        self.alphas = monomials_upto(d + 1, n)
        self.basis = monomials_upto(d, n)
        index = {e: i for i, e in enumerate(self.basis)}
        rows, pairs = [], []
        for alpha in self.alphas:
            nums = simplex_generator_power(d, alpha).nums
            rows.append([nums.get(e, 0) for e in self.basis])
            pairs.append(tuple(nums.items()))
        self.rows, self.pairs = _object_matrix(rows), tuple(pairs)
        self.position = {alpha: i for i, alpha in enumerate(self.alphas)}
        top_start = len(self.alphas) - len(self.basis)
        self.tops = self.alphas[top_start:]
        self.multinom = [multinomial(gamma) for gamma in self.tops]
        homog = [[0] * len(self.basis) for _ in self.basis]
        self.pairing = np.zeros((len(self.alphas), len(self.basis)))
        for i, alpha in enumerate(self.alphas):
            # g^alpha = x^alpha (x_1 + ... + x_{d+1})^(n-|alpha|): each gamma
            # above alpha once.
            for delta in monomials_of_degree(d + 1, n - sum(alpha)):
                g = self.position[tuple(map(operator.add, alpha, delta))] - top_start
                coefficient = multinomial(delta)
                self.pairing[i, g] = coefficient / self.multinom[g]
                if alpha[d] == 0:
                    homog[index[alpha[:d]]][g] = coefficient
        self.pairing.setflags(write=False)
        self.homog = _object_matrix(homog)

    def bernstein_moments(self, y: Sequence[Number]) -> list[Fraction]:
        """z_gamma = multinom(n; gamma) <y, g^gamma>, exactly."""
        pairings = _exact_matvec(self.rows[-len(self.basis):], y)
        return [m * v for m, v in zip(self.multinom, pairings)]

    def monomial_moments(self, z: Sequence[Number]) -> list[Fraction]:
        """y_beta = sum_gamma homog[beta, gamma] z_gamma / multinom(n; gamma), exactly."""
        return _exact_matvec(self.homog, [Fraction(v) / m for v, m in zip(z, self.multinom)])

    def bernstein_coefficients(self, p: AnyPoly) -> list[Fraction]:
        """The coefficients of p in the degree-n Bernstein basis, exactly."""
        terms = p.terms
        lifted = _exact_matvec(self.homog.T, [terms.get(beta, 0) for beta in self.basis])
        return [v / m for v, m in zip(lifted, self.multinom)]


# One table per (d, n), shared by the solve, the exact certificate and the checks.
_generator_table = functools.lru_cache(maxsize=16)(_GeneratorTable)


def _dirichlet_moments(a: Sequence[int], basis: Sequence[Exponent]) -> list[Fraction]:
    """Dirichlet(a) moments prod_i (a_i)_{beta_i} / (|a|)_{|beta|}; (m)_k = perm(m+k-1, k)."""
    return [
        Fraction(math.prod(math.perm(ai - 1 + b, b) for ai, b in zip(a, beta)),
                 math.perm(sum(a) - 1 + sum(beta), sum(beta)))
        for beta in basis
    ]


def _round_handelman(
    cert: HandelmanCertificate, target: AnyPoly, table: _GeneratorTable
) -> Optional[HandelmanCertificate]:
    """The certificate with its exact residual moved into the top-degree weights.

    The residual r = target - sum_a w_a g^alpha, homogenized to degree n, is
    sum_gamma (sum_beta r_beta homog[beta, gamma]) x^gamma, and x^gamma is
    g^gamma for |gamma| = n: adding those integer combinations to the
    top-degree weights gives rational weights with zero residual.  None if a
    weight would not stay positive.
    """
    residual, scale = _residual_numerators(cert, target)
    corrections = table.homog.T @ np.array([residual.get(b, 0) for b in table.basis], dtype=object)
    weights = {alpha: Fraction(w) for alpha, w in cert.weights.items()}
    for gamma, correction in zip(table.tops, corrections):
        weights[gamma] += Fraction(correction, scale)
    if min(weights.values()) <= 0:
        return None
    return HandelmanCertificate(cert.dimension, cert.degree, weights, cert.target)


def _newest(compute: Callable) -> Callable:
    """``compute`` kept for its newest argument, keyed by object identity: the
    driver forms the Newton system at the accepted candidate object itself."""
    key, result = None, None

    def cached(x):
        nonlocal key, result
        if x is not key:
            key, result = x, compute(x)
        return result

    return cached


def _handelman_barrier(pairing: np.ndarray, c: np.ndarray):
    """``(value, newton_system, pairings)`` of <c, z> - sum log(pairing @ z) over the
    Bernstein moments z; ``pairings(z)`` is ``pairing @ z``."""
    pairings = _newest(lambda z: pairing @ z)

    def value(z):
        pair = pairings(z)
        if not np.all(pair > 0):
            return None
        return c @ z - np.log(pair).sum()

    def newton_system(z):
        weights = 1.0 / pairings(z)
        return c - pairing.T @ weights, lambda: pairing.T @ (pairing * (weights**2)[:, None])

    return value, newton_system, pairings


def _solve_handelman_family(
    family: str,
    d: int,
    n: int,
    target_poly: AnyPoly,
    initial: Optional[Sequence[Number]],
    tol: float,
    max_iter: int,
):
    """Handelman or simplex solve in Bernstein moments, then the exact rounding step."""
    table = _generator_table(d, n)
    if initial is None:
        # Dirichlet(2, 2) on [0,1] (the density 6x(1-x)) and Dirichlet(2, 1,
        # ..., 1) on the simplex: strictly feasible, away from the flagship optima.
        initial = _dirichlet_moments((2, 2) if d == 1 else (2,) + (1,) * d, table.basis)
    value, newton_system, pairings = _handelman_barrier(
        table.pairing, _doubles_of(table.bernstein_coefficients, target_poly, _TARGET_RANGE)
    )
    z0 = _doubles_of(table.bernstein_moments, initial, _START_FORM)
    newton = _damped_newton(z0, value, newton_system, tol, max_iter)
    z, stop = newton[0], newton[-1]
    weights = dict(zip(table.alphas, (1.0 / pairings(z)).tolist()))
    certificate = HandelmanCertificate(d, n, weights, target_poly)
    residual = _exact_residual(certificate, target_poly)
    if residual > tol and stop in ("tol", "plateau"):
        rounded = _round_handelman(certificate, target_poly, table)
        if rounded is not None:
            certificate = rounded
            residual = _exact_residual(certificate, target_poly)
    objective = sum(math.log(w) for w in certificate.weights.values())
    report = _report(family, n, tol, newton, residual, objective)
    return certificate, DualFunctional(tuple(map(float, table.monomial_moments(z)))), report


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
    ``initial`` is a strictly feasible start in monomial moments.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if p.degree > n:
        raise ValueError(f"target degree {p.degree} exceeds n = {n}")
    return _solve_handelman_family("handelman", 1, n, p, initial, tol, max_iter)


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
    return _solve_handelman_family("simplex", d, n, target, initial, tol, max_iter)


# ---------------------------------------------------------------------------
# Putinar Gram pair on [-1,1]


def _cheb_hankel(seq: np.ndarray, size: int) -> np.ndarray:
    """M[i][j] = (seq[i+j] + seq[|i-j|]) / 2 = <y, T_i T_j> for the Chebyshev moments seq of y."""
    i = np.arange(size)
    return (seq[i[:, None] + i] + seq[np.abs(i[:, None] - i)]) / 2


def _cheb_localized(z: np.ndarray) -> np.ndarray:
    """s_k = <y, (1 - x^2) T_k> = z_k/2 - (z_{k+2} + z_{|k-2|})/4, from x^2 = (T_0 + T_2)/2."""
    k = np.arange(len(z) - 2)
    return z[k] / 2 - (z[k + 2] + z[np.abs(k - 2)]) / 4


class _ChebyshevTable:
    """The Chebyshev basis up to degree 2n and the linear maps of the Putinar barrier.

    ``cheb[k, l]`` is the integer coefficient of x^l in T_k, so the Chebyshev
    moments are z = cheb @ y; ``monomial[l, k] / 4^n`` is the nonnegative
    coefficient of T_k in x^l, so y = monomial @ z / 4^n.  ``maps`` are the
    matrices of z -> vec(M_T) (size n+1) and z -> vec(L_T) (size n).
    """

    def __init__(self, n: int) -> None:
        size = 2 * n + 1
        self.n = n
        self.cheb = _object_matrix(
            [list(t.nums) + [0] * (size - len(t.nums)) for t in cheb_table(ChebKind.FIRST, 2 * n)]
        )
        # x^l = 2^(1-l) sum_{i < l/2} C(l, i) T_{l-2i} + [l even] 2^(-l) C(l, l/2) T_0.
        monomial = [[0] * size for _ in range(size)]
        for l in range(size):
            for i in range(l // 2 + 1):
                monomial[l][l - 2 * i] = math.comb(l, i) << (2 * n - l + (2 * i < l))
        self.monomial = _object_matrix(monomial)
        unit = np.eye(size)
        self.maps = (
            np.stack([_cheb_hankel(e, n + 1).ravel() for e in unit], axis=1),
            np.stack([_cheb_hankel(_cheb_localized(e), n).ravel() for e in unit], axis=1),
        )
        for matrix in self.maps:
            matrix.setflags(write=False)

    def chebyshev_moments(self, y: Sequence[Number]) -> list[Fraction]:
        return _exact_matvec(self.cheb, y)

    def monomial_moments(self, z: Sequence[Number]) -> list[Fraction]:
        return [v / 4**self.n for v in _exact_matvec(self.monomial, z)]

    def chebyshev_coefficients(self, p: UPoly) -> list[Fraction]:
        """The coefficients of p in T_0..T_{2n}, exactly."""
        coeffs = [p.coefficient(k) for k in range(2 * self.n + 1)]
        return [v / 4**self.n for v in _exact_matvec(self.monomial.T, coeffs)]


_chebyshev_table = functools.lru_cache(maxsize=16)(_ChebyshevTable)


def _putinar_barrier(table: _ChebyshevTable, t: np.ndarray):
    """``(value, newton_system, inverses)`` of <t, z> - log det M_T(z) - log det L_T(z).

    ``inverses(z)`` is [M_T^{-1}, L_T^{-1}], or None outside the domain.
    """
    shapes = ((table.n + 1, table.n + 1), (table.n, table.n))

    @_newest
    def factors(z):
        try:
            return [np.linalg.cholesky((m @ z).reshape(s)) for m, s in zip(table.maps, shapes)]
        except np.linalg.LinAlgError:
            return None

    def value(z):  # None outside the domain
        chols = factors(z)
        if chols is not None:
            return t @ z - 2.0 * sum(np.log(np.diag(c)).sum() for c in chols)

    @_newest
    def inverses(z):
        chols = factors(z)
        return None if chols is None else [inv.T @ inv for inv in map(np.linalg.inv, chols)]

    def newton_system(z):
        grams = inverses(z)
        if grams is None:
            return None
        grad = t - sum(m.T @ w.ravel() for m, w in zip(table.maps, grams))
        return grad, lambda: sum(m.T @ np.kron(w, w) @ m for m, w in zip(table.maps, grams))

    return value, newton_system, inverses


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
    starting from the moments of the uniform probability measure on [-1,1]
    (or from ``initial``, in monomial moments).  At the optimum
    A = M_n(y)^{-1} and B = M_{n-1}(g.y)^{-1}.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if target is None:
        target = UPoly.constant(2 * n + 1)
    if target.degree > 2 * n:
        raise ValueError(f"target degree {target.degree} exceeds 2n = {2 * n}")
    table = _chebyshev_table(n)
    t = _doubles_of(table.chebyshev_coefficients, target, _TARGET_RANGE)
    if initial is None:
        initial = [Fraction(1 + (-1) ** k, 2 * (k + 1)) for k in range(2 * n + 1)]
    value, newton_system, inverses = _putinar_barrier(table, t)
    z0 = _doubles_of(table.chebyshev_moments, initial, _START_FORM)
    newton = _damped_newton(z0, value, newton_system, tol, max_iter)
    z, stop = newton[0], newton[-1]
    # The driver keeps z where both Cholesky factors exist, so the inverses do.
    # v' Q' W Q v returns them to the monomial basis through the T_j coefficients Q.
    q = table.cheb[: n + 1, : n + 1].astype(float)
    grams = [b.T @ w @ b for b, w in zip((q, q[:n, :n]), inverses(z))]
    dual = DualFunctional(tuple(map(float, table.monomial_moments(z))))
    certificate = PutinarCertificate(n, *map(_doubles, grams), target)
    residual = _exact_residual(certificate, target)
    if stop != "diverged":
        # The optima of the flagship targets have rational moments; inverting
        # the rationalized dual exactly can beat the double-precision path.
        # The exact residual decides which candidate ships.
        try:
            exact = exact_putinar(n, dual)
        except NotPositiveDefiniteError:
            pass
        else:
            snapped = PutinarCertificate(n, _doubles(exact.gram_a), _doubles(exact.gram_b), target)
            snapped_residual = _exact_residual(snapped, target)
            if snapped_residual < residual:
                certificate, residual = snapped, snapped_residual
    objective = sum(np.linalg.slogdet(np.array(g, dtype=float))[1]
                    for g in (certificate.gram_a, certificate.gram_b))  # log det A + log det B
    return certificate, dual, _report("putinar", n, tol, newton, residual, objective)


# ---------------------------------------------------------------------------
# Certificate verification and exact rationalization


def _is_rational(value: Number) -> bool:
    return isinstance(value, (Fraction, int))


def _common_numerators(values: Sequence[Number]) -> tuple[list[int], int]:
    """Integer numerators of exact values over the lcm of their denominators;
    ValueError if a value is not finite."""
    try:
        ratios = [v.as_integer_ratio() for v in values]
    except (OverflowError, ValueError):
        raise ValueError("weights, Gram entries and moments must be finite") from None
    den = math.lcm(*(q for _, q in ratios))
    return [p * (den // q) for p, q in ratios], den


def _generator_pairs(cert: HandelmanCertificate):
    """The (exponent, integer coefficient) pairs of each g^alpha, in weight order."""
    table = _generator_table(cert.dimension, cert.degree)
    try:
        return [table.pairs[table.position[alpha]] for alpha in cert.weights]
    except KeyError:
        raise ValueError("a weight exponent is not in the certificate's generators") from None


def _handelman_reconstruction(weights: Iterable[int], rows: Iterable) -> dict[Exponent, int]:
    """Integer coefficients of sum_a w_a g^alpha by exponent.

    ``weights`` are integer numerators over one common denominator, and
    ``rows`` yields the (exponent, integer coefficient) pairs of each
    generator power, in the order of ``weights``.
    """
    terms: dict[Exponent, int] = {}
    for w, row in zip(weights, rows):
        for e, c in row:
            terms[e] = terms.get(e, 0) + w * c
    return terms


def _gram_entries(cert: PutinarCertificate) -> list:
    return [v for gram in (cert.gram_a, cert.gram_b) for row in gram for v in row]


def _putinar_reconstruction(entries: Iterable[int], n: int) -> dict[Exponent, int]:
    """Integer coefficients of v_n' A v_n + (1-x^2) v_{n-1}' B v_{n-1} by exponent.

    ``entries`` are integer numerators over one common denominator, those of
    A, then of B, row by row.
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


def _residual_numerators(
    cert: Union[HandelmanCertificate, PutinarCertificate], target: AnyPoly
) -> tuple[dict, int]:
    """Integer numerators of target minus reconstruction by exponent, over one scale.

    The weights or Gram entries (rational, or dyadic doubles) become integer
    numerators over the lcm of their denominators, the reconstruction runs in
    integers, and the target joins it over one common denominator.
    """
    if isinstance(cert, HandelmanCertificate):
        dimension = cert.dimension
        nums, den = _common_numerators(list(cert.weights.values()))
        recon = _handelman_reconstruction(nums, _generator_pairs(cert))
    else:
        dimension = 1
        nums, den = _common_numerators(_gram_entries(cert))
        recon = _putinar_reconstruction(nums, cert.degree)
    if target.dimension != dimension:
        raise ValueError("target dimension does not match the certificate")
    scale = math.lcm(den, target.den)
    factor, target_factor = scale // den, scale // target.den
    want = target.sparse_nums
    residual = {
        e: want.get(e, 0) * target_factor - recon.get(e, 0) * factor
        for e in recon.keys() | want.keys()
    }
    return residual, scale


def _exact_residual(
    cert: Union[HandelmanCertificate, PutinarCertificate], target: AnyPoly
) -> Fraction:
    """Exact sup norm of the coefficient residual between reconstruction and target."""
    residual, scale = _residual_numerators(cert, target)
    return Fraction(max(map(abs, residual.values()), default=0), scale)


def verify_certificate(
    cert: Union[HandelmanCertificate, PutinarCertificate], target: AnyPoly
) -> float:
    """``_exact_residual`` rounded once to a double; ValueError if a weight or
    Gram entry is not finite."""
    return float(_exact_residual(cert, target))


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


def rationalize_dual(dual: DualFunctional) -> DualFunctional:
    """Best rational approximations of the dual vector, with denominators at most
    ``RATIONALIZE_DENOMINATOR_BOUND``."""
    return DualFunctional(
        tuple(
            v if isinstance(v, Fraction)
            else Fraction(float(v)).limit_denominator(RATIONALIZE_DENOMINATOR_BOUND)
            for v in dual.values
        )
    )


def exact_handelman(target: AnyPoly, n: int, dual: DualFunctional) -> HandelmanCertificate:
    """Exact-weight certificate from a rationalized dual vector.

    Weights are the reciprocal pairings 1/<lam, g^alpha> computed in exact
    arithmetic; combine with ``verify_certificate_exact`` to confirm that the
    numeric solve landed on an exactly reconstructing optimum.
    """
    d = target.dimension
    lam = rationalize_dual(dual).values
    table = _generator_table(d, n)
    if len(lam) != len(table.basis):
        raise ValueError("dual vector length does not match the working degree")
    # Pairings in integers over the lcm of the dual's denominators; the
    # weight 1/<lam, g^alpha> is then den / pairing numerator.
    lam_nums, den = _common_numerators(lam)
    weights: dict[Exponent, Fraction] = {}
    for alpha, pairing in zip(table.alphas, table.rows @ np.array(lam_nums, dtype=object)):
        if pairing <= 0:
            raise ValueError("rationalized dual is not strictly feasible")
        weights[alpha] = Fraction(den, pairing)
    return HandelmanCertificate(dimension=d, degree=n, weights=weights, target=target)


def exact_putinar(
    n: int, dual: DualFunctional, target: Optional[UPoly] = None
) -> PutinarCertificate:
    """Exact Gram pair from a rationalized moment vector: the inverses of its Hankel
    moment and (1 - x^2)-localizing matrices, by ``momatrix.invert_hankel``."""
    lam = rationalize_dual(dual).values
    if len(lam) != 2 * n + 1:
        raise ValueError("dual vector length does not match the working degree")
    gram_a = invert_hankel(lam)
    gram_b = invert_hankel([lam[k] - lam[k + 2] for k in range(2 * n - 1)])
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
