"""Dual Newton solvers for max-entropy positivity certificates.

Two certificate families are solved through their smooth convex duals:

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
names why it stopped (``SolverReport.stop``).  Each family is a barrier in
the basis the paper pairs with its domain, where the dual Hessian is well
conditioned (at the flagship optima (n+2)/2 for Handelman and 2n for
Putinar, against 3.7e10 and 2.7e16 at n=12 in monomial moments):

* Handelman and the simplex run in the degree-n Bernstein moments
  z_gamma = <y, b_gamma>, b_gamma = multinom(n; gamma) x^gamma in barycentric
  coordinates; g^alpha pairs with z through the nonnegative
  multinom(n-|alpha|; gamma-alpha) / multinom(n; gamma).
* Putinar runs in the Chebyshev moments z_k = <y, T_k>.  The entries
  <y, T_i T_j> of M_T(z) and <y, (1-x^2) T_i T_j> of L_T(z) have degree <= 2n,
  so node weights P'z, P mapping values at the 2n+1 Chebyshev nodes to T_0..T_2n
  coefficients, integrate them exactly.  The gradient of -log det M_T - log det
  L_T is -P times the Christoffel sum K_A(x,x) + (1-x^2) K_B(x,x) at the nodes
  (2n+1 at the arcsine optimum, CHEBY2), the Hessian P (K_A*K_A + K_B*K_B) P'
  over the node kernels: O(n^2) tables and O(n^3) work per Newton step.

Starts and targets cross into these bases exactly and are rounded once.
A double certificate soon misses the tolerance by its own rounding (the
Putinar pair at every n >= 4).  Then one exact step, ``_exact_step``, ships
the first certificate with exact residual 0 of two routes, else the double:

1. *Snap* the solver's z by ``_recover`` to rationals with denominators at
   most ``RATIONALIZE_DENOMINATOR_BOUND`` and build the certificate from them
   exactly (reciprocal pairings, or ``momatrix.invert_hankel``).  The flagship
   optima z_gamma = 1/C(n+d, d) and z = e_0 are rational in these bases at
   sizes where their monomial moments are not.  The dual returned is then
   this point, exactly; otherwise z, rounded once.
2. *Round* the double certificate in the style of Peyrl & Parrilo (TCS 409,
   2008): ``_round_handelman`` and ``_round_putinar`` move the exact residual
   into the top-degree weights or the Chebyshev Gram matrix A.

``exact_handelman`` and ``exact_putinar`` snap a double monomial dual the
same way in the solver's basis.  Every certificate is checked by one exact
residual, ``_exact_residual`` (Handelman weights in Bernstein coordinates); a
solve converges when that of the *returned* certificate is within the
tolerance.  Non-convergence is a diagnostic, not a proof: a target on the cone
boundary (or outside) makes the dual unbounded.  With ``logging`` at DEBUG,
each solve logs its family, degree, iteration count, stop reason and residual.
"""

from __future__ import annotations

import functools
import logging
import math
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

from . import _lazy_import
from .measures import dirichlet, functional_for
from .momatrix import NotPositiveDefiniteError, invert_hankel, is_positive_definite
from .polycore import (
    AnyPoly,
    ChebKind,
    Exponent,
    UPoly,
    cheb_table,
    monomials_of_degree,
    monomials_upto,
    multinomial,
    poly_from_sparse_nums,
    simplex_generator_power,
)


# Only the float solves need numpy; exact callers never pay for its import.
np = _lazy_import("numpy")

Number = Union[float, Fraction]

ARMIJO = 1e-4
MIN_STEP = 1e-20
DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 200
RATIONALIZE_DENOMINATOR_BOUND = 10**6
DIVERGENCE_BOUND = 1e8  # dual iterates past this norm indicate a boundary target
PLATEAU_LIMIT = 6  # consecutive non-improving steps once progress stops

_EPS = sys.float_info.epsilon
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
        return {"iterations": self.iterations, "residual": self.residual,
                "objective": self.objective, "converged": self.converged, "stop_reason": self.stop}


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


Certificate = Union[HandelmanCertificate, PutinarCertificate]


class NoInteriorCertificateError(RuntimeError):
    """Solver diagnostic; does not certify that no certificate exists."""

    def __init__(self, message: str, report: SolverReport) -> None:
        super().__init__(message)
        self.report = report


# ---------------------------------------------------------------------------
# Damped Newton driver


def _damped_newton(x0: np.ndarray, value: Callable[[np.ndarray], Optional[float]],
                   newton_system: Callable[[np.ndarray], Optional[tuple]],
                   tol: float, max_iter: int):
    """Minimize a barrier objective from a strictly feasible x0 by damped Newton.

    ``value(x)`` is the objective, or None outside the open domain;
    ``newton_system(x)`` is None where the Newton system cannot be formed,
    else ``(gradient, hessian)``, the Hessian a thunk called only when a step
    is taken (``np.linalg.solve`` with Armijo backtracking).  The gradient is
    the coefficient residual of the primal in the barrier's basis.  Stops
    when its sup norm falls below tol/10, when progress plateaus, when the
    iterates diverge (boundary target) or when the budget runs out.  Returns
    ``(x, iterations, steps, dual_values, stop)``, the stop word one of
    ``tol plateau diverged budget line_search singular``.
    """
    x = x0
    current = value(x)
    if current is None:
        raise ValueError("initial dual point is not strictly feasible")
    inner_tol = tol * 0.1
    steps: list[float] = []
    history: list[float] = []
    stop = "budget"
    best = previous = math.inf
    flat = True  # whether the last step's predicted decrease was below resolution
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
        # Progress is a new best residual or, while the objective still falls
        # measurably, 10% below the last (damped steps can first raise it).
        if residual < 0.9 * best or (residual < 0.9 * previous and not flat):
            best = min(best, residual)
            no_improve = 0
        else:
            no_improve += 1
            if no_improve >= PLATEAU_LIMIT:
                stop = "plateau"
                break
        previous = residual
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


def _best_rational(num: int, den: int, bound: int) -> tuple[int, int]:
    """``Fraction(num, den).limit_denominator(bound)`` as a (numerator,
    denominator) pair, for coprime num and den > 0: the same continued
    fraction, with the closer of its two last candidates chosen in integers."""
    if den <= bound:
        return num, den
    p0, q0, p1, q1 = 0, 1, 1, 0
    n, d = num, den
    while True:
        a = n // d
        q2 = q0 + a * q1
        if q2 > bound:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        n, d = d, n - a * d
    k = (bound - q0) // q1
    # The candidates (p0 + k p1)/(q0 + k q1) and p1/q1 lie 1/(q1 (q0 + k q1))
    # apart, and p1/q1 lies d/(q1 den) from num/den; ties go to p1/q1.
    if 2 * d * (q0 + k * q1) <= den:
        return p1, q1
    return p0 + k * p1, q0 + k * q1


def _recover(z: Iterable[Number]) -> Optional[list[Fraction]]:
    """The best rationals p/q, q <= B = ``RATIONALIZE_DENOMINATOR_BOUND``, of the
    z_k if each z_k lies within 1/(2qB) of its p/q, else None.  Any other such
    fraction is at least 1/(qB) from p/q, so p/q is the one z_k rounds from;
    a point that is not rational usually fails within its first few moments."""
    bound = RATIONALIZE_DENOMINATOR_BOUND
    point = []
    for v in z:
        num, den = v.as_integer_ratio()
        p, q = _best_rational(num, den, bound)
        # 2B |p/q - num/den| q < 1, in integers
        if 2 * bound * abs(p * den - num * q) >= den:
            return None
        point.append(Fraction(p, q))
    return point


def _exact_step(double, target: AnyPoly, tol: float, stop: str, z: np.ndarray, table,
                build: Callable, round_: Callable):
    """``(certificate, exact residual, dual in monomial moments, dual as z or its snap)``, as shipped.

    Unless the double certificate meets ``tol`` or the iterates diverged, the
    first of ``build(_recover(z))`` and, after a ``tol`` or ``plateau`` stop,
    ``round_()`` with exact residual 0 ships (each gives None or raises
    ``NotPositiveDefiniteError`` if it has none): rounding repairs a converged
    solve's rounding, and would pass off any earlier stop on an interior target.
    """

    def exact(route):
        try:
            cert = route()
        except NotPositiveDefiniteError:
            return None
        return cert if cert is not None and _exact_residual(cert, target) == 0 else None

    residual = _exact_residual(double, target)
    if residual > tol and stop != "diverged":
        point = _recover(z)
        snapped = None if point is None else exact(lambda: build(point))
        if snapped is not None:
            return snapped, Fraction(0), DualFunctional(tuple(table.monomial_moments(point))), point
        rounded = exact(round_) if stop in ("tol", "plateau") else None
        if rounded is not None:
            double, residual = rounded, Fraction(0)
    return double, residual, DualFunctional(tuple(map(float, table.monomial_moments(z)))), z


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


def _sparse_sum(terms: Iterable[tuple[Number, Iterable[tuple[int, Number]]]], width: int) -> list:
    """sum_i k_i row_i over pairs (k_i, row_i) of sparse (column, value) rows, as a dense list."""
    out = [0] * width
    for k, row in terms:
        for j, c in row:
            out[j] += k * c
    return out


class _GeneratorTable:
    """The generator powers of degree <= n on the d-simplex, in Bernstein coordinates.

    Gamma runs over ``tops``, the alphas of degree n (g^gamma is x^gamma).  Homogenized,
    g^alpha = x^alpha (x_1 + ... + x_{d+1})^(n-|alpha|) is sum_g lift[a, g] x^gamma with
    lift[a, g] = multinom(n-|alpha|; gamma-alpha) > 0 once for each gamma above alpha.
    ``lift[a]`` holds those (g, integer) pairs and ``pairing`` the doubles lift[a, g] /
    multinom(n; gamma) that pair g^alpha with z.  A monomial x^beta, beta in ``basis``,
    is g^(beta, 0), so its row of ``lift`` homogenizes it; ``top_terms`` inverts that
    map, the monomials of each x^gamma in (basis index, integer) pairs.
    """

    def __init__(self, d: int, n: int) -> None:
        if d < 1 or n < 0:
            raise ValueError("dimension must be positive and degree nonnegative")
        self.d, self.n = d, n
        self.alphas = monomials_upto(d + 1, n)
        self.basis = monomials_upto(d, n)
        self.position = {alpha: i for i, alpha in enumerate(self.alphas)}
        top_start = len(self.alphas) - len(self.basis)
        self.tops = self.alphas[top_start:]
        self.multinom = [multinomial(gamma) for gamma in self.tops]
        deltas = [[(delta, multinomial(delta)) for delta in monomials_of_degree(d + 1, k)]
                  for k in range(n + 1)]
        self.lift = tuple(
            tuple((self.position[tuple(map(operator.add, alpha, delta))] - top_start, c)
                  for delta, c in deltas[n - sum(alpha)]) for alpha in self.alphas)
        self.pairing = np.array([_sparse_sum([(1, [(g, c / self.multinom[g]) for g, c in row])],
                                             len(self.tops)) for row in self.lift], dtype=float)
        self.pairing.setflags(write=False)
        index = {beta: i for i, beta in enumerate(self.basis)}
        self.top_terms = tuple(
            tuple((index[e], c) for e, c in simplex_generator_power(d, gamma).sparse_nums.items())
            for gamma in self.tops)

    def homogenized(self, beta: Exponent) -> tuple[tuple[int, int], ...]:
        """x^beta as sum_g lift[(beta, 0), g] x^gamma, in (g, integer) pairs."""
        return self.lift[self.position[beta + (0,)]]

    def bernstein_moments(self, y: Sequence[Number]) -> list[Fraction]:
        """z_gamma = multinom(n; gamma) <y, g^gamma>, exactly."""
        nums, den = _common_numerators([v if _is_rational(v) else float(v) for v in y])
        return [Fraction(m * sum([c * nums[i] for i, c in row]), den)
                for m, row in zip(self.multinom, self.top_terms)]

    def monomial_moments(self, z: Sequence[Number]) -> list[Fraction]:
        """y_beta = sum_g lift[(beta, 0), g] z_gamma / multinom(n; gamma), exactly."""
        nums, den = _common_numerators([Fraction(v) / m for v, m in zip(z, self.multinom)])
        return [Fraction(sum([c * nums[g] for g, c in self.homogenized(beta)]), den)
                for beta in self.basis]

    def bernstein_coefficients(self, p: AnyPoly) -> list[Fraction]:
        """The coefficients of p in the degree-n Bernstein basis, exactly; terms of
        degree above n are dropped."""
        lifted = _sparse_sum([(c, self.homogenized(beta)) for beta, c in p.sparse_nums.items()
                              if sum(beta) <= self.n], len(self.tops))
        return [Fraction(v, p.den * m) for v, m in zip(lifted, self.multinom)]


# One table per (d, n), shared by the solve, the exact certificate and the checks.
_generator_table = functools.lru_cache(maxsize=16)(_GeneratorTable)


def _handelman_from_bernstein(table: _GeneratorTable, z: Sequence[Fraction],
                              target: AnyPoly) -> Optional[HandelmanCertificate]:
    """The weights 1/<y, g^alpha> of the rational Bernstein moments z, exactly;
    None unless every pairing is positive."""
    # Pairings in integers over one denominator of the <y, x^gamma> = z_gamma / multinom(n; gamma)
    nums, den = _common_numerators([v / m for v, m in zip(z, table.multinom)])
    weights: dict[Exponent, Fraction] = {}
    for alpha, row in zip(table.alphas, table.lift):
        pairing = sum([c * nums[g] for g, c in row])
        if pairing <= 0:
            return None
        weights[alpha] = Fraction(den, pairing)
    return HandelmanCertificate(table.d, table.n, weights, target)


def _round_handelman(cert: HandelmanCertificate, target: AnyPoly,
                     table: _GeneratorTable) -> Optional[HandelmanCertificate]:
    """The certificate with its exact residual moved into the top-degree weights.

    The residual, homogenized to degree n, is sum_gamma R_gamma x^gamma
    (``_bernstein_residual``), and x^gamma is g^gamma for |gamma| = n: adding
    R_gamma to the top-degree weights gives rational weights with zero
    residual.  None if a weight would not stay positive.
    """
    _, residual, _, scale = _bernstein_residual(cert, target)
    weights = {alpha: Fraction(w) for alpha, w in cert.weights.items()}
    for gamma, correction in zip(table.tops, residual):
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


def _solve_handelman_family(family: str, d: int, n: int, target_poly: AnyPoly,
                            initial: Optional[Sequence[Number]], tol: float, max_iter: int):
    """Handelman or simplex solve in Bernstein moments, then the exact step."""
    table = _generator_table(d, n)
    if initial is None:
        # Dirichlet(2, 2) on [0,1] (the density 6x(1-x)) and Dirichlet(2, 1,
        # ..., 1) on the simplex: strictly feasible, away from the flagship optima.
        start = functional_for(dirichlet((2, 2) if d == 1 else (2,) + (1,) * d))
        initial = [start.moment(beta) for beta in table.basis]
    value, newton_system, pairings = _handelman_barrier(
        table.pairing, _doubles_of(table.bernstein_coefficients, target_poly, _TARGET_RANGE)
    )
    z0 = _doubles_of(table.bernstein_moments, initial, _START_FORM)
    newton = _damped_newton(z0, value, newton_system, tol, max_iter)
    z, stop = newton[0], newton[-1]
    double = HandelmanCertificate(d, n, dict(zip(table.alphas, (1.0 / pairings(z)).tolist())),
                                  target_poly)
    certificate, residual, dual, _ = _exact_step(
        double, target_poly, tol, stop, z, table,
        lambda point: _handelman_from_bernstein(table, point, target_poly),
        lambda: _round_handelman(double, target_poly, table))
    objective = sum(math.log(w) for w in certificate.weights.values())
    return certificate, dual, _report(family, n, tol, newton, residual, objective)


def solve_handelman(p: UPoly, n: int, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER,
                    initial: Optional[Sequence[float]] = None):
    """Max-entropy Handelman certificate of p over the generators of [0,1].

    Solves sup { sum log c_ij : p = sum c_ij x^i (1-x)^j, (i, j) in N^2_n }
    through its dual.  Requires deg(p) <= n; converges when p lies in the
    interior of the cone (strictly positive on [0,1] up to degree slack).
    ``initial`` is a strictly feasible start in monomial moments.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if p.dimension != 1:
        raise ValueError(f"target must be univariate, got dimension {p.dimension}")
    if p.degree > n:
        raise ValueError(f"target degree {p.degree} exceeds n = {n}")
    return _solve_handelman_family("handelman", 1, n, p, initial, tol, max_iter)


def solve_simplex(d: int, n: int, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER,
                  initial: Optional[Sequence[float]] = None):
    """Max-entropy certificate of the constant C(d+1+n, n) on the simplex.

    Same dual Newton scheme as ``solve_handelman`` with generator powers
    g^alpha, alpha in N^(d+1)_n.  At every n the optimal dual is the uniform
    probability measure, Bernstein moments z_gamma = 1/C(n+d, d), and the
    optimal weights are the reciprocal uniform-measure moments of the
    generators, which sum the g^alpha to C(d+1+n, n) by the multinomial
    theorem.
    """
    if d < 1 or n < 1:
        raise ValueError("d and n must be >= 1")
    target = poly_from_sparse_nums(d, {(0,) * d: math.comb(d + 1 + n, n)}, 1)
    return _solve_handelman_family("simplex", d, n, target, initial, tol, max_iter)


# ---------------------------------------------------------------------------
# Putinar Gram pair on [-1,1]


class _ChebyshevTable:
    """The Chebyshev basis up to degree 2n and the node tables of the Putinar barrier.

    ``cheb[k, l]`` is the integer coefficient of x^l in T_k, so z = cheb @ y;
    ``monomial[l, k] / 4^n`` is the nonnegative coefficient of T_k in x^l, so
    y = monomial @ z / 4^n.  Row m of ``values`` holds T_j(x_m), j <= n, then
    sin(theta_m) T_j(x_m), j < n, at the nodes x_m = cos(theta_m), theta_m =
    (2m+1) pi / (2(2n+1)); ``transform`` maps node values to the T_0..T_2n
    coefficients of their interpolant, exact up to degree 2n.
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
        # T_k(x_m) = cos(k theta_m), the angle k (2m+1) reduced mod 4(2n+1) in integers first.
        angles = np.outer(2 * np.arange(size) + 1, np.arange(size)) % (4 * size) * (np.pi / (2 * size))
        cosines, sines = np.cos(angles), np.sin(angles[:, 1:2])
        self.values = np.hstack([cosines[:, : n + 1], sines * cosines[:, :n]])
        # Discrete orthogonality: sum_m T_k(x_m) T_j(x_m) = (2n+1)/2 [k == j > 0], 2n+1 at 0.
        self.transform = np.r_[1, np.full(2 * n, 2)][:, None] * cosines.T / size
        self.values.setflags(write=False)
        self.transform.setflags(write=False)

    def gram(self, z: np.ndarray) -> np.ndarray:
        """M_T(z) (+) L_T(z) as values' diag(transform' z) values, off-diagonal blocks zeroed."""
        gram = self.values.T @ (self.values * (z @ self.transform)[:, None])
        gram[: self.n + 1, self.n + 1 :] = gram[self.n + 1 :, : self.n + 1] = 0.0
        return gram

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

    One Cholesky factor C of ``table.gram(z)`` and F = C^{-1} serve both blocks.
    R = F values' has the Christoffel sums K_A(x,x) + (1 - x^2) K_B(x,x) at the
    nodes as its squared column norms, so the gradient is t minus their
    transform, and the Hessian is transform (K_A*K_A + K_B*K_B) transform' over
    the node kernels K = R' R of each block of rows.  ``inverses(z)`` is
    [M_T^{-1}, L_T^{-1}], the diagonal blocks of F'F, or None outside the domain.
    """
    n, values, transform = table.n, table.values, table.transform

    @_newest
    def factor(z):
        try:
            return np.linalg.cholesky(table.gram(z))
        except np.linalg.LinAlgError:
            return None

    def value(z):  # None outside the domain
        chol = factor(z)
        if chol is not None:
            return t @ z - 2.0 * np.log(np.diag(chol)).sum()

    @_newest
    def inverses(z):
        chol = factor(z)
        if chol is not None:
            inv = np.linalg.inv(chol)
            return [f.T @ f for f in (inv[: n + 1, : n + 1], inv[n + 1 :, n + 1 :])]

    def newton_system(z):  # None outside the domain
        chol = factor(z)
        if chol is not None:
            r = np.linalg.inv(chol) @ values.T
            return t - transform @ (r * r).sum(axis=0), lambda: transform @ sum(
                (block.T @ block) ** 2 for block in (r[: n + 1], r[n + 1 :])) @ transform.T

    return value, newton_system, inverses


def _round_putinar(inverses: Sequence[np.ndarray], target: UPoly,
                   table: _ChebyshevTable) -> Optional[PutinarCertificate]:
    """The double Chebyshev Gram pair (A, B), read exactly with upper triangles
    mirrored, with the exact residual of Q' A Q and Q' B Q over the T_j
    coefficients Q, as c in T_0..T_2n, moved into A.  By T_i T_j = (T_{i+j} +
    T_{|i-j|})/2, from the top down: 2 c_2n into A[n][n] (lowering c_0), c_k,
    n < k < 2n, into A[k-n][n] and A[n][k-n] (lowering c_{2n-k}), c_k/2,
    0 < k <= n, into A[0][k] and A[k][0], and c_0 into A[0][0].  None unless
    A and B are positive definite; else Q' A Q and Q' B Q."""
    n, q = table.n, table.cheb
    a, b = (np.array([[Fraction(w[min(i, j), max(i, j)]) for j in range(len(w))]
                      for i in range(len(w))], dtype=object) for w in inverses)
    gram_b = _congruence(q[:n, :n], b)
    residual, scale = _putinar_residual(
        PutinarCertificate(n, _congruence(q[: n + 1, : n + 1], a), gram_b), target)
    c = table.chebyshev_coefficients(poly_from_sparse_nums(1, residual, scale))
    a[n, n] += 2 * c[2 * n]
    c[0] -= c[2 * n]
    for k in range(2 * n - 1, n, -1):
        a[k - n, n] += c[k]
        a[n, k - n] += c[k]
        c[2 * n - k] -= c[k]
    for k in range(1, n + 1):
        a[0, k] += c[k] / 2
        a[k, 0] += c[k] / 2
    a[0, 0] += c[0]
    if not (is_positive_definite(a) and is_positive_definite(b)):
        return None
    return PutinarCertificate(n, _congruence(q[: n + 1, : n + 1], a), gram_b, target)


def _congruence(q: np.ndarray, gram: np.ndarray) -> tuple[tuple[Fraction, ...], ...]:
    """q' gram q exactly, for an integer q and a rational gram, in integers over one denominator."""
    nums, den = _common_numerators(list(gram.ravel()))
    product = q.T @ np.array(nums, dtype=object).reshape(gram.shape) @ q
    return tuple(tuple(Fraction(v, den) for v in row) for row in product)


def solve_putinar(n: int, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER,
                  target: Optional[UPoly] = None, initial: Optional[Sequence[float]] = None):
    """Max-entropy Putinar Gram pair for a target positive on [-1,1].

    Defaults to the constant target 2n+1.  Minimizes <y, target> -
    log det M_n(y) - log det M_{n-1}(g.y) over the moment vectors y whose
    Hankel and localizing matrices are positive definite, from the uniform
    measure on [-1,1] (or ``initial``, in monomial moments).  At the optimum
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
    # The driver keeps z where the Cholesky factor exists, so the inverses do.
    # v' Q' W Q v returns them to the monomial basis through the T_j coefficients Q.
    q = table.cheb[: n + 1, : n + 1].astype(float)
    chebyshev_grams = inverses(z)
    double = PutinarCertificate(n, *(tuple(map(tuple, (b.T @ w @ b).tolist()))
                                     for b, w in zip((q, q[:n, :n]), chebyshev_grams)), target)
    certificate, residual, dual, point = _exact_step(
        double, target, tol, stop, z, table,
        lambda point: _hankel_inverse_pair(n, table.monomial_moments(point), target),
        lambda: _round_putinar(chebyshev_grams, target, table))
    # log det A + log det B of the dual's pair: log det M_T^{-1} from the Cholesky factor,
    # and log det Q^2 = (n(n-1) + (n-1)(n-2)) log 2 exactly, as the T_j lead with 2^(j-1).
    chol = np.linalg.cholesky(table.gram(np.array(point, dtype=float)))
    objective = 2 * (n - 1) ** 2 * math.log(2) - 2 * np.log(np.diag(chol)).sum()
    return certificate, dual, _report("putinar", n, tol, newton, residual, objective)


# ---------------------------------------------------------------------------
# Certificate verification and exact certificates from a dual


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


def _gram_entries(cert: PutinarCertificate) -> list:
    """The entries of A, then of B, row by row; ValueError unless n >= 0, A
    is (n+1) x (n+1) and B is n x n."""
    n = cert.degree
    if n < 0:
        raise ValueError(f"a Putinar certificate's degree must be >= 0, got {n}")
    for name, gram, size in (("gram_a", cert.gram_a, n + 1), ("gram_b", cert.gram_b, n)):
        if len(gram) != size or any(len(row) != size for row in gram):
            raise ValueError(f"{name} of a degree-{n} Putinar certificate must be {size}x{size}")
    return [v for gram in (cert.gram_a, cert.gram_b) for row in gram for v in row]


def _bernstein_residual(cert: HandelmanCertificate, target: AnyPoly):
    """``(table, R, above, scale)``: target - sum_a w_a g^alpha in integers over one
    scale of the weights (rational, or dyadic doubles) and the target.  Homogenized
    to degree n it is sum_gamma R_gamma x^gamma, R = homog' t - lift' w, as a target
    term x^beta is g^(beta, 0) (``homogenized``); ``above`` holds its terms of degree
    above n."""
    nums, den = _common_numerators(list(cert.weights.values()))
    table = _generator_table(cert.dimension, cert.degree)
    if not cert.weights.keys() <= table.position.keys():
        raise ValueError("a weight exponent is not in the certificate's generators")
    if target.dimension != cert.dimension:
        raise ValueError("target dimension does not match the certificate")
    scale = math.lcm(den, target.den)
    factor, target_factor = scale // den, scale // target.den
    terms = [(-w * factor, table.lift[table.position[alpha]])
             for alpha, w in zip(cert.weights, nums)]
    terms += [(c * target_factor, table.homogenized(beta))
              for beta, c in target.sparse_nums.items() if sum(beta) <= table.n]
    above = [c * target_factor for beta, c in target.sparse_nums.items() if sum(beta) > table.n]
    return table, _sparse_sum(terms, len(table.tops)), above, scale


def _putinar_residual(cert: PutinarCertificate, target: UPoly) -> tuple[dict, int]:
    """Integer numerators of target - v_n' A v_n - (1-x^2) v_{n-1}' B v_{n-1} by exponent
    over one scale of the entries of A, then of B (rational, or dyadic doubles), and the target."""
    nums, den = _common_numerators(_gram_entries(cert))
    if target.dimension != 1:
        raise ValueError("target dimension does not match the certificate")
    n, values, scale = cert.degree, iter(nums), math.lcm(den, target.den)
    sigma0, sigma1 = [0] * (2 * n + 1), [0] * (2 * n + 1)
    for size, sigma in ((n + 1, sigma0), (n, sigma1)):
        for i in range(size):
            for j in range(size):
                sigma[i + j] += next(values)
    # g = 1 - x^2 contributes sigma1 shifted by 0 and -x^2
    residual = {(k,): (lowered - c - v) * (scale // den)
                for k, (c, v, lowered) in enumerate(zip(sigma0, sigma1, [0, 0] + sigma1))}
    for e, c in target.sparse_nums.items():
        residual[e] = residual.get(e, 0) + c * (scale // target.den)
    return residual, scale


def _exact_residual(cert: Certificate, target: AnyPoly) -> Fraction:
    """Exact sup norm of the coefficient residual between reconstruction and target."""
    if isinstance(cert, PutinarCertificate):
        residual, scale = _putinar_residual(cert, target)
        return Fraction(max(map(abs, residual.values()), default=0), scale)
    table, residual, terms, scale = _bernstein_residual(cert, target)
    if any(residual):
        terms += _sparse_sum(zip(residual, table.top_terms), len(table.basis))
    return Fraction(max(map(abs, terms), default=0), scale)


def verify_certificate(cert: Certificate, target: AnyPoly) -> float:
    """``_exact_residual`` rounded once to a double; ValueError if a weight or
    Gram entry is not finite."""
    return float(_exact_residual(cert, target))


def verify_certificate_exact(cert: Certificate, target: AnyPoly) -> bool:
    """Whether a rational-valued certificate reconstructs the target exactly."""
    if isinstance(cert, HandelmanCertificate):
        if not all(_is_rational(w) for w in cert.weights.values()):
            raise TypeError("certificate weights are not rational-valued")
    elif not all(_is_rational(v) for v in _gram_entries(cert)):
        raise TypeError("certificate Gram entries are not rational-valued")
    return _exact_residual(cert, target) == 0


def exact_handelman(target: AnyPoly, n: int, dual: DualFunctional) -> HandelmanCertificate:
    """Exact-weight certificate from a monomial dual, snapped in Bernstein moments
    by ``_recover`` unless it is rational: the reciprocal pairings 1/<lam, g^alpha>.

    A solver's dual is rational when its certificate came from the snap.  The
    rounding of a double dual, mapped into Bernstein moments, outgrows the
    snap from n = 24 for the flagship on [0,1].
    """
    table = _generator_table(target.dimension, n)
    if len(dual.values) != len(table.basis):
        raise ValueError("dual vector length does not match the working degree")
    z = table.bernstein_moments(dual.values)
    point = z if all(map(_is_rational, dual.values)) else _recover(z)
    certificate = None if point is None else _handelman_from_bernstein(table, point, target)
    if certificate is None:
        raise ValueError("dual does not snap to a strictly feasible point")
    return certificate


def _hankel_inverse_pair(n: int, lam: Sequence[Fraction], target: Optional[UPoly]):
    """The inverses of the Hankel moment and (1 - x^2)-localizing matrices of lam."""
    localized = [lam[k] - lam[k + 2] for k in range(2 * n - 1)]
    return PutinarCertificate(n, invert_hankel(lam), invert_hankel(localized), target)


def exact_putinar(n: int, dual: DualFunctional,
                  target: Optional[UPoly] = None) -> PutinarCertificate:
    """Exact Gram pair from a monomial dual, snapped in Chebyshev moments by
    ``_recover`` unless it is rational: the inverses of its Hankel and
    localizing matrices.  A rational dual whose matrices are not positive
    definite raises ``NotPositiveDefiniteError``; a double one, ValueError
    (a double flagship dual outgrows the snap from n = 32)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    lam = dual.values
    if len(lam) != 2 * n + 1:
        raise ValueError("dual vector length does not match the working degree")
    if all(map(_is_rational, lam)):
        return _hankel_inverse_pair(n, lam, target)
    table = _chebyshev_table(n)
    point = _recover(table.chebyshev_moments(lam))
    if point is None:
        raise ValueError("dual does not snap to rational Chebyshev moments")
    try:
        return _hankel_inverse_pair(n, table.monomial_moments(point), target)
    except NotPositiveDefiniteError:
        raise ValueError("dual does not snap to a strictly feasible point") from None


# ---------------------------------------------------------------------------
# JSON serialization


def _value_to_json(value: Number):
    return str(value) if _is_rational(value) else float(value)


def _value_from_json(raw) -> Number:
    return Fraction(raw) if isinstance(raw, str) else float(raw)


def certificate_to_json(cert: Certificate) -> dict:
    if isinstance(cert, HandelmanCertificate):
        weights = [{"alpha": list(alpha), "value": _value_to_json(w)}
                   for alpha, w in cert.weights.items()]
        return {"type": "handelman", "d": cert.dimension, "n": cert.degree, "weights": weights}
    return {"type": "putinar", "n": cert.degree,
            "gramA": [[_value_to_json(v) for v in row] for row in cert.gram_a],
            "gramB": [[_value_to_json(v) for v in row] for row in cert.gram_b]}


def certificate_from_json(obj: Mapping):
    """The certificate a ``certificate_to_json`` payload describes; ValueError if malformed."""
    try:
        if obj["type"] == "handelman":
            weights = {}
            for entry in obj["weights"]:
                alpha = tuple(entry["alpha"])
                if alpha in weights:
                    raise ValueError(f"certificate JSON lists alpha {list(alpha)} twice")
                weights[alpha] = _value_from_json(entry["value"])
            return HandelmanCertificate(int(obj["d"]), int(obj["n"]), weights)
        if obj["type"] == "putinar":
            gram_a, gram_b = (tuple(tuple(map(_value_from_json, row)) for row in obj[key])
                              for key in ("gramA", "gramB"))
            return PutinarCertificate(degree=int(obj["n"]), gram_a=gram_a, gram_b=gram_b)
    except KeyError as missing:
        raise ValueError(f"certificate JSON has no {missing.args[0]!r} field") from None
    raise ValueError(f"unknown certificate type {obj['type']!r}")
