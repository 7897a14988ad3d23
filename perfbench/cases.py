"""Seeded inputs, cases and output checks for the four benchmark workloads.

A workload is three lists of cases: ``accept`` (the paper's acceptance
sizes), ``stretch`` (larger sizes that expose exact-arithmetic growth) and
``cli`` (argv lists run through the in-process ``cli.run``).  Each case is
one call chain into the library.  Its check runs outside the timed region:
closed-form constants, independent cross-checks, exact residuals, and the
sha256 of the canonical JSON of every exact output against ``digests.json``.

The seed chooses the partition evaluation points, the case order within
each list, the interior solver targets and the simplex solver start points.
The program only sees the generated inputs.  Every library call goes
through a module attribute (``identities.verify_pell``, not a bound copy)
so that the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional

from unitycert import cli, identities, maxent, measures, momatrix, polycore
from unitycert.polycore import ChebKind, MPoly, UPoly, monomials_upto

POINT_DENOMINATOR = 1024
POINTS_PER_CASE = 3
FLAGSHIP_DUAL_TOL = 1e-6


class CheckFailed(Exception):
    """An output that contradicts its closed form, cross-check or digest."""


@dataclass
class Case:
    """One timed call chain into the library and its untimed checks.

    ``id`` is stable across seeds.  ``check`` raises CheckFailed on a wrong
    output.  ``digest`` returns the canonical exact part of the output,
    checked against ``digests.json`` where that holds a digest for ``id``
    (a solve that fails at the recorded version has none); cases whose
    output depends on the seed have no ``digest``.  ``observe`` returns
    per-layer counts for the traced run.
    """

    id: str
    call: Callable[[], Any]
    check: Callable[[Any], None]
    digest: Optional[Callable[[Any], Any]] = None
    observe: Optional[Callable[[Any], dict]] = None


def canonical_digest(obj: Any) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _poly_json(p) -> Any:
    if isinstance(p, UPoly):
        return [str(c) for c in p.coeffs]
    return sorted([list(e), str(c)] for e, c in p.terms.items())


# ---------------------------------------------------------------------------
# Seeded inputs


def _interval_points(rng: random.Random, low: int) -> list[list[float]]:
    """Points m/2^k strictly inside [low, 1] (low is 0 or -1), m odd.

    An odd numerator keeps every point's denominator, and with it the cost of
    exact evaluation, the same for every seed.
    """
    scale = POINT_DENOMINATOR if low == 0 else POINT_DENOMINATOR // 2
    return [[(2 * rng.randrange(low * scale // 2, scale // 2) + 1) / scale]
            for _ in range(POINTS_PER_CASE)]


def _simplex_points(rng: random.Random, d: int) -> list[list[float]]:
    """Interior points of the canonical d-simplex with coordinates m/1024, m odd."""
    bound = POINT_DENOMINATOR // (2 * (d + 1))  # keeps the coordinate sum below 1
    return [[(2 * rng.randrange(bound) + 1) / POINT_DENOMINATOR for _ in range(d)]
            for _ in range(POINTS_PER_CASE)]


def _handelman_target(rng: random.Random, n: int) -> UPoly:
    """Positive rational combination of all x^i (1-x)^j, i+j <= n: interior."""
    one_minus_x = UPoly.from_coeffs([1, -1])
    target = UPoly.zero()
    for i, j in monomials_upto(2, n):
        weight = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        target = target + (UPoly.x() ** i) * (one_minus_x ** j) * weight
    return target


def _rational_pd(rng: random.Random, size: int) -> list[list[Fraction]]:
    m = [[Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(size)] for _ in range(size)]
    return [
        [sum((m[i][k] * m[j][k] for k in range(size)), Fraction(size if i == j else 0))
         for j in range(size)]
        for i in range(size)
    ]


def _putinar_coeffs(gram_a, gram_b, n: int) -> list:
    """Coefficients of v_n' A v_n + (1-x^2) v_{n-1}' B v_{n-1}, low degree first."""
    coeffs = [Fraction(0)] * (2 * n + 1)
    for i in range(n + 1):
        for j in range(n + 1):
            coeffs[i + j] += Fraction(gram_a[i][j])
    for i in range(n):
        for j in range(n):
            value = Fraction(gram_b[i][j])
            coeffs[i + j] += value
            coeffs[i + j + 2] -= value
    return coeffs


def _putinar_target(rng: random.Random, n: int) -> UPoly:
    """v'Av + (1-x^2) v'Bv with rational positive-definite A, B: interior."""
    return UPoly.from_coeffs(_putinar_coeffs(_rational_pd(rng, n + 1), _rational_pd(rng, n), n))


def _dirichlet_moments(alpha: list[int], basis) -> list[float]:
    """Moments of Dirichlet(alpha) at the monomials of the first d coordinates."""
    total = sum(alpha)
    values = []
    for beta in basis:
        value = Fraction(math.factorial(total - 1), math.factorial(total - 1 + sum(beta)))
        for a, b in zip(alpha, beta):
            value *= Fraction(math.factorial(a - 1 + b), math.factorial(a - 1))
        values.append(float(value))
    return values


def _simplex_start(rng: random.Random, d: int, n: int) -> list[float]:
    """Strictly feasible dual start: moments of a seeded Dirichlet law."""
    alpha = [rng.randint(1, 3) for _ in range(d + 1)]
    return _dirichlet_moments(alpha, monomials_upto(d, n))


# ---------------------------------------------------------------------------
# Exact workloads


def _identity_case(case_id: str, call, constant: Optional[Fraction],
                   extra: Optional[Callable[[Any], None]] = None) -> Case:
    def check(report):
        _expect(report.holds, f"identity does not hold ({report.residual_terms} residual terms)")
        if constant is not None:
            _expect(report.constant == constant, f"constant {report.constant} != {constant}")
        if extra is not None:
            extra(report)

    return Case(case_id, call, check, digest=lambda report: report.to_json())


def _pell(n):
    return _identity_case(f"pell n={n}", lambda: identities.verify_pell(n), Fraction(1))


def _unity01(n):
    return _identity_case(f"unity-01 n={n}", lambda: identities.verify_unity_01(n),
                          Fraction((n + 1) * (n + 2), 2))


def _unity_interval(variant, n):
    constant = Fraction(1) if variant is identities.UnityVariant.UNITY1 else Fraction(2 * n + 1)
    return _identity_case(f"unity-interval {variant.value} n={n}",
                          lambda: identities.verify_unity_interval(n, variant), constant)


def _simplex_unity(d, n):
    constant = Fraction(math.comb(d + 1 + n, n)) if n <= 2 else None
    return _identity_case(f"simplex-unity d={d} n={n}",
                          lambda: identities.verify_simplex_unity(d, n), constant)


def _simplex_equilibrium(normalization, n):
    mass = 2 if normalization is measures.SimplexNormalization.PI_DENSITY else 1
    trace_constant = Fraction((n + 1) * (2 * n + 1), mass)

    def paper_constant(report):
        _expect(report.expected_constant == (n + 1) ** 2, "expected_constant is not (n+1)^2")

    return _identity_case(f"simplex-equilibrium {normalization.value} n={n}",
                          lambda: identities.verify_simplex_equilibrium(n, normalization),
                          trace_constant, paper_constant)


def _partition(domain: str, n: int, points, d: int = 2) -> Case:
    if domain == "interval01":
        members = (n + 1) * (n + 2) // 2
    elif domain == "interval11":
        members = 2 * n + 1
    else:
        members = math.comb(d + 1 + n, n)

    def check(report):
        _expect(len(report["members"]) == members, f"{len(report['members'])} members, want {members}")
        _expect(len(report["evaluations"]) == len(points), "missing evaluations")
        for evaluation in report["evaluations"]:
            _expect(all(v >= 0 for v in evaluation["values"]), "negative partition member")
            _expect(abs(evaluation["sum"] - 1.0) <= 1e-9, f"members sum to {evaluation['sum']}")

    label = f"partition {domain} n={n}" + (f" d={d}" if domain == "simplex" else "")
    return Case(label, lambda: cli.emit_partition(domain, n, d=d, points=points), check,
                digest=lambda report: report["members"])


@functools.cache
def _arcsine_reference(n: int) -> UPoly:
    """Independent form: the sum of squared orthonormal Chebyshev polynomials."""
    total = UPoly.zero()
    for j in range(n + 1):
        total = total + polycore.cheb_orthonormal_square(ChebKind.FIRST, j)
    return total


@functools.cache
def _lebesgue_reference(n: int) -> UPoly:
    """Independent form: sum of (2j+1) P~_j^2 over the shifted Legendre P~_j."""
    total = UPoly.zero()
    for j in range(n + 1):
        p = UPoly.from_coeffs((-1) ** (j + k) * math.comb(j, k) * math.comb(j + k, k)
                              for k in range(j + 1))
        total = total + p * p * (2 * j + 1)
    return total


def _christoffel(measure, label: str, n: int, points, reference=None) -> Case:
    """Exact Christoffel form plus its values at seeded points.

    With a reference builder, the form must equal the independently built
    polynomial; the reference is built once per run, outside the timed call.
    """

    def call():
        form = momatrix.christoffel_form(measure, n)
        return form, [momatrix.christoffel_eval(form, point) for point in points]

    def check(output):
        form, values = output
        _expect(all(v > 0 for v in values), "reciprocal Christoffel value is not positive")
        if reference is None:
            return
        expected = reference(n)
        _expect(form.quadratic_form_poly == expected, "form differs from the reference sum")
        _expect(values == [expected.eval(point[0]) for point in points],
                "values differ from the reference sum")

    def digest(output):
        form, _ = output
        return {"inverse": [[str(v) for v in row] for row in form.inverse],
                "polynomial": _poly_json(form.quadratic_form_poly)}

    return Case(f"christoffel {label} n={n}", call, check, digest)


def _exact_points(points) -> list[list[Fraction]]:
    return [[Fraction(c) for c in point] for point in points]


# ---------------------------------------------------------------------------
# CLI cases


def run_cli(argv: list[str]) -> tuple[int, str]:
    """cli.run with stdout and stderr captured; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue()


def _cli(argv: list[str], expect_code: int = 0, exact_part=None) -> Case:
    """CLI case; the digest covers all of stdout unless ``exact_part`` picks
    the exact fields out of a payload that also carries floats."""

    def check(output):
        code, stdout = output
        _expect(code == expect_code, f"exit code {code}, want {expect_code}")
        if exact_part is not None:
            exact_part(json.loads(stdout))

    def digest(output):
        _, stdout = output
        return stdout if exact_part is None else exact_part(json.loads(stdout))

    def observe(output):
        code, stdout = output
        return {"cli.output_bytes": len(stdout.encode()),
                "cli.exit_mismatches": int(code != expect_code)}

    return Case("cli " + " ".join(argv), lambda: run_cli(argv), check,
                digest=None if expect_code else digest, observe=observe)


def _maxent_exact_part(payload):
    _expect(payload["report"]["converged"], "CLI solve did not converge")
    _expect(payload["exact_reconstruction"] is True, "CLI exact certificate does not reconstruct")
    return payload["exact_certificate"]


USAGE_ERROR = ["verify", "--identity", "pell", "--n", "0"]


# ---------------------------------------------------------------------------
# Solver workload


def _handelman_residual(cert, target) -> Fraction:
    """Exact sup-norm residual of sum_a w_a g^a against the target.

    Expands each generator power itself: x^i (1-x)^j on [0,1] by the
    binomial theorem, x^beta (1 - sum x)^m on the simplex by the multinomial
    theorem.
    """
    d = cert.dimension
    recon: dict[tuple, Fraction] = {}
    for alpha, weight in cert.weights.items():
        weight = Fraction(weight)
        m = alpha[d]
        for gamma in monomials_upto(d, m):
            k = sum(gamma)
            coeff = Fraction(math.factorial(m), math.factorial(m - k))
            for g in gamma:
                coeff /= math.factorial(g)
            e = tuple(a + g for a, g in zip(alpha[:d], gamma))
            recon[e] = recon.get(e, Fraction(0)) + weight * (-1) ** k * coeff
    if isinstance(target, UPoly):
        want = {(k,): c for k, c in enumerate(target.coeffs)}
    else:
        want = dict(target.terms)
    return max(abs(recon.get(e, Fraction(0)) - want.get(e, Fraction(0)))
               for e in set(recon) | set(want))


def _putinar_residual(cert, target: UPoly) -> Fraction:
    coeffs = _putinar_coeffs(cert.gram_a, cert.gram_b, cert.degree)
    return max(abs(c - target.coefficient(k)) for k, c in enumerate(coeffs))


def _lebesgue_moments(n):
    return [Fraction(1, k + 1) for k in range(n + 1)]


def _arcsine_moments(n):
    return [Fraction(math.comb(k, k // 2), 2 ** k) if k % 2 == 0 else Fraction(0)
            for k in range(2 * n + 1)]


def _uniform_moments(d, n):
    return [Fraction(math.factorial(d) * math.prod(math.factorial(b) for b in beta),
                     math.factorial(d + sum(beta)))
            for beta in monomials_upto(d, n)]


def _dual_error(dual, moments) -> float:
    return max(abs(float(v) - float(m)) for v, m in zip(dual.values, moments))


def _solver_case(case_id: str, solve: Callable, target, residual: Callable,
                 moments: Optional[list] = None, exact: Optional[Callable] = None) -> Case:
    """A solve, followed on a flagship by its exact certificate and check.

    ``moments`` marks a flagship: its dual must match the known moments, and
    ``exact`` (rationalize the dual, rebuild the certificate exactly) and
    ``verify_certificate_exact`` run on it inside the timed call.
    """

    def call():
        cert, dual, report = solve()
        if exact is None:
            return cert, dual, report, None, None
        exact_cert = exact(dual)
        return cert, dual, report, exact_cert, maxent.verify_certificate_exact(exact_cert, target)

    def check(output):
        cert, dual, report, exact_cert, reconstructs = output
        _expect(report.converged, "solver returned without convergence")
        res = residual(cert, target)
        _expect(res <= maxent.DEFAULT_TOL, f"exact residual {float(res):.3e} > tol")
        if moments is not None:
            error = _dual_error(dual, moments)
            _expect(error <= FLAGSHIP_DUAL_TOL, f"dual differs from the known moments by {error:.3e}")
            _expect(reconstructs is True, "exact certificate does not reconstruct the target")
            _expect(residual(exact_cert, target) == 0, "exact certificate has a nonzero residual")

    if moments is None:
        return Case(case_id, call, check)
    return Case(case_id, call, check,
                digest=lambda output: maxent.certificate_to_json(output[3]),
                observe=lambda output: {"maxent.dual_err_max": _dual_error(output[1], moments)})


def _handelman_cases(rng, n, seeded, with_flagship=True):
    flagship = UPoly.constant(Fraction((n + 1) * (n + 2), 2))
    cases = [_solver_case(
        f"handelman n={n} flagship", lambda: maxent.solve_handelman(flagship, n), flagship,
        _handelman_residual, _lebesgue_moments(n),
        lambda dual: maxent.exact_handelman(flagship, n, dual))] if with_flagship else []
    for k in range(seeded):
        target = _handelman_target(rng, n)
        cases.append(_solver_case(f"handelman n={n} seeded#{k}",
                                  lambda t=target: maxent.solve_handelman(t, n), target,
                                  _handelman_residual))
    return cases


def _putinar_cases(rng, n, seeded, with_flagship=True):
    flagship = UPoly.constant(2 * n + 1)
    cases = [_solver_case(
        f"putinar n={n} flagship", lambda: maxent.solve_putinar(n), flagship,
        _putinar_residual, _arcsine_moments(n),
        lambda dual: maxent.exact_putinar(n, dual, target=flagship))] if with_flagship else []
    for k in range(seeded):
        target = _putinar_target(rng, n)
        cases.append(_solver_case(f"putinar n={n} seeded#{k}",
                                  lambda t=target: maxent.solve_putinar(n, target=t), target,
                                  _putinar_residual))
    return cases


def _simplex_cases(rng, d, n, with_flagship=True, seeded_start=True):
    flagship = MPoly.constant(d, math.comb(d + 1 + n, n))
    cases = [_solver_case(
        f"simplex d={d} n={n} flagship", lambda: maxent.solve_simplex(d, n), flagship,
        _handelman_residual, _uniform_moments(d, n),
        lambda dual: maxent.exact_handelman(flagship, n, dual))] if with_flagship else []
    if seeded_start:
        start = _simplex_start(rng, d, n)
        cases.append(_solver_case(
            f"simplex d={d} n={n} seeded-start",
            lambda: maxent.solve_simplex(d, n, initial=start), flagship, _handelman_residual))
    return cases


# ---------------------------------------------------------------------------
# Workloads


def build(workload: str, seed: int) -> dict[str, list[Case]]:
    """The workload's accept, stretch and cli cases for a seed, each list in
    seeded order."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    sets = WORKLOADS[workload](rng)
    for cases in sets.values():
        rng.shuffle(cases)
    return sets


def _univariate_exact(rng):
    u1, u2 = identities.UnityVariant.UNITY1, identities.UnityVariant.UNITY2

    def sizes(pell, u01, interval, part01, part11):
        return [_pell(pell), _unity01(u01), _unity_interval(u1, interval),
                _unity_interval(u2, interval),
                _partition("interval01", part01, _interval_points(rng, 0)),
                _partition("interval11", part11, _interval_points(rng, -1))]

    return {
        "accept": sizes(64, 24, 12, 12, 12),
        "stretch": sizes(256, 32, 48, 24, 48),
        "cli": [
            _cli(["verify", "--identity", "pell", "--n", "64"]),
            _cli(["verify", "--identity", "unity-01", "--n", "24"]),
            _cli(["verify", "--identity", "unity-interval", "--variant", "unity1", "--n", "12"]),
            _cli(["verify", "--identity", "unity-interval", "--variant", "unity2", "--n", "12"]),
            _cli(["partition", "--domain", "interval01", "--n", "12", "--points", "0.25;0.5"]),
            _cli(["partition", "--domain", "interval11", "--n", "12", "--points=-0.5;0.75"]),
            _cli(USAGE_ERROR, expect_code=2),
        ],
    }


def _matrix_exact(rng):
    cheby2 = identities.UnityVariant.CHEBY2
    norms = list(measures.SimplexNormalization)

    def sizes(cheby, arcsine, lebesgue, uniform, equilibrium):
        interval = _exact_points(_interval_points(rng, -1))
        unit = _exact_points(_interval_points(rng, 0))
        simplex = _exact_points(_simplex_points(rng, 2))
        return [
            _identity_case(f"unity-interval cheby2 n={cheby}",
                           lambda: identities.verify_unity_interval(cheby, cheby2),
                           Fraction(2 * cheby + 1)),
            _christoffel(measures.ARCSINE, "arcsine", arcsine, interval, _arcsine_reference),
            _christoffel(measures.LEBESGUE01, "lebesgue01", lebesgue, unit, _lebesgue_reference),
            _christoffel(measures.simplex_uniform(2), "simplex-uniform d=2", uniform, simplex),
        ] + [_simplex_equilibrium(norm, equilibrium) for norm in norms]

    return {
        "accept": sizes(16, 16, 16, 4, 3),
        "stretch": sizes(32, 48, 24, 8, 6),
        "cli": [
            _cli(["christoffel", "--measure", "arcsine", "--n", "16"]),
            _cli(["christoffel", "--measure", "lebesgue01", "--n", "16"]),
            _cli(["christoffel", "--measure", "simplex-uniform", "--d", "2", "--n", "4"]),
            _cli(["matrix", "--measure", "arcsine", "--n", "16"]),
            _cli(["verify", "--identity", "unity-interval", "--variant", "cheby2", "--n", "16"]),
            _cli(["verify", "--identity", "simplex-equilibrium", "--n", "3",
                  "--normalization", "probability"]),
            _cli(USAGE_ERROR, expect_code=2),
        ],
    }


def _simplex_exact(rng):
    return {
        "accept": [_simplex_unity(d, 2) for d in range(1, 6)] + [
            _simplex_unity(2, 4),
            _partition("simplex", 4, _simplex_points(rng, 3), d=3),
        ],
        "stretch": [
            _simplex_unity(2, 10), _simplex_unity(3, 6), _simplex_unity(4, 4),
            _partition("simplex", 8, _simplex_points(rng, 2), d=2),
        ],
        "cli": [
            _cli(["verify", "--identity", "simplex-unity", "--d", "3", "--n", "2"]),
            _cli(["verify", "--identity", "simplex-unity", "--d", "2", "--n", "4"]),
            _cli(["partition", "--domain", "simplex", "--d", "3", "--n", "4",
                  "--points", "0.125,0.25,0.5"]),
            _cli(["moments", "--measure", "simplex-uniform", "--d", "3", "--max-degree", "6"]),
            _cli(USAGE_ERROR, expect_code=2),
        ],
    }


def _maxent(rng):
    # Only solves that converged on every seed tried (0-299).  Seeded Putinar
    # targets fail at every size tried (even n=2, on 5 of 600 targets), so
    # they are in convergence_probe with the other solves the solver gives up on.
    return {
        "accept": _handelman_cases(rng, 8, 2) + _putinar_cases(rng, 4, 0)
        + _putinar_cases(rng, 8, 0) + _simplex_cases(rng, 3, 4),
        "stretch": _handelman_cases(rng, 10, 2) + _putinar_cases(rng, 11, 0)
        + _simplex_cases(rng, 2, 6) + _simplex_cases(rng, 3, 5, seeded_start=False),
        "cli": [
            _cli(["maxent", "handelman", "--n", "8", "--exact"], exact_part=_maxent_exact_part),
            _cli(["maxent", "putinar", "--n", "4", "--exact"], exact_part=_maxent_exact_part),
            _cli(["maxent", "simplex", "--d", "3", "--n", "4", "--exact"],
                 exact_part=_maxent_exact_part),
            _cli(USAGE_ERROR, expect_code=2),
        ],
    }


def convergence_probe(workload: str, seed: int) -> list[Case]:
    """Solves on interior targets that the solver at the recorded version
    gives up on, for all or some seeds: the flagships past the largest
    converging size and the seeded targets that fail.  The traced run
    executes each once and reports the share that converges; the solver's
    NoInteriorCertificateError is the outcome measured there, not a failed
    operation.  Empty for the exact workloads.
    """
    if workload != "maxent":
        return []
    rng = random.Random(f"maxent-probe:{seed}")
    return (_handelman_cases(rng, 12, 2) + _putinar_cases(rng, 12, 0)
            + _putinar_cases(rng, 4, 2, with_flagship=False)
            + _putinar_cases(rng, 8, 2, with_flagship=False)
            + _simplex_cases(rng, 3, 5, with_flagship=False))


WORKLOADS = {
    "univariate-exact": _univariate_exact,
    "matrix-exact": _matrix_exact,
    "simplex-exact": _simplex_exact,
    "maxent": _maxent,
}
