"""Command-line front end.

Subcommands: pell, moments, matrix, christoffel, verify, maxent, partition.
JSON is the default output (rationals as "p/q" strings, never floats in
exact reports); moment tables can also be emitted as CSV.  Exit codes:
0 success (identity holds / solver converged), 1 identity fails or solver
did not converge, 2 usage error, 3 internal numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from fractions import Fraction
from typing import Optional, Sequence

from . import identities, maxent, measures, momatrix
from .measures import MeasureId, SimplexNormalization, beta_integral, functional_for
from .momatrix import NotPositiveDefiniteError
from .polycore import (
    AnyPoly,
    ChebKind,
    UPoly,
    cheb_orthonormal_square,
    monomials_upto,
    poly_eval,
    powers,
    simplex_generator_power,
)

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


def _measure_from_flags(name: str, d: int, normalization: str) -> MeasureId:
    if name == "arcsine":
        return measures.ARCSINE
    if name == "arcsine-g":
        return measures.ARCSINE_G
    if name == "lebesgue01":
        return measures.LEBESGUE01
    if name == "simplex-uniform":
        return measures.simplex_uniform(d)
    if name == "simplex-equilibrium":
        return measures.simplex_equilibrium(SimplexNormalization(normalization))
    raise ValueError(f"unknown measure {name!r}")


def _poly_to_json(p: AnyPoly) -> dict:
    if isinstance(p, UPoly):
        return {"coefficients": [str(c) for c in p.coeffs]}
    return {
        "dimension": p.dimension,
        "terms": [
            {"alpha": list(e), "value": str(c)} for e, c in sorted(p.terms.items())
        ],
    }


def _parse_points(raw: Optional[str], dimension: int) -> list[list[float]]:
    if not raw:
        return []
    points = []
    for chunk in raw.split(";"):
        coords = [float(v) for v in chunk.split(",") if v.strip() != ""]
        if len(coords) != dimension:
            raise ValueError(
                f"point {chunk!r} has {len(coords)} coordinates, expected {dimension}"
            )
        if not all(math.isfinite(c) for c in coords):
            raise ValueError(f"point {chunk!r} has a non-finite coordinate")
        points.append(coords)
    return points


def emit_partition(
    domain: str, n: int, d: int = 2, points: Optional[Sequence[Sequence[float]]] = None
) -> dict:
    """Partition-of-unity members, weights, and optional point evaluations.

    Domains: ``interval01`` (scaled generator powers x^i (1-x)^j),
    ``interval11`` (scaled squared orthonormal Chebyshev families plus the
    multiplier 1-x^2), ``simplex`` (scaled simplex generator powers).  Every
    member is weight * generator; the members sum identically to 1.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    members: list[dict] = []
    polys: list[AnyPoly] = []
    if domain == "interval01":
        s = Fraction((n + 1) * (n + 2), 2)
        x_powers = powers(UPoly.x(), n)
        one_minus_x_powers = powers(UPoly.from_coeffs([1, -1]), n)
        for i, j in monomials_upto(2, n):
            weight = 1 / (beta_integral(i, j) * s)
            poly = x_powers[i] * one_minus_x_powers[j] * weight
            members.append({"label": {"i": i, "j": j}, "weight": str(weight)})
            polys.append(poly)
        dimension = 1
    elif domain == "interval11":
        weight = Fraction(1, 2 * n + 1)
        g = UPoly.from_coeffs([1, 0, -1])
        for j in range(n + 1):
            polys.append(cheb_orthonormal_square(ChebKind.FIRST, j) * weight)
            members.append({"label": {"kind": "first", "j": j}, "weight": str(weight)})
        for j in range(n):
            polys.append(g * cheb_orthonormal_square(ChebKind.SECOND, j) * weight)
            members.append({"label": {"kind": "second", "j": j}, "weight": str(weight)})
        dimension = 1
    elif domain == "simplex":
        if d < 1:
            raise ValueError("d must be >= 1")
        functional = functional_for(measures.simplex_uniform(d))
        shat = Fraction(math.comb(d + 1 + n, n))
        for alpha in monomials_upto(d + 1, n):
            g = simplex_generator_power(d, alpha)
            weight = 1 / (functional.poly_moment(g) * shat)
            polys.append(g * weight)
            members.append({"label": {"alpha": list(alpha)}, "weight": str(weight)})
        dimension = d
    else:
        raise ValueError(f"unknown domain {domain!r}")
    for member, poly in zip(members, polys):
        member["polynomial"] = _poly_to_json(poly)
    report = {"domain": domain, "n": n, "members": members}
    if domain == "simplex":
        report["d"] = d
    evaluations = []
    for point in points or []:
        exact_point = [Fraction(v) for v in point]
        values = [float(poly_eval(p, exact_point)) for p in polys]
        evaluations.append({"point": list(point), "values": values, "sum": sum(values)})
    if evaluations:
        report["evaluations"] = evaluations
    return report


def _moments_payload(measure: MeasureId, max_degree: int) -> list[tuple[tuple[int, ...], Fraction]]:
    functional = functional_for(measure)
    return [
        (alpha, functional.moment(alpha))
        for alpha in monomials_upto(measure.dimension, max_degree)
    ]


def _moments_csv(rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["exponent", "value"])
    for alpha, value in rows:
        writer.writerow([",".join(str(a) for a in alpha), str(value)])
    return buffer.getvalue()


def _parse_target(args, degree_cap: int, default_constant: Fraction) -> UPoly:
    if getattr(args, "target_coeffs", None):
        coeffs = [Fraction(v.strip()) for v in args.target_coeffs.split(",")]
        target = UPoly.from_coeffs(coeffs)
    elif getattr(args, "target_constant", None) is not None:
        target = UPoly.constant(Fraction(args.target_constant))
    else:
        target = UPoly.constant(default_constant)
    if target.degree > degree_cap:
        raise ValueError(f"target degree {target.degree} exceeds {degree_cap}")
    return target


def _run_verify(args) -> tuple[dict, int]:
    identity = args.identity
    if identity == "pell":
        report = identities.verify_pell(args.n)
    elif identity == "unity-interval":
        report = identities.verify_unity_interval(
            args.n, identities.UnityVariant(args.variant)
        )
    elif identity == "unity-01":
        report = identities.verify_unity_01(args.n)
    elif identity == "simplex-unity":
        report = identities.verify_simplex_unity(args.d, args.n)
    elif identity == "simplex-equilibrium":
        report = identities.verify_simplex_equilibrium(
            args.n, SimplexNormalization(args.normalization)
        )
    else:
        raise ValueError(f"unknown identity {identity!r}")
    return report.to_json(), EXIT_OK if report.holds else EXIT_FAILED


def _run_maxent(args) -> tuple[dict, int]:
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise ValueError(f"--tol must be finite and positive, got {args.tol}")
    if args.max_iter < 0:
        raise ValueError(f"--max-iter must be >= 0, got {args.max_iter}")
    mode = args.mode
    if mode == "handelman":
        default = Fraction((args.n + 1) * (args.n + 2), 2)
        target = _parse_target(args, args.n, default)
        cert, dual, report = maxent.solve_handelman(
            target, args.n, tol=args.tol, max_iter=args.max_iter
        )
    elif mode == "putinar":
        target = _parse_target(args, 2 * args.n, Fraction(2 * args.n + 1))
        cert, dual, report = maxent.solve_putinar(
            args.n, tol=args.tol, max_iter=args.max_iter, target=target
        )
    elif mode == "simplex":
        if args.target_constant is not None or args.target_coeffs:
            raise ValueError("simplex mode has a fixed target; drop the target flags")
        cert, dual, report = maxent.solve_simplex(
            args.d, args.n, tol=args.tol, max_iter=args.max_iter
        )
        target = cert.target
    else:
        raise ValueError(f"unknown maxent mode {mode!r}")
    payload = {
        "certificate": maxent.certificate_to_json(cert),
        "dual": [float(v) for v in dual.values],
        "report": report.to_json(),
        "residual": maxent.verify_certificate(cert, target),
    }
    if args.exact:
        if mode == "putinar":
            exact_cert = maxent.exact_putinar(args.n, dual, target=target)
        else:
            exact_cert = maxent.exact_handelman(target, args.n, dual)
        payload["exact_certificate"] = maxent.certificate_to_json(exact_cert)
        payload["exact_reconstruction"] = maxent.verify_certificate_exact(
            exact_cert, target
        )
    return payload, EXIT_OK if report.converged else EXIT_FAILED


def _dispatch(args) -> tuple[object, str, int]:
    """Returns (payload, kind, exit_code); kind is 'json' or 'text'."""
    if args.command == "pell":
        report = identities.verify_pell(args.n)
        return report.to_json(), "json", EXIT_OK if report.holds else EXIT_FAILED
    if args.command == "moments":
        if args.max_degree < 0:
            raise ValueError(f"--max-degree must be >= 0, got {args.max_degree}")
        measure = _measure_from_flags(args.measure, args.d, args.normalization)
        rows = _moments_payload(measure, args.max_degree)
        if args.format == "csv":
            return _moments_csv(rows), "text", EXIT_OK
        payload = {
            "measure": measure.label(),
            "moments": [
                {"exponent": list(alpha), "value": str(value)} for alpha, value in rows
            ],
        }
        return payload, "json", EXIT_OK
    if args.command == "matrix":
        measure = _measure_from_flags(args.measure, args.d, args.normalization)
        matrix = momatrix.moment_matrix(measure, args.n)
        return momatrix.matrix_to_json(matrix), "json", EXIT_OK
    if args.command == "christoffel":
        measure = _measure_from_flags(args.measure, args.d, args.normalization)
        form = momatrix.christoffel_form(measure, args.n)
        payload = {
            "measure": measure.label(),
            "degree": form.degree,
            "basis": [list(e) for e in monomials_upto(measure.dimension, args.n)],
            "inverse": [[str(v) for v in row] for row in form.inverse],
            "polynomial": _poly_to_json(form.quadratic_form_poly),
        }
        return payload, "json", EXIT_OK
    if args.command == "verify":
        payload, code = _run_verify(args)
        return payload, "json", code
    if args.command == "maxent":
        payload, code = _run_maxent(args)
        return payload, "json", code
    if args.command == "partition":
        dimension = 1 if args.domain.startswith("interval") else args.d
        points = _parse_points(args.points, dimension)
        payload = emit_partition(args.domain, args.n, d=args.d, points=points)
        return payload, "json", EXIT_OK
    raise ValueError(f"unknown command {args.command!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unitycert",
        description="Exact partition-of-unity identities and max-entropy certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_format=True):
        if with_format:
            p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--output", default=None, help="write to file instead of stdout")

    p = sub.add_parser("pell", help="verify the Chebyshev Pell identity")
    p.add_argument("--n", type=int, required=True)
    add_common(p)

    measure_names = [
        "arcsine",
        "arcsine-g",
        "lebesgue01",
        "simplex-uniform",
        "simplex-equilibrium",
    ]
    norm_names = [v.value for v in SimplexNormalization]

    p = sub.add_parser("moments", help="emit a moment table")
    p.add_argument("--measure", choices=measure_names, required=True)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--normalization", choices=norm_names, default="pi-density")
    p.add_argument("--max-degree", type=int, required=True)
    add_common(p)

    p = sub.add_parser("matrix", help="emit an exact moment matrix")
    p.add_argument("--measure", choices=measure_names, required=True)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--normalization", choices=norm_names, default="pi-density")
    p.add_argument("--n", type=int, required=True)
    add_common(p)

    p = sub.add_parser("christoffel", help="emit a reciprocal Christoffel function")
    p.add_argument("--measure", choices=measure_names, required=True)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--normalization", choices=norm_names, default="pi-density")
    p.add_argument("--n", type=int, required=True)
    add_common(p)

    p = sub.add_parser("verify", help="verify a partition identity exactly")
    p.add_argument(
        "--identity",
        choices=["pell", "unity-interval", "unity-01", "simplex-unity", "simplex-equilibrium"],
        required=True,
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--variant", choices=[v.value for v in identities.UnityVariant], default="unity2")
    p.add_argument("--normalization", choices=norm_names, default="pi-density")
    add_common(p)

    p = sub.add_parser("maxent", help="solve a max-entropy certificate program")
    p.add_argument("mode", choices=["handelman", "putinar", "simplex"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--tol", type=float, default=maxent.DEFAULT_TOL)
    p.add_argument("--max-iter", type=int, default=maxent.DEFAULT_MAX_ITER)
    p.add_argument("--target-constant", default=None)
    p.add_argument("--target-coeffs", default=None, help="comma-separated rationals, low degree first")
    p.add_argument("--exact", action="store_true", help="rationalize the dual and verify exactly")
    add_common(p)

    p = sub.add_parser("partition", help="emit a partition of unity")
    p.add_argument("--domain", choices=["interval01", "interval11", "simplex"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--points", default=None, help="semicolon-separated points, comma-separated coordinates")
    add_common(p)

    return parser


def _write_output(payload: object, kind: str, output: Optional[str]) -> None:
    if kind == "json":
        text = json.dumps(payload, indent=2) + "\n"
    else:
        text = payload if isinstance(payload, str) else str(payload)
        if not text.endswith("\n"):
            text += "\n"
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def run(argv: Sequence[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        payload, kind, code = _dispatch(args)
    except maxent.NoInteriorCertificateError as exc:
        payload = {"error": str(exc), "report": exc.report.to_json()}
        _write_output(payload, "json", getattr(args, "output", None))
        return EXIT_FAILED
    except NotPositiveDefiniteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _write_output(payload, kind, getattr(args, "output", None))
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
