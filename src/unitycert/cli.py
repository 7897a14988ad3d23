"""Command-line front end.

Subcommands: pell, moments, matrix, christoffel, verify, maxent, partition.
JSON is the default output (rationals as "p/q" strings, never floats in
exact reports); moment tables can also be emitted as CSV.  Exit codes:
0 success (identity holds / solver converged), 1 identity fails or solver
did not converge, 2 usage error (a flag the command does not read is one),
3 internal numeric failure or out of memory.  The top-level ``--log-level``
flag writes the package's ``unitycert.*`` log records at or above that
level to stderr as JSON lines; without it no handler is installed.
In-process callers of ``run`` share one parser per process, built on the
first call.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import logging
import math
import os
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from . import identities, maxent, measures, momatrix
from .measures import MeasureId, SimplexNormalization, functional_for
from .momatrix import NotPositiveDefiniteError
from .polycore import AnyPoly, UPoly, monomials_upto

if TYPE_CHECKING:
    import argparse

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

class _JsonLineFormatter(logging.Formatter):
    def format(self, record: logging.LogRecord) -> str:
        return json.dumps(
            {"level": record.levelname, "logger": record.name, "message": record.getMessage()}
        )


@contextlib.contextmanager
def _json_log_lines(level: Optional[str]):
    """Write ``unitycert.*`` records at or above ``level`` to stderr while open.

    With ``level`` None nothing is installed.  Otherwise one handler is added
    to the package logger and removed on exit, and the logger's level is
    restored, so repeated in-process runs leave no handler behind.
    """
    if level is None:
        yield
        return
    package_logger = logging.getLogger("unitycert")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(_JsonLineFormatter())
    previous_level = package_logger.level
    package_logger.addHandler(handler)
    package_logger.setLevel(level)
    try:
        yield
    finally:
        package_logger.removeHandler(handler)
        package_logger.setLevel(previous_level)


def _check_equilibrium_d(d: int) -> None:
    # The simplex equilibrium measure is implemented on the triangle only.
    if d != 2:
        raise ValueError(f"--d must be 2 for simplex-equilibrium, got {d}")


def _reject_flag(flag: str, value: object, what: str) -> None:
    # Flags that only some commands read default to None, so a given one is seen.
    if value is not None:
        raise ValueError(f"{flag} does not apply to {what}")


_ONE_DIMENSIONAL = {"arcsine": measures.ARCSINE, "arcsine-g": measures.ARCSINE_G,
                    "lebesgue01": measures.LEBESGUE01}


def _measure_from_flags(name: str, d: Optional[int], normalization: Optional[str]) -> MeasureId:
    """The measure named by ``--measure``.

    ``d`` and ``normalization`` are ``--d`` and ``--normalization``, each
    None if not given and rejected where the measure does not read it.
    """
    if name != "simplex-equilibrium":
        _reject_flag("--normalization", normalization, name)
    if name in _ONE_DIMENSIONAL:
        _reject_flag("--d", d, f"{name}, which is one-dimensional")
        return _ONE_DIMENSIONAL[name]
    d = 2 if d is None else d
    if name == "simplex-uniform":
        return measures.simplex_uniform(d)
    if name == "simplex-equilibrium":
        _check_equilibrium_d(d)
        return measures.simplex_equilibrium(SimplexNormalization(normalization or "pi-density"))
    raise ValueError(f"unknown measure {name!r}")


def _ratio_strs(nums: Iterable[int], den: int, k: int = 1) -> list[str]:
    """``str(Fraction(k * c, den))`` for each ``c`` in ``nums``, for ``den > 0``.

    Each string is reduced on its own, without building the Fraction.
    """
    gcd, out = math.gcd, []
    for c in nums:
        c *= k
        g = gcd(c, den)
        out.append(str(c // den) if g == den else f"{c // g}/{den // g}")
    return out


def _poly_to_json(p: AnyPoly, scale: Fraction = Fraction(1)) -> dict:
    """The JSON form of ``scale * p``, each coefficient reduced on its own."""
    k, den = scale.numerator, scale.denominator * p.den
    if isinstance(p, UPoly):
        return {"coefficients": _ratio_strs(p.nums, den, k)}
    items = sorted(p.sparse_nums.items())
    values = _ratio_strs((c for _, c in items), den, k)
    return {
        "dimension": p.dimension,
        "terms": [{"alpha": list(e), "value": v} for (e, _), v in zip(items, values)],
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
    multiplier 1-x^2), ``simplex`` (scaled simplex generator powers).  The
    members are those of ``identities.partition_members``, each weight
    divided by the member count; every member is weight * generator, and the
    members sum identically to 1.  A member's coefficients are written from
    the generator's numerators times the weight.  Its value at a point is
    the weight times the generator's unreduced exact value, which
    ``identities.partition_values`` computes from the generator's factors,
    divided once as integers: the correctly rounded double of the exact value.
    """
    generators = identities.partition_members(domain, n, d)
    count = len(generators)
    weights = [weight / count for _, weight, _ in generators]
    members = [
        {"label": label, "weight": str(weight), "polynomial": _poly_to_json(generator, weight)}
        for (label, _, generator), weight in zip(generators, weights)
    ]
    report = {"domain": domain, "n": n, "members": members}
    if domain == "simplex":
        report["d"] = d
    evaluations = []
    exact = [[Fraction(v) for v in point] for point in points or []]
    for point, pairs in zip(points or [], identities.partition_values(domain, n, exact, d)):
        values = [w.numerator * num / (w.denominator * den)
                  for w, (num, den) in zip(weights, pairs)]
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
    import csv  # only CSV output needs it

    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["exponent", "value"])
    for alpha, value in rows:
        writer.writerow([",".join(str(a) for a in alpha), str(value)])
    return buffer.getvalue()


def _parse_rational(flag: str, text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"{flag} {text!r} has a zero denominator") from None
    except ValueError:
        raise ValueError(f"{flag} {text!r} is not a rational number") from None


def _parse_target(args, default_constant: Fraction) -> UPoly:
    # The solvers check n and then the target degree against it.
    if args.target_coeffs is not None and args.target_constant is not None:
        raise ValueError("give --target-constant or --target-coeffs, not both")
    if args.target_coeffs is not None:
        return UPoly.from_coeffs(
            _parse_rational("--target-coeffs", v) for v in args.target_coeffs.split(",")
        )
    if args.target_constant is not None:
        return UPoly.constant(_parse_rational("--target-constant", args.target_constant))
    return UPoly.constant(default_constant)


def _run_verify(args) -> tuple[dict, int]:
    identity = args.identity
    what = f"--identity {identity}"
    if not identity.startswith("simplex-"):
        _reject_flag("--d", args.d, f"{what}, which is one-dimensional")
    if identity != "unity-interval":
        _reject_flag("--variant", args.variant, what)
    if identity != "simplex-equilibrium":
        _reject_flag("--normalization", args.normalization, what)
    d = 2 if args.d is None else args.d
    if identity == "pell":
        report = identities.verify_pell(args.n)
    elif identity == "unity-interval":
        report = identities.verify_unity_interval(
            args.n, identities.UnityVariant(args.variant or "unity2")
        )
    elif identity == "unity-01":
        report = identities.verify_unity_01(args.n)
    elif identity == "simplex-unity":
        report = identities.verify_simplex_unity(d, args.n)
    elif identity == "simplex-equilibrium":
        _check_equilibrium_d(d)
        report = identities.verify_simplex_equilibrium(
            args.n, SimplexNormalization(args.normalization or "pi-density")
        )
    else:
        raise ValueError(f"unknown identity {identity!r}")
    return report.to_json(), EXIT_OK if report.holds else EXIT_FAILED


def _exact_certificate(mode: str, n: int, cert, dual, target: AnyPoly):
    """The solver's certificate if it is already exact, else one snapped from its dual."""
    with contextlib.suppress(TypeError):  # a certificate in doubles
        if maxent.verify_certificate_exact(cert, target):
            return cert
    if mode == "putinar":
        return maxent.exact_putinar(n, dual, target=target)
    return maxent.exact_handelman(target, n, dual)


def _run_maxent(args) -> tuple[dict, int]:
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise ValueError(f"--tol must be finite and positive, got {args.tol}")
    if args.max_iter < 0:
        raise ValueError(f"--max-iter must be >= 0, got {args.max_iter}")
    mode = args.mode
    if mode != "simplex":
        _reject_flag("--d", args.d, f"maxent {mode}, which is one-dimensional")
    if mode == "handelman":
        default = Fraction((args.n + 1) * (args.n + 2), 2)
        target = _parse_target(args, default)
        cert, dual, report = maxent.solve_handelman(
            target, args.n, tol=args.tol, max_iter=args.max_iter
        )
    elif mode == "putinar":
        target = _parse_target(args, Fraction(2 * args.n + 1))
        cert, dual, report = maxent.solve_putinar(
            args.n, tol=args.tol, max_iter=args.max_iter, target=target
        )
    elif mode == "simplex":
        if args.target_constant is not None or args.target_coeffs is not None:
            raise ValueError("simplex mode has a fixed target; drop the target flags")
        cert, dual, report = maxent.solve_simplex(
            2 if args.d is None else args.d, args.n, tol=args.tol, max_iter=args.max_iter
        )
        target = cert.target
    else:
        raise ValueError(f"unknown maxent mode {mode!r}")
    payload = {
        "certificate": maxent.certificate_to_json(cert),
        "dual": [float(v) for v in dual.values],
        "report": report.to_json(),
        "residual": report.residual,
    }
    if args.exact:
        try:
            exact_cert = _exact_certificate(mode, args.n, cert, dual, target)
        except ValueError as exc:
            # The solver's own dual has the right length, so this is its snap
            # failing: a fact about the target, not a usage error.
            payload["exact_certificate"] = None
            payload["exact_reconstruction"] = False
            payload["exact_error"] = str(exc)
        else:
            payload["exact_certificate"] = maxent.certificate_to_json(exact_cert)
            payload["exact_reconstruction"] = maxent.verify_certificate_exact(exact_cert, target)
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
        # The inverse's strings, written from its upper triangle in integers.
        upper = [_ratio_strs(row, form.inverse_den) for row in form.inverse_upper]
        size = len(upper)
        payload = {
            "measure": measure.label(),
            "degree": form.degree,
            "basis": [list(e) for e in monomials_upto(measure.dimension, args.n)],
            "inverse": [[upper[min(i, j)][abs(j - i)] for j in range(size)] for i in range(size)],
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
        if args.domain == "simplex":
            d = 2 if args.d is None else args.d
        else:
            _reject_flag("--d", args.d, f"--domain {args.domain}, which is one-dimensional")
            d = 1
        points = _parse_points(args.points, d)
        payload = emit_partition(args.domain, args.n, d=d, points=points)
        return payload, "json", EXIT_OK
    raise ValueError(f"unknown command {args.command!r}")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared after it.

    Sharing is safe because ``parse_args`` keeps no state in the parser:
    each parse fills a fresh namespace, and no action has a mutable default.
    ``argparse`` is imported here, so importing this module does not load it.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="unitycert",
        description="Exact partition-of-unity identities and max-entropy certificates.",
    )
    parser.add_argument(
        "--log-level",
        choices=("WARNING", "INFO", "DEBUG"),
        default=None,
        help="write unitycert log records at or above this level to stderr as JSON lines",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, formats=("json",)):
        p.add_argument("--format", choices=list(formats), default="json")
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
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--normalization", choices=norm_names, default=None)
    p.add_argument("--max-degree", type=int, required=True)
    add_common(p, formats=("json", "csv"))

    p = sub.add_parser("matrix", help="emit an exact moment matrix")
    p.add_argument("--measure", choices=measure_names, required=True)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--normalization", choices=norm_names, default=None)
    p.add_argument("--n", type=int, required=True)
    add_common(p)

    p = sub.add_parser("christoffel", help="emit a reciprocal Christoffel function")
    p.add_argument("--measure", choices=measure_names, required=True)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--normalization", choices=norm_names, default=None)
    p.add_argument("--n", type=int, required=True)
    add_common(p)

    p = sub.add_parser("verify", help="verify a partition identity exactly")
    p.add_argument(
        "--identity",
        choices=["pell", "unity-interval", "unity-01", "simplex-unity", "simplex-equilibrium"],
        required=True,
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--variant", choices=[v.value for v in identities.UnityVariant], default=None)
    p.add_argument("--normalization", choices=norm_names, default=None)
    add_common(p)

    p = sub.add_parser("maxent", help="solve a max-entropy certificate program")
    p.add_argument("mode", choices=["handelman", "putinar", "simplex"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--tol", type=float, default=maxent.DEFAULT_TOL)
    p.add_argument("--max-iter", type=int, default=maxent.DEFAULT_MAX_ITER)
    p.add_argument("--target-constant", default=None)
    p.add_argument("--target-coeffs", default=None, help="comma-separated rationals, low degree first")
    p.add_argument("--exact", action="store_true",
                   help="keep the solver's certificate if exact, else snap its dual; verify it")
    add_common(p)

    p = sub.add_parser("partition", help="emit a partition of unity")
    p.add_argument("--domain", choices=["interval01", "interval11", "simplex"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, default=None)
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


def _check_output(output: Optional[str]) -> None:
    """Raise ``OSError`` if ``output`` cannot be opened for writing.

    Opens the path for appending, which leaves an existing file as it is,
    and removes the file again if the check created it.
    """
    if not output:
        return
    existed = os.path.lexists(output)
    with open(output, "a", encoding="utf-8"):
        pass
    if not existed:
        os.remove(output)


def _output_error(output: str, exc: OSError) -> int:
    print(f"error: --output {output!r}: {exc.strerror}", file=sys.stderr)
    return EXIT_USAGE


def run(argv: Sequence[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    # Fail before the work, not after it, on a path that cannot be written.
    try:
        _check_output(args.output)
    except OSError as exc:
        return _output_error(args.output, exc)
    with _json_log_lines(args.log_level):
        try:
            payload, kind, code = _dispatch(args)
        except maxent.NoInteriorCertificateError as exc:
            payload, kind = {"error": str(exc), "report": exc.report.to_json()}, "json"
            code = EXIT_FAILED
        except NotPositiveDefiniteError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_NUMERIC
        except MemoryError as exc:
            print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory",
                  file=sys.stderr)
            return EXIT_NUMERIC
        except (ValueError, TypeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        try:
            _write_output(payload, kind, args.output)
        except OSError as exc:
            return _output_error(args.output, exc)
        return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
