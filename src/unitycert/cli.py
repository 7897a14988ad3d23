"""Command-line front end.

Subcommands: pell, moments, matrix, christoffel, verify, maxent, partition.
JSON is the default output (rationals as "p/q" strings, never floats in
exact reports), written by one direct writer with the bytes of
``json.dumps(payload, indent=2)``; moment tables can also be emitted as CSV.  Exit codes:
0 success (identity holds / solver converged), 1 identity fails or solver
did not converge, 2 usage error (a flag the command does not read is one),
3 internal numeric failure (any ``ArithmeticError``) or out of memory.  One
table, ``_COMMANDS``, names for each selector value the optional flags its
run reads and, for measures and identities, the library call it makes; the
parser and the exit-2 checks both read it.  The top-level ``--log-level`` flag writes the
package's ``unitycert.*`` log records at or above that level to stderr as
JSON lines; without it no handler is installed.
In-process callers of ``run`` share one parser per process, built on the
first call.  The library modules are read through their module objects when
a run needs them, so a run loads only what it uses: building the parser
reads none of them, and only a ``maxent`` run reads the solver module, its
``--tol`` and ``--max-iter`` defaults included.
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
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Optional, Sequence

from . import identities, maxent, measures, momatrix, polycore

if TYPE_CHECKING:
    import argparse

    from .measures import MeasureId
    from .polycore import AnyPoly, UPoly

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


class _Run(NamedTuple):
    """One selector value: the optional flags its run reads and, for measures
    and identities, its library call.  A call looks the library up when it
    runs, so a function replaced in its module (a test double, a tracing
    wrapper) is the one run."""

    reads: tuple[str, ...] = ()
    call: Optional[Callable] = None


# Each optional flag once: its argparse keywords, and the default a run that
# reads it takes when it is omitted.  The parser leaves them None, so a given
# flag is told from an omitted one.  A flag's ``choices`` are the values of
# its enum (``measures.SimplexNormalization``, ``identities.UnityVariant``),
# written out so that building the parser runs neither module.
_OPTIONAL_FLAGS = {
    "--d": ({"type": int}, 2),
    "--normalization": ({"choices": ("pi-density", "probability")}, "pi-density"),
    "--variant": ({"choices": ("unity1", "unity2", "cheby2")}, "unity2"),
    "--target-constant": ({}, None),
    "--target-coeffs": ({"help": "comma-separated rationals, low degree first"}, None),
}

_MEASURES = {
    "arcsine": _Run(call=lambda args: measures.ARCSINE),
    "arcsine-g": _Run(call=lambda args: measures.ARCSINE_G),
    "lebesgue01": _Run(call=lambda args: measures.LEBESGUE01),
    "simplex-uniform": _Run(("--d",), lambda args: measures.simplex_uniform(args.d)),
    "simplex-equilibrium": _Run(("--d", "--normalization"), lambda args: (
        measures.simplex_equilibrium(measures.SimplexNormalization(args.normalization)))),
}

_IDENTITIES = {
    "pell": _Run(call=lambda args: identities.verify_pell(args.n)),
    "unity-interval": _Run(("--variant",), lambda args: identities.verify_unity_interval(
        args.n, identities.UnityVariant(args.variant))),
    "unity-01": _Run(call=lambda args: identities.verify_unity_01(args.n)),
    "simplex-unity": _Run(("--d",), lambda args: identities.verify_simplex_unity(args.d, args.n)),
    "simplex-equilibrium": _Run(("--d", "--normalization"), lambda args: (
        identities.verify_simplex_equilibrium(
            args.n, measures.SimplexNormalization(args.normalization)))),
}

_TARGET_FLAGS = ("--target-constant", "--target-coeffs")

# command: (selector argument, its values, the prefix naming a value in errors)
_COMMANDS = {
    "moments": ("--measure", _MEASURES, ""),
    "matrix": ("--measure", _MEASURES, ""),
    "christoffel": ("--measure", _MEASURES, ""),
    "verify": ("--identity", _IDENTITIES, "--identity "),
    "maxent": ("mode", {"handelman": _Run(_TARGET_FLAGS), "putinar": _Run(_TARGET_FLAGS),
                        "simplex": _Run(("--d",))}, "maxent "),
    "partition": ("--domain", {"interval01": _Run(), "interval11": _Run(),
                               "simplex": _Run(("--d",))}, "--domain "),
}


# command: (its size flag, the least value a run takes)
_SIZE_FLAGS = {
    "pell": ("--n", 1),
    "moments": ("--max-degree", 0),
    "matrix": ("--n", 0),
    "christoffel": ("--n", 0),
    "verify": ("--n", 1),
    "maxent": ("--n", 1),
    "partition": ("--n", 1),
}


def _check_flags(args) -> None:
    """Before any work, check the size flag, reject a given flag the run does
    not read, give an omitted flag it reads its default, and check a read
    ``--d``; each error names its flag."""
    flag, least = _SIZE_FLAGS[args.command]
    size = getattr(args, flag[2:].replace("-", "_"))
    if size < least:
        raise ValueError(f"{flag} must be >= {least}, got {size}")
    if args.command not in _COMMANDS:  # pell, which has no optional flag
        return
    selector, runs, prefix = _COMMANDS[args.command]
    name = getattr(args, selector.lstrip("-"))
    reads = runs[name].reads
    for flag, (_, default) in _OPTIONAL_FLAGS.items():
        attr = flag[2:].replace("-", "_")
        value = getattr(args, attr, None)
        if flag in reads:
            if value is None:
                setattr(args, attr, default)
        elif value is not None:
            if flag in _TARGET_FLAGS:
                raise ValueError("simplex mode has a fixed target; drop the target flags")
            suffix = ", which is one-dimensional" if flag == "--d" else ""
            raise ValueError(f"{flag} does not apply to {prefix}{name}{suffix}")
    if "--d" in reads:
        if args.d < 1:
            raise ValueError(f"--d must be >= 1, got {args.d}")
        # The simplex equilibrium measure is implemented on the triangle only.
        if name == "simplex-equilibrium" and args.d != 2:
            raise ValueError(f"--d must be 2 for simplex-equilibrium, got {args.d}")


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
    if isinstance(p, polycore.UPoly):
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
    functional = measures.functional_for(measure)
    return [
        (alpha, functional.moment(alpha))
        for alpha in polycore.monomials_upto(measure.dimension, max_degree)
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
    upoly = polycore.UPoly
    if args.target_coeffs is not None:
        return upoly.from_coeffs(
            _parse_rational("--target-coeffs", v) for v in args.target_coeffs.split(",")
        )
    if args.target_constant is not None:
        return upoly.constant(_parse_rational("--target-constant", args.target_constant))
    return upoly.constant(default_constant)


def _exact_certificate(mode: str, n: int, cert, dual, target: AnyPoly):
    """The solver's certificate if it is already exact, else one snapped from its dual."""
    with contextlib.suppress(TypeError):  # a certificate in doubles
        if maxent.verify_certificate_exact(cert, target):
            return cert
    if mode == "putinar":
        return maxent.exact_putinar(n, dual, target=target)
    return maxent.exact_handelman(target, n, dual)


def _run_maxent(args) -> tuple[dict, int]:
    """The solve's payload and exit code; a solve that does not converge is
    the solver's error and report, exit 1."""
    tol = maxent.DEFAULT_TOL if args.tol is None else args.tol
    max_iter = maxent.DEFAULT_MAX_ITER if args.max_iter is None else args.max_iter
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"--tol must be finite and positive, got {tol}")
    if max_iter < 0:
        raise ValueError(f"--max-iter must be >= 0, got {max_iter}")
    mode = args.mode
    try:
        if mode == "handelman":
            target = _parse_target(args, Fraction((args.n + 1) * (args.n + 2), 2))
            cert, dual, report = maxent.solve_handelman(target, args.n, tol=tol, max_iter=max_iter)
        elif mode == "putinar":
            target = _parse_target(args, Fraction(2 * args.n + 1))
            cert, dual, report = maxent.solve_putinar(
                args.n, tol=tol, max_iter=max_iter, target=target
            )
        else:
            cert, dual, report = maxent.solve_simplex(args.d, args.n, tol=tol, max_iter=max_iter)
            target = cert.target
    except maxent.NoInteriorCertificateError as exc:
        return {"error": str(exc), "report": exc.report.to_json()}, EXIT_FAILED
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
            # The solver's own certificate comes back only once it has verified.
            payload["exact_reconstruction"] = (
                exact_cert is cert or maxent.verify_certificate_exact(exact_cert, target))
    return payload, EXIT_OK if report.converged else EXIT_FAILED


def _dispatch(args) -> tuple[object, str, int]:
    """Returns (payload, kind, exit_code); kind is 'json' or 'text'."""
    _check_flags(args)
    if args.command in ("pell", "verify"):
        report = _IDENTITIES[args.identity].call(args)
        return report.to_json(), "json", EXIT_OK if report.holds else EXIT_FAILED
    if args.command == "maxent":
        payload, code = _run_maxent(args)
        return payload, "json", code
    if args.command == "partition":
        d = 1 if args.d is None else args.d  # the intervals read no --d
        points = _parse_points(args.points, d)
        return emit_partition(args.domain, args.n, d=d, points=points), "json", EXIT_OK
    measure = _MEASURES[args.measure].call(args)
    if args.command == "moments":
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
        matrix = momatrix.moment_matrix(measure, args.n)
        return momatrix.matrix_to_json(matrix), "json", EXIT_OK
    form = momatrix.christoffel_form(measure, args.n)  # christoffel
    # The inverse's strings, written from its upper triangle in integers.
    upper = [_ratio_strs(row, form.inverse_den) for row in form.inverse_upper]
    size = len(upper)
    payload = {
        "measure": measure.label(),
        "degree": form.degree,
        "basis": [list(e) for e in polycore.monomials_upto(measure.dimension, args.n)],
        "inverse": [[upper[min(i, j)][abs(j - i)] for j in range(size)] for i in range(size)],
        "polynomial": _poly_to_json(form.quadratic_form_poly),
    }
    return payload, "json", EXIT_OK


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

    def add(command, help_text, formats=("json",)):
        p = sub.add_parser(command, help=help_text)
        if command in _COMMANDS:
            selector, runs, _ = _COMMANDS[command]
            required = {"required": True} if selector.startswith("--") else {}
            p.add_argument(selector, choices=list(runs), **required)
            offered = {flag for run in runs.values() for flag in run.reads}
            for flag, (keywords, _) in _OPTIONAL_FLAGS.items():
                if flag in offered:
                    p.add_argument(flag, default=None, **keywords)
        p.add_argument(_SIZE_FLAGS[command][0], type=int, required=True)
        p.add_argument("--format", choices=list(formats), default="json")
        p.add_argument("--output", default=None, help="write to file instead of stdout")
        return p

    add("pell", "verify the Chebyshev Pell identity").set_defaults(identity="pell")
    add("moments", "emit a moment table", formats=("json", "csv"))
    add("matrix", "emit an exact moment matrix")
    add("christoffel", "emit a reciprocal Christoffel function")
    add("verify", "verify a partition identity exactly")
    p = add("maxent", "solve a max-entropy certificate program")
    # None: the solver's defaults, read when a solve runs.
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--max-iter", type=int, default=None)
    p.add_argument("--exact", action="store_true",
                   help="keep the solver's certificate if exact, else snap its dual; verify it")
    p = add("partition", "emit a partition of unity")
    p.add_argument("--points", default=None, help="semicolon-separated points, comma-separated coordinates")

    return parser


_encode_str = json.encoder.encode_basestring_ascii


def _float_text(x: float) -> str:
    """json's spelling of a float: its repr, or NaN, Infinity or -Infinity."""
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


# The JSON text of a scalar, by its exact type.
_SCALAR_TEXT = {
    str: _encode_str,
    int: int.__repr__,
    float: _float_text,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _write_json(obj, out: list[str], newline: str) -> None:
    """Append to ``out`` the text ``json.dumps(indent=2)`` gives ``obj`` at the
    nesting level whose line break and indent is ``newline``.

    Takes only the types the CLI's payloads hold: an exact ``list``, an exact
    ``dict`` with exact ``str`` keys, and the exact scalar types of
    ``_SCALAR_TEXT``.  Any other key raises ``TypeError``, and any other
    value json's own ``TypeError``, so a new payload type fails loudly and is
    never written wrong.  An item of a scalar type is written in place,
    without a call, and a list whose items share one such type is one join.
    Module-level and closure-free, so a call leaves no reference cycle behind.
    """
    kind = type(obj)
    if kind is list:
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        separator = "," + inner
        kinds = set(map(type, obj))
        text = _SCALAR_TEXT.get(kinds.pop()) if len(kinds) == 1 else None
        if text is not None:
            out.append("[" + inner + separator.join(map(text, obj)) + newline + "]")
            return
        before = "[" + inner
        for item in obj:
            text = _SCALAR_TEXT.get(type(item))
            if text is not None:
                out.append(before + text(item))
            else:
                out.append(before)
                _write_json(item, out, inner)
            before = separator
        out.append(newline + "]")
    elif kind is dict:
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        separator = "," + inner
        before = "{" + inner
        for key, value in obj.items():
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {key.__class__.__name__}")
            key = _encode_str(key)
            text = _SCALAR_TEXT.get(type(value))
            if text is not None:
                out.append(before + key + ": " + text(value))
            else:
                out.append(before + key + ": ")
                _write_json(value, out, inner)
            before = separator
        out.append(newline + "}")
    else:
        text = _SCALAR_TEXT.get(kind)
        if text is None:
            raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")
        out.append(text(obj))


def _json_text(payload) -> str:
    """The text of ``json.dumps(payload, indent=2)``, byte for byte, for a
    payload of the types ``_write_json`` takes."""
    out: list[str] = []
    _write_json(payload, out, "\n")
    return "".join(out)


def _write_output(payload: object, kind: str, output: Optional[str]) -> None:
    # A text payload is the moments CSV, whose rows end in "\r\n".
    text = _json_text(payload) + "\n" if kind == "json" else payload
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
        except (ValueError, TypeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except MemoryError as exc:
            print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory",
                  file=sys.stderr)
            return EXIT_NUMERIC
        except ArithmeticError as exc:  # NotPositiveDefiniteError, OverflowError
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_NUMERIC
        try:
            _write_output(payload, kind, args.output)
        except OSError as exc:
            return _output_error(args.output, exc)
        return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
