"""In-memory span tracer around the library's public functions.

The tracer replaces each probed function or method with a wrapper, in every
``unitycert`` module namespace that holds it and on the owning class, and
restores the originals on ``uninstall``.  No program source is edited.  A
span records its name, start, end, parent span and the benchmark case that
caused it.  A span's self time is its duration minus the whole time of its
direct children, wrapper bookkeeping included, so the tracer's own cost
never lands in a layer's self time.

Counts are taken only while ``counting`` is set, which the runner does for
exactly one execution of every case, so that they do not depend on how many
passes fit in the run.
"""

from __future__ import annotations

import gzip
import json
import statistics
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Optional

from unitycert import cli, identities, maxent, measures, momatrix, polycore
from unitycert.polycore import MPoly, UPoly


def _coeff_bits(poly) -> int:
    values = poly.coeffs if isinstance(poly, UPoly) else poly.terms.values()
    return max((max(c.numerator.bit_length(), c.denominator.bit_length()) for c in values),
               default=0)


def _observe_product(tracer, duration, args, result, error):
    if error is None and tracer.counting:
        tracer.count_max("polycore.coeff_bits_max", _coeff_bits(result))


def _observe_moment(tracer, duration, args, result, error):
    tracer.functionals[id(args[0])] = args[0]


def _observe_inverse(tracer, duration, args, result, error):
    if error is None and tracer.counting:
        tracer.count_max("momatrix.dim_max", len(result))
        bits = max((max(v.numerator.bit_length(), v.denominator.bit_length())
                    for row in result for v in row), default=0)
        tracer.count_max("momatrix.inverse_bits_max", bits)


def _observe_identity(tracer, duration, args, result, error):
    if error is None:
        tracer.count_add("identities.residual_terms", result.residual_terms)


def _observe_solve(tracer, duration, args, result, error):
    report = result[2] if error is None else getattr(error, "report", None)
    if report is None:
        return
    tracer.solves.append((duration, report.iterations))
    tracer.count_add("maxent.newton_iters", report.iterations)
    tracer.count_add("maxent.solves", 1)
    tracer.count_add("maxent.converged", int(error is None and report.converged))


def _observe_verify_exact(tracer, duration, args, result, error):
    tracer.count_add("maxent.verify_exact_calls", 1)
    tracer.count_add("maxent.exact_reconstructions", int(result is True))


@dataclass(frozen=True)
class Probe:
    """A probed callable: span name, owner (module or class) and attribute.

    ``observe`` runs after every traced call (counting or not) with the
    span's duration; it records counts through ``count_add``/``count_max``,
    which only take effect while counting.
    """

    name: str
    owner: Any
    attribute: str
    observe: Optional[Callable] = None


PROBES = (
    Probe("polycore.cheb", polycore, "cheb"),
    Probe("polycore.upoly_mul", UPoly, "__mul__", _observe_product),
    Probe("polycore.upoly_mul", UPoly, "__rmul__", _observe_product),
    Probe("polycore.upoly_add", UPoly, "__add__"),
    Probe("polycore.upoly_add", UPoly, "__sub__"),
    Probe("polycore.mpoly_mul", MPoly, "__mul__", _observe_product),
    Probe("polycore.mpoly_mul", MPoly, "__rmul__", _observe_product),
    Probe("polycore.mpoly_add", MPoly, "__add__"),
    Probe("polycore.mpoly_add", MPoly, "__sub__"),
    Probe("polycore.generator_power", polycore, "simplex_generator_power"),
    Probe("polycore.eval", UPoly, "eval"),
    Probe("polycore.eval", MPoly, "eval"),
    # A moment call that grows the memo is renamed measures.moment_cold.
    Probe("measures.moment", measures.MomentFunctional, "moment", _observe_moment),
    Probe("measures.poly_moment", measures.MomentFunctional, "poly_moment"),
    Probe("measures.beta_integral", measures, "beta_integral"),
    Probe("momatrix.fill", momatrix, "moment_matrix"),
    Probe("momatrix.invert", momatrix, "invert_symmetric_rational", _observe_inverse),
    Probe("momatrix.christoffel_form", momatrix, "christoffel_form"),
    Probe("momatrix.eval", momatrix, "christoffel_eval"),
    Probe("identities.pell", identities, "verify_pell", _observe_identity),
    Probe("identities.unity01", identities, "verify_unity_01", _observe_identity),
    Probe("identities.unity_interval", identities, "verify_unity_interval", _observe_identity),
    Probe("identities.simplex_unity", identities, "verify_simplex_unity", _observe_identity),
    Probe("identities.simplex_equilibrium", identities, "verify_simplex_equilibrium",
          _observe_identity),
    Probe("maxent.handelman", maxent, "solve_handelman", _observe_solve),
    Probe("maxent.putinar", maxent, "solve_putinar", _observe_solve),
    Probe("maxent.simplex", maxent, "solve_simplex", _observe_solve),
    Probe("maxent.exact_cert", maxent, "exact_handelman"),
    Probe("maxent.exact_cert", maxent, "exact_putinar"),
    Probe("maxent.verify_exact", maxent, "verify_certificate_exact", _observe_verify_exact),
    Probe("cli.run", cli, "run"),
    Probe("cli.emit_partition", cli, "emit_partition"),
)

_IDENTITY_SPANS = ("identities.pell", "identities.unity01", "identities.unity_interval",
                   "identities.simplex_unity", "identities.simplex_equilibrium")

# Per-layer timing metrics: (span names, "self" or "total" duration); each
# value is the median per call in seconds, 0 when the workload makes no call.
TIMINGS = {
    "polycore.cheb_s": (("polycore.cheb",), "self"),
    "polycore.upoly_mul_s": (("polycore.upoly_mul",), "self"),
    "polycore.upoly_add_s": (("polycore.upoly_add",), "self"),
    "polycore.mpoly_mul_s": (("polycore.mpoly_mul",), "self"),
    "polycore.mpoly_add_s": (("polycore.mpoly_add",), "self"),
    "polycore.generator_power_s": (("polycore.generator_power",), "self"),
    "polycore.eval_s": (("polycore.eval",), "self"),
    "measures.moment_cold_s": (("measures.moment_cold",), "self"),
    "measures.poly_moment_s": (("measures.poly_moment",), "self"),
    "measures.beta_integral_s": (("measures.beta_integral",), "self"),
    "momatrix.fill_s": (("momatrix.fill",), "self"),
    "momatrix.invert_s": (("momatrix.invert",), "self"),
    "momatrix.christoffel_form_s": (("momatrix.christoffel_form",), "self"),
    "momatrix.eval_s": (("momatrix.eval",), "self"),
    "identities.pell_s": (("identities.pell",), "total"),
    "identities.unity01_s": (("identities.unity01",), "total"),
    "identities.unity_interval_s": (("identities.unity_interval",), "total"),
    "identities.simplex_unity_s": (("identities.simplex_unity",), "total"),
    "identities.simplex_equilibrium_s": (("identities.simplex_equilibrium",), "total"),
    "identities.self_s": (_IDENTITY_SPANS, "self"),
    "maxent.handelman_s": (("maxent.handelman",), "total"),
    "maxent.putinar_s": (("maxent.putinar",), "total"),
    "maxent.simplex_s": (("maxent.simplex",), "total"),
    "maxent.exact_cert_s": (("maxent.exact_cert",), "total"),
    "maxent.verify_exact_s": (("maxent.verify_exact",), "total"),
    "cli.run_s": (("cli.run",), "total"),
    "cli.overhead_s": (("cli.run",), "self"),
}


class Tracer:
    """Spans and counts of the probed calls made while ``active`` is set."""

    def __init__(self) -> None:
        # (id, name, start, end, parent id or -1, case id, self seconds)
        self.spans: list[tuple] = []
        self.case_id: Optional[str] = None
        self.active = False
        self.counting = False
        self.counts: dict[str, float] = {}
        self.functionals: dict[int, measures.MomentFunctional] = {}
        self.solves: list[tuple[float, int]] = []
        self._stack: list[list] = []
        self._next_id = 0
        self._originals: list[tuple[Any, str, Any]] = []

    def count_add(self, name: str, value: float) -> None:
        if self.counting:
            self.counts[name] = self.counts.get(name, 0) + value

    def count_max(self, name: str, value: float) -> None:
        if self.counting:
            self.counts[name] = max(self.counts.get(name, 0), value)

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "unitycert" or key.startswith("unitycert.")]
        for probe in PROBES:
            original = getattr(probe.owner, probe.attribute, None)
            if original is None:  # renamed by a later version: probe skipped
                continue
            wrapped = self._wrap(probe, original)
            if isinstance(probe.owner, type):
                self._patch(probe.owner, probe.attribute, original, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._originals):
            setattr(owner, key, original)
        self._originals.clear()

    def _patch(self, owner, key, original, wrapped) -> None:
        self._originals.append((owner, key, original))
        setattr(owner, key, wrapped)

    def _wrap(self, probe: Probe, fn: Callable) -> Callable:
        tracer = self
        splits_cold = probe.name == "measures.moment"

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            enter = perf_counter()
            memo_before = args[0].memo_size() if splits_cold else 0
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else None
            frame = [span_id, 0.0]  # own id, whole time of direct children
            tracer._stack.append(frame)
            result = error = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                end = perf_counter()
                tracer._stack.pop()
                name = probe.name
                if splits_cold and args[0].memo_size() > memo_before:
                    name = "measures.moment_cold"
                tracer.spans.append((span_id, name, start, end,
                                     -1 if parent is None else parent[0],
                                     tracer.case_id, end - start - frame[1]))
                if probe.observe is not None and (result is not None or error is not None):
                    probe.observe(tracer, end - start, args, result, error)
                if parent is not None:
                    parent[1] += perf_counter() - enter

        return traced

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metric values from the recorded spans and counts."""
        by_name: dict[str, list[tuple[float, float]]] = {}
        for _, name, start, end, _, _, self_time in self.spans:
            by_name.setdefault(name, []).append((end - start, self_time))
        out: dict[str, float] = {}
        for metric, (names, kind) in TIMINGS.items():
            values = [total if kind == "total" else own
                      for name in names for total, own in by_name.get(name, ())]
            out[metric] = statistics.median(values) if values else 0.0
        counts = self.counts
        out["polycore.coeff_bits_max"] = counts.get("polycore.coeff_bits_max", 0)
        out["measures.memo_entries"] = sum(f.memo_size() for f in self.functionals.values())
        out["momatrix.dim_max"] = counts.get("momatrix.dim_max", 0)
        out["momatrix.inverse_bits_max"] = counts.get("momatrix.inverse_bits_max", 0)
        out["identities.residual_terms"] = counts.get("identities.residual_terms", 0)
        out["identities.warnings"] = counts.get("identities.warnings", 0)
        out["maxent.newton_iters"] = counts.get("maxent.newton_iters", 0)
        per_iter = [d / i for d, i in self.solves if i > 0]
        out["maxent.s_per_newton_iter"] = statistics.median(per_iter) if per_iter else 0.0
        solves = counts.get("maxent.solves", 0)
        out["maxent.converged_ratio"] = counts.get("maxent.converged", 0) / solves if solves else 0.0
        verified = counts.get("maxent.verify_exact_calls", 0)
        out["maxent.exact_reconstruction_ratio"] = (
            counts.get("maxent.exact_reconstructions", 0) / verified if verified else 0.0)
        out["maxent.dual_err_max"] = counts.get("maxent.dual_err_max", 0.0)
        out["cli.output_bytes"] = counts.get("cli.output_bytes", 0)
        out["cli.exit_mismatches"] = counts.get("cli.exit_mismatches", 0)
        out["trace.spans"] = len(self.spans)
        return out

    def write(self, path) -> None:
        """Gzipped JSON lines: first the span names and case ids, then one
        [id, name index, start ns, end ns, parent id, case index] per span,
        times counted from the first span."""
        names = sorted({span[1] for span in self.spans})
        case_ids = sorted({span[5] for span in self.spans})
        name_index = {name: i for i, name in enumerate(names)}
        case_index = {case_id: i for i, case_id in enumerate(case_ids)}
        origin = min((span[2] for span in self.spans), default=0.0)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write(json.dumps({"names": names, "cases": case_ids}) + "\n")
            handle.writelines(
                f"[{span_id},{name_index[name]},{round((start - origin) * 1e9)},"
                f"{round((end - origin) * 1e9)},{parent},{case_index[case_id]}]\n"
                for span_id, name, start, end, parent, case_id, _ in self.spans)
