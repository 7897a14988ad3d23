"""The benchmark tracer's probes still reach the library.

Loads ``perfbench/tracer.py`` without changing it.  ``Tracer.install`` skips
a probe whose attribute is gone, so a renamed function would silently drop
out of the per-layer timings; these tests fail instead.
"""

import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from unitycert import measures, momatrix

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
_spec = importlib.util.spec_from_file_location("perfbench_tracer", BENCH / "tracer.py")
tracer = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


def test_every_probe_owner_has_its_attribute():
    missing = [f"{probe.name} ({probe.attribute})" for probe in tracer.PROBES
               if not callable(getattr(probe.owner, probe.attribute, None))]
    assert missing == []


@pytest.mark.parametrize(
    "measure, point",
    [
        (measures.simplex_uniform(2), [Fraction(1, 4), Fraction(1, 3)]),
        (measures.ARCSINE, [Fraction(-1, 3)]),
    ],
    ids=["simplex", "arcsine"],
)
def test_christoffel_eval_records_a_polycore_eval_span(measure, point):
    form = momatrix.christoffel_form(measure, 2)
    traced = tracer.Tracer()
    traced.install()
    try:
        traced.active = True
        momatrix.christoffel_eval(form, point)
    finally:
        traced.uninstall()
    spans = {name: (span_id, parent) for span_id, name, _, _, parent, _, _ in traced.spans}
    assert len(traced.spans) == 2
    assert spans["polycore.eval"][1] == spans["momatrix.eval"][0]
