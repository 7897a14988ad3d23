"""Every exact benchmark output matches its stored sha256 digest.

Builds each workload of ``perfbench/cases.py`` for seed 0 (digested outputs
do not depend on the seed), runs every case that has a digest in
``perfbench/digests.json`` together with its own check, and compares the
sha256 of its canonical exact output.  Only reads ``perfbench/``.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
_spec = importlib.util.spec_from_file_location("perfbench_cases", BENCH / "cases.py")
cases = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cases)

DIGESTS = json.loads((BENCH / "digests.json").read_text())
DIGESTED = [
    case
    for workload in cases.WORKLOADS
    for case_list in cases.build(workload, 0).values()
    for case in case_list
    if case.digest is not None and case.id in DIGESTS
]


def test_every_stored_digest_has_a_case():
    assert {case.id for case in DIGESTED} == set(DIGESTS)


@pytest.mark.parametrize("case", DIGESTED, ids=[case.id for case in DIGESTED])
def test_exact_output_matches_digest(case):
    output = case.call()
    case.check(output)
    assert cases.canonical_digest(case.digest(output)) == DIGESTS[case.id]
