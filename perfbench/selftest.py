"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

1. Runs every workload briefly, with its stretch list replaced by its
   acceptance list, untraced and traced, and checks that every metric named
   in BENCHMARK.json is emitted once with its unit and a finite value.
2. Feeds deliberately corrupted outputs (a wrong constant, and an output
   whose closed form holds but whose digest differs) and checks that each is
   counted as failed and marks the run incorrect, without stopping it.
   Checks that the solver's NoInteriorCertificateError counts as failed on a
   workload case and not on a convergence-probe case.
3. Runs the benchmark in a directory holding only BENCHMARK.json and the
   benchmark files, and checks that it exits non-zero without a result.

Exits 1 if any check fails.  Writes only under ``.perfbench/``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
from cases import WORKLOADS, build, convergence_probe  # noqa: E402

FAILURES: list[str] = []


def expect(condition: bool, message: str) -> None:
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        FAILURES.append(message)


def check_metrics(workload: str, trace: bool, spec: dict) -> None:
    sets = build(workload, 0)
    sets["stretch"] = sets["accept"]
    result = harness.run_sets(sets, workload, 0, 0.5, trace, time.perf_counter())
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    label = f"{workload} trace={int(trace)}"
    expect(list(metrics) == [m["name"] for m in wanted], f"{label}: every metric emitted once")
    expect(all(metrics[m["name"]]["unit"] == m["unit"] for m in wanted), f"{label}: units")
    expect(all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
               for v in metrics.values()), f"{label}: finite values")
    expect(result["attempted"] >= 1 and set(result) == {"correct", "attempted", "failed",
                                                         "metrics"}, f"{label}: result keys")


def check_corruption() -> None:
    (pell,) = [c for c in build("univariate-exact", 0)["accept"] if c.id.startswith("pell")]
    report = pell.call()
    wrong_constant = dataclasses.replace(report, constant=report.constant + 1)
    wrong_digest = dataclasses.replace(report, params={"n": 63})
    digests = json.loads((BENCH / "digests.json").read_text())
    for label, output in (("wrong constant", wrong_constant), ("digest mismatch", wrong_digest)):
        corrupted = dataclasses.replace(pell, call=lambda output=output: output)
        sets = {"accept": [pell, corrupted], "stretch": [pell], "cli": [pell]}
        runner = harness.Runner(sets, digests)
        runner.warm_up()
        expect(runner.failed == 1 and not runner.correct and runner.solved_frac() < 1,
               f"{label}: counted as failed ({runner.failed} of {runner.attempted})")


def check_diagnostic() -> None:
    (hard,) = [c for c in convergence_probe("maxent", 0) if c.id == "handelman n=12 flagship"]
    for probe in (False, True):
        runner = harness.Runner({"accept": [hard], "stretch": [], "cli": []}, {})
        runner.execute(hard, probe=probe)
        label = "probe" if probe else "workload"
        expect(runner.failed == int(not probe) and runner.correct
               and len(runner.unconverged) == int(probe),
               f"no certificate on a {label} case: {runner.failed} failed, "
               f"{len(runner.unconverged)} unconverged")


def check_bare_directory() -> None:
    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(spec["command"] + ["--workload", next(iter(WORKLOADS)), "--seed", "0",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    expect(done.returncode != 0 and not done.stdout.strip(),
           f"bare directory: exit {done.returncode}, no result")
    shutil.rmtree(bare)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in WORKLOADS:
        for trace in (False, True):
            check_metrics(workload, trace, spec)
    check_corruption()
    check_diagnostic()
    check_bare_directory()
    print(f"{len(FAILURES)} failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
