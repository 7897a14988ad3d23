"""Timing loop, output checks and metric assembly for ``run.py``.

A ``Runner`` executes cases closed-loop in one thread: each call into the
library is issued when the previous one has returned.  Every execution is
checked outside its timed region; a failure is counted, never raised.

Times are reported at a reference host speed.  The host's cores switch
between speeds about 2x apart, in phases of seconds to minutes, so raw
times of one input spread by more than any useful bound across runs.  Each
timed unit therefore runs between host-speed probes (fixed exact rational
work that does not touch unitycert), and its times are scaled by
HOST_PROBE_REFERENCE_S over the probe time measured around it.  A change to
unitycert moves the scaled times exactly as it moves the raw ones; raw
medians are printed alongside.
"""

from __future__ import annotations

import json
import logging
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from cases import CheckFailed, build, canonical_digest, convergence_probe
from tracer import Tracer
from unitycert.maxent import NoInteriorCertificateError

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 11
SETUP_TIMEOUT_S = 60
# Share of loop time per case list; a stretch unit is one case, the others
# are whole passes.
WEIGHTS = {"accept": 2.0, "stretch": 4.0, "cli": 1.5}
MIN_SAMPLES = {"accept": 3, "stretch": 2, "cli": 3}
TRACE_MIN_SAMPLES = {"accept": 3, "stretch": 0, "cli": 1}
HARD_LIMIT_S = 150.0  # stop sampling past this, to exit well within 180 s
SETUP_CODE = ("import sys; sys.path[:0] = sys.argv[1:3]; import cases; "
              "cases.build(sys.argv[3], int(sys.argv[4]))")
# The probe's time in the fast phases of the machine described in README.md.
HOST_PROBE_REFERENCE_S = 2.8e-3
# Probes on each side of a timed unit; their median discards a probe slowed
# by an interrupt or by caches that the unit left cold.
PROBES_PER_SIDE = 3


def host_probe() -> float:
    """Seconds taken by fixed Fraction work that does not touch unitycert."""
    start = time.perf_counter()
    acc = Fraction(0)
    for k in range(1, 500):
        acc = acc * Fraction(k, k + 2) + Fraction(1, k)
    return time.perf_counter() - start


class WarningCounter(logging.Handler):
    """Counts the library's logged warnings instead of printing them."""

    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:
        self.count += 1


class Runner:
    """Executes cases, times each call and checks every output.

    A NoInteriorCertificateError is the solver's documented diagnostic: on a
    workload case it counts as a failed operation, but not as a wrong output.
    Any other exception, failed check or digest mismatch is a wrong output as
    well, and clears ``correct``.  On a convergence-probe case the diagnostic
    is the measured outcome: it is recorded in ``unconverged``, not counted
    as failed.
    """

    def __init__(self, sets, digests, tracer=None) -> None:
        self.sets = sets
        self.digests = digests
        self.tracer = tracer
        # Per case: times at the reference host speed, and raw times.
        self.samples = {kind: {case.id: [] for case in cases} for kind, cases in sets.items()}
        self.raw = {kind: {case.id: [] for case in cases} for kind, cases in sets.items()}
        self.scales: list[float] = []
        self.runs: dict[str, list[int]] = {}  # case id -> [executions, failures]
        self.failures: dict[str, str] = {}  # case id -> first failure
        self.unconverged: dict[str, str] = {}  # probe case id -> diagnostic
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.setup_times: list[float] = []
        self._spent = dict.fromkeys(WEIGHTS, 0.0)
        self._next_stretch = 0

    def execute(self, case, probe: bool = False) -> float:
        """Runs and checks one case; returns the seconds its call took.
        ``probe`` marks a convergence-probe case (see the class docstring)."""
        tracer = self.tracer
        if tracer is not None:
            tracer.case_id = case.id
            tracer.active = True
        output = error = None
        wrong = False
        start = time.perf_counter()
        try:
            output = case.call()
        except NoInteriorCertificateError as exc:
            error = f"NoInteriorCertificateError: {exc} (residual {exc.report.residual:.3e})"
        except Exception as exc:  # a crash is a failed operation, not a crashed run
            error, wrong = f"{type(exc).__name__}: {exc}", True
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.active = False
        if error is None:
            if tracer is not None and tracer.counting and case.observe is not None:
                for name, value in case.observe(output).items():
                    (tracer.count_max if name.endswith("_max") else tracer.count_add)(name, value)
            error = self._check(case, output)
            wrong = error is not None
        self.attempted += 1
        if probe and error is not None and not wrong:
            self.unconverged[case.id] = error
            return elapsed
        runs = self.runs.setdefault(case.id, [0, 0])
        runs[0] += 1
        if error is not None:
            runs[1] += 1
            self.failed += 1
            self.failures.setdefault(case.id, error)
            self.correct = self.correct and not wrong
        return elapsed

    def _check(self, case, output):
        try:
            case.check(output)
            want = self.digests.get(case.id)
            if case.digest is not None and want is not None:
                got = canonical_digest(case.digest(output))
                if got != want:
                    return f"digest {got[:16]} differs from the stored {want[:16]}"
        except CheckFailed as exc:
            return str(exc)
        except Exception as exc:  # malformed output
            return f"check raised {type(exc).__name__}: {exc}"
        return None

    def warm_up(self) -> None:
        for kind in ("accept", "cli", "stretch"):
            for case in self.sets[kind]:
                self.execute(case)

    def probed(self, work):
        """Runs ``work`` between host-speed probes; returns its result and the
        factor that scales its times to the reference host speed: the
        reference over the mean of the median probe on each side."""
        before = statistics.median(host_probe() for _ in range(PROBES_PER_SIDE))
        result = work()
        after = statistics.median(host_probe() for _ in range(PROBES_PER_SIDE))
        scale = HOST_PROBE_REFERENCE_S / ((before + after) / 2)
        self.scales.append(scale)
        return result, scale

    def _unit(self, kind: str) -> float:
        cases = self.sets[kind]
        if kind == "stretch":
            cases = [cases[self._next_stretch % len(cases)]]
            self._next_stretch += 1
        times, scale = self.probed(lambda: [self.execute(case) for case in cases])
        for case, elapsed in zip(cases, times):
            self.raw[kind][case.id].append(elapsed)
            self.samples[kind][case.id].append(elapsed * scale)
        return sum(times)

    def enough(self, minimum) -> bool:
        return all(len(samples) >= minimum[kind]
                   for kind, per_case in self.samples.items() for samples in per_case.values())

    def step(self) -> None:
        """Runs the unit of the case list furthest behind its time share."""
        kind = min(self._spent, key=lambda k: self._spent[k] / WEIGHTS[k])
        self._spent[kind] += self._unit(kind)

    def measure(self, deadline: float, minimum, hard_deadline: float, setup=None) -> None:
        """Runs steps until the deadline has passed and every case has its
        minimum sample count.  ``setup``, when given, times one fresh
        interpreter; it runs SETUP_SAMPLES times at evenly spaced moments."""
        start = time.perf_counter()
        wanted_setups = SETUP_SAMPLES if setup is not None else 0
        while (now := time.perf_counter()) < hard_deadline:
            taken = len(self.setup_times)
            if taken < wanted_setups and now >= start + taken * (deadline - start) / wanted_setups:
                elapsed, scale = self.probed(setup)
                self.setup_times.append(elapsed * scale)
                continue
            if now >= deadline and taken >= wanted_setups and self.enough(minimum):
                break
            self.step()

    def pass_time(self, kind: str) -> dict:
        """Median pass: the sum over cases of each case's median time at the
        reference speed, with the sums of the case quartiles, the fewest
        samples of a case, and the raw median pass."""
        per_case = list(self.samples[kind].values())
        if not all(per_case):
            raise RuntimeError(f"a {kind} case has no timed sample")
        quartiles = [statistics.quantiles(s, n=4) if len(s) > 1 else [s[0]] * 3
                     for s in per_case]
        return {"median": sum(statistics.median(s) for s in per_case),
                "q1": sum(q[0] for q in quartiles), "q3": sum(q[2] for q in quartiles),
                "n": min(len(s) for s in per_case),
                "raw": sum(statistics.median(s) for s in self.raw[kind].values())}

    def solved_frac(self) -> float:
        """Mean over cases of the share of its executions that succeeded."""
        return statistics.fmean(1 - failures / executions
                                for executions, failures in self.runs.values())


def _setup_timed_out(signum, frame):
    raise TimeoutError(f"set-up interpreter still running after {SETUP_TIMEOUT_S} s")


def time_setup(workload: str, seed: int) -> float:
    """One fresh interpreter importing unitycert and building the inputs.

    The wait blocks in waitpid, bounded by SIGALRM: ``Popen.wait`` with a
    timeout polls in sleeps of up to 50 ms, which quantized set-up times.
    """
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-c", SETUP_CODE, str(SRC), str(BENCH), workload,
                              str(seed)], stdout=subprocess.DEVNULL)
    previous = signal.signal(signal.SIGALRM, _setup_timed_out)
    signal.alarm(SETUP_TIMEOUT_S)
    try:
        code = child.wait()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        if child.poll() is None:
            child.kill()
            child.wait()
    elapsed = time.perf_counter() - start
    if code != 0:
        raise subprocess.CalledProcessError(code, child.args)
    return elapsed


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def end_to_end(workload, seed, seconds, sets, digests, started):
    runner = Runner(sets, digests)
    deadline = time.perf_counter() + seconds
    runner.warm_up()
    runner.measure(deadline, MIN_SAMPLES, started + HARD_LIMIT_S,
                   setup=lambda: time_setup(workload, seed))
    values = {}
    for kind in ("accept", "stretch", "cli"):
        t = runner.pass_time(kind)
        values[f"{kind}_s"] = t["median"]
        print(f"{kind + '_s':>10} median {t['median']:.6f} s  quartiles {t['q1']:.6f}.."
              f"{t['q3']:.6f}  n={t['n']}  raw median {t['raw']:.6f} s")
    setups = runner.setup_times
    values["setup_s"] = statistics.median(setups)
    q1, _, q3 = statistics.quantiles(setups, n=4)
    print(f"{'setup_s':>10} median {values['setup_s']:.6f} s  quartiles {q1:.6f}..{q3:.6f}  "
          f"n={len(setups)}")
    scales = statistics.quantiles(runner.scales, n=4)
    print(f"host speed scale quartiles {scales[0]:.3f} {scales[1]:.3f} {scales[2]:.3f}")
    values["solved_frac"] = runner.solved_frac()
    values["peak_rss_mb"] = peak_rss_mb()
    return values, [runner]


def traced(workload, seed, seconds, sets, digests, warnings, started):
    """Per-layer metrics from a traced runner, stepped in alternation with an
    untraced one so that both see the same host speed; the tracer's wrappers
    are installed only around the traced steps.  The convergence probe runs
    once, traced and counted, after the warm-up."""
    tracer = Tracer()
    traced_runner = Runner(sets, digests, tracer)
    plain = Runner(sets, digests)
    deadline = time.perf_counter() + seconds
    tracer.install()
    tracer.counting = True
    warnings_before = warnings.count
    traced_runner.warm_up()
    for case in convergence_probe(workload, seed):
        traced_runner.execute(case, probe=True)
    tracer.count_add("identities.warnings", warnings.count - warnings_before)
    tracer.counting = False
    tracer.uninstall()
    while time.perf_counter() < started + HARD_LIMIT_S:
        if (time.perf_counter() >= deadline and traced_runner.enough(TRACE_MIN_SAMPLES)
                and plain.enough(TRACE_MIN_SAMPLES)):
            break
        tracer.install()
        traced_runner.step()
        tracer.uninstall()
        plain.step()
    values = tracer.metrics()
    values["trace.overhead_ratio"] = (traced_runner.pass_time("accept")["median"]
                                      / plain.pass_time("accept")["median"])
    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    path = out / f"trace-{workload}-seed{seed}.jsonl.gz"
    tracer.write(path)
    print(f"{len(tracer.spans)} spans written to {path.relative_to(ROOT)}")
    return values, [traced_runner, plain]


def run(workload: str, seed: int, seconds: float, trace: bool, started: float) -> dict:
    """Runs the workload and returns the result object the benchmark prints."""
    return run_sets(build(workload, seed), workload, seed, seconds, trace, started)


def run_sets(sets, workload: str, seed: int, seconds: float, trace: bool, started: float) -> dict:
    """Runs the given case lists (``seed`` only names the setup probe's inputs)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    digests_path = BENCH / "digests.json"
    digests = json.loads(digests_path.read_text()) if digests_path.is_file() else {}
    warnings = WarningCounter()
    logger = logging.getLogger("unitycert")
    logger.addHandler(warnings)
    try:
        if trace:
            values, runners = traced(workload, seed, seconds, sets, digests, warnings, started)
        else:
            values, runners = end_to_end(workload, seed, seconds, sets, digests, started)
    finally:
        logger.removeHandler(warnings)
    wanted = spec["per_layer" if trace else "end_to_end"]
    names = {metric["name"] for metric in wanted}
    if set(values) != names:
        raise RuntimeError(f"metrics {sorted(set(values) ^ names)} do not match BENCHMARK.json")
    failures = {}
    for runner in runners:
        for case_id, reason in runner.failures.items():
            failures.setdefault(case_id, (reason, runner.runs[case_id]))
    for case_id, (reason, (executions, failed)) in sorted(failures.items()):
        print(f"FAILED {failed}/{executions} {case_id}: {reason}")
    for runner in runners:
        for case_id, reason in sorted(runner.unconverged.items()):
            print(f"probe, no certificate: {case_id}: {reason}")
    return {
        "correct": all(runner.correct for runner in runners),
        "attempted": sum(runner.attempted for runner in runners),
        "failed": sum(runner.failed for runner in runners),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
