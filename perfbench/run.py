"""lyprobe benchmark: one workload per run, closed loop, one client, one process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload simulate_strong --seed 1 --seconds 15 --trace 0

The program is imported from ``src/`` of the same checkout; nothing is
installed.  A run imports the program, builds its op list from the seed and
runs one uncounted warm-up op; the time from the start of ``main`` to the end
of the warm-up, drift-corrected like the op times, is ``setup_s``.  It then
repeats whole passes over the op list until ``--seconds`` have passed.  Each
op starts after the previous one ends.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` every op runs twice back to back, untraced and traced; the
traced copy records a span around each call into a lyprobe layer, the run
reports the per-layer metrics per pass, and the traced-minus-untraced op
time is the tracing overhead.  Correctness gates run outside the timed
region on the first pass; later passes must reproduce the first pass's
outputs exactly.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import ctypes
import functools
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_tmp"
# times are reported in seconds of a machine on which SpeedProbe's kernel takes 2.5 ms
CALIBRATION_REF_S = 0.0025
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

END_TO_END = (
    ("wall_s", "s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("zero_count_ratio", "ratio"),
)

# span-backed metrics: (span name, statistic)
_SPAN_METRICS = (
    ("ising_bath.partition_coefficients", ("self_s", "calls", "failed")),
    ("ising_bath.lee_yang_zeros", ("self_s", "calls", "failed")),
    ("ising_bath.dephasing_factor", ("self_s", "calls")),
    ("experiments.default_steps", ("self_s",)),
    ("experiments.run_scenario", ("self_s", "calls")),
    ("experiments.detect_coherence_zeros", ("self_s", "calls")),
    ("experiments.count_recovery_peaks", ("self_s",)),
    ("experiments.vanishing_domains", ("self_s",)),
    ("experiments.emit_csv", ("self_s",)),
    ("experiments.fit_cmax_scaling", ("self_s", "calls")),
    ("channels.oat_reduced_state", ("self_s",)),
    ("channels.evolve", ("self_s", "calls")),
    ("channels.kraus", ("self_s", "calls")),
    ("observables.closed_form", ("self_s", "calls")),
    ("observables.concurrence_generic", ("self_s", "calls")),
    ("verify.run_checks", ("self_s",)),
)
# counters the ops report, summed per pass
_COUNT_METRICS = (
    ("ising_bath.zero_phases", "count"),
    ("experiments.grid_points", "count"),
    ("experiments.detected_zeros", "count"),
    ("experiments.expected_zeros", "count"),
    ("experiments.domains", "count"),
    ("experiments.csv_bytes", "B"),
    ("verify.checks_failed", "count"),
)
# only ising_bath raises RuntimeWarnings on these workloads (coefficient overflow)
_WARNING_LAYERS = ("ising_bath",)

PER_LAYER = (
    tuple(
        (f"{span}.{stat}", "s" if stat == "self_s" else "count")
        for span, stats in _SPAN_METRICS
        for stat in stats
    )
    + _COUNT_METRICS
    + tuple((f"{layer}.runtime_warnings", "count") for layer in _WARNING_LAYERS)
    + (("tracing.overhead_share", "ratio"),)
)


def pin_threads() -> int:
    """Pin BLAS/OpenMP pools to min(2, usable cores); call before numpy loads."""
    threads = max(1, min(2, len(os.sched_getaffinity(0))))
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def load_program():
    """Import lyprobe from this checkout's src/ and the benchmark's modules."""
    if not (SRC / "lyprobe" / "__init__.py").is_file():
        raise SystemExit(f"lyprobe sources not found under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import lyprobe

    if Path(lyprobe.__file__).resolve().parent != SRC / "lyprobe":
        raise SystemExit(f"imported lyprobe from {lyprobe.__file__}, not from {SRC}")
    import workloads

    return workloads


def environment(seed: int, threads: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
    }


def git_revision() -> str | None:
    """HEAD of the checkout if it is a git work tree; None otherwise."""
    if not (ROOT / ".git").exists():
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, env=env, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def source_digest() -> str:
    """sha256 over the program's source files, which identifies it without git."""
    import hashlib

    digest = hashlib.sha256()
    for path in sorted((SRC / "lyprobe").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


class OpRun:
    """One execution of one op: its time, start and end, outcome and outputs."""

    __slots__ = ("seconds", "span", "art", "reason", "warnings", "outputs", "counts")

    def __init__(self, seconds, span, art, reason, warnings_count):
        self.seconds = seconds
        self.span = span
        self.art = art
        self.reason = reason
        self.warnings = warnings_count
        self.outputs = {"error": reason} if art is None else None
        self.counts = {}


@functools.cache
def _malloc_trim():
    """glibc's malloc_trim from the running interpreter, or None elsewhere."""
    trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    if trim is not None:
        trim.argtypes = [ctypes.c_size_t]
        trim.restype = ctypes.c_int
    return trim


def release_memory() -> None:
    """Collect garbage and hand freed heap pages back to the OS.

    Called between ops, outside the timed region, so that an op's peak RSS
    does not depend on which ops ran before it and left the heap grown.
    """
    gc.collect()
    trim = _malloc_trim()
    if trim is not None:
        trim(0)


def execute(workloads, spec, call, workdir, probe=None) -> OpRun:
    """Run one op and time it, leaving out the probe's kernel runs inside it."""
    runner = workloads.RUNNERS[spec.kind]
    spent = probe.spent_s if probe else 0.0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            art = runner(spec, call, workdir)
            reason = None
        except Exception as exc:  # op boundary: a failed op is counted, not fatal
            art = None
            # a ring past a known numerical limit may fail in any way
            reason = workloads.gates.limit_class(spec) or f"error:{type(exc).__name__}"
        end = time.perf_counter()
    seconds = end - start - ((probe.spent_s - spent) if probe else 0.0)
    run = OpRun(
        seconds, (start, end), art, reason,
        sum(issubclass(w.category, RuntimeWarning) for w in caught),
    )
    if art is not None:
        run.outputs, run.counts = workloads.summarize(spec, art)
    return run


class SpeedProbe:
    """Fixed kernel, timed every PERIOD_S, that tracks how fast the machine runs.

    On a shared machine the speed of the interpreter and of numpy drifts by
    up to a half, in episodes of seconds, also in the middle of a long op.
    Between ``start`` and ``stop`` a SIGALRM handler times the kernel every
    PERIOD_S.  A span of work is reported as its time, minus the kernel runs
    inside it, times CALIBRATION_REF_S over the median kernel time from
    WINDOW_S before the span to WINDOW_S after it.  The kernel is an
    interpreter loop plus a numpy exp over 50,000 points (1.2 MB), the two
    kinds of work lyprobe does; it runs no lyprobe code, so a change to the
    program cannot move it.
    """

    PERIOD_S = 0.25
    WINDOW_S = 0.5

    def __init__(self) -> None:
        import numpy as np

        self._np = np
        self._x = np.linspace(0.0, 1.0, 50_000)
        self.samples: list[float] = []
        self.stamps: list[float] = []
        self.spent_s = 0.0

    def _kernel(self) -> float:
        start = time.perf_counter()
        acc = 0
        for i in range(15_000):
            acc += i * i
        self._np.exp(1j * self._x).sum()
        return time.perf_counter() - start

    def _sample(self, _signum=None, _frame=None) -> None:
        took = self._kernel()
        self.spent_s += took
        self.samples.append(took)
        self.stamps.append(time.perf_counter())

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()  # the last span gets a reading after it

    def scaled(self, seconds: float, span: tuple[float, float]) -> float:
        """``seconds`` of work done in ``span``, in seconds of the reference machine.

        The window also takes the nearest reading on each side, so it is
        never empty when a long C call delayed the handler.
        """
        lo = bisect.bisect_left(self.stamps, span[0] - self.WINDOW_S)
        hi = bisect.bisect_right(self.stamps, span[1] + self.WINDOW_S)
        window = self.samples[max(lo - 1, 0) : hi + 1]
        return seconds * CALIBRATION_REF_S / statistics.median(window)


def tail(times: list[float]) -> tuple[float, float]:
    """Highest order statistic with at least 10 ops beyond it, and its percentile.

    The benchmark passes one time per op of a pass (its median over the
    passes), so the percentile does not move with the number of passes.

    With 10 ops or fewer no percentile has 10 beyond it; the slowest op is
    reported, at percentile 100.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def run_workload(workloads, specs, seconds, trace, workdir, probe):
    """Whole passes over ``specs`` until ``seconds`` have passed; gates on pass one."""
    from spans import Tracer, direct

    tracer = Tracer() if trace else None
    times = {spec.index: [] for spec in specs}
    spans = {spec.index: [] for spec in specs}
    traced_total = untraced_total = 0.0
    first: dict[int, OpRun] = {}
    first_gates: dict[int, list[str]] = {}
    counts: Counter = Counter()
    outcome = Counter()  # reason -> op executions
    attempted = 0
    runtime_warnings = 0
    passes = 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        for spec in specs:
            release_memory()
            run = execute(workloads, spec, direct, workdir, probe)
            times[spec.index].append(run.seconds)
            spans[spec.index].append(run.span)
            runtime_warnings += run.warnings
            if passes == 0:
                failed_gates = [] if run.art is None else workloads.check(spec, run.art)
                run.art = None
                first[spec.index] = run
                first_gates[spec.index] = failed_gates
            else:
                failed_gates = list(first_gates[spec.index])
                if run.outputs != first[spec.index].outputs:
                    failed_gates.append("nondeterministic_output")
            if trace:
                release_memory()
                root = tracer.open_op(f"op.{spec.workload}", attempted)
                traced = execute(workloads, spec, tracer, workdir, probe)
                tracer.close_op(root, traced.reason is not None)
                traced_total += traced.seconds
                untraced_total += run.seconds
                counts.update(traced.counts)
                if traced.outputs != run.outputs:
                    failed_gates.append("traced_output_differs")
            attempted += 1
            if run.reason is not None:
                outcome[run.reason] += 1
            elif failed_gates:
                outcome["gate:" + "+".join(sorted(set(failed_gates)))] += 1
            else:
                outcome["ok"] += 1
        passes += 1
    return {
        "passes": passes,
        "times": times,
        "spans": spans,
        "first": first,
        "outcome": outcome,
        "attempted": attempted,
        "runtime_warnings": runtime_warnings,
        "tracer": tracer,
        "counts": counts,
        "traced_total": traced_total,
        "untraced_total": untraced_total,
    }


def end_to_end_metrics(specs, result, setup, probe) -> tuple[dict, dict]:
    """End-to-end metrics, and the details line; ``setup`` is (seconds, span)."""
    times = {
        i: [probe.scaled(t, span) for t, span in zip(per_op, result["spans"][i])]
        for i, per_op in result["times"].items()
    }
    # each op of the pass at its median time over the passes
    op_medians = [statistics.median(per_op) for per_op in times.values()]
    tail_value, tail_pct = tail(op_medians)
    raw = result["times"]
    raw_medians = [statistics.median(per_op) for per_op in raw.values()]
    expected = excess = 0
    for spec in specs:
        run = result["first"][spec.index]
        if "experiments.expected_zeros" in run.counts:
            e = run.counts["experiments.expected_zeros"]
            expected += e
            excess += abs(run.counts["experiments.detected_zeros"] - e)
    metrics = {
        "wall_s": sum(op_medians),
        "op_p50_s": statistics.median(op_medians),
        "op_tail_s": tail_value,
        "setup_s": probe.scaled(*setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        # 1 + sum|detected - expected| / sum expected; 1 when no op detects zeros
        "zero_count_ratio": 1.0 + excess / expected if expected else 1.0,
    }
    details = {
        "ops_per_pass": len(op_medians),
        "ops_timed": sum(len(per_op) for per_op in times.values()),
        "op_tail_percentile": tail_pct,
        "zero_count_excess": excess / expected if expected else None,
        "zero_count_expected": expected,
        "runtime_warnings_per_pass": result["runtime_warnings"] / result["passes"],
        "calibration_median_s": statistics.median(probe.samples),
        "raw_setup_s": setup[0],
        "raw_wall_s": sum(raw_medians),
        "raw_op_p50_s": statistics.median(raw_medians),
        "raw_op_tail_s": tail(raw_medians)[0],
        "op_seconds": {str(i): per_op for i, per_op in sorted(times.items())},
        "raw_op_seconds": {str(i): per_op for i, per_op in sorted(raw.items())},
    }
    return metrics, details


def per_layer_metrics(result) -> dict:
    totals = result["tracer"].totals()
    passes = result["passes"]
    metrics = {}
    for span, stats in _SPAN_METRICS:
        entry = totals.get(span, {"self_s": 0.0, "calls": 0, "failed": 0})
        for stat in stats:
            metrics[f"{span}.{stat}"] = entry[stat] / passes
    for name, _unit in _COUNT_METRICS:
        metrics[name] = result["counts"].get(name, 0) / passes
    for layer in _WARNING_LAYERS:
        metrics[f"{layer}.runtime_warnings"] = (
            sum(e["runtime_warnings"] for s, e in totals.items() if s.startswith(layer + "."))
            / passes
        )
    untraced = result["untraced_total"]
    metrics["tracing.overhead_share"] = (result["traced_total"] - untraced) / untraced
    return metrics


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("simulate_strong", "scan_weak", "zero_map", "cmax_fit"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measured time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    setup_start = time.perf_counter()
    args = parse_args(argv)
    threads = pin_threads()
    probe = SpeedProbe()  # loads numpy, so after the thread pins
    probe.start()
    try:
        state = set_up_and_run(args, probe, setup_start)
    finally:
        probe.stop()
    return report(args, threads, *state, probe)


def set_up_and_run(args, probe, setup_start):
    """Set up, then run the workload; returns what ``report`` prints."""
    workloads = load_program()
    specs, warmup = workloads.build(args.workload, args.seed)
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    # lyprobe.verify writes a temporary CSV; keep it inside the checkout
    tempfile.tempdir = workdir
    try:
        from spans import direct

        execute(workloads, warmup, direct, workdir)
        setup_end = time.perf_counter()
        setup = (setup_end - setup_start - probe.spent_s, (setup_start, setup_end))
        result = run_workload(workloads, specs, args.seconds, bool(args.trace), workdir, probe)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()  # only when no other run still uses it
    return workloads, specs, setup, result


def report(args, threads, workloads, specs, setup, result, probe) -> int:
    """Print the run's metrics; the last line is the JSON result."""
    if args.trace:
        metrics = per_layer_metrics(result)
        units = dict(PER_LAYER)
        details = {"ops_traced": sum(len(v) for v in result["times"].values())}
    else:
        metrics, details = end_to_end_metrics(specs, result, setup, probe)
        units = dict(END_TO_END)

    outcome = result["outcome"]
    failed = sum(n for reason, n in outcome.items() if reason != "ok")
    value_gate_failed = any(
        reason.startswith("error:")
        or (
            reason.startswith("gate:")
            and set(reason[5:].split("+")) - workloads.gates.COUNT_GATES
        )
        for reason in outcome
    )
    env = environment(args.seed, threads)
    print(
        f"lyprobe benchmark  workload={args.workload} seed={args.seed} trace={args.trace} "
        f"passes={result['passes']} ops attempted={result['attempted']} failed={failed}"
    )
    print("outcomes by reason: " + json.dumps(dict(sorted(outcome.items()))))
    for name, value in metrics.items():
        print(f"  {name:<44s} {value:.6g} {units[name]}")
    print("environment: " + json.dumps(env))
    print("details: " + json.dumps(details))
    print(
        json.dumps(
            {
                "correct": not value_gate_failed,
                "attempted": result["attempted"],
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
