"""Self-test of the benchmark: seeded inputs, determinism, tracing, metric names.

Run from the root of a checkout:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import namedtuple
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, direct  # noqa: E402

WORKLOADS = ("simulate_strong", "scan_weak", "zero_map", "cmax_fit")


def _spec_file():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _cheap_ops(name: str, seed: int):
    """The warm-up op of each workload, plus zero_map's ring sizes below 500."""
    specs, warmup = workloads.build(name, seed)
    if name == "zero_map":
        return [s for s in specs if s.n_spins < 500]
    return [warmup]


@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_same_inputs(name):
    assert workloads.build(name, 7) == workloads.build(name, 7)
    assert workloads.build(name, 7)[0] != workloads.build(name, 8)[0]


@pytest.mark.parametrize("name", WORKLOADS)
def test_outputs_repeat_and_tracing_changes_nothing(name, tmp_path):
    for spec in _cheap_ops(name, 11):
        first = run.execute(workloads, spec, direct, str(tmp_path))
        again = run.execute(workloads, spec, direct, str(tmp_path))
        traced = run.execute(workloads, spec, Tracer(), str(tmp_path))
        assert first.outputs == again.outputs == traced.outputs, spec
        assert first.counts == again.counts == traced.counts, spec
        if first.art is not None:
            assert set(workloads.check(spec, first.art)) <= workloads.gates.COUNT_GATES, spec


def test_zero_map_keeps_its_limit_cases():
    specs, _ = workloads.build("zero_map", 11)
    limits = [s for s in specs if s.beta_lambda > 186.0]
    assert limits, "zero_map lost its beta*lambda > 186 rings"
    assert any(s.n_spins > 1500 and s.beta_lambda < 0.3 for s in specs)


def test_limit_class_comes_from_the_inputs():
    def spec(n_spins, beta_lambda):
        return workloads.OpSpec("zero_map", 0, "zeros", n_spins=n_spins, beta_lambda=beta_lambda)

    limit = workloads.gates.limit_class
    assert limit(spec(4000, 0.25)) == "limit:coefficient_overflow"
    assert limit(spec(100, 200.0)) == "limit:coefficient_underflow"
    assert limit(spec(4000, 10.0)) is None and limit(spec(400, 0.05)) is None
    assert limit(workloads.OpSpec("cmax_fit", 6, "verify")) is None


def test_detected_times_gate_flags_missing_collapses():
    spec = workloads.OpSpec("scan_weak", 0, "scan", n_spins=40, beta_lambda=0.5, channel="I")
    period = 2.0 * np.pi / (4.0 * workloads.ETA)
    predicted = workloads.gates.predicted_times(spec, workloads.ETA, 1, period)
    noise = np.random.default_rng(0).uniform(0.0, period, 500)
    check = workloads.gates.check_detected_times
    assert check(spec, np.concatenate([predicted + 1e-3, noise]), predicted) == []
    assert check(spec, predicted[::2], predicted) == ["detected_zero_times"]
    assert check(spec, np.array([]), predicted) == ["detected_zero_times"]
    channel_two = workloads.OpSpec("scan_weak", 1, "scan", n_spins=40, beta_lambda=0.5, channel="II")
    assert check(channel_two, np.array([]), predicted) == []


def test_domain_gate_allows_one_grid_step():
    domain = namedtuple("domain", "start end clipped")
    predicted = np.array([1.0, 2.0])
    check = workloads.gates.check_domains
    assert check([domain(1.05, 1.05, False)], predicted, 0.1) == []
    assert check([domain(1.3, 1.4, False)], predicted, 0.1) == ["domain_contains_one_zero"]
    assert check([domain(0.9, 2.1, False)], predicted, 0.1) == ["domain_contains_one_zero"]
    assert check([domain(1.3, 1.4, True)], predicted, 0.1) == []


def test_speed_probe_scales_by_the_readings_around_a_span():
    probe = run.SpeedProbe()
    probe.stamps = [0.0, 1.0, 2.0, 3.0, 4.0]
    probe.samples = [0.005, 0.005, 0.005, 0.0025, 0.0025]
    ref = run.CALIBRATION_REF_S
    # readings from 0.5 s before to 0.5 s after, plus the nearest one outside on each side
    assert probe.scaled(1.0, (3.4, 3.6)) == pytest.approx(ref / 0.0025)
    assert probe.scaled(1.0, (0.0, 0.1)) == pytest.approx(ref / 0.005)
    # a span after the last reading still gets the last one
    assert probe.scaled(1.0, (9.0, 9.5)) == pytest.approx(ref / 0.0025)


def test_tail_is_the_highest_percentile_with_ten_beyond():
    times = [float(i) for i in range(40)]
    value, pct = run.tail(times)
    assert value == 29.0 and pct == 75.0
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_metric_tables_match_benchmark_json():
    spec = _spec_file()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def _bench(trace: int, cwd: Path):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "zero_map", "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(trace):
    done = _bench(trace, ROOT)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    wanted = _spec_file()["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    for m in wanted:
        assert any(
            line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"] for line in lines
        ), m["name"]
    env = json.loads(next(l for l in lines if l.startswith("environment: "))[13:])
    assert env["seed"] == 3 and env["blas_threads"] >= 1 and env["numpy"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench(0, tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
