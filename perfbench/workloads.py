"""The four workloads: seeded inputs, the op each one repeats, and its gates.

An op is one scenario.  It makes the public lyprobe calls the matching CLI
subcommand makes (``cli._cmd_simulate``, ``_cmd_zeros``, ``_cmd_fit_cmax``,
``_cmd_verify``), in the same order, each through ``call`` so a traced run
can put a span around it.

Inputs come from a fixed stratified design per workload: point i sits in
stratum i of the ring size and in stratum (g*i mod k) of beta*lambda.  The
seed moves it off the stratum centre by up to jitter/2 of a stratum width,
then draws the probe ensemble and the op order.  Op cost grows like N_b^2,
and jumps 100-fold across the weak-coupling band of scan_weak.  A fully
random draw of ring sizes would change the work per run by more than any
bound; the strata keep the work per seed the same while the seed still
moves every input.  scan_weak's rings do not move (jitter 0): its cost and
its zero count jump across the band, so only its probes and op order are
seeded.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
from dataclasses import dataclass

import numpy as np

import gates
from lyprobe import (
    Channel,
    IsingRing,
    OatParameters,
    Scenario,
    coherence_period,
    concurrence_channel_I,
    concurrence_generic,
    count_recovery_peaks,
    default_steps,
    dephasing_factor,
    detect_coherence_zeros,
    emit_csv,
    evolve_channel_I,
    fit_cmax_scaling,
    kraus_apply,
    kraus_channel_I,
    kraus_tensor,
    lee_yang_zeros,
    oat_reduced_state,
    partition_coefficients,
    run_scenario,
    spin_squeezing,
    vanishing_domains,
    zero_times,
)
from lyprobe import verify as lyprobe_verify

ETA = 0.01  # the CLI's default probe-ring coupling

# README's fit-cmax windows: (theta, N_min, N_max)
FIT_WINDOWS = ((np.pi / 3, 20, 28), (np.pi / 2, 3, 8))


@dataclass(frozen=True)
class OpSpec:
    """Inputs of one op; fields a kind does not use stay None."""

    workload: str
    index: int
    kind: str
    n_spins: int | None = None
    beta_lambda: float | None = None
    channel: str | None = None
    n_probes: int | None = None
    theta: float | None = None
    periods: int | None = None
    n_min: int | None = None
    n_max: int | None = None


@dataclass(frozen=True)
class Design:
    """Strata of one workload: k points, lattice generator, jitter, warm-up point."""

    k: int
    generator: int
    jitter: float
    warmup: int


DESIGNS = {
    "simulate_strong": Design(k=8, generator=3, jitter=0.1, warmup=0),
    "scan_weak": Design(k=5, generator=2, jitter=0.0, warmup=2),
    "zero_map": Design(k=34, generator=13, jitter=0.1, warmup=0),
    "cmax_fit": Design(k=6, generator=5, jitter=0.1, warmup=0),
}


def _lin(lo, hi, u):
    return lo + (hi - lo) * u


def _log(lo, hi, u):
    return lo * (hi / lo) ** u


def _probe(rng) -> tuple[int, float]:
    """Ensemble size N in 3..10 and twist theta in (0.2, pi/2)."""
    return int(rng.integers(3, 11)), float(rng.uniform(0.2, 0.5 * np.pi))


def build(workload: str, seed: int) -> tuple[list[OpSpec], OpSpec]:
    """The op list of one pass, in seeded order, and the warm-up op.

    The warm-up op is the one of seed 0 for every seed, so that set-up does
    the same work in every run.
    """
    stream = sorted(DESIGNS).index(workload)
    rng = np.random.default_rng([seed, stream])
    specs = _points(workload, rng)
    warmup = _points(workload, np.random.default_rng([0, stream]))[DESIGNS[workload].warmup]
    return [specs[j] for j in rng.permutation(len(specs))], warmup


def _points(workload: str, rng) -> list[OpSpec]:
    """One op per point of the workload's design, in design order."""
    design = DESIGNS[workload]
    k = design.k
    i = np.arange(k)
    u_ring = (i + 0.5 + design.jitter * (rng.random(k) - 0.5)) / k
    u_beta = ((design.generator * i) % k + 0.5 + design.jitter * (rng.random(k) - 0.5)) / k
    specs = []
    for j in range(k):
        if workload == "simulate_strong":
            n, theta = _probe(rng)
            spec = OpSpec(
                workload, j, "simulate",
                n_spins=round(_lin(100, 400, u_ring[j])),
                beta_lambda=float(_log(5.0, 20.0, u_beta[j])),
                channel="I" if j % 2 == 0 else "II",
                n_probes=n, theta=theta, periods=2,
            )
        elif workload == "scan_weak":
            n, theta = _probe(rng)
            spec = OpSpec(
                workload, j, "scan",
                n_spins=round(_lin(70, 100, u_ring[j])),
                beta_lambda=float(_lin(0.4, 0.6, u_beta[j])),
                channel="I" if j % 2 == 0 else "II",
                n_probes=n, theta=theta, periods=1,
            )
        elif workload == "zero_map":
            spec = OpSpec(
                workload, j, "zeros",
                n_spins=round(_log(10, 4000, u_ring[j])),
                beta_lambda=float(_log(0.05, 300.0, u_beta[j])),
            )
        else:
            theta, n_min, n_max = FIT_WINDOWS[j % 2]
            spec = OpSpec(
                workload, j, "fit",
                n_spins=round(_lin(100, 400, u_ring[j])),
                beta_lambda=float(_log(10.0, 40.0, u_beta[j])),
                channel="I", theta=theta, n_min=n_min, n_max=n_max,
            )
        specs.append(spec)
    if workload == "cmax_fit":
        specs.append(OpSpec(workload, k, "verify"))
    return specs


def _ring(spec: OpSpec) -> IsingRing:
    return IsingRing(n_spins=spec.n_spins, coupling=1.0, inverse_temperature=spec.beta_lambda)


def _series_op(spec, call, workdir):
    """Shared head of simulate and scan: coefficients, zeros, grid, series."""
    ring = _ring(spec)
    channel = Channel(spec.channel)
    period = call("experiments.coherence_period", coherence_period, ETA, channel)
    t_max = spec.periods * period
    poly = call("ising_bath.partition_coefficients", partition_coefficients, ring)
    zeros = call("ising_bath.lee_yang_zeros", lee_yang_zeros, poly)
    steps = call("experiments.default_steps", default_steps, zeros, ETA, t_max, channel)
    path = os.path.join(workdir, f"op{spec.index}.csv")
    scenario = Scenario(
        ring=ring,
        oat=OatParameters(n_probes=spec.n_probes, twist_angle=spec.theta),
        channel=channel,
        t_max=t_max,
        steps=steps,
        eta=ETA,
        outputs=path,
    )
    series = call("experiments.run_scenario", run_scenario, scenario)
    return {"zeros": zeros, "steps": steps, "series": series, "path": path, "period": period}


def run_simulate(spec, call, workdir):
    art = _series_op(spec, call, workdir)
    series = art["series"]
    call("experiments.emit_csv", emit_csv, series, art["path"])
    art["domains"] = call("experiments.vanishing_domains", vanishing_domains, series)
    art["detected"] = call("experiments.detect_coherence_zeros", detect_coherence_zeros, series)
    art["peaks"] = (
        call("experiments.count_recovery_peaks", count_recovery_peaks, series)
        if series.channel is Channel.I
        else None
    )
    return art


def run_scan(spec, call, workdir):
    art = _series_op(spec, call, workdir)
    art["detected"] = call(
        "experiments.detect_coherence_zeros", detect_coherence_zeros, art["series"]
    )
    return art


def run_zeros(spec, call, _workdir):
    poly = call("ising_bath.partition_coefficients", partition_coefficients, _ring(spec))
    zeros = call("ising_bath.lee_yang_zeros", lee_yang_zeros, poly)
    roots = np.exp(1j * zeros.phases)
    residuals = np.abs(np.polyval(poly.coefficients[::-1], roots)) / poly.coefficients.sum()
    times = call("ising_bath.zero_times", zero_times, zeros, ETA)
    factors = [
        call("ising_bath.dephasing_factor", dephasing_factor, poly, 2.0 * ETA * t / poly.beta)
        for t in times
    ]
    return {"zeros": zeros, "residuals": residuals, "factors": factors, "beta": poly.beta}


def run_fit(spec, call, _workdir):
    """fit-cmax, then a scalar probe of each N at the first recovery time.

    At beta*lambda >= 10 the concurrence returns to C_max at the recovery
    times, halfway between consecutive collapse times.
    """
    ring = _ring(spec)
    n_values = list(range(spec.n_min, spec.n_max + 1))
    fit = call(
        "experiments.fit_cmax_scaling", fit_cmax_scaling, n_values,
        theta=spec.theta, ring=ring, eta=ETA,
    )
    poly = call("ising_bath.partition_coefficients", partition_coefficients, ring)
    zeros = call("ising_bath.lee_yang_zeros", lee_yang_zeros, poly)
    times = call("ising_bath.zero_times", zero_times, zeros, ETA)
    t_probe = 0.5 * (times[0] + times[1])
    factor = call("ising_bath.dephasing_factor", dephasing_factor, poly, 2.0 * ETA * t_probe / poly.beta)
    probes = []
    for n in n_values:
        state = call("channels.oat_reduced_state", oat_reduced_state, OatParameters(n, spec.theta))
        evolved = call("channels.evolve", evolve_channel_I, state, factor)
        single = call("channels.kraus", kraus_channel_I, factor)
        pair = call("channels.kraus", kraus_tensor, single, single)
        rho = call("channels.kraus", kraus_apply, state.to_matrix(), pair)
        closed = call("observables.closed_form", concurrence_channel_I, state, factor, n)
        generic = call("observables.concurrence_generic", concurrence_generic, rho, n)
        squeezing = call("observables.closed_form", spin_squeezing, state, Channel.I, factor, n)
        probes.append(
            {
                "closed_state": evolved.to_matrix(),
                "kraus_state": rho,
                "closed_conc": closed.concurrence,
                "closed_rescaled": closed.rescaled,
                "generic_conc": generic.concurrence,
                "xi2": squeezing.xi2,
                "xi2_prime": squeezing.xi2_prime,
            }
        )
    return {"fit": fit, "zeros": zeros, "factor": factor, "probes": probes, "beta": poly.beta}


def run_verify(_spec, call, _workdir):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        ok = call("verify.run_checks", lyprobe_verify.run_checks, verbose=True)
    lines = out.getvalue().splitlines()
    return {"ok": ok, "checks": len(lines), "checks_failed": sum(l.startswith("FAIL") for l in lines)}


RUNNERS = {
    "simulate": run_simulate,
    "scan": run_scan,
    "zeros": run_zeros,
    "fit": run_fit,
    "verify": run_verify,
}


def _sha256(path) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def summarize(spec: OpSpec, art) -> tuple[dict, dict]:
    """Deterministic outputs of an op, and its per-layer counters.

    Outputs are what the benchmark compares across passes, seeds and traced
    versus untraced runs; floats are kept as repr strings so equality is
    bit-exact.
    """
    kind = spec.kind
    if kind == "verify":
        outputs = {"ok": art["ok"], "checks": art["checks"], "checks_failed": art["checks_failed"]}
        return outputs, {"verify.checks_failed": art["checks_failed"]}
    counts = {"ising_bath.zero_phases": art["zeros"].phases.size}
    outputs = {"zeros": art["zeros"].phases.size}
    if kind in ("simulate", "scan"):
        expected = gates.expected_zero_count(spec, spec.periods)
        outputs.update(steps=art["steps"], detected=int(art["detected"].size))
        counts.update(
            {
                "experiments.grid_points": art["steps"],
                "experiments.detected_zeros": int(art["detected"].size),
                "experiments.expected_zeros": expected,
            }
        )
    if kind == "simulate":
        outputs.update(
            domains=len(art["domains"]), peaks=art["peaks"], csv_sha256=_sha256(art["path"])
        )
        counts.update(
            {
                "experiments.domains": len(art["domains"]),
                "experiments.csv_bytes": os.path.getsize(art["path"]),
            }
        )
    if kind == "zeros":
        outputs.update(
            residual_max=repr(float(art["residuals"].max())),
            factor_abs_max=repr(max(abs(f.value) for f in art["factors"])),
        )
    if kind == "fit":
        outputs.update(
            alpha=repr(art["fit"].alpha),
            log_cmax=[repr(float(v)) for v in art["fit"].log_cmax],
            probe_concurrence=[repr(p["closed_conc"]) for p in art["probes"]],
        )
    return outputs, counts


def check(spec: OpSpec, art) -> list[str]:
    """Names of the gates this op's outputs fail (empty when all hold)."""
    kind = spec.kind
    if kind == "verify":
        return [] if art["ok"] and art["checks_failed"] == 0 else ["verify_battery"]
    failed = gates.check_phases(spec, art["zeros"])
    if kind in ("simulate", "scan"):
        series = art["series"]
        predicted = gates.predicted_times(spec, ETA, spec.periods, art["period"])
        failed += gates.check_series_factor(spec, series)
        failed += gates.check_detection(spec, art["detected"], spec.periods)
        failed += gates.check_detected_times(spec, art["detected"], predicted)
    if kind == "simulate":
        step = float(np.max(np.diff(art["series"].times)))
        failed += gates.check_domains(art["domains"], predicted, step)
        failed += gates.check_series_cmax(spec, art["series"])
        failed += gates.check_csv_rewrite(art["series"], art["path"], emit_csv)
    if kind == "zeros":
        failed += gates.check_point_factors(spec, art["beta"], art["factors"])
    if kind == "fit":
        failed += gates.check_point_factors(spec, art["beta"], [art["factor"]])
        failed += gates.check_fit(spec, art["fit"], art["probes"])
    return failed
