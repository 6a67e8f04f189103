"""Correctness gates, run outside the timed region.

Each gate compares a program output with an independent route and returns
the names of the gates that failed.  The references here are written from
the ring's transfer matrix, not from the coefficient sums the program uses:

    lambda_+-(w) = e^K cos w +- sqrt(e^-2K - e^2K sin^2 w),   K = beta*lambda,

so A(w) = (lambda_+^N + lambda_-^N) / (lambda_+(0)^N + lambda_-(0)^N), and the
zeros sit where the eigenvalue angle gamma satisfies cos(N gamma) = 0.
"""

from __future__ import annotations

import filecmp

import numpy as np

from lyprobe import (
    Channel,
    OatParameters,
    concurrence_channel_I,
    concurrence_channel_II,
    oat_reduced_state,
)

A_TOL = 1e-12  # absolute, on A
PHASE_TOL = 1e-12  # absolute, on the zero phases
CMAX_TOL = 1e-12  # absolute, on C_max
ROUTE_TOL = 1e-12  # closed-form state vs Kraus-propagated state
WOOTTERS_TOL = 1e-10  # closed-form vs generic concurrence
A_SAMPLES = 64

# gates whose failure marks the op failed but is not a wrong value: the
# detected-zero count is the defect zero_count_ratio measures
COUNT_GATES = frozenset({"detected_zero_count"})

# exp(-4 beta*lambda) is 0 in double precision past this coupling
UNDERFLOW_BETA_LAMBDA = 186.0
LOG_DOUBLE_MAX = float(np.log(np.finfo(float).max))


def angle_multiplier(channel: Channel) -> float:
    """Field angle per unit eta*t: w = 2 eta t (channel I), 4 eta t (channel II)."""
    return 2.0 if Channel(channel) is Channel.I else 4.0


def transfer_phases(n_spins: int, beta_lambda: float) -> np.ndarray:
    """Zero phases from the explicit transfer-matrix formula, sorted ascending.

    The formula of ``tests/oracles.py::transfer_phases``,
    sin^2(alpha_k) = sin^2(gamma_k) + q cos^2(gamma_k), written with atan2 so
    it stays conditioned where alpha_k is near pi/2.
    """
    q = np.exp(-4.0 * beta_lambda)
    gamma = (2.0 * np.arange(1, n_spins + 1) - 1.0) * np.pi / (2.0 * n_spins)
    s = np.sqrt(np.sin(gamma) ** 2 + q * np.cos(gamma) ** 2)
    alpha = np.arctan2(s, np.cos(gamma) * np.sqrt(-np.expm1(-4.0 * beta_lambda)))
    return np.sort(2.0 * np.pi - 2.0 * alpha)


def transfer_factor(n_spins: int, beta_lambda: float, w: np.ndarray) -> np.ndarray:
    """A(w) from the two transfer eigenvalues, in extended precision.

    Both eigenvalues are divided by e^K, so r_+-(w) = (cos w +- sqrt(q -
    sin^2 w)) / (1 + sqrt q) with q = e^-4K, and lambda_-(0)/lambda_+(0) = t =
    (1 - sqrt q)/(1 + sqrt q).  Where q < sin^2 w the pair is complex with
    modulus sqrt(t), so the numerator is 2 t^(N/2) cos(N arg r_+).
    """
    ld = np.longdouble
    n = ld(n_spins)
    w = np.asarray(w, dtype=ld)
    q = np.exp(ld(-4.0) * ld(beta_lambda))
    root_q = np.sqrt(q)
    t = (1 - root_q) / (1 + root_q)
    c = np.cos(w)
    disc = q - np.sin(w) ** 2
    on_arc = disc < 0
    root = np.sqrt(np.abs(disc))
    r_plus = (c + root) / (1 + root_q)
    r_minus = (c - root) / (1 + root_q)
    real_part = np.sign(r_plus) ** n_spins * np.abs(r_plus) ** n + np.sign(
        r_minus
    ) ** n_spins * np.abs(r_minus) ** n
    arc_part = 2 * t ** (n / 2) * np.cos(n * np.arctan2(root, c))
    return np.where(on_arc, arc_part, real_part) / (1 + t**n)


def limit_class(spec) -> str | None:
    """Known numerical limit a ring lies in, from its inputs alone; None if none.

    The program normalises the coefficients so that the all-up one is 1; their
    sum is then (1 + sqrt q)^N + (1 - sqrt q)^N with q = e^-4K.  A
    coefficient can overflow only when that sum is beyond the double range.
    """
    if spec.n_spins is None or spec.beta_lambda is None:
        return None
    if spec.beta_lambda > UNDERFLOW_BETA_LAMBDA:
        return "limit:coefficient_underflow"
    root_q = np.exp(-2.0 * spec.beta_lambda)
    t = (1.0 - root_q) / (1.0 + root_q)
    log_sum = spec.n_spins * np.log1p(root_q) + np.log1p(t**spec.n_spins)
    if log_sum > LOG_DOUBLE_MAX:
        return "limit:coefficient_overflow"
    return None


def _sample(size: int, op_index: int) -> np.ndarray:
    rng = np.random.default_rng(op_index)
    return np.unique(rng.integers(0, size, A_SAMPLES))


def predicted_times(spec, eta: float, periods: int, period: float) -> np.ndarray:
    """Collapse times phi/(4 eta) (channel I) or phi/(8 eta) (II), tiled over periods."""
    per_phase = 4.0 * eta if Channel(spec.channel) is Channel.I else 8.0 * eta
    base = transfer_phases(spec.n_spins, spec.beta_lambda) / per_phase
    return np.concatenate([base + k * period for k in range(periods)])


def check_phases(spec, zeros) -> list[str]:
    ref = transfer_phases(spec.n_spins, spec.beta_lambda)
    ok = zeros.phases.shape == ref.shape and np.max(np.abs(zeros.phases - ref)) <= PHASE_TOL
    return [] if ok else ["zero_phases"]


def check_series_factor(spec, series) -> list[str]:
    idx = _sample(series.times.size, spec.index)
    w = angle_multiplier(series.channel) * series.eta * series.times[idx]
    ref = transfer_factor(spec.n_spins, spec.beta_lambda, w)
    err = np.max(np.abs(series.a_factor[idx] - ref))
    return [] if err <= A_TOL else ["factor_vs_transfer"]


def check_point_factors(spec, poly_beta: float, factors) -> list[str]:
    """Pointwise DephasingFactor values against the transfer form."""
    if not factors:
        return []
    w = np.array([poly_beta * f.argument for f in factors])
    values = np.array([f.value for f in factors])
    ref = transfer_factor(spec.n_spins, spec.beta_lambda, w)
    err = max(np.max(np.abs(values.real - ref)), np.max(np.abs(values.imag)))
    return [] if err <= A_TOL else ["factor_vs_transfer"]


def check_detection(spec, detected, periods: int) -> list[str]:
    expected = expected_zero_count(spec, periods)
    return [] if detected.size == expected else ["detected_zero_count"]


def check_detected_times(spec, detected, predicted: np.ndarray) -> list[str]:
    """Every predicted collapse time has a detected zero nearer to it than to its neighbours.

    Extra detections are left to the count gate; a missing collapse is a
    wrong value.  The tolerance is half the gap to the nearest other
    collapse, at least 20 grid steps: at weak coupling the program's
    detections are noise minima and miss the true collapse by a few steps.
    """
    if expected_zero_count(spec, 1) == 0:
        return []
    found = np.sort(np.asarray(detected, dtype=float))
    if found.size == 0:
        return ["detected_zero_times"]
    gaps = np.diff(predicted)
    half_gap = 0.5 * np.minimum(np.append(gaps[:1], gaps), np.append(gaps, gaps[-1:]))
    right = np.minimum(np.searchsorted(found, predicted), found.size - 1)
    left = np.maximum(right - 1, 0)
    nearest = np.minimum(np.abs(found[right] - predicted), np.abs(found[left] - predicted))
    return [] if np.all(nearest < half_gap) else ["detected_zero_times"]


def expected_zero_count(spec, periods: int) -> int:
    """Channel I collapses N_b times per period; channel II never collapses."""
    return spec.n_spins * periods if Channel(spec.channel) is Channel.I else 0


def check_domains(domains, predicted: np.ndarray, step: float) -> list[str]:
    """Each non-clipped domain holds one predicted collapse, to one grid step.

    Domain edges are grid points, so a domain can be a single point that
    lies a fraction of a step from the collapse it samples.
    """
    for d in domains:
        if d.clipped:
            continue
        inside = np.count_nonzero((predicted >= d.start - step) & (predicted <= d.end + step))
        if inside != 1:
            return ["domain_contains_one_zero"]
    return []


def check_series_cmax(spec, series) -> list[str]:
    k = int(np.argmax(series.concurrence_rescaled))
    n = spec.n_probes
    state = oat_reduced_state(OatParameters(n, spec.theta))
    scalar = concurrence_channel_I if series.channel is Channel.I else concurrence_channel_II
    expected = scalar(state, float(series.a_factor[k]), n).concurrence
    got = series.concurrence_rescaled[k] / (n - 1)
    return [] if abs(got - expected) <= CMAX_TOL else ["cmax_vs_scalar"]


def check_csv_rewrite(series, path, emit_csv) -> list[str]:
    again = f"{path}.again"
    emit_csv(series, again)
    return [] if filecmp.cmp(path, again, shallow=False) else ["csv_rewrite_bytes"]


def check_fit(spec, fit, probes) -> list[str]:
    """Fit C_max against the scalar closed form at A = 1, and the probe routes.

    At beta*lambda >= 10 the maximum over a period sits at t = 0 (and at
    t = T), where A = 1 exactly.  Each probe carries the closed-form and
    Kraus-propagated states and both concurrence routes.
    """
    failed = []
    for n, log_c in zip(fit.n_values, fit.log_cmax):
        state = oat_reduced_state(OatParameters(int(n), spec.theta))
        expected = concurrence_channel_I(state, 1.0, int(n)).concurrence
        if abs(np.exp(log_c) - expected) > CMAX_TOL:
            failed.append("cmax_vs_scalar")
            break
    for probe in probes:
        if np.max(np.abs(probe["closed_state"] - probe["kraus_state"])) > ROUTE_TOL:
            failed.append("evolve_vs_kraus")
            break
    for probe in probes:
        if abs(probe["closed_conc"] - probe["generic_conc"]) > WOOTTERS_TOL:
            failed.append("closed_vs_generic_concurrence")
            break
    for probe in probes:
        if abs(probe["xi2_prime"] - (1.0 - probe["closed_rescaled"])) > CMAX_TOL:
            failed.append("squeezing_identity")
            break
    return failed
