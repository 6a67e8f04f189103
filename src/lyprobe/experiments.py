"""Scenario runner: time series, zero detection, domain statistics, scaling fits.

Builds uniform time grids, evaluates the dephasing factor and the closed-form
observables over them, and post-processes the series: coherence-zero
detection (sign-change brackets of the analytic factor, refined all at once
by bisection, not on the sampled series), maximal
concurrence-vanishing domains, recovery-peak counts, and the exponential fit
of the maximum original concurrence against ensemble size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from .channels import Channel, OatParameters, oat_reduced_state
from .ising_bath import (
    _DOUBLE_MAX,
    IsingRing,
    LeeYangZeroSet,
    _check_eta,
    factor_values,
    lee_yang_zeros,
    zero_times,
)
from .observables import x_state_observables


@dataclass(frozen=True)
class Scenario:
    """Complete description of one simulation run."""

    ring: IsingRing
    oat: OatParameters
    channel: Channel
    t_max: float
    steps: int
    eta: float = 0.01
    outputs: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "channel", Channel(self.channel))
        if not (np.isfinite(self.t_max) and self.t_max > 0.0):
            raise ValueError(f"t_max must be positive, got {self.t_max!r}")
        if not isinstance(self.steps, (int, np.integer)) or self.steps < 2:
            raise ValueError(f"steps must be an integer >= 2, got {self.steps!r}")
        _check_eta(self.eta)


@dataclass(frozen=True)
class ObservableSeries:
    """Sampled observables over a time grid, with provenance for refinement.

    The six arrays share one length.  The trailing metadata (probe, eta,
    channel, ring) records what generated the series so that zero
    detection can refine candidates on the analytic factor; hand-built series
    may leave them None, which restricts post-processing to grid-only checks.
    """

    times: np.ndarray
    a_factor: np.ndarray
    coherence: np.ndarray
    concurrence_rescaled: np.ndarray
    xi2: np.ndarray
    xi2_prime: np.ndarray
    probe: OatParameters | None = None
    eta: float | None = None
    channel: Channel | None = None
    ring: IsingRing | None = None

    def __post_init__(self) -> None:
        arrays = {}
        for name in (
            "times",
            "a_factor",
            "coherence",
            "concurrence_rescaled",
            "xi2",
            "xi2_prime",
        ):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.ndim != 1:
                raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
            arrays[name] = arr
        length = arrays["times"].size
        for name, arr in arrays.items():
            if arr.size != length:
                raise ValueError(f"{name} length {arr.size} != times length {length}")
        if length > 1 and np.any(np.diff(arrays["times"]) <= 0.0):
            raise ValueError("times must be strictly increasing")
        for name, arr in arrays.items():
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if self.channel is not None:
            object.__setattr__(self, "channel", Channel(self.channel))


@dataclass(frozen=True)
class VanishingDomain:
    """Maximal interval where the rescaled concurrence stays at (or below) epsilon.

    ``clipped`` marks domains touching the grid boundary, whose true extent
    (and therefore center) is unknown; callers exclude them from center
    statistics.
    """

    start: float
    center: float
    end: float
    clipped: bool

    def __post_init__(self) -> None:
        if not (self.start <= self.center <= self.end):
            raise ValueError("domain must satisfy start <= center <= end")


@dataclass(frozen=True)
class FitResult:
    """Least-squares line through ln C_max against (N - 2)."""

    alpha: float
    intercept: float
    residual: float
    n_values: np.ndarray
    log_cmax: np.ndarray

    def __post_init__(self) -> None:
        for name in ("alpha", "intercept", "residual"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.residual < 0.0:
            raise ValueError(f"residual must be >= 0, got {self.residual}")


def _angle_multiplier(channel: Channel) -> float:
    # channel I: x = 2*eta*t/beta; channel II: x = 4*eta*t/beta
    return 2.0 if Channel(channel) is Channel.I else 4.0


def coherence_period(eta: float, channel: Channel) -> float:
    """Period of the sampled coherence: pi/(2 eta) for channel I, half for II."""
    _check_eta(eta)
    return np.pi / (2.0 * eta) if Channel(channel) is Channel.I else np.pi / (4.0 * eta)


def lee_yang_times(zeros: LeeYangZeroSet, eta: float, channel: Channel) -> np.ndarray:
    """Coherence-collapse times predicted by the zero phases for a channel.

    Channel I: t_n = phi_n / (4 eta); channel II accumulates twist twice as
    fast, t_n = phi_n / (8 eta).
    """
    base = zero_times(zeros, eta)
    return base if Channel(channel) is Channel.I else 0.5 * base


def series_from_polynomial(
    ring: IsingRing,
    probe: OatParameters,
    eta: float,
    channel: Channel,
    times: np.ndarray,
) -> ObservableSeries:
    """Evaluate the closed-form observable pipeline over a time grid.

    Vectorized over the grid: one dephasing-factor evaluation per point, then
    coherence, rescaled concurrence and both squeezing parameters from the
    X-state kernel ``observables.x_state_observables``.

    Raises:
        ValueError: if eta is invalid, or if the largest field angle
            w = multiplier * eta * |t|, or the phase N_b * w the transfer
            form takes, is not finite; checked before any point is evaluated.
    """
    channel = Channel(channel)
    _check_eta(eta)
    times = np.asarray(times, dtype=float)
    mult = _angle_multiplier(channel)
    # Python floats: a phase past the double range is inf, not a numpy warning
    reach = float(np.abs(times).max(initial=0.0))
    if not math.isfinite(float(ring.n_spins) * mult * float(eta) * reach):
        raise ValueError(
            f"the field angle w = {mult:g} * eta * t at |t| = {reach:.6g}, eta = {eta!r} "
            f"gives a phase N_b * w that is not finite: N_b * eta * |t| must stay below "
            f"{_DOUBLE_MAX / mult:.6g}"
        )

    n = probe.n_probes
    a = factor_values(ring, mult * eta * times)
    values = x_state_observables(oat_reduced_state(probe), channel, a, n)
    rescaled = (n - 1) * values.concurrence

    return ObservableSeries(
        times=times,
        a_factor=a,
        coherence=values.coherence,
        concurrence_rescaled=rescaled,
        xi2=values.xi2,
        xi2_prime=1.0 - rescaled,
        probe=probe,
        eta=eta,
        channel=channel,
        ring=ring,
    )


def run_scenario(s: Scenario) -> ObservableSeries:
    """Run one scenario: the ring, uniform grid, full pipeline."""
    times = np.linspace(0.0, s.t_max, s.steps)
    try:
        return series_from_polynomial(s.ring, s.oat, s.eta, s.channel, times)
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        context = (
            f"scenario(n_spins={s.ring.n_spins}, beta={s.ring.inverse_temperature}, "
            f"coupling={s.ring.coupling}, n_probes={s.oat.n_probes}, "
            f"channel={s.channel.value})"
        )
        raise type(exc)(f"{context}: {exc}") from exc


# largest grid default_steps returns (about 0.5 GB for the six series arrays)
_MAX_DEFAULT_STEPS = 10_000_000


def default_steps(
    zeros: LeeYangZeroSet, eta: float, t_max: float, channel: Channel
) -> int:
    """Grid size placing at least 40 samples between adjacent collapse times.

    Raises:
        ValueError: if two collapse times coincide (every phase is pi at
            beta * coupling = 0, or rounds to pi near it), so no spacing
            separates them; or if the grid would need more than 10,000,000
            steps.
    """
    tz = lee_yang_times(zeros, eta, channel)
    period = coherence_period(eta, channel)
    if tz.size > 1:
        gaps = np.diff(tz)
        wrap = tz[0] + period - tz[-1]
        gap = min(gaps.min(), wrap) if wrap > 0 else gaps.min()
    else:
        gap = period
    if gap == 0.0:
        at = tz[np.argmin(np.diff(tz))]
        raise ValueError(
            f"collapse times coincide at t = {at:.6g}: no grid puts samples "
            "between them; give the number of steps explicitly"
        )
    # Python floats: a ratio past the double range is inf, not a numpy warning
    steps = np.ceil(40.0 * float(t_max) / float(gap)) + 1
    if steps > _MAX_DEFAULT_STEPS:
        raise ValueError(
            f"the default grid needs {steps:,.0f} steps for the narrowest collapse gap "
            f"{gap:.6g}, past the limit of {_MAX_DEFAULT_STEPS:,}; pass the number of "
            "steps explicitly (--steps)"
        )
    return max(int(steps), 2)


def bisect_roots(f, lo: np.ndarray, hi: np.ndarray, sign_lo: np.ndarray, xtol: float) -> np.ndarray:
    """Roots of f in the sign-change brackets [lo, hi], refined all at once.

    f maps an array of points to values and sign_lo is the sign of f at lo.
    Each step evaluates f once at every midpoint; a bracket is done once it
    is narrower than brentq's tolerance, xtol + 8.9e-16 |x|.
    """
    while np.any(hi - lo > xtol + 8.9e-16 * np.abs(hi)):
        mid = 0.5 * (lo + hi)
        right = np.sign(f(mid)) == sign_lo
        lo, hi = np.where(right, mid, lo), np.where(right, hi, mid)
    return 0.5 * (lo + hi)


def _analytic_factor(series: ObservableSeries):
    """Vectorized callable t -> A(t) rebuilt from the series provenance."""
    if series.ring is None or series.eta is None or series.channel is None:
        raise ValueError(
            "series carries no provenance metadata; zero refinement needs the "
            "generating ring, eta, and channel"
        )
    ring = series.ring
    mult = _angle_multiplier(series.channel)
    eta = series.eta

    def a_of_t(t) -> np.ndarray:
        return factor_values(ring, mult * eta * np.asarray(t, dtype=float))

    return a_of_t


def detect_coherence_zeros(series: ObservableSeries, epsilon: float = 1e-6) -> np.ndarray:
    """Times where the probe coherence collapses to zero, refined analytically.

    Local minima of the sampled coherence are candidate collapse points, and
    so is every sign change of the sampled factor that no minimum's bracket
    already holds: at weak coupling and large rings the channel-I coherence
    (~A^2) underflows between collapses, and minima with subnormal or zero
    neighbours are ignored.  The factor is evaluated at the ends of every
    candidate bracket at once; brackets where it changes sign are refined
    together by bisection, and the rare grazing minima without a sign change
    by bounded minimization of |A|.  A refined point is kept if its coherence
    falls below epsilon times the series maximum.
    """
    if not (np.isfinite(epsilon) and epsilon > 0.0):
        raise ValueError(f"epsilon must be positive, got {epsilon!r}")
    coh = series.coherence
    t = series.times
    if t.size < 3:
        return np.array([])
    peak = coh.max()
    if peak <= 0.0:
        return np.array([])

    interior = np.arange(1, t.size - 1)
    is_min = (coh[interior] < coh[interior - 1]) & (coh[interior] <= coh[interior + 1])
    candidates = interior[is_min]
    flips = np.array([], dtype=int)
    tiny = np.finfo(float).tiny
    if coh.min() < tiny:
        # the coherence underflows: a minimum with a subnormal or 0 neighbour
        # is a rounding step, not a collapse, and the collapses there are the
        # sign changes of A that no minimum brackets
        resolved = np.minimum(coh[candidates - 1], coh[candidates + 1]) >= tiny
        candidates = candidates[resolved]
        a = series.a_factor
        negative = np.signbit(a)
        flips = np.flatnonzero(negative[:-1] != negative[1:])
        flips = flips[(a[flips] != 0.0) & (a[flips + 1] != 0.0)]
        # candidate c brackets the flips at c - 1 and c
        next_min = np.append(candidates, t.size)[np.searchsorted(candidates, flips)]
        flips = flips[next_min - flips > 1]
    if candidates.size == 0 and flips.size == 0:
        return np.array([])

    a_of_t = _analytic_factor(series)
    if series.probe is None:
        raise ValueError("series carries no probe metadata")
    state = oat_reduced_state(series.probe)

    def coherence_at(a):
        return x_state_observables(state, series.channel, a, series.probe.n_probes).coherence

    if coherence_at(0.0) >= epsilon * peak:
        # coherence grows with |A|: not even A = 0 brings it below the threshold
        return np.array([])
    lo = np.concatenate([t[candidates - 1], t[flips]])
    hi = np.concatenate([t[candidates + 1], t[flips + 1]])
    # signs, not products: at weak coupling A itself can be ~1e-200
    sign_lo, sign_hi = np.split(np.sign(a_of_t(np.concatenate([lo, hi]))), 2)
    refined = np.where(sign_lo == 0.0, lo, hi)
    crossing = sign_lo * sign_hi < 0.0
    refined[crossing] = bisect_roots(a_of_t, lo[crossing], hi[crossing], sign_lo[crossing], 1e-15)
    for i in np.nonzero(sign_lo * sign_hi > 0.0)[0]:
        result = minimize_scalar(
            lambda tv: abs(a_of_t(tv)),
            bounds=(lo[i], hi[i]),
            method="bounded",
            options={"xatol": 1e-12 * max(1.0, t[-1])},
        )
        refined[i] = float(result.x)
    zeros = np.sort(refined[coherence_at(a_of_t(refined)) < epsilon * peak])
    if zeros.size == 0:
        return zeros
    # adjacent candidates can refine into the same zero; merge sub-grid duplicates
    spacing = np.min(np.diff(t))
    keep = np.concatenate(([True], np.diff(zeros) > 0.25 * spacing))
    return zeros[keep]


def vanishing_domains(
    series: ObservableSeries, epsilon: float = 1e-12
) -> list[VanishingDomain]:
    """Maximal grid intervals where the rescaled concurrence is <= epsilon.

    Domains touching the first or last grid point are flagged clipped; their
    true extent is unknown, so center statistics should skip them.
    """
    if not (np.isfinite(epsilon) and epsilon >= 0.0):
        raise ValueError(f"epsilon must be >= 0, got {epsilon!r}")
    below = series.concurrence_rescaled <= epsilon
    if not below.any():
        return []
    t = series.times
    edges = np.diff(below.astype(int))
    starts = list(np.nonzero(edges == 1)[0] + 1)
    ends = list(np.nonzero(edges == -1)[0])
    if below[0]:
        starts.insert(0, 0)
    if below[-1]:
        ends.append(below.size - 1)
    domains = []
    for i0, i1 in zip(starts, ends):
        domains.append(
            VanishingDomain(
                start=float(t[i0]),
                center=float(0.5 * (t[i0] + t[i1])),
                end=float(t[i1]),
                clipped=bool(i0 == 0 or i1 == below.size - 1),
            )
        )
    return domains


def count_recovery_peaks(series: ObservableSeries) -> int:
    """Strict local maxima of coherence within one period after the first zero.

    A run of equal samples counts as one point, at its first sample: a grid
    symmetric about a maximum samples it as two equal values.  Returns 0 when
    no coherence zero is detected (nothing to recover from).

    Raises:
        ValueError: if the series ends less than one period after the first
            detected zero.
    """
    zeros = detect_coherence_zeros(series)
    if zeros.size == 0:
        return 0
    if series.eta is None or series.channel is None:
        raise ValueError("series carries no eta/channel metadata")
    start = zeros[0]
    period = coherence_period(series.eta, series.channel)
    t = series.times
    if start + period > t[-1] + 1e-9 * max(1.0, t[-1]):
        raise ValueError(
            f"series ends at t={t[-1]}, less than one period ({period}) after "
            f"the first zero at t={start}"
        )
    first = np.concatenate(([True], series.coherence[1:] != series.coherence[:-1]))
    coh, t = series.coherence[first], t[first]
    inner = np.arange(1, t.size - 1)
    is_peak = (coh[inner] > coh[inner - 1]) & (coh[inner] > coh[inner + 1])
    in_window = (t[inner] > start) & (t[inner] <= start + period)
    return int(np.count_nonzero(is_peak & in_window))


def max_original_concurrence(
    ring: IsingRing,
    probe: OatParameters,
    eta: float,
    times: np.ndarray,
) -> float:
    """Maximum over the grid of the per-pair concurrence under channel I."""
    series = series_from_polynomial(ring, probe, eta, Channel.I, times)
    return float(series.concurrence_rescaled.max() / (probe.n_probes - 1))


def fit_cmax_scaling(
    n_values,
    theta: float,
    ring: IsingRing,
    eta: float = 0.01,
    steps: int | None = None,
) -> FitResult:
    """Exponential-decay fit of the maximum concurrence against ensemble size.

    For each N the maximum original concurrence over one coherence period is
    computed under channel I, then ln C_max is fit linearly against (N - 2).
    The factor is evaluated once on the grid and shared by every N; each
    C_max equals ``max_original_concurrence`` on the same grid bit for bit.
    Requires the strong-coupling regime (beta * coupling >= 10), where the
    maxima sit at the recovery times.

    Raises:
        ValueError: on fewer than 3 ensemble sizes, weak coupling, or any
            C_max = 0 (log undefined; parameters outside the squeezed regime).
    """
    n_values = np.asarray(n_values, dtype=int)
    if n_values.ndim != 1 or n_values.size < 3:
        raise ValueError("n_values must contain at least 3 ensemble sizes")
    if np.any(n_values < 2):
        raise ValueError("ensemble sizes must be >= 2")
    if ring.beta_lambda < 10.0:
        raise ValueError(
            "fit requires the strong-coupling regime: inverse_temperature * "
            "coupling >= 10"
        )
    _check_eta(eta)

    if steps is None:
        steps = default_steps(lee_yang_zeros(ring), eta, coherence_period(eta, Channel.I), Channel.I)
    times = np.linspace(0.0, coherence_period(eta, Channel.I), steps)
    a = factor_values(ring, _angle_multiplier(Channel.I) * eta * times)

    cmax = []
    for n in n_values.tolist():
        state = oat_reduced_state(OatParameters(n, theta))
        rescaled = (n - 1) * x_state_observables(state, Channel.I, a, n).concurrence
        # max_original_concurrence's expression, not conc.max(): the same bits
        cmax.append(float(rescaled.max() / (n - 1)))
    cmax = np.array(cmax)
    if np.any(cmax <= 0.0):
        raise ValueError(
            "C_max vanished for some ensemble size: parameters outside the "
            "squeezed regime, log fit undefined"
        )
    x = n_values - 2.0
    log_cmax = np.log(cmax)
    alpha, intercept = np.polyfit(x, log_cmax, 1)
    predicted = alpha * x + intercept
    residual = float(np.sqrt(np.mean((log_cmax - predicted) ** 2)))
    return FitResult(
        alpha=float(alpha),
        intercept=float(intercept),
        residual=residual,
        n_values=n_values,
        log_cmax=log_cmax,
    )


# rows formatted per % expression: large enough to amortise the call and the
# write, small enough that the formatted text of one block stays a few hundred KB
_CSV_BLOCK_ROWS = 2048


def _write_csv(path, header: str, columns) -> None:
    """Write equal-length 1-D columns as plain-text CSV under a header line.

    Each value is formatted with ``%.12g``, the formatter numpy's savetxt
    applies, so the bytes equal savetxt's with fmt="%.12g" and delimiter=",".
    Rows are formatted a block at a time, one ``%`` expression and one write
    per block.

    Raises:
        OSError: naming the path, if the file cannot be opened or written.
    """
    row_fmt = ",".join(["%.12g"] * len(columns)) + "\n"
    try:
        with open(path, "w", encoding="ascii", newline="\n") as handle:
            handle.write(header + "\n")
            for start in range(0, columns[0].size, _CSV_BLOCK_ROWS):
                block = np.column_stack([c[start : start + _CSV_BLOCK_ROWS] for c in columns])
                handle.write((row_fmt * block.shape[0]) % tuple(block.ravel().tolist()))
    except OSError as exc:
        raise OSError(f"failed to write CSV to {path!r}: {exc}") from exc


def emit_csv(series: ObservableSeries, path) -> None:
    """Write the series as deterministic CSV with 12 significant digits.

    Format: the header line
    ``t,a_factor,coherence,concurrence_rescaled,xi2,xi2_prime``, then one row
    per grid point, each value formatted with ``%.12g``, separated by commas,
    every line ended by ``\\n``.  The file is always plain text: unlike
    numpy's savetxt, a path ending in ``.gz`` is not compressed.
    ``lyprobe zeros`` writes its CSV through the same writer.

    Raises:
        OSError: naming the path, if the file cannot be written.
    """
    _write_csv(
        path,
        "t,a_factor,coherence,concurrence_rescaled,xi2,xi2_prime",
        [
            series.times,
            series.a_factor,
            series.coherence,
            series.concurrence_rescaled,
            series.xi2,
            series.xi2_prime,
        ],
    )
