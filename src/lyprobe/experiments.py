"""Scenario runner: collapse times, time series, zero detection, domain statistics, scaling fits.

The probe coupling eta enters here and only here: ``zero_times`` maps the
ring's zero phases to collapse times for a channel, and ``_check_eta`` is the
one check of eta.  ``run_scenario`` builds a uniform time grid, evaluates the
dephasing factor and the closed-form observables over it, and the rest
post-processes the series: coherence-zero
detection (candidates from the signs of the sampled factor, refined on the
analytic factor: sign changes all at once by bracketed Newton steps,
same-sign minima of |A| all at once by golden-section search), maximal
concurrence-vanishing domains, recovery-peak counts, and the exponential fit
of the maximum concurrence, the initial state's (A = 1), against ensemble
size.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .channels import (
    Channel,
    OatParameters,
    _check_n_probes,
    oat_reduced_state,
    x_state_observables,
)
from .ising_bath import IsingRing, LeeYangZeroSet, factor_values, lee_yang_zeros
from .ising_bath import _factor_and_newton_steps


def _check_eta(eta: float) -> None:
    """Reject an eta that is not positive and finite, or whose time scales leave the double range.

    pi/(2 eta) is the channel-I coherence period, the longest time scale an
    eta sets, and 4 eta is channel II's angle per unit time, the largest
    rate: both must be finite, so no period and no collapse time of a ring's
    zero phases rounds to 0.
    """
    # Python floats: a quotient past the double range is inf, not a numpy warning
    if not (0.0 < eta <= 0.25 * sys.float_info.max and math.pi / (2.0 * float(eta)) < math.inf):
        raise ValueError(
            "eta must be positive and finite, with a finite coherence period pi/(2 eta) and "
            f"a finite rate 4 eta (eta >= ~{0.5 * math.pi / sys.float_info.max:.2g} and "
            f"eta <= ~{0.25 * sys.float_info.max:.3g}), got {eta!r}"
        )


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


# the six sampled columns of an ObservableSeries, in CSV order
_SERIES_COLUMNS = ("times", "a_factor", "coherence", "concurrence_rescaled", "xi2", "xi2_prime")


@dataclass(frozen=True)
class ObservableSeries:
    """Sampled observables over a time grid, with provenance for refinement.

    The six arrays (``_SERIES_COLUMNS``) share one length; each is a read-only
    view, not a copy, so the caller's array stays writable.  The metadata
    (probe, eta, channel, ring) records what generated the series so that
    zero detection can refine candidates on the analytic factor.
    """

    times: np.ndarray
    a_factor: np.ndarray
    coherence: np.ndarray
    concurrence_rescaled: np.ndarray
    xi2: np.ndarray
    xi2_prime: np.ndarray
    probe: OatParameters
    eta: float
    channel: Channel
    ring: IsingRing

    def __post_init__(self) -> None:
        arrays = {}
        for name in _SERIES_COLUMNS:
            arr = np.asarray(getattr(self, name), dtype=float).view()
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
        object.__setattr__(self, "channel", Channel(self.channel))
        _check_eta(self.eta)


@dataclass(frozen=True)
class VanishingDomain:
    """Maximal interval where the rescaled concurrence stays at or below ``_VANISHING_THRESHOLD``.

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


def coherence_period(eta: float, channel: Channel) -> float:
    """Period of the sampled coherence: pi/(2 eta) for channel I, half for II."""
    _check_eta(eta)
    return np.pi / (Channel(channel).rate * eta)


def zero_times(zeros: LeeYangZeroSet, eta: float, channel: Channel = Channel.I) -> np.ndarray:
    """Times at which the probe coherence collapses, one per zero phase, sorted ascending.

    Each zero phase phi_n maps to t_n = phi_n / (4 eta) for probe-ring
    coupling eta in channel I; channel II accumulates twist twice as fast,
    t_n = phi_n / (8 eta).  Written as phi_n / (4 eta) * (2 / rate), so 8 eta
    never overflows and channel II is channel I's times halved, bit for bit.
    """
    _check_eta(eta)
    return zeros.phases / (4.0 * eta) * (2.0 / Channel(channel).rate)


def run_scenario(s: Scenario) -> ObservableSeries:
    """Evaluate the closed-form observable pipeline over a scenario's uniform grid.

    Vectorized over ``np.linspace(0, t_max, steps)``: one dephasing-factor
    evaluation per point, then coherence, rescaled concurrence and both
    squeezing parameters from the X-state kernel
    ``channels.x_state_observables``.

    Raises:
        ValueError: if a field angle w = channel.rate * eta * t, or the phase
            N_b * w the transfer form takes, is not finite (``factor_values``
            refuses the grid, with one message for the angle limit, before any
            point is evaluated), or if the grid is not strictly increasing.
            Every error is re-raised with a prefix naming the scenario's
            inputs, ``steps``, ``eta`` and ``t_max`` among them.
    """
    try:
        times = np.linspace(0.0, s.t_max, s.steps)
        # rate * eta is finite: an angle past the double range is inf, refused by factor_values
        with np.errstate(over="ignore"):
            angles = s.channel.rate * s.eta * times
        a = factor_values(s.ring, angles)
        values = x_state_observables(oat_reduced_state(s.oat), s.channel, a, s.oat.n_probes)
        return ObservableSeries(
            times=times,
            a_factor=a,
            coherence=values.coherence,
            concurrence_rescaled=values.rescaled,
            xi2=values.xi2,
            xi2_prime=values.xi2_prime,
            probe=s.oat,
            eta=s.eta,
            channel=s.channel,
            ring=s.ring,
        )
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        context = (
            f"scenario(n_spins={s.ring.n_spins}, beta_lambda={s.ring.beta_lambda}, "
            f"n_probes={s.oat.n_probes}, channel={s.channel.value}, steps={s.steps}, "
            f"eta={s.eta}, t_max={s.t_max})"
        )
        raise type(exc)(f"{context}: {exc}") from exc


# largest grid default_steps returns (about 0.5 GB for the six series arrays)
_MAX_DEFAULT_STEPS = 10_000_000
# default grid: samples per mean gap between collapse times, and the fewest in the
# narrowest gap (a sign change of A in every gap, a sampled maximum in every lobe)
_MEAN_GAP_SAMPLES = 40
_NARROWEST_GAP_SAMPLES = 4


def default_steps(
    zeros: LeeYangZeroSet, eta: float, t_max: float, channel: Channel
) -> int:
    """Grid size placing 40 samples per mean gap between collapse times, and 4 in the narrowest.

    The grid takes ``ceil(t_max * max(40 n / period, 4 / narrowest gap)) + 1``
    points, n the collapses per period.  Evenly spaced collapses (strong
    coupling) take 40 samples per gap.  At weak coupling the narrowest gap
    sits at the Lee-Yang edge and shrinks as N_b^-2, while the mean gap is
    period / N_b: the floor of 4 sets the grid there, a tenth of the rows of
    40 samples in the narrowest gap (503,747 for a period at N_b = 1000,
    beta * lambda = 0.5, in place of 5,037,452).

    Raises:
        ValueError: if t_max is not positive and finite; if two collapse
            times coincide (every phase is pi at beta * coupling = 0, or
            rounds to pi near it), so no spacing separates them; or if the
            grid would need more than 10,000,000 steps.
    """
    if not 0.0 < t_max < math.inf:
        raise ValueError(f"t_max must be positive and finite, got {t_max!r}")
    tz = zero_times(zeros, eta, channel)
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
    density = max(_MEAN_GAP_SAMPLES * tz.size / float(period), _NARROWEST_GAP_SAMPLES / float(gap))
    steps = np.ceil(float(t_max) * density) + 1
    if steps > _MAX_DEFAULT_STEPS:
        raise ValueError(
            f"the default grid needs {steps:.3g} steps for {_MEAN_GAP_SAMPLES} samples per "
            f"mean collapse gap and {_NARROWEST_GAP_SAMPLES} in the narrowest collapse gap "
            f"{gap:.6g}, past the limit of {_MAX_DEFAULT_STEPS:,}; pass the number of steps "
            "explicitly (--steps)"
        )
    return max(int(steps), 2)


def _newton_roots(f, lo, hi, f_lo, f_hi, xtol: float) -> tuple[np.ndarray, np.ndarray]:
    """Roots in the sign-change brackets [lo, hi], where f is f_lo and f_hi, and f near each root.

    Bracketed Newton on all brackets at once: f maps points to values and
    Newton steps -f/f' (nan where there is none).  Each step calls f once on
    the open brackets, the first at the secant point of the ends, and keeps
    the sign change bracketed.  A Newton point that is not finite, outside
    the bracket or more than half the step two before it becomes the
    midpoint.  A root is the Newton point once the step is within tol = xtol
    + 8.9e-16 max(|lo|, |hi|), or the midpoint once the bracket is.  f near
    a root is f at the last point of its bracket: within tol of the root, or
    exactly 0 there.
    """
    roots, near = np.empty(lo.shape), np.empty(lo.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        step = (hi - lo) * (f_lo / (f_lo - f_hi))  # from lo to the secant point
    left, x, last, before = np.arange(roots.size), lo, 2.0 * (hi - lo), 2.0 * (hi - lo)
    while left.size:
        new = x + step
        newton = (lo <= new) & (new <= hi) & (np.abs(step) <= 0.5 * before)
        last, before = np.where(newton, np.abs(step), 0.5 * (hi - lo)), last
        x = np.where(newton, new, 0.5 * (lo + hi))
        value, step = f(x)
        same = (value > 0.0) == (f_lo > 0.0)
        lo, hi, f_lo = np.where(same, x, lo), np.where(same, hi, x), np.where(same, value, f_lo)
        tol = xtol + 8.9e-16 * np.maximum(np.abs(lo), np.abs(hi))
        exact = value == 0.0  # closes, at its Newton point if it has one
        step = np.where(exact & ~np.isfinite(step), 0.0, step)
        close = exact | (np.abs(step) <= tol)
        done = close | (hi - lo <= tol)
        roots[left[done]] = np.where(close, x + step, 0.5 * (lo + hi))[done]
        near[left[done]] = value[done]
        left, x, step, last, before, lo, hi, f_lo = (
            v[~done] for v in (left, x, step, last, before, lo, hi, f_lo)
        )
    return roots, near


def _golden_minima(f, lo: np.ndarray, hi: np.ndarray, xatol: float) -> np.ndarray:
    """Minima of f on the brackets [lo, hi], narrowed all at once to below xatol.

    f maps an array of points to values; each golden-section step evaluates
    it once, at both interior points of every bracket.
    """
    shrink = 0.5 * (math.sqrt(5.0) - 1.0)
    while np.any(hi - lo > xatol):
        step = shrink * (hi - lo)
        left, right = np.split(f(np.concatenate([hi - step, lo + step])), 2)
        lower_left = left < right
        lo, hi = np.where(lower_left, lo, hi - step), np.where(lower_left, lo + step, hi)
    return 0.5 * (lo + hi)


# a collapse: the coherence falls below this fraction of the series maximum
_COLLAPSE_THRESHOLD = 1e-6
# a vanishing domain: the rescaled concurrence is at or below this value
_VANISHING_THRESHOLD = 1e-12


def _reaches_zero(series: ObservableSeries, state) -> bool:
    """Whether A = 0 brings the coherence of the probe state below the collapse threshold.

    The coherence grows with |A|, so where A = 0 does not, it never collapses.
    """
    floor = x_state_observables(state, series.channel, 0.0, series.probe.n_probes).coherence
    return floor < _COLLAPSE_THRESHOLD * series.coherence.max()


def _runs_as_points(values: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``values`` and ``t``, each run of equal values cut to its first sample (if any run)."""
    fresh = values[1:] != values[:-1]
    if fresh.all():
        return values, t
    points = np.flatnonzero(np.concatenate(([True], fresh)))
    return values[points], t[points]


def detect_coherence_zeros(series: ObservableSeries) -> np.ndarray:
    """Times where the probe coherence collapses to zero, refined analytically.

    No times if even A = 0 leaves the coherence above the collapse threshold,
    seen before any candidate is built.  Else the coherence vanishes only
    where A does, so the candidates come from the sampled ``a_factor`` alone:
    every sign change of A between adjacent samples, and every local minimum
    of |A| whose three samples share one sign (a zero of even order, such as
    A = cos^N_b at beta * lambda = 0).  A run of equal samples is one point,
    and a sample that underflowed to 0 has no sign.  Sign changes are refined
    together on the analytic factor by bracketed Newton steps from the
    secant point of the sampled ends, to a step or width of 1e-15 + 8.9e-16
    |t|: 1-2 evaluations of A on the default grid at beta * lambda >= 5,
    4-5 at 0.42-0.58 (N_b 73-97).  The same-sign minima are refined together
    by a golden-section search on |A|.  A refined point is kept if its
    coherence is below ``_COLLAPSE_THRESHOLD`` (1e-6) times the maximum: at a
    root from A at the solver's last point, within the stop width, and at a
    minimum from A evaluated there.
    """
    t = series.times
    if t.size < 3:
        return np.array([])
    state = oat_reduced_state(series.probe)
    if not _reaches_zero(series, state):
        return np.array([])

    # a run of equal samples is one point: a grid symmetric about an even
    # zero samples it twice, and an A that underflows steps down in runs
    a, times = _runs_as_points(series.a_factor, t)
    # signs (int8), not products: at weak coupling A itself can be ~1e-200,
    # and a sample that underflowed to 0 has sign 0, so it brackets nothing
    sign = (a > 0.0).view(np.int8) - (a < 0.0).view(np.int8)
    pairs = sign[:-1] * sign[1:]
    flips = np.flatnonzero(pairs < 0)
    mag, same = np.abs(a), pairs > 0
    dips = 1 + np.flatnonzero(same[:-1] & same[1:] & (mag[1:-1] < np.minimum(mag[:-2], mag[2:])))

    rate = series.channel.rate * series.eta

    def a_of_t(x):
        return factor_values(series.ring, rate * x)

    def newton_of_t(x):
        value, step = _factor_and_newton_steps(series.ring, rate * x)
        return value, step / rate

    roots, near = _newton_roots(newton_of_t, times[flips], times[flips + 1], a[flips], a[flips + 1], 1e-15)
    lo, hi = times[dips - 1], times[dips + 1]
    minima = _golden_minima(lambda x: np.abs(a_of_t(x)), lo, hi, 1e-12 * max(1.0, t[-1]))
    refined = np.concatenate([roots, minima])
    a_refined = np.concatenate([near, a_of_t(minima) if minima.size else minima])
    values = x_state_observables(state, series.channel, a_refined, series.probe.n_probes)
    zeros = np.sort(refined[values.coherence < _COLLAPSE_THRESHOLD * series.coherence.max()])
    if zeros.size == 0:
        return zeros
    # adjacent candidates can refine into the same zero; merge sub-grid duplicates
    spacing = np.min(np.diff(t))
    keep = np.concatenate(([True], np.diff(zeros) > 0.25 * spacing))
    return zeros[keep]


def vanishing_domains(series: ObservableSeries) -> list[VanishingDomain]:
    """Maximal grid intervals where the rescaled concurrence is <= ``_VANISHING_THRESHOLD`` (1e-12).

    Domains touching the first or last grid point are flagged clipped; their
    true extent is unknown, so center statistics should skip them.
    """
    below = series.concurrence_rescaled <= _VANISHING_THRESHOLD
    # +1 where a run of vanishing samples starts, -1 one past where it ends
    edges = np.diff(np.concatenate(([False], below, [False])).astype(np.int8))
    starts = np.flatnonzero(edges == 1)
    ends = np.flatnonzero(edges == -1) - 1
    t = series.times
    clipped = (starts == 0) | (ends == below.size - 1)
    return [
        VanishingDomain(start=s, center=c, end=e, clipped=k)
        for s, c, e, k in zip(
            t[starts].tolist(),
            (0.5 * (t[starts] + t[ends])).tolist(),
            t[ends].tolist(),
            clipped.tolist(),
        )
    ]


def count_recovery_peaks(series: ObservableSeries) -> int:
    """Strict local maxima of coherence within one period after the first collapse.

    The window opens at the first collapse time the zero phases predict.  A
    run of equal samples counts as one point, at its first sample: a grid
    symmetric about a maximum samples it as two equal values.  Returns 0
    when the coherence cannot reach zero (not even A = 0 brings it below
    ``_COLLAPSE_THRESHOLD``, the threshold ``detect_coherence_zeros`` uses)
    or when the grid ends before the first collapse (nothing to recover from).

    Raises:
        ValueError: if the series ends less than one period after the first
            collapse.
    """
    t = series.times
    if t.size < 3 or not _reaches_zero(series, oat_reduced_state(series.probe)):
        return 0
    start = zero_times(lee_yang_zeros(series.ring), series.eta, series.channel)[0]
    if start > t[-1]:
        return 0
    period = coherence_period(series.eta, series.channel)
    if start + period > t[-1] + 1e-9 * max(1.0, t[-1]):
        raise ValueError(
            f"series ends at t={t[-1]}, less than one period ({period}) after "
            f"the first collapse at t={start}"
        )
    coh, t = _runs_as_points(series.coherence, t)
    is_peak = (coh[1:-1] > coh[:-2]) & (coh[1:-1] > coh[2:])
    in_window = (t[1:-1] > start) & (t[1:-1] <= start + period)
    return int(np.count_nonzero(is_peak & in_window))


def fit_cmax_scaling(
    n_values,
    theta: float,
    ring: IsingRing | None = None,
    eta: float = 0.01,
) -> FitResult:
    """Exponential-decay fit of the maximum concurrence against ensemble size.

    Under channel I the pair concurrence grows with |A|, and A(0) = 1, so its
    maximum over time is the concurrence of the initial state, A = 1, at any
    coupling.  C_max(N) is that value, one kernel call per N, and ln C_max is
    fit linearly against (N - 2): the result depends only on ``n_values`` and
    ``theta``.  ``ring`` is never read and ``eta`` is only validated; both
    remain because the benchmark harness passes them by keyword.

    Raises:
        ValueError: on fewer than 3 distinct ensemble sizes, a size N that is
            not an integer (3.7 is not cut to 3) or is below 2, an invalid eta,
            or any C_max = 0 (log undefined; parameters outside the squeezed regime).
    """
    sizes = np.asarray(n_values)
    if sizes.ndim != 1 or len(set(sizes.tolist())) < 3:
        raise ValueError("n_values must contain at least 3 distinct ensemble sizes")
    for n in n_values:
        _check_n_probes(n)
    _check_eta(eta)

    cmax = []
    for n in sizes.tolist():
        state = oat_reduced_state(OatParameters(n, theta))
        rescaled = x_state_observables(state, Channel.I, 1.0, n).rescaled
        # (N - 1) C / (N - 1), not C: the bits of the series' rescaled column at t = 0
        cmax.append(float(rescaled / (n - 1)))
    cmax = np.array(cmax)
    if np.any(cmax <= 0.0):
        raise ValueError(
            f"C_max vanished at N={sizes[np.argmax(cmax <= 0.0)]} for theta={theta!r}: "
            "parameters outside the squeezed regime, log fit undefined"
        )
    x = sizes - 2.0
    log_cmax = np.log(cmax)
    alpha, intercept = np.polyfit(x, log_cmax, 1)
    predicted = alpha * x + intercept
    residual = float(np.sqrt(np.mean((log_cmax - predicted) ** 2)))
    return FitResult(
        alpha=float(alpha),
        intercept=float(intercept),
        residual=residual,
        n_values=sizes,
        log_cmax=log_cmax,
    )


# rows formatted per kernel call: large enough to amortise numpy's per-call cost,
# small enough that the block's arrays stay in cache
_CSV_BLOCK_ROWS = 2048


def _words(codes) -> np.ndarray:
    """Rows of up to 8 byte codes packed into uint64 words, first byte lowest."""
    codes = np.asarray(codes, dtype=np.uint64)
    return (codes << np.arange(0, 8 * codes.shape[-1], 8, dtype=np.uint64)).sum(axis=-1)


# Tables of the %.12g kernel.  A field is four NUL-padded words: the lead (sign
# at byte 0, "0.000" right-aligned), a 16-byte body of digits and point, and the
# exponent with the separator at byte 7.  Each 4-digit group as text, and its
# zero digits as a mask (bit k: digit k from the right):
_DIGIT = np.ix_(*[np.arange(48, 58, dtype=np.uint64)] * 4)
_DIGITS4 = (_DIGIT[0] | _DIGIT[1] << 8 | _DIGIT[2] << 16 | _DIGIT[3] << 24).ravel()
_ZERO_DIGITS = sum((_DIGIT[3 - k] == 48).astype(np.uint16) << k for k in range(4)).ravel()
_TRAILING = np.bitwise_count(np.arange(4096) ^ np.arange(1, 4097)) - 1  # trailing ones
# low and high body word of: a mask of the first k bytes, "." at byte k
_FIRST_LO, _FIRST_HI = _words(255 * (np.arange(16) < np.arange(17)[:, None]).reshape(17, 2, 8)).T
_POINT_LO, _POINT_HI = _words(46 * (np.arange(16) == np.arange(17)[:, None]).reshape(17, 2, 8)).T

# Per decade e = -324 ... 308, at e + 324.  The digits before the point:
# %.12g writes e < -4 and e >= 12 in exponent form, one digit before the
# point; at or below 0 the lead holds "0." and the point is not in the body.
_E = np.arange(-324, 309)
_POINT = np.where((_E >= -4) & (_E < 12), _E + 1, 1)
_SPLIT = np.where(_POINT > 0, _POINT, 16)
# 10**(11 - e), held at 1e308 below e = -297.  A value whose product lies at or
# past its tie margin reads its digits from %.11e: where the power is exact
# (|e| <= 11), only a product on a half-integer; elsewhere (error below 4e-4), one
# within 2e-3 of a tie; below e = -297 (margin 0), every value.
_SCALE = 10.0 ** np.minimum(11 - _E, 308)
_TIE = np.where(np.abs(_E) <= 11, 0.5, np.where(_E < -297, 0.0, 0.5 - 2e-3))
# the product must round into [1e11, 1e12); one at most 0.04 below 1e11
# rounds to 1e11 at the decade below as well, so 0.01 of slack is safe
_MIDDLE, _HALF_WIDTH = (1e11 - 0.01 + 1e12 - 0.51) / 2, (1e12 - 0.51 - 1e11 + 0.01) / 2
# body bytes at and after the point, which move up one byte to make room for it
_ABOVE_LO, _ABOVE_HI = ~_FIRST_LO[_SPLIT], ~_FIRST_HI[_SPLIT]
# body bytes kept, at 13 * (digits before the point + 3) + trailing zeros:
# zeros after the point go, and the point with them
_KEEP_ROW = 13 * (_POINT + 3)
_BEFORE, _ZEROS = np.arange(-3, 13)[:, None], np.arange(13)
_KEEP = np.where(_ZEROS + _BEFORE >= 12, _BEFORE, 13 - _ZEROS - (_BEFORE <= 0)).ravel()
_KEEP_LO, _KEEP_HI = _FIRST_LO[_KEEP], _FIRST_HI[_KEEP]
# a field's four words before its digits and sign: "0." and -p zeros, the
# point, and "e-324" ... "e+308" (exponent form) with "," at byte 7
_LEAD_SIZE = np.where(_POINT <= 0, 2 - _POINT, 0)[:, None]
_LEAD = _words(np.where(np.arange(8) == 9 - _LEAD_SIZE, 46, 48 * (np.arange(8) >= 8 - _LEAD_SIZE)))
_EXPONENT = np.where(
    _POINT == _E + 1,
    0,
    np.where(_E < 0, ord("e") | ord("-") << 8, ord("e") | ord("+") << 8).astype(np.uint64)
    | _DIGITS4[np.abs(_E)] >> np.where(np.abs(_E) >= 100, 8, 16).astype(np.uint64) << 16,
).astype(np.uint64) | np.uint64(ord(",") << 56)
_ROW = np.stack([_LEAD, _POINT_LO[_SPLIT], _POINT_HI[_SPLIT], _EXPONENT], axis=1)
_NEWLINE = np.uint64((ord(",") ^ ord("\n")) << 56)


def _exact_digits(values: np.ndarray) -> tuple[list[int], list[int]]:
    """12 correctly rounded digits and the decimal exponent of each positive value.

    Read from the C library's ``%.11e``, the rounding ``%.12g`` applies.
    """
    texts = ["%.11e" % v for v in values.tolist()]
    return [int(t[0] + t[2:13]) for t in texts], [int(t[14:]) for t in texts]


def _format_rows(block: np.ndarray) -> bytes:
    """The bytes ``'%.12g' % v`` gives each finite value of a 2-D block, as CSV rows.

    Each value is split into a 12-digit integer M and a decimal exponent e,
    |v| ~ M * 10**(e - 11), by one product with a tabulated power of ten.
    A value the rounded product cannot settle (one on or near a rounding
    tie, one whose decade estimate is off, one below 1e-297) reads its
    digits from ``%.11e`` (``_exact_digits``).  One row of per-decade tables
    gives each field its lead, point and exponent words; the digits come
    from 4-digit group tables, and the trailing zeros from a mask of the
    zero digits.  The NUL padding is deleted by ``bytes.translate``.
    """
    x = np.asarray(block, dtype=np.float64).ravel()
    a = np.abs(x)
    zero = a == 0.0
    i = (np.log10(a + zero) + 324.0).astype(np.intp)  # e + 324, and e = 0 for a zero
    scaled = a * _SCALE.take(i)
    m = np.rint(scaled)
    # a zero is exact, though its M = 0 lies outside [1e11, 1e12)
    near = ((np.abs(scaled - m) >= _TIE.take(i)) | (np.abs(scaled - _MIDDLE) > _HALF_WIDTH)) > zero
    redo = np.flatnonzero(near)
    if redo.size:
        m[redo], e = _exact_digits(a[redo])
        i[redo] = np.add(e, 324)
    m = m.astype(np.int64)
    top = m // 100_000_000
    rest = m - top * 100_000_000
    mid = rest // 10_000
    low = rest - mid * 10_000
    zeros = _ZERO_DIGITS.take(low) | _ZERO_DIGITS.take(mid) << 4 | _ZERO_DIGITS.take(top) << 8
    keep = _KEEP_ROW.take(i) + _TRAILING.take(zeros)
    lo = _DIGITS4.take(top) | _DIGITS4.take(mid) << 32
    hi = _DIGITS4.take(low)
    moved = lo & _ABOVE_LO.take(i)
    shifted = hi & _ABOVE_HI.take(i)
    fields = _ROW.take(i, axis=0)
    fields[:, 0] |= (x.view(np.uint64) >> 63) * np.uint64(ord("-"))
    np.bitwise_and(lo + moved * 255 | fields[:, 1], _KEEP_LO.take(keep), out=fields[:, 1])
    np.bitwise_and(
        hi + shifted * 255 + (moved >> 56) | fields[:, 2], _KEEP_HI.take(keep), out=fields[:, 2]
    )
    fields.reshape(*block.shape, -1)[:, -1, -1] ^= _NEWLINE
    return fields.astype("<u8", copy=False).tobytes().translate(None, b"\0")


def _write_csv(path, header: str, columns) -> None:
    """Write equal-length 1-D columns of finite values as CSV under a header line.

    The bytes equal numpy's savetxt with fmt="%.12g" and delimiter=",":
    each value is written as ``'%.12g' % v`` would write it, but the text
    is assembled in numpy from per-decade and digit-group tables, 2,048
    rows at a time (see ``_format_rows``).

    Raises:
        ValueError: if there is no column, a column is not 1-D, the columns
            differ in length or a value is not finite; nothing is written.
        OSError: naming the path, if the file cannot be opened or written.
    """
    columns = [np.asarray(c, dtype=np.float64) for c in columns]
    shapes = [c.shape for c in columns]
    if not shapes or any(len(shape) != 1 for shape in shapes) or len(set(shapes)) > 1:
        raise ValueError(f"CSV for {path!r} needs 1-D columns of equal length, got shapes {shapes}")
    if not all(np.isfinite(c).all() for c in columns):
        raise ValueError(f"CSV values for {path!r} must be finite")
    try:
        with open(path, "wb") as handle:
            handle.write(header.encode("ascii") + b"\n")
            for start in range(0, columns[0].size, _CSV_BLOCK_ROWS):
                block = np.column_stack([c[start : start + _CSV_BLOCK_ROWS] for c in columns])
                handle.write(_format_rows(block))
    except OSError as exc:
        raise OSError(f"failed to write CSV to {path!r}: {exc}") from exc


def emit_csv(series: ObservableSeries, path) -> None:
    """Write the series as deterministic CSV with 12 significant digits.

    Format: the header line
    ``t,a_factor,coherence,concurrence_rescaled,xi2,xi2_prime``, then one row
    per grid point, each value formatted as ``'%.12g' % v`` formats it,
    separated by commas, every line ended by ``\\n``.  The file is always
    plain text: unlike numpy's savetxt, a path ending in ``.gz`` is not
    compressed.  The text is assembled in numpy from per-decade and
    digit-group tables, 2,048 rows at a time (``_write_csv``, ``_format_rows``);
    ``lyprobe zeros`` writes its CSV through the same writer.

    Raises:
        OSError: naming the path, if the file cannot be written.
    """
    header = ",".join(("t", *_SERIES_COLUMNS[1:]))
    _write_csv(path, header, [getattr(series, name) for name in _SERIES_COLUMNS])
