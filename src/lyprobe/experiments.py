"""Scenario runner: time series, zero detection, domain statistics, scaling fits.

Builds uniform time grids, evaluates the dephasing factor and the closed-form
observables over them, and post-processes the series: coherence-zero
detection (candidates from the signs of the sampled factor, refined on the
analytic factor: sign changes all at once by bisection, same-sign minima of
|A| all at once by golden-section search), maximal
concurrence-vanishing domains, recovery-peak counts, and the exponential fit
of the maximum concurrence, the initial state's (A = 1), against ensemble
size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import Channel, OatParameters, oat_reduced_state
from .ising_bath import (
    IsingRing,
    LeeYangZeroSet,
    _check_eta,
    _check_phase,
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
    detection can refine candidates on the analytic factor.
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
        object.__setattr__(self, "channel", Channel(self.channel))
        _check_eta(self.eta)


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


def coherence_period(eta: float, channel: Channel) -> float:
    """Period of the sampled coherence: pi/(2 eta) for channel I, half for II."""
    _check_eta(eta)
    return np.pi / (Channel(channel).rate * eta)


def lee_yang_times(zeros: LeeYangZeroSet, eta: float, channel: Channel) -> np.ndarray:
    """Coherence-collapse times predicted by the zero phases for a channel.

    Channel I: t_n = phi_n / (4 eta); channel II accumulates twist twice as
    fast, t_n = phi_n / (8 eta).
    """
    return zero_times(zeros, eta) * (2.0 / Channel(channel).rate)


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
            w = channel.rate * eta * |t|, or the phase N_b * w the transfer
            form takes, is not finite; checked before any point is evaluated.
    """
    channel = Channel(channel)
    _check_eta(eta)
    times = np.asarray(times, dtype=float)
    _check_phase(
        ring.n_spins, channel.rate, "eta", eta, "t", float(np.abs(times).max(initial=0.0))
    )

    n = probe.n_probes
    a = factor_values(ring, channel.rate * eta * times)
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
        ValueError: if t_max is not positive and finite; if two collapse
            times coincide (every phase is pi at beta * coupling = 0, or
            rounds to pi near it), so no spacing separates them; or if the
            grid would need more than 10,000,000 steps.
    """
    if not 0.0 < t_max < math.inf:
        raise ValueError(f"t_max must be positive and finite, got {t_max!r}")
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
            f"the default grid needs {steps:.3g} steps for the narrowest collapse gap "
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


def _reaches_zero(series: ObservableSeries) -> bool:
    """Whether A = 0 brings the coherence below the collapse threshold.

    The coherence grows with |A|, so where A = 0 does not, it never collapses.
    """
    state = oat_reduced_state(series.probe)
    floor = x_state_observables(state, series.channel, 0.0, series.probe.n_probes).coherence
    return floor < _COLLAPSE_THRESHOLD * series.coherence.max()


def detect_coherence_zeros(series: ObservableSeries) -> np.ndarray:
    """Times where the probe coherence collapses to zero, refined analytically.

    The coherence vanishes only where the factor A does, so the candidates
    come from the sampled ``a_factor`` column alone: every sign change of A
    between adjacent samples, and every local minimum of |A| whose three
    samples share one sign (a zero of even order, such as A = cos^N_b at
    beta * coupling = 0).  A run of equal samples is one point, and a sample
    that underflowed to 0 has no sign.  Sign changes are refined together by
    bisection of the analytic factor, and the same-sign minima together by a
    golden-section search on |A|.  A refined point is kept if its coherence
    falls below ``_COLLAPSE_THRESHOLD`` (1e-6) times the series maximum.
    """
    t = series.times
    if t.size < 3:
        return np.array([])
    peak = series.coherence.max()
    if peak <= 0.0:
        return np.array([])

    # a run of equal samples is one point: a grid symmetric about an even
    # zero samples it twice, and an A that underflows steps down in runs
    a = series.a_factor
    points = np.flatnonzero(np.concatenate(([True], a[1:] != a[:-1])))
    a = a[points]
    # signs, not products: at weak coupling A itself can be ~1e-200, and a
    # sample that underflowed to 0 has sign 0, so it brackets nothing
    pairs = np.sign(a[:-1]) * np.sign(a[1:])
    flips = np.flatnonzero(pairs < 0.0)
    mag = np.abs(a)
    dips = 1 + np.flatnonzero(
        (pairs[:-1] > 0.0) & (pairs[1:] > 0.0) & (mag[1:-1] < np.minimum(mag[:-2], mag[2:]))
    )
    if flips.size == 0 and dips.size == 0:
        return np.array([])

    if not _reaches_zero(series):
        return np.array([])
    state = oat_reduced_state(series.probe)

    def a_of_t(x):
        return factor_values(series.ring, series.channel.rate * series.eta * x)

    def coherence_at(factor):
        return x_state_observables(state, series.channel, factor, series.probe.n_probes).coherence

    roots = bisect_roots(a_of_t, t[points[flips]], t[points[flips + 1]], np.sign(a[flips]), 1e-15)
    lo, hi = t[points[dips - 1]], t[points[dips + 1]]
    minima = _golden_minima(lambda x: np.abs(a_of_t(x)), lo, hi, 1e-12 * max(1.0, t[-1]))
    refined = np.concatenate([roots, minima])
    zeros = np.sort(refined[coherence_at(a_of_t(refined)) < _COLLAPSE_THRESHOLD * peak])
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
    # +1 where a run of below-epsilon samples starts, -1 one past where it ends
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
    if t.size < 3 or not _reaches_zero(series):
        return 0
    start = lee_yang_times(lee_yang_zeros(series.ring), series.eta, series.channel)[0]
    if start > t[-1]:
        return 0
    period = coherence_period(series.eta, series.channel)
    if start + period > t[-1] + 1e-9 * max(1.0, t[-1]):
        raise ValueError(
            f"series ends at t={t[-1]}, less than one period ({period}) after "
            f"the first collapse at t={start}"
        )
    first = np.concatenate(([True], series.coherence[1:] != series.coherence[:-1]))
    coh, t = series.coherence[first], t[first]
    inner = np.arange(1, t.size - 1)
    is_peak = (coh[inner] > coh[inner - 1]) & (coh[inner] > coh[inner + 1])
    in_window = (t[inner] > start) & (t[inner] <= start + period)
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
        ValueError: on fewer than 3 ensemble sizes, an invalid eta, or any
            C_max = 0 (log undefined; parameters outside the squeezed regime).
    """
    n_values = np.asarray(n_values, dtype=int)
    if n_values.ndim != 1 or n_values.size < 3:
        raise ValueError("n_values must contain at least 3 ensemble sizes")
    if np.any(n_values < 2):
        raise ValueError("ensemble sizes must be >= 2")
    _check_eta(eta)

    cmax = []
    for n in n_values.tolist():
        state = oat_reduced_state(OatParameters(n, theta))
        rescaled = (n - 1) * x_state_observables(state, Channel.I, 1.0, n).concurrence
        # (N - 1) C / (N - 1), not C: the bits of the series' rescaled column at t = 0
        cmax.append(float(rescaled / (n - 1)))
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


# rows formatted per kernel call: large enough to amortise numpy's per-call cost,
# small enough that the block's arrays stay in cache
_CSV_BLOCK_ROWS = 2048


def _words(codes) -> np.ndarray:
    """Rows of up to 8 byte codes packed into uint64 words, first byte lowest."""
    codes = np.asarray(codes, dtype=np.uint64)
    return (codes << np.arange(0, 8 * codes.shape[-1], 8, dtype=np.uint64)).sum(axis=-1)


# Tables of the %.12g kernel.  A field is four words: the sign and "0.000" lead
# (right-aligned), a 16-byte body of digits and point (two words), and the
# exponent and separator.  Each 4-digit group 0000 ... 9999 as text, and its
# count of trailing zero digits:
_DIGIT = np.ix_(*[np.arange(48, 58, dtype=np.uint64)] * 4)
_DIGITS4 = (_DIGIT[0] | _DIGIT[1] << 8 | _DIGIT[2] << 16 | _DIGIT[3] << 24).ravel()
_ZEROS4 = (
    (_DIGIT[3] == 48) * (1 + (_DIGIT[2] == 48) * (1 + (_DIGIT[1] == 48) * (1 + (_DIGIT[0] == 48))))
).ravel()
# low and high body word of: a mask of the first k bytes, "." at byte k
_FIRST_LO, _FIRST_HI = _words(255 * (np.arange(16) < np.arange(17)[:, None]).reshape(17, 2, 8)).T
_POINT_LO, _POINT_HI = _words(46 * (np.arange(16) == np.arange(17)[:, None]).reshape(17, 2, 8)).T
# at 5 * sign + k: "-" if negative, then "0." and k - 1 zeros (k = 1 ... 4 below 1)
_LEAD = _words(
    [
        list((sign + lead).rjust(8, b"\0"))
        for sign in (b"", b"-")
        for lead in (b"", b"0.", b"0.0", b"0.00", b"0.000")
    ]
)
# at 634 * (last column) + e + 324: "e-324" ... "e+308", then "," or "\n";
# slot 633 holds the separator alone, for the fixed-point form
_E = np.arange(-324, 309)
_WIDE = (np.abs(_E) >= 100).astype(np.uint64)
_SEPARATORS = np.array([[ord(",")], [ord("\n")]], dtype=np.uint64)
_EXPONENT = np.concatenate(
    [
        np.where(_E < 0, ord("e") | ord("-") << 8, ord("e") | ord("+") << 8).astype(np.uint64)
        | _DIGITS4[np.abs(_E)] >> 8 * (2 - _WIDE) << 16
        | _SEPARATORS << 32 + 8 * _WIDE,
        _SEPARATORS,
    ],
    axis=1,
).ravel()
# 10**(11 - e) for e = 308 down to -324, held at 1e308: a value below 1e-297
# then scales below 1e11 and takes the exact route
_SCALE = 10.0 ** np.minimum(np.arange(-297, 336), 308)
# the scaled value (error below 4e-4) is trusted this far from a rounding tie
_TIE_MARGIN = 2e-3


def _exact_digits(values: np.ndarray) -> tuple[list[int], list[int]]:
    """12 correctly rounded digits and the decimal exponent of each positive value.

    Read from the C library's ``%.11e``, the rounding ``%.12g`` applies.
    """
    texts = ["%.11e" % v for v in values.tolist()]
    return [int(t[0] + t[2:13]) for t in texts], [int(t[14:]) for t in texts]


def _format_rows(block: np.ndarray) -> np.ndarray:
    """The bytes ``'%.12g' % v`` gives each finite value of a 2-D block, as CSV rows.

    Each value is split into a 12-digit integer M and a decimal exponent e,
    |v| ~ M * 10**(e - 11), by one product with a tabulated power of ten.
    Values whose product lands near a rounding tie, whose decade estimate
    is off, or that round up to 10**12 take their digits from
    ``_exact_digits``.  The fields are assembled from the tables above, and
    the NUL padding is dropped at the end.
    """
    x = np.asarray(block, dtype=np.float64).ravel()
    a = np.abs(x)
    nonzero = a > 0.0
    e = np.floor(np.log10(a, out=np.zeros_like(a), where=nonzero)).astype(np.int64)
    scaled = a * _SCALE.take(308 - e)
    m = np.rint(scaled)
    exact = (scaled < 1e11) | (m >= 1e12) | (np.abs(scaled - np.floor(scaled) - 0.5) < _TIE_MARGIN)
    redo = np.flatnonzero(exact & nonzero)
    if redo.size:
        m[redo], e[redo] = _exact_digits(a[redo])
    m = m.astype(np.int64)
    top = m // 100_000_000
    rest = m - top * 100_000_000
    mid = rest // 10_000
    low = rest - mid * 10_000
    zeros = _ZEROS4.take(low) + (low == 0) * (_ZEROS4.take(mid) + (mid == 0) * _ZEROS4.take(top))

    # digits before the point: %.12g writes e < -4 and e >= 12 in exponent
    # form, one digit before the point; at or below 0 the lead holds the point
    fixed = (e >= -4) & (e < 12)
    point = np.where(fixed, e + 1, 1)
    split = np.where(point > 0, point, 16)
    # body bytes kept: trailing zeros after the point go, and the point with them
    keep = np.where(zeros + point >= 12, point, 13 - zeros - (point <= 0))
    lo = _DIGITS4.take(top) | _DIGITS4.take(mid) << 32
    hi = _DIGITS4.take(low)
    below_lo, below_hi = _FIRST_LO.take(split), _FIRST_HI.take(split)
    moved = lo & ~below_lo
    fields = np.empty((x.size, 4), dtype=np.uint64)
    fields[:, 0] = _LEAD.take(5 * np.signbit(x) + np.maximum(1 - point, 0))
    fields[:, 1] = ((lo & below_lo) | _POINT_LO.take(split) | moved << 8) & _FIRST_LO.take(keep)
    fields[:, 2] = (
        (hi & below_hi) | _POINT_HI.take(split) | (hi & ~below_hi) << 8 | moved >> 56
    ) & _FIRST_HI.take(keep)
    last = np.arange(block.shape[1]) == block.shape[1] - 1
    exponent = np.where(fixed, _E.size, e + 324).reshape(block.shape) + 634 * last
    fields[:, 3] = _EXPONENT.take(exponent).ravel()
    text = fields.astype("<u8", copy=False).view(np.uint8).ravel()
    return text[text != 0]


def _write_csv(path, header: str, columns) -> None:
    """Write equal-length 1-D columns of finite values as CSV under a header line.

    The bytes equal numpy's savetxt with fmt="%.12g" and delimiter=",":
    each value is written as ``'%.12g' % v`` would write it, but the text
    is assembled in numpy from digit and exponent tables, a block of rows at
    a time (see ``_format_rows``).

    Raises:
        ValueError: if a value is not finite; nothing is written.
        OSError: naming the path, if the file cannot be opened or written.
    """
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
    compressed.  The text is assembled in numpy a block of rows at a time
    (``_write_csv``); ``lyprobe zeros`` writes its CSV through the same writer.

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
