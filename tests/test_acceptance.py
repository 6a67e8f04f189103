"""Acceptance battery: the headline claims at their stated tolerances.

Each test records one PASS/FAIL line (shown in the terminal summary) and then
asserts.  Tolerances are the contractual ones, not implementation-tuned.
"""

import numpy as np
import pytest

from lyprobe import (
    Channel,
    IsingRing,
    OatParameters,
    Scenario,
    coherence_period,
    count_recovery_peaks,
    default_steps,
    detect_coherence_zeros,
    fit_cmax_scaling,
    lee_yang_zeros,
    oat_reduced_state,
    run_scenario,
    spin_squeezing,
    vanishing_domains,
    zero_times,
)

from lyprobe.channels import XStateStack
from lyprobe.verify import (
    _concurrence_deviation,
    _enumeration_deviation,
    _identity_gap,
    _kraus_deviation,
    _period_mismatch,
    _zero_set_deviation,
)

from .criterion_log import record
from .oracles import exact_pair_state, highprecision_roots

ETA = 0.01
RING_SIZES = (4, 10, 40, 100)
COUPLING_STRENGTHS = (0.25, 0.5, 2.0, 10.0)


def check(number, ok, detail):
    assert record(number, bool(ok), detail), f"criterion {number}: {detail}"


def ring_at(nb, beta_lambda):
    return IsingRing(n_spins=nb, coupling=1.0, inverse_temperature=beta_lambda)


def random_x_state(rng):
    a, b, c = rng.uniform(0.05, 1.0, size=3)
    s = a + b + 2.0 * c
    v_plus, v_minus, w = a / s, b / s, c / s
    from lyprobe import TwoQubitXState

    return TwoQubitXState(
        v_plus=v_plus,
        v_minus=v_minus,
        w=w,
        y=rng.uniform(-0.95, 0.95) * w,
        u=rng.uniform(0.0, 0.95)
        * np.sqrt(v_plus * v_minus)
        * np.exp(1j * rng.uniform(-np.pi, np.pi)),
    )


def test_criterion_01_unit_circle_theorem():
    rings = [ring_at(nb, bl) for nb in RING_SIZES for bl in COUPLING_STRENGTHS]
    worst_residual = _zero_set_deviation(rings)
    moduli = [highprecision_roots(ring.coefficients)[0] for ring in rings if ring.n_spins <= 40]
    worst_modulus = max(np.abs(m - 1.0).max() for m in moduli)
    ok = worst_modulus < 1e-8 and worst_residual < 1e-8
    check(
        1,
        ok,
        "all roots on the unit circle: worst | |z|-1 | = "
        f"{worst_modulus:.3g} (root solve, ring size <= 40), worst on-circle "
        f"residual {worst_residual:.3g} (all sizes); tolerance 1e-8",
    )


def test_criterion_02_infinite_temperature_degeneracy():
    worst = 0.0
    for nb in (4, 7, 10, 100):
        ring = IsingRing(nb, inverse_temperature=0.0)
        zs = lee_yang_zeros(ring)
        assert zs.phases.size == nb
        worst = max(worst, np.abs(zs.phases - np.pi).max())
    ok = worst < 1e-10
    check(2, ok, f"beta = 0 zeros all at phase pi: worst deviation {worst:.3g} < 1e-10")


def test_criterion_03_low_temperature_uniform_phases():
    zs = lee_yang_zeros(ring_at(100, 10.0))
    n = np.arange(1, 101)
    expected = np.sort((2.0 * n - 1.0) * np.pi / 100.0)
    worst = np.abs(zs.phases - expected).max()
    ok = worst < 1e-3
    check(
        3,
        ok,
        f"strong-coupling phases match (2n-1)pi/N_b: worst deviation {worst:.3g} < 1e-3",
    )


def test_criterion_04_coefficient_enumeration_oracle():
    rings = [IsingRing(nb, inverse_temperature=b) for nb in range(3, 17) for b in (0.0, 0.25, 0.5, 1.0, 2.0)]
    worst = _enumeration_deviation(rings)
    ok = worst < 1e-12
    check(
        4,
        ok,
        "closed-form coefficients match full enumeration for all ring sizes "
        f"<= 16, five temperatures: worst relative error {worst:.3g} < 1e-12",
    )


def test_criterion_05_coherence_period():
    period = coherence_period(ETA, Channel.I)
    assert period == pytest.approx(50.0 * np.pi, rel=1e-15)
    scenario = Scenario(
        ring=IsingRing(10, inverse_temperature=0.5),
        oat=OatParameters(3, np.pi / 2),
        channel=Channel.I,
        t_max=2.0 * period,
        steps=2001,
        eta=ETA,
    )
    worst = _period_mismatch(run_scenario(scenario))
    ok = worst < 1e-8
    check(
        5,
        ok,
        f"channel I series repeats with period 50 pi: worst mismatch {worst:.3g} < 1e-8",
    )


def test_criterion_06_zero_correspondence():
    ring = IsingRing(10, inverse_temperature=0.5)
    zs = lee_yang_zeros(ring)
    period = coherence_period(ETA, Channel.I)
    steps = default_steps(zs, ETA, period, Channel.I)
    series = run_scenario(
        Scenario(
            ring=ring,
            oat=OatParameters(3, np.pi / 2),
            channel=Channel.I,
            t_max=period,
            steps=steps,
            eta=ETA,
        )
    )
    detected = detect_coherence_zeros(series)
    expected = zero_times(zs, ETA)
    size_ok = detected.size == expected.size
    worst = np.abs(detected - expected).max() if size_ok else np.inf
    ok = size_ok and worst < 1e-4 * period
    check(
        6,
        ok,
        f"{detected.size} detected coherence zeros match phi_n/(4 eta): worst "
        f"offset {worst:.3g} < 1e-4 * period = {1e-4 * period:.3g}",
    )


def test_criterion_07_recovery_peak_count():
    counts = {}
    for nb in (10, 20):
        ring = IsingRing(nb, inverse_temperature=0.5)
        zs = lee_yang_zeros(ring)
        period = coherence_period(ETA, Channel.I)
        steps = default_steps(zs, ETA, 2.0 * period, Channel.I)
        series = run_scenario(
            Scenario(
                ring=ring,
                oat=OatParameters(3, np.pi / 2),
                channel=Channel.I,
                t_max=2.0 * period,
                steps=steps,
                eta=ETA,
            )
        )
        counts[nb] = count_recovery_peaks(series)
    ok = all(counts[nb] == nb for nb in counts)
    check(
        7,
        ok,
        "coherence recovery peaks per period equal the ring size: "
        + ", ".join(f"N_b={nb}: {c}" for nb, c in counts.items()),
    )


def test_criterion_08_vanishing_domain_centers():
    ring = IsingRing(100, inverse_temperature=10.0)
    zs = lee_yang_zeros(ring)
    details = []
    ok = True
    for channel in (Channel.I, Channel.II):
        t_max = coherence_period(ETA, channel)
        steps = default_steps(zs, ETA, t_max, channel)
        series = run_scenario(
            Scenario(
                ring=ring,
                oat=OatParameters(3, np.pi / 2),
                channel=channel,
                t_max=t_max,
                steps=steps,
                eta=ETA,
            )
        )
        interior = [d for d in vanishing_domains(series) if not d.clipped]
        tz = zero_times(zs, ETA, channel)
        grid_step = series.times[1] - series.times[0]
        assert interior
        worst = max(np.abs(tz - d.center).min() for d in interior)
        ok = ok and worst <= grid_step
        details.append(
            f"channel {channel.value}: {len(interior)} domains, worst "
            f"center-to-zero-time distance {worst:.3g} (grid step {grid_step:.3g})"
        )
    check(8, ok, "; ".join(details))


def test_criterion_09_cmax_scaling_rate():
    result = fit_cmax_scaling(
        range(3, 9), np.pi / 2, IsingRing(10, inverse_temperature=10.0), eta=ETA
    )
    target = -np.log(2.0)
    deviation = abs(result.alpha - target) / abs(target)
    ok = deviation <= 0.02
    check(
        9,
        ok,
        f"fitted decay rate alpha = {result.alpha:.6f} vs -ln 2 = {target:.6f}: "
        f"deviation {deviation:.1%} (tolerance 2%); the exact pair maximum "
        "2(sqrt(2^-6 + 2^-(N+1)) - 1/8) is not a pure exponential at N = 3..8",
    )


def test_criterion_10_channel_II_identity_random_scenarios():
    rng = np.random.default_rng(20260814)
    worst = 0.0
    for _ in range(20):
        nb = int(rng.integers(4, 21))
        beta = rng.uniform(0.2, 3.0)
        n = int(rng.integers(2, 11))
        theta = rng.uniform(0.1, np.pi - 0.1)
        eta = rng.uniform(0.005, 0.02)
        scenario = Scenario(
            ring=IsingRing(nb, inverse_temperature=beta),
            oat=OatParameters(n, theta),
            channel=Channel.II,
            t_max=coherence_period(eta, Channel.II),
            steps=301,
            eta=eta,
        )
        series = run_scenario(scenario)
        worst = max(worst, _identity_gap(oat_reduced_state(scenario.oat), series.a_factor, series))
    ok = worst <= 1e-12
    check(
        10,
        ok,
        "xi^2 + C_r = 1 wherever |A' u0| >= y0 across 20 random shared-bath "
        f"scenarios: worst gap {worst:.3g} <= 1e-12",
    )


def test_criterion_11_channel_I_improvement_bound():
    cases = ((3, np.pi / 2), (5, np.pi / 2), (4, np.pi / 3))
    worst_negative = 0.0
    worst_max_error = 0.0
    frozen_value = None
    for n, theta in cases:
        state = oat_reduced_state(OatParameters(n, theta))
        mod_u, y = abs(state.u), state.y
        kink = np.sqrt(y / mod_u)
        grid = np.unique(np.concatenate([np.linspace(-1.0, 1.0, 2001), [-kink, kink]]))
        gaps = np.array(
            [spin_squeezing(state, Channel.I, a, n).improvement for a in grid]
        )
        closed = 2.0 * (n - 1) * (1.0 - y / mod_u) * y
        worst_negative = min(worst_negative, gaps.min())
        worst_max_error = max(worst_max_error, abs(gaps.max() - closed))
        if (n, theta) == (3, np.pi / 2):
            frozen_value = gaps.max()
    ok = (
        worst_negative >= -1e-12
        and worst_max_error <= 1e-6
        and abs(frozen_value - 0.27639) < 1e-5
    )
    check(
        11,
        ok,
        f"improvement >= 0 everywhere (min {worst_negative:.3g}) and its maximum "
        f"matches 2(N-1)(1 - y/|u|)y within {worst_max_error:.3g} <= 1e-6; "
        f"three-probe half-turn value {frozen_value:.6f} ~ 0.27639",
    )


def test_criterion_12_stable_shared_bath_coherence():
    period = coherence_period(ETA, Channel.II)
    series = run_scenario(
        Scenario(
            ring=IsingRing(100, inverse_temperature=0.5),
            oat=OatParameters(3, np.pi),
            channel=Channel.II,
            t_max=period,
            steps=8001,
            eta=ETA,
        )
    )
    window = (series.times >= 0.25 * period) & (series.times <= 0.75 * period)
    worst = np.abs(series.coherence[window] - 0.5).max()
    ok = worst <= 0.005
    check(
        12,
        ok,
        "shared-bath coherence stays within 1% of (1 - cos^{N-2} theta)/4 = 0.5 "
        f"over the mid-period plateau: worst deviation {worst:.3g} <= 0.005",
    )


def test_criterion_13_closed_form_vs_kraus_and_wootters():
    rng = np.random.default_rng(1234)
    states, factors = [], []
    for _ in range(500):
        states.append(random_x_state(rng))
        factors.append(rng.uniform(-1.0, 1.0))
    stack, factors = XStateStack.of(states), np.array(factors)
    worst_state, via_kraus = _kraus_deviation(stack, factors)
    worst_conc = _concurrence_deviation(stack, factors, via_kraus)
    ok = worst_state <= 1e-12 and worst_conc <= 1e-10
    check(
        13,
        ok,
        "500 random states per channel: closed-form evolution matches Kraus "
        f"propagation to {worst_state:.3g} (<= 1e-12) and closed-form "
        f"concurrence matches the spin-flip computation to {worst_conc:.3g} "
        "(<= 1e-10)",
    )


def test_criterion_14_twisted_pair_reduction_oracle():
    worst = 0.0
    for n in range(2, 11):
        for theta in np.linspace(-2.0 * np.pi, 2.0 * np.pi, 32):
            closed = oat_reduced_state(OatParameters(n, float(theta))).to_matrix()
            reference = exact_pair_state(n, float(theta))
            worst = max(worst, np.abs(closed - reference).max())
    ok = worst <= 1e-10
    check(
        14,
        ok,
        "closed-form pair state matches the full 2^N partial trace for N <= 10, "
        f"32 angles: worst entry deviation {worst:.3g} <= 1e-10",
    )
