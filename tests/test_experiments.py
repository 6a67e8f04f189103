"""Scenario pipeline, zero detection, domain statistics, scaling fit, CSV."""

import dataclasses
import math
import sys
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import lyprobe.experiments as experiments

from lyprobe import (
    Channel,
    IsingRing,
    LeeYangZeroSet,
    OatParameters,
    ObservableSeries,
    Scenario,
    coherence,
    coherence_period,
    concurrence_channel_I,
    concurrence_channel_II,
    concurrence_generic,
    count_recovery_peaks,
    default_steps,
    detect_coherence_zeros,
    emit_csv,
    evolve_channel_I,
    fit_cmax_scaling,
    lee_yang_zeros,
    oat_reduced_state,
    run_scenario,
    spin_squeezing,
    vanishing_domains,
    zero_times,
)

from lyprobe.channels import x_state_observables
from lyprobe.ising_bath import factor_values
from lyprobe.verify import _period_mismatch

from .oracles import (
    bounded_minima,
    brentq_roots,
    max_original_concurrence,
    savetxt_csv,
    vanishing_domains_loop,
)

ETA = 0.01
CSV_HEADER = "t,a_factor,coherence,concurrence_rescaled,xi2,xi2_prime"
BLOCK = experiments._CSV_BLOCK_ROWS
# a fixed provenance for hand-built series
PROVENANCE = dict(
    probe=OatParameters(n_probes=3, twist_angle=np.pi / 2),
    eta=ETA,
    channel=Channel.I,
    ring=IsingRing(n_spins=6, inverse_temperature=0.5),
)


def make_scenario(nb=6, beta=0.5, channel=Channel.I, t_max=None, steps=801, **kw):
    if t_max is None:
        t_max = coherence_period(ETA, channel)
    return Scenario(
        ring=IsingRing(n_spins=nb, inverse_temperature=beta),
        oat=OatParameters(n_probes=3, twist_angle=np.pi / 2),
        channel=channel,
        t_max=t_max,
        steps=steps,
        eta=ETA,
        **kw,
    )


def flat_series(times, coherence_values, a_factor=None):
    """Hand-built series with the fixed provenance."""
    n = len(times)
    return ObservableSeries(
        times=np.asarray(times, dtype=float),
        a_factor=np.ones(n) if a_factor is None else np.asarray(a_factor, dtype=float),
        coherence=np.asarray(coherence_values, dtype=float),
        concurrence_rescaled=np.full(n, 0.5),
        xi2=np.full(n, 0.5),
        xi2_prime=np.full(n, 0.5),
        **PROVENANCE,
    )


class TestScenarioValidation:
    def test_rejects_single_step(self):
        with pytest.raises(ValueError, match="steps"):
            make_scenario(steps=1)

    def test_rejects_nonpositive_horizon(self):
        with pytest.raises(ValueError, match="t_max"):
            make_scenario(t_max=0.0)

    def test_rejects_bad_eta(self):
        with pytest.raises(ValueError, match="eta"):
            Scenario(
                ring=IsingRing(6, inverse_temperature=0.5),
                oat=OatParameters(3, np.pi / 2),
                channel=Channel.I,
                t_max=1.0,
                steps=10,
                eta=0.0,
            )

    def test_coerces_channel_string(self):
        scenario = Scenario(
            ring=IsingRing(6, inverse_temperature=0.5),
            oat=OatParameters(3, np.pi / 2),
            channel="II",
            t_max=1.0,
            steps=10,
        )
        assert scenario.channel is Channel.II


class TestObservableSeriesValidation:
    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            ObservableSeries(
                times=np.array([0.0, 1.0]),
                a_factor=np.array([1.0]),
                coherence=np.array([1.0, 1.0]),
                concurrence_rescaled=np.array([0.0, 0.0]),
                xi2=np.array([1.0, 1.0]),
                xi2_prime=np.array([1.0, 1.0]),
                **PROVENANCE,
            )

    def test_requires_provenance(self):
        columns = [np.array([0.0, 1.0])] * 6
        with pytest.raises(TypeError):
            ObservableSeries(*columns)
        for name in PROVENANCE:
            partial = {k: v for k, v in PROVENANCE.items() if k != name}
            with pytest.raises(TypeError, match=name):
                ObservableSeries(*columns, **partial)

    @pytest.mark.parametrize("eta", [0.0, -0.01, np.nan, np.inf])
    def test_rejects_bad_eta(self, eta):
        with pytest.raises(ValueError, match="eta"):
            ObservableSeries(*[np.array([0.0, 1.0])] * 6, **{**PROVENANCE, "eta": eta})

    def test_coerces_channel_string(self):
        series = ObservableSeries(*[np.array([0.0, 1.0])] * 6, **{**PROVENANCE, "channel": "II"})
        assert series.channel is Channel.II

    def test_rejects_non_increasing_times(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            flat_series([0.0, 1.0, 1.0], [1.0, 1.0, 1.0])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            flat_series([0.0, 1.0, 2.0], [1.0, np.nan, 1.0])

    def test_arrays_frozen(self):
        series = flat_series([0.0, 1.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            series.coherence[0] = 2.0

    def test_domain_ordering_enforced(self):
        # strong and weak coupling, both channels, and a domain clipped at the grid end
        first = float(zero_times(lee_yang_zeros(IsingRing(6, inverse_temperature=0.5)), ETA)[0])
        scenarios = [
            make_scenario(nb=6, beta=10.0, steps=2401),
            make_scenario(nb=10, beta=0.5, steps=1201),
            make_scenario(nb=6, beta=10.0, channel=Channel.II, steps=1201),
            make_scenario(nb=6, t_max=first, steps=601),
        ]
        domains = [d for scenario in scenarios for d in vanishing_domains(run_scenario(scenario))]
        assert len(domains) > 10 and any(d.clipped for d in domains)
        for domain in domains:
            assert domain.start <= domain.center <= domain.end

    def test_fit_fields_finite_residual_nonnegative(self):
        for sizes, theta in ((range(3, 9), np.pi / 2), (range(20, 29), np.pi / 3), (range(2, 12), 0.5)):
            result = fit_cmax_scaling(sizes, theta)
            assert all(math.isfinite(v) for v in (result.alpha, result.intercept, result.residual))
            assert result.residual >= 0.0


class TestSeriesPipeline:
    def test_initial_point_identities(self):
        series = run_scenario(make_scenario())
        state_zero_factor = 1.0
        assert series.times[0] == 0.0
        assert series.a_factor[0] == pytest.approx(state_zero_factor, abs=1e-15)
        sqrt5 = math.sqrt(5.0)
        assert series.coherence[0] == pytest.approx((sqrt5 + 1.0) / 4.0, abs=1e-14)
        assert series.concurrence_rescaled[0] == pytest.approx(
            (sqrt5 - 1.0) / 2.0, abs=1e-14
        )
        assert series.xi2[0] == pytest.approx((3.0 - sqrt5) / 2.0, abs=1e-14)
        assert series.xi2_prime[0] == pytest.approx(series.xi2[0], abs=1e-14)

    @pytest.mark.parametrize("channel", [Channel.I, Channel.II])
    def test_grid_matches_scalar_operations(self, channel):
        # the series and the scalar calls share one kernel: equal bit for bit
        scenario = make_scenario(channel=channel, steps=97)
        series = run_scenario(scenario)
        state = series.probe
        pair = oat_reduced_state(state)
        closed_form = concurrence_channel_I if channel is Channel.I else concurrence_channel_II
        for i in (0, 17, 48, 96):
            a = series.a_factor[i]
            assert series.coherence[i] == coherence(pair, channel, a)
            conc = closed_form(pair, a, state.n_probes)
            assert series.concurrence_rescaled[i] == conc.rescaled
            report = spin_squeezing(pair, channel, a, state.n_probes)
            assert series.xi2[i] == report.xi2
            assert series.xi2_prime[i] == report.xi2_prime

    def test_periodicity(self):
        period = coherence_period(ETA, Channel.I)
        assert _period_mismatch(run_scenario(make_scenario(t_max=2.0 * period, steps=1601))) < 1e-8

    def test_error_context_names_scenario(self):
        # the field angle 2 * eta * t overflows at t_max
        scenario = Scenario(
            ring=IsingRing(5, inverse_temperature=0.5),
            oat=OatParameters(3, np.pi / 2),
            channel=Channel.I,
            t_max=1e10,
            steps=3,
            eta=1e300,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                ValueError,
                match=r"scenario\(n_spins=5, .*, eta=1e\+300, t_max=10000000000\.0\): "
                r"the angle w must be finite, with a finite phase N_b \* w, got w = inf",
            ):
                run_scenario(scenario)

    @pytest.mark.parametrize("channel", [Channel.I, Channel.II])
    def test_angle_past_double_range_refused_without_warning(self, channel):
        # at the largest eta, rate * eta is finite and rate * eta * t is inf
        # past t = 2: the grid is refused by factor_values, with no overflow
        # warning; one ulp above it, rate * eta itself overflows and the
        # scenario refuses eta
        eta = 0.25 * sys.float_info.max
        ring, probe = IsingRing(6, inverse_temperature=0.5), PROVENANCE["probe"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as raised:
                run_scenario(Scenario(ring, probe, channel, 10.0, 3, eta))
            with pytest.raises(ValueError, match=r"eta <= ~4\.49e\+307\), got 4\.4942328371557"):
                Scenario(ring, probe, channel, 10.0, 3, math.nextafter(eta, math.inf))
        prefix, message = str(raised.value).split("): ", 1)
        assert prefix.startswith("scenario(n_spins=6, ")
        assert message == (
            "the angle w must be finite, with a finite phase N_b * w, got w = inf at N_b = 6"
        )

    def test_series_carries_provenance(self):
        series = run_scenario(make_scenario())
        assert series.eta == ETA
        assert series.channel is Channel.I
        assert series.ring == IsingRing(n_spins=6, inverse_temperature=0.5)
        assert series.probe is not None


# grids at and around the edges of run_scenario's 8,192-row blocks
GRID_EDGES = [8191, 8192, 8193, 16385, 24577]
# a strongly coupled ring, whose blocks are read whole, and a weakly coupled
# one, some of whose blocks _factor_split masks by branch
BLOCK_RINGS = {"strong": (300, 10.0), "weak": (85, 0.5)}


def block_scenario(ring, channel, steps):
    nb, beta = BLOCK_RINGS[ring]
    return Scenario(
        IsingRing(nb, inverse_temperature=beta), OatParameters(3, 1.0), channel,
        coherence_period(ETA, channel), steps, ETA,
    )


def whole_grid_columns(s):
    """The six series columns from one factor_values and one x_state_observables call over the grid."""
    times = np.linspace(0.0, s.t_max, s.steps)
    a = factor_values(s.ring, s.channel.rate * s.eta * times)
    values = x_state_observables(oat_reduced_state(s.oat), s.channel, a, s.oat.n_probes)
    return [times, a, values.coherence, values.rescaled, values.xi2, values.xi2_prime]


def traced_peak(run) -> int:
    """The largest traced allocation total, in bytes, while ``run()`` runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestGridBlocks:
    @pytest.mark.parametrize("steps", GRID_EDGES)
    @pytest.mark.parametrize("channel", [Channel.I, Channel.II])
    @pytest.mark.parametrize("ring", ["strong", "weak"])
    def test_blocks_match_the_whole_grid_bit_for_bit(self, ring, channel, steps):
        s = block_scenario(ring, channel, steps)
        series = run_scenario(s)
        assert experiments._GRID_BLOCK_ROWS == 8192
        for name, want in zip(experiments._SERIES_COLUMNS, whole_grid_columns(s)):
            assert np.array_equal(getattr(series, name).view(np.int64), want.view(np.int64)), name

    @pytest.mark.parametrize("ring", ["strong", "weak"])
    def test_the_blocks_take_both_branch_layouts(self, ring):
        # the premise of the test above: _factor_split masks some blocks by
        # branch (more than an eighth of them real) and reads others whole, so
        # both layouts are held against the one the whole grid takes
        nb, beta = BLOCK_RINGS[ring]
        q = math.exp(-4.0 * beta)
        masked = set()
        for channel in Channel:
            for steps in GRID_EDGES:
                w = channel.rate * ETA * np.linspace(0.0, coherence_period(ETA, channel), steps)
                for start in range(0, steps, experiments._GRID_BLOCK_ROWS):
                    block = w[start : start + experiments._GRID_BLOCK_ROWS]
                    real = np.count_nonzero(np.sin(block) ** 2 <= q)
                    masked.add(bool(real) and 8 * real > block.size)
        assert masked == {True, False}

    def test_scratch_memory_does_not_grow_with_the_grid(self):
        # beyond its six 8-byte columns, a series of n rows holds a block's
        # scratch and, while it is checked, a mask and a difference of the times
        run_scenario(block_scenario("strong", Channel.I, 1001))
        small, large = (
            traced_peak(lambda: run_scenario(block_scenario("strong", Channel.I, steps)))
            for steps in (100_001, 400_001)
        )
        assert (large - small) / 300_000 <= 60.0

    @pytest.mark.parametrize(
        "t_max,eta,steps,limit",
        [
            # 6 w first overflows at row 14,981, in the second block
            (
                1e10, 2e297, 20_001,
                "eta=2e+297, t_max=10000000000.0): the angle w must be finite, "
                "with a finite phase N_b * w, got w = 2.9962e+307 at N_b = 6",
            ),
            (1e-320, 0.01, 10_001, "eta=0.01, t_max=1e-320): times must be strictly increasing"),
        ],
        ids=["angle-in-the-second-block", "repeated-times"],
    )
    def test_a_refused_grid_evaluates_no_block(self, t_max, eta, steps, limit):
        s = Scenario(IsingRing(6, inverse_temperature=1.0), OatParameters(3, 1.0), Channel.I, t_max, steps, eta)
        prefix = f"scenario(n_spins=6, beta_lambda=1.0, n_probes=3, channel=I, steps={steps}, "
        spy = mock.Mock(wraps=experiments.x_state_observables)
        with mock.patch.object(experiments, "x_state_observables", spy), warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                run_scenario(s)
        assert str(info.value) == prefix + limit
        assert spy.call_count == 0


class TestCallerArraysStayWritable:
    """A constructor freezes a view of the array it is given, and a result its own array, not the caller's."""

    def test_series_times(self):
        t = np.linspace(0.0, 10.0, 11)
        columns = {
            name: np.full(t.size, 0.5)
            for name in ("a_factor", "coherence", "concurrence_rescaled", "xi2", "xi2_prime")
        }
        series = ObservableSeries(times=t, **columns, **PROVENANCE)
        for name, given in dict(columns, times=t).items():
            assert given.flags.writeable and not getattr(series, name).flags.writeable, name
            assert np.shares_memory(getattr(series, name), given), name

    def test_zero_phases(self):
        p = lee_yang_zeros(IsingRing(6, inverse_temperature=0.5)).phases.copy()
        zeros = LeeYangZeroSet(p)
        assert p.flags.writeable and not zeros.phases.flags.writeable
        assert np.shares_memory(zeros.phases, p)

    def test_concurrence_lambdas(self):
        state = oat_reduced_state(OatParameters(3, np.pi / 2))
        rho = evolve_channel_I(state, 0.5).to_matrix()
        generic = concurrence_generic(rho, 3)
        assert rho.flags.writeable and not generic.lambdas.flags.writeable
        for closed_form in (concurrence_channel_I, concurrence_channel_II):
            assert not closed_form(state, 0.5, 3).lambdas.flags.writeable


class TestZeroDetection:
    def test_no_candidates_on_flat_series(self):
        series = flat_series([0.0, 1.0, 2.0, 3.0], [1.0, 1.0, 1.0, 1.0])
        assert detect_coherence_zeros(series).size == 0

    @pytest.mark.parametrize(
        "a_factor,candidate",
        [
            ([1.0, 0.5, -0.5, -1.0], True),
            ([1.0, 0.5, 0.5, 1.0], True),
            ([-1.0, -0.5, -0.5, -0.25], False),
            ([1e-322, 5e-323, 5e-323, 1e-323], False),
            ([1.0, 0.0, 0.0, -1.0], False),
        ],
        ids=["sign-change", "flat-minimum", "staircase", "subnormal-staircase", "zero-samples"],
    )
    def test_candidates_come_from_the_sampled_factor(self, a_factor, candidate):
        # refinement on the analytic factor runs only where a candidate
        # exists; a run of equal samples is one point, and a sample at 0 has
        # no sign.  The analytic A of the provenance ring stays near 1 here,
        # so no refined point collapses
        series = flat_series([0.0, 1.0, 2.0, 3.0], [1.0, 1.0, 1.0, 1.0], a_factor=a_factor)
        with (
            mock.patch.object(experiments, "_reaches_zero", return_value=True),
            mock.patch.object(
                experiments, "factor_values", wraps=experiments.factor_values
            ) as spy,
            mock.patch.object(
                experiments, "_factor_and_newton_steps", wraps=experiments._factor_and_newton_steps
            ) as newton,
        ):
            assert detect_coherence_zeros(series).size == 0
        assert (spy.called or newton.called) == candidate

    def test_collapse_gate_comes_before_the_candidates(self):
        # a series without candidates still asks whether A = 0 collapses the
        # probe, once, before any candidate is built
        series = flat_series(
            [0.0, 1.0, 2.0, 3.0], [1.0, 1.0, 1.0, 1.0], a_factor=[-1.0, -0.5, -0.5, -0.25]
        )
        with mock.patch.object(
            experiments, "_reaches_zero", wraps=experiments._reaches_zero
        ) as spy:
            assert detect_coherence_zeros(series).size == 0
        assert spy.call_count == 1

    @pytest.mark.parametrize("channel", [Channel.I, Channel.II])
    def test_untwisted_probe_has_no_zeros(self, channel):
        # theta = 0 leaves y = u = 0, so the coherence is 0 everywhere: the
        # collapse gate finds 0 not below 1e-6 times a peak of 0
        ring = IsingRing(n_spins=6, inverse_temperature=0.5)
        t_max = 2.0 * coherence_period(ETA, channel)
        series = run_scenario(Scenario(ring, OatParameters(3, 0.0), channel, t_max, 2001, ETA))
        assert not series.coherence.any()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert detect_coherence_zeros(series).size == 0
            assert count_recovery_peaks(series) == 0

    def test_matches_zero_times(self):
        scenario = make_scenario(nb=6, steps=2401)
        series = run_scenario(scenario)
        detected = detect_coherence_zeros(series)
        expected = zero_times(lee_yang_zeros(scenario.ring), ETA)
        assert detected.size == expected.size
        np.testing.assert_allclose(
            detected, expected, rtol=0.0, atol=1e-4 * coherence_period(ETA, Channel.I)
        )

    @pytest.mark.parametrize("nb", [100, 400])
    def test_weak_coupling_detects_exactly_the_ring_zeros(self, nb):
        # at beta = 0.5 the factor sits ~1e-17 (N_b=100) to ~1e-67 (N_b=400)
        # between collapses; every collapse must be found once, and nothing else
        ring = IsingRing(n_spins=nb, inverse_temperature=0.5)
        zeros = lee_yang_zeros(ring)
        probe = OatParameters(n_probes=3, twist_angle=np.pi / 2)
        for channel in (Channel.I, Channel.II):
            period = coherence_period(ETA, channel)
            t_max = 2.0 * period
            steps = default_steps(zeros, ETA, t_max, channel)
            series = run_scenario(Scenario(ring, probe, channel, t_max, steps, ETA))
            detected = detect_coherence_zeros(series)
            if channel is Channel.II:
                assert detected.size == 0
                continue
            predicted = zero_times(zeros, ETA, channel)
            predicted = np.concatenate([predicted, predicted + period])
            assert detected.size == 2 * nb
            step = series.times[1] - series.times[0]
            assert np.max(np.abs(detected - predicted)) <= step

    def test_underflowed_coherence_detects_every_zero(self):
        # A ~ 1e-200 between collapses, so the coherence ~ A^2 is exactly 0
        # for most samples: collapses come from the sign changes of A
        ring = IsingRing(n_spins=1200, inverse_temperature=0.5)
        probe = OatParameters(n_probes=3, twist_angle=np.pi / 2)
        period = coherence_period(ETA, Channel.I)
        series = run_scenario(Scenario(ring, probe, Channel.I, period, 200_001, ETA))
        assert np.mean(series.coherence == 0.0) > 0.5
        detected = detect_coherence_zeros(series)
        predicted = zero_times(lee_yang_zeros(ring), ETA, Channel.I)
        assert detected.size == predicted.size == 1200
        step = series.times[1] - series.times[0]
        assert np.max(np.abs(detected - predicted)) <= step

    def test_no_false_zeros_where_the_factor_underflows(self):
        # past the factor's own underflow A is 0 between collapses and steps
        # down to it in runs of equal subnormals: none of that is a zero
        ring = IsingRing(n_spins=2000, inverse_temperature=0.05)
        period = coherence_period(ETA, Channel.I)
        probe = OatParameters(3, 1.0)
        series = run_scenario(Scenario(ring, probe, Channel.I, period, 300_001, ETA))
        assert np.mean(series.a_factor == 0.0) > 0.5
        detected = detect_coherence_zeros(series)
        predicted = zero_times(lee_yang_zeros(ring), ETA, Channel.I)
        step = series.times[1] - series.times[0]
        assert np.all(np.min(np.abs(detected[:, None] - predicted[None, :]), axis=1) <= step)

    def test_even_multiplicity_zero_found_by_minimization(self):
        # binomial coefficients give A = cos^4(2 eta t) >= 0: the coherence
        # touches zero without a sign change, exercising the golden-section
        # refinement
        ring = IsingRing(4, inverse_temperature=0.0)
        period = coherence_period(ETA, Channel.I)
        series = run_scenario(
            Scenario(ring, OatParameters(3, np.pi / 2), Channel.I, period, 2001, ETA)
        )
        detected = detect_coherence_zeros(series)
        assert detected.size == 1
        assert detected[0] == pytest.approx(np.pi / (4.0 * ETA), abs=0.01)

    @pytest.mark.xfail(
        strict=True,
        reason="A = cos^24 underflows to 0.0 at the sample on the collapse and a 0.0 has no "
        "sign; detection on sign A and log|A| (ROADMAP item 3) would find it",
    )
    def test_even_zero_found_where_the_sample_on_it_underflows(self):
        # the middle of 2,001 samples over one period sits on the collapse at
        # T/2, where A underflows to exactly 0.0 (N_b >= 21); counting a 0.0
        # sample as a zero would bring back spurious zeros on the underflow
        # plateaus of large rings
        ring = IsingRing(24, inverse_temperature=0.0)
        period = coherence_period(ETA, Channel.I)
        series = run_scenario(Scenario(ring, OatParameters(3, 1.0), Channel.I, period, 2001, ETA))
        assert series.a_factor[1000] == 0.0
        detected = detect_coherence_zeros(series)
        assert detected.size == 1
        assert detected[0] == pytest.approx(0.5 * period, abs=1e-6 * period)

    @pytest.mark.parametrize("case", ["binomial-4", "binomial-8", "ring-6", "ring-100-weak"])
    def test_golden_section_matches_bounded_brent(self, case, monkeypatch):
        # the same-sign minima refined one bracket at a time by scipy's
        # bounded Brent search give the same zeros; Brent stops within about
        # sqrt(eps) |t| + xatol of a minimum, the golden search within xatol / 2
        if case.startswith("binomial"):
            ring = IsingRing(int(case.split("-")[1]), inverse_temperature=0.0)
            period = coherence_period(ETA, Channel.I)
            series = run_scenario(
                Scenario(ring, OatParameters(3, np.pi / 2), Channel.I, period, 2001, ETA)
            )
        elif case == "ring-6":
            series = run_scenario(make_scenario(nb=6, steps=2401))
        else:
            zeros = lee_yang_zeros(IsingRing(100, inverse_temperature=0.5))
            t_max = coherence_period(ETA, Channel.I)
            series = run_scenario(
                make_scenario(nb=100, t_max=t_max, steps=default_steps(zeros, ETA, t_max, Channel.I))
            )
        detected = detect_coherence_zeros(series)
        brackets = []

        def reference(f, lo, hi, xatol):
            brackets.append(lo.size)
            return bounded_minima(f, lo, hi, xatol)

        monkeypatch.setattr(experiments, "_golden_minima", reference)
        expected = detect_coherence_zeros(series)
        assert detected.size == expected.size
        xatol = 1e-12 * max(1.0, series.times[-1])
        np.testing.assert_allclose(detected, expected, rtol=2.0 * math.sqrt(2.2e-16), atol=xatol)
        if case.startswith("binomial"):
            assert sum(brackets) > 0

    @pytest.mark.parametrize("nb,beta,steps", [(200, 1.0, 2001), (60, 0.05, 4001)])
    def test_zeros_in_adjacent_cells_are_both_found(self, nb, beta, steps):
        # the coarse grid puts close pairs of zeros in adjacent cells: A
        # changes sign twice across three samples, where the coherence has
        # one minimum
        ring = IsingRing(n_spins=nb, inverse_temperature=beta)
        period = coherence_period(ETA, Channel.I)
        series = run_scenario(Scenario(ring, OatParameters(3, 1.0), Channel.I, period, steps, ETA))
        detected = detect_coherence_zeros(series)
        predicted = zero_times(lee_yang_zeros(ring), ETA, Channel.I)
        assert detected.size == predicted.size == nb
        assert np.max(np.abs(detected - predicted)) <= 1e-9 * period


@settings(max_examples=150)
@given(
    nb=st.integers(3, 400),
    beta=st.floats(0.05, 20.0),
    channel=st.sampled_from([Channel.I, Channel.II]),
    probe=st.builds(OatParameters, st.integers(2, 10), st.floats(allow_nan=False, allow_infinity=False)),
    periods=st.integers(1, 2),
)
def test_detection_finds_each_predicted_collapse_once(nb, beta, channel, probe, periods):
    """On its default grid, detection gives each predicted collapse time once, within a grid
    step, wherever A = 0 collapses the coherence, and nothing where it does not."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        series = default_grid_series(nb, beta, channel, probe, periods)
        detected = detect_coherence_zeros(series)
        floor = x_state_observables(oat_reduced_state(probe), channel, 0.0, probe.n_probes).coherence
    t = series.times
    assert np.all(np.isfinite(detected)) and np.all(np.diff(detected) > 0.0)
    assert np.all((detected >= 0.0) & (detected <= t[-1]))
    if not floor < experiments._COLLAPSE_THRESHOLD * series.coherence.max():
        assert detected.size == 0
        return
    period = coherence_period(ETA, channel)
    predicted = zero_times(lee_yang_zeros(series.ring), ETA, channel)
    predicted = np.concatenate([predicted + k * period for k in range(periods)])
    assert detected.size == predicted.size
    assert np.max(np.abs(detected - predicted)) <= t[1] - t[0]


def default_grid_series(nb, beta, channel, probe, periods=2):
    """A ring's series over whole periods on the default grid."""
    ring = IsingRing(n_spins=nb, inverse_temperature=beta)
    t_max = periods * coherence_period(ETA, channel)
    steps = default_steps(lee_yang_zeros(ring), ETA, t_max, channel)
    return run_scenario(Scenario(ring, probe, channel, t_max, steps, ETA))


def stop_tolerance(t):
    """The step or bracket width at which the root solver closes a bracket around t."""
    return 1e-15 + 8.9e-16 * np.abs(t)


def bisection_steps(lo, hi, xtol=1e-15):
    """Halvings that take [lo, hi] to the solver's stop width."""
    steps = 0
    while hi - lo > xtol + 8.9e-16 * max(abs(lo), abs(hi)):
        lo, steps = 0.5 * (lo + hi), steps + 1
    return steps


def no_step(x):
    """The Newton step of a point without one (off the arc, for A): nan, so the solver bisects."""
    return np.full(np.shape(x), np.nan)


class TestRegulaFalsi:
    """The sign-change root solver of detection, bracketed Newton (``_newton_roots``)."""

    # a probe of two: channel II collapses only for a pair ensemble
    PAIR = OatParameters(2, 1.0)

    @staticmethod
    def recording(monkeypatch):
        """Patch the solver to record each call's (f, lo, hi, f_lo, roots)."""
        calls, solver = [], experiments._newton_roots

        def recorded(f, lo, hi, f_lo, f_hi, xtol):
            roots, near = solver(f, lo, hi, f_lo, f_hi, xtol)
            calls.append((f, lo, hi, f_lo, roots))
            return roots, near

        monkeypatch.setattr(experiments, "_newton_roots", recorded)
        return calls

    @pytest.mark.parametrize(
        "nb,beta,periods",
        [(6, 0.5, 2), (300, 10.0, 2), (100, 0.5, 2), (400, 0.5, 2), (1200, 0.5, 1)],
    )
    @pytest.mark.parametrize("channel", [Channel.I, Channel.II])
    def test_roots_match_brentq(self, nb, beta, periods, channel, monkeypatch):
        # every sign-change bracket detection refines, searched again one at a
        # time by scipy's brentq on the same analytic factor
        if nb == 1200:
            # the coherence underflows between collapses; the default grid is past its limit
            ring = IsingRing(n_spins=nb, inverse_temperature=beta)
            period = coherence_period(ETA, channel)
            series = run_scenario(Scenario(ring, self.PAIR, channel, period, 200_001, ETA))
        else:
            series = default_grid_series(nb, beta, channel, self.PAIR, periods)
        calls = self.recording(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            detected = detect_coherence_zeros(series)
        assert detected.size == periods * nb
        ((f, lo, hi, _, roots),) = calls
        assert roots.size == detected.size
        expected = brentq_roots(lambda x: f(x)[0], lo, hi)
        assert np.all(np.abs(roots - expected) <= stop_tolerance(expected))

    def test_detection_makes_a_handful_of_factor_calls(self):
        # the Newton steps start at the secant point of the sampled ends, so a
        # strong and a weak ring's brackets close in a few evaluations.  Counted:
        # the solver's evaluations of A and its step; the coherence at the roots
        # reads A from the solver, and with no same-sign minimum A is not
        # evaluated again
        for nb, beta, periods, steps, zeros in [(300, 10.0, 2, 24_001, 600), (97, 0.54, 1, None, 97)]:
            series = default_grid_series(nb, beta, Channel.I, OatParameters(3, 1.0), periods)
            assert steps is None or series.times.size == steps
            with (
                mock.patch.object(experiments, "factor_values", wraps=experiments.factor_values) as factor,
                mock.patch.object(
                    experiments, "_factor_and_newton_steps", wraps=experiments._factor_and_newton_steps
                ) as newton,
            ):
                detected = detect_coherence_zeros(series)
            assert detected.size == zeros
            assert factor.call_count == 0
            assert factor.call_count + newton.call_count <= 5

    def test_probe_state_is_built_once(self):
        series = run_scenario(make_scenario(nb=6, steps=2401))
        with mock.patch.object(
            experiments, "oat_reduced_state", wraps=experiments.oat_reduced_state
        ) as build:
            assert detect_coherence_zeros(series).size == 6
        assert build.call_count == 1

    @staticmethod
    def solve(f, lo, hi, step=no_step):
        """The solver's roots on brackets [lo, hi] and its calls, each (points, values, steps).

        f gives the values and ``step`` the Newton steps -f/f' at an array of points.
        """
        lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
        calls = []

        def counted(x):
            calls.append((x, f(x), step(x)))
            assert len(calls) <= 200, "the solver does not converge"
            return calls[-1][1:]

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            roots, near = experiments._newton_roots(counted, lo, hi, f(lo), f(hi), 1e-15)
        # f near each root is f at a point the solver evaluated: 0, or within
        # the widest stop tolerance of the root's bracket
        evaluated = {}
        for x, value, _ in calls:
            evaluated.update(zip(x.tolist(), value.tolist()))
        for root, value, tol in zip(roots, near, stop_tolerance(np.maximum(np.abs(lo), np.abs(hi)))):
            assert any(
                (f_x == 0.0 or abs(x - root) <= tol) and f_x == value for x, f_x in evaluated.items()
            )
        return roots, calls

    @staticmethod
    def bisections(lo, hi, f_lo, calls):
        """Replays one bracket's evaluations: each lies in the bracket; the count at its midpoint."""
        count = 0
        for x, value, _ in calls:
            assert lo <= x[0] <= hi
            count += x[0] == 0.5 * (lo + hi)
            lo, hi, f_lo = (x[0], hi, value[0]) if (value[0] > 0.0) == (f_lo > 0.0) else (lo, x[0], f_lo)
        return count

    def test_subnormal_values(self):
        # every value is subnormal, and f is exactly 0 within 2.5e-14 of r; the
        # Newton step does not underflow with it
        r = 0.123456789

        def f(x):
            return (x - r) * 1e-310

        roots, calls = self.solve(f, [0.0, -0.5, 0.1], [1.0, 2.0, 0.2], step=lambda x: r - x)
        assert np.abs(f(np.array([0.0, 1.0]))).max() < 2.3e-308
        assert np.all(np.abs(roots - r) < 2.5e-14)
        tol = stop_tolerance(roots)
        assert np.all((f(roots - tol) <= 0.0) & (f(roots + tol) >= 0.0))
        assert len(calls) <= 10

    def test_exact_zero_at_the_first_secant_point_closes_the_bracket(self):
        # both secant points land on 0.25 exactly, where f and its step are exactly 0
        roots, calls = self.solve(lambda x: x - 0.25, [0.0, -0.75], [1.0, 1.25], step=lambda x: 0.25 - x)
        assert len(calls) == 1
        assert np.array_equal(roots, [0.25, 0.25])

    @pytest.mark.parametrize("r", [0.3, 0.7071, 1.0 / 3.0])
    def test_triple_root_within_twice_bisection(self, r):
        # a zero of A of odd order above one lies off the arc (cos^N w at beta *
        # lambda = 0), where A has no Newton step: the solver bisects there
        lo, hi = [0.0, -0.5, 0.2], [1.0, 2.0, 0.8]
        roots, calls = self.solve(lambda x: (x - r) ** 3, lo, hi)
        assert np.all(np.abs(roots - r) <= 0.5 * stop_tolerance(r))
        assert len(calls) <= 2 * max(bisection_steps(a, b) for a, b in zip(lo, hi))

    @pytest.mark.parametrize(
        "f",
        [
            # f_lo / (f_lo - f_hi) overflows: the right end is the smallest subnormal
            lambda x: np.where(x >= 1.0, 5e-324, np.where(x > 0.3, 1e308, -1e308)),
            # f_lo - f_hi overflows
            lambda x: np.where(x > 0.3, 1e308, -1e308),
            # the secant point is not finite (inf / inf): bisection steps
            lambda x: np.where(x > 0.3, np.inf, -np.inf),
        ],
        ids=["ratio-overflow", "difference-overflow", "infinite-values"],
    )
    def test_extreme_values_raise_no_warning(self, f):
        # a jump at 0.3 is a sign change the solver must still close on
        roots, calls = self.solve(f, [0.0], [1.0])
        assert abs(roots[0] - 0.3) <= stop_tolerance(0.3)
        assert len(calls) <= 2 * bisection_steps(0.0, 1.0)

    def test_newton_cycle_is_broken_by_bisection(self):
        # Newton on sign(x) sqrt|x| maps x to -x: each point lies in the bracket
        # its partner leaves; a step not half the one two steps before bisects
        roots, calls = self.solve(
            lambda x: np.copysign(np.sqrt(np.abs(x)), x), [-1.0, -0.3], [0.6, 2.0], step=lambda x: -2.0 * x
        )
        assert np.all(np.abs(roots) <= stop_tolerance(0.0))
        assert len(calls) <= 2 * bisection_steps(-0.3, 2.0)

    def test_newton_point_outside_the_bracket_is_bisected(self):
        # x^3 - 2x + 2 on [-2, 1.2]: from the secant point -0.077, Newton jumps
        # to 1.01, past the bracket [-2, -0.077] the first value leaves
        def f(x):
            return x**3 - 2.0 * x + 2.0

        roots, calls = self.solve(f, [-2.0], [1.2], step=lambda x: -f(x) / (3.0 * x * x - 2.0))
        assert abs(roots[0] - brentq_roots(f, [-2.0], [1.2])[0]) <= stop_tolerance(1.77)
        assert self.bisections(-2.0, 1.2, f(-2.0), calls) >= 1
        assert len(calls) <= 2 * bisection_steps(-2.0, 1.2)

    def test_no_brackets_no_calls(self):
        roots, calls = self.solve(np.sin, [], [])
        assert roots.shape == (0,) and not calls

    def test_bracket_across_the_arc_edge_bisects(self, monkeypatch):
        # at 1000/0.5 on 200,001 steps the first collapse, 3.1e-6 rad of w
        # inside the arc, shares its grid cell with the arc edge sin^2 w = q:
        # the first Newton point falls off the arc, where A has no step
        ring = IsingRing(n_spins=1000, inverse_temperature=0.5)
        period = coherence_period(ETA, Channel.I)
        series = run_scenario(Scenario(ring, OatParameters(3, 1.0), Channel.I, period, 200_001, ETA))
        calls = self.recording(monkeypatch)
        detected = detect_coherence_zeros(series)
        ((f, lo, hi, f_lo, roots),) = calls
        edge = math.asin(math.sqrt(ring._transfer[1])) / (Channel.I.rate * ETA)
        first = np.flatnonzero((lo < edge) & (edge < hi))
        assert first.tolist() == [0] and roots[0] == detected[0]
        # the bracket again, alone, with every evaluation recorded and replayed
        root, evaluations = self.solve(
            lambda x: f(x)[0], lo[first], hi[first], step=lambda x: f(x)[1]
        )
        assert root[0] == roots[0]
        assert abs(root[0] - brentq_roots(lambda x: f(x)[0], lo[first], hi[first])[0]) <= (
            stop_tolerance(root[0])
        )
        assert self.bisections(lo[0], hi[0], f_lo[0], evaluations) >= 1
        assert np.isnan([step[0] for _, _, step in evaluations]).any()


class TestVanishingDomains:
    def test_no_domains_before_first_zero(self):
        series = run_scenario(make_scenario(nb=10, t_max=5.0, steps=101))
        assert vanishing_domains(series) == []

    def test_interior_domains_cover_zero_times(self):
        # strong coupling: the factor recovers to ~1 between zeros, so each
        # zero time carries its own separate vanishing domain
        scenario = make_scenario(nb=6, beta=10.0, steps=2401)
        series = run_scenario(scenario)
        domains = vanishing_domains(series)
        tz = zero_times(lee_yang_zeros(scenario.ring), ETA)
        interior = [d for d in domains if not d.clipped]
        assert len(interior) == tz.size
        for domain, t0 in zip(interior, tz):
            assert domain.start <= t0 <= domain.end

    def test_boundary_domain_flagged_clipped(self):
        scenario = make_scenario(nb=6, steps=1201)
        series = run_scenario(scenario)
        tz = zero_times(lee_yang_zeros(scenario.ring), ETA)
        clipped_run = run_scenario(make_scenario(nb=6, t_max=float(tz[0]), steps=601))
        domains = vanishing_domains(clipped_run)
        assert len(domains) == 1
        assert domains[0].clipped
        assert domains[0].end == clipped_run.times[-1]
        # the full-period run recovers before t_max, so nothing is clipped
        assert all(not d.clipped for d in vanishing_domains(series))


class TestRecoveryPeaks:
    def test_zero_when_no_collapse(self):
        # the shared bath leaves the coherence floor 2|y| > 0: it never collapses
        period = coherence_period(ETA, Channel.II)
        series = run_scenario(
            make_scenario(nb=6, channel=Channel.II, t_max=2.0 * period, steps=1601)
        )
        assert series.coherence.min() > 0.1 * series.coherence.max()
        assert count_recovery_peaks(series) == 0

    def test_zero_before_first_collapse(self):
        tz = zero_times(lee_yang_zeros(IsingRing(6, inverse_temperature=0.5)), ETA)
        series = run_scenario(make_scenario(nb=6, t_max=0.5 * float(tz[0]), steps=101))
        assert count_recovery_peaks(series) == 0

    def test_peak_count_per_period(self):
        period = coherence_period(ETA, Channel.I)
        series = run_scenario(make_scenario(nb=6, t_max=2.0 * period, steps=3201))
        assert count_recovery_peaks(series) == 6

    def test_peak_straddled_by_grid_counted_once(self):
        # 3200 steps put t = period midway between two samples of equal
        # coherence: the recovery peak there is a two-sample flat top
        period = coherence_period(ETA, Channel.I)
        series = run_scenario(make_scenario(nb=6, t_max=2.0 * period, steps=3200))
        assert count_recovery_peaks(series) == 6

    def test_rejects_short_window(self):
        series = run_scenario(make_scenario(nb=6, steps=1601))
        with pytest.raises(ValueError, match="less than one period"):
            count_recovery_peaks(series)


class TestTimingHelpers:
    def test_channel_II_times_are_halved(self):
        zs = lee_yang_zeros(IsingRing(6, inverse_temperature=0.5))
        np.testing.assert_allclose(
            zero_times(zs, ETA, Channel.II),
            0.5 * zero_times(zs, ETA, Channel.I),
            rtol=1e-15,
        )

    def test_rates_keep_the_parent_bits(self):
        zs = lee_yang_zeros(IsingRing(6, inverse_temperature=0.5))
        assert (Channel.I.rate, Channel.II.rate) == (2.0, 4.0)
        for eta in (ETA, 0.003, 1.7):
            assert coherence_period(eta, Channel.I) == np.pi / (2.0 * eta)
            assert coherence_period(eta, Channel.II) == np.pi / (4.0 * eta)
            # the bits of phases / (4 eta) for channel I, and of that halved for II
            assert np.array_equal(zero_times(zs, eta, Channel.I), zs.phases / (4.0 * eta))
            assert np.array_equal(zero_times(zs, eta, Channel.II), 0.5 * (zs.phases / (4.0 * eta)))
            assert np.array_equal(zero_times(zs, eta), zero_times(zs, eta, Channel.I))

    def test_coherence_period_values(self):
        assert coherence_period(ETA, Channel.I) == pytest.approx(np.pi / (2.0 * ETA))
        assert coherence_period(ETA, Channel.II) == pytest.approx(np.pi / (4.0 * ETA))
        with pytest.raises(ValueError, match="eta"):
            coherence_period(0.0, Channel.I)

    def test_eta_whose_rate_overflows_is_refused_by_name(self):
        # past max / 4, 4 eta overflows and every period and collapse time
        # would be 0.0: each entry refuses eta by name, without a warning
        zs = lee_yang_zeros(IsingRing(6, inverse_temperature=0.5))
        largest = 0.25 * sys.float_info.max
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for eta in (1e308, math.nextafter(largest, math.inf)):
                for call in (
                    lambda: coherence_period(eta, Channel.I),
                    lambda: zero_times(zs, eta, Channel.II),
                    lambda: default_steps(zs, eta, 1e-310, Channel.I),
                ):
                    with pytest.raises(ValueError, match=r"^eta must .* eta <= ~4\.49e\+307\)"):
                        call()
            for channel in (Channel.I, Channel.II):
                assert 0.0 < coherence_period(largest, channel) < math.inf
                assert np.all(zero_times(zs, largest, channel) > 0.0)

    def test_default_steps_resolves_zero_gaps(self):
        # 40 samples per mean gap between collapse times, and 4 in the narrowest
        zs = lee_yang_zeros(IsingRing(6, inverse_temperature=0.5))
        period = coherence_period(ETA, Channel.I)
        t_max = period
        steps = default_steps(zs, ETA, t_max, Channel.I)
        tz = zero_times(zs, ETA, Channel.I)
        wrap = tz[0] + period - tz[-1]
        min_gap = min(np.diff(tz).min(), wrap)
        assert steps == 241
        assert t_max / (steps - 1) <= period / tz.size / 40.0 * (1.0 + 1e-12)
        assert t_max / (steps - 1) <= min_gap / 4.0 * (1.0 + 1e-12)

    def test_default_steps_with_one_phase_spans_a_period(self):
        # one collapse per period: the gap to the next is the period itself
        zs = LeeYangZeroSet(np.array([np.pi]))
        assert default_steps(zs, ETA, 157.08, Channel.I) == 42

    @pytest.mark.parametrize("beta", [0.0, 1e-40])
    def test_default_steps_rejects_coincident_collapses(self, beta):
        # every phase is pi at beta = 0 and rounds to pi at beta = 1e-40, so
        # the smallest gap between collapse times is exactly 0
        zs = lee_yang_zeros(IsingRing(6, inverse_temperature=beta))
        with pytest.raises(ValueError, match=r"collapse times coincide at t = 78\.5398"):
            default_steps(zs, ETA, 10.0, Channel.I)

    @pytest.mark.parametrize(
        "nb,beta,steps",
        [(4000, 0.05, "4.33e+07"), (1200, 0.005, "1.29e+07"), (6, 1e-12, "2.43e+07")],
    )
    def test_default_steps_rejects_grids_past_the_ceiling(self, nb, beta, steps):
        # weakly coupled large rings, whose narrowest gap at the Lee-Yang edge
        # shrinks as N_b^-2, and a ring near beta = 0 whose phases spread
        # around pi only as ~2 sqrt(beta): the gap is nonzero but tiny
        zs = lee_yang_zeros(IsingRing(nb, inverse_temperature=beta))
        t_max = coherence_period(ETA, Channel.I)
        with pytest.raises(ValueError) as info:
            default_steps(zs, ETA, t_max, Channel.I)
        message = str(info.value)
        assert f"needs {steps} steps" in message
        assert "40 samples per mean collapse gap and 4 in the narrowest collapse gap" in message
        assert "10,000,000" in message and "--steps" in message

    @pytest.mark.parametrize("t_max", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_default_steps_rejects_bad_t_max(self, t_max):
        zs = lee_yang_zeros(IsingRing(6, inverse_temperature=0.5))
        with pytest.raises(ValueError, match="t_max must be positive and finite"):
            default_steps(zs, ETA, t_max, Channel.I)

    def test_default_steps_ceiling_is_inclusive(self, monkeypatch):
        zs = lee_yang_zeros(IsingRing(6, inverse_temperature=0.5))
        t_max = coherence_period(ETA, Channel.I)
        steps = default_steps(zs, ETA, t_max, Channel.I)
        monkeypatch.setattr(experiments, "_MAX_DEFAULT_STEPS", steps)
        assert default_steps(zs, ETA, t_max, Channel.I) == steps
        monkeypatch.setattr(experiments, "_MAX_DEFAULT_STEPS", steps - 1)
        with pytest.raises(ValueError, match="past the limit"):
            default_steps(zs, ETA, t_max, Channel.I)

    @settings(max_examples=200)
    @given(
        nb=st.integers(3, 400),
        beta=st.floats(0.01, 50.0),
        channel=st.sampled_from([Channel.I, Channel.II]),
        periods=st.floats(0.05, 3.0),
    )
    def test_default_steps_samples_every_gap(self, nb, beta, channel, periods):
        # at least 40 samples per mean gap between collapse times and 4 in the
        # narrowest, and no more than the ceiling of that
        zs = lee_yang_zeros(IsingRing(nb, inverse_temperature=beta))
        period = coherence_period(ETA, channel)
        t_max = periods * period
        steps = default_steps(zs, ETA, t_max, channel)
        tz = zero_times(zs, ETA, channel)
        narrowest = min(np.diff(tz).min(), tz[0] + period - tz[-1])
        needed = max(t_max * 40.0 * nb / period, t_max * 4.0 / narrowest)
        assert steps - 1 >= needed * (1.0 - 1e-12)
        assert steps - 2 < needed * (1.0 + 1e-12)

    def test_default_grid_keeps_the_narrowest_gap_rule_detection(self):
        # the default grid against one of 40 samples per narrowest gap, over
        # one period after the first collapse: the same zeros, to rounding,
        # and the same recovery peaks, wherever that grid takes <= 500,000 rows
        compared = 0
        probes = [OatParameters(2, 1.0), OatParameters(3, 1.0), OatParameters(6, 0.5)]
        for nb in (7, 20, 50, 100, 200):
            for beta in (0.05, 0.25, 0.5, 1.0, 2.0, 12.0):
                ring = IsingRing(nb, inverse_temperature=beta)
                zs = lee_yang_zeros(ring)
                for channel in (Channel.I, Channel.II):
                    period = coherence_period(ETA, channel)
                    tz = zero_times(zs, ETA, channel)
                    t_max = tz[0] + period
                    narrowest = min(np.diff(tz).min(), tz[0] + period - tz[-1])
                    narrowest_rule = math.ceil(40.0 * t_max / narrowest) + 1
                    if narrowest_rule > 500_000:
                        continue
                    steps = default_steps(zs, ETA, t_max, channel)
                    assert steps <= narrowest_rule
                    for probe in probes:
                        new, old = (
                            run_scenario(Scenario(ring, probe, channel, t_max, n, ETA))
                            for n in (steps, narrowest_rule)
                        )
                        found, expected = detect_coherence_zeros(new), detect_coherence_zeros(old)
                        assert found.size == expected.size, (nb, beta, channel, probe)
                        np.testing.assert_allclose(found, expected, rtol=1e-12, atol=0.0)
                        assert count_recovery_peaks(new) == count_recovery_peaks(old)
                        compared += 1
        assert compared == 174

    def test_default_grid_of_a_large_weak_ring(self):
        # the mean gap, not the N_b^-2 gap at the edge, sizes the grid: 1000
        # spins at beta = 0.5 take about 504k rows a period, not 5,037,452
        zs = lee_yang_zeros(IsingRing(1000, inverse_temperature=0.5))
        assert default_steps(zs, ETA, 157.08, Channel.I) <= 5_037_452 / 9


class TestConcurrenceScaling:
    @pytest.fixture
    def strong_ring(self):
        return IsingRing(n_spins=10, inverse_temperature=10.0)

    def test_pair_maximum_is_initial_double_flip(self, strong_ring):
        # N = 2 has y = 0, so C_max = 2|u| = sin(theta/2), reached at t = 0
        value = max_original_concurrence(
            strong_ring, OatParameters(2, np.pi / 3), ETA, coherence_period(ETA, Channel.I), 501
        )
        assert value == pytest.approx(np.sin(np.pi / 6.0), abs=1e-12)

    def test_fit_matches_direct_formula(self, strong_ring):
        result = fit_cmax_scaling(range(3, 9), np.pi / 2, strong_ring, eta=ETA)
        n = np.arange(3, 9)
        exact = 2.0 * (np.sqrt(2.0**-6 + 2.0 ** -(n + 1.0)) - 0.125)
        alpha_ref, intercept_ref = np.polyfit(n - 2.0, np.log(exact), 1)
        assert result.alpha == pytest.approx(alpha_ref, abs=1e-9)
        assert result.intercept == pytest.approx(intercept_ref, abs=1e-9)
        np.testing.assert_allclose(result.log_cmax, np.log(exact), rtol=0.0, atol=1e-12)

    def test_fit_shares_max_original_concurrence_bits(self, strong_ring):
        # the maximum over a grid from t = 0 is the fit's A = 1 value, bit for bit
        period = coherence_period(ETA, Channel.I)
        n_values = [3, 5, 8, 20]
        result = fit_cmax_scaling(n_values, 1.2, strong_ring, eta=ETA)
        per_n = [
            max_original_concurrence(strong_ring, OatParameters(n, 1.2), ETA, period, 2001)
            for n in n_values
        ]
        assert np.array_equal(result.log_cmax, np.log(per_n))

    @pytest.mark.parametrize("eta", [0.01, 0.003])
    @pytest.mark.parametrize("beta_lambda", [0.05, 0.5, 10.0, 40.0])
    def test_cmax_is_the_initial_state_value(self, beta_lambda, eta):
        # concurrence grows with |A| and A(0) = 1: the maximum over time is
        # the initial state's at any coupling
        ring = IsingRing(n_spins=10, inverse_temperature=beta_lambda)
        n_values = [3, 5, 8, 20]
        result = fit_cmax_scaling(n_values, 1.2, ring, eta=eta)
        at_one = []
        for n in n_values:
            state = oat_reduced_state(OatParameters(n, 1.2))
            at_one.append((n - 1) * x_state_observables(state, Channel.I, 1.0, n).concurrence / (n - 1))
        assert np.array_equal(result.log_cmax, np.log(at_one))
        # the ring is never read: the call without it gives the same bits
        no_ring = fit_cmax_scaling(n_values, 1.2)
        for field in ("log_cmax", "alpha", "intercept", "residual"):
            assert np.array_equal(
                np.asarray(getattr(no_ring, field)).view(np.uint64),
                np.asarray(getattr(result, field)).view(np.uint64),
            ), field
        # the grid maximum over one period sits at most rounding above it
        period = coherence_period(eta, Channel.I)
        grid = [max_original_concurrence(ring, OatParameters(n, 1.2), eta, period, 2001) for n in n_values]
        np.testing.assert_allclose(result.log_cmax, np.log(grid), rtol=0.0, atol=1e-13)

    def test_fit_builds_no_grid(self, strong_ring):
        with (
            mock.patch.object(experiments, "factor_values", wraps=experiments.factor_values) as factor,
            mock.patch.object(experiments, "default_steps", wraps=experiments.default_steps) as steps,
        ):
            fit_cmax_scaling(range(3, 9), np.pi / 2, strong_ring, eta=ETA)
        assert factor.call_count == 0
        assert steps.call_count == 0

    def test_fit_becomes_exponential_at_large_ensembles(self, strong_ring):
        # the pure-exponential law holds asymptotically; at N >= 20 the fit
        # residual drops below 1e-3 and the rate approaches ln(3/4)
        result = fit_cmax_scaling(range(20, 29), np.pi / 3, strong_ring, eta=ETA)
        assert result.residual < 1e-3
        rate = np.log(0.75)
        assert abs(result.alpha - rate) < 0.01 * abs(rate)

    def test_rejects_too_few_sizes(self, strong_ring):
        with pytest.raises(ValueError, match="at least 3"):
            fit_cmax_scaling([3, 4], np.pi / 2, strong_ring)

    def test_rejects_pairs_below_two(self, strong_ring):
        with pytest.raises(ValueError, match="n_probes must be at least 2, got 1"):
            fit_cmax_scaling([1, 3, 4], np.pi / 2, strong_ring)

    @pytest.mark.parametrize(
        "sizes,shown",
        [([3.7, 4.2, 5.9], "3.7"), ([3, 4.5, 5], "4.5"), (np.array([3.0, 4.0, 5.0]), "np.float64(3.0)")],
    )
    def test_rejects_non_integer_sizes(self, strong_ring, sizes, shown):
        # not truncated to 3, 4, 5: a size must have an integer type, as N does everywhere
        with pytest.raises(ValueError) as raised:
            fit_cmax_scaling(sizes, np.pi / 2, strong_ring)
        assert str(raised.value) == f"n_probes must be an integer, got {shown}"

    @pytest.mark.parametrize("sizes", [[3, 3, 3], [3, 4, 4, 3], [5, 5, 6]])
    def test_rejects_fewer_than_three_distinct_sizes(self, strong_ring, sizes):
        # a line through fewer than 3 distinct points is no fit; np.polyfit
        # would warn (RankWarning) on a single point
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="at least 3 distinct ensemble sizes"):
                fit_cmax_scaling(sizes, np.pi / 2, strong_ring)

    def test_rejects_unentangled_regime(self, strong_ring):
        with pytest.raises(ValueError, match="vanished"):
            fit_cmax_scaling([3, 4, 5], 0.0, strong_ring)


class TestCsvOutput:
    def test_two_point_series_gives_three_lines(self, tmp_path):
        series = run_scenario(make_scenario(t_max=1.0, steps=2))
        path = tmp_path / "two.csv"
        emit_csv(series, path)
        text = path.read_text()
        assert text.endswith("\n")
        lines = text.splitlines()
        assert len(lines) == 3
        assert lines[0] == "t,a_factor,coherence,concurrence_rescaled,xi2,xi2_prime"

    def test_empty_series_gives_header_only(self, tmp_path):
        empty = ObservableSeries(
            times=np.array([]),
            a_factor=np.array([]),
            coherence=np.array([]),
            concurrence_rescaled=np.array([]),
            xi2=np.array([]),
            xi2_prime=np.array([]),
            **PROVENANCE,
        )
        path = tmp_path / "empty.csv"
        emit_csv(empty, path)
        assert path.read_text() == "t,a_factor,coherence,concurrence_rescaled,xi2,xi2_prime\n"

    def test_round_trip(self, tmp_path):
        series = run_scenario(make_scenario(t_max=20.0, steps=41))
        path = tmp_path / "series.csv"
        emit_csv(series, path)
        parsed = np.genfromtxt(path, delimiter=",", names=True)
        for column, name in (
            ("t", "times"),
            ("a_factor", "a_factor"),
            ("coherence", "coherence"),
            ("concurrence_rescaled", "concurrence_rescaled"),
            ("xi2", "xi2"),
            ("xi2_prime", "xi2_prime"),
        ):
            np.testing.assert_allclose(
                parsed[column], getattr(series, name), rtol=1e-11, atol=1e-14
            )

    def test_deterministic_bytes(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        emit_csv(run_scenario(make_scenario(t_max=10.0, steps=21)), first)
        emit_csv(run_scenario(make_scenario(t_max=10.0, steps=21)), second)
        assert first.read_bytes() == second.read_bytes()

    def test_io_error_names_path(self, tmp_path):
        series = run_scenario(make_scenario(t_max=1.0, steps=2))
        target = tmp_path / "missing" / "out.csv"
        with pytest.raises(OSError, match="out.csv"):
            emit_csv(series, target)

    @pytest.mark.parametrize("extra", [4096, 0, -1000], ids=["longer", "equal-length", "shorter"])
    def test_rewrite_over_an_existing_file_gives_the_fresh_bytes(self, tmp_path, extra):
        series = run_scenario(make_scenario(steps=801))
        fresh = tmp_path / "fresh.csv"
        emit_csv(series, fresh)
        expected = fresh.read_bytes()
        target = tmp_path / "old.csv"
        target.write_bytes(b"9" * (len(expected) + extra))
        emit_csv(series, target)
        assert target.read_bytes() == expected
        # and over its own bytes again
        emit_csv(series, target)
        assert target.read_bytes() == expected

    def test_failed_write_ends_the_file_at_the_last_block_written(self, tmp_path):
        columns = [np.arange(10.0), np.arange(10.0) ** 2]
        target = tmp_path / "partial.csv"
        target.write_bytes(b"x" * 10_000)
        calls, format_rows = [], experiments._format_rows

        def first_block_only(block):
            calls.append(block)
            if len(calls) > 1:
                raise RuntimeError("formatter failed")
            return format_rows(block)

        with mock.patch.object(experiments, "_CSV_BLOCK_ROWS", 3):
            with mock.patch.object(experiments, "_format_rows", side_effect=first_block_only):
                with pytest.raises(RuntimeError, match="formatter failed"):
                    experiments._write_csv(target, "h", [columns])
        assert target.read_bytes() == b"h\n0,0\n1,1\n2,4\n"


def _series(nb, beta, channel, steps, probes=4, theta=1.2):
    ring = IsingRing(n_spins=nb, inverse_temperature=beta)
    period = coherence_period(ETA, channel)
    return run_scenario(
        Scenario(ring, OatParameters(probes, theta), channel, period, steps, ETA)
    )


def _columns(series):
    return [
        series.times,
        series.a_factor,
        series.coherence,
        series.concurrence_rescaled,
        series.xi2,
        series.xi2_prime,
    ]


def _assert_matches_savetxt(series, tmp_path):
    emit_csv(series, tmp_path / "block.csv")
    savetxt_csv(tmp_path / "savetxt.csv", CSV_HEADER, np.column_stack(_columns(series)))
    assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "savetxt.csv").read_bytes()


class TestCsvMatchesSavetxt:
    @pytest.fixture(scope="class")
    def strong(self):
        return _series(20, 7.0, Channel.I, 2 * BLOCK + 3)

    @pytest.fixture(scope="class")
    def channel_II(self):
        return _series(20, 7.0, Channel.II, 3001)

    @pytest.fixture(scope="class")
    def weak(self):
        return _series(1200, 0.5, Channel.I, 3001, probes=3, theta=np.pi / 2)

    def test_strong_channel_I(self, strong, tmp_path):
        assert np.any(strong.a_factor < 0.0)
        c = strong.concurrence_rescaled
        assert np.any((c[1:] == 0.0) & (c[:-1] == 0.0))
        _assert_matches_savetxt(strong, tmp_path)

    def test_channel_II(self, channel_II, tmp_path):
        _assert_matches_savetxt(channel_II, tmp_path)

    def test_weak_coupling_tiny_factor(self, weak, tmp_path):
        assert np.min(np.abs(weak.a_factor)) < 1e-200
        _assert_matches_savetxt(weak, tmp_path)
        assert "e-20" in (tmp_path / "block.csv").read_text()

    @pytest.mark.parametrize("rows", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
    def test_block_edges(self, strong, rows, tmp_path):
        head = ObservableSeries(*(column[:rows] for column in _columns(strong)), **PROVENANCE)
        _assert_matches_savetxt(head, tmp_path)

    @pytest.mark.parametrize("name", ["strong", "channel_II", "weak"])
    def test_domains_match_loop(self, name, request):
        series = request.getfixturevalue(name)
        domains = vanishing_domains(series)
        reference = vanishing_domains_loop(series)
        assert domains and domains == reference
        for got, want in zip(domains, reference):
            assert [float.hex(v) for v in (got.start, got.center, got.end)] == [
                float.hex(v) for v in (want.start, want.center, want.end)
            ]
            assert type(got.clipped) is bool


# after rounding to 12 digits, %.12g writes exponent form below 1e-4 and from
# 1e12 up; the 9.99...95 values round up to the next power of ten
_EDGE_VALUES = [
    0.0,
    -0.0,
    5e-324,
    2.2250738585072014e-308,
    2.225073858507201e-308,
    1.7976931348623157e308,
    1e-5,
    np.nextafter(1e-5, 0.0),
    np.nextafter(1e-5, 1.0),
    9.99999999999995e-6,
    1e-4,
    np.nextafter(1e-4, 0.0),
    np.nextafter(1e-4, 1.0),
    9.99999999999995e-5,
    9.9999999999949e-5,
    1e12,
    np.nextafter(1e12, 0.0),
    np.nextafter(1e12, np.inf),
    999999999999.5,
    999999999999.4,
    9.9999999999995,
    9.9999999999949,
    0.99999999999995,
]
_csv_values = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(_EDGE_VALUES + [-v for v in _EDGE_VALUES]),
)


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("csv")


@settings(max_examples=150)
@given(
    data=hnp.arrays(
        np.float64,
        st.tuples(st.integers(0, 12), st.integers(1, 6)),
        elements=_csv_values,
    ),
    block=st.integers(1, 5),
)
def test_block_writer_matches_savetxt(csv_dir, data, block):
    with mock.patch.object(experiments, "_CSV_BLOCK_ROWS", block):
        experiments._write_csv(csv_dir / "block.csv", "h", [list(data.T)])
    savetxt_csv(csv_dir / "savetxt.csv", "h", data)
    assert (csv_dir / "block.csv").read_bytes() == (csv_dir / "savetxt.csv").read_bytes()


def _writer_matches_savetxt(csv_dir, values) -> bool:
    """Write values as 6-column rows both ways; report whether the exact route ran."""
    values = np.concatenate([values, np.zeros(-len(values) % 6)]).reshape(-1, 6)
    with mock.patch.object(experiments, "_exact_digits", wraps=experiments._exact_digits) as spy:
        experiments._write_csv(csv_dir / "kernel.csv", "h", [list(values.T)])
    savetxt_csv(csv_dir / "savetxt.csv", "h", values)
    assert (csv_dir / "kernel.csv").read_bytes() == (csv_dir / "savetxt.csv").read_bytes()
    return spy.called


def _with_negatives(values):
    values = np.asarray(values, dtype=float)
    return np.concatenate([values, -values])


def test_writer_matches_savetxt_on_random_bit_patterns(csv_dir):
    bits = np.random.default_rng(20261018).integers(0, 2**64, 1_001_000, dtype=np.uint64)
    values = bits.view(np.float64)
    values = values[np.isfinite(values)][:1_000_000]
    assert values.size == 1_000_000
    assert _writer_matches_savetxt(csv_dir, values)


def test_writer_matches_savetxt_next_to_powers_of_ten(csv_dir):
    powers = np.array([float(f"1e{k}") for k in range(-320, 309)])
    values = np.concatenate([np.nextafter(powers, 0.0), powers, np.nextafter(powers, np.inf)])
    _writer_matches_savetxt(csv_dir, _with_negatives(values))


def test_writer_matches_savetxt_below_the_held_scale(csv_dir):
    # below 1e-297 the tabulated 10**(11 - e) is held at 1e308, so a value
    # whose log10 falls a decade low must not be trusted to the product
    tops = np.array([1e-296, 1e-297, 1e-298, 1e-300, 1e-310])
    below = tops.view(np.uint64)[:, None] - np.arange(1, 2049, dtype=np.uint64)
    values = np.append(below.ravel().view(np.float64), 1e-297 * (1 - 9e-14))
    _writer_matches_savetxt(csv_dir, _with_negatives(values))


def test_writer_rounds_exact_ties_half_even(csv_dir):
    ties = [1000000000005.0, 1000000000015.0, 123456789012.5]
    assert _writer_matches_savetxt(csv_dir, _with_negatives(ties))
    text = (csv_dir / "kernel.csv").read_text()
    assert text.startswith("h\n1e+12,1.00000000002e+12,123456789012,-1e+12,")


def test_writer_matches_savetxt_on_subnormals_zeros_and_roll_overs(csv_dir):
    subnormals = [5e-324, 1e-320, 1.5e-310, 2.225073858507201e-308, 9.99999999999995e-321]
    _writer_matches_savetxt(csv_dir, _with_negatives(_EDGE_VALUES + subnormals))


def test_writer_vectorized_route_alone(csv_dir):
    # every format class (fixed above and below 1, two- and three-digit
    # exponents, stripped zeros, signed zero) without the exact route
    values = [
        0.0, 1.5, 3.14159265358979, 42.0, 100.0, 123456789012.0, 1234567.125,
        0.5, 0.0123, 0.000123, 7e-5, 6.02214076e23, 2.5e100, 1.6e-290,
    ]
    assert not _writer_matches_savetxt(csv_dir, _with_negatives(values))
    # and one full block of signed values without exponent forms
    # (-4 <= e <= 11), at 1 to 12 significant digits
    rng = np.random.default_rng(20261020)
    magnitudes = (10.0 ** rng.uniform(-4.0, 11.9, 6 * BLOCK)).tolist()
    digits = rng.integers(1, 13, len(magnitudes)).tolist()
    rounded = np.array([float(f"{v:.{k}g}") for v, k in zip(magnitudes, digits)])
    signed = np.where(rng.random(rounded.size) < 0.5, -rounded, rounded)
    assert not _writer_matches_savetxt(csv_dir, signed)
    text = (csv_dir / "kernel.csv").read_text()
    assert text.count("\n") == 1 + BLOCK and "-" in text and "e" not in text


# 12-digit ties at a decade with an exact power of ten (-11 <= e <= 11):
# binary halves, which round half to even, and decimal ties, which the stored
# double misses by a few units in the last place, either way
_TIES_WITH_EXACT_POWER = [
    100000000000.5, 123456789013.5, 999999999998.5, 12345678901.25, 1234567890.125,
    123456789.0625, 0.1234567890125, 100.0007366875, 1.000000000005, 2.718281828455e-7,
    0.0001234567890125, 1.000000000005e-11, 9.999999999985e11, 5.555555555555e-3,
]


def test_writer_matches_savetxt_on_ties_at_exact_powers(csv_dir):
    # the powers 10**(11 - e) the rule relies on are exact
    assert experiments._SCALE[313:336].tolist() == [float(10**k) for k in range(22, -1, -1)]
    # and 1,000 random 13-digit decimal ties d.ddddddddddd5 * 10**e at each such decade
    rng = np.random.default_rng(20261019)
    digits = rng.integers(10**11, 10**12, (23, 1000))
    ties = [float(f"{m}5e{e - 12}") for e, row in zip(range(-11, 12), digits.tolist()) for m in row]
    values = np.array(_TIES_WITH_EXACT_POWER + ties)
    values = np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, np.inf)])
    _writer_matches_savetxt(csv_dir, _with_negatives(values))


@pytest.mark.parametrize(
    "column,match",
    [(np.ones(2), r"^coherence length 2 != times length 3$"), (np.ones((3, 1)), r"^coherence must be 1-D")],
    ids=["unequal-lengths", "two-dimensional"],
)
def test_writer_checks_columns_before_opening_the_file(tmp_path, column, match):
    # the writer checks nothing: the series refuses the column when it is built, before any file
    target = tmp_path / "out.csv"
    with pytest.raises(ValueError, match=match):
        emit_csv(dataclasses.replace(_series(6, 0.5, Channel.I, 3), coherence=column), target)
    assert not target.exists()


def test_writer_rejects_non_finite_values(tmp_path):
    target = tmp_path / "out.csv"
    series = _series(6, 0.5, Channel.I, 2)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match=r"^xi2 must be finite$"):
            emit_csv(dataclasses.replace(series, xi2=np.array([1.0, bad])), target)
        assert not target.exists()
