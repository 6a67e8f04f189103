"""Coherence, concurrence (closed-form and generic), and squeezing reports."""

import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lyprobe import (
    Channel,
    ConcurrenceResult,
    OatParameters,
    SqueezingReport,
    coherence,
    concurrence_channel_I,
    concurrence_channel_II,
    concurrence_generic,
    evolve_channel_I,
    evolve_channel_II,
    oat_reduced_state,
    spin_squeezing,
)

from lyprobe.channels import x_state_observables
from lyprobe.verify import _wootters_stack

from .oracles import series_observables_reference, wootters_one_matrix, wootters_reference

# three-probe half-turn twist: y = 1/8, u = -1/8 - i/4, |u| = sqrt(5)/8
SQRT5 = np.sqrt(5.0)
L0 = (SQRT5 + 1.0) / 4.0
CR0 = (SQRT5 - 1.0) / 2.0
XI20 = (3.0 - SQRT5) / 2.0
IMPROVEMENT_MAX = 0.5 * (1.0 - 1.0 / SQRT5)


@pytest.fixture
def probe_state():
    return oat_reduced_state(OatParameters(n_probes=3, twist_angle=np.pi / 2))


def oat_inputs():
    return st.tuples(
        st.integers(min_value=2, max_value=8),
        st.floats(min_value=0.1, max_value=np.pi - 0.1),
        st.floats(min_value=-1.0, max_value=1.0),
    )


class TestResultValidation:
    def test_concurrence_needs_four_lambdas(self):
        with pytest.raises(ValueError, match="4 entries"):
            ConcurrenceResult(0.0, 0.0, np.array([1.0, 0.5, 0.25]))

    def test_concurrence_needs_sorted_lambdas(self):
        with pytest.raises(ValueError, match="descending"):
            ConcurrenceResult(0.0, 0.0, np.array([0.1, 0.5, 0.25, 0.1]))

    def test_concurrence_must_match_lambdas(self):
        with pytest.raises(ValueError, match="inconsistent"):
            ConcurrenceResult(0.9, 1.8, np.array([0.5, 0.25, 0.15, 0.1]))

    def test_rescaled_must_be_nonnegative(self):
        with pytest.raises(ValueError, match="rescaled"):
            ConcurrenceResult(0.0, -0.5, np.array([0.5, 0.25, 0.15, 0.1]))

    @pytest.mark.parametrize(
        "lams", [[0.5, 0.25, 0.1, -2e-12], [0.5, 0.25, np.nan, 0.1], [np.inf, 0.25, 0.15, 0.1]]
    )
    def test_concurrence_needs_finite_nonnegative_lambdas(self, lams):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            ConcurrenceResult(0.0, 0.0, np.array(lams))

    def test_concurrence_tolerates_rounding_in_lambdas(self):
        # a negative below 1e-12 and an inversion below 1e-12 are noise
        result = ConcurrenceResult(0.0, 0.0, np.array([0.5, 0.5 + 0.5e-12, 0.25, -0.5e-12]))
        assert not result.lambdas.flags.writeable

    @pytest.mark.parametrize("lams", [[0.5, 0.5 + 2e-12, 0.25, 0.0], [0.5, 0.25, 0.1, 0.1 + 2e-12]])
    def test_concurrence_rejects_inversion_past_1e12(self, lams):
        with pytest.raises(ValueError, match="descending"):
            ConcurrenceResult(0.0, 0.0, np.array(lams))

    @pytest.mark.parametrize("name", ["xi2", "xi2_prime", "improvement", "improvement_max"])
    def test_squeezing_fields_must_be_finite(self, name):
        fields = {"xi2": 0.5, "xi2_prime": 0.6, "improvement": 0.1, "improvement_max": 0.3}
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            SqueezingReport(**{**fields, name: np.inf})

    def test_squeezing_gap_consistency(self):
        with pytest.raises(ValueError, match="improvement"):
            SqueezingReport(xi2=0.5, xi2_prime=0.6, improvement=0.2, improvement_max=0.3)


class TestCoherence:
    def test_initial_value(self, probe_state):
        assert coherence(probe_state, Channel.I, 1.0) == pytest.approx(L0, abs=1e-15)
        assert coherence(probe_state, Channel.II, 1.0) == pytest.approx(L0, abs=1e-15)

    def test_channel_I_scales_with_factor_squared(self, probe_state):
        value = coherence(probe_state, Channel.I, 0.5)
        assert value == pytest.approx(0.25 * L0, abs=1e-15)

    def test_channel_II_floor_is_cross_coherence(self, probe_state):
        assert coherence(probe_state, Channel.II, 0.0) == pytest.approx(
            2.0 * probe_state.y, abs=1e-15
        )

    def test_monotone_in_factor_magnitude(self, probe_state):
        grid = np.linspace(0.0, 1.0, 21)
        for channel in (Channel.I, Channel.II):
            values = [coherence(probe_state, channel, a) for a in grid]
            assert np.all(np.diff(values) > 0.0)

    def test_even_in_factor_sign(self, probe_state):
        for channel in (Channel.I, Channel.II):
            assert coherence(probe_state, channel, -0.6) == coherence(
                probe_state, channel, 0.6
            )


class TestXStateKernel:
    # signed unit and zero factors, a generic negative one, and magnitudes
    # whose squares underflow to subnormals and to zero
    FACTORS = np.array(
        [1.0, -1.0, 0.0, -0.0, 0.73, -0.41, 1e-200, -1e-200, 1e-310, 5e-324, -5e-324]
    )

    @pytest.mark.parametrize("channel", ["I", "II"])
    @pytest.mark.parametrize("n", [2, 3, 8, 40])
    @pytest.mark.parametrize("theta", [0.3, np.pi / 2, 2.9])
    def test_matches_series_reference_bit_for_bit(self, channel, n, theta):
        state = oat_reduced_state(OatParameters(n, theta))
        values = x_state_observables(state, Channel(channel), self.FACTORS, n)
        expected = series_observables_reference(state, channel, n, self.FACTORS)
        computed = (values.coherence, values.rescaled, values.xi2, values.xi2_prime)
        for got, want in zip(computed, expected):
            assert np.array_equal(got, want)

    def test_rejects_small_ensemble(self, probe_state):
        with pytest.raises(ValueError, match="at least 2"):
            x_state_observables(probe_state, Channel.I, self.FACTORS, 1)

    @pytest.mark.parametrize("channel", ["I", "II"])
    def test_wrappers_convert_a_string_channel_once(self, probe_state, channel):
        # the kernel compares members only; the public wrappers take a string
        member = Channel(channel)
        assert coherence(probe_state, channel, 0.6) == coherence(probe_state, member, 0.6)
        assert spin_squeezing(probe_state, channel, 0.6, 5) == spin_squeezing(
            probe_state, member, 0.6, 5
        )
        with pytest.raises(TypeError, match="Channel member"):
            x_state_observables(probe_state, channel, 0.6, 5)

    @pytest.mark.parametrize(
        "wrapper,args",
        [(coherence, (0.6,)), (spin_squeezing, (0.6, 5))],
        ids=["coherence", "spin_squeezing"],
    )
    def test_wrappers_refuse_an_unknown_channel(self, probe_state, wrapper, args):
        with pytest.raises(ValueError, match="'III' is not a valid Channel"):
            wrapper(probe_state, "III", *args)

    @pytest.mark.parametrize("channel", ["I", "II"])
    def test_scalar_wrappers_give_the_array_bits(self, channel):
        # verify's squeezing check reads its factor grids from one array call
        channel = Channel(channel)
        wrapper = concurrence_channel_I if channel is Channel.I else concurrence_channel_II
        state = oat_reduced_state(OatParameters(5, np.pi / 3))
        factors = np.linspace(-1.0, 1.0, 101)
        values = x_state_observables(state, channel, factors, 5)
        reports = [spin_squeezing(state, channel, float(a), 5) for a in factors]
        assert np.array_equal(values.xi2, [r.xi2 for r in reports])
        assert np.array_equal(1.0 - 4 * values.concurrence, [r.xi2_prime for r in reports])
        rescaled = [wrapper(state, a, 5).rescaled for a in factors]
        assert np.array_equal(4 * values.concurrence, rescaled)
        assert np.array_equal(values.rescaled, rescaled)
        assert np.array_equal(values.xi2_prime, [r.xi2_prime for r in reports])


class TestConcurrenceGeneric:
    def test_bell_state(self):
        psi = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
        result = concurrence_generic(np.outer(psi, psi.conj()))
        assert result.concurrence == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        assert concurrence_generic(np.eye(4) / 4.0).concurrence == 0.0

    def test_product_state(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[1, 1] = 1.0
        assert concurrence_generic(rho).concurrence == 0.0

    def test_werner_state(self):
        psi = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
        p = 0.8
        rho = p * np.outer(psi, psi.conj()) + (1.0 - p) * np.eye(4) / 4.0
        result = concurrence_generic(rho)
        assert result.concurrence == pytest.approx((3.0 * p - 1.0) / 2.0, abs=1e-12)

    def test_rescaling(self):
        psi = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
        result = concurrence_generic(np.outer(psi, psi.conj()), n_probes=5)
        assert result.rescaled == pytest.approx(4.0, abs=1e-11)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="4x4"):
            concurrence_generic(np.eye(2) / 2.0)

    def test_rejects_non_hermitian(self):
        rho = np.eye(4, dtype=complex) / 4.0
        rho[0, 1] = 0.1
        with pytest.raises(ValueError, match="Hermitian"):
            concurrence_generic(rho)

    def test_hermitian_tolerance_is_1e9(self):
        # an anti-Hermitian perturbation K gives rho - rho^dag = 2K
        rho = np.eye(4, dtype=complex) / 4.0
        rho[0, 1], rho[1, 0] = 0.45e-9, -0.45e-9
        assert concurrence_generic(rho).concurrence == 0.0
        rho[0, 1], rho[1, 0] = 0.55e-9, -0.55e-9
        with pytest.raises(ValueError, match="^density matrix must be Hermitian$"):
            concurrence_generic(rho)

    def test_rejects_nan_as_non_hermitian(self):
        rho = np.eye(4, dtype=complex) / 4.0
        rho[0, 1] = rho[1, 0] = np.nan
        with pytest.raises(ValueError, match="Hermitian"):
            concurrence_generic(rho)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            concurrence_generic(np.eye(4) / 2.0)

    def test_rejects_non_psd(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            concurrence_generic(np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex))

    def test_rejects_small_ensemble(self):
        with pytest.raises(ValueError, match="n_probes"):
            concurrence_generic(np.eye(4) / 4.0, n_probes=1)

    @pytest.mark.parametrize("n", [2.5, np.float64(3.0), 3.7])
    def test_rejects_non_integer_ensemble(self, n):
        message = f"^n_probes must be an integer, got {re.escape(repr(n))}$"
        with pytest.raises(ValueError, match=message):
            concurrence_generic(np.eye(4) / 4.0, n_probes=n)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_matches_eigenvalue_oracle(self, seed):
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        result = concurrence_generic(rho)
        # the non-Hermitian eigenvalue route carries sqrt(eps) noise on
        # near-zero lambdas, hence the looser tolerance
        assert result.concurrence == pytest.approx(wootters_reference(rho), abs=1e-7)
        assert np.all(np.diff(result.lambdas) <= 1e-12)


def verify_battery_matrices():
    """The 400 evolved pair states the verify battery draws, in its rng order."""
    rng = np.random.default_rng(11)
    mats = []
    for _ in range(200):
        n = int(rng.integers(2, 7))
        theta = float(rng.uniform(0.05, np.pi - 0.05))
        a = float(rng.uniform(-1.0, 1.0))
        state = oat_reduced_state(OatParameters(n, theta))
        mats += [evolve_channel_I(state, a).to_matrix(), evolve_channel_II(state, a).to_matrix()]
    return mats


def named_matrices():
    """The single-call cases of TestConcurrenceGeneric, plus random full-rank states."""
    bell = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    product = np.zeros((4, 4), dtype=complex)
    product[1, 1] = 1.0
    mats = [
        np.outer(bell, bell),
        np.eye(4) / 4.0,
        product,
        0.8 * np.outer(bell, bell) + 0.2 * np.eye(4) / 4.0,
    ]
    rng = np.random.default_rng(5)
    for _ in range(20):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = g @ g.conj().T
        mats.append(rho / np.trace(rho).real)
    return mats


class TestWoottersStack:
    @pytest.mark.parametrize("matrices", [verify_battery_matrices, named_matrices])
    def test_stack_gives_the_single_call_bits(self, matrices):
        mats = matrices()
        lams, conc = _wootters_stack(np.array(mats))
        singles = [concurrence_generic(rho) for rho in mats]
        assert lams.shape == (len(mats), 4) and conc.shape == (len(mats),)
        assert np.array_equal(lams, [r.lambdas for r in singles])
        assert np.array_equal(conc, [r.concurrence for r in singles])
        # and the bits of the one-matrix route the kernel replaced
        reference = [wootters_one_matrix(np.asarray(rho, dtype=complex)) for rho in mats]
        assert np.array_equal(lams, [lam for lam, _ in reference])
        assert np.array_equal(conc, [c for _, c in reference])
        # any leading shape: the verify battery's (200, 2) pairs give the same bits
        pairs_lams, pairs_conc = _wootters_stack(np.array(mats).reshape(-1, 2, 4, 4))
        assert np.array_equal(pairs_lams.reshape(-1, 4), lams)
        assert np.array_equal(pairs_conc.ravel(), conc)

    @pytest.mark.parametrize("defect", ["hermitian", "trace", "psd"])
    def test_one_bad_matrix_raises_the_single_call_message(self, defect):
        bad = {
            "hermitian": np.eye(4, dtype=complex) / 4.0 + np.triu(np.full((4, 4), 0.1), 1),
            "trace": np.eye(4, dtype=complex) / 2.0,
            "psd": np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex),
        }[defect]
        with pytest.raises(ValueError) as single:
            concurrence_generic(bad)
        stack = np.array(named_matrices())
        stack[7] = bad
        with pytest.raises(ValueError, match=f"^{re.escape(str(single.value))}$"):
            _wootters_stack(stack)

    def test_single_matrix_gives_a_scalar_result(self):
        result = concurrence_generic(np.eye(4) / 4.0, n_probes=3)
        assert isinstance(result, ConcurrenceResult)
        assert type(result.concurrence) is float and type(result.rescaled) is float
        assert result.lambdas.shape == (4,)

    def test_single_call_refuses_a_stack(self):
        with pytest.raises(ValueError, match="4x4"):
            concurrence_generic(np.array(named_matrices()))


class TestClosedFormConcurrence:
    def test_initial_rescaled(self, probe_state):
        result = concurrence_channel_I(probe_state, 1.0, n_probes=3)
        assert result.rescaled == pytest.approx(CR0, abs=1e-15)

    def test_channel_I_frozen_partial_dephasing(self, probe_state):
        result = concurrence_channel_I(probe_state, np.sqrt(0.8), n_probes=3)
        assert result.rescaled == pytest.approx(0.39442719099991586, abs=1e-12)

    def test_channel_II_frozen_partial_dephasing(self, probe_state):
        result = concurrence_channel_II(probe_state, 0.9, n_probes=3)
        assert result.rescaled == pytest.approx(0.5062305898749054, abs=1e-12)

    def test_rejects_small_ensemble(self, probe_state):
        with pytest.raises(ValueError, match="n_probes"):
            concurrence_channel_I(probe_state, 0.5, n_probes=1)
        with pytest.raises(ValueError, match="n_probes"):
            concurrence_channel_II(probe_state, 0.5, n_probes=0)

    @pytest.mark.parametrize("n", [2.5, np.float64(3.0), 3.7])
    def test_rejects_non_integer_ensemble(self, probe_state, n):
        message = f"^n_probes must be an integer, got {re.escape(repr(n))}$"
        calls = [
            lambda: concurrence_channel_I(probe_state, 1.0, n),
            lambda: concurrence_channel_II(probe_state, 1.0, n),
            lambda: spin_squeezing(probe_state, Channel.I, 1.0, n),
            lambda: x_state_observables(probe_state, Channel.II, np.ones(3), n),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=message):
                call()

    @settings(max_examples=50, deadline=None)
    @given(params=oat_inputs())
    def test_channel_I_matches_generic_route(self, params):
        n, theta, a = params
        state = oat_reduced_state(OatParameters(n_probes=n, twist_angle=theta))
        closed = concurrence_channel_I(state, a, n)
        generic = concurrence_generic(evolve_channel_I(state, a).to_matrix(), n)
        assert closed.concurrence == pytest.approx(generic.concurrence, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(params=oat_inputs())
    def test_channel_II_matches_generic_route(self, params):
        n, theta, a = params
        state = oat_reduced_state(OatParameters(n_probes=n, twist_angle=theta))
        closed = concurrence_channel_II(state, a, n)
        generic = concurrence_generic(evolve_channel_II(state, a).to_matrix(), n)
        assert closed.concurrence == pytest.approx(generic.concurrence, abs=1e-12)


class TestSpinSqueezing:
    def test_initial_values(self, probe_state):
        report = spin_squeezing(probe_state, Channel.I, 1.0, n_probes=3)
        assert report.xi2 == pytest.approx(XI20, abs=1e-15)
        assert report.xi2_prime == pytest.approx(XI20, abs=1e-15)
        assert report.improvement == pytest.approx(0.0, abs=1e-15)
        assert report.improvement_max == pytest.approx(IMPROVEMENT_MAX, abs=1e-15)

    def test_channel_I_squeezing_tracks_factor_squared(self, probe_state):
        for a in (0.2, 0.6, 0.95):
            report = spin_squeezing(probe_state, Channel.I, a, n_probes=3)
            assert report.xi2 == pytest.approx(1.0 - a * a * CR0, abs=1e-14)

    def test_channel_II_improvement_max_is_zero(self, probe_state):
        report = spin_squeezing(probe_state, Channel.II, 0.4, n_probes=3)
        assert report.improvement_max == 0.0

    def test_xi2_prime_complements_rescaled(self, probe_state):
        for channel, conc_fn in (
            (Channel.I, concurrence_channel_I),
            (Channel.II, concurrence_channel_II),
        ):
            for a in (-0.8, 0.0, 0.3, 1.0):
                report = spin_squeezing(probe_state, channel, a, n_probes=3)
                rescaled = conc_fn(probe_state, a, 3).rescaled
                assert abs(report.xi2_prime + rescaled - 1.0) <= 1e-15

    @settings(max_examples=50, deadline=None)
    @given(params=oat_inputs())
    def test_channel_II_identity_in_damped_regime(self, params):
        n, theta, a = params
        state = oat_reduced_state(OatParameters(n_probes=n, twist_angle=theta))
        assume(abs(a) * abs(state.u) >= state.y)
        report = spin_squeezing(state, Channel.II, a, n_probes=n)
        assert abs(report.improvement) <= 1e-12

    @settings(max_examples=50, deadline=None)
    @given(params=oat_inputs())
    def test_channel_I_improvement_piecewise_form(self, params):
        n, theta, a = params
        state = oat_reduced_state(OatParameters(n_probes=n, twist_angle=theta))
        report = spin_squeezing(state, Channel.I, a, n_probes=n)
        au, y = abs(state.u), state.y
        expected = 2.0 * (n - 1) * min(a * a * (au - y), y * (1.0 - a * a))
        assert report.improvement == pytest.approx(expected, abs=1e-12)
        assert report.improvement >= -1e-12
        assert report.improvement <= report.improvement_max + 1e-12
