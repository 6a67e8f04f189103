"""Twisted pair states, the two dephasing channels, and their Kraus forms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lyprobe import (
    DephasingFactor,
    KrausSet,
    OatParameters,
    TwoQubitXState,
    evolve_channel_I,
    evolve_channel_II,
    kraus_apply,
    kraus_channel_I,
    kraus_channel_II,
    kraus_tensor,
    oat_reduced_state,
)

from lyprobe.channels import _factor_value

from .oracles import exact_pair_state, kraus_apply_loop, kraus_tensor_kron


def x_states():
    """Strategy producing valid X-states away from the positivity boundary."""
    unit = st.floats(min_value=0.05, max_value=1.0)
    signed = st.floats(min_value=-0.95, max_value=0.95)
    angle = st.floats(min_value=-np.pi, max_value=np.pi)

    def build(a, b, c, ry, ru, phase):
        s = a + b + 2.0 * c
        v_plus, v_minus, w = a / s, b / s, c / s
        return TwoQubitXState(
            v_plus=v_plus,
            v_minus=v_minus,
            w=w,
            y=ry * w,
            u=ru * np.sqrt(v_plus * v_minus) * np.exp(1j * phase),
        )

    return st.builds(build, unit, unit, unit, signed, signed, angle)


class TestOatParameters:
    def test_rejects_single_probe(self):
        with pytest.raises(ValueError, match="at least 2"):
            OatParameters(n_probes=1, twist_angle=0.5)

    def test_rejects_non_integer(self):
        with pytest.raises(ValueError, match="integer"):
            OatParameters(n_probes=3.0, twist_angle=0.5)

    def test_rejects_nonfinite_angle(self):
        with pytest.raises(ValueError, match="finite"):
            OatParameters(n_probes=3, twist_angle=np.nan)

    @pytest.mark.parametrize("angle", [np.inf, -np.inf])
    def test_rejects_infinite_angle(self, angle):
        with pytest.raises(ValueError, match="twist_angle must be finite"):
            OatParameters(n_probes=3, twist_angle=angle)


VALID_X_ENTRIES = {"v_plus": 0.25, "v_minus": 0.25, "w": 0.25, "y": 0.1, "u": 0.1 + 0.1j}


class TestTwoQubitXState:
    @pytest.mark.parametrize("field", ["v_plus", "v_minus", "w", "y", "u"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_entry(self, field, bad):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            TwoQubitXState(**{**VALID_X_ENTRIES, field: bad})

    @pytest.mark.parametrize(
        "u",
        [complex(0.1, np.nan), complex(np.nan, 0.0), complex(0.0, np.inf), np.complex128(-np.inf)],
    )
    def test_rejects_nonfinite_double_flip_part(self, u):
        with pytest.raises(ValueError, match="^u must be finite"):
            TwoQubitXState(**{**VALID_X_ENTRIES, "u": u})

    def test_accepts_numpy_scalars(self):
        entries = {k: np.float64(v) for k, v in VALID_X_ENTRIES.items() if k != "u"}
        entries["u"] = np.complex128(VALID_X_ENTRIES["u"])
        assert TwoQubitXState(**entries) == TwoQubitXState(**VALID_X_ENTRIES)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            TwoQubitXState(v_plus=0.5, v_minus=0.5, w=0.1, y=0.0, u=0.0)

    def test_rejects_negative_population(self):
        with pytest.raises(ValueError, match="nonnegative"):
            TwoQubitXState(v_plus=1.2, v_minus=-0.2, w=0.0, y=0.0, u=0.0)

    def test_rejects_y_above_w(self):
        with pytest.raises(ValueError, match="exceeds w"):
            TwoQubitXState(v_plus=0.3, v_minus=0.3, w=0.2, y=0.3, u=0.0)

    def test_rejects_u_above_geometric_mean(self):
        with pytest.raises(ValueError, match="exceeds sqrt"):
            TwoQubitXState(v_plus=0.4, v_minus=0.4, w=0.1, y=0.0, u=0.5)

    @settings(max_examples=30, deadline=None)
    @given(state=x_states())
    def test_matrix_round_trip(self, state):
        rho = state.to_matrix()
        assert rho[0, 0] == pytest.approx(state.v_plus, abs=1e-15)
        assert rho[3, 3] == pytest.approx(state.v_minus, abs=1e-15)
        assert rho[1, 1] == pytest.approx(state.w, abs=1e-15)
        assert rho[2, 2] == pytest.approx(state.w, abs=1e-15)
        assert rho[1, 2] == pytest.approx(state.y, abs=1e-15)
        assert rho[0, 3] == pytest.approx(state.u, abs=1e-15)
        # Hermitian, with no weight outside the X pattern
        np.testing.assert_array_equal(rho, rho.conj().T)
        off_pattern = np.ones((4, 4), dtype=bool)
        off_pattern[np.arange(4), np.arange(4)] = False
        off_pattern[[0, 3, 1, 2], [3, 0, 2, 1]] = False
        assert np.all(rho[off_pattern] == 0.0)


class TestOatReducedState:
    def test_frozen_three_probes_half_turn(self):
        state = oat_reduced_state(OatParameters(n_probes=3, twist_angle=np.pi / 2))
        assert state.v_plus == pytest.approx(0.125, abs=1e-15)
        assert state.v_minus == pytest.approx(0.625, abs=1e-15)
        assert state.w == pytest.approx(0.125, abs=1e-15)
        assert state.y == pytest.approx(0.125, abs=1e-15)
        assert state.u == pytest.approx(-0.125 - 0.25j, abs=1e-15)

    def test_frozen_five_probes_full_turn(self):
        state = oat_reduced_state(OatParameters(n_probes=5, twist_angle=np.pi))
        assert state.v_plus == pytest.approx(0.25, abs=1e-15)
        assert state.v_minus == pytest.approx(0.25, abs=1e-15)
        assert state.w == pytest.approx(0.25, abs=1e-15)
        assert state.y == pytest.approx(0.25, abs=1e-15)
        assert state.u == pytest.approx(-0.25 + 0.0j, abs=1e-15)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=7),
        theta=st.floats(min_value=-2.0 * np.pi, max_value=2.0 * np.pi),
    )
    def test_matches_full_hilbert_space_reduction(self, n, theta):
        closed = oat_reduced_state(OatParameters(n_probes=n, twist_angle=theta))
        reference = exact_pair_state(n, theta)
        np.testing.assert_allclose(
            closed.to_matrix(), reference, rtol=0.0, atol=1e-12
        )


class TestEvolve:
    @pytest.fixture
    def probe_state(self):
        return oat_reduced_state(OatParameters(n_probes=3, twist_angle=np.pi / 2))

    def test_channel_I_scales_both_coherences(self, probe_state):
        out = evolve_channel_I(probe_state, 0.5)
        assert out.u == pytest.approx(-1.0 / 32.0 - 1j / 16.0, abs=1e-15)
        assert out.y == pytest.approx(1.0 / 32.0, abs=1e-15)
        assert out.v_plus == probe_state.v_plus
        assert out.v_minus == probe_state.v_minus
        assert out.w == probe_state.w

    def test_channel_I_negative_factor_squares_away_sign(self, probe_state):
        out = evolve_channel_I(probe_state, -0.7)
        assert out.u == pytest.approx(0.49 * probe_state.u, abs=1e-15)
        assert out.y == pytest.approx(0.49 * probe_state.y, abs=1e-15)

    def test_channel_II_damps_only_double_flip(self, probe_state):
        out = evolve_channel_II(probe_state, 0.9)
        assert out.u == pytest.approx(0.9 * probe_state.u, abs=1e-15)
        assert out.y == probe_state.y
        assert out.w == probe_state.w

    def test_channel_II_keeps_factor_sign(self, probe_state):
        out = evolve_channel_II(probe_state, -0.9)
        assert out.u == pytest.approx(-0.9 * probe_state.u, abs=1e-15)

    def test_identity_factor_is_noop(self, probe_state):
        out = evolve_channel_I(probe_state, 1.0)
        assert out == probe_state

    def test_full_dephasing_kills_coherences(self, probe_state):
        out = evolve_channel_I(probe_state, 0.0)
        assert out.u == 0.0
        assert out.y == 0.0

    def test_accepts_dephasing_factor_objects(self, probe_state):
        factor = DephasingFactor(value=0.5 + 0.0j, argument=0.3)
        assert evolve_channel_I(probe_state, factor) == evolve_channel_I(probe_state, 0.5)

    def test_rejects_non_real_factor(self, probe_state):
        factor = DephasingFactor(value=0.5 + 1e-6j, argument=0.3)
        with pytest.raises(ValueError, match="non-real"):
            evolve_channel_I(probe_state, factor)

    def test_rejects_oversized_factor(self, probe_state):
        with pytest.raises(ValueError, match="exceed 1"):
            evolve_channel_II(probe_state, 1.0001)

    def test_clamps_rounding_slack(self, probe_state):
        out = evolve_channel_I(probe_state, 1.0 + 5e-10)
        assert out == probe_state


class TestFactorValue:
    @pytest.mark.parametrize("bad", [np.nan, np.float64(np.nan), np.inf, -np.inf])
    def test_rejects_nonfinite(self, bad):
        with pytest.raises(ValueError, match="must be finite"):
            _factor_value(bad)

    @pytest.mark.parametrize("value", [1.0 + 2e-9, -1.0 - 2e-9])
    def test_rejects_magnitude_past_slack(self, value):
        with pytest.raises(ValueError, match="must not exceed 1"):
            _factor_value(value)

    @pytest.mark.parametrize(
        "value, clamped", [(1.0 + 5e-10, 1.0), (-1.0 - 5e-10, -1.0), (-0.3, -0.3)]
    )
    def test_clamps_within_slack(self, value, clamped):
        assert _factor_value(value) == clamped

    @pytest.mark.parametrize("imag", [2e-9, -2e-9])
    def test_rejects_non_real_dephasing_factor(self, imag):
        with pytest.raises(ValueError, match="non-real"):
            _factor_value(DephasingFactor(value=complex(0.5, imag), argument=0.1))

    def test_takes_real_part_within_noise(self):
        assert _factor_value(DephasingFactor(value=complex(0.5, 5e-10), argument=0.1)) == 0.5


FACTORS = [-1.0, -0.4, 0.0, 0.6, 1.0]


class TestKraus:
    def test_completeness_enforced(self):
        with pytest.raises(ValueError, match="completeness"):
            KrausSet(operators=(0.5 * np.eye(2),))

    def test_rejects_mixed_shapes(self):
        with pytest.raises(ValueError, match="square shape"):
            KrausSet(operators=(np.eye(2), np.eye(3)))

    @pytest.mark.parametrize("ops", [[np.ones(2)], [np.ones((2, 3))], np.ones((1, 2, 2, 2))])
    def test_rejects_non_square_operators(self, ops):
        with pytest.raises(ValueError, match="^operators must share one square shape$"):
            KrausSet(operators=ops)

    @pytest.mark.parametrize("ops", [(), [], np.zeros((0, 2, 2))])
    def test_rejects_empty_set(self, ops):
        with pytest.raises(ValueError, match="^at least one Kraus operator required$"):
            KrausSet(operators=ops)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_rejects_nonfinite_entries(self, bad):
        m = np.eye(2, dtype=complex)
        m[0, 1] = bad
        with pytest.raises(ValueError, match="^operators must be finite$"):
            KrausSet(operators=(m,))

    def test_completeness_tolerance_is_1e12(self):
        # sum M^dag M = (1 + excess) I, so the deviation is the excess itself
        KrausSet(operators=(np.sqrt(1.0 + 0.9e-12) * np.eye(2),))
        with pytest.raises(ValueError, match="^completeness violated: sum M\\^dag M != identity$"):
            KrausSet(operators=(np.sqrt(1.0 + 1.1e-12) * np.eye(2),))

    def test_operators_are_one_read_only_stack(self):
        kraus = kraus_channel_I(0.36)
        ops = kraus.operators
        assert isinstance(ops, np.ndarray)
        assert ops.shape == (3, 2, 2) and ops.dtype == complex
        assert not ops.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            ops[0, 0, 0] = 0.0
        expected = [0.6 * np.eye(2), np.diag([0.8, 0.0]), np.diag([0.0, 0.8])]
        assert len(list(kraus.operators)) == 3
        for m, want in zip(kraus.operators, expected):
            assert m.shape == (2, 2)
            np.testing.assert_allclose(m, want, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("stacked", [False, True])
    def test_copies_the_callers_operators(self, stacked):
        ops = np.eye(2, dtype=complex)[None].copy() if stacked else [np.eye(2, dtype=complex)]
        kraus = KrausSet(operators=ops)
        assert ops[0].flags.writeable
        ops[0][0, 0] = 5.0
        assert kraus.operators[0, 0, 0] == 1.0

    @pytest.mark.parametrize("scale", [0.5, np.nan])
    def test_apply_rechecks_completeness(self, scale):
        kraus = kraus_channel_II(0.3)
        object.__setattr__(kraus, "operators", scale * kraus.operators)
        with pytest.raises(ValueError, match="completeness"):
            kraus_apply(np.eye(4) / 4.0, kraus)

    @pytest.mark.parametrize("a", FACTORS)
    @pytest.mark.parametrize("b", FACTORS)
    def test_tensor_equals_kron_products(self, a, b):
        pairs = [
            (kraus_channel_I(a), kraus_channel_I(b)),
            (kraus_channel_I(a), kraus_channel_II(b)),
            (kraus_channel_II(a), kraus_channel_I(b)),
        ]
        for left, right in pairs:
            stacked = kraus_tensor(left, right).operators
            reference = kraus_tensor_kron(left.operators, right.operators)
            assert np.array_equal(stacked, np.array(reference))

    @settings(max_examples=40, deadline=None)
    @given(state=x_states(), a=st.floats(min_value=-1.0, max_value=1.0))
    def test_apply_matches_loop_sum(self, state, a):
        rho = state.to_matrix()
        single = kraus_channel_I(a)
        for kraus in (kraus_tensor(single, single), kraus_channel_II(a)):
            deviation = np.abs(kraus_apply(rho, kraus) - kraus_apply_loop(rho, kraus.operators))
            assert deviation.max() <= 1e-15

    def test_dim(self):
        assert kraus_channel_I(0.5).dim == 2
        assert kraus_channel_II(0.5).dim == 4

    def test_tensor_dim(self):
        pair = kraus_tensor(kraus_channel_I(0.3), kraus_channel_I(0.3))
        assert pair.dim == 4

    def test_apply_rejects_dim_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            kraus_apply(np.eye(2) / 2.0, kraus_channel_II(0.5))

    @settings(max_examples=40, deadline=None)
    @given(state=x_states(), a=st.floats(min_value=-1.0, max_value=1.0))
    def test_channel_I_kraus_matches_closed_form(self, state, a):
        single = kraus_channel_I(a)
        pair = kraus_tensor(single, single)
        via_kraus = kraus_apply(state.to_matrix(), pair)
        closed = evolve_channel_I(state, a).to_matrix()
        np.testing.assert_allclose(via_kraus, closed, rtol=0.0, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(state=x_states(), a=st.floats(min_value=-1.0, max_value=1.0))
    def test_channel_II_kraus_matches_closed_form(self, state, a):
        via_kraus = kraus_apply(state.to_matrix(), kraus_channel_II(a))
        closed = evolve_channel_II(state, a).to_matrix()
        np.testing.assert_allclose(via_kraus, closed, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("a", FACTORS)
    def test_kraus_sets_complete_across_sign(self, a):
        for kraus in (kraus_channel_I(a), kraus_channel_II(a)):
            total = sum(m.conj().T @ m for m in kraus.operators)
            np.testing.assert_allclose(
                total, np.eye(kraus.dim), rtol=0.0, atol=1e-14
            )
