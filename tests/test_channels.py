"""Twisted pair states, the two dephasing channels, and their Kraus forms."""

import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lyprobe import (
    DephasingFactor,
    OatParameters,
    TwoQubitXState,
    evolve_channel_I,
    evolve_channel_II,
    kraus_apply,
    kraus_channel_I,
    kraus_tensor,
    oat_reduced_state,
)

from lyprobe.channels import Channel, XStateStack, _factor_value, _oat_entries, x_state_observables
from lyprobe.verify import KrausSet, _random_probes, kraus_channel_II

from .oracles import (
    evolve_channel_I_explicit,
    evolve_channel_II_explicit,
    exact_pair_state,
    kraus_apply_loop,
    kraus_tensor_kron,
    oat_entries_numpy_scalars,
)


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

    @settings(max_examples=30)
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

    @settings(max_examples=25)
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

    def test_float_helper_keeps_the_numpy_scalar_bits(self):
        # 10^4 seeded draws: N from 2 to 10^9, log-uniform, theta over
        # (-8 pi, 8 pi) and at 0, +-pi, multiples of 2 pi and a few past them
        rng = np.random.default_rng(2035)
        ns = np.rint(np.exp(rng.uniform(math.log(2.0), math.log(1e9), 10_000))).astype(int)
        thetas = rng.uniform(-8.0 * np.pi, 8.0 * np.pi, ns.size)
        special = [0.0, -0.0, np.pi, -np.pi, 2.0 * np.pi, -2.0 * np.pi, 3.0 * np.pi, 7.5, 1e3, -1e6]
        thetas[: 10 * len(special)] = np.repeat(special, 10)
        ns[:10] = [2, 3, 4, 5, 1_000_000_000, 999_999_999, 6, 64, 10_000, 2]
        for n, theta in zip(ns.tolist(), thetas.tolist()):
            entries = _oat_entries(n, theta)
            reference = oat_entries_numpy_scalars(n, theta)
            assert all(type(value) in (float, complex) for value in entries)
            assert np.array_equal(
                np.array(entries, dtype=complex).view(np.uint64),
                np.array(reference, dtype=complex).view(np.uint64),
            ), (n, theta)


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
        factor = DephasingFactor(value=0.5, argument=0.3)
        assert evolve_channel_I(probe_state, factor) == evolve_channel_I(probe_state, 0.5)

    def test_rejects_oversized_factor(self, probe_state):
        with pytest.raises(ValueError, match="exceed 1"):
            evolve_channel_II(probe_state, 1.0001)

    def test_clamps_rounding_slack(self, probe_state):
        out = evolve_channel_I(probe_state, 1.0 + 5e-10)
        assert out == probe_state

    @pytest.mark.parametrize(
        "factor",
        [1.0, -1.0, 0.0, -0.0, 0.73, -0.41, DephasingFactor(value=-0.41, argument=0.3)],
        ids=["1", "-1", "0", "-0", "0.73", "-0.41", "DephasingFactor"],
    )
    @pytest.mark.parametrize(
        "evolve,explicit",
        [
            (evolve_channel_I, evolve_channel_I_explicit),
            (evolve_channel_II, evolve_channel_II_explicit),
        ],
        ids=["I", "II"],
    )
    def test_matches_explicit_constructor(self, evolve, explicit, factor):
        # the kept fields pass through and the damped ones are restated; every field keeps its bits
        states = [
            oat_reduced_state(OatParameters(3, np.pi / 2)),
            oat_reduced_state(OatParameters(5, 1.2)),
            TwoQubitXState(v_plus=0.4, v_minus=0.2, w=0.2, y=-0.15, u=-0.1 + 0.2j),
        ]
        for state in states:
            got, want = evolve(state, factor), explicit(state, factor)
            for name in ("v_plus", "v_minus", "w", "y", "u"):
                g, w = complex(getattr(got, name)), complex(getattr(want, name))
                assert getattr(got, name) == getattr(want, name)
                assert (g.real.hex(), g.imag.hex()) == (w.real.hex(), w.imag.hex())


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


# the draws of verify's two pair-layer checks: (seed, count, N bound)
VERIFY_DRAWS = [(11, 200, 7), (7, 100, 9)]
EDGE_FACTORS = [1.0, -1.0, 0.0, -0.0, 1e-300]


def verify_draws(seed, count, n_stop):
    """The pair states and factors verify draws: three array draws, one oat_reduced_state call a state."""
    rng = np.random.default_rng(seed)
    ns, thetas = rng.integers(2, n_stop, count), rng.uniform(0.05, np.pi - 0.05, count)
    states = [oat_reduced_state(OatParameters(int(n), float(theta))) for n, theta in zip(ns, thetas)]
    return states, rng.uniform(-1.0, 1.0, count).tolist()


def stack_of(states):
    """The stack of validated states, built from their columns with each state's bits."""
    return XStateStack(*map(np.array, zip(*map(astuple, states))))


def stack_cases():
    """verify's draws, then N = 2 states and a drawn one at the edge factors."""
    states, factors = [], []
    for draw in VERIFY_DRAWS:
        drawn = verify_draws(*draw)
        states += drawn[0]
        factors += drawn[1]
    edge = [oat_reduced_state(OatParameters(2, theta)) for theta in (0.3, 1.7, 3.0)] + states[:1]
    for state in edge:
        states += [state] * len(EDGE_FACTORS)
        factors += EDGE_FACTORS
    return states, factors


class TestStackRoute:
    """A stack of states takes the one-state routes and gives each state's bits."""

    STATES, FACTORS = stack_cases()

    @pytest.fixture(scope="class")
    def stack(self):
        return stack_of(self.STATES), np.array(self.FACTORS)

    @pytest.mark.parametrize("draw", VERIFY_DRAWS, ids=["seed-11", "seed-7"])
    def test_verify_draws_each_state_alone(self, draw):
        # a stacked np.power differs from the scalar power on some (N, theta):
        # the states are made one by one, in the order of the drawn arrays
        stack, factors = _random_probes(*draw)
        states, drawn = verify_draws(*draw)
        assert all(np.array_equal(a, b) for a, b in zip(stack, stack_of(states)))
        assert np.array_equal(factors, drawn)

    def test_stack_keeps_each_entry(self, stack):
        states, _ = stack
        for name in XStateStack._fields:
            entries = getattr(states, name)
            assert entries.shape == (len(self.STATES),)
            assert np.array_equal(entries, [getattr(state, name) for state in self.STATES])

    def test_matrix_layout(self, stack):
        states, _ = stack
        one_by_one = np.array([state.to_matrix() for state in self.STATES])
        assert np.array_equal(states.to_matrix(), one_by_one)
        assert states.to_matrix().flags.c_contiguous

    @pytest.mark.parametrize("evolve", [evolve_channel_I, evolve_channel_II], ids=["I", "II"])
    def test_damping_and_matrix(self, stack, evolve):
        states, factors = stack
        stacked = evolve(states, factors)
        assert isinstance(stacked, XStateStack)
        one_by_one = [evolve(state, a) for state, a in zip(self.STATES, self.FACTORS)]
        for name in XStateStack._fields:
            assert np.array_equal(getattr(stacked, name), [getattr(s, name) for s in one_by_one])
        assert np.array_equal(stacked.to_matrix(), np.array([s.to_matrix() for s in one_by_one]))

    @pytest.mark.parametrize("n_probes", [2, 6])
    @pytest.mark.parametrize("channel", list(Channel))
    def test_observables(self, stack, channel, n_probes):
        states, factors = stack
        stacked = x_state_observables(states, channel, factors, n_probes)
        for i, (state, a) in enumerate(zip(self.STATES, self.FACTORS)):
            one = x_state_observables(state, channel, a, n_probes)
            for name in ("coherence", "concurrence", "xi2", "rescaled", "xi2_prime"):
                assert getattr(stacked, name)[i] == getattr(one, name), (name, i)
            assert [lam[i] for lam in stacked.lambdas] == list(one.lambdas), i

    def test_hypot_is_abs_of_one_complex(self, stack):
        # np.abs of a complex array is not abs() of each complex bit for bit;
        # np.hypot of its parts is
        states, factors = stack
        for u in (states.u, evolve_channel_I(states, factors).u, evolve_channel_II(states, factors).u):
            assert np.array_equal(np.hypot(u.real, u.imag), [abs(value) for value in u.tolist()])

    @pytest.mark.parametrize("evolve", [evolve_channel_I, evolve_channel_II], ids=["I", "II"])
    def test_bad_factor_raises_the_one_factor_message(self, stack, evolve):
        states = XStateStack(*(entries[:3] for entries in stack[0]))
        cases = [(np.nan, "^dephasing factor must be finite"), (np.inf, "^dephasing factor must be finite")]
        cases += [(1.0 + 2e-9, "^.factor. must not exceed 1"), (-1.0 - 2e-9, "^.factor. must not exceed 1")]
        for bad, match in cases:
            with pytest.raises(ValueError, match=match):
                evolve(states, np.array([0.3, bad, -0.2]))
        slack = np.array([1.0 + 5e-10, -1.0 - 5e-10, 0.5])
        clamped = evolve(states, slack)
        for i, a in enumerate(slack):
            assert clamped.u[i] == evolve(self.STATES[i], a).u


FACTORS = [-1.0, -0.4, 0.0, 0.6, 1.0]


class TestKraus:
    def test_completeness_enforced(self):
        with pytest.raises(ValueError, match="completeness"):
            KrausSet(operators=(0.5 * np.eye(2),))

    def test_rejects_mixed_shapes(self):
        with pytest.raises(ValueError, match="square shape"):
            KrausSet(operators=(np.eye(2), np.eye(3)))

    @pytest.mark.parametrize("ops", [[np.ones(2)], [np.ones((2, 3))], np.ones((1, 2, 2, 3))])
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
        assert ops.shape == (2, 2, 2) and ops.dtype == complex
        assert not ops.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            ops[0, 0, 0] = 0.0
        expected = [np.sqrt(0.68) * np.eye(2), np.sqrt(0.32) * np.diag([1.0, -1.0])]
        assert len(list(kraus.operators)) == 2
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

    @settings(max_examples=40)
    @given(state=x_states(), a=st.floats(min_value=-1.0, max_value=1.0))
    def test_apply_matches_loop_sum(self, state, a):
        rho = state.to_matrix()
        single = kraus_channel_I(a)
        for kraus in (kraus_tensor(single, single), kraus_channel_II(a)):
            deviation = np.abs(kraus_apply(rho, kraus) - kraus_apply_loop(rho, kraus.operators))
            assert deviation.max() <= 1e-15

    def test_stacked_apply_gives_the_bits_of_apply(self):
        # both signs of A, and +-0, in one stack per channel
        factors = np.array(FACTORS + [-0.0])
        states = [oat_reduced_state(OatParameters(n, 0.3 * n)) for n in range(2, 2 + factors.size)]
        rhos = np.array([state.to_matrix() for state in states])
        single = kraus_channel_I(factors)
        stacks = [kraus_tensor(single, single), kraus_channel_II(factors)]
        builds = [lambda a: kraus_tensor(kraus_channel_I(a), kraus_channel_I(a)), kraus_channel_II]
        for stack, build in zip(stacks, builds):
            assert stack.operators.shape[0] == factors.size
            stacked = kraus_apply(rhos, stack)
            for rho, a, got in zip(rhos, factors.tolist(), stacked):
                assert np.array_equal(got, kraus_apply(rho, build(a)))

    def test_stacked_tensor_gives_each_tensor(self):
        factors = np.array(FACTORS).reshape(5, 1) * np.ones(2)
        for build in (kraus_channel_I, kraus_channel_II):
            left, right = build(factors), kraus_channel_I(factors[::-1])
            stacked = kraus_tensor(left, right).operators
            assert stacked.shape[:2] == (5, 2)
            for i, j in np.ndindex(5, 2):
                one = kraus_tensor(build(factors[i, j]), kraus_channel_I(factors[4 - i, j]))
                assert np.array_equal(stacked[i, j], one.operators)
                assert np.array_equal(build(factors[i, j]).operators, left.operators[i, j])

    @pytest.mark.parametrize("build", [kraus_channel_I, kraus_channel_II])
    def test_array_factors_checked_as_one_factor(self, build):
        cases = [(np.nan, "^dephasing factor must be finite"), (1 + 2e-9, "^.factor. must not exceed 1")]
        cases.append((-1.0 - 2e-9, "^.factor. must not exceed 1"))
        for bad, match in cases:
            with pytest.raises(ValueError, match=match):
                build(np.array([0.3, bad, -0.2]))
        clamped = build(np.array([1.0 + 5e-10, -1.0 - 5e-10])).operators
        assert np.array_equal(clamped, np.array([build(1.0).operators, build(-1.0).operators]))

    def test_stack_mismatches_rejected(self):
        three, two = kraus_channel_II(np.zeros(3)), kraus_channel_I(np.zeros(2))
        with pytest.raises(ValueError, match="differ"):
            kraus_tensor(kraus_channel_I(np.zeros(3)), two)
        with pytest.raises(ValueError, match="differ"):
            kraus_tensor(kraus_channel_I(0.5), two)
        rhos = np.array([np.eye(4) / 4.0] * 2)
        with pytest.raises(ValueError, match="does not match"):
            kraus_apply(rhos, three)
        with pytest.raises(ValueError, match="does not match"):
            kraus_apply(rhos[0], three)
        with pytest.raises(ValueError, match="does not match"):
            kraus_apply(np.array([np.eye(2) / 2.0] * 3), three)

    def test_dim(self):
        assert kraus_channel_I(0.5).dim == 2
        assert kraus_channel_II(0.5).dim == 4

    def test_tensor_dim(self):
        pair = kraus_tensor(kraus_channel_I(0.3), kraus_channel_I(0.3))
        assert pair.dim == 4

    def test_apply_rejects_dim_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            kraus_apply(np.eye(2) / 2.0, kraus_channel_II(0.5))

    @settings(max_examples=40)
    @given(state=x_states(), a=st.floats(min_value=-1.0, max_value=1.0))
    def test_channel_I_kraus_matches_closed_form(self, state, a):
        single = kraus_channel_I(a)
        pair = kraus_tensor(single, single)
        via_kraus = kraus_apply(state.to_matrix(), pair)
        closed = evolve_channel_I(state, a).to_matrix()
        np.testing.assert_allclose(via_kraus, closed, rtol=0.0, atol=1e-12)

    @settings(max_examples=40)
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
