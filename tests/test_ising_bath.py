"""Ring polynomial coefficients, unit-circle zero phases, dephasing factors."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lyprobe import (
    DephasingFactor,
    IsingRing,
    LeeYangZeroSet,
    PartitionPolynomial,
    companion_roots,
    dephasing_factor,
    dephasing_factor_product,
    lee_yang_zeros,
    partition_coefficients,
    partition_coefficients_bruteforce,
    zero_times,
)

import lyprobe.ising_bath as ising_bath
from lyprobe.ising_bath import factor_values

from .oracles import (
    highprecision_roots,
    mp_ring_factor,
    ring_closed_form_loop,
    transfer_phases,
)

TWO_PI = 2.0 * np.pi

# hand-computed from the block expansion at n_spins=4, beta*coupling=0.5:
# f1 = 4 q, f2 = 4 q + 2 q^2 with q = exp(-2)
FROZEN_NB4 = np.array(
    [1.0, 0.5413411329464508, 0.5779724107239192, 0.5413411329464508, 1.0]
)


def ring_poly(nb, beta_lambda):
    return partition_coefficients(
        IsingRing(n_spins=nb, coupling=1.0, inverse_temperature=beta_lambda)
    )


def synthetic_palindrome():
    """Degree-6 positive palindrome with roots at phases 2.0, 2.6, 3.0."""
    coeffs = np.array([1.0])
    for phi in (2.0, 2.6, 3.0):
        coeffs = np.convolve(coeffs, np.array([1.0, -2.0 * np.cos(phi), 1.0]))
    return PartitionPolynomial(coefficients=coeffs, scale_log=0.0, beta=1.0)


class TestIsingRing:
    def test_defaults(self):
        ring = IsingRing(n_spins=5)
        assert ring.coupling == 1.0
        assert ring.inverse_temperature == 1.0
        assert ring.longitudinal_field == 0.0

    @pytest.mark.parametrize("nb", [2, 1, 0, -3])
    def test_rejects_small_ring(self, nb):
        with pytest.raises(ValueError, match="at least 3"):
            IsingRing(n_spins=nb)

    def test_rejects_non_integer_size(self):
        with pytest.raises(ValueError, match="integer"):
            IsingRing(n_spins=4.0)

    @pytest.mark.parametrize("coupling", [0.0, -1.0])
    def test_rejects_non_ferromagnetic(self, coupling):
        with pytest.raises(ValueError, match="positive"):
            IsingRing(n_spins=4, coupling=coupling)

    def test_rejects_negative_beta(self):
        with pytest.raises(ValueError, match="inverse_temperature"):
            IsingRing(n_spins=4, inverse_temperature=-0.1)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            IsingRing(n_spins=4, longitudinal_field=np.inf)


class TestPartitionPolynomial:
    def test_rejects_non_palindrome(self):
        with pytest.raises(ValueError, match="palindromic"):
            PartitionPolynomial(np.array([1.0, 2.0, 3.0, 1.0]), 0.0, 1.0)

    def test_rejects_nonpositive_coefficient(self):
        with pytest.raises(ValueError, match="positive"):
            PartitionPolynomial(np.array([1.0, -2.0, -2.0, 1.0]), 0.0, 1.0)

    def test_rejects_unnormalized_ends(self):
        with pytest.raises(ValueError, match="end coefficients"):
            PartitionPolynomial(np.array([2.0, 3.0, 3.0, 2.0]), 0.0, 1.0)

    def test_rejects_low_degree(self):
        with pytest.raises(ValueError, match="degree"):
            PartitionPolynomial(np.array([1.0, 2.0, 1.0]), 0.0, 1.0)

    def test_rejects_nonfinite_scale(self):
        with pytest.raises(ValueError, match="scale_log"):
            PartitionPolynomial(np.array([1.0, 2.0, 2.0, 1.0]), np.nan, 1.0)

    def test_rejects_negative_beta(self):
        with pytest.raises(ValueError, match="beta"):
            PartitionPolynomial(np.array([1.0, 2.0, 2.0, 1.0]), 0.0, -1.0)

    def test_coefficients_frozen(self):
        poly = ring_poly(5, 0.5)
        with pytest.raises(ValueError):
            poly.coefficients[0] = 2.0

    def test_degree(self):
        assert ring_poly(7, 0.3).degree == 7


class TestCoefficients:
    def test_frozen_small_ring(self):
        poly = ring_poly(4, 0.5)
        np.testing.assert_allclose(poly.coefficients, FROZEN_NB4, rtol=1e-15)
        assert poly.scale_log == 2.0
        assert poly.beta == 0.5

    @pytest.mark.parametrize("nb", [5, 12])
    def test_infinite_temperature_is_binomial(self, nb):
        poly = partition_coefficients(IsingRing(nb, inverse_temperature=0.0))
        expected = np.array([math.comb(nb, n) for n in range(nb + 1)], dtype=float)
        assert np.array_equal(poly.coefficients, expected)

    def test_underflow_raises(self):
        with pytest.raises(ValueError, match="underflow"):
            ring_poly(10, 200.0)

    @pytest.mark.parametrize("nb", [101, 1000])
    @pytest.mark.parametrize("beta_lambda", [0.25, 2.0])
    def test_vectorised_recurrence_matches_scalar_loop(self, nb, beta_lambda):
        poly = ring_poly(nb, beta_lambda)
        reference = ring_closed_form_loop(nb, np.exp(-4.0 * beta_lambda))
        assert np.array_equal(poly.coefficients, reference)

    @pytest.mark.parametrize(
        "nb,beta_lambda", [(2000, 0.25), (1825, 0.121), (3090, 0.444), (1498, 0.25)]
    )
    def test_overflow_raises_up_front(self, nb, beta_lambda):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError) as info:
                ring_poly(nb, beta_lambda)
        message = str(info.value)
        assert f"N_b={nb}" in message
        assert f"beta*lambda={beta_lambda:g}" in message
        assert "limit" in message

    def test_largest_ring_below_overflow_is_finite(self):
        # (1 + sqrt q)^N + (1 - sqrt q)^N first passes the double range at
        # N_b = 1498 for beta*lambda = 0.25
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            poly = ring_poly(1497, 0.25)
        assert np.all(np.isfinite(poly.coefficients))
        assert np.isfinite(poly.coefficients.sum())

    def test_ring_identity_carried(self):
        assert ring_poly(7, 0.3).beta_lambda == 0.3
        assert synthetic_palindrome().beta_lambda is None
        with pytest.raises(ValueError, match="beta_lambda"):
            PartitionPolynomial(np.array([1.0, 2.0, 2.0, 1.0]), 0.0, 1.0, beta_lambda=-1.0)

    def test_bruteforce_guard(self):
        with pytest.raises(ValueError, match="<= 24"):
            partition_coefficients_bruteforce(IsingRing(25))

    @settings(max_examples=30, deadline=None)
    @given(
        nb=st.integers(min_value=3, max_value=16),
        k=st.floats(min_value=0.0, max_value=3.0),
    )
    def test_closed_form_matches_enumeration(self, nb, k):
        ring = IsingRing(n_spins=nb, inverse_temperature=k)
        closed = partition_coefficients(ring)
        brute = partition_coefficients_bruteforce(ring)
        np.testing.assert_allclose(
            closed.coefficients, brute.coefficients, rtol=1e-12, atol=0.0
        )
        assert closed.scale_log == brute.scale_log
        assert closed.beta == brute.beta


class TestLeeYangZeroSetValidation:
    def test_rejects_unsorted(self):
        with pytest.raises(ValueError, match="sorted"):
            LeeYangZeroSet(np.array([TWO_PI - 1.0, 1.0]), 0.0, 1.0)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="inside"):
            LeeYangZeroSet(np.array([0.0, np.pi]), 0.0, 1.0)

    def test_rejects_broken_conjugate_closure(self):
        with pytest.raises(ValueError, match="conjugation"):
            LeeYangZeroSet(np.array([1.0, np.pi]), 0.0, 1.0)

    def test_rejects_negative_residual(self):
        with pytest.raises(ValueError, match="residual_bound"):
            LeeYangZeroSet(np.array([np.pi]), -1e-3, 1.0)

    def test_phases_frozen(self):
        zs = lee_yang_zeros(ring_poly(5, 0.5))
        with pytest.raises(ValueError):
            zs.phases[0] = 1.0

    def test_residuals_frozen(self):
        zs = lee_yang_zeros(ring_poly(5, 0.5))
        with pytest.raises(ValueError):
            zs.residuals[0] = 1.0

    @pytest.mark.parametrize(
        "residuals,bound,match",
        [
            ([0.0, 1e-12], 1e-12, "shape"),
            ([0.0, 1e-12, 0.0], 1e-13, "maximum"),
            ([-1e-12, 1e-12, 0.0], 1e-12, ">= 0"),
            ([np.nan, 1e-12, 0.0], 1e-12, ">= 0"),
        ],
    )
    def test_rejects_inconsistent_residuals(self, residuals, bound, match):
        phases = np.array([1.0, np.pi, TWO_PI - 1.0])
        with pytest.raises(ValueError, match=match):
            LeeYangZeroSet(phases, bound, 1.0, np.array(residuals))


class TestZeroExtraction:
    @pytest.mark.parametrize("nb", [4, 7, 10, 40, 100])
    @pytest.mark.parametrize("beta_lambda", [0.25, 2.0])
    def test_matches_transfer_oracle(self, nb, beta_lambda):
        zs = lee_yang_zeros(ring_poly(nb, beta_lambda))
        ref = transfer_phases(nb, beta_lambda)
        assert zs.phases.size == nb
        np.testing.assert_allclose(zs.phases, ref, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize(
        "nb,beta_lambda",
        [(4, 0.25), (7, 0.5), (10, 0.25), (10, 2.0), (40, 0.5), (40, 2.0)],
    )
    def test_matches_highprecision_roots(self, nb, beta_lambda):
        poly = ring_poly(nb, beta_lambda)
        zs = lee_yang_zeros(poly)
        moduli, phases = highprecision_roots(poly.coefficients)
        np.testing.assert_allclose(moduli, 1.0, rtol=0.0, atol=1e-8)
        np.testing.assert_allclose(zs.phases, phases, rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("nb,beta_lambda", [(9, 0.7), (13, 0.3)])
    def test_matches_roots_of_enumerated_polynomial(self, nb, beta_lambda):
        # enumeration and mpmath roots: neither the closed form nor the
        # transfer matrix enters the reference
        ring = IsingRing(n_spins=nb, inverse_temperature=beta_lambda)
        brute = partition_coefficients_bruteforce(ring)
        moduli, phases = highprecision_roots(brute.coefficients)
        np.testing.assert_allclose(moduli, 1.0, rtol=0.0, atol=1e-8)
        zs = lee_yang_zeros(partition_coefficients(ring))
        np.testing.assert_allclose(zs.phases, phases, rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("nb,beta_lambda", [(10, 0.5), (31, 2.0)])
    def test_coefficient_route_matches_transfer_route(self, nb, beta_lambda):
        ring = ring_poly(nb, beta_lambda)
        hand_built = PartitionPolynomial(ring.coefficients, ring.scale_log, ring.beta)
        np.testing.assert_allclose(
            lee_yang_zeros(hand_built).phases, lee_yang_zeros(ring).phases, rtol=0.0, atol=1e-12
        )
        w = np.linspace(-4.0, 4.0, 101)
        np.testing.assert_allclose(
            factor_values(hand_built, w), factor_values(ring, w), rtol=0.0, atol=1e-12
        )

    @pytest.mark.parametrize("nb", [6, 7])
    def test_infinite_temperature_degenerate(self, nb):
        zs = lee_yang_zeros(partition_coefficients(IsingRing(nb, inverse_temperature=0.0)))
        assert zs.phases.size == nb
        assert np.abs(zs.phases - np.pi).max() == 0.0
        assert zs.residual_bound < 1e-10

    def test_low_temperature_uniform_phases(self):
        zs = lee_yang_zeros(ring_poly(10, 10.0))
        n = np.arange(1, 11)
        expected = np.sort((2.0 * n - 1.0) * np.pi / 10.0)
        np.testing.assert_allclose(zs.phases, expected, rtol=0.0, atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(
        nb=st.integers(min_value=3, max_value=30),
        k=st.floats(min_value=0.05, max_value=5.0),
    )
    def test_count_closure_and_odd_pi(self, nb, k):
        zs = lee_yang_zeros(ring_poly(nb, k))
        assert zs.phases.size == nb
        mirrored = np.sort(TWO_PI - zs.phases)
        np.testing.assert_allclose(zs.phases, mirrored, rtol=0.0, atol=1e-9)
        if nb % 2 == 1:
            assert np.pi in zs.phases
        assert zs.residual_bound < 1e-10

    def test_antiferromagnetic_like_input_raises(self):
        # z^3 + 6 z^2 + 6 z + 1 has two real roots off the circle
        poly = PartitionPolynomial(np.array([1.0, 6.0, 6.0, 1.0]), 0.0, 1.0)
        with pytest.raises(RuntimeError, match="not a ferromagnetic"):
            lee_yang_zeros(poly)

    def test_hand_built_ring_past_resolution_fails_at_first_pass(self, monkeypatch):
        # at N_b = 100, beta*lambda = 0.25 the coefficient sum's rounding noise
        # already gives more sign changes than zeros on the coarsest grid;
        # finer nested grids only add more, so no second pass may run
        ring = ring_poly(100, 0.25)
        hand_built = PartitionPolynomial(ring.coefficients, ring.scale_log, ring.beta)
        calls = []
        evaluate = ising_bath._factor_values

        def spy(coeffs, angles):
            calls.append(angles.size)
            return evaluate(coeffs, angles)

        monkeypatch.setattr(ising_bath, "_factor_values", spy)
        with pytest.raises(RuntimeError, match="resolution limit") as info:
            lee_yang_zeros(hand_built)
        assert "partition_coefficients" in str(info.value)
        assert calls == [8 * 100]

    def test_hand_built_ring_within_resolution_keeps_all_phases(self):
        ring = ring_poly(40, 0.25)
        hand_built = PartitionPolynomial(ring.coefficients, ring.scale_log, ring.beta)
        zs = lee_yang_zeros(hand_built)
        assert zs.phases.size == 40
        # near the limit the noise already shifts the bracketed phases by ~4e-6
        np.testing.assert_allclose(zs.phases, lee_yang_zeros(ring).phases, rtol=0.0, atol=1e-5)

    def test_synthetic_palindrome_fallback(self):
        # not in the ring family, so this exercises coefficient-space bracketing
        zs = lee_yang_zeros(synthetic_palindrome())
        expected = np.sort(
            np.array([2.0, 2.6, 3.0, TWO_PI - 3.0, TWO_PI - 2.6, TWO_PI - 2.0])
        )
        np.testing.assert_allclose(zs.phases, expected, rtol=0.0, atol=1e-12)

    def test_residual_bound_large_ring(self):
        assert lee_yang_zeros(ring_poly(100, 0.5)).residual_bound < 1e-8

    @pytest.mark.parametrize(
        "poly",
        [ring_poly(7, 0.5), ring_poly(100, 0.25), ring_poly(1000, 5.0), synthetic_palindrome()],
        ids=["ring-7", "ring-100", "ring-1000", "hand-built"],
    )
    def test_per_zero_residuals(self, poly):
        zs = lee_yang_zeros(poly)
        roots = np.exp(1j * zs.phases)
        expected = np.abs(np.polyval(poly.coefficients[::-1], roots)) / poly.coefficients.sum()
        assert zs.residuals.tobytes() == expected.tobytes()
        assert zs.residual_bound == zs.residuals.max()

    def test_companion_roots_diagnostic(self):
        poly = ring_poly(10, 0.5)
        roots = companion_roots(poly)
        assert roots.size == 10
        np.testing.assert_allclose(np.abs(roots), 1.0, rtol=0.0, atol=1e-8)
        phases = np.sort(np.mod(np.angle(roots), TWO_PI))
        np.testing.assert_allclose(
            phases, lee_yang_zeros(poly).phases, rtol=0.0, atol=1e-9
        )


class TestDephasingFactor:
    def test_value_bound_enforced(self):
        with pytest.raises(ValueError, match="exceed 1"):
            DephasingFactor(value=1.5 + 0.0j, argument=0.0)

    def test_nonfinite_argument_rejected(self):
        poly = ring_poly(5, 0.5)
        with pytest.raises(ValueError, match="finite"):
            dephasing_factor(poly, np.inf)

    @pytest.mark.parametrize("hand_built", [False, True])
    @pytest.mark.parametrize("x", [np.inf, -np.inf, np.nan, float("nan"), np.float64(np.inf)])
    def test_nonfinite_x_rejected_on_both_routes(self, x, hand_built):
        poly = ring_poly(6, 0.5)
        if hand_built:
            poly = PartitionPolynomial(poly.coefficients, poly.scale_log, poly.beta)
        with pytest.raises(ValueError, match="x must be finite"):
            dephasing_factor(poly, x)

    @pytest.mark.parametrize(
        "value,argument,match",
        [
            (complex(np.nan, 0.0), 0.0, "value must be finite"),
            (complex(0.0, np.inf), 0.0, "value must be finite"),
            (complex(-np.inf, 0.0), 0.0, "value must be finite"),
            (0.5 + 0.0j, np.nan, "argument must be finite"),
            (0.5 + 0.0j, -np.inf, "argument must be finite"),
            (1.0 + 2e-9 + 0.0j, 0.0, "exceed 1"),
            (complex(0.0, -1.0 - 2e-9), 0.0, "exceed 1"),
        ],
    )
    def test_rejects_invalid_fields(self, value, argument, match):
        with pytest.raises(ValueError, match=match):
            DephasingFactor(value=value, argument=argument)

    def test_accepts_value_within_tolerance(self):
        assert DephasingFactor(value=1.0 + 5e-10 + 0.0j, argument=1.0).value.real > 1.0

    def test_unity_at_zero_field(self):
        factor = dephasing_factor(ring_poly(8, 0.7), 0.0)
        assert factor.value == 1.0 + 0.0j

    @settings(max_examples=40, deadline=None)
    @given(
        nb=st.integers(min_value=3, max_value=20),
        k=st.floats(min_value=0.05, max_value=3.0),
        x=st.floats(min_value=-50.0, max_value=50.0),
    )
    def test_real_even_bounded_periodic(self, nb, k, x):
        poly = ring_poly(nb, k)
        factor = dephasing_factor(poly, x)
        assert abs(factor.value.imag) < 1e-9
        assert abs(factor.value) <= 1.0 + 1e-9
        mirror = dephasing_factor(poly, -x)
        assert abs(factor.value - mirror.value) < 1e-12
        # shifting the rotation angle w = beta*x by pi flips the sign for odd rings
        shifted = dephasing_factor(poly, x + np.pi / poly.beta)
        parity = -1.0 if nb % 2 else 1.0
        assert abs(shifted.value - parity * factor.value) < 1e-9

    def test_vanishes_at_zero_phase_field(self):
        poly = ring_poly(10, 0.5)
        zs = lee_yang_zeros(poly)
        x = zs.phases[0] / (2.0 * poly.beta)
        assert abs(dephasing_factor(poly, x).value) < 1e-8

    @pytest.mark.parametrize("nb", [10, 100, 400])
    @pytest.mark.parametrize("beta_lambda", [0.5, 5.0, 20.0])
    def test_matches_highprecision_coefficient_sum(self, nb, beta_lambda):
        poly = ring_poly(nb, beta_lambda)
        phases = lee_yang_zeros(poly).phases
        generic = np.array([0.0, 0.05, 0.3, 1.0, 1.4, 2.2, 3.0, -0.7])
        # A vanishes at w = phi/2; probe within 1e-9 of four zeros
        near_zero = phases[[0, nb // 3, nb // 2, -1]] / 2.0 + np.array([1.0, -0.5, 0.3, -1.0]) * 1e-9
        w = np.concatenate([generic, near_zero])
        reference = mp_ring_factor(nb, beta_lambda, w)
        np.testing.assert_allclose(factor_values(poly, w), reference, rtol=0.0, atol=1e-12)

    def test_binomial_polynomial_gives_cosine_power(self):
        nb = 6
        coeffs = np.array([math.comb(nb, n) for n in range(nb + 1)], dtype=float)
        poly = PartitionPolynomial(coefficients=coeffs, scale_log=0.0, beta=1.0)
        for x in np.linspace(-2.0, 2.0, 17):
            factor = dephasing_factor(poly, x)
            assert abs(factor.value - np.cos(x) ** nb) < 1e-12

    @pytest.mark.parametrize("nb,beta_lambda", [(5, 0.3), (12, 1.5)])
    def test_product_form_agreement(self, nb, beta_lambda):
        poly = ring_poly(nb, beta_lambda)
        zs = lee_yang_zeros(poly)
        for x in np.linspace(-4.0, 4.0, 23):
            direct = dephasing_factor(poly, x).value
            product = dephasing_factor_product(zs, x).value
            assert abs(direct - product) < 1e-10

    def test_product_form_rejects_phase_at_axis(self):
        zs = LeeYangZeroSet(
            np.array([1e-13, np.pi, TWO_PI - 1e-13]), 0.0, 1.0
        )
        with pytest.raises(ValueError, match="positive real axis"):
            dephasing_factor_product(zs, 1.0)


class TestZeroTimes:
    def test_values(self):
        zs = lee_yang_zeros(ring_poly(6, 0.5))
        np.testing.assert_allclose(zero_times(zs, 0.01), zs.phases / 0.04, rtol=1e-15)

    @pytest.mark.parametrize("eta", [0.0, -0.5, np.nan])
    def test_rejects_bad_eta(self, eta):
        zs = lee_yang_zeros(ring_poly(6, 0.5))
        with pytest.raises(ValueError, match="eta"):
            zero_times(zs, eta)


# rings across both eigenvalue branches, odd and even N_b, N_b up to 4000 and
# beta*lambda from 0.05 to 186
SCALAR_RINGS = [
    (3, 0.05),
    (4, 0.5),
    (11, 2.0),
    (100, 0.25),
    (101, 5.0),
    (1000, 0.05),
    (3691, 20.0),
    (4000, 186.0),
]

SCALAR_FORMS = {
    "float": float,
    "numpy scalar": np.float64,
    "0-d array": lambda w: np.array(w),
}


def scalar_angles(poly):
    """w = 0, multiples of pi, every collapse angle and generic points."""
    collapse = lee_yang_zeros(poly).phases / 2.0
    pis = np.pi * np.array([-3.0, -1.0, 1.0, 2.0, 7.0, 1000.0])
    generic = np.random.default_rng(poly.degree).uniform(-20.0, 20.0, 64)
    return np.concatenate([[0.0, -0.0], pis, collapse, -collapse, generic])


def scalar_values(poly, angles, form):
    values = [factor_values(poly, form(float(w))) for w in angles]
    assert all(type(v) is np.float64 for v in values)
    return np.array(values)


class TestScalarRoute:
    @pytest.mark.parametrize("form", SCALAR_FORMS)
    @pytest.mark.parametrize("nb,beta_lambda", SCALAR_RINGS)
    def test_ring_scalar_bit_identical_to_array(self, nb, beta_lambda, form):
        poly = ring_poly(nb, beta_lambda)
        w = scalar_angles(poly)
        s2 = np.sin(w) ** 2
        q = math.exp(-4.0 * beta_lambda)
        # both eigenvalue branches are exercised
        assert np.any(s2 > q) and np.any(s2 <= q)
        reference = np.array([factor_values(poly, np.array([v]))[0] for v in w])
        scalar = scalar_values(poly, w, SCALAR_FORMS[form])
        np.testing.assert_array_equal(scalar.view(np.uint64), reference.view(np.uint64))
        np.testing.assert_array_equal(scalar.view(np.uint64), factor_values(poly, w).view(np.uint64))

    @pytest.mark.parametrize("form", SCALAR_FORMS)
    @pytest.mark.parametrize("nb,beta_lambda", [(3, 0.05), (4, 0.5), (11, 2.0), (100, 0.25)])
    def test_hand_built_scalar_bit_identical_to_array(self, nb, beta_lambda, form):
        ring = ring_poly(nb, beta_lambda)
        poly = PartitionPolynomial(ring.coefficients, ring.scale_log, ring.beta)
        w = scalar_angles(ring)
        reference = np.array([factor_values(poly, np.array([v]))[0] for v in w])
        scalar = scalar_values(poly, w, SCALAR_FORMS[form])
        np.testing.assert_array_equal(scalar.view(np.uint64), reference.view(np.uint64))

    @pytest.mark.parametrize("form", SCALAR_FORMS)
    def test_both_routes_return_the_same_types(self, form):
        ring = ring_poly(10, 0.5)
        hand_built = PartitionPolynomial(ring.coefficients, ring.scale_log, ring.beta)
        for poly in (ring, hand_built):
            assert type(factor_values(poly, SCALAR_FORMS[form](0.3))) is np.float64
            values = factor_values(poly, np.array([[0.1, 0.2], [0.3, 0.4]]))
            assert type(values) is np.ndarray and values.shape == (2, 2)

    @pytest.mark.parametrize("nb,beta_lambda", [(4, 0.5), (101, 5.0), (4000, 186.0)])
    def test_dephasing_factor_matches_array_route(self, nb, beta_lambda):
        poly = ring_poly(nb, beta_lambda)
        x = scalar_angles(poly)[:200] / poly.beta
        values = np.array([dephasing_factor(poly, float(v)).value for v in x])
        np.testing.assert_array_equal(values.imag, 0.0)
        np.testing.assert_array_equal(
            values.real.view(np.uint64), factor_values(poly, poly.beta * x).view(np.uint64)
        )
