"""Ring polynomial coefficients, unit-circle zero phases, dephasing factors."""

import dataclasses
import functools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lyprobe import (
    Channel,
    DephasingFactor,
    IsingRing,
    LeeYangZeroSet,
    OatParameters,
    Scenario,
    dephasing_factor,
    detect_coherence_zeros,
    evolve_channel_I,
    lee_yang_zeros,
    oat_reduced_state,
    partition_coefficients,
    run_scenario,
    zero_times,
)

from lyprobe import ising_bath, verify
from lyprobe.ising_bath import factor_values, zero_certificates
from lyprobe.verify import dephasing_factor_product, partition_coefficients_bruteforce

from .oracles import (
    highprecision_roots,
    mp_phase_errors,
    mp_ring_factor,
    mp_transfer_factor,
    mp_transfer_newton_steps,
    ring_closed_form_loop,
    ring_coefficients_full_recurrence,
    transfer_phases,
)

TWO_PI = 2.0 * np.pi

# hand-computed from the block expansion at n_spins=4, beta*coupling=0.5:
# f1 = 4 q, f2 = 4 q + 2 q^2 with q = exp(-2)
FROZEN_NB4 = np.array(
    [1.0, 0.5413411329464508, 0.5779724107239192, 0.5413411329464508, 1.0]
)


def ring_at(nb, beta_lambda):
    return IsingRing(n_spins=nb, coupling=1.0, inverse_temperature=beta_lambda)


# the rings whose coefficients verify builds: its enumeration, coefficient
# structure, zero set and companion-root checks
VERIFY_RINGS = sorted(
    {(nb, bl) for nb in (3, 6, 10, 13) for bl in (0.0, 0.3, 1.0)}
    | {(nb, bl) for nb in (4, 7, 10, 40, 100) for bl in (0.25, 2.0, 10.0)}
)


def block_boundary_rings():
    """Rings at, one below and one above two block boundaries of the coefficient recurrence.

    The first block's width N_b // 2 - 1 at the cell budget (one row a block,
    and none that fits past it), and N_b // 2 at the largest ring whose rows
    all fit in the first block.
    """
    cells = ising_bath._RECURRENCE_CELLS
    one_block = max(half for half in range(2, cells) if cells // (half - 1) >= half - 1)
    halves = [cells + 1 + d for d in (-1, 0, 1)] + [one_block + d for d in (-1, 0, 1)]
    return [(2 * half + odd, bl) for half in halves for odd in (0, 1) for bl in (3.4, 200.0)]


# the full-recurrence rings: a grid of N_b x beta * lambda from both
# coefficient limits to past them, verify's rings and the block boundaries
EARLY_STOP_RINGS = list(
    dict.fromkeys(
        [(nb, bl) for bl in (0.0, 0.05, 0.5, 3.4, 12.0, 94.5, 150.0, 200.0) for nb in (3, 10, 101, 1000, 3691)]
        + VERIFY_RINGS
        + block_boundary_rings()
    )
)

# the rings on which the Newton step is bounded: N_b x beta * lambda
CERTIFICATE_GRID = [(nb, bl) for nb in (10, 100, 1000, 10_000) for bl in (0.05, 0.5, 5.0)]


def certificates(ring):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return zero_certificates(ring, lee_yang_zeros(ring).phases)


def central_difference_step(ring, w):
    """2 |A / A'| at arc angles w, A' by fourth-order central differences of factor_values.

    The step in w moves the arc phase theta = N_b gamma(w) by 1e-2
    (d theta / dw = N_b sin w / sqrt(sin^2 w - q)).
    """
    h = 1e-2 * np.sqrt(np.sin(w) ** 2 - ring._transfer[1]) / (ring.n_spins * np.sin(w))
    a = {m: factor_values(ring, w + m * h) for m in (-2, -1, 0, 1, 2)}
    slope = (8.0 * (a[1] - a[-1]) - (a[2] - a[-2])) / (12.0 * h)
    return 2.0 * np.abs(a[0] / slope)


class TestIsingRing:
    def test_defaults(self):
        ring = IsingRing(n_spins=5)
        assert ring.coupling == 1.0
        assert ring.inverse_temperature == 1.0

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
        for field in ("coupling", "inverse_temperature"):
            for value in (np.inf, np.nan):
                with pytest.raises(ValueError, match=f"{field} must be finite"):
                    IsingRing(n_spins=4, **{field: value})


class TestPartitionPolynomial:
    """The ring is its own partition polynomial: degree N_b, beta and beta_lambda."""

    def test_rejects_low_degree(self):
        with pytest.raises(ValueError, match="n_spins"):
            IsingRing(n_spins=2, inverse_temperature=0.5)

    @pytest.mark.parametrize("n_spins", [4.0, "4", None])
    def test_rejects_non_integer_degree(self, n_spins):
        with pytest.raises(ValueError, match="n_spins must be an integer"):
            IsingRing(n_spins=n_spins, inverse_temperature=0.5)

    def test_rejects_negative_beta(self):
        with pytest.raises(ValueError, match="inverse_temperature"):
            IsingRing(n_spins=3, inverse_temperature=-1.0)

    @pytest.mark.parametrize("beta", [np.nan, np.inf])
    def test_rejects_nonfinite_beta(self, beta):
        with pytest.raises(ValueError, match="inverse_temperature must be finite"):
            IsingRing(n_spins=3, inverse_temperature=beta)

    @pytest.mark.parametrize("beta_lambda", [-1.0, np.nan, np.inf])
    def test_rejects_invalid_beta_lambda(self, beta_lambda):
        # at unit coupling beta_lambda is the inverse temperature
        with pytest.raises(ValueError, match="inverse_temperature"):
            ring_at(3, beta_lambda)

    def test_rejects_beta_lambda_past_transfer_form(self):
        # exp(-2 * 372.6) underflows to 0: the real eigenvalue branch would
        # divide 0 by 0 at w = k pi
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="transfer form"):
                IsingRing(10, inverse_temperature=372.6)
            # finite factors whose product overflows to inf
            with pytest.raises(ValueError, match="transfer form"):
                IsingRing(10, coupling=1e200, inverse_temperature=1e200)
            with pytest.raises(ValueError, match="transfer form"):
                IsingRing(10, coupling=np.float64(1e200), inverse_temperature=np.float64(1e200))
        assert IsingRing(10, inverse_temperature=372.5).beta_lambda == 372.5

    def test_requires_beta_lambda(self):
        # beta_lambda is the ring's beta * coupling, never given on its own
        with pytest.raises(TypeError, match="beta_lambda"):
            IsingRing(3, beta_lambda=0.5)
        ring = IsingRing(3, coupling=0.7, inverse_temperature=0.3)
        assert ring.beta == 0.3
        assert ring.beta_lambda == 0.3 * 0.7

    def test_hashable_and_equal(self):
        ring = ring_at(7, 0.3)
        same = IsingRing(n_spins=7, coupling=1.0, inverse_temperature=0.3)
        assert ring == same
        assert hash(ring) == hash(same)
        assert len({ring, same, ring_at(7, 0.4)}) == 2
        assert ring != ring_at(8, 0.3)

    def test_coefficients_built_once(self):
        ring = ring_at(9, 0.5)
        assert ring.coefficients is ring.coefficients
        # the cached vector is not part of the identity
        assert ring == ring_at(9, 0.5)

    def test_coefficients_frozen(self):
        ring = ring_at(5, 0.5)
        with pytest.raises(ValueError):
            ring.coefficients[0] = 2.0

    def test_degree(self):
        assert ring_at(7, 0.3).coefficients.size == 8

    def test_partition_coefficients_is_the_ring(self):
        ring = ring_at(7, 0.3)
        assert partition_coefficients(ring) is ring

    @pytest.mark.parametrize(
        "nb,beta,coupling",
        [(200, 3.5, 2.0), (200, 0.7, 10.0), (100, 0.125, 2.0), (9, 0.3, 0.7), (40, 1e-3, 37.0)],
    )
    def test_a_ring_is_its_beta_lambda(self, nb, beta, coupling):
        # the zeros and the series read only beta * lambda, so the ring with
        # that product as its inverse temperature gives the same bits
        split = IsingRing(nb, coupling=coupling, inverse_temperature=beta)
        product = IsingRing(nb, inverse_temperature=beta * coupling)
        assert np.array_equal(lee_yang_zeros(split).phases, lee_yang_zeros(product).phases)
        probe = OatParameters(4, 1.2)
        for channel in (Channel.I, Channel.II):
            a, b = (
                run_scenario(Scenario(ring, probe, channel, 314.159, 4001))
                for ring in (split, product)
            )
            for name in ("times", "a_factor", "coherence", "concurrence_rescaled", "xi2", "xi2_prime"):
                assert np.array_equal(getattr(a, name), getattr(b, name)), name


class TestCoefficients:
    def test_frozen_small_ring(self):
        ring = ring_at(4, 0.5)
        np.testing.assert_allclose(ring.coefficients, FROZEN_NB4, rtol=1e-15)
        assert ring.beta == 0.5

    @pytest.mark.parametrize("nb", [5, 12])
    def test_infinite_temperature_is_binomial(self, nb):
        ring = IsingRing(nb, inverse_temperature=0.0)
        expected = np.array([math.comb(nb, n) for n in range(nb + 1)], dtype=float)
        assert np.array_equal(ring.coefficients, expected)

    def test_underflow_raises(self):
        ring = ring_at(10, 200.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="underflow"):
                ring.coefficients

    @pytest.mark.parametrize("nb", [101, 1000])
    @pytest.mark.parametrize("beta_lambda", [0.25, 2.0])
    def test_vectorised_recurrence_matches_scalar_loop(self, nb, beta_lambda):
        ring = ring_at(nb, beta_lambda)
        reference = ring_closed_form_loop(nb, np.exp(-4.0 * beta_lambda))
        assert np.array_equal(ring.coefficients, reference)

    @pytest.mark.parametrize(
        "nb,beta_lambda", [pytest.param(nb, bl, id=f"{bl}-{nb}") for nb, bl in EARLY_STOP_RINGS]
    )
    def test_early_stop_matches_full_recurrence(self, nb, beta_lambda):
        # the recurrence stops once every active term is 0, and runs in row
        # blocks; run to the end one row at a time, it gives the same bits, or
        # raises the same error
        ring = ring_at(nb, beta_lambda)
        try:
            reference = ring_coefficients_full_recurrence(nb, beta_lambda)
        except (OverflowError, ValueError) as exc:
            if beta_lambda == 200.0:
                assert isinstance(exc, ValueError) and "underflow" in str(exc)
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                ring.coefficients
            return
        assert beta_lambda != 200.0
        assert np.array_equal(ring.coefficients, reference)

    @pytest.mark.parametrize(
        "nb,beta_lambda", [(2000, 0.25), (1825, 0.121), (3090, 0.444), (1498, 0.25)]
    )
    def test_overflow_raises_up_front(self, nb, beta_lambda):
        ring = ring_at(nb, beta_lambda)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError) as info:
                ring.coefficients
        message = str(info.value)
        assert f"N_b={nb}" in message
        assert f"beta*lambda={beta_lambda:g}" in message
        assert "limit" in message

    def test_largest_ring_below_overflow_is_finite(self):
        # (1 + sqrt q)^N + (1 - sqrt q)^N first passes the double range at
        # N_b = 1498 for beta*lambda = 0.25
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ring = ring_at(1497, 0.25)
        assert np.all(np.isfinite(ring.coefficients))
        assert np.isfinite(ring.coefficients.sum())

    def test_ring_identity_carried(self):
        assert ring_at(7, 0.3).beta_lambda == 0.3

    def test_bruteforce_guard(self):
        with pytest.raises(ValueError, match="<= 24"):
            partition_coefficients_bruteforce(IsingRing(25))

    @settings(max_examples=30)
    @given(
        nb=st.integers(min_value=3, max_value=16),
        k=st.floats(min_value=0.0, max_value=3.0),
    )
    def test_closed_form_matches_enumeration(self, nb, k):
        assert verify._enumeration_deviation([IsingRing(n_spins=nb, inverse_temperature=k)]) <= 1e-12


class TestLeeYangZeroSetValidation:
    def test_rejects_unsorted(self):
        with pytest.raises(ValueError, match="sorted"):
            LeeYangZeroSet(np.array([TWO_PI - 1.0, 1.0]))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="inside"):
            LeeYangZeroSet(np.array([0.0, np.pi]))

    def test_rejects_broken_conjugate_closure(self):
        with pytest.raises(ValueError, match="conjugation"):
            LeeYangZeroSet(np.array([1.0, np.pi]))

    def test_conjugate_closure_tolerance_is_1e_9_absolute(self):
        LeeYangZeroSet(np.array([1.0, TWO_PI - 1.0 + 0.9e-9]))
        with pytest.raises(ValueError, match="closed under conjugation"):
            LeeYangZeroSet(np.array([1.0, TWO_PI - 1.0 + 1.1e-9]))
        # a multiset: repeated phases mirror onto their own copies
        LeeYangZeroSet(np.array([1.0, 1.0, np.pi, TWO_PI - 1.0, TWO_PI - 1.0]))
        with pytest.raises(ValueError, match="closed under conjugation"):
            LeeYangZeroSet(np.array([1.0, 1.0, TWO_PI - 1.0]))

    def test_phases_frozen(self):
        zs = lee_yang_zeros(ring_at(5, 0.5))
        with pytest.raises(ValueError):
            zs.phases[0] = 1.0

    def test_phases_are_the_whole_set(self):
        # the product form takes angles, so a zero set carries no temperature
        assert [f.name for f in dataclasses.fields(LeeYangZeroSet)] == ["phases"]


class TestZeroExtraction:
    @pytest.mark.parametrize("nb", [4, 7, 10, 40, 100])
    @pytest.mark.parametrize("beta_lambda", [0.25, 2.0])
    def test_matches_transfer_oracle(self, nb, beta_lambda):
        zs = lee_yang_zeros(ring_at(nb, beta_lambda))
        ref = transfer_phases(nb, beta_lambda)
        assert zs.phases.size == nb
        np.testing.assert_allclose(zs.phases, ref, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize(
        "nb,beta_lambda",
        [(4, 0.25), (7, 0.5), (10, 0.25), (10, 2.0), (40, 0.5), (40, 2.0)],
    )
    def test_matches_highprecision_roots(self, nb, beta_lambda):
        ring = ring_at(nb, beta_lambda)
        zs = lee_yang_zeros(ring)
        moduli, phases = highprecision_roots(ring.coefficients)
        np.testing.assert_allclose(moduli, 1.0, rtol=0.0, atol=1e-8)
        np.testing.assert_allclose(zs.phases, phases, rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("nb,beta_lambda", [(9, 0.7), (13, 0.3)])
    def test_matches_roots_of_enumerated_polynomial(self, nb, beta_lambda):
        # enumeration and mpmath roots: neither the closed form nor the
        # transfer matrix enters the reference
        ring = IsingRing(n_spins=nb, inverse_temperature=beta_lambda)
        brute = partition_coefficients_bruteforce(ring)
        moduli, phases = highprecision_roots(brute)
        np.testing.assert_allclose(moduli, 1.0, rtol=0.0, atol=1e-8)
        zs = lee_yang_zeros(ring)
        np.testing.assert_allclose(zs.phases, phases, rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("nb", [6, 7])
    def test_infinite_temperature_degenerate(self, nb):
        ring = IsingRing(nb, inverse_temperature=0.0)
        zs = lee_yang_zeros(ring)
        assert zs.phases.size == nb
        assert np.abs(zs.phases - np.pi).max() == 0.0
        assert verify._zero_set_deviation([ring]) < 1e-10
        # sin^2 w = q = 1 at every phase: the certificate is 0, not nan
        assert not certificates(ring).any()

    def test_low_temperature_uniform_phases(self):
        zs = lee_yang_zeros(ring_at(10, 10.0))
        n = np.arange(1, 11)
        expected = np.sort((2.0 * n - 1.0) * np.pi / 10.0)
        np.testing.assert_allclose(zs.phases, expected, rtol=0.0, atol=1e-12)

    @settings(max_examples=25)
    @given(
        nb=st.integers(min_value=3, max_value=30),
        k=st.floats(min_value=0.05, max_value=5.0),
    )
    def test_count_closure_and_odd_pi(self, nb, k):
        # verify's measurement checks the count and closure, and pi within 1e-12
        ring = ring_at(nb, k)
        assert verify._zero_set_deviation([ring]) < 1e-10
        if nb % 2 == 1:
            assert np.pi in lee_yang_zeros(ring).phases

    def test_residual_bound_large_ring(self):
        assert verify._zero_set_deviation([ring_at(100, 0.5)]) < 1e-8
        # the rings of one degree share one Horner loop: over lists that mix and
        # repeat degrees, each residual keeps its own np.polyval call's bits
        rng = np.random.default_rng(39)
        nbs = np.repeat(np.concatenate([[3, 200], rng.integers(3, 201, 14)]), 3)
        drawn = [ring_at(int(nb), float(bl)) for nb, bl in zip(nbs, rng.uniform(0.05, 10.0, nbs.size))]
        drawn = [drawn[i] for i in rng.permutation(len(drawn))]
        assert {ring.n_spins % 2 for ring in drawn} == {0, 1}
        battery = [ring_at(nb, bl) for nb in (4, 7, 10, 40, 100) for bl in (0.25, 2.0, 10.0)]
        for rings in (battery, drawn):
            degrees = {ring.n_spins for ring in rings}
            for group in [rings] + [[ring for ring in rings if ring.n_spins == nb] for nb in degrees]:
                residuals = [
                    np.abs(np.polyval(r.coefficients[::-1], np.exp(1j * lee_yang_zeros(r).phases))).max()
                    / r.coefficients.sum()
                    for r in group
                ]
                assert verify._zero_set_deviation(group) == max(residuals)

    @pytest.mark.parametrize(
        "ring",
        [
            ring_at(7, 0.5), ring_at(100, 0.25), ring_at(1000, 5.0), ring_at(9, 0.0),
            ring_at(10, 0.5), ring_at(40, 2.0), ring_at(7, 1e-6), ring_at(4000, 186.0), ring_at(10, 300.0),
        ],
        ids=[
            "ring-7", "ring-100", "ring-1000", "ring-9-binomial",
            "ring-10", "ring-40", "ring-7-edge", "ring-4000-near-underflow", "ring-10-past-underflow",
        ],
    )
    def test_per_zero_residuals(self, ring):
        # each zero's certificate is its Newton step |A / A'|, here with A' by
        # central differences: 0 where A rounds to exactly 0 and off the arc
        # (beta * lambda = 0).  The last two rings sit just below and past the
        # coefficients' underflow limit (beta * lambda ~186)
        w = 0.5 * lee_yang_zeros(ring).phases
        steps = certificates(ring)
        arc = np.sin(w) ** 2 > ring._transfer[1]
        assert arc.all() == (ring.beta_lambda > 0.0)
        assert not steps[~arc].any()
        w, steps = w[arc], steps[arc]
        exact = factor_values(ring, w) == 0.0
        assert not steps[exact].any() and exact.sum() <= 0.05 * w.size
        np.testing.assert_allclose(central_difference_step(ring, w[~exact]), steps[~exact], rtol=1e-6, atol=0.0)

    @pytest.mark.parametrize("nb,beta_lambda", CERTIFICATE_GRID)
    def test_certificate_bound(self, nb, beta_lambda):
        # O(N_b) and never underflowing: 10^4 at 0.05 and 0.5 is past the coefficient overflow
        steps = certificates(ring_at(nb, beta_lambda))
        assert steps.shape == (nb,)
        assert np.all(steps <= 1e-12)

    @pytest.mark.parametrize("nb,beta_lambda", [cell for cell in CERTIFICATE_GRID if cell[0] <= 1000])
    def test_certificate_tracks_the_phase_error(self, nb, beta_lambda):
        # the largest Newton step is within 10x of the largest error against 40-digit phases
        ring = ring_at(nb, beta_lambda)
        errors = mp_phase_errors(nb, beta_lambda, lee_yang_zeros(ring).phases)
        assert 0.1 <= certificates(ring).max() / errors.max() <= 10.0

    @pytest.mark.parametrize("phase", [np.inf, -np.inf, np.nan, 1e308])
    def test_nonfinite_phase_refused(self, phase):
        # the certificates share factor_values' angle check: a phase whose w,
        # or N_b * w (1e308 / 2 * 6), is not finite is refused before any
        # evaluation, with no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"the angle w must be finite, with a finite phase N_b \* w"):
                zero_certificates(ring_at(6, 0.5), np.array([1.0, phase]))

    def test_companion_roots_diagnostic(self):
        ring = ring_at(10, 0.5)
        roots = np.roots(ring.coefficients[::-1])
        assert roots.size == 10
        np.testing.assert_allclose(np.abs(roots), 1.0, rtol=0.0, atol=1e-8)
        phases = np.sort(np.mod(np.angle(roots), TWO_PI))
        np.testing.assert_allclose(
            phases, lee_yang_zeros(ring).phases, rtol=0.0, atol=1e-9
        )


def arc_rounding_allowance(ring, w):
    """First-order relative error of the Newton step -A/A' at arc angles w from rounding.

    sqrt(sin^2 w - q) carries the rounding of sin^2 w, 2^-53 sin^2 w / (sin^2 w -
    q) relative, large next to the arc edge.  It moves both 1/theta' and theta =
    N_b atan2(sqrt(sin^2 w - q), cos w), so log|cot theta / theta'| moves by
    1/root - N_b cos w / ((1 - q) sin theta cos theta) per unit of root; the
    phase split adds N_b ulp of pi to theta.
    """
    nb, q = ring.n_spins, ring._transfer[1]
    s2, c = np.sin(w) ** 2, np.cos(w)
    root = np.sqrt(s2 - q)
    theta = nb * np.arctan2(root, c)
    sin_cos = np.sin(theta) * np.cos(theta)
    per_root = np.abs(1.0 / root - nb * c / ((1.0 - q) * sin_cos))
    return 2.0**-53 * s2 / root * per_root + nb * 2.0**-53 * np.pi / np.abs(sin_cos)


class TestArcNewtonStep:
    """The Newton step -A/A' the detection solver reads, from the arc phase of A."""

    @pytest.mark.parametrize("nb,beta_lambda", [(10, 0.5), (97, 0.54), (300, 10.0), (1000, 0.5), (10_000, 0.5)])
    def test_step_matches_mpmath(self, nb, beta_lambda):
        # against -A/A' at 50 digits, A' by mpmath's derivative of the transfer
        # eigenvalue powers: 1e-12 relative, or 4x the first-order rounding error
        # of the arc phase where that is larger (next to the edge of large rings,
        # and where sin 2 theta -> 0; the error reaches 1.2x the estimate); at
        # 1e-6 ... 1e-12 rad inside both arc edges and a mirror past pi, and
        # across the arc
        ring = ring_at(nb, beta_lambda)
        edge = math.asin(math.sqrt(ring._transfer[1]))
        near = np.array([1e-6, 3e-7, 1e-7, 1e-9, 1e-12])
        w = np.concatenate(
            [
                edge + near,
                np.pi - edge - near,
                np.pi + edge + near,
                np.linspace(edge, np.pi - edge, 25)[1:-1],
                np.linspace(np.pi + edge, TWO_PI - edge, 9)[1:-1],
            ]
        )
        off_arc = np.array([0.0, 0.5 * edge, np.pi])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values, steps = ising_bath._factor_and_newton_steps(ring, np.concatenate([w, off_arc]))
            assert np.array_equal(values, factor_values(ring, np.concatenate([w, off_arc])))
        assert np.isnan(steps[w.size:]).all()
        expected = mp_transfer_newton_steps(nb, beta_lambda, w)
        error = np.abs(steps[: w.size] / expected - 1.0)
        assert np.all(error <= 1e-12 + 4.0 * arc_rounding_allowance(ring, w))


class TestDephasingFactor:
    # a factor is a plain tuple, checked where it is used: the channel layer
    # (channels._factor_value) refuses a value that is not finite or exceeds 1
    PAIR = oat_reduced_state(OatParameters(3, 1.0))

    def test_is_an_immutable_validated_tuple(self):
        keyword = DephasingFactor(value=-0.25, argument=1.5)
        positional = DephasingFactor(-0.25, 1.5)
        assert keyword == positional == (-0.25, 1.5)
        assert isinstance(keyword, tuple) and type(positional) is DephasingFactor
        assert (keyword.value, keyword.argument) == (-0.25, 1.5)
        assert hash(keyword) == hash(positional)
        assert DephasingFactor(0.5, 1.5) != keyword
        for name in ("value", "argument", "other"):
            with pytest.raises(AttributeError):
                setattr(keyword, name, 0.0)
        assert keyword == (-0.25, 1.5)
        # the message names the offending value
        with pytest.raises(ValueError, match=r"^\|factor\| must not exceed 1, got 1\.5$"):
            evolve_channel_I(self.PAIR, DephasingFactor(1.5, 0.0))

    def test_value_bound_enforced(self):
        with pytest.raises(ValueError, match="exceed 1"):
            evolve_channel_I(self.PAIR, DephasingFactor(value=1.5, argument=0.0))

    def test_replace_checks_as_the_constructor_does(self):
        # neither checks: the channel layer refuses what _replace built
        factor = DephasingFactor(0.5, 0.0)
        with pytest.raises(ValueError, match=r"^\|factor\| must not exceed 1, got 5\.0$"):
            evolve_channel_I(self.PAIR, factor._replace(value=5.0))
        replaced = factor._replace(value=-0.25)
        assert type(replaced) is DephasingFactor and replaced == (-0.25, 0.0)

    def test_make_checks_as_the_constructor_does(self):
        with pytest.raises(ValueError, match=r"^dephasing factor must be finite, got nan$"):
            evolve_channel_I(self.PAIR, DephasingFactor._make((math.nan, 1.0)))
        made = DephasingFactor._make(iter((0.5, 1.0)))
        assert type(made) is DephasingFactor and made == DephasingFactor(0.5, 1.0)

    def test_nonfinite_argument_rejected(self):
        ring = ring_at(5, 0.5)
        with pytest.raises(ValueError, match="finite"):
            dephasing_factor(ring, np.inf)

    @pytest.mark.parametrize("product", [False, True])
    @pytest.mark.parametrize("x", [np.inf, -np.inf, np.nan, float("nan"), np.float64(np.inf)])
    def test_nonfinite_x_rejected_on_both_routes(self, x, product):
        # the point API takes the field x, the product over zeros its angle
        # beta * x; both refuse it with factor_values' message
        ring = ring_at(6, 0.5)
        zeros = lee_yang_zeros(ring)
        with pytest.raises(ValueError, match="the angle w must be finite"):
            if product:
                dephasing_factor_product(zeros, ring.beta * x)
            else:
                dephasing_factor(ring, x)

    @pytest.mark.parametrize("x", [1e308, 5e307])
    def test_phase_past_double_range_rejected(self, x):
        # beta * x overflows at 1e308; at 5e307 only N_b * beta * x does.  Both
        # routes take the angle w = beta * x (a Python float, so inf without a
        # warning) and refuse it, or its phase N_b * w, with one message before
        # they evaluate anything
        ring = IsingRing(6, inverse_temperature=2.0, coupling=0.1)
        zeros = lee_yang_zeros(ring)
        w = ring.beta * x
        angle = r"the angle w must be finite, with a finite phase N_b \* w"
        calls = [
            lambda: dephasing_factor(ring, x),
            lambda: dephasing_factor_product(zeros, w),
            lambda: dephasing_factor_product(zeros, np.array([0.3, -w])),
        ]
        for call in calls:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=angle):
                    call()

    @pytest.mark.parametrize(
        "value,match",
        [
            (np.nan, "dephasing factor must be finite"),
            (np.inf, "dephasing factor must be finite"),
            (-np.inf, "dephasing factor must be finite"),
            (1.0 + 2e-9, "exceed 1"),
            (-1.0 - 2e-9, "exceed 1"),
        ],
        ids=["nan", "inf", "-inf", "1+2e-9", "-1-2e-9"],
    )
    def test_rejects_invalid_fields(self, value, match):
        with pytest.raises(ValueError, match=match):
            evolve_channel_I(self.PAIR, DephasingFactor(value=value, argument=0.0))

    def test_accepts_value_within_tolerance(self):
        factor = DephasingFactor(value=1.0 + 5e-10, argument=1.0)
        assert factor.value > 1.0
        # the channel layer clips it to 1
        assert evolve_channel_I(self.PAIR, factor) == evolve_channel_I(self.PAIR, 1.0)

    def test_every_output_is_finite_and_bounded(self):
        # what the channel layer checks holds for every factor dephasing_factor returns
        rng = np.random.default_rng(20261020)
        for _ in range(400):
            ring = IsingRing(int(rng.integers(3, 3000)), inverse_temperature=10.0 ** rng.uniform(-3, 2.5))
            x = np.float64(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-6, 6))
            factor = dephasing_factor(ring, x)
            assert type(factor.argument) is float and factor.argument == float(x)
            assert math.isfinite(factor.argument)
            assert math.isfinite(factor.value) and abs(factor.value) <= 1.0 + 1e-9

    def test_unity_at_zero_field(self):
        factor = dephasing_factor(ring_at(8, 0.7), 0.0)
        assert type(factor.value) is float and factor.value == 1.0

    @settings(max_examples=40)
    @given(
        nb=st.integers(min_value=3, max_value=20),
        k=st.floats(min_value=0.05, max_value=3.0),
        x=st.floats(min_value=-50.0, max_value=50.0),
    )
    def test_real_even_bounded_periodic(self, nb, k, x):
        ring = ring_at(nb, k)
        factor = dephasing_factor(ring, x)
        assert type(factor.value) is float
        assert abs(factor.value) <= 1.0 + 1e-9
        mirror = dephasing_factor(ring, -x)
        assert abs(factor.value - mirror.value) < 1e-12
        # shifting the rotation angle w = beta*x by pi flips the sign for odd rings
        shifted = dephasing_factor(ring, x + np.pi / ring.beta)
        parity = -1.0 if nb % 2 else 1.0
        assert abs(shifted.value - parity * factor.value) < 1e-9

    def test_vanishes_at_zero_phase_field(self):
        ring = ring_at(10, 0.5)
        zs = lee_yang_zeros(ring)
        x = zs.phases[0] / (2.0 * ring.beta)
        assert abs(dephasing_factor(ring, x).value) < 1e-8

    @pytest.mark.parametrize("nb", [10, 100, 400])
    @pytest.mark.parametrize("beta_lambda", [0.5, 5.0, 20.0])
    def test_matches_highprecision_coefficient_sum(self, nb, beta_lambda):
        ring = ring_at(nb, beta_lambda)
        phases = lee_yang_zeros(ring).phases
        generic = np.array([0.0, 0.05, 0.3, 1.0, 1.4, 2.2, 3.0, -0.7])
        # A vanishes at w = phi/2; probe within 1e-9 of four zeros
        near_zero = phases[[0, nb // 3, nb // 2, -1]] / 2.0 + np.array([1.0, -0.5, 0.3, -1.0]) * 1e-9
        w = np.concatenate([generic, near_zero])
        reference = mp_ring_factor(nb, beta_lambda, w)
        np.testing.assert_allclose(factor_values(ring, w), reference, rtol=0.0, atol=1e-12)

    def test_binomial_polynomial_gives_cosine_power(self):
        nb = 6
        ring = IsingRing(nb, inverse_temperature=0.0)
        binomial = np.array([math.comb(nb, n) for n in range(nb + 1)], dtype=float)
        assert np.array_equal(ring.coefficients, binomial)
        # beta = 0 maps every field to angle 0, so A is read at the angle itself
        w = np.linspace(-2.0, 2.0, 17)
        assert np.max(np.abs(factor_values(ring, w) - np.cos(w) ** nb)) < 1e-12

    @pytest.mark.parametrize("nb,beta_lambda", [(5, 0.3), (12, 1.5)])
    def test_product_form_agreement(self, nb, beta_lambda):
        ring = ring_at(nb, beta_lambda)
        zs = lee_yang_zeros(ring)
        for x in np.linspace(-4.0, 4.0, 23):
            direct = dephasing_factor(ring, x).value
            product = dephasing_factor_product(zs, ring.beta * x)
            assert abs(direct - product) < 1e-10

    def test_product_form_over_an_array_matches_point_calls(self):
        # the rings and angles of verify's factor-form check; the stacked
        # reduction may differ from a point call's in the last bit
        ws = np.linspace(0.0, 2.0 * np.pi, 41)
        for nb in (5, 10, 40):
            for bl in (0.5, 2.0):
                zs = lee_yang_zeros(IsingRing(nb, inverse_temperature=bl))
                stacked = dephasing_factor_product(zs, ws)
                points = np.array([dephasing_factor_product(zs, w) for w in ws])
                assert stacked.shape == ws.shape and stacked.dtype == complex
                assert np.abs(stacked - points).max() <= 1e-15
        grid = dephasing_factor_product(zs, ws.reshape(41, 1) * np.ones(3))
        assert np.array_equal(grid[:, 1], stacked)
        assert isinstance(dephasing_factor_product(zs, 1.0), complex)

    def test_product_form_rejects_phase_at_axis(self):
        zs = LeeYangZeroSet(np.array([1e-13, np.pi, TWO_PI - 1e-13]))
        with pytest.raises(ValueError, match="positive real axis"):
            dephasing_factor_product(zs, 1.0)


class TestZeroTimes:
    def test_values(self):
        zs = lee_yang_zeros(ring_at(6, 0.5))
        np.testing.assert_allclose(zero_times(zs, 0.01), zs.phases / 0.04, rtol=1e-15)

    # 1e-320: pi/(2 eta), the coherence period, overflows
    @pytest.mark.parametrize("eta", [0.0, -0.5, np.nan, np.inf, 1e-320, np.float64(1e-320)])
    def test_rejects_bad_eta(self, eta):
        zs = lee_yang_zeros(ring_at(6, 0.5))
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

# the same angle inside an array of finite ones: checked before anything is evaluated
ANGLE_FORMS = {**SCALAR_FORMS, "array": lambda w: np.array([[0.3, 1.0], [w, -2.0]])}


def scalar_angles(ring):
    """w = 0, multiples of pi, every collapse angle and generic points."""
    collapse = lee_yang_zeros(ring).phases / 2.0
    pis = np.pi * np.array([-3.0, -1.0, 1.0, 2.0, 7.0, 1000.0])
    generic = np.random.default_rng(ring.n_spins).uniform(-20.0, 20.0, 64)
    return np.concatenate([[0.0, -0.0], pis, collapse, -collapse, generic])


def scalar_values(ring, angles, form):
    values = [factor_values(ring, form(float(w))) for w in angles]
    assert all(type(v) is np.float64 for v in values)
    return np.array(values)


class TestScalarRoute:
    @pytest.mark.parametrize("form", SCALAR_FORMS)
    @pytest.mark.parametrize("nb,beta_lambda", SCALAR_RINGS)
    def test_ring_scalar_bit_identical_to_array(self, nb, beta_lambda, form):
        ring = ring_at(nb, beta_lambda)
        w = scalar_angles(ring)
        s2 = np.sin(w) ** 2
        q = math.exp(-4.0 * beta_lambda)
        # both eigenvalue branches are exercised
        assert np.any(s2 > q) and np.any(s2 <= q)
        reference = np.array([factor_values(ring, np.array([v]))[0] for v in w])
        scalar = scalar_values(ring, w, SCALAR_FORMS[form])
        np.testing.assert_array_equal(scalar.view(np.uint64), reference.view(np.uint64))
        np.testing.assert_array_equal(scalar.view(np.uint64), factor_values(ring, w).view(np.uint64))

    @pytest.mark.parametrize("form", SCALAR_FORMS)
    def test_both_routes_return_the_same_types(self, form):
        # a scalar gives an np.float64, an array an array of its shape
        ring = ring_at(10, 0.5)
        assert type(factor_values(ring, SCALAR_FORMS[form](0.3))) is np.float64
        values = factor_values(ring, np.array([[0.1, 0.2], [0.3, 0.4]]))
        assert type(values) is np.ndarray and values.shape == (2, 2)

    @pytest.mark.parametrize("nb,beta_lambda", [(4, 0.5), (101, 5.0), (4000, 186.0)])
    def test_dephasing_factor_matches_array_route(self, nb, beta_lambda):
        ring = ring_at(nb, beta_lambda)
        x = scalar_angles(ring)[:200] / ring.beta
        values = np.array([dephasing_factor(ring, float(v)).value for v in x])
        np.testing.assert_array_equal(
            values.view(np.uint64), factor_values(ring, ring.beta * x).view(np.uint64)
        )


def branch_boundary(q):
    """The largest w in [0, pi/2] with sin(w)**2 <= q, bisected on the float64 bit patterns.

    Positive doubles order like their bit patterns, so the search ends on the
    last float of the real branch; the next float is on the arc.
    """
    lo, hi = 0, int(np.float64(np.pi / 2.0).view(np.uint64))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        w = float(np.uint64(mid).view(np.float64))
        lo, hi = (mid, hi) if math.sin(w) ** 2 <= q else (lo, mid)
    return float(np.uint64(lo).view(np.float64))


def sweep_angles(ring):
    """5,000 seeded angles in [-20, 20], the branch boundary +-4 ulp, +-0, subnormals and 1e15."""
    q = math.exp(-4.0 * ring.beta_lambda)
    near = (np.array([branch_boundary(q)]).view(np.int64) + np.arange(-4, 5)).view(np.float64)
    s2 = np.sin(near) ** 2
    # the boundary points lie on both branches
    assert np.any(s2 <= q) and np.any(s2 > q)
    special = [0.0, -0.0, 5e-324, -2.5e-310, 1e15, -1e15]
    generic = np.random.default_rng(7919 + ring.n_spins).uniform(-20.0, 20.0, 5000)
    return np.concatenate([generic, near, -near, special])


class TestFloatRoute:
    """A scalar angle gets an array call's bits: on dephasing_factor's float route too."""

    @pytest.mark.parametrize("form", [*SCALAR_FORMS, "dephasing_factor"])
    @pytest.mark.parametrize("nb,beta_lambda", SCALAR_RINGS)
    def test_sweep_bit_identical_to_one_array_call(self, nb, beta_lambda, form):
        ring = ring_at(nb, beta_lambda)
        w = sweep_angles(ring)
        if form == "dephasing_factor":
            # dephasing_factor takes x and forms w = beta * x itself
            x = w / ring.beta
            values = np.array([dephasing_factor(ring, float(v)).value for v in x])
            reference = factor_values(ring, ring.beta * x)
        else:
            values = np.array([factor_values(ring, SCALAR_FORMS[form](float(v))) for v in w])
            reference = factor_values(ring, w)
        mismatched = np.flatnonzero(values.view(np.uint64) != reference.view(np.uint64))
        assert mismatched.size == 0, f"{mismatched.size} values differ, first near w = {w[mismatched[:5]]}"

    def test_math_sin_cos_give_the_bits_of_numpy(self):
        # the float route takes sin and cos from math and the array route from
        # numpy; both must be libm for the two routes to agree
        rng = np.random.default_rng(20201)
        w = np.concatenate([
            rng.uniform(-20.0, 20.0, 100_000),
            rng.choice([-1.0, 1.0], 100_000) * 10.0 ** rng.uniform(-30.0, 15.0, 100_000),
        ])
        for name, scalar, array in (("sin", math.sin, np.sin), ("cos", math.cos, np.cos)):
            expected = np.array([scalar(v) for v in w])
            differ = np.count_nonzero(array(w).view(np.uint64) != expected.view(np.uint64))
            assert differ == 0, (
                f"the float route assumes math.{name} == np.{name} bit for bit on float64; "
                f"they differ on {differ} of {w.size} angles with this numpy build"
            )

    @pytest.mark.parametrize("form", ANGLE_FORMS)
    @pytest.mark.parametrize(
        "w,shown", [(math.inf, "inf"), (-math.inf, "-inf"), (math.nan, "nan")]
    )
    def test_nonfinite_angle_rejected(self, w, shown, form):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as raised:
                factor_values(ring_at(6, 0.5), ANGLE_FORMS[form](w))
        assert str(raised.value) == (
            f"the angle w must be finite, with a finite phase N_b * w, got w = {shown} at N_b = 6"
        )

    def test_angle_with_overflowing_phase_rejected(self):
        # w is finite, but N_b * w, the phase the arc's cos and sin take, is not
        for w in (1e308, ANGLE_FORMS["array"](1e308)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError) as raised:
                    factor_values(ring_at(6, 0.5), w)
            assert str(raised.value) == (
                "the angle w must be finite, with a finite phase N_b * w, got w = 1e+308 at N_b = 6"
            )

    def test_empty_array(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert factor_values(ring_at(6, 0.5), np.empty((0, 3))).shape == (0, 3)


PHASE_STEP = 2.0**-20


def remainder_inputs():
    """+-0, +-k 2**-20, the doubles either side of +-2**32, 1e15, 5e307, subnormals, 10**6 seeded values."""
    k = np.array([1.0, 2.0, 3.0, 7.0, 1000.0, 2.0**20, 2.0**31 + 1.0, 2.0**52 - 1.0, 2.0**52])
    edge = (np.array([2.0**32]).view(np.int64) + np.arange(-4, 5)).view(np.float64)
    subnormal = np.array([5e-324, 1e-320, 2.5e-310, np.nextafter(2.2250738585072014e-308, 0.0)])
    large = np.array([1e15, 1e300, 5e307, np.finfo(float).max])
    rng = np.random.default_rng(20201018)
    seeded = np.concatenate([
        rng.uniform(-40.0, 40.0, 500_000),
        10.0 ** rng.uniform(-320.0, 308.0, 500_000),
    ])
    magnitudes = np.concatenate([[0.0], k * PHASE_STEP, edge, subnormal, large, seeded])
    return np.concatenate([magnitudes, -magnitudes])


class TestExactRemainder:
    """The array route splits the phase with an exact power-of-two remainder, not np.fmod."""

    def test_array_fmod_is_numpy_fmod_bit_for_bit(self):
        w = remainder_inputs()
        assert w.size > 1_000_000 and np.all(np.isfinite(w))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            low = ising_bath._pow2_fmod(w, PHASE_STEP)
            expected = np.fmod(w, PHASE_STEP)
        mismatched = np.flatnonzero(low.view(np.uint64) != expected.view(np.uint64))
        assert mismatched.size == 0, f"{mismatched.size} remainders differ, first at w = {w[mismatched[:5]]}"
        # the sign of a zero remainder is the sign of w, as fmod gives it
        assert np.array_equal(np.signbit(low[low == 0.0]), np.signbit(w[low == 0.0]))

    def test_array_fmod_keeps_the_input(self):
        w = np.array([-0.0, 3.5, -1e20])
        kept = w.copy()
        ising_bath._pow2_fmod(w, PHASE_STEP)
        assert np.array_equal(w.view(np.uint64), kept.view(np.uint64))

    @pytest.mark.parametrize("w", [5e307, -5e307, 2.0**32 + 2.0**-20, -1e15])
    def test_phase_near_the_limit_runs_on_both_routes(self, w):
        # N_b * w is finite at N_b = 3, but w * 2**20 is not always: the clip
        # keeps the array route free of overflow
        ring = ring_at(3, 0.05)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            array = factor_values(ring, np.array([w, 0.5]))
            point = factor_values(ring, w)
        assert math.isfinite(point) and abs(point) <= 1.0
        assert array[0].view(np.uint64) == point.view(np.uint64)


class TestRingConstants:
    """The transfer form's per-ring constants are built once per ring, not per point."""

    def test_point_calls_build_the_constants_once(self, monkeypatch):
        built = []
        original = IsingRing._transfer.func

        def counting(ring):
            built.append(ring)
            return original(ring)

        spy = functools.cached_property(counting)
        spy.__set_name__(IsingRing, "_transfer")
        monkeypatch.setattr(IsingRing, "_transfer", spy)
        ring = ring_at(40, 0.5)
        x = np.linspace(-3.0, 3.0, ring.n_spins)
        values = [dephasing_factor(ring, float(v)).value for v in x]
        assert built == [ring]
        # the array route and the scalar factor_values read the same constants
        reference = factor_values(ring, ring.beta * x)
        factor_values(ring, 0.7)
        assert built == [ring]
        assert np.array_equal(np.array(values).view(np.uint64), reference.view(np.uint64))
        # an equal ring is another instance and builds its own
        factor_values(ring_at(40, 0.5), 0.7)
        assert len(built) == 2

    @pytest.mark.parametrize("nb,beta_lambda", SCALAR_RINGS)
    def test_factor_is_exactly_one_at_zero(self, nb, beta_lambda):
        ring = ring_at(nb, beta_lambda)
        assert factor_values(ring, 0.0) == 1.0
        assert factor_values(ring, -0.0) == 1.0
        assert np.array_equal(factor_values(ring, np.zeros(3)), np.ones(3))
        assert dephasing_factor(ring, 0.0).value == 1.0


class TestSingleArrayRoute:
    """The package evaluates A on arrays; dephasing_factor alone runs floats."""

    @pytest.fixture
    def routes(self, monkeypatch):
        # the two branch helpers hold the pair-sum formulas; each call is kept
        # as (helper, type of its per-point s or s2)
        taken = []
        for name in ("_arc_phase", "_real_pair_sum"):
            original = getattr(ising_bath, name)

            def spy(*args, name=name, original=original):
                taken.append((name, type(args[3])))
                return original(*args)

            monkeypatch.setattr(ising_bath, name, spy)
        return taken

    def test_verify_battery_takes_no_float_route(self, routes):
        assert verify.run_checks(verbose=False)
        assert routes and all(kind is np.ndarray for _, kind in routes)

    def test_series_and_detection_take_no_float_route(self, routes):
        series = run_scenario(
            Scenario(
                ring=ring_at(40, 0.5),
                oat=OatParameters(3, np.pi / 2),
                channel=Channel.I,
                t_max=100.0,
                steps=4001,
            )
        )
        assert detect_coherence_zeros(series).size > 0
        assert routes and all(kind is np.ndarray for _, kind in routes)

    def test_point_api_is_the_float_route(self, routes, monkeypatch):
        ring = ring_at(6, 0.5)
        ring._transfer  # the ring's constants are built by an array call
        routes.clear()
        factor_values(ring, 0.3)
        # the array route's real sums, then its arc call on the empty arc points
        assert routes == [("_real_pair_sum", np.ndarray), ("_arc_phase", np.ndarray)]
        routes.clear()

        def refuse(*args):
            raise AssertionError("the point API evaluated an array")

        monkeypatch.setattr(ising_bath, "factor_values", refuse)
        monkeypatch.setattr(ising_bath, "_factor_split", refuse)
        # an arc point (a collapse angle) runs the arc formula inline, on floats
        arc = dephasing_factor(ring, lee_yang_zeros(ring).phases[1] / (2.0 * ring.beta))
        assert routes == []
        # a real-branch point (sin^2 w <= q) calls the pair sum once, on floats
        real = dephasing_factor(ring, 0.3)
        assert routes == [("_real_pair_sum", float)]
        assert type(arc.value) is float and type(real.value) is float

    def test_collapse_check_is_one_factor_call(self, monkeypatch):
        calls = []
        original = verify.factor_values

        def counting(ring, angles):
            calls.append(np.shape(angles))
            return original(ring, angles)

        monkeypatch.setattr(verify, "factor_values", counting)
        assert verify.check_zero_time_collapse() == "|A| <= 4.91e-16 at all predicted collapse times"
        # N_b = 7: one call on all seven collapse angles
        assert calls == [(7,)]


# beta * lambda from no arc (0) and a narrow arc (1e-3) to an edge that
# underflows to 0 (200, q = 0)
SPLIT_COUPLINGS = [0.0, 1e-3, 0.5, 5.0, 40.0, 200.0]
EDGE_OFFSETS = [10.0**-k for k in range(6, 13)]


@st.composite
def split_cases(draw):
    """A ring and 1-D angles: on the arc, real, mixed, all but one on the arc, one point, or at the edge."""
    ring = ring_at(draw(st.integers(3, 2000)), draw(st.sampled_from(SPLIT_COUPLINGS)))
    q = ring._transfer[1]
    edge = math.asin(math.sqrt(q))
    on_arc = st.floats(0.01, 0.99).map(lambda u: edge + u * (math.pi - 2.0 * edge))
    real = st.floats(-1.0, 1.0).map(lambda u: u * edge)
    # asin sqrt q and pi minus it, 1e-6 ... 1e-12 rad either side, and the last
    # float of the real branch with its neighbours
    last_real = np.array([branch_boundary(q)]).view(np.int64)
    near_edge = st.one_of(
        st.builds(
            lambda mirror, side, offset: (math.pi - edge if mirror else edge) + side * offset,
            st.booleans(),
            st.sampled_from([-1.0, 1.0]),
            st.sampled_from(EDGE_OFFSETS),
        ),
        st.integers(-2, 2).map(lambda d: float((last_real + d).view(np.float64)[0])),
    )
    kind = draw(st.sampled_from(["arc", "real", "mixed", "sparse", "single", "edge"]))
    point = {"arc": on_arc, "real": real, "edge": near_edge, "sparse": on_arc}.get(
        kind, st.one_of(on_arc, real, near_edge)
    )
    size = {"single": (1, 1), "sparse": (16, 40)}.get(kind, (2, 40))
    base = draw(st.lists(point, min_size=size[0], max_size=size[1]))
    if kind == "sparse":  # one point that may be real: A runs the arc formulas on every point
        base[draw(st.integers(0, len(base) - 1))] = draw(st.one_of(real, near_edge))
    # whole turns of pi either way keep sin^2 w, up to its rounding
    turns = draw(st.lists(st.integers(-2, 2), min_size=len(base), max_size=len(base)))
    return ring, np.array(base) + np.pi * np.array(turns)


class TestBranchSplit:
    """A, its Newton steps and the zero certificates share one split of the angles by branch."""

    @settings(max_examples=200)
    @given(split_cases())
    def test_split_keeps_each_value_and_step(self, case):
        ring, w = case
        off_arc = np.sin(w) * np.sin(w) <= ring._transfer[1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values, steps = ising_bath._factor_and_newton_steps(ring, w)
            expected = factor_values(ring, w)
            alone = np.array([factor_values(ring, w[i : i + 1])[0] for i in range(w.size)])
            certificates = zero_certificates(ring, 2.0 * w)
        # bit for bit, and a value does not depend on its array's branch mix
        assert np.array_equal(values.view(np.uint64), expected.view(np.uint64))
        assert np.array_equal(values.view(np.uint64), alone.view(np.uint64))
        assert np.array_equal(np.isnan(steps), off_arc)
        assert np.array_equal(certificates == 0.0, off_arc)


class TestPastCoefficientLimit:
    """Rings whose coefficient vector overflows or underflows: A and the phases still run."""

    @pytest.mark.parametrize("nb", [1200, 4000, 10_000])
    @pytest.mark.parametrize("beta_lambda", [0.05, 0.5])
    def test_factor_and_phases_past_overflow(self, nb, beta_lambda):
        ring = ring_at(nb, beta_lambda)
        # the coefficient sum passes the double range at N_b ~ 1,101 for
        # beta_lambda = 0.05 and ~ 2,265 for 0.5
        if (nb, beta_lambda) != (1200, 0.5):
            with pytest.raises(OverflowError):
                ring.coefficients
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            phases = lee_yang_zeros(ring).phases
            assert phases.size == nb
            # both eigenvalue branches, near w = 0 where A is not negligible,
            # and within 1e-9 of four collapse angles
            generic = np.array([0.0, 1e-4, 1e-3, 0.01, 0.03, 0.1, 0.3, 1.0, 1.4, 2.2, 3.0, -0.7])
            near_zero = phases[[0, nb // 3, nb // 2, -1]] / 2.0 + np.array([1.0, -0.5, 0.3, -1.0]) * 1e-9
            w = np.concatenate([generic, near_zero])
            values = factor_values(ring, w)
        np.testing.assert_allclose(values, mp_transfer_factor(nb, beta_lambda, w), rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("nb", [10, 101, 4000])
    @pytest.mark.parametrize("beta_lambda", [200.0, 300.0])
    def test_past_underflow_is_the_frozen_ring(self, nb, beta_lambda):
        # q = exp(-4 beta_lambda) underflows to 0: A = cos(N w), phases (2j - 1) pi / N
        ring = ring_at(nb, beta_lambda)
        with pytest.raises(ValueError, match="underflow"):
            ring.coefficients
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = np.linspace(-4.0, 4.0, 801)
            np.testing.assert_allclose(factor_values(ring, w), np.cos(nb * w), rtol=0.0, atol=1e-12)
            expected = (2.0 * np.arange(1, nb + 1) - 1.0) * np.pi / nb
            np.testing.assert_allclose(lee_yang_zeros(ring).phases, expected, rtol=0.0, atol=1e-12)
