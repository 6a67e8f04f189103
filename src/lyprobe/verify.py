"""Every independent cross-check route, and the invariant battery behind `lyprobe verify`.

The routes, which only this module runs: enumeration
(``partition_coefficients_bruteforce``), the product over zeros
(``dephasing_factor_product``), Kraus maps (``kraus_*``) and the generic
Wootters concurrence (``_wootters_stack``; ``concurrence_generic`` takes one
matrix).  Each check compares one layer with such a route, with companion
roots or with a series symmetry.  Where a test asserts a check's invariant
too, the arithmetic is one private measurement (``_*_deviation``,
``_identity_gap``, ``_period_mismatch``): it takes the sample as data and
returns the worst deviation, and the check and the test call it on their
own samples at their own tolerances.  The pair-layer measurements run the
production closed forms once per channel on an ``XStateStack``, each element
with the bits of its one-state call.  ``run_checks`` builds each ring cell
once a run and takes 0.013-0.022 s on a shared 2-vCPU Xeon VM (CPython
3.11.7, numpy 2.4.6); every check runs and reports, and `lyprobe verify`
exits 2 if any fails.
"""

from __future__ import annotations

import math
import tempfile
from contextvars import ContextVar, copy_context
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .channels import (
    Channel,
    ConcurrenceResult,
    OatParameters,
    TwoQubitXState,
    XStateStack,
    _check_n_probes,
    _factor_value,
    _oat_entries,
    coherence,
    evolve_channel_I,
    evolve_channel_II,
    oat_reduced_state,
    spin_squeezing,
    x_state_observables,
)
from .experiments import (
    _SERIES_COLUMNS,
    Scenario,
    coherence_period,
    detect_coherence_zeros,
    count_recovery_peaks,
    emit_csv,
    run_scenario,
    vanishing_domains,
    zero_times,
)
from .ising_bath import (
    IsingRing,
    LeeYangZeroSet,
    _check_angles,
    factor_values,
    lee_yang_zeros,
)


class CheckFailure(AssertionError):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def partition_coefficients_bruteforce(ring: IsingRing) -> np.ndarray:
    """Normalized coefficients by direct enumeration of all 2**n_spins configurations.

    Independent of the closed form: walks every spin configuration, counts
    down spins and domain walls with bit operations, and accumulates the
    Boltzmann weights relative to the all-up configuration, so both end
    coefficients are 1.  Intended as a cross-check; limited to n_spins <= 24.
    """
    nb = ring.n_spins
    if nb > 24:
        raise ValueError(f"brute force limited to n_spins <= 24, got {nb}")
    k = ring.beta_lambda
    counts = np.zeros(nb + 1)
    # chunk the configuration range to bound memory at large n_spins
    chunk = 1 << min(nb, 20)
    for start in range(0, 1 << nb, chunk):
        x = np.arange(start, start + chunk, dtype=np.uint64)
        rotated = (x >> np.uint64(1)) | ((x & np.uint64(1)) << np.uint64(nb - 1))
        walls = np.bitwise_count(x ^ rotated).astype(np.int64)
        down = np.bitwise_count(x).astype(np.int64)
        counts += np.bincount(down, weights=np.exp(-2.0 * k * walls), minlength=nb + 1)
    return counts


def dephasing_factor_product(zeros: LeeYangZeroSet, w):
    """Probe dephasing factor from the zero phases, product form, as a raw complex.

    A = exp(i*N*w) * prod_n (exp(-2*i*w) - exp(i*phi_n)) / (1 - exp(i*phi_n))
    at the rotation angles w of ``factor_values``.  The raw complex product:
    it agrees with the transfer form wherever both are well conditioned, and
    the caller sets the tolerance on its distance and its imaginary part.
    An array w gives an array, each element within the last bit of its point's.

    Raises:
        ValueError: if an angle or its phase N_b * w is not finite (the check
            of ``factor_values``), or any phase sits at the positive real axis
            (1 - exp(i*phi_n) vanishes, signalling an invalid set).
    """
    w = np.asarray(w, dtype=float)
    nb = zeros.phases.size
    _check_angles(nb, w)
    roots = np.exp(1j * zeros.phases)
    denom = 1.0 - roots
    if np.any(np.abs(denom) < 1e-12):
        raise ValueError("zero phase at the positive real axis: invalid zero set")
    zeta = np.exp(-2j * w)
    value = np.exp(1j * nb * w) * np.prod((zeta[..., None] - roots) / denom, axis=-1)
    return value if value.ndim else complex(value)


@dataclass(frozen=True)
class KrausSet:
    """A complete set of Kraus operators of one common square dimension, or a stack of sets.

    ``operators`` is stored as a copy in one read-only complex array: (k, d, d)
    for one set, or (..., k, d, d).  The set is not iterable; ``operators`` is.
    """

    operators: np.ndarray

    def __post_init__(self) -> None:
        try:
            ops = np.array(self.operators, dtype=complex)
        except ValueError:
            raise ValueError("operators must share one square shape") from None
        if ops.size == 0:
            raise ValueError("at least one Kraus operator required")
        if ops.ndim < 3 or ops.shape[-1] != ops.shape[-2]:
            raise ValueError("operators must share one square shape")
        if not np.isfinite(ops).all():
            raise ValueError("operators must be finite")
        # sum_i M_i^dag M_i must equal the identity within 1e-12, set by set
        total = np.einsum("...kji,...kjl->...il", ops.conj(), ops)
        if not np.abs(total - np.eye(ops.shape[-1])).max() <= 1e-12:
            raise ValueError("completeness violated: sum M^dag M != identity")
        ops.flags.writeable = False
        object.__setattr__(self, "operators", ops)

    @property
    def dim(self) -> int:
        return self.operators.shape[-1]


def _phase_flip(factor) -> np.ndarray:
    """Operators {sqrt((1+A)/2) I, sqrt((1-A)/2) sigma_z}, (2, 2, 2), or a stack (..., 2, 2, 2).

    An array is checked at its largest |A| or first NaN as one factor is; the
    square roots are correctly rounded, so each set keeps the bits of its own
    factor's.
    """
    a = _factor_value(factor)
    s, r = np.sqrt(0.5 * (1.0 + a)), np.sqrt(0.5 * (1.0 - a))
    ops = np.zeros((*np.shape(a), 2, 2, 2), dtype=complex)
    ops[..., 0, 0, 0] = ops[..., 0, 1, 1] = s
    ops[..., 1, 0, 0], ops[..., 1, 1, 1] = r, -r
    return ops


def kraus_channel_I(factor) -> KrausSet:
    """Single-qubit Kraus set realizing the independent-ring dephasing.

    u_local -> A u_local is a phase flip with probability (1 - A)/2, which
    {sqrt((1+A)/2) I, sqrt((1-A)/2) sigma_z} realizes for either sign of A.
    An array of factors gives a stack of sets, one per factor.
    """
    return KrausSet(operators=_phase_flip(factor))


def kraus_channel_II(factor) -> KrausSet:
    """Two-qubit Kraus set realizing the shared-ring dephasing.

    In the basis (|00>, |01>, |10>, |11>) the outer block {|00>, |11>} takes
    the phase flip of ``kraus_channel_I``, {sqrt((1+A')/2)(P00 + P11),
    sqrt((1-A')/2)(P00 - P11)}, and P01 + P10 passes the inner block
    untouched.  An array of factors gives a stack of sets, one per factor.
    """
    flip = _phase_flip(factor)
    ops = np.zeros((*flip.shape[:-3], 3, 4, 4), dtype=complex)
    ops[..., :2, ::3, ::3] = flip
    ops[..., 2, 1, 1] = ops[..., 2, 2, 2] = 1.0
    return KrausSet(operators=ops)


def kraus_tensor(left: KrausSet, right: KrausSet) -> KrausSet:
    """Tensor product set {L_i kron R_j}, acting on the joint system; set by set over a stack.

    Raises:
        ValueError: if the two stacks differ in shape.
    """
    stack = left.operators.shape[:-3]
    if right.operators.shape[:-3] != stack:
        raise ValueError(f"Kraus stacks of shapes {stack} and {right.operators.shape[:-3]} differ")
    dim = left.dim * right.dim
    ops = np.einsum("...aij,...bkl->...abikjl", left.operators, right.operators)
    return KrausSet(operators=ops.reshape(*stack, -1, dim, dim))


def kraus_apply(rho: np.ndarray, kraus: KrausSet) -> np.ndarray:
    """Apply sum_i M_i rho M_i^dag.

    ``rho`` is one d x d state, or a stack (..., d, d), one per set of a stack.
    Completeness is not checked again: a ``KrausSet`` checks it when built,
    and its operators are read-only.

    Raises:
        ValueError: if rho does not match the stack and the operators'
            dimension.
    """
    rho = np.asarray(rho, dtype=complex)
    ops = kraus.operators
    expected = ops.shape[:-3] + ops.shape[-2:]
    if rho.shape != expected:
        raise ValueError(f"rho shape {rho.shape} does not match {expected}")
    return (ops @ rho[..., None, :, :] @ ops.conj().swapaxes(-1, -2)).sum(-3)


# eigenvalues above this magnitude below zero indicate a genuinely non-PSD
# input rather than rounding noise
_PSD_FLOOR = -1e-9

# sigma_y kron sigma_y in the (|00>, |01>, |10>, |11>) basis
_SIGMA_YY = np.fliplr(np.diag([-1.0, 1.0, 1.0, -1.0])).astype(complex)
_SIGMA_YY.flags.writeable = False


def _wootters_stack(rho) -> tuple[np.ndarray, np.ndarray]:
    """Sorted Wootters lambdas and concurrence of each matrix in a (..., 4, 4) stack.

    The generic route behind ``concurrence_generic``: one batched ``eigh``
    and one batched ``svd`` for the whole stack, each matrix computed by the
    same operations as a single call, so every element carries a single
    call's bits.  The Hermitian, unit-trace and PSD-floor checks run on
    every matrix and raise the single-call message of the first that fails.
    Returns lambdas of shape (..., 4), sorted descending, and the
    concurrences, of shape (...).
    """
    rho = np.asarray(rho, dtype=complex)
    # the largest deviation over the stack: nan fails the comparison too
    if not np.abs(rho - rho.conj().swapaxes(-1, -2)).max() <= 1e-9:
        raise ValueError("density matrix must be Hermitian")
    if abs(rho.trace(axis1=-2, axis2=-1).real - 1.0).max() > 1e-9:
        raise ValueError("density matrix must have unit trace")

    evals, vecs = np.linalg.eigh(rho)
    if evals.min() < _PSD_FLOOR:
        lowest = evals.min(axis=-1).ravel()
        first = lowest[lowest < _PSD_FLOOR][0]
        raise ValueError(f"density matrix not positive semidefinite: eigenvalue {first}")
    root_evals = np.sqrt(np.maximum(evals, 0.0))[..., None, :]
    sqrt_rho = (vecs * root_evals) @ vecs.conj().swapaxes(-1, -2)

    # sqrt(rho_tilde) = S conj(sqrt(rho)) S for S = sigma_y kron sigma_y, so the
    # Wootters lambdas are singular values of one small product
    sqrt_tilde = _SIGMA_YY @ sqrt_rho.conj() @ _SIGMA_YY
    lams = np.linalg.svd(sqrt_rho @ sqrt_tilde, compute_uv=False)
    conc = np.maximum(0.0, lams[..., 0] - lams[..., 1] - lams[..., 2] - lams[..., 3])
    return lams, conc


def concurrence_generic(rho: np.ndarray, n_probes: int = 2) -> ConcurrenceResult:
    """Wootters concurrence of an arbitrary two-qubit density matrix: ``_wootters_stack`` on one matrix.

    The lambdas are the singular values of sqrt(rho) sqrt(rho_tilde), with
    rho_tilde = (sigma_y kron sigma_y) conj(rho) (sigma_y kron sigma_y), so
    near-zero lambdas keep absolute accuracy instead of inheriting the square
    root of eigensolver noise.  Eigenvalues below ``_PSD_FLOOR`` (-1e-9) raise.
    """
    _check_n_probes(n_probes)
    if np.shape(rho) != (4, 4):
        raise ValueError(f"expected a 4x4 density matrix, got shape {np.shape(rho)}")
    lams, conc = _wootters_stack(rho)
    lams.flags.writeable = False
    conc = float(conc)
    return ConcurrenceResult(concurrence=conc, rescaled=(n_probes - 1) * conc, lambdas=lams)


# one run_checks call's cell table, set only in the context its checks run in, which ends with
# the run; outside it each call gets a new table, so a check called on its own builds its own rings
_RUN_CELLS: ContextVar[dict] = ContextVar("_RUN_CELLS")


def _cell(build, *args, **kwargs):
    """``build(*args, **kwargs)``, made once per distinct call in a ``run_checks`` run, anew outside one."""
    cells, key = _RUN_CELLS.get({}), (build, args, tuple(kwargs.items()))
    return cells[key] if key in cells else cells.setdefault(key, build(*args, **kwargs))


def _enumeration_deviation(rings) -> float:
    """Worst |closed - brute| / brute over the coefficients of the rings, brute by enumeration."""
    worst = 0.0
    for ring in rings:
        brute = partition_coefficients_bruteforce(ring)
        worst = max(worst, float(np.max(np.abs(ring.coefficients - brute) / brute)))
    return worst


def check_coefficients_vs_enumeration() -> str:
    rings = [IsingRing(nb, inverse_temperature=beta) for nb in (3, 6, 10, 13) for beta in (0.0, 0.3, 1.0)]
    worst = _enumeration_deviation(rings)
    _require(worst <= 1e-12, f"closed form vs enumeration relative error {worst}")
    return f"max relative deviation {worst:.2e}"


def check_coefficient_structure() -> str:
    for nb in (10, 40, 100):
        for bl in (0.25, 2.0, 10.0):
            coeffs = _cell(IsingRing, nb, inverse_temperature=bl).coefficients
            _require(bool(np.all(coeffs == coeffs[::-1])), f"palindrome broken nb={nb}")
            _require(coeffs[0] == 1.0 and coeffs[-1] == 1.0, f"end coefficients nb={nb}")
            _require(bool(np.all(coeffs > 0.0)), f"positivity broken nb={nb}")
    return "palindromic, positive, unit ends up to degree 100"


def _zero_set_deviation(rings) -> float:
    """Worst |P(e^{i phi})| / P(1) on the rings' zero sets, each N_b phases, closed, pi on odd N_b.

    The rings of one degree share one Horner loop in polyval's order: each residual keeps its bits.
    """
    degrees = {}
    for ring in rings:
        nb, phases = ring.n_spins, _cell(lee_yang_zeros, ring).phases
        _require(phases.size == nb, f"zero count {phases.size} != {nb}")
        closed = np.abs(phases - np.sort(2.0 * np.pi - phases)).max() <= 1e-9
        _require(bool(closed), f"conjugate closure broken nb={nb} bl={ring.beta_lambda}")
        _require(nb % 2 == 0 or np.abs(phases - np.pi).min() <= 1e-12, f"odd ring missing phase pi nb={nb}")
        degrees.setdefault(nb, []).append((ring.coefficients, phases))
    worst = 0.0
    for cells in degrees.values():
        coeffs, phases = map(np.array, zip(*cells))
        x = np.exp(1j * phases)
        value = np.zeros_like(x)
        for column in coeffs.T[::-1, :, None]:  # highest degree first, as polyval reads coeffs[::-1]
            value = np.add(np.multiply(value, x, out=value), column, out=value)
        worst = max(worst, float((np.abs(value).max(axis=1) / coeffs.sum(axis=1)).max()))
    return worst


def check_zero_set_geometry() -> str:
    cells = [(nb, bl) for nb in (4, 7, 10, 40, 100) for bl in (0.25, 2.0, 10.0)]
    worst_res = _zero_set_deviation([_cell(IsingRing, nb, inverse_temperature=bl) for nb, bl in cells])
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
        ring = _cell(IsingRing, nb, inverse_temperature=bl)
        roots = np.roots(ring.coefficients[::-1])
        worst_mod = max(worst_mod, float(np.max(np.abs(np.abs(roots) - 1.0))))
        angles = np.sort(np.mod(np.angle(roots), 2.0 * np.pi))
        phases = _cell(lee_yang_zeros, ring).phases
        worst_phase = max(worst_phase, float(np.max(np.abs(angles - phases))))
    _require(worst_mod <= 1e-8, f"companion modulus deviation {worst_mod}")
    _require(worst_phase <= 1e-8, f"companion phase deviation {worst_phase}")
    return f"modulus dev {worst_mod:.2e}, phase dev {worst_phase:.2e}"


def check_factor_form_agreement() -> str:
    # both routes take one whole grid of angles, the transfer route with point-call bits
    w = np.linspace(0.0, 2.0 * np.pi, 41)
    worst = 0.0
    for nb in (5, 10, 40):
        for bl in (0.5, 2.0):
            ring = _cell(IsingRing, nb, inverse_temperature=bl)
            transfer = factor_values(ring, w)
            product = dephasing_factor_product(_cell(lee_yang_zeros, ring), w)
            worst = max(worst, float(np.abs(transfer - product).max()))
    _require(worst <= 1e-8, f"factor form disagreement {worst}")
    # the decade above worst, not its digits, which numpy's AVX-512 and AVX2 loops round differently
    return f"transfer vs product forms agree below 1e{math.floor(math.log10(worst)) + 1}"


def check_factor_symmetry() -> str:
    ring = IsingRing(n_spins=9, inverse_temperature=0.7)
    w = np.linspace(-2.8, 2.8, 1001)
    values = factor_values(ring, w)
    _require(
        values.dtype == np.float64 and bool(np.all(np.isfinite(values))),
        "factor route did not return finite float64 values",
    )
    _require(bool(np.allclose(values, values[::-1], rtol=0.0, atol=1e-12)), "factor not even in w")
    _require(float(np.max(np.abs(values))) <= 1.0 + 1e-12, "|A| exceeded 1")
    # an odd ring flips the sign over half a period of w
    shifted = (-1.0) ** ring.n_spins * factor_values(ring, w + np.pi)
    _require(float(np.max(np.abs(shifted - values))) <= 1e-9, "periodicity broken")
    return "real, even, bounded, periodic"


def check_zero_time_collapse() -> str:
    ring = IsingRing(n_spins=7, inverse_temperature=0.5)
    eta = 0.01
    # channel-I angle at every collapse time, in one call
    w = Channel.I.rate * eta * zero_times(_cell(lee_yang_zeros, ring), eta)
    worst = float(np.abs(factor_values(ring, w)).max())
    _require(worst <= 1e-9, f"factor at collapse times {worst}")
    return f"|A| <= {worst:.2e} at all predicted collapse times"


def _random_probes(seed: int, count: int, n_stop: int) -> tuple[XStateStack, np.ndarray]:
    """``count`` pair states and factors A, three seeded array draws; N in [2, n_stop), theta in (0, pi)."""
    rng = np.random.default_rng(seed)
    ns, thetas = rng.integers(2, n_stop, count).tolist(), rng.uniform(0.05, np.pi - 0.05, count).tolist()
    factors = rng.uniform(-1.0, 1.0, count)
    # one _oat_entries call a state keeps its libm bits, which a stacked np.power does not
    return XStateStack(*map(np.array, zip(*map(_oat_entries, ns, thetas)))), factors


def _closed_form_matrices(stack: XStateStack, factors: np.ndarray) -> np.ndarray:
    """Each state of the stack after channel I, then after channel II, as a (2, count, 4, 4) stack."""
    return np.array([evolve(stack, factors).to_matrix() for evolve in (evolve_channel_I, evolve_channel_II)])


def _kraus_deviation(stack: XStateStack, factors: np.ndarray) -> tuple[float, np.ndarray]:
    """Worst |Kraus image - closed form| entry over both channels, and the (2, count, 4, 4) images."""
    rhos = stack.to_matrix()
    single = kraus_channel_I(factors)
    sets = (kraus_tensor(single, single), kraus_channel_II(factors))
    images = np.array([kraus_apply(rhos, kraus) for kraus in sets])
    return float(np.abs(images - _closed_form_matrices(stack, factors)).max()), images


def _concurrence_deviation(stack: XStateStack, factors: np.ndarray, matrices: np.ndarray) -> float:
    """Worst |generic - closed-form| concurrence over both channels, the generic route on ``matrices``."""
    _, generic = _wootters_stack(matrices)
    # the concurrence does not depend on the ensemble size; any N >= 2 serves
    closed = [x_state_observables(stack, channel, factors, 2).concurrence for channel in Channel]
    return float(np.max(np.abs(generic - closed)))


def check_channels_closed_vs_kraus() -> str:
    worst, _ = _kraus_deviation(*_random_probes(7, 100, 9))
    _require(worst <= 1e-12, f"Kraus vs closed-form deviation {worst}")
    return f"both channels, signed factors, deviation {worst:.2e}"


def check_wootters_generic_vs_closed() -> str:
    stack, factors = _random_probes(11, 200, 7)
    worst = _concurrence_deviation(stack, factors, _closed_form_matrices(stack, factors))
    _require(worst <= 1e-10, f"generic vs closed concurrence deviation {worst}")
    return f"200 random states per channel, deviation {worst:.2e}"


def check_coherence_properties() -> str:
    state = oat_reduced_state(OatParameters(4, 1.1))
    factors = np.linspace(-1.0, 1.0, 81)
    order = np.argsort(np.abs(factors))
    for channel in (Channel.I, Channel.II):
        # the array kernel gives the bits the coherence wrapper gives point by point
        values = x_state_observables(state, channel, factors, 4).coherence
        _require(
            bool(np.all(np.diff(values[order]) >= -1e-12)),
            f"coherence not monotone in |A| for channel {channel.value}",
        )
    floor = 2.0 * abs(state.y)
    _require(abs(coherence(state, Channel.II, 0.0) - floor) <= 1e-12, "shared-bath coherence floor wrong")
    _require(floor > 0.0, "expected positive coherence floor")
    return "monotone in |A|; shared-bath floor 2y"


def _identity_gap(state: TwoQubitXState, factors, values) -> float:
    """Worst |xi2 - xi2_prime| of shared-bath ``values`` where |A u0| >= y0, which some factor must meet."""
    damped = np.abs(factors) * abs(state.u) >= state.y
    _require(bool(damped.any()), "no factor in the damped regime |A u0| >= y0")
    return float(np.abs(values.xi2 - values.xi2_prime)[damped].max())


def check_squeezing_identities() -> str:
    # the array kernel gives the bits spin_squeezing and the concurrence
    # wrappers give point by point
    n = 5
    state = oat_reduced_state(OatParameters(n, np.pi / 3))
    a = np.linspace(-1.0, 1.0, 101)
    worst_identity = _identity_gap(state, a, x_state_observables(state, Channel.II, a, n))
    _require(worst_identity <= 1e-12, f"shared-bath identity broken {worst_identity}")

    # the gap is piecewise linear in A^2 with its kink at A^2 = y/|u|, so the
    # scan must include that point to attain the closed-form maximum
    factors = np.sort(np.append(np.linspace(0.0, 1.0, 2001), np.sqrt(state.y / abs(state.u))))
    own = x_state_observables(state, Channel.I, factors, n)
    gaps = own.xi2_prime - own.xi2
    _require(bool(np.all(gaps >= -1e-12)), "improvement negative under channel I")
    closed_max = spin_squeezing(state, Channel.I, 1.0, n).improvement_max
    _require(
        abs(gaps.max() - closed_max) <= 1e-12,
        f"improvement maximum off: grid {gaps.max()} closed {closed_max}",
    )
    return f"identity {worst_identity:.2e}; improvement max attained at A^2 = y/|u|"


def _period_mismatch(series) -> float:
    """Worst |f(t + T) - f(t)| over the series columns, on an odd step count spanning two periods T."""
    half = series.times.size // 2
    columns = [getattr(series, name) for name in _SERIES_COLUMNS[1:]]
    return max(float(np.abs(values[half:] - values[: half + 1]).max()) for values in columns)


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
    _require(_period_mismatch(series) <= 1e-8, "period property broken")
    _require(abs(series.a_factor[0] - 1.0) <= 1e-12, "A(0) != 1")

    detected = detect_coherence_zeros(series)
    predicted = zero_times(_cell(lee_yang_zeros, scenario.ring), eta)
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
            bool(np.allclose(np.sort(centers), mirrored, rtol=0.0, atol=2.0 * step)),
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
    # the numpy kernel against Python's own formatting, on this machine's build
    rows = np.column_stack([getattr(series, name) for name in _SERIES_COLUMNS])
    text = "".join(",".join("%.12g" % v for v in row) + "\n" for row in rows.tolist())
    _require(first.partition("\n")[2] == text, "CSV bytes differ from Python's '%.12g'")
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
    """Run every check, with one cell table for the run; report pass/fail per line; True when all pass."""
    all_ok = True
    run = copy_context()
    run.run(_RUN_CELLS.set, {})
    for name, fn in ALL_CHECKS:
        try:
            line = f"PASS  {name}: {run.run(fn)}"
        except CheckFailure as exc:
            line = f"FAIL  {name}: {exc}"
        except Exception as exc:  # noqa: BLE001 - surface unexpected breakage as failure
            line = f"FAIL  {name}: unexpected {type(exc).__name__}: {exc}"
        all_ok &= line.startswith("PASS")
        if verbose:
            print(line)
    return all_ok
