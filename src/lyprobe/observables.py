"""Coherence, pairwise entanglement, and spin squeezing of dephased probes.

All three observables reduce to closed forms in the five X-state entries and
the dephasing factor.  One array-native kernel, ``x_state_observables``,
writes those forms once for both channels and any array of factors; the time
series and zero detection call it on arrays, the C_max fit at A = 1, and the
scalar functions ``coherence``, ``concurrence_channel_I``/``_II`` and
``spin_squeezing`` are thin wrappers that validate one factor and pack the
kernel's values into result types.  The generic density-matrix concurrence,
the independent route for cross-checks, is split the same way: the private
stack kernel ``_wootters_stack`` takes any (..., 4, 4) stack of density
matrices in one batched ``eigh`` and one batched ``svd``, and
``concurrence_generic`` is its wrapper for one matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channels import Channel, TwoQubitXState, _check_n_probes, _factor_value

# eigenvalues above this magnitude below zero indicate a genuinely non-PSD
# input rather than rounding noise
_PSD_FLOOR = -1e-9

# sigma_y kron sigma_y in the (|00>, |01>, |10>, |11>) basis
_SIGMA_YY = np.fliplr(np.diag([-1.0, 1.0, 1.0, -1.0])).astype(complex)
_SIGMA_YY.flags.writeable = False


@dataclass(frozen=True)
class ConcurrenceResult:
    """Wootters concurrence of a probe pair and its ensemble-rescaled value.

    ``lambdas`` are the four spin-flip singular values sorted descending;
    ``concurrence`` equals max(0, lambdas[0] - sum(lambdas[1:])) and
    ``rescaled`` is (N - 1) times that, the pairwise entanglement summed over
    one probe's N - 1 partners.
    """

    concurrence: float
    rescaled: float
    lambdas: np.ndarray

    def __post_init__(self) -> None:
        lams = np.asarray(self.lambdas, dtype=float)
        if lams.shape != (4,):
            raise ValueError(f"lambdas must have exactly 4 entries, got {lams.shape}")
        l0, l1, l2, l3 = values = lams.tolist()
        if not all(map(math.isfinite, values)) or min(values) < -1e-12:
            raise ValueError("lambdas must be finite and nonnegative")
        if l1 - l0 > 1e-12 or l2 - l1 > 1e-12 or l3 - l2 > 1e-12:
            raise ValueError("lambdas must be sorted descending")
        expected = max(0.0, l0 - l1 - l2 - l3)
        if abs(self.concurrence - expected) > 1e-9:
            raise ValueError("concurrence inconsistent with lambdas")
        if not (0.0 <= self.concurrence <= 1.0 + 1e-9):
            raise ValueError(f"concurrence must lie in [0, 1], got {self.concurrence}")
        if self.rescaled < -1e-12:
            raise ValueError(f"rescaled concurrence must be >= 0, got {self.rescaled}")
        lams.flags.writeable = False
        object.__setattr__(self, "lambdas", lams)


@dataclass(frozen=True)
class SqueezingReport:
    """Squeezing parameter, its entanglement-limited bound, and their gap.

    ``xi2`` is the transverse spin-squeezing parameter of the dephased
    ensemble; ``xi2_prime`` is 1 minus the rescaled concurrence, the value
    xi2 would take if squeezing tracked pairwise entanglement exactly;
    ``improvement`` is their difference and ``improvement_max`` its maximum
    over the physical factor range for the same initial state.
    """

    xi2: float
    xi2_prime: float
    improvement: float
    improvement_max: float

    def __post_init__(self) -> None:
        for name in ("xi2", "xi2_prime", "improvement", "improvement_max"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if abs(self.improvement - (self.xi2_prime - self.xi2)) > 1e-12:
            raise ValueError("improvement must equal xi2_prime - xi2")


class XStateObservables(NamedTuple):
    """Observables of a dephased X state, each broadcastable against A.

    ``lambdas`` holds the four spin-flip singular values unsorted:
    sqrt(v+ v-) + d_u, |sqrt(v+ v-) - d_u|, w + d_y and |w - d_y|, where
    d_u and d_y are the damped cross-coherence moduli.  ``rescaled`` is
    (N - 1) C and ``xi2_prime`` is 1 - (N - 1) C, the squeezing bound.
    """

    coherence: np.ndarray
    lambdas: tuple
    concurrence: np.ndarray
    xi2: np.ndarray
    rescaled: np.ndarray
    xi2_prime: np.ndarray


def x_state_observables(
    state: TwoQubitXState, channel: Channel, a, n_probes: int
) -> XStateObservables:
    """Coherence, spin-flip values, concurrence, xi^2 and its bound at factor(s) A.

    The channels differ only in how they damp the cross coherences: channel I
    scales |u| and |y| by A^2, channel II scales |u| by |A| and leaves y.
    The X pattern block-diagonalizes the spin-flip product, so the outer
    block gives sqrt(v+ v-) +- d_u and the inner block w +- d_y, and the
    concurrence is the largest value minus the other three.  xi^2 =
    1 + 2(N-1)(<s1+ s2-> - |<s1- s2->|) from the damped pair correlators,
    and xi'^2 = 1 - (N-1) C.

    ``a`` is a float or an array and is not validated.  The order of every
    operation is fixed: the bytes of the simulate CSV depend on it.
    """
    _check_n_probes(n_probes)
    mod_u = abs(state.u)
    mod_y = abs(state.y)
    root_vv = np.sqrt(state.v_plus * state.v_minus)
    if Channel(channel) is Channel.I:
        damp_u = a * a * mod_u
        damp_y = a * a * mod_y
        coh = 2.0 * a * a * (mod_u + mod_y)
        xi2 = 1.0 + 2.0 * (n_probes - 1) * a * a * (state.y - mod_u)
    else:
        damp_u = np.abs(a) * mod_u
        damp_y = mod_y
        coh = 2.0 * (np.abs(a) * mod_u + mod_y)
        xi2 = 1.0 + 2.0 * (n_probes - 1) * (state.y - np.abs(a) * mod_u)

    lam1 = root_vv + damp_u
    lam2 = np.abs(root_vv - damp_u)
    lam3 = state.w + damp_y
    lam4 = np.abs(state.w - damp_y)
    total = lam1 + lam2 + lam3 + lam4
    conc = np.maximum(0.0, 2.0 * np.maximum(lam1, lam3) - total)
    rescaled = (n_probes - 1) * conc
    return XStateObservables(coh, (lam1, lam2, lam3, lam4), conc, xi2, rescaled, 1.0 - rescaled)


def coherence(state: TwoQubitXState, channel: Channel, factor) -> float:
    """l1 off-diagonal coherence of the dephased pair, from initial entries.

    Channel I scales both cross coherences by A^2, so
    L = 2 A^2 (|u| + |y|); channel II damps only the double-flip coherence,
    L = 2 (|A' u| + |y|), which stays positive whenever y != 0.
    """
    # the coherence does not depend on the ensemble size; any N >= 2 serves
    return float(x_state_observables(state, channel, _factor_value(factor), 2).coherence)


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
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 density matrix, got shape {rho.shape}")
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
    """Wootters concurrence of an arbitrary two-qubit density matrix.

    Uses the Hermitian formulation: the lambdas are the square roots of the
    eigenvalues of sqrt(rho) rho_tilde sqrt(rho), with
    rho_tilde = (sigma_y kron sigma_y) conj(rho) (sigma_y kron sigma_y),
    computed as the singular values of sqrt(rho) sqrt(rho_tilde) so that
    near-zero lambdas keep absolute accuracy instead of inheriting the
    square root of eigensolver noise.  Density-matrix eigenvalues below
    -1e-9 raise; smaller negatives are rounding noise and are clamped.
    One matrix through ``_wootters_stack``, which takes a whole stack.
    """
    _check_n_probes(n_probes)
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 density matrix, got shape {rho.shape}")
    lams, conc = _wootters_stack(rho)
    conc = float(conc)
    return ConcurrenceResult(
        concurrence=conc,
        rescaled=(n_probes - 1) * conc,
        lambdas=lams,
    )


def _closed_form_concurrence(
    state: TwoQubitXState, channel: Channel, factor, n_probes: int
) -> ConcurrenceResult:
    values = x_state_observables(state, channel, _factor_value(factor), n_probes)
    return ConcurrenceResult(
        concurrence=float(values.concurrence),
        rescaled=float(values.rescaled),
        lambdas=np.sort(np.array(values.lambdas, dtype=float))[::-1],
    )


def concurrence_channel_I(state: TwoQubitXState, factor, n_probes: int) -> ConcurrenceResult:
    """Concurrence of the pair after independent-ring dephasing, closed form.

    With both cross coherences scaled by A^2 the spin-flip singular values
    are sqrt(v+ v-) +- A^2 |u| and w +- A^2 |y|; for the twisted ensemble
    (w = y) this collapses to C = 2 max{0, A^2 |u| - y, A^2 y - sqrt(v+ v-)}.
    """
    return _closed_form_concurrence(state, Channel.I, factor, n_probes)


def concurrence_channel_II(state: TwoQubitXState, factor, n_probes: int) -> ConcurrenceResult:
    """Concurrence of the pair after shared-ring dephasing, closed form.

    Only the double-flip coherence is damped: singular values
    sqrt(v+ v-) +- |A' u| and w +- |y|; for the twisted ensemble
    C = 2 max{0, |A' u| - y} until the shared bath erases the advantage.
    """
    return _closed_form_concurrence(state, Channel.II, factor, n_probes)


def spin_squeezing(
    state: TwoQubitXState, channel: Channel, factor, n_probes: int
) -> SqueezingReport:
    """Transverse squeezing of the dephased ensemble and its concurrence bound.

    The optimal transverse variance of a symmetric ensemble reduces to pair
    correlators: xi^2 = 1 + 2(N-1)(<s1+ s2-> - |<s1- s2->|).  Channel I
    scales both correlators by A^2, giving xi^2 = 1 - A^2 * 2(N-1)(|u| - y);
    channel II damps only the second, xi^2 = 1 + 2(N-1)(y - |A' u|).

    xi2_prime is defined as 1 minus the rescaled concurrence of the matching
    channel, so the report exposes the exact gap between squeezing and
    pairwise entanglement.  improvement_max is the gap's maximum over the
    factor range: channel I reaches 2(N-1)(1 - y/|u|) y at A^2 = y/|u|;
    for channel II the gap is never positive, so the maximum is 0.
    """
    channel = Channel(channel)
    values = x_state_observables(state, channel, _factor_value(factor), n_probes)
    au = abs(state.u)
    y = state.y
    if channel is Channel.I and au > 0.0:
        improvement_max = 2.0 * (n_probes - 1) * (1.0 - y / au) * y
    else:
        improvement_max = 0.0
    xi2 = float(values.xi2)
    xi2_prime = float(values.xi2_prime)
    return SqueezingReport(
        xi2=xi2,
        xi2_prime=xi2_prime,
        improvement=xi2_prime - xi2,
        improvement_max=improvement_max,
    )
