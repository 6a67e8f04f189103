"""Dephasing channels acting on a pair of probe qubits.

Two geometries are modelled.  Channel I couples every probe to its own
independent ring, so each qubit's coherences decay with the single-ring
dephasing factor and the pair coherences pick up the square.  Channel II
couples all probes to one shared ring, which only damps the double-flip
coherence between |00> and |11>.

Probe pairs start in the reduced state of a one-axis-twisted ensemble, which
is an X-state in the standard product basis; both channels preserve that
shape, so states are carried as their five independent X-state entries.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .ising_bath import DephasingFactor


class Channel(str, Enum):
    """Bath geometry: independent rings per probe (I) or one shared ring (II)."""

    I = "I"
    II = "II"


@dataclass(frozen=True)
class OatParameters:
    """One-axis-twisting preparation of the probe ensemble.

    Attributes:
        n_probes: ensemble size N >= 2.
        twist_angle: accumulated twisting angle theta (radians).
    """

    n_probes: int
    twist_angle: float

    def __post_init__(self) -> None:
        if not isinstance(self.n_probes, (int, np.integer)):
            raise ValueError(f"n_probes must be an integer, got {self.n_probes!r}")
        if self.n_probes < 2:
            raise ValueError(f"n_probes must be at least 2, got {self.n_probes}")
        if not math.isfinite(self.twist_angle):
            raise ValueError(f"twist_angle must be finite, got {self.twist_angle!r}")


@dataclass(frozen=True)
class TwoQubitXState:
    """Two-qubit X-state in the basis (|00>, |01>, |10>, |11>).

    v_plus and v_minus are the |00> and |11> populations, w the (equal)
    populations of |01> and |10>, y the real cross coherence <01|rho|10>, and
    u the double-flip coherence <00|rho|11>.  Validation enforces unit trace,
    nonnegative populations, and the X-state positivity conditions
    |y| <= w and |u| <= sqrt(v_plus * v_minus) up to numerical slack.
    """

    v_plus: float
    v_minus: float
    w: float
    y: float
    u: complex

    _ATOL = 1e-9

    def __post_init__(self) -> None:
        for name in ("v_plus", "v_minus", "w", "y"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not cmath.isfinite(self.u):
            raise ValueError(f"u must be finite, got {self.u!r}")
        trace = self.v_plus + self.v_minus + 2.0 * self.w
        if abs(trace - 1.0) > 1e-12:
            raise ValueError(f"trace must equal 1 within 1e-12, got {trace!r}")
        if min(self.v_plus, self.v_minus, self.w) < -self._ATOL:
            raise ValueError("populations must be nonnegative")
        if abs(self.y) > self.w + self._ATOL:
            raise ValueError("positivity violated: |y| exceeds w")
        if abs(self.u) ** 2 > self.v_plus * self.v_minus + self._ATOL:
            raise ValueError("positivity violated: |u| exceeds sqrt(v_plus*v_minus)")

    def to_matrix(self) -> np.ndarray:
        """Dense 4x4 density matrix in the (|00>, |01>, |10>, |11>) basis."""
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = self.v_plus
        rho[1, 1] = rho[2, 2] = self.w
        rho[3, 3] = self.v_minus
        rho[1, 2] = self.y
        rho[2, 1] = np.conj(self.y)
        rho[0, 3] = self.u
        rho[3, 0] = np.conj(self.u)
        return rho


@dataclass(frozen=True)
class KrausSet:
    """A complete set of Kraus operators of one common square dimension.

    ``operators`` is stored as a copy in one read-only complex (k, d, d)
    array; iterating it yields each d x d operator in turn.
    """

    operators: np.ndarray

    def __post_init__(self) -> None:
        try:
            ops = np.array(self.operators, dtype=complex)
        except ValueError:
            raise ValueError("operators must share one square shape") from None
        if ops.shape[:1] == (0,):
            raise ValueError("at least one Kraus operator required")
        if ops.ndim != 3 or ops.shape[1] != ops.shape[2]:
            raise ValueError("operators must share one square shape")
        if not np.isfinite(ops).all():
            raise ValueError("operators must be finite")
        _check_complete(ops)
        ops.flags.writeable = False
        object.__setattr__(self, "operators", ops)

    @property
    def dim(self) -> int:
        return self.operators.shape[1]


def _check_complete(ops: np.ndarray) -> None:
    """Raise unless sum_i M_i^dag M_i equals the identity within 1e-12."""
    total = np.einsum("kji,kjl->il", ops.conj(), ops)
    if not np.abs(total - np.eye(ops.shape[1])).max() <= 1e-12:
        raise ValueError("completeness violated: sum M^dag M != identity")


def oat_reduced_state(params: OatParameters) -> TwoQubitXState:
    """Two-qubit reduced state of a one-axis-twisted ensemble.

    Starting from all probes in |1> and twisting by angle theta, any pair of
    probes ends up in an X-state whose entries follow from the collective
    correlators:

        <s_z>        = -cos^{N-1}(theta/2)
        <s_1z s_2z>  = (1 + cos^{N-2} theta) / 2
        y            = (1 - cos^{N-2} theta) / 8
        u            = -(1/8)(1 - cos^{N-2} theta)
                       - (i/2) sin(theta/2) cos^{N-2}(theta/2)

    with v_pm = (1 pm 2<s_z> + <s_1z s_2z>)/4 and w = (1 - <s_1z s_2z>)/4 = y.
    """
    n = params.n_probes
    theta = params.twist_angle
    sz = -np.cos(0.5 * theta) ** (n - 1)
    szsz = 0.5 * (1.0 + np.cos(theta) ** (n - 2))
    y = 0.125 * (1.0 - np.cos(theta) ** (n - 2))
    u = -0.125 * (1.0 - np.cos(theta) ** (n - 2)) - 0.5j * np.sin(0.5 * theta) * np.cos(
        0.5 * theta
    ) ** (n - 2)
    return TwoQubitXState(
        v_plus=0.25 * (1.0 + 2.0 * sz + szsz),
        v_minus=0.25 * (1.0 - 2.0 * sz + szsz),
        w=0.25 * (1.0 - szsz),
        y=y,
        u=complex(u),
    )


def _factor_value(factor) -> float:
    """Extract the real dephasing factor from a DephasingFactor or a number.

    The ring factor is real up to summation noise; an imaginary part above
    1e-9 or a magnitude above 1 + 1e-9 is rejected rather than silently
    truncated.
    """
    if isinstance(factor, DephasingFactor):
        value = factor.value
        if abs(value.imag) > 1e-9:
            raise ValueError(f"dephasing factor has non-real value {value!r}")
        value = value.real
    else:
        value = float(factor)
    if not math.isfinite(value):
        raise ValueError(f"dephasing factor must be finite, got {value!r}")
    if abs(value) > 1.0 + 1e-9:
        raise ValueError(f"|factor| must not exceed 1, got {value!r}")
    return min(1.0, max(-1.0, value))


def evolve_channel_I(state: TwoQubitXState, factor) -> TwoQubitXState:
    """Pair state after each probe dephases in its own independent ring.

    Both qubits of the pair acquire the single-ring factor A on their local
    coherences, so the cross coherences scale as u -> A^2 u and y -> A^2 y
    while all populations stay fixed.
    """
    a = _factor_value(factor)
    a2 = a * a
    return TwoQubitXState(
        v_plus=state.v_plus,
        v_minus=state.v_minus,
        w=state.w,
        y=a2 * state.y,
        u=a2 * state.u,
    )


def evolve_channel_II(state: TwoQubitXState, factor) -> TwoQubitXState:
    """Pair state after dephasing in one ring shared by all probes.

    The shared ring couples to the total spin, so only the double-flip
    coherence decays: u -> A' u with y, w and the populations untouched.
    """
    a = _factor_value(factor)
    return TwoQubitXState(
        v_plus=state.v_plus,
        v_minus=state.v_minus,
        w=state.w,
        y=state.y,
        u=a * state.u,
    )


def _diagonal_kraus(diagonals) -> KrausSet:
    """Kraus set of diagonal operators, one row of ``diagonals`` per operator."""
    diagonals = np.asarray(diagonals, dtype=complex)
    k, dim = diagonals.shape
    ops = np.zeros((k, dim, dim), dtype=complex)
    ops.reshape(k, dim * dim)[:, :: dim + 1] = diagonals
    return KrausSet(operators=ops)


def kraus_channel_I(factor) -> KrausSet:
    """Single-qubit Kraus set realizing the independent-ring dephasing.

    For A >= 0 the set is {sqrt(A) I, sqrt(1-A)|0><0|, sqrt(1-A)|1><1|}.  A
    negative factor cannot be absorbed into those operators (a phase cancels
    in M rho M^dag), so for A < 0 the channel u_local -> A u_local is realized
    by {sqrt((1+A)/2) I, sqrt((1-A)/2) sigma_z}.
    """
    a = _factor_value(factor)
    if a >= 0.0:
        s, r = math.sqrt(a), math.sqrt(1.0 - a)
        return _diagonal_kraus([[s, s], [r, 0.0], [0.0, r]])
    s, r = math.sqrt(0.5 * (1.0 + a)), math.sqrt(0.5 * (1.0 - a))
    return _diagonal_kraus([[s, s], [r, -r]])


def kraus_channel_II(factor) -> KrausSet:
    """Two-qubit Kraus set realizing the shared-ring dephasing.

    Block structure in the basis (|00>, |01>, |10>, |11>): the outer block
    {|00>, |11>} is dephased with factor A', the inner block passes through
    untouched.  For A' < 0 the outer-block sign is realized with the
    (P00 + P11, P00 - P11) pair, mirroring the single-qubit construction.
    """
    a = _factor_value(factor)
    inner = [0.0, 1.0, 1.0, 0.0]
    if a >= 0.0:
        s, r = math.sqrt(a), math.sqrt(1.0 - a)
        return _diagonal_kraus([[r, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, r], [s, 0.0, 0.0, s], inner])
    s, r = math.sqrt(0.5 * (1.0 + a)), math.sqrt(0.5 * (1.0 - a))
    return _diagonal_kraus([[s, 0.0, 0.0, s], [r, 0.0, 0.0, -r], inner])


def kraus_tensor(left: KrausSet, right: KrausSet) -> KrausSet:
    """Tensor product set {L_i kron R_j}, acting on the joint system."""
    dim = left.dim * right.dim
    ops = np.einsum("aij,bkl->abikjl", left.operators, right.operators)
    return KrausSet(operators=ops.reshape(-1, dim, dim))


def kraus_apply(rho: np.ndarray, kraus: KrausSet) -> np.ndarray:
    """Apply sum_i M_i rho M_i^dag after re-checking completeness.

    Raises:
        ValueError: if rho does not match the operator dimension or the set
            fails the completeness check.
    """
    rho = np.asarray(rho, dtype=complex)
    dim = kraus.dim
    if rho.shape != (dim, dim):
        raise ValueError(f"rho shape {rho.shape} does not match operators ({dim}x{dim})")
    ops = kraus.operators
    _check_complete(ops)
    return (ops @ rho @ ops.conj().swapaxes(1, 2)).sum(0)
