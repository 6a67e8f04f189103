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
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .ising_bath import DephasingFactor


class Channel(str, Enum):
    """Bath geometry: independent rings per probe (I) or one shared ring (II)."""

    I = "I"
    II = "II"

    @property
    def rate(self) -> float:
        """Field angle per unit eta * t: 2 for channel I, 4 for channel II."""
        return 2.0 if self is Channel.I else 4.0


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
        _check_n_probes(self.n_probes)
        if not math.isfinite(self.twist_angle):
            raise ValueError(f"twist_angle must be finite, got {self.twist_angle!r}")


def _check_n_probes(n_probes) -> None:
    """Refuse an ensemble size N that is not an integer N >= 2."""
    if not isinstance(n_probes, (int, np.integer)):
        raise ValueError(f"n_probes must be an integer, got {n_probes!r}")
    if n_probes < 2:
        raise ValueError(f"n_probes must be at least 2, got {n_probes}")


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
    """A complete set of Kraus operators of one common square dimension, or a stack of sets.

    ``operators`` is stored as a copy in one read-only complex array: (k, d, d)
    for one set, which iterates as its d x d operators, or (..., k, d, d).
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
    twist = np.cos(theta) ** (n - 2)
    sz = -np.cos(0.5 * theta) ** (n - 1)
    szsz = 0.5 * (1.0 + twist)
    y = 0.125 * (1.0 - twist)
    # -y is -0.125 (1 - twist) bit for bit: negation is exact
    u = -y - 0.5j * np.sin(0.5 * theta) * np.cos(0.5 * theta) ** (n - 2)
    return TwoQubitXState(
        v_plus=0.25 * (1.0 + 2.0 * sz + szsz),
        v_minus=0.25 * (1.0 - 2.0 * sz + szsz),
        w=0.25 * (1.0 - szsz),
        y=y,
        u=complex(u),
    )


def _factor_value(factor) -> float:
    """Extract the real dephasing factor from a DephasingFactor or a number.

    A magnitude above 1 + 1e-9 is rejected rather than silently truncated.
    """
    value = float(factor.value if isinstance(factor, DephasingFactor) else factor)
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
    return replace(state, y=a * a * state.y, u=a * a * state.u)


def evolve_channel_II(state: TwoQubitXState, factor) -> TwoQubitXState:
    """Pair state after dephasing in one ring shared by all probes.

    The shared ring couples to the total spin, so only the double-flip
    coherence decays: u -> A' u with y, w and the populations untouched.
    """
    return replace(state, u=_factor_value(factor) * state.u)


def _phase_flip(factor) -> np.ndarray:
    """Operators {sqrt((1+A)/2) I, sqrt((1-A)/2) sigma_z}, (2, 2, 2), or a stack (..., 2, 2, 2).

    One factor runs on Python floats.  An array is checked at its largest |A|
    or first NaN as one factor is, and each set keeps the bits of its own
    factor's.
    """
    if isinstance(factor, np.ndarray):
        a = np.asarray(factor, dtype=float)
        if a.size:
            _factor_value(a.flat[np.argmax(np.abs(a))])
        a, sqrt = np.clip(a, -1.0, 1.0), np.sqrt
    else:
        a, sqrt = _factor_value(factor), math.sqrt
    s, r = sqrt(0.5 * (1.0 + a)), sqrt(0.5 * (1.0 - a))
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
