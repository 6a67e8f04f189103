"""Probe pair states, the two dephasing channels, and the observables in closed form.

Two geometries are modelled.  Channel I couples every probe to its own
independent ring, so each qubit's coherences decay with the single-ring
dephasing factor and the pair coherences pick up the square.  Channel II
couples all probes to one shared ring, which only damps the double-flip
coherence between |00> and |11>.

Probe pairs start in the reduced state of a one-axis-twisted ensemble, which
is an X-state in the standard product basis; both channels preserve that
shape, so states are carried as their five independent X-state entries.

Coherence, pairwise concurrence and spin squeezing are closed forms in those
entries and the factor, written once for both channels and any array of
factors in ``x_state_observables``; ``coherence``, ``concurrence_channel_I``/
``_II`` and ``spin_squeezing`` wrap it for one validated factor.  The Kraus
maps and the generic Wootters route that cross-check them live in ``verify``.

Three routes also take a stack of states, an ``XStateStack`` with one array
per entry: ``evolve_channel_I``/``_II`` with one factor per state,
``to_matrix`` and ``x_state_observables``.  Each stacked element carries the
bits of the one-state call, so ``verify`` runs its random samples through
the production formulas in one call per channel.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields
from enum import Enum
from typing import NamedTuple

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
        """Dense 4x4 density matrix in the (|00>, |01>, |10>, |11>) basis.

        Also the layout of an ``XStateStack``, whose entries are arrays of one
        shape (...): it gives a (..., 4, 4) stack.
        """
        rho = np.zeros((*getattr(self.u, "shape", ()), 4, 4), dtype=complex)
        # fill through a view with the matrix axes first, so one state takes plain [i, j] writes
        cells = rho if rho.ndim == 2 else np.moveaxis(rho, (-2, -1), (0, 1))
        cells[0, 0] = self.v_plus
        cells[1, 1] = cells[2, 2] = self.w
        cells[3, 3] = self.v_minus
        cells[1, 2] = cells[2, 1] = self.y  # real
        cells[0, 3] = self.u
        cells[3, 0] = self.u.conjugate()
        return rho


class XStateStack(NamedTuple):
    """The five entries of a stack of X states, one array of one shape each.

    A stack is built from its columns and is not validated again.
    """

    v_plus: np.ndarray
    v_minus: np.ndarray
    w: np.ndarray
    y: np.ndarray
    u: np.ndarray

    def to_matrix(self) -> np.ndarray:
        """Dense (..., 4, 4) stack of density matrices, one per state."""
        return TwoQubitXState.to_matrix(self)


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
    return TwoQubitXState(*_oat_entries(params.n_probes, params.twist_angle))


def _oat_entries(n: int, theta: float) -> tuple[float, float, float, float, complex]:
    """The entries (v_plus, v_minus, w, y, u) of ``oat_reduced_state``, on Python floats.

    math.cos, math.sin and float ** int are libm's, as numpy's scalar calls
    are, so they keep those calls' bits; a stacked np.power may not (AVX-512).
    """
    twist = math.cos(theta) ** (n - 2)
    sz = -math.cos(0.5 * theta) ** (n - 1)
    szsz = 0.5 * (1.0 + twist)
    y = 0.125 * (1.0 - twist)
    # -y is -0.125 (1 - twist) bit for bit: negation is exact
    u = -y - 0.5j * math.sin(0.5 * theta) * math.cos(0.5 * theta) ** (n - 2)
    return 0.25 * (1.0 + 2.0 * sz + szsz), 0.25 * (1.0 - 2.0 * sz + szsz), 0.25 * (1.0 - szsz), y, u


def _factor_value(factor):
    """Extract the real dephasing factor from a DephasingFactor or a number.

    A magnitude above 1 + 1e-9 is rejected rather than silently truncated.
    An array of factors (ndim >= 1) is checked at its largest |A| or first NaN
    as one factor is, and clipped to [-1, 1] element by element.
    """
    if isinstance(factor, np.ndarray) and factor.ndim:
        a = np.asarray(factor, dtype=float)
        if a.size:
            _factor_value(a.flat[np.argmax(np.abs(a))])
        return np.clip(a, -1.0, 1.0)
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
    while all populations stay fixed.  An ``XStateStack`` with an array of
    factors of its shape gives the stack of evolved states.
    """
    a = _factor_value(factor)
    return type(state)(state.v_plus, state.v_minus, state.w, a * a * state.y, a * a * state.u)


def evolve_channel_II(state: TwoQubitXState, factor) -> TwoQubitXState:
    """Pair state after dephasing in one ring shared by all probes.

    The shared ring couples to the total spin, so only the double-flip
    coherence decays: u -> A' u with y, w and the populations untouched.
    An ``XStateStack`` with an array of factors of its shape gives the stack
    of evolved states.
    """
    a = _factor_value(factor)
    return type(state)(state.v_plus, state.v_minus, state.w, state.y, a * state.u)


@dataclass(frozen=True)
class ConcurrenceResult:
    """Wootters concurrence of a probe pair and its ensemble-rescaled value.

    ``lambdas`` are the four spin-flip singular values sorted descending;
    ``concurrence`` equals max(0, lambdas[0] - sum(lambdas[1:])) and
    ``rescaled`` is (N - 1) times that, the pairwise entanglement summed over
    one probe's N - 1 partners.  ``lambdas`` is a read-only view, not a copy.
    """

    concurrence: float
    rescaled: float
    lambdas: np.ndarray

    def __post_init__(self) -> None:
        lams = np.asarray(self.lambdas, dtype=float).view()
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
        for field in fields(self):
            if not math.isfinite(getattr(self, field.name)):
                raise ValueError(f"{field.name} must be finite")
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
    state: TwoQubitXState | XStateStack, channel: Channel, a, n_probes: int
) -> XStateObservables:
    """Coherence, spin-flip values, concurrence, xi^2 and its bound at factor(s) A.

    The channels differ only in how they damp the cross coherences: channel I
    scales |u| and |y| by A^2, channel II scales |u| by |A| and leaves y.
    The X pattern block-diagonalizes the spin-flip product, so the outer
    block gives sqrt(v+ v-) +- d_u and the inner block w +- d_y, and the
    concurrence is the largest value minus the other three.  xi^2 =
    1 + 2(N-1)(<s1+ s2-> - |<s1- s2->|) from the damped pair correlators,
    and xi'^2 = 1 - (N-1) C.

    ``a`` is a float or an array and is not validated.  ``channel`` must be a
    ``Channel`` member: the public wrappers convert a string once.  ``state``
    may be an ``XStateStack`` whose shape broadcasts against ``a``.  The order
    of every operation is fixed: the bytes of the simulate CSV depend on it.
    """
    _check_n_probes(n_probes)
    u = state.u
    # abs() of one complex, numpy's complex scalars too, is libm's hypot; np.abs
    # of a complex array may differ from it in the last bit, np.hypot does not
    mod_u = abs(u) if isinstance(u, complex) else np.hypot(u.real, u.imag)
    mod_y = abs(state.y)
    root_vv = np.sqrt(state.v_plus * state.v_minus)
    if channel is Channel.I:
        damp_u = a * a * mod_u
        damp_y = a * a * mod_y
        coh = 2.0 * a * a * (mod_u + mod_y)
        xi2 = 1.0 + 2.0 * (n_probes - 1) * a * a * (state.y - mod_u)
    elif channel is Channel.II:
        damp_u = np.abs(a) * mod_u
        damp_y = mod_y
        coh = 2.0 * (np.abs(a) * mod_u + mod_y)
        xi2 = 1.0 + 2.0 * (n_probes - 1) * (state.y - np.abs(a) * mod_u)
    else:
        raise TypeError(f"channel must be a Channel member, got {channel!r}")

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
    return float(x_state_observables(state, Channel(channel), _factor_value(factor), 2).coherence)


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
