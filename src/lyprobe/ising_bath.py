"""Partition-function zeros of the periodic ferromagnetic Ising ring.

The partition function of a ring of ``n_spins`` Ising spins with ferromagnetic
nearest-neighbour coupling, written in the fugacity ``z = exp(-2*beta*h)``, is a
palindromic polynomial with strictly positive coefficients.  All of its roots
therefore lie on the unit circle, and the dephasing factor ``A(w)`` of a probe
coupled to the ring passes through zero at the angle w = phi/2 of each phase phi.

The ring's partition function is also ``lambda_+^N + lambda_-^N`` for the two
eigenvalues of its transfer matrix.  The factor and the zeros use that form:
the dephasing factor costs O(1) per point (log-polar ``2 r^N cos(N*gamma)``
where the eigenvalues are a complex pair), and the zero phases have a closed form.
A grid costs its trigonometry: the phase N w is split at a multiple of 2**-20
by an exact power-of-two remainder, not by np.fmod's libm loop.  One array
route, ``_factor_split``, splits the angles by branch once for
``factor_values`` (a scalar as a one-element vector), the detection solver's
Newton steps and ``zero_certificates``; its helpers ``_real_pair_sum`` and
``_arc_phase`` call numpy directly.  The point API ``dephasing_factor`` runs
``_arc_phase``'s formula on Python floats, in its order (``math`` gives
numpy's bits but for arctan2, whose SIMD loop may differ from libm), and a
real-branch point calls ``_real_pair_sum`` on floats: numpy's scalar calls
give its array loops' bits.

One type, ``IsingRing``, is both the ring and its polynomial: ``(N_b,
beta*lambda)``, with ``beta`` read only where ``dephasing_factor`` turns a
field into an angle, and the coefficients built (closed form) only when they
are read: by the cross-checks in ``verify``, and by the benchmark's
``zero_map`` residual (``perfbench/workloads.py``).  So ``A``, the zeros and
their Newton step certificate ``zero_certificates`` run past both coefficient
limits.  Nothing here takes time or the probe coupling eta: the map from a
zero phase to a collapse time, and every check of eta, live in ``experiments``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

TWO_PI = 2.0 * np.pi

# natural log of the largest double: the normalised coefficient sum of a ring
# must stay below it
_LOG_DOUBLE_MAX = math.log(float(np.finfo(float).max))

# largest double below 1: keeps log1p(-x) finite where an eigenvalue is 0
_BELOW_ONE = float(np.nextafter(1.0, 0.0))

# cells of one block of the coefficient recurrence: one set of numpy calls
# builds the factors of as many rows as fit (64 KB a temporary, in cache)
_RECURRENCE_CELLS = 8192


@dataclass(frozen=True)
class IsingRing:
    """Periodic chain of Ising spins with uniform ferromagnetic coupling.

    The ring is its own fugacity polynomial, of degree ``n_spins``:
    ``beta_lambda`` (beta * coupling) gives the factor at rotation angles
    and the zero phases; ``beta`` only turns the field of
    ``dephasing_factor`` into an angle.  At unit coupling (the default),
    ``inverse_temperature`` is beta * lambda, as the CLI's ``--beta`` is.
    Equal rings compare equal and hash alike.

    Attributes:
        n_spins: number of spins on the ring, at least 3.
        coupling: nearest-neighbour coupling strength, strictly positive
            (ferromagnetic).  Antiferromagnetic rings have zeros off the unit
            circle and are rejected.
        inverse_temperature: beta >= 0.  beta = 0 is allowed and degenerates
            the zero set to a single phase at pi.  beta * coupling must keep
            exp(-2 beta * coupling) nonzero (beta * coupling <= ~372.5), the
            transfer form's own limit.
    """

    n_spins: int
    coupling: float = 1.0
    inverse_temperature: float = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.n_spins, (int, np.integer)):
            raise ValueError(f"n_spins must be an integer, got {self.n_spins!r}")
        if self.n_spins < 3:
            raise ValueError(f"n_spins must be at least 3, got {self.n_spins}")
        for name in ("coupling", "inverse_temperature"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.coupling <= 0.0:
            raise ValueError(
                f"coupling must be positive (ferromagnetic), got {self.coupling}"
            )
        if self.inverse_temperature < 0.0:
            raise ValueError(
                f"inverse_temperature must be >= 0, got {self.inverse_temperature}"
            )
        # Python floats: a product past the double range is inf, not a warning
        k = float(self.inverse_temperature) * float(self.coupling)
        if not math.exp(-2.0 * k) > 0.0:
            raise ValueError(
                "beta_lambda = inverse_temperature * coupling must keep exp(-2 beta_lambda) "
                f"nonzero for the transfer form (beta_lambda <= ~372.5), got {k!r}"
            )

    # cached, so dephasing_factor's float route reads them as fast as fields
    @cached_property
    def beta(self) -> float:
        """The inverse temperature."""
        return self.inverse_temperature

    @cached_property
    def beta_lambda(self) -> float:
        """inverse_temperature * coupling."""
        return self.inverse_temperature * self.coupling

    @cached_property
    def _transfer(self) -> tuple[float, float, float, float]:
        """Per-ring constants of the transfer form: (sqrt q, q, 2 t^(N/2), A's normaliser).

        q = exp(-4 beta_lambda), t = (1 - sqrt q) / (1 + sqrt q) and 2 t^(N/2)
        is the arc's amplitude.  Built once, so a point of A costs only its
        own trigonometry.  The normaliser is the pair sum at w = 0, computed
        with the array arithmetic of every other point, so A(0) == 1 exactly.
        """
        nb = self.n_spins
        root_q = math.exp(-2.0 * self.beta_lambda)
        q = root_q * root_q
        x0 = 2.0 * root_q / (1.0 + root_q)  # 1 - t
        amplitude = 2.0 * math.exp(0.5 * nb * math.log1p(-x0)) if x0 < 1.0 else 0.0
        norm = float(_real_pair_sum(nb, root_q, q, np.zeros(1), np.ones(1))[0])
        return root_q, q, amplitude, norm

    @cached_property
    def coefficients(self) -> np.ndarray:
        """Normalized coefficients (both ends 1), built in closed form on first read; read-only.

        ``coefficients[n]`` multiplies z**n, z = exp(-2*beta*h) the fugacity.
        It counts configurations with n down spins, weighted by
        q = exp(-4 beta_lambda) per pair of domain walls: n down spins in m
        circular blocks contribute (N/m) C(n-1, m-1) C(N-n-1, m-1) q**m.  A
        multiplicative term recurrence in m runs over every n <= N/2 at once
        (block counts run up to min(n, N-n) = n); all terms are positive, so
        the sum is stable.  O(N_b^2); beta_lambda = 0 gives exactly C(N, n).
        The rows m run in blocks of ``_RECURRENCE_CELLS`` cells: one set of
        numpy calls builds a block's factors, then each row multiplies the
        running terms and adds them, in the order of one row at a time.  The
        recurrence stops at a block's start once every active term has
        underflowed to 0: a zero term adds nothing, so the stop leaves every
        bit unchanged, and a ring past the underflow limit (N_b * q == 0) is
        refused before its first block.

        Raises:
            OverflowError: if the normalised coefficient sum
                (1 + sqrt q)^N + (1 - sqrt q)^N exceeds the double range;
                checked before any coefficient is built.
            ValueError: if interior coefficients underflow to zero in double
                precision (beta_lambda > ~186).
        """
        nb = self.n_spins
        k = self.beta_lambda
        root_q = math.exp(-2.0 * k)
        log_sum = nb * math.log1p(root_q) + math.log1p(((1.0 - root_q) / (1.0 + root_q)) ** nb)
        if log_sum > _LOG_DOUBLE_MAX:
            raise OverflowError(
                f"ring too large for double-precision coefficients: N_b={nb} at beta*lambda={k:.6g} "
                f"has a normalised coefficient sum of e^{log_sum:.1f}, past the limit "
                f"e^{_LOG_DOUBLE_MAX:.1f} (about N_b <= {int(_LOG_DOUBLE_MAX / math.log1p(root_q))})"
            )
        q = np.exp(-4.0 * k)
        n = np.arange(1, nb // 2 + 1)
        term = np.full(n.size, nb * q)
        total = term.copy()
        m0 = 1
        # the last term (n = N_b // 2) is the largest in exact arithmetic, so it
        # filters the full test cheaply
        while m0 < n.size and (term[-1] != 0.0 or term[m0:].any()):
            active, running, summed = n[m0:], term[m0:], total[m0:]
            m = np.arange(m0, min(n.size, m0 + max(1, _RECURRENCE_CELLS // active.size)))[:, None]
            # n <= m has factor 0: its term becomes 0 and adds 0 from there on
            for factor in np.maximum(active - m, 0) * (nb - active - m) * q / (m * (m + 1)):
                running *= factor
                summed += running
            m0 += m.size
        coeffs = np.empty(nb + 1)
        coeffs[0] = coeffs[nb] = 1.0
        coeffs[n] = total
        coeffs[nb - n] = total
        if np.any(coeffs <= 0.0):
            raise ValueError(
                f"beta_lambda = inverse_temperature * coupling = {k!r} is past the underflow "
                "limit (beta_lambda <= ~186): interior coefficients underflow to zero in "
                "double precision"
            )
        coeffs.flags.writeable = False
        return coeffs


@dataclass(frozen=True)
class LeeYangZeroSet:
    """Unit-circle zero phases of a partition polynomial, sorted ascending.

    ``phases`` are the arguments phi_n of the roots exp(i*phi_n) in (0, 2*pi),
    closed under conjugation (phi <-> 2*pi - phi): the whole set, since the
    product-form factor takes rotation angles.  A read-only view, not a copy:
    the caller's array stays writable.
    """

    phases: np.ndarray

    def __post_init__(self) -> None:
        phases = np.asarray(self.phases, dtype=float).view()
        if phases.ndim != 1 or phases.size == 0:
            raise ValueError("phases must be a non-empty 1-D vector")
        if not np.all(np.isfinite(phases)):
            raise ValueError("phases must be finite")
        if np.any(phases <= 0.0) or np.any(phases >= TWO_PI):
            raise ValueError("phases must lie strictly inside (0, 2*pi)")
        if np.any(np.diff(phases) < 0.0):
            raise ValueError("phases must be sorted ascending")
        # conjugate closure: the multiset must map onto itself under phi -> 2pi - phi;
        # the phases ascend, so their mirror images, read backwards, ascend too
        mirrored = TWO_PI - phases[::-1]
        if not np.abs(phases - mirrored).max() <= 1e-9:
            raise ValueError("phases must be closed under conjugation")
        phases.flags.writeable = False
        object.__setattr__(self, "phases", phases)


class DephasingFactor(NamedTuple("_FactorFields", [("value", float), ("argument", float)])):
    """Value of the probe dephasing factor at one field argument, as a tuple.

    ``value`` is the real factor A at imaginary field i*x; |value| <= 1
    (within 1e-9).  Immutable, and equal to any factor with equal fields.
    """

    __slots__ = ()

    def __new__(cls, value: float, argument: float) -> DephasingFactor:
        if not math.isfinite(argument):
            raise ValueError(f"argument must be finite, got {argument!r}")
        # not <=: a nan value is refused too
        if not abs(value) <= 1.0 + 1e-9:
            raise ValueError(f"value must be finite and must not exceed 1, got {value!r}")
        return tuple.__new__(cls, (value, argument))


def partition_coefficients(ring: IsingRing) -> IsingRing:
    """The ring's fugacity polynomial, which is the ring itself: builds nothing.

    The benchmark (``perfbench/workloads.py``) times this call as the coefficient layer.
    """
    return ring


def lee_yang_zeros(ring: IsingRing) -> LeeYangZeroSet:
    """All unit-circle zero phases of a ring's partition polynomial, sorted ascending.

    The phases come in closed form from the transfer eigenvalues at
    k = ``ring.beta_lambda``; the coefficients are not built.  At the zeros
    the eigenvalues are r e^{+-i gamma_j} with cos(N gamma_j) = 0, gamma_j =
    (2j - 1) pi / (2N).  The fugacity phase is 2 alpha_j with sin^2 alpha =
    sin^2 gamma + q cos^2 gamma, q = exp(-4k); atan2(s, cos(gamma) sqrt(1 - q))
    keeps alpha conditioned near pi/2.  The phases below pi are mirrored to
    their conjugates, and an odd ring has pi itself.  At k = 0 every alpha is
    pi/2: all N zeros sit at pi.
    """
    nb, k = ring.n_spins, ring.beta_lambda
    gamma = (2.0 * np.arange(1, nb // 2 + 1) - 1.0) * np.pi / (2.0 * nb)
    s = np.sqrt(np.sin(gamma) ** 2 + math.exp(-4.0 * k) * np.cos(gamma) ** 2)
    lower = 2.0 * np.arctan2(s, np.cos(gamma) * math.sqrt(-math.expm1(-4.0 * k)))
    middle = [np.pi] if nb % 2 else []
    return LeeYangZeroSet(phases=np.concatenate([lower, middle, TWO_PI - lower[::-1]]))


def zero_certificates(ring: IsingRing, phases: np.ndarray) -> np.ndarray:
    """Newton step |A / A'| at w = phi / 2 of each phase, in radians of phase.

    On the arc A = h cos(theta), theta = N_b gamma(w): h cancels, and the step is
    2 |cos theta| / theta', cos theta at unit amplitude and 1/theta' from the
    arc phase of A and of the detection solver's Newton steps (``_arc_phase``).
    O(N_b), no coefficients, no underflow; sin^2 w <= q (beta_lambda = 0) gives 0.
    A phase whose w, or N_b * w, is not finite is refused as ``factor_values`` refuses it.
    """
    w = 0.5 * np.asarray(phases, dtype=float)
    _, arc, (cos_theta, _, dw_dtheta) = _factor_split(ring, w, slope=True)
    steps = np.zeros(w.shape)
    steps[arc] = 2.0 * np.abs(cos_theta) * dw_dtheta
    return steps


def _pow2_fmod(w: np.ndarray, d: float) -> np.ndarray:
    """``np.fmod(w, d)`` for a power of two ``d``, bit for bit, in exact steps.

    numpy's fmod loop is libm's, about 100 ns an element; this costs a few.
    Past 2**52 d every double is a multiple of d, so clipping there leaves
    the remainder 0 and keeps w / d finite up to the largest double.  w / d,
    its truncation and the truncation times d are exact (power-of-two
    scalings of integers below 2**52), and w minus that multiple of d is
    representable, so the difference is exact too.  ``copysign`` gives a zero
    remainder the sign of w, as fmod does (-0.0, -k d).
    """
    bound = 2.0**52 * d
    low = np.maximum(w, -bound)
    np.minimum(low, bound, out=low)
    whole = low / d
    np.trunc(whole, out=whole)
    whole *= d
    np.subtract(low, whole, out=low)
    return np.copysign(low, w, out=low)


def _real_pair_sum(nb, root_q, q, s2, c):
    # both eigenvalues real, with the sign of c: |r_+-| = 1 - x_+-, each x a
    # sum of positive terms (1 - |c| = s2 / (1 + |c|)), so exp(N log1p(-x))
    # keeps relative accuracy at large N
    bend = s2 / (1.0 + np.abs(c))
    root = np.sqrt(q - s2)
    x_plus = np.minimum((bend + s2 / (root_q + root)) / (1.0 + root_q), _BELOW_ONE)
    x_minus = np.minimum((bend + root_q + root) / (1.0 + root_q), _BELOW_ONE)
    total = np.exp(nb * np.log1p(-x_plus)) + np.exp(nb * np.log1p(-x_minus))
    return np.copysign(total, c) if nb % 2 else total


def _arc_phase(nb, q, w, s, c, s2, slope=False):
    # on the arc r_+- = sqrt(t) e^{+-i gamma}, t = (1 - sqrt q) / (1 + sqrt q):
    # the pair sum is amplitude * cos theta, theta = N gamma.  N gamma = N w +
    # N (gamma - |w| folded to (0, pi)): N w is split so its large part is an
    # exact product (|w| < 32) and the offset is written without cancellation,
    # so the phase is good to a few ulp of 1, not of N gamma.  Returns cos
    # theta; with slope, also sin theta and 1/theta' = sqrt(s2 - q) / (N |s|)
    abs_s = np.abs(s)
    root = np.sqrt(s2 - q)
    offset = np.arctan2(-c * q / (root + abs_s), c * c + root * abs_s)
    low = _pow2_fmod(w, 2.0**-20)
    head = nb * (w - low)
    tail = nb * low + np.copysign(nb, s) * offset
    if not slope:  # two of the four trig arrays at a time: a grid's peak memory
        return np.cos(head) * np.cos(tail) - np.sin(head) * np.sin(tail)
    cos_head, sin_head, cos_tail, sin_tail = np.cos(head), np.sin(head), np.cos(tail), np.sin(tail)
    cos_theta = cos_head * cos_tail - sin_head * sin_tail
    return cos_theta, sin_head * cos_tail + cos_head * sin_tail, root / (nb * abs_s)


def _factor_split(ring: IsingRing, w: np.ndarray, slope: bool = False) -> tuple:
    """Pair sum at angles w, split once by branch: (sum, arc points, arc parts).

    r_+- = (cos w +- sqrt(q - sin^2 w)) / (1 + sqrt q), q = exp(-4 beta_lambda),
    are a real pair where sin^2 w <= q (``_real_pair_sum``) and a complex pair
    on the arc elsewhere (``_arc_phase`` times the ring's amplitude).  sin, cos
    and sin^2 are computed once; on a grid the six sin and cos take about two
    thirds of the time.  An all-arc array is read whole (arc points ``...``);
    any other is masked, an all-real one with empty arc parts.  The arc parts
    are cos theta, or with ``slope`` (cos theta, sin theta, 1/theta') for the
    Newton steps.  Angles are checked first (``_check_angles``); callers
    divide by the normaliser after the return, when a grid's division can
    reuse this frame's freed arrays.
    """
    nb = ring.n_spins
    _check_angles(nb, w)
    root_q, q, amplitude, _ = ring._transfer
    s, c = np.sin(w), np.cos(w)
    s2 = s * s
    arc = s2 > q
    whole = arc.all()
    if not whole:
        values, real = np.empty(w.shape), ~arc
        values[real] = _real_pair_sum(nb, root_q, q, s2[real], c[real])
        w, s, c, s2 = w[arc], s[arc], c[arc], s2[arc]
    phase = _arc_phase(nb, q, w, s, c, s2, slope)
    on = amplitude * (phase[0] if slope else phase)
    if whole:
        return on, ..., phase
    values[arc] = on
    return values, arc, phase


def factor_values(ring: IsingRing, angles) -> np.ndarray | np.float64:
    """Real dephasing factor A(w) at rotation angles w = beta * x.

    A = (lambda_+^N + lambda_-^N) / (lambda_+(0)^N + lambda_-(0)^N) from the
    ring's two transfer eigenvalues: O(1) per point, a few 1e-16 absolute at
    any N.

    ``angles`` may be an array or a scalar (Python float, numpy scalar or
    0-d array).  Every input runs the array route as one flat vector; an
    array returns an array of its shape, a scalar an ``np.float64``.

    Raises:
        ValueError: if an angle is not finite, or its phase N_b * w is not;
            checked before anything is evaluated.
    """
    angles = np.asarray(angles, dtype=float)
    values = _factor_split(ring, angles.reshape(-1))[0] / ring._transfer[3]
    return values.reshape(angles.shape) if angles.ndim else values[0]


def _factor_and_newton_steps(ring: IsingRing, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``factor_values`` at 1-D angles w, bit for bit, and the Newton step -A/A' in w.

    On the arc the step is cos theta / sin theta / theta' (``_arc_phase``), free
    of the amplitude that A underflows with; off the arc it is nan.
    """
    values, arc, (cos_theta, sin_theta, dw_dtheta) = _factor_split(ring, w, slope=True)
    steps = np.full(w.shape, np.nan)
    with np.errstate(divide="ignore"):  # sin theta = 0: an infinite step, never taken
        steps[arc] = cos_theta / sin_theta * dw_dtheta
    return values / ring._transfer[3], steps


def _check_angles(nb: int, angles: np.ndarray) -> None:
    """Refuse angles w if one, or its phase N_b * w, is not finite (one max |w| tells)."""
    if not math.isfinite(float(nb) * float(np.abs(angles).max(initial=0.0))):
        w = next(w for w in angles.reshape(-1).tolist() if not math.isfinite(float(nb) * w))
        raise _angle_error(nb, w)


def _angle_error(nb: int, w: float) -> ValueError:
    return ValueError(
        f"the angle w must be finite, with a finite phase N_b * w, got w = {w!r} at N_b = {nb}"
    )


def dephasing_factor(ring: IsingRing, x: float) -> DephasingFactor:
    """Probe dephasing factor at imaginary field i*x.

    Real and even in x for the symmetric ring polynomial; |A| <= 1 with
    equality at x = 0.  Periodic in beta*x with period pi.  The one place a
    ring's beta is read: the angle beta * x runs the pair-sum formulas on
    Python floats, and the value is bit-identical to the one
    :func:`factor_values` gives at that angle.

    Raises:
        ValueError: if the angle w = beta * x, or its phase N_b * w, is not
            finite (a non-finite x among them), with the message of
            :func:`factor_values`.
    """
    nb = ring.n_spins
    # Python floats: inf past the double range, not a warning (nor math.sin's domain error)
    w = float(ring.beta) * float(x)
    if not math.isfinite(float(nb) * w):
        raise _angle_error(nb, w)
    root_q, q, amplitude, norm = ring._transfer
    s, c = math.sin(w), math.cos(w)
    s2 = s * s
    if s2 > q:
        # _arc_phase on floats, in its operation order.  math gives numpy's bits
        # for sqrt, copysign, sin and cos (libm in both; a test pins sin and
        # cos), and math.fmod is exact, like _pow2_fmod; arctan2 stays a numpy
        # call, since its SIMD loop (SVML on AVX-512) may differ from libm
        abs_s = abs(s)
        root = math.sqrt(s2 - q)
        offset = float(np.arctan2(-c * q / (root + abs_s), c * c + root * abs_s))
        low = math.fmod(w, 2.0**-20)
        head = nb * (w - low)
        tail = nb * low + math.copysign(nb, s) * offset
        value = amplitude * (math.cos(head) * math.cos(tail) - math.sin(head) * math.sin(tail))
    else:
        value = float(_real_pair_sum(nb, root_q, q, s2, c))
    return DephasingFactor(value / norm, float(x))
