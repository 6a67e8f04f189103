"""Partition-function zeros of the periodic ferromagnetic Ising ring.

The partition function of a ring of ``n_spins`` Ising spins with ferromagnetic
nearest-neighbour coupling, written in the fugacity ``z = exp(-2*beta*h)``, is a
palindromic polynomial with strictly positive coefficients.  All of its roots
therefore lie on the unit circle, and their phases control how fast a probe
coupled to the ring loses coherence: each phase maps to a time at which the
probe's dephasing factor passes through zero.

The ring's partition function is also ``lambda_+^N + lambda_-^N`` for the two
eigenvalues of its transfer matrix.  The production routes use that form: the
dephasing factor costs O(1) per point (log-polar ``2 r^N cos(N*gamma)`` where
the eigenvalues are a complex pair), and the zero phases have a closed form.
A single point goes through the same helpers as a grid, on numpy scalars
instead of a one-element array: about 10 us per ``dephasing_factor`` call
(CPython 3.11, numpy 2.4, one core of a 2-vCPU VM), nearly all of it numpy's
per-call overhead.  The coefficient vector is still built (closed form, or
brute-force enumeration for small rings) because it is the polynomial the
residual certificate is measured on.  The coefficient sum with bisection
bracketing, the companion-matrix roots and the product over zeros remain as
cross-checks and as the route for hand-built polynomials that are not rings.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

TWO_PI = 2.0 * np.pi

# natural log of the largest double: the normalised coefficient sum of a ring
# must stay below it
_LOG_DOUBLE_MAX = math.log(np.finfo(float).max)

# largest double below 1: keeps log1p(-x) finite where an eigenvalue is 0
_BELOW_ONE = float(np.nextafter(1.0, 0.0))


@dataclass(frozen=True)
class IsingRing:
    """Periodic chain of Ising spins with uniform ferromagnetic coupling.

    Attributes:
        n_spins: number of spins on the ring, at least 3.
        coupling: nearest-neighbour coupling strength, strictly positive
            (ferromagnetic).  Antiferromagnetic rings have zeros off the unit
            circle and are rejected.
        inverse_temperature: beta >= 0.  beta = 0 is allowed and degenerates
            the zero set to a single phase at pi.
        longitudinal_field: physical field h.  The zero phases and zero times
            do not depend on it (it only rescales the fugacity prefactor); it
            is stored so that a ring fully specifies its partition function.
    """

    n_spins: int
    coupling: float = 1.0
    inverse_temperature: float = 1.0
    longitudinal_field: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.n_spins, (int, np.integer)):
            raise ValueError(f"n_spins must be an integer, got {self.n_spins!r}")
        if self.n_spins < 3:
            raise ValueError(f"n_spins must be at least 3, got {self.n_spins}")
        for name in ("coupling", "inverse_temperature", "longitudinal_field"):
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


@dataclass(frozen=True)
class PartitionPolynomial:
    """Fugacity polynomial of a ring, normalized so both end coefficients are 1.

    ``coefficients[n]`` multiplies z**n where z = exp(-2*beta*h) is the
    fugacity; the overall factor exp(scale_log) restores the physical
    normalization.  ``beta`` is the inverse temperature the coefficients were
    generated at; the dephasing factor needs it to convert a field argument
    into a rotation angle.  ``beta_lambda`` is the ring's beta * coupling
    when the coefficients come from :func:`partition_coefficients`; it
    selects the transfer-matrix routes for the factor and the zeros.
    Hand-built polynomials leave it None and use the coefficient-sum routes.

    Invariants enforced at construction: palindromic coefficient vector,
    strictly positive entries, end coefficients equal to 1 within 1e-12,
    degree >= 3, everything finite.
    """

    coefficients: np.ndarray
    scale_log: float
    beta: float
    beta_lambda: float | None = None

    def __post_init__(self) -> None:
        coeffs = np.asarray(self.coefficients, dtype=float)
        if coeffs.ndim != 1 or coeffs.size < 4:
            raise ValueError(
                f"coefficients must be a 1-D vector of degree >= 3, got shape {coeffs.shape}"
            )
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("coefficients must be finite")
        if not np.all(coeffs > 0.0):
            raise ValueError("coefficients must be strictly positive")
        if abs(coeffs[0] - 1.0) > 1e-12 or abs(coeffs[-1] - 1.0) > 1e-12:
            raise ValueError("end coefficients must equal 1 (normalized polynomial)")
        if not np.allclose(coeffs, coeffs[::-1], rtol=0.0, atol=1e-12 * coeffs.max()):
            raise ValueError("coefficients must be palindromic")
        if not np.isfinite(self.scale_log):
            raise ValueError(f"scale_log must be finite, got {self.scale_log!r}")
        if not np.isfinite(self.beta) or self.beta < 0.0:
            raise ValueError(f"beta must be finite and >= 0, got {self.beta!r}")
        if self.beta_lambda is not None and not 0.0 <= self.beta_lambda < np.inf:
            raise ValueError(f"beta_lambda must be finite and >= 0, got {self.beta_lambda!r}")
        coeffs.flags.writeable = False
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def degree(self) -> int:
        return self.coefficients.size - 1


@dataclass(frozen=True)
class LeeYangZeroSet:
    """Unit-circle zero phases of a partition polynomial, sorted ascending.

    ``phases`` are the arguments phi_n of the roots exp(i*phi_n) in (0, 2*pi),
    closed under conjugation (phi <-> 2*pi - phi).  ``residual_bound`` is the
    largest normalized polynomial residual |P(exp(i*phi_n))| / P(1) over the
    set, a backward-error certificate for the phases.  ``beta`` is inherited
    from the polynomial so the product-form dephasing factor can be evaluated.
    ``residuals`` optionally holds the residual of each phase, in the same
    order; when given, ``residual_bound`` must be its maximum.
    """

    phases: np.ndarray
    residual_bound: float
    beta: float
    residuals: np.ndarray | None = None

    def __post_init__(self) -> None:
        phases = np.asarray(self.phases, dtype=float)
        if phases.ndim != 1 or phases.size == 0:
            raise ValueError("phases must be a non-empty 1-D vector")
        if not np.all(np.isfinite(phases)):
            raise ValueError("phases must be finite")
        if np.any(phases <= 0.0) or np.any(phases >= TWO_PI):
            raise ValueError("phases must lie strictly inside (0, 2*pi)")
        if np.any(np.diff(phases) < 0.0):
            raise ValueError("phases must be sorted ascending")
        # conjugate closure: the multiset must map onto itself under phi -> 2pi - phi
        mirrored = np.sort(TWO_PI - phases)
        if not np.allclose(phases, mirrored, rtol=0.0, atol=1e-9):
            raise ValueError("phases must be closed under conjugation")
        if not (np.isfinite(self.residual_bound) and self.residual_bound >= 0.0):
            raise ValueError(f"residual_bound must be >= 0, got {self.residual_bound!r}")
        if not np.isfinite(self.beta) or self.beta < 0.0:
            raise ValueError(f"beta must be finite and >= 0, got {self.beta!r}")
        phases.flags.writeable = False
        object.__setattr__(self, "phases", phases)
        if self.residuals is not None:
            residuals = np.asarray(self.residuals, dtype=float)
            if residuals.shape != phases.shape:
                raise ValueError(f"residuals must have the shape of phases, got {residuals.shape}")
            if not (residuals.min() >= 0.0 and residuals.max() == self.residual_bound):
                raise ValueError("residuals must be >= 0 with residual_bound their maximum")
            residuals.flags.writeable = False
            object.__setattr__(self, "residuals", residuals)


@dataclass(frozen=True)
class DephasingFactor:
    """Value of the probe dephasing factor at one field argument.

    ``value`` is A evaluated at imaginary field i*x; it is real for the
    symmetric ring polynomial but stored complex so that consumers can check
    the imaginary part is numerical noise.  |value| <= 1 always.
    """

    value: complex
    argument: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.argument):
            raise ValueError(f"argument must be finite, got {self.argument!r}")
        if not cmath.isfinite(self.value):
            raise ValueError(f"value must be finite, got {self.value!r}")
        if abs(self.value) > 1.0 + 1e-9:
            raise ValueError(f"|value| must not exceed 1, got {abs(self.value)}")


def _ring_closed_form(n_spins: int, wall_weight: float) -> np.ndarray:
    """Normalized coefficients of the ring polynomial for q = wall_weight.

    The coefficient of z**n counts configurations with n down spins, weighted
    by q per pair of domain walls: n down spins arranged in m circular blocks
    contribute (N/m) C(n-1, m-1) C(N-n-1, m-1) q**m.  Evaluated with a
    multiplicative term recurrence in m, applied to every n <= N/2 at once
    (block counts run up to min(n, N-n) = n); all terms are positive, so the
    sum is stable.
    """
    nb = n_spins
    q = wall_weight
    n = np.arange(1, nb // 2 + 1)
    term = np.full(n.size, nb * q)
    total = term.copy()
    for m in range(1, n.size):
        active = n[m:]
        term[m:] *= (active - m) * (nb - active - m) * q / (m * (m + 1))
        total[m:] += term[m:]
    coeffs = np.empty(nb + 1)
    coeffs[0] = coeffs[nb] = 1.0
    coeffs[n] = total
    coeffs[nb - n] = total
    return coeffs


def partition_coefficients(ring: IsingRing) -> PartitionPolynomial:
    """Closed-form normalized coefficients of the ring's fugacity polynomial.

    Returns the polynomial with end coefficients 1 and
    scale_log = beta * coupling * n_spins absorbed into the prefactor.
    beta = 0 yields exactly the binomial coefficients C(N, n) (all spin
    configurations weighted equally).

    Raises:
        OverflowError: if the normalised coefficient sum
            (1 + sqrt q)^N + (1 - sqrt q)^N, q = exp(-4 * beta * coupling),
            exceeds the double range; checked before any coefficient is built.
        ValueError: if beta * coupling is so large that interior coefficients
            underflow to zero in double precision (beta * coupling > ~186).
    """
    nb = ring.n_spins
    k = ring.inverse_temperature * ring.coupling
    root_q = math.exp(-2.0 * k)
    log_sum = nb * math.log1p(root_q) + math.log1p(((1.0 - root_q) / (1.0 + root_q)) ** nb)
    if log_sum > _LOG_DOUBLE_MAX:
        raise OverflowError(
            f"ring too large for double-precision coefficients: N_b={nb} at beta*lambda={k:.6g} "
            f"has a normalised coefficient sum of e^{log_sum:.1f}, past the limit "
            f"e^{_LOG_DOUBLE_MAX:.1f} (about N_b <= {int(_LOG_DOUBLE_MAX / math.log1p(root_q))})"
        )
    coeffs = _ring_closed_form(nb, np.exp(-4.0 * k))
    if np.any(coeffs <= 0.0):
        raise ValueError(
            "inverse_temperature * coupling too large: interior coefficients "
            "underflow to zero in double precision"
        )
    return PartitionPolynomial(
        coefficients=coeffs,
        scale_log=k * nb,
        beta=ring.inverse_temperature,
        beta_lambda=k,
    )


def partition_coefficients_bruteforce(ring: IsingRing) -> PartitionPolynomial:
    """Coefficients by direct enumeration of all 2**n_spins configurations.

    Independent of the closed form: walks every spin configuration, counts
    down spins and domain walls with bit operations, and accumulates the
    Boltzmann weights.  Intended as a cross-check; limited to n_spins <= 24.
    """
    nb = ring.n_spins
    if nb > 24:
        raise ValueError(f"brute force limited to n_spins <= 24, got {nb}")
    k = ring.inverse_temperature * ring.coupling
    counts = np.zeros(nb + 1)
    # chunk the configuration range to bound memory at large n_spins
    chunk = 1 << min(nb, 20)
    for start in range(0, 1 << nb, chunk):
        x = np.arange(start, start + chunk, dtype=np.uint64)
        rotated = (x >> np.uint64(1)) | ((x & np.uint64(1)) << np.uint64(nb - 1))
        walls = np.bitwise_count(x ^ rotated).astype(np.int64)
        down = np.bitwise_count(x).astype(np.int64)
        counts += np.bincount(down, weights=np.exp(-2.0 * k * walls), minlength=nb + 1)
    return PartitionPolynomial(
        coefficients=counts,
        scale_log=k * nb,
        beta=ring.inverse_temperature,
    )


def _ring_phases(nb: int, k: float) -> np.ndarray:
    """All zero phases of a ring with beta * coupling = k, sorted ascending.

    The transfer eigenvalues at the zeros are r e^{+-i gamma_j} with
    cos(N gamma_j) = 0, gamma_j = (2j - 1) pi / (2N).  The fugacity phase is
    2 alpha_j with sin^2 alpha = sin^2 gamma + q cos^2 gamma, q = exp(-4k);
    atan2(s, cos(gamma) sqrt(1 - q)) keeps alpha conditioned near pi/2.  The
    phases below pi are mirrored to their conjugates, and an odd ring has pi
    itself.  At k = 0 every alpha is pi/2: all N zeros sit at pi.
    """
    gamma = (2.0 * np.arange(1, nb // 2 + 1) - 1.0) * np.pi / (2.0 * nb)
    s = np.sqrt(np.sin(gamma) ** 2 + math.exp(-4.0 * k) * np.cos(gamma) ** 2)
    lower = 2.0 * np.arctan2(s, np.cos(gamma) * math.sqrt(-math.expm1(-4.0 * k)))
    middle = [np.pi] if nb % 2 else []
    return np.concatenate([lower, middle, TWO_PI - lower[::-1]])


def bisect_roots(f, lo: np.ndarray, hi: np.ndarray, sign_lo: np.ndarray, xtol: float) -> np.ndarray:
    """Roots of f in the sign-change brackets [lo, hi], refined all at once.

    f maps an array of points to values and sign_lo is the sign of f at lo.
    Each step evaluates f once at every midpoint; a bracket is done once it
    is narrower than brentq's tolerance, xtol + 8.9e-16 |x|.
    """
    while np.any(hi - lo > xtol + 8.9e-16 * np.abs(hi)):
        mid = 0.5 * (lo + hi)
        right = np.sign(f(mid)) == sign_lo
        lo, hi = np.where(right, mid, lo), np.where(right, hi, mid)
    return 0.5 * (lo + hi)


def _zeros_from_coefficients(poly: PartitionPolynomial) -> np.ndarray:
    """Upper-half zero phases by sign-change bracketing of the coefficient sum.

    Scans (0, pi] on a uniform grid of 8 * degree points for sign changes of
    exp(-i*N*phi/2) P(exp(i*phi)) / P(1), which is real by palindromy,
    bisects every bracket at once, and doubles the grid (up to 512 * degree)
    while the count is short of the expected ceil(degree / 2).  A count above
    it fails at once: the grids are nested, so every sign change persists on
    the finer grids, and an excess means the sum's rounding noise (about
    1e-16 of P(1)) swamps the signal between zeros.  A count still short at
    the finest grid signals a non-ferromagnetic input or zeros clustered
    below double-precision resolution.
    """
    nb = poly.degree
    expected = (nb + 1) // 2

    def symmetrized(phi):
        return _factor_values(poly.coefficients, -0.5 * phi).real

    density = 8
    while True:
        grid = np.linspace(0.0, np.pi, density * nb + 1)[1:]
        if nb % 2 == 1:
            # phi = pi is a guaranteed zero for odd rings; exclude its bracket
            grid = grid[:-1]
        signs = np.sign(symmetrized(grid))
        lo = np.concatenate(([0.0], grid[:-1]))
        lo_sign = np.concatenate(([1.0], signs[:-1]))  # polynomial positive at phi -> 0+
        flips = lo_sign * signs < 0.0
        found = np.count_nonzero(flips) + np.count_nonzero(signs == 0.0) + nb % 2
        if found == expected:
            refined = bisect_roots(symmetrized, lo[flips], grid[flips], lo_sign[flips], 1e-15)
            return np.sort(np.concatenate([refined, grid[signs == 0.0], [np.pi] * (nb % 2)]))
        if found > expected:
            raise RuntimeError(
                f"found {found} sign changes in (0, pi] for {expected} zero "
                "phases: the coefficient sum's noise floor exceeds its value "
                "between zeros, a double-precision resolution limit; build ring "
                "polynomials with partition_coefficients, whose zeros come from "
                "the transfer form"
            )
        if density >= 512:
            raise RuntimeError(
                f"found {found} zero phases in (0, pi], expected {expected}: "
                "input is not a ferromagnetic ring polynomial or its zeros are "
                "clustered below double-precision resolution"
            )
        density *= 2


def lee_yang_zeros(poly: PartitionPolynomial) -> LeeYangZeroSet:
    """All unit-circle zero phases of a normalized palindromic polynomial.

    Ring polynomials (``poly.beta_lambda`` set) take the closed-form phases
    of the transfer eigenvalues; other palindromic inputs use coefficient-sum
    bracketing.  The returned phases are sorted, closed under conjugation,
    and carry the normalized residual of the coefficient polynomial at each
    phase (``residuals``) and its maximum (``residual_bound``).

    Raises:
        RuntimeError: if a hand-built polynomial does not give ceil(degree / 2)
            phases in (0, pi]: fewer signal non-ferromagnetic input, more the
            resolution limit of the coefficient sum.
    """
    nb = poly.degree
    if poly.beta_lambda is not None:
        phases = _ring_phases(nb, poly.beta_lambda)
    else:
        upper = _zeros_from_coefficients(poly)
        interior = upper[upper < np.pi - 1e-12]
        at_pi = upper[upper >= np.pi - 1e-12]
        phases = np.sort(np.concatenate([interior, at_pi, TWO_PI - interior]))
        if phases.size != nb:
            raise RuntimeError(
                f"reconstructed {phases.size} phases for degree {nb}; zero set incomplete"
            )

    roots = np.exp(1j * phases)
    residuals = np.abs(np.polyval(poly.coefficients[::-1], roots)) / poly.coefficients.sum()
    return LeeYangZeroSet(
        phases=phases,
        residual_bound=float(residuals.max()),
        beta=poly.beta,
        residuals=residuals,
    )


def companion_roots(poly: PartitionPolynomial) -> np.ndarray:
    """All complex roots via the companion-matrix eigenproblem (diagnostic route).

    Independent of the bracketing solver; useful for cross-checks.  Accuracy
    degrades for clustered roots at high degree: beyond degree ~40 at small
    beta the rounded coefficient vector itself no longer pins the roots to the
    unit circle.
    """
    return np.roots(poly.coefficients[::-1])


def _factor_values(coeffs: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Dephasing factor for an array of rotation angles w = beta * x.

    A(w) = exp(i*N*w) * sum_n f_n exp(-2*i*n*w) / sum_n f_n.  Chunked so large
    time grids do not materialize a grid-by-degree matrix all at once.
    """
    nb = coeffs.size - 1
    offsets = nb - 2.0 * np.arange(nb + 1)
    norm = coeffs.sum()
    out = np.empty(angles.shape, dtype=complex)
    chunk = max(1, 8_388_608 // (nb + 1))
    flat = angles.ravel()
    flat_out = out.ravel()
    for start in range(0, flat.size, chunk):
        block = flat[start : start + chunk]
        flat_out[start : start + chunk] = (
            np.exp(1j * np.outer(block, offsets)) @ coeffs / norm
        )
    return out


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


def _complex_pair_sum(nb, root_q, q, w, s, c, s2):
    # r_+- = sqrt(t) e^{+-i gamma}, t = (1 - sqrt q) / (1 + sqrt q): the sum
    # is 2 t^(N/2) cos(N gamma).  N gamma = N w + N (gamma - |w| folded to
    # (0, pi)): N w is split so its large part is an exact product (|w| < 32)
    # and the offset is written without cancellation, so the phase is good to
    # a few ulp of 1, not of N gamma
    abs_s = np.abs(s)
    root = np.sqrt(s2 - q)
    offset = np.arctan2(-c * q / (root + abs_s), c * c + root * abs_s)
    low = np.fmod(w, 2.0**-20)
    head = nb * (w - low)
    tail = nb * low + np.copysign(nb, s) * offset
    x0 = 2.0 * root_q / (1.0 + root_q)  # 1 - t
    amplitude = 2.0 * math.exp(0.5 * nb * math.log1p(-x0)) if x0 < 1.0 else 0.0
    return amplitude * (np.cos(head) * np.cos(tail) - np.sin(head) * np.sin(tail))


def _transfer_power_sum(nb: int, k: float, w: np.ndarray) -> np.ndarray:
    """(lambda_+^N + lambda_-^N) / lambda_+(0)^N at rotation angles w.

    The scaled eigenvalues are r_+- = (cos w +- sqrt(q - sin^2 w)) / (1 + sqrt q),
    q = exp(-4k): a real pair where sin^2 w <= q, a complex pair elsewhere.
    A 0-d w (a numpy scalar) takes its one branch directly and returns a
    numpy scalar; an array is split by branch with a mask.
    """
    root_q = math.exp(-2.0 * k)
    q = root_q * root_q
    s = np.sin(w)
    c = np.cos(w)
    s2 = s * s
    arc = s2 > q
    if arc.ndim == 0:
        if arc:
            return _complex_pair_sum(nb, root_q, q, w, s, c, s2)
        return _real_pair_sum(nb, root_q, q, s2, c)
    if arc.all():
        return _complex_pair_sum(nb, root_q, q, w, s, c, s2)
    if not arc.any():
        return _real_pair_sum(nb, root_q, q, s2, c)
    out = np.empty(w.shape)
    out[arc] = _complex_pair_sum(nb, root_q, q, w[arc], s[arc], c[arc], s2[arc])
    out[~arc] = _real_pair_sum(nb, root_q, q, s2[~arc], c[~arc])
    return out


@lru_cache(maxsize=64)
def _transfer_norm(nb: int, k: float) -> float:
    # the same arithmetic as every other point, so A(0) == 1 exactly
    return float(_transfer_power_sum(nb, k, np.zeros(1))[0])


def factor_values(poly: PartitionPolynomial, angles) -> np.ndarray | np.float64:
    """Real dephasing factor A(w) at rotation angles w = beta * x.

    For a ring, A = (lambda_+^N + lambda_-^N) / (lambda_+(0)^N + lambda_-(0)^N)
    from its two transfer eigenvalues: O(1) per point, a few 1e-16 absolute
    at any N.  Hand-built polynomials use the coefficient sum, and raise
    RuntimeError if its imaginary part exceeds 1e-9.

    ``angles`` may be an array or a scalar (Python float, numpy scalar or
    0-d array).  A scalar runs the same arithmetic on numpy scalars, so its
    value is bit-identical to that element of an array call, and it returns
    an ``np.float64`` on both routes; an array returns an array of its shape.
    """
    angles = np.asarray(angles, dtype=float)[()]
    if poly.beta_lambda is not None:
        k = poly.beta_lambda
        return _transfer_power_sum(poly.degree, k, angles) / _transfer_norm(poly.degree, k)
    values = _factor_values(poly.coefficients, angles)
    if np.max(np.abs(values.imag), initial=0.0) > 1e-9:
        raise RuntimeError("dephasing factor acquired a non-real component")
    return values.real[()]


def dephasing_factor(poly: PartitionPolynomial, x: float) -> DephasingFactor:
    """Probe dephasing factor at imaginary field i*x.

    Real and even in x for the symmetric ring polynomial; |A| <= 1 with
    equality at x = 0.  Periodic in beta*x with period pi.  The angle
    beta * x goes to :func:`factor_values` as a scalar, so the value is
    bit-identical to the one an array call gives at that point.

    Raises:
        ValueError: if x is not finite.
    """
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x!r}")
    value = complex(factor_values(poly, poly.beta * x))
    return DephasingFactor(value=value, argument=float(x))


def dephasing_factor_product(zeros: LeeYangZeroSet, x: float) -> DephasingFactor:
    """Probe dephasing factor from the zero phases, product form.

    A = exp(i*N*w) * prod_n (exp(-2*i*w) - exp(i*phi_n)) / (1 - exp(i*phi_n))
    with w = beta * x.  Agrees with :func:`dephasing_factor` wherever both are
    well conditioned.

    Raises:
        ValueError: if any phase sits at the positive real axis (the
            denominator 1 - exp(i*phi_n) vanishes, signalling an invalid set).
    """
    if not np.isfinite(x):
        raise ValueError(f"x must be finite, got {x!r}")
    roots = np.exp(1j * zeros.phases)
    denom = 1.0 - roots
    if np.any(np.abs(denom) < 1e-12):
        raise ValueError("zero phase at the positive real axis: invalid zero set")
    w = zeros.beta * x
    nb = zeros.phases.size
    zeta = np.exp(-2j * w)
    value = np.exp(1j * nb * w) * np.prod((zeta - roots) / denom)
    return DephasingFactor(value=complex(value), argument=float(x))


def zero_times(zeros: LeeYangZeroSet, eta: float) -> np.ndarray:
    """Times at which a probe with its own bath loses coherence completely.

    Each zero phase phi_n maps to t_n = phi_n / (4 * eta) for probe-bath
    coupling eta; at these times the dephasing factor crosses zero and the
    probe coherence vanishes.  Sorted ascending.
    """
    if not (np.isfinite(eta) and eta > 0.0):
        raise ValueError(f"eta must be positive and finite, got {eta!r}")
    return zeros.phases / (4.0 * eta)
