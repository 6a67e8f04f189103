"""Independent oracle routes used to validate the package's closed forms.

Everything here is deliberately implemented through different mathematics or
different numerics than the package itself: arbitrary-precision coefficient
sums for the dephasing factor, arbitrary-precision simultaneous root iteration
for the zero phases and unit-circle certificates, matrix-exponential
state-vector evolution for the twisted pair state, and the textbook
non-Hermitian eigenvalue formulation of the spin-flip spectrum.  Twelve
entries are reference implementations rather than independent routes: the
transfer-matrix phase formula, in double and at 40 digits (the package
now uses it in atan2 form), the
transfer eigenvalues at 50 digits (the package's mathematics without its
double-precision branch split; the only reference cheap enough for rings
whose coefficients overflow), the scalar double loop the package's
coefficient recurrence was vectorised from, that vectorised recurrence
before it stopped at underflow, the np.savetxt call the package's CSV
writer reproduces byte for byte, the per-domain loop the package's array
form of ``vanishing_domains`` replaced, the inline series formulas the
package's X-state kernel replaced, the per-operator ``np.kron`` products and
loop sum the package's stacked Kraus sets replaced, the per-bracket bounded
minimization (scipy's ``minimize_scalar``) the package's vectorized
golden-section search replaced, the per-bracket root search (scipy's
``brentq``) the package's vectorized root refinement replaced, the maximum
of the concurrence over a time grid the package's C_max fit replaced with
its value at A = 1, and the keyword-argument X-state constructors of the
channel updates.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from lyprobe import Channel, Scenario, TwoQubitXState, VanishingDomain, run_scenario
from lyprobe.channels import _factor_value

# natural log of the largest double, as the package's overflow refusal uses it
_LOG_DOUBLE_MAX = math.log(float(np.finfo(float).max))


def transfer_phases(n_spins: int, beta_lambda: float) -> np.ndarray:
    """Zero phases of the ring polynomial from transfer-matrix eigen-angles.

    Writing the two transfer eigenvalues at angle alpha as r e^{+-i alpha},
    the partition function vanishes when cos(n_spins * alpha) = 0 and
    sin^2(alpha_k) = sin^2(gamma_k) + q cos^2(gamma_k) with
    gamma_k = (2k-1) pi / (2 n_spins), q = exp(-4 beta_lambda); the phase of
    the corresponding fugacity root is 2 pi - 2 alpha_k.
    """
    q = np.exp(-4.0 * beta_lambda)
    k = np.arange(1, n_spins + 1)
    gamma = (2.0 * k - 1.0) * np.pi / (2.0 * n_spins)
    s = np.sqrt(np.sin(gamma) ** 2 + q * np.cos(gamma) ** 2)
    alpha = np.where(gamma <= 0.5 * np.pi, np.arcsin(s), np.pi - np.arcsin(s))
    return np.sort(2.0 * np.pi - 2.0 * alpha)


def mp_phase_errors(n_spins: int, beta_lambda: float, phases, dps: int = 40) -> np.ndarray:
    """|phase - exact phase| of each of a ring's sorted zero phases, the exact ones at dps digits.

    The exact phases are 2 alpha_j, alpha_j = atan2(sqrt(sin^2 gamma_j + q cos^2 gamma_j),
    cos(gamma_j) sqrt(1 - q)) over gamma_j = (2j - 1) pi / (2 n_spins), j = 1..n_spins,
    ascending in j; the differences are taken at dps digits too.
    """
    import mpmath as mp

    with mp.workdps(dps):
        q = mp.exp(-4 * mp.mpf(beta_lambda))
        errors = []
        for j, phase in enumerate(np.asarray(phases, dtype=float), start=1):
            gamma = (2 * j - 1) * mp.pi / (2 * n_spins)
            alpha = mp.atan2(mp.sqrt(mp.sin(gamma) ** 2 + q * mp.cos(gamma) ** 2), mp.cos(gamma) * mp.sqrt(1 - q))
            errors.append(float(abs(mp.mpf(float(phase)) - 2 * alpha)))
    return np.array(errors)


def ring_closed_form_loop(n_spins: int, wall_weight: float) -> np.ndarray:
    """Ring coefficients by the scalar double loop over n and block count m.

    The reference for the package's vectorised recurrence: the same
    floating-point operations in the same order, one coefficient at a time,
    so the two must agree bit for bit.
    """
    nb = n_spins
    q = wall_weight
    coeffs = np.zeros(nb + 1)
    coeffs[0] = coeffs[nb] = 1.0
    for n in range(1, nb // 2 + 1):
        m_max = min(n, nb - n)
        term = nb * q
        total = term
        for m in range(1, m_max):
            term *= (n - m) * (nb - n - m) * q / (m * (m + 1))
            total += term
        coeffs[n] = total
        coeffs[nb - n] = total
    return coeffs


def ring_coefficients_full_recurrence(n_spins: int, beta_lambda: float) -> np.ndarray:
    """Ring coefficients by the vectorised recurrence run over every block count.

    The reference for the package's early stop: ``IsingRing.coefficients``
    as it was before the recurrence stopped at underflow, copied verbatim
    with its overflow and underflow refusals, so the two must agree bit for
    bit and raise the same errors.
    """
    nb = n_spins
    k = beta_lambda
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
    for m in range(1, n.size):
        active = n[m:]
        term[m:] *= (active - m) * (nb - active - m) * q / (m * (m + 1))
        total[m:] += term[m:]
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
    return coeffs


def savetxt_csv(path, header: str, data) -> None:
    """CSV of the 2-D array data under a header line, written by np.savetxt.

    The byte reference for the package's CSV writer: 12 significant digits,
    comma separated, no comment prefix on the header.
    """
    np.savetxt(path, data, fmt="%.12g", delimiter=",", header=header, comments="")


def vanishing_domains_loop(series, epsilon: float = 1e-12) -> list:
    """Vanishing domains built one at a time from numpy scalars.

    The reference for the package's array form of ``vanishing_domains``:
    its body before the starts, ends, centres and clipped flags became
    arrays, copied verbatim, so the two must agree field for field.
    """
    if not (np.isfinite(epsilon) and epsilon >= 0.0):
        raise ValueError(f"epsilon must be >= 0, got {epsilon!r}")
    below = series.concurrence_rescaled <= epsilon
    if not below.any():
        return []
    t = series.times
    edges = np.diff(below.astype(int))
    starts = list(np.nonzero(edges == 1)[0] + 1)
    ends = list(np.nonzero(edges == -1)[0])
    if below[0]:
        starts.insert(0, 0)
    if below[-1]:
        ends.append(below.size - 1)
    domains = []
    for i0, i1 in zip(starts, ends):
        domains.append(
            VanishingDomain(
                start=float(t[i0]),
                center=float(0.5 * (t[i0] + t[i1])),
                end=float(t[i1]),
                clipped=bool(i0 == 0 or i1 == below.size - 1),
            )
        )
    return domains


def kraus_tensor_kron(left_ops, right_ops) -> tuple:
    """Tensor product of two Kraus sets as one ``np.kron`` per operator pair."""
    return tuple(np.kron(a, b) for a in left_ops for b in right_ops)


def kraus_apply_loop(rho: np.ndarray, ops) -> np.ndarray:
    """sum_i M_i rho M_i^dag accumulated one operator at a time."""
    out = np.zeros_like(rho, dtype=complex)
    for m in ops:
        out += m @ rho @ m.conj().T
    return out


def bounded_minima(f, lo, hi, xatol: float) -> np.ndarray:
    """Minimum of f on each bracket [lo_i, hi_i], one bounded Brent search each.

    f maps an array of points to values; each search calls it on
    one-element arrays, with scipy's absolute tolerance xatol.
    """
    return np.array(
        [
            minimize_scalar(
                lambda x: float(f(np.array([x]))[0]),
                bounds=(left, right),
                method="bounded",
                options={"xatol": xatol},
            ).x
            for left, right in zip(lo, hi)
        ]
    )


def brentq_roots(f, lo, hi) -> np.ndarray:
    """Root of f in each sign-change bracket [lo_i, hi_i], one brentq search each.

    f maps an array of points to values; each search calls it on
    one-element arrays, with scipy's absolute tolerance xtol = 1e-15.
    """
    return np.array(
        [
            brentq(lambda x: float(f(np.array([x]))[0]), left, right, xtol=1e-15)
            for left, right in zip(lo, hi)
        ]
    )


def max_original_concurrence(ring, probe, eta: float, t_max: float, steps: int) -> float:
    """Maximum of the per-pair concurrence under channel I on the grid linspace(0, t_max, steps)."""
    series = run_scenario(Scenario(ring, probe, Channel.I, t_max, steps, eta))
    return float(series.concurrence_rescaled.max() / (probe.n_probes - 1))


def evolve_channel_I_explicit(state: TwoQubitXState, factor) -> TwoQubitXState:
    """Channel I update with each X-state field passed by keyword."""
    a = _factor_value(factor)
    a2 = a * a
    return TwoQubitXState(
        v_plus=state.v_plus,
        v_minus=state.v_minus,
        w=state.w,
        y=a2 * state.y,
        u=a2 * state.u,
    )


def evolve_channel_II_explicit(state: TwoQubitXState, factor) -> TwoQubitXState:
    """Channel II update with each X-state field passed by keyword."""
    a = _factor_value(factor)
    return TwoQubitXState(
        v_plus=state.v_plus,
        v_minus=state.v_minus,
        w=state.w,
        y=state.y,
        u=a * state.u,
    )


def series_observables_reference(state, channel, n, a):
    """Coherence, rescaled concurrence, xi2 and xi2_prime over factors a.

    The byte reference for the package's X-state kernel: the observable
    block the time series was computed with before the kernel existed, with
    the same operations in the same order.  ``channel`` is "I" or "II".
    """
    mod_u0 = abs(state.u)
    mod_y0 = abs(state.y)
    root_vv = np.sqrt(state.v_plus * state.v_minus)

    if channel == "I":
        damp_u = a * a * mod_u0
        damp_y = a * a * mod_y0
        coh = 2.0 * a * a * (mod_u0 + mod_y0)
        xi2 = 1.0 + 2.0 * (n - 1) * a * a * (state.y - mod_u0)
    else:
        damp_u = np.abs(a) * mod_u0
        damp_y = np.full_like(a, mod_y0)
        coh = 2.0 * (np.abs(a) * mod_u0 + mod_y0)
        xi2 = 1.0 + 2.0 * (n - 1) * (state.y - np.abs(a) * mod_u0)

    lam1 = root_vv + damp_u
    lam2 = np.abs(root_vv - damp_u)
    lam3 = state.w + damp_y
    lam4 = np.abs(state.w - damp_y)
    total = lam1 + lam2 + lam3 + lam4
    conc = np.maximum(0.0, 2.0 * np.maximum(lam1, lam3) - total)
    rescaled = (n - 1) * conc
    return coh, rescaled, xi2, 1.0 - rescaled


def mp_ring_factor(n_spins: int, beta_lambda: float, angles, dps: int = 50) -> np.ndarray:
    """Dephasing factor of a ring as an exact-count coefficient sum at dps digits.

    The coefficient of z**n is sum_m (N/m) C(n-1, m-1) C(N-n-1, m-1) q**m
    with q = exp(-4 beta_lambda), counted with exact integers; then
    A(w) = sum_n f_n cos((N - 2n) w) / sum_n f_n.  No transfer matrix and no
    double-precision rounding enter.
    """
    import mpmath as mp

    nb = n_spins
    with mp.workdps(dps):
        q = mp.exp(-4 * mp.mpf(beta_lambda))
        powers = [q**m for m in range(nb // 2 + 1)]
        coeffs = [mp.mpf(1)] + [mp.mpf(0)] * (nb - 1) + [mp.mpf(1)]
        for n in range(1, nb):
            for m in range(1, min(n, nb - n) + 1):
                count = nb * math.comb(n - 1, m - 1) * math.comb(nb - n - 1, m - 1) // m
                coeffs[n] += count * powers[m]
        norm = mp.fsum(coeffs)
        values = []
        for w in np.asarray(angles, dtype=float):
            w_mp = mp.mpf(float(w))
            total = mp.fsum(f * mp.cos((nb - 2 * n) * w_mp) for n, f in enumerate(coeffs))
            values.append(float(total / norm))
    return np.array(values)


def mp_transfer_factor(n_spins: int, beta_lambda: float, angles, dps: int = 50) -> np.ndarray:
    """Dephasing factor of a ring from its transfer eigenvalues at dps digits.

    The eigenvalues of the imaginary-field transfer matrix, scaled by
    exp(beta_lambda), are cos w +- sqrt(q - sin^2 w) with q = exp(-4 beta_lambda),
    taken as complex numbers on both branches; A(w) is the real part of the
    sum of their N-th powers over its value at w = 0.  The same mathematics
    as the package's transfer form, without its branch split, log-polar
    form or double-precision rounding; cheap at any ring size, so it reaches
    rings whose coefficient vector overflows.
    """
    import mpmath as mp

    nb = n_spins
    with mp.workdps(dps):
        q = mp.exp(-4 * mp.mpf(beta_lambda))

        def power_sum(w):
            root = mp.sqrt(mp.mpc(q - mp.sin(w) ** 2))
            return (mp.cos(w) + root) ** nb + (mp.cos(w) - root) ** nb

        norm = mp.re(power_sum(mp.mpf(0)))
        values = [float(mp.re(power_sum(mp.mpf(float(w)))) / norm) for w in np.asarray(angles, dtype=float)]
    return np.array(values)


def highprecision_roots(coefficients: np.ndarray, dps: int = 50):
    """All roots of the (float) coefficient vector at dps decimal digits.

    Returns (moduli, phases) with phases sorted in (0, 2 pi].  Uses mpmath's
    simultaneous iteration, which keeps clustered roots resolvable where the
    double-precision companion eigensolver loses them.
    """
    import mpmath as mp

    with mp.workdps(dps):
        coeffs = [mp.mpf(float(c)) for c in np.asarray(coefficients)[::-1]]
        roots = mp.polyroots(coeffs, maxsteps=200, extraprec=80)
        moduli = np.array([float(abs(r)) for r in roots])
        phases = np.array([float(mp.arg(r)) for r in roots])
    phases = np.mod(phases, 2.0 * np.pi)
    phases[phases == 0.0] = 2.0 * np.pi
    order = np.argsort(phases)
    return moduli[order], phases[order]


@lru_cache(maxsize=None)
def _twist_generator(n: int):
    """Eigendecomposition of Jx^2 on the full 2^n space plus the start vector.

    Jx is assembled site by site as an explicit dense matrix; no symmetric
    subspace, no product shortcut.  Cached so many angles reuse one solve.
    """
    dim = 1 << n
    sx = 0.5 * np.array([[0.0, 1.0], [1.0, 0.0]])
    jx = np.zeros((dim, dim))
    for site in range(n):
        op = np.array([[1.0]])
        for other in range(n):
            op = np.kron(op, sx if other == site else np.eye(2))
        jx += op
    evals, vecs = np.linalg.eigh(jx @ jx)
    psi0 = np.zeros(dim)
    psi0[-1] = 1.0
    return evals, vecs, vecs.T @ psi0


def exact_pair_state(n: int, theta: float) -> np.ndarray:
    """Two-qubit reduced state of exp(-i theta Jx^2 / 2) |1...1> by brute force.

    Propagates the full 2^n state vector through the diagonalized generator
    and partial-traces all but the first two qubits.  No Hadamard shortcut,
    no symmetry assumptions.
    """
    evals, vecs, c0 = _twist_generator(n)
    psi = vecs @ (np.exp(-0.5j * theta * evals) * c0)
    block = psi.reshape(4, (1 << n) // 4)
    return block @ block.conj().T


def wootters_reference(rho: np.ndarray) -> float:
    """Concurrence via the textbook non-Hermitian eigenvalue route.

    lambda_i are square roots of the eigenvalues of rho * rho_tilde; distinct
    numerics from any singular-value formulation.
    """
    rho = np.asarray(rho, dtype=complex)
    sy2 = np.array(
        [
            [0, 0, 0, -1],
            [0, 0, 1, 0],
            [0, 1, 0, 0],
            [-1, 0, 0, 0],
        ],
        dtype=complex,
    )
    product = rho @ (sy2 @ rho.conj() @ sy2)
    evals = np.linalg.eigvals(product)
    lams = np.sort(np.sqrt(np.clip(evals.real, 0.0, None)))[::-1]
    return float(max(0.0, lams[0] - lams[1] - lams[2] - lams[3]))
