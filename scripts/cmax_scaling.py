"""Fit the decay of the maximum pair concurrence against ensemble size.

Under the independent-bath channel the per-pair concurrence grows with |A|,
and A(0) = 1, so at any coupling its maximum over time is the t = 0 value,
the concurrence of the initial state; the ring options do not change it.
That maximum decays with the number of probes N; this
script fits ln C_max linearly in (N - 2) and compares the slope with the
large-N prediction ln(cos^2(theta/2)).  The fit is asymptotic: small-N
windows carry visible curvature and a correspondingly large residual.
"""

from __future__ import annotations

import argparse

import numpy as np

from lyprobe import IsingRing, fit_cmax_scaling


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--theta", type=float, default=np.pi / 3, help="twisting angle (default pi/3)")
    ap.add_argument("--beta", type=float, default=10.0, help="inverse temperature (default 10)")
    ap.add_argument("--lambda", dest="coupling", type=float, default=1.0, help="ring coupling (default 1.0)")
    ap.add_argument("--nb", type=int, default=20, help="ring size (default 20)")
    ap.add_argument("--n-min", type=int, default=20, help="smallest ensemble size (default 20)")
    ap.add_argument("--n-max", type=int, default=28, help="largest ensemble size (default 28)")
    ap.add_argument("--eta", type=float, default=0.01, help="probe-ring coupling (default 0.01)")
    args = ap.parse_args()

    if args.n_max < args.n_min + 2:
        ap.error("need at least 3 ensemble sizes (n-max >= n-min + 2)")

    ring = IsingRing(args.nb, coupling=args.coupling, inverse_temperature=args.beta)
    n_values = range(args.n_min, args.n_max + 1)
    fit = fit_cmax_scaling(n_values, args.theta, ring, eta=args.eta)

    print(f"theta={args.theta:.6f}  ring N_b={args.nb} beta={args.beta}")
    print(f"{'N':>4s} {'C_max':>14s} {'ln C_max':>12s}")
    for n, lc in zip(fit.n_values, fit.log_cmax):
        print(f"{n:4d} {np.exp(lc):14.6e} {lc:12.6f}")

    asymptote = np.log(np.cos(args.theta / 2) ** 2)
    print(f"fit: ln C_max = {fit.alpha:.6f} * (N - 2) + {fit.intercept:.6f}")
    print(f"rms residual {fit.residual:.3e}")
    print(
        f"slope vs ln(cos^2(theta/2)) = {asymptote:.6f}: "
        f"off by {abs(fit.alpha - asymptote) / abs(asymptote):.2%}"
    )


if __name__ == "__main__":
    main()
