"""Map the time domains where pairwise entanglement stays destroyed.

Under the independent-bath channel the rescaled concurrence does not just
touch zero at the coherence zeros: it stays exactly zero on a finite
interval around each one (sudden death and delayed rebirth).  This script
runs one period, lists every vanishing domain, and checks that each
interior domain contains the zero time it surrounds.  Strong coupling
(beta * lambda >= a few) keeps neighbouring domains from merging.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from lyprobe import (
    Channel,
    IsingRing,
    OatParameters,
    Scenario,
    coherence_period,
    default_steps,
    lee_yang_zeros,
    oat_reduced_state,
    run_scenario,
    spin_squeezing,
    vanishing_domains,
    zero_times,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nb", type=int, default=10, help="ring size (default 10)")
    ap.add_argument("--beta", type=float, default=10.0, help="beta * lambda, coupling as the unit (default 10)")
    ap.add_argument("--probes", type=int, default=3, help="ensemble size N (default 3)")
    ap.add_argument("--theta", type=float, default=np.pi / 2, help="twisting angle (default pi/2)")
    ap.add_argument("--eta", type=float, default=0.01, help="probe-ring coupling (default 0.01)")
    ap.add_argument("--steps", type=int, default=0, help="grid points; 0 picks a zero-resolving default")
    args = ap.parse_args()

    ring = IsingRing(args.nb, inverse_temperature=args.beta)
    period = coherence_period(args.eta, Channel.I)
    zeros = lee_yang_zeros(ring)
    t_zero = zero_times(zeros, args.eta)
    steps = args.steps or 4 * default_steps(zeros, args.eta, period, Channel.I)

    probe = OatParameters(args.probes, args.theta)
    scenario = Scenario(ring, probe, Channel.I, period, steps, args.eta)
    series = run_scenario(scenario)
    domains = vanishing_domains(series)

    print(f"ring N_b={args.nb} beta*lambda={args.beta}, N={args.probes} probes")
    print(f"{len(domains)} vanishing domain(s) on one period ({steps} grid points)")
    print(f"{'start':>12s} {'center':>12s} {'end':>12s}  {'zero inside':>12s}  clipped")
    for dom in domains:
        inside = t_zero[(t_zero >= dom.start) & (t_zero <= dom.end)]
        tag = f"{inside[0]:12.4f}" if inside.size else f"{'none':>12s}"
        print(f"{dom.start:12.4f} {dom.center:12.4f} {dom.end:12.4f}  {tag}  {dom.clipped}")

    interior = [d for d in domains if not d.clipped]
    covered = sum(
        1 for d in interior if np.any((t_zero >= d.start) & (t_zero <= d.end))
    )
    print(f"interior domains covering a predicted zero: {covered}/{len(interior)}")

    # squeezing recovers wherever the factor does; report the best improvement
    report = spin_squeezing(oat_reduced_state(probe), Channel.I, 1.0, probe.n_probes)
    print(f"max squeezing improvement available: {report.improvement_max:.6f}")


if __name__ == "__main__":
    try:
        main()
    except ValueError as exc:
        # the library's refusal of an input, as one line and exit 1
        sys.exit(f"error: {exc}")
