"""Scan probe coherence against the ring's zero-crossing predictions.

Runs one dephasing scenario over a whole number of coherence periods.
For the independent bath (channel I) the coherence collapses to zero
exactly when the dephasing factor does; the script detects those times
and compares them with the times predicted directly from the
partition-function zeros, then counts the recovery peaks inside the
first period (one per ring site).  The shared bath (channel II) keeps
a residual coherence floor of 2y, so full collapse never happens; the
script reports the floor and the dip depth instead.
"""

from __future__ import annotations

import argparse

import numpy as np

from lyprobe import (
    Channel,
    IsingRing,
    OatParameters,
    Scenario,
    coherence_period,
    count_recovery_peaks,
    default_steps,
    detect_coherence_zeros,
    emit_csv,
    lee_yang_times,
    lee_yang_zeros,
    oat_reduced_state,
    run_scenario,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nb", type=int, default=10, help="ring size (default 10)")
    ap.add_argument("--beta", type=float, default=0.5, help="inverse temperature (default 0.5)")
    ap.add_argument("--lambda", dest="coupling", type=float, default=1.0, help="ring coupling (default 1.0)")
    ap.add_argument("--probes", type=int, default=3, help="ensemble size N (default 3)")
    ap.add_argument("--theta", type=float, default=np.pi / 2, help="twisting angle (default pi/2)")
    ap.add_argument("--eta", type=float, default=0.01, help="probe-ring coupling (default 0.01)")
    ap.add_argument("--channel", choices=["I", "II"], default="I", help="bath geometry (default I)")
    ap.add_argument("--periods", type=int, default=1, help="number of coherence periods (default 1)")
    ap.add_argument("--steps", type=int, default=0, help="grid points; 0 picks a zero-resolving default")
    ap.add_argument("--out", default=None, help="optional CSV output path")
    args = ap.parse_args()

    ring = IsingRing(args.nb, coupling=args.coupling, inverse_temperature=args.beta)
    channel = Channel(args.channel)
    period = coherence_period(args.eta, channel)
    t_max = args.periods * period

    zeros = lee_yang_zeros(ring)
    predicted = lee_yang_times(zeros, args.eta, channel)
    steps = args.steps or 4 * args.periods * default_steps(zeros, args.eta, period, channel)

    scenario = Scenario(ring, OatParameters(args.probes, args.theta), channel, t_max, steps, args.eta)
    series = run_scenario(scenario)

    print(f"ring N_b={args.nb} beta={args.beta} lambda={args.coupling} channel {channel.value}")
    print(f"period T={period:.6g}  grid {steps} points over {args.periods} period(s)")
    # predicted times repeat each period; tile them to match the scan length
    tiled = np.concatenate([predicted + k * period for k in range(args.periods)])

    if channel is Channel.I:
        detected = detect_coherence_zeros(series)
        print(f"{'predicted':>14s} {'detected':>14s} {'offset':>12s}")
        for tp, td in zip(tiled, detected):
            print(f"{tp:14.6f} {td:14.6f} {td - tp:12.3e}")
        if detected.size != tiled.size:
            print(f"count mismatch: predicted {tiled.size}, detected {detected.size}")
        if args.periods >= 2:
            peaks = count_recovery_peaks(series)
            print(f"recovery peaks in first period: {peaks} (ring size {args.nb})")
        else:
            print("(run with --periods 2 to count recovery peaks)")
    else:
        floor = 2.0 * oat_reduced_state(series.probe).y
        print(f"coherence floor 2y = {floor:.6f}; grid minimum {series.coherence.min():.6f}")
        print("factor zeros (coherence dips to the floor, no full collapse):")
        for tp in tiled:
            print(f"{tp:14.6f}")

    if args.out:
        emit_csv(series, args.out)
        print(f"wrote {series.times.size} rows to {args.out}")


if __name__ == "__main__":
    main()
