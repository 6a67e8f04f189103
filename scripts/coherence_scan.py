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
import sys

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
    lee_yang_zeros,
    oat_reduced_state,
    run_scenario,
    zero_times,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nb", type=int, default=10, help="ring size (default 10)")
    ap.add_argument("--beta", type=float, default=0.5, help="beta * lambda, coupling as the unit (default 0.5)")
    ap.add_argument("--probes", type=int, default=3, help="ensemble size N (default 3)")
    ap.add_argument("--theta", type=float, default=np.pi / 2, help="twisting angle (default pi/2)")
    ap.add_argument("--eta", type=float, default=0.01, help="probe-ring coupling (default 0.01)")
    ap.add_argument("--channel", choices=["I", "II"], default="I", help="bath geometry (default I)")
    ap.add_argument("--periods", type=int, default=1, help="number of coherence periods (default 1)")
    ap.add_argument("--steps", type=int, default=0, help="grid points; 0 picks a zero-resolving default")
    ap.add_argument("--out", default=None, help="optional CSV output path")
    args = ap.parse_args()

    ring = IsingRing(args.nb, inverse_temperature=args.beta)
    channel = Channel(args.channel)
    period = coherence_period(args.eta, channel)
    t_max = args.periods * period

    zeros = lee_yang_zeros(ring)
    predicted = zero_times(zeros, args.eta, channel)
    steps = args.steps or default_steps(zeros, args.eta, t_max, channel)

    scenario = Scenario(ring, OatParameters(args.probes, args.theta), channel, t_max, steps, args.eta)
    series = run_scenario(scenario)

    print(f"ring N_b={args.nb} beta*lambda={args.beta} channel {channel.value}")
    print(f"period T={period:.6g}  grid {steps} points over {args.periods} period(s)")
    # predicted times repeat each period; tile them to match the scan length
    tiled = np.concatenate([predicted + k * period for k in range(args.periods)])

    if channel is Channel.I:
        detected = detect_coherence_zeros(series)
        # each detected time goes to its nearest predicted time, so a missed
        # zero leaves its own row without a detection and shifts no other row
        right = np.clip(np.searchsorted(tiled, detected), 1, tiled.size - 1)
        owner = np.where(detected - tiled[right - 1] <= tiled[right] - detected, right - 1, right)
        print(f"{'predicted':>14s} {'detected':>14s} {'offset':>12s}")
        for k, tp in enumerate(tiled):
            mine = detected[owner == k]
            if mine.size:
                td = mine[np.argmin(np.abs(mine - tp))]
                print(f"{tp:14.6f} {td:14.6f} {td - tp:12.3e}")
            else:
                print(f"{tp:14.6f} {'none':>14s}")
        missed = tiled.size - np.unique(owner).size
        print(f"predicted times without a detected zero: {missed}")
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
    try:
        main()
    except ValueError as exc:
        # the library's refusal of an input, as one line and exit 1
        sys.exit(f"error: {exc}")
