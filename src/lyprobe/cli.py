"""Command-line interface: simulate, zeros, verify, fit-cmax."""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import verify as verify_module
from .channels import Channel, OatParameters
from .experiments import (
    Scenario,
    _write_csv,
    coherence_period,
    default_steps,
    emit_csv,
    fit_cmax_scaling,
    run_scenario,
)
from .ising_bath import IsingRing, lee_yang_zeros, zero_certificates


class _UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # route argparse failures through the validation exit code instead of
    # argparse's default SystemExit(2)
    def error(self, message: str):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="lyprobe",
        description=(
            "Unit-circle partition-function zeros of ferromagnetic Ising rings "
            "and the coherence, entanglement, and squeezing of twisted probe "
            "ensembles dephasing in them."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a scenario and write the observable series as CSV")
    sim.add_argument("--nb", type=int, required=True, help="ring size (number of spins)")
    sim.add_argument("--beta", type=float, required=True, help="beta * lambda (coupling lambda as the unit)")
    sim.add_argument("--probes", type=int, required=True, help="ensemble size N")
    sim.add_argument("--theta", type=float, required=True, help="twisting angle (radians)")
    sim.add_argument("--eta", type=float, default=0.01, help="probe-ring coupling (default 0.01)")
    sim.add_argument("--channel", choices=["I", "II"], required=True, help="bath geometry")
    sim.add_argument("--t-max", type=float, required=True, help="end of the time grid")
    sim.add_argument(
        "--steps",
        type=int,
        default=None,
        help="grid points (default: 40 per mean collapse gap, >= 4 in the narrowest; <= 10,000,000)",
    )
    sim.add_argument("--out", required=True, help="output CSV path")

    zer = sub.add_parser("zeros", help="write the zero phases and their Newton steps as CSV")
    zer.add_argument("--nb", type=int, required=True, help="ring size")
    zer.add_argument("--beta", type=float, required=True, help="beta * lambda (coupling lambda as the unit)")
    zer.add_argument(
        "--out",
        required=True,
        help="output CSV path; newton_step is |A / A'| at w = phase / 2, in radians of phase",
    )

    sub.add_parser("verify", help="run the full invariant suite")

    fit = sub.add_parser(
        "fit-cmax",
        help="fit ln C_max against ensemble size",
        description=(
            "Fit ln C_max against ensemble size. C_max(N) is the pair concurrence of the "
            "initial state (A = 1), its maximum over time at any coupling, so it depends "
            "only on N and theta. limit is the large-N slope ln cos^2(theta/2)."
        ),
    )
    fit.add_argument("--theta", type=float, required=True, help="twisting angle (radians)")
    fit.add_argument("--n-min", type=int, default=3, help="smallest ensemble size (default 3)")
    fit.add_argument("--n-max", type=int, default=8, help="largest ensemble size (default 8)")

    return parser


def _cmd_simulate(args) -> int:
    ring = IsingRing(n_spins=args.nb, inverse_temperature=args.beta)
    channel = Channel(args.channel)
    steps = args.steps
    if steps is None:
        zeros = lee_yang_zeros(ring)
        steps = default_steps(zeros, args.eta, args.t_max, channel)
    scenario = Scenario(
        ring=ring,
        oat=OatParameters(n_probes=args.probes, twist_angle=args.theta),
        channel=channel,
        t_max=args.t_max,
        steps=steps,
        eta=args.eta,
    )
    series = run_scenario(scenario)
    emit_csv(series, args.out)
    print(
        f"wrote {series.times.size} rows to {args.out} "
        f"(channel {channel.value}, period {coherence_period(args.eta, channel):.6g})"
    )
    # a sample that underflowed to 0 has no sign, so detection cannot see a collapse there
    lost = int(np.count_nonzero(series.a_factor == 0.0))
    if lost:
        print(
            f"note: A underflowed to exactly 0 at {lost} of {series.times.size} samples "
            f"({lost / series.times.size:.1%}); collapses among them cannot be detected"
        )
    return 0


def _cmd_zeros(args) -> int:
    ring = IsingRing(n_spins=args.nb, inverse_temperature=args.beta)
    phases = lee_yang_zeros(ring).phases
    steps = zero_certificates(ring, phases)
    _write_csv(args.out, "phase,newton_step", [phases, steps])
    print(f"wrote {phases.size} zero phases to {args.out} (largest Newton step {steps.max():.3g})")
    return 0


def _cmd_verify(_args) -> int:
    return 0 if verify_module.run_checks() else 2


def _cmd_fit_cmax(args) -> int:
    if args.n_min > args.n_max:
        raise ValueError(f"--n-min {args.n_min} exceeds --n-max {args.n_max}")
    result = fit_cmax_scaling(list(range(args.n_min, args.n_max + 1)), args.theta)
    for n, log_c in zip(result.n_values, result.log_cmax):
        print(f"N={n}: C_max={np.exp(log_c):.9g}")
    print(f"alpha={result.alpha:.9g}")
    print(f"intercept={result.intercept:.9g}")
    print(f"residual={result.residual:.3g}")
    # the large-N slope ln cos^2(theta/2), in math so every SIMD path prints the same digits
    print(f"limit={2.0 * math.log(abs(math.cos(0.5 * args.theta))):.9g}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "zeros": _cmd_zeros,
    "verify": _cmd_verify,
    "fit-cmax": _cmd_fit_cmax,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:
        # argparse exits directly for --help; keep its code
        return int(exc.code or 0)
    except _UsageError as exc:
        print(f"error: {exc}; run '{parser.prog} --help' for usage", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        # arrays that do not fit: numpy and list() refuse one past the address space at once
        print("out of memory: the arrays --nb, --steps or --n-max ask for do not fit", file=sys.stderr)
        return 1
    except (RuntimeError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
