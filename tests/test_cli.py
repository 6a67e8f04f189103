"""Exit codes, file outputs, and console text of the four subcommands."""

import argparse
import collections
import contextlib
import dataclasses
import functools
import gc
import io
import math
import sys
import tempfile
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import lyprobe.cli as cli
from lyprobe import verify
from lyprobe import (
    Channel,
    IsingRing,
    OatParameters,
    Scenario,
    coherence_period,
    default_steps,
    lee_yang_zeros,
    run_scenario,
)
from lyprobe.ising_bath import zero_certificates

from . import criterion_log
from . import test_acceptance as acceptance
from .oracles import savetxt_csv

CSV_HEADER = "t,a_factor,coherence,concurrence_rescaled,xi2,xi2_prime"


def simulate_args(out, extra=()):
    return [
        "simulate",
        "--nb", "6",
        "--beta", "0.5",
        "--probes", "3",
        "--theta", "1.5707963267948966",
        "--channel", "I",
        "--t-max", "20.0",
        "--steps", "41",
        "--out", str(out),
        *extra,
    ]


class TestSimulate:
    def test_writes_series(self, tmp_path, capsys):
        out = tmp_path / "series.csv"
        assert cli.main(simulate_args(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 42
        assert "wrote 41 rows" in capsys.readouterr().out

    def test_notes_the_samples_where_a_underflowed(self, tmp_path, capsys):
        # past the factor's underflow A is exactly 0 between collapses: a second
        # line gives the count and the share; the first line and the CSV stay
        out = tmp_path / "weak.csv"
        argv = [
            "simulate", "--nb", "700", "--beta", "0.05", "--probes", "3", "--theta", "1",
            "--channel", "I", "--t-max", "157.08", "--steps", "20001", "--out", str(out),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        first, note = captured.out.splitlines()
        assert first == f"wrote 20001 rows to {out} (channel I, period 157.08)"
        lost = np.count_nonzero(np.genfromtxt(out, delimiter=",", names=True)["a_factor"] == 0.0)
        assert 0 < lost < 20001
        assert note == (
            f"note: A underflowed to exactly 0 at {lost} of 20001 samples "
            f"({lost / 20001:.1%}); collapses among them cannot be detected"
        )

    def test_readme_command_prints_no_note(self, tmp_path, capsys):
        out = tmp_path / "series.csv"
        argv = [
            "simulate", "--nb", "10", "--beta", "0.5", "--probes", "3", "--theta", "1.5707963",
            "--channel", "I", "--t-max", "157.08", "--out", str(out),
        ]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == f"wrote 402 rows to {out} (channel I, period 157.08)\n"

    def test_default_steps_resolve_grid(self, tmp_path):
        # 40 samples per mean gap between the 6 collapse times, >= 4 in the narrowest
        out = tmp_path / "auto.csv"
        argv = [a for a in simulate_args(out) if a not in ("--steps", "41")]
        assert cli.main(argv) == 0
        rows = np.genfromtxt(out, delimiter=",", names=True)
        zeros = lee_yang_zeros(IsingRing(6, inverse_temperature=0.5))
        assert rows.size == default_steps(zeros, 0.01, 20.0, Channel.I) == 32
        tz, period = zeros.phases / (4.0 * 0.01), np.pi / (2.0 * 0.01)
        step = rows["t"][1] - rows["t"][0]
        assert step <= period / tz.size / 40.0
        assert step <= np.diff(tz).min() / 4.0

    def test_first_row_identities(self, tmp_path):
        out = tmp_path / "series.csv"
        cli.main(simulate_args(out))
        first = np.genfromtxt(out, delimiter=",", names=True)[0]
        assert first["t"] == 0.0
        assert first["a_factor"] == pytest.approx(1.0, abs=1e-12)
        assert first["coherence"] == pytest.approx((np.sqrt(5.0) + 1.0) / 4.0, rel=1e-11)

    def test_validation_exit_code(self, tmp_path, capsys):
        out = tmp_path / "bad.csv"
        argv = simulate_args(out)
        argv[argv.index("--nb") + 1] = "2"
        assert cli.main(argv) == 1
        assert "at least 3" in capsys.readouterr().err

    def test_io_exit_code(self, tmp_path, capsys):
        out = tmp_path / "missing" / "series.csv"
        assert cli.main(simulate_args(out)) == 3
        assert "i/o error" in capsys.readouterr().err

    def test_numerical_exit_code(self, tmp_path, capsys, monkeypatch):
        def explode(_scenario):
            raise RuntimeError("synthetic numerical failure")

        monkeypatch.setattr(cli, "run_scenario", explode)
        assert cli.main(simulate_args(tmp_path / "x.csv")) == 2
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("beta", ["0", "1e-40"])
    def test_default_steps_with_coincident_collapses(self, tmp_path, capsys, beta):
        out = tmp_path / "x.csv"
        argv = [a for a in simulate_args(out) if a not in ("--steps", "41")]
        argv[argv.index("--beta") + 1] = beta
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert "validation error: collapse times coincide at t = 78.5398" in err
        assert not out.exists()

    @pytest.mark.parametrize("nb,beta", [("4000", "0.05"), ("6", "1e-12")])
    def test_default_grid_past_the_ceiling(self, tmp_path, capsys, nb, beta):
        # one period: 43 and 24 million steps, the narrowest gaps' floor of 4 samples
        out = tmp_path / "x.csv"
        argv = [a for a in simulate_args(out) if a not in ("--steps", "41")]
        argv[argv.index("--nb") + 1] = nb
        argv[argv.index("--beta") + 1] = beta
        argv[argv.index("--t-max") + 1] = "157.08"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert "validation error: the default grid needs" in err
        assert "past the limit of 10,000,000" in err and "--steps" in err
        assert not out.exists()

    def test_infinite_temperature_ring(self, tmp_path, capsys):
        # beta = 0: every zero sits at pi and A = cos^N_b(2 eta t) in channel I
        out = tmp_path / "hot.csv"
        argv = [
            "simulate", "--nb", "6", "--beta", "0", "--probes", "3", "--theta", "1",
            "--channel", "I", "--t-max", "10",
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.main([*argv, "--steps", "5", "--out", str(out)]) == 0
            rows = np.genfromtxt(out, delimiter=",", names=True)
            np.testing.assert_allclose(rows["a_factor"], np.cos(0.02 * rows["t"]) ** 6, rtol=1e-11)
            series = run_scenario(
                Scenario(IsingRing(6, inverse_temperature=0.0), OatParameters(3, 1.0), Channel.I, 10.0, 5)
            )
            expected = np.cos(2.0 * 0.01 * series.times) ** 6
            np.testing.assert_allclose(series.a_factor, expected, rtol=0.0, atol=1e-15)
            # without --steps the default grid cannot separate the collapses
            assert cli.main([*argv, "--out", str(tmp_path / "auto.csv")]) == 1
        assert "collapse times coincide" in capsys.readouterr().err


class TestZeros:
    def test_writes_phases(self, tmp_path, capsys):
        out = tmp_path / "zeros.csv"
        argv = ["zeros", "--nb", "10", "--beta", "0.5", "--out", str(out)]
        assert cli.main(argv) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "phase,newton_step"
        assert len(lines) == 11
        data = np.genfromtxt(out, delimiter=",", names=True)
        assert np.all(np.diff(data["phase"]) > 0.0)
        assert data["newton_step"].max() < 1e-12
        assert "10 zero phases" in capsys.readouterr().out

    def test_matches_savetxt(self, tmp_path):
        out = tmp_path / "zeros.csv"
        assert cli.main(["zeros", "--nb", "100", "--beta", "0.25", "--out", str(out)]) == 0
        ring = IsingRing(n_spins=100, inverse_temperature=0.25)
        phases = lee_yang_zeros(ring).phases
        reference = tmp_path / "savetxt.csv"
        savetxt_csv(reference, "phase,newton_step", np.column_stack([phases, zero_certificates(ring, phases)]))
        assert out.read_bytes() == reference.read_bytes()

    def test_io_exit_code(self, tmp_path, capsys):
        out = tmp_path / "missing" / "zeros.csv"
        assert cli.main(["zeros", "--nb", "10", "--beta", "0.5", "--out", str(out)]) == 3
        assert "failed to write CSV" in capsys.readouterr().err

    @pytest.mark.parametrize("nb,beta", [("2000", "0.25"), ("10", "300"), ("10000", "0.05")])
    def test_runs_past_the_coefficient_limits(self, nb, beta, tmp_path, capsys):
        # the coefficients overflow (2000/0.25, 10000/0.05) or underflow (10/300);
        # the phases and their Newton steps need neither
        out = tmp_path / "zeros.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["zeros", "--nb", nb, "--beta", beta, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        values = csv_values(out, "phase,newton_step", int(nb))
        assert np.all(np.isfinite(values))

    def test_validation_exit_code(self, tmp_path, capsys):
        argv = ["zeros", "--nb", "10", "--beta", "-1.0", "--out", str(tmp_path / "z.csv")]
        assert cli.main(argv) == 1
        assert "validation error" in capsys.readouterr().err


def closure_broken(zeros):
    # pi stays put and closure breaks by 6e-8; under rtol = 1e-5 only the residual bound caught it
    return types.SimpleNamespace(phases=np.where(zeros.phases == np.pi, np.pi, zeros.phases + 3e-8))


def drifting(series):
    # a relative drift of 5e-8 over one period
    drift = 1.0 + 1e-7 * series.times / series.times[-1]
    return dataclasses.replace(series, coherence=series.coherence * drift)


def shifted(domains):
    # verify's series spans two periods on 4001 steps; mirrored centres part by twice the shift
    shift = 2.0 * coherence_period(0.01, Channel.I) / 4000 * (1.0 + 1e-9)
    return [types.SimpleNamespace(center=d.center + shift, clipped=d.clipped) for d in domains]


# id: ([(module, name, change of its result)], the check, its message, the criterion or None)
PLANTED_DEFECTS = {
    "enumeration": (
        [(verify, "partition_coefficients_bruteforce", lambda brute: brute * (1.0 + 1e-11))],
        verify.check_coefficients_vs_enumeration, "relative error", 4,
    ),
    # odd in w, at most 2e-9 |A|
    "factor-evenness": (
        [(verify, "factor_values", lambda a: a * (1.0 + 1e-9 * np.linspace(-1.0, 1.0, a.size)))],
        verify.check_factor_symmetry, "not even", None,
    ),
    "zero-set-closure": (
        [(verify, "lee_yang_zeros", closure_broken)], verify.check_zero_set_geometry, "conjugate closure", 1
    ),
    "kraus": (
        [(verify, "_closed_form_matrices", lambda matrices: matrices + 1e-11)],
        verify.check_channels_closed_vs_kraus, "Kraus vs closed-form", 13,
    ),
    "concurrence": (
        [(verify, "_wootters_stack", lambda result: (result[0], result[1] + 1e-9))],
        verify.check_wootters_generic_vs_closed, "generic vs closed", 13,
    ),
    "shared-bath-identity": (
        [
            (verify, "x_state_observables", lambda obs: obs._replace(xi2_prime=obs.xi2_prime + 1e-11)),
            (acceptance, "run_scenario", lambda s: dataclasses.replace(s, xi2_prime=s.xi2_prime + 1e-11)),
        ],
        verify.check_squeezing_identities, "shared-bath identity", 10,
    ),
    "period": (
        [(verify, "run_scenario", drifting), (acceptance, "run_scenario", drifting)],
        verify.check_series_consistency, "period property", 5,
    ),
    "domain-centres": (
        [(verify, "vanishing_domains", shifted)], verify.check_series_consistency, "domain centers", None
    ),
}


class TestVerify:
    def test_passes(self, capsys):
        assert cli.main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "FAIL" not in out

    @pytest.mark.parametrize(
        "spoil",
        [lambda values: values.astype(complex), lambda values: np.where(values > 0.5, np.nan, values)],
        ids=["complex-dtype", "nan"],
    )
    def test_factor_symmetry_needs_finite_floats(self, monkeypatch, spoil):
        route = verify.factor_values
        monkeypatch.setattr(verify, "factor_values", lambda ring, w: spoil(route(ring, w)))
        with pytest.raises(verify.CheckFailure, match="finite float64"):
            verify.check_factor_symmetry()

    @pytest.mark.parametrize("defect", PLANTED_DEFECTS)
    def test_planted_defect_fails_the_check_and_the_criterion(self, monkeypatch, defect):
        # each defect is past the stated tolerance; the evenness, closure, period and domain
        # defects sit inside the rtol = 1e-5 that np.allclose adds when none is given
        plants, check, match, number = PLANTED_DEFECTS[defect]
        for module, name, change in plants:
            route = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args, route=route, change=change: change(route(*args)))
        with pytest.raises(verify.CheckFailure, match=match):
            check()
        if number is not None:
            # a failing criterion must not overwrite the run's summary line
            monkeypatch.setattr(criterion_log, "lines", {})
            [criterion] = [n for n in dir(acceptance) if n.startswith(f"test_criterion_{number:02d}")]
            with pytest.raises(AssertionError):
                getattr(acceptance, criterion)()

    def test_failing_checks_are_reported_and_exit_two(self, monkeypatch, capsys):
        def refuses():
            raise verify.CheckFailure("x")

        def breaks():
            return 1 / 0

        checks = (("passes", lambda: "fine"), ("refuses", refuses), ("breaks", breaks))
        monkeypatch.setattr(verify, "ALL_CHECKS", checks)
        assert verify.run_checks() is False
        assert capsys.readouterr().out.splitlines() == [
            "PASS  passes: fine",
            "FAIL  refuses: x",
            "FAIL  breaks: unexpected ZeroDivisionError: division by zero",
        ]
        assert cli.main(["verify"]) == 2

    def test_builds_each_ring_cell_once_a_run(self, monkeypatch):
        # the ring checks read 27 (N_b, beta * lambda) cells' coefficients and 20 cells' zero sets
        built, zeros = collections.Counter(), collections.Counter()
        build, route = IsingRing.__dict__["coefficients"].func, verify.lee_yang_zeros

        def counted_build(ring):
            built[ring.n_spins, ring.beta_lambda] += 1
            return build(ring)

        def counted_zeros(ring):
            zeros[ring.n_spins, ring.beta_lambda] += 1
            return route(ring)

        coefficients = functools.cached_property(counted_build)
        coefficients.__set_name__(IsingRing, "coefficients")
        monkeypatch.setattr(IsingRing, "coefficients", coefficients)
        monkeypatch.setattr(verify, "lee_yang_zeros", counted_zeros)
        for runs in (1, 2):
            assert verify.run_checks(verbose=False)
            assert (len(built), len(zeros)) == (27, 20)
            assert set(built.values()) == set(zeros.values()) == {runs}

    def test_no_cell_outlives_a_run(self, monkeypatch):
        # a check called on its own after a run, returned or raised, builds its own
        # rings, so a planted defect reaches it
        class Stop(BaseException):
            pass

        def stops():
            raise Stop

        assert verify.run_checks(verbose=False)
        monkeypatch.setattr(verify, "ALL_CHECKS", (("zero set", verify.check_zero_set_geometry), ("stops", stops)))
        with pytest.raises(Stop):
            verify.run_checks(verbose=False)
        route = verify.lee_yang_zeros
        monkeypatch.setattr(verify, "lee_yang_zeros", lambda ring: closure_broken(route(ring)))
        with pytest.raises(verify.CheckFailure, match="conjugate closure"):
            verify.check_zero_set_geometry()

    def test_leaves_no_file_open(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert verify.run_checks(verbose=False)
            gc.collect()
        leaked = [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert not leaked, [str(w.message) for w in leaked]


class TestFitCmax:
    def test_reports_fit(self, capsys):
        argv = [
            "fit-cmax",
            "--theta", "1.5707963267948966",
            "--n-min", "3",
            "--n-max", "5",
        ]
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert "alpha=" in out
        assert "N=3: C_max=" in out

    @pytest.mark.parametrize(
        "flag,value", [("--nb", "20"), ("--beta", "0.5"), ("--lambda", "3"), ("--eta", "0.2")]
    )
    def test_rejects_ring_options(self, capsys, flag, value):
        # C_max is the A = 1 value, so the fit takes no ring or coupling
        assert cli.main(["fit-cmax", "--theta", "1.0", flag, value]) == 1
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err

    def test_rejects_inverted_range(self, capsys):
        argv = ["fit-cmax", "--theta", "1.0", "--n-min", "6", "--n-max", "4"]
        assert cli.main(argv) == 1
        assert "exceeds" in capsys.readouterr().err


class TestParsing:
    def test_missing_subcommand(self, capsys):
        assert cli.main([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag(self, tmp_path, capsys):
        assert cli.main(simulate_args(tmp_path / "x.csv", ["--bogus"])) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["zeros", "--nb", "x", "--beta", "1", "--out", "z.csv"], simulate_args("x.csv", ["--bogus"])],
        ids=["malformed-value", "unknown-flag"],
    )
    def test_usage_error_is_one_line(self, capsys, argv):
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.endswith("\n"), err
        assert err.startswith("error: ") and "--help" in err

    def test_bad_channel_choice(self, tmp_path, capsys):
        argv = simulate_args(tmp_path / "x.csv")
        argv[argv.index("--channel") + 1] = "III"
        assert cli.main(argv) == 1

    def test_help_exits_cleanly(self, capsys):
        assert cli.main(["--help"]) == 0
        assert "simulate" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            simulate_args("x.csv", ["--lambda", "2"]),
            ["zeros", "--nb", "10", "--beta", "0.5", "--out", "x.csv", "--lambda", "2"],
        ],
        ids=["simulate", "zeros"],
    )
    def test_rejects_lambda(self, capsys, argv):
        # a ring is (N_b, beta * lambda): --beta carries the product
        assert cli.main(argv) == 1
        assert "unrecognized arguments: --lambda 2" in capsys.readouterr().err

    def test_option_set_of_each_subcommand(self):
        parser = cli._build_parser()
        (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        options = {
            name: {o for action in sub._actions for o in action.option_strings} - {"-h", "--help"}
            for name, sub in commands.choices.items()
        }
        assert options == {
            "simulate": {
                "--nb", "--beta", "--probes", "--theta", "--eta", "--channel",
                "--t-max", "--steps", "--out",
            },
            "zeros": {"--nb", "--beta", "--out"},
            "verify": set(),
            "fit-cmax": {"--theta", "--n-min", "--n-max"},
        }


class TestProbeTimeOverflow:
    """Probe-time arithmetic past the double range is refused by name, without a numpy warning."""

    SIMULATE = [
        "simulate", "--nb", "6", "--beta", "1", "--probes", "3", "--theta", "1", "--channel", "I",
    ]

    @pytest.mark.parametrize(
        "argv,limit",
        [
            (
                [*SIMULATE, "--t-max", "1e10", "--eta", "1e300", "--steps", "3"],
                "eta=1e+300, t_max=10000000000.0): the angle w must be finite, "
                "with a finite phase N_b * w, got w = inf at N_b = 6",
            ),
            # 4 eta overflows: eta is refused by name before any grid is formed
            (
                [*SIMULATE, "--t-max", "1e-310", "--eta", "1e308", "--steps", "5"],
                "eta must be positive and finite, with a finite coherence period pi/(2 eta) "
                "and a finite rate 4 eta (eta >= ~8.7e-309 and eta <= ~4.49e+307), got 1e+308",
            ),
            ([*SIMULATE, "--t-max", "1e300"], "past the limit of 10,000,000"),
            ([*SIMULATE, "--t-max", "nan"], "t_max must be positive and finite, got nan"),
            ([*SIMULATE, "--t-max", "10", "--eta", "1e-320"], "eta >= ~8.7e-309"),
            # linspace(0, 5e-324, 5) repeats values: the context names steps and t_max
            (
                [*SIMULATE, "--t-max", "5e-324", "--steps", "5"],
                "steps=5, eta=0.01, t_max=5e-324): times must be strictly increasing",
            ),
        ],
        ids=[
            "field-angle",
            "eta-past-the-rate-limit",
            "default-steps",
            "nan-t-max",
            "subnormal-eta-simulate",
            "grid-without-distinct-times",
        ],
    )
    def test_exits_one_naming_the_limit(self, tmp_path, capsys, argv, limit):
        out = tmp_path / "a.csv"
        argv = [*argv, "--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert "validation error" in err and limit in err
        assert not out.exists()

    def test_subnormal_but_increasing_grid_runs(self, tmp_path):
        # a subnormal step is still a strictly increasing grid: it is not refused
        out = tmp_path / "a.csv"
        argv = [*self.SIMULATE, "--t-max", "1e-320", "--steps", "3", "--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(argv) == 0
        assert len(out.read_text().splitlines()) == 1 + 3


def run_main(argv):
    """``cli.main(argv)`` in process, warnings as errors: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


# sizes no array can hold: numpy and list() refuse them before allocating anything
HUGE = "1000000000000000"
PROBE = ["--beta=0.5", "--probes=3", "--theta=1.0", "--eta=0.01", "--channel=I", "--t-max=20.0"]
OUT_OF_MEMORY = [
    ["simulate", "--nb=6", *PROBE, f"--steps={HUGE}"],
    ["simulate", f"--nb={HUGE}", *PROBE],
    ["zeros", f"--nb={HUGE}", "--beta=0.5"],
    ["fit-cmax", "--theta=1.0", f"--n-max={HUGE}"],
]


@pytest.mark.parametrize(
    "argv", OUT_OF_MEMORY, ids=["simulate-steps", "simulate-nb", "zeros-nb", "fit-cmax-n-max"]
)
def test_sizes_past_memory_exit_one_naming_the_sizes(argv, tmp_path):
    out = tmp_path / "x.csv"
    if argv[0] != "fit-cmax":
        argv = [*argv, f"--out={out}"]
    code, _, err = run_main(argv)
    assert code == 1
    assert err == "out of memory: the arrays --nb, --steps or --n-max ask for do not fit\n"
    assert not out.exists()


def log_uniform(low: float, high: float):
    """Floats spread evenly in log10 between low and high."""
    return st.floats(math.log10(low), math.log10(high)).map(lambda e: min(high, max(low, 10.0**e)))


def log_uniform_int(low: int, high: int):
    return log_uniform(low, high).map(round)


# beta * lambda: 0, subnormals, the double range, and both sides of the
# transfer form's limit at ~372.5
BETA = st.one_of(
    st.just(0.0),
    st.floats(5e-324, sys.float_info.min, exclude_max=True),
    log_uniform(1e-300, 372.0),
    st.floats(372.0, 373.0),
)
THETA = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def simulate_argv(draw):
    argv = [
        "simulate",
        f"--nb={draw(log_uniform_int(3, 10**6))}",
        f"--beta={draw(BETA)!r}",
        f"--probes={draw(log_uniform_int(2, 10**4))}",
        f"--theta={draw(THETA)!r}",
        f"--eta={draw(log_uniform(1e-310, 1e308))!r}",
        f"--channel={draw(st.sampled_from(['I', 'II']))}",
        f"--t-max={draw(log_uniform(5e-324, 1e308))!r}",
    ]
    steps = draw(st.none() | st.integers(2, 4001))
    return argv if steps is None else [*argv, f"--steps={steps}"]


@st.composite
def zeros_argv(draw):
    beta = draw(BETA)
    # the coefficient sum (1 + sqrt q)^N_b overflows past N_b ~ 709.78 / log1p(sqrt q),
    # a limit the zeros and their Newton steps run past
    growth, log_max = math.log1p(math.exp(-2.0 * beta)), math.log(sys.float_info.max)
    sizes = log_uniform_int(3, 4000)
    if log_max <= 4000 * growth:
        edge = int(log_max / growth)
        sizes = sizes | st.integers(edge - 1, edge + 1)
    return ["zeros", f"--nb={draw(sizes)}", f"--beta={beta!r}"]


@st.composite
def fit_argv(draw):
    n_min = draw(st.integers(0, 1) | log_uniform_int(2, 10**4))
    n_max = n_min + draw(st.integers(-2, 40))
    return ["fit-cmax", f"--theta={draw(THETA)!r}", f"--n-min={n_min}", f"--n-max={n_max}"]


def default_grid(argv):
    """The grid ``simulate`` picks without --steps, or 0 where it refuses to pick one."""
    options = dict(a[2:].split("=", 1) for a in argv[1:])
    try:
        ring = IsingRing(int(options["nb"]), inverse_temperature=float(options["beta"]))
        return default_steps(
            lee_yang_zeros(ring), float(options["eta"]), float(options["t-max"]), options["channel"]
        )
    except (ValueError, MemoryError):
        return 0


def csv_values(path: Path, header: str, rows: int) -> np.ndarray:
    head, _, body = path.read_text().partition("\n")
    assert head == header
    assert body.count("\n") == rows and body.endswith("\n")
    return np.array(body.replace("\n", ",").split(",")[:-1], dtype=float)


# an input or a limit that a refusal names
NAMES = (
    "--nb", "--n-min", "--n-max", "N_b", "n_spins", "beta", "inverse_temperature", "n_probes",
    "twist_angle", "theta", "eta", "t_max", "steps", "n_values", "limit",
)


@settings(max_examples=800, suppress_health_check=[HealthCheck.too_slow])
@given(argv=st.one_of(simulate_argv(), zeros_argv(), fit_argv()))
@example(argv=OUT_OF_MEMORY[0])
@example(argv=OUT_OF_MEMORY[1])
@example(argv=OUT_OF_MEMORY[2])
@example(argv=OUT_OF_MEMORY[3])
def test_every_input_meets_the_exit_contract(argv):
    """Exit 0-3 with no traceback or warning; a refusal is one line naming an input
    or a limit; a success writes the header, the stated row count and finite values."""
    command = argv[0]
    if command == "simulate" and not any(a.startswith("--steps") for a in argv):
        assume(default_grid(argv) <= 20_001)
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch) / "out.csv"
        if command != "fit-cmax":
            argv = [*argv, f"--out={out}"]
        code, stdout, stderr = run_main(argv)
        assert code in (0, 1, 2, 3), stderr
        if code:
            assert stderr.count("\n") == 1 and any(n in stderr for n in NAMES), stderr
            return
        assert stderr == ""
        if command == "simulate":
            stated = int(stdout.split()[1])
            values = csv_values(out, CSV_HEADER, stated)
            steps = [int(a[8:]) for a in argv if a.startswith("--steps=")]
            assert stated == (steps[0] if steps else default_grid(argv))
        elif command == "zeros":
            stated = int(stdout.split()[1])
            values = csv_values(out, "phase,newton_step", stated)
            assert stated == int(argv[1][5:])
        else:
            values = np.array([line.rpartition("=")[2] for line in stdout.splitlines()], dtype=float)
        assert np.all(np.isfinite(values))
