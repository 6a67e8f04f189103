"""Exit codes, file outputs, and console text of the four subcommands."""

import argparse
import gc
import warnings

import numpy as np
import pytest

import lyprobe.cli as cli
from lyprobe import verify
from lyprobe import (
    Channel,
    IsingRing,
    OatParameters,
    Scenario,
    lee_yang_zeros,
    run_scenario,
)

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

    def test_default_steps_resolve_grid(self, tmp_path):
        out = tmp_path / "auto.csv"
        argv = [a for a in simulate_args(out) if a not in ("--steps", "41")]
        assert cli.main(argv) == 0
        rows = np.genfromtxt(out, delimiter=",", names=True)
        assert rows.size > 41

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
        out = tmp_path / "x.csv"
        argv = [a for a in simulate_args(out) if a not in ("--steps", "41")]
        argv[argv.index("--nb") + 1] = nb
        argv[argv.index("--beta") + 1] = beta
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
        assert lines[0] == "phase,modulus_residual"
        assert len(lines) == 11
        data = np.genfromtxt(out, delimiter=",", names=True)
        assert np.all(np.diff(data["phase"]) > 0.0)
        assert data["modulus_residual"].max() < 1e-10
        assert "10 zero phases" in capsys.readouterr().out

    def test_matches_savetxt(self, tmp_path):
        out = tmp_path / "zeros.csv"
        assert cli.main(["zeros", "--nb", "100", "--beta", "0.25", "--out", str(out)]) == 0
        ring = IsingRing(n_spins=100, inverse_temperature=0.25)
        phases = lee_yang_zeros(ring).phases
        roots = np.exp(1j * phases)
        residuals = np.abs(np.polyval(ring.coefficients[::-1], roots)) / ring.coefficients.sum()
        reference = tmp_path / "savetxt.csv"
        savetxt_csv(reference, "phase,modulus_residual", np.column_stack([phases, residuals]))
        assert out.read_bytes() == reference.read_bytes()

    def test_io_exit_code(self, tmp_path, capsys):
        out = tmp_path / "missing" / "zeros.csv"
        assert cli.main(["zeros", "--nb", "10", "--beta", "0.5", "--out", str(out)]) == 3
        assert "failed to write CSV" in capsys.readouterr().err

    def test_coefficient_overflow_is_numerical_failure(self, tmp_path, capsys):
        out = tmp_path / "zeros.csv"
        argv = ["zeros", "--nb", "2000", "--beta", "0.25", "--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "numerical failure" in err
        assert "N_b=2000" in err and "beta*lambda=0.25" in err
        assert not out.exists()

    def test_validation_exit_code(self, tmp_path, capsys):
        argv = ["zeros", "--nb", "10", "--beta", "-1.0", "--out", str(tmp_path / "z.csv")]
        assert cli.main(argv) == 1
        assert "validation error" in capsys.readouterr().err


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
            (
                [*SIMULATE, "--t-max", "10", "--eta", "1e308", "--steps", "3"],
                "eta=1e+308, t_max=10.0): the angle w must be finite, "
                "with a finite phase N_b * w, got w = nan at N_b = 6",
            ),
            ([*SIMULATE, "--t-max", "1e300"], "past the limit of 10,000,000"),
            ([*SIMULATE, "--t-max", "nan"], "t_max must be positive and finite, got nan"),
            ([*SIMULATE, "--t-max", "10", "--eta", "1e-320"], "eta >= ~8.7e-309"),
        ],
        ids=[
            "field-angle",
            "field-angle-nan-at-t-zero",
            "default-steps",
            "nan-t-max",
            "subnormal-eta-simulate",
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
