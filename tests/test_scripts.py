"""The README's `scripts/` and `lyprobe` commands run end to end on the library API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_python(args, **kwargs):
    """Run this interpreter on args with the checkout's src/ on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120, **kwargs
    )


@pytest.mark.parametrize(
    "command,expected",
    [
        (
            [str(ROOT / "scripts" / "coherence_scan.py"), "--nb", "6", "--beta", "0.5", "--periods", "2"],
            "recovery peaks in first period: 6 (ring size 6)",
        ),
        (
            [str(ROOT / "scripts" / "entanglement_domains.py"), "--nb", "10", "--beta", "10"],
            "interior domains covering a predicted zero: 10/10",
        ),
        (
            [str(ROOT / "scripts" / "cmax_scaling.py"), "--n-min", "20", "--n-max", "28"],
            "fit: ln C_max = ",
        ),
        (
            [
                "-m", "lyprobe.cli", "simulate", "--nb", "10", "--beta", "0.5", "--probes", "3",
                "--theta", "1.5707963", "--channel", "I", "--t-max", "157.08", "--out", "series.csv",
            ],
            "wrote 671 rows to series.csv (channel I, period 157.08)",
        ),
        (
            ["-m", "lyprobe.cli", "zeros", "--nb", "100", "--beta", "0.25", "--out", "zeros.csv"],
            "wrote 100 zero phases to zeros.csv (residual bound ",
        ),
        (
            ["-m", "lyprobe.cli", "verify"],
            "PASS  zero set geometry: counts, closure, pi membership; max residual ",
        ),
        (
            [
                "-m", "lyprobe.cli", "fit-cmax", "--theta", "1.0471976", "--n-min", "20",
                "--n-max", "28",
            ],
            "alpha=-0.287085808",
        ),
    ],
    ids=[
        "coherence_scan",
        "entanglement_domains",
        "cmax_scaling",
        "lyprobe_simulate",
        "lyprobe_zeros",
        "lyprobe_verify",
        "lyprobe_fit_cmax",
    ],
)
def test_readme_command(command, expected, tmp_path):
    result = run_python(["-W", "error::RuntimeWarning", *command], cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert expected in result.stdout


def test_cmax_script_takes_no_ring():
    # C_max depends only on (N, theta): argparse refuses a ring option (exit 2)
    result = run_python([str(ROOT / "scripts" / "cmax_scaling.py"), "--beta", "10"])
    assert result.returncode == 2
    assert "unrecognized arguments: --beta 10" in result.stderr


def test_cli_import_leaves_scipy_out():
    # scipy is a test-side oracle, not a runtime dependency
    result = run_python(["-c", "import sys, lyprobe.cli; print('scipy' in sys.modules)"])
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
