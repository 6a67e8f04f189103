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
            [
                "-m", "lyprobe.cli", "simulate", "--nb", "10", "--beta", "0.5", "--probes", "3",
                "--theta", "1.5707963", "--channel", "I", "--t-max", "157.08", "--out", "series.csv",
            ],
            "wrote 402 rows to series.csv (channel I, period 157.08)",
        ),
        (
            ["-m", "lyprobe.cli", "zeros", "--nb", "100", "--beta", "0.25", "--out", "zeros.csv"],
            "wrote 100 zero phases to zeros.csv (largest Newton step ",
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
            # the fitted slope, then its large-N limit ln cos^2(theta/2)
            "alpha=-0.287085808\nintercept=-0.708570279\nresidual=0.000485\nlimit=-0.287682101\n",
        ),
        (
            ["-m", "lyprobe", "fit-cmax", "--theta", "1.0471976", "--n-min", "20", "--n-max", "28"],
            "alpha=-0.287085808",
        ),
    ],
    ids=[
        "coherence_scan",
        "entanglement_domains",
        "lyprobe_simulate",
        "lyprobe_zeros",
        "lyprobe_verify",
        "lyprobe_fit_cmax",
        "python_m_lyprobe_fit_cmax",
    ],
)
def test_readme_command(command, expected, tmp_path):
    result = run_python(["-W", "error::RuntimeWarning", *command], cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert expected in result.stdout


def test_coherence_scan_pairs_each_prediction_with_its_nearest_detection():
    # at 200/1 on 1,001 steps detection misses two close pairs of zeros; each
    # missed prediction gets its own row, and no later row is shifted
    result = run_python(
        ["-W", "error::RuntimeWarning", str(ROOT / "scripts" / "coherence_scan.py"),
         "--nb", "200", "--beta", "1", "--steps", "1001"]
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    start = next(i for i, line in enumerate(lines) if line.split()[:1] == ["predicted"]) + 1
    rows = [line.split() for line in lines[start:start + 200]]
    missed = [float(row[0]) for row in rows if row[1] == "none"]
    assert missed == [6.798873, 6.888453, 150.191179, 150.280759]
    offsets = [abs(float(row[2])) for row in rows if row[1] != "none"]
    assert len(offsets) == 196 and max(offsets) <= 1e-9
    assert "predicted times without a detected zero: 4" in lines
    assert "count mismatch: predicted 200, detected 196" in lines


@pytest.mark.parametrize(
    "command",
    [
        ["coherence_scan.py", "--nb", "6", "--beta", "0", "--periods", "2"],
        ["entanglement_domains.py", "--nb", "10", "--beta", "0"],
    ],
    ids=["coherence_scan", "entanglement_domains"],
)
def test_ring_script_refusal_is_one_line(command):
    # at beta * lambda = 0 every collapse falls on one time and default_steps
    # refuses the grid: the script exits 1 with the library's message
    result = run_python([str(ROOT / "scripts" / command[0]), *command[1:]])
    assert result.returncode == 1
    assert "collapse times coincide" in result.stderr
    assert "Traceback" not in result.stderr
    assert result.stderr.count("\n") == 1


@pytest.mark.parametrize("script", ["coherence_scan.py", "entanglement_domains.py"])
def test_ring_scripts_take_no_lambda(script):
    # a ring is (N_b, beta * lambda): --beta carries the product (exit 2 from argparse)
    result = run_python([str(ROOT / "scripts" / script), "--lambda", "2"])
    assert result.returncode == 2
    assert "unrecognized arguments: --lambda 2" in result.stderr


def test_domain_script_takes_no_threshold():
    # the vanishing threshold is one constant of the library (exit 2 from argparse)
    result = run_python([str(ROOT / "scripts" / "entanglement_domains.py"), "--epsilon", "1e-9"])
    assert result.returncode == 2
    assert "unrecognized arguments: --epsilon 1e-9" in result.stderr


def test_cli_import_leaves_scipy_out():
    # scipy is a test-side oracle, not a runtime dependency
    result = run_python(["-c", "import sys, lyprobe.cli; print('scipy' in sys.modules)"])
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
