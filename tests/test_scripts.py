"""The README's three `scripts/` commands run end to end on the library API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script,args,expected",
    [
        (
            "coherence_scan.py",
            ["--nb", "6", "--beta", "0.5", "--periods", "2"],
            "recovery peaks in first period: 6 (ring size 6)",
        ),
        (
            "entanglement_domains.py",
            ["--nb", "10", "--beta", "10"],
            "interior domains covering a predicted zero: 10/10",
        ),
        (
            "cmax_scaling.py",
            ["--n-min", "20", "--n-max", "28"],
            "fit: ln C_max = ",
        ),
    ],
    ids=["coherence_scan", "entanglement_domains", "cmax_scaling"],
)
def test_readme_command(script, args, expected):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert expected in result.stdout
