"""Golden bytes: SHA-256 of fixed `simulate`, `zeros`, `fit-cmax` and `verify` outputs.

A change that moves any byte of these outputs fails here, so a refactor
that must keep them unchanged is checked without a manual ``cmp``.  The
printed floats depend on the last bits of libm and numpy results, so the
hashes hold for one build (numpy 2.4, glibc 2.36, x86-64).  Most outputs
print the same bytes on numpy's AVX-512 and AVX2 paths and pin one hash.
Two CSVs print rounding-level digits that are their data: the ``zeros``
``newton_step`` column (values near 1e-16) and one real-branch factor of
the weak-coupling ``simulate`` run.  Each pins one hash per dispatch key,
the SIMD targets numpy's float64 ``exp``, ``log1p`` and ``arctan2`` loops
run on in this process (``numpy.lib.introspect.opt_func_info``): X86_V4
for all three on AVX-512, and X86_V3, baseline(X86_V2), baseline(X86_V2)
on the AVX2 path (a CPU without AVX-512, or ``NPY_DISABLE_CPU_FEATURES=
"X86_V4 AVX512_ICL AVX512_SPR"``).  A key with no pinned hash fails and
names the key.  Every test here runs on every path.
"""

import hashlib

import pytest
from numpy.lib.introspect import opt_func_info

import lyprobe.cli as cli

from .test_scripts import run_python

SIMULATE = [
    "simulate", "--nb", "200", "--beta", "7", "--probes", "4", "--theta", "1.2",
    "--t-max", "314.159", "--steps", "16001",
]
DISPATCH_LOOPS = ("exp", "log1p", "arctan2")
AVX512_KEY = ("X86_V4",) * 3
AVX2_KEY = ("X86_V3", "baseline(X86_V2)", "baseline(X86_V2)")
# the NPY_DISABLE_CPU_FEATURES value that puts an AVX-512 CPU on numpy's AVX2 path
DISABLE_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def dispatch_key() -> tuple[str, ...]:
    """The SIMD target of each float64 loop of DISPATCH_LOOPS in this process ("undispatched" if none)."""
    info = opt_func_info(func_name=f"^({'|'.join(DISPATCH_LOOPS)})$", signature="float64")
    current = {name: loop["current"] for name, loops in info.items() for loop in loops.values()}
    return tuple(current.get(name, "undispatched") for name in DISPATCH_LOOPS)


def pinned(digests: dict) -> str:
    """The digest pinned for this process's dispatch key; a key with none fails the test by name."""
    key = dispatch_key()
    if key not in digests:
        pytest.fail(f"no golden hash pinned for numpy's float64 {'/'.join(DISPATCH_LOOPS)} dispatch {key}")
    return digests[key]


@pytest.mark.parametrize(
    "channel,digest",
    [
        ("I", "b9741b1fee491fa98ac87076fb772a7a67a75c20eb8db2924174c9e1e6165e8b"),
        ("II", "d6bfad68a9a02ff4d3ca613d032f299a4eeb2a74aa93df67d76144074d90d4f5"),
    ],
)
def test_simulate_csv(tmp_path, channel, digest):
    out = tmp_path / "series.csv"
    assert cli.main([*SIMULATE, "--channel", channel, "--out", str(out)]) == 0
    assert sha256(out.read_bytes()) == digest


WEAK_COUPLING_DIGESTS = {
    AVX512_KEY: "c0cdf7b6de0b9d81f61c8b248f503d13ffb1049bf6fd2bfbbbaf9d770066a585",
    AVX2_KEY: "3843a8a92f14e63e3e8c160f136cd373318c00222abc9c92cbd7703c7c85144f",
}


def test_simulate_weak_coupling_csv(tmp_path):
    # the factor column is negative in places and reaches three-digit
    # exponents (e-2xx, e-3xx); the other columns write 0.000ddd fixed forms
    out = tmp_path / "weak.csv"
    argv = [
        "simulate", "--nb", "1200", "--beta", "0.5", "--probes", "3", "--theta", "1.5707963",
        "--channel", "I", "--t-max", "157.08", "--steps", "3001", "--out", str(out),
    ]
    assert cli.main(argv) == 0
    data = out.read_bytes()
    assert b"e-2" in data and b",-" in data and b",0.000" in data
    assert sha256(data) == pinned(WEAK_COUPLING_DIGESTS)


ZEROS_DIGESTS = {
    AVX512_KEY: "d9259c65e48ac5ea02c97c3f63049c75c660dcae1c62ce3e9739f1f521c41f1c",
    AVX2_KEY: "768c9fd84f383bb4456fca059c280a18e7c67d5588640e9aca1b6cf9803d9041",
}


def test_zeros_csv(tmp_path):
    # the newton_step column differs in 10 of 100 rows between the two keys; the phases hold
    out = tmp_path / "zeros.csv"
    assert cli.main(["zeros", "--nb", "100", "--beta", "0.25", "--out", str(out)]) == 0
    assert sha256(out.read_bytes()) == pinned(ZEROS_DIGESTS)


@pytest.mark.parametrize("golden", [test_zeros_csv, test_simulate_weak_coupling_csv])
def test_unpinned_dispatch_key_fails_by_name(monkeypatch, tmp_path, golden):
    monkeypatch.setattr(f"{__name__}.dispatch_key", lambda: ("NEON", "SVE", "baseline(NEON)"))
    with pytest.raises(pytest.fail.Exception, match=r"dispatch \('NEON', 'SVE', 'baseline\(NEON\)'\)"):
        golden(tmp_path)


def test_fit_cmax_stdout(capsys):
    argv = [
        "fit-cmax", "--theta", "1.0471976", "--n-min", "20", "--n-max", "28",
    ]
    assert cli.main(argv) == 0
    stdout = capsys.readouterr().out
    # the limit line comes from math, not numpy, so this hash holds on both SIMD paths
    assert stdout.endswith("\nlimit=-0.287682101\n")
    assert sha256(stdout.encode()) == "2b6aacb22f639d875c255da83ebba210862128724aa2ef79c0271feedb4bc920"


def test_verify_stdout(capsys):
    # every check's line, its .2e deviations included: a batched check must
    # print the bytes its point-by-point form printed, on either SIMD path
    assert cli.main(["verify"]) == 0
    stdout = capsys.readouterr().out
    assert sha256(stdout.encode()) == "acdf303ecabdaf1dd3c0a0040570f8c289c3d050eece67c1eaa6a4830e2e590f"


def test_verify_stdout_same_on_both_simd_paths(monkeypatch):
    """`lyprobe verify` prints the same bytes on numpy's default dispatch and its AVX2 path.

    One run takes the default dispatch, the other disables numpy's AVX-512
    targets.  On a CPU without AVX-512 both runs take the AVX2 path, and the
    test compares that path with itself.
    """
    monkeypatch.delenv("NPY_DISABLE_CPU_FEATURES", raising=False)
    default = run_python(["-m", "lyprobe", "verify"])
    monkeypatch.setenv("NPY_DISABLE_CPU_FEATURES", DISABLE_AVX512)
    avx2 = run_python(["-m", "lyprobe", "verify"])
    assert (default.returncode, avx2.returncode) == (0, 0), default.stderr + avx2.stderr
    assert default.stdout.count("PASS  ") == 13
    assert default.stdout == avx2.stdout
