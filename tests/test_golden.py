"""Golden bytes: SHA-256 of fixed `simulate`, `zeros`, `fit-cmax` and `verify` outputs.

A change that moves any byte of these outputs fails here, so a refactor
that must keep them unchanged is checked without a manual ``cmp``.  The
printed floats depend on the last bits of libm and numpy results, so the
hashes hold for one build (numpy 2.4, glibc 2.36, x86-64) at one SIMD
dispatch level: AVX-512, where ``numpy.show_runtime()`` lists X86_V4,
AVX512_ICL and AVX512_SPR as found.  Another build may round a last digit
differently.  On numpy's AVX2 path (X86_V3, as on a CPU without AVX-512, or
with ``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"``) three
tests fail: ``test_zeros_csv`` (the ``modulus_residual`` column, values near
1e-16), ``test_simulate_weak_coupling_csv`` (one factor value on the real
branch, last digit) and ``test_verify_stdout`` (the printed factor form
agreement, 1.27e-14 against 1.25e-14).  ``test_verify_stdout_but_factor_forms``
hashes the verify output without that one line, and holds on both paths.
"""

import hashlib

import pytest

import lyprobe.cli as cli

SIMULATE = [
    "simulate", "--nb", "200", "--beta", "7", "--probes", "4", "--theta", "1.2",
    "--t-max", "314.159", "--steps", "16001",
]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


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
    assert sha256(data) == "c0cdf7b6de0b9d81f61c8b248f503d13ffb1049bf6fd2bfbbbaf9d770066a585"


def test_zeros_csv(tmp_path):
    out = tmp_path / "zeros.csv"
    assert cli.main(["zeros", "--nb", "100", "--beta", "0.25", "--out", str(out)]) == 0
    assert sha256(out.read_bytes()) == "9859ce0f334a7db0b12c15f37daad997d79b3233e3ca174d5967a6bf2ab9c15e"


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
    # print the bytes its point-by-point form printed
    assert cli.main(["verify"]) == 0
    stdout = capsys.readouterr().out
    assert sha256(stdout.encode()) == "300a93fa4b7181a7ef2dbae145c115d757deeceb5d2cd663adab6e78a4898f58"


def test_verify_stdout_but_factor_forms(capsys):
    # the factor form agreement line is the only one numpy's AVX-512 and AVX2
    # loops print differently; every other line must keep its bytes on both
    assert cli.main(["verify"]) == 0
    lines = capsys.readouterr().out.splitlines(keepends=True)
    kept = [line for line in lines if "factor form agreement" not in line]
    assert len(kept) == len(lines) - 1
    assert sha256("".join(kept).encode()) == "f2830de68d1e4a180497be3a5a1c92af0557c9be406100a789762598183e7ff8"
