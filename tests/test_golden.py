"""Golden bytes: SHA-256 of the files small fixed-seed CLI runs write.

The determinism tests compare reruns with each other; these pin the bytes
themselves, so a change to the JSON/CSV encoding (key order, float
formatting, a field that moves) fails here even when it is stable across
reruns.  The digests were recorded on x86-64 with numpy 2.x; a platform
whose floating-point results differ in the last bit changes them too.
"""

import hashlib

import pytest

from dcboost.cli import main

GOLDEN = {
    "solve_example2d": (
        ["solve", "--problem", "example2d", "--algo", "bdca+", "--x0=0,1",
         "--json", "run.json", "--trace-csv", "trace.csv"],
        0,
        {
            "run.json": "7cf4100e3f9cc49e38942268eabef5799fbabd83f5e43207e68a930b435262fd",
            "trace.csv": "4887797bc5549ae6d76e9434f2d482561d4a630055d17a17056c86c99182ccbf",
        },
    ),
    "solve_mssc": (
        ["solve", "--problem", "mssc", "--algo", "bdca+", "--blobs", "3x30",
         "--k", "4", "--seed", "7", "--json", "run.json"],
        0,
        {"run.json": "cbbd2f303780afd310ce0e8cb18f12387d4cd2c18109adaee21faee6cd58c7fb"},
    ),
    "check": (
        ["check", "--problem", "example2d", "--point=0,-1", "--json", "check.json"],
        3,
        {"check.json": "180f757432c6f8d18eb22f5a34b6daa38ff173b0ffb68a01f6032623ef58648e"},
    ),
    "table1": (
        ["table1", "--starts", "40", "--seed", "2",
         "--csv", "counts.csv", "--json", "report.json"],
        0,
        {
            "counts.csv": "e0b89f65cae1220cad65c5548b690be951c73c71a91d45ddd86249b9cc267024",
            "report.json": "b066aa65b172f8089ddd187ff7146eb19c8b77332ddae28f35d37e503f9298a2",
        },
    ),
    "cluster": (
        ["cluster", "--blobs", "3x30", "--k", "2", "--starts", "6", "--seed", "1",
         "--csv", "pairs.csv", "--json", "summary.json"],
        0,
        {
            "pairs.csv": "8509551dc39ed71ddfe3e0b35f37f7f668f177aa3d26742cfdc7927077896de1",
            "summary.json": "026808693d80f292e9b45ad868ffcd283a71f5b474a7bc1b8c10bfad4ff9439b",
        },
    ),
    "gen": (
        ["gen", "--blobs", "4x25", "--seed", "6", "--out", "points.csv"],
        0,
        {"points.csv": "66a4ab3d4f627171b300978386af4bc16c62562b8f4f528212e655ed9d439b7f"},
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_bytes_are_pinned(name, tmp_path):
    argv, exit_code, digests = GOLDEN[name]
    # Output file names in ``argv`` are written under ``tmp_path``.
    args = [str(tmp_path / a) if a in digests else a for a in argv]
    assert main(args) == exit_code
    got = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in digests}
    assert got == digests
