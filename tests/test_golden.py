"""Byte-for-byte guard on the `derham` and `karoubi` JSON reports.

The reports under ``tests/golden/`` were written by the command line for
four quivers at ``--max-length 4``, on the double and with ``--base``.  Any
change to a dimension, to the table layout or to schema ``necklace-kit/1``
shows up here as a byte difference.

Regenerate them (only when a report is meant to change, and say so in
CHANGES.md) with ``PYTHONPATH=src python3 tests/test_golden.py``.
"""
from __future__ import annotations

import contextlib
import io
from pathlib import Path

import pytest

from necklacekit.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
QUIVERS = ("calogero", "a1_tilde", "two_loops", "a2_cycle")
COMMANDS = ("derham", "karoubi")
CASES = [
    (name, command, base)
    for name in QUIVERS
    for command in COMMANDS
    for base in (False, True)
]


def report_name(name: str, command: str, base: bool) -> str:
    return f"{name}-{command}{'-base' if base else ''}.json"


def write_report(name: str, command: str, base: bool, out: Path) -> None:
    argv = [command, str(GOLDEN / f"{name}.quiver"), "--max-length", "4", "--json", str(out)]
    if base:
        argv.append("--base")
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"{argv} exited with {code}")


@pytest.mark.parametrize("name, command, base", CASES)
def test_report_is_byte_identical(name, command, base, tmp_path):
    out = tmp_path / "report.json"
    write_report(name, command, base, out)
    assert out.read_bytes() == (GOLDEN / report_name(name, command, base)).read_bytes()


if __name__ == "__main__":
    for case in CASES:
        write_report(*case, GOLDEN / report_name(*case))
