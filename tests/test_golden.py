"""Byte-for-byte guard on the `derham`, `karoubi` and `bracket` reports.

The reports under ``tests/golden/`` were written by the command line for
four quivers at ``--max-length 4``, on the double and with ``--base``, and
for seven necklace pairs on the Calogero and two-loop quivers (stdout as
``.txt``, the JSON report as ``.json``).  ``wide/`` holds the ``derham`` and
``karoubi`` reports of one vertex with three loops at ``--max-length 6``;
they live in a subdirectory so that the sweep of ``tests/sweep.py``, which
runs on every ``golden/*.quiver``, does not take them up.  Any change to a
dimension, a bracket term or coefficient, to the table layout or to schema
``necklace-kit/1`` shows up here as a byte difference.

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
# (quiver, w1, w2): coefficients other than ±1, zero brackets (equal
# classes, disjoint arrows) and a sign from the antisymmetric part
BRACKETS = [
    ("calogero", "a b a*", "b* b*"),
    ("calogero", "a a*", "a* a"),
    ("calogero", "b b a* a", "b* b* b*"),
    ("two_loops", "x x", "x* x*"),
    ("two_loops", "x x", "y y"),
    ("two_loops", "x y", "x* y*"),
    ("two_loops", "x y x* y*", "y x"),
]


def report_name(name: str, command: str, base: bool) -> str:
    return f"{name}-{command}{'-base' if base else ''}.json"


def bracket_name(index: int) -> str:
    return f"{BRACKETS[index][0]}-bracket-{index}"


def run(argv: list[str]) -> str:
    """Run the command line and return its stdout."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"{argv} exited with {code}")
    return stdout.getvalue()


def write_report(name: str, command: str, base: bool, out: Path) -> None:
    argv = [command, str(GOLDEN / f"{name}.quiver"), "--max-length", "4", "--json", str(out)]
    if base:
        argv.append("--base")
    run(argv)


def write_wide_report(command: str, out: Path) -> None:
    """The `derham` or `karoubi` table of one vertex with three loops at
    length <= 6, whose largest pieces row reduction cannot reach."""
    run([command, str(GOLDEN / "wide" / "three_loops.quiver"), "--max-length", "6",
         "--json", str(out)])


def write_bracket(index: int, out: Path) -> str:
    name, w1, w2 = BRACKETS[index]
    quiver = str(GOLDEN / f"{name}.quiver")
    return run(["bracket", quiver, "--w1", w1, "--w2", w2, "--json", str(out)])


@pytest.mark.parametrize("name, command, base", CASES)
def test_report_is_byte_identical(name, command, base, tmp_path):
    out = tmp_path / "report.json"
    write_report(name, command, base, out)
    assert out.read_bytes() == (GOLDEN / report_name(name, command, base)).read_bytes()


@pytest.mark.parametrize("command", COMMANDS)
def test_wide_report_is_byte_identical(command, tmp_path):
    out = tmp_path / "report.json"
    write_wide_report(command, out)
    assert out.read_bytes() == (GOLDEN / "wide" / f"three_loops-{command}.json").read_bytes()


@pytest.mark.parametrize("index", range(len(BRACKETS)), ids=bracket_name)
def test_bracket_is_byte_identical(index, tmp_path):
    out = tmp_path / "report.json"
    stdout = write_bracket(index, out)
    golden = GOLDEN / bracket_name(index)
    assert stdout.encode() == golden.with_suffix(".txt").read_bytes()
    assert out.read_bytes() == golden.with_suffix(".json").read_bytes()


if __name__ == "__main__":
    for case in CASES:
        write_report(*case, GOLDEN / report_name(*case))
    for command in COMMANDS:
        write_wide_report(command, GOLDEN / "wide" / f"three_loops-{command}.json")
    for index in range(len(BRACKETS)):
        golden = GOLDEN / bracket_name(index)
        golden.with_suffix(".txt").write_bytes(
            write_bracket(index, golden.with_suffix(".json")).encode()
        )
