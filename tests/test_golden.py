"""Byte-for-byte guard on the `derham`, `karoubi`, `bracket`, `roots`,
`sigma` and `classify` reports.

The reports under ``tests/golden/`` were written by the command line for
four quivers at ``--max-length 4``, on the double and with ``--base``, for
seven necklace pairs on the Calogero and two-loop quivers, and for six
root and classification requests on the Calogero and A~1 quivers (stdout
as ``.txt``, the JSON report as ``.json``).  ``wide/`` holds the ``derham``
and ``karoubi`` reports of one vertex with three loops at
``--max-length 6``, the ``classify`` report of the A_12 path at
alpha = (1, ..., 1), lambda = 0, and the ``classify`` and ``roots`` reports
of the A_17 path at alpha = (1, ..., 1) (written by the box-walking code
that preceded root growth); they live in a subdirectory so that the
sweep of ``tests/sweep.py``, which runs on every ``golden/*.quiver``, does
not take them up.  Any change to a dimension, a bracket term or
coefficient, a root, a verdict or witness, to the table layout or to
schema ``necklace-kit/1`` shows up here as a byte difference.

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
# (quiver, command, flags): a root in Sigma_lambda at a nonzero weight with
# a smaller member and a doubled simple, a root at lambda = 0 that fails the
# strict inequality with a witness, and the roots of two boxes with their
# reflection sequences
VERDICTS = [
    ("calogero", "classify", "--alpha 2,4 --lambda -2,1"),
    ("calogero", "classify", "--alpha 1,2 --lambda 0,0"),
    ("calogero", "sigma", "--alpha 2,4 --lambda -2,1"),
    ("calogero", "sigma", "--alpha 1,2 --lambda 0,0"),
    ("calogero", "roots", "--box 3,4"),
    ("a1_tilde", "roots", "--box 3,3"),
]
# case: (quiver under wide/, command, flags)
WIDE = {
    "derham": ("three_loops", "derham", "--max-length 6"),
    "karoubi": ("three_loops", "karoubi", "--max-length 6"),
    "classify": (
        "a12_path", "classify", "--alpha " + ",".join("1" * 12) + " --lambda " + ",".join("0" * 12)
    ),
    "a17-classify": (
        "a17_path", "classify", "--alpha " + ",".join("1" * 17) + " --lambda " + ",".join("0" * 17)
    ),
    "a17-roots": ("a17_path", "roots", "--box " + ",".join("1" * 17)),
}


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


def wide_name(case: str) -> str:
    return f"{WIDE[case][0]}-{WIDE[case][1]}.json"


def write_wide_report(case: str, out: Path) -> None:
    """The `derham` or `karoubi` table of one vertex with three loops at
    length <= 6, whose largest pieces row reduction cannot reach, the
    `classify` report of a box of 4,095 vectors holding 78 roots, or the
    `classify` and `roots` reports of a box of 131,071 vectors holding 153
    roots."""
    name, command, flags = WIDE[case]
    run([command, str(GOLDEN / "wide" / f"{name}.quiver"), *flags.split(), "--json", str(out)])


def write_bracket(index: int, out: Path) -> str:
    name, w1, w2 = BRACKETS[index]
    quiver = str(GOLDEN / f"{name}.quiver")
    return run(["bracket", quiver, "--w1", w1, "--w2", w2, "--json", str(out)])


def verdict_name(index: int) -> str:
    name, command, _ = VERDICTS[index]
    return f"{name}-{command}-{index}"


def write_verdict(index: int, out: Path) -> str:
    name, command, flags = VERDICTS[index]
    quiver = str(GOLDEN / f"{name}.quiver")
    return run([command, quiver, *flags.split(), "--json", str(out)])


@pytest.mark.parametrize("name, command, base", CASES)
def test_report_is_byte_identical(name, command, base, tmp_path):
    out = tmp_path / "report.json"
    write_report(name, command, base, out)
    assert out.read_bytes() == (GOLDEN / report_name(name, command, base)).read_bytes()


@pytest.mark.parametrize("case", WIDE)
def test_wide_report_is_byte_identical(case, tmp_path):
    out = tmp_path / "report.json"
    write_wide_report(case, out)
    assert out.read_bytes() == (GOLDEN / "wide" / wide_name(case)).read_bytes()


@pytest.mark.parametrize("index", range(len(BRACKETS)), ids=bracket_name)
def test_bracket_is_byte_identical(index, tmp_path):
    out = tmp_path / "report.json"
    stdout = write_bracket(index, out)
    golden = GOLDEN / bracket_name(index)
    assert stdout.encode() == golden.with_suffix(".txt").read_bytes()
    assert out.read_bytes() == golden.with_suffix(".json").read_bytes()


@pytest.mark.parametrize("index", range(len(VERDICTS)), ids=verdict_name)
def test_verdict_is_byte_identical(index, tmp_path):
    out = tmp_path / "report.json"
    stdout = write_verdict(index, out)
    golden = GOLDEN / verdict_name(index)
    assert stdout.encode() == golden.with_suffix(".txt").read_bytes()
    assert out.read_bytes() == golden.with_suffix(".json").read_bytes()


if __name__ == "__main__":
    for case in CASES:
        write_report(*case, GOLDEN / report_name(*case))
    for case in WIDE:
        write_wide_report(case, GOLDEN / "wide" / wide_name(case))
    for index in range(len(BRACKETS)):
        golden = GOLDEN / bracket_name(index)
        golden.with_suffix(".txt").write_bytes(
            write_bracket(index, golden.with_suffix(".json")).encode()
        )
    for index in range(len(VERDICTS)):
        golden = GOLDEN / verdict_name(index)
        golden.with_suffix(".txt").write_bytes(
            write_verdict(index, golden.with_suffix(".json")).encode()
        )
