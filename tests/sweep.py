"""Hashed sweep of the command line over a seeded corpus of quiver files.

Builds a corpus from the golden quiver files, a fixed list of malformed
files and seeded random quivers, runs every subcommand on it in-process
through ``cli.main`` (bad flags, usage errors and domain errors included),
and prints one SHA-256 per subcommand over the argv, stdout, stderr, exit
code and ``--json`` bytes of each invocation.  Two checkouts that print the
same hashes behave the same on the corpus.

Run from the root of a checkout::

    PYTHONPATH=src python3 tests/sweep.py

``tests/golden/sweep.txt`` holds the output of the current code, and CI
compares every line of a fresh run but the ``moment`` line with it (that
line hashes LAPACK output, whose last bits may differ between CPUs).  A
change that alters the command line's behaviour on the corpus must rewrite
that file with the new output.

The file is not collected by pytest (its name does not start with test_).
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"
# fixed, so that hashes printed by two checkouts can be compared
SEED = 0
QUIVERS = 100  # random quiver files
COMMANDS = ("info", "roots", "sigma", "classify", "bracket", "derham", "karoubi", "moment")

MALFORMED = {
    "empty.quiver": "",
    "no_vertices.quiver": "arrows: a 1 1\n",
    "arrows_first.quiver": "arrows: a 1 2\nvertices: 2\n",
    "zero_vertices.quiver": "vertices: 0\n",
    "bad_count.quiver": "vertices: two\n",
    "duplicate_vertices.quiver": "vertices: 2\nvertices: 3\n",
    "short_arrow.quiver": "vertices: 2\narrows: a 1\n",
    "bad_endpoint.quiver": "vertices: 2\narrows: a 1 x\n",
    "out_of_range.quiver": "vertices: 2\narrows: a 1 3\n",
    "duplicate_label.quiver": "vertices: 2\narrows: a 1 2, a 2 1\n",
    "star_label.quiver": "vertices: 1\narrows: x* 1 1\n",
    "vertex_label.quiver": "vertices: 2\narrows: e1 1 2\n",
    "unknown_line.quiver": "# a comment\nvertices: 1\nloops: x\n",
}

# (argv tail, whether it takes --json); every quiver file gets each of these
FIXED_CALLS = [
    (["info"], True),
    (["info", "--threads", "0"], False),
    (["info", "--threads", "2"], True),
    (["info", "--bogus"], False),
    (["roots"], False),
    (["roots", "--box", "1,1,1,1,1,1"], True),
    (["roots", "--box", "2", "--entry-cap", "0"], False),
    (["sigma", "--alpha", "1"], False),
    (["sigma", "--alpha", "1,1,1,1,1", "--lambda", "0,0,0,0,0"], True),
    (["classify", "--alpha", "x", "--lambda", "0"], True),
    (["bracket", "--w1", "x x"], False),
    (["derham", "--max-degree", "-1"], False),
    (["derham", "--max-length", "1", "--max-degree", "1"], True),
    (["derham", "--max-length", "3"], True),
    (["karoubi", "--max-length", "2", "--max-degree", "2", "--base"], True),
    (["karoubi", "--max-length", "x"], False),
    (["moment", "--alpha", "1", "--lambda", "0", "--tol", "nan"], False),
    (["moment", "--alpha", "1", "--lambda", "0", "--seeds", "0"], False),
    (["moment", "--alpha", "1", "--lambda", "0", "--max-iter", "0"], False),
    (["moment", "--alpha", "1", "--lambda", "0", "--svd-tol", "-1"], False),
]

# invocations without a quiver file argument
BARE_CALLS = [[], ["--help"], ["nonsense"], ["info"], *([name, "--help"] for name in COMMANDS)]


def random_quiver_text(rng: random.Random) -> tuple[int, list[tuple[str, int, int]], str]:
    k = rng.randint(1, 3)
    arrows = [
        (f"q{i}", rng.randint(1, k), rng.randint(1, k)) for i in range(rng.randint(0, 4))
    ]
    text = f"vertices: {k}\n"
    if arrows:
        text += "arrows: " + ", ".join(f"{a} {s} {t}" for a, s, t in arrows) + "\n"
    return k, arrows, text


def read_quiver(text: str) -> tuple[int, list[tuple[str, int, int]]]:
    """Vertex count and arrows of a well-formed quiver file."""
    k, arrows = 0, []
    for line in text.splitlines():
        key, _, rest = line.partition(":")
        if key.strip() == "vertices":
            k = int(rest)
        elif key.strip() == "arrows":
            for chunk in rest.split(","):
                label, source, target = chunk.split()
                arrows.append((label, int(source), int(target)))
    return k, arrows


def walk(rng: random.Random, k: int, arrows, length: int) -> str:
    """A random walk of the double quiver, written in traversal order; it is
    closed only sometimes, so some brackets are refused."""
    doubled = [(a, s, t) for a, s, t in arrows] + [(a + "*", t, s) for a, s, t in arrows]
    if not doubled:
        return "e1"
    vertex = rng.randint(1, k)
    labels = []
    for _ in range(length):
        leaving = [(a, t) for a, s, t in doubled if s == vertex]
        if not leaving:
            break
        label, vertex = rng.choice(leaving)
        labels.append(label)
    return " ".join(labels) or f"e{vertex}"


def vector(rng: random.Random, k: int, low: int, high: int) -> str:
    return ",".join(str(rng.randint(low, high)) for _ in range(k))


def weight(rng: random.Random, k: int) -> str:
    if rng.random() < 0.4:
        return ",".join(["0"] * k)
    return ",".join(rng.choice(["-2", "1", "0", "-1/2", "3", "1/3"]) for _ in range(k))


def random_calls(rng: random.Random, k: int, arrows) -> list[tuple[list[str], bool]]:
    """Subcommand calls sized for a quiver with k vertices and these arrows."""
    calls: list[tuple[list[str], bool]] = []
    for _ in range(3):
        calls.append((["roots", "--box", vector(rng, k, 0, 3)], True))
        alpha = vector(rng, k, 0, 3)
        lam = weight(rng, k)
        calls.append((["sigma", "--alpha", alpha, "--lambda", lam], True))
        calls.append((["classify", "--alpha", alpha, "--lambda", lam], True))
        calls.append(
            (["bracket", "--w1", walk(rng, k, arrows, 3), "--w2", walk(rng, k, arrows, 3)], True)
        )
    calls.append((["roots", "--box", vector(rng, k, 0, 2), "--candidate-cap", "1"], False))
    zero = ",".join(["0"] * k)
    calls.append((["classify", "--alpha", vector(rng, k, 13, 13), "--lambda", zero], False))
    for command in ("derham", "karoubi"):
        degree, length = str(rng.randint(0, 2)), str(rng.randint(0, 3))
        for base in ([], ["--base"]):
            calls.append(([command, "--max-degree", degree, "--max-length", length, *base], True))
    calls.append(
        (["moment", "--alpha", vector(rng, k, 0, 2), "--lambda", weight(rng, k), "--seeds", "2"],
         True)
    )
    return calls


def run(main, argv: list[str], json_path: str | None) -> bytes:
    """One invocation, serialised: argv, exit code, stdout, stderr, JSON bytes."""
    if json_path is not None:
        argv = argv + ["--json", json_path]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    written = b"<no json>"
    if json_path is not None and os.path.exists(json_path):
        written = Path(json_path).read_bytes()
        os.remove(json_path)
    record = [repr(argv), repr(code), stdout.getvalue(), stderr.getvalue()]
    return "\x00".join(record).encode("utf-8") + b"\x00" + written + b"\x01"


def sweep() -> tuple[dict, dict[str, int]]:
    from necklacekit.cli import main

    hashes = {name: hashlib.sha256() for name in (*COMMANDS, "usage")}
    counts = dict.fromkeys(hashes, 0)

    def call(argv: list[str], with_json: bool) -> None:
        name = argv[0] if argv and argv[0] in COMMANDS else "usage"
        hashes[name].update(run(main, argv, "out.json" if with_json else None))
        counts[name] += 1

    rng = random.Random(SEED)
    files: list[tuple[str, list[tuple[list[str], bool]]]] = []
    for golden in sorted(GOLDEN.glob("*.quiver")):
        text = golden.read_text()
        Path(golden.name).write_text(text)
        files.append((golden.name, random_calls(rng, *read_quiver(text))))
    for name, text in MALFORMED.items():
        Path(name).write_text(text)
        files.append((name, []))
    files.append(("missing.quiver", []))
    for index in range(QUIVERS):
        k, arrows, text = random_quiver_text(rng)
        name = f"random{index:03d}.quiver"
        Path(name).write_text(text)
        files.append((name, random_calls(rng, k, arrows)))

    for argv in BARE_CALLS:
        call(list(argv), False)
    for name, extra in files:
        for tail, with_json in FIXED_CALLS + extra:
            call([tail[0], name, *tail[1:]], with_json)
    return hashes, counts


def main() -> int:
    # argparse wraps help and usage text to the terminal width
    os.environ["COLUMNS"] = "80"
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            hashes, counts = sweep()
        finally:
            os.chdir(here)
    for name, digest in hashes.items():
        print(f"{name:<9} {counts[name]:>5} {digest.hexdigest()}")
    print(f"invocations: {sum(counts.values())}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
