"""Each demo runs in its own interpreter and prints what it printed before.

The stdout of demos 01-05 is compared byte for byte with
``tests/golden/demos/<demo>.txt``.  Demo 06 prints residuals and singular
values that come from LAPACK, whose last bits may differ between CPUs and
builds, so it only has to exit 0.

Regenerate the texts (only when a demo's output is meant to change, and say
so in CHANGES.md) with ``python3 tests/test_demos.py``.

README's library quickstart runs in this process, and each result it states
in a comment is checked.
"""
from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = ROOT / "tests" / "golden" / "demos"
NUMERICAL = {"06_moment_numerics"}
README = ROOT / "README.md"


def run_demo(demo: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(demo)], capture_output=True, env=env, cwd=ROOT, timeout=600
    )


@pytest.mark.parametrize("demo", DEMOS, ids=lambda demo: demo.stem)
def test_demo_prints_its_golden_output(demo):
    result = run_demo(demo)
    assert result.returncode == 0, result.stderr.decode()
    if demo.stem not in NUMERICAL:
        assert result.stdout == (GOLDEN / f"{demo.stem}.txt").read_bytes()


def readme_quickstart() -> str:
    """The code block under README's "Library quickstart" heading."""
    section = README.read_text(encoding="utf-8").split("## Library quickstart\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_quickstart_gives_its_commented_results():
    # every bare expression of the block is evaluated and shown as its
    # trailing comment shows it, a tuple as its items joined by ", "
    source = readme_quickstart()
    lines = source.splitlines()
    namespace: dict = {}
    shown, comments = [], []
    for node in ast.parse(source).body:
        code = ast.get_source_segment(source, node)
        if not isinstance(node, ast.Expr):
            exec(code, namespace)
            continue
        value = eval(code, namespace)
        shown.append(", ".join(map(str, value)) if isinstance(value, tuple) else str(value))
        comments.append(lines[node.end_lineno - 1].split("#", 1)[1].strip())
    assert shown == comments == ["4 [x x*]", "True, 8, 4", "8"]


if __name__ == "__main__":
    for demo in DEMOS:
        if demo.stem not in NUMERICAL:
            result = run_demo(demo)
            result.check_returncode()
            (GOLDEN / f"{demo.stem}.txt").write_bytes(result.stdout)
