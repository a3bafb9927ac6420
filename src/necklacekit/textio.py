"""Text formats: quiver files, path and necklace syntax, exact vectors.

Quiver file (one quiver per file)::

    # a comment line
    vertices: 2
    arrows: a 1 2, b 2 2

Whitespace is insignificant; ``#`` begins a comment line; the arrows line
may be empty.  A file may declare at most MAX_VERTICES vertices and
MAX_ARROWS arrows, so that no command is asked for tables whose size the
file alone would make unbounded (``info`` builds k x k Euler and Tits
matrices).  Paths are space-separated arrow labels in traversal order
(``a b a*``), with ``e<i>`` for the trivial path at vertex i.  Dimension
vectors and weights are comma-separated; weights accept exact rationals
(``-1/2,3``).

``paths`` is imported by the two parsers that build paths, not with this
module: of the CLI's commands only ``bracket`` needs it.
"""
from __future__ import annotations

from fractions import Fraction
from pathlib import Path as FilePath
from typing import TYPE_CHECKING

from .quiver import Arrow, Quiver, QuiverError

if TYPE_CHECKING:
    from .paths import NecklaceWord, Path

MAX_VERTICES = 64
MAX_ARROWS = 256


class QuiverFormatError(QuiverError):
    """Malformed quiver file; the message carries the file name and line."""


def parse_quiver_text(text: str, source: str = "<string>") -> Quiver:
    vertices: int | None = None
    arrow_specs: list[tuple[str, int, int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, rest = line.partition(":")
        key = key.strip().lower()
        if key == "vertices":
            if vertices is not None:
                raise QuiverFormatError(f"{source}:{lineno}: duplicate vertices line")
            try:
                vertices = int(rest.strip())
            except ValueError:
                raise QuiverFormatError(
                    f"{source}:{lineno}: vertex count {rest.strip()!r} is not an integer"
                ) from None
            if vertices < 1:
                raise QuiverFormatError(f"{source}:{lineno}: vertex count must be positive")
            if vertices > MAX_VERTICES:
                raise QuiverFormatError(
                    f"{source}:{lineno}: vertex count {vertices} exceeds the cap of "
                    f"{MAX_VERTICES}"
                )
        elif key == "arrows":
            if vertices is None:
                raise QuiverFormatError(f"{source}:{lineno}: arrows listed before vertices")
            for chunk in rest.split(","):
                chunk = chunk.strip()
                if not chunk:
                    continue
                fields = chunk.split()
                if len(fields) != 3:
                    raise QuiverFormatError(
                        f"{source}:{lineno}: arrow {chunk!r} is not 'label source target'"
                    )
                label, src_text, tgt_text = fields
                try:
                    src, tgt = int(src_text), int(tgt_text)
                except ValueError:
                    raise QuiverFormatError(
                        f"{source}:{lineno}: arrow {chunk!r} has non-integer endpoints"
                    ) from None
                arrow_specs.append((label, src, tgt, lineno))
                if len(arrow_specs) > MAX_ARROWS:
                    raise QuiverFormatError(
                        f"{source}:{lineno}: arrow count exceeds the cap of {MAX_ARROWS}"
                    )
        else:
            raise QuiverFormatError(
                f"{source}:{lineno}: unrecognized line {line!r}; expected "
                "'vertices:' or 'arrows:'"
            )
    if vertices is None:
        raise QuiverFormatError(f"{source}: missing 'vertices:' line")
    seen: dict[str, int] = {}
    for label, src, tgt, lineno in arrow_specs:
        if label in seen:
            raise QuiverFormatError(
                f"{source}:{lineno}: duplicate arrow label {label!r} "
                f"(first used on line {seen[label]})"
            )
        seen[label] = lineno
        if not 1 <= src <= vertices or not 1 <= tgt <= vertices:
            raise QuiverFormatError(
                f"{source}:{lineno}: arrow {label!r} uses a vertex outside 1..{vertices}"
            )
    for label, _, _, lineno in arrow_specs:
        try:
            Quiver._check_label(label)
        except QuiverError as exc:
            raise QuiverFormatError(f"{source}:{lineno}: {exc}") from None
    return Quiver(vertices, tuple(Arrow(l, s, t) for l, s, t, _ in arrow_specs))


def parse_quiver_file(path: str | FilePath) -> Quiver:
    file_path = FilePath(path)
    return parse_quiver_text(file_path.read_text(encoding="utf-8"), source=str(file_path))


def parse_path(q: Quiver, text: str) -> Path:
    """Parse traversal-order path syntax; Path reports the offending endpoints."""
    from .paths import Path

    tokens = text.split()
    if not tokens:
        raise ValueError("empty path text")
    if len(tokens) == 1 and tokens[0].startswith("e") and tokens[0][1:].isdigit():
        return Path.trivial(q, int(tokens[0][1:]))
    return Path(q, tuple(tokens))


def parse_necklace(q: Quiver, text: str) -> NecklaceWord:
    """Parse and canonicalize a necklace; NecklaceWord rejects open paths."""
    from .paths import canonical_necklace

    return canonical_necklace(parse_path(q, text))


def parse_dim_vector(text: str, k: int) -> tuple[int, ...]:
    parts = [p.strip() for p in text.split(",")]
    try:
        vec = tuple(int(p) for p in parts)
    except ValueError:
        raise ValueError(f"dimension vector {text!r} has non-integer entries") from None
    if len(vec) != k:
        raise ValueError(f"dimension vector {text!r} has {len(vec)} entries, expected {k}")
    if any(x < 0 for x in vec):
        raise ValueError(f"dimension vector {text!r} has a negative entry")
    return vec


def parse_weight(text: str, k: int) -> tuple[Fraction, ...]:
    parts = [p.strip() for p in text.split(",")]
    try:
        vec = tuple(Fraction(p) for p in parts)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"weight {text!r} has entries that are not exact rationals") from None
    if len(vec) != k:
        raise ValueError(f"weight {text!r} has {len(vec)} entries, expected {k}")
    return vec
