"""Root machinery for a quiver: reflections, the fundamental region, and a
height-descent decision procedure for real/imaginary roots.

A vector is a real root when some chain of simple reflections takes it to a
unit vector at a loop-free vertex, imaginary when a chain lands in the
fundamental region (connected support, nonpositive pairing with every unit
vector), and not a root otherwise.  Every verdict carries the reflection
sequence used, so it can be replayed.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

from .quiver import DimVector, Quiver, support_connected, tits_form

ENTRY_CAP = 12
CANDIDATE_CAP = 10**6

REAL = "real"
IMAGINARY = "imaginary"
NOT_ROOT = "not_root"


@dataclass(frozen=True)
class RootClass:
    """Classification verdict with a replayable witness.

    ``reflections`` lists the vertices reflected at, in the order applied to
    the input; ``terminal`` is the unit vector or fundamental-region vector
    reached (None when the vector is not a root).
    """

    kind: str
    reflections: tuple[int, ...] = ()
    terminal: tuple[int, ...] | None = None

    @property
    def is_root(self) -> bool:
        return self.kind != NOT_ROOT

    def replay(self, q: Quiver) -> tuple[int, ...] | None:
        """Apply the recorded reflections backwards from the terminal vector."""
        if self.terminal is None:
            return None
        vec = self.terminal
        for i in reversed(self.reflections):
            vec = reflect(q, i, vec)
        return vec


def reflect(q: Quiver, vertex: int, alpha: Sequence[int]) -> tuple[int, ...]:
    """Simple reflection at a loop-free vertex: alpha - T(alpha, e_i) e_i."""
    if not q.is_loop_free(vertex):
        raise ValueError(f"vertex {vertex} carries a loop; its reflection is undefined")
    alpha = tuple(alpha)
    t_matrix = tits_form(q)
    pairing = sum(t_matrix[vertex - 1][j] * alpha[j] for j in range(q.vertex_count))
    return tuple(
        a - pairing if i == vertex - 1 else a for i, a in enumerate(alpha)
    )


def in_fundamental_set(q: Quiver, alpha: Sequence[int]) -> bool:
    """Nonzero, connected support, and T(alpha, e_i) <= 0 at every vertex."""
    alpha = tuple(alpha)
    if len(alpha) != q.vertex_count:
        raise ValueError("dimension vector length does not match the quiver")
    if all(a == 0 for a in alpha):
        return False
    if any(a < 0 for a in alpha):
        return False
    t_matrix = tits_form(q)
    for i in range(q.vertex_count):
        if sum(t_matrix[i][j] * alpha[j] for j in range(q.vertex_count)) > 0:
            return False
    return support_connected(q, alpha)


def classify_root(q: Quiver, alpha: Sequence[int]) -> RootClass:
    """Decide real/imaginary/not-a-root by reflecting the height down.

    At each step pick the least loop-free vertex with positive pairing and
    reflect there; the coordinate sum strictly decreases, so this terminates.
    """
    current = tuple(int(a) for a in alpha)
    if len(current) != q.vertex_count:
        raise ValueError("dimension vector length does not match the quiver")
    if all(a == 0 for a in current):
        raise ValueError("the zero vector is not classified")
    t_matrix = tits_form(q)
    loop_free = [q.is_loop_free(v) for v in q.vertices]
    sequence: list[int] = []
    while True:
        if any(a < 0 for a in current):
            return RootClass(NOT_ROOT, tuple(sequence), None)
        if sum(current) == 1:
            vertex = current.index(1) + 1
            if loop_free[vertex - 1]:
                return RootClass(REAL, tuple(sequence), current)
        if in_fundamental_set(q, current):
            return RootClass(IMAGINARY, tuple(sequence), current)
        descent = None
        for i in range(q.vertex_count):
            if not loop_free[i]:
                continue
            pairing = sum(t_matrix[i][j] * current[j] for j in range(q.vertex_count))
            if pairing > 0:
                descent = i + 1
                break
        if descent is None:
            return RootClass(NOT_ROOT, tuple(sequence), None)
        current = reflect(q, descent, current)
        sequence.append(descent)


def box_vectors(box: Sequence[int], *, include_zero: bool = False) -> Iterator[DimVector]:
    """Lexicographic traversal of the lattice box 0 <= alpha <= box."""
    ranges = [range(0, b + 1) for b in box]
    for vec in itertools.product(*ranges):
        if include_zero or any(vec):
            yield vec


def _check_box_size(box: Sequence[int], cap: int) -> None:
    """Refuse a box 0 <= alpha <= box of more than cap vectors, zero included."""
    vectors = math.prod(b + 1 for b in box)
    if vectors > cap:
        raise ValueError(f"box holds {vectors} candidates, more than the cap {cap}")


def enumerate_positive_roots(
    q: Quiver,
    box: Sequence[int],
    *,
    entry_cap: int = ENTRY_CAP,
    candidate_cap: int = CANDIDATE_CAP,
) -> list[tuple[DimVector, RootClass]]:
    """All roots 0 < alpha <= box, with their classifications, in lex order."""
    box = tuple(int(b) for b in box)
    if len(box) != q.vertex_count:
        raise ValueError("box length does not match the quiver")
    if any(b < 0 for b in box):
        raise ValueError("box entries must be nonnegative")
    if any(b > entry_cap for b in box):
        raise ValueError(f"box entry exceeds the cap {entry_cap}")
    _check_box_size(box, candidate_cap)
    out = []
    for vec in box_vectors(box):
        verdict = classify_root(q, vec)
        if verdict.is_root:
            out.append((vec, verdict))
    return out
