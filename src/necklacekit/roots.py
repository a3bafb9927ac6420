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

from .quiver import DimVector, Quiver, as_dim_vector, support_connected, tits_form

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
    if not 1 <= vertex <= q.vertex_count:
        raise ValueError(f"vertex {vertex} out of range 1..{q.vertex_count}")
    alpha = tuple(alpha)
    if len(alpha) != q.vertex_count:
        raise ValueError("dimension vector length does not match the quiver")
    if not q.is_loop_free(vertex):
        raise ValueError(f"vertex {vertex} carries a loop; its reflection is undefined")
    pairing = sum(t * a for t, a in zip(tits_form(q)[vertex - 1], alpha))
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
    When there is none, the vector lies in the fundamental region exactly
    when every pairing is nonpositive and its support is connected.
    """
    current = [int(a) for a in alpha]
    if len(current) != q.vertex_count:
        raise ValueError("dimension vector length does not match the quiver")
    if not any(current):
        raise ValueError("the zero vector is not classified")
    t_matrix = tits_form(q)
    loop_free = [q.is_loop_free(v) for v in q.vertices]
    sequence: list[int] = []
    while True:
        if any(a < 0 for a in current):
            return RootClass(NOT_ROOT, tuple(sequence), None)
        if sum(current) == 1 and loop_free[current.index(1)]:
            return RootClass(REAL, tuple(sequence), tuple(current))
        pairings = [sum(t * a for t, a in zip(row, current)) for row in t_matrix]
        descent = next((i for i, p in enumerate(pairings) if p > 0 and loop_free[i]), None)
        if descent is None:
            if max(pairings) <= 0 and support_connected(q, current):
                return RootClass(IMAGINARY, tuple(sequence), tuple(current))
            return RootClass(NOT_ROOT, tuple(sequence), None)
        current[descent] -= pairings[descent]
        sequence.append(descent + 1)


def box_vectors(box: Sequence[int]) -> Iterator[DimVector]:
    """Lexicographic traversal of the nonzero vectors of the box 0 <= alpha <= box."""
    ranges = [range(0, b + 1) for b in box]
    for vec in itertools.product(*ranges):
        if any(vec):
            yield vec


def _check_box_size(box: Sequence[int], cap: int) -> None:
    """Refuse a box 0 <= alpha <= box of more than cap vectors, zero included."""
    vectors = math.prod(b + 1 for b in box)
    if vectors > cap:
        raise ValueError(f"box holds {vectors} candidates, more than the cap {cap}")


def _check_box(q: Quiver, box: Sequence[int], entry_cap: int, candidate_cap: int) -> DimVector:
    """The box as a dimension vector of q, refused when an entry exceeds
    entry_cap or it holds more than candidate_cap vectors."""
    box = as_dim_vector(q, box)
    if any(b > entry_cap for b in box):
        raise ValueError(f"dimension vector {box} exceeds the entry cap {entry_cap}")
    _check_box_size(box, candidate_cap)
    return box


def enumerate_positive_roots(
    q: Quiver,
    box: Sequence[int],
    *,
    entry_cap: int = ENTRY_CAP,
    candidate_cap: int = CANDIDATE_CAP,
) -> list[tuple[DimVector, RootClass]]:
    """All roots 0 < alpha <= box, with their classifications, in lex order."""
    box = _check_box(q, box, entry_cap, candidate_cap)
    out = []
    for vec in box_vectors(box):
        verdict = classify_root(q, vec)
        if verdict.is_root:
            out.append((vec, verdict))
    return out
