"""Root machinery for a quiver: reflections, the fundamental region, and a
height-descent decision procedure for real/imaginary roots.

A vector is a real root when some chain of simple reflections takes it to a
unit vector at a loop-free vertex, imaginary when a chain lands in the
fundamental region (connected support, nonpositive pairing with every unit
vector), and not a root otherwise.  Every verdict carries the reflection
sequence used, so it can be replayed.

The roots of a box are grown from its unit vectors rather than filtered
out of it, so their cost follows the roots, not the box: every candidate
is a root plus one unit vector, and is classified by one descent step onto
a vector of the box already classified.

Each public call spends from the work budget ``quiver.WORK_CAP`` a step per
pairing computed by a descent, reflection entry written back along one and
candidate tested, whatever the size of the box or of its entries.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import mul
from typing import Sequence

from .quiver import (
    DimVector,
    Quiver,
    _Steps,
    as_dim_vector,
    loop_free_flags,
    support_connected,
    tits_form,
)

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
    vec = tuple(int(a) for a in alpha)
    if len(vec) != q.vertex_count:
        raise ValueError("dimension vector length does not match the quiver")
    if any(a < 0 for a in vec):
        return RootClass(NOT_ROOT)
    return _classify_in_box(q, vec, {}, _Steps())


def _classify_in_box(
    q: Quiver, vec: DimVector, classes: dict[DimVector, RootClass], steps: _Steps
) -> RootClass:
    """``classify_root`` of a vector with nonnegative entries, one descent
    step per vector not yet in ``classes``.

    A descent step lowers one coordinate, so it lands on a vector with a
    negative entry (not a root) or on a nonzero vector of the same box 0 <=
    beta <= vec.  That vector's class, looked up in ``classes`` or found the
    same way, gives vec its kind and terminal, and vec's reflections are the
    step's vertex followed by that vector's reflections.  Every vector of the
    descent is entered in ``classes``.  Each pairing computed, and each
    reflection written into those entries, spends a step.
    """
    found = classes.get(vec)
    if found is not None:
        return found
    if not any(vec):
        raise ValueError("the zero vector is not classified")
    t_matrix = tits_form(q)
    loop_free = loop_free_flags(q)
    chain: list[tuple[int, int]] = []  # (vertex index, its entry before the step)
    current = vec
    while True:
        if sum(current) == 1 and loop_free[current.index(1)]:
            found = RootClass(REAL, (), current)
            break
        # the Tits form is nonpositive off the diagonal and at a looped
        # vertex on it, so only a loop-free vertex of the support can pair
        # positively with a vector of nonnegative entries
        descent = None
        for i in compress(range(len(current)), current):
            if loop_free[i]:
                steps.spend()
                pairing = sum(map(mul, t_matrix[i], current))
                if pairing > 0:
                    descent = i
                    break
        if descent is None:
            if support_connected(q, current):
                found = RootClass(IMAGINARY, (), current)
            else:
                found = RootClass(NOT_ROOT)
            break
        lowered = current[descent] - pairing
        if lowered < 0:
            found = RootClass(NOT_ROOT, (descent + 1,))
            break
        chain.append((descent, current[descent]))
        current = current[:descent] + (lowered,) + current[descent + 1 :]
        found = classes.get(current)
        if found is not None:
            break
    n = len(chain)
    steps.spend(n * len(found.reflections) + n * (n + 1) // 2)
    classes[current] = found
    for vertex, entry in reversed(chain):
        current = current[:vertex] + (entry,) + current[vertex + 1 :]
        found = RootClass(found.kind, (vertex + 1,) + found.reflections, found.terminal)
        classes[current] = found
    return found


def _grow_roots(
    q: Quiver, box: DimVector, classes: dict[DimVector, RootClass], steps: _Steps
) -> list[DimVector]:
    """The roots 0 < alpha <= box in lex order, classified into ``classes``.

    They are grown from the unit vectors of the box: every root found adds
    one unit vector at a time, within the box, and a candidate is kept when
    it is a root.  This finds every root by the root-string property (a
    positive root other than a unit vector minus some unit vector is a
    positive root; Kac 1980), which for looped vertices is checked against
    the box filter by the tests, not proved here.  Each candidate tested
    spends a step.
    """
    k = len(box)
    units = [tuple(int(i == j) for j in range(k)) for i in range(k) if box[i]]
    seen = set(units)
    pending = list(units)
    found = []
    while pending:
        vec = pending.pop()
        steps.spend()
        if not _classify_in_box(q, vec, classes, steps).is_root:
            continue
        found.append(vec)
        for i in range(k):
            if vec[i] < box[i]:
                grown = vec[:i] + (vec[i] + 1,) + vec[i + 1 :]
                if grown not in seen:
                    seen.add(grown)
                    pending.append(grown)
    found.sort()
    return found


def enumerate_positive_roots(
    q: Quiver, box: Sequence[int]
) -> list[tuple[DimVector, RootClass]]:
    """All roots 0 < alpha <= box, with their classifications, in lex order,
    grown from the unit vectors of the box (``_grow_roots``)."""
    box = as_dim_vector(q, box)
    classes: dict[DimVector, RootClass] = {}
    return [(vec, classes[vec]) for vec in _grow_roots(q, box, classes, _Steps())]
