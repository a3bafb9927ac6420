"""Root machinery for a quiver: reflections, the fundamental region, and a
height-descent decision procedure for real/imaginary roots.

A vector is a real root when some chain of simple reflections takes it to a
unit vector at a loop-free vertex, imaginary when a chain lands in the
fundamental region (connected support, nonpositive pairing with every unit
vector), and not a root otherwise.  Every verdict carries the reflection
sequence used, so it can be replayed.

The roots of a box are grown from its unit vectors rather than filtered
out of it, so their cost follows the roots, not the box: every candidate
is a root plus e_i, i at or next to its support, decided by one descent
step onto a root found of smaller height, whose p-value it takes, as a
reflection preserves the Tits form; a root is real iff p = 0 (Kac 1980).
Vertex i is loop-free iff T_ii = 2.

Each public call spends from the work budget ``quiver.WORK_CAP`` a step per
pairing computed by a descent, candidate tested and reflection written into
a reported witness, whatever the size of the box or of its entries.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import mul
from typing import Sequence

from .quiver import (
    DimVector,
    IntMatrix,
    Quiver,
    _Steps,
    _of_length,
    _vertex,
    as_dim_vector,
    bilinear,
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
    vertex = _vertex(q.vertex_count, vertex)
    alpha = _of_length(q, alpha)
    if not q.is_loop_free(vertex):
        raise ValueError(f"vertex {vertex} carries a loop; its reflection is undefined")
    pairing = sum(t * a for t, a in zip(tits_form(q)[vertex - 1], alpha))
    return tuple(
        a - pairing if i == vertex - 1 else a for i, a in enumerate(alpha)
    )


def in_fundamental_set(q: Quiver, alpha: Sequence[int]) -> bool:
    """Nonzero, connected support, and T(alpha, e_i) <= 0 at every vertex."""
    alpha = _of_length(q, alpha)
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
    vec = _of_length(q, alpha)
    if any(a < 0 for a in vec):
        return RootClass(NOT_ROOT)
    return _descend(q, vec, _Steps())


def _step(t_matrix: IntMatrix, vec: DimVector, steps: _Steps) -> tuple | None:
    """The descent step of a vector of nonnegative entries, given the Tits
    form: the least loop-free vertex index i of the support (T_ii = 2) with
    T(vec, e_i) > 0 and vec reflected there (None if that has a negative
    entry), or None if there is no such i.  Only a loop-free vertex of the
    support can pair positively, as the form is nonpositive off the
    diagonal and at a looped vertex on it.  Each pairing spends a step."""
    for i in compress(range(len(vec)), vec):
        if t_matrix[i][i] == 2:
            steps.spend()
            pairing = sum(map(mul, t_matrix[i], vec))
            if pairing > 0:
                lowered = vec[i] - pairing
                return i, vec[:i] + (lowered,) + vec[i + 1 :] if lowered >= 0 else None
    return None


def _descend(q: Quiver, vec: DimVector, steps: _Steps) -> RootClass:
    """``classify_root`` of a nonzero vector of nonnegative entries, real at
    e_i with T_ii = 2, a step spent per pairing and reflection written."""
    if not any(vec):
        raise ValueError("the zero vector is not classified")
    t_matrix = tits_form(q)
    reflections: list[int] = []
    while sum(vec) != 1 or t_matrix[(i := vec.index(1))][i] != 2:
        step = _step(t_matrix, vec, steps)
        if step is None:
            if support_connected(q, vec):
                return RootClass(IMAGINARY, tuple(reflections), vec)
            return RootClass(NOT_ROOT, tuple(reflections))
        vertex, vec = step
        steps.spend()
        reflections.append(vertex + 1)
        if vec is None:
            return RootClass(NOT_ROOT, tuple(reflections))
    return RootClass(REAL, tuple(reflections), vec)


def _grow_roots(q: Quiver, box: DimVector, steps: _Steps) -> dict[DimVector, tuple]:
    """The roots 0 < alpha <= box in height order, each mapped to its p-value,
    the vertex index of its descent step and the root that step lands on.

    Unit vectors take no step: e_i has p = 1 - T_ii / 2, its loop count.
    Any other candidate is a root v of the last height plus e_i in the box,
    i at or next to supp v (T_ij != 0, j in it): roots have connected
    supports (Kac 1980), so no other v + e_i is one.  Its one descent step
    (``_step``) lands on a box vector of smaller height or outside the cone;
    as a reflection at a loop-free vertex i permutes the positive roots other
    than e_i and preserves the Tits form (Kac 1980), it is a root exactly when
    it lands on a root found, and has that root's p; with no step it is in
    the fundamental region, its p = 1 - T(v, v) / 2.  A root is real iff
    p = 0 (Kac 1980).  Every root is found by the root-string property (a
    positive root other than a unit vector minus some unit vector is one;
    Kac 1980), tested for looped vertices against the box filter.  Each
    candidate spends a step.
    """
    t_matrix = tits_form(q)
    k = len(box)
    near = [{i for i, t in enumerate(row) if t or i == j} for j, row in enumerate(t_matrix)]
    grown = {}
    for i in compress(range(k), box):
        steps.spend()
        unit = tuple(int(i == j) for j in range(k))
        grown[unit] = (1 - t_matrix[i][i] // 2, None, None)
    layer = list(grown)
    while layer:
        raised = ((vec, i) for vec in layer for i in set().union(*compress(near, vec)))
        candidates = dict.fromkeys(
            vec[:i] + (vec[i] + 1,) + vec[i + 1 :] for vec, i in raised if vec[i] < box[i]
        )
        layer = []
        for vec in candidates:
            steps.spend()
            step = _step(t_matrix, vec, steps)
            if step is None:
                grown[vec] = (1 - bilinear(t_matrix, vec, vec) // 2, None, None)
            elif step[1] in grown:
                grown[vec] = (grown[step[1]][0], *step)
            else:
                continue
            layer.append(vec)
    return grown


def enumerate_positive_roots(
    q: Quiver, box: Sequence[int]
) -> list[tuple[DimVector, RootClass]]:
    """All roots 0 < alpha <= box, with their classifications, in lex order,
    grown from the unit vectors of the box (``_grow_roots``).  Witnesses are
    built in height order, each the root's step vertex followed by the
    witness of the root it lands on, a step spent per reflection written."""
    box = as_dim_vector(q, box)
    steps = _Steps()
    classes: dict[DimVector, RootClass] = {}
    for vec, (p, vertex, landed) in _grow_roots(q, box, steps).items():
        kind = REAL if p == 0 else IMAGINARY
        if landed is None:
            classes[vec] = RootClass(kind, (), vec)
        else:
            below = classes[landed]
            steps.spend(1 + len(below.reflections))
            classes[vec] = RootClass(kind, (vertex + 1,) + below.reflections, below.terminal)
    return sorted(classes.items())
