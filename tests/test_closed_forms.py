"""Closed forms from theorems as oracles at sizes the enumeration oracles
cannot reach, on the Dynkin and Euclidean quivers in two orientations each.

* Gabriel: the positive roots of a Dynkin quiver are the alpha > 0 with
  q(alpha) = 1, all real.
* Kac (1980): the positive roots of a Euclidean quiver are the alpha > 0
  with q(alpha) <= 1; those with q = 0, the multiples of delta, are
  imaginary and the rest real.
* Sigma_0, from the definition with p = 1 - q: on a Dynkin quiver every
  root but a unit vector splits into unit vectors with p-sum 0 = p(alpha),
  so Sigma_0 is the unit vectors; on a Euclidean quiver it is the unit
  vectors and delta.  For m >= 2, m delta is in neither S_0 nor Sigma_0, as
  m copies of delta sum to m > 1 = p(m delta), which is its witness, and
  its types are j copies of delta plus the unit vectors of (m - j) delta,
  for j = m, ..., 0.

q is evaluated here from the edge list, with nothing from the library.
"""
from functools import lru_cache

import pytest

from necklacekit import IMAGINARY, REAL, Arrow, Quiver, classify, enumerate_positive_roots
from necklacekit.strata import _SigmaTable

from oracles import box_vectors


def chain(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(1, n)]


def star(arms: tuple[int, ...]) -> tuple[int, list[tuple[int, int]]]:
    """Vertex 1 with arms of the given lengths, numbered outwards arm by arm."""
    edges, nxt = [], 2
    for length in arms:
        prev = 1
        for _ in range(length):
            edges.append((prev, nxt))
            prev, nxt = nxt, nxt + 1
    return nxt - 1, edges


# name: (vertices, edges, highest root, number of positive roots)
DYNKIN = {
    "A5": (5, chain(5), (1, 1, 1, 1, 1), 15),
    "D4": (4, chain(3) + [(2, 4)], (1, 2, 1, 1), 12),
    "D6": (6, chain(5) + [(4, 6)], (1, 2, 2, 2, 1, 1), 30),
    "E6": (6, chain(5) + [(3, 6)], (1, 2, 3, 2, 1, 2), 36),
    "E7": (7, chain(6) + [(3, 7)], (2, 3, 4, 3, 2, 1, 2), 63),
    "E8": (8, chain(7) + [(3, 8)], (2, 4, 6, 5, 4, 3, 2, 3), 120),
}

# name: (vertices, edges, delta)
EUCLIDEAN = {
    "A3~": (4, chain(4) + [(4, 1)], (1, 1, 1, 1)),
    "A5~": (6, chain(6) + [(6, 1)], (1, 1, 1, 1, 1, 1)),
    "D4~": (*star((1, 1, 1, 1)), (2, 1, 1, 1, 1)),
    "D5~": (6, chain(4) + [(2, 5), (3, 6)], (1, 2, 2, 1, 1, 1)),
    "E6~": (*star((2, 2, 2)), (3, 2, 1, 2, 1, 2, 1)),
    "E7~": (*star((1, 3, 3)), (4, 2, 3, 2, 1, 3, 2, 1)),
    "E8~": (*star((1, 2, 5)), (6, 3, 4, 2, 5, 4, 3, 2, 1)),
}

# the boxes of the Euclidean root and Sigma_0 checks, as multiples of delta
EUCLIDEAN_BOX = {"A3~": 3, "A5~": 2, "D4~": 2, "D5~": 2, "E6~": 2, "E7~": 1, "E8~": 1}

ORIENTATIONS = ("as listed", "every other edge reversed")


def oriented(n: int, edges, orientation: str) -> Quiver:
    """The quiver on the graph, the edges as listed or every other one
    reversed; on an even cycle the second orientation alternates."""
    flip = orientation == ORIENTATIONS[1]
    arrows = [(t, s) if flip and i % 2 else (s, t) for i, (s, t) in enumerate(edges)]
    return Quiver(n, tuple(Arrow(f"a{i}", s, t) for i, (s, t) in enumerate(arrows)))


def q_value(edges, vec) -> int:
    return sum(v * v for v in vec) - sum(vec[s - 1] * vec[t - 1] for s, t in edges)


@lru_cache(maxsize=None)
def vectors_of_q_at_most_one(name: str, box: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    _, edges, *_ = {**DYNKIN, **EUCLIDEAN}[name]
    found = {}
    for vec in box_vectors(box):
        value = q_value(edges, vec)
        if value <= 1:
            found[vec] = value
    return found


def units(n: int) -> list[tuple[int, ...]]:
    """The unit vectors, ascending lex."""
    return sorted(tuple(int(i == j) for j in range(n)) for i in range(n))


def multiple(m: int, vec) -> tuple[int, ...]:
    return tuple(m * v for v in vec)


@pytest.mark.parametrize("orientation", ORIENTATIONS)
@pytest.mark.parametrize("name", DYNKIN)
def test_gabriel_dynkin_roots_are_the_vectors_of_q_one(name, orientation):
    n, edges, highest, count = DYNKIN[name]
    expected = vectors_of_q_at_most_one(name, highest)
    assert set(expected.values()) == {1}  # q is positive definite
    found = enumerate_positive_roots(oriented(n, edges, orientation), highest)
    assert [vec for vec, _ in found] == list(expected)
    assert len(found) == count
    assert {verdict.kind for _, verdict in found} == {REAL}


@pytest.mark.parametrize("orientation", ORIENTATIONS)
@pytest.mark.parametrize("name", EUCLIDEAN)
def test_euclidean_roots_are_the_vectors_of_q_at_most_one(name, orientation):
    n, edges, delta = EUCLIDEAN[name]
    box = multiple(EUCLIDEAN_BOX[name], delta)
    expected = vectors_of_q_at_most_one(name, box)
    found = enumerate_positive_roots(oriented(n, edges, orientation), box)
    assert [vec for vec, _ in found] == list(expected)
    for vec, verdict in found:
        assert verdict.kind == (IMAGINARY if expected[vec] == 0 else REAL), vec
    imaginary = [vec for vec, value in expected.items() if value == 0]
    assert imaginary == [multiple(m, delta) for m in range(1, EUCLIDEAN_BOX[name] + 1)]


@pytest.mark.parametrize("orientation", ORIENTATIONS)
@pytest.mark.parametrize("name", [*DYNKIN, *EUCLIDEAN])
def test_sigma_zero_is_the_unit_vectors_and_delta(name, orientation):
    if name in DYNKIN:
        n, edges, box, _ = DYNKIN[name]
        expected = units(n)
    else:
        n, edges, delta = EUCLIDEAN[name]
        box = multiple(EUCLIDEAN_BOX[name], delta)
        expected = sorted(units(n) + [delta])
    table = _SigmaTable(oriented(n, edges, orientation), (0,) * n, box)
    roots = table.hyperplane_roots()
    assert roots == list(vectors_of_q_at_most_one(name, box))
    assert [beta for beta in roots if table.in_sigma(beta)] == expected


def delta_types(delta, m: int) -> list[tuple[tuple[int, tuple[int, ...]], ...]]:
    """The types of m delta: j copies of delta, then the unit vectors of
    (m - j) delta, for j = m down to 0, in the enumeration order."""
    out = []
    for j in range(m, -1, -1):
        parts = [(j, tuple(delta))] if j else []
        parts += [((m - j) * d, e) for d, e in zip(delta, reversed(units(len(delta))))]
        out.append(tuple((mult, part) for mult, part in parts if mult))
    return out


def check_multiple_of_delta(name: str, orientation: str, m: int) -> None:
    n, edges, delta = EUCLIDEAN[name]
    report = classify(oriented(n, edges, orientation), multiple(m, delta), (0,) * n)
    membership = report.membership
    assert (membership.in_s, membership.in_sigma) == (m == 1, m == 1)
    # the imaginary roots, j delta, have p = 1 and the real ones p = 0, so
    # m copies of delta are the one decomposition whose p-values sum to m
    witness = None if m == 1 else ((tuple(delta), m),)
    assert membership.witness_s == membership.witness_sigma == witness
    assert [t.rep_type for t in report.types] == delta_types(delta, m)


SMALL_MULTIPLES = [
    (name, orientation, m)
    for name, top in (("A3~", 4), ("D4~", 4), ("E6~", 4), ("E7~", 2), ("E8~", 2))
    for orientation in ORIENTATIONS
    for m in range(1, top + 1)
]


@pytest.mark.parametrize("name, orientation, m", SMALL_MULTIPLES)
def test_small_multiples_of_delta(name, orientation, m):
    check_multiple_of_delta(name, orientation, m)


@pytest.mark.parametrize(
    "name, m", [("D4~", 12), ("E6~", 6), ("E8~", 3), ("D4~", 100), ("E8~", 12)]
)
def test_large_multiples_of_delta_answer(name, m):
    # strictness is decided once per root, and the best sums scan only the
    # strict members that are not unit vectors, here delta alone: the unit
    # vectors fill a coordinate as one option
    check_multiple_of_delta(name, ORIENTATIONS[1], m)


def test_the_strict_pass_at_62_delta_is_cheap():
    # a remainder at m delta is j delta plus what units fill, so the pass
    # over the 1,550 hyperplane roots of D4~ at 62 delta takes a few steps
    # per root, where scanning the unit vectors as parts took 215,067
    n, edges, delta = EUCLIDEAN["D4~"]
    table = _SigmaTable(oriented(n, edges, ORIENTATIONS[1]), (0,) * n, multiple(62, delta))
    assert len(table.hyperplane_roots()) == 1550
    left = table.steps.left
    assert table.strict_members() == set(units(n)) | {tuple(delta)}
    assert left - table.steps.left < 10_000
