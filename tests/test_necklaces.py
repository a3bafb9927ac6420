"""Differential tests of the one least-rotation kernel and the one necklace
generator of `paths` (``_least_rotation`` and ``_Encoding.necklaces``), and
of the walk table that builds paths and necklaces of any length one arrow at
a time.

The kernel is compared with ``oracles.least_rotation_by_every_rotation`` on
seeded random marked words.  The generator is compared, through
``necklaces_of_length`` and ``karoubi_dim``, with the enumerate-and-filter
routes of `oracles` on seeded random quivers with 1-3 vertices and 1-3
arrows, every other one doubled, and on the double of demo 03's quiver, at
every degree <= length <= 7: necklaces as codes, and the representatives as
codes in omega_basis order.  The oracle tests each (closed path, mark set)
pair of a piece against all its rotations; pieces with more than
ORACLE_PAIRS pairs are skipped, and the coverage test counts what is left.

The necklace count dr0_dimension, which lists nothing, is compared with both
enumerations of `oracles` on 200 more seeded random quivers and their
doubles at length <= 6, and with the closed form on four letters.
"""
from __future__ import annotations

import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import comb

import pytest

from necklacekit import (
    Arrow,
    FormBasisElement,
    FormSum,
    Path,
    Quiver,
    double,
    dr0_dimension,
    in_commutator_span,
    karoubi_count,
    karoubi_dim,
    necklaces_of_length,
    omega_basis,
    paths_of_length,
    quiver,
)
from necklacekit.paths import _add_least_rotations, _encoding, _least_rotation
from necklacekit.quiver import WORK_CAP

from conftest import run_measured, small_random_quivers
from oracles import (
    _totient,
    count_necklaces_by_rotation,
    least_rotation_by_every_rotation,
    necklaces_by_filter,
    representatives_by_filter,
)

MAX_LENGTH = 7
ORACLE_PAIRS = 3000


def generator_quivers(count: int = 40, seed: int = 2107) -> list[Quiver]:
    rng = random.Random(seed)
    quivers = []
    for index in range(count):
        k = rng.randint(1, 3)
        arrows = tuple(
            Arrow(f"q{i}", rng.randint(1, k), rng.randint(1, k)) for i in range(rng.randint(1, 3))
        )
        quivers.append(double(Quiver(k, arrows)) if index % 2 else Quiver(k, arrows))
    return quivers


DEMO_03 = double(Quiver(2, (Arrow("a", 1, 2), Arrow("b", 2, 2))))
QUIVERS = generator_quivers() + [DEMO_03]
IDS = [f"random{i}" for i in range(len(QUIVERS) - 1)] + ["demo03"]


def closed_walks(q: Quiver, length: int) -> int:
    """tr(A^length), A the adjacency matrix: the closed paths the oracle tests."""
    k = range(q.vertex_count)
    adjacency = [[q.arrow_count(u + 1, v + 1) for v in k] for u in k]
    power = [[int(u == v) for v in k] for u in k]
    for _ in range(length):
        power = [[sum(row[w] * adjacency[w][v] for w in k) for v in k] for row in power]
    return sum(power[v][v] for v in k)


def _compared_pieces(q: Quiver):
    """(degree, length) of the pieces small enough for the oracle."""
    for length in range(1, MAX_LENGTH + 1):
        for degree in range(length + 1):
            if closed_walks(q, length) * comb(length, degree) <= ORACLE_PAIRS:
                yield degree, length


def test_least_rotation_matches_every_rotation():
    rng = random.Random(2105)
    for _ in range(5000):
        length = rng.randint(1, 10)
        word = tuple(rng.randint(0, 2) for _ in range(length))
        marked = set(rng.sample(range(length), rng.randint(0, length)))
        letters = tuple(2 * a + (i in marked) for i, a in enumerate(word))
        assert _least_rotation(letters, len(marked)) == least_rotation_by_every_rotation(
            letters, len(marked)
        ), letters
        # unmarked words of any letters: the least rotation, always with +1
        assert _least_rotation(word) == (min(word[i:] + word[:i] for i in range(length)), 1)


def _marked_word(rng: random.Random, length: int, marks: int) -> tuple:
    """Letters 2a + mark over arrows a < 3, with exactly ``marks`` marked."""
    marked = set(rng.sample(range(length), marks))
    return tuple(2 * rng.randint(0, 2) + (i in marked) for i in range(length))


def _stream(rng: random.Random, marks: int) -> list[tuple]:
    """(word, coefficient) pairs with ``marks`` marks each: fresh words,
    repeats and rotations of earlier words, exact negatives that cancel an
    earlier word, and powers of a block, which reach their least rotation
    with both signs when the block's marks j make j(marks - j) odd."""
    stream: list[tuple] = []
    for _ in range(rng.randint(1, 10)):
        kind = rng.random()
        if stream and kind < 0.2:
            stream.append(rng.choice(stream))
        elif stream and kind < 0.35:
            word, coeff = rng.choice(stream)
            stream.append((word, -coeff))
        elif stream and kind < 0.5:
            word, _ = rng.choice(stream)
            if type(word) is tuple:
                r = rng.randrange(len(word))
                stream.append((word[r:] + word[:r], rng.choice((1, -2, Fraction(1, 3)))))
        elif kind < 0.7 and marks in (0, 2, 4):
            block = _marked_word(rng, rng.randint(max(1, marks // 2), 4), marks // 2)
            stream.append((block * 2, rng.choice((1, -1, Fraction(-3, 2)))))
        elif kind < 0.75 and not marks:
            stream.append((rng.randint(1, 3), rng.choice((1, -1))))  # a vertex class
        else:
            word = _marked_word(rng, rng.randint(max(1, marks), 10), marks)
            stream.append((word, rng.choice((1, 2, -1, Fraction(1, 2)))))
    return stream


def test_the_batch_kernel_matches_every_rotation_on_streams():
    """_add_least_rotations against a sum built word by word from the
    oracle: each word's least rotation, its coefficient times the sign,
    nothing for the sign 0, and a key dropped when its sum reaches 0."""
    rng = random.Random(2106)
    signs = Counter()
    for _ in range(3000):
        marks = rng.randint(0, 4)
        stream = _stream(rng, marks)
        expected: dict = {}
        for word, coeff in stream:
            if type(word) is int:
                best, sign = word, 1
            else:
                best, sign = least_rotation_by_every_rotation(word, marks)
            signs[sign] += 1
            if sign:
                expected[best] = expected.get(best, 0) + sign * coeff
                if not expected[best]:
                    del expected[best]
        acc: dict = {}
        last = _add_least_rotations(acc, iter(stream), marks)
        assert acc == expected, (marks, stream)
        assert {k: type(v) for k, v in acc.items()} == {k: type(v) for k, v in expected.items()}
        assert last == best
    # every sign is reached many times, and some keys cancel
    assert min(signs[-1], signs[0], signs[1]) > 500, signs


@pytest.mark.parametrize("q", QUIVERS, ids=IDS)
def test_the_generator_matches_enumerate_and_filter(q):
    encoding = _encoding(q)
    for length in range(1, MAX_LENGTH + 1):
        if closed_walks(q, length) <= ORACLE_PAIRS:
            necklaces = [encoding.code(w) for w in necklaces_of_length(q, length)]
            assert necklaces == necklaces_by_filter(q, length)
    for degree, length in _compared_pieces(q):
        dim, reps = karoubi_dim(q, degree, length)
        codes = [FormSum._code(r) for r in reps]
        assert dim == len(codes)
        assert codes == representatives_by_filter(q, degree, length), (degree, length)


def test_the_compared_pieces_cover_every_degree_and_length():
    """1,224 of the 1,435 pieces are compared, 840 of them nonempty, and 28
    of demo 03's 35."""
    pieces = [(q, d, l) for q in QUIVERS for d, l in _compared_pieces(q)]
    assert len(pieces) >= 1200
    assert sum(1 for q, d, l in pieces if karoubi_count(q, d, l)) >= 800
    assert {(d, l) for _, d, l in pieces} == {
        (d, l) for l in range(1, MAX_LENGTH + 1) for d in range(l + 1)
    }
    assert len(list(_compared_pieces(DEMO_03))) >= 28


def test_one_loop_answers_at_length_3000():
    """Every call grows its words one arrow at a time, with no recursion per
    letter, so a length far above the recursion limit answers."""
    loop = Quiver(1, (Arrow("x", 1, 1),))
    assert [p.arrows for p in paths_of_length(loop, 3000)] == [("x",) * 3000]
    assert [w.arrows for w in necklaces_of_length(loop, 3000)] == [("x",) * 3000]
    assert dr0_dimension(loop, 3000) == 1
    assert karoubi_dim(loop, 0, 3000)[0] == 1
    assert [elt.lead.arrows for elt in omega_basis(loop, 0, 3000)] == [("x",) * 3000]


REFUSED_CALLS = """
import time
from necklacekit import (
    Arrow, FormBasisElement, FormSum, Path, Quiver, double, in_commutator_span,
    karoubi_count, karoubi_dim, necklaces_of_length, omega_basis, paths_between,
    paths_of_length,
)
two = double(Quiver(1, (Arrow("x", 1, 1), Arrow("y", 1, 1))))
loop = Quiver(1, (Arrow("x", 1, 1),))
x, xxx = Path(loop, ("x",)), Path(loop, ("x", "x", "x"))
calls = (
    lambda: paths_of_length(two, 30),
    lambda: paths_between(two, 1, 1, 30),
    lambda: necklaces_of_length(two, 30),
    lambda: karoubi_count(two, 0, 10**7),
    lambda: omega_basis(two, 1, 30),
    lambda: karoubi_dim(loop, 1, 5000),
    lambda: in_commutator_span(FormSum.of(FormBasisElement(x, (xxx,) * 16)), loop),
)
for call in calls:
    start = time.process_time()
    try:
        call()
        print("answered")
    except ValueError as exc:
        print(time.process_time() - start, exc)
"""


def test_calls_beyond_the_work_budget_are_refused_small_and_fast():
    """On the double of two loops, length 30 has 4^30 paths and about 3.8e16
    necklaces, and a trace table up to length 10^7 would hold entries of up
    to 2 * 10^7 bits; on one loop, karoubi_dim at (1, 5000) has one
    representative that the generator reaches after about 0.75 * 5000^2
    letters; and phi of x d(x x x) ... d(x x x) with 16 tails expands 3^16
    marked words.  Each call is refused within 2 s of CPU, in a process that
    stays under 200 MiB."""
    lines, stderr, peak_kib = run_measured(REFUSED_CALLS)
    assert stderr == "" and len(lines) == 7
    for line in lines:
        seconds, message = line.split(" ", 1)
        assert message == f"the computation needs more than {WORK_CAP} steps"
        assert float(seconds) < 2
    assert peak_kib < 200 * 1024


COUNT_QUIVERS = [q for base in small_random_quivers(3203, 200) for q in (base, double(base))]


def test_the_necklace_count_matches_both_enumerations():
    """dr0_dimension, Burnside's count, against the rotation classes of the
    labelled closed paths and the least rotations of their codes: 2,800
    pairs, 200 seeded random quivers and their doubles at every length <= 6."""
    for q in COUNT_QUIVERS:
        assert dr0_dimension(q, 0) == count_necklaces_by_rotation(q, 0) == q.vertex_count
        for length in range(1, 7):
            count = dr0_dimension(q, length)
            assert count == count_necklaces_by_rotation(q, length) == len(
                necklaces_by_filter(q, length)
            ), (q, length)


@pytest.mark.parametrize("length", [30, 1000, 3000])
def test_the_necklaces_of_four_letters_follow_the_closed_form(length):
    """On the double of two loops: (1/L) sum over d | L of phi(d) 4^(L/d)."""
    two = double(Quiver(1, (Arrow("x", 1, 1), Arrow("y", 1, 1))))
    divisors = [d for d in range(1, length + 1) if length % d == 0]
    closed_form = sum(_totient(d) * 4 ** (length // d) for d in divisors)
    assert dr0_dimension(two, length) * length == closed_form


def test_a_refused_count_leaves_the_trace_table_as_it_was():
    two = double(Quiver(1, (Arrow("x", 1, 1), Arrow("y", 1, 1))))
    encoding = _encoding(two)
    assert dr0_dimension(two, 30) == 38430716856090160
    traces, power = list(encoding._traces), encoding._power
    with pytest.raises(ValueError, match=f"^the computation needs more than {WORK_CAP} steps$"):
        karoubi_count(two, 0, 10**7)
    assert encoding._traces == traces and len(traces) == 31
    assert encoding._power is power


REFUSED_COUNT = """
import time
from necklacekit import Arrow, Quiver, dr0_dimension
loop = Quiver(1, (Arrow("x", 1, 1),))
start = time.process_time()
try:
    dr0_dimension(loop, 10**7)
    print("answered")
except ValueError as exc:
    print(time.process_time() - start, exc)
"""


def test_a_count_beyond_the_work_budget_is_refused_small_and_fast():
    """On one loop each length adds a one-word entry to the trace table, so
    dr0_dimension at length 10^7 is refused after 250,000 lengths, within
    2 s of CPU, in a process that stays under 200 MiB."""
    lines, stderr, peak_kib = run_measured(REFUSED_COUNT)
    assert stderr == "" and len(lines) == 1
    seconds, message = lines[0].split(" ", 1)
    assert message == f"the computation needs more than {WORK_CAP} steps"
    assert float(seconds) < 2
    assert peak_kib < 200 * 1024


def _x_dxxx_dxxx(q: Quiver) -> bool:
    x, xxx = Path(q, ("x",)), Path(q, ("x", "x", "x"))
    return in_commutator_span(FormSum.of(FormBasisElement(x, (xxx, xxx))), q)


@pytest.mark.parametrize(
    "call, steps",
    [
        # one prefix per level
        (lambda q: paths_of_length(q, 3), 3),
        # at each of the 3 positions, the one letter and then the end of it
        (lambda q: necklaces_of_length(q, 3), 6),
        # 3 prefixes, 3 elements built and 3 decoded
        (lambda q: omega_basis(q, 1, 3), 9),
        # 14 generator iterations over x and its marked form, 1 representative
        (lambda q: karoubi_dim(q, 1, 3), 15),
        # 3 x 3 marked words
        (_x_dxxx_dxxx, 9),
    ],
    ids=["paths", "necklaces", "omega_basis", "karoubi_dim", "phi"],
)
def test_each_step_is_charged(monkeypatch, call, steps):
    """On one loop, each call answers within exactly `steps` steps: it is
    refused with one step fewer."""
    monkeypatch.setattr(quiver, "WORK_CAP", steps)
    call(Quiver(1, (Arrow("x", 1, 1),)))
    monkeypatch.setattr(quiver, "WORK_CAP", steps - 1)
    with pytest.raises(ValueError, match=f"^the computation needs more than {steps - 1} steps$"):
        call(Quiver(1, (Arrow("x", 1, 1),)))


def test_walks_that_cannot_reach_the_length_are_not_built():
    """A chain of 7 steps with 7 parallel arrows each has 7^7 walks of
    length 7 and none of length 8; the empty piece at length 8 is built
    without the shorter walks.  In the second quiver 1 -> 2 starts a path
    of 9 arrows through 2 -> 3 -> ... -> 11, and 2 also starts a tree of
    depth 6 with 7 parallel arrows per step (vertices 12-17), so its 7^6
    walks 1 2 ... 17 die before length 9 and are not built either."""
    chain = Quiver(8, tuple(Arrow(f"x{i}_{j}", i, i + 1) for i in range(1, 8) for j in range(7)))
    tree = [(f"t{i}_{j}", i, i + 1 if i > 2 else 12) for i in (2, *range(12, 17)) for j in range(7)]
    gated = Quiver(
        17,
        tuple(Arrow(*arrow) for arrow in tree)
        + tuple(Arrow(f"c{i}", i, i + 1) for i in range(1, 11)),
    )
    tracemalloc.start()
    try:
        assert omega_basis(chain, 0, 8) == ()
        assert paths_of_length(chain, 8) == ()
        assert necklaces_of_length(chain, 8) == ()
        assert [p.source for p in paths_of_length(gated, 9)] == [1, 2]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
