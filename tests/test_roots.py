import random
import time

import numpy as np
import pytest

from necklacekit import (
    NOT_ROOT,
    REAL,
    Arrow,
    Quiver,
    bilinear,
    classify_root,
    enumerate_positive_roots,
    euler_form,
    in_fundamental_set,
    num_parameters,
    reflect,
    support_connected,
    tits_form,
)

from necklacekit.quiver import _Steps
from necklacekit.roots import _grow_roots
from necklacekit.strata import _SigmaTable

from conftest import path_quiver, random_quiver
from oracles import box_vectors, reference_descent, roots_by_box_filter, roots_by_orbit_closure

# seeded quivers on 1-4 vertices with at most 6 arrows, about half of them looped
_rng = random.Random(42)
ORACLE_QUIVERS = {
    f"random{i}": random_quiver(_rng, max_vertices=4, max_arrows=6) for i in range(40)
}

# seeded quivers on 1-4 vertices with up to 7 arrows, loops and parallel
# arrows among them, each with a box of entries 1-4
_rng = random.Random(2024)
GROWTH_CASES = [
    (q, tuple(_rng.randint(1, 4) for _ in q.vertices))
    for q in (random_quiver(_rng, max_vertices=4, max_arrows=7) for _ in range(240))
]

# seeded quivers on 1-4 vertices with at most 5 arrows, loops among them,
# each with a box of entries 1-4
_rng = random.Random(29)
DESCENT_CASES = [
    (q, tuple(_rng.randint(1, 4) for _ in q.vertices))
    for q in (random_quiver(_rng, max_vertices=4, max_arrows=5) for _ in range(400))
]


def test_reflect_examples(calogero):
    assert reflect(calogero, 1, (1, 1)) == (0, 1)
    assert reflect(calogero, 1, (1, 0)) == (-1, 0)
    assert reflect(calogero, 1, (1, 2)) == (1, 2)


def test_reflect_rejects_loop_vertex(calogero):
    with pytest.raises(ValueError):
        reflect(calogero, 2, (1, 1))


def test_reflect_rejects_bad_vertices_and_lengths():
    q = Quiver(2, (Arrow("a", 1, 2),))
    for vertex in (0, -1, 3):
        with pytest.raises(ValueError, match=f"vertex {vertex} out of range 1..2"):
            reflect(q, vertex, (1, 1))
    for alpha in ((1,), (1, 1, 1)):
        with pytest.raises(ValueError, match="length does not match the quiver"):
            reflect(q, 1, alpha)
    # True would reflect at vertex 1 and 1.0 fail on tuple indexing
    for vertex in (True, False, 1.0, 1.5, "1", None):
        with pytest.raises(TypeError, match=rf"^vertex must be an int, got {vertex!r}$"):
            reflect(q, vertex, (1, 1))
    assert reflect(q, np.int64(2), (1, 1)) == reflect(q, 2, (1, 1)) == (1, 0)


def test_reflect_involution_and_form_preservation(a1_tilde, calogero):
    rng = random.Random(40)
    for q, loop_free in ((a1_tilde, (1, 2)), (calogero, (1,))):
        t_matrix = tits_form(q)
        for _ in range(200):
            alpha = (rng.randint(-6, 6), rng.randint(-6, 6))
            beta = (rng.randint(-6, 6), rng.randint(-6, 6))
            for v in loop_free:
                assert reflect(q, v, reflect(q, v, alpha)) == alpha
                assert bilinear(t_matrix, reflect(q, v, alpha), reflect(q, v, beta)) == bilinear(
                    t_matrix, alpha, beta
                )


def test_fundamental_set(calogero, one_loop):
    assert in_fundamental_set(calogero, (1, 2))
    assert not in_fundamental_set(calogero, (1, 1))
    assert in_fundamental_set(calogero, (0, 1))
    assert not in_fundamental_set(calogero, (0, 0))
    # the loop's Tits form is 0, so only the sign check tells (-1) apart
    assert not in_fundamental_set(one_loop, (-1,))
    with pytest.raises(ValueError, match="^dimension vector length does not match the quiver$"):
        in_fundamental_set(calogero, (1,))


def test_classify_examples(calogero):
    assert classify_root(calogero, (1, 0)).kind == "real"
    assert classify_root(calogero, (1, 2)).kind == "imaginary"
    assert classify_root(calogero, (2, 1)).kind == "not_root"
    # the descent from (2, 1) reflects once and leaves the cone: no terminal
    assert classify_root(calogero, (2, 1)).replay(calogero) is None
    assert classify_root(calogero, (-1, 0)).kind == "not_root"
    with pytest.raises(ValueError):
        classify_root(calogero, (0, 0))
    with pytest.raises(ValueError, match="^dimension vector length does not match the quiver$"):
        classify_root(calogero, (1,))


def test_classify_refuses_non_integer_entries(calogero):
    # int() would truncate (1.9, 0.5) to the real root (1, 0)
    with pytest.raises(ValueError, match=r"^dimension vector \(1\.9, 0\.5\) has a non-integer entry$"):
        classify_root(calogero, (1.9, 0.5))
    with pytest.raises(ValueError, match="non-integer entry"):
        classify_root(calogero, (np.float64(1.5), 2))
    for alpha in ((1.0, 2.0), (np.int64(1), np.int32(2)), np.array([1, 2])):
        verdict = classify_root(calogero, alpha)
        assert verdict == classify_root(calogero, (1, 2)) and verdict.kind == "imaginary"
        assert all(type(a) is int for a in verdict.terminal)
    # reflections, the fundamental-set test and the support test share the check
    for call in (
        lambda: reflect(calogero, 1, (1.5, 0)),
        lambda: in_fundamental_set(calogero, (0.5, 1.5)),
        lambda: in_fundamental_set(calogero, (1.5, 0)),
        lambda: support_connected(calogero, (0.5, 0)),
    ):
        with pytest.raises(ValueError, match="non-integer entry$"):
            call()
    # and still take the signed entries that reflections produce
    assert reflect(calogero, 1, (np.int64(-1), 0.0)) == (1, 0)


def test_classification_reflection_invariant(calogero, a1_tilde):
    rng = random.Random(41)
    for q, loop_free in ((calogero, (1,)), (a1_tilde, (1, 2))):
        for _ in range(100):
            alpha = (rng.randint(0, 6), rng.randint(0, 6))
            if not any(alpha):
                continue
            for v in loop_free:
                image = reflect(q, v, alpha)
                if any(x < 0 for x in image) or not any(image):
                    continue
                assert classify_root(q, alpha).kind == classify_root(q, image).kind


def test_witness_replay(calogero, a1_tilde):
    for q in (calogero, a1_tilde):
        for vec, verdict in enumerate_positive_roots(q, (4, 4)):
            assert verdict.replay(q) == vec


def test_enumerate_calogero_box(calogero):
    found = enumerate_positive_roots(calogero, (2, 3))
    reals = [v for v, c in found if c.kind == "real"]
    imags = [v for v, c in found if c.kind == "imaginary"]
    assert reals == [(1, 0)]
    assert imags == [
        (0, 1),
        (0, 2),
        (0, 3),
        (1, 1),
        (1, 2),
        (1, 3),
        (2, 2),
        (2, 3),
    ]


def test_enumerate_empty_and_a1(a1_tilde):
    assert enumerate_positive_roots(a1_tilde, (0, 0)) == []
    found = enumerate_positive_roots(a1_tilde, (2, 2))
    reals = [v for v, c in found if c.kind == "real"]
    imags = [v for v, c in found if c.kind == "imaginary"]
    assert reals == [(0, 1), (1, 0), (1, 2), (2, 1)]
    assert imags == [(1, 1), (2, 2)]


def test_enumerated_roots_propertywise(calogero, a1_tilde, one_loop):
    for q in (calogero, a1_tilde, one_loop):
        box = tuple(3 for _ in q.vertices)
        chi = euler_form(q)
        for vec, verdict in enumerate_positive_roots(q, box):
            assert support_connected(q, vec)
            value = bilinear(chi, vec, vec)
            if verdict.kind == "real":
                assert value == 1
            else:
                assert value <= 0


@pytest.mark.parametrize("name", ["calogero", "a1_tilde", *ORACLE_QUIVERS])
def test_agreement_with_orbit_closure_oracle(name, request):
    if name in ORACLE_QUIVERS:
        q = ORACLE_QUIVERS[name]
        box = (3,) * q.vertex_count
    else:
        q = request.getfixturevalue(name)
        box = (3, 4)
    found = enumerate_positive_roots(q, box)
    assert {vec: verdict.kind for vec, verdict in found} == roots_by_orbit_closure(q, box)
    for vec, verdict in found:
        assert verdict.replay(q) == vec


def test_a_wide_box_with_few_roots_answers():
    # 13^6 = 4,826,809 box vectors, 21 roots
    a6 = path_quiver(6)
    found = enumerate_positive_roots(a6, (12,) * 6)
    assert len(found) == 21 and all(verdict.kind == REAL for _, verdict in found)
    assert classify_root(a6, (12,) * 6).kind == NOT_ROOT


@pytest.mark.parametrize("k", [20, 30, 110])
def test_the_a_path_roots_at_ones_are_its_intervals(k):
    # the positive roots of A_k are the k (k + 1) / 2 sums e_i + ... + e_j
    intervals = sorted(
        tuple(int(i <= v <= j) for v in range(k)) for i in range(k) for j in range(i, k)
    )
    found = enumerate_positive_roots(path_quiver(k), (1,) * k)
    assert [vec for vec, _ in found] == intervals
    assert all(verdict.kind == REAL for _, verdict in found)


def test_a_long_descent_is_refused_in_time(a1_tilde):
    start = time.process_time()
    with pytest.raises(ValueError, match=r"^the computation needs more than \d+ steps$"):
        classify_root(a1_tilde, (10**6, 10**6 - 1))
    assert time.process_time() - start < 2


@pytest.mark.parametrize("n", [2000, 20000])
def test_a_long_real_descent_answers(a1_tilde, n):
    # each reflection lowers the height by 2, and the witness is written once
    verdict = classify_root(a1_tilde, (n, n - 1))
    assert verdict.kind == REAL and len(verdict.reflections) == n - 1
    assert verdict.replay(a1_tilde) == (n, n - 1)


def test_grown_roots_match_the_box_filter():
    # growth from the unit vectors rests on the root-string property, which
    # for looped vertices is checked here, on every root's full class and on
    # the p-value each root inherits along its descent step
    looped = parallel = 0
    for q, box in GROWTH_CASES:
        assert enumerate_positive_roots(q, box) == roots_by_box_filter(q, box), (q, box)
        for beta, (p, _, _) in _grow_roots(q, box, _Steps()).items():
            assert p == num_parameters(q, beta), (q, beta)
        looped += any(not q.is_loop_free(v) for v in q.vertices)
        ends = [(a.source, a.target) for a in q.arrows]
        parallel += len(set(ends)) < len(ends)
    assert looped >= 100 and parallel >= 50


def test_reported_witnesses_match_the_reference_descent():
    # every witness the library reports, of roots and not-roots alike: from
    # classify_root and the table on every vector of the box, and from the
    # listing on every root, against a descent that shares no code with it
    differences, stopped = [], 0
    for q, box in DESCENT_CASES:
        table = _SigmaTable(q, (0,) * q.vertex_count, box)
        expected = {vec: reference_descent(q, vec) for vec in box_vectors(box)}
        reported = [(vec, "classify_root", classify_root(q, vec)) for vec in expected]
        reported += [(vec, "root_class", table.root_class(vec)) for vec in expected]
        listed = enumerate_positive_roots(q, box)
        reported += [(vec, "listed", verdict) for vec, verdict in listed]
        for vec, source, verdict in reported:
            if (verdict.kind, verdict.reflections, verdict.terminal) != expected[vec]:
                differences.append((q, vec, source, verdict, expected[vec]))
        roots = [vec for vec, (kind, _, _) in expected.items() if kind != NOT_ROOT]
        if [vec for vec, _ in listed] != roots:
            differences.append((q, box, "listed roots"))
        for vec, (kind, reflections, _) in expected.items():
            end = vec
            for vertex in reflections:
                end = reflect(q, vertex, end)
            # a not-root whose descent stops on a disconnected support
            stopped += kind == NOT_ROOT and reflections != () and min(end) >= 0
    assert differences == []
    assert stopped >= 50
