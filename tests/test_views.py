"""Differential tests of the views that `paths` and `forms` build from codes.

Codes are the one stored form of paths, necklaces and forms; every view
handed out of them (by paths_of_length, paths_between, necklaces_of_length,
omega_basis, karoubi_dim, concat, NecklaceWord.representative and terms()
of every sum) is built without the checks of its constructor.  On seeded
random quivers, each such view must be accepted by the checking constructor
given its labels, and must equal, hash like and print like what that
constructor builds.  Nothing decoded is kept on the quiver, so a dropped
result is released.
"""
from __future__ import annotations

import gc
import random
import tracemalloc

import pytest

from necklacekit import (
    Arrow,
    FormBasisElement,
    NecklaceWord,
    Path,
    Quiver,
    concat,
    double,
    karoubi_dim,
    kontsevich_bracket,
    necklaces_of_length,
    omega_basis,
    paths_between,
    paths_of_length,
    project_to_necklaces,
)

from conftest import random_form, random_necklace, random_path_sum, random_quiver

MAX_LENGTH = 4


def view_quivers(count: int = 24, seed: int = 2411) -> list:
    """Random quivers on 1-3 vertices with 1-3 arrows, every other one doubled."""
    rng = random.Random(seed)
    quivers = []
    for index in range(count):
        q = random_quiver(rng, max_vertices=3, max_arrows=3)
        while not q.arrows:
            q = random_quiver(rng, max_vertices=3, max_arrows=3)
        quivers.append(double(q) if index % 2 else q)
    return quivers


QUIVERS = view_quivers()
INDICES = range(len(QUIVERS))


def rebuilt(view):
    """What the checking constructor builds from the labels of a view."""
    if isinstance(view, FormBasisElement):
        return FormBasisElement(rebuilt(view.lead), tuple(map(rebuilt, view.tails)))
    return type(view)(view.quiver, view.arrows, view.vertex)


def assert_valid(view) -> None:
    twin = rebuilt(view)
    assert view == twin and twin == view
    assert hash(view) == hash(twin)
    assert str(view) == str(twin)
    # views are slotted: every field is set, and nothing else is stored
    assert not hasattr(view, "__dict__")
    assert [getattr(view, name) for name in view.__slots__] == [
        getattr(twin, name) for name in twin.__slots__
    ]
    for path in (view.lead, *view.tails) if isinstance(view, FormBasisElement) else (view,):
        assert type(path.arrows) is tuple
        assert all(type(label) is str for label in path.arrows)


@pytest.mark.parametrize("index", INDICES)
def test_enumerated_views_are_what_the_constructors_build(index):
    q = QUIVERS[index]
    for length in range(MAX_LENGTH + 1):
        paths = paths_of_length(q, length)
        for view in paths + necklaces_of_length(q, length):
            assert_valid(view)
        for source in q.vertices:
            for target in q.vertices:
                between = paths_between(q, source, target, length)
                ends = (source, target)
                assert between == tuple(p for p in paths if (p.source, p.target) == ends)
                for view in between:
                    assert_valid(view)
        for word in necklaces_of_length(q, length):
            assert_valid(word.representative())
        for degree in range(length + 1):
            for view in omega_basis(q, degree, length) + karoubi_dim(q, degree, length)[1]:
                assert_valid(view)


@pytest.mark.parametrize("index", INDICES)
def test_products_decode_to_what_the_constructors_build(index):
    q, rng = QUIVERS[index], random.Random(index)
    for _ in range(6):
        x, y = random_path_sum(rng, q), random_path_sum(rng, q)
        product = x * y
        for view, _ in product.terms():
            assert_valid(view)
        for view, _ in project_to_necklaces(product + y * x).terms():
            assert_valid(view)
        for (p, _), (r, _) in zip(x.terms(), y.terms()):
            joined = concat(p, r)
            if joined is not None:
                assert_valid(joined)
        f, g = random_form(rng, q), random_form(rng, q)
        for view, _ in (f * g + g * f).terms():
            assert_valid(view)


@pytest.mark.parametrize("index", INDICES[1::2])
def test_brackets_decode_to_what_the_constructors_build(index):
    dq, rng = QUIVERS[index], random.Random(index)
    for _ in range(4):
        w1, w2 = random_necklace(rng, dq, max_len=4), random_necklace(rng, dq, max_len=4)
        bracket = kontsevich_bracket(w1, w2)
        for view, _ in bracket.terms():
            assert_valid(view)
            assert isinstance(view, NecklaceWord)


def test_form_basis_elements_from_outside_are_checked():
    """FormBasisElement validates its paths when built from outside (the
    refusals of Path and NecklaceWord are in test_paths)."""
    q = Quiver(2, (Arrow("a", 1, 2), Arrow("b", 2, 1)))
    a = Path.of_arrow(q, "a")
    with pytest.raises(ValueError, match="^differential slots need paths of length >= 1$"):
        FormBasisElement(a, (Path.trivial(q, 1),))
    with pytest.raises(ValueError, match="^entries 0 and 1 do not match up: source 1 vs target 2$"):
        FormBasisElement(a, (a,))


def test_dropped_results_are_released():
    """On the Calogero double, omega_basis of every piece up to (3, 6) and
    paths_of_length up to 8 build 4 MB of views at their peak; once they are
    dropped, almost nothing stays allocated.  The collection empties the
    interpreter's free lists of tuples, which hold blocks of the words
    built but are not the library's."""
    tracemalloc.start()
    try:
        dq = double(Quiver(2, (Arrow("a", 1, 2), Arrow("b", 2, 2))))
        for length in range(7):
            for degree in range(min(3, length) + 1):
                omega_basis(dq, degree, length)
        for length in range(9):
            paths_of_length(dq, length)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < 1_000_000
