import itertools
import random
from fractions import Fraction

import pytest

from necklacekit import (
    Arrow,
    Derivation,
    FormBasisElement,
    FormSum,
    NecklaceSum,
    NecklaceWord,
    Path,
    PathSum,
    Quiver,
    canonical_necklace,
    compose,
    concat,
    double,
    dr0_dimension,
    euler_derivation,
    kontsevich_bracket,
    moment_element,
    necklaces_of_length,
    partial_derivative,
    paths_between,
    paths_of_length,
    project_to_necklaces,
    unit,
)

from conftest import random_derivation, random_path, random_path_sum, random_quiver
from oracles import apply_derivation_by_products


def test_compose_with_idempotents(calogero_double):
    a = Path.of_arrow(calogero_double, "a")
    e1 = Path.trivial(calogero_double, 1)
    assert compose(a, e1) == PathSum.of(a)
    assert compose(e1, a).is_zero()


def test_compose_concatenation(calogero_double):
    a = Path.of_arrow(calogero_double, "a")
    b = Path.of_arrow(calogero_double, "b")
    assert compose(b, a) == PathSum.of(Path(calogero_double, ("a", "b")))
    assert compose(a, b).is_zero()


def test_invalid_path_rejected(calogero_double):
    with pytest.raises(ValueError):
        Path(calogero_double, ("b", "a"))  # b ends at 2, a starts at 1


def test_associativity_random(calogero_double):
    rng = random.Random(7)
    for _ in range(500):
        p = PathSum.of(random_path(rng, calogero_double))
        q = PathSum.of(random_path(rng, calogero_double))
        r = PathSum.of(random_path(rng, calogero_double))
        assert (p * q) * r == p * (q * r)


def test_unit_acts_two_sided(calogero_double):
    rng = random.Random(8)
    one = unit(calogero_double)
    for _ in range(100):
        x = random_path_sum(rng, calogero_double)
        assert one * x == x
        assert x * one == x


def test_canonical_necklace_rotations(calogero_double):
    cycle = Path(calogero_double, ("a", "b", "a*"))
    word = canonical_necklace(cycle)
    assert word.arrows == ("a", "b", "a*")
    for shift in range(1, 3):
        labels = cycle.arrows[shift:] + cycle.arrows[:shift]
        assert canonical_necklace(Path(calogero_double, labels)) == word


def test_canonical_necklace_trivial_and_errors(calogero_double):
    assert canonical_necklace(Path.trivial(calogero_double, 2)) == NecklaceWord.vertex_class(
        calogero_double, 2
    )
    with pytest.raises(ValueError):
        canonical_necklace(Path.of_arrow(calogero_double, "a"))


def test_project_examples(calogero_double):
    a = Path.of_arrow(calogero_double, "a")
    astar = Path.of_arrow(calogero_double, "a*")
    assert project_to_necklaces(PathSum.of(a)).is_zero()
    commutator = compose(a, astar) - compose(astar, a)
    assert project_to_necklaces(commutator).is_zero()
    bb = Path(calogero_double, ("b", "b"))
    projected = project_to_necklaces(3 * PathSum.of(bb))
    assert projected == 3 * NecklaceSum.of(NecklaceWord(calogero_double, ("b", "b")))


def test_project_kills_commutators_random(calogero_double):
    rng = random.Random(9)
    for _ in range(200):
        x = random_path_sum(rng, calogero_double)
        y = random_path_sum(rng, calogero_double)
        assert project_to_necklaces(x * y - y * x).is_zero()


def test_partial_derivative_examples(one_loop_double, calogero_double):
    w_xx = NecklaceWord(one_loop_double, ("x", "x"))
    x = Path.of_arrow(one_loop_double, "x")
    assert partial_derivative(w_xx, "x") == 2 * PathSum.of(x)
    w_aas = NecklaceWord(calogero_double, ("a", "a*"))
    assert partial_derivative(w_aas, "a") == PathSum.of(Path.of_arrow(calogero_double, "a*"))
    assert partial_derivative(w_aas, "b").is_zero()


def test_partial_derivative_brute_force(calogero_double):
    # re-derive by explicitly cutting the cycle at each position
    rng = random.Random(10)
    from conftest import random_necklace

    for _ in range(100):
        w = random_necklace(rng, calogero_double, max_len=5)
        for label in ("a", "a*", "b", "b*"):
            arr = calogero_double.arrow(label)
            expected = PathSum.zero()
            for j, lab in enumerate(w.arrows):
                if lab != label:
                    continue
                rest = w.arrows[j + 1 :] + w.arrows[:j]
                piece = (
                    Path(calogero_double, rest)
                    if rest
                    else Path.trivial(calogero_double, arr.target)
                )
                expected = expected + PathSum.of(piece)
            assert partial_derivative(w, label) == expected


def test_partial_derivative_endpoints(calogero_double):
    w = NecklaceWord(calogero_double, ("a", "b", "a*"))
    for label in ("a", "a*", "b"):
        arr = calogero_double.arrow(label)
        for path, _ in partial_derivative(w, label).terms():
            assert path.source == arr.target
            assert path.target == arr.source


def test_partial_derivative_vertex_class_and_unknown(calogero_double):
    w = NecklaceWord.vertex_class(calogero_double, 1)
    assert partial_derivative(w, "a").is_zero()
    assert partial_derivative(NecklaceSum.zero(), "a").is_zero()
    with pytest.raises(Exception):
        partial_derivative(w, "zz")


def test_derivation_validation_and_linearity(calogero_double):
    from necklacekit import Derivation, euler_derivation

    a_path = Path.of_arrow(calogero_double, "a")
    with pytest.raises(ValueError, match="must run 1->2"):
        Derivation(calogero_double, {"a": PathSum.of(Path.of_arrow(calogero_double, "b"))})
    with pytest.raises(ValueError, match="unknown arrow"):
        Derivation(calogero_double, {"zz": PathSum.of(a_path)})
    euler = euler_derivation(calogero_double)
    doubled = euler + euler
    assert doubled.of_arrow("a") == 2 * PathSum.of(a_path)
    assert (euler - euler).is_zero()
    other = euler_derivation(double(Quiver(1, (Arrow("x", 1, 1),))))
    with pytest.raises(ValueError, match="^derivations live over different quivers$"):
        euler + other
    # Leibniz on a product path: apply to a two-arrow path by hand
    ab = Path(calogero_double, ("a", "b"))
    assert euler(ab) == 2 * PathSum.of(ab)


def test_derivation_matches_the_product_route_on_random_quivers():
    """Arrow-by-arrow substitution against suffix . theta(a) . prefix, with
    loops that may also map to their vertex."""
    rng = random.Random(40)
    checked = 0
    while checked < 240:
        dq = double(random_quiver(rng, max_vertices=3, max_arrows=3))
        if not dq.arrows:
            continue
        images = dict(random_derivation(rng, dq, max_len=2).images)
        for arr in dq.arrows:
            if arr.source == arr.target and rng.random() < 0.5:
                images[arr.label] = images[arr.label] + PathSum.of(Path.trivial(dq, arr.source))
        theta = Derivation(dq, images)
        for _ in range(8):
            x = random_path_sum(rng, dq, max_len=4)
            assert theta(x) == apply_derivation_by_products(theta, x)
            checked += 1
    other = double(Quiver(1, (Arrow("x", 1, 1),)))
    theta = euler_derivation(double(Quiver(2, (Arrow("x", 1, 1),))))
    with pytest.raises(ValueError, match="different quivers"):
        theta(Path.of_arrow(other, "x"))


def test_paths_and_necklaces_of_length_match_brute_force():
    """The shared integer enumeration against every label sequence, in label
    order, and necklaces against the least rotations of the closed ones."""
    rng = random.Random(41)
    for _ in range(30):
        q = random_quiver(rng, max_vertices=3, max_arrows=4)
        arrows = {a.label: a for a in q.arrows}
        labels = sorted(arrows)
        assert paths_of_length(q, 0) == tuple(Path.trivial(q, v) for v in q.vertices)
        for length in range(1, 5):
            sequences = [
                seq
                for seq in itertools.product(labels, repeat=length)
                if all(arrows[u].target == arrows[v].source for u, v in zip(seq, seq[1:]))
            ]
            assert [p.arrows for p in paths_of_length(q, length)] == sequences
            closed = {
                min(seq[i:] + seq[:i] for i in range(length))
                for seq in sequences
                if arrows[seq[-1]].target == arrows[seq[0]].source
            }
            assert [w.arrows for w in necklaces_of_length(q, length)] == sorted(closed)
    for count, length in ((paths_of_length, -1), (necklaces_of_length, -1), (dr0_dimension, -2)):
        with pytest.raises(ValueError, match="length must be nonnegative"):
            count(q, length)


def test_moment_element(calogero, calogero_double, one_loop):
    m = moment_element(calogero)
    a = Path.of_arrow(calogero_double, "a")
    astar = Path.of_arrow(calogero_double, "a*")
    b = Path.of_arrow(calogero_double, "b")
    bstar = Path.of_arrow(calogero_double, "b*")
    expected = (
        compose(a, astar)
        - compose(astar, a)
        + compose(b, bstar)
        - compose(bstar, b)
    )
    assert m == expected
    assert len(m) == 4

    from necklacekit import Quiver

    assert moment_element(Quiver(1, ())).is_zero()
    m_loop = moment_element(one_loop)
    assert len(m_loop) == 2


def test_coefficients_are_exact(calogero_double):
    a = Path.of_arrow(calogero_double, "a")
    half = PathSum.of(a, 0.5)
    assert half.coefficient(a) == Fraction(1, 2)
    assert type(half.coefficient(a)) is Fraction
    word = NecklaceWord(calogero_double, ("b",))
    third = NecklaceSum([(word, "1/3")])
    assert third.coefficient(word) == Fraction(1, 3)
    assert type(third.coefficient(word)) is Fraction
    elt = FormBasisElement(a, ())
    quarter = FormSum.of(elt, 0.25)
    assert quarter.coefficient(elt) == Fraction(1, 4)
    assert type(quarter.coefficient(elt)) is Fraction
    assert (2 * half).coefficient(a) == 1


def test_int_and_fraction_coefficients_agree(calogero_double):
    a = Path.of_arrow(calogero_double, "a")
    assert PathSum.of(a, Fraction(2)) == PathSum.of(a, 2)
    assert hash(PathSum.of(a, Fraction(2))) == hash(PathSum.of(a, 2))
    assert PathSum.of(a, Fraction(1, 2)) + PathSum.of(a, Fraction(1, 2)) == PathSum.of(a)


def test_integer_products_stay_int(calogero_double):
    a = Path.of_arrow(calogero_double, "a")
    b = Path.of_arrow(calogero_double, "b")
    product = PathSum.of(b, 3) * PathSum.of(a, 2)
    assert all(type(c) is int for _, c in product.terms())
    assert product.coefficient(Path(calogero_double, ("a", "b"))) == 6
    forms = FormSum.of(FormBasisElement(b, ()), -2) * FormSum.of(FormBasisElement(a, ()), 5)
    assert [type(c) for _, c in forms.terms()] == [int]
    bracket = kontsevich_bracket(
        NecklaceWord(calogero_double, ("b", "b")), NecklaceWord(calogero_double, ("b*", "b*"))
    )
    assert [(str(w), c) for w, c in bracket.terms()] == [("[b b*]", 4)]
    assert all(type(c) is int for _, c in bracket.terms())


def test_path_and_necklace_messages(calogero_double):
    with pytest.raises(ValueError, match="'b' ends at vertex 2 but 'a' starts at vertex 1"):
        Path(calogero_double, ("b", "a"))
    with pytest.raises(ValueError, match=r"vertex 3 out of range 1\.\.2"):
        Path.trivial(calogero_double, 3)
    with pytest.raises(ValueError, match=r"vertex 3 out of range 1\.\.2"):
        NecklaceWord.vertex_class(calogero_double, 3)
    with pytest.raises(ValueError, match="not closed: starts at vertex 1, ends at vertex 2"):
        NecklaceWord(calogero_double, ("a",))
    with pytest.raises(ValueError, match="not closed: starts at vertex 1, ends at vertex 2"):
        canonical_necklace(Path.of_arrow(calogero_double, "a"))
    for source, target, bad in ((99, 1, 99), (0, -3, 0), (1, 3, 3)):
        with pytest.raises(ValueError, match=rf"^vertex {bad} out of range 1\.\.2$"):
            paths_between(calogero_double, source, target, 1)
    with pytest.raises(ValueError, match="^a path has either arrows or a vertex, not both$"):
        Path(calogero_double, ("a",), 1)
    with pytest.raises(ValueError, match="^a trivial path needs a vertex$"):
        Path(calogero_double, ())
    other = double(Quiver(2, (Arrow("a", 1, 2),)))
    with pytest.raises(ValueError, match="^paths live over different quivers$"):
        concat(Path.of_arrow(calogero_double, "a"), Path.trivial(other, 1))
