"""The code-keyed necklace kernel against the dataclass route and the glue rule.

Every bracket, hamiltonian field, derivation application and commutator is
compared term for term, coefficient types included, with the label-by-label
route of tests/oracles.py on seeded random necklace triples: sums of several
words with int and Fraction coefficients, vertex classes among them, over
the doubles of the five quiver shapes of the benchmark's ``lie`` workload
and of random small quivers.  Brackets of sums are also compared with the
independent glue rule, extended bilinearly.  The same comparisons run on
sums of words at the lie workload's sizes: closed walks of length up to 8
and powers w^2, w^3 of shorter words, whose openings coincide.
"""
import gc
import random
import weakref
from fractions import Fraction

import pytest

from necklacekit import (
    Arrow,
    Derivation,
    NecklaceSum,
    NecklaceWord,
    Path,
    PathSum,
    Quiver,
    derivation_commutator,
    double,
    euler_derivation,
    hamiltonian_derivation,
    kontsevich_bracket,
    partial_derivative,
    zero_derivation,
)
from necklacekit.paths import _encoding

from conftest import random_necklace, random_path_sum, random_quiver
from oracles import (
    apply_derivation_by_labels,
    bracket_by_dataclasses,
    commutator_images_by_labels,
    glue_bracket,
    hamiltonian_images_by_dataclasses,
)

# (vertex count, arrows) of the benchmark's lie shapes: Calogero, one loop,
# the cyclic A1 quiver, Kronecker and two loops
SHAPES = {
    "calogero": (2, (("a", 1, 2), ("b", 2, 2))),
    "one_loop": (1, (("x", 1, 1),)),
    "a1_tilde": (2, (("a", 1, 2), ("b", 2, 1))),
    "kronecker": (2, (("a", 1, 2), ("b", 1, 2))),
    "two_loops": (1, (("x", 1, 1), ("y", 1, 1))),
}
RANDOM_DOUBLES = 6
TRIPLES = 12
LONG_TRIPLES = 4


def _doubles():
    for name, (k, arrows) in SHAPES.items():
        yield name, double(Quiver(k, tuple(Arrow(*a) for a in arrows)))
    rng = random.Random(7001)
    made = 0
    while made < RANDOM_DOUBLES:
        q = random_quiver(rng, max_vertices=3, max_arrows=3)
        if q.arrows:
            yield f"random{made}", double(q)
            made += 1


DOUBLES = list(_doubles())


def _coefficient(rng: random.Random):
    if rng.random() < 0.5:
        return rng.choice((-3, -2, -1, 1, 2, 3))
    return Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.choice((2, 3, 4)))


def _random_sum(rng: random.Random, dq) -> NecklaceSum:
    """One to three words, a vertex class among them one time in four."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.25:
            word = NecklaceWord.vertex_class(dq, rng.choice(dq.vertices))
        else:
            word = random_necklace(rng, dq, max_len=5)
        terms.append((word, _coefficient(rng)))
    return NecklaceSum(terms)


def _typed(terms) -> dict:
    return {key: (coeff, type(coeff)) for key, coeff in dict(terms).items()}


def _images(theta) -> dict:
    return {label: _typed(image.terms()) for label, image in theta.images.items()}


def _glue_bilinear(s1: NecklaceSum, s2: NecklaceSum) -> NecklaceSum:
    total = NecklaceSum.zero()
    for w1, c1 in s1.terms():
        for w2, c2 in s2.terms():
            total = total + c1 * c2 * glue_bracket(w1, w2)
    return total


def _closed_walk(rng: random.Random, dq, length: int) -> NecklaceWord | None:
    """The necklace of a random closed walk of a length, or None when 200
    random walks find none (a bipartite double has no odd cycle)."""
    leaving = {v: [arr for arr in dq.arrows if arr.source == v] for v in dq.vertices}
    starts = [v for v in dq.vertices if leaving[v]]
    for _ in range(200):
        start = vertex = rng.choice(starts)
        labels = []
        for _ in range(length):
            arr = rng.choice(leaving[vertex])
            labels.append(arr.label)
            vertex = arr.target
        if vertex == start:
            return NecklaceWord(dq, tuple(labels))
    return None


def _long_sum(rng: random.Random, dq) -> NecklaceSum:
    """One or two words at the lie workload's sizes: a closed walk of length
    5 to 8, or a power w^2 or w^3 of a word w of length 1 to 4, whose
    openings at the copies of one letter coincide."""
    terms = []
    for _ in range(rng.randint(1, 2)):
        word = None
        if rng.random() < 0.5:
            word = _closed_walk(rng, dq, rng.randint(5, 8))
        if word is None:
            base = random_necklace(rng, dq, max_len=4)
            word = NecklaceWord(dq, base.arrows * rng.choice((2, 3)))
        terms.append((word, _coefficient(rng)))
    return NecklaceSum(terms)


def _check_triple(rng: random.Random, dq, u, v, w) -> None:
    for s1, s2 in ((u, v), (v, w), (w, u)):
        bracket = kontsevich_bracket(s1, s2)
        assert _typed(bracket.terms()) == _typed(bracket_by_dataclasses(s1, s2))
        assert bracket == _glue_bilinear(s1, s2)
    inner = kontsevich_bracket(v, w)
    assert _typed(kontsevich_bracket(u, inner).terms()) == _typed(
        bracket_by_dataclasses(u, inner)
    )
    field_u, field_v = hamiltonian_derivation(u, dq), hamiltonian_derivation(v, dq)
    assert _images(field_u) == {
        label: _typed(image)
        for label, image in hamiltonian_images_by_dataclasses(u, dq).items()
    }
    commutator = derivation_commutator(field_u, field_v)
    assert _images(commutator) == {
        label: _typed(image)
        for label, image in commutator_images_by_labels(field_u, field_v).items()
    }
    for x in (random_path_sum(rng, dq, max_len=4), next(iter(w.terms()))[0].representative()):
        assert _typed(field_u(x).terms()) == _typed(apply_derivation_by_labels(field_u, x))


@pytest.mark.parametrize("name,dq", DOUBLES, ids=[name for name, _ in DOUBLES])
def test_kernel_matches_the_dataclass_route(name, dq):
    """Short sums, then LONG_TRIPLES triples of words of length up to 8 and
    powers of words, as the lie workload brackets them."""
    rng = random.Random(f"lie-kernel-{name}")
    for _ in range(TRIPLES):
        _check_triple(rng, dq, *(_random_sum(rng, dq) for _ in range(3)))
    for _ in range(LONG_TRIPLES):
        _check_triple(rng, dq, *(_long_sum(rng, dq) for _ in range(3)))


def test_sums_over_two_quivers_are_refused():
    q1 = double(Quiver(1, (Arrow("x", 1, 1),)))
    q2 = double(Quiver(1, (Arrow("x", 1, 1), Arrow("y", 1, 1))))
    w1, w2 = NecklaceWord(q1, ("x",)), NecklaceWord(q2, ("x",))
    with pytest.raises(ValueError, match="different quivers"):
        NecklaceSum([(w1, 1), (w2, 1)])
    with pytest.raises(ValueError, match="different quivers"):
        NecklaceSum.of(w1) + NecklaceSum.of(w2)
    p1, p2 = Path.of_arrow(q1, "x"), Path.of_arrow(q2, "x")
    with pytest.raises(ValueError, match="different quivers"):
        PathSum([(p1, 1), (p2, 2)])
    with pytest.raises(ValueError, match="different quivers"):
        PathSum.of(p1) * PathSum.of(p2)
    with pytest.raises(ValueError, match="different quivers"):
        kontsevich_bracket(w1, w2)
    # equal quivers built twice are one quiver
    again = double(Quiver(1, (Arrow("x", 1, 1),)))
    assert PathSum.of(p1) + PathSum.of(Path.of_arrow(again, "x")) == 2 * PathSum.of(p1)
    assert PathSum.of(p1).coefficient(p2) == 0


def test_arguments_of_the_wrong_type_are_refused():
    """Brackets, fields and partials take necklace words and sums,
    derivations apply to paths and path sums, and commutators take
    derivations; anything else is refused at entry by type."""
    dq = double(Quiver(1, (Arrow("x", 1, 1),)))
    u = NecklaceWord(dq, ("x", "x*"))
    field = hamiltonian_derivation(u)
    path = Path.of_arrow(dq, "x")
    necklace = "^expected a NecklaceWord or a NecklaceSum, got "
    for call, got in (
        (lambda: kontsevich_bracket(u, 3), "int"),
        (lambda: kontsevich_bracket(3, u), "int"),
        (lambda: kontsevich_bracket(u, path), "Path"),
        (lambda: hamiltonian_derivation(PathSum.of(path)), "PathSum"),
        (lambda: partial_derivative(path, "x"), "Path"),
    ):
        with pytest.raises(TypeError, match=f"{necklace}{got}$"):
            call()
    for x, got in ((u, "NecklaceWord"), (NecklaceSum.of(u), "NecklaceSum"), (2, "int")):
        with pytest.raises(TypeError, match=f"^a derivation applies to a Path or a PathSum, got {got}$"):
            field(x)
    for call in (lambda: derivation_commutator(field, 5), lambda: derivation_commutator(5, field)):
        with pytest.raises(TypeError, match="^expected a Derivation, got int$"):
            call()
    # what each accepts still answers
    assert kontsevich_bracket(u, NecklaceSum.of(u)).is_zero()
    assert field(path) == field(PathSum.of(path))
    assert derivation_commutator(field, field).is_zero()


def test_derivations_refuse_paths_of_another_quiver():
    dq = double(Quiver(2, (Arrow("a", 1, 2),)))
    other = double(Quiver(2, (Arrow("b", 1, 2), Arrow("x", 1, 1))))
    euler = euler_derivation(dq)
    # a label the derivation does not know (a KeyError before)
    with pytest.raises(ValueError, match="paths live over different quivers"):
        euler(Path(other, ("b",)))
    # the image is zero, or the path is trivial (0 was returned before)
    with pytest.raises(ValueError, match="paths live over different quivers"):
        zero_derivation(dq)(Path(other, ("b",)))
    with pytest.raises(ValueError, match="paths live over different quivers"):
        euler(Path.trivial(other, 1))
    with pytest.raises(ValueError, match="paths live over different quivers"):
        euler(PathSum.of(Path.trivial(other, 2)))
    assert euler(PathSum.zero()).is_zero()


def test_the_public_derivation_constructor_keeps_every_check():
    """Derivations built from checked ones skip the endpoint check; the
    public constructor refuses each kind of bad input with its message."""
    dq = double(Quiver(2, (Arrow("a", 1, 2), Arrow("b", 2, 2))))
    other = double(Quiver(2, (Arrow("a", 1, 2),)))
    a, b = PathSum.of(Path.of_arrow(dq, "a")), PathSum.of(Path.of_arrow(dq, "b"))
    refusals = [
        (Quiver(1, (Arrow("x", 1, 1),)), {}, "derivations are defined over a double quiver"),
        (dq, {"a": PathSum.of(Path.of_arrow(other, "a"))},
         "derivation image lives over a different quiver"),
        (dq, {"a": b}, "image of 'a' must run 1->2, got a path 2->2"),
        (dq, {"a*": a}, "image of 'a\\*' must run 2->1, got a path 1->2"),
        (dq, {"zz": a, "yy": b}, "unknown arrow labels in derivation: \\['yy', 'zz'\\]"),
    ]
    for quiver, images, message in refusals:
        with pytest.raises(ValueError, match=f"^{message}$"):
            Derivation(quiver, images)
    u = NecklaceWord(dq, ("a", "b", "a*"))
    v = NecklaceWord(dq, ("b", "b*", "b"))
    built = [
        hamiltonian_derivation(u),
        derivation_commutator(hamiltonian_derivation(u), hamiltonian_derivation(v)),
        euler_derivation(dq) + hamiltonian_derivation(v),
        -hamiltonian_derivation(v),
        Fraction(3, 2) * hamiltonian_derivation(u),
    ]
    for theta in built:
        checked = Derivation(dq, theta.images)
        assert checked == theta
        assert list(theta.images) == list(checked.images) == [arr.label for arr in dq.arrows]
        assert theta._coded == checked._coded


def test_sums_have_a_repr():
    q = Quiver(1, (Arrow("a", 1, 1), Arrow("b", 1, 1)))
    ab, ba = Path(q, ("a", "b")), Path(q, ("b", "a"))
    assert repr(PathSum.of(ab) - PathSum.of(ba)) == "PathSum(a b - b a)"
    loop = double(Quiver(1, (Arrow("x", 1, 1),)))
    assert repr(NecklaceSum.of(NecklaceWord(loop, ("x*", "x")))) == "NecklaceSum([x x*])"
    assert repr(PathSum.zero()) == "PathSum(0)"
    assert repr(NecklaceSum.of(NecklaceWord.vertex_class(loop, 1), Fraction(-1, 2))) == (
        "NecklaceSum(-1/2 [e1])"
    )


def test_a_dropped_quiver_and_its_encoding_are_collected():
    """The kernel keeps no module-level cache keyed by quiver."""

    def bracket_on_a_throwaway_quiver():
        dq = double(Quiver(2, (Arrow("a", 1, 2), Arrow("b", 2, 2))))
        u = NecklaceWord(dq, ("a", "b", "a*"))
        v = NecklaceWord(dq, ("b", "b*"))
        w = NecklaceWord(dq, ("a*", "a"))
        nested = kontsevich_bracket(u, kontsevich_bracket(v, w))
        commutator = derivation_commutator(hamiltonian_derivation(u), hamiltonian_derivation(v))
        assert str(nested) and repr(commutator)
        return weakref.ref(dq), weakref.ref(_encoding(dq))

    refs = bracket_on_a_throwaway_quiver()
    gc.collect()
    assert [ref() for ref in refs] == [None, None]
