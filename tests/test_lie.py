import random

import pytest

from necklacekit import (
    Arrow,
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
    moment_element,
    project_to_necklaces,
    zero_derivation,
)

from conftest import random_necklace
from oracles import glue_bracket


def test_bracket_ground_truth(one_loop_double):
    w1 = NecklaceWord(one_loop_double, ("x", "x"))
    w2 = NecklaceWord(one_loop_double, ("x*", "x*"))
    expected = 4 * NecklaceSum.of(NecklaceWord(one_loop_double, ("x", "x*")))
    assert kontsevich_bracket(w1, w2) == expected
    assert glue_bracket(w1, w2) == expected


def test_bracket_matches_glue_oracle(one_loop_double, calogero_double):
    rng = random.Random(30)
    for dq in (one_loop_double, calogero_double):
        for _ in range(100):
            w1 = random_necklace(rng, dq, max_len=5)
            w2 = random_necklace(rng, dq, max_len=5)
            assert kontsevich_bracket(w1, w2) == glue_bracket(w1, w2)


def test_bracket_self_and_vertex_classes(calogero_double):
    rng = random.Random(31)
    for _ in range(20):
        w = random_necklace(rng, calogero_double, max_len=5)
        assert kontsevich_bracket(w, w).is_zero()
    for vertex in (1, 2):
        v_class = NecklaceWord.vertex_class(calogero_double, vertex)
        for _ in range(10):
            w = random_necklace(rng, calogero_double, max_len=5)
            assert kontsevich_bracket(v_class, w).is_zero()
            assert kontsevich_bracket(w, v_class).is_zero()


def test_bracket_antisymmetry(one_loop_double, calogero_double):
    rng = random.Random(32)
    for dq in (one_loop_double, calogero_double):
        for _ in range(100):
            w1 = random_necklace(rng, dq, max_len=5)
            w2 = random_necklace(rng, dq, max_len=5)
            total = kontsevich_bracket(w1, w2) + kontsevich_bracket(w2, w1)
            assert total.is_zero()


def test_bracket_jacobi(one_loop_double, calogero_double):
    rng = random.Random(33)
    for dq in (one_loop_double, calogero_double):
        for _ in range(50):
            w1 = random_necklace(rng, dq, max_len=4)
            w2 = random_necklace(rng, dq, max_len=4)
            w3 = random_necklace(rng, dq, max_len=4)
            total = (
                kontsevich_bracket(w1, kontsevich_bracket(w2, w3))
                + kontsevich_bracket(w2, kontsevich_bracket(w3, w1))
                + kontsevich_bracket(w3, kontsevich_bracket(w1, w2))
            )
            assert total.is_zero()


def test_hamiltonian_derivation_examples(one_loop_double, calogero_double):
    w_xx = NecklaceWord(one_loop_double, ("x", "x"))
    theta = hamiltonian_derivation(w_xx)
    assert theta.of_arrow("x").is_zero()
    assert theta.of_arrow("x*") == 2 * PathSum.of(Path.of_arrow(one_loop_double, "x"))

    w_aas = NecklaceWord(calogero_double, ("a", "a*"))
    theta2 = hamiltonian_derivation(w_aas)
    assert theta2.of_arrow("a") == -1 * PathSum.of(Path.of_arrow(calogero_double, "a"))
    assert theta2.of_arrow("a*") == PathSum.of(Path.of_arrow(calogero_double, "a*"))
    assert theta2.of_arrow("b").is_zero()
    assert theta2.of_arrow("b*").is_zero()

    v_class = NecklaceWord.vertex_class(calogero_double, 1)
    assert hamiltonian_derivation(v_class, calogero_double).is_zero()


def test_derivation_commutator_examples(one_loop_double):
    theta1 = hamiltonian_derivation(NecklaceWord(one_loop_double, ("x", "x")))
    theta2 = hamiltonian_derivation(NecklaceWord(one_loop_double, ("x*", "x*")))
    commutator = derivation_commutator(theta1, theta2)
    x = PathSum.of(Path.of_arrow(one_loop_double, "x"))
    xstar = PathSum.of(Path.of_arrow(one_loop_double, "x*"))
    assert commutator.of_arrow("x") == -4 * x
    assert commutator.of_arrow("x*") == 4 * xstar
    assert derivation_commutator(theta1, theta1).is_zero()
    assert derivation_commutator(theta1, zero_derivation(one_loop_double)).is_zero()


def test_central_extension_on_generators(one_loop_double, calogero_double):
    rng = random.Random(34)
    for dq in (one_loop_double, calogero_double):
        for _ in range(75):
            w1 = random_necklace(rng, dq, max_len=5)
            w2 = random_necklace(rng, dq, max_len=5)
            lhs = derivation_commutator(
                hamiltonian_derivation(w1), hamiltonian_derivation(w2)
            )
            rhs = hamiltonian_derivation(kontsevich_bracket(w1, w2), dq)
            assert lhs == rhs


def test_vertex_classes_are_central_kernel(calogero_double):
    # vertex classes have zero hamiltonian derivation and bracket to zero
    for vertex in (1, 2):
        v_class = NecklaceWord.vertex_class(calogero_double, vertex)
        assert hamiltonian_derivation(v_class, calogero_double).is_zero()


def test_moment_compatibility(one_loop_double, calogero_double):
    rng = random.Random(35)
    for dq in (one_loop_double, calogero_double):
        m = moment_element(dq)
        m_class = project_to_necklaces(m)
        for _ in range(25):
            w = random_necklace(rng, dq, max_len=5)
            theta = hamiltonian_derivation(w)
            assert project_to_necklaces(theta(m)) == kontsevich_bracket(w, m_class)


def test_bracket_is_lie_derivative_along_hamiltonian_field(calogero_double):
    rng = random.Random(36)
    for _ in range(50):
        w1 = random_necklace(rng, calogero_double, max_len=5)
        w2 = random_necklace(rng, calogero_double, max_len=5)
        theta = hamiltonian_derivation(w1)
        assert kontsevich_bracket(w1, w2) == project_to_necklaces(
            theta(w2.representative())
        )


def test_the_bracket_and_derivations_need_one_double_quiver(one_loop_double):
    loop = Quiver(1, (Arrow("x", 1, 1),))
    x = NecklaceWord(loop, ("x",))
    other = double(Quiver(1, (Arrow("y", 1, 1),)))
    assert kontsevich_bracket(NecklaceSum.zero(), NecklaceSum.zero()).is_zero()
    with pytest.raises(ValueError, match="^the necklace bracket is defined over a double quiver$"):
        kontsevich_bracket(x, x)
    with pytest.raises(ValueError, match="^cannot infer the quiver; pass it explicitly$"):
        hamiltonian_derivation(NecklaceSum.zero())
    with pytest.raises(ValueError, match="^hamiltonian derivations live over a double quiver$"):
        hamiltonian_derivation(x)
    with pytest.raises(ValueError, match="^necklaces live over a different quiver$"):
        hamiltonian_derivation(NecklaceWord(one_loop_double, ("x", "x*")), other)
    with pytest.raises(ValueError, match="^derivations live over different quivers$"):
        derivation_commutator(euler_derivation(one_loop_double), euler_derivation(other))
