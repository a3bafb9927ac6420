import random
from math import comb

import pytest

from necklacekit import (
    Arrow,
    Derivation,
    FormBasisElement,
    FormSum,
    NecklaceWord,
    Path,
    PathSum,
    Quiver,
    contract,
    d_of_path_sum,
    differential,
    double,
    dr0_dimension,
    euler_derivation,
    form_of,
    form_unit,
    graded_homology_dim,
    in_commutator_span,
    is_symplectic,
    karoubi_count,
    karoubi_dim,
    karoubi_homology_dim,
    lie_derivative,
    necklace_differential,
    omega_basis,
    partial_derivative,
    paths_of_length,
    reduce_to_dr1,
    symplectic_form,
    tau,
    zero_derivation,
)

from conftest import (
    random_derivation,
    random_form,
    random_fraction,
    random_necklace,
    random_path_sum,
    random_quiver,
)
from oracles import (
    contract_by_products,
    count_necklaces_by_rotation,
    lie_derivative_by_generators,
    reduce_to_dr1_by_recursion,
)
from test_forms_kernel import BASES


def _d_arrow(dq, label):
    return d_of_path_sum(PathSum.of(Path.of_arrow(dq, label)))


def test_differential_examples(calogero_double):
    a = Path.of_arrow(calogero_double, "a")
    da = d_of_path_sum(PathSum.of(a))
    assert da == FormSum.of(FormBasisElement(Path.trivial(calogero_double, 2), (a,)))
    assert d_of_path_sum(PathSum.of(Path.trivial(calogero_double, 1))).is_zero()


def test_differential_squares_to_zero(calogero_double):
    rng = random.Random(20)
    for _ in range(100):
        x = random_form(rng, calogero_double)
        assert differential(differential(x)).is_zero()


def test_multiply_unit_and_degree_zero(calogero_double):
    rng = random.Random(21)
    one = form_unit(calogero_double)
    for _ in range(50):
        x = random_form(rng, calogero_double)
        assert x * one == x
        assert one * x == x
        p = random_path_sum(rng, calogero_double)
        q = random_path_sum(rng, calogero_double)
        assert form_of(p) * form_of(q) == form_of(p * q)


def test_multiply_da_times_astar_frozen(calogero_double):
    # (da) . a* = d(a a*) - a d(a*) expanded in the tuple basis
    a = Path.of_arrow(calogero_double, "a")
    astar = Path.of_arrow(calogero_double, "a*")
    product = _d_arrow(calogero_double, "a") * form_of(PathSum.of(astar))
    cycle_at_2 = Path(calogero_double, ("a*", "a"))
    expected = FormSum.of(
        FormBasisElement(Path.trivial(calogero_double, 2), (cycle_at_2,))
    ) - FormSum.of(FormBasisElement(a, (astar,)))
    assert product == expected


def test_multiply_associative_random(calogero_double):
    rng = random.Random(22)
    for _ in range(200):
        x = random_form(rng, calogero_double, max_degree=2, max_length=3)
        y = random_form(rng, calogero_double, max_degree=2, max_length=3)
        z = random_form(rng, calogero_double, max_degree=2, max_length=3)
        assert (x * y) * z == x * (y * z)


def test_differential_is_graded_leibniz(calogero_double):
    rng = random.Random(23)
    for _ in range(200):
        x = random_form(rng, calogero_double, max_degree=2, max_length=3, max_terms=1)
        y = random_form(rng, calogero_double, max_degree=2, max_length=3, max_terms=1)
        degrees = x.degrees()
        if len(degrees) != 1:
            continue
        sign = -1 if degrees.pop() % 2 else 1
        assert differential(x * y) == differential(x) * y + sign * (x * differential(y))


def test_contract_generator_rules(calogero_double):
    rng = random.Random(24)
    theta = random_derivation(rng, calogero_double)
    for label in ("a", "a*", "b", "b*"):
        assert contract(theta, _d_arrow(calogero_double, label)) == form_of(
            theta.of_arrow(label)
        )
    x = random_path_sum(rng, calogero_double)
    assert contract(theta, form_of(x)).is_zero()


def test_contract_euler_on_symplectic_form(calogero, calogero_double):
    omega = symplectic_form(calogero)
    contraction = contract(euler_derivation(calogero_double), omega)
    expected = FormSum.zero()
    for label in ("a", "b"):
        arrow_path = Path.of_arrow(calogero_double, label)
        star_path = Path.of_arrow(calogero_double, label + "*")
        expected = expected + 2 * (
            form_of(PathSum.of(star_path)) * _d_arrow(calogero_double, label)
        )
        cycle = Path(calogero_double, (label, label + "*"))
        expected = expected - d_of_path_sum(PathSum.of(cycle))
    assert contraction == expected
    reduced = reduce_to_dr1(contraction)
    expected_reduced = FormSum.zero()
    for label in ("a", "b"):
        arrow_path = Path.of_arrow(calogero_double, label)
        star_path = Path.of_arrow(calogero_double, label + "*")
        expected_reduced = expected_reduced + FormSum.of(
            FormBasisElement(star_path, (arrow_path,))
        )
        expected_reduced = expected_reduced - FormSum.of(
            FormBasisElement(arrow_path, (star_path,))
        )
    assert reduced == expected_reduced


@pytest.mark.parametrize(
    "dq",
    [None] + [double(q) for q in BASES],
    ids=["calogero"] + [f"double{i}" for i in range(len(BASES))],
)
def test_lie_derivative_euler_grades_by_length(dq, calogero_double):
    """L_E x = L x on forms of length L, the homotopy that makes both
    homology tables the Poincare lemma's constants."""
    dq = calogero_double if dq is None else dq
    rng = random.Random(25)
    euler = euler_derivation(dq)
    for _ in range(100):
        x = random_form(rng, dq, max_terms=1)
        (elt, coeff), = list(x.terms())
        assert lie_derivative(euler, x) == elt.total_length * x
    e_form = form_of(PathSum.of(Path.trivial(dq, 1)))
    assert lie_derivative(euler, e_form).is_zero()


def test_cartan_homotopy_and_operator_identities(calogero_double):
    rng = random.Random(26)
    from necklacekit import derivation_commutator

    for _ in range(200):
        theta = random_derivation(rng, calogero_double, max_len=2)
        gamma = random_derivation(rng, calogero_double, max_len=2)
        x = random_form(rng, calogero_double, max_degree=3, max_length=4, max_terms=1)
        assert lie_derivative(theta, x) == contract(theta, differential(x)) + differential(
            contract(theta, x)
        )
        assert lie_derivative(theta, x) == lie_derivative_by_generators(theta, x)
        bracket = derivation_commutator(theta, gamma)
        lhs = lie_derivative(theta, contract(gamma, x)) - contract(
            gamma, lie_derivative(theta, x)
        )
        assert lhs == contract(bracket, x)
        lhs2 = lie_derivative(theta, lie_derivative(gamma, x)) - lie_derivative(
            gamma, lie_derivative(theta, x)
        )
        assert lhs2 == lie_derivative(bracket, x)


def _small_random_double(rng: random.Random):
    return double(random_quiver(rng, max_vertices=3, max_arrows=3))


def test_lie_derivative_matches_the_generator_expansion_on_random_quivers():
    """Cartan's formula against the Leibniz expansion on e_i, a and da."""
    rng = random.Random(30)
    checked = 0
    while checked < 240:
        dq = _small_random_double(rng)
        if not dq.arrows:
            continue
        theta = random_derivation(rng, dq, max_len=2)
        for _ in range(8):
            x = random_form(rng, dq, max_degree=3, max_length=3)
            assert lie_derivative(theta, x) == lie_derivative_by_generators(theta, x)
            checked += 1


def test_contract_matches_the_product_route_on_random_quivers():
    """i_theta term by term against FormSum products, with loops whose image
    has a vertex term, so r of length 0 is covered."""
    rng = random.Random(33)
    checked = 0
    while checked < 240:
        dq = _small_random_double(rng)
        if not dq.arrows:
            continue
        images = dict(random_derivation(rng, dq, max_len=2).images)
        for arr in dq.arrows:
            if arr.source == arr.target and rng.random() < 0.5:
                vertex = PathSum.of(Path.trivial(dq, arr.source))
                images[arr.label] = images[arr.label] + random_fraction(rng) * vertex
        theta = Derivation(dq, images)
        for _ in range(8):
            x = random_form(rng, dq, max_degree=3, max_length=3)
            assert contract(theta, x) == contract_by_products(theta, x)
            checked += 1


def test_reduce_to_dr1_matches_the_recursion_on_random_quivers():
    """The closed form against the rewriting q d(rp) = pq dr + qr dp, on
    random 1-forms with open and closed terms, cancellations included."""
    rng = random.Random(31)
    checked = 0
    while checked < 240:
        q = random_quiver(rng, max_vertices=3, max_arrows=4)
        pools = [omega_basis(q, 1, length) for length in range(1, 5)]
        pools = [pool for pool in pools if pool]
        if not pools:
            continue
        for _ in range(8):
            x = FormSum.zero()
            for _ in range(rng.randint(1, 4)):
                x = x + random_fraction(rng) * FormSum.of(rng.choice(rng.choice(pools)))
            assert reduce_to_dr1(x) == reduce_to_dr1_by_recursion(x)
            checked += 1
    with pytest.raises(ValueError, match="homogeneous 1-form"):
        reduce_to_dr1(form_unit(q))


def test_symplectic_form_is_the_sum_of_products(calogero, a1_tilde, one_loop):
    rng = random.Random(32)
    quivers = [calogero, a1_tilde, one_loop] + [random_quiver(rng) for _ in range(20)]
    for q in quivers:
        dq = double(q)
        expected = FormSum.zero()
        for arr in dq.base_arrows:
            expected = expected + _d_arrow(dq, dq.star(arr.label)) * _d_arrow(dq, arr.label)
        assert symplectic_form(q) == expected


def test_graded_homology(calogero_double, a1_tilde_double):
    for dq in (calogero_double, a1_tilde_double):
        assert graded_homology_dim(dq, 0, 0) == 2
        for length in range(1, 5):
            assert graded_homology_dim(dq, 0, length) == 0
        for degree in range(1, 4):
            for length in range(1, 5):
                assert graded_homology_dim(dq, degree, length) == 0


# the largest pieces whose quotient representatives these tests list
PIECE_FILTER = 100_000


def _piece_size(q, degree: int, length: int) -> int:
    return comb(length, degree) * len(paths_of_length(q, length))


def _doubles_with_a_small_4_8_piece(seed: int, count: int) -> list:
    """The first doubles of seeded random quivers whose (4, 8) piece is
    small enough for karoubi_dim and has closed paths, so that it is nonzero
    in the quotient: a closed path with its last four letters marked has no
    rotational symmetry, so its orbit is nonzero."""
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        dq = _small_random_double(rng)
        closed = any(p.source == p.target for p in paths_of_length(dq, 8))
        if closed and _piece_size(dq, 4, 8) <= PIECE_FILTER:
            found.append(dq)
    return found


@pytest.mark.parametrize(
    "dq",
    [None] + _doubles_with_a_small_4_8_piece(19, 2),
    ids=["calogero", "random0", "random1"],
)
def test_graded_calls_answer_at_any_degree_and_length(dq, calogero_double):
    """The graded functions answer at every degree and length; karoubi_dim
    answers within the work budget on every piece of at most PIECE_FILTER
    elements, and on the Calogero double's (4, 8) piece of 137,900."""
    dq = calogero_double if dq is None else dq
    for degree in range(6):
        for length in range(10):
            if _piece_size(dq, degree, length) <= PIECE_FILTER:
                dim, reps = karoubi_dim(dq, degree, length)
                assert karoubi_count(dq, degree, length) == dim == len(reps)
    assert graded_homology_dim(dq, 5, 1) == 0
    # a supercommutator of two (2, 4) forms lies in the (4, 8) piece
    rng = random.Random(34)
    pool = omega_basis(dq, 2, 4)
    commutator = FormSum.zero()
    while commutator.is_zero():
        x, y = (FormSum.of(rng.choice(pool), random_fraction(rng)) for _ in range(2))
        commutator = x * y - y * x
    assert set(commutator.components()) == {(4, 8)}
    assert in_commutator_span(commutator, dq)
    dim, reps = karoubi_dim(dq, 4, 8)
    assert dim == len(reps) == karoubi_count(dq, 4, 8) > 0
    if dq is calogero_double:
        assert dim == 10120
    for rep in reps:
        assert not in_commutator_span(FormSum.of(rep), dq)
        assert not in_commutator_span(FormSum.of(rep) + commutator, dq)


def test_karoubi_degree_zero_counts_necklaces(one_loop_double, calogero_double):
    dim, reps = karoubi_dim(one_loop_double, 0, 2)
    assert dim == 3
    for dq in (one_loop_double, calogero_double):
        for length in range(0, 5):
            dim, reps = karoubi_dim(dq, 0, length)
            assert dim == dr0_dimension(dq, length)
            assert dim == count_necklaces_by_rotation(dq, length)
            assert len(reps) == dim


def test_karoubi_dr1_piece_calogero(calogero_double):
    dim, reps = karoubi_dim(calogero_double, 1, 1)
    assert dim == 2
    tails = sorted(r.tails[0].arrows[0] for r in reps)
    assert tails == ["b", "b*"]


def test_karoubi_complex_acyclic(calogero_double, a1_tilde_double):
    for dq in (calogero_double, a1_tilde_double):
        for degree in range(1, 4):
            for length in range(1, 5):
                assert karoubi_homology_dim(dq, degree, length) == 0


def test_karoubi_degree_zero_homology_is_vertex_algebra(calogero_double):
    assert karoubi_homology_dim(calogero_double, 0, 0) == 2
    for length in range(1, 5):
        assert karoubi_homology_dim(calogero_double, 0, length) == 0


def test_symplectic_form_shape(calogero, calogero_double, one_loop):
    omega = symplectic_form(calogero)
    assert set(omega.degrees()) == {2}
    assert len(omega) == 2
    a = Path.of_arrow(calogero_double, "a")
    astar = Path.of_arrow(calogero_double, "a*")
    assert omega.coefficient(
        FormBasisElement(Path.trivial(calogero_double, 1), (astar, a))
    ) == 1
    from necklacekit import Quiver

    assert symplectic_form(Quiver(1, ())).is_zero()
    omega_loop = symplectic_form(one_loop)
    assert len(omega_loop) == 1


def test_tau_equals_necklace_differential(one_loop_double, calogero_double):
    from necklacekit import hamiltonian_derivation

    w = NecklaceWord(one_loop_double, ("x", "x"))
    x_path = Path.of_arrow(one_loop_double, "x")
    expected = 2 * FormSum.of(FormBasisElement(x_path, (x_path,)))
    assert tau(hamiltonian_derivation(w)) == expected
    assert necklace_differential(w) == expected

    rng = random.Random(27)
    for dq in (one_loop_double, calogero_double):
        for _ in range(25):
            word = random_necklace(rng, dq, max_len=4)
            assert tau(hamiltonian_derivation(word)) == necklace_differential(word)
    assert tau(zero_derivation(calogero_double)).is_zero()
    assert necklace_differential(NecklaceWord.vertex_class(calogero_double, 2)).is_zero()


def test_hamiltonian_derivations_are_symplectic(one_loop_double, calogero_double):
    from necklacekit import hamiltonian_derivation

    rng = random.Random(28)
    for dq in (one_loop_double, calogero_double):
        for _ in range(10):
            word = random_necklace(rng, dq, max_len=4)
            assert is_symplectic(hamiltonian_derivation(word))


def test_differential_matches_partials_in_dr1(calogero_double, one_loop_double):
    rng = random.Random(29)
    for dq in (calogero_double, one_loop_double):
        for _ in range(25):
            w = random_necklace(rng, dq, max_len=4)
            expected = FormSum.zero()
            for arr in dq.arrows:
                partial = partial_derivative(w, arr.label)
                arrow_path = Path.of_arrow(dq, arr.label)
                for path, coeff in partial.terms():
                    expected = expected + coeff * FormSum.of(
                        FormBasisElement(path, (arrow_path,))
                    )
            assert necklace_differential(w) == expected


def test_reduction_independent_of_rotation(calogero_double):
    cycle = Path(calogero_double, ("a", "b", "a*"))
    reductions = []
    for shift in range(3):
        labels = cycle.arrows[shift:] + cycle.arrows[:shift]
        rotated = Path(calogero_double, labels)
        reductions.append(reduce_to_dr1(d_of_path_sum(PathSum.of(rotated))))
    assert reductions[0] == reductions[1] == reductions[2]


def test_omega_basis_dimensions(calogero_double):
    # paths of length l cut at chosen points: dim = #paths x #compositions
    path_counts = {l: len(omega_basis(calogero_double, 0, l)) for l in range(5)}
    assert path_counts == {0: 2, 1: 4, 2: 10, 3: 24, 4: 58}
    assert len(omega_basis(calogero_double, 1, 1)) == 4
    assert len(omega_basis(calogero_double, 2, 4)) == 6 * 58
    assert len(omega_basis(calogero_double, 3, 3)) == 24


def _cycle_form(dq, vertex):
    """e_v d(a* a) over the double of one arrow a, the cycle a* a at v."""
    return FormSum.of(FormBasisElement(Path.trivial(dq, vertex), (Path(dq, ("a*", "a")),)))


def test_forms_over_two_quivers_are_refused():
    # the cycle a* a lies at vertex 1 in q1 and at vertex 2 in q2
    q1 = double(Quiver(2, (Arrow("a", 2, 1),)))
    q2 = double(Quiver(2, (Arrow("a", 1, 2),)))
    x1, x2 = _cycle_form(q1, 1), _cycle_form(q2, 2)
    degree_zero = form_of(PathSum.of(Path(q2, ("a*", "a"))))
    theta = euler_derivation(q1)
    with pytest.raises(ValueError, match="different quivers"):
        x1 + x2
    with pytest.raises(ValueError, match="different quivers"):
        FormSum((FormBasisElement(Path.trivial(q, 1), ()), 1) for q in (q1, q2))
    # e2 da is a basis element over q2, whose arrow a runs 1 -> 2
    with pytest.raises(ValueError, match="different quivers"):
        FormBasisElement(Path.trivial(q1, 2), (Path.of_arrow(q2, "a"),))
    with pytest.raises(ValueError, match="different quivers"):
        x1 * x2
    with pytest.raises(ValueError, match="different quivers"):
        contract(theta, degree_zero)
    with pytest.raises(ValueError, match="different quivers"):
        contract(theta, x2)
    with pytest.raises(ValueError, match="different quivers"):
        lie_derivative(theta, degree_zero)
    with pytest.raises(ValueError, match="different quivers"):
        in_commutator_span(x2, q1)
    # the same forms over one quiver are accepted
    assert len(x1 + _cycle_form(q1, 1)) == 1
    assert in_commutator_span(x1 - x1, q2)
    assert contract(theta, x1) == form_of(PathSum.of(Path(q1, ("a*", "a")))) * 2
