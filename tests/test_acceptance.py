"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
print; stated runtime budgets are asserted, not just reported.
"""
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from necklacekit import (
    Arrow,
    NecklaceWord,
    Quiver,
    classify_root,
    coadjoint_verdict,
    contract,
    derivation_commutator,
    differential,
    double,
    dr0_dimension,
    enumerate_positive_roots,
    euler_form,
    graded_homology_dim,
    hamiltonian_derivation,
    karoubi_dim,
    kontsevich_bracket,
    lie_derivative,
    minimal_in_sigma,
    num_parameters,
    parameter_sum,
    rank_report,
    rep_types,
    sigma_membership,
    slice_smooth_check,
    solve,
    support_connected,
    tits_form,
    two_alpha_nonsmooth,
)

from conftest import random_derivation, random_form, random_necklace
from oracles import (
    box_vectors,
    count_necklaces_by_rotation,
    glue_bracket,
    lie_derivative_by_generators,
    roots_by_orbit_closure,
)

CALOGERO = Quiver(2, (Arrow("a", 1, 2), Arrow("b", 2, 2)))
CALOGERO_D = double(CALOGERO)
A1 = Quiver(2, (Arrow("a", 1, 2), Arrow("b", 2, 1)))
A1_D = double(A1)
LOOP = Quiver(1, (Arrow("x", 1, 1),))
LOOP_D = double(LOOP)

LAM_21 = (Fraction(-2), Fraction(1))
LAM_31 = (Fraction(-3), Fraction(1))
LAM_11 = (Fraction(-1), Fraction(1))
LAM_0 = (Fraction(0), Fraction(0))


@contextmanager
def criterion(number: int, description: str, budget: float | None = None):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        if budget is not None and elapsed > budget:
            raise AssertionError(
                f"criterion {number} took {elapsed:.3f}s, budget {budget}s"
            )
    except BaseException:
        print(f"[FAIL] criterion {number:02d}: {description}")
        raise
    print(f"[PASS] criterion {number:02d}: {description} ({elapsed:.3f}s)")


def test_criterion_01_euler_tits_matrices():
    euler_form(CALOGERO)  # warm-up
    with criterion(1, "Euler/Tits matrices of the two-vertex loop quiver"):
        best = min(
            _timed(lambda: (euler_form(CALOGERO), tits_form(CALOGERO))) for _ in range(3)
        )
        assert euler_form(CALOGERO) == ((1, -1), (0, 0))
        assert tits_form(CALOGERO) == ((2, -1), (-1, 0))
        assert best < 1e-3, f"matrix computation took {best * 1e3:.3f} ms"


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_criterion_02_root_enumeration_box():
    with criterion(2, "root enumeration in box (4,8) with independent oracle", 1.0):
        found = enumerate_positive_roots(CALOGERO, (4, 8))
        reals = [vec for vec, verdict in found if verdict.kind == "real"]
        assert reals == [(1, 0)]
        for vec, _ in found:
            assert support_connected(CALOGERO, vec)
        oracle = roots_by_orbit_closure(CALOGERO, (4, 8))
        mine = {vec: verdict.kind for vec, verdict in found}
        assert mine == oracle
        checked = sum(1 for _ in box_vectors((4, 8)))
        assert checked == 44  # every nonzero point of the 5 x 9 box


def test_criterion_03_sigma_reproduction():
    with criterion(3, "strict members for (-2,1) in box (3,6)", 1.0):
        members = [
            vec for vec in box_vectors((3, 6)) if sigma_membership(CALOGERO, vec, LAM_21).in_sigma
        ]
        assert members == [(1, 2), (2, 4), (3, 6)]
        assert minimal_in_sigma(CALOGERO, (1, 2), LAM_21) == (True, None)
        assert coadjoint_verdict(CALOGERO, (1, 2), LAM_21).coadjoint
        for vec in ((2, 4), (3, 6)):
            verdict = coadjoint_verdict(CALOGERO, vec, LAM_21)
            assert not verdict.coadjoint
            assert verdict.minimal_witness is not None
    with criterion(3, "strict members for (-3,1) in box (2,6)", 1.0):
        members = [
            vec for vec in box_vectors((2, 6)) if sigma_membership(CALOGERO, vec, LAM_31).in_sigma
        ]
        assert members == [(1, 3), (2, 6)]


def test_criterion_04_dimension_formulas():
    with criterion(4, "fiber and quotient dimensions at ((1,2), (-2,1))"):
        verdict = coadjoint_verdict(CALOGERO, (1, 2), LAM_21)
        assert verdict.dim_fiber == 8
        assert verdict.dim_quotient == 4


def test_criterion_05_lie_algebra_property_suite():
    with criterion(5, "antisymmetry (300) and Jacobi (150), lengths <= 5", 30.0):
        rng = random.Random(500)
        for dq in (CALOGERO_D, LOOP_D):
            for _ in range(150):
                w1 = random_necklace(rng, dq, max_len=5)
                w2 = random_necklace(rng, dq, max_len=5)
                assert (kontsevich_bracket(w1, w2) + kontsevich_bracket(w2, w1)).is_zero()
            for _ in range(75):
                w1 = random_necklace(rng, dq, max_len=5)
                w2 = random_necklace(rng, dq, max_len=5)
                w3 = random_necklace(rng, dq, max_len=5)
                cyclic = (
                    kontsevich_bracket(w1, kontsevich_bracket(w2, w3))
                    + kontsevich_bracket(w2, kontsevich_bracket(w3, w1))
                    + kontsevich_bracket(w3, kontsevich_bracket(w1, w2))
                )
                assert cyclic.is_zero()
            for vertex in dq.vertices:
                v_class = NecklaceWord.vertex_class(dq, vertex)
                for _ in range(10):
                    w = random_necklace(rng, dq, max_len=5)
                    assert kontsevich_bracket(v_class, w).is_zero()
                    assert kontsevich_bracket(w, v_class).is_zero()


def test_criterion_06_central_extension():
    with criterion(6, "hamiltonian fields intertwine bracket and commutator (150)", 30.0):
        rng = random.Random(600)
        for dq in (CALOGERO_D, LOOP_D):
            for _ in range(75):
                w1 = random_necklace(rng, dq, max_len=5)
                w2 = random_necklace(rng, dq, max_len=5)
                lhs = derivation_commutator(
                    hamiltonian_derivation(w1), hamiltonian_derivation(w2)
                )
                assert lhs == hamiltonian_derivation(kontsevich_bracket(w1, w2), dq)


def test_criterion_07_cartan_calculus():
    with criterion(7, "Cartan homotopy and operator identities (200 samples)", 60.0):
        rng = random.Random(700)
        for _ in range(200):
            dq = CALOGERO_D if rng.random() < 0.7 else LOOP_D
            theta = random_derivation(rng, dq, max_len=2)
            gamma = random_derivation(rng, dq, max_len=2)
            x = random_form(rng, dq, max_degree=3, max_length=4, max_terms=1)
            assert lie_derivative(theta, x) == contract(theta, differential(x)) + differential(
                contract(theta, x)
            )
            assert lie_derivative(theta, x) == lie_derivative_by_generators(theta, x)
            bracket = derivation_commutator(theta, gamma)
            assert contract(bracket, x) == lie_derivative(theta, contract(gamma, x)) - contract(
                gamma, lie_derivative(theta, x)
            )
            assert lie_derivative(bracket, x) == lie_derivative(
                theta, lie_derivative(gamma, x)
            ) - lie_derivative(gamma, lie_derivative(theta, x))


def test_criterion_08_acyclicity_desk_scale():
    with criterion(8, "graded acyclicity and necklace dimension counts", 120.0):
        for dq in (CALOGERO_D, A1_D):
            assert graded_homology_dim(dq, 0, 0) == 2
            for degree in range(1, 4):
                for length in range(1, 5):
                    assert graded_homology_dim(dq, degree, length) == 0
        for dq in (CALOGERO_D, A1_D, LOOP_D):
            for length in range(0, 5):
                dim, _ = karoubi_dim(dq, 0, length)
                assert dim == dr0_dimension(dq, length)
                assert dim == count_necklaces_by_rotation(dq, length)
        dim_loop, _ = karoubi_dim(LOOP_D, 0, 2)
        assert dim_loop == 3


def test_criterion_09_bracket_ground_truth():
    with criterion(9, "bracket of the squared loops equals 4 [x x*] both ways"):
        w1 = NecklaceWord(LOOP_D, ("x", "x"))
        w2 = NecklaceWord(LOOP_D, ("x*", "x*"))
        from necklacekit import NecklaceSum

        expected = 4 * NecklaceSum.of(NecklaceWord(LOOP_D, ("x", "x*")))
        assert kontsevich_bracket(w1, w2) == expected
        assert glue_bracket(w1, w2) == expected


def test_criterion_10_smoothness_verdicts():
    with criterion(10, "slice numbers and the multiplicity-one smoothness law"):
        types = rep_types(A1, (1, 1), LAM_0)
        assert types == [((1, (1, 1)),), ((1, (1, 0)), (1, (0, 1)))]
        check = slice_smooth_check(A1, ((1, (1, 1)),), (1, 1), LAM_0)
        assert (check.lhs, check.rhs, check.smooth) == (3, 3, True)
        check = slice_smooth_check(A1, ((1, (1, 0)), (1, (0, 1))), (1, 1), LAM_0)
        assert (check.lhs, check.rhs, check.smooth) == (4, 3, False)
        for q, box in ((CALOGERO, (2, 4)), (A1, (2, 2))):
            for alpha in box_vectors(box):
                for rep_type in rep_types(q, alpha, LAM_0):
                    check = slice_smooth_check(q, rep_type, alpha, LAM_0)
                    assert check.smooth == (sum(m * m for m, _ in rep_type) == 1)


def test_criterion_11_two_alpha_numbers():
    with criterion(11, "doubled-simple slice counts 32 vs 29"):
        check = two_alpha_nonsmooth(CALOGERO, (1, 2), LAM_21)
        assert check.applies
        assert (check.lhs, check.rhs) == (32, 29)
        assert check.lhs - check.rhs == 3
        assert check.smooth is False
        assert sigma_membership(CALOGERO, (2, 4), LAM_21).in_sigma


def test_criterion_12_numerical_cross_check():
    with criterion(12, "moment solves: ranks and fiber dimensions", 60.0):
        for q, alpha, lam, rank, fiber in (
            (CALOGERO, (1, 2), LAM_21, 4, 8),
            (A1, (1, 1), LAM_11, 1, 3),
        ):
            converged = 0
            for seed in range(10):
                result = solve(q, alpha, lam, seed, tol=1e-10, max_iter=200)
                if not result.converged:
                    continue
                converged += 1
                assert result.residual_norm <= 1e-10
                report = rank_report(q, alpha, lam, result.point)
                assert report.jacobian_rank == rank
                assert report.fiber_dim_estimate == fiber
            assert converged >= 8


def test_criterion_13_definitional_membership_not_half_planes():
    with criterion(13, "membership by definition, with replayable witnesses"):
        # boundary vectors where the defining inequalities and the half-plane
        # pictures disagree: verdicts follow the inequalities
        bad = sigma_membership(CALOGERO, (0, 2), LAM_0)
        assert (bad.in_s, bad.in_sigma) == (False, False)
        edge = sigma_membership(CALOGERO, (1, 2), LAM_0)
        assert (edge.in_s, edge.in_sigma) == (True, False)
        assert sigma_membership(CALOGERO, (1, 0), LAM_0).in_sigma

        for alpha in box_vectors((3, 6)):
            m = sigma_membership(CALOGERO, alpha, LAM_0)
            for witness, strict in ((m.witness_s, False), (m.witness_sigma, True)):
                if witness is None:
                    continue
                # replay: parts are hyperplane roots below alpha summing to it
                total = [0, 0]
                count = 0
                for beta, mult in witness:
                    assert classify_root(CALOGERO, beta).is_root
                    count += mult
                    for i, x in enumerate(beta):
                        total[i] += mult * x
                assert tuple(total) == alpha and count >= 2
                lhs = num_parameters(CALOGERO, alpha)
                rhs = parameter_sum(CALOGERO, witness)
                assert (lhs <= rhs) if strict else (lhs < rhs)
            # verdicts are reproducible when recomputed
            again = sigma_membership(CALOGERO, alpha, LAM_0)
            assert (again.in_s, again.in_sigma) == (m.in_s, m.in_sigma)
