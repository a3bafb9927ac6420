import math
import random
from fractions import Fraction

import numpy as np
import pytest

from necklacekit import (
    Arrow,
    Quiver,
    double,
    moment_eval,
    numerics,
    random_rep,
    rank_report,
    rep_dimension,
    solve,
)
from necklacekit.quiver import double_of
from oracles import normal_equation_step
from test_numerics_jacobian import CALOGERO, D4_STAR, random_case

LAM_21 = (Fraction(-2), Fraction(1))
LAM_11 = (Fraction(-1), Fraction(1))
LAM_0 = (Fraction(0), Fraction(0))


def test_moment_eval_zero_and_scalars(calogero, one_loop):
    point = {label: np.zeros_like(m) for label, m in random_rep(calogero, (1, 2), 0).items()}
    blocks = moment_eval(calogero, (1, 2), point)
    assert all(np.allclose(b, 0) for b in blocks)

    point = {"x": np.array([[2.0 + 0j]]), "x*": np.array([[3.0 + 0j]])}
    blocks = moment_eval(one_loop, (1,), point)
    assert np.allclose(blocks[0], 0)


def test_moment_eval_traceless(calogero):
    for seed in range(100):
        point = random_rep(calogero, (2, 3), seed)
        blocks = moment_eval(calogero, (2, 3), point)
        assert abs(sum(np.trace(b) for b in blocks)) <= 1e-12


def test_moment_eval_shape_mismatch(calogero):
    point = random_rep(calogero, (1, 2), 0)
    point["a"] = np.zeros((3, 3), dtype=complex)
    with pytest.raises(ValueError):
        moment_eval(calogero, (1, 2), point)


def test_solve_rejects_trace_obstruction(calogero):
    with pytest.raises(ValueError):
        solve(calogero, (1, 2), (Fraction(1), Fraction(1)), seed=0)


def test_solve_trivial_support(calogero):
    result = solve(calogero, (1, 0), LAM_0, seed=0)
    assert result.converged and result.residual_norm == 0.0
    report = rank_report(calogero, (1, 0), LAM_0, result.point)
    assert report.jacobian_rank == 0
    assert report.fiber_dim_estimate == 0
    assert report.cut_gap is None
    # no arrows, so nothing can move: all damping trials of the first
    # iteration fail, and the solve stops and reports, rather than raises
    result = solve(Quiver(2, ()), (1, 1), (Fraction(1), Fraction(-1)), seed=0)
    assert not result.converged and result.iterations == 1
    assert result.residual_norm == math.sqrt(2)


def test_rep_dimension(calogero, a1_tilde):
    assert rep_dimension(calogero, (1, 2)) == 12
    assert rep_dimension(a1_tilde, (1, 1)) == 4


def test_solve_calogero_ranks(calogero):
    converged = 0
    for seed in range(10):
        result = solve(calogero, (1, 2), LAM_21, seed)
        if not result.converged:
            continue
        converged += 1
        assert result.residual_norm <= 1e-10
        report = rank_report(calogero, (1, 2), LAM_21, result.point)
        assert report.jacobian_rank == 4
        assert report.fiber_dim_estimate == 8
        assert len(report.singular_values) > 4
    assert converged >= 8


def test_solve_a1_ranks(a1_tilde):
    converged = 0
    for seed in range(10):
        result = solve(a1_tilde, (1, 1), LAM_11, seed)
        if not result.converged:
            continue
        converged += 1
        report = rank_report(a1_tilde, (1, 1), LAM_11, result.point)
        assert report.jacobian_rank == 1
        assert report.fiber_dim_estimate == 3
    assert converged >= 8


def test_rank_report_rejects_unsolved(calogero):
    point = random_rep(calogero, (1, 2), 3)
    with pytest.raises(ValueError):
        rank_report(calogero, (1, 2), LAM_21, point)


@pytest.mark.parametrize("lam", [(0,), (0, 0, 5), ()], ids=["short", "long", "empty"])
def test_weights_of_the_wrong_length_are_refused(calogero, lam):
    zero = {label: np.zeros_like(m) for label, m in random_rep(calogero, (1, 2), 0).items()}
    assert rank_report(calogero, (1, 2), (0, 0), zero).jacobian_rank == 0
    message = f"^weight has length {len(lam)}, expected 2$"
    with pytest.raises(ValueError, match=message):
        rank_report(calogero, (1, 2), lam, zero)
    with pytest.raises(ValueError, match=message):
        solve(calogero, (1, 2), lam, seed=0)


def test_solver_deterministic_per_seed(calogero):
    first = solve(calogero, (1, 2), LAM_21, seed=4)
    second = solve(calogero, (1, 2), LAM_21, seed=4)
    assert first.residual_norm == second.residual_norm
    assert first.iterations == second.iterations
    for label, matrix in first.point.items():
        assert np.array_equal(matrix, second.point[label])


def test_oversized_alpha_is_refused_before_allocating(calogero):
    # a 200,000 x 480,000 Jacobian and a 200,000^2 Gram matrix
    with pytest.raises(ValueError, match="cap is 16777216 entries"):
        solve(calogero, (200, 400), LAM_21, seed=0)
    # refused before the point is even looked at
    with pytest.raises(ValueError, match="cap is 16777216 entries"):
        rank_report(calogero, (200, 400), LAM_21, {})


@pytest.mark.parametrize(
    "q, alpha, lam, entries",
    [
        # a 5 x 12 Jacobian, more rep_dim columns than rows: 60 entries, and
        # the Gram matrix solve forms is 5 x 5
        (Quiver(2, (Arrow("a", 1, 2), Arrow("b", 2, 2))), (1, 2), LAM_21, 60),
        # a 10 x 6 Jacobian, more rows than columns: 60 entries, Gram 6 x 6
        (Quiver(2, (Arrow("a", 1, 2),)), (1, 3), (Fraction(3), Fraction(-1)), 60),
    ],
)
def test_size_cap_is_inclusive(q, alpha, lam, entries, monkeypatch):
    monkeypatch.setattr(numerics, "MAX_DENSE_ENTRIES", entries)
    solve(q, alpha, lam, seed=0, max_iter=1)
    monkeypatch.setattr(numerics, "MAX_DENSE_ENTRIES", entries - 1)
    rows = sum(a * a for a in alpha)
    side = min(rows, entries // rows)
    message = f"{rows} x {entries // rows} Jacobian and a {side} x {side} Gram matrix; the cap"
    with pytest.raises(ValueError, match=message):
        solve(q, alpha, lam, seed=0, max_iter=1)
    with pytest.raises(ValueError, match=message):
        rank_report(q, alpha, lam, random_rep(q, alpha, 0))


ONE_ARROW = Quiver(2, (Arrow("a", 1, 2),))
# (quiver, alpha, Jacobian shape m x n)
STEP_SHAPES = [
    (CALOGERO, (2, 4), (20, 48)),
    (ONE_ARROW, (1, 3), (10, 6)),
    (ONE_ARROW, (2, 2), (8, 8)),
]
# the solver's first damping and two larger ones; far below 1e-3 both
# systems are ill-conditioned, and the column-space one drifts further from
# the SVD step, so agreement there says nothing about either
DAMPINGS = (1e-3, 1.0, 1e3)


def assert_step_matches_the_normal_equations(dq, alpha, point_seed) -> tuple[int, int]:
    plan = numerics._plan(dq, alpha)
    flat = numerics._pack(plan, random_rep(dq, alpha, point_seed))
    jac = numerics._jacobian(plan, flat)
    residual = numerics._residual(plan, flat, np.zeros(sum(alpha), dtype=complex))
    step = numerics._damped_steps(jac, residual)
    for damping in DAMPINGS:
        fast, slow = step(damping), normal_equation_step(jac, residual, damping)
        np.testing.assert_allclose(fast, slow, rtol=1e-8)
        if jac.shape[0] > jac.shape[1]:
            # the taller Jacobian keeps the normal equations, bit for bit
            assert fast.tobytes() == slow.tobytes()
    return jac.shape


@pytest.mark.parametrize("q, alpha, shape", STEP_SHAPES)
def test_damped_step_matches_the_normal_equations_on_each_shape(q, alpha, shape):
    for point_seed in range(5):
        assert assert_step_matches_the_normal_equations(double(q), alpha, point_seed) == shape


@pytest.mark.parametrize("seed", range(20))
def test_damped_step_matches_the_normal_equations_on_random_quivers(seed):
    rng = random.Random(9000 + seed)
    dq, alpha = random_case(rng)
    for point_seed in range(3):
        assert_step_matches_the_normal_equations(dq, alpha, rng.randrange(2**31) + point_seed)


def assert_kronecker_route_matches_the_jacobian(dq, alpha, point_seed) -> None:
    """The Kronecker Gram against J J^H and the J-free J^H y against the
    product with J, each within 1e-12 of its largest entry.  Where J J^H is
    exactly 0 (a loop at a vertex of dimension 1 is all the quiver has) the
    Kronecker terms still cancel only up to rounding of |x|^2, so the scale
    is at least that."""
    plan = numerics._plan(dq, alpha)
    flat = numerics._pack(plan, random_rep(dq, alpha, point_seed))
    jac = numerics._jacobian(plan, flat)
    gram = numerics._gram_of(plan)(flat)
    expected = jac @ jac.conj().T
    largest = max(np.abs(expected).max(initial=0), np.abs(flat).max(initial=0) ** 2)
    assert np.abs(gram - expected).max(initial=0) <= 1e-12 * largest
    rng = np.random.default_rng(point_seed)
    y = rng.standard_normal(plan.rows) + 1j * rng.standard_normal(plan.rows)
    adjoint = numerics._adjoint(plan, flat, y)
    expected = jac.conj().T @ y
    largest = max(
        np.abs(expected).max(initial=0), np.abs(flat).max(initial=0) * np.abs(y).max(initial=0)
    )
    assert np.abs(adjoint - expected).max(initial=0) <= 1e-12 * largest


@pytest.mark.parametrize("seed", range(40))
def test_kronecker_gram_and_adjoint_match_the_jacobian_on_random_quivers(seed):
    rng = random.Random(11000 + seed)
    dq, alpha = random_case(rng)
    for point_seed in range(3):
        assert_kronecker_route_matches_the_jacobian(dq, alpha, rng.randrange(2**31) + point_seed)


@pytest.mark.parametrize(
    "q, alpha",
    [(CALOGERO, (4, 8)), (CALOGERO, (5, 10)), (CALOGERO, (10, 20)), (D4_STAR, (4, 4, 4, 4, 8))],
)
def test_kronecker_gram_and_adjoint_match_the_jacobian_on_paper_cases(q, alpha):
    for point_seed in range(2):
        assert_kronecker_route_matches_the_jacobian(double(q), alpha, point_seed)


def solves_and_ranks(alpha, threshold, monkeypatch) -> list:
    monkeypatch.setattr(numerics, "KRONECKER_MIN_ROWS", threshold)
    results = []
    for seed in range(100):
        result = solve(CALOGERO, alpha, LAM_21, seed)
        report = rank_report(
            CALOGERO, alpha, LAM_21, result.point, residual_tol=max(1e-8, 2 * result.residual_norm)
        )
        results.append((result, report))
    return results


@pytest.mark.parametrize("alpha", [(4, 8), (5, 10)])
def test_both_routes_give_the_same_solves_and_ranks(alpha, monkeypatch):
    plan = numerics._plan(double_of(CALOGERO), alpha)
    rows = sum(a * a for a in alpha)
    dense = solves_and_ranks(alpha, rows + 1, monkeypatch)
    assert not numerics._uses_kronecker(plan)
    kronecker = solves_and_ranks(alpha, rows, monkeypatch)
    assert numerics._uses_kronecker(plan)
    for (d, d_rank), (k, k_rank) in zip(dense, kronecker):
        assert (d.converged, d.iterations) == (k.converged, k.iterations)
        assert (d_rank.jacobian_rank, d_rank.fiber_dim_estimate) == (
            k_rank.jacobian_rank, k_rank.fiber_dim_estimate
        )
        for label, matrix in d.point.items():
            assert np.abs(matrix - k.point[label]).max() <= 1e-12


def test_more_rows_than_columns_keep_the_normal_equations(monkeypatch):
    monkeypatch.setattr(numerics, "KRONECKER_MIN_ROWS", 1)
    assert not numerics._uses_kronecker(numerics._plan(double(ONE_ARROW), (1, 3)))
    assert numerics._uses_kronecker(numerics._plan(double(ONE_ARROW), (2, 2)))


@pytest.mark.parametrize("alpha", [(1, 2), (3, 6)])
def test_rank_cut_is_far_from_ambiguous_on_calogero(calogero, alpha):
    solved = 0
    for seed in range(3):
        result = solve(calogero, alpha, LAM_21, seed)
        if not result.converged:
            continue
        solved += 1
        report = rank_report(calogero, alpha, LAM_21, result.point)
        values = report.singular_values
        rank = report.jacobian_rank
        assert values[rank] == 0.0 and report.cut_gap == math.inf
        assert values[rank - 1] > 1e-3 * values[0]
    assert solved


@pytest.mark.parametrize("alpha", [(2, 4), (3, 6)])
@pytest.mark.parametrize("svd_tol", [1e-7, 1e-16])
def test_the_trace_direction_is_exactly_zero_below_the_gram_route(calogero, alpha, svd_tol):
    # below 80 rows the SVD answers; u's rounding is not a value even when
    # the cut lies below it
    rows = sum(a * a for a in alpha)
    for seed in range(3):
        result = solve(calogero, alpha, LAM_21, seed)
        assert result.converged
        report = rank_report(calogero, alpha, LAM_21, result.point, svd_tol=svd_tol)
        assert report.jacobian_rank == rows - 1
        assert report.fiber_dim_estimate == rep_dimension(calogero, alpha) - rows + 1
        assert report.singular_values[-1] == 0.0 and report.cut_gap == math.inf


def test_the_svd_route_reads_the_gram_routes_rank_at_80_rows():
    alpha = (4, 8)
    plan = numerics._plan(double_of(CALOGERO), alpha)
    flat = numerics._pack(plan, solve(CALOGERO, alpha, LAM_21, 0).point)
    svd = numerics._rank_of(numerics._jacobian(plan, flat), plan.columns, 1e-16)
    assert svd.jacobian_rank == plan.rows - 1 == 79
    assert svd.singular_values[-1] == 0.0


def test_both_rank_routes_drop_the_trace_direction_on_random_quivers(monkeypatch):
    monkeypatch.setattr(numerics, "KRONECKER_MIN_ROWS", 1)
    certified = {1e-7: 0, 1e-16: 0}
    for seed in range(40):
        rng = random.Random(13000 + seed)
        dq, alpha = random_case(rng)
        plan = numerics._plan(dq, alpha)
        if not 0 < plan.rows <= plan.columns:
            continue
        lam = (0,) * len(alpha)
        result = solve(dq, alpha, lam, seed, max_iter=30)
        flat = numerics._pack(plan, result.point)
        jac = numerics._jacobian(plan, flat)
        for svd_tol in certified:
            svd = numerics._rank_of(jac, plan.columns, svd_tol)
            assert svd.singular_values[-1] == 0.0
            if numerics._gram_rank(plan, flat, svd_tol) is None:
                continue
            certified[svd_tol] += 1
            report = rank_report(
                dq, alpha, lam, result.point, svd_tol=svd_tol,
                residual_tol=max(1e-8, 2 * result.residual_norm),
            )
            assert (report.jacobian_rank, report.fiber_dim_estimate) == (
                svd.jacobian_rank, svd.fiber_dim_estimate
            )
            assert report.singular_values[-1] == 0.0 and report.cut_gap == svd.cut_gap
    assert all(certified.values())


def test_rank_cut_gap_at_rank_zero_and_at_exact_zeros():
    q, alpha = ONE_ARROW, (1, 2)
    # at the origin every singular value is 0 and the rank is 0
    origin = {"a": np.zeros((2, 1), dtype=complex), "a*": np.zeros((1, 2), dtype=complex)}
    assert rank_report(q, alpha, LAM_0, origin).cut_gap is None
    # a solved point where the dropped values are exactly 0
    solved = {"a": np.array([[1], [0]], dtype=complex), "a*": np.zeros((1, 2), dtype=complex)}
    report = rank_report(q, alpha, LAM_0, solved)
    assert report.singular_values[2:] == [0.0, 0.0]
    assert report.jacobian_rank == 2 and report.cut_gap == math.inf


def rank_against_the_svd(q, alpha, lam, result, svd_tol=1e-7) -> str:
    """rank_report at a solve's point against the SVD of its Jacobian, and
    the route it took.  Where the Gram does not certify the rank the report
    is the SVD's; where it does, the rank and fiber dimension are the SVD's,
    the trace direction's value is exactly 0 and every squared value lies
    within the Gram route's Weyl bound, 4 m eps (lambda_max + ||x||^2), of
    the SVD's."""
    plan = numerics._plan(double_of(q), alpha)
    flat = numerics._pack(plan, result.point)
    report = rank_report(
        q, alpha, lam, result.point, svd_tol=svd_tol,
        residual_tol=max(1e-8, 2 * result.residual_norm),
    )
    svd = numerics._rank_of(numerics._jacobian(plan, flat), plan.columns, svd_tol)
    if not numerics._uses_kronecker(plan):
        assert report == svd
        return "dense"
    if numerics._gram_rank(plan, flat, svd_tol) is None:
        assert report == svd
        return "fallback"
    assert (report.jacobian_rank, report.fiber_dim_estimate) == (
        svd.jacobian_rank, svd.fiber_dim_estimate
    )
    assert report.jacobian_rank == plan.rows - 1
    assert report.singular_values[-1] == 0.0 and report.cut_gap == math.inf
    scale = report.singular_values[0] ** 2 + float(np.vdot(flat, flat).real)
    bound = 4 * plan.rows * np.finfo(float).eps * scale
    assert len(report.singular_values) == len(svd.singular_values)
    for gram, exact in zip(report.singular_values, svd.singular_values):
        assert abs(gram * gram - exact * exact) <= bound
    return "certified"


def test_gram_ranks_match_the_svd_on_random_quivers(monkeypatch):
    monkeypatch.setattr(numerics, "KRONECKER_MIN_ROWS", 1)
    routes = []
    for seed in range(40):
        rng = random.Random(13000 + seed)
        dq, alpha = random_case(rng)
        lam = (0,) * len(alpha)
        result = solve(dq, alpha, lam, seed, max_iter=30)
        routes.append(rank_against_the_svd(dq, alpha, lam, result))
    # at lambda = 0 some points have more than the scalars as stabilizer,
    # where the rank is below m - 1 and the Gram leaves it to the SVD
    assert "certified" in routes and "fallback" in routes


@pytest.mark.parametrize("alpha", [(4, 8), (5, 10)])
def test_gram_ranks_match_the_svd_on_calogero(alpha):
    for seed in range(3):
        result = solve(CALOGERO, alpha, LAM_21, seed)
        assert result.converged
        assert rank_against_the_svd(CALOGERO, alpha, LAM_21, result) == "certified"


def test_gram_route_at_the_origin_and_at_an_overflowing_cut():
    alpha = (4, 8)
    plan = numerics._plan(double_of(CALOGERO), alpha)
    assert numerics._uses_kronecker(plan)
    # sigma_1 = 0: the SVD answers, every value 0 and the rank 0
    origin = {label: np.zeros(shape, dtype=complex) for label, _, shape in plan.arrows}
    report = rank_report(CALOGERO, alpha, LAM_0, origin)
    assert report.jacobian_rank == 0 and report.fiber_dim_estimate == plan.columns
    assert report.singular_values == [0.0] * plan.rows and report.cut_gap is None
    # svd_tol^2 overflows: the SVD answers, bit for bit
    point = solve(CALOGERO, alpha, LAM_21, 0).point
    flat = numerics._pack(plan, point)
    assert numerics._gram_rank(plan, flat, 1e-7) is not None
    assert numerics._gram_rank(plan, flat, 1e308) is None
    expected = numerics._rank_of(numerics._jacobian(plan, flat), plan.columns, 1e308)
    assert rank_report(CALOGERO, alpha, LAM_21, point, svd_tol=1e308) == expected


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda q: solve(q, (1, 2), LAM_21, seed=0, tol=math.nan), "tol must be finite"),
        (lambda q: solve(q, (1, 2), LAM_21, seed=0, tol=math.inf), "tol must be finite"),
        (lambda q: solve(q, (1, 2), LAM_21, seed=0, tol=0.0), "tol must be finite"),
        (lambda q: solve(q, (1, 2), LAM_21, seed=0, max_iter=-3), "max_iter must be an int"),
        (lambda q: solve(q, (1, 2), LAM_21, seed=0, max_iter=0), "max_iter must be an int"),
        (lambda q: solve(q, (1, 2), LAM_21, seed=0, max_iter=2.5), "max_iter must be an int"),
    ],
    ids=["tol-nan", "tol-inf", "tol-zero", "max-iter-negative", "max-iter-zero", "max-iter-float"],
)
def test_solve_refuses_bad_tolerances(calogero, call, message):
    with pytest.raises(ValueError, match=message):
        call(calogero)


@pytest.mark.parametrize(
    "keyword, value",
    [("svd_tol", -1.0), ("svd_tol", math.nan), ("residual_tol", math.nan),
     ("residual_tol", -1e-8), ("residual_tol", math.inf)],
)
def test_rank_report_refuses_bad_tolerances(calogero, keyword, value):
    result = solve(calogero, (1, 2), LAM_21, seed=0)
    assert result.converged
    # svd_tol = -1 would keep the exact-zero trace direction (rank 5), and
    # svd_tol = nan would keep nothing (rank 0); the rank here is 4
    assert rank_report(calogero, (1, 2), LAM_21, result.point).jacobian_rank == 4
    with pytest.raises(ValueError, match=f"{keyword} must be finite and positive"):
        rank_report(calogero, (1, 2), LAM_21, result.point, **{keyword: value})


def test_rank_report_refuses_a_transposed_matrix(calogero):
    point = solve(calogero, (1, 2), LAM_21, seed=0).point
    point["a"] = point["a"].T.copy()
    with pytest.raises(ValueError, match=r"matrix for 'a' has shape \(1, 2\), expected \(2, 1\)"):
        rank_report(calogero, (1, 2), LAM_21, point)


def solve_bytes(q, alpha, lam, seed) -> tuple:
    result = solve(q, alpha, lam, seed)
    report = rank_report(q, alpha, lam, result.point)
    point = b"".join(matrix.tobytes() for matrix in result.point.values())
    return result.residual_norm, result.iterations, point, report.singular_values


def test_a_second_alpha_replaces_the_plan_and_results_do_not_change():
    def fresh():
        return Quiver(2, (Arrow("a", 1, 2), Arrow("b", 2, 2)))

    q = fresh()
    cases = [((1, 2), LAM_21), ((2, 4), LAM_21), ((1, 2), LAM_21)]
    for alpha, lam in cases:
        assert solve_bytes(q, alpha, lam, 3) == solve_bytes(fresh(), alpha, lam, 3)
        # one slot on the double, holding the plan of the last alpha
        slots = [value for value in vars(double_of(q)).values() if isinstance(value, tuple)
                 and len(value) == 2 and isinstance(value[1], numerics._Plan)]
        assert len(slots) == 1 and slots[0][0] == alpha
        assert numerics._plan(double_of(q), alpha) is slots[0][1]


def test_double_of_keeps_one_double_and_double_builds_a_fresh_one(calogero):
    assert double_of(calogero) is double_of(calogero)
    assert double_of(double_of(calogero)) is double_of(calogero)
    assert double(calogero) is not double(calogero)
    assert double(calogero) is not double_of(calogero)
    assert double(calogero) == double_of(calogero)
