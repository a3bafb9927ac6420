"""The moment-map Jacobian of the index plan against two independent routes.

`numerics._jacobian` scatters partner entries through the plan;
`oracles.jacobian_by_arrows` accumulates each arrow's Kronecker blocks, and
`oracles.jacobian_by_columns` differentiates one matrix entry at a time and
trace-projects each column.  All three must agree byte for byte, so that
solves, ranks and `moment` reports do not depend on which route built the
Jacobian.  The plan's index arrays, built for all arrows at once, must equal
those of `oracles.plan_indices_by_arrows`, built one arrow at a time.
"""
import random
from fractions import Fraction

import numpy as np
import pytest

from necklacekit import Arrow, Quiver, cli, double, numerics, parse_quiver_text
from oracles import (
    jacobian_by_arrows,
    jacobian_by_columns,
    plan_indices_by_arrows,
    rank_report_by_arrows,
    solve_by_arrows,
)

CALOGERO = Quiver(2, (Arrow("a", 1, 2), Arrow("b", 2, 2)))
A1_TILDE = Quiver(2, (Arrow("a", 1, 2), Arrow("b", 2, 1)))
D4_STAR = Quiver(5, tuple(Arrow(f"a{i}", i, 5) for i in range(1, 5)))


def random_case(rng: random.Random) -> tuple:
    """A double quiver with a loop and a parallel arrow, and an alpha with zeros."""
    k = rng.randint(1, 4)
    ends = [(rng.randint(1, k), rng.randint(1, k)) for _ in range(rng.randint(0, 3))]
    loop = rng.randint(1, k)
    ends.append((loop, loop))
    ends.append(rng.choice(ends))
    arrows = tuple(Arrow(f"q{i}", s, t) for i, (s, t) in enumerate(ends))
    alpha = tuple(rng.randint(0, 4) for _ in range(k))
    return double(Quiver(k, arrows)), alpha


def plan_jacobian(dq, alpha, point) -> np.ndarray:
    plan = numerics._plan(dq, alpha)
    return numerics._jacobian(plan, numerics._pack(plan, point))


def assert_same_bytes(dq, alpha, point) -> np.ndarray:
    fast = plan_jacobian(dq, alpha, point)
    for slow in (jacobian_by_arrows(dq, alpha, point), jacobian_by_columns(dq, alpha, point)):
        assert fast.shape == slow.shape
        assert fast.tobytes() == slow.tobytes()
    return fast


def assert_column_traces_cancel(alpha, jac: np.ndarray) -> None:
    """Every column's block traces sum to exactly 0, so its projection is the identity."""
    offsets = np.cumsum([0] + [n * n for n in alpha])
    for column in jac.T:
        traces = [
            np.trace(column[offsets[i] : offsets[i + 1]].reshape(n, n))
            for i, n in enumerate(alpha)
        ]
        assert sum(traces) == 0.0


@pytest.mark.parametrize("seed", range(40))
def test_random_points_match_the_column_route(seed):
    rng = random.Random(4000 + seed)
    dq, alpha = random_case(rng)
    for point_seed in range(3):
        point = numerics.random_rep(dq, alpha, rng.randrange(2**31) + point_seed)
        jac = assert_same_bytes(dq, alpha, point)
        assert_column_traces_cancel(alpha, jac)


@pytest.mark.parametrize("seed", range(12))
def test_solved_points_match_the_column_route(seed):
    rng = random.Random(5000 + seed)
    dq, alpha = random_case(rng)
    lam = (Fraction(0),) * len(alpha)
    result = numerics.solve(dq, alpha, lam, seed, max_iter=30)
    jac = assert_same_bytes(dq, alpha, result.point)
    assert_column_traces_cancel(alpha, jac)


@pytest.mark.parametrize(
    "q, alpha, lam",
    [
        (CALOGERO, (2, 4), (-2, 1)),
        (A1_TILDE, (1, 1), (-1, 1)),
        (D4_STAR, (1, 1, 1, 1, 2), (1, 1, 1, 1, -2)),
    ],
)
def test_paper_cases_match_the_column_route(q, alpha, lam):
    dq = double(q)
    for seed in range(3):
        result = numerics.solve(dq, alpha, lam, seed)
        assert result.converged
        jac = assert_same_bytes(dq, alpha, result.point)
        assert_column_traces_cancel(alpha, jac)


def test_empty_jacobians_match_the_column_route():
    dq = double(CALOGERO)
    # all of alpha zero: no rows and no columns
    jac = assert_same_bytes(dq, (0, 0), numerics.random_rep(dq, (0, 0), 0))
    assert jac.shape == (0, 0)
    # alpha = (1, 0): one row, and every arrow touches the zero vertex
    jac = assert_same_bytes(dq, (1, 0), numerics.random_rep(dq, (1, 0), 0))
    assert jac.shape == (1, 0)


def assert_same_solve_and_rank(q, alpha, lam, seed, **solve_options) -> None:
    """solve and rank_report against the per-arrow oracle, bit for bit."""
    fast = numerics.solve(q, alpha, lam, seed, **solve_options)
    slow = solve_by_arrows(q, alpha, lam, seed, **solve_options)
    assert (fast.residual_norm, fast.iterations, fast.converged) == (
        slow.residual_norm, slow.iterations, slow.converged
    )
    assert list(fast.point) == list(slow.point)
    for label, matrix in fast.point.items():
        assert matrix.tobytes() == slow.point[label].tobytes()
    # the rank check at wherever the solve stopped, solved or not
    residual_tol = max(1e-8, 2 * fast.residual_norm)
    fast_rank = numerics.rank_report(q, alpha, lam, fast.point, residual_tol=residual_tol)
    slow_rank = rank_report_by_arrows(q, alpha, lam, slow.point, residual_tol=residual_tol)
    assert fast_rank == slow_rank


@pytest.mark.parametrize("seed", range(40))
def test_random_solves_and_ranks_match_the_per_arrow_route(seed):
    rng = random.Random(4000 + seed)
    dq, alpha = random_case(rng)
    assert_same_solve_and_rank(dq, alpha, (0,) * len(alpha), seed, max_iter=30)


PAPER_CASES = [
    (CALOGERO, (1, 2), (-2, 1)),
    (CALOGERO, (2, 4), (-2, 1)),
    # vertex blocks of 5 and 10 rows, traces summed over 10 entries
    (CALOGERO, (5, 10), (-2, 1)),
    (A1_TILDE, (1, 1), (-1, 1)),
    (D4_STAR, (1, 1, 1, 1, 2), (1, 1, 1, 1, -2)),
    # more rows than columns
    (Quiver(2, (Arrow("a", 1, 2),)), (1, 3), (3, -1)),
]


@pytest.mark.parametrize("q, alpha, lam", PAPER_CASES)
def test_paper_solves_and_ranks_match_the_per_arrow_route(q, alpha, lam):
    for seed in range(3):
        assert_same_solve_and_rank(q, alpha, lam, seed)


PLAN_INDICES = ("plus_pos", "plus_src", "minus_pos", "minus_src")


def assert_plan_matches_the_per_arrow_route(dq, alpha) -> None:
    plan = numerics._Plan(dq, alpha)
    for name, expected in zip(PLAN_INDICES, plan_indices_by_arrows(dq, alpha)):
        actual = getattr(plan, name)
        assert actual.dtype == expected.dtype, name
        assert np.array_equal(actual, expected), name


@pytest.mark.parametrize("seed", range(40))
def test_random_plans_match_the_per_arrow_route(seed):
    rng = random.Random(6000 + seed)
    assert_plan_matches_the_per_arrow_route(*random_case(rng))


def test_plans_without_arrows_or_entries_match_the_per_arrow_route():
    assert_plan_matches_the_per_arrow_route(double(Quiver(2, ())), (1, 2))
    assert_plan_matches_the_per_arrow_route(double(CALOGERO), (0, 0))
    assert_plan_matches_the_per_arrow_route(double(CALOGERO), (1, 0))


def solve_and_rank(q, alpha, lam, seed) -> tuple:
    """Everything solve and rank_report return, with the point as bytes."""
    result = numerics.solve(q, alpha, lam, seed)
    rank = numerics.rank_report(
        q, alpha, lam, result.point, residual_tol=max(1e-8, 2 * result.residual_norm)
    )
    point = [(label, matrix.tobytes()) for label, matrix in result.point.items()]
    return result.residual_norm, result.iterations, result.converged, point, rank


@pytest.mark.parametrize("q, alpha, lam", PAPER_CASES)
def test_paper_plans_match_the_per_arrow_route(q, alpha, lam):
    dq = double(q)
    assert_plan_matches_the_per_arrow_route(dq, alpha)
    built = [solve_and_rank(dq, alpha, lam, seed) for seed in range(3)]
    # the same solves on a plan holding the per-arrow route's index arrays
    plan = numerics._plan(dq, alpha)
    for name, indices in zip(PLAN_INDICES, plan_indices_by_arrows(dq, alpha)):
        setattr(plan, name, indices)
    assert [solve_and_rank(dq, alpha, lam, seed) for seed in range(3)] == built


def test_negative_zero_entries_give_the_accumulated_jacobian():
    dq = double(Quiver(1, (Arrow("x", 1, 1),)))
    point = {"x": np.array([[-0.0, 1.0], [2.0, -0.0]], dtype=complex),
             "x*": np.array([[1.0, -0.0], [complex(-0.0, -0.0), 3.0]])}
    assert_same_bytes(dq, (2,), point)


QUIVER_TEXTS = {
    "calogero": "vertices: 2\narrows: a 1 2, b 2 2\n",
    "a1_tilde": "vertices: 2\narrows: a 1 2, b 2 1\n",
    "d4_star": "vertices: 5\narrows: a 1 5, b 2 5, c 3 5, d 4 5\n",
}


@pytest.mark.parametrize(
    "name, alpha, lam",
    [
        ("calogero", "2,4", "-2,1"),
        ("a1_tilde", "1,1", "-1,1"),
        ("d4_star", "1,1,1,1,2", "1,1,1,1,-2"),
    ],
)
def test_moment_reports_do_not_depend_on_the_route(
    name, alpha, lam, tmp_path, capsys, monkeypatch
):
    quiver_file = tmp_path / f"{name}.quiver"
    quiver_file.write_text(QUIVER_TEXTS[name], encoding="utf-8")

    def run(json_name: str) -> tuple[str, bytes]:
        json_path = tmp_path / json_name
        argv = ["moment", str(quiver_file), "--alpha", alpha, "--lambda", lam, "--seeds", "3"]
        assert cli.main(argv + ["--json", str(json_path)]) == 0
        return capsys.readouterr().out, json_path.read_bytes()

    closed_form = run("closed_form.json")
    calls = []
    dq = double(parse_quiver_text(QUIVER_TEXTS[name]))

    def counted(plan, flat):
        calls.append(1)
        return jacobian_by_columns(dq, plan.alpha, numerics._unpack(plan, flat))

    monkeypatch.setattr(numerics, "_jacobian", counted)
    by_columns = run("by_columns.json")
    assert calls
    assert closed_form == by_columns
    monkeypatch.setattr(numerics, "solve", solve_by_arrows)
    monkeypatch.setattr(numerics, "rank_report", rank_report_by_arrows)
    assert run("by_arrows.json") == closed_form
