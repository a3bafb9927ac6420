"""Floating-point verification layer for the complex moment map.

Solves sum_a [V_a, V_a*] = lambda on representation spaces of the double
quiver by damped Gauss-Newton least squares, then measures the Jacobian rank
at solutions so fiber dimensions can be compared against the exact formulas.
The target space is always the trace-zero block tuple; residuals are
projected onto it by subtracting the mean trace.

``solve`` and ``rank_report`` work on the flat point vector: the matrices of
the arrows in ``dq.arrows`` order, each row-major.  Its index layout for one
(double quiver, alpha) is the plan (``_Plan``): the row offsets of the vertex
blocks, each base arrow's slices into the flat vector, and two index arrays
that place every Jacobian entry.  A plan is built once and kept in a single
slot on the double quiver, ``(alpha, plan)``; ``double_of`` keeps the double
on its base quiver, so every iteration of a solve, the rank check after it
and later solves at the same alpha share one plan, and another alpha
replaces it.  Shapes are checked once, when a point is packed.

The Jacobian's rows are the vertex blocks, alpha_i^2 rows each, row-major;
its columns are the entries of the flat vector.  Varying V_a for a base
arrow a: s -> t moves block t by H V_a* and block s by -V_a* H, which in
this layout are the Kronecker blocks I (x) V_a*^T and -(V_a* (x) I); a
starred arrow gives V_a (x) I and -(I (x) V_a^T) the same way.  So every
entry is 0 or +- an entry of the partner matrix, which sits in the flat
vector, and J is one scatter: the plan's plus entries are copied from the
flat vector, then its minus entries are subtracted.  Plus and minus entries
meet only where a loop's two blocks share rows, and there the entry comes
out as (0 + a) - b, bit for bit what accumulating the Kronecker blocks
gives.  Each column is the derivative of a sum of commutators: the one entry
x it varies lands on the diagonal as +x in one block and -x in another, and
x + (-x) is exactly 0 in floating point too.  Subtracting the mean trace
would leave every column unchanged, bit for bit, so it is applied to the
residual only.

Dense matrices are refused before anything is allocated when m * n
exceeds ``MAX_DENSE_ENTRIES``, with m = sum alpha_i^2 rows and n = the
representation dimension.  The m x n Jacobian is the largest matrix either
entry point allocates; the min(m, n)-square Gram matrix that ``solve``
forms is no larger.

This module never feeds back into the exact classification: a failure here
flags a numerical issue, not a verdict change.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .quiver import DoubleQuiver, Quiver, as_dim_vector, as_weight, double_of, weight_pairing

RepPoint = dict[str, np.ndarray]

# Cap on m * n for an m x n Jacobian, in complex entries (256 MiB).
MAX_DENSE_ENTRIES = 2**24


def rep_dimension(q: Quiver, alpha: Sequence[int]) -> int:
    """Complex dimension of the representation space of the double quiver."""
    dq = double_of(q)
    alpha = as_dim_vector(dq, alpha)
    return sum(alpha[a.source - 1] * alpha[a.target - 1] for a in dq.arrows)


def random_rep(q: Quiver, alpha: Sequence[int], seed: int) -> RepPoint:
    """Deterministic random representation: complex Gaussian entries, 1/sqrt(n) scale."""
    dq = double_of(q)
    alpha = as_dim_vector(dq, alpha)
    rng = np.random.default_rng(seed)
    scale = 1.0 / math.sqrt(max(1, sum(alpha)))
    point: RepPoint = {}
    for arr in dq.arrows:
        shape = (alpha[arr.target - 1], alpha[arr.source - 1])
        point[arr.label] = scale * (
            rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        )
    return point


def _check_shapes(dq: DoubleQuiver, alpha: tuple[int, ...], point: Mapping[str, np.ndarray]) -> None:
    for arr in dq.arrows:
        expected = (alpha[arr.target - 1], alpha[arr.source - 1])
        matrix = point.get(arr.label)
        if matrix is None:
            raise ValueError(f"missing matrix for arrow {arr.label!r}")
        if matrix.shape != expected:
            raise ValueError(
                f"matrix for {arr.label!r} has shape {matrix.shape}, expected {expected}"
            )


def moment_eval(q: Quiver, alpha: Sequence[int], point: Mapping[str, np.ndarray]) -> list[np.ndarray]:
    """Vertex blocks of sum_a [V_a, V_a*]; the total trace vanishes up to rounding."""
    dq = double_of(q)
    alpha = as_dim_vector(dq, alpha)
    _check_shapes(dq, alpha, point)
    blocks = [np.zeros((n, n), dtype=complex) for n in alpha]
    for arr in dq.base_arrows:
        va = point[arr.label]
        vs = point[dq.star(arr.label)]
        blocks[arr.target - 1] += va @ vs
        blocks[arr.source - 1] -= vs @ va
    return blocks


def _check_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


def _check_dense_size(alpha: tuple[int, ...], rows: int, rep_dim: int) -> None:
    """Refuse an alpha with m * n > MAX_DENSE_ENTRIES for its m x n Jacobian,
    the largest matrix allocated; the Gram matrix ``solve`` forms is
    min(m, n)-square."""
    if rows * rep_dim > MAX_DENSE_ENTRIES:
        side = min(rows, rep_dim)
        raise ValueError(
            f"alpha = {alpha} needs a {rows} x {rep_dim} Jacobian and a "
            f"{side} x {side} Gram matrix; the cap is {MAX_DENSE_ENTRIES} entries each"
        )


class _Plan:
    """Index layout of the moment map of one double quiver at one alpha.

    ``arrows`` holds (label, slice of the flat vector, matrix shape) for the
    arrows in ``dq.arrows`` order.  ``products`` holds, for each base arrow
    with nonzero matrices, the row slices of its target and source blocks and
    the slices and shapes of V_a and V_a*.  ``traces`` slices out each vertex
    block's diagonal, ``diagonal`` lists all diagonal rows.  J.flat[plus_pos]
    is flat[plus_src] and J.flat[minus_pos] is reduced by flat[minus_src].
    """

    __slots__ = (
        "alpha", "rows", "columns", "arrows", "products", "traces", "diagonal",
        "plus_pos", "plus_src", "minus_pos", "minus_src",
    )

    def __init__(self, dq: DoubleQuiver, alpha: tuple[int, ...]) -> None:
        self.alpha = alpha
        offsets = [0]
        for n in alpha:
            offsets.append(offsets[-1] + n * n)
        self.rows = offsets[-1]
        arrows, start = [], 0
        for arr in dq.arrows:
            shape = (alpha[arr.target - 1], alpha[arr.source - 1])
            arrows.append((arr.label, slice(start, start + shape[0] * shape[1]), shape))
            start += shape[0] * shape[1]
        self.arrows = tuple(arrows)
        self.columns = start
        blocks = [slice(offsets[v], offsets[v + 1]) for v in range(len(alpha))]
        self.traces = tuple(
            slice(offsets[v], offsets[v + 1], n + 1) for v, n in enumerate(alpha)
        )
        self.diagonal = np.concatenate(
            [np.arange(offsets[v], offsets[v + 1], n + 1) for v, n in enumerate(alpha)]
        )
        # dq.arrows alternates each base arrow and its starred partner
        self.products = tuple(
            (blocks[arr.target - 1], blocks[arr.source - 1], a_slice, a_shape, s_slice, s_shape)
            for arr, (_, a_slice, a_shape), (_, s_slice, s_shape) in zip(
                dq.base_arrows, arrows[0::2], arrows[1::2]
            )
            if a_slice.stop > a_slice.start
        )
        # varying an arrow's entry (r, c) moves its target block by
        # (r, j) <- P[c, j] and its source block by (i, c) <- P[i, r], P the
        # partner; a base arrow adds the first and subtracts the second, a
        # starred arrow the other way round.  One row per arrow: the sizes
        # and first rows of its target and source blocks, and the starts of
        # its and its partner's matrices in the flat vector.
        ends = np.array(
            [
                (alpha[arr.target - 1], alpha[arr.source - 1], offsets[arr.target - 1],
                 offsets[arr.source - 1], arrows[index][1].start, arrows[index ^ 1][1].start)
                for index, arr in enumerate(dq.arrows)
            ],
            dtype=np.intp,
        ).reshape(-1, 6)
        base = np.arange(len(ends)) % 2 == 0
        self.plus_pos, self.plus_src = _entries(base, ends, start)
        self.minus_pos, self.minus_src = _entries(~base, ends, start)


def _entries(
    by_target: np.ndarray, ends: np.ndarray, columns: int
) -> tuple[np.ndarray, np.ndarray]:
    """The positions in J.flat and the indices into the flat vector of one
    move per arrow, in arrow order: its target block's where ``by_target``,
    else its source block's.

    ``ends`` holds a row per arrow: the sizes n_t, n_s and first rows t, s of
    its target and source blocks, and the starts of its and its partner's
    matrices.  A move into a block of size N, the other end of size M, has
    N * N * M entries in C order over (a, b, d): (r, j, c) above for a target
    move, (i, c, r) for a source move.  The entry lands in row a * N + b of
    the block; with u = a * M + d and w = d * N + b, its column is own + u and
    its source partner + w for a target move, and the other way round for a
    source move.  The entries of one row differ only in d, so everything but
    d is computed once per row.
    """
    n_t, n_s, t, s, own, partner = ends.T
    n, m = np.where(by_target, n_t, n_s), np.where(by_target, n_s, n_t)
    first = np.where(by_target, t, s)
    squares = n * n
    row = np.arange(squares.sum()) - np.repeat(np.cumsum(squares) - squares, squares)
    n, m, first, own, partner, by_target = (
        np.repeat(x, squares) for x in (n, m, first, own, partner, by_target)
    )
    a, b = np.divmod(row, n)
    # u and w at d = 0, and their steps in d
    u, w = a * m, b
    position = (first + row) * columns + own + np.where(by_target, u, w)
    source = partner + np.where(by_target, w, u)
    position_step, source_step = np.where(by_target, 1, n), np.where(by_target, n, 1)
    d = np.arange(m.sum()) - np.repeat(np.cumsum(m) - m, m)
    return (
        np.repeat(position, m) + d * np.repeat(position_step, m),
        np.repeat(source, m) + d * np.repeat(source_step, m),
    )


def _plan(dq: DoubleQuiver, alpha: tuple[int, ...]) -> _Plan:
    """The plan for (dq, alpha), from the slot on dq or built into it, once
    the dense-size cap has passed."""
    slot = dq.__dict__.get("_moment_plan")
    if slot is not None and slot[0] == alpha:
        _check_dense_size(alpha, slot[1].rows, slot[1].columns)
        return slot[1]
    _check_dense_size(alpha, sum(n * n for n in alpha), rep_dimension(dq, alpha))
    plan = _Plan(dq, alpha)
    object.__setattr__(dq, "_moment_plan", (alpha, plan))
    return plan


def _pack(plan: _Plan, point: Mapping[str, np.ndarray]) -> np.ndarray:
    """The flat vector of a point whose shapes have been checked."""
    if not plan.arrows:
        return np.zeros(0, dtype=complex)
    flat = np.concatenate(
        [np.asarray(point[label], dtype=complex).reshape(-1) for label, _, _ in plan.arrows]
    )
    # -0.0 becomes 0.0, so a copied Jacobian entry has the sign of 0 + x
    flat += 0.0
    return flat


def _unpack(plan: _Plan, flat: np.ndarray) -> RepPoint:
    return {label: flat[part].reshape(shape) for label, part, shape in plan.arrows}


def _lam_diagonal(lam: Sequence, alpha: tuple[int, ...]) -> np.ndarray:
    """Each vertex's weight, once per diagonal row of its block."""
    return np.repeat(np.array([float(x) + 0j for x in lam], dtype=complex), alpha)


def _residual(plan: _Plan, flat: np.ndarray, lam_diagonal: np.ndarray) -> np.ndarray:
    """The flat trace-zero projection of sum_a [V_a, V_a*] - lambda.

    Accumulates the products in ``moment_eval``'s order, then subtracts
    lambda and the mean trace on the diagonal, so its bits are those of the
    per-block route.
    """
    out = np.zeros(plan.rows, dtype=complex)
    for target, source, a_part, a_shape, s_part, s_shape in plan.products:
        va = flat[a_part].reshape(a_shape)
        vs = flat[s_part].reshape(s_shape)
        out[target] += (va @ vs).reshape(-1)
        out[source] -= (vs @ va).reshape(-1)
    if plan.rows:
        out[plan.diagonal] -= lam_diagonal
        # summed as np.trace sums each block's diagonal
        out[plan.diagonal] -= sum(out[d].sum() for d in plan.traces) / sum(plan.alpha)
    return out


def _jacobian(plan: _Plan, flat: np.ndarray) -> np.ndarray:
    """Complex Jacobian of the projected residual; the moment map is holomorphic.

    One scatter of partner entries (module docstring): all plus entries
    are written before any minus entry is subtracted.  The trace projection
    is left out: it subtracts the mean trace of a column, which is exactly 0.
    """
    jac = np.zeros(plan.rows * plan.columns, dtype=complex)
    jac[plan.plus_pos] = flat[plan.plus_src]
    jac[plan.minus_pos] -= flat[plan.minus_src]
    return jac.reshape(plan.rows, plan.columns)


@dataclass
class MomentSolveResult:
    point: RepPoint
    residual_norm: float
    converged: bool
    iterations: int
    seed: int


@dataclass
class RankReport:
    jacobian_rank: int
    fiber_dim_estimate: int
    singular_values: list[float]
    # sigma_r / sigma_{r+1} at the rank cut r (inf if sigma_{r+1} is 0); None
    # when r is 0 or every singular value is kept
    cut_gap: float | None


def _damped_steps(jac: np.ndarray, residual: np.ndarray) -> Callable[[float], np.ndarray]:
    """The Levenberg-Marquardt step -(J^H J + mu I)^-1 J^H r as a function of mu.

    With m rows and n columns, m <= n, the push-through identity
    (J^H J + mu I)^-1 J^H = J^H (J J^H + mu I)^-1 gives the step from the
    m x m system; for m > n it comes from the n x n normal equations.  The
    Gram matrix of the smaller side is formed once, and each damping trial
    pays only its LU solve.
    """
    rows, columns = jac.shape
    jac_h = jac.conj().T
    if rows <= columns:
        gram, eye = jac @ jac_h, np.eye(rows)
        return lambda damping: jac_h @ np.linalg.solve(gram + damping * eye, -residual)
    gram, eye, rhs = jac_h @ jac, np.eye(columns), -(jac_h @ residual)
    return lambda damping: np.linalg.solve(gram + damping * eye, rhs)


def _rank_of(jac: np.ndarray, rep_dim: int, svd_tol: float) -> RankReport:
    """The rank report of a Jacobian: singular values above svd_tol * sigma_1."""
    if jac.size == 0:
        return RankReport(0, rep_dim, [], None)
    singular = np.linalg.svd(jac, compute_uv=False)
    values = [float(s) for s in singular]
    if not values or values[0] == 0.0:
        rank = 0
    else:
        rank = sum(1 for s in values if s > svd_tol * values[0])
    cut_gap = None
    if 0 < rank < len(values):
        cut_gap = values[rank - 1] / values[rank] if values[rank] else math.inf
    return RankReport(rank, rep_dim - rank, values, cut_gap)


def solve(
    q: Quiver,
    alpha: Sequence[int],
    lam: Sequence,
    seed: int,
    tol: float = 1e-10,
    max_iter: int = 200,
) -> MomentSolveResult:
    """Damped Gauss-Newton solve of the moment equation from a seeded start.

    Weights must pair to zero with alpha (the trace obstruction); otherwise
    the fiber is empty and the input is rejected, as is an alpha whose dense
    matrices would exceed MAX_DENSE_ENTRIES, a tol that is not finite and
    positive and a max_iter that is not an int >= 1.  Non-convergence is
    reported in the result, not raised.
    """
    _check_positive("tol", tol)
    if not isinstance(max_iter, int) or max_iter < 1:
        raise ValueError(f"max_iter must be an int >= 1, got {max_iter!r}")
    dq = double_of(q)
    alpha = as_dim_vector(dq, alpha)
    plan = _plan(dq, alpha)
    lam = as_weight(dq, lam)
    pairing = weight_pairing(lam, alpha)
    if pairing != 0:
        raise ValueError(f"weight pairs to {pairing} with {alpha}; the fiber is empty")
    lam_diagonal = _lam_diagonal(lam, alpha)
    flat = _pack(plan, random_rep(dq, alpha, seed))
    damping = 1e-3
    residual = _residual(plan, flat, lam_diagonal)
    norm = float(np.linalg.norm(residual))
    iterations = 0
    while iterations < max_iter and norm > tol:
        iterations += 1
        step = _damped_steps(_jacobian(plan, flat), residual)
        accepted = False
        for _ in range(25):
            trial = flat + step(damping)
            trial_residual = _residual(plan, trial, lam_diagonal)
            trial_norm = float(np.linalg.norm(trial_residual))
            if trial_norm < norm:
                flat, residual, norm = trial, trial_residual, trial_norm
                damping = max(damping / 3.0, 1e-14)
                accepted = True
                break
            damping = min(damping * 10.0, 1e10)
        if not accepted:
            break
    converged = norm <= tol
    return MomentSolveResult(_unpack(plan, flat), norm, converged, iterations, seed)


def rank_report(
    q: Quiver,
    alpha: Sequence[int],
    lam: Sequence,
    point: Mapping[str, np.ndarray],
    svd_tol: float = 1e-7,
    residual_tol: float = 1e-8,
) -> RankReport:
    """Numerical rank of the moment differential at a solved point.

    The fiber dimension estimate is the complex dimension of the
    representation space minus the rank; the full singular value list is
    returned so borderline thresholding stays auditable, and ``cut_gap``
    says how far apart the last kept and the first dropped value are.  An
    alpha whose dense matrices would exceed MAX_DENSE_ENTRIES is refused, as
    are tolerances that are not finite and positive.
    """
    _check_positive("svd_tol", svd_tol)
    _check_positive("residual_tol", residual_tol)
    dq = double_of(q)
    alpha = as_dim_vector(dq, alpha)
    plan = _plan(dq, alpha)
    lam_diagonal = _lam_diagonal(as_weight(dq, lam), alpha)
    _check_shapes(dq, alpha, point)
    flat = _pack(plan, point)
    norm = float(np.linalg.norm(_residual(plan, flat, lam_diagonal)))
    if norm > residual_tol:
        raise ValueError(f"point is not solved: residual {norm:.3e} > {residual_tol:.1e}")
    return _rank_of(_jacobian(plan, flat), plan.columns, svd_tol)
