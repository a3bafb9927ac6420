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

A solve starts at ``random_rep``'s point: one draw of 2 n normals that the
plan splits into real and imaginary parts (``_draw``).  The residual forms
the products V_a V_a* and V_a* V_a of equal shapes in one stacked
``matmul``, adds them to the vertex blocks in ``moment_eval``'s order and
makes one pass over the diagonal; its norm is ``np.linalg.norm``'s formula
(``_norm``).  Each has the bits of the per-arrow route.

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

Each damped Gauss-Newton step of ``solve`` takes one of two routes, chosen
by size alone.  With m = sum alpha_i^2 rows and n = the representation
dimension, when m <= n and m >= ``KRONECKER_MIN_ROWS`` the m x m Gram
matrix J J^H is built from each base arrow's Kronecker blocks and the step
J^H y from four small products per arrow (``_gram_of``, ``_adjoint``), in
O(sum n_i^3 + m^2) work, and the Jacobian is never formed.  Otherwise J is
scattered and multiplied out (``_normal_equations``): below the threshold
its Gram product costs less than the per-arrow numpy calls, and when m > n
the step comes from the n x n normal equations.  The threshold is where the
Kronecker route stops losing to the dense one when each route is forced on
the same code.  The routes agree to rounding, not bit for bit.  Either
route's system is formed once per iteration, and each damping trial takes
its step from it through one routine, ``_damped_step``.

``rank_report`` has one rank rule.  Wherever m <= n, the trace direction u
(identity blocks) spans an exact left kernel of J, whose column traces
cancel bit for bit, so the last of the m singular values, u's, is reported
as exactly 0; the others are kept above svd_tol * sigma_1 (``_report``).
The values come from the route ``solve`` takes: the square roots of the
Gram matrix's eigenvalues where those certify rank m - 1 (``_gram_rank``),
else the SVD of J (``_rank_of``).  Most solved points have rank m - 1, and
one Cholesky factorisation of a shifted Gram matrix proves that this rule
reads it (``_certified``); the report then carries the rank, and computes
the values by the rule only when they are read.  Where the factorisation
does not certify, the values are computed at once.

Dense matrices are refused before anything is allocated when m * n
exceeds ``MAX_DENSE_ENTRIES``.  The m x n Jacobian, which the dense route
of ``solve`` and the rank check below 80 rows allocate, is the largest
matrix either entry point needs; on the Kronecker route ``solve`` allocates
no m x n matrix, only m x m ones: the Gram matrix and the copy of it that
each damping trial's ``np.linalg.solve`` makes, and ``rank_report`` forms J
only where the Gram's eigenvalues cannot certify the rank.

This module never feeds back into the exact classification: a failure here
flags a numerical issue, not a verdict change.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .quiver import DoubleQuiver, Quiver, as_dim_vector, as_weight, double_of, weight_pairing

RepPoint = dict[str, np.ndarray]

# Cap on m * n for an m x n Jacobian, in complex entries (256 MiB); it holds
# on both routes of solve, since rank_report forms the Jacobian wherever the
# Gram's eigenvalues cannot certify the rank.
MAX_DENSE_ENTRIES = 2**24

# Fewest rows m (with m <= n) at which solve steps without the Jacobian; the
# measured crossover (CHANGES.md) lies between m = 72 and m = 80.
KRONECKER_MIN_ROWS = 80


def rep_dimension(q: Quiver, alpha: Sequence[int]) -> int:
    """Complex dimension of the representation space of the double quiver."""
    dq = double_of(q)
    alpha = as_dim_vector(dq, alpha)
    return sum(alpha[a.source - 1] * alpha[a.target - 1] for a in dq.arrows)


def random_rep(q: Quiver, alpha: Sequence[int], seed: int) -> RepPoint:
    """Deterministic random representation: complex Gaussian entries, 1/sqrt(n) scale."""
    _check_options(seed=seed)
    dq = double_of(q)
    alpha = as_dim_vector(dq, alpha)
    shapes = [(alpha[arr.target - 1], alpha[arr.source - 1]) for arr in dq.arrows]
    sizes = [rows * columns for rows, columns in shapes]
    flat = _draw(seed, *_draw_order(sizes), sum(alpha))
    ends = np.cumsum([0] + sizes)
    return {
        arr.label: flat[start:stop].reshape(shape)
        for arr, start, stop, shape in zip(dq.arrows, ends, ends[1:], shapes)
    }


def _draw_order(sizes: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Where each flat entry's real and imaginary parts sit in one draw: an
    arrow of k entries from o draws k real parts from 2 o, then k imaginary
    parts, so entry j's are draws j + o and j + o + k."""
    sizes = np.array(sizes, dtype=np.intp)
    starts = np.repeat(np.cumsum(sizes) - sizes, sizes)
    real = np.arange(len(starts)) + starts
    return real, real + np.repeat(sizes, sizes)


def _draw(seed: int, real: np.ndarray, imag: np.ndarray, total: int) -> np.ndarray:
    """``random_rep``'s flat vector, at scale 1 / sqrt(sum alpha), from one
    standard-normal draw, whose values are those of one draw per arrow part
    in turn."""
    draw = np.random.default_rng(seed).standard_normal(2 * len(real))
    return 1.0 / math.sqrt(max(1, total)) * (draw[real] + 1j * draw[imag])


def _check_point(dq: DoubleQuiver, alpha: tuple[int, ...], point: Mapping[str, np.ndarray]) -> None:
    for label in point:
        dq.arrow(label)  # a label the double lacks is refused, by name
    for arr in dq.arrows:
        expected = (alpha[arr.target - 1], alpha[arr.source - 1])
        matrix = point.get(arr.label)
        if matrix is None:
            raise ValueError(f"missing matrix for arrow {arr.label!r}")
        if not isinstance(matrix, np.ndarray):
            raise TypeError(
                f"matrix for {arr.label!r} is a {type(matrix).__name__}, not a numpy array"
            )
        if matrix.shape != expected:
            raise ValueError(
                f"matrix for {arr.label!r} has shape {matrix.shape}, expected {expected}"
            )


def moment_eval(q: Quiver, alpha: Sequence[int], point: Mapping[str, np.ndarray]) -> list[np.ndarray]:
    """Vertex blocks of sum_a [V_a, V_a*]; the total trace vanishes up to rounding."""
    dq = double_of(q)
    alpha = as_dim_vector(dq, alpha)
    _check_point(dq, alpha, point)
    blocks = [np.zeros((n, n), dtype=complex) for n in alpha]
    for arr in dq.base_arrows:
        va = point[arr.label]
        vs = point[dq.star(arr.label)]
        blocks[arr.target - 1] += va @ vs
        blocks[arr.source - 1] -= vs @ va
    return blocks


def _check_options(**options: object) -> None:
    """Refuse bad options before any work, with this module's messages: a
    bool anywhere, a seed that is not an int >= 0, a max_iter that is not an
    int >= 1 and a tolerance (any other name) that is not a finite positive
    real."""
    for name, value in options.items():
        if name == "max_iter":
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
                raise ValueError(f"max_iter must be an int >= 1, got {value!r}")
        elif name == "seed":
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise TypeError(f"seed must be an int, got {value!r}")
            if value < 0:
                raise ValueError(f"seed must be >= 0, got {value!r}")
        elif isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise TypeError(f"{name} must be a real number, got {value!r}")
        elif not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value!r}")


def _check_dense_size(alpha: tuple[int, ...], rows: int, rep_dim: int) -> None:
    """Refuse an alpha with m * n > MAX_DENSE_ENTRIES for its m x n Jacobian,
    the largest matrix the dense route of ``solve`` and ``rank_report``
    below 80 rows allocate; on the Kronecker route ``rank_report``
    allocates J only when the Gram's eigenvalues cannot certify the rank.
    The Gram matrix either route forms is min(m, n)-square, and the
    Kronecker route allocates nothing larger."""
    if rows * rep_dim > MAX_DENSE_ENTRIES:
        side = min(rows, rep_dim)
        raise ValueError(
            f"alpha = {alpha} needs a {rows} x {rep_dim} Jacobian and a "
            f"{side} x {side} Gram matrix; the cap is {MAX_DENSE_ENTRIES} entries each"
        )


class _Plan:
    """Index layout of the moment map of one double quiver at one alpha.

    ``arrows`` holds (label, slice of the flat vector, matrix shape) for the
    arrows in ``dq.arrows`` order; ``real`` and ``imag`` place the start
    point's draw (``_draw_order``).  ``products`` holds, for each base arrow
    with nonzero matrices, the row slices of its target and source blocks
    and the slices and shapes of V_a and V_a*.  ``stacks`` holds, per shape
    of product, the indices of its left and right factors, shaped as their
    stacks; ``adds`` holds, in ``products`` order, the target and source
    blocks with the (stack, member) of V_a V_a* and of V_a* V_a.
    ``diagonal`` lists all diagonal rows, block after block, and ``traces``
    holds each block's slice of that list.  J.flat[plus_pos] is
    flat[plus_src] and J.flat[minus_pos] is reduced by flat[minus_src].
    """

    __slots__ = (
        "alpha", "total", "rows", "columns", "arrows", "real", "imag",
        "products", "stacks", "adds", "traces", "diagonal",
        "plus_pos", "plus_src", "minus_pos", "minus_src",
    )

    def __init__(self, dq: DoubleQuiver, alpha: tuple[int, ...]) -> None:
        self.alpha = alpha
        self.total = sum(alpha)
        offsets, diagonal_ends = [0], [0]
        for n in alpha:
            offsets.append(offsets[-1] + n * n)
            diagonal_ends.append(diagonal_ends[-1] + n)
        self.rows = offsets[-1]
        arrows, start = [], 0
        for arr in dq.arrows:
            shape = (alpha[arr.target - 1], alpha[arr.source - 1])
            arrows.append((arr.label, slice(start, start + shape[0] * shape[1]), shape))
            start += shape[0] * shape[1]
        self.arrows = tuple(arrows)
        self.columns = start
        self.real, self.imag = _draw_order([part.stop - part.start for _, part, _ in arrows])
        blocks = [slice(offsets[v], offsets[v + 1]) for v in range(len(alpha))]
        self.traces = tuple(
            slice(diagonal_ends[v], diagonal_ends[v + 1]) for v in range(len(alpha))
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
        # V_a V_a* is added to the target block, V_a* V_a subtracted from
        # the source block
        stacks: dict[tuple[int, int], list] = {}

        def place(left: slice, right: slice, shape: tuple[int, int]) -> tuple[int, int]:
            members = stacks.setdefault(shape, [])
            members.append((left, right))
            return list(stacks).index(shape), len(members) - 1

        self.adds = tuple(
            (target, source, *place(a_slice, s_slice, a_shape), *place(s_slice, a_slice, s_shape))
            for target, source, a_slice, a_shape, s_slice, s_shape in self.products
        )
        self.stacks = tuple(
            (_indices(left for left, _ in members).reshape(len(members), p, k),
             _indices(right for _, right in members).reshape(len(members), k, p))
            for (p, k), members in stacks.items()
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


def _indices(parts: Iterable[slice]) -> np.ndarray:
    """The indices of the slices, one after another."""
    return np.concatenate([np.arange(part.start, part.stop) for part in parts])


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

    One ``matmul`` per stack, added in ``moment_eval``'s order, then one
    pass over the diagonal (module docstring): the per-block route's bits.
    """
    out = np.zeros(plan.rows, dtype=complex)
    products = [(flat[left] @ flat[right]).reshape(len(left), -1) for left, right in plan.stacks]
    for target, source, stack, member, source_stack, source_member in plan.adds:
        out[target] += products[stack][member]
        out[source] -= products[source_stack][source_member]
    if plan.rows:
        diagonal = out[plan.diagonal] - lam_diagonal
        # each trace summed as np.trace sums it, the mean a numpy scalar
        # over an int: reduceat or a Python complex would change the bits
        diagonal -= sum(diagonal[d].sum() for d in plan.traces) / plan.total
        out[plan.diagonal] = diagonal
    return out


def _norm(residual: np.ndarray) -> float:
    """``np.linalg.norm`` of a complex vector, by its own formula."""
    real, imag = residual.real, residual.imag
    return math.sqrt(real.dot(real) + imag.dot(imag))


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


def _gram_of(plan: _Plan) -> Callable[[np.ndarray], np.ndarray]:
    """The function from a flat point to J J^H at it, built from each base
    arrow's Kronecker blocks without J: O(sum n^3 + m^2) work in place of
    O(m^2 n).  Every call overwrites and returns one m x m buffer, allocated
    here with the strided views that the terms are added through.

    With V = V_a (nt x ns), W = V_a* and row-major vectors, the arrow adds
    I (x) W^T conj(W) + V V^H (x) I to its target block, W W^H (x) I +
    I (x) V^T conj(V) to its source block, and -T, T = W^H (x) W^T + V (x)
    conj(V), to the target-source block, T^H to the source-target block; a
    loop adds all four to one block.  In a block of size N at row r,
    ``left[i, j, l]`` is entry (r + i N + j, r + i N + l), where I (x) A
    adds A[j, l], and ``right[i, k, j]`` is entry (r + i N + j, r + k N + j),
    where A (x) I adds A[i, k].  ``outer[i, k, j, l]``, the sum of P[i, k]
    conj(P[j, l]) over P in (V, W^H), is T at row i nt + j, column k ns + l
    of the target-source block, where ``cross[i, k, j, l]`` points; swapping
    (i, k) with (j, l) conjugates it, so it is also T^H at row l ns + k,
    column j nt + i of the source-target block, where ``cross_h[i, k, j, l]``
    points.
    """
    m = plan.rows
    gram = np.zeros((m, m), dtype=complex)

    def view(row: int, column: int, shape: tuple, steps: tuple) -> np.ndarray:
        start = (row * m + column) * gram.itemsize
        return np.ndarray(shape, complex, gram, start, tuple(gram.itemsize * x for x in steps))

    terms = [
        (a_part, (nt, ns), s_part, s_shape, (
            view(t.start, t.start, (nt, nt, nt), (nt * m + nt, m, 1)),
            view(t.start, t.start, (nt, nt, nt), (nt * m, nt, m + 1)),
            view(s.start, s.start, (ns, ns, ns), (ns * m + ns, m, 1)),
            view(s.start, s.start, (ns, ns, ns), (ns * m, ns, m + 1)),
            view(t.start, s.start, (nt, ns, nt, ns), (nt * m, ns, m, 1)),
            view(s.start, t.start, (nt, ns, nt, ns), (1, m, nt, ns * m)),
        ))
        for t, s, a_part, (nt, ns), s_part, s_shape in plan.products
    ]

    def gram_at(flat: np.ndarray) -> np.ndarray:
        gram.fill(0)
        for a_part, a_shape, s_part, s_shape, views in terms:
            t_left, t_right, s_left, s_right, cross, cross_h = views
            v, w = flat[a_part].reshape(a_shape), flat[s_part].reshape(s_shape)
            v_h, w_h = v.conj().T, w.conj().T
            # W^T conj(W) = (W^H W)^T and V^T conj(V) = (V^H V)^T
            t_left += (w_h @ w).T
            t_right += (v @ v_h)[:, :, None]
            s_left += (v_h @ v).T
            s_right += (w @ w_h)[:, :, None]
            pair = np.stack((v, w_h)).reshape(2, -1)
            outer = (pair.T @ pair.conj()).reshape(cross.shape)
            cross -= outer
            cross_h -= outer
        return gram

    return gram_at


def _adjoint(plan: _Plan, flat: np.ndarray, y: np.ndarray) -> np.ndarray:
    """J^H y without J: per base arrow, (Y_t W^H - W^H Y_s, V^H Y_t - Y_s V^H)
    for its V and W = V*, Y_t and Y_s the blocks of y at its target and
    source."""
    out = np.empty(len(flat), dtype=complex)  # an arrow left out has no entries
    for target, source, a_part, a_shape, s_part, s_shape in plan.products:
        v_h = flat[a_part].reshape(a_shape).conj().T
        w_h = flat[s_part].reshape(s_shape).conj().T
        y_t = y[target].reshape(a_shape[0], a_shape[0])
        y_s = y[source].reshape(a_shape[1], a_shape[1])
        out[a_part] = (y_t @ w_h - w_h @ y_s).reshape(-1)
        out[s_part] = (v_h @ y_t - y_s @ v_h).reshape(-1)
    return out


@dataclass
class MomentSolveResult:
    point: RepPoint
    residual_norm: float
    converged: bool
    iterations: int
    seed: int


class RankReport:
    """The rank of d mu at a point, the fiber dimension estimate
    rep_dimension - rank, the descending singular values and ``cut_gap``:
    sigma_r / sigma_{r+1} at the rank cut r (inf if sigma_{r+1} is 0, as at
    every point of rank m - 1 with m <= n, where it is the trace
    direction's); None when r is 0 or every singular value is kept.

    ``RankReport(rank, fiber, values, cut_gap)`` holds its values.  A report
    that ``rank_report`` certified holds the plan, its own copy of the flat
    point and the route instead, and computes the values by the rank rule
    the first time they are read.  Equality and ``repr`` cover all four
    fields, so they read the values.
    """

    __slots__ = ("jacobian_rank", "fiber_dim_estimate", "cut_gap", "_values", "_pending")

    def __init__(
        self,
        jacobian_rank: int,
        fiber_dim_estimate: int,
        singular_values: list[float],
        cut_gap: float | None,
    ) -> None:
        self.jacobian_rank = jacobian_rank
        self.fiber_dim_estimate = fiber_dim_estimate
        self._values = singular_values
        self.cut_gap = cut_gap
        self._pending = None  # (plan, flat, svd_tol, kronecker) until the values are read

    @property
    def singular_values(self) -> list[float]:
        if self._pending is not None:
            self._values, self._pending = _spectrum(*self._pending), None
        return self._values

    def _fields(self) -> tuple:
        return (self.jacobian_rank, self.fiber_dim_estimate, self.singular_values, self.cut_gap)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None  # mutable, as a dataclass with eq

    def __repr__(self) -> str:
        rank, fiber, values, cut_gap = self._fields()
        return (
            f"RankReport(jacobian_rank={rank!r}, fiber_dim_estimate={fiber!r}, "
            f"singular_values={values!r}, cut_gap={cut_gap!r})"
        )


def _uses_kronecker(plan: _Plan) -> bool:
    """Whether ``solve`` steps without the Jacobian (module docstring)."""
    return KRONECKER_MIN_ROWS <= plan.rows <= plan.columns


def _normal_equations(jac: np.ndarray, residual: np.ndarray) -> tuple:
    """The system of the Levenberg-Marquardt step -(J^H J + mu I)^-1 J^H r
    at a Jacobian, for ``_damped_step``.

    With m rows and n columns, m <= n, the push-through identity
    (J^H J + mu I)^-1 J^H = J^H (J J^H + mu I)^-1 gives the step from the
    m x m system, mapped back by J^H; for m > n it comes from the n x n
    normal equations.  The Gram matrix of the smaller side is formed once,
    and each damping trial pays only its LU solve.
    """
    jac_h = jac.conj().T
    if jac.shape[0] <= jac.shape[1]:
        gram = jac @ jac_h
        return gram, gram.diagonal().copy(), -residual, jac_h
    gram = jac_h @ jac
    return gram, gram.diagonal().copy(), -(jac_h @ residual), None


def _kronecker_equations(gram: np.ndarray, residual: np.ndarray) -> tuple:
    """The system of the step for m <= n without the Jacobian: gram = J J^H
    from ``_gram_of``, mapped back by J^H through ``_adjoint``."""
    return gram, gram.diagonal().copy(), -residual, _adjoint


def _damped_step(plan: _Plan, flat: np.ndarray, system: tuple, damping: float) -> np.ndarray:
    """The step at damping mu of a system (G, diag G, b, B): B (G + mu I)^-1 b,
    B being J^H, ``_adjoint`` or, for the n x n normal equations, nothing.

    The diagonal plus mu is written into G's own diagonal instead of into a
    copy, so a damping trial allocates no m x m matrix beyond the one
    ``np.linalg.solve`` copies the system into; the values, and so the
    bits, are those of adding mu to a copy.
    """
    gram, diagonal, rhs, back = system
    np.fill_diagonal(gram, diagonal + damping)
    y = np.linalg.solve(gram, rhs)
    if back is None:
        return y
    if back is _adjoint:
        return _adjoint(plan, flat, y)
    return back @ y


def _gram_rank(plan: _Plan, flat: np.ndarray, svd_tol: float) -> list[float] | None:
    """The singular values of J at flat from the eigenvalues of G = J J^H
    (``_gram_of``), or None where they cannot certify rank m - 1.

    The trace direction u (identity blocks) is an exact kernel vector of the
    computed J, whose column traces cancel bit for bit (module docstring),
    so the rank is at most m - 1 and the exact G has the eigenvalue 0 on u.
    By Weyl's inequality each computed eigenvalue lies within ||E|| + ||F||
    of the exact one, E the rounding of G and F eigvalsh's backward error.
    ||F|| is a modest multiple of eps lambda_max, of order m eps lambda_max.
    G's terms are products of the point's matrices, so ||E|| is of order
    m eps ||x||^2, x the flat vector, whatever J's size: at a loop on a
    vertex of dimension 1, J is exactly 0 and G holds the rounding of
    |x|^2.  ``margin`` = 4 m eps (lambda_max + ||x||^2) allows for both;
    at converged Calogero-Moser points at (4, 8), (5, 10) and (10, 20) the
    eigenvalues differed from the SVD's squared values by at most
    0.18 m eps lambda_max.  So when the second-smallest eigenvalue exceeds
    svd_tol^2 lambda_max + margin, the smallest is u's, every other exact
    eigenvalue lies above the cut, and the values are sqrt(lambda), u's
    exactly 0.0, of which ``_report`` keeps all but u's.  None where the
    stabilizer is larger than the scalars (lower rank), where lambda_max is
    0, where svd_tol^2 lambda_max overflows, where the second eigenvalue
    lies inside the band, and for a single row, which is u itself.
    """
    if plan.rows < 2:
        return None
    eigen = np.linalg.eigvalsh(_gram_of(plan)(flat))
    top = float(eigen[-1])
    cut = svd_tol * svd_tol * top
    margin = 4 * plan.rows * np.finfo(float).eps * (top + float(np.vdot(flat, flat).real))
    if not (top > 0 and math.isfinite(cut) and eigen[1] > cut + margin):
        return None
    return np.sqrt(eigen[:0:-1]).tolist() + [0.0]


def _certified(plan: _Plan, flat: np.ndarray, svd_tol: float) -> bool:
    """Whether one Cholesky factorisation proves that the rank rule reads
    rank m - 1 at flat, fiber n - m + 1 and cut_gap inf, without the values.

    G is ``_gram_of``'s on the Kronecker route, else J J^H, and U = ||G||_F,
    which is at least lambda_max.  With u-hat the normalised trace direction
    (1 / sqrt(sum alpha) on the diagonal rows), H = G - tau I + U u-hat
    u-hat^H, tau = svd_tol^2 U + 5 margin and margin = 4 N eps (U + ||x||^2
    + tr G), x the flat vector: N is m on the Kronecker route and n where G
    sums n-term products of J.  Rank-one interlacing gives
    lambda_1(G + U u-hat u-hat^H) <= lambda_2(G), so if H factorises, every
    eigenvalue of G but the smallest, which ``_report`` drops as u's,
    exceeds tau less the rounding of H and of its factorisation.

    Each of these is within one margin: forming H moves it by at most
    2 eps ||H||_F, and the Cholesky's backward error is at most about
    2 (m + 1) eps tr H <= 2 (m + 1) eps (tr G + U) (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., Thm 10.3, with
    ||R||_F^2 = tr R^H R).  On the Kronecker route G is the matrix
    ``_gram_rank`` reads, and the other three margins cover its test
    eigen[1] > svd_tol^2 lambda_max + 4 m eps (lambda_max + ||x||^2) with
    eigvalsh moving eigen[1] and lambda_max by at most a margin each, as
    ``_gram_rank`` assumes.  Below it, forming J J^H moves G by at most
    about 2 n eps tr G, tr J J^H being ||J||_F^2 (Higham, Thm 3.5), which
    enters twice, and the SVD moves sigma_{m-1} and sigma_1 by of order
    n eps sigma_1; the three margins keep sigma_{m-1} > svd_tol sigma_1
    (``_rank_of``).  False where m < 2, m > n, svd_tol >= 1, U is 0 or
    tau overflows, and where H does not factorise: a lower rank at
    lambda = 0 or a second eigenvalue inside the band.
    """
    m = plan.rows
    if not (2 <= m <= plan.columns and svd_tol < 1):
        return False
    if _uses_kronecker(plan):
        gram, size = _gram_of(plan)(flat), m
    else:
        jac = _jacobian(plan, flat)
        gram, size = jac @ jac.conj().T, plan.columns
    scale = math.sqrt(np.vdot(gram, gram).real)
    margin = 4 * size * np.finfo(float).eps * (
        scale + float(np.vdot(flat, flat).real) + float(gram.trace().real)
    )
    tau = svd_tol * svd_tol * scale + 5 * margin
    if not (scale > 0 and math.isfinite(tau)):
        return False
    entries = gram.reshape(-1)
    entries[(plan.diagonal[:, None] * m + plan.diagonal).reshape(-1)] += scale / plan.total
    entries[:: m + 1] -= tau
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return False
    return True


def _singular_values(jac: np.ndarray) -> list[float]:
    """The SVD's values of a Jacobian, u's set to exactly 0.0 where rows <=
    columns (module docstring)."""
    values = np.linalg.svd(jac, compute_uv=False).tolist() if jac.size else []
    if 0 < jac.shape[0] <= jac.shape[1]:
        values[-1] = 0.0
    return values


def _spectrum(plan: _Plan, flat: np.ndarray, svd_tol: float, kronecker: bool) -> list[float]:
    """The singular values by the rank rule: the Gram's on the Kronecker
    route where they certify rank m - 1, else the SVD's."""
    values = _gram_rank(plan, flat, svd_tol) if kronecker else None
    return _singular_values(_jacobian(plan, flat)) if values is None else values


def _rank_of(jac: np.ndarray, rep_dim: int, svd_tol: float) -> RankReport:
    """The rank report of a Jacobian from its SVD."""
    return _report(_singular_values(jac), rep_dim, svd_tol)


def _report(values: list[float], rep_dim: int, svd_tol: float) -> RankReport:
    """The rank report of descending singular values: those above
    svd_tol * sigma_1 are kept."""
    rank = sum(1 for s in values if s > svd_tol * values[0]) if values else 0
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
    matrices would exceed MAX_DENSE_ENTRIES, a seed that is not an int >= 0,
    a tol that is not finite and positive and a max_iter that is not an
    int >= 1 (a bool is none of these).  Non-convergence is reported in the
    result, not raised.
    """
    _check_options(seed=seed, tol=tol, max_iter=max_iter)
    dq = double_of(q)
    alpha = as_dim_vector(dq, alpha)
    plan = _plan(dq, alpha)
    lam = as_weight(dq, lam)
    pairing = weight_pairing(lam, alpha)
    if pairing != 0:
        raise ValueError(f"weight pairs to {pairing} with {alpha}; the fiber is empty")
    lam_diagonal = _lam_diagonal(lam, alpha)
    flat = _draw(seed, plan.real, plan.imag, plan.total)
    flat += 0.0  # -0.0 becomes 0.0, as in _pack
    damping = 1e-3
    residual = _residual(plan, flat, lam_diagonal)
    norm = _norm(residual)
    gram_at = _gram_of(plan) if _uses_kronecker(plan) else None
    iterations = 0
    while iterations < max_iter and norm > tol:
        iterations += 1
        if gram_at is None:
            system = _normal_equations(_jacobian(plan, flat), residual)
        else:
            system = _kronecker_equations(gram_at(flat), residual)
        accepted = False
        for _ in range(25):
            trial = flat + _damped_step(plan, flat, system, damping)
            trial_residual = _residual(plan, trial, lam_diagonal)
            trial_norm = _norm(trial_residual)
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
    available so borderline thresholding stays auditable, and ``cut_gap``
    says how far apart the last kept and the first dropped value are.  Where
    m <= n the last value, the trace direction's, is exactly 0 (module
    docstring).  Where ``solve`` steps without the Jacobian and the Gram
    certifies rank m - 1, the values are the square roots of its eigenvalues
    (``_gram_rank``); elsewhere they are the SVD's.  Where one Cholesky
    factorisation certifies rank m - 1 (``_certified``), the report computes
    them only when ``singular_values`` is first read, from its own copy of
    the point.  An alpha whose dense matrices would exceed MAX_DENSE_ENTRIES
    is refused, as are tolerances that are not finite and positive.
    """
    _check_options(svd_tol=svd_tol, residual_tol=residual_tol)
    dq = double_of(q)
    alpha = as_dim_vector(dq, alpha)
    plan = _plan(dq, alpha)
    lam_diagonal = _lam_diagonal(as_weight(dq, lam), alpha)
    _check_point(dq, alpha, point)
    flat = _pack(plan, point)  # a copy: later changes to point do not reach it
    norm = _norm(_residual(plan, flat, lam_diagonal))
    if not norm <= residual_tol:  # a NaN residual is not solved either
        raise ValueError(f"point is not solved: residual {norm:.3e} > {residual_tol:.1e}")
    kronecker = _uses_kronecker(plan)
    if not _certified(plan, flat, svd_tol):
        return _report(_spectrum(plan, flat, svd_tol, kronecker), plan.columns, svd_tol)
    report = RankReport(plan.rows - 1, plan.columns - plan.rows + 1, [], math.inf)
    report._pending = (plan, flat, svd_tol, kronecker)
    return report
