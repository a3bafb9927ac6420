"""Floating-point verification layer for the complex moment map.

Solves sum_a [V_a, V_a*] = lambda on representation spaces of the double
quiver by damped Gauss-Newton least squares, then measures the Jacobian rank
at solutions so fiber dimensions can be compared against the exact formulas.
The target space is always the trace-zero block tuple; residuals are
projected onto it by subtracting the mean trace.

The Jacobian is assembled in closed form.  Its rows are the vertex blocks,
alpha_i^2 rows each, row-major; its columns are the matrix entries of the
arrows in ``dq.arrows`` order, each arrow's entries row-major.  Varying V_a
for a base arrow a: s -> t moves block t by H V_a* and block s by -V_a* H,
which in this layout are the Kronecker blocks I (x) V_a*^T and
-(V_a* (x) I); a starred arrow gives V_a (x) I and -(I (x) V_a^T) the same
way.  Each column is the derivative of a sum of commutators: the one entry
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


def _project_trace(blocks: list[np.ndarray], alpha: tuple[int, ...]) -> list[np.ndarray]:
    """Subtract the mean trace from every diagonal, in place."""
    n_total = sum(alpha)
    if n_total == 0:
        return blocks
    mean = sum(np.trace(b) for b in blocks) / n_total
    for b in blocks:
        b.flat[:: len(b) + 1] -= mean
    return blocks


def _residual_vector(
    dq: DoubleQuiver,
    alpha: tuple[int, ...],
    lam_values: list[complex],
    point: Mapping[str, np.ndarray],
) -> np.ndarray:
    blocks = moment_eval(dq, alpha, point)
    for b, lam in zip(blocks, lam_values):
        b.flat[:: len(b) + 1] -= lam
    blocks = _project_trace(blocks, alpha)
    if not blocks:
        return np.zeros(0, dtype=complex)
    return np.concatenate([b.reshape(-1) for b in blocks])


def _check_dense_size(dq: DoubleQuiver, alpha: tuple[int, ...]) -> None:
    """Refuse an alpha with m * n > MAX_DENSE_ENTRIES for its m x n Jacobian,
    the largest matrix allocated; the Gram matrix ``solve`` forms is
    min(m, n)-square."""
    rows = sum(n * n for n in alpha)
    rep_dim = rep_dimension(dq, alpha)
    if rows * rep_dim > MAX_DENSE_ENTRIES:
        side = min(rows, rep_dim)
        raise ValueError(
            f"alpha = {alpha} needs a {rows} x {rep_dim} Jacobian and a "
            f"{side} x {side} Gram matrix; the cap is {MAX_DENSE_ENTRIES} entries each"
        )


def _jacobian(
    dq: DoubleQuiver, alpha: tuple[int, ...], point: Mapping[str, np.ndarray]
) -> np.ndarray:
    """Complex Jacobian of the projected residual; the moment map is holomorphic.

    Rows are the vertex blocks, columns the arrows' entries (module
    docstring).  An arrow with nt x ns matrices and partner matrix P (ns x nt)
    contributes I_nt (x) P^T to the rows of its target and P (x) I_ns to those
    of its source, with the signs of the commutator a a* - a* a.  Both are
    accumulated into zeros, so every entry is 0, +-P[i, j] or, where a loop's
    two blocks share rows, P[i, j] - P[k, l]: bit for bit what differentiating
    one matrix entry at a time gives.  The trace projection is left out: it
    subtracts the mean trace of a column, which is exactly 0.
    """
    offsets = [0]
    for n in alpha:
        offsets.append(offsets[-1] + n * n)
    jac = np.zeros((offsets[-1], rep_dimension(dq, alpha)), dtype=complex)
    column = 0
    for arr in dq.arrows:
        nt, ns = alpha[arr.target - 1], alpha[arr.source - 1]
        columns = slice(column, column + nt * ns)
        column += nt * ns
        if not nt * ns:
            continue
        target = slice(offsets[arr.target - 1], offsets[arr.target])
        source = slice(offsets[arr.source - 1], offsets[arr.source])
        partner = point[dq.star(arr.label)]
        # The two blocks with their identity factor split out (reshaping a
        # slice only splits its axes, so these are views of jac):
        # by_target[r, :, r, :] is diagonal block r of I_nt (x) P^T, and
        # by_source[:, c, :, c] holds P inside P (x) I_ns for each c.
        by_target = jac[target, columns].reshape(nt, nt, nt, ns)
        by_source = jac[source, columns].reshape(ns, ns, nt, ns)
        rt, cs = np.arange(nt), np.arange(ns)
        if dq.is_starred(arr.label):
            by_source[:, cs, :, cs] += partner
            by_target[rt, :, rt, :] -= partner.T
        else:
            by_target[rt, :, rt, :] += partner.T
            by_source[:, cs, :, cs] -= partner
    return jac


def _unpack(dq: DoubleQuiver, alpha: tuple[int, ...], flat: np.ndarray) -> RepPoint:
    point: RepPoint = {}
    offset = 0
    for arr in dq.arrows:
        nt, ns = alpha[arr.target - 1], alpha[arr.source - 1]
        point[arr.label] = flat[offset : offset + nt * ns].reshape((nt, ns))
        offset += nt * ns
    return point


def _pack(dq: DoubleQuiver, point: Mapping[str, np.ndarray]) -> np.ndarray:
    pieces = [np.asarray(point[arr.label], dtype=complex).reshape(-1) for arr in dq.arrows]
    if not pieces:
        return np.zeros(0, dtype=complex)
    return np.concatenate(pieces)


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
    matrices would exceed MAX_DENSE_ENTRIES.  Non-convergence is reported in
    the result, not raised.
    """
    dq = double_of(q)
    alpha = as_dim_vector(dq, alpha)
    _check_dense_size(dq, alpha)
    lam = as_weight(dq, lam)
    pairing = weight_pairing(lam, alpha)
    if pairing != 0:
        raise ValueError(f"weight pairs to {pairing} with {alpha}; the fiber is empty")
    lam_values = [float(x) + 0j for x in lam]
    point = random_rep(dq, alpha, seed)
    flat = _pack(dq, point)
    damping = 1e-3
    residual = _residual_vector(dq, alpha, lam_values, _unpack(dq, alpha, flat))
    norm = float(np.linalg.norm(residual))
    iterations = 0
    while iterations < max_iter and norm > tol:
        iterations += 1
        step = _damped_steps(_jacobian(dq, alpha, _unpack(dq, alpha, flat)), residual)
        accepted = False
        for _ in range(25):
            trial = flat + step(damping)
            trial_residual = _residual_vector(dq, alpha, lam_values, _unpack(dq, alpha, trial))
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
    return MomentSolveResult(_unpack(dq, alpha, flat), norm, converged, iterations, seed)


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
    alpha whose dense matrices would exceed MAX_DENSE_ENTRIES is refused.
    """
    dq = double_of(q)
    alpha = as_dim_vector(dq, alpha)
    _check_dense_size(dq, alpha)
    lam_values = [float(x) + 0j for x in as_weight(dq, lam)]
    residual = _residual_vector(dq, alpha, lam_values, point)
    norm = float(np.linalg.norm(residual))
    if norm > residual_tol:
        raise ValueError(f"point is not solved: residual {norm:.3e} > {residual_tol:.1e}")
    jac = _jacobian(dq, alpha, point)
    if jac.size == 0:
        return RankReport(0, rep_dimension(dq, alpha), [], None)
    singular = np.linalg.svd(jac, compute_uv=False)
    values = [float(s) for s in singular]
    if not values or values[0] == 0.0:
        rank = 0
    else:
        rank = sum(1 for s in values if s > svd_tol * values[0])
    cut_gap = None
    if 0 < rank < len(values):
        cut_gap = values[rank - 1] / values[rank] if values[rank] else math.inf
    return RankReport(rank, rep_dimension(dq, alpha) - rank, values, cut_gap)
