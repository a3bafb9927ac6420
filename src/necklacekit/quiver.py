"""Quivers, double quivers, and the integer bilinear forms attached to them.

Vertices are numbered 1..k in all public interfaces.  Arrows carry string
labels; the trailing ``*`` is reserved for the reversed arrows of a double
quiver, so user labels may not end in it.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence, TypeVar

STAR = "*"

IntMatrix = tuple[tuple[int, ...], ...]
DimVector = tuple[int, ...]
Weight = tuple[Fraction, ...]
T = TypeVar("T")

WORK_CAP = 250_000


class QuiverError(ValueError):
    """Invalid quiver data (labels, vertex indices, doubling structure)."""


class _Steps:
    """The steps one public call of ``paths``, ``forms``, ``roots`` or
    ``strata`` that enumerates has left of ``WORK_CAP``, the one budget."""

    __slots__ = ("left",)

    def __init__(self) -> None:
        self.left = WORK_CAP

    def spend(self, count: int = 1) -> None:
        self.left -= count
        if self.left < 0:
            raise ValueError(f"the computation needs more than {WORK_CAP} steps")


@dataclass(frozen=True)
class Arrow:
    label: str
    source: int
    target: int

    def __str__(self) -> str:
        return f"{self.label}:{self.source}->{self.target}"


@dataclass(frozen=True)
class Quiver:
    """Finite directed multigraph with labelled arrows on vertices 1..k."""

    vertex_count: int
    arrows: tuple[Arrow, ...]

    def __post_init__(self) -> None:
        if self.vertex_count < 1:
            raise QuiverError("vertex count must be a positive integer")
        object.__setattr__(self, "arrows", tuple(self.arrows))
        seen: set[str] = set()
        for arr in self.arrows:
            if arr.label in seen:
                raise QuiverError(f"duplicate arrow label {arr.label!r}")
            seen.add(arr.label)
            self._check_label(arr.label)
            for v in (arr.source, arr.target):
                if not 1 <= v <= self.vertex_count:
                    raise QuiverError(
                        f"arrow {arr.label!r}: vertex {v} out of range 1..{self.vertex_count}"
                    )
        object.__setattr__(self, "_by_label", {a.label: a for a in self.arrows})

    @staticmethod
    def _check_label(label: str) -> None:
        if not label or label.startswith("e") and label[1:].isdigit():
            raise QuiverError(f"label {label!r} collides with trivial-path syntax e<i>")
        if label.endswith(STAR):
            raise QuiverError(f"label {label!r} ends in the reserved star suffix")
        if any(ch.isspace() or ch == "," for ch in label):
            raise QuiverError(f"label {label!r} contains whitespace or a comma")

    def __hash__(self) -> int:
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.vertex_count, self.arrows, type(self).__name__))
            object.__setattr__(self, "_hash", h)
        return h

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Quiver):
            return NotImplemented
        return (
            type(self).__name__ == type(other).__name__
            and self.vertex_count == other.vertex_count
            and self.arrows == other.arrows
        )

    @property
    def vertices(self) -> range:
        return range(1, self.vertex_count + 1)

    def arrow(self, label: str) -> Arrow:
        try:
            return self._by_label[label]
        except KeyError:
            raise QuiverError(f"unknown arrow label {label!r}") from None

    def arrow_count(self, source: int, target: int) -> int:
        return sum(1 for a in self.arrows if a.source == source and a.target == target)

    def loops_at(self, vertex: int) -> int:
        return self.arrow_count(vertex, vertex)

    def is_loop_free(self, vertex: int) -> bool:
        return self.loops_at(vertex) == 0


@dataclass(frozen=True, eq=False)
class DoubleQuiver(Quiver):
    """A quiver together with a reversed starred arrow for each base arrow.

    The star map sends a base arrow ``a`` to ``a*`` and back; it is a
    fixed-point-free involution swapping sources and targets.
    """

    base: Quiver = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.base is None:
            raise QuiverError("DoubleQuiver requires its base quiver; use double()")
        super().__post_init__()
        if self.arrows != _doubled_arrows(self.base):
            raise QuiverError("arrows do not match the doubling of the base quiver")

    @staticmethod
    def _check_label(label: str) -> None:
        if label.endswith(STAR):
            base_label = label[:-1]
            if not base_label or base_label.endswith(STAR):
                raise QuiverError(f"malformed starred label {label!r}")
            return
        Quiver._check_label(label)

    def star(self, label: str) -> str:
        """Return the label of the reversed partner arrow."""
        self.arrow(label)
        return label[:-1] if label.endswith(STAR) else label + STAR

    def is_starred(self, label: str) -> bool:
        self.arrow(label)
        return label.endswith(STAR)

    @property
    def base_arrows(self) -> tuple[Arrow, ...]:
        return self.base.arrows


def _doubled_arrows(q: Quiver) -> tuple[Arrow, ...]:
    """Each arrow of ``q`` followed by its reversed partner labelled with a star."""
    return tuple(
        arr for a in q.arrows for arr in (a, Arrow(a.label + STAR, a.target, a.source))
    )


def double(q: Quiver) -> DoubleQuiver:
    """Adjoin to every arrow of ``q`` a reversed arrow labelled with a star."""
    if isinstance(q, DoubleQuiver):
        raise QuiverError("cannot double a quiver that is already a double")
    return DoubleQuiver(q.vertex_count, _doubled_arrows(q), base=q)


def _per_instance(slot: str) -> Callable[[Callable[[Quiver], T]], Callable[[Quiver], T]]:
    """Decorator for a function of one quiver: its value is built on the
    first call for each quiver instance and stored on that instance under
    ``slot``, like its hash, so it is released with the instance."""

    def decorate(build: Callable[[Quiver], T]) -> Callable[[Quiver], T]:
        @functools.wraps(build)
        def stored(q: Quiver) -> T:
            value = q.__dict__.get(slot)
            if value is None:
                value = build(q)
                object.__setattr__(q, slot, value)
            return value

        return stored

    return decorate


def double_of(q: Quiver) -> DoubleQuiver:
    """``q`` itself if it is already a double quiver, otherwise ``double(q)``.

    The double of a base quiver is built once per instance and stored on it,
    like its Euler form; ``double`` always builds a fresh one.
    """
    return q if isinstance(q, DoubleQuiver) else _double_of_base(q)


@_per_instance("_double")
def _double_of_base(q: Quiver) -> DoubleQuiver:
    return double(q)


@_per_instance("_euler_form")
def euler_form(q: Quiver) -> IntMatrix:
    """Matrix with (i, j) entry delta_ij minus the number of arrows i -> j.

    Computed once per quiver instance and stored on it, like its hash.
    """
    chi = [[int(i == j) for j in q.vertices] for i in q.vertices]
    for arr in q.arrows:
        chi[arr.source - 1][arr.target - 1] -= 1
    return tuple(map(tuple, chi))


@_per_instance("_tits_form")
def tits_form(q: Quiver) -> IntMatrix:
    """Symmetrization of the Euler form: euler_form(q) plus its transpose.

    Computed once per quiver instance and stored on it, like its hash.
    """
    chi = euler_form(q)
    k = q.vertex_count
    return tuple(tuple(chi[i][j] + chi[j][i] for j in range(k)) for i in range(k))


def bilinear(matrix: Sequence[Sequence], alpha: Sequence, beta: Sequence):
    """Evaluate sum_ij M_ij alpha_i beta_j; exact for int/Fraction inputs."""
    k = len(matrix)
    if len(alpha) != k or len(beta) != k:
        raise ValueError(
            f"length mismatch: matrix is {k}x{k}, vectors have lengths "
            f"{len(alpha)} and {len(beta)}"
        )
    total = 0
    for i in range(k):
        row = matrix[i]
        ai = alpha[i]
        if ai:
            total += ai * sum(row[j] * beta[j] for j in range(k))
    return total


def num_parameters(q: Quiver, alpha: Sequence[int]) -> int:
    """The quantity p(alpha) = 1 - chi(alpha, alpha) entering the root
    inequalities, for an integer vector of the quiver's length (entries of
    either sign)."""
    alpha = _of_length(q, alpha)
    return 1 - bilinear(euler_form(q), alpha, alpha)


def _integral(entries: Iterable[int]) -> DimVector:
    """The entries as ints, refusing any x with int(x) != x."""
    given = tuple(entries)
    if (vec := tuple(map(int, given))) != given:
        raise ValueError(f"dimension vector {given} has a non-integer entry")
    return vec


def _of_length(q: Quiver, entries: Iterable[int]) -> DimVector:
    """The entries as ints (``_integral``), one per vertex of q."""
    vec = _integral(entries)
    if len(vec) != q.vertex_count:
        raise ValueError(f"dimension vector has length {len(vec)}, expected {q.vertex_count}")
    return vec


def as_dim_vector(q: Quiver, entries: Iterable[int]) -> DimVector:
    vec = _of_length(q, entries)
    if any(x < 0 for x in vec):
        raise ValueError(f"dimension vector {vec} has a negative entry")
    return vec


def as_weight(q: Quiver, entries: Iterable) -> Weight:
    """The entries as exact Fractions, one per vertex of q, refusing a NaN
    or an infinity."""
    given = tuple(entries)
    try:
        vec = tuple(map(Fraction, given))
    except (OverflowError, ValueError):
        if any(x != x or x in (math.inf, -math.inf) for x in given):
            raise ValueError(f"weight {given} has a non-finite entry") from None
        raise
    if len(vec) != q.vertex_count:
        raise ValueError(f"weight has length {len(vec)}, expected {q.vertex_count}")
    return vec


def weight_pairing(lam: Sequence, alpha: Sequence[int]) -> Fraction:
    """Exact dot product lambda . alpha."""
    if len(lam) != len(alpha):
        raise ValueError("weight and dimension vector have different lengths")
    return sum((Fraction(l) * a for l, a in zip(lam, alpha)), Fraction(0))


def componentwise_leq(beta: Sequence[int], alpha: Sequence[int]) -> bool:
    return all(b <= a for b, a in zip(beta, alpha))


def componentwise_lt(beta: Sequence[int], alpha: Sequence[int]) -> bool:
    """beta <= alpha componentwise and beta != alpha."""
    return componentwise_leq(beta, alpha) and tuple(beta) != tuple(alpha)


def support_connected(q: Quiver, alpha: Sequence[int]) -> bool:
    """Whether the vertices with alpha_i > 0 induce a connected undirected subgraph."""
    alpha = _integral(alpha)
    if len(alpha) != q.vertex_count:
        raise ValueError("dimension vector length does not match the quiver")
    support = {i for i in q.vertices if alpha[i - 1] > 0}
    if not support:
        raise ValueError("support of the zero vector is undefined")
    adjacency: dict[int, set[int]] = {v: set() for v in support}
    for arr in q.arrows:
        if arr.source in support and arr.target in support:
            adjacency[arr.source].add(arr.target)
            adjacency[arr.target].add(arr.source)
    seen = set()
    stack = [next(iter(support))]
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        stack.extend(adjacency[v] - seen)
    return seen == support
