"""Classification of (dimension vector, weight) pairs for deformed
preprojective algebras: roots on the weight hyperplane, the flatness and
simple-representation sets cut out by the p-value inequalities, minimality
and the coadjoint-orbit verdict, representation types, local quivers from
Ext^1 counts, and the Luna-slice smoothness checks.

Membership conventions:

* decompositions always have at least two parts; a one-part "decomposition"
  would make the strict inequality vacuously false for every vector and
  empty the simple-representation set;
* membership additionally requires the vector itself to be a positive root
  with zero pairing against the weight, which is forced on representations
  by the trace of the deformed relation;
* "minimal" is with respect to the componentwise partial order.

Every public function answers membership questions from one memoised table
per call over the box 0 < beta <= alpha for a fixed (quiver, weight) pair
(``_SigmaTable``), whose work grows with the roots of the box and the
strict members among them, not with the box:

* the roots are grown from the unit vectors of the box (``roots._grow_roots``),
  each with its p-value, and a vector's root class is found by its own
  descent only when its membership is reported; minimality and the
  representation types read the list of hyperplane roots;
* strictness is decided once per hyperplane root, in ascending lex order,
  and the largest p-value sum over the decompositions of each remainder
  once, over the strict members decided so far that cover its first
  nonzero coordinate, which loses nothing (see ``_SigmaTable``); unit
  vectors are no such members, as at a vertex of zero weight they only
  fill what the others leave of its coordinate;
* a witness is built only for a vector whose membership is reported, by a
  descent in enumeration order over the weak members below it, which those
  sums prune so that it never backtracks; minimality, types and the
  doubled-simple check ask the strict verdict alone.

``classify`` builds one table and runs the whole pipeline on it;
``two_alpha_nonsmooth`` called on its own adds a second one over the box of
2 alpha once alpha passes.  Every public call may take at most
``quiver.WORK_CAP`` steps, one budget shared by its tables, counted as in
``roots`` and here per strict member scanned and per remainder taken by
``_SigmaTable._best_sum``, per part and multiplicity tried by
``_sum_multisets`` (witnesses and types), z^2 per type of z simples for its
Ext^1 counts, and, in ``local_quiver``, per arrow of the quiver it hands out
(a type's local quiver is built only when its ``quiver`` is read, and
``classify`` reads only the counts); a call that needs more is refused with
a ``ValueError``.  The enumeration of every decomposition and the column
recurrence over every hyperplane root that the table replaced, the routes
the tests check it against, live in ``tests/oracles.py``.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from operator import le, sub
from typing import Callable, Iterator, Sequence

from .quiver import (
    Arrow,
    DimVector,
    Quiver,
    Weight,
    _Steps,
    as_dim_vector,
    as_weight,
    bilinear,
    componentwise_leq,
    componentwise_lt,
    num_parameters,
    tits_form,
)
from .roots import RootClass, _descend, _grow_roots

Decomposition = tuple[tuple[DimVector, int], ...]
"""Multiset of (part, multiplicity) pairs, parts in descending lex order."""

RepType = tuple[tuple[int, DimVector], ...]
"""Semisimple type: (multiplicity, dimension vector) pairs, parts descending."""


def delta_lambda(q: Quiver, lam: Sequence, bound: Sequence[int]) -> list[DimVector]:
    """Positive roots beta <= bound with exact pairing lambda . beta = 0."""
    return _SigmaTable(q, lam, bound).hyperplane_roots()


def _sum_multisets(
    parts: list[DimVector],
    target: DimVector,
    steps: _Steps,
    bound: Callable[[DimVector, list], bool] | None = None,
) -> Iterator[tuple[tuple[DimVector, int], ...]]:
    """The multisets of parts summing to target, the parts in descending lex
    order: each part's multiplicities are tried from the largest down to 0,
    in the order of the parts.

    In that order the first nonzero coordinate of a part never moves left,
    so once it passes the first nonzero coordinate of what is left to cover,
    no later part covers that coordinate and the branch is dropped.  A
    branch is also dropped when ``bound(rest, chosen)``, given what is left
    and the (part, multiplicity) pairs chosen so far, is False.  Each part
    tried and each of its multiplicities spends a step.
    """
    k = len(target)

    def rec(start: int, remaining: tuple[int, ...], acc: list):
        lead = next((i for i, r in enumerate(remaining) if r), None)
        if lead is None:
            yield tuple(acc)
            return
        for index in range(start, len(parts)):
            beta = parts[index]
            if not any(beta[: lead + 1]):
                return
            top = min(
                (remaining[i] // beta[i] for i in range(k) if beta[i] > 0), default=0
            )
            steps.spend(1 + top)
            for mult in range(top, 0, -1):
                rest = tuple(remaining[i] - mult * beta[i] for i in range(k))
                acc.append((beta, mult))
                if bound is None or bound(rest, acc):
                    yield from rec(index + 1, rest, acc)
                acc.pop()

    yield from rec(0, target, [])


def parameter_sum(q: Quiver, decomposition: Decomposition) -> int:
    """Sum of multiplicity-weighted p-values over the parts."""
    return sum(mult * num_parameters(q, beta) for beta, mult in decomposition)


@dataclass(frozen=True)
class SigmaMembership:
    """Verdict for the weak (flatness) and strict (simple) inequalities.

    When a verdict is negative the witness is a decomposition realizing the
    failure; when the vector is not a hyperplane root both verdicts are
    False and ``reason`` says why.
    """

    alpha: DimVector
    in_s: bool
    in_sigma: bool
    root_class: RootClass | None = None
    on_hyperplane: bool = True
    p_alpha: int | None = None
    witness_s: Decomposition | None = None
    witness_sigma: Decomposition | None = None
    reason: str = ""


class _SigmaTable:
    """Membership in the weak and strict sets for the vectors 0 < beta <= box.

    The hyperplane roots and their p-values come from the roots of the box
    grown from its unit vectors (``roots._grow_roots``), a vector's root class
    from its own descent (``roots._descend``).  ``strict_members`` decides
    strictness once per hyperplane root, in ascending lex order, by its
    split: the largest p-value sum over the decompositions of beta into two
    or more hyperplane roots.  Splits and the sums of what is left come from
    one memoised best sum (``_best_sum``), taken over the strict members that
    are not unit vectors and cover the first nonzero coordinate i, with the
    unit vectors as one more option when lambda_i = 0: e_i fills the whole of
    coordinate i.  That loses nothing: a hyperplane root outside the strict
    set has a decomposition whose p-values sum to at least its own, so
    putting one in its place never lowers a sum (Crawley-Boevey 2001), and
    the parts covering coordinate i are then strict, so either one of them
    is not a unit vector or all are e_i.  A witness, the first decomposition
    reaching the largest sum in the enumeration order of ``_sum_multisets``
    over every hyperplane root below alpha, is built only by ``membership``,
    over the weak members alone, read off the splits the strict pass kept.
    Everything is computed on first use, spending from ``steps``, a new
    budget unless one is given.
    """

    def __init__(
        self, q: Quiver, lam: Sequence, box: DimVector, steps: _Steps | None = None
    ) -> None:
        self.q = q
        self.lam = as_weight(q, lam)
        self.box = as_dim_vector(q, box)
        self.steps = _Steps() if steps is None else steps
        scale = math.lcm(*(l.denominator for l in self.lam))
        self._scaled_lam = tuple(int(l * scale) for l in self.lam)
        self._roots: list[DimVector] | None = None
        self._p: dict[DimVector, int] = {}
        self._strict: set[DimVector] | None = None
        self._members: list[DimVector] = []
        self._splits: dict[DimVector, int | None] = {}
        k = len(self.box)
        self._best: dict[DimVector, int | None] = {(0,) * k: 0}
        self._units = [(0,) * i + (1,) + (0,) * (k - 1 - i) for i in range(k)]

    def on_hyperplane(self, vec: DimVector) -> bool:
        return sum(l * v for l, v in zip(self._scaled_lam, vec)) == 0

    def root_class(self, vec: DimVector) -> RootClass:
        return _descend(self.q, vec, self.steps)

    def hyperplane_roots(self) -> list[DimVector]:
        """The hyperplane roots of the box, ascending lex."""
        if self._roots is None:
            grown = _grow_roots(self.q, self.box, self.steps)
            self._roots = sorted(filter(self.on_hyperplane, grown))
            self._p = {beta: grown[beta][0] for beta in self._roots}
        return self._roots

    def parts(self) -> list[DimVector]:
        """The hyperplane roots of the box, descending lex."""
        return self.hyperplane_roots()[::-1]

    def strict_members(self) -> set[DimVector]:
        """The strict members of the box, decided in ascending lex order.  A
        unit vector is strict and has no split; any other beta's split is
        ``_best_sum(beta)``, taken before beta joins the members, and beta is
        strict when it is None or below p(beta).  Every root that fits in a
        vector precedes it in lex order, so the members listed so far are
        all those a split needs."""
        if self._strict is None:
            strict, roots = set(), self.hyperplane_roots()
            p = self._p
            for beta in roots:
                unit = sum(beta) == 1
                split = self._splits[beta] = None if unit else self._best_sum(beta)
                if split is None or p[beta] > split:
                    strict.add(beta)
                    self._best[beta] = p[beta]
                    if not unit:
                        self._members.append(beta)
            self._strict = strict
        return self._strict

    def in_sigma(self, vec: DimVector) -> bool:
        """Whether vec satisfies the strict inequalities."""
        return vec in self.strict_members()

    def _best_sum(self, rest: DimVector) -> int | None:
        """The largest p-value sum over the decompositions of rest into one
        or more hyperplane roots, None when there is none, over the members
        listed so far.  With i the first nonzero coordinate of a vector, its
        options are a listed member gamma that fits in it, with the best sum
        of what is left, and, when lambda_i = 0, its i-th coordinate filled
        with unit vectors, each worth the loop count p(e_i), with the best
        sum of the rest.  The members that fit have lead i and lie between
        e_i and the vector in lex order.  Evaluated from an explicit stack,
        so a box of any height needs no deep recursion; a vector spends a
        step per member scanned and per remainder."""
        best, p, members, spend = self._best, self._p, self._members, self.steps.spend
        stack = [[rest, None]]
        while stack:
            frame = stack[-1]
            vec, options = frame
            if vec in best:
                stack.pop()
            elif options is None:
                i = next(i for i, v in enumerate(vec) if v)
                unit = self._units[i]
                block = members[bisect_left(members, unit) : bisect_right(members, vec)]
                fits = [gamma for gamma in block if all(map(le, gamma, vec))]
                loops = p.get(unit)
                spend(len(block) + len(fits) + (loops is not None))
                options = frame[1] = [(p[gamma], tuple(map(sub, vec, gamma))) for gamma in fits]
                if loops is not None:
                    options.append((vec[i] * loops, vec[:i] + (0,) + vec[i + 1 :]))
                stack.extend([left, None] for _, left in options if left not in best)
            else:
                sums = [gain + best[left] for gain, left in options if best[left] is not None]
                best[vec] = max(sums, default=None)
                stack.pop()
        return best[rest]

    def membership(self, alpha: DimVector) -> SigmaMembership:
        if not any(alpha):
            return SigmaMembership(alpha, False, False, None, True, None, reason="zero vector")
        root_class = self.root_class(alpha)
        on_hyperplane = self.on_hyperplane(alpha)
        if not root_class.is_root or not on_hyperplane:
            reason = "not a root" if not root_class.is_root else "nonzero pairing with the weight"
            return SigmaMembership(
                alpha, False, False, root_class, on_hyperplane, None, reason=reason
            )
        self.strict_members()
        p_alpha = self._p[alpha]
        in_s, in_sigma = True, True
        witness_s = witness_sigma = None
        worst = self._splits[alpha]
        if worst is not None and p_alpha <= worst:
            decomposition = self._witness(alpha, worst)
            in_sigma, witness_sigma = False, decomposition
            if p_alpha < worst:
                in_s, witness_s = False, decomposition
        return SigmaMembership(
            alpha,
            in_s,
            in_sigma,
            root_class,
            on_hyperplane,
            p_alpha,
            witness_s,
            witness_sigma,
        )

    def _witness(self, alpha: DimVector, worst: int) -> Decomposition:
        """The first decomposition of alpha that reaches the sum worst, in the
        order of ``_sum_multisets`` over the hyperplane roots below alpha.

        Only the weak members below alpha are passed on, which loses no such
        decomposition: a part beta with split(beta) > p(beta) is in none,
        since its best split in its place would raise the sum past worst.
        A branch is dropped once its sum plus ``_best_sum`` of what is left
        falls below worst, and a branch that passes always completes: a
        decomposition reaching worst that contains the parts chosen so far
        and comes earlier in the order would already have been yielded.  So
        the search never backtracks, and the first decomposition completed
        has sum worst, and none before it in the order has."""
        splits, p = self._splits, self._p
        parts = [
            beta
            for beta in self.parts()
            if componentwise_lt(beta, alpha) and (splits[beta] is None or splits[beta] <= p[beta])
        ]

        def reaches(rest: DimVector, chosen: list) -> bool:
            best = self._best_sum(rest)
            total = sum(mult * p[beta] for beta, mult in chosen)
            return best is not None and total + best >= worst

        return next(_sum_multisets(parts, alpha, self.steps, bound=reaches))


def sigma_membership(q: Quiver, alpha: Sequence[int], lam: Sequence) -> SigmaMembership:
    """Test the defining inequalities over every decomposition of alpha."""
    alpha = as_dim_vector(q, alpha)
    return _SigmaTable(q, lam, alpha).membership(alpha)


def minimal_in_sigma(
    q: Quiver,
    alpha: Sequence[int],
    lam: Sequence,
) -> tuple[bool, DimVector | None]:
    """Whether no strictly smaller nonzero vector satisfies the strict inequalities."""
    alpha = as_dim_vector(q, alpha)
    return _minimal_in_sigma(_SigmaTable(q, lam, alpha), alpha)


def _minimal_in_sigma(table: _SigmaTable, alpha: DimVector) -> tuple[bool, DimVector | None]:
    if not table.in_sigma(alpha):
        raise ValueError(f"{alpha} does not satisfy the strict inequalities")
    for beta in table.hyperplane_roots():
        if componentwise_lt(beta, alpha) and table.in_sigma(beta):
            return False, beta
    return True, None


@dataclass(frozen=True)
class CoadjointVerdict:
    alpha: DimVector
    coadjoint: bool
    reason: str
    membership: SigmaMembership
    minimal: bool | None = None
    minimal_witness: DimVector | None = None
    dim_fiber: int | None = None
    dim_quotient: int | None = None


def coadjoint_verdict(q: Quiver, alpha: Sequence[int], lam: Sequence) -> CoadjointVerdict:
    """Coadjoint-orbit test: strict membership plus componentwise minimality.

    When the vector satisfies the strict inequalities the verdict carries the
    fiber dimension 1 + alpha.alpha - 2 chi(alpha, alpha) = alpha.alpha - 1 +
    2p(alpha) and the quotient dimension 2 - T(alpha, alpha) = 2p(alpha).
    """
    alpha = as_dim_vector(q, alpha)
    return _coadjoint_verdict(_SigmaTable(q, lam, alpha), alpha)


def _coadjoint_verdict(table: _SigmaTable, alpha: DimVector) -> CoadjointVerdict:
    membership = table.membership(alpha)
    if not membership.in_sigma:
        reason = membership.reason or "strict inequality fails"
        return CoadjointVerdict(alpha, False, reason, membership)
    dim_quotient = 2 * membership.p_alpha
    dim_fiber = sum(a * a for a in alpha) - 1 + dim_quotient
    minimal, witness = _minimal_in_sigma(table, alpha)
    if not minimal:
        return CoadjointVerdict(
            alpha,
            False,
            f"not minimal: {witness} is a smaller member",
            membership,
            minimal,
            witness,
            dim_fiber,
            dim_quotient,
        )
    return CoadjointVerdict(
        alpha, True, "minimal member", membership, True, None, dim_fiber, dim_quotient
    )


def rep_types(q: Quiver, alpha: Sequence[int], lam: Sequence) -> list[RepType]:
    """All semisimple types: multisets of strict members summing to alpha."""
    alpha = as_dim_vector(q, alpha)
    return _rep_types(_SigmaTable(q, lam, alpha), alpha)


def _rep_types(table: _SigmaTable, alpha: DimVector) -> list[RepType]:
    if not any(alpha):
        return []  # the zero vector has no types, whatever the weight
    fits = (beta for beta in table.parts() if componentwise_leq(beta, alpha))
    simples = [beta for beta in fits if table.in_sigma(beta)]
    out = []
    for multiset in _sum_multisets(simples, alpha, table.steps):
        out.append(tuple((mult, beta) for beta, mult in multiset))
    return out


def ext1_dim(q: Quiver, beta_i: Sequence[int], beta_j: Sequence[int], same_simple: bool) -> int:
    """Ext^1 dimension between simple modules from their dimension vectors:
    2 - T(b, b) for a simple against itself, -T(b_i, b_j) for distinct ones."""
    beta_i, beta_j = _simple(q, beta_i), _simple(q, beta_j)
    if same_simple and beta_i != beta_j:
        raise ValueError(f"one simple cannot have the dimension vectors {beta_i} and {beta_j}")
    return _ext1_dim(q, beta_i, beta_j, same_simple)


def _ext1_dim(q: Quiver, beta_i: DimVector, beta_j: DimVector, same_simple: bool) -> int:
    value = bilinear(tits_form(q), beta_i, beta_j)
    count = 2 - value if same_simple else -value
    if count < 0:
        raise ValueError(
            f"negative self-extension count {count}; {beta_i}, {beta_j} "
            "are not dimension vectors of distinct simples"
        )
    return count


def _simple(q: Quiver, beta: Sequence[int]) -> DimVector:
    """beta as the dimension vector of a simple: ``as_dim_vector``, nonzero."""
    beta = as_dim_vector(q, beta)
    if not any(beta):
        raise ValueError("the zero vector is not the dimension vector of a simple")
    return beta


def _checked_type(q: Quiver, rep_type: RepType) -> RepType:
    """A semisimple type given from outside: at least one part, each
    multiplicity an integer >= 1 and each part the dimension vector of a
    simple (``_simple``)."""
    if not rep_type:
        raise ValueError("a semisimple type has at least one part")
    checked = []
    for mult, beta in rep_type:
        if int(mult) != mult or mult < 1:
            raise ValueError(f"multiplicity {mult!r} is not an integer >= 1")
        checked.append((int(mult), _simple(q, beta)))
    return tuple(checked)


@dataclass(frozen=True)
class LocalQuiverSetting:
    """Quiver on the simple factors with Ext^1 counts as arrow multiplicities,
    built from the counts when ``quiver`` is first read."""

    dim_vector: DimVector
    ext_matrix: tuple[tuple[int, ...], ...]

    @cached_property
    def quiver(self) -> Quiver:
        arrows = [
            Arrow(f"u{i + 1}_{j + 1}_{m + 1}", i + 1, j + 1)
            for i, row in enumerate(self.ext_matrix)
            for j, count in enumerate(row)
            for m in range(count)
        ]
        return Quiver(len(self.ext_matrix), tuple(arrows))


def local_quiver(q: Quiver, rep_type: RepType) -> LocalQuiverSetting:
    """Assemble the local quiver of a semisimple type from the Ext^1 counts,
    spending a step per arrow of the quiver it hands out."""
    steps = _Steps()
    setting = _local_quiver(q, _checked_type(q, rep_type), steps)
    steps.spend(sum(map(sum, setting.ext_matrix)))
    return setting


def _local_quiver(q: Quiver, rep_type: RepType, steps: _Steps) -> LocalQuiverSetting:
    """The Ext^1 counts of a type of z simples, for z^2 steps; the local
    quiver's arrows are built only when its ``quiver`` is read."""
    z = len(rep_type)
    steps.spend(z * z)
    ext = tuple(
        tuple(_ext1_dim(q, rep_type[i][1], rep_type[j][1], same_simple=(i == j)) for j in range(z))
        for i in range(z)
    )
    return LocalQuiverSetting(tuple(mult for mult, _ in rep_type), ext)


@dataclass(frozen=True)
class SliceCheck:
    smooth: bool
    lhs: int
    rhs: int


def slice_smooth_check(
    q: Quiver,
    rep_type: RepType,
    alpha: Sequence[int],
    lam: Sequence,
) -> SliceCheck:
    """Luna-slice dimension count for the undeformed algebra.

    Compares alpha.alpha + sum(e_i^2) - T(alpha, alpha) against
    alpha.alpha + 1 - T(alpha, alpha); the slice is smooth exactly when the
    multiplicity vector is a single 1.  The right-hand side equals the
    dimension of the representation scheme only when alpha satisfies the
    weak inequalities; the counts themselves are defined regardless.
    """
    alpha = as_dim_vector(q, alpha)
    lam = as_weight(q, lam)
    if any(l != 0 for l in lam):
        raise ValueError("the slice count applies to the zero weight only")
    rep_type = _checked_type(q, rep_type)
    total = [0] * q.vertex_count
    for mult, beta in rep_type:
        for i, b in enumerate(beta):
            total[i] += mult * b
    if tuple(total) != alpha:
        raise ValueError(f"type sums to {tuple(total)}, not {alpha}")
    return _slice_check(q, rep_type, alpha)


def _slice_check(q: Quiver, rep_type: RepType, alpha: DimVector) -> SliceCheck:
    """The slice counts of a type summing to alpha."""
    dot = sum(a * a for a in alpha)
    t_value = bilinear(tits_form(q), alpha, alpha)
    lhs = dot + sum(mult * mult for mult, _ in rep_type) - t_value
    rhs = dot + 1 - t_value
    return SliceCheck(lhs == rhs, lhs, rhs)


@dataclass(frozen=True)
class TwoAlphaCheck:
    applies: bool
    alpha: DimVector
    lhs: int | None = None
    rhs: int | None = None
    smooth: bool | None = None
    reason: str = ""


def two_alpha_nonsmooth(q: Quiver, alpha: Sequence[int], lam: Sequence) -> TwoAlphaCheck:
    """Slice count at a squared simple: 4 a.a + 4 - 4 T(a,a) vs 4 a.a + 1 - 4 T(a,a).

    Applies when both alpha and 2 alpha satisfy the strict inequalities; the
    two counts always differ by 3, so the doubled representation space is
    never smooth there.
    """
    alpha = as_dim_vector(q, alpha)
    return _two_alpha_nonsmooth(_SigmaTable(q, lam, alpha), alpha)


def _two_alpha_nonsmooth(table: _SigmaTable, alpha: DimVector) -> TwoAlphaCheck:
    double_alpha = tuple(2 * a for a in alpha)
    if not table.in_sigma(alpha):
        return TwoAlphaCheck(False, alpha, reason=f"{alpha} fails the strict inequalities")
    if not componentwise_leq(double_alpha, table.box):
        table = _SigmaTable(table.q, table.lam, double_alpha, table.steps)
    if not table.in_sigma(double_alpha):
        return TwoAlphaCheck(
            False, alpha, reason=f"{double_alpha} fails the strict inequalities"
        )
    dot = sum(a * a for a in alpha)
    t_value = bilinear(tits_form(table.q), alpha, alpha)
    lhs = 4 * dot + 4 - 4 * t_value
    rhs = 4 * dot + 1 - 4 * t_value
    return TwoAlphaCheck(True, alpha, lhs, rhs, lhs == rhs)


@dataclass(frozen=True)
class TypeReport:
    rep_type: RepType
    local: LocalQuiverSetting
    slice_check: SliceCheck | None


@dataclass(frozen=True)
class ClassifyReport:
    """Full verdict sheet for one (dimension vector, weight) pair."""

    quiver: Quiver
    alpha: DimVector
    lam: Weight
    root_class: RootClass
    on_hyperplane: bool
    delta_sample: tuple[DimVector, ...]
    membership: SigmaMembership
    verdict: CoadjointVerdict
    types: tuple[TypeReport, ...]
    two_alpha: TwoAlphaCheck | None


def classify(q: Quiver, alpha: Sequence[int], lam: Sequence) -> ClassifyReport:
    """Run the whole classification pipeline for one (alpha, lambda) pair."""
    alpha = as_dim_vector(q, alpha)
    return _classify(_SigmaTable(q, lam, alpha), alpha)


def _classify(table: _SigmaTable, alpha: DimVector) -> ClassifyReport:
    q, lam = table.q, table.lam
    if not any(alpha):
        raise ValueError("the zero vector is not classified")
    verdict = _coadjoint_verdict(table, alpha)
    membership = verdict.membership
    delta_sample = tuple(table.hyperplane_roots())
    zero_weight = all(l == 0 for l in lam)
    reports = []
    for rep_type in _rep_types(table, alpha):
        slice_check = None
        if zero_weight:
            slice_check = _slice_check(q, rep_type, alpha)
        local = _local_quiver(q, rep_type, table.steps)
        reports.append(TypeReport(rep_type, local, slice_check))
    two_alpha = None
    if all(a % 2 == 0 for a in alpha):
        half = tuple(a // 2 for a in alpha)
        check = _two_alpha_nonsmooth(table, half)
        if check.applies:
            two_alpha = check
    return ClassifyReport(
        q,
        alpha,
        lam,
        membership.root_class,
        membership.on_hyperplane,
        delta_sample,
        membership,
        verdict,
        tuple(reports),
        two_alpha,
    )
