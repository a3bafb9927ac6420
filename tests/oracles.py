"""Independent reference implementations used only to check the library.

Each oracle recomputes a library result along a different route: the
necklace bracket by explicit cut-and-glue over occurrence pairs, root sets
by Weyl-orbit closure instead of height descent, necklace counts by
rotation classes of explicitly enumerated cycles or by Burnside's lemma,
root sets with their classes by classifying every vector of a box with a
descent written out on its own instead of growing the roots from the unit
vectors, necklaces and the commutator
quotient's representatives by testing every closed path and mark set
against all its rotations instead of generating least rotations,
membership in the weak and strict sets, minimality and representation types by enumerating every
decomposition, and by the column recurrence over every hyperplane root
that the library used before, instead of best sums over the strict members,
the strict membership verdict by reflecting into the fundamental region
instead of comparing p-value sums, the
graded dimensions of the form algebra from FormSum products of every pair
of basis elements, reduced by exact Fraction elimination, the commutator
quotient's dimensions and membership from the integer rows [a, w] and
[da, w] of the generators, reduced by linalg.RowReducer, instead of from
signed cyclic words, derivations of
the path algebra by path products, the contraction i_theta by FormSum
products instead of term by term, the Lie derivative by expanding it on
the generators of each basis element instead of by Cartan's formula, the
reduction of 1-forms to dR1 by recursion on the differential slot instead
of by its closed form, the moment-map Jacobian one column at a time,
each column the trace-projected image of one matrix unit, instead of from
Kronecker blocks, the necklace bracket, hamiltonian fields, derivations
and their commutators on Path and NecklaceWord dataclasses, label by label,
instead of on arrow-number codes, the product of forms by concat on
FormBasisElement entries instead of on codes, and the damped Gauss-Newton
step from the n x n normal equations whatever the Jacobian's shape, instead
of from the smaller of its two Gram matrices, and the moment solve and rank
check with a point dict unpacked from the flat vector at every evaluation,
each arrow's Jacobian blocks accumulated in a loop over the arrows, instead
of on the flat vector through a precomputed index plan.
"""
from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

import numpy as np

from necklacekit import (
    Derivation,
    DoubleQuiver,
    FormBasisElement,
    FormSum,
    NecklaceSum,
    NecklaceWord,
    Path,
    PathSum,
    Quiver,
    SigmaMembership,
    as_dim_vector,
    bilinear,
    canonical_necklace,
    as_weight,
    componentwise_lt,
    concat,
    d_of_path_sum,
    differential,
    euler_form,
    form_of,
    in_fundamental_set,
    num_parameters,
    parameter_sum,
    paths_of_length,
    reflect,
    weight_pairing,
)
from necklacekit.forms import _ends, _mismatch, _piece
from necklacekit.linalg import RowReducer
from necklacekit.numerics import (
    MomentSolveResult,
    RankReport,
    _damped_step,
    _gram_of,
    _gram_rank,
    _kronecker_equations,
    _normal_equations,
    _plan,
    _rank_of,
    _report,
    _uses_kronecker,
    moment_eval,
    rep_dimension,
)
from necklacekit.paths import _add_term, _encoding
from necklacekit.quiver import DimVector, _Steps, double_of
from necklacekit.roots import RootClass
from necklacekit.strata import Decomposition, _sum_multisets


def glue_bracket(w1: NecklaceWord, w2: NecklaceWord) -> NecklaceSum:
    """Necklace bracket via the graphical rule: for every base arrow, open w1
    at an occurrence of the arrow and w2 at an occurrence of its partner,
    glue the complementary paths into one cycle; then subtract the version
    with the roles of the arrow and its partner swapped."""
    dq = w1.quiver
    assert isinstance(dq, DoubleQuiver)
    total: dict[NecklaceWord, Fraction] = {}

    def add(word: NecklaceWord, coeff: int) -> None:
        total[word] = total.get(word, Fraction(0)) + coeff
        if not total[word]:
            del total[word]

    def glue_all(u: NecklaceWord, v: NecklaceWord, label: str, partner: str, sign: int):
        for i, lab1 in enumerate(u.arrows):
            if lab1 != label:
                continue
            open_u = u.arrows[i + 1 :] + u.arrows[:i]
            for j, lab2 in enumerate(v.arrows):
                if lab2 != partner:
                    continue
                open_v = v.arrows[j + 1 :] + v.arrows[:j]
                # open_u runs t(label) -> s(label), open_v runs s(label) -> t(label)
                cycle = open_u + open_v
                if cycle:
                    add(NecklaceWord(dq, cycle), sign)
                else:
                    add(NecklaceWord.vertex_class(dq, dq.arrow(label).target), sign)

    for arr in dq.base_arrows:
        glue_all(w1, w2, arr.label, dq.star(arr.label), +1)
        glue_all(w1, w2, dq.star(arr.label), arr.label, -1)
    return NecklaceSum(total)


def roots_by_orbit_closure(
    q: Quiver, box: tuple[int, ...]
) -> dict[tuple[int, ...], str]:
    """Roots inside a box via Weyl-orbit closure from the seed sets.

    Real roots are the orbit of loop-free unit vectors, imaginary roots the
    orbit of the fundamental region; orbits are closed off inside the
    nonnegative cone at bounded height, which suffices because height
    descent from any vector in the box never raises the height.
    """
    k = q.vertex_count
    height_cap = sum(box)
    loop_free = [v for v in q.vertices if q.is_loop_free(v)]

    def close(seeds: set[tuple[int, ...]]) -> set[tuple[int, ...]]:
        found = set(seeds)
        frontier = list(seeds)
        while frontier:
            vec = frontier.pop()
            for v in loop_free:
                image = reflect(q, v, vec)
                if any(x < 0 for x in image) or sum(image) > height_cap:
                    continue
                if image not in found:
                    found.add(image)
                    frontier.append(image)
        return found

    real_seeds = set()
    for v in loop_free:
        real_seeds.add(tuple(1 if i == v - 1 else 0 for i in range(k)))
    fundamental_seeds = set()
    grid = [range(0, height_cap + 1)] * k
    stack = [()]
    while stack:
        prefix = stack.pop()
        if len(prefix) == k:
            if any(prefix) and sum(prefix) <= height_cap and in_fundamental_set(q, prefix):
                fundamental_seeds.add(prefix)
            continue
        for value in grid[len(prefix)]:
            if sum(prefix) + value <= height_cap:
                stack.append(prefix + (value,))

    verdicts: dict[tuple[int, ...], str] = {}
    for vec in close(real_seeds):
        if all(x <= b for x, b in zip(vec, box)) and any(vec):
            verdicts[vec] = "real"
    for vec in close(fundamental_seeds):
        if all(x <= b for x, b in zip(vec, box)) and any(vec):
            verdicts[vec] = "imaginary"
    return verdicts


BOX_CAP = 10**6
"""The most vectors, zero included, of a box that an oracle walks."""


def checked_box(q: Quiver, box: Sequence[int]) -> DimVector:
    """The box as a dimension vector of q, refused when it holds more than
    BOX_CAP vectors: the oracles walk every vector of their boxes."""
    box = as_dim_vector(q, box)
    vectors = math.prod(b + 1 for b in box)
    if vectors > BOX_CAP:
        raise ValueError(f"box holds {vectors} vectors, more than the cap {BOX_CAP}")
    return box


def box_vectors(box: Sequence[int]) -> Iterator[DimVector]:
    """Lexicographic traversal of the nonzero vectors of the box 0 <= alpha <= box."""
    ranges = [range(0, b + 1) for b in box]
    for vec in itertools.product(*ranges):
        if any(vec):
            yield vec


def reference_descent(q: Quiver, alpha) -> tuple[str, tuple[int, ...], DimVector | None]:
    """(kind, reflections, terminal) of a nonzero vector, as ``RootClass``
    holds them, by the height descent written out on its own: the Tits
    pairings are summed over the arrow list, each reflection is recorded as
    it is applied, and the support's connectivity is a search of the arrows.
    The descent reflects at the least loop-free vertex with positive pairing
    until it reaches a unit vector at a loop-free vertex (real), a vector
    with a negative entry (not a root) or one with no such vertex
    (imaginary when its support is connected, not a root otherwise)."""
    vec = [int(a) for a in alpha]
    if not any(vec):
        raise ValueError("the zero vector is not classified")
    looped = {a.source for a in q.arrows if a.source == a.target}
    reflections: list[int] = []

    def pairing(i: int) -> int:  # T(vec, e_i), vertices numbered from 1
        value = 2 * vec[i - 1]
        for arrow in q.arrows:
            if arrow.source == i:
                value -= vec[arrow.target - 1]
            if arrow.target == i:
                value -= vec[arrow.source - 1]
        return value

    while not any(v < 0 for v in vec):
        support = [i for i in q.vertices if vec[i - 1] > 0]
        if len(support) == 1 and vec[support[0] - 1] == 1 and support[0] not in looped:
            return "real", tuple(reflections), tuple(vec)
        vertex = next((i for i in support if i not in looped and pairing(i) > 0), None)
        if vertex is None:
            reached, frontier = {support[0]}, [support[0]]
            while frontier:
                i = frontier.pop()
                for arrow in q.arrows:
                    for j, k in ((arrow.source, arrow.target), (arrow.target, arrow.source)):
                        if j == i and k in support and k not in reached:
                            reached.add(k)
                            frontier.append(k)
            if len(reached) == len(support):
                return "imaginary", tuple(reflections), tuple(vec)
            return "not_root", tuple(reflections), None
        vec[vertex - 1] -= pairing(vertex)
        reflections.append(vertex)
    return "not_root", tuple(reflections), None


def roots_by_box_filter(q: Quiver, box) -> list[tuple[DimVector, RootClass]]:
    """The roots 0 < alpha <= box with their classes, by classifying every
    vector of the box on its own (``reference_descent``), in lex order."""
    out = []
    for vec in box_vectors(box):
        verdict = RootClass(*reference_descent(q, vec))
        if verdict.is_root:
            out.append((vec, verdict))
    return out


def count_necklaces_by_rotation(q: Quiver, length: int) -> int:
    """Count cyclic words of closed paths directly from rotation classes."""
    if length == 0:
        return q.vertex_count
    labels = sorted(a.label for a in q.arrows)
    cycles = set()

    def extend(seq: tuple[str, ...]):
        if len(seq) == length:
            if q.arrow(seq[-1]).target == q.arrow(seq[0]).source:
                cycles.add(min(seq[i:] + seq[:i] for i in range(length)))
            return
        for lab in labels:
            if not seq or q.arrow(seq[-1]).target == q.arrow(lab).source:
                extend(seq + (lab,))

    extend(())
    return len(cycles)


def least_rotation_by_every_rotation(letters: tuple, marks: int) -> tuple[tuple, int]:
    """The least rotation of a word of letters 2a + mark and the sign of
    reaching it, 0 when it is reached with both signs, comparing all L
    rotations: rotating off a prefix that holds k of the marks gives the
    sign (-1)^(k(marks - k))."""
    best, sign, k = letters, 1, 0
    for r in range(1, len(letters)):
        k += letters[r - 1] & 1
        rotated = letters[r:] + letters[:r]
        if rotated <= best:
            s = -1 if k * (marks - k) % 2 else 1
            if rotated < best:
                best, sign = rotated, s
            elif s != sign:
                sign = 0
    return best, sign


def closed_codes(q: Quiver, length: int) -> list[tuple[int, ...]]:
    """The arrow-number codes of the closed paths of a length >= 1, in
    increasing order, grown one arrow at a time over every path."""
    encoding = _encoding(q)
    source, target = encoding.source, encoding.target
    arrows = range(len(source))
    words = [(a,) for a in arrows]
    for _ in range(length - 1):
        words = [w + (a,) for w in words for a in arrows if source[a] == target[w[-1]]]
    return [w for w in words if source[w[0]] == target[w[-1]]]


def necklaces_by_filter(q: Quiver, length: int) -> list[tuple[int, ...]]:
    """The least rotations of the closed paths of a length >= 1, as codes,
    deduplicated and sorted."""
    return sorted({min(w[i:] + w[:i] for i in range(length)) for w in closed_codes(q, length)})


def representatives_by_filter(q: Quiver, degree: int, length: int) -> list[tuple]:
    """karoubi_dim's representative codes at length >= 1 in omega_basis
    order, by testing every (closed path, mark set) pair against all its
    rotations: the marked word must be its own least rotation, reached with
    the sign +1 only."""
    reps = []
    for w in closed_codes(q, length):
        for marks in itertools.combinations(range(length), degree):
            letters = tuple(2 * a + (i in marks) for i, a in enumerate(w))
            if least_rotation_by_every_rotation(letters, degree) != (letters, 1):
                continue
            cuts = marks + (length,)
            tails = [w[a:b] for a, b in zip(cuts, cuts[1:])]
            reps.append((w[: cuts[0]],) + tuple(reversed(tails)))
    reps.sort(key=lambda code: (tuple(map(len, code)), sum(reversed(code), ())))
    return reps


def decompositions(q: Quiver, alpha, lam):
    """All ways to write alpha as a sum of at least two hyperplane roots.

    Parts are drawn from the roots beta < alpha with lambda . beta = 0;
    multisets are produced once each, by non-increasing selection over the
    descending-lex ordering of the candidate parts.
    """
    alpha = checked_box(q, alpha)
    lam = as_weight(q, lam)
    parts = [
        beta
        for beta, _ in reversed(roots_by_box_filter(q, alpha))
        if componentwise_lt(beta, alpha) and weight_pairing(lam, beta) == 0
    ]
    yield from _sum_multisets(parts, alpha, _Steps())


def sigma_membership_by_enumeration(q: Quiver, alpha, lam) -> SigmaMembership:
    """Membership by a pass over every decomposition of alpha, keeping the
    first one with the largest p-value sum as the witness."""
    alpha = as_dim_vector(q, alpha)
    lam = as_weight(q, lam)
    if all(a == 0 for a in alpha):
        return SigmaMembership(alpha, False, False, None, True, None, reason="zero vector")
    root_class = RootClass(*reference_descent(q, alpha))
    on_hyperplane = weight_pairing(lam, alpha) == 0
    if not root_class.is_root or not on_hyperplane:
        reason = "not a root" if not root_class.is_root else "nonzero pairing with the weight"
        return SigmaMembership(
            alpha, False, False, root_class, on_hyperplane, None, reason=reason
        )
    p_alpha = num_parameters(q, alpha)
    in_s, in_sigma = True, True
    witness_s = witness_sigma = None
    worst = None
    worst_sum = None
    for decomposition in decompositions(q, alpha, lam):
        total = parameter_sum(q, decomposition)
        if worst_sum is None or total > worst_sum:
            worst, worst_sum = decomposition, total
    if worst_sum is not None:
        if p_alpha < worst_sum:
            in_s, witness_s = False, worst
        if p_alpha <= worst_sum:
            in_sigma, witness_sigma = False, worst
    return SigmaMembership(
        alpha, in_s, in_sigma, root_class, on_hyperplane, p_alpha, witness_s, witness_sigma
    )


def minimal_in_sigma_by_enumeration(q: Quiver, alpha, lam):
    """The first strict member strictly below alpha in lex order, by enumeration."""
    alpha = tuple(alpha)
    if not sigma_membership_by_enumeration(q, alpha, lam).in_sigma:
        raise ValueError(f"{alpha} does not satisfy the strict inequalities")
    for beta in box_vectors(alpha):
        if beta != alpha and sigma_membership_by_enumeration(q, beta, lam).in_sigma:
            return False, beta
    return True, None


def sigma_by_fundamental_region(q: Quiver, alpha, lam) -> tuple[bool, str]:
    """The strict verdict on alpha (whether it lies in Sigma_lambda) and its
    reason, by reflecting (alpha, lambda) into the fundamental region
    instead of comparing p-value sums over decompositions.

    A vector that is not a root, or pairs nonzero with lambda, is out.  Then
    the descent of ``reference_descent`` runs with the weight: a unit vector
    reached is in ("unit"); otherwise at the least loop-free vertex i with
    T(alpha, e_i) > 0, when lambda_i != 0 both are reflected, alpha to
    alpha - T(alpha, e_i) e_i and lambda to lambda - lambda_i T[i], which
    keeps the verdict (Crawley-Boevey 2001, reflection functors); when
    lambda_i = 0, alpha - e_i and e_i are roots on the hyperplane and
    p(alpha) <= p(alpha - e_i) + p(e_i), so alpha is out ("zero-weight
    vertex").  With no such vertex alpha is in the fundamental region, and
    out exactly when (I) alpha = m gamma with m >= 2 and T(gamma, gamma) = 0,
    or (II) alpha = beta + gamma with beta a root and gamma an isotropic
    root on the hyperplane and T(beta, gamma) = -1, where p(alpha) = p(beta)
    + p(gamma); else in ("fundamental region").  This is the rule as the
    enumeration oracle confirms it on every vector of the random boxes of
    tests/test_sigma_table.py, not a transcription of a published theorem.
    The isotropic roots below alpha are listed from every vector of its box
    with T(gamma, gamma) = 0, each classified by ``reference_descent``."""
    vec = list(as_dim_vector(q, alpha))
    lam = list(as_weight(q, lam))
    if not any(vec):
        raise ValueError("the zero vector is not classified")
    if reference_descent(q, vec)[0] == "not_root":
        return False, "not a root"
    if sum(l * a for l, a in zip(lam, vec)) != 0:
        return False, "off the hyperplane"
    k = q.vertex_count
    tits = np.diag([2] * k)
    for arrow in q.arrows:
        tits[arrow.source - 1, arrow.target - 1] -= 1
        tits[arrow.target - 1, arrow.source - 1] -= 1
    while True:
        if sum(vec) == 1:
            return True, "unit"
        pairings = tits @ vec
        i = next((i for i in range(k) if tits[i, i] == 2 and vec[i] and pairings[i] > 0), None)
        if i is None:
            break
        if lam[i] == 0:
            return False, "zero-weight vertex"
        vec[i] -= int(pairings[i])
        lam = [l - lam[i] * int(t) for l, t in zip(lam, tits[i])]
    alpha = np.array(vec)
    if alpha @ tits @ alpha == 0 and math.gcd(*vec) >= 2:
        return False, "(I)"
    # every gamma < alpha with T(gamma, gamma) = 0 = lambda . gamma and
    # T(alpha - gamma, gamma) = T(alpha, gamma) = -1
    box = np.indices([a + 1 for a in vec]).reshape(k, -1).T
    scale = math.lcm(*(l.denominator for l in lam))
    scaled = np.array([int(l * scale) for l in lam])
    keep = (
        (np.einsum("ij,jk,ik->i", box, tits, box) == 0)
        & (box @ tits @ alpha == -1)
        & (box @ scaled == 0)
        & box.any(axis=1)
    )
    for gamma in box[keep].tolist():
        beta = [a - g for a, g in zip(vec, gamma)]
        if reference_descent(q, gamma)[0] == "imaginary" and any(beta):
            if reference_descent(q, beta)[0] != "not_root":
                return False, "(II)"
    return True, "fundamental region"


def rep_types_by_enumeration(q: Quiver, alpha, lam):
    """Multisets of strict members summing to alpha, parts descending, larger
    multiplicities of a part first."""
    alpha = tuple(alpha)
    simples = [
        beta
        for beta in box_vectors(alpha)
        if sigma_membership_by_enumeration(q, beta, lam).in_sigma
    ]
    simples.sort(reverse=True)
    out = []

    def extend(index: int, rest: tuple[int, ...], acc: tuple) -> None:
        if not any(rest):
            if acc:
                out.append(acc)
            return
        if index == len(simples):
            return
        beta = simples[index]
        top = min(r // b for r, b in zip(rest, beta) if b)
        for mult in range(top, 0, -1):
            extend(
                index + 1,
                tuple(r - mult * b for r, b in zip(rest, beta)),
                acc + ((mult, beta),),
            )
        extend(index + 1, rest, acc)

    extend(0, alpha, ())
    return out


_Best = tuple[int, Decomposition] | None
"""Largest p-value sum over some decompositions, with the first one reaching it."""


class ColumnSigmaTable:
    """Membership in the weak and strict sets for the vectors 0 < beta <= box,
    by a column recurrence over every hyperplane root: the table the library
    used before its roots were grown and its best sums taken over the strict
    members only.  It has the interface of ``strata._SigmaTable``, so
    ``strata._classify`` runs the whole pipeline on it.

    The parts are the hyperplane roots of the box in descending lex order,
    from a walk of every box vector.  ``_best(i, rest)`` is the largest
    p-value sum over the decompositions of ``rest`` into parts[i:], with the
    first decomposition reaching it in the enumeration order of
    ``_sum_multisets`` (multiplicities tried from the largest down to 0, a
    later candidate kept only when its sum is strictly larger), so the
    witnesses are those of a full enumeration.  A part lex above alpha
    never fits inside alpha and a part that does not fit can only be
    skipped, so the decompositions of a hyperplane root alpha are those of
    ``_best(index of alpha + 1, alpha)``; they have at least two parts,
    since alpha is not among them.  Everything is computed on first use.
    """

    def __init__(self, q: Quiver, lam: Sequence, box: DimVector) -> None:
        self.q = q
        self.lam = as_weight(q, lam)
        self.box = checked_box(q, box)
        self.steps = _Steps()  # the budget strata._classify spends on types and arrows
        scale = math.lcm(*(l.denominator for l in self.lam))
        self._scaled_lam = tuple(int(l * scale) for l in self.lam)
        self._root_classes: dict[DimVector, RootClass] = {}
        self._memberships: dict[DimVector, SigmaMembership] = {}
        self._parts: list[DimVector] | None = None
        self._part_p: list[int] = []
        self._part_index: dict[DimVector, int] = {}
        self._columns: dict[DimVector, tuple[list[int], list[_Best]]] = {}

    def on_hyperplane(self, vec: DimVector) -> bool:
        return sum(l * v for l, v in zip(self._scaled_lam, vec)) == 0

    def root_class(self, vec: DimVector) -> RootClass:
        found = self._root_classes.get(vec)
        if found is None:
            found = self._root_classes[vec] = RootClass(*reference_descent(self.q, vec))
        return found

    def parts(self) -> list[DimVector]:
        """The hyperplane roots of the box, descending lex."""
        if self._parts is None:
            self._parts = [
                vec
                for vec in box_vectors(self.box)
                if self.on_hyperplane(vec) and self.root_class(vec).is_root
            ]
            self._parts.reverse()
            chi = euler_form(self.q)
            self._part_p = [1 - bilinear(chi, beta, beta) for beta in self._parts]
            self._part_index = {beta: i for i, beta in enumerate(self._parts)}
        return self._parts

    def hyperplane_roots(self) -> list[DimVector]:
        """The hyperplane roots of the box, ascending lex."""
        return self.parts()[::-1]

    def in_sigma(self, vec: DimVector) -> bool:
        return self.membership(vec).in_sigma

    def membership(self, alpha: DimVector) -> SigmaMembership:
        found = self._memberships.get(alpha)
        if found is None:
            found = self._memberships[alpha] = self._membership(alpha)
        return found

    def _membership(self, alpha: DimVector) -> SigmaMembership:
        if not any(alpha):
            return SigmaMembership(alpha, False, False, None, True, None, reason="zero vector")
        root_class = self.root_class(alpha)
        on_hyperplane = self.on_hyperplane(alpha)
        if not root_class.is_root or not on_hyperplane:
            reason = "not a root" if not root_class.is_root else "nonzero pairing with the weight"
            return SigmaMembership(
                alpha, False, False, root_class, on_hyperplane, None, reason=reason
            )
        self.parts()  # builds the part list with its p-values and index
        index = self._part_index[alpha]
        p_alpha = self._part_p[index]
        in_s, in_sigma = True, True
        witness_s = witness_sigma = None
        worst = self._best(index + 1, alpha)
        if worst is not None:
            worst_sum, decomposition = worst
            if p_alpha < worst_sum:
                in_s, witness_s = False, decomposition
            if p_alpha <= worst_sum:
                in_sigma, witness_sigma = False, decomposition
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

    def _best(self, start: int, rest: DimVector) -> _Best:
        if not any(rest):
            return 0, ()
        fits, column = self._column(rest)
        return column[bisect_left(fits, start)]

    def _column(self, rest: DimVector) -> tuple[list[int], list[_Best]]:
        """The indices of the parts that fit inside rest, ascending, and
        ``_best`` of rest from each of them on (one entry more: None, as
        nothing is left to cover rest)."""
        found = self._columns.get(rest)
        if found is not None:
            return found
        parts, part_p = self._parts, self._part_p
        fits = [
            i for i, beta in enumerate(parts) if all(b <= r for b, r in zip(beta, rest))
        ]
        column: list[_Best] = [None] * (len(fits) + 1)
        for m in range(len(fits) - 1, -1, -1):
            i = fits[m]
            beta = parts[i]
            top = min(r // b for r, b in zip(rest, beta) if b)
            best = None
            for mult in range(top, 0, -1):
                sub = self._best(i + 1, tuple(r - mult * b for r, b in zip(rest, beta)))
                if sub is None:
                    continue
                total = sub[0] + mult * part_p[i]
                if best is None or total > best[0]:
                    best = (total, ((beta, mult),) + sub[1])
            skip = column[m + 1]
            if skip is not None and (best is None or skip[0] > best[0]):
                best = skip
            column[m] = best
        found = self._columns[rest] = (fits, column)
        return found


def count_necklaces_by_burnside(q: Quiver, length: int) -> int:
    """Necklaces of a length n by Burnside's lemma over the rotations:
    (1/n) sum over d | n of phi(n/d) tr(A^d), A the adjacency matrix."""
    k = q.vertex_count
    if length == 0:
        return k
    adjacency = [[q.arrow_count(i, j) for j in q.vertices] for i in q.vertices]
    power = [[int(i == j) for j in range(k)] for i in range(k)]
    traces = []
    for _ in range(length):
        power = [
            [sum(power[i][m] * adjacency[m][j] for m in range(k)) for j in range(k)]
            for i in range(k)
        ]
        traces.append(sum(power[i][i] for i in range(k)))
    total = sum(
        _totient(length // d) * traces[d - 1] for d in range(1, length + 1) if length % d == 0
    )
    return total // length


def _totient(n: int) -> int:
    return sum(1 for m in range(1, n + 1) if math.gcd(m, n) == 1)


class FractionRowReducer:
    """Incremental row reduction over the rationals with Fraction pivots
    normalised to 1; pivot rows in echelon form, each pivot the least
    column of its row."""

    def __init__(self) -> None:
        self.pivots: dict[int, dict[int, Fraction]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    @property
    def pivot_columns(self) -> set[int]:
        return set(self.pivots)

    def copy(self) -> "FractionRowReducer":
        clone = FractionRowReducer()
        clone.pivots = {col: dict(row) for col, row in self.pivots.items()}
        return clone

    def reduce(self, row: Mapping[int, Fraction]) -> dict[int, Fraction]:
        work = {c: Fraction(v) for c, v in row.items() if v}
        while work:
            col = min(work)
            pivot = self.pivots.get(col)
            if pivot is None:
                break
            factor = work[col]
            for c, v in pivot.items():
                new = work.get(c, Fraction(0)) - factor * v
                if new:
                    work[c] = new
                else:
                    work.pop(c, None)
        return work

    def add(self, row: Mapping[int, Fraction]) -> bool:
        reduced = self.reduce(row)
        if not reduced:
            return False
        col = min(reduced)
        lead = reduced[col]
        self.pivots[col] = {c: v / lead for c, v in reduced.items()}
        return True

    def contains(self, row: Mapping[int, Fraction]) -> bool:
        return not self.reduce(row)


def _compositions(total: int, count: int):
    """Splittings total = l0 + ... + lcount with l0 >= 0 and the others >= 1."""
    if count == 0:
        yield (total,)
        return
    for l0 in range(0, total - count + 1):
        for rest in _positive_compositions(total - l0, count):
            yield (l0,) + rest


def _positive_compositions(total: int, count: int):
    if count == 1:
        yield (total,)
        return
    for first in range(1, total - count + 2):
        for rest in _positive_compositions(total - first, count - 1):
            yield (first,) + rest


class AllPairsForms:
    """Graded dimensions of one quiver's form algebra the direct way: bases
    cut from paths_of_length, d-images from `differential`, and the
    commutator subspace spanned by the supercommutators of every pair of
    basis elements, multiplied as FormSums and reduced over Fractions."""

    def __init__(self, q: Quiver) -> None:
        self.q = q
        self._bases: dict = {}
        self._indices: dict = {}
        self._commutators: dict = {}

    def basis(self, degree: int, length: int) -> tuple[FormBasisElement, ...]:
        key = (degree, length)
        if key not in self._bases:
            self._bases[key] = self._make_basis(degree, length)
        return self._bases[key]

    def _make_basis(self, degree: int, length: int) -> tuple[FormBasisElement, ...]:
        q = self.q
        if degree == 0:
            return tuple(FormBasisElement(p, ()) for p in paths_of_length(q, length))
        if length < degree:
            return ()
        out = []
        for split in _compositions(length, degree):
            for path in paths_of_length(q, length):
                arrows = path.arrows
                pieces = []
                pos = length
                for size in split:
                    if size == 0:
                        pieces.append(Path.trivial(q, path.target))
                    else:
                        pieces.append(Path(q, arrows[pos - size : pos]))
                        pos -= size
                out.append(FormBasisElement(pieces[0], tuple(pieces[1:])))
        return tuple(out)

    def vector(self, x: FormSum, degree: int, length: int) -> dict[int, Fraction]:
        key = (degree, length)
        if key not in self._indices:
            self._indices[key] = {elt: i for i, elt in enumerate(self.basis(degree, length))}
        index = self._indices[key]
        return {index[elt]: coeff for elt, coeff in x.terms()}

    def d_image(self, degree: int, length: int) -> FractionRowReducer:
        reducer = FractionRowReducer()
        for elt in self.basis(degree, length):
            image = differential(FormSum.of(elt))
            if not image.is_zero():
                reducer.add(self.vector(image, degree + 1, length))
        return reducer

    def commutators(self, degree: int, length: int) -> FractionRowReducer:
        key = (degree, length)
        if key not in self._commutators:
            self._commutators[key] = self._all_pairs(degree, length)
        return self._commutators[key]

    def _all_pairs(self, degree: int, length: int) -> FractionRowReducer:
        reducer = FractionRowReducer()
        if not self.basis(degree, length):
            return reducer
        for i in range(0, degree // 2 + 1):
            j = degree - i
            sign = -1 if (i * j) % 2 == 1 else 1
            for l1 in range(0, length + 1):
                l2 = length - l1
                xs, ys = self.basis(i, l1), self.basis(j, l2)
                if i == j and l1 > l2:
                    continue
                for s, x in enumerate(xs):
                    start = s if (i, l1) == (j, l2) else 0
                    for y in ys[start:]:
                        fx, fy = FormSum.of(x), FormSum.of(y)
                        comm = fx * fy - sign * (fy * fx)
                        if not comm.is_zero():
                            reducer.add(self.vector(comm, degree, length))
        return reducer

    def graded_homology_dim(self, degree: int, length: int) -> int:
        kernel = len(self.basis(degree, length)) - self.d_image(degree, length).rank
        if degree == 0:
            return kernel
        return kernel - self.d_image(degree - 1, length).rank

    def karoubi_dim(self, degree: int, length: int):
        basis = self.basis(degree, length)
        reducer = self.commutators(degree, length)
        reps = tuple(elt for i, elt in enumerate(basis) if i not in reducer.pivot_columns)
        return len(basis) - reducer.rank, reps

    def karoubi_homology_dim(self, degree: int, length: int) -> int:
        stacked = self.commutators(degree + 1, length).copy()
        extra = 0
        for elt in self.basis(degree, length):
            image = differential(FormSum.of(elt))
            if not image.is_zero() and stacked.add(self.vector(image, degree + 1, length)):
                extra += 1
        boundary = self.commutators(degree, length).copy()
        if degree >= 1:
            for elt in self.basis(degree - 1, length):
                image = differential(FormSum.of(elt))
                if not image.is_zero():
                    boundary.add(self.vector(image, degree, length))
        return len(self.basis(degree, length)) - extra - boundary.rank

    def in_commutator_span(self, x: FormSum) -> bool:
        return all(
            self.commutators(degree, length).contains(self.vector(piece, degree, length))
            for (degree, length), piece in x.components().items()
        )


class CommutatorRows:
    """The commutator subspace of one quiver's form algebra from the rows
    [a, w] and [da, w] of the generators, reduced over the integers.

    [xy, z] = [x, yz] + (-1)^{|x|(|y|+|z|)} [y, zx] (Cuntz-Quillen, "Algebra
    extensions and nonsingularity", 1995), so the supercommutators [s, w] of
    the generators s = e_i, a, da with basis elements w span [Omega, Omega].
    [e_i, w] is 0 for a closed w and +-w for an open one, so the open
    elements are pivots of the span.  The products s.w and w.s for s = a or
    da are both nonzero only when w runs from target(a) to source(a), and
    then all their terms are closed; otherwise at most one of them is
    nonzero and all its terms are open.  For a vertex element e_v,
    [s, e_v] = -[e_v, s] is an [e_i, w] row.  The rows left to reduce are
    therefore [a, w] and [da, w] for w from target(a) to source(a), on the
    columns of the closed elements.  Bases are the library's encoded pieces.
    """

    def __init__(self, q: Quiver) -> None:
        self.encoding = _encoding(q)
        self._by_ends: dict = {}
        self._indices: dict = {}
        self._reducers: dict = {}

    def by_ends(self, degree: int, length: int) -> dict:
        """The elements with arrows of a piece, grouped by (source, target)."""
        key = (degree, length)
        if key not in self._by_ends:
            groups: dict = {}
            for code in _piece(self.encoding, degree, length, _Steps()):
                if type(code) is not int:
                    groups.setdefault(_ends(self.encoding, code), []).append(code)
            self._by_ends[key] = groups
        return self._by_ends[key]

    def rows(self, degree: int, length: int) -> Iterator[dict]:
        """[a, w] and, in positive degree, [da, w] for every arrow a and every
        basis element w from target(a) to source(a), as rows keyed by code."""
        encoding = self.encoding
        for a, (s_a, t_a) in enumerate(zip(encoding.source, encoding.target)):
            arrow = (a,)
            for w in self.by_ends(degree, length - 1).get((t_a, s_a), ()):
                # a.w - w.a, where w.a fuses each adjacent pair of w, a
                n = len(w) - 1
                row = {(w[0] + arrow,) + w[1:]: 1}
                sign = -1
                for i in range(n, -1, -1):
                    if i == n:
                        code = w[:n] + (arrow + w[n],)
                    else:
                        code = w[:i] + (w[i + 1] + w[i],) + w[i + 2 :] + (arrow,)
                    _add_term(row, code, sign)
                    sign = -sign
                yield row
            if degree == 0:
                continue
            for w in self.by_ends(degree - 1, length - 1).get((t_a, s_a), ()):
                # da.w - (-1)^|w| w.da, with da.w = d(aw) - a dw
                n = len(w) - 1
                row = {((), w[0] + arrow) + w[1:]: 1}
                if w[0]:
                    _add_term(row, (arrow, w[0]) + w[1:], -1)
                _add_term(row, w + (arrow,), 1 if n % 2 else -1)
                yield row

    def _closed(self, code) -> bool:
        source, target = _ends(self.encoding, code)
        return source == target

    def _columns(self, degree: int, length: int, terms: Mapping) -> dict:
        """The closed terms of a sum of codes as a row over the piece's
        basis; the open ones are in the span."""
        key = (degree, length)
        if key not in self._indices:
            basis = _piece(self.encoding, degree, length, _Steps())
            self._indices[key] = {code: i for i, code in enumerate(basis)}
        index = self._indices[key]
        return {index[code]: coeff for code, coeff in terms.items() if self._closed(code)}

    def _reduced(self, degree: int, length: int) -> RowReducer:
        reducer = RowReducer()
        if length >= 1:
            for row in self.rows(degree, length):
                reducer.add(self._columns(degree, length, row))
        return reducer

    def reducer(self, degree: int, length: int) -> RowReducer:
        """Row space of the closed commutator rows landing in the piece."""
        key = (degree, length)
        if key not in self._reducers:
            self._reducers[key] = self._reduced(degree, length)
        return self._reducers[key]

    def dim(self, degree: int, length: int) -> int:
        """The closed elements of the piece less the rank of the rows."""
        closed = sum(map(self._closed, _piece(self.encoding, degree, length, _Steps())))
        return closed - self.reducer(degree, length).rank

    def in_commutator_span(self, x: FormSum) -> bool:
        return all(
            self.reducer(degree, length).contains(self._columns(degree, length, part._terms))
            for (degree, length), part in x.components().items()
        )

    def independent(self, reps: Sequence[FormBasisElement], degree: int, length: int) -> bool:
        """Whether the classes of basis elements are independent in the quotient."""
        reducer = self._reduced(degree, length)
        rank = reducer.rank
        for elt in reps:
            reducer.add(self._columns(degree, length, FormSum.of(elt)._terms))
        return reducer.rank == rank + len(reps)


def apply_derivation_by_products(theta: Derivation, x: PathSum) -> PathSum:
    """theta(x) by the Leibniz rule as path-algebra products: arrow j of a
    path contributes suffix . theta(a_j) . prefix."""
    total = PathSum.zero()
    for path, coeff in x.terms():
        q, labels = path.quiver, path.arrows
        for j, label in enumerate(labels):
            prefix = Path(q, labels[:j]) if j else Path.trivial(q, path.source)
            rest = labels[j + 1 :]
            suffix = Path(q, rest) if rest else Path.trivial(q, path.target)
            image = PathSum.of(suffix) * theta.of_arrow(label) * PathSum.of(prefix)
            total = total + coeff * image
    return total


def _accumulate(acc: dict, key, coeff) -> None:
    acc[key] = acc.get(key, 0) + coeff
    if not acc[key]:
        del acc[key]


def _necklace_terms(w: NecklaceWord | NecklaceSum) -> list:
    return [(w, 1)] if isinstance(w, NecklaceWord) else list(w.terms())


def partial_derivative_by_labels(w: NecklaceWord | NecklaceSum, label: str) -> dict:
    """d/d(label) as {Path: coefficient}: each occurrence of the label in a
    word leaves the rest of the cycle, a trivial path when nothing is left."""
    out: dict = {}
    for word, coeff in _necklace_terms(w):
        q = word.quiver
        target = q.arrow(label).target
        for j, lab in enumerate(word.arrows):
            if lab == label:
                rest = word.arrows[j + 1 :] + word.arrows[:j]
                _accumulate(out, Path(q, rest) if rest else Path.trivial(q, target), coeff)
    return out


def bracket_by_dataclasses(w1, w2) -> dict:
    """The necklace bracket as {NecklaceWord: coefficient}: products of the
    partials by concat, cycles projected by canonical_necklace."""
    quivers = {word.quiver for word, _ in _necklace_terms(w1) + _necklace_terms(w2)}
    total: dict = {}
    if not quivers:
        return total
    (dq,) = quivers
    for arr in dq.base_arrows:
        a, a_star = arr.label, dq.star(arr.label)
        for x, y, sign in ((a, a_star, 1), (a_star, a, -1)):
            right = partial_derivative_by_labels(w2, y)
            for p, c in partial_derivative_by_labels(w1, x).items():
                for r, d in right.items():
                    path = concat(p, r)
                    if path is not None and path.is_cycle():
                        _accumulate(total, canonical_necklace(path), sign * c * d)
    return total


def hamiltonian_images_by_dataclasses(w, dq: DoubleQuiver) -> dict:
    """{label: {Path: coefficient}} of the hamiltonian field: a goes to
    -dw/da* and a* to dw/da."""
    images = {}
    for arr in dq.base_arrows:
        a, a_star = arr.label, dq.star(arr.label)
        images[a] = {p: -c for p, c in partial_derivative_by_labels(w, a_star).items()}
        images[a_star] = partial_derivative_by_labels(w, a)
    return images


def apply_derivation_by_labels(theta: Derivation, x: Path | PathSum) -> dict:
    """theta(x) as {Path: coefficient}, substituting each arrow label of each
    path by the paths of its image."""
    out: dict = {}
    for path, coeff in [(x, 1)] if isinstance(x, Path) else x.terms():
        if path.quiver != theta.quiver:
            raise ValueError("paths live over different quivers")
        for j, label in enumerate(path.arrows):
            for p, c in theta.images[label].terms():
                arrows = path.arrows[:j] + p.arrows + path.arrows[j + 1 :]
                _accumulate(out, Path(path.quiver, arrows) if arrows else p, coeff * c)
    return out


def commutator_images_by_labels(theta1: Derivation, theta2: Derivation) -> dict:
    """{label: {Path: coefficient}} of theta1 theta2 - theta2 theta1 on arrows."""
    images = {}
    for arr in theta1.quiver.arrows:
        image = apply_derivation_by_labels(theta1, theta2.images[arr.label])
        for p, c in apply_derivation_by_labels(theta2, theta1.images[arr.label]).items():
            _accumulate(image, p, -c)
        images[arr.label] = image
    return images


def multiply_by_paths(x: FormSum, y: FormSum) -> FormSum:
    """x.y term by term on FormBasisElements: fuse each adjacent pair i of
    x0, ..., xn, y0, ..., ym by concat, with the sign (-1)^(n-i), and keep
    the fused tuple when it is still a basis element."""
    out: dict = {}
    for a, c in x.terms():
        for b, d in y.terms():
            entries = (a.lead,) + a.tails + (b.lead,) + b.tails
            n = a.degree
            for i in range(n + 1):
                fused = concat(entries[i], entries[i + 1])
                if fused is None:
                    continue
                candidate = entries[:i] + (fused,) + entries[i + 2 :]
                if _mismatch(candidate) is None:
                    sign = 1 if (n - i) % 2 == 0 else -1
                    _accumulate(out, FormBasisElement(candidate[0], candidate[1:]), sign * c * d)
    return FormSum(out)


def contract_by_products(theta: Derivation, x: FormSum) -> FormSum:
    """i_theta as FormSum products: slot i of p0 dp1 ... dpn contributes
    (-1)^(i-1) (p0 dp1 ... dp(i-1)) . theta(pi) . (dp(i+1) ... dpn)."""
    total = FormSum.zero()
    for elt, coeff in x.terms():
        for i in range(1, elt.degree + 1):
            replaced = form_of(theta(elt.tails[i - 1]))
            if replaced.is_zero():
                continue
            term = FormSum.of(FormBasisElement(elt.lead, elt.tails[: i - 1])) * replaced
            rest = elt.tails[i:]
            if rest:
                suffix = FormSum.of(
                    FormBasisElement(Path.trivial(elt.quiver, rest[0].target), rest)
                )
                term = term * suffix
            total = total + (coeff if i % 2 == 1 else -coeff) * term
    return total


def lie_derivative_by_generators(theta: Derivation, x: FormSum) -> FormSum:
    """L_theta by the Leibniz rule on p0 dp1 ... dpn: theta(p0) dp1 ... dpn
    plus, for each slot, p0 dp1 ... d(theta(pi)) ... dpn."""
    total = FormSum.zero()
    for elt, coeff in x.terms():
        tails = elt.tails

        def suffix(rest: tuple[Path, ...]) -> FormSum:
            return FormSum.of(FormBasisElement(Path.trivial(elt.quiver, rest[0].target), rest))

        lead_image = theta(elt.lead)
        if not lead_image.is_zero():
            term = form_of(lead_image)
            if tails:
                term = term * suffix(tails)
            total = total + coeff * term
        for i in range(1, elt.degree + 1):
            replaced = d_of_path_sum(theta(tails[i - 1]))
            if replaced.is_zero():
                continue
            term = FormSum.of(FormBasisElement(elt.lead, tails[: i - 1])) * replaced
            if tails[i:]:
                term = term * suffix(tails[i:])
            total = total + coeff * term
    return total


def reduce_to_dr1_by_recursion(x: FormSum) -> FormSum:
    """The dR1 class of a 1-form by the rewriting q d(rp) = pq dr + qr dp,
    which shortens the differential slot one arrow at a time, dropping the
    classes p da where p.a is not a cycle."""
    total = FormSum.zero()
    for elt, coeff in x.terms():
        if elt.degree != 1:
            raise ValueError("reduce_to_dr1 expects a homogeneous 1-form")
        for (p0, arrow_path), c in _dr1_by_recursion(elt.lead, elt.tails[0]).items():
            total = total + coeff * c * FormSum.of(FormBasisElement(p0, (arrow_path,)))
    return total


def _dr1_by_recursion(p0: Path, p1: Path) -> dict[tuple[Path, Path], int]:
    q = p0.quiver
    if p1.length == 1:
        product = concat(p0, p1)
        if product is not None and product.is_cycle():
            return {(p0, p1): 1}
        return {}
    first = Path.of_arrow(q, p1.arrows[0])
    rest = Path(q, p1.arrows[1:])
    out: dict[tuple[Path, Path], int] = {}
    for lead, slot in ((concat(first, p0), rest), (concat(p0, rest), first)):
        if lead is None:
            continue
        for key, c in _dr1_by_recursion(lead, slot).items():
            out[key] = out.get(key, 0) + c
    return out


def random_rep_by_arrows(q: Quiver, alpha, seed: int) -> dict:
    """numerics.random_rep with one draw per arrow part: each arrow's real
    parts, then its imaginary parts."""
    dq = double_of(q)
    alpha = as_dim_vector(dq, alpha)
    rng = np.random.default_rng(seed)
    scale = 1.0 / math.sqrt(max(1, sum(alpha)))
    point = {}
    for arr in dq.arrows:
        shape = (alpha[arr.target - 1], alpha[arr.source - 1])
        point[arr.label] = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return point


def jacobian_by_columns(
    dq: DoubleQuiver, alpha: tuple[int, ...], point: Mapping[str, np.ndarray]
) -> np.ndarray:
    """Complex Jacobian of the projected residual; the moment map is holomorphic."""
    rows = sum(n * n for n in alpha)
    order = [arr.label for arr in dq.arrows]
    columns = []
    for label in order:
        arr = dq.arrow(label)
        nt, ns = alpha[arr.target - 1], alpha[arr.source - 1]
        partner = dq.star(label)
        base_label = partner if dq.is_starred(label) else label
        base = dq.arrow(base_label)
        for r in range(nt):
            for c in range(ns):
                blocks = [np.zeros((n, n), dtype=complex) for n in alpha]
                h = np.zeros((nt, ns), dtype=complex)
                h[r, c] = 1.0
                if dq.is_starred(label):
                    va = point[base_label]
                    blocks[base.target - 1] += va @ h
                    blocks[base.source - 1] -= h @ va
                else:
                    vs = point[partner]
                    blocks[base.target - 1] += h @ vs
                    blocks[base.source - 1] -= vs @ h
                blocks = _project_trace(blocks, alpha)
                if blocks:
                    columns.append(np.concatenate([b.reshape(-1) for b in blocks]))
                else:
                    columns.append(np.zeros(0, dtype=complex))
    if not columns:
        return np.zeros((rows, 0), dtype=complex)
    return np.stack(columns, axis=1)


def normal_equation_step(jac: np.ndarray, residual: np.ndarray, damping: float) -> np.ndarray:
    """Levenberg-Marquardt step -(J^H J + mu I)^-1 J^H r from the column space."""
    jac_h = jac.conj().T
    gram = jac_h @ jac
    return np.linalg.solve(gram + damping * np.eye(gram.shape[0]), -(jac_h @ residual))


def _project_trace(blocks: list[np.ndarray], alpha: tuple[int, ...]) -> list[np.ndarray]:
    """Subtract the mean trace from every diagonal, in place."""
    n_total = sum(alpha)
    if n_total == 0:
        return blocks
    mean = sum(np.trace(b) for b in blocks) / n_total
    for b in blocks:
        b.flat[:: len(b) + 1] -= mean
    return blocks


def residual_by_blocks(
    dq: DoubleQuiver,
    alpha: tuple[int, ...],
    lam_values: list[complex],
    point: Mapping[str, np.ndarray],
) -> np.ndarray:
    """The projected residual from moment_eval's vertex blocks."""
    blocks = moment_eval(dq, alpha, point)
    for b, lam in zip(blocks, lam_values):
        b.flat[:: len(b) + 1] -= lam
    blocks = _project_trace(blocks, alpha)
    if not blocks:
        return np.zeros(0, dtype=complex)
    return np.concatenate([b.reshape(-1) for b in blocks])


def jacobian_by_arrows(
    dq: DoubleQuiver, alpha: tuple[int, ...], point: Mapping[str, np.ndarray]
) -> np.ndarray:
    """The Jacobian with each arrow's Kronecker blocks accumulated in turn.

    An arrow with nt x ns matrices and partner matrix P (ns x nt)
    contributes I_nt (x) P^T to the rows of its target and P (x) I_ns to those
    of its source, with the signs of the commutator a a* - a* a.
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
        # views of jac: by_target[r, :, r, :] is diagonal block r of
        # I_nt (x) P^T, and by_source[:, c, :, c] holds P inside P (x) I_ns
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


def _unpack(dq: DoubleQuiver, alpha: tuple[int, ...], flat: np.ndarray) -> dict:
    point = {}
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


def solve_by_arrows(
    q: Quiver, alpha, lam, seed: int, tol: float = 1e-10, max_iter: int = 200
) -> MomentSolveResult:
    """numerics.solve with the point unpacked into a dict at every evaluation
    and, where solve builds a Jacobian, the Jacobian from jacobian_by_arrows;
    the damped step is solve's own, and so is the Gram matrix where it steps
    without a Jacobian."""
    dq = double_of(q)
    alpha = as_dim_vector(dq, alpha)
    plan = _plan(dq, alpha)
    gram_at = _gram_of(plan) if _uses_kronecker(plan) else None
    lam = as_weight(dq, lam)
    if weight_pairing(lam, alpha) != 0:
        raise ValueError("the fiber is empty")
    lam_values = [float(x) + 0j for x in lam]
    flat = _pack(dq, random_rep_by_arrows(dq, alpha, seed))
    damping = 1e-3
    residual = residual_by_blocks(dq, alpha, lam_values, _unpack(dq, alpha, flat))
    norm = float(np.linalg.norm(residual))
    iterations = 0
    while iterations < max_iter and norm > tol:
        iterations += 1
        if gram_at is None:
            jac = jacobian_by_arrows(dq, alpha, _unpack(dq, alpha, flat))
            system = _normal_equations(jac, residual)
        else:
            system = _kronecker_equations(gram_at(flat), residual)
        accepted = False
        for _ in range(25):
            trial = flat + _damped_step(plan, flat, system, damping)
            trial_residual = residual_by_blocks(dq, alpha, lam_values, _unpack(dq, alpha, trial))
            trial_norm = float(np.linalg.norm(trial_residual))
            if trial_norm < norm:
                flat, residual, norm = trial, trial_residual, trial_norm
                damping = max(damping / 3.0, 1e-14)
                accepted = True
                break
            damping = min(damping * 10.0, 1e10)
        if not accepted:
            break
    return MomentSolveResult(_unpack(dq, alpha, flat), norm, norm <= tol, iterations, seed)


def rank_report_by_arrows(
    q: Quiver, alpha, lam, point, svd_tol: float = 1e-7, residual_tol: float = 1e-8
) -> RankReport:
    """numerics.rank_report on the point dict; where rank_report certifies
    the rank from the Kronecker Gram the report is its own, and where it
    forms the Jacobian, the Jacobian comes from jacobian_by_arrows.  The
    Gram route's values are checked against the SVD by
    test_numerics.py::test_gram_ranks_match_the_svd_on_random_quivers."""
    dq = double_of(q)
    alpha = as_dim_vector(dq, alpha)
    plan = _plan(dq, alpha)
    lam_values = [float(x) + 0j for x in as_weight(dq, lam)]
    norm = float(np.linalg.norm(residual_by_blocks(dq, alpha, lam_values, point)))
    if not norm <= residual_tol:
        raise ValueError(f"point is not solved: residual {norm:.3e} > {residual_tol:.1e}")
    values = _gram_rank(plan, _pack(dq, point), svd_tol) if _uses_kronecker(plan) else None
    if values is None:
        return _rank_of(jacobian_by_arrows(dq, alpha, point), rep_dimension(dq, alpha), svd_tol)
    return _report(values, plan.columns, svd_tol)


def plan_indices_by_arrows(
    dq: DoubleQuiver, alpha: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The plan's (plus_pos, plus_src, minus_pos, minus_src), built one arrow
    at a time from ``np.indices`` grids of its two moves.

    Varying an arrow's entry (r, c) moves its target block by
    (r, j) <- P[c, j] and its source block by (i, c) <- P[i, r], P the
    partner; a base arrow adds the first and subtracts the second, a starred
    arrow the other way round.
    """
    offsets = [0]
    for n in alpha:
        offsets.append(offsets[-1] + n * n)
    starts = [0]
    for arr in dq.arrows:
        starts.append(starts[-1] + alpha[arr.target - 1] * alpha[arr.source - 1])
    columns = starts[-1]
    plus, minus = [], []
    for index, arr in enumerate(dq.arrows):
        own, partner = starts[index], starts[index ^ 1]
        n_t, n_s = alpha[arr.target - 1], alpha[arr.source - 1]
        t, s = offsets[arr.target - 1], offsets[arr.source - 1]
        r, j, c = np.indices((n_t, n_t, n_s))
        by_target = (
            (t + r * n_t + j) * columns + own + r * n_s + c,
            partner + c * n_t + j,
        )
        i, c, r = np.indices((n_s, n_s, n_t))
        by_source = (
            (s + i * n_s + c) * columns + own + r * n_s + c,
            partner + i * n_t + r,
        )
        starred = index % 2
        plus.append(by_source if starred else by_target)
        minus.append(by_target if starred else by_source)

    def joined(pieces: list) -> tuple[np.ndarray, np.ndarray]:
        if not pieces:
            return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
        return (
            np.concatenate([pos.ravel() for pos, _ in pieces]),
            np.concatenate([src.ravel() for _, src in pieces]),
        )

    return (*joined(plus), *joined(minus))
