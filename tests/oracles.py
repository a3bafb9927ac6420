"""Independent reference implementations used only to check the library.

Each oracle recomputes a library result along a different route: the
necklace bracket by explicit cut-and-glue over occurrence pairs, root sets
by Weyl-orbit closure instead of height descent, necklace counts by
rotation classes of explicitly enumerated cycles, and membership in the
weak and strict sets, minimality and representation types by enumerating
every decomposition instead of the memoised table.
"""
from __future__ import annotations

from fractions import Fraction

from necklacekit import (
    DoubleQuiver,
    NecklaceSum,
    NecklaceWord,
    Quiver,
    SigmaMembership,
    as_dim_vector,
    as_weight,
    classify_root,
    decompositions,
    in_fundamental_set,
    num_parameters,
    parameter_sum,
    reflect,
    weight_pairing,
)
from necklacekit.roots import box_vectors


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


def sigma_membership_by_enumeration(q: Quiver, alpha, lam) -> SigmaMembership:
    """Membership by a pass over every decomposition of alpha, keeping the
    first one with the largest p-value sum as the witness."""
    alpha = as_dim_vector(q, alpha)
    lam = as_weight(q, lam)
    if all(a == 0 for a in alpha):
        return SigmaMembership(alpha, False, False, None, True, None, reason="zero vector")
    root_class = classify_root(q, alpha)
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
