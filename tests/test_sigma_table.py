"""Differential tests: the memoised membership table against enumeration of
every decomposition, and against the column recurrence over every
hyperplane root on boxes too wide to enumerate, witnesses included."""
import random
from fractions import Fraction

import pytest

from necklacekit import (
    Arrow,
    Quiver,
    bilinear,
    classify,
    enumerate_positive_roots,
    euler_form,
    minimal_in_sigma,
    rep_types,
    sigma_membership,
    tits_form,
)
from necklacekit.strata import (
    _classify,
    _coadjoint_verdict,
    _minimal_in_sigma,
    _rep_types,
    _SigmaTable,
)

from conftest import random_quiver
from oracles import (
    ColumnSigmaTable,
    box_vectors,
    minimal_in_sigma_by_enumeration,
    rep_types_by_enumeration,
    sigma_membership_by_enumeration,
)

D4_STAR = Quiver(5, tuple(Arrow(f"a{i}", i, 5) for i in range(1, 5)))


def nonzero_weight(rng: random.Random, alpha) -> tuple[Fraction, ...]:
    """A weight lambda != 0 with lambda . alpha = 0 (needs two vertices)."""
    support = [i for i, a in enumerate(alpha) if a]
    while True:
        lam = [Fraction(rng.randint(-3, 3)) for _ in alpha]
        j = rng.choice(support)
        lam[j] = -sum(l * a for i, (l, a) in enumerate(zip(lam, alpha)) if i != j) / alpha[j]
        if any(lam):
            return tuple(lam)


def connected_quiver(rng: random.Random, k: int) -> Quiver:
    """A random spanning tree on k vertices, arrows oriented at random, plus
    up to two random arrows (loops allowed)."""
    pairs = [(rng.randint(1, v - 1), v) for v in range(2, k + 1)]
    pairs = [(t, s) if rng.random() < 0.5 else (s, t) for s, t in pairs]
    pairs += [(rng.randint(1, k), rng.randint(1, k)) for _ in range(rng.randint(0, 2))]
    return Quiver(k, tuple(Arrow(f"q{i}", s, t) for i, (s, t) in enumerate(pairs)))


def weight_vanishing_on(rng: random.Random, alpha, zeros) -> tuple[Fraction, ...]:
    """A weight lambda with lambda . alpha = 0 that is 0 exactly on the
    vertex indices zeros (needs alpha nonzero at two indices outside it)."""
    rest = [i for i in range(len(alpha)) if i not in zeros]
    j = rng.choice([i for i in rest if alpha[i]])
    while True:
        lam = [Fraction(rng.choice((-3, -2, -1, 1, 2, 3))) for _ in alpha]
        for i in zeros:
            lam[i] = Fraction(0)
        lam[j] = -sum(l * a for i, (l, a) in enumerate(zip(lam, alpha)) if i != j) / alpha[j]
        if all(lam[i] for i in rest):
            return tuple(lam)


def random_cases(count: int = 64, seed: int = 2001, mixed: int = 60, mixed_seed: int = 2003):
    """(quiver, alpha, lambda) on 1-4 vertices, entries of alpha at most 3,
    each alpha at the zero weight and, from two vertices on, at a nonzero
    weight vanishing on it.  Half the quivers are connected, and half the
    vectors are roots, so that most verdicts come from decompositions.

    Then mixed cases on 3-4 vertices whose weight is 0 exactly on a chosen
    nonempty proper subset of the vertices, holding at least one vertex of
    the support of alpha and leaving two outside: there a best sum may fill
    a coordinate with unit vectors at some vertices and not at others."""
    rng = random.Random(seed)
    cases = []
    for index in range(count):
        k = 1 + index // 2 % 4
        if index % 2:
            q = connected_quiver(rng, k)
        else:
            q = random_quiver(rng, max_vertices=k, max_arrows=5)
            k = q.vertex_count
        roots = [vec for vec, _ in enumerate_positive_roots(q, (3,) * k)]
        if index % 2 and roots:
            alpha = rng.choice(roots)
        else:
            alpha = tuple(rng.randint(0, 3) for _ in range(k))
        if not any(alpha):
            alpha = (1,) * k
        cases.append((q, alpha, (Fraction(0),) * k))
        if k >= 2:
            cases.append((q, alpha, nonzero_weight(rng, alpha)))
    rng = random.Random(mixed_seed)
    for index in range(mixed):
        while True:
            k = 3 + index % 2
            q = connected_quiver(rng, k) if index % 4 < 2 else random_quiver(rng, k, 5)
            roots = [vec for vec, _ in enumerate_positive_roots(q, (3,) * q.vertex_count)]
            if index % 3 and roots:
                alpha = rng.choice(roots)
            else:
                alpha = tuple(rng.randint(0, 3) for _ in range(q.vertex_count))
            support = [i for i, a in enumerate(alpha) if a]
            if len(support) >= 3:
                break
        zeros = set(rng.sample(support, rng.randint(1, len(support) - 2)))
        zeros.update(i for i, a in enumerate(alpha) if not a and rng.random() < 0.5)
        cases.append((q, alpha, weight_vanishing_on(rng, alpha, zeros)))
    return cases


CASES = random_cases()


@pytest.mark.parametrize("q, alpha, lam", CASES)
def test_table_matches_enumeration_on_the_box(q, alpha, lam):
    table = _SigmaTable(q, lam, alpha)
    for beta in box_vectors(alpha):
        assert table.membership(beta) == sigma_membership_by_enumeration(q, beta, lam), beta
        # the dimensions read off p(beta) against the Euler and Tits forms
        if table.in_sigma(beta):
            verdict = _coadjoint_verdict(table, beta)
            dot = sum(b * b for b in beta)
            assert verdict.dim_fiber == 1 + dot - 2 * bilinear(euler_form(q), beta, beta)
            assert verdict.dim_quotient == 2 - bilinear(tits_form(q), beta, beta)
    assert sigma_membership(q, alpha, lam) == sigma_membership_by_enumeration(q, alpha, lam)


@pytest.mark.parametrize("q, alpha, lam", CASES)
def test_minimality_and_types_match_enumeration(q, alpha, lam):
    assert rep_types(q, alpha, lam) == rep_types_by_enumeration(q, alpha, lam)
    if sigma_membership_by_enumeration(q, alpha, lam).in_sigma:
        expected = minimal_in_sigma_by_enumeration(q, alpha, lam)
        assert minimal_in_sigma(q, alpha, lam) == expected
        assert classify(q, alpha, lam).verdict.minimal_witness == expected[1]
    else:
        with pytest.raises(ValueError, match="strict inequalities"):
            minimal_in_sigma(q, alpha, lam)


@pytest.mark.parametrize("q, alpha, lam", CASES)
def test_witness_parts_satisfy_the_weak_inequalities(q, alpha, lam):
    # a part whose best split beats its p-value would, split in its place,
    # raise the sum past the largest one, so every part of a witness is in S
    table = _SigmaTable(q, lam, alpha)
    parts = set()
    for beta in box_vectors(alpha):
        membership = table.membership(beta)
        for witness in (membership.witness_s, membership.witness_sigma):
            parts.update(part for part, _ in witness or ())
    for part in sorted(parts):
        assert sigma_membership_by_enumeration(q, part, lam).in_s, part


def test_cases_cover_both_weights_and_verdicts():
    weights = {any(lam) for _, _, lam in CASES}
    verdicts = {
        (m.in_s, m.in_sigma, m.witness_sigma is not None)
        for m in (sigma_membership(q, alpha, lam) for q, alpha, lam in CASES)
    }
    assert weights == {False, True}
    assert {(True, True, False), (True, False, True), (False, False, True)} <= verdicts
    assert {q.vertex_count for q, _, _ in CASES} == {1, 2, 3, 4}
    mixed = [lam for _, _, lam in CASES if 0 in lam and any(lam)]
    assert len(mixed) >= 60


def test_d4_star_baseline_matches_enumeration():
    alpha, lam = (2, 2, 2, 2, 4), (Fraction(0),) * 5
    expected = sigma_membership_by_enumeration(D4_STAR, alpha, lam)
    assert expected.witness_s is not None
    assert sigma_membership(D4_STAR, alpha, lam) == expected
    report = classify(D4_STAR, alpha, lam)
    assert report.membership == expected
    assert [t.rep_type for t in report.types] == rep_types_by_enumeration(D4_STAR, alpha, lam)


def wide_cases(count: int = 40, seed: int = 2002):
    """(quiver, alpha, lambda) with alpha among the largest roots of a box of
    2-4 vertices, entries up to 8, 5 or 3, at the zero weight and at a
    nonzero weight vanishing on alpha.  Loops and parallel arrows make most
    of these boxes rich in imaginary roots and decompositions."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        k = rng.choice((2, 3, 4))
        q = connected_quiver(rng, k)
        box = tuple(rng.randint(2, (8, 5, 3)[k - 2]) for _ in range(k))
        roots = sorted((vec for vec, _ in enumerate_positive_roots(q, box)), key=sum)
        alpha = rng.choice(roots[-3:])
        if sum(alpha) < 4:
            continue
        cases.append((q, alpha, (Fraction(0),) * k))
        cases.append((q, alpha, nonzero_weight(rng, alpha)))
    return cases


WIDE_CASES = wide_cases()


@pytest.mark.parametrize("q, alpha, lam", WIDE_CASES)
def test_table_matches_the_column_recurrence_on_wide_boxes(q, alpha, lam):
    table = _SigmaTable(q, lam, alpha)
    columns = ColumnSigmaTable(q, lam, alpha)
    assert table.hyperplane_roots() == columns.hyperplane_roots()
    # strict verdicts first, as minimality and types ask them: no witnesses
    for beta in box_vectors(alpha):
        assert table.in_sigma(beta) == columns.membership(beta).in_sigma, beta
    if columns.membership(alpha).in_sigma:
        assert _minimal_in_sigma(table, alpha) == _minimal_in_sigma(columns, alpha)
    assert _rep_types(table, alpha) == _rep_types(columns, alpha)
    # then every verdict with its p-value and witnesses, on a fresh table
    fresh = _SigmaTable(q, lam, alpha)
    for beta in box_vectors(alpha):
        assert fresh.membership(beta) == columns.membership(beta), beta
    assert classify(q, alpha, lam) == _classify(ColumnSigmaTable(q, lam, alpha), alpha)


def test_wide_cases_are_wide_and_decided_by_decompositions():
    weights = {any(lam) for _, _, lam in WIDE_CASES}
    assert weights == {False, True}
    memberships = [sigma_membership(q, alpha, lam) for q, alpha, lam in WIDE_CASES]
    assert sum(m.witness_sigma is not None for m in memberships) >= 10
    assert sum(m.in_sigma for m in memberships) >= 10
    assert max(sum(alpha) for _, alpha, _ in WIDE_CASES) >= 8
