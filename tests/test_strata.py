import random
import time
from fractions import Fraction

import pytest

from necklacekit import (
    Arrow,
    FormBasisElement,
    FormSum,
    NecklaceWord,
    Path,
    Quiver,
    classify,
    coadjoint_verdict,
    delta_lambda,
    double,
    dr0_dimension,
    ext1_dim,
    hamiltonian_derivation,
    in_commutator_span,
    is_symplectic,
    karoubi_dim,
    local_quiver,
    minimal_in_sigma,
    necklaces_of_length,
    omega_basis,
    parameter_sum,
    paths_between,
    paths_of_length,
    rep_types,
    sigma_membership,
    slice_smooth_check,
    two_alpha_nonsmooth,
)
from necklacekit import classify_root, num_parameters, reflect, tits_form
from necklacekit import quiver, roots

from conftest import path_quiver, random_quiver
from oracles import box_vectors, decompositions

LAM_21 = (Fraction(-2), Fraction(1))
LAM_31 = (Fraction(-3), Fraction(1))
LAM_0 = (Fraction(0), Fraction(0))


def test_delta_lambda(calogero):
    from necklacekit import enumerate_positive_roots

    assert delta_lambda(calogero, LAM_21, (3, 6)) == [(1, 2), (2, 4), (3, 6)]
    # the zero weight keeps every positive root of the box
    assert delta_lambda(calogero, LAM_0, (2, 2)) == [
        vec for vec, _ in enumerate_positive_roots(calogero, (2, 2))
    ]
    assert delta_lambda(calogero, (Fraction(1), Fraction(1)), (2, 2)) == []


def test_decompositions(calogero):
    assert list(decompositions(calogero, (2, 4), LAM_21)) == [(((1, 2), 2),)]
    assert list(decompositions(calogero, (1, 2), LAM_21)) == []
    found = list(decompositions(calogero, (0, 2), LAM_0))
    assert (((0, 1), 2),) in found


def test_decomposition_sums_and_parts(calogero):
    for decomposition in decompositions(calogero, (3, 6), LAM_21):
        total = [0, 0]
        count = 0
        for beta, mult in decomposition:
            count += mult
            for i, x in enumerate(beta):
                total[i] += mult * x
        assert tuple(total) == (3, 6)
        assert count >= 2


def test_sigma_membership_examples(calogero):
    m = sigma_membership(calogero, (1, 2), LAM_21)
    assert (m.in_s, m.in_sigma) == (True, True)
    m = sigma_membership(calogero, (2, 4), LAM_21)
    assert (m.in_s, m.in_sigma) == (True, True)
    assert m.p_alpha == 5
    m = sigma_membership(calogero, (1, 1), (Fraction(-1), Fraction(1)))
    assert (m.in_s, m.in_sigma) == (True, True)


def test_sigma_membership_failures(calogero):
    m = sigma_membership(calogero, (1, 1), LAM_21)
    assert (m.in_s, m.in_sigma) == (False, False)
    assert not m.on_hyperplane
    m = sigma_membership(calogero, (2, 1), LAM_0)
    assert not m.in_s and m.reason == "not a root"
    # boundary vectors for the zero weight carry explicit witnesses
    m = sigma_membership(calogero, (0, 2), LAM_0)
    assert (m.in_s, m.in_sigma) == (False, False)
    assert m.witness_s == (((0, 1), 2),)
    m = sigma_membership(calogero, (1, 2), LAM_0)
    assert (m.in_s, m.in_sigma) == (True, False)
    assert m.witness_sigma is not None
    assert m.p_alpha == parameter_sum(calogero, m.witness_sigma)
    assert sigma_membership(calogero, (1, 0), LAM_0).in_sigma


def test_strict_implies_weak(calogero, a1_tilde):
    for q, lam, box in (
        (calogero, LAM_0, (2, 4)),
        (calogero, LAM_21, (3, 6)),
        (a1_tilde, LAM_0, (2, 2)),
    ):
        for vec in box_vectors(box):
            m = sigma_membership(q, vec, lam)
            if m.in_sigma:
                assert m.in_s


def test_minimality(calogero):
    assert minimal_in_sigma(calogero, (1, 2), LAM_21) == (True, None)
    assert minimal_in_sigma(calogero, (2, 4), LAM_21) == (False, (1, 2))
    assert minimal_in_sigma(calogero, (1, 0), LAM_0) == (True, None)
    with pytest.raises(ValueError):
        minimal_in_sigma(calogero, (1, 1), LAM_21)


def test_coadjoint_verdicts(calogero):
    verdict = coadjoint_verdict(calogero, (1, 2), LAM_21)
    assert verdict.coadjoint
    assert verdict.dim_fiber == 8
    assert verdict.dim_quotient == 4
    verdict = coadjoint_verdict(calogero, (2, 4), LAM_21)
    assert not verdict.coadjoint
    assert verdict.minimal_witness == (1, 2)
    verdict = coadjoint_verdict(calogero, (2, 1), LAM_0)
    assert not verdict.coadjoint
    assert verdict.reason == "not a root"


def test_sigma_lambda_lines(calogero):
    # weights (-n, m) with coprime (m, n): the strict members are the
    # multiples of (m, n), with (m, n) the unique minimal element
    for m, n in ((1, 2), (1, 3), (2, 5)):
        lam = (Fraction(-n), Fraction(1) * m)
        box = (3 * m, 3 * n)
        members = [
            vec
            for vec in box_vectors(box)
            if sigma_membership(calogero, vec, lam).in_sigma
        ]
        assert members == [(m, n), (2 * m, 2 * n), (3 * m, 3 * n)]
        assert minimal_in_sigma(calogero, (m, n), lam) == (True, None)


def test_rep_types(calogero, a1_tilde):
    assert rep_types(calogero, (2, 4), LAM_21) == [
        ((1, (2, 4)),),
        ((2, (1, 2)),),
    ]
    assert rep_types(a1_tilde, (1, 1), LAM_0) == [
        ((1, (1, 1)),),
        ((1, (1, 0)), (1, (0, 1))),
    ]
    # a minimal member admits only the single-simple type
    assert rep_types(calogero, (1, 2), LAM_21) == [((1, (1, 2)),)]
    assert rep_types(calogero, (0, 0), LAM_21) == []


def test_ext1_and_local_quiver(calogero, a1_tilde):
    assert ext1_dim(calogero, (1, 2), (1, 2), True) == 4
    assert ext1_dim(a1_tilde, (1, 0), (0, 1), False) == 2
    lonely = Quiver(1, ())
    assert ext1_dim(lonely, (1,), (1,), True) == 0
    # T((2, 0), (2, 0)) = 8 on the Calogero quiver
    with pytest.raises(ValueError, match="^negative self-extension count -6;"):
        ext1_dim(calogero, (2, 0), (2, 0), True)

    setting = local_quiver(calogero, ((1, (1, 2)),))
    assert setting.quiver.vertex_count == 1
    assert len(setting.quiver.arrows) == 4
    assert setting.dim_vector == (1,)

    setting = local_quiver(a1_tilde, ((1, (1, 0)), (1, (0, 1))))
    assert setting.ext_matrix == ((0, 2), (2, 0))
    assert setting.dim_vector == (1, 1)
    assert local_quiver(a1_tilde, ((1.0, (1.0, 0)), (1, (0, 1)))) == setting

    # parts are dimension vectors of simples and multiplicities integers >= 1
    for call, message in (
        (lambda: ext1_dim(calogero, (1.5, 0), (0, 1), False), r"\(1\.5, 0\) has a non-integer"),
        (lambda: ext1_dim(calogero, (1, 2), (0, 0), False), "^the zero vector is not"),
        # a self-extension count reads one vector, given twice
        (lambda: ext1_dim(calogero, (1, 0), (0, 1), True), r"^one simple cannot have .* \(0, 1\)$"),
        (lambda: local_quiver(calogero, ()), "^a semisimple type has at least one part$"),
        (lambda: local_quiver(calogero, ((1, (1.5, 2)),)), r"\(1\.5, 2\) has a non-integer"),
        (lambda: local_quiver(calogero, ((1, (1, 2, 0)),)), "^dimension vector has length 3"),
        (lambda: local_quiver(calogero, ((1, (-1, 2)),)), "has a negative entry$"),
        (lambda: local_quiver(calogero, ((0, (1, 2)),)), "^multiplicity 0 is not an integer >= 1$"),
        (lambda: local_quiver(calogero, ((1.5, (1, 2)),)), "^multiplicity 1.5 is not"),
    ):
        with pytest.raises(ValueError, match=message):
            call()


def test_slice_smooth_checks(calogero, a1_tilde):
    check = slice_smooth_check(a1_tilde, ((1, (1, 1)),), (1, 1), LAM_0)
    assert (check.smooth, check.lhs, check.rhs) == (True, 3, 3)
    check = slice_smooth_check(a1_tilde, ((1, (1, 0)), (1, (0, 1))), (1, 1), LAM_0)
    assert (check.smooth, check.lhs, check.rhs) == (False, 4, 3)
    check = slice_smooth_check(calogero, ((2, (0, 1)),), (0, 2), LAM_0)
    assert not check.smooth
    with pytest.raises(ValueError):
        slice_smooth_check(calogero, ((1, (1, 2)),), (1, 2), LAM_21)
    with pytest.raises(ValueError):
        slice_smooth_check(calogero, ((1, (1, 2)),), (2, 4), LAM_0)
    # a part of the wrong length or sign is refused, not summed or indexed
    for rep_type, message in (
        (((1, (1, 2, 0)),), "^dimension vector has length 3, expected 2$"),
        (((1, (2, 2)), (1, (-1, 0))), r"^dimension vector \(-1, 0\) has a negative entry$"),
        (((2, (0, 0)), (1, (1, 2))), "^the zero vector is not"),
        (((-1, (1, 2)), (2, (1, 2))), "^multiplicity -1 is not an integer >= 1$"),
    ):
        with pytest.raises(ValueError, match=message):
            slice_smooth_check(calogero, rep_type, (1, 2), LAM_0)
    # the empty type sums to the zero vector but is no type
    with pytest.raises(ValueError, match="^a semisimple type has at least one part$"):
        slice_smooth_check(calogero, (), (0, 0), LAM_0)


def test_smooth_iff_single_multiplicity_one(calogero, a1_tilde):
    for q, alpha_box in ((calogero, (2, 4)), (a1_tilde, (2, 2))):
        for alpha in box_vectors(alpha_box):
            for rep_type in rep_types(q, alpha, LAM_0):
                check = slice_smooth_check(q, rep_type, alpha, LAM_0)
                multiplicity_square = sum(m * m for m, _ in rep_type)
                assert check.smooth == (multiplicity_square == 1)


def test_coadjoint_implies_single_type(calogero):
    for alpha, lam in (((1, 2), LAM_21), ((1, 3), LAM_31)):
        verdict = coadjoint_verdict(calogero, alpha, lam)
        assert verdict.coadjoint
        assert len(rep_types(calogero, alpha, lam)) == 1


def test_two_alpha_nonsmooth(calogero):
    check = two_alpha_nonsmooth(calogero, (1, 2), LAM_21)
    assert check.applies
    assert (check.lhs, check.rhs) == (32, 29)
    assert check.lhs - check.rhs == 3
    assert check.smooth is False
    check = two_alpha_nonsmooth(calogero, (1, 1), LAM_21)
    assert not check.applies


def test_two_alpha_difference_always_three(calogero):
    for m, n in ((1, 2), (1, 3), (2, 5)):
        lam = (Fraction(-n), Fraction(m))
        check = two_alpha_nonsmooth(calogero, (m, n), lam)
        assert check.applies and check.lhs - check.rhs == 3


def test_membership_stable_under_box_enlargement(calogero):
    # parts of a decomposition are bounded by alpha, so recomputing the
    # hyperplane roots in a larger box must not change any verdict
    for alpha in box_vectors((2, 4)):
        m = sigma_membership(calogero, alpha, LAM_0)
        wide = [
            beta
            for beta in delta_lambda(calogero, LAM_0, tuple(2 * x for x in alpha))
            if all(b <= a for b, a in zip(beta, alpha))
        ]
        narrow = delta_lambda(calogero, LAM_0, alpha)
        assert wide == narrow


def test_classify_report(calogero):
    report = classify(calogero, (2, 4), LAM_21)
    assert report.root_class.kind == "imaginary"
    assert report.membership.in_sigma
    assert not report.verdict.coadjoint
    assert report.two_alpha is not None and report.two_alpha.applies
    assert len(report.types) == 2
    assert all(tr.slice_check is None for tr in report.types)

    report0 = classify(calogero, (0, 2), LAM_0)
    assert not report0.membership.in_sigma
    assert report0.membership.witness_s is not None
    types = [tr.rep_type for tr in report0.types]
    assert ((2, (0, 1)),) in types
    for tr in report0.types:
        assert tr.slice_check is not None
        assert tr.slice_check.smooth == (sum(m * m for m, _ in tr.rep_type) == 1)


def test_a_wide_box_with_few_roots_answers():
    # 13^6 = 4,826,809 box vectors, but the A_6 path has 21 roots, all of
    # them intervals with entries 1
    a6, alpha, lam = path_quiver(6), (12,) * 6, (0,) * 6
    m = sigma_membership(a6, alpha, lam)
    assert (m.in_s, m.in_sigma, m.reason) == (False, False, "not a root")
    assert coadjoint_verdict(a6, alpha, lam).reason == "not a root"
    report = classify(a6, alpha, lam)
    assert report.root_class.kind == "not_root" and len(report.delta_sample) == 21
    units = tuple((12, tuple(int(i == j) for j in range(6))) for i in range(6))
    assert rep_types(a6, alpha, lam) == [units]
    with pytest.raises(ValueError, match="does not satisfy the strict inequalities"):
        minimal_in_sigma(a6, alpha, lam)


@pytest.mark.parametrize("k", [20, 30])
def test_the_a_path_at_ones_decomposes_into_its_last_vertex(k):
    # every root of the A_k path is real (p = 0), so (1, ..., 1) = (1, ..., 1, 0)
    # + (0, ..., 0, 1) gives 0 <= 0: in S_0 but not in Sigma_0, and its only
    # type is the sum of the k simples
    ones = (1,) * k
    report = classify(path_quiver(k), ones, (0,) * k)
    assert report.membership.in_s and not report.membership.in_sigma
    head, tail = (1,) * (k - 1) + (0,), (0,) * (k - 1) + (1,)
    assert report.membership.witness_sigma == ((head, 1), (tail, 1))
    assert len(report.types) == 1
    assert report.types[0].rep_type == tuple(
        (1, tuple(int(i == j) for j in range(k))) for i in range(k)
    )


@pytest.mark.parametrize("k", [45, 50, 60, 70, 100])
def test_the_a_path_at_ones_answers_above_forty(k):
    # the roots are grown with one descent step per candidate, candidates
    # only at or next to a root's support and no witness but alpha's, so
    # the long paths fit in the work budget
    test_the_a_path_at_ones_decomposes_into_its_last_vertex(k)


def test_the_doubled_simple_check_answers_above_twelve():
    two_loops = Quiver(1, (Arrow("x", 1, 1), Arrow("y", 1, 1)))
    check = two_alpha_nonsmooth(two_loops, (7,), (0,))
    assert check.applies and check.alpha == (7,)
    assert (check.lhs - check.rhs, check.smooth) == (3, False)


STEPS_REFUSAL = r"^the computation needs more than \d+ steps$"

# two loops at each of three vertices and arrows 1 -> 2 -> 3: at (4, 4, 4)
# classify builds about 200,000 local-quiver arrows, at (6, 6, 6) it would
# build about 19 million over 64,244 types
LOOPED = Quiver(
    3,
    tuple(
        Arrow(label, source, target)
        for label, source, target in (
            ("a", 1, 1), ("b", 1, 1), ("c", 2, 2), ("d", 2, 2),
            ("f", 3, 3), ("g", 3, 3), ("h", 1, 2), ("i", 2, 3),
        )
    ),
)


@pytest.mark.parametrize("alpha", [(6, 6, 6), (12, 12, 12)])
def test_work_above_the_budget_is_refused_in_time(alpha):
    start = time.process_time()
    with pytest.raises(ValueError, match=STEPS_REFUSAL):
        classify(LOOPED, alpha, (0, 0, 0))
    assert time.process_time() - start < 2


def _fresh(q: Quiver) -> Quiver:
    """A quiver equal to q that holds none of the results stored on q."""
    return Quiver(q.vertex_count, q.arrows)


def _phi_of_four_words(q: Quiver) -> bool:
    """Whether b d(b b) d(b b) on the double of q, whose phi expands 2 x 2
    marked words, lies in the commutator span."""
    dq = double(q)
    bb = Path(dq, ("b", "b"))
    return in_commutator_span(FormSum.of(FormBasisElement(Path(dq, ("b",)), (bb, bb))), dq)


@pytest.mark.parametrize(
    "check",
    [
        sigma_membership,
        classify,
        coadjoint_verdict,
        minimal_in_sigma,
        rep_types,
        two_alpha_nonsmooth,
        lambda q, alpha, lam: delta_lambda(q, lam, alpha),
        lambda q, alpha, lam: local_quiver(q, ((1, alpha),)),
        lambda q, alpha, lam: paths_of_length(_fresh(q), 3),
        lambda q, alpha, lam: paths_between(_fresh(q), 2, 2, 3),
        lambda q, alpha, lam: necklaces_of_length(_fresh(q), 3),
        lambda q, alpha, lam: dr0_dimension(_fresh(q), 3),
        lambda q, alpha, lam: omega_basis(double(q), 1, 3),
        lambda q, alpha, lam: karoubi_dim(double(q), 1, 3),
        lambda q, alpha, lam: _phi_of_four_words(q),
        lambda q, alpha, lam: is_symplectic(
            hamiltonian_derivation(NecklaceWord(double(q), ("a", "b", "b*", "a*")))
        ),
    ],
)
def test_every_call_spends_one_budget(calogero, monkeypatch, check):
    # (1, 2) is the minimal member at (-2, 1): each call answers within the
    # default budget and is refused, with the one message, within 3 steps;
    # the paths and forms calls enumerate on quivers that hold no results
    # yet, as a result stored on the quiver costs nothing
    check(calogero, (1, 2), LAM_21)
    monkeypatch.setattr(quiver, "WORK_CAP", 3)
    with pytest.raises(ValueError, match="^the computation needs more than 3 steps$"):
        check(calogero, (1, 2), LAM_21)


@pytest.mark.parametrize("lam", [(0,), (0, 0, 5), ()], ids=["short", "long", "empty"])
def test_weights_of_the_wrong_length_are_refused(calogero, lam):
    message = f"^weight has length {len(lam)}, expected 2$"
    for check in (
        sigma_membership,
        classify,
        coadjoint_verdict,
        minimal_in_sigma,
        rep_types,
        two_alpha_nonsmooth,
    ):
        for alpha in ((1, 2), (0, 0)):
            with pytest.raises(ValueError, match=message):
                check(calogero, alpha, lam)
    with pytest.raises(ValueError, match=message):
        delta_lambda(calogero, lam, (1, 2))


@pytest.mark.parametrize("entry", [float("inf"), float("-inf"), float("nan")])
def test_weights_with_a_non_finite_entry_are_refused(calogero, entry):
    # Fraction would raise OverflowError at an infinity and its own
    # ValueError at a NaN
    message = rf"^weight \({entry}, 0\) has a non-finite entry$"
    for check in (sigma_membership, classify, rep_types, two_alpha_nonsmooth):
        with pytest.raises(ValueError, match=message):
            check(calogero, (1, 2), (entry, 0))
    with pytest.raises(ValueError, match=message):
        delta_lambda(calogero, (entry, 0), (1, 2))


def test_a_tall_box_needs_no_deep_recursion(one_loop):
    # one vertex with a loop: every n is a root with p(n) = 1, so the best
    # decomposition of n is n copies of 1, found through a chain of n best
    # sums; evaluated by recursion, the chain would pass the interpreter's
    # recursion limit
    m = sigma_membership(one_loop, (600,), (0,))
    assert (m.in_s, m.in_sigma, m.p_alpha) == (False, False, 1)
    assert m.witness_s == (((1,), 600),)


def reflection_cases(count: int = 400, seed: int = 2109):
    """(quiver, alpha, lambda, i): 2-4 vertices, entries of alpha at most 3,
    i a loop-free vertex with s_i alpha nonnegative and nonzero (so alpha is
    not e_i), lambda . alpha = 0 and lambda_i != 0.  Half the vectors are
    roots, and lambda is 0 off i and one other vertex in two cases of three,
    which puts many roots on the hyperplane below alpha.  Two in three
    members of Sigma_lambda drawn are dropped, so the cases lean towards
    non-members."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        q = random_quiver(rng, max_vertices=4, max_arrows=5)
        k = q.vertex_count
        if k < 2:
            continue
        roots_ = [vec for vec, _ in roots.enumerate_positive_roots(q, (3,) * k)]
        if roots_ and rng.random() < 0.5:
            alpha = rng.choice(roots_)
        else:
            alpha = tuple(rng.randint(0, 3) for _ in range(k))
        choices = []
        for i in range(1, k + 1):
            beta = reflect(q, i, alpha) if q.is_loop_free(i) else None
            others = [j for j, a in enumerate(alpha) if a and j != i - 1]
            if beta and min(beta) >= 0 and any(beta) and others:
                choices.append((i, others))
        if not choices:
            continue
        i, others = rng.choice(choices)
        j = rng.choice(others)
        sparse = rng.random() < 2 / 3
        lam = [Fraction(0 if sparse else rng.randint(-3, 3)) for _ in alpha]
        lam[i - 1] = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)))
        lam[j] = -sum(l * a for m, (l, a) in enumerate(zip(lam, alpha)) if m != j) / alpha[j]
        if sigma_membership(q, alpha, lam).in_sigma and rng.random() < 2 / 3:
            continue
        cases.append((q, alpha, tuple(lam), i))
    return cases


def test_admissible_reflections_preserve_sigma():
    """Crawley-Boevey (2001): at a loop-free vertex i with lambda_i != 0 and
    alpha != e_i, s_i preserves p and permutes the hyperplane roots other
    than e_i, so (alpha, lambda) and (s_i alpha, lambda - lambda_i T[i])
    agree on in_S, in_Sigma and p, and s_i alpha is a root of alpha's kind."""
    verdicts = []
    for q, alpha, lam, i in reflection_cases():
        beta = reflect(q, i, alpha)
        mu = tuple(l - lam[i - 1] * t for l, t in zip(lam, tits_form(q)[i - 1]))
        m, n = sigma_membership(q, alpha, lam), sigma_membership(q, beta, mu)
        case = (q, alpha, lam, i)
        assert (m.in_s, m.in_sigma, m.on_hyperplane) == (n.in_s, n.in_sigma, n.on_hyperplane), case
        assert m.p_alpha == n.p_alpha and num_parameters(q, alpha) == num_parameters(q, beta), case
        assert classify_root(q, alpha).kind == classify_root(q, beta).kind, case
        verdicts.append((m.root_class.is_root if m.root_class else False, m.in_s, m.in_sigma))
    counts = {v: verdicts.count(v) for v in set(verdicts)}
    # non-members outnumber members, and every kind of verdict occurs:
    # roots in S_lambda and not in Sigma_lambda, roots in neither, non-roots
    assert sum(1 for _, _, in_sigma in verdicts if not in_sigma) > len(verdicts) / 2
    assert counts.get((True, True, True), 0) >= 20
    assert counts.get((True, True, False), 0) >= 20
    assert counts.get((True, False, False), 0) >= 20
    assert counts.get((False, False, False), 0) >= 20
