"""Differential tests of the integer-encoded graded kernel of `forms`, of the
commutator quotient as signed cyclic words and of the fraction-free
`RowReducer`, against the all-pairs route, the integer commutator rows and
the Fraction eliminator in `oracles`, and against Burnside's necklace count;
and of the coded product of forms against the product on paths.

The quivers are seeded random quivers on 1-3 vertices with at most 3 arrows,
each taken as it is and doubled, at degree <= 3 and length <= 4.  The
all-pairs oracle multiplies every pair of basis elements, which is out of
reach on the largest pieces at length 4 (the double of two loops has a
piece of 1536 elements).  Pieces above ORACLE_PIECE_LIMIT elements, 7 of
the 400 here, are therefore compared only where a cheap oracle exists:
the basis, graded homology and, in degree 0, the Burnside count.  The
quotient's representatives are compared by their number and by their
independence modulo the all-pairs commutator span, not one by one: they are
read off least rotations, not off the pivots of a row reduction.

karoubi_dim and in_commutator_span, which read the quotient off the signed
cyclic words, are compared with the integer commutator rows of the
generators (`oracles.CommutatorRows`) and with the all-pairs route on ten
more seeded quivers, as they are and doubled, at degree <= 3 and length
<= 5: dimensions against karoubi_count and the rows, representatives by
their independence modulo the rows, membership on random forms and
supercommutators.  Pieces above SPAN_PIECE_LIMIT elements are skipped.

The constant cells of graded_homology_dim (the noncommutative Poincare
lemma) and the counted ones of karoubi_count (traces of adjacency powers)
are compared with the all-pairs route and with the integer commutator rows
on twelve more seeded quivers, as they are and doubled, at degree <= 3 and
length <= 5, on every piece of at most COUNT_PIECE_LIMIT elements.  The
`karoubi` command line, which prints the counts, is compared with
karoubi_dim and the all-pairs route on ten more seeded quivers, as they are
and doubled, at length <= 3.
"""
from __future__ import annotations

import gc
import json
import pathlib
import random
import time
import tracemalloc
import weakref
from collections import Counter
from fractions import Fraction
from math import comb

import pytest

from necklacekit import (
    Arrow,
    FormBasisElement,
    FormSum,
    NecklaceWord,
    Path,
    Quiver,
    double,
    graded_homology_dim,
    hamiltonian_derivation,
    in_commutator_span,
    is_symplectic,
    karoubi_count,
    karoubi_dim,
    karoubi_homology_dim,
    lie_derivative,
    omega_basis,
    paths_of_length,
    symplectic_form,
)
from necklacekit.cli import main
from necklacekit.linalg import RowReducer
from necklacekit.quiver import WORK_CAP

from conftest import random_form, random_fraction, small_random_quivers
from oracles import (
    AllPairsForms,
    CommutatorRows,
    FractionRowReducer,
    count_necklaces_by_burnside,
    multiply_by_paths,
)

MAX_DEGREE = 3
MAX_LENGTH = 4
ORACLE_PIECE_LIMIT = 700


BASES = small_random_quivers(2003, 10)
QUIVERS = [q for base in BASES for q in (base, double(base))]
IDS = [f"{'double' if i % 2 else 'base'}{i // 2}" for i in range(len(QUIVERS))]


def _pieces():
    for degree in range(MAX_DEGREE + 1):
        for length in range(MAX_LENGTH + 1):
            yield degree, length


def _small(oracle: AllPairsForms, *pieces) -> bool:
    return all(len(oracle.basis(d, l)) <= ORACLE_PIECE_LIMIT for d, l in pieces)


def _independent(oracle: AllPairsForms, reps, degree: int, length: int) -> bool:
    """Whether basis elements are independent modulo the all-pairs span."""
    span = oracle.commutators(degree, length).copy()
    return all(span.add(oracle.vector(FormSum.of(r), degree, length)) for r in reps)


@pytest.mark.parametrize("q", QUIVERS, ids=IDS)
def test_bases_and_dimensions_match_the_all_pairs_route(q):
    oracle = AllPairsForms(q)
    compared = 0
    for degree, length in _pieces():
        assert omega_basis(q, degree, length) == oracle.basis(degree, length)
        assert graded_homology_dim(q, degree, length) == oracle.graded_homology_dim(
            degree, length
        )
        if _small(oracle, (degree, length)):
            dim, reps = karoubi_dim(q, degree, length)
            assert dim == len(reps) == oracle.karoubi_dim(degree, length)[0]
            assert _independent(oracle, reps, degree, length)
            compared += 1
        if _small(oracle, (degree, length), (degree + 1, length)):
            assert karoubi_homology_dim(q, degree, length) == (
                oracle.karoubi_homology_dim(degree, length)
            )
    assert compared >= 12


@pytest.mark.parametrize("q", QUIVERS, ids=IDS)
def test_degree_zero_quotient_counts_necklaces(q):
    for length in range(MAX_LENGTH + 1):
        dim, reps = karoubi_dim(q, 0, length)
        assert dim == len(reps) == count_necklaces_by_burnside(q, length)


@pytest.mark.parametrize("index", range(len(QUIVERS)), ids=IDS)
def test_commutator_span_matches_the_all_pairs_route(index):
    q = QUIVERS[index]
    if not q.arrows:
        return
    oracle = AllPairsForms(q)
    rng = random.Random(index)
    checked = 0
    for _ in range(30):
        x = random_form(rng, q, max_degree=2, max_length=2)
        y = random_form(rng, q, max_degree=1, max_length=2)
        if x.is_zero() or y.is_zero():
            continue
        (dx,), (dy,) = x.degrees(), y.degrees()
        sign = -1 if dx * dy % 2 else 1
        commutator = x * y - sign * (y * x)
        for form in (x, commutator, x + commutator):
            pieces = [key for key, _ in form.components().items()]
            if not _small(oracle, *pieces):
                continue
            assert in_commutator_span(form, q) == oracle.in_commutator_span(form)
            checked += 1
        assert in_commutator_span(commutator, q)
    assert checked >= 30


def _source(elt):
    """The source of an element: the source of its last entry."""
    return (elt.tails[-1] if elt.tails else elt.lead).source


def test_products_match_the_path_route():
    """x.y on codes against concat on FormBasisElements, for factors of
    degree <= 3 and length <= 3 on every quiver, mostly pairs whose ends
    meet so that the products are not all zero."""
    seen: Counter = Counter()
    for index, q in enumerate(QUIVERS):
        rng = random.Random(9000 + index)
        pool = [elt for d, l in _pieces() if l <= 3 for elt in omega_basis(q, d, l)]
        by_target: dict = {}
        for elt in pool:
            by_target.setdefault(elt.lead.target, []).append(elt)
        for _ in range(120):
            x = rng.choice(pool)
            # y's first term mostly ends where x starts: x.y traverses y first
            y = rng.choice(by_target.get(_source(x), pool) if rng.random() < 0.8 else pool)
            others = [rng.choice(pool) for _ in range(rng.choice((0, 0, 1, 2)))]
            x_sum = FormSum.of(x, random_fraction(rng))
            y_sum = FormSum((elt, random_fraction(rng)) for elt in [y] + others)
            product = x_sum * y_sum
            assert product == multiply_by_paths(x_sum, y_sum)
            assert y_sum * x_sum == multiply_by_paths(y_sum, x_sum)
            meet = _source(x) == y.lead.target
            seen["nonzero"] += not product.is_zero()
            seen["vertex"] += meet and not x.tails and not x.lead.arrows
            seen["trivial lead"] += meet and bool(y.tails) and not y.lead.arrows
            # every fusing of x but the last leaves y's trivial lead in a slot
            seen["slot"] += meet and bool(x.tails) and bool(y.tails) and not y.lead.arrows
    assert min(seen[key] for key in ("vertex", "trivial lead", "slot")) >= 100, seen
    assert seen["nonzero"] >= 1000, seen


COUNT_BASES = small_random_quivers(2027, 12)
COUNT_LENGTH = 5
COUNT_PIECE_LIMIT = 1500


@pytest.mark.parametrize("base", [True, False], ids=["base", "double"])
@pytest.mark.parametrize("index", range(len(COUNT_BASES)))
def test_counted_cells_match_row_reduction(index, base):
    q = COUNT_BASES[index] if base else double(COUNT_BASES[index])
    oracle, rows = AllPairsForms(q), CommutatorRows(q)
    compared = 0
    for degree in range(MAX_DEGREE + 1):
        for length in range(COUNT_LENGTH + 1):
            size = comb(length, degree) * len(paths_of_length(q, length))
            if degree and size > COUNT_PIECE_LIMIT:
                continue
            assert graded_homology_dim(q, degree, length) == (
                oracle.graded_homology_dim(degree, length)
            )
            assert karoubi_count(q, degree, length) == (
                karoubi_dim(q, degree, length)[0]
            ) == rows.dim(degree, length)
            compared += 1
    # 32 of the cells compared over all 24 quivers are nonempty pieces of
    # degree >= 1 at length 5; each quiver has at most 6 pieces above the limit
    assert compared >= 18


SPAN_BASES = small_random_quivers(2041, 10)
SPAN_LENGTH = 5
SPAN_PIECE_LIMIT = 3000


def _span_pieces(q: Quiver):
    for degree in range(MAX_DEGREE + 1):
        for length in range(SPAN_LENGTH + 1):
            if comb(length, degree) * len(paths_of_length(q, length)) <= SPAN_PIECE_LIMIT:
                yield degree, length


@pytest.mark.parametrize("base", [True, False], ids=["base", "double"])
@pytest.mark.parametrize("index", range(len(SPAN_BASES)))
def test_quotient_from_cyclic_words_matches_the_commutator_rows(index, base):
    """karoubi_dim's dimension against karoubi_count and both oracles, its
    representatives in omega_basis order and independent modulo both
    commutator spans, and in_commutator_span against both oracles on random
    forms, supercommutators and sums of the two."""
    q = SPAN_BASES[index] if base else double(SPAN_BASES[index])
    rows, all_pairs = CommutatorRows(q), AllPairsForms(q)
    pieces = list(_span_pieces(q))
    for degree, length in pieces:
        dim, reps = karoubi_dim(q, degree, length)
        assert dim == len(reps) == karoubi_count(q, degree, length)
        assert dim == rows.dim(degree, length)
        assert rows.independent(reps, degree, length)
        position = {elt: i for i, elt in enumerate(omega_basis(q, degree, length))}
        assert [position[r] for r in reps] == sorted(position[r] for r in reps)
        if _small(all_pairs, (degree, length)):
            assert dim == all_pairs.karoubi_dim(degree, length)[0]
            assert _independent(all_pairs, reps, degree, length)
    if not q.arrows:
        return
    rng = random.Random(index)
    verdicts: Counter = Counter()
    for _ in range(40):
        x = random_form(rng, q, max_degree=2, max_length=3)
        y = random_form(rng, q, max_degree=1, max_length=2)
        if x.is_zero() or y.is_zero():
            continue
        (dx,), (dy,) = x.degrees(), y.degrees()
        commutator = x * y - (-1 if dx * dy % 2 else 1) * (y * x)
        for form in (x, commutator, x + commutator, x * y + commutator):
            keys = list(form.components())
            if form.is_zero() or not set(keys) <= set(pieces):
                continue
            verdict = in_commutator_span(form, q)
            assert verdict == rows.in_commutator_span(form)
            if _small(all_pairs, *keys):
                assert verdict == all_pairs.in_commutator_span(form)
            verdicts[verdict] += 1
        assert in_commutator_span(commutator, q)
    assert verdicts[True] >= 5 and verdicts[False] >= 20, verdicts


def test_the_three_loop_karoubi_table_is_counted(tmp_path, capsys):
    """`karoubi --max-length 6` on one vertex with three loops, whose (3, 6)
    piece on the double has 933,120 elements, more than the work budget."""
    quiver_file = pathlib.Path(__file__).parent / "golden" / "wide" / "three_loops.quiver"
    report = tmp_path / "karoubi.json"
    start = time.perf_counter()
    argv = ["karoubi", str(quiver_file), "--max-length", "6", "--json", str(report)]
    assert main(argv) == 0
    assert time.perf_counter() - start < 1.0
    capsys.readouterr()
    table = json.loads(report.read_text(encoding="utf-8"))["table"]
    assert {(row["degree"], row["length"]): row["dim"] for row in table}[(3, 6)] == 155544


def _element(dq, lead: str, *tails: str) -> FormSum:
    """lead d(tail) ... as a form, each path given by its labels."""

    def path(labels):
        return Path(dq, tuple(labels.split())) if labels else Path.trivial(dq, 1)

    return FormSum.of(FormBasisElement(path(lead), tuple(map(path, tails))))


def test_pieces_above_the_cap_are_refused_before_they_are_built():
    dq = double(Quiver(1, tuple(Arrow(label, 1, 1) for label in "xyz")))
    refusal = f"^the computation needs more than {WORK_CAP} steps$"
    tracemalloc.start()
    try:
        for call in (lambda: karoubi_dim(dq, 3, 6), lambda: omega_basis(dq, 3, 6)):
            with pytest.raises(ValueError, match=refusal):
                call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # membership reads the signed cyclic words and needs no piece
    assert not in_commutator_span(_element(dq, "x x x", "x", "x", "x"), dq)
    x, y = _element(dq, "x y", "z"), _element(dq, "y*", "x*", "z")
    commutator = x * y - y * x
    assert set(commutator.components()) == {(3, 6)}
    assert not commutator.is_zero()
    assert in_commutator_span(commutator, dq)
    assert not in_commutator_span(commutator + _element(dq, "x x x", "x", "x", "x"), dq)
    # the homology is the Poincare lemma's constant, which needs no piece
    for homology in (karoubi_homology_dim, graded_homology_dim):
        assert (homology(dq, 2, 6), homology(dq, 3, 6), homology(dq, 0, 0)) == (0, 0, 1)
    # only the 46,656 words of length 6 are built (a 26 MB peak); the
    # piece's 933,120 codes alone, each a tuple of four slices, take 250 MB
    assert peak < 64_000_000
    assert karoubi_count(dq, 3, 6) == 155544


def test_hamiltonian_fields_of_length_six_necklaces_are_symplectic():
    """L_theta omega of a length-6 necklace on the three-loop double lands in
    the (2, 6) piece of 699,840 elements, more than the work budget."""
    dq = double(Quiver(1, tuple(Arrow(label, 1, 1) for label in "xyz")))
    tracemalloc.start()
    try:
        for labels in ("x x* y y* z z*", "x x y x* z* z*", "x y z x* y* z*"):
            theta = hamiltonian_derivation(NecklaceWord(dq, tuple(labels.split())))
            lw = lie_derivative(theta, symplectic_form(dq))
            assert set(lw.components()) == {(2, 6)} and not lw.is_zero()
            assert is_symplectic(theta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert comb(6, 2) * len(paths_of_length(dq, 6)) == 699840 > WORK_CAP
    # the piece is never built: its 699,840 codes alone would take about
    # 190 MB (933,120 take 250 MB, as the test above says); the loop peaks
    # near 20 kB
    assert peak < 4_000_000


CLI_BASES = small_random_quivers(2012, 10)


def _quiver_text(q: Quiver) -> str:
    arrows = ", ".join(f"{a.label} {a.source} {a.target}" for a in q.arrows)
    return f"vertices: {q.vertex_count}\narrows: {arrows}\n"


@pytest.mark.parametrize("base", [True, False], ids=["base", "double"])
@pytest.mark.parametrize("index", range(len(CLI_BASES)))
def test_karoubi_table_matches_karoubi_dim_and_the_all_pairs_route(index, base, tmp_path, capsys):
    """The `karoubi --json` cells, counted from adjacency-power traces,
    against the dimension karoubi_dim returns with its representatives and
    against the all-pairs route, at degree <= 3 and length <= 3."""
    quiver_file, report = tmp_path / "q.quiver", tmp_path / "karoubi.json"
    quiver_file.write_text(_quiver_text(CLI_BASES[index]), encoding="utf-8")
    argv = ["karoubi", str(quiver_file), "--max-degree", "3", "--max-length", "3"]
    assert main(argv + ["--json", str(report)] + (["--base"] if base else [])) == 0
    capsys.readouterr()
    q = CLI_BASES[index] if base else double(CLI_BASES[index])
    oracle = AllPairsForms(q)
    table = json.loads(report.read_text(encoding="utf-8"))["table"]
    assert [(row["degree"], row["length"]) for row in table] == [
        (degree, length) for degree in range(4) for length in range(4)
    ]
    for row in table:
        key = (row["degree"], row["length"])
        dim, reps = karoubi_dim(q, *key)
        assert row["dim"] == dim == len(reps) == oracle.karoubi_dim(*key)[0]


GRADED_ENTRY_POINTS = (
    omega_basis, karoubi_dim, karoubi_count, graded_homology_dim, karoubi_homology_dim
)
NEGATIVE_GRADINGS = [(-1, 2), (0, -1), (2, -3)]


@pytest.mark.parametrize(
    "entry, degree, length",
    [(entry, *grading) for entry in GRADED_ENTRY_POINTS for grading in NEGATIVE_GRADINGS],
    # omega_basis's cases are named by the grading alone, the others by entry point too
    ids=[
        ("" if entry is omega_basis else f"{entry.__name__}-") + f"{degree}-{length}"
        for entry in GRADED_ENTRY_POINTS
        for degree, length in NEGATIVE_GRADINGS
    ],
)
def test_omega_basis_refuses_negative_gradings(entry, degree, length):
    """Every graded entry point refuses a negative degree or length."""
    with pytest.raises(ValueError, match="nonnegative"):
        entry(QUIVERS[1], degree, length)


def test_a_dropped_quiver_is_released_with_its_graded_data():
    dq = double(Quiver(2, (Arrow("a", 1, 2), Arrow("b", 2, 2))))
    karoubi_dim(dq, 1, 3)
    karoubi_homology_dim(dq, 1, 3)
    graded_homology_dim(dq, 2, 3)
    omega_basis(dq, 2, 2)
    paths_of_length(dq, 4)
    ref = weakref.ref(dq)
    del dq
    gc.collect()
    assert ref() is None


def _random_rows(rng: random.Random, count: int, width: int) -> list[dict[int, Fraction]]:
    rows: list[dict[int, Fraction]] = []
    for _ in range(count):
        kind = rng.random()
        if kind < 0.1:
            rows.append({})
        elif kind < 0.2:
            rows.append({rng.randrange(width): Fraction(0)})
        elif kind < 0.45 and rows:
            # a rational combination of earlier rows
            row: dict[int, Fraction] = {}
            for earlier in rng.sample(rows, min(len(rows), 3)):
                scale = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                for c, v in earlier.items():
                    row[c] = row.get(c, Fraction(0)) + scale * v
            rows.append(row)
        else:
            rows.append(
                {
                    c: Fraction(rng.randint(-6, 6), rng.randint(1, 5))
                    for c in rng.sample(range(width), rng.randint(1, width))
                }
            )
    return rows


@pytest.mark.parametrize("seed", range(40))
def test_row_reducer_matches_fraction_elimination(seed):
    rng = random.Random(seed)
    width = rng.randint(1, 9)
    rows = _random_rows(rng, rng.randint(1, 14), width)
    fast, slow = RowReducer(), FractionRowReducer()
    for row in rows:
        as_ints = all(v.denominator == 1 for v in row.values())
        entry = {c: int(v) for c, v in row.items()} if as_ints and rng.random() < 0.5 else row
        assert fast.add(entry) == slow.add(row)
        assert fast.rank == slow.rank
        assert fast.pivot_columns == slow.pivot_columns
    for probe in _random_rows(rng, 20, width) + rows:
        assert fast.contains(probe) == slow.contains(probe)
