"""Relative noncommutative differential forms of a path algebra.

A degree-n basis element is a tuple (p0; p1, ..., pn) standing for
p0 dp1 ... dpn, where the pi are paths, len(pi) >= 1 for i >= 1, and the
source of each entry equals the target of the next (tensor products over
the vertex algebra vanish otherwise).  Products are computed by fusing one
adjacent pair at a time with alternating signs; a fused tuple survives only
if it still satisfies those constraints.

Everything is graded by (degree, total path length) and the grading is
preserved by the differential, products, contraction and Lie derivative,
so each graded piece is a finite-dimensional exact-rational vector space.

The graded dimension counts (omega_basis, graded_homology_dim, karoubi_dim,
karoubi_homology_dim, in_commutator_span) do not multiply FormSums: they
work on integer-encoded bases kept in one store per quiver instance, take
the commutator subspace from the supercommutators of the generators e_i, a
and da with basis elements, and eliminate over the integers.  They decode
to FormBasisElements only for their results.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .linalg import RowReducer
from .paths import (
    Derivation,
    LinearCombination,
    NecklaceWord,
    Path,
    PathSum,
    Scalar,
    _add_term,
    _format_sum,
    concat,
    necklaces_of_length,
)
from .quiver import Quiver, double_of

DEGREE_CAP = 3
LENGTH_CAP = 6


class BoundExceeded(ValueError):
    """A graded computation was requested beyond the configured caps."""


@dataclass(frozen=True)
class FormBasisElement:
    """The class of lead dtails[0] ... dtails[n-1] in the relative form algebra."""

    lead: Path
    tails: tuple[Path, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "tails", tuple(self.tails))
        problem = _mismatch((self.lead,) + self.tails)
        if problem:
            raise ValueError(problem)

    @property
    def degree(self) -> int:
        return len(self.tails)

    @property
    def total_length(self) -> int:
        return self.lead.length + sum(p.length for p in self.tails)

    @property
    def quiver(self) -> Quiver:
        return self.lead.quiver

    def __str__(self) -> str:
        text = str(self.lead)
        for p in self.tails:
            text += f" d({p})"
        return text

    def __repr__(self) -> str:
        return f"Form({self})"


def _mismatch(entries: tuple[Path, ...]) -> str | None:
    """Why (p0; p1, ..., pn) is no basis element, or None when it is one."""
    for i, p in enumerate(entries):
        if i >= 1 and p.length < 1:
            return "differential slots need paths of length >= 1"
        if i + 1 < len(entries) and p.source != entries[i + 1].target:
            return (
                f"entries {i} and {i + 1} do not match up: source {p.source} "
                f"vs target {entries[i + 1].target}"
            )
    return None


def _mul_basis(
    x: FormBasisElement, y: FormBasisElement
) -> Iterator[tuple[FormBasisElement, int]]:
    entries = (x.lead,) + x.tails + (y.lead,) + y.tails
    n = x.degree
    for i in range(n + 1):
        fused = concat(entries[i], entries[i + 1])
        if fused is None:
            continue
        candidate = entries[:i] + (fused,) + entries[i + 2 :]
        if _mismatch(candidate) is None:
            sign = 1 if (n - i) % 2 == 0 else -1
            yield FormBasisElement(candidate[0], candidate[1:]), sign


class FormSum(LinearCombination):
    """Rational combination of form basis elements, graded by (degree, length)."""

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scaled(other)
        if not isinstance(other, FormSum):
            return NotImplemented
        acc: dict[FormBasisElement, Scalar] = {}
        for x, c in self._terms.items():
            for y, d in other._terms.items():
                cd = c * d
                for elt, sign in _mul_basis(x, y):
                    _add_term(acc, elt, sign * cd)
        return FormSum._of_terms(acc)

    def degrees(self) -> set[int]:
        return {elt.degree for elt in self._terms}

    def components(self) -> dict[tuple[int, int], "FormSum"]:
        """Split into homogeneous (degree, total length) pieces."""
        acc: dict[tuple[int, int], dict] = {}
        for elt, coeff in self._terms.items():
            acc.setdefault((elt.degree, elt.total_length), {})[elt] = coeff
        return {key: FormSum._of_terms(terms) for key, terms in acc.items()}

    def __str__(self) -> str:
        return _format_sum(self, str)


def form_of(x: PathSum) -> FormSum:
    """Embed a path-algebra element as a degree-0 form."""
    return FormSum((FormBasisElement(p, ()), c) for p, c in x.terms())


def form_unit(q: Quiver) -> FormSum:
    return FormSum((FormBasisElement(Path.trivial(q, v), ()), 1) for v in q.vertices)


def differential(x: FormSum) -> FormSum:
    """d(p0; p1, ..., pn) = (e; p0, p1, ..., pn), zero when the lead is a vertex."""
    acc = []
    for elt, coeff in x.terms():
        if elt.lead.length == 0:
            continue
        lead = Path.trivial(elt.lead.quiver, elt.lead.target)
        acc.append((FormBasisElement(lead, (elt.lead,) + elt.tails), coeff))
    return FormSum(acc)


def d_of_path_sum(x: PathSum) -> FormSum:
    return differential(form_of(x))


def contract(theta: Derivation, x: FormSum) -> FormSum:
    """The degree -1 super-derivation with i(a) = 0 and i(da) = theta(a)."""
    total = FormSum.zero()
    for elt, coeff in x.terms():
        n = elt.degree
        for i in range(1, n + 1):
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
            sign = coeff if i % 2 == 1 else -coeff
            total = total + sign * term
    return total


def lie_derivative(theta: Derivation, x: FormSum) -> FormSum:
    """The degree-0 derivation with L(a) = theta(a) and L(da) = d theta(a)."""
    total = FormSum.zero()
    for elt, coeff in x.terms():
        n = elt.degree
        tails = elt.tails
        lead_image = theta(elt.lead)
        if not lead_image.is_zero():
            term = form_of(lead_image)
            if tails:
                term = term * FormSum.of(
                    FormBasisElement(Path.trivial(elt.quiver, tails[0].target), tails)
                )
            total = total + coeff * term
        for i in range(1, n + 1):
            replaced = d_of_path_sum(theta(tails[i - 1]))
            if replaced.is_zero():
                continue
            term = FormSum.of(FormBasisElement(elt.lead, tails[: i - 1])) * replaced
            rest = tails[i:]
            if rest:
                term = term * FormSum.of(
                    FormBasisElement(Path.trivial(elt.quiver, rest[0].target), rest)
                )
            total = total + coeff * term
    return total


def symplectic_form(q: Quiver) -> FormSum:
    """The canonical 2-form sum_a da* da of a double quiver."""
    dq = double_of(q)
    total = FormSum.zero()
    for arr in dq.base_arrows:
        da = d_of_path_sum(PathSum.of(Path.of_arrow(dq, arr.label)))
        da_star = d_of_path_sum(PathSum.of(Path.of_arrow(dq, dq.star(arr.label))))
        total = total + da_star * da
    return total


# ---------------------------------------------------------------------------
# graded bases and exact dimension counts
#
# These run on an integer encoding kept in one store per quiver instance.
# Arrows are numbered in sorted-label order, and a path of length >= 1 is
# the tuple of its arrow numbers in traversal order, so encoded paths
# compare as their label tuples do and every basis keeps the order of
# omega_basis.  A basis element p0 dp1 ... dpn is the tuple of its encoded
# entries, a trivial lead being the empty tuple (its vertex is the target
# of p1); the vertex elements e_v of the (0, 0) piece, the only elements
# without an arrow, are encoded as the vertex number v.  d sends an element
# with a nonempty lead to ((),) + element and the others to 0.
#
# The commutator subspace [Ω, Ω] is spanned by the supercommutators [s, ω]
# of the generators s = e_i, a, da with basis elements ω, by the identity
# [xy, z] = [x, yz] + (-1)^{|x|(|y|+|z|)} [y, zx] (Cuntz-Quillen, "Algebra
# extensions and nonsingularity", 1995).  An element is closed when its
# path is a cycle and open otherwise.  [e_i, ω] is 0 for a closed ω and ±ω
# for an open one, so the open elements are pivots of the row space.  The
# products s.ω and ω.s for s = a or da are both nonzero only when ω runs
# from target(a) to source(a), and then all their terms are closed;
# otherwise at most one of them is nonzero and all its terms are open, so
# the row lies in the span of the open elements.  For a vertex element e_v,
# [s, e_v] = -[e_v, s] is already an [e_i, ω] row.  The rows left to reduce are
# therefore [a, ω] and [da, ω] for ω from target(a) to source(a), on the
# columns of the closed elements.


def _check_caps(degree: int, length: int, degree_cap: int, length_cap: int) -> None:
    if degree < 0 or length < 0:
        raise ValueError("degree and length must be nonnegative")
    if degree > degree_cap or length > length_cap:
        raise BoundExceeded(
            f"graded piece (degree={degree}, length={length}) exceeds caps "
            f"(degree<={degree_cap}, length<={length_cap}); raise the caps explicitly"
        )


def _compositions(total: int, count: int) -> Iterator[tuple[int, ...]]:
    """Splittings total = l0 + l1 + ... + lcount with l0 >= 0 and li >= 1."""
    if count == 0:
        yield (total,)
        return
    for l0 in range(0, total - count + 1):
        yield from ((l0,) + rest for rest in _positive_compositions(total - l0, count))


def _positive_compositions(total: int, count: int) -> Iterator[tuple[int, ...]]:
    if count == 1:
        yield (total,)
        return
    for first in range(1, total - count + 2):
        for rest in _positive_compositions(total - first, count - 1):
            yield (first,) + rest


class _Piece:
    """The encoded basis of one (degree, length) piece."""

    __slots__ = ("basis", "index", "open_columns", "by_ends")

    def __init__(self, basis: tuple, source: tuple[int, ...], target: tuple[int, ...]) -> None:
        self.basis = basis
        self.index = {code: i for i, code in enumerate(basis)}
        # columns of the elements that are not closed, and the elements with
        # arrows grouped by (source, target)
        self.open_columns: set[int] = set()
        self.by_ends: dict[tuple[int, int], list[tuple]] = {}
        for i, code in enumerate(basis):
            if type(code) is int:
                continue
            lead = code[0]
            ends = (source[code[-1][0]], target[lead[-1] if lead else code[1][-1]])
            if ends[0] != ends[1]:
                self.open_columns.add(i)
            self.by_ends.setdefault(ends, []).append(code)

    def closed_codes(self) -> Iterator[tuple]:
        for (s, t), codes in self.by_ends.items():
            if s == t:
                yield from codes


class _FormsStore:
    """Encoded bases and reducers of one quiver, stored on the quiver instance
    (see _store), so they are released with it."""

    def __init__(self, q: Quiver) -> None:
        arrows = sorted(q.arrows, key=lambda a: a.label)
        self.vertex_count = q.vertex_count
        self.labels = tuple(a.label for a in arrows)
        self.arrow_index = {label: i for i, label in enumerate(self.labels)}
        self.source = tuple(a.source for a in arrows)
        self.target = tuple(a.target for a in arrows)
        self._leaving = {
            v: tuple(i for i, s in enumerate(self.source) if s == v) for v in q.vertices
        }
        self._words: dict[int, tuple[tuple[int, ...], ...]] = {}
        self._pieces: dict[tuple[int, int], _Piece] = {}
        self._commutators: dict[tuple[int, int], RowReducer] = {}
        self._d_ranks: dict[tuple[int, int], int] = {}
        self._decoded: dict[tuple[int, int], tuple[FormBasisElement, ...]] = {}

    def words(self, length: int) -> tuple[tuple[int, ...], ...]:
        """Encoded paths of a length >= 1, in increasing order."""
        words = self._words.get(length)
        if words is None:
            if length == 1:
                words = tuple((i,) for i in range(len(self.labels)))
            else:
                target, leaving = self.target, self._leaving
                words = tuple(
                    w + (i,) for w in self.words(length - 1) for i in leaving[target[w[-1]]]
                )
            self._words[length] = words
        return words

    def piece(self, degree: int, length: int) -> _Piece:
        piece = self._pieces.get((degree, length))
        if piece is None:
            if degree < 0 or length < 0:
                raise ValueError("degree and length must be nonnegative")
            if degree == 0 and length == 0:
                basis: tuple = tuple(range(1, self.vertex_count + 1))
            elif degree == 0:
                basis = tuple((w,) for w in self.words(length))
            elif length < degree:
                basis = ()
            else:
                basis = tuple(
                    code
                    for split in _compositions(length, degree)
                    for code in self._split_words(length, split)
                )
            piece = _Piece(basis, self.source, self.target)
            self._pieces[(degree, length)] = piece
        return piece

    def _split_words(self, length: int, split: tuple[int, ...]) -> Iterator[tuple]:
        """Each path cut into lead, tail 1, ..., tail n, the lead at its end."""
        bounds = []
        end = length
        for size in split:
            bounds.append((end - size, end))
            end -= size
        for w in self.words(length):
            yield tuple(w[a:b] for a, b in bounds)

    def d_rank(self, degree: int, length: int) -> int:
        """Rank of d on the (degree, length) piece."""
        rank = self._d_ranks.get((degree, length))
        if rank is None:
            index = self.piece(degree + 1, length).index
            reducer = RowReducer()
            for code in self.piece(degree, length).basis:
                if type(code) is not int and code[0]:
                    reducer.add({index[((),) + code]: 1})
            rank = self._d_ranks[(degree, length)] = reducer.rank
        return rank

    def commutators(self, degree: int, length: int) -> RowReducer:
        """Row space of the closed commutator rows landing in the piece."""
        reducer = self._commutators.get((degree, length))
        if reducer is None:
            reducer = RowReducer()
            if length >= 1:
                index = self.piece(degree, length).index
                for row in self._commutator_rows(degree, length, index):
                    if row:
                        reducer.add(row)
            self._commutators[(degree, length)] = reducer
        return reducer

    def _commutator_rows(self, degree: int, length: int, index: dict) -> Iterator[dict]:
        """[a, ω] and, in positive degree, [da, ω] for every arrow a and every
        basis element ω from target(a) to source(a), as coordinate rows."""
        for a, (s_a, t_a) in enumerate(zip(self.source, self.target)):
            arrow = (a,)
            for w in self.piece(degree, length - 1).by_ends.get((t_a, s_a), ()):
                # a.w - w.a, where w.a fuses each adjacent pair of w, a
                n = len(w) - 1
                row = {index[(w[0] + arrow,) + w[1:]]: 1}
                sign = -1
                for i in range(n, -1, -1):
                    if i == n:
                        code = w[:n] + (arrow + w[n],)
                    else:
                        code = w[:i] + (w[i + 1] + w[i],) + w[i + 2 :] + (arrow,)
                    _add_term(row, index[code], sign)
                    sign = -sign
                yield row
            if degree == 0:
                continue
            for w in self.piece(degree - 1, length - 1).by_ends.get((t_a, s_a), ()):
                # da.w - (-1)^|w| w.da, with da.w = d(aw) - a dw
                n = len(w) - 1
                row = {index[((), w[0] + arrow) + w[1:]]: 1}
                if w[0]:
                    _add_term(row, index[(arrow, w[0]) + w[1:]], -1)
                _add_term(row, index[w + (arrow,)], 1 if n % 2 else -1)
                yield row

    def decoded(self, q: Quiver, degree: int, length: int) -> tuple[FormBasisElement, ...]:
        basis = self._decoded.get((degree, length))
        if basis is None:
            basis = tuple(self.decode(q, code) for code in self.piece(degree, length).basis)
            self._decoded[(degree, length)] = basis
        return basis

    def decode(self, q: Quiver, code) -> FormBasisElement:
        if type(code) is int:
            return FormBasisElement(Path.trivial(q, code), ())
        labels = self.labels
        paths = [Path(q, tuple(labels[i] for i in entry)) if entry else None for entry in code]
        if paths[0] is None:
            paths[0] = Path.trivial(q, self.target[code[1][-1]])
        return FormBasisElement(paths[0], tuple(paths[1:]))

    def encode(self, elt: FormBasisElement):
        if not elt.tails and not elt.lead.arrows:
            return elt.lead.vertex
        arrow_index = self.arrow_index
        return tuple(
            tuple(arrow_index[label] for label in p.arrows) for p in (elt.lead,) + elt.tails
        )


def _store(q: Quiver) -> _FormsStore:
    store = q.__dict__.get("_forms_store")
    if store is None:
        store = _FormsStore(q)
        object.__setattr__(q, "_forms_store", store)
    return store


def omega_basis(q: Quiver, degree: int, length: int) -> tuple[FormBasisElement, ...]:
    """Deterministically ordered basis of the (degree, length) graded piece.

    The elements come in the order of the splittings l0 + l1 + ... + ln of
    the length (lead first, lexicographically), and within one splitting in
    the label order of the underlying paths.
    """
    return _store(q).decoded(q, degree, length)


def graded_homology_dim(
    q: Quiver,
    degree: int,
    length: int,
    *,
    degree_cap: int = DEGREE_CAP,
    length_cap: int = LENGTH_CAP,
) -> int:
    """Exact dimension of ker d / im d on one graded piece of the form algebra."""
    _check_caps(degree, length, degree_cap, length_cap)
    store = _store(q)
    kernel = len(store.piece(degree, length).basis) - store.d_rank(degree, length)
    if degree == 0:
        return kernel
    return kernel - store.d_rank(degree - 1, length)


def karoubi_dim(
    q: Quiver,
    degree: int,
    length: int,
    *,
    degree_cap: int = DEGREE_CAP,
    length_cap: int = LENGTH_CAP,
) -> tuple[int, tuple[FormBasisElement, ...]]:
    """Dimension of the supercommutator quotient on one graded piece.

    Returns the dimension together with basis elements whose classes span the
    quotient (the non-pivot coordinates of the commutator row space).
    """
    _check_caps(degree, length, degree_cap, length_cap)
    store = _store(q)
    piece = store.piece(degree, length)
    reducer = store.commutators(degree, length)
    pivots = piece.open_columns | reducer.pivot_columns
    reps = tuple(
        store.decode(q, code) for i, code in enumerate(piece.basis) if i not in pivots
    )
    return len(piece.basis) - len(pivots), reps


def karoubi_homology_dim(
    q: Quiver,
    degree: int,
    length: int,
    *,
    degree_cap: int = DEGREE_CAP,
    length_cap: int = LENGTH_CAP,
) -> int:
    """Homology of the induced differential on the supercommutator quotients.

    d preserves the endpoints of an element, so the d-images of the open
    elements lie among the open elements, all of which are commutators.
    """
    _check_caps(degree, length, degree_cap, length_cap)
    store = _store(q)
    here = store.piece(degree, length)
    next_index = store.piece(degree + 1, length).index
    stacked = store.commutators(degree + 1, length).copy()
    extra = 0
    for code in here.closed_codes():
        if code[0] and stacked.add({next_index[((),) + code]: 1}):
            extra += 1
    kernel_dim = len(here.basis) - extra
    boundary = store.commutators(degree, length).copy()
    if degree >= 1:
        for code in store.piece(degree - 1, length).closed_codes():
            if code[0]:
                boundary.add({here.index[((),) + code]: 1})
    return kernel_dim - len(here.open_columns) - boundary.rank


def in_commutator_span(
    x: FormSum,
    q: Quiver,
    *,
    degree_cap: int = DEGREE_CAP,
    length_cap: int = LENGTH_CAP,
) -> bool:
    """Whether every homogeneous piece of x is a sum of supercommutators."""
    store = _store(q)
    for (degree, length), part in x.components().items():
        _check_caps(degree, length, degree_cap, length_cap)
        piece = store.piece(degree, length)
        row = {}
        for elt, coeff in part.terms():
            column = piece.index[store.encode(elt)]
            if column not in piece.open_columns:
                row[column] = coeff
        if not store.commutators(degree, length).contains(row):
            return False
    return True


def is_symplectic(
    theta: Derivation,
    *,
    degree_cap: int = DEGREE_CAP,
    length_cap: int = LENGTH_CAP,
) -> bool:
    """Whether the Lie derivative of the canonical 2-form vanishes in the quotient."""
    lw = lie_derivative(theta, symplectic_form(theta.quiver))
    return in_commutator_span(lw, theta.quiver, degree_cap=degree_cap, length_cap=length_cap)


# ---------------------------------------------------------------------------
# reduction of 1-forms to the quotient basis p da with p.a an oriented cycle


def reduce_to_dr1(x: FormSum) -> FormSum:
    """Rewrite a 1-form into the quotient basis of classes p da with p.a closed.

    Uses the rewriting q d(rp) = pq dr + qr dp to shorten differential slots,
    then drops the classes p da where p.a is not a cycle.
    """
    acc: dict[FormBasisElement, Scalar] = {}
    for elt, coeff in x.terms():
        if elt.degree != 1:
            raise ValueError("reduce_to_dr1 expects a homogeneous 1-form")
        for (p0, arrow_path), c in _dr1_terms(elt.lead, elt.tails[0]).items():
            _add_term(acc, FormBasisElement(p0, (arrow_path,)), coeff * c)
    return FormSum._of_terms(acc)


def _dr1_terms(p0: Path, p1: Path) -> dict[tuple[Path, Path], int]:
    q = p0.quiver
    if p1.length == 1:
        product = concat(p0, p1)
        if product is not None and product.is_cycle():
            return {(p0, p1): 1}
        return {}
    first = Path.of_arrow(q, p1.arrows[0])
    rest = Path(q, p1.arrows[1:])
    out: dict[tuple[Path, Path], int] = {}
    left = concat(first, p0)
    if left is not None:
        for key, c in _dr1_terms(left, rest).items():
            _add_term(out, key, c)
    right = concat(p0, rest)
    if right is not None:
        for key, c in _dr1_terms(right, first).items():
            _add_term(out, key, c)
    return out


def tau(theta: Derivation) -> FormSum:
    """Image of a derivation under contraction with the canonical 2-form, in dR1."""
    return reduce_to_dr1(contract(theta, symplectic_form(theta.quiver)))


def necklace_differential(w: NecklaceWord) -> FormSum:
    """d of a necklace class, reduced to the dR1 basis."""
    if not w.arrows:
        return FormSum.zero()
    return reduce_to_dr1(d_of_path_sum(PathSum.of(w.representative())))


def dr0_dimension(q: Quiver, length: int) -> int:
    """Independent count of necklace classes of a given length."""
    return len(necklaces_of_length(q, length))
