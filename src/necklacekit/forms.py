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
The contraction i_theta is written out term by term, the Lie derivative
comes from Cartan's formula L_theta = d i_theta + i_theta d, and a 1-form
is reduced to dR1 by the closed form of the cyclic Leibniz rule:
p0 d(a_1 ... a_m) has the class sum_j [p_j da_j], p_j the rest of the
cycle p0.p1, read from the end of a_j round to its start.

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
from itertools import combinations
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
    _encoding,
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
    """The degree -1 super-derivation with i(a) = 0 and i(da) = theta(a).

    On p0 dp1 ... dpn it is the sum over i of (-1)^(i-1) p0 dp1 ... dp(i-1)
    theta(pi) dp(i+1) ... dpn.  Moving a path r of theta(pi) left by
    dp.r = d(pr) - p dr fuses one adjacent pair of p0, p1, ..., p(i-1), r;
    fusing the pair starting at pj gives the sign (-1)^j, and the pairs
    before p(i-1) leave r in a differential slot, so they need len(r) >= 1.
    """
    acc: dict[FormBasisElement, Scalar] = {}
    for elt, coeff in x.terms():
        entries = (elt.lead,) + elt.tails
        for i in range(1, len(entries)):
            rest = entries[i + 1 :]
            for r, c in theta(entries[i]).terms():
                head = entries[:i] + (r,)
                for j in range(0 if r.arrows else i - 1, i):
                    fused = head[:j] + (concat(head[j], head[j + 1]),) + head[j + 2 :] + rest
                    _add_term(
                        acc,
                        FormBasisElement(fused[0], fused[1:]),
                        coeff * c if j % 2 == 0 else -coeff * c,
                    )
    return FormSum._of_terms(acc)


def lie_derivative(theta: Derivation, x: FormSum) -> FormSum:
    """The degree-0 derivation with L(a) = theta(a) and L(da) = d theta(a).

    Computed by Cartan's formula L = d i + i d: both sides are degree-0
    derivations of the form algebra that agree on e_i, a and da.
    """
    return differential(contract(theta, x)) + contract(theta, differential(x))


def symplectic_form(q: Quiver) -> FormSum:
    """The canonical 2-form sum_a da* da of a double quiver, built from its
    terms: each product da* da is the basis element e_{s(a)} da* da."""
    dq = double_of(q)
    terms = {}
    for arr in dq.base_arrows:
        tails = (Path.of_arrow(dq, dq.star(arr.label)), Path.of_arrow(dq, arr.label))
        terms[FormBasisElement(Path.trivial(dq, arr.source), tails)] = 1
    return FormSum._of_terms(terms)


# ---------------------------------------------------------------------------
# graded bases and exact dimension counts
#
# These run on one store per quiver instance, over the quiver's path
# encoding (paths._Encoding): a path of length >= 1 is the tuple of its
# arrow numbers in traversal order, arrows numbered in sorted-label order,
# so encoded paths compare as their label tuples do and every basis keeps
# the order of omega_basis.  A basis element p0 dp1 ... dpn is the tuple of
# its encoded entries, a trivial lead being the empty tuple (its vertex is
# the target of p1); the vertex elements e_v of the (0, 0) piece, the only
# elements without an arrow, are encoded as the vertex number v.  d sends
# an element with a nonempty lead to ((),) + element and the others to 0.
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


def _cuts(length: int, degree: int) -> Iterator[list[tuple[int, int]]]:
    """Slice bounds of lead, tail 1, ..., tail n in an encoded path of the
    given length, the lead at its end, for every splitting length = l0 + l1
    + ... + ln with l0 >= 0 and li >= 1, lexicographically.  The partial
    sums l0 + ... + lk order the splittings as the splittings themselves."""
    for l0 in range(length - degree + 1):
        for inner in combinations(range(l0 + 1, length), degree - 1):
            sums = (0, l0) + inner + (length,)
            yield [(length - b, length - a) for a, b in zip(sums, sums[1:])]


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
        self.vertex_count = q.vertex_count
        self.encoding = _encoding(q)
        self._pieces: dict[tuple[int, int], _Piece] = {}
        self._commutators: dict[tuple[int, int], RowReducer] = {}
        self._d_ranks: dict[tuple[int, int], int] = {}
        self._decoded: dict[tuple[int, int], tuple[FormBasisElement, ...]] = {}

    def piece(self, degree: int, length: int) -> _Piece:
        piece = self._pieces.get((degree, length))
        if piece is None:
            if degree < 0 or length < 0:
                raise ValueError("degree and length must be nonnegative")
            if degree == 0 and length == 0:
                basis: tuple = tuple(range(1, self.vertex_count + 1))
            elif degree == 0:
                basis = tuple((w,) for w in self.encoding.words(length))
            else:
                basis = tuple(
                    tuple(w[a:b] for a, b in bounds)
                    for bounds in _cuts(length, degree)
                    for w in self.encoding.words(length)
                )
            piece = _Piece(basis, self.encoding.source, self.encoding.target)
            self._pieces[(degree, length)] = piece
        return piece

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
        for a, (s_a, t_a) in enumerate(zip(self.encoding.source, self.encoding.target)):
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
        paths = [Path(q, self.encoding.decode(entry)) if entry else None for entry in code]
        if paths[0] is None:
            paths[0] = Path.trivial(q, self.encoding.target[code[1][-1]])
        return FormBasisElement(paths[0], tuple(paths[1:]))

    def encode(self, elt: FormBasisElement):
        if not elt.tails and not elt.lead.arrows:
            return elt.lead.vertex
        arrow_index = self.encoding.arrow_index
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

    By the cyclic Leibniz rule q d(rp) = pq dr + qr dp, the class of
    p0 d(a_1 ... a_m) (arrows in traversal order) is the sum over j of
    p_j da_j, where p_j traverses a_{j+1} ... a_m, then p0, then
    a_1 ... a_{j-1}, and is a vertex when that is empty.  The class is 0
    unless p0.p1 is closed, which holds exactly when each p_j.a_j is.
    """
    acc: dict[FormBasisElement, Scalar] = {}
    for elt, coeff in x.terms():
        if elt.degree != 1:
            raise ValueError("reduce_to_dr1 expects a homogeneous 1-form")
        p0, (p1,) = elt.lead, elt.tails
        if p0.target != p1.source:
            continue
        q, arrows = p0.quiver, p1.arrows
        for j, label in enumerate(arrows):
            arrow = Path.of_arrow(q, label)
            around = arrows[j + 1 :] + p0.arrows + arrows[:j]
            p = Path(q, around) if around else Path.trivial(q, arrow.target)
            _add_term(acc, FormBasisElement(p, (arrow,)), coeff)
    return FormSum._of_terms(acc)


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
