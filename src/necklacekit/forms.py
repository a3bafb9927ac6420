"""Relative noncommutative differential forms of a path algebra.

A degree-n basis element (FormBasisElement) p0 dp1 ... dpn is a tuple of
paths with len(pi) >= 1 for i >= 1, the source of each entry equal to the
target of the next (tensor products over the vertex algebra vanish
otherwise).  Everything is graded by (degree, total path length) and the
grading is preserved by the differential, products, contraction and Lie
derivative, so each graded piece is a finite-dimensional exact-rational
vector space.

FormSum keys its terms by codes over the quiver's path encoding
(paths._Encoding), as PathSum does: an element is the tuple of its entries'
arrow-number tuples, () standing for a trivial lead (its vertex is the
target of p1), and the vertex element e_v, the only one without an arrow,
is the vertex number v.  Arrows are numbered in sorted-label order, so codes
compare as label tuples do and every basis keeps the order of omega_basis.
The whole calculus runs on codes.  A product fuses one adjacent pair of
x0, ..., xn, y0, ..., ym at a time, with alternating signs; d sends a code
with a nonempty lead to ((),) + code and the others to 0.  The contraction
i_theta is written out term by term, the Lie derivative comes from Cartan's
formula L_theta = d i_theta + i_theta d, and a 1-form is reduced to dR1 by
the closed form of the cyclic Leibniz rule: p0 d(a_1 ... a_m) has the class
sum_j [p_j da_j], p_j the rest of the cycle p0.p1, read from the end of a_j
round to its start.  Codes are the one stored form: FormBasisElement is
the view that terms(), str, omega_basis and karoubi_dim build from a code
without the checks of its constructor, which validates the paths that enter
from outside.

Both homology tables come from the noncommutative Poincare lemma (Ginzburg,
"Non-commutative symplectic geometry, quiver varieties, and operads", 2001;
Cuntz-Quillen, "Algebra extensions and nonsingularity", 1995): the Euler
derivation E, E(a) = a, has L_E = d i_E + i_E d = L id on forms of total
length L, and the identity descends to the supercommutator quotient, so both
complexes are acyclic in length L >= 1, with the vertex count at (0, 0).

The supercommutator quotient Omega/[Omega, Omega] has one representation,
the normal-form map phi onto signed cyclic words (Kontsevich, "Formal
(non)commutative symplectic geometry", 1993).  Omega is free on the letters
a and da, so a closed code expands into letter words in traversal order
pn, ..., p1, p0, one term per choice of a marked letter in each p_i with
i >= 1 (d(xy) = dx y + x dy).  phi sends each word to its least rotation,
letters compared as (arrow, mark) with marked above unmarked: the marked
words of a code stream through paths._add_least_rotations, the one batch
kernel that necklaces and the bracket use too, which adds each least
rotation with its sign as it finds it.  Rotating off a prefix that holds k
of the n marks gives the sign (-1)^(k(n-k)), and a word whose least
rotation is reached with both signs is 0.  An open code w from s to t is
[e_t, w], so phi sends it to 0; a vertex element e_v, alone in the
(0, 0) piece that no commutator reaches, is its own key.  ker phi is the
commutator span, so in_commutator_span is "phi(x) = 0" and builds no piece.
karoubi_count counts the nonzero orbits by Burnside's lemma, from the traces
of the adjacency matrix's powers; dr0_dimension is its degree-0 count.
karoubi_dim lists one basis element per nonzero orbit, read off the orbit's
least rotation, which the necklace generator of the path encoding
(paths._Encoding.necklaces) emits directly, without walking the piece.  The
traces are kept on the path encoding of the quiver instance
(paths._Encoding.closed_walks), so a table of counts reads the traces its
earlier cells computed; no basis is kept.

The only refusal is on work: omega_basis, karoubi_dim, karoubi_count (so
dr0_dimension) and in_commutator_span (so is_symplectic) spend from
quiver.WORK_CAP, as the functions they call say.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations, product
from math import comb, gcd, prod
from typing import Iterator

from .paths import (
    Derivation,
    LinearCombination,
    NecklaceWord,
    Path,
    PathSum,
    _add_least_rotations,
    _add_term,
    _Encoding,
    _encoding,
    _joint_quiver,
)
from .quiver import Quiver, _Steps, double_of


@dataclass(frozen=True, slots=True)
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
    quiver = entries[0].quiver
    for i, p in enumerate(entries):
        if p.quiver is not quiver and p.quiver != quiver:
            return "entries live over different quivers"
        if i >= 1 and p.length < 1:
            return "differential slots need paths of length >= 1"
        if i + 1 < len(entries) and p.source != entries[i + 1].target:
            return (
                f"entries {i} and {i + 1} do not match up: source {p.source} "
                f"vs target {entries[i + 1].target}"
            )
    return None


class FormSum(LinearCombination):
    """Rational combination of form basis elements, graded by (degree, length)."""

    __slots__ = ()
    _view = FormBasisElement

    @staticmethod
    def _code(elt: FormBasisElement):
        if not elt.tails and not elt.lead.arrows:
            return elt.lead.vertex
        index = _encoding(elt.quiver).arrow_index
        return tuple(tuple([index[label] for label in p.arrows]) for p in (elt.lead,) + elt.tails)

    def _decode(self, code) -> FormBasisElement:
        return _form_view(self.quiver, _encoding(self.quiver), code, {})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scaled(other)
        if not isinstance(other, FormSum):
            return NotImplemented
        if not self._terms or not other._terms:
            return FormSum.zero()
        quiver = _joint_quiver(self.quiver, other.quiver, "forms")
        encoding = _encoding(quiver)
        # x.y fuses one adjacent pair of x0, ..., xn, y0, ..., ym, and every
        # fusing needs source(xn) == target(y0)
        by_target: dict[int, list] = {}
        for y, d in other._terms.items():
            by_target.setdefault(_ends(encoding, y)[1], []).append((y, d))
        acc: dict = {}
        for x, c in self._terms.items():
            for y, d in by_target.get(_ends(encoding, x)[0], ()):
                cd = c * d
                if type(x) is int or type(y) is int:
                    # a vertex element is a unit for the forms it matches
                    _add_term(acc, y if type(x) is int else x, cd)
                    continue
                # fusing xn and y0 gives the sign +1; fusing xi and x(i+1)
                # leaves y0 in a differential slot, so it needs arrows
                n = len(x) - 1
                _add_term(acc, x[:n] + (y[0] + x[n],) + y[1:], cd)
                for i in range(n if y[0] else 0):
                    fused = x[:i] + (x[i + 1] + x[i],) + x[i + 2 :] + y
                    _add_term(acc, fused, cd if (n - i) % 2 == 0 else -cd)
        return FormSum._of_terms(acc, quiver)

    def degrees(self) -> set[int]:
        return {0 if type(code) is int else len(code) - 1 for code in self._terms}

    def components(self) -> dict[tuple[int, int], "FormSum"]:
        """Split into homogeneous (degree, total length) pieces."""
        acc: dict[tuple[int, int], dict] = {}
        for code, coeff in self._terms.items():
            key = (0, 0) if type(code) is int else (len(code) - 1, sum(map(len, code)))
            acc.setdefault(key, {})[code] = coeff
        return {key: FormSum._of_terms(terms, self.quiver) for key, terms in acc.items()}


def form_of(x: PathSum) -> FormSum:
    """Embed a path-algebra element as a degree-0 form."""
    terms = {p if type(p) is int else (p,): c for p, c in x._terms.items()}
    return FormSum._of_terms(terms, x.quiver)


def form_unit(q: Quiver) -> FormSum:
    return FormSum._of_terms(dict.fromkeys(q.vertices, 1), q)


def differential(x: FormSum) -> FormSum:
    """d(p0; p1, ..., pn) = (e; p0, p1, ..., pn), zero when the lead is a vertex."""
    terms = {((),) + code: c for code, c in x._terms.items() if type(code) is not int and code[0]}
    return FormSum._of_terms(terms, x.quiver)


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
    if x.quiver is None:
        return FormSum.zero()
    quiver = _joint_quiver(theta.quiver, x.quiver, "forms")
    acc: dict = {}
    for code, coeff in x._terms.items():
        if type(code) is int:
            continue
        for i in range(1, len(code)):
            rest = code[i + 1 :]
            image: dict = {}
            theta._apply({code[i]: 1}, image)
            for r, c in image.items():
                # e_v is the entry () here; e dp1 with p1 a loop at v leaves e_v
                trivial = type(r) is int
                head = code[:i] + (() if trivial else r,)
                for j in range(i - 1 if trivial else 0, i):
                    fused = head[:j] + (head[j + 1] + head[j],) + head[j + 2 :] + rest
                    sign = coeff * c if j % 2 == 0 else -coeff * c
                    _add_term(acc, r if fused == ((),) else fused, sign)
    return FormSum._of_terms(acc, quiver)


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
    star = _encoding(dq).star
    # arrow a is a base arrow exactly when a < star[a]
    return FormSum._of_terms(
        {((), (star[a],), (a,)): 1 for a in range(len(star)) if a < star[a]}, dq
    )


# ---------------------------------------------------------------------------
# graded bases and the commutator quotient as signed cyclic words


def _check_grading(degree: int, length: int) -> None:
    if degree < 0 or length < 0:
        raise ValueError("degree and length must be nonnegative")


def _cuts(length: int, degree: int) -> Iterator[list[tuple[int, int]]]:
    """Slice bounds of lead, tail 1, ..., tail n in an encoded path of the
    given length, the lead at its end, for every splitting length = l0 + l1
    + ... + ln with l0 >= 0 and li >= 1, lexicographically.  The partial
    sums l0 + ... + lk order the splittings as the splittings themselves."""
    for l0 in range(length - degree + 1):
        for inner in combinations(range(l0 + 1, length), degree - 1):
            sums = (0, l0) + inner + (length,)
            yield [(length - b, length - a) for a, b in zip(sums, sums[1:])]


def _ends(encoding: _Encoding, code) -> tuple[int, int]:
    """(source, target) of a form code: the source of its last entry and the
    target of its lead, the target of p1 when the lead is trivial."""
    if type(code) is int:
        return code, code
    lead = code[0]
    return encoding.source[code[-1][0]], encoding.target[lead[-1] if lead else code[1][-1]]


def _cyclic_words(encoding: _Encoding, terms: dict, steps: _Steps) -> dict:
    """phi of a sum of form codes (see the module docstring): signed least
    rotations of marked letter words, keyed by the letters 2a + mark.  The
    words of each closed code spend one step each before they are built."""
    acc: dict = {}
    for code, coeff in terms.items():
        if type(code) is int:
            _add_term(acc, code, coeff)
            continue
        source, target = _ends(encoding, code)
        if source != target:
            continue
        word = [2 * a for p in reversed(code) for a in p]
        ends = list(accumulate(map(len, code[:0:-1])))
        steps.spend(prod(map(len, code[1:])))
        marked_words = (
            (tuple([c + (i in marked) for i, c in enumerate(word)]), coeff)
            for marked in product(*map(range, [0] + ends[:-1], ends))
        )
        _add_least_rotations(acc, marked_words, len(ends))
    return acc


def _representatives(encoding: _Encoding, degree: int, length: int, steps: _Steps) -> list[tuple]:
    """karoubi_dim's representatives at length >= 1, one code per nonzero
    orbit read off its least rotation, in omega_basis order."""
    reps = []
    for letters in encoding.necklaces(length, degree, steps):
        w = tuple([x >> 1 for x in letters])
        cuts = [i for i, x in enumerate(letters) if x & 1] + [length]
        tails = [w[a:b] for a, b in zip(cuts, cuts[1:])]
        reps.append((w[: cuts[0]],) + tuple(reversed(tails)))
    # omega_basis orders by the entry lengths, then by the traversal word
    reps.sort(key=lambda code: (tuple(map(len, code)), sum(reversed(code), ())))
    return reps


def _piece(encoding: _Encoding, degree: int, length: int, steps: _Steps) -> tuple:
    """The codes of one (degree, length) piece, in omega_basis order, one
    step per element, spent before it is built."""
    words = encoding.words(length, steps) if length and degree <= length else ()
    steps.spend(comb(length, degree) * len(words))
    if degree == 0 and length == 0:
        return tuple(encoding.vertices)
    if degree == 0:
        return tuple((w,) for w in words)
    return tuple(
        tuple([w[a:b] for a, b in bounds]) for bounds in _cuts(length, degree) for w in words
    )


def _form_view(q: Quiver, encoding: _Encoding, code, paths: dict) -> FormBasisElement:
    """The view of a form code, built unchecked, its paths shared through
    ``paths``, the views decoded so far by path code: only a lead can be
    trivial, and its vertex is the element's target."""
    vertex = _ends(encoding, code)[1]
    views = []
    for entry in ((),) if type(code) is int else code:
        entry = entry or vertex
        view = paths.get(entry)
        if view is None:
            view = paths[entry] = encoding.view(Path, q, entry)
        views.append(view)
    element = FormBasisElement.__new__(FormBasisElement)
    object.__setattr__(element, "lead", views[0])
    object.__setattr__(element, "tails", tuple(views[1:]))
    return element


def _form_views(q: Quiver, codes: tuple, steps: _Steps) -> tuple[FormBasisElement, ...]:
    """The views of a basis's codes, one step per element decoded."""
    steps.spend(len(codes))
    encoding, paths = _encoding(q), {}
    return tuple([_form_view(q, encoding, code, paths) for code in codes])


def omega_basis(q: Quiver, degree: int, length: int) -> tuple[FormBasisElement, ...]:
    """Deterministically ordered basis of the (degree, length) graded piece.

    The elements come in the order of the splittings l0 + l1 + ... + ln of
    the length (lead first, lexicographically), and within one splitting in
    the label order of the underlying paths.
    """
    _check_grading(degree, length)
    steps = _Steps()
    return _form_views(q, _piece(_encoding(q), degree, length, steps), steps)


def graded_homology_dim(q: Quiver, degree: int, length: int) -> int:
    """Exact dimension of ker d / im d on one graded piece of the form algebra.

    The vertex count at (0, 0), where d is 0, and 0 elsewhere: the Euler
    derivation E has L_E = d i_E + i_E d = L id on forms of length L, so
    i_E / L contracts the complex in every length L >= 1.
    """
    _check_grading(degree, length)
    return q.vertex_count if degree == length == 0 else 0


def karoubi_count(q: Quiver, degree: int, length: int) -> int:
    """Dimension of the supercommutator quotient on one graded piece: the
    number of nonzero orbits of phi, cyclic words of L arrows with n marked
    ones under signed rotation, by Burnside's lemma:
    (1/L) sum_{r<L} [m | n] tr(A^d) C(d, n/m) (-1)^(k(n-k)), with d = gcd(r, L),
    m = L/d and k = (r/d)(n/m): rotation by r fixes the words made of m
    copies of a block of d letters with n/m marks, with the sign of k marks."""
    _check_grading(degree, length)
    if length == 0:
        return q.vertex_count if degree == 0 else 0
    encoding, steps = _encoding(q), _Steps()
    total = 0
    for r in range(length):
        d = gcd(r, length)
        m = length // d
        if degree % m:
            continue
        k = r // d * (degree // m)
        term = encoding.closed_walks(d, steps) * comb(d, degree // m)
        total += -term if k * (degree - k) % 2 else term
    return total // length


def karoubi_dim(q: Quiver, degree: int, length: int) -> tuple[int, tuple[FormBasisElement, ...]]:
    """Dimension of the supercommutator quotient on one graded piece, with
    one basis element per nonzero orbit of phi, in omega_basis order.

    For an orbit with least rotation w, p0 is the letters of w before its
    first mark, and each p_i runs from one mark up to the letter before the
    next mark, so that the traversal word pn ... p1 p0 is a rotation of w;
    in degree 0 the representative is the necklace w, and at length 0 the
    vertex elements.  The representatives are independent in the quotient:
    the term of phi(rep_w) with every mark on the first letter of its p_i
    rotates to w, so it is +-e_w.  Every other term moves some marks later
    within their segments, and read in the rotation that gives w, it first
    differs from w where a mark moved away, with (a, 0) in place of (a, 1);
    so that word, and its least rotation, lies below w.  phi(rep_w) is
    therefore +-e_w plus words below w, the images are triangular, and as
    many representatives as karoubi_count are a basis of the quotient.
    """
    _check_grading(degree, length)
    encoding, steps = _encoding(q), _Steps()
    if length:
        codes = _representatives(encoding, degree, length, steps)
    else:
        codes = _piece(encoding, degree, 0, steps)
    return len(codes), _form_views(q, codes, steps)


def karoubi_homology_dim(q: Quiver, degree: int, length: int) -> int:
    """Homology of the induced differential on the supercommutator quotients:
    that of graded_homology_dim, as the identity L_E = d i_E + i_E d descends
    to the quotient, the super-derivations d and i_E preserving the
    supercommutators."""
    return graded_homology_dim(q, degree, length)


def in_commutator_span(x: FormSum, q: Quiver) -> bool:
    """Whether every homogeneous piece of x, a form over q, is a sum of
    supercommutators: whether phi(x) is 0.  It builds no graded piece."""
    quiver = _joint_quiver(q, x.quiver, "forms")
    return not _cyclic_words(_encoding(quiver), x._terms, _Steps())


def is_symplectic(theta: Derivation) -> bool:
    """Whether the Lie derivative of the canonical 2-form vanishes in the quotient."""
    lw = lie_derivative(theta, symplectic_form(theta.quiver))
    return in_commutator_span(lw, theta.quiver)


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
    if x.quiver is None:
        return FormSum.zero()
    encoding = _encoding(x.quiver)
    acc: dict = {}
    for code, coeff in x._terms.items():
        if type(code) is int or len(code) != 2:
            raise ValueError("reduce_to_dr1 expects a homogeneous 1-form")
        source, target = _ends(encoding, code)
        if source != target:
            continue
        p0, p1 = code
        for j in range(len(p1)):
            _add_term(acc, (p1[j + 1 :] + p0 + p1[:j], (p1[j],)), coeff)
    return FormSum._of_terms(acc, x.quiver)


def tau(theta: Derivation) -> FormSum:
    """Image of a derivation under contraction with the canonical 2-form, in dR1."""
    return reduce_to_dr1(contract(theta, symplectic_form(theta.quiver)))


def necklace_differential(w: NecklaceWord) -> FormSum:
    """d of a necklace class, reduced to the dR1 basis (0 for a vertex class)."""
    return reduce_to_dr1(d_of_path_sum(PathSum.of(w.representative())))


def dr0_dimension(q: Quiver, length: int) -> int:
    """The number of necklaces of a length, DR0's dimension: karoubi_count(q, 0, L)."""
    return karoubi_count(q, 0, length)
