"""Exact arithmetic in the path algebra of a quiver and its necklace quotient.

Paths store their arrows in traversal order (first-traversed arrow first);
the algebra product ``p * q`` is nonzero exactly when ``source(p) ==
target(q)`` and then traverses ``q`` first.  Text I/O writes traversal order
with spaces (``a b a*``) and ``e<i>`` for the trivial path at vertex i.

Coefficients are exact, ``int`` or ``Fraction``: sums and products of integers
stay ``int``, and other inputs are converted to the ``Fraction`` of their
value; there is no floating point in this module.

Every exact sum (``PathSum``, ``NecklaceSum`` and ``forms.FormSum``) lives
over one quiver and keys its terms by codes in the quiver's encoding (see
_Encoding): a path or necklace with arrows is the tuple of its arrow
numbers, a trivial path or vertex class its vertex.  Products, partial
derivatives, the trace projection and derivations work on codes only.
Codes are the one stored form of paths and necklaces: nothing decoded is
kept.  ``Path`` and ``NecklaceWord`` are views, validated where labels enter
from outside (their constructors and textio.parse_path) and built unchecked
by ``_unchecked`` where the encoding produced them.

Each job has one route.  Paths of a length grow one arrow at a time from
the prefixes that can still reach it (_Encoding.words); one batch kernel
(_add_least_rotations) canonicalises every necklace and forms' map phi: it
reads a stream of (word, coefficient) pairs and adds each word's least
rotation, with its sign, into a sum in the loop that finds it, so the
bracket, the trace projection and phi pass it their words as generators,
and a single word (_least_rotation, for NecklaceWord) is a stream of one;
one generator (_Encoding.necklaces) lists least rotations, for
necklaces_of_length and forms.karoubi_dim; and one trace table per quiver
(_Encoding.closed_walks) feeds every count.  Each spends from
quiver.WORK_CAP, as its docstring says.  The views are slotted frozen
dataclasses, one object each for the cyclic collector.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Union

from .quiver import DoubleQuiver, Quiver, _nonnegative, _per_instance, _Steps, _vertex, double_of

Scalar = Union[int, Fraction]


@dataclass(frozen=True, slots=True)
class Path:
    """An oriented path: either a trivial path at a vertex or a chain of arrows."""

    quiver: Quiver
    arrows: tuple[str, ...]
    vertex: int | None = None

    def __post_init__(self) -> None:
        _path_ends(self)

    @classmethod
    def trivial(cls, q: Quiver, vertex: int) -> "Path":
        return cls(q, (), vertex)

    @classmethod
    def of_arrow(cls, q: Quiver, label: str) -> "Path":
        return cls(q, (label,))

    @property
    def length(self) -> int:
        return len(self.arrows)

    @property
    def source(self) -> int:
        if not self.arrows:
            return self.vertex  # type: ignore[return-value]
        return self.quiver.arrow(self.arrows[0]).source

    @property
    def target(self) -> int:
        if not self.arrows:
            return self.vertex  # type: ignore[return-value]
        return self.quiver.arrow(self.arrows[-1]).target

    def is_cycle(self) -> bool:
        return self.source == self.target

    def __str__(self) -> str:
        if not self.arrows:
            return f"e{self.vertex}"
        return " ".join(self.arrows)

    def __repr__(self) -> str:
        return f"Path({self})"


def _path_ends(view: Path | NecklaceWord) -> tuple[int, int]:
    """(source, target) of the path that a Path or NecklaceWord being built
    is given, refused when it is no path of its quiver.  Its arrows are
    stored as a tuple and its vertex, an integer argument (``quiver._int``),
    as an int."""
    q, arrows, vertex = view.quiver, tuple(view.arrows), view.vertex
    object.__setattr__(view, "arrows", arrows)
    if not arrows:
        if vertex is None:
            raise ValueError("a trivial path needs a vertex")
        vertex = _vertex(q.vertex_count, vertex)
        object.__setattr__(view, "vertex", vertex)
        return vertex, vertex
    if vertex is not None:
        raise ValueError("a path has either arrows or a vertex, not both")
    first = prev = q.arrow(arrows[0])
    for label in arrows[1:]:
        arr = q.arrow(label)
        if prev.target != arr.source:
            raise ValueError(
                f"arrows do not compose: {prev.label!r} ends at vertex "
                f"{prev.target} but {arr.label!r} starts at vertex {arr.source}"
            )
        prev = arr
    return first.source, prev.target


def _unchecked(cls, quiver: Quiver, arrows: tuple[str, ...], vertex: int | None):
    """A Path or NecklaceWord with fields known to be valid, such as labels
    the encoding produced, built without the checks of its constructor.  The
    views are frozen and slotted, so the fields are set by object.__setattr__."""
    view = cls.__new__(cls)
    object.__setattr__(view, "quiver", quiver)
    object.__setattr__(view, "arrows", arrows)
    object.__setattr__(view, "vertex", vertex)
    return view


def concat(p: Path, q: Path) -> Path | None:
    """Algebra product p.q as a single path, or None when endpoints mismatch."""
    if p.quiver != q.quiver:
        raise ValueError("paths live over different quivers")
    if p.source != q.target:
        return None
    if not p.arrows:
        return q
    if not q.arrows:
        return p
    return _unchecked(Path, p.quiver, q.arrows + p.arrows, None)


def _exact(coeff) -> Scalar:
    """An int stays as it is; any other number or numeric string becomes the
    exact Fraction of its value."""
    return coeff if type(coeff) is int else Fraction(coeff)


def _add_term(acc: dict, key, coeff: Scalar) -> None:
    """acc[key] += coeff, dropping the key when the sum is 0."""
    new = acc.get(key, 0) + coeff
    if new:
        acc[key] = new
    else:
        acc.pop(key, None)


def _joint_quiver(q1: Quiver | None, q2: Quiver | None, what: str = "terms") -> Quiver | None:
    """The quiver of two sums' terms, None standing for a zero sum."""
    if q1 is None or q1 is q2:
        return q2
    if q2 is not None and q1 != q2:
        raise ValueError(f"{what} live over different quivers")
    return q1


class LinearCombination:
    """Exact linear combination of one quiver's paths, necklaces or forms.

    Coefficients are int or Fraction and never 0; inputs of any other type
    (float, str, ...) are converted to the exact Fraction of their value.
    ``quiver`` is the quiver of the terms of a nonzero sum, None for a zero
    sum.  Terms are keyed by codes; the hooks ``_code(key)`` and
    ``_decode(code)`` translate between a code and its view, an instance of
    the class ``_view``, and default to Path and NecklaceWord.
    """

    __slots__ = ("_terms", "quiver")

    def __init__(self, terms: Mapping | Iterable[tuple] = ()) -> None:
        items = list(terms.items() if isinstance(terms, Mapping) else terms)
        quiver = None
        for key, _ in items:
            quiver = _joint_quiver(quiver, key.quiver)
        acc: dict = {}
        for key, coeff in items:
            _add_term(acc, self._code(key), _exact(coeff))
        self._terms = acc
        self.quiver = quiver if acc else None

    @classmethod
    def _of_terms(cls, acc: dict, quiver: Quiver | None = None):
        """Wrap an accumulator of codes whose coefficients are exact and nonzero."""
        result = cls.__new__(cls)
        result._terms = acc
        result.quiver = quiver if acc else None
        return result

    @classmethod
    def zero(cls):
        return cls._of_terms({})

    @classmethod
    def of(cls, key, coeff: Scalar = 1):
        return cls(((key, coeff),))

    @staticmethod
    def _code(view):
        return _encoding(view.quiver).code(view)

    def _decode(self, code):
        return _encoding(self.quiver).view(self._view, self.quiver, code)

    def terms(self) -> Iterator[tuple]:
        return ((self._decode(code), coeff) for code, coeff in self._terms.items())

    def coefficient(self, key) -> Scalar:
        """The coefficient of a basis element, an int or a Fraction (0 if absent)."""
        if not isinstance(key, self._view) or key.quiver != self.quiver:
            return 0
        return self._terms.get(self._code(key), 0)

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, int) and other == 0:
            return not self._terms
        if type(other) is not type(self):
            return NotImplemented
        return self._terms == other._terms and self.quiver == other.quiver

    def __hash__(self):
        return hash((type(self).__name__, self.quiver, frozenset(self._terms.items())))

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        quiver = _joint_quiver(self.quiver, other.quiver)
        acc = dict(self._terms)
        for key, coeff in other._terms.items():
            _add_term(acc, key, coeff)
        return self._of_terms(acc, quiver)

    def __neg__(self):
        return self._of_terms({k: -v for k, v in self._terms.items()}, self.quiver)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def _scaled(self, scalar: Scalar):
        scalar = _exact(scalar)
        terms = {k: v * scalar for k, v in self._terms.items()} if scalar else {}
        return self._of_terms(terms, self.quiver)

    def __rmul__(self, scalar):
        if isinstance(scalar, (int, Fraction)):
            return self._scaled(scalar)
        return NotImplemented

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for key, coeff in sorted(self.terms(), key=lambda kv: str(kv[0])):
            if coeff == 1:
                parts.append(str(key))
            elif coeff == -1:
                parts.append(f"-{key}")
            else:
                parts.append(f"{coeff} {key}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


class PathSum(LinearCombination):
    """Element of the path algebra: finite rational combination of paths."""

    __slots__ = ()
    _view = Path

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scaled(other)
        if not isinstance(other, PathSum):
            return NotImplemented
        if not self._terms or not other._terms:
            return PathSum.zero()
        quiver = _joint_quiver(self.quiver, other.quiver, "paths")
        encoding = _encoding(quiver)
        # a product q.p traverses p first and needs target(p) == source(q)
        by_target: dict[int, list] = {}
        for p, d in other._terms.items():
            end = p if type(p) is int else encoding.target[p[-1]]
            by_target.setdefault(end, []).append((p, d))
        acc: dict = {}
        for q, c in self._terms.items():
            if type(q) is int:
                for p, d in by_target.get(q, ()):
                    _add_term(acc, p, c * d)
            else:
                for p, d in by_target.get(encoding.source[q[0]], ()):
                    _add_term(acc, q if type(p) is int else p + q, c * d)
        return PathSum._of_terms(acc, quiver)


def unit(q: Quiver) -> PathSum:
    """The identity sum of all vertex idempotents e_1 + ... + e_k."""
    return PathSum((Path.trivial(q, v), 1) for v in q.vertices)


def compose(p: Path, q: Path) -> PathSum:
    """Product of two paths as a PathSum (zero when endpoints mismatch)."""
    pq = concat(p, q)
    return PathSum.zero() if pq is None else PathSum.of(pq)


@dataclass(frozen=True, slots=True)
class NecklaceWord:
    """Cyclic equivalence class of a closed path, stored as its least rotation.

    Length-zero classes are vertex classes and carry only the vertex.
    The constructor canonicalizes, so equal classes compare equal.
    """

    quiver: Quiver
    arrows: tuple[str, ...]
    vertex: int | None = None

    def __post_init__(self) -> None:
        source, target = _path_ends(self)
        if source != target:
            raise ValueError(
                f"necklace input is not closed: starts at vertex {source}, "
                f"ends at vertex {target}"
            )
        object.__setattr__(self, "arrows", _least_rotation(self.arrows)[0] if self.arrows else ())

    @classmethod
    def vertex_class(cls, q: Quiver, vertex: int) -> "NecklaceWord":
        return cls(q, (), vertex)

    @property
    def length(self) -> int:
        return len(self.arrows)

    def representative(self) -> Path:
        """A closed path representing this class (the stored rotation)."""
        return _unchecked(Path, self.quiver, self.arrows, self.vertex)

    def __str__(self) -> str:
        if not self.arrows:
            return f"[e{self.vertex}]"
        return "[" + " ".join(self.arrows) + "]"

    def __repr__(self) -> str:
        return f"NecklaceWord({self})"


def _add_least_rotations(acc: dict, words: Iterable[tuple], marks: int = 0):
    """Add each (word, coefficient) of a stream to acc, keyed by the word's
    least rotation and signed by the sign of reaching it, and return the
    least rotation of the last word.  Coefficients are exact and nonzero; a
    word that is a vertex (an int) is its own key.

    The scan starts at the first least letter and compares the rotations
    at the others, each only when its second letter is no greater than the
    best's.  A word with marks > 0 has forms.phi's letters 2a + mark:
    rotating off a prefix with k of the marks gives the sign
    (-1)^(k(marks - k)), and the least rotation is reached with both signs,
    the sign 0, when rotating it by its period moves j marks with
    j(marks - j) odd; such a word adds nothing.  An unmarked word has the
    sign 1."""
    best = None
    for word, coeff in words:
        if type(word) is int:
            best = word
        else:
            least, n = min(word), len(word)
            start = i = word.index(least)
            doubled = word + word
            best, period = doubled[i : i + n], 0
            for _ in range(word.count(least) - 1):
                i = word.index(least, i + 1)
                if doubled[i + 1] > best[1]:
                    continue
                rotation = doubled[i : i + n]
                if rotation < best:
                    best, start, period = rotation, i, 0
                elif marks and not period and rotation == best:
                    period = i - start
            if marks:
                j = sum([x & 1 for x in best[:period]])
                if j * (marks - j) % 2:
                    continue
                k = sum([x & 1 for x in word[:start]])
                if k * (marks - k) % 2:
                    coeff = -coeff
        new = acc.get(best, 0) + coeff
        if new:
            acc[best] = new
        else:
            del acc[best]
    return best


def _least_rotation(word: tuple, marks: int = 0) -> tuple[tuple, int]:
    """The least rotation of one nonempty word and the sign of reaching it,
    0 when it is reached with both signs (see _add_least_rotations)."""
    acc: dict = {}
    best = _add_least_rotations(acc, ((word, 1),), marks)
    return best, acc.get(best, 0)


class NecklaceSum(LinearCombination):
    """Rational combination of necklace words (an element of the trace quotient)."""

    __slots__ = ()
    _view = NecklaceWord

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scaled(other)
        return NotImplemented


def canonical_necklace(cycle: Path) -> NecklaceWord:
    """Necklace class of a closed path; NecklaceWord rejects non-closed input."""
    return NecklaceWord(cycle.quiver, cycle.arrows, cycle.vertex)


def project_to_necklaces(x: PathSum) -> NecklaceSum:
    """Quotient map to necklaces: cycles keep their class, open paths die."""
    if x.quiver is None:
        return NecklaceSum.zero()
    encoding, acc = _encoding(x.quiver), {}
    source, target = encoding.source, encoding.target
    closed = (
        (p, c) for p, c in x._terms.items() if type(p) is int or source[p[0]] == target[p[-1]]
    )
    _add_least_rotations(acc, closed)
    return NecklaceSum._of_terms(acc, x.quiver)


def _as_necklace_sum(w: NecklaceWord | NecklaceSum) -> NecklaceSum:
    """A word as a one-term sum, its code wrapped as it is; a sum unchanged."""
    if isinstance(w, NecklaceSum):
        return w
    if isinstance(w, NecklaceWord):
        return NecklaceSum._of_terms({_encoding(w.quiver).code(w): 1}, w.quiver)
    raise TypeError(f"expected a NecklaceWord or a NecklaceSum, got {type(w).__name__}")


def partial_derivative(w: NecklaceWord | NecklaceSum, label: str) -> PathSum:
    """Open a necklace at every occurrence of an arrow.

    Each occurrence contributes the complementary path, read in traversal
    order from the arrow's target back to its source; vertex classes have
    all partials zero.
    """
    s = _as_necklace_sum(w)
    if s.quiver is None:
        return PathSum.zero()
    s.quiver.arrow(label)
    encoding = _encoding(s.quiver)
    opened = encoding.openings(s._terms).get(encoding.arrow_index[label], {})
    return PathSum._of_terms(opened, s.quiver)


def moment_element(q: Quiver) -> PathSum:
    """The element sum_a (a a* - a* a) of the doubled path algebra."""
    dq = double_of(q)
    pairs = [(arr.label, dq.star(arr.label)) for arr in dq.base_arrows]
    # a a* traverses a* first
    return PathSum(
        term
        for a, a_star in pairs
        for term in ((Path(dq, (a_star, a)), 1), (Path(dq, (a, a_star)), -1))
    )


class Derivation:
    """Vertex-fixing derivation of a doubled path algebra, given on arrows.

    The image of an arrow must run from that arrow's source to its target
    (as a sum of such paths); vertices map to zero and the extension to
    paths is by the Leibniz rule.
    """

    def __init__(self, quiver: DoubleQuiver, images: Mapping[str, PathSum]) -> None:
        if not isinstance(quiver, DoubleQuiver):
            raise ValueError("derivations are defined over a double quiver")
        self.quiver = quiver
        encoding = _encoding(quiver)
        full: dict[str, PathSum] = {}
        for arr in quiver.arrows:
            image = images.get(arr.label, PathSum.zero())
            if image.quiver is not None and image.quiver != quiver:
                raise ValueError("derivation image lives over a different quiver")
            for code in image._terms:
                ends = encoding.ends(code)
                if ends != (arr.source, arr.target):
                    raise ValueError(
                        f"image of {arr.label!r} must run {arr.source}->{arr.target}, "
                        f"got a path {ends[0]}->{ends[1]}"
                    )
            full[arr.label] = image
        unknown = set(images) - set(full)
        if unknown:
            raise ValueError(f"unknown arrow labels in derivation: {sorted(unknown)}")
        self._set(quiver, full)

    @classmethod
    def _of_images(cls, quiver: DoubleQuiver, images: dict[str, PathSum]) -> "Derivation":
        """A derivation from images already known to be valid: one per arrow
        of the quiver, keyed in its arrow order, each running from the
        arrow's source to its target."""
        result = cls.__new__(cls)
        result._set(quiver, images)
        return result

    def _set(self, quiver: DoubleQuiver, images: dict[str, PathSum]) -> None:
        self.quiver = quiver
        self.images = images
        # the images' codes by arrow number
        self._coded = [images[label]._terms for label in _encoding(quiver).labels]

    def of_arrow(self, label: str) -> PathSum:
        self.quiver.arrow(label)
        return self.images[label]

    def __call__(self, x: Path | PathSum) -> PathSum:
        if not isinstance(x, (Path, PathSum)):
            raise TypeError(f"a derivation applies to a Path or a PathSum, got {type(x).__name__}")
        if x.quiver is not None and x.quiver != self.quiver:
            raise ValueError("paths live over different quivers")
        terms = x._terms if isinstance(x, PathSum) else {_encoding(self.quiver).code(x): 1}
        acc: dict = {}
        self._apply(terms, acc)
        return PathSum._of_terms(acc, self.quiver)

    def _apply(self, terms: dict, acc: dict) -> None:
        """Add the image of a sum of path codes to acc, replacing each arrow
        of each path in turn by the paths of its image."""
        images = self._coded
        for code, coeff in terms.items():
            if type(code) is int:
                continue
            for j, arrow in enumerate(code):
                for r, c in images[arrow].items():
                    if type(r) is int:
                        _add_term(acc, code[:j] + code[j + 1 :] or r, coeff * c)
                    else:
                        _add_term(acc, code[:j] + r + code[j + 1 :], coeff * c)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Derivation):
            return NotImplemented
        return self.quiver == other.quiver and self.images == other.images

    def __add__(self, other: "Derivation") -> "Derivation":
        if not isinstance(other, Derivation):
            return NotImplemented
        if self.quiver != other.quiver:
            raise ValueError("derivations live over different quivers")
        return Derivation._of_images(
            self.quiver,
            {lab: self.images[lab] + other.images[lab] for lab in self.images},
        )

    def __neg__(self) -> "Derivation":
        return Derivation._of_images(self.quiver, {lab: -img for lab, img in self.images.items()})

    def __sub__(self, other: "Derivation") -> "Derivation":
        return self + (-other)

    def __rmul__(self, scalar) -> "Derivation":
        if isinstance(scalar, (int, Fraction)):
            return Derivation._of_images(
                self.quiver, {lab: scalar * img for lab, img in self.images.items()}
            )
        return NotImplemented

    def is_zero(self) -> bool:
        return all(img.is_zero() for img in self.images.values())

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{lab} -> {img}" for lab, img in sorted(self.images.items()) if not img.is_zero()
        )
        return f"Derivation({parts or '0'})"


def zero_derivation(dq: DoubleQuiver) -> Derivation:
    return Derivation(dq, {})


def euler_derivation(dq: DoubleQuiver) -> Derivation:
    """The derivation fixing vertices and sending every arrow to itself."""
    return Derivation(dq, {a.label: PathSum.of(Path.of_arrow(dq, a.label)) for a in dq.arrows})


class _Encoding:
    """The paths of one quiver as codes: a path with arrows is the tuple of
    its arrow numbers in traversal order, a trivial path its vertex.

    Arrows are numbered in sorted-label order, so encoded paths compare as
    their label tuples do, and the least rotation of a code is the code of
    the least rotation of its labels.  On a double quiver ``star`` maps each
    arrow number to its partner's; a base label sorts before its starred
    partner, so an arrow x is a base arrow exactly when x < star[x].
    Stored on the quiver instance (see _encoding), so it is released with it;
    it keeps no decoded path, only the trace table that closed_walks extends.
    """

    def __init__(self, q: Quiver) -> None:
        arrows = sorted(q.arrows, key=lambda a: a.label)
        self.labels = tuple(a.label for a in arrows)
        self.arrow_index = {label: i for i, label in enumerate(self.labels)}
        self.source = tuple(a.source for a in arrows)
        self.target = tuple(a.target for a in arrows)
        self.star = (
            tuple(self.arrow_index[q.star(label)] for label in self.labels)
            if isinstance(q, DoubleQuiver)
            else None
        )
        self.vertices = q.vertices
        self._leaving = {
            v: tuple(i for i, s in enumerate(self.source) if s == v) for v in q.vertices
        }
        # A^L for the largest L counted so far, and tr(A^L) for every L up
        # to it, A the adjacency matrix
        self._power = [[int(i == j) for j in q.vertices] for i in q.vertices]
        self._traces = [q.vertex_count]

    def closed_walks(self, length: int, steps: _Steps) -> int:
        """The closed paths of a length: tr(A^L).  Each length added to the
        table spends one step per 64-bit word of the entries of its A^L.
        The extension is built in locals and stored once it is paid for, so
        a refused call leaves the table as it found it."""
        power, traces = self._power, []
        for _ in range(len(self._traces), length + 1):
            new = [[0] * len(row) for row in power]
            for s, t in zip(self.source, self.target):
                for row, out in zip(power, new):
                    out[t - 1] += row[s - 1]
            steps.spend(sum(x.bit_length() // 64 + 1 for row in new for x in row))
            power = new
            traces.append(sum(row[i] for i, row in enumerate(power)))
        self._power = power
        self._traces += traces
        return self._traces[length]

    def _reach(self, length: int) -> list[dict[int, int]]:
        """reach[j][u], for j < length: the vertices that walks of j arrows
        from u end at, as a bit mask with bit v for vertex v."""
        reach = [{u: 1 << u for u in self._leaving}]
        for _ in range(1, length):
            last, ends = reach[-1], dict.fromkeys(self._leaving, 0)
            for u, v in zip(self.source, self.target):
                ends[u] |= last[v]
            reach.append(ends)
        return reach

    def words(self, length: int, steps: _Steps) -> tuple[tuple[int, ...], ...]:
        """Encoded paths of a length >= 1, in increasing order, grown one
        arrow at a time from the prefixes that extend to that length.  Each
        level spends one step per prefix before it is built."""
        reach, target, leaving = self._reach(length), self.target, self._leaving
        words = [(a,) for a in range(len(self.labels)) if reach[length - 1][target[a]]]
        steps.spend(len(words))
        for j in range(length - 2, -1, -1):
            after = {v: [a for a in out if reach[j][target[a]]] for v, out in leaving.items()}
            steps.spend(sum(len(after[target[w[-1]]]) for w in words))
            words = [w + (a,) for w in words for a in after[target[w[-1]]]]
        return tuple(words)

    def necklaces(self, length: int, marks: int, steps: _Steps) -> Iterator[tuple[int, ...]]:
        """The least rotations of the closed walks of a length >= 1 with
        ``marks`` marked letters 2a + 1 (the others 2a), in increasing order,
        less those reached with both signs (see _least_rotation).

        A Fredricksen-Kessler-Maiorana prenecklace search restricted to
        closed walks (Ruskey-Sawada, "Generating necklaces and strings with
        forbidden substrings", 2000): letter t starts at word[t - p], p the
        prefix's period, and leaves a walk of the remaining length back to
        the first letter.  A full word whose p divides the length is a least
        rotation; rotating it by p moves k = marks p / length marks, and it
        is dropped when k(marks - k) is odd.  Each loop iteration spends a
        step."""
        source, target, reach = self.source, self.target, self._reach(length)
        step = 1 if marks else 2
        letters = {
            v: [2 * a + m for a in out for m in range(0, 2, step)]
            for v, out in self._leaving.items()
        }
        # word[1..t], the period and the marks of each prefix, and for each
        # position an iterator over the letters it has left to try
        word, period, count = [-1] + [0] * length, [1] + [0] * length, [0] * (length + 1)
        stack = [iter(range(0, 2 * len(self.labels), step))]
        while stack:
            steps.spend()
            t = len(stack)
            letter = next(stack[-1], None)
            if letter is None:
                stack.pop()
                continue
            word[t], count[t] = letter, count[t - 1] + (letter & 1)
            ends = reach[length - t][target[letter >> 1]] >> source[word[1] >> 1]
            if not (ends & 1 and 0 <= marks - count[t] <= length - t):
                continue
            p = period[t] = period[t - 1] if letter == word[t - period[t - 1]] else t
            if t < length:
                after = letters[target[letter >> 1]]
                stack.append(iter(after[bisect_left(after, word[t + 1 - p]) :]))
            elif length % p == 0 and not count[p] * (marks - count[p]) % 2:
                yield tuple(word[1:])

    def view(self, cls, q: Quiver, code):
        """The view of class cls (Path or NecklaceWord) over q of a code the
        encoding produced: a vertex, or arrow numbers (a sequence) that
        compose, for a necklace in least rotation; built unchecked."""
        if type(code) is int:
            return _unchecked(cls, q, (), code)
        # a tuple built from a list is allocated at its size once; one built
        # from a generator is allocated at a guessed size and shrunk, which
        # leaves blocks of every size behind in the interpreter's free lists
        labels = self.labels
        return _unchecked(cls, q, tuple([labels[i] for i in code]), None)

    def code(self, view: Path | NecklaceWord):
        """The code of a path, or of a necklace (its labels are already the
        least rotation)."""
        if not view.arrows:
            return view.vertex
        index = self.arrow_index
        return tuple([index[label] for label in view.arrows])

    def ends(self, code) -> tuple[int, int]:
        """(source, target) of a path code."""
        if type(code) is int:
            return code, code
        return self.source[code[0]], self.target[code[-1]]

    def openings(self, terms: dict) -> dict[int, dict]:
        """Every partial derivative of a sum of necklace codes, by arrow
        number: opening a necklace at an occurrence of x leaves the rest of
        the cycle, read from the end of x round to its start, or the trivial
        path at target(x) when x was all of it."""
        target = self.target
        opened: dict[int, dict] = {}
        for word, coeff in terms.items():
            if type(word) is int:
                continue
            for j, x in enumerate(word):
                _add_term(opened.setdefault(x, {}), word[j + 1 :] + word[:j] or target[x], coeff)
        return opened


@_per_instance("_path_encoding")
def _encoding(q: Quiver) -> _Encoding:
    return _Encoding(q)


def _path_codes(encoding: _Encoding, length: int) -> Iterable:
    """The codes of the paths of a length, in increasing order."""
    length = _nonnegative(length, "length")
    return encoding.vertices if length == 0 else encoding.words(length, _Steps())


def paths_of_length(q: Quiver, length: int) -> tuple[Path, ...]:
    """All paths of the given length, in deterministic label-lexicographic order."""
    encoding = _encoding(q)
    return tuple([encoding.view(Path, q, code) for code in _path_codes(encoding, length)])


def paths_between(q: Quiver, source: int, target: int, length: int) -> tuple[Path, ...]:
    """The paths of paths_of_length that run from source to target."""
    ends = (_vertex(q.vertex_count, source), _vertex(q.vertex_count, target))
    encoding = _encoding(q)
    codes = [code for code in _path_codes(encoding, length) if encoding.ends(code) == ends]
    return tuple([encoding.view(Path, q, code) for code in codes])


def necklaces_of_length(q: Quiver, length: int) -> tuple[NecklaceWord, ...]:
    """All necklace classes of the given length, deduplicated and sorted."""
    length = _nonnegative(length, "length")
    encoding = _encoding(q)
    if length == 0:
        return tuple([encoding.view(NecklaceWord, q, v) for v in q.vertices])
    words = encoding.necklaces(length, 0, _Steps())
    return tuple([encoding.view(NecklaceWord, q, [x >> 1 for x in w]) for w in words])

