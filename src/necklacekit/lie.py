"""The necklace Lie algebra of a quiver.

Necklace words of the double quiver form a Lie algebra under the bracket
that opens both necklaces at matching occurrences of an arrow and its
reversed partner and reglues the complementary paths.  Vertex classes are
central; brackets of equal words vanish.  Everything here works on the
arrow-number codes of the quiver's path encoding (see paths._Encoding).
A bracket streams its glued cycles through the one batch least-rotation
kernel (paths._add_least_rotations) into one sum, and a commutator fills
one accumulator per arrow through Derivation._apply.  Each function refuses
arguments of another type with a TypeError.
"""
from __future__ import annotations

from typing import Iterator

from .paths import (
    Derivation,
    NecklaceSum,
    NecklaceWord,
    PathSum,
    _add_least_rotations,
    _add_term,
    _as_necklace_sum,
    _encoding,
    _joint_quiver,
)
from .quiver import DoubleQuiver


def kontsevich_bracket(
    w1: NecklaceWord | NecklaceSum, w2: NecklaceWord | NecklaceSum
) -> NecklaceSum:
    """Necklace bracket: sum over base arrows of dw1/da dw2/da* - dw1/da* dw2/da,
    multiplied in the path algebra and projected back to necklace classes."""
    s1, s2 = _as_necklace_sum(w1), _as_necklace_sum(w2)
    quiver = _joint_quiver(s1.quiver, s2.quiver, "necklaces")
    if quiver is None:
        return NecklaceSum.zero()
    if not isinstance(quiver, DoubleQuiver):
        raise ValueError("the necklace bracket is defined over a double quiver")
    encoding = _encoding(quiver)
    opened1, opened2 = encoding.openings(s1._terms), encoding.openings(s2._terms)
    necklaces: dict = {}
    _add_least_rotations(necklaces, _glued(opened1, opened2, encoding.star))
    return NecklaceSum._of_terms(necklaces, quiver)


def _glued(opened1: dict, opened2: dict, star: tuple) -> Iterator[tuple]:
    """The products dw1/dx . dw2/dx* of the bracket, with their coefficients,
    added for a base arrow x and subtracted for a starred one: q runs from
    source(x) to target(x), where p starts, and p back to source(x), so
    every product is a closed path (a vertex when both are trivial)."""
    for x, left in opened1.items():
        right = opened2.get(star[x])
        if not right:
            continue
        sign = 1 if x < star[x] else -1
        for p, c in left.items():
            c = sign * c
            for q, d in right.items():
                yield p if type(q) is int else q if type(p) is int else q + p, c * d


def hamiltonian_derivation(
    w: NecklaceWord | NecklaceSum, quiver: DoubleQuiver | None = None
) -> Derivation:
    """The derivation sending a to -dw/da* and a* to dw/da.

    Contraction against the canonical 2-form recovers d(w), so these are the
    hamiltonian vector fields of necklace classes; linear combinations are
    accepted.
    """
    s = _as_necklace_sum(w)
    if quiver is None:
        quiver = s.quiver
        if quiver is None:
            raise ValueError("cannot infer the quiver; pass it explicitly")
    if not isinstance(quiver, DoubleQuiver):
        raise ValueError("hamiltonian derivations live over a double quiver")
    if s.quiver is not None and s.quiver != quiver:
        raise ValueError("necklaces live over a different quiver")
    encoding = _encoding(quiver)
    opened = encoding.openings(s._terms)
    images: dict[str, PathSum] = {}
    for arr in quiver.arrows:
        x = encoding.arrow_index[arr.label]
        partner = encoding.star[x]
        image = opened.get(partner, {})
        if x < partner:
            image = {code: -coeff for code, coeff in image.items()}
        images[arr.label] = PathSum._of_terms(image, quiver)
    # opening a necklace at the partner of x leaves a path from source(x) to
    # target(x), so the images need no endpoint check
    return Derivation._of_images(quiver, images)


def derivation_commutator(theta1: Derivation, theta2: Derivation) -> Derivation:
    """Commutator of derivations, a -> theta1(theta2(a)) - theta2(theta1(a)).

    Each image fills one accumulator: theta1(theta2(a)) is added into it
    term by term, and theta2(theta1(a)) is summed on its own and then
    subtracted.  Adding the second image's terms one by one could cancel a
    partial sum to 0 and restart it as an int where the difference of the
    two sums is a Fraction; this way every coefficient, and its type, is
    that difference."""
    for theta in (theta1, theta2):
        if not isinstance(theta, Derivation):
            raise TypeError(f"expected a Derivation, got {type(theta).__name__}")
    if theta1.quiver != theta2.quiver:
        raise ValueError("derivations live over different quivers")
    quiver, images = theta1.quiver, {}
    for label, image1 in theta1.images.items():
        acc: dict = {}
        theta1._apply(theta2.images[label]._terms, acc)
        subtracted: dict = {}
        theta2._apply(image1._terms, subtracted)
        for code, coeff in subtracted.items():
            _add_term(acc, code, -coeff)
        images[label] = PathSum._of_terms(acc, quiver)
    # derivations fix vertices, so they keep the endpoints of every path
    return Derivation._of_images(quiver, images)
