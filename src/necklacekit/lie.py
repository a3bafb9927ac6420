"""The necklace Lie algebra of a quiver.

Necklace words of the double quiver form a Lie algebra under the bracket
that opens both necklaces at matching occurrences of an arrow and its
reversed partner and reglues the complementary paths.  Vertex classes are
central; brackets of equal words vanish.
"""
from __future__ import annotations

from .paths import (
    Derivation,
    NecklaceSum,
    NecklaceWord,
    PathSum,
    partial_derivative,
    project_to_necklaces,
)
from .quiver import DoubleQuiver


def _as_sum(w: NecklaceWord | NecklaceSum) -> NecklaceSum:
    return NecklaceSum.of(w) if isinstance(w, NecklaceWord) else w


def kontsevich_bracket(
    w1: NecklaceWord | NecklaceSum, w2: NecklaceWord | NecklaceSum
) -> NecklaceSum:
    """Necklace bracket: sum over base arrows of dw1/da dw2/da* - dw1/da* dw2/da,
    multiplied in the path algebra and projected back to necklace classes."""
    s1, s2 = _as_sum(w1), _as_sum(w2)
    quiver = _common_quiver(s1, s2)
    if quiver is None:
        return NecklaceSum.zero()
    parts = []
    for arr in quiver.base_arrows:
        a = arr.label
        a_star = quiver.star(a)
        parts.append(partial_derivative(s1, a) * partial_derivative(s2, a_star))
        parts.append(-(partial_derivative(s1, a_star) * partial_derivative(s2, a)))
    return project_to_necklaces(PathSum._sum(parts))


def _common_quiver(s1: NecklaceSum, s2: NecklaceSum) -> DoubleQuiver | None:
    quivers = {w.quiver for w, _ in s1.terms()} | {w.quiver for w, _ in s2.terms()}
    if not quivers:
        return None
    if len(quivers) > 1:
        raise ValueError("necklaces live over different quivers")
    quiver = quivers.pop()
    if not isinstance(quiver, DoubleQuiver):
        raise ValueError("the necklace bracket is defined over a double quiver")
    return quiver


def hamiltonian_derivation(
    w: NecklaceWord | NecklaceSum, quiver: DoubleQuiver | None = None
) -> Derivation:
    """The derivation sending a to -dw/da* and a* to dw/da.

    Contraction against the canonical 2-form recovers d(w), so these are the
    hamiltonian vector fields of necklace classes; linear combinations are
    accepted.
    """
    s = _as_sum(w)
    if quiver is None:
        quivers = {word.quiver for word, _ in s.terms()}
        if len(quivers) != 1:
            raise ValueError("cannot infer the quiver; pass it explicitly")
        quiver = quivers.pop()
    if not isinstance(quiver, DoubleQuiver):
        raise ValueError("hamiltonian derivations live over a double quiver")
    images: dict[str, PathSum] = {}
    for arr in quiver.base_arrows:
        a = arr.label
        a_star = quiver.star(a)
        images[a] = -1 * partial_derivative(s, a_star)
        images[a_star] = partial_derivative(s, a)
    return Derivation(quiver, images)


def derivation_commutator(theta1: Derivation, theta2: Derivation) -> Derivation:
    """Commutator of derivations, a -> theta1(theta2(a)) - theta2(theta1(a))."""
    if theta1.quiver != theta2.quiver:
        raise ValueError("derivations live over different quivers")
    images = {
        arr.label: theta1(theta2.of_arrow(arr.label)) - theta2(theta1.of_arrow(arr.label))
        for arr in theta1.quiver.arrows
    }
    return Derivation(theta1.quiver, images)
