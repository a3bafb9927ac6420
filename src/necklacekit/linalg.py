"""Exact incremental row reduction over the integers.

Rows are sparse mappings column -> int or Fraction.  A row's span is that of
its primitive integer multiple (denominators cleared, the gcd of the
entries divided out, the leading entry made positive), so rows are scaled to
primitive integer rows on entry and every later step stays in the
integers: a known pivot is eliminated by cross-multiplying the two rows and
dividing out the content of the result, never by a division that leaves a
fraction.  Pivot rows are kept in echelon form (each pivot is the least
column of its row), which is enough for ranks, pivot columns and
span-membership tests without any floating-point arithmetic.  The pivot
columns are the leading columns of the span, so they do not depend on the
order in which rows are added.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Mapping


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """Divide out the content and make the leading entry positive."""
    content = gcd(*row.values())
    if row[min(row)] < 0:
        content = -content
    if content == 1:
        return row
    return {c: v // content for c, v in row.items()}


def _integer_row(row: Mapping[int, int | Fraction]) -> dict[int, int]:
    """The primitive integer multiple of a row, without its zero entries."""
    nonzero = {c: v for c, v in row.items() if v}
    if not nonzero:
        return nonzero
    if any(type(v) is not int for v in nonzero.values()):
        values = [Fraction(v) for v in nonzero.values()]
        scale = lcm(*(v.denominator for v in values))
        nonzero = {c: int(v * scale) for c, v in zip(nonzero, values)}
    return _primitive(nonzero)


class RowReducer:
    def __init__(self) -> None:
        self._pivots: dict[int, dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self._pivots)

    @property
    def pivot_columns(self) -> set[int]:
        return set(self._pivots)

    def reduce(self, row: Mapping[int, int | Fraction]) -> dict[int, int]:
        """Eliminate all known pivots from the primitive integer multiple of
        ``row``; the result is empty exactly when ``row`` lies in the span."""
        work = _integer_row(row)
        pivots = self._pivots
        while work:
            col = min(work)
            pivot = pivots.get(col)
            if pivot is None:
                break
            lead, factor = pivot[col], work[col]
            common = gcd(lead, factor)
            lead //= common
            factor //= common
            if lead != 1:
                work = {c: v * lead for c, v in work.items()}
            for c, v in pivot.items():
                new = work.get(c, 0) - factor * v
                if new:
                    work[c] = new
                else:
                    del work[c]
            if work:
                work = _primitive(work)
        return work

    def add(self, row: Mapping[int, int | Fraction]) -> bool:
        """Insert a row; return True when it enlarged the span."""
        reduced = self.reduce(row)
        if not reduced:
            return False
        self._pivots[min(reduced)] = reduced
        return True

    def contains(self, row: Mapping[int, int | Fraction]) -> bool:
        return not self.reduce(row)
