"""Exact rank over the rationals of sparse integer matrices, by fraction-free
elimination.  A row is a `{column: int}` mapping, the format of the mark
columns it ranks, which are mostly zeros; absent columns are zero."""

from __future__ import annotations

from math import gcd
from operator import index


def rational_rank(rows) -> int:
    """Rank over Q of a matrix given as `{column: int}` rows, which it copies
    and never modifies; a non-integer value, zero or not, raises `TypeError`.
    The pivot is the pending row with the fewest nonzeros, at its least
    column; every row holding that column becomes a·row − b·pivot, with
    a, b the two entries there over their gcd, and is divided by the gcd
    of its entries.  A step scales a row by a nonzero integer and subtracts
    a multiple of another row, so the row space over Q is kept and the rank
    is the number of pivots; the sparsest pivot keeps the fill-in small."""
    pending = [{c: v for c, x in row.items() if (v := index(x))} for row in rows]
    rank = 0
    while pending := [row for row in pending if row]:
        pivot = pending.pop(min(range(len(pending)), key=lambda i: len(pending[i])))
        col = min(pivot)
        p = pivot[col]
        rank += 1
        for i, row in enumerate(pending):
            f = row.get(col)
            if f is None:
                continue
            g = gcd(p, f)
            a, b = p // g, f // g
            new = {c: a * v for c, v in row.items()}
            for c, v in pivot.items():
                if x := new.get(c, 0) - b * v:
                    new[c] = x
                else:
                    del new[c]
            d = gcd(*new.values())
            pending[i] = {c: v // d for c, v in new.items()} if d > 1 else new
    return rank
