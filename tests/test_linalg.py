"""Fraction-free integer rank against Gaussian elimination in Fractions,
which stays here as its oracle."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sliceburnside.linalg import rational_rank


def fraction_rank(rows):
    matrix = [[Fraction(v) for v in row] for row in rows]
    if not matrix:
        return 0
    ncols = len(matrix[0])
    rank = 0
    col = 0
    while rank < len(matrix) and col < ncols:
        pivot = next(
            (r for r in range(rank, len(matrix)) if matrix[r][col] != 0), None
        )
        if pivot is None:
            col += 1
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        prow = matrix[rank]
        inv = 1 / prow[col]
        for r in range(rank + 1, len(matrix)):
            factor = matrix[r][col] * inv
            if factor:
                row = matrix[r]
                for c in range(col, ncols):
                    row[c] -= factor * prow[c]
        rank += 1
        col += 1
    return rank


@st.composite
def integer_matrices(draw):
    ncols = draw(st.integers(0, 7))
    entries = st.integers(-50, 50) | st.sampled_from([0, 0, 0, 1, -1, 10**12])
    base = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), max_size=6))
    rows = list(base)
    # repeated rows, integer combinations of rows and zero rows
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["repeat", "combine", "zero"]))
        if kind == "zero" or not base:
            rows.append([0] * ncols)
        elif kind == "repeat":
            rows.append(list(draw(st.sampled_from(base))))
        else:
            a, b = draw(st.sampled_from(base)), draw(st.sampled_from(base))
            k, m = draw(st.integers(-5, 5)), draw(st.integers(-5, 5))
            rows.append([k * x + m * y for x, y in zip(a, b)])
    return draw(st.permutations(rows))


@settings(max_examples=300, deadline=None)
@given(rows=integer_matrices())
def test_rank_matches_fraction_elimination(rows):
    assert rational_rank(rows) == fraction_rank(rows)


def test_rank_examples():
    assert rational_rank([]) == 0
    assert rational_rank([[0, 0], [0, 0]]) == 0
    assert rational_rank([[2, 4], [1, 2], [-3, -6]]) == 1
    assert rational_rank([[0, 1, 2], [0, 2, 5], [0, 0, 0]]) == 2
    assert rational_rank([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 2


def test_rank_rejects_non_integers():
    with pytest.raises(TypeError):
        rational_rank([[Fraction(1, 2), 1]])
    with pytest.raises(TypeError):
        rational_rank([[1.0, 2]])
