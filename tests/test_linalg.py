"""Sparse fraction-free integer rank against two oracles: Gaussian
elimination in Fractions, and the dense Bareiss elimination that the sparse
kernel replaced.  The strategies and oracles work on dense rows; `as_columns`
turns them into the kernel's `{column: value}` rows, zeros included."""

from fractions import Fraction
from operator import index

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sliceburnside.groups import group_from_spec
from sliceburnside.ideals import (
    FAMILIES,
    _embedded_columns,
    burnside_image_rank,
    intersection_dimension,
    member_classes,
)
from sliceburnside.linalg import rational_rank
from sliceburnside.ring import slice_classes
from test_ring import GHOST_GROUPS


def as_columns(rows):
    """Dense rows as `{column: value}` rows, explicit zeros kept."""
    return [dict(enumerate(row)) for row in rows]


def dense(row, ncols):
    return [row.get(c, 0) for c in range(ncols)]


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


def bareiss_rank(rows):
    """Dense fraction-free (Bareiss) elimination over every column."""
    matrix = [[index(v) for v in row] for row in rows]
    if not matrix:
        return 0
    rank, prev = 0, 1
    for col in range(len(matrix[0])):
        pivot = next(
            (r for r in range(rank, len(matrix)) if matrix[r][col] != 0), None
        )
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        prow = matrix[rank]
        p = prow[col]
        # each entry stays a minor of the original matrix, so the division
        # by the previous pivot is exact
        for r in range(rank + 1, len(matrix)):
            f = matrix[r][col]
            matrix[r] = [(p * a - f * b) // prev for a, b in zip(matrix[r], prow)]
        prev = p
        rank += 1
        if rank == len(matrix):
            break
    return rank


def with_dependent_rows(draw, base, ncols):
    """`base` plus repeated rows, zero rows and integer combinations of two
    or three base rows, shuffled."""
    rows = list(base)
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["repeat", "combine", "zero"]))
        if kind == "zero" or not base:
            rows.append([0] * ncols)
        elif kind == "repeat":
            rows.append(list(draw(st.sampled_from(base))))
        else:
            terms = [draw(st.sampled_from(base)) for _ in range(draw(st.integers(2, 3)))]
            factors = [draw(st.integers(-5, 5)) for _ in terms]
            rows.append([sum(k * t[c] for k, t in zip(factors, terms)) for c in range(ncols)])
    return draw(st.permutations(rows))


@st.composite
def integer_matrices(draw):
    ncols = draw(st.integers(0, 7))
    entries = st.integers(-50, 50) | st.sampled_from([0, 0, 0, 1, -1, 10**12])
    base = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), max_size=6))
    return with_dependent_rows(draw, base, ncols)


@st.composite
def sparse_wide_matrices(draw):
    """Up to 8 independent-looking rows of up to 40 columns with at most a
    fifth of their entries nonzero, like the embedded mark columns, plus
    dependent rows."""
    ncols = draw(st.integers(1, 40))
    nonzero = st.integers(-(10**12), 10**12).filter(bool) | st.sampled_from([1, -1, 2, 3])
    base = []
    for _ in range(draw(st.integers(0, 8))):
        support = draw(st.sets(st.integers(0, ncols - 1), max_size=ncols // 5))
        row = [0] * ncols
        for c in support:
            row[c] = draw(nonzero)
        base.append(row)
    return with_dependent_rows(draw, base, ncols)


@settings(max_examples=300, deadline=None)
@given(rows=integer_matrices())
def test_rank_matches_fraction_elimination(rows):
    assert rational_rank(as_columns(rows)) == fraction_rank(rows) == bareiss_rank(rows)


@settings(max_examples=300, deadline=None)
@given(rows=sparse_wide_matrices())
def test_sparse_wide_rank_matches_both_oracles(rows):
    assert rational_rank(as_columns(rows)) == fraction_rank(rows) == bareiss_rank(rows)


@pytest.mark.parametrize("spec", GHOST_GROUPS)
def test_embedded_columns_rank_matches_bareiss(spec):
    table = slice_classes(group_from_spec(spec))
    full_rows = [dense(row, table.size) for row in _embedded_columns(table)]
    assert rational_rank(as_columns(full_rows)) == bareiss_rank(full_rows) == len(full_rows)
    for fid in ("J4", "J1"):
        members = set(member_classes(table, FAMILIES[fid]))
        keep = [r for r in range(table.size) if r not in members]
        restricted = [[row[r] for r in keep] for row in full_rows]
        assert rational_rank(as_columns(restricted)) == bareiss_rank(restricted)


def test_rank_examples():
    assert rational_rank([]) == 0
    assert rational_rank(as_columns([[0, 0], [0, 0]])) == 0
    assert rational_rank(as_columns([[2, 4], [1, 2], [-3, -6]])) == 1
    assert rational_rank(as_columns([[0, 1, 2], [0, 2, 5], [0, 0, 0]])) == 2
    assert rational_rank(as_columns([[1, 2, 3], [4, 5, 6], [7, 8, 9]])) == 2


def test_rank_rejects_non_integers():
    with pytest.raises(TypeError):
        rational_rank([{0: Fraction(1, 2), 1: 1}])
    with pytest.raises(TypeError):
        rational_rank([{0: 1.0, 1: 2}])
    # zeros are read through operator.index too, before the sparse filter
    with pytest.raises(TypeError):
        rational_rank([{0: 0.0, 1: 1}])
    with pytest.raises(TypeError):
        rational_rank([{0: Fraction(0), 1: 1}])


@pytest.mark.parametrize("spec", GHOST_GROUPS)
def test_embedded_columns_are_the_mark_vectors_of_the_diagonal_slices(spec):
    table = slice_classes(group_from_spec(spec))
    reps = table.lattice.class_reps
    rows = _embedded_columns(table)
    assert len(rows) == len(reps)
    for i, row in zip(reps, rows):
        expected = table.basis_element(table.class_of[i, i]).mark_vector()
        assert dense(row, table.size) == list(expected)


@pytest.mark.parametrize("spec", GHOST_GROUPS)
def test_ranking_leaves_the_cached_mark_columns_unchanged(spec):
    group = group_from_spec(spec)
    table = slice_classes(group)
    columns = table.mark_columns()
    before = [dict(column) for column in columns]
    burnside_image_rank(group)
    intersection_dimension(group, FAMILIES["J4"])
    assert table.mark_columns() is columns
    assert columns == before
