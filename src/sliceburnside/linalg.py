"""Exact rank computation over the rationals for integer matrices."""

from __future__ import annotations

from operator import index


def rational_rank(rows) -> int:
    """Rank over the rationals of a matrix given as rows of ints, by
    fraction-free (Bareiss) elimination; a non-integer entry raises
    `TypeError`."""
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
