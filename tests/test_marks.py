"""The closed-form mark matrix against the G-set oracle `verify.oracle_marks`,
and the sparse-column mark vectors against the dense matrix, which is only
built for callers that ask for it."""

import hashlib
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from sliceburnside import cli, verify
from sliceburnside.groups import from_permutation_generators, group_from_spec
from sliceburnside.ideals import FAMILIES, burnside_image_rank, intersection_dimension
from sliceburnside.ring import SliceClassTable, SliceRingElement, slice_classes


def assert_marks_match_oracle(table):
    oracle = verify.oracle_marks(table)
    matrix = table.mark_matrix()
    for r in range(table.size):
        for c in range(table.size):
            assert matrix[r][c] == oracle[r][c], (table.group.label, r, c)


def assert_columns_match_matrix(table):
    matrix = table.mark_matrix()
    for c, column in enumerate(table.mark_columns()):
        assert column == {
            r: matrix[r][c] for r in range(table.size) if matrix[r][c]
        }


def dense_mark_vector(elem):
    matrix = elem.table.mark_matrix()
    return tuple(
        sum((q * matrix[r][c] for c, q in elem.coeffs.items()), Fraction(0))
        for r in range(elem.table.size)
    )


@pytest.mark.parametrize("idx", range(len(verify.CORPUS_SPECS) + 1))
def test_closed_form_matches_oracle_on_the_corpus(idx):
    table = slice_classes(verify.corpus().groups[idx])
    assert_marks_match_oracle(table)
    assert_columns_match_matrix(table)


@pytest.mark.parametrize(
    "spec",
    [
        "dihedral:16",
        "perm:(0 1 2 3),(0 1)",
        "dihedral:8 * cyclic:2",
        "perm:(0 1 2 3 4),(0 1)",
    ],
)
def test_closed_form_matches_oracle_on_larger_groups(spec):
    table = slice_classes(group_from_spec(spec))
    assert_marks_match_oracle(table)
    assert_columns_match_matrix(table)


def _cycles(perm):
    seen, cycles = set(), []
    for start in range(len(perm)):
        if start in seen or perm[start] == start:
            continue
        cyc, x = [], start
        while x not in seen:
            seen.add(x)
            cyc.append(x)
            x = perm[x]
        cycles.append(tuple(cyc))
    return cycles


@st.composite
def small_perm_groups(draw):
    degree = draw(st.integers(min_value=1, max_value=5))
    gens = draw(st.lists(st.permutations(range(degree)), min_size=1, max_size=2))
    group = from_permutation_generators([_cycles(p) for p in gens])
    # S5 alone costs more than every other case together; it has a fixed test
    assume(group.order < 120)
    return group


@st.composite
def rational_coeffs(draw, size):
    classes = draw(st.lists(st.integers(0, size - 1), max_size=6, unique=True))
    return {
        c: Fraction(draw(st.integers(-20, 20)), draw(st.integers(1, 12)))
        for c in classes
    }


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(group=small_perm_groups(), data=st.data())
def test_closed_form_matches_oracle_on_small_perm_groups(group, data):
    table = slice_classes(group)
    assert_marks_match_oracle(table)
    assert_columns_match_matrix(table)
    for _ in range(3):
        elem = SliceRingElement(table, data.draw(rational_coeffs(table.size)))
        assert elem.mark_vector() == dense_mark_vector(elem)
        cls = data.draw(st.integers(0, table.size - 1))
        assert elem.mark(cls) == dense_mark_vector(elem)[cls]


@pytest.mark.parametrize(
    "spec, classes, j4_dimension",
    [("elab:2^4", 67, 51), ("heis:3", 11, 5), ("elab:2^5", 374, 342)],
)
def test_marks_ranks_and_idempotents_never_build_the_dense_matrix(
    spec, classes, j4_dimension, monkeypatch
):
    def refuse(self):
        raise AssertionError("the dense mark matrix was built")

    monkeypatch.setattr(SliceClassTable, "mark_matrix", refuse)
    group = group_from_spec(spec)
    table = slice_classes(group)
    xs = table.idempotents()
    for cls in (0, table.size // 2, table.size - 1):
        assert xs[cls].mark_vector() == tuple(
            Fraction(int(r == cls)) for r in range(table.size)
        )
        assert xs[cls].mark(cls) == 1
    assert burnside_image_rank(group) == classes
    assert intersection_dimension(group, FAMILIES["J4"]) == j4_dimension
    assert intersection_dimension(group, FAMILIES["FULL"]) == classes


MARKS_DIGESTS = {
    ("--format", "json", "marks", "heis:3 * cyclic:3"):
        "789d7ae4e49fa12c954b28025f1589ea1d9f0fd72c76a8e96504a149d9d49617",
    ("marks", "dihedral:16"):
        "ca00a4af7592aa5b3e20e52f8e70dfeb12fe95e89b1f3014ed0f14c5bf67fa38",
}


@pytest.mark.parametrize("argv", list(MARKS_DIGESTS), ids=["heis-c3-json", "d16-csv"])
def test_marks_cli_output_is_pinned(argv, capsys):
    assert cli.main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == MARKS_DIGESTS[argv]
