"""Groups given as `A * B` specs: the closed-form marks against
`gsets.hom_count` and restriction's Mackey form against the G-set orbit
path, both of which stay on as oracles."""

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from sliceburnside.groups import group_from_spec
from sliceburnside.ring import slice_classes

from test_marks import assert_columns_match_matrix, assert_marks_match_oracle
from test_restriction import assert_restriction_matches_orbit_path

ATOMS = {
    "cyclic:1": 1,
    "cyclic:2": 2,
    "cyclic:3": 3,
    "cyclic:4": 4,
    "cyclic:6": 6,
    "elab:2^2": 4,
    "dihedral:6": 6,
    "abelian:4x2": 8,
    "dihedral:8": 8,
    "mod:2": 8,
    "perm:(0 1 2),(1 2 3)": 12,
}
MAX_ORDER = 24


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    a=st.sampled_from(sorted(ATOMS)), b=st.sampled_from(sorted(ATOMS)), data=st.data()
)
def test_product_specs_match_the_oracles(a, b, data):
    assume(ATOMS[a] * ATOMS[b] <= MAX_ORDER)
    group = group_from_spec(f"{a} * {b}")
    assert group.order == ATOMS[a] * ATOMS[b]
    table = slice_classes(group)
    assert_marks_match_oracle(table)
    assert_columns_match_matrix(table)
    h = data.draw(st.sampled_from(table.lattice.class_reps))
    assert_restriction_matches_orbit_path(table, h)
