"""Restriction's Mackey closed form on lattice masks against the G-set
orbit path `verify.oracle_image` with `gsets.restrict_morphism`, which
stays on as its oracle."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sliceburnside import bisetops, gsets, verify
from sliceburnside.groups import group_from_spec, subgroup_as_group
from sliceburnside.ring import slice_classes

from test_marks import small_perm_groups


def assert_restriction_matches_orbit_path(table, h):
    emb = subgroup_as_group(table.lattice.subgroups[h])
    for cls in range(table.size):
        elem = table.basis_element(cls)
        oracle = verify.oracle_image(elem, emb, gsets.restrict_morphism, emb.source)
        assert bisetops.restrict(elem, emb) == oracle, (table.group.label, h, cls)


@pytest.mark.parametrize("idx", range(len(verify.CORPUS_SPECS) + 1))
def test_mackey_matches_orbit_path_on_the_corpus(idx):
    table = slice_classes(verify.corpus().groups[idx])
    for h in table.lattice.class_reps:
        assert_restriction_matches_orbit_path(table, h)


@pytest.mark.parametrize(
    "spec", ["dihedral:16", "perm:(0 1 2 3),(0 1)", "dihedral:8 * cyclic:2"]
)
def test_mackey_matches_orbit_path_on_larger_groups(spec):
    table = slice_classes(group_from_spec(spec))
    for h in table.lattice.class_reps:
        assert_restriction_matches_orbit_path(table, h)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(group=small_perm_groups(), data=st.data())
def test_mackey_matches_orbit_path_on_small_perm_groups(group, data):
    table = slice_classes(group)
    h = data.draw(st.sampled_from(table.lattice.class_reps))
    assert_restriction_matches_orbit_path(table, h)
