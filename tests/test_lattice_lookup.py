"""The member-tuple boundary of a subgroup lattice: `SubgroupLattice.index_of`
finds the lattice's own sorted member tuples by one lookup, and `normalizer`
and `slice_normalizer` return the lattice's own records.  Checked against
the mask loop and bit scans they replaced (`helpers.mask_loop_index`,
`helpers.bit_scan_normalizer` and `helpers.bit_scan_slice_normalizer`)."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sliceburnside import verify
from sliceburnside.constants import deflation_constant
from sliceburnside.groups import (
    GroupError,
    all_subgroups,
    group_from_spec,
    normalizer,
    quotient,
    slice_normalizer,
    subgroup_as_group,
)
from sliceburnside.ring import slice_classes

from helpers import bit_scan_normalizer, bit_scan_slice_normalizer, mask_loop_index
from test_groups import count_calls
from test_marks import small_perm_groups

# S4, A4 and H27 x C3
EXTRA_SPECS = ["perm:(0 1 2 3),(0 1)", "perm:(0 1 2),(0 1)(2 3)", "heis:3 * cyclic:3"]


def assert_lookups_match(group) -> int:
    """Check every subgroup of `group` against the oracles and return how
    many there are: `index_of` of its member tuple, a shuffled list, a set
    and a generator; `normalizer`, which must be the lattice's own record of
    N_G(H); and `slice_normalizer` with H as top and as bottom of a pair
    whose other subgroup is the middle entry of H's `below`."""
    lat = all_subgroups(group)
    rng = random.Random(len(lat.subgroups))
    for i, sub in enumerate(lat.subgroups):
        members = sub.members
        shuffled = list(members)
        rng.shuffle(shuffled)
        for form in (members, shuffled, set(members), (x for x in members)):
            assert lat.index_of(form) == mask_loop_index(lat, members) == i, (group.label, i)
        oracle = bit_scan_normalizer(group, members)
        norm = normalizer(group, members)
        assert norm == oracle, (group.label, i)
        assert norm is lat.subgroups[mask_loop_index(lat, oracle.members)], (group.label, i)
        other = lat.subgroups[lat.below[i][len(lat.below[i]) // 2]].members
        for t, s in ((members, other), (other, members)):
            assert slice_normalizer(group, t, s) == bit_scan_slice_normalizer(group, t, s)
    return len(lat.subgroups)


def with_derived(group) -> list:
    """The group, its quotient by its first minimal normal subgroup and its
    first maximal subgroup as a standalone group, each where it exists."""
    lat = all_subgroups(group)
    out = [group]
    if lat.minimal_normal:
        out.append(quotient(group, lat.subgroups[lat.minimal_normal[0]].members).group)
    if lat.maximal_indices():
        out.append(subgroup_as_group(lat.subgroups[lat.maximal_indices()[0]]).source)
    return out


@pytest.mark.parametrize("idx", range(len(verify.CORPUS_SPECS) + 1))
def test_lookups_match_the_mask_loop_on_the_corpus(idx):
    for group in with_derived(verify.corpus().groups[idx]):
        assert assert_lookups_match(group) == len(all_subgroups(group).subgroups)


@pytest.mark.parametrize("spec", EXTRA_SPECS)
def test_lookups_match_the_mask_loop_on_larger_groups(spec):
    checked = [assert_lookups_match(group) for group in with_derived(group_from_spec(spec))]
    assert len(checked) == 3


@pytest.mark.parametrize("spec", ["dihedral:8", *EXTRA_SPECS])
def test_own_member_tuples_build_no_mask_and_normalizers_scan_no_bits(monkeypatch, spec):
    g = group_from_spec(spec)
    lat = all_subgroups(g)
    for i in range(len(lat.subgroups)):
        lat.normalizer_mask(i)
    masks, scans = count_calls(monkeypatch, "_mask_of"), count_calls(monkeypatch, "_members_of")
    for i, sub in enumerate(lat.subgroups):
        assert lat.index_of(sub.members) == i
        normalizer(g, sub.members)
        slice_normalizer(g, lat.subgroups[lat.top].members, sub.members)
    assert masks == [] and scans == []


def test_members_outside_the_group_are_not_a_subgroup():
    # a negative or oversized member lies in no subgroup's member tuple, so
    # it is refused as a non-subgroup; no bitmask of it is built
    d8 = group_from_spec("dihedral:8")
    lat = all_subgroups(d8)
    n = lat.subgroups[lat.normal[1]].members
    with pytest.raises(GroupError, match="not a subgroup of this group"):
        deflation_constant(d8, (-1, 0), n)
    with pytest.raises(GroupError, match="not a subgroup of this group"):
        normalizer(d8, (0, -3))
    with pytest.raises(GroupError, match="not a subgroup of this group"):
        slice_classes(d8).class_index((0, 1 << 70), (0,))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(group=small_perm_groups(), data=st.data())
def test_index_of_refuses_exactly_the_non_subgroups(group, data):
    # a subgroup, or nothing, with some elements toggled and perhaps one
    # member outside the group, passed as a tuple, list, set or generator
    lat = all_subgroups(group)
    n = group.order
    base = data.draw(st.sampled_from([()] + [s.members for s in lat.subgroups]))
    flips = data.draw(st.sets(st.integers(0, n - 1), max_size=n))
    outside = data.draw(st.sets(st.sampled_from([-1, -n, n, 1 << 70]), max_size=1))
    members = sorted(set(base) ^ flips) + sorted(outside)
    form = data.draw(st.sampled_from([tuple, list, set, lambda xs: (x for x in xs)]))(members)
    inside = set(members)
    closed = bool(members) and not outside and all(
        group.mul(a, b) in inside for a in members for b in members
    )
    if closed:
        assert lat.subgroups[lat.index_of(form)].members == tuple(members)
    else:
        with pytest.raises(GroupError):
            lat.index_of(form)
