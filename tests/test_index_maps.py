"""The subgroup-index maps that the biset push reads, against the member-set
forms they replaced: `helpers.member_map_image` for the basis images of
induction, inflation, deflation and transport, `helpers.subgroup_positions`
for `GroupEmbedding.preimage_indices`, and the double-coset sum of Mackey's
formula for restriction.  The maps that `quotient` and `subgroup_as_group`
read off the lattice correspondence are checked against the member-tuple
form, `helpers.member_index_map`, and are pinned to call no member map."""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sliceburnside import bisetops
from sliceburnside.groups import (
    GroupEmbedding,
    GroupIsomorphism,
    GroupQuotient,
    SubgroupLattice,
    all_subgroups,
    automorphism_generators,
    cyclic_group,
    find_isomorphism,
    group_from_spec,
    quotient,
    subgroup_as_group,
)
from sliceburnside.ideals import GroupUniverse, bounded_closure
from sliceburnside.ring import SliceClassTable, SliceRingElement, slice_classes

from helpers import member_index_map, member_map_image, subgroup_positions
from test_closure_moves import criterion_07_seeds
from test_marks import small_perm_groups
from test_ring import double_coset_restriction

# D8, A4, S4, D8 x C2 and H27 x C3
SPECS = [
    "dihedral:8",
    "perm:(0 1 2),(0 1)(2 3)",
    "perm:(0 1 2 3),(0 1)",
    "dihedral:8 * cyclic:2",
    "heis:3 * cyclic:3",
]


def every_class(group):
    table = slice_classes(group)
    return SliceRingElement(table, {c: Fraction(c + 1) for c in range(table.size)})


def assert_push_matches_member_map(op, name, witness, source, out_group, member_map):
    table, out_table = slice_classes(source), slice_classes(out_group)
    op(every_class(source), witness)
    images = witness.basis_images[name]
    assert sorted(images) == list(range(table.size))
    for cls in range(table.size):
        assert images[cls] == member_map_image(table, out_table, member_map, cls), (name, cls)


def assert_embedding_maps(emb):
    assert emb.image_indices() == member_index_map(emb.image_members, emb.source, emb.target)
    positions = subgroup_positions(emb)
    inverse = emb.preimage_indices()
    assert len(inverse) == len(all_subgroups(emb.target).subgroups)
    for i, j in enumerate(inverse):
        assert j == positions.get(i, -1)


def assert_quotient_maps(q):
    assert q.image_indices() == member_index_map(q.image_members, q.source, q.group)
    assert q.preimage_indices() == member_index_map(q.preimage_members, q.group, q.source)


def assert_correspondence_maps_match(group):
    """Both index maps of the `quotient` witness of every normal N and of
    the `subgroup_as_group` embedding of every subgroup H of the group
    against the member-tuple oracle; returns the number of (N, subgroup of
    G) pairs of the quotients' image maps."""
    lat = all_subgroups(group)
    for h in lat.subgroups:
        assert_embedding_maps(subgroup_as_group(h))
    for n in lat.normal:
        assert_quotient_maps(quotient(group, lat.subgroups[n].members))
    return len(lat.normal) * len(lat.subgroups)


def assert_embedding(emb):
    assert_embedding_maps(emb)
    assert_push_matches_member_map(
        bisetops.induce, "induction", emb, emb.source, emb.target, emb.image_members
    )
    table = slice_classes(emb.target)
    bisetops.restrict(every_class(emb.target), emb)
    images = emb.basis_images["restriction"]
    for cls in range(table.size):
        assert images[cls] == double_coset_restriction(table, emb, cls), cls


def assert_quotient(q):
    assert_quotient_maps(q)
    assert_push_matches_member_map(
        bisetops.deflate, "deflation", q, q.source, q.group, q.image_members
    )
    assert_push_matches_member_map(
        bisetops.inflate, "inflation", q, q.group, q.source, q.preimage_members
    )


def assert_transport(iso):
    assert_push_matches_member_map(
        bisetops.transport, "transport", iso, iso.source, iso.target, iso.image_members
    )


def inner_automorphism(group, g):
    return GroupIsomorphism(group, group, tuple(group.conj(g, x) for x in group.elements()))


@pytest.mark.parametrize("spec", SPECS)
def test_index_map_push_matches_the_member_maps(spec):
    g = group_from_spec(spec)
    lat = all_subgroups(g)
    for h in lat.class_reps:
        assert_embedding(subgroup_as_group(lat.subgroups[h]))
    for n in lat.normal:
        assert_quotient(quotient(g, lat.subgroups[n].members))
    for aut in automorphism_generators(g):
        assert_transport(GroupIsomorphism(g, g, aut))
    assert_transport(inner_automorphism(g, g.order - 1))


@pytest.mark.parametrize("spec", SPECS)
def test_correspondence_maps_equal_the_member_oracle(spec):
    assert_correspondence_maps_match(group_from_spec(spec))


def test_correspondence_witnesses_call_no_member_map(monkeypatch):
    # the universe's canonical maps push hand-built automorphisms, which
    # keep the member-tuple map, so it is built before the patch
    universe = GroupUniverse(3, 81)

    def refuse(*args, **kwargs):
        raise AssertionError("a member map behind a correspondence witness")

    for cls in (GroupEmbedding, GroupQuotient):
        monkeypatch.setattr(cls, "image_members", refuse)
        monkeypatch.setattr(cls, "preimage_members", refuse)
    for spec in ("perm:(0 1 2 3),(0 1)", "heis:3 * cyclic:3"):
        g = group_from_spec(spec)
        lat = all_subgroups(g)
        for h in lat.subgroups:
            emb = subgroup_as_group(h)
            emb.image_indices(), emb.preimage_indices()
        for n in lat.normal:
            q = quotient(g, lat.subgroups[n].members)
            q.image_indices(), q.preimage_indices()
    for seed in criterion_07_seeds(3).values():
        assert bounded_closure(universe, *seed)
    assert universe._quotient_maps


def test_index_maps_of_an_isomorphism_between_separately_built_groups():
    a, b = group_from_spec("dihedral:8"), group_from_spec("perm:(0 1 2 3),(0 2)")
    iso = find_isomorphism(a, b)
    assert iso is not None
    assert_transport(iso)
    assert_embedding(iso)


def test_index_maps_of_a_hand_built_embedding_with_an_enumerated_source_lattice():
    # a fresh C2 has its own enumerated lattice, not one read off D8's
    d8, c2 = group_from_spec("dihedral:8"), cyclic_group(2)
    x = next(y for y in d8.elements() if y != d8.identity and d8.mul(y, y) == d8.identity)
    images = [0] * 2
    images[c2.identity], images[1 - c2.identity] = d8.identity, x
    emb = GroupEmbedding(c2, d8, tuple(images))
    emb.check()
    assert_embedding(emb)


def test_the_push_reads_only_the_index_maps(monkeypatch):
    # once a witness's maps exist, pushing a class builds no member tuple,
    # bitmask or class lookup by members
    g = group_from_spec("perm:(0 1 2 3),(0 1)")
    lat = all_subgroups(g)
    emb = subgroup_as_group(lat.subgroups[lat.class_reps[-2]])
    q = quotient(g, lat.subgroups[lat.normal[1]].members)
    iso = inner_automorphism(g, 1)
    for witness in (emb, q, iso):
        witness.image_indices(), witness.preimage_indices()
    tables = [slice_classes(x) for x in (g, emb.source, q.group)]

    def refuse(*args, **kwargs):
        raise AssertionError("a member-set lookup in the push")

    for cls, name in [
        (SliceClassTable, "rep_subgroups"),
        (SliceClassTable, "class_index"),
        (SubgroupLattice, "index_of"),
        (GroupEmbedding, "image_members"),
        (GroupEmbedding, "preimage_members"),
        (GroupQuotient, "image_members"),
        (GroupQuotient, "preimage_members"),
    ]:
        monkeypatch.setattr(cls, name, refuse)
    whole, sub, flat = (every_class(t.group) for t in tables)
    for out in (
        bisetops.induce(sub, emb),
        bisetops.restrict(whole, emb),
        bisetops.inflate(flat, q),
        bisetops.deflate(whole, q),
        bisetops.transport(whole, iso),
    ):
        assert not out.is_zero()


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(group=small_perm_groups(), data=st.data())
def test_index_map_push_matches_the_member_maps_on_small_perm_groups(group, data):
    lat = all_subgroups(group)
    assert_embedding(subgroup_as_group(lat.subgroups[data.draw(st.sampled_from(lat.class_reps))]))
    assert_quotient(quotient(group, lat.subgroups[data.draw(st.sampled_from(lat.normal))].members))
    assert_transport(inner_automorphism(group, data.draw(st.integers(0, group.order - 1))))
