import pytest

from sliceburnside import gsets
from sliceburnside.groups import (
    GroupError,
    all_subgroups,
    cyclic_group,
    group_from_spec,
    quotient,
    subgroup_as_group,
)
from sliceburnside.ring import morphism_to_ring, slice_classes

from helpers import disjoint_union_morphism, empty_gset, one_point_gset


def _proj(table, t_members, s_members):
    return table.projection(table.class_index(t_members, s_members))


def test_coset_space_examples():
    c4 = cyclic_group(4)
    one_point = gsets.coset_space(c4, range(4))
    assert one_point.size == 1
    regular = gsets.coset_space(c4, [0])
    assert regular.size == 4
    assert regular.orbit_reps() == (0,)
    assert regular.stabilizer_members(2) == (0,)
    lat = all_subgroups(c4)
    two = next(s for s in lat.subgroups if len(s) == 2)
    cs = gsets.coset_space(c4, two.members)
    # the stabilizer of the identity coset is the subgroup itself
    assert cs.stabilizer_members(0) == two.members


@pytest.mark.parametrize("spec", ["cyclic:6", "dihedral:8", "heis:3"])
def test_coset_action_axioms(spec):
    g = group_from_spec(spec)
    lat = all_subgroups(g)
    for s in lat.subgroups:
        x = gsets.coset_space(g, s.members)
        x.check()


def test_projection_is_equivariant():
    d8 = group_from_spec("dihedral:8")
    lat = all_subgroups(d8)
    two = next(s for s in lat.subgroups if len(s) == 2)
    four = next(s for s in lat.subgroups if len(s) == 4 and set(two.members) <= set(s.members))
    f = gsets.canonical_projection(d8, two.members, four.members)
    f.check()
    with pytest.raises(GroupError):
        gsets.canonical_projection(d8, four.members, two.members)


def test_morphism_to_ring_examples():
    c4 = cyclic_group(4)
    table = slice_classes(c4)
    full = tuple(range(4))
    # identity of the one-point set
    pt = gsets.identity_morphism(one_point_gset(c4))
    assert morphism_to_ring(pt, table) == table.basis_element(
        table.class_index(full, full)
    )
    # a canonical projection decomposes as its own class
    two = (0, 2)
    f = gsets.canonical_projection(c4, two, full)
    assert morphism_to_ring(f, table) == table.basis_element(
        table.class_index(full, two)
    )
    # two regular copies mapping identically: multiplicity two
    reg = gsets.coset_space(c4, [0])
    idm = gsets.identity_morphism(reg)
    both = gsets.GSetMorphism(
        disjoint_union_morphism(idm, idm).source,
        reg,
        list(idm.mapping) + list(idm.mapping),
    )
    decomposed = morphism_to_ring(both, table)
    cls = table.class_index((0,), (0,))
    assert decomposed.coeffs == {cls: 2}


def test_non_equivariant_map_detected():
    c4 = cyclic_group(4)
    reg = gsets.coset_space(c4, [0])
    bad = gsets.GSetMorphism(reg, reg, [0, 1, 3, 2])
    with pytest.raises(GroupError):
        bad.check()


def test_disjoint_union_relation():
    # the class of a disjoint union is the sum of the part classes
    d8 = group_from_spec("dihedral:8")
    table = slice_classes(d8)
    lat = all_subgroups(d8)
    full = tuple(range(8))
    pieces = []
    for s in lat.subgroups[:4]:
        pieces.append(gsets.canonical_projection(d8, s.members, full))
    combined = pieces[0]
    total = morphism_to_ring(pieces[0], table)
    for f in pieces[1:]:
        combined = disjoint_union_morphism(combined, f)
        total = total + morphism_to_ring(f, table)
    assert morphism_to_ring(combined, table) == total


def test_hom_count_examples():
    c4 = cyclic_group(4)
    table = slice_classes(c4)
    full = tuple(range(4))
    pt = gsets.identity_morphism(one_point_gset(c4))
    reg_proj = _proj(table, full, (0,))
    two_proj = _proj(table, full, (0, 2))
    # anything into the point morphism: exactly one
    assert gsets.hom_count(reg_proj, pt) == 1
    assert gsets.hom_count(pt, pt) == 1
    # from the point morphism: needs a fixed point, so S = G
    assert gsets.hom_count(pt, reg_proj) == 0
    assert gsets.hom_count(pt, _proj(table, full, full)) == 1
    # from the regular projection: the index of the source subgroup
    assert gsets.hom_count(_proj(table, (0,), (0,)), two_proj) == 2
    assert gsets.hom_count(_proj(table, (0,), (0,)), reg_proj) == 4


def test_hom_count_multiplicative_for_transitive_source():
    d8 = group_from_spec("dihedral:8")
    table = slice_classes(d8)
    projs = [table.projection(c) for c in range(table.size)]
    a = projs[3]
    for b in projs[:6]:
        for c in projs[:6]:
            prod = gsets.morphism_product(b, c)
            assert gsets.hom_count(a, prod) == gsets.hom_count(a, b) * gsets.hom_count(a, c)


def test_product_with_point_is_identity():
    c6 = cyclic_group(6)
    table = slice_classes(c6)
    pt = gsets.identity_morphism(one_point_gset(c6))
    for cls in range(table.size):
        f = table.projection(cls)
        prod = gsets.morphism_product(f, pt)
        assert morphism_to_ring(prod, table) == table.basis_element(cls)


def test_empty_gset_everywhere():
    c2 = cyclic_group(2)
    table = slice_classes(c2)
    empty = empty_gset(c2)
    empty.check()
    f = gsets.GSetMorphism(empty, one_point_gset(c2), [])
    assert morphism_to_ring(f, table).is_zero()
    prod = gsets.morphism_product(f, gsets.identity_morphism(gsets.coset_space(c2, [0])))
    assert morphism_to_ring(prod, table).is_zero()


def test_elementary_op_basics():
    d8 = group_from_spec("dihedral:8")
    table = slice_classes(d8)
    lat = all_subgroups(d8)
    full_emb = subgroup_as_group(lat.subgroups[lat.index_of(range(8))])
    f = table.projection(2)
    # restriction to the whole group relabels nothing
    res = gsets.restrict_morphism(f, full_emb)
    assert res.mapping == f.mapping
    # deflation by the whole group lands on a point morphism
    q = quotient(d8, tuple(range(8)))
    deflated = gsets.deflate_morphism(f, q)
    assert deflated.source.size == 1 and deflated.target.size == 1
    # induction of a one-point morphism gives the identity on cosets
    two = next(s for s in lat.subgroups if len(s) == 2)
    emb = subgroup_as_group(two)
    pt_h = gsets.identity_morphism(one_point_gset(emb.source))
    induced = gsets.induce_morphism(pt_h, emb)
    assert induced.source.size == 4
    img = morphism_to_ring(induced, table)
    assert img == table.basis_element(table.class_index(two.members, two.members))


def test_induced_gset_action_axioms():
    d8 = group_from_spec("dihedral:8")
    lat = all_subgroups(d8)
    two = next(s for s in lat.subgroups if len(s) == 2)
    emb = subgroup_as_group(two)
    reg_h = gsets.coset_space(emb.source, [emb.source.identity])
    induced = gsets.induce_morphism(gsets.identity_morphism(reg_h), emb)
    induced.source.check()
    induced.check()
