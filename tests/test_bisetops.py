import gc
import inspect
import weakref
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sliceburnside import bisetops, gsets, verify
from sliceburnside.constants import deflation_idempotent_scalar
from sliceburnside.groups import (
    GroupError,
    GroupIsomorphism,
    all_subgroups,
    automorphism_generators,
    automorphisms,
    cyclic_group,
    group_from_spec,
    quotient,
    slice_normalizer,
    subgroup_as_group,
)
from sliceburnside.ring import SliceClassTable, SliceRingElement, slice_classes

from test_marks import rational_coeffs, small_perm_groups


def checked(op, morphism_map, elem, witness):
    """`op(elem, witness)`, asserted equal to the G-set oracle's image."""
    out = op(elem, witness)
    assert verify.oracle_image(elem, witness, morphism_map, out.table.group) == out
    return out


def _full_embedding(g):
    lat = all_subgroups(g)
    return subgroup_as_group(lat.subgroups[lat.index_of(range(g.order))])


def test_induction_and_restriction_by_whole_group_are_identity():
    d8 = group_from_spec("dihedral:8")
    t = slice_classes(d8)
    emb = _full_embedding(d8)
    th = slice_classes(emb.source)
    for cls in range(th.size):
        xi = th.idempotent(cls)
        up = checked(bisetops.induce, gsets.induce_morphism, xi, emb)
        back = checked(bisetops.restrict, gsets.restrict_morphism, up, emb)
        assert back == xi


def test_induction_basis_rule_example():
    c4 = cyclic_group(4)
    lat = all_subgroups(c4)
    two = next(s for s in lat.subgroups if len(s) == 2)
    emb = subgroup_as_group(two)
    th = slice_classes(emb.source)
    t = slice_classes(c4)
    elem = th.basis_element(th.class_index((0, 1), (0,)))
    out = checked(bisetops.induce, gsets.induce_morphism, elem, emb)
    assert out == t.basis_element(t.class_index(two.members, (0,)))


def test_restriction_of_regular_projection_to_trivial_subgroup():
    c2 = cyclic_group(2)
    lat = all_subgroups(c2)
    triv = lat.subgroups[lat.index_of([0])]
    emb = subgroup_as_group(triv)
    t = slice_classes(c2)
    th = slice_classes(emb.source)
    elem = t.basis_element(t.class_index((0, 1), (0,)))
    out = checked(bisetops.restrict, gsets.restrict_morphism, elem, emb)
    # the two-point source falls into two orbits over the trivial group
    assert out == th.basis_element(0).scaled(2)


def test_inflation_basis_rule_example():
    c4 = cyclic_group(4)
    lat = all_subgroups(c4)
    two = next(s for s in lat.subgroups if len(s) == 2)
    q = quotient(c4, two.members)
    tq = slice_classes(q.group)
    t = slice_classes(c4)
    elem = tq.basis_element(tq.class_index((0, 1), (0, 1)))
    out = checked(bisetops.inflate, gsets.inflate_morphism, elem, q)
    assert out == t.one()


def test_deflation_of_proper_slice_idempotent_vanishes():
    c2 = cyclic_group(2)
    t = slice_classes(c2)
    q = quotient(c2, (0, 1))
    xi = t.idempotent(t.class_index((0, 1), (0,)))
    assert checked(bisetops.deflate, gsets.deflate_morphism, xi, q).is_zero()
    scalar = deflation_idempotent_scalar(c2, (0, 1), (0,), (0, 1))
    assert scalar == 0


def test_deflation_of_top_idempotent_scalar_agrees_both_ways():
    c2 = cyclic_group(2)
    t = slice_classes(c2)
    q = quotient(c2, (0, 1))
    tq = slice_classes(q.group)
    xi = t.idempotent(t.class_index((0, 1), (0, 1)))
    out = checked(bisetops.deflate, gsets.deflate_morphism, xi, q)
    scalar = deflation_idempotent_scalar(c2, (0, 1), (0, 1), (0, 1))
    assert out == tq.idempotent(0).scaled(scalar)
    assert scalar == Fraction(1, 2)


def test_transport_by_inner_automorphism_fixes_every_class():
    d8 = group_from_spec("dihedral:8")
    t = slice_classes(d8)
    g = 1
    images = tuple(d8.conj(g, x) for x in d8.elements())
    iso = GroupIsomorphism(d8, d8, images)
    iso.check()
    for cls in range(t.size):
        out = checked(bisetops.transport, gsets.transport_morphism, t.basis_element(cls), iso)
        assert out == t.basis_element(cls)


def test_transport_permutes_mark_matrix_consistently():
    v4 = group_from_spec("elab:2^2")
    t = slice_classes(v4)
    swap = next(
        a for a in automorphisms(v4) if a != tuple(range(4))
    )
    iso = GroupIsomorphism(v4, v4, swap)
    matrix = t.mark_matrix()
    perm = {}
    for cls in range(t.size):
        big, small = t.rep_subgroups(cls)
        perm[cls] = t.class_index(iso.image_members(big.members), iso.image_members(small.members))
    for r in range(t.size):
        for c in range(t.size):
            assert matrix[perm[r]][perm[c]] == matrix[r][c]


def test_idempotent_factors_through_induction_from_top():
    # the slice idempotent is a normalizer-index multiple of the induced
    # idempotent of the same slice inside its own top group
    for spec in ["dihedral:8", "abelian:9x3"]:
        g = group_from_spec(spec)
        t = slice_classes(g)
        for cls in range(t.size):
            big, small = t.rep_subgroups(cls)
            emb = subgroup_as_group(big)
            th = slice_classes(emb.source)
            back = {y: i for i, y in enumerate(emb.images)}
            inner = th.idempotent(
                th.class_index(
                    tuple(range(emb.source.order)),
                    tuple(sorted(back[x] for x in small.members)),
                )
            )
            nt_s = sum(
                1
                for x in big.members
                if {g.conj(x, y) for y in small.members} == set(small.members)
            )
            ratio = Fraction(nt_s, len(slice_normalizer(g, big.members, small.members)))
            assert bisetops.induce(inner, emb).scaled(ratio) == t.idempotent(cls)


def test_mackey_commutation_at_ring_level():
    g = group_from_spec("dihedral:8")
    lat = all_subgroups(g)
    t = slice_classes(g)
    subs = [s for s in lat.subgroups if 1 < len(s) < 8]
    for h in subs[:3]:
        for k in subs[3:6]:
            emb_h, emb_k = subgroup_as_group(h), subgroup_as_group(k)
            tk = slice_classes(emb_k.source)
            for cls in range(tk.size):
                elem = tk.idempotent(cls)
                lhs = bisetops.restrict(bisetops.induce(elem, emb_k), emb_h)
                rhs = slice_classes(emb_h.source).zero()
                from sliceburnside.groups import double_cosets

                for x in double_cosets(g, h.members, k.members):
                    inter = tuple(
                        sorted(set(h.members) & {g.conj(x, y) for y in k.members})
                    )
                    emb_hx = subgroup_as_group(
                        type(h)(g, inter)
                    )
                    # transport K-side data to the intersection subgroup
                    kx_members = tuple(
                        sorted(set(k.members) & {g.conj(g.inv(x), y) for y in h.members})
                    )
                    emb_kx = subgroup_as_group(type(h)(g, kx_members))
                    res = bisetops.restrict(elem, _relative_embedding(emb_kx, emb_k, g))
                    images = tuple(
                        _position(emb_hx.images, g.conj(x, emb_kx.images[i]))
                        for i in range(emb_kx.source.order)
                    )
                    iso = GroupIsomorphism(emb_kx.source, emb_hx.source, images)
                    moved = bisetops.transport(res, iso)
                    rhs = rhs + bisetops.induce(moved, _relative_embedding(emb_hx, emb_h, g))
                assert lhs == rhs


def _position(seq, value):
    return seq.index(value)


def _relative_embedding(small_emb, big_emb, parent):
    # inclusion of one subgroup-as-group inside another, through the parent
    back = {y: i for i, y in enumerate(big_emb.images)}
    images = tuple(back[small_emb.images[i]] for i in range(small_emb.source.order))
    from sliceburnside.groups import GroupEmbedding

    return GroupEmbedding(small_emb.source, big_emb.source, images)


def test_deflation_commutes_with_induction_at_ring_level():
    g = group_from_spec("dihedral:8")
    lat = all_subgroups(g)
    t = slice_classes(g)
    normals = [lat.subgroups[i] for i in lat.normal if 1 < len(lat.subgroups[i]) < 8]
    subs = [s for s in lat.subgroups if 1 < len(s) < 8]
    for n in normals[:2]:
        q = quotient(g, n.members)
        for h in subs[:4]:
            emb_h = subgroup_as_group(h)
            th = slice_classes(emb_h.source)
            # left side: induce to the parent, then deflate
            # right side: deflate inside the subgroup, transport, induce
            back_h = {y: i for i, y in enumerate(emb_h.images)}
            h_cap_n = tuple(sorted(back_h[x] for x in h.members if x in set(n.members)))
            q_h = quotient(emb_h.source, h_cap_n)
            hn_members = tuple(sorted({q.projection[x] for x in h.members}))
            lat_q = all_subgroups(q.group)
            emb_hn = subgroup_as_group(lat_q.subgroups[lat_q.index_of(hn_members)])
            images = []
            for i in range(q_h.group.order):
                rep_in_h = q_h.section[i]
                parent_elt = emb_h.images[rep_in_h]
                images.append(_position(emb_hn.images, q.projection[parent_elt]))
            iso = GroupIsomorphism(q_h.group, emb_hn.source, tuple(images))
            iso.check()
            for cls in range(th.size):
                elem = th.idempotent(cls)
                lhs = bisetops.deflate(bisetops.induce(elem, emb_h), q)
                rhs = bisetops.induce(
                    bisetops.transport(bisetops.deflate(elem, q_h), iso), emb_hn
                )
                assert lhs == rhs


def test_operations_reject_foreign_elements():
    c4 = cyclic_group(4)
    c6 = cyclic_group(6)
    t6 = slice_classes(c6)
    emb = _full_embedding(c4)
    with pytest.raises(GroupError):
        bisetops.induce(t6.one(), emb)
    q = quotient(c4, (0, 2))
    with pytest.raises(GroupError):
        bisetops.deflate(t6.one(), q)


def test_every_operation_matches_its_oracle_on_d8():
    d8 = group_from_spec("dihedral:8")
    lat = all_subgroups(d8)
    sub = subgroup_as_group(next(s for s in lat.subgroups if len(s) == 4))
    q = quotient(d8, lat.subgroups[lat.normal[1]].members)
    iso = GroupIsomorphism(d8, d8, automorphisms(d8)[-1])
    t8 = slice_classes(d8)
    xs = [t8.idempotent(c).scaled(c + 1) for c in range(t8.size)]
    elem = xs[0] + xs[3] - xs[-1]
    cases = [
        (bisetops.induce, slice_classes(sub.source).idempotent(1), sub, gsets.induce_morphism, d8),
        (bisetops.restrict, elem, sub, gsets.restrict_morphism, sub.source),
        (bisetops.inflate, slice_classes(q.group).idempotent(0), q, gsets.inflate_morphism, d8),
        (bisetops.deflate, elem, q, gsets.deflate_morphism, q.group),
        (bisetops.transport, elem, iso, gsets.transport_morphism, d8),
    ]
    for fn, x, witness, morphism_map, out_group in cases:
        direct = fn(x, witness)
        assert not direct.is_zero()
        assert verify.oracle_image(x, witness, morphism_map, out_group) == direct
    # an isomorphism is an embedding: restriction along it is transport back
    assert bisetops.restrict(elem, iso) == bisetops.transport(elem, iso.inverse())
    assert verify.oracle_image(elem, iso, gsets.restrict_morphism, d8) == (
        bisetops.transport(elem, iso.inverse())
    )


def test_operations_have_one_path_and_no_gset_import():
    for name in ("induce", "restrict", "inflate", "deflate", "transport"):
        assert list(inspect.signature(getattr(bisetops, name)).parameters) == [
            "elem", "witness"
        ], name
    assert not hasattr(bisetops, "gsets")
    assert not hasattr(bisetops, "morphism_to_ring")


def test_operations_run_without_the_gset_oracle(monkeypatch):
    # every production path is a closed form: nothing reaches the G-set
    # layer, while the oracle of the same push hits the broken layer
    def refuse(*args, **kwargs):
        raise AssertionError("the G-set oracle was called")

    for name, fn in vars(gsets).items():
        if inspect.isfunction(fn) and fn.__module__ == gsets.__name__:
            monkeypatch.setattr(gsets, name, refuse)
    monkeypatch.setattr(SliceClassTable, "projection", refuse)

    def every_class(group):
        table = slice_classes(group)
        return SliceRingElement(table, {c: Fraction(c + 1) for c in range(table.size)})

    d8 = group_from_spec("dihedral:8")
    lat = all_subgroups(d8)
    sub = subgroup_as_group(lat.subgroups[lat.class_reps[3]])
    q = quotient(d8, lat.subgroups[lat.normal[1]].members)
    iso = GroupIsomorphism(d8, d8, automorphisms(d8)[-1])
    cases = [
        (bisetops.induce, every_class(sub.source), sub, "induce_morphism", d8),
        (bisetops.restrict, every_class(d8), sub, "restrict_morphism", sub.source),
        (bisetops.inflate, every_class(q.group), q, "inflate_morphism", d8),
        (bisetops.deflate, every_class(d8), q, "deflate_morphism", q.group),
        (bisetops.transport, every_class(d8), iso, "transport_morphism", d8),
    ]
    for fn, x, witness, morphism_map, out_group in cases:
        assert not fn(x, witness).is_zero()
        with pytest.raises(AssertionError, match="G-set oracle"):
            verify.oracle_image(x, witness, getattr(gsets, morphism_map), out_group)


def test_operations_free_their_groups_and_caches():
    # basis images and subgroup embeddings are cached on the objects they
    # describe, so dropping the group frees everything built from it
    def build():
        g = group_from_spec("dihedral:8")
        table = slice_classes(g)
        lat = table.lattice
        emb = subgroup_as_group(lat.subgroups[lat.class_reps[2]])
        q = quotient(g, lat.subgroups[lat.normal[1]].members)
        iso = GroupIsomorphism(g, g, automorphisms(g)[-1])
        elem = table.idempotent(0) + table.one()
        down = bisetops.restrict(elem, emb)
        flat = bisetops.deflate(elem, q)
        bisetops.induce(down, emb)
        bisetops.inflate(flat, q)
        bisetops.transport(elem, iso)
        # the oracle caches coset spaces and projections on the tables of G,
        # the subgroup and the quotient
        verify.oracle_image(elem, emb, gsets.restrict_morphism, emb.source)
        verify.oracle_image(down, emb, gsets.induce_morphism, g)
        verify.oracle_image(elem, q, gsets.deflate_morphism, q.group)
        verify.oracle_image(flat, q, gsets.inflate_morphism, g)
        verify.oracle_image(elem, iso, gsets.transport_morphism, g)
        return [weakref.ref(x) for x in (g, table, emb.source, q.group)]

    refs = build()
    gc.collect()
    assert [r() for r in refs] == [None] * len(refs)


def test_derived_lattices_keep_no_parent_alive():
    # a quotient's or subgroup's lattice is read off the parent's lattice
    # but keeps neither it nor the parent group
    def build():
        g = group_from_spec("dihedral:8")
        lat = all_subgroups(g)
        q = quotient(g, lat.subgroups[lat.normal[1]].members)
        emb = subgroup_as_group(lat.subgroups[lat.class_reps[2]])
        derived = [all_subgroups(q.group), all_subgroups(emb.source)]
        return derived, [weakref.ref(x) for x in (g, lat)]

    derived, parent_refs = build()
    gc.collect()
    assert [r() for r in parent_refs] == [None, None]
    refs = [weakref.ref(x) for lat in derived for x in (lat, lat.group)]
    del derived
    gc.collect()
    assert [r() for r in refs] == [None] * len(refs)


def per_term_extend(elem, images):
    """Oracle: the linear extension of basis images summed one `Fraction`
    term at a time, against the integer sums of `SliceRingElement.linear_image`."""
    acc = {}
    for cls, q in elem.coeffs.items():
        for c, m in images[cls].items():
            acc[c] = acc.get(c, 0) + q * m
    return {c: q for c, q in acc.items() if q != 0}


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(group=small_perm_groups(), data=st.data())
def test_operations_equal_the_per_term_extension(group, data):
    lat = all_subgroups(group)
    sub = subgroup_as_group(lat.subgroups[data.draw(st.sampled_from(lat.class_reps))])
    q = quotient(group, lat.subgroups[data.draw(st.sampled_from(lat.normal))].members)
    g = data.draw(st.integers(0, group.order - 1))
    inner = GroupIsomorphism(group, group, tuple(group.conj(g, x) for x in group.elements()))
    cases = [
        ("induction", bisetops.induce, sub.source, sub, gsets.induce_morphism, group),
        ("restriction", bisetops.restrict, group, sub, gsets.restrict_morphism, sub.source),
        ("inflation", bisetops.inflate, q.group, q, gsets.inflate_morphism, group),
        ("deflation", bisetops.deflate, group, q, gsets.deflate_morphism, q.group),
        ("transport", bisetops.transport, group, inner, gsets.transport_morphism, group),
    ]
    for name, fn, source, witness, morphism_map, out_group in cases:
        table = slice_classes(source)
        elem = SliceRingElement(table, data.draw(rational_coeffs(table.size)))
        out = fn(elem, witness)
        assert out.coeffs == per_term_extend(elem, witness.basis_images[name])
        assert all(type(v) is Fraction and v != 0 for v in out.coeffs.values())
        # the oracle sums the G-set images one scaled term at a time
        assert verify.oracle_image(elem, witness, morphism_map, out_group) == out


# D8, A4, S4, H27 x C3, C2^3 and M27
DIAGONAL_SPECS = [
    "dihedral:8",
    "perm:(0 1 2),(0 1)(2 3)",
    "perm:(0 1 2 3),(0 1)",
    "heis:3 * cyclic:3",
    "elab:2^3",
    "mod:3",
]


@pytest.mark.parametrize("spec", DIAGONAL_SPECS)
def test_the_five_operations_keep_the_diagonal_span(spec):
    # the diagonal slices (S, S) span the embedded Burnside ring; each
    # operation sends every one of them to a sum of diagonal classes, so
    # that copy of KB is a subfunctor
    g = group_from_spec(spec)
    lat = all_subgroups(g)
    moves = [
        (bisetops.transport, GroupIsomorphism(g, g, aut), g) for aut in automorphism_generators(g)
    ]
    for h in lat.class_reps:
        emb = subgroup_as_group(lat.subgroups[h])
        moves += [(bisetops.restrict, emb, g), (bisetops.induce, emb, emb.source)]
    for n in lat.normal:
        q = quotient(g, lat.subgroups[n].members)
        moves += [(bisetops.deflate, q, g), (bisetops.inflate, q, q.group)]
    images = 0
    for op, witness, source in moves:
        table = slice_classes(source)
        for cls, (t, s) in enumerate(table.reps):
            if t != s:
                continue
            image = op(table.basis_element(cls), witness)
            reps = image.table.reps
            assert image.numerators and all(reps[c][0] == reps[c][1] for c in image.numerators), (
                op.__name__, cls
            )
            images += 1
    assert images > len(moves)
