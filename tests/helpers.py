"""Test-only constructions: small G-sets, the identity morphism, the disjoint
union of two morphisms, a normality test by member sets, the inverse ghost
map, a closed-form deflation constant, the order of Aut(G) from its
stabiliser chain, the member-tuple forms of the slice families, the
one-element-at-a-time mask lookup and the bit-scan normalizers that the
lattice's member-tuple index and own records replaced, and the member-set
forms of the biset push, of the embedding's inverse subgroup map,
of the idempotent deflation scalar, of cyclicity and of the p-group
vanishing prediction, and the orbit-sum basis product.  Each is an oracle or
a fixture of the tests, with no caller in the library."""

from fractions import Fraction
from math import prod

from sliceburnside.constants import deflation_constant_at, is_p_group
from sliceburnside.groups import (
    GroupError,
    Subgroup,
    _mask_of,
    _members_of,
    all_subgroups,
    automorphism_generators,
    close_under_product,
    permutation_orbit,
    set_product,
)
from sliceburnside.gsets import GSet, GSetMorphism


def one_point_gset(group):
    return GSet(group, [[0]] * group.order, point_reps=[group.identity])


def empty_gset(group):
    return GSet(group, [[] for _ in range(group.order)])


def identity_morphism(x):
    return GSetMorphism(x, x, range(x.size))


def is_normal(group, members):
    """True when conjugation by every generator of `group` maps the member
    set onto itself: the member-set oracle of `SubgroupLattice.normal`.  It
    does not check that `members` is a subgroup, so it also accepts a
    conjugation-closed set such as {1, r, r^-1} in D8."""
    target = set(members)
    return all({group.conj(g, x) for x in members} == target for g in group.generators())


def disjoint_union_morphism(f, g):
    if f.group is not g.group:
        raise GroupError("disjoint union needs morphisms over one group object")
    grp = f.group
    src_act = [
        list(f.source.act_rows[e]) + [x + f.source.size for x in g.source.act_rows[e]]
        for e in range(grp.order)
    ]
    tgt_act = [
        list(f.target.act_rows[e]) + [x + f.target.size for x in g.target.act_rows[e]]
        for e in range(grp.order)
    ]
    mapping = list(f.mapping) + [x + f.target.size for x in g.mapping]
    return GSetMorphism(GSet(grp, src_act), GSet(grp, tgt_act), mapping)


def from_mark_vector(table, vector):
    """Inverse of the ghost map, via the idempotent basis; verified by
    round-trip (a failure means the class enumeration is broken)."""
    vector = [Fraction(v) for v in vector]
    if len(vector) != table.size:
        raise GroupError("mark vector has the wrong length")
    out = table.zero()
    for cls, v in enumerate(vector):
        if v:
            out = out + table.idempotent(cls).scaled(v)
    if list(out.mark_vector()) != vector:
        raise GroupError("mark matrix failed to invert; enumeration bug")
    return out


def elementary_abelian_classical_value(p, n, k):
    """Closed form for the classical constant on an elementary abelian group
    of rank n deflated by a rank-k subgroup (the exponent goes negative at
    k = n, so the factors are fractions)."""
    out = Fraction(1)
    for i in range(1, k + 1):
        out *= 1 - Fraction(p) ** (n - 1 - i)
    return out


def stabiliser_chain_order(group):
    """|Aut(G)| without listing it: the product over the generators x_i of
    G of the orbit length of x_i under the automorphism generators that fix
    x_0..x_{i-1}, which generate that stabiliser (Sims)."""
    gens, auts = group.generators(), automorphism_generators(group)
    return prod(
        len(permutation_orbit(x, [a for a in auts if all(a[y] == y for y in gens[:i])]))
        for i, x in enumerate(gens)
    )


def member_map_image(table, out_table, member_map, cls):
    """The basis image of class (T, S) under induction, inflation,
    deflation or transport: the class of (f(T), f(S)) for the witness's
    member map f, found by member tuples and `class_index`.  The oracle of
    the subgroup-index maps that `bisetops` reads instead."""
    big, small = table.rep_subgroups(cls)
    return {out_table.class_index(member_map(big.members), member_map(small.members)): 1}


def orbit_basis_product(table, i, j):
    """The product of basis classes i and j as a {class: multiplicity} dict:
    the orbit sum of class j with (T_i, S_i), keyed by the table's classes.
    The oracle of the ghost-coordinate product of `SliceRingElement`."""
    class_of = table.class_of
    ti, si = table.reps[table._require_class(i)]
    return table.orbit_sum(ti, si, table._require_class(j), lambda t, s: class_of[t, s])


def mask_loop_index(lat, members):
    """The lattice index of a subgroup's member set by its bitmask, built one
    element at a time: the oracle of `SubgroupLattice.index_of`."""
    return lat._index[_mask_of(members)]


def bit_scan_normalizer(group, members):
    """N_G(H) as a new `Subgroup` read off the normalizer mask by a bit
    scan: the oracle of `groups.normalizer`."""
    lat = all_subgroups(group)
    return Subgroup(group, _members_of(lat.normalizer_mask(mask_loop_index(lat, members))))


def bit_scan_slice_normalizer(group, t_members, s_members):
    """N_G(T) & N_G(S) by a bit scan of the meet of the normalizer masks:
    the oracle of `groups.slice_normalizer`."""
    lat = all_subgroups(group)
    nm = lat.normalizer_mask
    t, s = mask_loop_index(lat, t_members), mask_loop_index(lat, s_members)
    return _members_of(nm(t) & nm(s))


def subgroup_positions(emb):
    """{target-lattice index: source-lattice index} over the images of the
    source's subgroups, by member sets: the oracle of
    `GroupEmbedding.preimage_indices`."""
    lat = all_subgroups(emb.target)
    return {
        lat.index_of(emb.image_members(sub.members)): j
        for j, sub in enumerate(all_subgroups(emb.source).subgroups)
    }


def two_product_idempotent_scalar(group, t_members, s_members, n_members):
    """The idempotent deflation scalar as a ratio `Fraction` times the
    constant of (T, S) mod T & N inside T, with the joins and normalizers
    read before the constant: the oracle of the zero-first
    `constants.deflation_idempotent_scalar`."""
    lat = all_subgroups(group)
    n = lat.index_of(n_members)
    t, s = lat.index_of(t_members), lat.index_of(s_members)
    if n not in lat.normal or not lat.contains_pair(s, t):
        raise GroupError("needs a normal subgroup and a slice")
    masks, nm = lat.masks, lat.normalizer_mask
    tn, sn = lat.join(t, n), lat.join(s, n)
    m_inner = deflation_constant_at(lat, s, n, t)
    nt_s = (nm(s) & masks[t]).bit_count()
    nt_sn = (nm(sn) & masks[t]).bit_count()
    ng_ts = (nm(t) & nm(s)).bit_count()
    ng_tnsn = (nm(tn) & nm(sn)).bit_count()
    ratio = Fraction(
        nt_s * ng_tnsn * (masks[t] & masks[n]).bit_count(), ng_ts * nt_sn * masks[n].bit_count()
    )
    return ratio * m_inner


def is_cyclic_members(group, members):
    """Whether the member set holds an element of its own order: the
    member-set oracle of `SubgroupLattice.cyclic`."""
    k = len(tuple(members))
    return any(group.element_order(x) == k for x in members)


def quotient_is_cyclic(group, s_members, k_members):
    """Whether S / K is cyclic, for K normal in S: some x in S generates S
    together with K."""
    s_set = set(s_members)
    k_list = list(k_members)
    return any(
        set(close_under_product(group, [x] + k_list)) == s_set
        for x in s_members
    )


def member_deflation_vanishes_predicted(group, s_members, n_members):
    """The p-group vanishing prediction by member sets (S noncyclic with
    S / (S & N) cyclic, or S proper with S*N = G): the oracle of
    `constants.deflation_vanishes_predicted`, which decides on indices."""
    ok, _ = is_p_group(group)
    if not ok:
        raise GroupError("the vanishing criterion is stated for p-groups")
    s_members = tuple(sorted(set(s_members)))
    s_cap_n = tuple(sorted(set(s_members) & set(n_members)))
    s_noncyclic = not is_cyclic_members(group, s_members)
    first = s_noncyclic and quotient_is_cyclic(group, s_members, s_cap_n)
    sn = set_product(group, s_members, n_members)
    second = len(s_members) != group.order and len(sn) == group.order
    return first or second


def _member_j1(group, t_members, s_members):
    return len(tuple(s_members)) != len(tuple(t_members))


def _member_j2(group, t_members, s_members):
    return not is_cyclic_members(group, tuple(sorted(set(s_members))))


#: the member-tuple predicates (group, t_members, s_members) that the
#: lattice-index predicates of `ideals.FAMILIES` and `BROKEN_CYCLIC_FAMILY`
#: replaced, keyed by family id
MEMBER_FAMILIES = {
    "ZERO": lambda g, t, s: False,
    "J1": _member_j1,
    "J2": _member_j2,
    "J3": lambda g, t, s: _member_j1(g, t, s) and _member_j2(g, t, s),
    "J4": lambda g, t, s: _member_j1(g, t, s) or _member_j2(g, t, s),
    "FULL": lambda g, t, s: True,
    "S_CYCLIC": lambda g, t, s: is_cyclic_members(g, tuple(sorted(set(s)))),
}
