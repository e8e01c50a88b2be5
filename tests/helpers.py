"""Test-only constructions: small G-sets, the identity morphism, the disjoint
union of two morphisms, a normality test by member sets, the inverse ghost
map, a closed-form deflation constant, the order of Aut(G) from its
stabiliser chain, the member-tuple forms of the slice families, the
one-element-at-a-time mask lookup and the bit-scan normalizers that the
lattice's member-tuple index and own records replaced, and the member-set
forms of the biset push, of the embedding's inverse subgroup map,
of the idempotent deflation scalar, of cyclicity and of the p-group
vanishing prediction, the orbit-sum basis product, the subgroup
enumeration that extends each subgroup by every cyclic subgroup, the
element-map form of the universe's quotient moves, and the member-tuple
form of a witness's subgroup-index maps.  Each is an oracle or a fixture
of the tests, with no caller in the library."""

from fractions import Fraction
from math import prod

from sliceburnside.constants import deflation_constant_at, is_p_group
from sliceburnside.groups import (
    GroupError,
    Subgroup,
    _extend_mask,
    _is_prime,
    _mask_of,
    _members_of,
    all_subgroups,
    automorphism_generators,
    close_under_product,
    permutation_orbit,
    quotient,
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


def member_index_map(member_map, source, target) -> tuple[int, ...]:
    """For each subgroup of `source`, by lattice index, the `target` lattice
    index of its `member_map` image, found by its sorted member tuple: the
    oracle of the index maps that `quotient`, `subgroup_as_group` and
    `GroupUniverse.quotient_map` read off the lattice correspondence."""
    lat = all_subgroups(target)
    return tuple(lat.index_of(member_map(h.members)) for h in all_subgroups(source).subgroups)


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


def every_extension_subgroups(group):
    """The sorted member tuples of every subgroup, sorted by (order,
    members): the cyclic subgroups, each found by one closure per element,
    then each subgroup A of the last round extended by every <x> it does not
    contain, normalizing A or not, skipping an x in an extension of prime
    index over A already found.  The oracle of `groups._enumerate_subgroups`,
    which walks powers and tries only normalizing x when |G| = p^a q^b."""
    found = {1 << group.identity: ()}
    for x in range(group.order):
        found.setdefault(_extend_mask(group, (group.identity,), (x,)), (x,))
    cyclic = list(found.values())[1:]
    members = []
    new_masks = list(found)
    while new_masks:
        batch = []
        for ma in new_masks:
            a_members, covered = _members_of(ma), ma
            members.append(a_members)
            for gen in cyclic:
                if covered >> gen[0] & 1:
                    continue
                gens = found[ma] + gen
                m = _extend_mask(group, a_members, gens)
                if _is_prime(m.bit_count() // len(a_members)):
                    covered |= m
                if m not in found:
                    found[m] = gens
                    batch.append(m)
        new_masks = batch
    return sorted(members, key=lambda m: (len(m), m))


def element_map_moves(universe, maps, gi, cls, normals):
    """(N, canonical image slice) of the slice (G, S) of class `cls` of G =
    G_gi under G -> G/N for each N in `normals`, by an element map: the
    quotient's projection composed with `find_group`'s isomorphism, through
    which the image of S is found as a member set by `index_of`.  `maps`
    keeps each (gi, N) element map once built.  The oracle of the
    `quotient_moves` and `minimal_moves` of a `GroupUniverse`, which read
    the image off its quotient witness's `image_indices()`."""
    g, lat = universe.groups[gi], universe.lattices[gi]
    s_members = lat.subgroups[lat.class_reps[cls]].members
    moves = []
    for n_idx in normals:
        if (gi, n_idx) not in maps:
            q = quotient(g, lat.subgroups[n_idx].members)
            qi, iso = universe.find_group(q.group)
            maps[gi, n_idx] = qi, tuple(iso.images[q.projection[x]] for x in range(g.order))
        qi, comp = maps[gi, n_idx]
        qlat = universe.lattices[qi]
        image = qlat.class_of[qlat.index_of({comp[x] for x in s_members})]
        moves.append((n_idx, (qi, universe.canonical_class(qi, image))))
    return tuple(moves)
