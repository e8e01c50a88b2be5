"""Test-only constructions: small G-sets, the identity morphism, the
disjoint union of two morphisms, a normality test by member sets, the
inverse ghost map, a closed-form deflation constant and the order of Aut(G)
from its stabiliser chain.  Each is an oracle or a fixture of the tests,
with no caller in the library."""

from fractions import Fraction
from math import prod

from sliceburnside.groups import GroupError, automorphism_generators, permutation_orbit
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
