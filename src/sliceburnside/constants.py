"""Deflation constants of the slice ring, B-groups and T-slices, all read off
G's own lattice by one kernel that takes the slice's top T and is also the
only zero test.  The kernel keeps each value it evaluates on that lattice, the
library's one cache of deflation constants.  The supplement sum also has a
Frattini-quotient form, which the verification suite checks against the
direct one.

Every decision here is made on lattice indices: each public entry reads its
member tuples once (`index_of`, `_normal_index`), and the whole group is
`SubgroupLattice.top`.  The p-group vanishing prediction reads cyclicity off
`SubgroupLattice.cyclic` and decides both products by order tests on masks:
S / (S & N) is cyclic when a cyclic C <= S has |C| |S & N| = |S| |C & N|,
and S N = G when |S| |N| = |G| |S & N|.  The Frattini form maps S and N
through the quotient's `image_indices`.
"""

from __future__ import annotations

from fractions import Fraction

from .groups import FiniteGroup, GroupError, all_subgroups, frattini, quotient

_ZERO = Fraction(0)


def supplement_moebius_sum(group: FiniteGroup, s_members, n_members) -> int:
    """Sum of moebius(V, G) over subgroups V containing S with V*N = G."""
    lat = all_subgroups(group)
    s, n = lat.index_of(s_members), lat.index_of(n_members)
    return _supplement_sum(lat, s, n, lat.top)


def _supplement_sum(lat, s: int, n: int, t: int) -> int:
    # sum of moebius(V, T) over S <= V <= T with V*(T & N) = T
    masks, mu = lat.masks, lat.moebius_column(t)
    n_mask = masks[n]
    t_size, tn_size = masks[t].bit_count(), (masks[t] & n_mask).bit_count()
    total = 0
    for v in lat.above[s]:
        # above[s] ascends by index, and every V <= T has an index <= t
        if v > t:
            break
        # V*(T & N) = T  <=>  |V||T & N| == |T||V & N|   (V <= T; mu has no other V)
        v_mask = masks[v]
        if v_mask.bit_count() * tn_size == t_size * (v_mask & n_mask).bit_count():
            total += mu.get(v, 0)
    return total


def _normal_index(lat, n_members) -> int:
    n = lat.index_of(n_members)
    if n not in lat.normal:
        raise GroupError("deflation constant needs a normal subgroup")
    return n


def classical_deflation_constant(group: FiniteGroup, n_members) -> Fraction:
    """The scalar by which deflation mod N acts on the top idempotent of the
    ordinary Burnside ring: (1/|G|) * sum of |U| moebius(U, G) over U*N = G."""
    lat = all_subgroups(group)
    n = _normal_index(lat, n_members)
    # with S = G the lower sum's condition U*N = S*N is U*N = G
    return Fraction(_lower_moebius_sum(lat, lat.top, n), group.order)


def deflation_constant(group: FiniteGroup, s_members, n_members) -> Fraction:
    """The scalar by which deflation mod N acts on the idempotent of the
    slice (G, S).

    Direct evaluation: a prefactor of normalizer indices times the double
    Moebius sum over U <= S <= V <= G with U*N = S*N and V*N = G; the two
    constraints are independent, so the sum factors.
    """
    lat = all_subgroups(group)
    n = _normal_index(lat, n_members)
    return deflation_constant_at(lat, lat.index_of(s_members), n, lat.top)


def deflation_constant_at(lat, s: int, n: int, t: int) -> Fraction:
    """The constant of the slice (T, S) mod T n N inside T, for S <= T and N
    normalized by T: normalizers in T are G's normalizer masks cut to T.
    Each (s, n, t) is evaluated once per lattice and kept on it, so every
    caller, the universe's closure moves included, reads one memo.
    The prefactor of normalizer indices is positive, so the constant is 0
    exactly when one of the two Moebius sums is; the cheaper lower sum goes
    first, and the join and normalizer masks are read only past both."""
    memo, key = lat._deflation_constants, (s, n, t)
    hit = memo.get(key)
    if hit is not None:
        return hit
    lower = _lower_moebius_sum(lat, s, n)
    supplement = lower and _supplement_sum(lat, s, n, t)
    if supplement == 0:
        memo[key] = _ZERO  # shared: almost every constant met by a closure is 0
        return _ZERO
    masks, nm = lat.masks, lat.normalizer_mask
    t_mask = masks[t]
    sm = lat.join(s, lat._index[t_mask & masks[n]])
    hit = memo[key] = Fraction(
        (nm(sm) & t_mask).bit_count() * lower * supplement,
        masks[sm].bit_count() * (nm(s) & t_mask).bit_count(),
    )
    return hit


def _lower_moebius_sum(lat, s: int, n: int) -> int:
    # sum of |U| moebius(U, S) over U <= S with U*N = S*N (U & N = U & T & N for S <= T)
    masks, mu = lat.masks, lat.moebius_column(s)
    n_mask = masks[n]
    s_ratio = masks[s].bit_count() // (masks[s] & n_mask).bit_count()
    lower = 0
    for u in lat.below[s]:
        # U*N = S*N  <=>  |U| / |U & N| == |S| / |S & N|   (U <= S)
        u_size = masks[u].bit_count()
        if u_size == s_ratio * (masks[u] & n_mask).bit_count():
            lower += u_size * mu[u]
    return lower


def supplement_moebius_sum_frattini(group: FiniteGroup, s_members, n_members) -> int:
    """Supplement sum computed in the Frattini quotient (equal to the direct
    value because moebius(V, G) vanishes unless V contains the Frattini).
    The quotient is built once and kept on the group; S and N go to it
    through its subgroup-index map, since the image of S*Phi is that of S."""
    lat = all_subgroups(group)
    s, n = lat.index_of(s_members), lat.index_of(n_members)
    if group._frattini_quotient is None:
        group._frattini_quotient = quotient(group, frattini(group).members)
    q = group._frattini_quotient
    img, qlat = q.image_indices(), all_subgroups(q.group)
    return _supplement_sum(qlat, img[s], img[n], qlat.top)


def deflation_idempotent_scalar(
    group: FiniteGroup, t_members, s_members, n_members
) -> Fraction:
    """Predicted scalar for deflating the idempotent of a slice (T, S) mod N.

    Combines the constant of (T, S) mod T n N inside T with a ratio of
    slice-normalizer sizes.  Derived by factoring the idempotent through
    induction from T and commuting deflation past it; the |T n N| / |N| factor
    comes from the normalizer of the image slice inside TN/N.  The normalizer
    sizes are bit counts of intersections of the lattice's normalizer masks.
    """
    lat = all_subgroups(group)
    n = _normal_index(lat, n_members)
    t, s = lat.index_of(t_members), lat.index_of(s_members)
    if not lat.contains_pair(s, t):
        raise GroupError("slice bottom must live inside the top group")
    m_inner = deflation_constant_at(lat, s, n, t)
    if not m_inner:
        return _ZERO  # the joins and normalizers below are read only past a zero
    masks, nm = lat.masks, lat.normalizer_mask
    tn, sn = lat.join(t, n), lat.join(s, n)
    nt_s = (nm(s) & masks[t]).bit_count()
    nt_sn = (nm(sn) & masks[t]).bit_count()
    ng_ts = (nm(t) & nm(s)).bit_count()
    ng_tnsn = (nm(tn) & nm(sn)).bit_count()
    return Fraction(
        nt_s * ng_tnsn * (masks[t] & masks[n]).bit_count() * m_inner.numerator,
        ng_ts * nt_sn * masks[n].bit_count() * m_inner.denominator,
    )


# ---------------------------------------------------------------------------
# Complements of a minimal abelian normal subgroup


def is_abelian_members(group: FiniteGroup, members) -> bool:
    return all(
        group.mul(a, b) == group.mul(b, a) for a in members for b in members
    )


def minimal_normal_subgroups(group: FiniteGroup) -> list:
    lat = all_subgroups(group)
    return [lat.subgroups[i] for i in lat.minimal_normal]


def complement_count(group: FiniteGroup, n_members) -> int:
    """Subgroups X with X*N = G and trivial intersection with N."""
    lat = all_subgroups(group)
    n_mask = lat.masks[lat.index_of(n_members)]
    # with X & N trivial, X*N = G  <=>  |X||N| == |G|
    x_size = group.order // n_mask.bit_count()
    return sum(
        1 for m in lat.masks if (m & n_mask).bit_count() == 1 and m.bit_count() == x_size
    )


def complement_count_formula_check(
    group: FiniteGroup, n_members
) -> tuple[Fraction, Fraction]:
    """For a minimal abelian normal N: the deflation constant of the trivial
    slice both directly and as (1 - number of complements) / |N|."""
    lat = all_subgroups(group)
    n = _normal_index(lat, n_members)
    if not is_abelian_members(group, n_members):
        raise GroupError("needs an abelian normal subgroup")
    if n not in lat.minimal_normal:
        raise GroupError("needs a minimal normal subgroup")
    # subgroups are sorted by order, so the trivial one comes first
    direct = deflation_constant_at(lat, 0, n, lat.top)
    counted = Fraction(1 - complement_count(group, n_members), lat.masks[n].bit_count())
    return direct, counted


# ---------------------------------------------------------------------------
# B-groups and T-slices


def nontrivial_normal_subgroups(group: FiniteGroup) -> list:
    lat = all_subgroups(group)
    # subgroups are sorted by order, so the trivial one comes first
    return [lat.subgroups[i] for i in lat.normal[1:]]


def is_b_group(group: FiniteGroup) -> bool:
    """Every deflation constant mod a nontrivial normal subgroup vanishes: the
    slice (G, G), whose supplement sum is 1, is a T-slice."""
    return is_t_slice(group, group.elements())


def is_t_slice(t_group: FiniteGroup, s_members) -> bool:
    """The slice (T, S) with T the whole group; see `is_t_slice_of`."""
    return is_t_slice_of(t_group, t_group.elements(), s_members)


def is_t_slice_of(group: FiniteGroup, t_members, s_members) -> bool:
    """The slice (T, S) kills every deflation mod a nontrivial normal subgroup
    X of T, read off G's lattice as the X != 1 below T with T <= N_G(X)."""
    lat = all_subgroups(group)
    t, s = lat.index_of(t_members), lat.index_of(s_members)
    if not lat.contains_pair(s, t):
        raise GroupError("slice bottom must live inside the top group")
    t_mask, nm = lat.masks[t], lat.normalizer_mask
    # subgroups are sorted by order, so below[t] starts with the trivial one
    return not any(
        nm(x) & t_mask == t_mask and deflation_constant_at(lat, s, x, t) != 0
        for x in lat.below[t][1:]
    )


# ---------------------------------------------------------------------------
# p-group vanishing criterion and elementary abelian closed forms


def is_p_group(group: FiniteGroup) -> tuple[bool, int]:
    n = group.order
    if n == 1:
        return True, 0
    p = 2
    while n % p:
        p += 1
    m = n
    while m % p == 0:
        m //= p
    return m == 1, p


def deflation_vanishes_predicted(group: FiniteGroup, s_members, n_members) -> bool:
    """Vanishing prediction for p-groups: the constant for (G, S) mod N is
    zero exactly when S is noncyclic with cyclic image mod N, or the slice
    is proper with S*N = G.  N must be normal."""
    ok, _ = is_p_group(group)
    if not ok:
        raise GroupError("the vanishing criterion is stated for p-groups")
    lat = all_subgroups(group)
    s, n = lat.index_of(s_members), _normal_index(lat, n_members)
    cyclic, masks, mn = lat.cyclic, lat.masks, lat.masks[n]
    s_order, sn_order = masks[s].bit_count(), (masks[s] & mn).bit_count()
    # S / (S & N) is cyclic exactly when a cyclic C <= S has C(S & N) = S, that
    # is |C| |S & N| = |S| |C & N|; S N = G exactly when |S| |N| = |G| |S & N|
    first = s not in cyclic and any(
        c in cyclic and masks[c].bit_count() * sn_order == s_order * (masks[c] & mn).bit_count()
        for c in lat.below[s]
    )
    second = s != lat.top and s_order * mn.bit_count() == group.order * sn_order
    return first or second


def elementary_abelian_supplement_value(p: int, n: int, k: int) -> int:
    """Closed form for the supplement sum on an elementary abelian group of
    rank n with a rank-k subgroup."""
    out = 1
    for i in range(1, k + 1):
        out *= 1 - p ** (n - i)
    return out
