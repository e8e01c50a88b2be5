"""Deflation constants of the slice ring, B-groups and T-slices.

Every constant is computed directly over the full subgroup lattice.  The
supplement sum also has a Frattini-quotient form, which the verification
suite checks against the direct one.
"""

from __future__ import annotations

from fractions import Fraction

from .groups import (
    FiniteGroup,
    GroupError,
    Subgroup,
    all_subgroups,
    close_under_product,
    frattini,
    quotient,
    set_product,
    subgroup_as_group,
)


def _joins_to_full(lat, v: int, n: int, full_size: int) -> bool:
    # V*N = G  <=>  |V||N| == |G| * |V & N|   (N normal, so V*N is a subgroup)
    inter = (lat.masks[v] & lat.masks[n]).bit_count()
    return len(lat.subgroups[v]) * len(lat.subgroups[n]) == full_size * inter


def supplement_moebius_sum(group: FiniteGroup, s_members, n_members) -> int:
    """Sum of moebius(V, G) over subgroups V containing S with V*N = G."""
    lat = all_subgroups(group)
    return _supplement_sum(lat, lat.index_of(s_members), lat.index_of(n_members))


def _supplement_sum(lat, s: int, n: int) -> int:
    # subgroups are sorted by order, so the whole group comes last
    full = len(lat.subgroups) - 1
    total = 0
    for v in lat.above[s]:
        if _joins_to_full(lat, v, n, lat.group.order):
            total += lat.moebius(v, full)
    return total


def classical_deflation_constant(group: FiniteGroup, n_members) -> Fraction:
    """The scalar by which deflation mod N acts on the top idempotent of the
    ordinary Burnside ring: (1/|G|) * sum of |U| moebius(U, G) over U*N = G."""
    lat = all_subgroups(group)
    n = lat.index_of(n_members)
    if n not in lat.normal:
        raise GroupError("deflation constant needs a normal subgroup")
    # with S = G the lower sum's condition U*N = S*N is U*N = G
    full = len(lat.subgroups) - 1
    return Fraction(_lower_moebius_sum(lat, full, n), group.order)


def deflation_constant(group: FiniteGroup, s_members, n_members) -> Fraction:
    """The scalar by which deflation mod N acts on the idempotent of the
    slice (G, S).

    Direct evaluation: a prefactor of normalizer indices times the double
    Moebius sum over U <= S <= V <= G with U*N = S*N and V*N = G; the two
    constraints are independent, so the sum factors.
    """
    lat = all_subgroups(group)
    s, n = lat.index_of(s_members), lat.index_of(n_members)
    if n not in lat.normal:
        raise GroupError("deflation constant needs a normal subgroup")
    sn = lat.index_of(set_product(group, s_members, n_members))
    rows = lat.conj_table
    norm_sn = sum(1 for row in rows if row[sn] == sn)
    norm_s = sum(1 for row in rows if row[s] == s)
    prefactor = Fraction(norm_sn, len(lat.subgroups[sn]) * norm_s)
    return prefactor * _lower_moebius_sum(lat, s, n) * _supplement_sum(lat, s, n)


def deflation_constant_is_nonzero(group: FiniteGroup, s_members, n_members) -> bool:
    """Fast zero test of `deflation_constant`, see `deflation_is_nonzero_at`."""
    lat = all_subgroups(group)
    return deflation_is_nonzero_at(lat, lat.index_of(s_members), lat.index_of(n_members))


def deflation_is_nonzero_at(lat, s: int, n: int) -> bool:
    """Zero test on lattice indices: the prefactor of normalizer indices is
    positive, so the constant vanishes exactly when one of the two Moebius
    sums does."""
    return _lower_moebius_sum(lat, s, n) != 0 and _supplement_sum(lat, s, n) != 0


def _lower_moebius_sum(lat, s: int, n: int) -> int:
    # sum of |U| moebius(U, S) over U <= S with U*N = S*N
    n_mask = lat.masks[n]
    s_ratio = len(lat.subgroups[s]) // (lat.masks[s] & n_mask).bit_count()
    lower = 0
    for u in lat.below[s]:
        # U*N = S*N  <=>  |U| / |U & N| == |S| / |S & N|   (U <= S)
        u_size = len(lat.subgroups[u])
        if u_size == s_ratio * (lat.masks[u] & n_mask).bit_count():
            lower += u_size * lat.moebius(u, s)
    return lower


def supplement_moebius_sum_frattini(group: FiniteGroup, s_members, n_members) -> int:
    """Supplement sum computed in the Frattini quotient (equal to the direct
    value because moebius(V, G) vanishes unless V contains the Frattini).
    The quotient is built once and kept on the group."""
    phi = frattini(group)
    if group._frattini_quotient is None:
        group._frattini_quotient = quotient(group, phi.members)
    q = group._frattini_quotient
    s_img = q.image_members(set_product(group, s_members, phi.members))
    n_img = q.image_members(set_product(group, n_members, phi.members))
    return supplement_moebius_sum(q.group, s_img, n_img)


def deflation_idempotent_scalar(
    group: FiniteGroup, t_members, s_members, n_members
) -> Fraction:
    """Predicted scalar for deflating the idempotent of a slice (T, S) mod N.

    Combines the constant of (T, S) inside T with a ratio of slice-normalizer
    sizes.  Derived by factoring the idempotent through induction from T and
    commuting deflation past it; the |T n N| / |N| factor comes from reading
    the normalizer of the image slice inside TN/N.  The normalizer sizes are
    counted on the rows of the lattice's conjugation table.
    """
    lat = all_subgroups(group)
    if lat.index_of(n_members) not in lat.normal:
        raise GroupError("deflation scalar needs a normal subgroup")
    t, s = lat.index_of(t_members), lat.index_of(s_members)
    if not lat.contains_pair(s, t):
        raise GroupError("slice bottom must live inside the top group")
    tn = lat.index_of(set_product(group, t_members, n_members))
    sn = lat.index_of(set_product(group, s_members, n_members))
    emb = subgroup_as_group(lat.subgroups[t])
    t_cap_n = emb.preimage_members(n_members)
    m_inner = deflation_constant(emb.source, emb.preimage_members(s_members), t_cap_n)
    rows = lat.conj_table
    nt_s = sum(1 for x in emb.images if rows[x][s] == s)
    nt_sn = sum(1 for x in emb.images if rows[x][sn] == sn)
    ng_ts = sum(1 for row in rows if row[t] == t and row[s] == s)
    ng_tnsn = sum(1 for row in rows if row[tn] == tn and row[sn] == sn)
    ratio = Fraction(nt_s * ng_tnsn * len(t_cap_n), ng_ts * nt_sn * len(set(n_members)))
    return ratio * m_inner


# ---------------------------------------------------------------------------
# Complements of a minimal abelian normal subgroup


def is_abelian_members(group: FiniteGroup, members) -> bool:
    return all(
        group.mul(a, b) == group.mul(b, a) for a in members for b in members
    )


def minimal_normal_subgroups(group: FiniteGroup) -> list[Subgroup]:
    lat = all_subgroups(group)
    # subgroups are sorted by order, so the trivial one comes first
    normals = lat.normal[1:]
    out = []
    for i in normals:
        if not any(
            j for j in normals if j != i and lat.contains_pair(j, i)
        ):
            out.append(lat.subgroups[i])
    return out


def complement_count(group: FiniteGroup, n_members) -> int:
    """Subgroups X with X*N = G and trivial intersection with N."""
    lat = all_subgroups(group)
    n = lat.index_of(n_members)
    count = 0
    for x in range(len(lat.subgroups)):
        if (lat.masks[x] & lat.masks[n]).bit_count() != 1:
            continue
        if _joins_to_full(lat, x, n, group.order):
            count += 1
    return count


def complement_count_formula_check(
    group: FiniteGroup, n_members
) -> tuple[Fraction, Fraction]:
    """For a minimal abelian normal N: the deflation constant of the trivial
    slice both directly and as (1 - number of complements) / |N|."""
    lat = all_subgroups(group)
    if lat.index_of(n_members) not in lat.normal:
        raise GroupError("needs a normal subgroup")
    if not is_abelian_members(group, n_members):
        raise GroupError("needs an abelian normal subgroup")
    mins = {s.mask for s in minimal_normal_subgroups(group)}
    sub = Subgroup.from_members(group, n_members)
    if sub.mask not in mins:
        raise GroupError("needs a minimal normal subgroup")
    direct = deflation_constant(group, (group.identity,), n_members)
    counted = Fraction(1 - complement_count(group, n_members), len(sub))
    return direct, counted


# ---------------------------------------------------------------------------
# B-groups and T-slices


def nontrivial_normal_subgroups(group: FiniteGroup) -> list[Subgroup]:
    lat = all_subgroups(group)
    # subgroups are sorted by order, so the trivial one comes first
    return [lat.subgroups[i] for i in lat.normal[1:]]


def is_b_group(group: FiniteGroup) -> bool:
    """Every deflation constant mod a nontrivial normal subgroup vanishes."""
    return all(
        classical_deflation_constant(group, n.members) == 0
        for n in nontrivial_normal_subgroups(group)
    )


def is_t_slice(t_group: FiniteGroup, s_members) -> bool:
    """The slice (T, S) kills every deflation mod a nontrivial normal
    subgroup of T.  `s_members` live in `t_group`'s element indexing."""
    s_set = set(s_members)
    if not s_set <= set(t_group.elements()):
        raise GroupError("slice bottom must live inside the top group")
    return all(
        deflation_constant(t_group, tuple(sorted(s_set)), n.members) == 0
        for n in nontrivial_normal_subgroups(t_group)
    )


def is_t_slice_of(group: FiniteGroup, t_members, s_members) -> bool:
    """T-slice test for a slice (T, S) of an ambient group."""
    if not set(s_members) <= set(t_members):
        raise GroupError("slice bottom must live inside the top group")
    emb = subgroup_as_group(Subgroup.from_members(group, t_members))
    return is_t_slice(emb.source, emb.preimage_members(s_members))


# ---------------------------------------------------------------------------
# p-group vanishing criterion and elementary abelian closed forms


def is_p_group(group: FiniteGroup) -> tuple[bool, int]:
    n = group.order
    if n == 1:
        return True, 0
    p = min(d for d in range(2, n + 1) if n % d == 0)
    m = n
    while m % p == 0:
        m //= p
    return m == 1, p


def is_cyclic_members(group: FiniteGroup, members) -> bool:
    k = len(tuple(members))
    return any(group.element_order(x) == k for x in members)


def quotient_is_cyclic(group: FiniteGroup, s_members, k_members) -> bool:
    """Whether S / K is cyclic, for K normal in S (tested via generation)."""
    s_set = set(s_members)
    k_list = list(k_members)
    return any(
        set(close_under_product(group, [x] + k_list)) == s_set
        for x in s_members
    )


def deflation_vanishes_predicted(group: FiniteGroup, s_members, n_members) -> bool:
    """Vanishing prediction for p-groups: the constant for (G, S) mod N is
    zero exactly when S is noncyclic with cyclic image mod N, or the slice
    is proper with S*N = G."""
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


def elementary_abelian_classical_value(p: int, n: int, k: int) -> int:
    """Closed form for the classical constant on an elementary abelian group
    of rank n deflated by a rank-k subgroup."""
    out = 1
    for i in range(1, k + 1):
        out *= 1 - p ** (n - 1 - i)
    return out


def elementary_abelian_supplement_value(p: int, n: int, k: int) -> int:
    """Closed form for the supplement sum on an elementary abelian group of
    rank n with a rank-k subgroup."""
    out = 1
    for i in range(1, k + 1):
        out *= 1 - p ** (n - i)
    return out
