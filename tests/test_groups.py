import ast
import tracemalloc
from itertools import product
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sliceburnside import groups, verify
from sliceburnside.constants import is_p_group
from sliceburnside.groups import (
    FiniteGroup,
    GroupEmbedding,
    GroupError,
    GroupIsomorphism,
    OrderCapError,
    SpecParseError,
    Subgroup,
    all_subgroups,
    automorphism_generators,
    automorphisms,
    cyclic_group,
    dihedral_group,
    double_cosets,
    elementary_abelian,
    find_isomorphism,
    frattini,
    from_permutation_generators,
    group_from_spec,
    is_isomorphic,
    normalizer,
    quaternion_group,
    quotient,
    slice_normalizer,
    subgroup_as_group,
)
from sliceburnside.ideals import constructor_known_p_groups

from helpers import is_normal, stabiliser_chain_order
from test_marks import small_perm_groups

SMALL_SPECS = [
    "cyclic:1",
    "cyclic:2",
    "cyclic:6",
    "cyclic:12",
    "elab:2^2",
    "elab:2^3",
    "elab:3^2",
    "abelian:4x2",
    "dihedral:8",
    "mod:3",
    "heis:3",
]


@pytest.mark.parametrize("spec", SMALL_SPECS)
def test_constructed_groups_satisfy_axioms(spec):
    g = group_from_spec(spec)
    g.validate()
    for x in g.elements():
        assert g.mul(x, g.inv(x)) == g.identity


def test_spec_grammar_examples():
    assert group_from_spec("cyclic:1").order == 1
    assert group_from_spec("dihedral:8").order == 8
    assert group_from_spec("elab:2^3").order == 8
    assert group_from_spec("abelian:4x2").order == 8
    assert group_from_spec("cyclic:2 * cyclic:3").order == 6
    assert group_from_spec("cyclic:2*cyclic:3").order == 6
    assert group_from_spec("perm:(0 1 2 3)").order == 4


def test_spec_grammar_errors():
    with pytest.raises(SpecParseError):
        group_from_spec("nonsense:3")
    with pytest.raises(SpecParseError):
        group_from_spec("cyclic")
    with pytest.raises(SpecParseError):
        group_from_spec("elab:8")
    with pytest.raises(SpecParseError):
        group_from_spec("perm:0 1 2")
    with pytest.raises(GroupError):
        group_from_spec("dihedral:9")
    with pytest.raises(OrderCapError):
        group_from_spec("cyclic:500")
    with pytest.raises(OrderCapError):
        group_from_spec("cyclic:20 * cyclic:20")


def test_heisenberg_order_exponent_center():
    g = group_from_spec("heis:3")
    assert g.order == 27
    assert g.exponent() == 3
    assert len(g.center_members()) == 3


def test_modular_group_order_and_exponent():
    g = group_from_spec("mod:3")
    assert g.order == 27
    assert g.exponent() == 9
    assert len(g.center_members()) == 3


def test_order_eight_extraspecial_collapse():
    d8 = group_from_spec("dihedral:8")
    assert is_isomorphic(group_from_spec("mod:2"), d8)
    assert is_isomorphic(group_from_spec("heis:2"), d8)


@pytest.mark.parametrize(
    "table,message",
    [
        ([], "at least one element"),
        ([[0, 1], [1]], "not square"),
        ([[0, 1], [1, 0], [0, 1]], "not square"),
        ([[0, 1], [1, 2]], "not square"),
        ([[0, -1], [1, 0]], "not square"),
        ([[1, 1], [1, 1]], "no two-sided identity"),
        # 0 is a left identity only: 1 * 0 = 2
        ([[0, 1, 2], [2, 0, 1], [1, 2, 0]], "no two-sided identity"),
        # 1 has no inverse at all; 1 * 2 = 0 but 2 * 1 = 1
        ([[0, 1, 2], [1, 1, 1], [2, 1, 2]], "element 1 has no two-sided inverse"),
        ([[0, 1, 2], [1, 2, 0], [2, 1, 1]], "element 1 has no two-sided inverse"),
    ],
)
def test_constructor_refuses_tables_that_are_not_groups(table, message):
    with pytest.raises(GroupError, match=message):
        FiniteGroup(table)


def test_permutation_closure():
    assert from_permutation_generators([]).order == 1
    c4 = from_permutation_generators([[(0, 1, 2, 3)]])
    assert c4.order == 4 and is_isomorphic(c4, cyclic_group(4))
    d8 = from_permutation_generators([[(0, 1, 2, 3)], [(1, 3)]])
    assert d8.order == 8
    assert not d8.is_abelian()
    with pytest.raises(OrderCapError):
        from_permutation_generators([[(0, 1, 2, 3, 4, 5, 6)]], order_cap=5)


def test_permutation_points_must_be_nonnegative():
    # point -1 would index the last point of the permutation list
    for gens in ([[(0, -1)]], [[(0, 1)], [(2, -3, 1)]]):
        with pytest.raises(GroupError):
            from_permutation_generators(gens)


def test_permutation_memory_does_not_grow_with_the_largest_point_label():
    # permutations over every label up to 10^6 peaked above 100 MB
    tracemalloc.start()
    try:
        far = group_from_spec("perm:(0 1000000)")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert far._mul == group_from_spec("perm:(0 1)")._mul
    assert peak < 1_000_000


def test_permutation_closure_is_deterministic():
    a = from_permutation_generators([[(0, 1, 2, 3)], [(1, 3)]])
    b = from_permutation_generators([[(0, 1, 2, 3)], [(1, 3)]])
    assert a._mul == b._mul


def test_quaternion_group():
    q = quaternion_group()
    q.validate()
    assert q.order == 8
    # a unique involution distinguishes it from the dihedral group
    assert sum(1 for x in q.elements() if q.element_order(x) == 2) == 1
    assert not is_isomorphic(q, dihedral_group(8))


@pytest.mark.parametrize(
    "spec,count",
    [
        ("cyclic:2", 2),
        ("cyclic:3", 2),
        ("elab:2^2", 5),
        ("elab:2^3", 16),
        ("dihedral:8", 10),
        ("cyclic:12", 6),
        ("perm:(0 1 2 3 4),(0 1 2)", 59),
        ("perm:(0 1 2 3 4),(0 1)", 156),
    ],
)
def test_subgroup_counts(spec, count):
    g = group_from_spec(spec)
    assert len(all_subgroups(g).subgroups) == count


def count_calls(monkeypatch, name: str) -> list:
    """Patch the one-argument `groups.<name>` (`_members_of`, `_mask_of`) to
    record each call's argument in the returned list."""
    calls = []
    original = getattr(groups, name)

    def counted(arg):
        calls.append(arg)
        return original(arg)

    monkeypatch.setattr(groups, name, counted)
    return calls


def test_subgroup_count_of_c3_to_the_fifth(monkeypatch):
    # enumeration only; the whole lattice of its 2664 subgroups runs in CI
    g = group_from_spec("elab:3^5")
    calls = count_calls(monkeypatch, "_members_of")
    assert len(groups._enumerate_subgroups(g)) == 2664
    # each subgroup's member tuple is read off its mask once
    assert len(calls) == 2664


@pytest.mark.parametrize("spec", ["elab:2^4", "heis:3 * cyclic:3", "perm:(0 1 2 3),(0 1)"])
def test_lattice_builds_read_each_member_tuple_once(monkeypatch, spec):
    # enumerated: one `_members_of` per subgroup; derived (a quotient and a
    # subgroup): none, the member tuples come from the parent's masks
    g = group_from_spec(spec)
    calls = count_calls(monkeypatch, "_members_of")
    lat = all_subgroups(g)
    assert len(calls) == len(set(calls)) == len(lat.subgroups)
    assert lat.masks == [mask_of(s.members) for s in lat.subgroups]
    assert lat._index == {m: i for i, m in enumerate(lat.masks)}
    calls.clear()
    n = lat.normal[len(lat.normal) // 2]
    for child in (quotient(g, lat.subgroups[n].members).group,
                  subgroup_as_group(lat.subgroups[lat.maximal_indices()[0]]).source):
        derived = all_subgroups(child)
        assert derived.masks == [mask_of(s.members) for s in derived.subgroups]
        assert derived._index == {m: i for i, m in enumerate(derived.masks)}
    assert calls == []


def _bitwise_members(mask: int) -> tuple[int, ...]:
    """The set bits of a mask, read one bit at a time."""
    return tuple(x for x in range(mask.bit_length()) if mask >> x & 1)


def brute_force_subgroups(group: FiniteGroup) -> list[tuple[int, ...]]:
    """Independent subgroup enumeration by subset filtering; exponential, so
    only for very small groups."""
    n = group.order
    if n > 16:
        raise GroupError("subset filtering is limited to order <= 16")
    out = []
    e = group.identity
    for mask in range(1 << n):
        if not (mask >> e) & 1:
            continue
        mem = _bitwise_members(mask)
        if n % len(mem) != 0:
            continue
        if all(
            mask >> group.inv(a) & 1 and all(mask >> group.mul(a, b) & 1 for b in mem)
            for a in mem
        ):
            out.append(mem)
    return out


@given(mask=st.integers(0, (1 << 243) - 1) | st.integers(0, 1 << 12))
@example(mask=0)
@example(mask=(1 << 243) - 1)
@settings(max_examples=200, deadline=None)
def test_members_of_matches_the_bit_at_a_time_walk(mask):
    assert groups._members_of(mask) == _bitwise_members(mask)


@pytest.mark.parametrize(
    "spec", ["cyclic:8", "cyclic:12", "elab:2^3", "dihedral:8", "abelian:4x2", "elab:2^4"]
)
def test_subgroup_enumeration_against_subset_filtering(spec):
    g = group_from_spec(spec)
    lat = all_subgroups(g)
    brute = {frozenset(m) for m in brute_force_subgroups(g)}
    assert {frozenset(s.members) for s in lat.subgroups} == brute


def test_every_enumerated_subgroup_is_a_subgroup():
    g = group_from_spec("heis:3")
    for s in all_subgroups(g).subgroups:
        s.check()


@pytest.mark.parametrize("spec", SMALL_SPECS)
def test_moebius_recursion_identity(spec):
    g = group_from_spec(spec)
    lat = all_subgroups(g)
    n = len(lat.subgroups)
    for u in range(n):
        assert lat.moebius(u, u) == 1
        for v in lat.above[u]:
            if v == u:
                continue
            total = sum(
                lat.moebius(k, v)
                for k in lat.above[u]
                if lat.contains_pair(k, v)
            )
            assert total == 0


@pytest.mark.parametrize("p", [2, 3])
def test_moebius_of_rank_two_elementary_abelian(p):
    g = elementary_abelian(p, 2)
    lat = all_subgroups(g)
    bottom = lat.index_of([g.identity])
    top = lat.index_of(range(g.order))
    assert lat.moebius(bottom, top) == p


def test_moebius_two_element_chain():
    g = cyclic_group(5)
    lat = all_subgroups(g)
    assert lat.moebius(lat.index_of([0]), lat.index_of(range(5))) == -1


def test_moebius_rejects_indices_outside_the_lattice_and_non_contained_pairs():
    lat = all_subgroups(elementary_abelian(2, 3))
    n = len(lat.subgroups)
    # fill the whole group's column first, so a negative index cannot wrap
    assert lat.moebius(0, n - 1) == -8
    a, b = [i for i, s in enumerate(lat.subgroups) if len(s) == 2][:2]
    for u, v in [(0, -1), (0, -n), (0, n), (0, 99), (-1, n - 1), (n - 1, 0), (a, b)]:
        with pytest.raises(GroupError):
            lat.moebius(u, v)


def assert_hall_moebius(group):
    # P. Hall (1936): in a p-group, moebius(U, V) = (-1)^k p^(k(k-1)/2) when
    # U is normal in V with V/U elementary abelian of order p^k, else 0.
    # That holds exactly when U contains every p-th power and every
    # commutator of V (a subgroup holding the commutators is normal).
    ok, p = is_p_group(group)
    assert ok
    lat = all_subgroups(group)
    for v, down in enumerate(lat.below):
        members = lat.subgroups[v].members
        needed = 0
        for x in members:
            power = x
            for _ in range(p - 1):
                power = group.mul(power, x)
            needed |= 1 << power
            for y in members:
                needed |= 1 << group.mul(group.conj(x, y), group.inv(y))
        for u in down:
            k = 0
            while p**k * len(lat.subgroups[u]) < len(members):
                k += 1
            hall = (-1) ** k * p ** (k * (k - 1) // 2)
            expected = hall if needed & mask_of(lat.subgroups[u].members) == needed else 0
            assert lat.moebius(u, v) == expected, (u, v)


HALL_SPECS = [
    spec
    for spec in verify.CORPUS_SPECS
    if spec != "cyclic:1" and is_p_group(group_from_spec(spec))[0]
] + ["elab:2^4", "heis:3 * cyclic:3", "mod:3 * cyclic:3", "dihedral:16"]


@pytest.mark.parametrize("spec", HALL_SPECS)
def test_moebius_equals_hall_closed_form_on_p_groups(spec):
    assert_hall_moebius(group_from_spec(spec))


def test_moebius_equals_hall_closed_form_on_derived_lattices():
    # quotients by the order-3 normal subgroups and the order-27 subgroups of
    # H27 x C3, their lattices read off the parent's
    g = group_from_spec("heis:3 * cyclic:3")
    lat = all_subgroups(g)
    children = [
        quotient(g, lat.subgroups[i].members).group
        for i in lat.normal
        if len(lat.subgroups[i]) == 3
    ] + [
        subgroup_as_group(lat.subgroups[i]).source
        for i in lat.class_reps
        if len(lat.subgroups[i]) == 27
    ]
    assert len(children) > 2
    for child in children:
        assert child._lattice_source is not None
        assert_hall_moebius(child)


def test_frattini_examples():
    assert len(frattini(elementary_abelian(2, 2))) == 1
    assert len(frattini(elementary_abelian(3, 2))) == 1
    assert len(frattini(cyclic_group(4))) == 2
    assert len(frattini(group_from_spec("heis:3"))) == 3


@pytest.mark.parametrize("spec", SMALL_SPECS)
def test_frattini_normal_and_idempotent(spec):
    g = group_from_spec(spec)
    phi = frattini(g)
    assert is_normal(g, phi.members)
    q = quotient(g, phi.members)
    assert len(frattini(q.group)) == 1


def reference_minimal_normal(lat):
    """The pairwise scan of the normal subgroups that `minimal_normal` replaced."""
    normals = lat.normal[1:]
    return tuple(
        i for i in normals if not any(j != i and lat.contains_pair(j, i) for j in normals)
    )


@pytest.mark.parametrize(
    "spec",
    SMALL_SPECS + ["elab:2^4", "heis:3 * cyclic:3", "perm:(0 1 2 3),(0 1)", "perm:(0 1 2 3 4),(0 1 2)"],
)
def test_minimal_normal_subgroups_equal_the_pairwise_scan(spec):
    lat = all_subgroups(group_from_spec(spec))
    assert lat.minimal_normal == reference_minimal_normal(lat)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(group=small_perm_groups())
def test_minimal_normal_subgroups_equal_the_pairwise_scan_on_perm_groups(group):
    lat = all_subgroups(group)
    assert lat.minimal_normal == reference_minimal_normal(lat)


def mask_of(members):
    return sum(1 << x for x in members)


def reference_lattice(group):
    """Every lattice field as the earlier build gave it: cyclic subgroups
    joined pairwise with every known subgroup until nothing new appears,
    all-pairs containment scans, and the Moebius recursion over each
    interval re-sorted by order."""
    found = {mask_of([group.identity]): ()}
    for x in group.elements():
        found.setdefault(mask_of(groups.close_under_product(group, [x])), (x,))
    new_masks = list(found)
    while new_masks:
        batch = []
        all_masks = list(found)
        for ma in new_masks:
            for mb in all_masks:
                if ma & mb in (ma, mb):
                    continue
                gens = found[ma] + found[mb]
                m = mask_of(groups.close_under_product(group, gens))
                if m not in found:
                    found[m] = gens
                    batch.append(m)
        new_masks = batch
    members = sorted(
        (tuple(x for x in group.elements() if m >> x & 1) for m in found),
        key=lambda s: (len(s), s),
    )
    masks = [mask_of(s) for s in members]
    n = len(masks)
    above = [tuple(j for j in range(n) if masks[i] & masks[j] == masks[i]) for i in range(n)]
    below = [tuple(j for j in range(n) if masks[j] & masks[i] == masks[j]) for i in range(n)]
    mu = {}
    by_size = sorted(range(n), key=lambda i: len(members[i]))
    for u in range(n):
        interval = [k for k in by_size if k in set(above[u])]
        for v in interval:
            mu[u, v] = 1 if v == u else -sum(
                mu[u, k]
                for k in interval[: interval.index(v)]
                if masks[k] & masks[v] == masks[k]
            )
    index = {m: i for i, m in enumerate(masks)}
    conj_table = [
        [index[mask_of(group.conj(g, x) for x in s)] for s in members]
        for g in group.elements()
    ]
    class_of = [None] * n
    reps = []
    for i in range(n):
        if class_of[i] is None:
            orbit = {row[i] for row in conj_table}
            for j in orbit:
                class_of[j] = len(reps)
            reps.append(min(orbit))
    full = index[mask_of(group.elements())]
    maximal = tuple(
        i
        for i in range(n)
        if i != full and not [j for j in above[i] if j not in (i, full)]
    )
    phi = masks[full]
    for i in maximal:
        phi &= masks[i]
    return {
        "subgroups": members,
        "masks": masks,
        "above": above,
        "below": below,
        "moebius": mu,
        "conj_table": conj_table,
        "class_reps": tuple(reps),
        "class_of": tuple(class_of),
        "normal": tuple(i for i in range(n) if all(row[i] == i for row in conj_table)),
        "maximal": maximal,
        "frattini": index[phi],
    }


def lattice_fields(group):
    lat = all_subgroups(group)
    return {
        "subgroups": [s.members for s in lat.subgroups],
        "masks": lat.masks,
        "above": list(lat.above),
        "below": list(lat.below),
        "moebius": {
            (u, v): lat.moebius(u, v) for v, down in enumerate(lat.below) for u in down
        },
        "conj_table": lat.conj_table,
        "class_reps": lat.class_reps,
        "class_of": lat.class_of,
        "normal": lat.normal,
        "maximal": lat.maximal_indices(),
        "frattini": lat.frattini_index(),
    }


LATTICE_SPECS = list(verify.CORPUS_SPECS) + [
    "elab:2^4",
    "heis:3 * cyclic:3",
    "mod:3 * cyclic:3",
    "dihedral:8 * cyclic:2",
    "dihedral:16",
    "perm:(0 1 2 3),(0 1)",
    "perm:(0 1 2 3 4),(0 1)",
    "perm:(0 1 2 3 4),(0 1 2)",
]


@pytest.mark.parametrize("spec", LATTICE_SPECS)
def test_lattice_equals_the_pairwise_join_build(spec):
    g = group_from_spec(spec)
    assert lattice_fields(g) == reference_lattice(g)


@pytest.mark.parametrize("label", ["C3xC3xC3xC3", "C3xH27"])
def test_lattice_equals_the_pairwise_join_build_on_universe_groups(label):
    # the p=3 bound-81 universe's two largest lattices, as it builds them
    g = next(g for g in constructor_known_p_groups(3, 81) if g.label == label)
    assert lattice_fields(g) == reference_lattice(g)


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(group=small_perm_groups(), data=st.data())
def test_coset_extension_equals_the_closure(group, data):
    # A = <a_gens>, extended by `extra`: the coset build from A's members
    # against the identity-rooted closure of all the generators
    elements = st.integers(0, group.order - 1)
    a_gens = data.draw(st.lists(elements, max_size=2))
    extra = data.draw(st.lists(elements, max_size=2))
    a_members = groups.close_under_product(group, a_gens)
    gens = a_gens + extra
    assert groups._extend_mask(group, a_members, gens) == mask_of(
        groups.close_under_product(group, gens)
    )


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(group=small_perm_groups())
def test_lattice_equals_the_pairwise_join_build_on_perm_groups(group):
    assert lattice_fields(group) == reference_lattice(group)


def derived_groups(group):
    """The quotient by every normal subgroup and every class-rep subgroup,
    as standalone groups whose lattices are not built yet."""
    lat = all_subgroups(group)
    return [quotient(group, lat.subgroups[i].members).group for i in lat.normal] + [
        subgroup_as_group(lat.subgroups[i]).source for i in lat.class_reps
    ]


def assert_derived_lattices_equal_enumeration(group):
    for child in derived_groups(group):
        assert child._lattice_source is not None
        derived = lattice_fields(child)
        assert child._lattice_source is None
        assert derived == lattice_fields(FiniteGroup(child._mul))


@pytest.mark.parametrize("spec", LATTICE_SPECS)
def test_derived_lattices_equal_enumeration(spec):
    assert_derived_lattices_equal_enumeration(group_from_spec(spec))


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(group=small_perm_groups())
def test_derived_lattices_equal_enumeration_on_perm_groups(group):
    assert_derived_lattices_equal_enumeration(group)


@pytest.mark.parametrize("spec", ["cyclic:1", *LATTICE_SPECS])
def test_top_is_the_whole_group_on_enumerated_and_derived_lattices(spec):
    g = group_from_spec(spec)
    for group in [g, *derived_groups(g)]:
        lat = all_subgroups(group)
        assert lat.top == lat.index_of(range(group.order)), group.label


def count_extensions(monkeypatch) -> list:
    """Patch `groups._extend_mask` to record the subgroup A of each call."""
    calls = []
    extend = groups._extend_mask

    def counted(group, a_members, gens):
        calls.append(a_members)
        return extend(group, a_members, gens)

    monkeypatch.setattr(groups, "_extend_mask", counted)
    return calls


def test_derived_lattices_make_no_closures(monkeypatch):
    # once the parent's lattice exists, quotients and subgroups read theirs
    # off it instead of enumerating
    g = group_from_spec("heis:3 * cyclic:3")
    all_subgroups(g)
    calls = count_extensions(monkeypatch)
    children = derived_groups(g)
    assert sum(len(all_subgroups(child).subgroups) for child in children) > len(children)
    assert calls == []


def test_subgroup_enumeration_does_not_blow_up(monkeypatch):
    # joining every new subgroup with every known one makes 93,528 closures
    # on the 374 subgroups of C2^5 and one cyclic extension per step 9,549;
    # skipping the cyclics inside a prime-index extension leaves 2,046: the
    # cyclic subgroups are walked as powers, so no closure starts from 1
    g = group_from_spec("elab:2^5")
    calls = count_extensions(monkeypatch)
    assert len(all_subgroups(g).subgroups) == 374
    assert len(calls) <= 2046
    assert (g.identity,) not in calls


@pytest.mark.parametrize(
    "spec,count,bound",
    [
        ("heis:3 * cyclic:3", 104, 297),
        ("perm:(0 1 2),(0 1) * perm:(0 1 2 3),(0 1)", 372, 1073),
    ],
)
def test_subgroup_enumeration_extends_only_by_normalizing_cyclics(monkeypatch, spec, count, bound):
    # extending each subgroup by every cyclic subgroup it does not contain
    # makes 2,362 closures on H27 x C3 and 23,211 on S3 x S4; most build a
    # large overgroup again (3 -> 27 and 9 -> 81 on H27 x C3).  Both orders
    # have two prime divisors, so only normalizing extensions are tried.
    g = group_from_spec(spec)
    calls = count_extensions(monkeypatch)
    assert len(all_subgroups(g).subgroups) == count
    assert len(calls) <= bound


@pytest.mark.parametrize("spec", SMALL_SPECS)
def test_quotient_order_and_homomorphism(spec):
    g = group_from_spec(spec)
    lat = all_subgroups(g)
    for idx in lat.normal:
        n = lat.subgroups[idx]
        q = quotient(g, n.members)
        assert q.group.order == g.order // len(n)
        q.group.validate()
        for a in g.elements():
            for b in g.elements():
                assert q.projection[g.mul(a, b)] == q.group.mul(
                    q.projection[a], q.projection[b]
                )


def test_quotient_by_non_normal_raises():
    d8 = group_from_spec("dihedral:8")
    lat = all_subgroups(d8)
    non_normal = [i for i in range(len(lat.subgroups)) if i not in lat.normal]
    assert non_normal
    with pytest.raises(GroupError):
        quotient(d8, lat.subgroups[non_normal[0]].members)


def test_quotient_by_a_non_subgroup_raises():
    # is_normal alone accepts both: {0, 1} is not closed in C3, and {1, 2}
    # misses the identity of C4
    with pytest.raises(GroupError):
        quotient(cyclic_group(3), (0, 1))
    with pytest.raises(GroupError):
        quotient(cyclic_group(4), (1, 2))
    with pytest.raises(GroupError):
        subgroup_as_group(Subgroup(cyclic_group(4), (0, 1)))


@pytest.mark.parametrize("spec", ["dihedral:8", "perm:(0 1 2 3),(0 1)", "heis:3 * cyclic:3"])
def test_quotient_section_is_the_least_element_of_each_coset(spec):
    g = group_from_spec(spec)
    lat = all_subgroups(g)
    for n_idx in lat.normal:
        q = quotient(g, lat.subgroups[n_idx].members)
        least = {}
        for x in reversed(g.elements()):
            least[q.projection[x]] = x
        assert q.section == tuple(least[k] for k in q.group.elements())


def test_double_cosets_partition_group():
    d8 = group_from_spec("dihedral:8")
    lat = all_subgroups(d8)
    a = next(s for s in lat.subgroups if len(s) == 2)
    b = next(s for s in lat.subgroups if len(s) == 4)
    reps = double_cosets(d8, a.members, b.members)
    seen = set()
    for g in reps:
        for x in a.members:
            for y in b.members:
                seen.add(d8.mul(d8.mul(x, g), y))
    assert seen == set(range(8))
    assert len(double_cosets(d8, range(8), range(8))) == 1


def _normalizing_elements(group, members):
    # brute force: conjugate the member set element by element
    target = frozenset(members)
    return {
        g
        for g in group.elements()
        if frozenset(group.mul(group.mul(g, x), group.inv(g)) for x in members) == target
    }


def test_normalizer_and_conjugation():
    d8 = group_from_spec("dihedral:8")
    lat = all_subgroups(d8)
    refl = next(
        s for s in lat.subgroups if len(s) == 2 and not is_normal(d8, s.members)
    )
    norm = normalizer(d8, refl.members)
    assert len(norm) == 4
    i = lat.index_of(refl.members)
    for g in d8.elements():
        conj = Subgroup.from_members(d8, (d8.conj(g, x) for x in refl.members))
        conj.check()
        assert conj == lat.subgroups[lat.conj_table[g][i]]
        assert (frozenset(conj.members) == frozenset(refl.members)) == (g in set(norm.members))
    # the conjugation-table normalizers against brute force, every subgroup
    # pair of every corpus group
    for group in verify.corpus().groups:
        subs = all_subgroups(group).subgroups
        fixes = [_normalizing_elements(group, s.members) for s in subs]
        for s, fix_s in zip(subs, fixes):
            assert set(normalizer(group, s.members).members) == fix_s
            for t, fix_t in zip(subs, fixes):
                assert set(slice_normalizer(group, t.members, s.members)) == fix_t & fix_s


def test_normalizers_reject_non_subgroups():
    d8 = group_from_spec("dihedral:8")
    not_a_subgroup = (0, 1, 2)
    with pytest.raises(GroupError):
        normalizer(d8, not_a_subgroup)
    with pytest.raises(GroupError):
        slice_normalizer(d8, tuple(range(8)), not_a_subgroup)
    with pytest.raises(GroupError):
        slice_normalizer(d8, not_a_subgroup, (d8.identity,))


JOIN_EXTRA_SPECS = [
    "elab:2^4",
    "heis:3 * cyclic:3",
    "mod:3 * cyclic:3",
    "dihedral:8 * cyclic:2",
    "dihedral:16",
    "perm:(0 1 2 3),(0 1)",
    "perm:(0 1 2 3 4),(0 1 2)",
]


def assert_join_and_normalizer_masks(group):
    lat = all_subgroups(group)
    for i, a in enumerate(lat.subgroups):
        assert lat.normalizer_mask(i) == mask_of(_normalizing_elements(group, a.members))
        for j, b in enumerate(lat.subgroups):
            joined = groups.close_under_product(group, a.members + b.members)
            assert lat.masks[lat.join(i, j)] == mask_of(joined), (group.label, i, j)


@pytest.mark.parametrize("idx", range(len(verify.CORPUS_SPECS) + 1))
def test_join_and_normalizer_masks_on_the_corpus(idx):
    assert_join_and_normalizer_masks(verify.corpus().groups[idx])


@pytest.mark.parametrize("spec", JOIN_EXTRA_SPECS)
def test_join_and_normalizer_masks_on_larger_groups(spec):
    assert_join_and_normalizer_masks(group_from_spec(spec))


def test_close_under_product():
    c12 = cyclic_group(12)
    assert len(groups.close_under_product(c12, [4])) == 3
    assert len(groups.close_under_product(c12, [4, 6])) == 6
    assert groups.close_under_product(c12, []) == (c12.identity,)


def test_subgroup_as_group_roundtrip():
    d8 = group_from_spec("dihedral:8")
    lat = all_subgroups(d8)
    four = next(s for s in lat.subgroups if len(s) == 4)
    emb = subgroup_as_group(four)
    emb.check()
    assert emb.source.order == 4
    # cached per (parent, member set)
    assert subgroup_as_group(four) is emb


def test_isomorphism_examples():
    assert not is_isomorphic(cyclic_group(4), elementary_abelian(2, 2))
    assert not is_isomorphic(group_from_spec("mod:3"), group_from_spec("heis:3"))
    d8a = group_from_spec("dihedral:8")
    d8b = group_from_spec("perm:(0 1 2 3),(1 3)")
    iso = find_isomorphism(d8a, d8b)
    assert iso is not None
    iso.check()
    for a in d8a.elements():
        for b in d8a.elements():
            assert iso(d8a.mul(a, b)) == d8b.mul(iso(a), iso(b))


def test_isomorphism_is_a_checked_embedding_with_an_inverse():
    d8a = group_from_spec("dihedral:8")
    d8b = group_from_spec("perm:(0 1 2 3),(1 3)")
    iso = find_isomorphism(d8a, d8b)
    assert isinstance(iso, GroupEmbedding)
    inv = iso.inverse()
    inv.check()
    assert all(inv(iso(x)) == x for x in d8a.elements())
    # an injective homomorphism into a larger group is an embedding only
    c2 = cyclic_group(2)
    into = GroupIsomorphism(c2, cyclic_group(4), (0, 2))
    GroupEmbedding(c2, into.target, into.images).check()
    with pytest.raises(GroupError, match="not a bijection"):
        into.check()
    c4 = cyclic_group(4)
    with pytest.raises(GroupError, match="not a homomorphism"):
        GroupIsomorphism(c4, c4, (0, 2, 1, 3)).check()


@pytest.mark.parametrize(
    "spec,count",
    [("elab:2^2", 6), ("dihedral:8", 8), ("cyclic:8", 4), ("abelian:9x3", 108)],
)
def test_automorphism_counts(spec, count):
    assert len(automorphisms(group_from_spec(spec))) == count


def test_quaternion_automorphism_count():
    assert len(automorphisms(quaternion_group())) == 24


def reference_isomorphisms(g, h):
    """Every isomorphism g -> h, by trying each tuple of generator images in
    lexicographic order over the elements of h of the same order and keeping
    the bijective homomorphisms."""
    gens = g.generators()
    candidates = [
        [y for y in h.elements() if h.element_order(y) == g.element_order(x)]
        for x in gens
    ]
    for images in product(*candidates):
        img = {g.identity: h.identity}
        queue = [g.identity]
        while queue:
            a = queue.pop()
            for x, y in zip(gens, images):
                b = g.mul(a, x)
                if b not in img:
                    img[b] = h.mul(img[a], y)
                    queue.append(b)
        full = tuple(img[x] for x in g.elements())
        if len(set(full)) == h.order == g.order and all(
            full[g.mul(a, b)] == h.mul(full[a], full[b])
            for a in g.elements()
            for b in g.elements()
        ):
            yield full


@pytest.mark.parametrize(
    "spec",
    [
        "cyclic:1",
        "elab:3^2",
        "abelian:4x2",
        "elab:2^3",
        "dihedral:8",
        "Q8",
        "heis:2",
        "mod:3",
        "heis:3",
        "dihedral:16",
        "perm:(0 1 2 3),(0 1)",
    ],
)
def test_automorphisms_equal_the_reference_enumeration(spec):
    g = quaternion_group() if spec == "Q8" else group_from_spec(spec)
    assert automorphisms(g) == list(reference_isomorphisms(g, g))


@pytest.mark.parametrize(
    "spec",
    ["cyclic:1", "cyclic:8", "elab:2^4", "dihedral:16", "heis:3 * cyclic:3",
     "perm:(0 1 2 3),(0 1)", "perm:(0 1 2 3 4),(0 1 2)"],
)
def test_automorphism_generators_are_automorphisms(spec):
    g = group_from_spec(spec)
    gens = automorphism_generators(g)
    for aut in gens:
        GroupIsomorphism(g, g, aut).check()
    assert set(gens) <= set(automorphisms(g))


@pytest.mark.parametrize(
    "spec,order",
    [
        ("elab:2^3", 168),  # |GL(3, 2)|
        ("dihedral:8", 8),
        ("heis:3", 432),
        ("mod:3", 54),
        ("elab:2^4", 20160),  # |GL(4, 2)|
        ("abelian:4x2x2x2", 21504),
        ("heis:3 * cyclic:3", 23328),
        ("cyclic:9 * elab:3^2", 23328),
    ],
)
def test_stabiliser_chain_orbit_lengths_multiply_to_the_automorphism_count(spec, order):
    g = group_from_spec(spec)
    assert stabiliser_chain_order(g) == len(automorphisms(g)) == order


@pytest.mark.parametrize(
    "a,b",
    [("mod:2", "heis:2"), ("dihedral:8 * cyclic:2", "cyclic:2 * dihedral:8")],
)
def test_isomorphism_witness_is_the_reference_first_hit(a, b):
    g, h = group_from_spec(a), group_from_spec(b)
    assert find_isomorphism(g, h).images == next(reference_isomorphisms(g, h))


def relabelled(group, perm):
    table = [[0] * group.order for _ in group.elements()]
    for a in group.elements():
        for b in group.elements():
            table[perm[a]][perm[b]] = perm[group.mul(a, b)]
    return FiniteGroup(table)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(group=small_perm_groups(), data=st.data())
def test_relabelled_copy_is_found_isomorphic(group, data):
    perm = data.draw(st.permutations(range(group.order)))
    copy = relabelled(group, perm)
    assert groups._invariant_profile(copy) == groups._invariant_profile(group)
    assert len(automorphisms(copy)) == len(automorphisms(group))
    iso = find_isomorphism(group, copy)
    assert iso is not None
    iso.check()


def test_isomorphism_search_does_not_blow_up(monkeypatch):
    # generator 9 of H27 x C3 is the commutator of generators 3 and 27: a
    # search that tries every order-3 image for it makes over a million
    # extensions before the commutator rules the wrong ones out
    calls = []
    extend = groups._hom_from_generator_images

    def counted(*args):
        calls.append(None)
        return extend(*args)

    monkeypatch.setattr(groups, "_hom_from_generator_images", counted)
    iso = find_isomorphism(
        group_from_spec("heis:3 * cyclic:3"), group_from_spec("cyclic:3 * heis:3")
    )
    assert iso is not None
    iso.check()
    assert len(calls) < 20000


def test_no_library_module_lists_aut():
    # Aut(G) reaches the library only through its generators; the full list
    # is the tests' and the benchmark's oracle
    for path in Path(groups.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                assert name != "automorphisms", f"{path.name}:{node.lineno}"


def _keys_without_root_counts(group):
    m, n = group._mul, group.order
    return tuple(
        (k, sum(m[x][y] == m[y][x] for y in range(n)))
        for x, k in enumerate(group._element_orders())
    )


ROOT_COUNT_SPECS = (
    "heis:3 * cyclic:3", "perm:(0 1 2 3),(0 1)", "dihedral:16", "elab:2^4", "mod:3", "Q8",
    "abelian:4x2x2", "abelian:4x4x2",
)
ROOT_COUNT_PAIRS = (
    ("heis:3 * cyclic:3", "cyclic:3 * heis:3"),
    ("perm:(0 1 2 3),(0 1)", "perm:(0 1 2),(2 3)"),
    ("dihedral:8 * cyclic:2", "cyclic:2 * dihedral:8"),
    ("abelian:4x2x2", "cyclic:2 * cyclic:4 * cyclic:2"),
    ("mod:2", "heis:2"),
)


def test_root_counts_in_the_element_keys_change_no_witness(monkeypatch):
    # the number of q-th roots prunes candidates that no isomorphism could
    # take, so on fresh groups the generators and witnesses are the ones the
    # keys without it give
    def fresh(spec):
        return quaternion_group() if spec == "Q8" else group_from_spec(spec)

    def witnesses():
        gens = [automorphism_generators(fresh(spec)) for spec in ROOT_COUNT_SPECS]
        isos = [find_isomorphism(fresh(a), fresh(b)).images for a, b in ROOT_COUNT_PAIRS]
        return gens, isos

    # the root counts do split some keys: C4 x C2^2 has one square of order 2
    c4c2c2 = fresh("abelian:4x2x2")
    assert len(set(c4c2c2._element_keys())) > len(set(_keys_without_root_counts(c4c2c2)))
    with_roots = witnesses()
    monkeypatch.setattr(groups.FiniteGroup, "_element_keys", _keys_without_root_counts)
    assert witnesses() == with_roots


def test_lagrange_violation_detected():
    g = cyclic_group(4)
    with pytest.raises(GroupError):
        Subgroup.from_members(g, [0, 1]).check()
