import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sliceburnside import verify
from sliceburnside.cli import report_to_json
from sliceburnside.groups import (
    GroupError,
    SubgroupLattice,
    all_subgroups,
    cyclic_group,
    elementary_abelian,
    group_from_spec,
    is_isomorphic,
    quaternion_group,
    quotient,
    subgroup_as_group,
)
from sliceburnside.ideals import (
    BROKEN_CYCLIC_FAMILY,
    FAMILIES,
    GroupUniverse,
    SliceFamily,
    bounded_closure,
    burnside_image_rank,
    check_conditions,
    closure_trace,
    constructor_known_p_groups,
    family_by_id,
    ideal_dimension,
    intersection_dimension,
    member_classes,
    minimal_groups,
)
from sliceburnside.ring import SliceClassTable, slice_classes

from helpers import MEMBER_FAMILIES, is_cyclic_members
from test_closure_moves import criterion_07_seeds
from test_groups import reference_isomorphisms
from test_marks import small_perm_groups


def reference_canonical_map(universe, gi):
    """The canonical class of each subgroup class by the two formulas the
    orbit map replaced: the least class of equal order on an elementary
    abelian group, and the minimum over every automorphism otherwise, up to
    order p^3; raw classes above it."""
    g, lat = universe.groups[gi], universe.lattices[gi]
    reps = lat.class_reps
    if g.order > universe.prime**3:
        return tuple(range(len(reps)))
    if g.is_abelian() and g.exponent() in (1, universe.prime):
        sizes = [len(lat.subgroups[rep]) for rep in reps]
        return tuple(sizes.index(size) for size in sizes)
    auts = list(reference_isomorphisms(g, g))
    return tuple(
        min(lat.class_of[lat.index_of(a[x] for x in lat.subgroups[rep].members)] for a in auts)
        for rep in reps
    )


@pytest.mark.parametrize("prime,bound", [(2, 8), (2, 16), (3, 27), (3, 81)])
def test_canonical_classes_match_the_full_automorphism_formulas(prime, bound):
    universe = GroupUniverse(prime, bound)
    for gi in range(len(universe.groups)):
        assert universe._canonical_map(gi) == reference_canonical_map(universe, gi), gi


def test_family_membership_examples():
    e33 = elementary_abelian(3, 3)
    full = tuple(range(27))
    nine = next(s for s in all_subgroups(e33).subgroups if len(s) == 9).members
    assert not FAMILIES["J1"](e33, full, full)
    assert FAMILIES["J3"](e33, full, nine)
    c9c3 = group_from_spec("abelian:9x3")
    c9 = next(
        s for s in all_subgroups(c9c3).subgroups
        if len(s) == 9 and is_cyclic_members(c9c3, s.members)
    ).members
    assert FAMILIES["J1"](c9c3, tuple(range(27)), c9)
    assert not FAMILIES["J2"](c9c3, tuple(range(27)), c9)
    assert FAMILIES["J4"](c9c3, tuple(range(27)), c9)
    assert FAMILIES["FULL"](c9c3, c9, c9)
    assert not FAMILIES["ZERO"](c9c3, c9, c9)


def test_a_family_called_with_a_set_that_is_no_subgroup_raises():
    e33 = elementary_abelian(3, 3)
    with pytest.raises(GroupError, match="not a subgroup"):
        FAMILIES["J1"](e33, tuple(range(27)), (0, 1))


def assert_index_families_match_the_member_oracle(group):
    """Every family's index predicate against its member-tuple form in
    `helpers.MEMBER_FAMILIES` on every nested pair (t, s) of the group's
    lattice, and `SubgroupLattice.cyclic` against `is_cyclic_members` on
    every subgroup."""
    lat = all_subgroups(group)
    members = [h.members for h in lat.subgroups]
    for i, m in enumerate(members):
        assert (i in lat.cyclic) == is_cyclic_members(group, m), (group.label, i)
    families = [*FAMILIES.values(), BROKEN_CYCLIC_FAMILY]
    for t, down in enumerate(lat.below):
        for s in down:
            for fam in families:
                want = MEMBER_FAMILIES[fam.id](group, members[t], members[s])
                assert bool(fam.membership(lat, t, s)) == want, (group.label, fam.id, t, s)


@pytest.mark.parametrize("prime,bound", [(2, 16), (2, 32), (3, 81)])
def test_index_families_match_the_member_oracle_on_universe_lattices(prime, bound):
    for g in GroupUniverse(prime, bound).groups:
        assert_index_families_match_the_member_oracle(g)


def test_index_families_match_the_member_oracle_on_the_verify_corpus():
    for g in verify.corpus().groups:
        assert_index_families_match_the_member_oracle(g)


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(group=small_perm_groups(), data=st.data())
def test_index_families_match_the_member_oracle_on_derived_lattices(group, data):
    lat = all_subgroups(group)
    n = lat.subgroups[data.draw(st.sampled_from(lat.normal))]
    h = lat.subgroups[data.draw(st.sampled_from(range(len(lat.subgroups))))]
    assert_index_families_match_the_member_oracle(group)
    assert_index_families_match_the_member_oracle(quotient(group, n.members).group)
    assert_index_families_match_the_member_oracle(subgroup_as_group(h).source)


def test_universe_builds_find_no_subgroup_by_its_members(monkeypatch):
    # builds, closures and condition sweeps hand `index_of` only a lattice's
    # own member tuple (`quotient`'s lookup of N), apart from one lookup of
    # each closure's seed in its own group: no image of a quotient move, and
    # no seed's image in the universe, is found by members
    calls = []
    original = SubgroupLattice.index_of

    def counted(self, members):
        i = original(self, members)
        calls.append((self.group, members is self.subgroups[i].members))
        return i

    monkeypatch.setattr(SubgroupLattice, "index_of", counted)
    for prime, bound in ((2, 16), (3, 81)):
        GroupUniverse(prime, bound)
        assert calls == [], (prime, bound)
    u = GroupUniverse(3, 81)
    seeds = list(criterion_07_seeds(3).values())
    for seed in seeds:
        bounded_closure(u, *seed)
    seed_groups = [g for g, _ in seeds]
    assert [g for g, _ in calls if g in seed_groups] == seed_groups
    others = [own for g, own in calls if g not in seed_groups]
    assert others and all(others)
    calls.clear()
    u = GroupUniverse(3, 27)
    for fam in FAMILIES.values():
        check_conditions(fam, u)
    assert calls and all(own for _, own in calls)


def test_member_classes_read_no_member_tuples(monkeypatch):
    calls = []
    original = SliceClassTable.rep_subgroups

    def counted(self, cls):
        calls.append(cls)
        return original(self, cls)

    monkeypatch.setattr(SliceClassTable, "rep_subgroups", counted)
    for g in verify.corpus().groups:
        table = slice_classes(g)
        for fam in FAMILIES.values():
            member_classes(table, fam)
    assert calls == []


def test_family_lookup():
    assert family_by_id("J3") is FAMILIES["J3"]
    assert family_by_id("S_CYCLIC") is BROKEN_CYCLIC_FAMILY
    with pytest.raises(GroupError):
        family_by_id("J9")


@pytest.mark.parametrize(
    "spec,dim",
    [
        ("elab:3^3", 13),
        ("abelian:9x3", 1),
        ("mod:3", 1),
        ("heis:3", 4),
        ("elab:2^3", 7),
        ("abelian:4x2", 1),
        ("dihedral:8", 2),
        ("cyclic:27", 0),
        ("cyclic:1", 0),
    ],
)
def test_j3_dimension_table(spec, dim):
    assert ideal_dimension(group_from_spec(spec), FAMILIES["J3"]) == dim


def test_quaternion_j3_dimension_is_zero():
    assert ideal_dimension(quaternion_group(), FAMILIES["J3"]) == 0


# the oracle of `_abelian_types`: the lists its two-loop predecessor gave
KNOWN_P_GROUP_LABELS = {
    (2, 32): [
        "C1", "C2", "C2xC2", "C4", "C2xC2xC2", "C4xC2", "C8", "M8", "Q8", "C16",
        "C2xC2xC2xC2", "C2xM8", "C2xQ8", "C4xC2xC2", "C4xC4", "C8xC2", "D16", "C16xC2",
        "C2xC2xC2xC2xC2", "C2xC2xM8", "C2xC2xQ8", "C2xD16", "C32", "C4xC2xC2xC2",
        "C4xC4xC2", "C4xM8", "C4xQ8", "C8xC2xC2", "C8xC4", "D32",
    ],
    (3, 81): [
        "C1", "C3", "C3xC3", "C9", "C27", "C3xC3xC3", "C9xC3", "H27", "M27", "C27xC3",
        "C3xC3xC3xC3", "C3xH27", "C3xM27", "C81", "C9xC3xC3", "C9xC9",
    ],
    (5, 125): ["C1", "C5", "C25", "C5xC5", "C125", "C25xC5", "C5xC5xC5", "H125", "M125"],
}


@pytest.mark.parametrize("p,bound", sorted(KNOWN_P_GROUP_LABELS))
def test_constructor_known_p_group_labels(p, bound):
    labels = [g.label for g in constructor_known_p_groups(p, bound)]
    assert labels == KNOWN_P_GROUP_LABELS[p, bound]


def test_family_sweeps_read_no_group_past_their_order():
    u = GroupUniverse(3, 81)
    seen = []
    family = SliceFamily(
        "SEEN", lambda lat, t, s: seen.append(lat.group.order) or len(lat.subgroups[s]) > 1
    )
    trace = u.family_trace(family, max_order=27)
    assert max(seen) == 27
    assert trace == {
        (gi, u.canonical_class(gi, cls))
        for gi, (g, lat) in enumerate(zip(u.groups, u.lattices)) if g.order <= 27
        for cls, rep in enumerate(lat.class_reps) if len(lat.subgroups[rep]) > 1
    }
    seen.clear()
    report = check_conditions(family, u)
    assert max(seen) == 81 and report.slices_checked == len(seen)
    assert report.slices_checked == sum(len(lat.class_reps) for lat in u.lattices)


def test_universe_groups_pairwise_nonisomorphic():
    u = GroupUniverse(3, 27)
    assert len(u.groups) == 9
    assert sorted(g.order for g in u.groups) == [1, 3, 9, 9, 27, 27, 27, 27, 27]
    for i, a in enumerate(u.groups):
        for b in u.groups[i + 1 :]:
            assert not is_isomorphic(a, b)
    u2 = GroupUniverse(2, 8)
    assert sorted(g.order for g in u2.groups) == [1, 2, 4, 4, 8, 8, 8, 8, 8]


def test_locate_slice_rejects_foreign_orders():
    u = GroupUniverse(2, 8)
    with pytest.raises(GroupError):
        u.locate_slice(cyclic_group(16), (0,))


@pytest.mark.parametrize("bad", [-1, 2, 10**6])
def test_seed_members_outside_the_group_are_rejected(bad):
    # -1 would index the last element, so (0, -1) was closed as (0, 1), and
    # 2 and past it raised IndexError
    u, c2 = GroupUniverse(2, 8), cyclic_group(2)
    for locate in (u.locate_slice, lambda g, s: bounded_closure(u, g, s)):
        with pytest.raises(GroupError, match="not a subgroup"):
            locate(c2, (0, bad))
    assert bounded_closure(u, c2, (0, 1)) == bounded_closure(u, c2, [1, 0])


def test_conditions_pass_for_ideal_families():
    u = GroupUniverse(2, 8)
    for fid in ("J1", "J2", "J3", "J4", "FULL", "ZERO"):
        report = check_conditions(FAMILIES[fid], u)
        assert report.passed, (fid, report_to_json(report))
        assert report.slices_checked > 0


def test_broken_family_fails_with_preimage_witness():
    u = GroupUniverse(2, 8)
    report = check_conditions(BROKEN_CYCLIC_FAMILY, u)
    assert not report.passed
    witnesses = report.preimage_violations
    assert witnesses
    # a noncyclic whole-group slice surjects onto a cyclic one
    assert any("C2xC2" in w["source"] for w in witnesses)
    payload = report_to_json(report)
    assert payload["universe_bounded"] is True
    assert payload["passed"] is False


def test_family_that_names_an_element_fails_isomorphism_invariance():
    # whether S holds the element g1 depends on the labelling, not on (T, S)
    u = GroupUniverse(2, 8)
    report = check_conditions(SliceFamily("HAS_G1", lambda lat, t, s: lat.masks[s] >> 1 & 1), u)
    assert not report.passed
    assert len(report.iso_violations) == 5
    assert report.iso_violations[0] == {
        "group": "C2xC2",
        "classes": ["C2xC2:S=0.1", "C2xC2:S=0.2", "C2xC2:S=0.3"],
    }


def test_closure_from_trivial_seed_reaches_everything():
    u = GroupUniverse(2, 8)
    closure = bounded_closure(u, cyclic_group(1), (0,))
    assert closure == u.all_abstract_classes()


@pytest.mark.parametrize(
    "fid",
    ["FULL", "J1", "J2", "J3"],
)
def test_closures_reproduce_family_traces_p2(fid):
    u = GroupUniverse(2, 16)
    p = 2
    seeds = {
        "FULL": (cyclic_group(1), (0,)),
        "J1": (cyclic_group(2), (0,)),
        "J2": (elementary_abelian(2, 2), tuple(range(4))),
    }
    if fid == "J3":
        e3 = elementary_abelian(2, 3)
        rank2 = next(s for s in all_subgroups(e3).subgroups if len(s) == 4)
        seed = (e3, rank2.members)
    else:
        seed = seeds[fid]
    closure = bounded_closure(u, *seed)
    assert closure_trace(u, closure, 8) == u.family_trace(FAMILIES[fid], max_order=8)


def test_closure_stays_inside_its_family():
    # soundness: every closure member satisfies the family predicate
    u = GroupUniverse(2, 16)
    e3 = elementary_abelian(2, 3)
    rank2 = next(s for s in all_subgroups(e3).subgroups if len(s) == 4)
    closure = bounded_closure(u, e3, rank2.members)
    fam = FAMILIES["J3"]
    for gi, cls in closure:
        g = u.groups[gi]
        lat = u.lattices[gi]
        sub = lat.subgroups[lat.class_reps[cls]]
        assert fam(g, tuple(range(g.order)), sub.members)


def test_minimal_groups_examples():
    u = GroupUniverse(3, 27)
    assert [g.order for g in minimal_groups(FAMILIES["FULL"], u)] == [1]
    j1_min = minimal_groups(FAMILIES["J1"], u)
    assert len(j1_min) == 1 and j1_min[0].order == 3
    j3_min = minimal_groups(FAMILIES["J3"], u)
    assert sorted(g.order for g in j3_min) == [27, 27, 27, 27]
    assert minimal_groups(FAMILIES["ZERO"], u) == []


def test_minimal_groups_build_no_slice_table_above_the_least_order():
    # the universe ascends by order, so the sweep stops past order 8
    u = GroupUniverse(2, 16)
    assert [g.label for g in minimal_groups(FAMILIES["J3"], u)] == ["C2xC2xC2", "C4xC2", "M8"]
    larger = [g for g in u.groups if g.order > 8]
    assert larger and all(g._slice_table is None for g in larger)


def test_burnside_embedding_dimensions():
    for spec in ["cyclic:8", "elab:2^2", "dihedral:8", "mod:3"]:
        g = group_from_spec(spec)
        k = len(all_subgroups(g).class_reps)
        assert burnside_image_rank(g) == k
        assert intersection_dimension(g, FAMILIES["J1"]) == 0
        assert intersection_dimension(g, FAMILIES["FULL"]) == k
        assert intersection_dimension(g, FAMILIES["ZERO"]) == 0


def test_member_class_lattice_identities():
    for spec in ["elab:2^3", "dihedral:8", "heis:3"]:
        table = slice_classes(group_from_spec(spec))
        sets = {
            fid: set(member_classes(table, FAMILIES[fid]))
            for fid in FAMILIES
        }
        assert sets["J3"] == sets["J1"] & sets["J2"]
        assert sets["J4"] == sets["J1"] | sets["J2"]
        assert sets["J3"] <= sets["J1"] <= sets["J4"] <= sets["FULL"]
        assert sets["J3"] <= sets["J2"] <= sets["J4"]
        assert not sets["ZERO"]
