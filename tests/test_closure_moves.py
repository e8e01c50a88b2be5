"""The closure moves a universe owns (quotient and deflation moves and the
surjection index).  `check_conditions` sweeps every nontrivial normal
subgroup, `bounded_closure` only the minimal ones, and both read their
images off the `image_indices()` of one `GroupUniverse.quotient_map`
witness onto the universe's own group; the outputs of both are pinned by
digest, and the deflation constants are evaluated once per lattice.  The
moves of every raw class are checked against the element-map path they
replaced (`helpers.element_map_moves`), and every witness against the
facts that make it a quotient map, its index maps against member tuples
(`helpers.member_index_map`).  The closure along every normal
subgroup of every raw class is rebuilt here from `quotient_moves` and
`constant` as the oracle of the minimal moves of canonical classes, with
tests of the facts they rest on.
Products with other groups are not a move; the product sweep that once was
one is rebuilt here from `GroupUniverse.product_map` as the oracle that
every product is already reached as a surjection source."""

import functools
import hashlib
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sliceburnside import cli, constants, ideals
from sliceburnside.constants import deflation_constant
from sliceburnside.groups import (
    FiniteGroup,
    all_subgroups,
    cyclic_group,
    elementary_abelian,
    quotient,
    set_product,
)
from sliceburnside.ideals import (
    BROKEN_CYCLIC_FAMILY,
    FAMILIES,
    GroupUniverse,
    SliceFamily,
    bounded_closure,
    check_conditions,
    constructor_known_p_groups,
)

from helpers import element_map_moves, member_index_map


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def report_digest(report) -> str:
    return sha256(json.dumps(cli.report_to_json(report), sort_keys=True))


CLI_DIGESTS = {
    ("closure", "--seed", "cyclic:3:T=*;S=g0", "--prime", "3", "--bound", "81"):
        "05206b71f4248ad009b6a28f4465130a80ca3c2051d1b690df84a926d3793e7f",
    ("--format", "json", "closure", "--seed", "elab:3^3:T=*;S=g0,g1",
     "--prime", "3", "--bound", "81"):
        "072d5d439c69271ea910eb12fa5cc91a0032b611c25483d5a3869e420ecb2e86",
}


@pytest.mark.parametrize("argv", list(CLI_DIGESTS), ids=["cyclic-text", "elab-json"])
def test_closure_cli_output_is_pinned(argv, capsys):
    assert cli.main(list(argv)) == 0
    assert sha256(capsys.readouterr().out) == CLI_DIGESTS[argv]


REPORT_DIGESTS = {
    (2, 8): {
        "J1": "134e04d06e62c6bd421e8eba3d446fcd06a6c97d28e09bc6ee7fd78e3943637f",
        "J2": "371a5349e970bedb7d376153589dd6fcd7c90e3f1b7c7277864e63fc8b231149",
        "J3": "2602a9e45fd2669b8c6c23f34aa8b478c15c498608e7a3f1b5dfef22b5dca3c6",
        "J4": "798762cffdc8da7707c559674ef6193ca9f730fd079648efced4269f4cc11102",
        "FULL": "d8f079392c3b0f7bfddb7f78b7af76d4ec8a536c2c327db33d338dd163339aa4",
        "ZERO": "88594f778c9fbd7fb6a8482a14c451d982089155ecab9dc19dcf905c78e204de",
        "S_CYCLIC": "b9a261894cd9fcfa38f03b65ab64abfe2e0ae882b0221f4f2b77b29861962a26",
    },
    (3, 27): {
        "J1": "433b48374d8989caa0326727ae9377341b83b857e2b806e8b91dd2d16679f321",
        "J2": "27a9b370cf983c8e8a61477b35da2669693ee8142af11f47d71ffd2cd3033850",
        "J3": "c70c9d5c3c442bfc60f4fa4c5c515b66d9558744881985708f9fa82e1497be24",
        "J4": "0abc99ce408ebcdcad7309539da7e2337c4faad770b5bf2ca31e8418fe00ee2c",
        "FULL": "8c0da70101c9f2ba2e0e581c65c0d2254a62f32d7d8b806d7279a4a1f986eca6",
        "ZERO": "956f49d60217fabf232cde3b79ca5a488105c329bfc5b2669b9a781a0d03e698",
        "S_CYCLIC": "8cb092406c3b04319b7ae553ceb58af49a9e6788f984aa080e02efbfc682edef",
    },
}


@pytest.mark.parametrize("prime,bound", list(REPORT_DIGESTS))
def test_condition_reports_are_pinned(prime, bound):
    u = GroupUniverse(prime, bound)
    families = [FAMILIES[f] for f in ("J1", "J2", "J3", "J4", "FULL", "ZERO")]
    got = {
        fam.id: report_digest(check_conditions(fam, u))
        for fam in families + [BROKEN_CYCLIC_FAMILY]
    }
    assert got == REPORT_DIGESTS[prime, bound]


def s_p_or_p3(p: int) -> SliceFamily:
    return SliceFamily("S_P_OR_P3", lambda lat, t, s: len(lat.subgroups[s]) in (p, p**3))


def test_every_kind_of_violation_is_reported_and_pinned():
    # |S| in {p, p^3} is not an ideal family in two ways; only it reaches
    # the deflation witnesses (constant computed for the report)
    report = check_conditions(s_p_or_p3(2), GroupUniverse(2, 16))
    assert report.slices_checked == 235
    assert len(report.preimage_violations) == 1751
    assert len(report.deflation_violations) == 607
    assert report.iso_violations == []
    assert report.deflation_violations[0] == {
        "source": "C2:S=0.1",
        "via_normal": [0, 1],
        "constant": "1/2",
        "quotient": "C1:S=0",
    }
    assert report_digest(report) == (
        "49a9e964c67912b07b16c7368feb6b4a319e1b0989209a7896c9aba0e1735ef5"
    )


def test_second_closure_reuses_the_deflation_tests(monkeypatch):
    u = GroupUniverse(2, 16)
    first = bounded_closure(u, cyclic_group(2), (0,))
    sums = []
    quotients = []
    original_quotient = ideals.quotient

    def counted(original):
        def wrapper(*args):
            sums.append(args)
            return original(*args)
        return wrapper

    def counted_quotient(*args):
        quotients.append(args)
        return original_quotient(*args)

    # the constants stay on the lattices: no Moebius sum is evaluated again
    for name in ("_lower_moebius_sum", "_supplement_sum"):
        monkeypatch.setattr(constants, name, counted(getattr(constants, name)))
    monkeypatch.setattr(ideals, "quotient", counted_quotient)
    assert bounded_closure(u, cyclic_group(2), (0,)) == first
    assert len(sums) == 0
    # the moves stay cached on the universe: no quotient is built again
    assert len(quotients) == 0


def class_orbits(universe):
    """{(group index, canonical class): the raw subgroup classes of its
    Aut-orbit}."""
    orbits = {}
    for gi, lat in enumerate(universe.lattices):
        for cls in range(len(lat.class_reps)):
            orbits.setdefault((gi, universe.canonical_class(gi, cls)), []).append(cls)
    return orbits


def all_normal_closures(universe, seeds):
    """The closure of each seed under the moves along every nontrivial
    normal subgroup, taken from every raw class of each member's orbit, from
    the `quotient_moves` and `constant` that `check_conditions` uses: the
    oracle of `bounded_closure`, which moves along minimal normal subgroups
    from canonical classes only."""
    orbits = class_orbits(universe)
    sources = {}
    for (gi, canon_cls), orbit in orbits.items():
        for cls in orbit:
            for _, tgt in universe.quotient_moves(gi, cls):
                if tgt != (gi, canon_cls):
                    sources.setdefault(tgt, set()).add((gi, canon_cls))
    for seed in seeds:
        members = {seed}
        queue = [seed]
        while queue:
            gi, canon_cls = queue.pop()
            reached = set(sources.get((gi, canon_cls), ()))
            for cls in orbits[gi, canon_cls]:
                reached.update(
                    tgt
                    for n_idx, tgt in universe.quotient_moves(gi, cls)
                    if universe.constant(gi, cls, n_idx) != 0
                )
            queue.extend(reached - members)
            members |= reached
        yield members


def assert_principal_closures_match(prime, bound):
    """Every principal closure of the (prime, bound) universe equals the
    closure along every normal subgroup; returns the number compared."""
    u = GroupUniverse(prime, bound)
    seeds = sorted(u.all_abstract_classes())
    for (gi, canon_cls), oracle in zip(seeds, all_normal_closures(u, seeds)):
        lat = u.lattices[gi]
        s_members = lat.subgroups[lat.class_reps[canon_cls]].members
        got = bounded_closure(u, u.groups[gi], s_members)
        assert got == oracle, u.describe_class(gi, canon_cls)
    return len(seeds)


@pytest.mark.parametrize("prime,bound,count", [(2, 8, 33), (3, 27, 34), (2, 16, 215)])
def test_principal_closures_equal_the_all_normal_closure(prime, bound, count):
    assert assert_principal_closures_match(prime, bound) == count


@pytest.mark.parametrize("prime,bound", [(2, 16), (3, 27), (3, 81)])
def test_every_class_of_an_orbit_has_the_minimal_moves_of_its_canonical_class(prime, bound):
    # the fact that lets `bounded_closure` move canonical classes only: an
    # automorphism carries the (target, constant) pairs of one class to another
    u = GroupUniverse(prime, bound)

    def moves(gi, cls):
        return sorted((tgt, u.constant(gi, cls, n_idx)) for n_idx, tgt in u.minimal_moves(gi, cls))

    merged = 0
    for (gi, canon_cls), orbit in class_orbits(u).items():
        if len(orbit) > 1:
            # the precondition: orbits of more than one class only up to p^3
            assert u.groups[gi].order <= prime**3
            merged += 1
        expected = moves(gi, canon_cls)
        for cls in orbit:
            assert moves(gi, cls) == expected, u.describe_class(gi, cls)
    assert merged > 0


def test_a_universe_group_locates_without_an_isomorphism_search(monkeypatch):
    u = GroupUniverse(3, 27)
    g = next(h for h in u.groups if h.label == "C3xC3xC3")
    lat = u.lattices[u.groups.index(g)]
    s_members = lat.subgroups[lat.class_reps[-2]].members
    calls = []
    original = ideals.find_isomorphism

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(ideals, "find_isomorphism", counted)
    located = u.locate_slice(g, s_members)
    assert len(calls) == 0
    # a freshly built copy is found by the search, at the same slice
    assert u.locate_slice(elementary_abelian(3, 3), s_members) == located
    assert len(calls) > 0


def generalized_quaternion_16():
    """Q16 on a^i b^j = i + 8j, with b a b^-1 = a^-1 and b^2 = a^4."""

    def mul(x, y):
        i, j, k, m = x % 8, x // 8, y % 8, y // 8
        return (i + (-1) ** j * k + 4 * j * m) % 8 + 8 * ((j + m) % 2)

    return FiniteGroup([[mul(x, y) for y in range(16)] for x in range(16)], "Q16")


def test_a_group_no_universe_profile_matches_is_refused_without_an_isomorphism_search(
    monkeypatch,
):
    # Q16 has one involution, unlike the eight groups of order 16 the
    # universe holds, so no search is tried
    u = GroupUniverse(2, 16)
    q16 = generalized_quaternion_16()
    q16.validate()
    assert sum(h.order == 16 for h in u.groups) == 8
    calls = []
    original = ideals.find_isomorphism

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(ideals, "find_isomorphism", counted)
    assert u.find_group(q16) is None
    assert calls == []


def test_minimal_moves_are_the_quotient_moves_by_minimal_normal_subgroups():
    u = GroupUniverse(2, 16)
    for gi, lat in enumerate(u.lattices):
        minimal = set(lat.minimal_normal)
        for cls in range(len(lat.class_reps)):
            assert u.minimal_moves(gi, cls) == tuple(
                move for move in u.quotient_moves(gi, cls) if move[0] in minimal
            )


def assert_quotient_witness(universe, gi, n_idx, qi, witness):
    """The witness of G_gi -> G_gi / N maps onto the universe's own G_qi by
    a homomorphism with kernel N, whose section picks the least element of
    each fibre and whose image of G is G_qi's top."""
    g, h = universe.groups[gi], universe.groups[qi]
    assert witness.source is g and witness.group is h
    proj = witness.projection
    # a map that respects right multiplication by each generator respects
    # every product, since each element is a word in the generators
    assert all(
        proj[g.mul(a, x)] == h.mul(proj[a], proj[x]) for a in range(g.order) for x in g.generators()
    )
    fibre_of_one = tuple(x for x in range(g.order) if proj[x] == h.identity)
    assert witness.kernel == fibre_of_one == universe.lattices[gi].subgroups[n_idx].members
    least = {}
    for x in range(g.order):
        least.setdefault(proj[x], x)
    assert witness.section == tuple(least[y] for y in range(h.order))
    assert witness.image_indices()[-1] == universe.lattices[qi].top
    # the maps read off the correspondence above N, against member tuples
    assert witness.image_indices() == member_index_map(witness.image_members, g, h)
    assert witness.preimage_indices() == member_index_map(witness.preimage_members, h, g)


def assert_moves_match_the_element_map_oracle(prime, bound):
    """The quotient and minimal moves of every raw class of the (prime,
    bound) universe against `helpers.element_map_moves`, then every quotient
    witness the sweep left in the universe; returns the number of (class,
    nontrivial normal N) pairs compared."""
    u = GroupUniverse(prime, bound)
    maps = {}
    pairs = 0
    for gi, lat in enumerate(u.lattices):
        normals, minimal = lat.normal[1:], lat.minimal_normal
        for cls in range(len(lat.class_reps)):
            described = u.describe_class(gi, cls)
            for moves, normals_of in ((u.quotient_moves, normals), (u.minimal_moves, minimal)):
                assert moves(gi, cls) == element_map_moves(u, maps, gi, cls, normals_of), described
            pairs += len(normals)
    assert u._quotient_maps.keys() == maps.keys()
    for (gi, n_idx), (qi, witness) in u._quotient_maps.items():
        assert qi == maps[gi, n_idx][0]
        assert_quotient_witness(u, gi, n_idx, qi, witness)
    return pairs


@pytest.mark.parametrize("prime,bound,pairs", [(2, 16, 6764), (3, 27, 1010), (3, 81, 51814)])
def test_moves_equal_the_element_map_oracle_and_every_witness_maps_onto_a_universe_group(
    prime, bound, pairs
):
    assert assert_moves_match_the_element_map_oracle(prime, bound) == pairs


@functools.cache
def nontrivial_universe_groups():
    return [g for p, b in ((2, 16), (3, 27)) for g in constructor_known_p_groups(p, b)
            if g.order > 1]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_quotient_and_nonzero_deflation_is_a_chain_of_minimal_steps(data):
    # the two facts `bounded_closure` rests on, for N0 <= M with N0 minimal
    g = data.draw(st.sampled_from(nontrivial_universe_groups()), label="group")
    lat = all_subgroups(g)
    s = lat.subgroups[data.draw(st.integers(0, len(lat.subgroups) - 1), label="S")].members
    m_idx = data.draw(st.sampled_from(lat.normal[1:]), label="M")
    n0_idx = data.draw(
        st.sampled_from([i for i in lat.minimal_normal if lat.contains_pair(i, m_idx)]),
        label="N0",
    )
    m, n0 = lat.subgroups[m_idx].members, lat.subgroups[n0_idx].members
    q1 = quotient(g, n0)
    sn0 = q1.image_members(set_product(g, s, n0))
    m_mod_n0 = q1.image_members(m)
    q2 = quotient(q1.group, m_mod_n0)
    assert (deflation_constant(g, s, m) != 0) == (
        deflation_constant(g, s, n0) != 0 and deflation_constant(q1.group, sn0, m_mod_n0) != 0
    )
    # G/M -> (G/N0)/(M/N0) is a bijection, and it sends the image of S mod M
    # to the image of SN0/N0 mod M/N0
    qm = quotient(g, m)
    phi = {qm.projection[x]: q2.projection[q1.projection[x]] for x in range(g.order)}
    assert len(phi) == len(set(phi.values())) == qm.group.order == q2.group.order
    assert all(phi[qm.projection[x]] == q2.projection[q1.projection[x]] for x in range(g.order))
    assert sorted(phi[y] for y in qm.image_members(s)) == list(q2.image_members(sn0))


def product_classes(universe, maps, ti, s_cls):
    """(factor description, canonical class of (B x T, A x S)) for the
    slice (T, S) of class `s_cls` of T = G_ti and every universe slice
    (B, A) with |B||T| within the bound; `maps` keeps each (B, T) product
    map once it is built."""
    t_order = universe.groups[ti].order
    lat_t = universe.lattices[ti]
    s_members = lat_t.subgroups[lat_t.class_reps[s_cls]].members
    for bi, b_group in enumerate(universe.groups):
        if b_group.order * t_order > universe.bound:
            continue
        if (bi, ti) not in maps:
            maps[bi, ti] = universe.product_map(bi, ti)
        pi, images = maps[bi, ti]
        lat_b, plat = universe.lattices[bi], universe.lattices[pi]
        for a_cls, a_rep in enumerate(lat_b.class_reps):
            idx = plat.index_of(
                images[a * t_order + s]
                for a in lat_b.subgroups[a_rep].members
                for s in s_members
            )
            pcls = universe.canonical_class(pi, plat.class_of[idx])
            yield universe.describe_class(bi, a_cls), (pi, pcls)


def product_violations(family, universe):
    """The product sweep `check_conditions` no longer runs: (member,
    factor, product) for each in-bound product of a member slice that is
    not a member."""
    maps = {}
    out = []
    for ti, g in enumerate(universe.groups):
        lat = universe.lattices[ti]
        full = tuple(range(g.order))
        for s_cls, rep in enumerate(lat.class_reps):
            if not family(g, full, lat.subgroups[rep].members):
                continue
            for factor, (pi, pcls) in product_classes(universe, maps, ti, s_cls):
                p_group, plat = universe.groups[pi], universe.lattices[pi]
                p_members = plat.subgroups[plat.class_reps[pcls]].members
                if not family(p_group, tuple(range(p_group.order)), p_members):
                    out.append(
                        (
                            universe.describe_class(ti, s_cls),
                            factor,
                            universe.describe_class(pi, pcls),
                        )
                    )
    return out


@pytest.mark.parametrize("prime,bound", [(2, 8), (3, 27), (2, 16)])
@pytest.mark.parametrize("family", ["S_CYCLIC", "S_P_OR_P3"])
def test_every_product_violation_is_a_preimage_violation(prime, bound, family):
    fam = BROKEN_CYCLIC_FAMILY if family == "S_CYCLIC" else s_p_or_p3(prime)
    u = GroupUniverse(prime, bound)
    swept = product_violations(fam, u)
    assert swept
    sources = {v["source"] for v in check_conditions(fam, u).preimage_violations}
    assert {product for _, _, product in swept} <= sources
    if (family, prime, bound) == ("S_P_OR_P3", 2, 16):
        assert len(swept) == 65


def criterion_07_seeds(p: int) -> dict:
    e3 = elementary_abelian(p, 3)
    rank2 = next(s for s in all_subgroups(e3).subgroups if len(s) == p * p)
    return {
        "FULL": (cyclic_group(1), (0,)),
        "J1": (cyclic_group(p), (0,)),
        "J2": (elementary_abelian(p, 2), tuple(range(p * p))),
        "J3": (e3, rank2.members),
    }


@pytest.mark.parametrize("prime,bound", [(2, 16), (3, 81)])
def test_closures_hold_every_in_bound_product_of_a_member(prime, bound):
    u = GroupUniverse(prime, bound)
    maps = {}
    orbits = class_orbits(u)
    for fid, seed in criterion_07_seeds(prime).items():
        members = bounded_closure(u, *seed)
        for gi, canon_cls in members:
            for cls in orbits[gi, canon_cls]:
                for factor, product in product_classes(u, maps, gi, cls):
                    assert product in members, (fid, u.describe_class(gi, cls), factor)


def test_criterion_07_closures_equal_the_all_normal_closure_at_3_81():
    u = GroupUniverse(3, 81)
    seeds = criterion_07_seeds(3)
    located = [u.locate_slice(*seed) for seed in seeds.values()]
    for fid, seed, oracle in zip(seeds, seeds.values(), all_normal_closures(u, located)):
        assert bounded_closure(u, *seed) == oracle, fid
