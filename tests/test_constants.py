import gc
import weakref
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings

from sliceburnside import constants, groups, verify
from sliceburnside.constants import (
    classical_deflation_constant,
    complement_count,
    complement_count_formula_check,
    deflation_constant,
    deflation_idempotent_scalar,
    deflation_vanishes_predicted,
    elementary_abelian_supplement_value,
    is_b_group,
    is_t_slice,
    is_t_slice_of,
    minimal_normal_subgroups,
    nontrivial_normal_subgroups,
    supplement_moebius_sum,
    supplement_moebius_sum_frattini,
)
from sliceburnside.groups import (
    GroupError,
    Subgroup,
    all_subgroups,
    cyclic_group,
    elementary_abelian,
    frattini,
    group_from_spec,
    normalizer,
    quaternion_group,
    quotient,
    set_product,
    subgroup_as_group,
)
from sliceburnside.ideals import GroupUniverse, constructor_known_p_groups
from sliceburnside.ring import slice_classes

from helpers import (
    elementary_abelian_classical_value,
    is_normal,
    member_deflation_vanishes_predicted,
    two_product_idempotent_scalar,
)
from test_marks import small_perm_groups

P_GROUP_SPECS = ["cyclic:2", "cyclic:4", "cyclic:8", "elab:2^2", "elab:2^3",
                 "abelian:4x2", "dihedral:8", "cyclic:9", "elab:3^2",
                 "cyclic:27", "abelian:9x3", "mod:3", "heis:3"]


def _subgroup_of_size(g, size):
    return next(s for s in all_subgroups(g).subgroups if len(s) == size)


def test_deflation_by_trivial_subgroup_is_one():
    for spec in ["cyclic:6", "dihedral:8", "heis:3"]:
        g = group_from_spec(spec)
        for s in all_subgroups(g).subgroups:
            assert deflation_constant(g, s.members, (g.identity,)) == 1


def test_prime_cyclic_constant_vanishes():
    for p in (2, 3, 5):
        cp = cyclic_group(p)
        assert deflation_constant(cp, (0,), tuple(range(p))) == 0


def test_supplement_sum_examples():
    d8 = group_from_spec("dihedral:8")
    full = tuple(range(8))
    for n in nontrivial_normal_subgroups(d8):
        assert supplement_moebius_sum(d8, full, n.members) == 1
    # only the whole group survives when the normal part is the Frattini
    phi = frattini(d8)
    for s in all_subgroups(d8).subgroups:
        assert supplement_moebius_sum(d8, s.members, phi.members) == 1
    e23 = elementary_abelian(2, 3)
    n2 = _subgroup_of_size(e23, 4)
    assert supplement_moebius_sum(e23, (0,), n2.members) == 3


def test_classical_constant_examples():
    e23 = elementary_abelian(2, 3)
    n1 = _subgroup_of_size(e23, 2)
    assert classical_deflation_constant(e23, n1.members) == -1
    assert elementary_abelian_classical_value(2, 3, 1) == -1
    v4 = elementary_abelian(2, 2)
    for n in nontrivial_normal_subgroups(v4):
        assert classical_deflation_constant(v4, n.members) == 0
    for g in [cyclic_group(6), group_from_spec("dihedral:8")]:
        assert classical_deflation_constant(g, (g.identity,)) == 1


def test_classical_equals_top_slice_constant():
    for spec in ["cyclic:8", "dihedral:8", "elab:3^2", "abelian:9x3"]:
        g = group_from_spec(spec)
        full = tuple(range(g.order))
        for n in nontrivial_normal_subgroups(g):
            assert deflation_constant(g, full, n.members) == (
                classical_deflation_constant(g, n.members)
            )


def test_two_prefactor_forms_agree():
    # the boxed normalizer-index prefactor equals the quotient-side form
    for spec in P_GROUP_SPECS:
        g = group_from_spec(spec)
        lat = all_subgroups(g)
        for s_idx in lat.class_reps:
            s = lat.subgroups[s_idx].members
            for n in nontrivial_normal_subgroups(g):
                from sliceburnside.groups import set_product
                from sliceburnside.groups import quotient

                sn = set_product(g, s, n.members)
                boxed = Fraction(
                    len(normalizer(g, sn)), len(sn) * len(normalizer(g, s))
                )
                q = quotient(g, n.members)
                sn_q = q.image_members(sn)
                other = Fraction(
                    len(normalizer(q.group, sn_q)) * len(n.members),
                    len(normalizer(g, s)) * len(sn),
                )
                assert boxed == other


def test_factorization_on_samples():
    from sliceburnside.groups import set_product
    from sliceburnside.groups import Subgroup, subgroup_as_group

    for spec in ["dihedral:8", "abelian:9x3", "heis:3"]:
        g = group_from_spec(spec)
        lat = all_subgroups(g)
        for s_idx in lat.class_reps:
            s = lat.subgroups[s_idx].members
            emb = subgroup_as_group(Subgroup.from_members(g, s))
            back = {y: i for i, y in enumerate(emb.images)}
            for n in nontrivial_normal_subgroups(g):
                sn = set_product(g, s, n.members)
                ratio = Fraction(
                    len(normalizer(g, sn)) // len(sn),
                    len(normalizer(g, s)) // len(s),
                )
                s_cap_n = tuple(sorted(back[x] for x in s if x in set(n.members)))
                assert deflation_constant(g, s, n.members) == ratio * (
                    classical_deflation_constant(emb.source, s_cap_n)
                    * supplement_moebius_sum(g, s, n.members)
                )


def test_transitivity_along_normal_chains():
    from sliceburnside.groups import quotient

    for spec in ["cyclic:8", "abelian:4x2", "mod:3"]:
        g = group_from_spec(spec)
        lat = all_subgroups(g)
        for n_idx in lat.normal:
            q = quotient(g, lat.subgroups[n_idx].members)
            for m_idx in lat.normal:
                if not lat.contains_pair(n_idx, m_idx):
                    continue
                for s_idx in lat.class_reps:
                    s = lat.subgroups[s_idx].members
                    from sliceburnside.groups import set_product

                    sn_img = q.image_members(
                        set_product(g, s, lat.subgroups[n_idx].members)
                    )
                    lhs = deflation_constant(g, s, lat.subgroups[m_idx].members)
                    rhs = deflation_constant(
                        g, s, lat.subgroups[n_idx].members
                    ) * deflation_constant(
                        q.group, sn_img, q.image_members(lat.subgroups[m_idx].members)
                    )
                    assert lhs == rhs


def test_complement_count_examples():
    c3 = cyclic_group(3)
    assert complement_count_formula_check(c3, (0, 1, 2)) == (0, 0)
    v4 = elementary_abelian(2, 2)
    n = _subgroup_of_size(v4, 2)
    assert complement_count_formula_check(v4, n.members) == (
        Fraction(-1, 2),
        Fraction(-1, 2),
    )
    e32 = elementary_abelian(3, 2)
    n3 = _subgroup_of_size(e32, 3)
    assert complement_count(e32, n3.members) == 3
    assert complement_count_formula_check(e32, n3.members) == (
        Fraction(-2, 3),
        Fraction(-2, 3),
    )
    c4 = cyclic_group(4)
    n2 = _subgroup_of_size(c4, 2)
    assert complement_count(c4, n2.members) == 0
    assert complement_count_formula_check(c4, n2.members) == (
        Fraction(1, 2),
        Fraction(1, 2),
    )


def test_complement_check_preconditions():
    d8 = group_from_spec("dihedral:8")
    with pytest.raises(GroupError):
        complement_count_formula_check(d8, tuple(range(8)))  # not minimal
    lat = all_subgroups(d8)
    non_normal = next(
        s for i, s in enumerate(lat.subgroups) if i not in lat.normal
    )
    with pytest.raises(GroupError):
        complement_count_formula_check(d8, non_normal.members)


def test_minimal_normal_subgroups():
    d8 = group_from_spec("dihedral:8")
    mins = minimal_normal_subgroups(d8)
    assert len(mins) == 1 and len(mins[0]) == 2  # the center
    v4 = elementary_abelian(2, 2)
    assert len(minimal_normal_subgroups(v4)) == 3


def test_b_group_classification_examples():
    assert is_b_group(cyclic_group(1))
    assert is_b_group(elementary_abelian(2, 2))
    assert is_b_group(elementary_abelian(3, 2))
    for spec in ["cyclic:2", "cyclic:4", "cyclic:9", "cyclic:27", "elab:2^3",
                 "mod:3", "heis:3", "dihedral:8"]:
        assert not is_b_group(group_from_spec(spec)), spec
    assert not is_b_group(quaternion_group())


def test_t_slice_examples():
    assert is_t_slice(cyclic_group(1), (0,))
    assert is_t_slice(cyclic_group(3), (0,))
    e32 = elementary_abelian(3, 2)
    assert is_t_slice(e32, tuple(range(9)))
    assert not is_t_slice(e32, _subgroup_of_size(e32, 3).members)
    e33 = elementary_abelian(3, 3)
    assert is_t_slice(e33, _subgroup_of_size(e33, 9).members)
    assert not is_t_slice(e33, _subgroup_of_size(e33, 3).members)


def test_t_slice_of_ambient_group():
    e33 = elementary_abelian(3, 3)
    nine = _subgroup_of_size(e33, 9)
    three = next(
        s for s in all_subgroups(e33).subgroups
        if len(s) == 3 and set(s.members) <= set(nine.members)
    )
    # (rank-2, rank-1) inside the ambient rank-3 group is not a T-slice
    assert not is_t_slice_of(e33, nine.members, three.members)
    assert is_t_slice_of(e33, nine.members, nine.members)


def test_vanishing_criterion_matches_constant():
    for spec in ["dihedral:8", "abelian:4x2", "heis:3", "mod:3"]:
        g = group_from_spec(spec)
        lat = all_subgroups(g)
        for s_idx in lat.class_reps:
            s = lat.subgroups[s_idx].members
            for n in nontrivial_normal_subgroups(g):
                predicted = deflation_vanishes_predicted(g, s, n.members)
                assert predicted == (deflation_constant(g, s, n.members) == 0)


def test_vanishing_criterion_rejects_non_p_groups():
    with pytest.raises(GroupError):
        deflation_vanishes_predicted(cyclic_group(6), (0,), (0, 3))


def test_vanishing_criterion_rejects_a_non_normal_n_and_a_non_subgroup():
    d8 = group_from_spec("dihedral:8")
    lat = all_subgroups(d8)
    reflection = next(
        s.members for i, s in enumerate(lat.subgroups) if len(s) == 2 and i not in lat.normal
    )
    with pytest.raises(GroupError, match="deflation constant needs a normal subgroup"):
        deflation_vanishes_predicted(d8, (d8.identity,), reflection)
    r = next(x for x in d8.elements() if d8.element_order(x) == 4)
    # {1, r} is no subgroup, as S and as N
    with pytest.raises(GroupError, match="not a subgroup"):
        deflation_vanishes_predicted(d8, (d8.identity, r), tuple(range(8)))
    with pytest.raises(GroupError, match="not a subgroup"):
        deflation_vanishes_predicted(d8, (d8.identity,), (d8.identity, r))


def assert_vanishing_forms_match(p, bound):
    """On every (class S, nontrivial normal N) of the constructor-known
    p-groups up to the bound: the index-level vanishing prediction against
    its member-set oracle and against a zero constant, and the Frattini form
    of the supplement sum against the direct one.  Returns the pair count."""
    pairs = 0
    for g in constructor_known_p_groups(p, bound):
        lat = all_subgroups(g)
        members = [h.members for h in lat.subgroups]
        for n in lat.normal[1:]:
            n_members = members[n]
            for s in lat.class_reps:
                s_members, where = members[s], (g.label, s, n)
                predicted = deflation_vanishes_predicted(g, s_members, n_members)
                assert predicted == member_deflation_vanishes_predicted(
                    g, s_members, n_members
                ), where
                assert predicted == (deflation_constant(g, s_members, n_members) == 0), where
                assert supplement_moebius_sum_frattini(
                    g, s_members, n_members
                ) == supplement_moebius_sum(g, s_members, n_members), where
                pairs += 1
    return pairs


@pytest.mark.parametrize("p, bound, pairs", [(2, 16, 6764), (3, 81, 51814)])
def test_vanishing_prediction_and_frattini_form_match_the_member_set_oracle(p, bound, pairs):
    assert assert_vanishing_forms_match(p, bound) == pairs


@pytest.mark.parametrize("p, rank", [(p, rank) for p in (2, 3) for rank in (1, 2, 3, 4)])
def test_classical_closed_form_every_rank(p, rank):
    # k = rank makes the closed form's last exponent negative
    e = elementary_abelian(p, rank)
    for k in range(rank + 1):
        value = elementary_abelian_classical_value(p, rank, k)
        assert not isinstance(value, float)
        n = _subgroup_of_size(e, p**k)
        assert value == classical_deflation_constant(e, n.members)


def test_supplement_closed_form_small_ranks():
    for p in (2, 3):
        for rank in (1, 2, 3):
            e = elementary_abelian(p, rank)
            lat = all_subgroups(e)
            for sub in lat.subgroups:
                if len(sub) == 1:
                    continue
                k = 0
                size = len(sub)
                while size > 1:
                    size //= p
                    k += 1
                assert supplement_moebius_sum(e, (0,), sub.members) == (
                    elementary_abelian_supplement_value(p, rank, k)
                )


def test_deflation_requires_normal_subgroup():
    d8 = group_from_spec("dihedral:8")
    lat = all_subgroups(d8)
    non_normal = next(
        s for i, s in enumerate(lat.subgroups) if i not in lat.normal
    )
    with pytest.raises(GroupError):
        deflation_constant(d8, (0,), non_normal.members)
    with pytest.raises(GroupError):
        deflation_idempotent_scalar(d8, tuple(range(8)), (0,), non_normal.members)


def test_slice_bottom_outside_the_top_is_rejected():
    # S must lie in T: the subgroup-local index map would otherwise drop the
    # members of S outside T and answer for S n T
    e22 = elementary_abelian(2, 2)
    lat = all_subgroups(e22)
    a, b = [s.members for s in lat.subgroups if len(s) == 2][:2]
    with pytest.raises(GroupError):
        deflation_idempotent_scalar(e22, a, b, tuple(range(4)))
    with pytest.raises(GroupError):
        is_t_slice_of(e22, a, b)


NORMALITY_CHECKED = {
    "deflation_constant": lambda g, n: deflation_constant(g, (g.identity,), n),
    "classical_deflation_constant": classical_deflation_constant,
    "deflation_idempotent_scalar": lambda g, n: deflation_idempotent_scalar(
        g, tuple(g.elements()), (g.identity,), n
    ),
    "complement_count_formula_check": complement_count_formula_check,
}


@pytest.mark.parametrize("name", list(NORMALITY_CHECKED))
def test_normality_is_read_off_the_lattice(name):
    call = NORMALITY_CHECKED[name]
    d8 = group_from_spec("dihedral:8")
    lat = all_subgroups(d8)
    non_normal = next(
        s for i, s in enumerate(lat.subgroups) if i not in lat.normal
    )
    r = next(x for x in d8.elements() if d8.element_order(x) == 4)
    # {1, r, r^-1} is closed under conjugation but is not a subgroup
    conj_closed = tuple(
        sorted({d8.identity} | {d8.conj(g, r) for g in d8.elements()})
    )
    assert len(conj_closed) == 3 and is_normal(d8, conj_closed)
    for bad in (non_normal.members, conj_closed):
        with pytest.raises(GroupError):
            call(d8, bad)
    call(d8, d8.center_members())


def test_frattini_quotient_is_built_once_per_group(monkeypatch):
    built = []
    real_quotient = constants.quotient

    def counting_quotient(group, n_members):
        built.append(group)
        return real_quotient(group, n_members)

    monkeypatch.setattr(constants, "quotient", counting_quotient)
    for spec in ("dihedral:8", "elab:2^3", "heis:3"):
        g = group_from_spec(spec)
        lat = all_subgroups(g)
        for s in lat.class_reps:
            for n in lat.normal:
                s_members, n_members = lat.subgroups[s].members, lat.subgroups[n].members
                assert supplement_moebius_sum_frattini(
                    g, s_members, n_members
                ) == supplement_moebius_sum(g, s_members, n_members)
        assert built.count(g) == 1
    assert len(built) == 3


# ---------------------------------------------------------------------------
# The index-level constants against the member-set forms they replaced: the
# set products S*N and T*N, full scans of the conjugation table for every
# normalizer order, and sizes and Moebius values read through the lattice's
# public accessors.


def _oracle_lower_sum(lat, s, n):
    n_mask = lat.masks[n]
    s_ratio = len(lat.subgroups[s]) // (lat.masks[s] & n_mask).bit_count()
    lower = 0
    for u in lat.below[s]:
        u_size = len(lat.subgroups[u])
        if u_size == s_ratio * (lat.masks[u] & n_mask).bit_count():
            lower += u_size * lat.moebius(u, s)
    return lower


def _oracle_supplement_sum(lat, s, n):
    full = len(lat.subgroups) - 1
    total = 0
    for v in lat.above[s]:
        inter = (lat.masks[v] & lat.masks[n]).bit_count()
        if len(lat.subgroups[v]) * len(lat.subgroups[n]) == lat.group.order * inter:
            total += lat.moebius(v, full)
    return total


def oracle_deflation_constant(group, s_members, n_members):
    lat = all_subgroups(group)
    s, n = lat.index_of(s_members), lat.index_of(n_members)
    sn = lat.index_of(set_product(group, s_members, n_members))
    rows = lat.conj_table
    norm_sn = sum(1 for row in rows if row[sn] == sn)
    norm_s = sum(1 for row in rows if row[s] == s)
    prefactor = Fraction(norm_sn, len(lat.subgroups[sn]) * norm_s)
    return prefactor * _oracle_lower_sum(lat, s, n) * _oracle_supplement_sum(lat, s, n)


def oracle_idempotent_scalar(group, t_members, s_members, n_members):
    lat = all_subgroups(group)
    t, s = lat.index_of(t_members), lat.index_of(s_members)
    tn = lat.index_of(set_product(group, t_members, n_members))
    sn = lat.index_of(set_product(group, s_members, n_members))
    emb = subgroup_as_group(lat.subgroups[t])
    t_cap_n = emb.preimage_members(n_members)
    m_inner = oracle_deflation_constant(
        emb.source, emb.preimage_members(s_members), t_cap_n
    )
    rows = lat.conj_table
    nt_s = sum(1 for x in emb.images if rows[x][s] == s)
    nt_sn = sum(1 for x in emb.images if rows[x][sn] == sn)
    ng_ts = sum(1 for row in rows if row[t] == t and row[s] == s)
    ng_tnsn = sum(1 for row in rows if row[tn] == tn and row[sn] == sn)
    ratio = Fraction(nt_s * ng_tnsn * len(t_cap_n), ng_ts * nt_sn * len(set(n_members)))
    return ratio * m_inner


def assert_constants_match_oracle(group, reverse=False):
    lat = all_subgroups(group)
    table = slice_classes(group)
    step = -1 if reverse else 1
    for n in lat.normal[::step]:
        n_members = lat.subgroups[n].members
        for s, sub in list(enumerate(lat.subgroups))[::step]:
            expected = oracle_deflation_constant(group, sub.members, n_members)
            assert deflation_constant(group, sub.members, n_members) == expected
            assert supplement_moebius_sum(group, sub.members, n_members) == (
                _oracle_supplement_sum(lat, s, n)
            )
        for cls in range(table.size)[::step]:
            big, small = table.rep_subgroups(cls)
            assert deflation_idempotent_scalar(
                group, big.members, small.members, n_members
            ) == oracle_idempotent_scalar(group, big.members, small.members, n_members)


DIFFERENTIAL_SPECS = list(verify.CORPUS_SPECS) + [
    "elab:2^4",
    "heis:3 * cyclic:3",
    "mod:3 * cyclic:3",
    "dihedral:8 * cyclic:2",
    "dihedral:16",
    "perm:(0 1 2 3),(0 1)",
    "perm:(0 1 2 3 4),(0 1 2)",
]


@pytest.mark.parametrize(
    "spec",
    ["dihedral:8", "perm:(0 1 2),(0 1)(2 3)", "perm:(0 1 2 3),(0 1)", "elab:2^3", "heis:3 * cyclic:3"],
)
def test_zero_first_idempotent_scalar_matches_the_two_product_form(spec):
    # every slice class and every normal subgroup; a zero is the shared one
    g = group_from_spec(spec)
    lat, table = all_subgroups(g), slice_classes(g)
    for n in lat.normal:
        n_members = lat.subgroups[n].members
        for cls in range(table.size):
            big, small = table.rep_subgroups(cls)
            args = (g, big.members, small.members, n_members)
            got = deflation_idempotent_scalar(*args)
            assert got == two_product_idempotent_scalar(*args), (n, cls)
            assert type(got) is Fraction and (got == 0) == (got is constants._ZERO)


@pytest.mark.parametrize("spec", DIFFERENTIAL_SPECS)
def test_constants_match_the_member_set_oracle(spec):
    assert_constants_match_oracle(group_from_spec(spec))


def test_constants_match_the_member_set_oracle_on_q8():
    assert_constants_match_oracle(quaternion_group())


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(group=small_perm_groups())
def test_constants_match_the_member_set_oracle_on_small_perm_groups(group):
    assert_constants_match_oracle(group)


MEMO_SPECS = ["dihedral:8", "perm:(0 1 2),(0 1)(2 3)", "perm:(0 1 2 3),(0 1)", "mod:3"]


@pytest.mark.parametrize("spec", MEMO_SPECS)
def test_memoized_constants_match_the_member_set_oracle(spec):
    # the second sweep, in reverse order, reads every value from the memo the
    # first one filled; a freshly built copy of the group evaluates them anew
    g = group_from_spec(spec)
    assert_constants_match_oracle(g)
    memo = dict(all_subgroups(g)._deflation_constants)
    assert memo
    assert_constants_match_oracle(g, reverse=True)
    assert all_subgroups(g)._deflation_constants == memo
    fresh = group_from_spec(spec)
    assert not all_subgroups(fresh)._deflation_constants
    assert_constants_match_oracle(fresh)


def test_a_second_constant_sweep_evaluates_no_moebius_sum(monkeypatch):
    g = group_from_spec("heis:3 * cyclic:3")
    lat, table = all_subgroups(g), slice_classes(g)

    def sweep():
        for n in lat.normal:
            n_members = lat.subgroups[n].members
            for s in lat.class_reps:
                deflation_constant(g, lat.subgroups[s].members, n_members)
            for cls in range(table.size):
                big, small = table.rep_subgroups(cls)
                deflation_idempotent_scalar(g, big.members, small.members, n_members)
        for cls in range(table.size):
            big, small = table.rep_subgroups(cls)
            is_t_slice_of(g, big.members, small.members)

    sweep()
    calls = []
    original = constants._lower_moebius_sum

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(constants, "_lower_moebius_sum", counted)
    sweep()
    assert calls == []


def test_the_constant_memo_keeps_no_group_alive():
    # the memo lives on the lattice and holds index triples and fractions only
    def build():
        g = group_from_spec("dihedral:8")
        lat = all_subgroups(g)
        q = quotient(g, lat.subgroups[lat.normal[1]].members)
        qlat = all_subgroups(q.group)
        for group, sub in ((g, lat), (q.group, qlat)):
            for n in sub.normal:
                for s in sub.class_reps:
                    deflation_constant(group, sub.subgroups[s].members, sub.subgroups[n].members)
        assert lat._deflation_constants and qlat._deflation_constants
        return [weakref.ref(x) for x in (g, lat, q.group, qlat)]

    refs = build()
    gc.collect()
    assert [r() for r in refs] == [None] * len(refs)


def test_universe_deflation_tests_match_the_member_set_oracle():
    # the universe's cached constant, which the closure compares with 0
    u = GroupUniverse(2, 16)
    for gi, g in enumerate(u.groups):
        lat = u.lattices[gi]
        for cls, s in enumerate(lat.class_reps):
            s_members = lat.subgroups[s].members
            for n in lat.normal[1:]:
                expected = oracle_deflation_constant(g, s_members, lat.subgroups[n].members)
                assert u.constant(gi, cls, n) == expected, (g.label, cls, n)


def oracle_t_slice(group, t_members, s_members):
    # T as a standalone group, every nontrivial normal subgroup of it found by
    # member sets, and the constant of (T, S) evaluated there
    emb = subgroup_as_group(Subgroup.from_members(group, t_members))
    t_group, s_inner = emb.source, emb.preimage_members(s_members)
    return all(
        oracle_deflation_constant(t_group, s_inner, x.members) == 0
        for x in all_subgroups(t_group).subgroups[1:]
        if is_normal(t_group, x.members)
    )


def assert_t_slices_match_oracle(group):
    full = tuple(group.elements())
    table = slice_classes(group)
    for cls in range(table.size):
        big, small = table.rep_subgroups(cls)
        assert is_t_slice_of(group, big.members, small.members) == oracle_t_slice(
            group, big.members, small.members
        )
    for sub in all_subgroups(group).subgroups:
        assert is_t_slice(group, sub.members) == oracle_t_slice(group, full, sub.members)
    assert is_b_group(group) == oracle_t_slice(group, full, full)


@pytest.mark.parametrize("spec", DIFFERENTIAL_SPECS)
def test_t_slices_and_b_groups_match_the_standalone_top_oracle(spec):
    assert_t_slices_match_oracle(group_from_spec(spec))


def test_t_slices_and_b_groups_match_the_standalone_top_oracle_on_q8():
    assert_t_slices_match_oracle(quaternion_group())


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(group=small_perm_groups())
def test_t_slices_and_b_groups_match_the_standalone_top_oracle_on_small_perm_groups(group):
    assert_t_slices_match_oracle(group)


@pytest.mark.parametrize("spec", ["heis:3 * cyclic:3", "perm:(0 1 2 3),(0 1)"])
def test_slice_constants_build_no_lattice_besides_the_groups(spec, monkeypatch):
    g = group_from_spec(spec)
    lat = all_subgroups(g)
    table = slice_classes(g)
    builds = []
    original_init = groups.SubgroupLattice.__init__

    def counted_init(self, group):
        builds.append(group)
        original_init(self, group)

    def refuse(*args):
        raise AssertionError("a subgroup was rebuilt as a standalone group")

    monkeypatch.setattr(groups.SubgroupLattice, "__init__", counted_init)
    monkeypatch.setattr(groups, "subgroup_as_group", refuse)
    monkeypatch.setattr(constants, "subgroup_as_group", refuse, raising=False)
    for cls in range(table.size):
        big, small = table.rep_subgroups(cls)
        is_t_slice_of(g, big.members, small.members)
        for n in lat.normal:
            deflation_idempotent_scalar(
                g, big.members, small.members, lat.subgroups[n].members
            )
    is_b_group(g)
    assert builds == []


def test_zero_test_rejects_a_non_normal_subgroup():
    d8 = group_from_spec("dihedral:8")
    assert not is_normal(d8, (0, 4))
    with pytest.raises(GroupError, match="deflation constant needs a normal subgroup"):
        deflation_constant(d8, (0,), (0, 4))
    with pytest.raises(GroupError, match="deflation constant needs a normal subgroup"):
        deflation_idempotent_scalar(d8, tuple(range(8)), (0,), (0, 4))
    with pytest.raises(GroupError, match="deflation constant needs a normal subgroup"):
        complement_count_formula_check(d8, (0, 4))


def test_constants_build_no_member_sets(monkeypatch):
    def refuse(*args):
        raise AssertionError("a member-set product was built")

    monkeypatch.setattr(groups, "set_product", refuse)
    assert not hasattr(constants, "set_product")
    g = group_from_spec("heis:3 * cyclic:3")
    lat = all_subgroups(g)
    scans = []

    class CountedRows(list):
        def __iter__(self):
            scans.append(1)
            return super().__iter__()

    table = slice_classes(g)
    lat.conj_table = CountedRows(lat.conj_table)
    for _ in range(2):
        for n in lat.normal:
            n_members = lat.subgroups[n].members
            for s in lat.class_reps:
                deflation_constant(g, lat.subgroups[s].members, n_members)
            for cls in range(0, table.size, 7):
                big, small = table.rep_subgroups(cls)
                deflation_idempotent_scalar(g, big.members, small.members, n_members)
        # one scan of the conjugation table per normalizer mask, each built once
        built = sum(m is not None for m in lat._normalizers)
        assert 0 < len(scans) == built <= len(lat.subgroups)


def test_constants_binds_no_member_set_helper():
    # every decision in `constants` is made on lattice indices
    names = {"set_product", "close_under_product", "is_cyclic_members", "quotient_is_cyclic"}
    assert not names & set(vars(constants))
