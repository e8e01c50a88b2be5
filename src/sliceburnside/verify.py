"""Corpus-wide verification: every closed formula against its oracle.

Each check returns a result record; `run_all` drives the whole suite.
Every run asks the G-set oracle: criterion 02 compares marks and products
with it, and criterion 03 the image of every basis class it configures
under each of the five biset operations.
The default corpus is the small-group family the library targets: cyclic
groups up to order 12, the small elementary abelian and mixed abelian
2-groups, the dihedral and quaternion groups of order 8, and all five
groups of order 27.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction

from . import bisetops, gsets
from .constants import (
    classical_deflation_constant,
    complement_count_formula_check,
    deflation_constant,
    deflation_idempotent_scalar,
    deflation_vanishes_predicted,
    elementary_abelian_supplement_value,
    is_abelian_members,
    is_b_group,
    is_p_group,
    is_t_slice,
    minimal_normal_subgroups,
    nontrivial_normal_subgroups,
    supplement_moebius_sum,
    supplement_moebius_sum_frattini,
)
from .groups import (
    FiniteGroup,
    GroupIsomorphism,
    Subgroup,
    all_subgroups,
    automorphism_generators,
    cyclic_group,
    elementary_abelian,
    group_from_spec,
    is_isomorphic,
    normalizer,
    quaternion_group,
    quotient,
    set_product,
    slice_normalizer,
    subgroup_as_group,
)
from .ideals import (
    FAMILIES,
    BROKEN_CYCLIC_FAMILY,
    GroupUniverse,
    bounded_closure,
    check_conditions,
    closure_trace,
    ideal_dimension,
    intersection_dimension,
    burnside_image_rank,
    member_classes,
    minimal_groups,
)
from .ring import SliceClassTable, SliceRingElement, morphism_to_ring, slice_classes


CORPUS_SPECS: tuple[str, ...] = tuple(
    [f"cyclic:{n}" for n in range(1, 13)]
    + [
        "elab:2^2",
        "elab:2^3",
        "elab:3^2",
        "abelian:4x2",
        "dihedral:8",
        "cyclic:27",
        "abelian:9x3",
        "elab:3^3",
        "mod:3",
        "heis:3",
    ]
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    details: str
    seconds: float

    def line(self) -> str:
        state = "PASS" if self.passed else "FAIL"
        return f"[{state}] {self.name} ({self.seconds:.1f}s) {self.details}"


class _Corpus:
    def __init__(self):
        self.groups: list[FiniteGroup] = [group_from_spec(s) for s in CORPUS_SPECS]
        self.groups.append(quaternion_group())
        self.p_groups = [
            (g, is_p_group(g)[1]) for g in self.groups if is_p_group(g)[0] and g.order > 1
        ]


_CORPUS: _Corpus | None = None


def corpus() -> _Corpus:
    global _CORPUS
    if _CORPUS is None:
        _CORPUS = _Corpus()
    return _CORPUS


def _result(name: str, started: float, failures: list[str], detail: str = "") -> CheckResult:
    ok = not failures
    msg = detail if ok else "; ".join(failures[:4])
    return CheckResult(name, ok, msg, time.perf_counter() - started)


# ---------------------------------------------------------------------------
# 1. idempotents


def check_idempotents() -> CheckResult:
    t0 = time.perf_counter()
    failures: list[str] = []
    classes = 0
    for g in corpus().groups:
        table = slice_classes(g)
        classes += table.size
        xs = table.idempotents()
        total = table.zero()
        for x in xs:
            total = total + x
        if total != table.one():
            failures.append(f"{g.label}: idempotents do not sum to the identity")
        for c, x in enumerate(xs):
            vec = x.mark_vector()
            if any(vec[r] != (1 if r == c else 0) for r in range(table.size)):
                failures.append(f"{g.label}: mark vector of class {c} is not an indicator")
                break
        for a in range(table.size):
            for b in range(a, table.size):
                prod = xs[a] * xs[b]
                expect = xs[a] if a == b else table.zero()
                if prod != expect:
                    failures.append(f"{g.label}: classes {a},{b} break orthogonality")
                    break
            else:
                continue
            break
    return _result(
        "idempotents", t0, failures, f"{classes} classes over {len(corpus().groups)} groups"
    )


# ---------------------------------------------------------------------------
# 2. marks and multiplication against the G-set oracle


def oracle_marks(table: SliceClassTable) -> list[list[int]]:
    """The mark matrix read off the G-set oracle, as hom counts."""
    projs = [table.projection(c) for c in range(table.size)]
    return [[gsets.hom_count(a, b) for b in projs] for a in projs]


def oracle_product(table: SliceClassTable, a: int, b: int) -> SliceRingElement:
    """The product of basis classes a and b read off the G-set oracle: the
    orbit decomposition of the product of their projections."""
    return morphism_to_ring(
        gsets.morphism_product(table.projection(a), table.projection(b)), table
    )


def oracle_image(elem: SliceRingElement, witness, morphism_map, out_group) -> SliceRingElement:
    """The image of `elem` read off the G-set oracle: each class's projection,
    mapped by `morphism_map` along `witness`, decomposed over `out_group`."""
    out_table = slice_classes(out_group)
    out = out_table.zero()
    for cls, q in elem.coeffs.items():
        f = morphism_map(elem.table.projection(cls), witness)
        out = out + morphism_to_ring(f, out_table).scaled(q)
    return out


def check_multiplication_oracle() -> CheckResult:
    t0 = time.perf_counter()
    failures: list[str] = []
    pairs_checked = 0
    rng = random.Random(20170502)
    for g in corpus().groups:
        table = slice_classes(g)
        if table.mark_matrix() != oracle_marks(table):
            failures.append(f"{g.label}: mark matrix disagrees with hom_count")
        if g.order <= 16:
            pairs = [(a, b) for a in range(table.size) for b in range(a, table.size)]
        else:
            pairs = [
                (rng.randrange(table.size), rng.randrange(table.size))
                for _ in range(200)
            ]
        for a, b in pairs:
            oracle = oracle_product(table, a, b)
            lhs = table.basis_element(a) * table.basis_element(b)
            rhs = table.basis_element(b) * table.basis_element(a)
            if lhs != oracle or rhs != oracle:
                failures.append(f"{g.label}: classes {a}*{b} disagree with the oracle")
                break
            pairs_checked += 1
    return _result(
        "multiplication-oracle", t0, failures,
        f"{len(corpus().groups)} mark matrices, {pairs_checked} products",
    )


# ---------------------------------------------------------------------------
# 3. elementary operations on idempotents, and on basis classes against the
# G-set oracle


def _class_map(table: SliceClassTable, out_table: SliceClassTable, f) -> list[int]:
    """The class of (f(T), f(S)) in `out_table` for each class (T, S) of
    `table`, f a member map (embedding, quotient or isomorphism)."""
    return [
        out_table.class_index(f.image_members(big.members), f.image_members(small.members))
        for big, small in map(table.rep_subgroups, range(table.size))
    ]


def check_biset_transport() -> CheckResult:
    t0 = time.perf_counter()
    failures: list[str] = []
    configs = 0

    def agrees(op, morphism_map, table, cls, witness, expected, where) -> bool:
        """Compare the image of basis class `cls` with the G-set oracle, and
        the image of its idempotent with `expected`."""
        basis = table.basis_element(cls)
        image = op(basis, witness)
        if image != oracle_image(basis, witness, morphism_map, image.table.group):
            failures.append(f"{where}: closed form and oracle disagree")
        ok = op(table.idempotent(cls), witness) == expected
        if not ok:
            failures.append(where)
        return ok

    for g in corpus().groups:
        table = slice_classes(g)
        lat = table.lattice

        # restriction and induction, for every subgroup up to conjugacy
        for h_idx in lat.class_reps:
            emb = subgroup_as_group(lat.subgroups[h_idx])
            table_h = slice_classes(emb.source)
            h_to_g = _class_map(table_h, table, emb)
            for cls in range(table.size):
                parts = [c for c in range(table_h.size) if h_to_g[c] == cls]
                rhs = sum((table_h.idempotent(c) for c in parts), table_h.zero())
                where = f"{g.label}: restriction to {h_idx} at class {cls}"
                if not agrees(bisetops.restrict, gsets.restrict_morphism,
                              table, cls, emb, rhs, where):
                    break
                configs += 1
            for hcls in range(table_h.size):
                big, small = table_h.rep_subgroups(hcls)
                tg = emb.image_members(big.members)
                sg = emb.image_members(small.members)
                ratio = Fraction(
                    len(slice_normalizer(g, tg, sg)),
                    len(slice_normalizer(emb.source, big.members, small.members)),
                )
                rhs = table.idempotent(h_to_g[hcls]).scaled(ratio)
                where = f"{g.label}: induction from {h_idx} at class {hcls}"
                if not agrees(bisetops.induce, gsets.induce_morphism,
                              table_h, hcls, emb, rhs, where):
                    break
                configs += 1

        # inflation and deflation, for every normal subgroup
        for n_idx in lat.normal:
            n_members = lat.subgroups[n_idx].members
            q = quotient(g, n_members)
            table_q = slice_classes(q.group)
            push = _class_map(table, table_q, q)
            for qcls in range(table_q.size):
                parts = [c for c in range(table.size) if push[c] == qcls]
                rhs = sum((table.idempotent(c) for c in parts), table.zero())
                where = f"{g.label}: inflation mod {n_idx} at class {qcls}"
                if not agrees(bisetops.inflate, gsets.inflate_morphism,
                              table_q, qcls, q, rhs, where):
                    break
                configs += 1
            for cls in range(table.size):
                big, small = table.rep_subgroups(cls)
                scalar = deflation_idempotent_scalar(
                    g, big.members, small.members, n_members
                )
                rhs = table_q.idempotent(push[cls]).scaled(scalar)
                where = f"{g.label}: deflation mod {n_idx} at class {cls}"
                if not agrees(bisetops.deflate, gsets.deflate_morphism,
                              table, cls, q, rhs, where):
                    break
                configs += 1

        # transport along the identity and the first and last Aut generator
        auts = automorphism_generators(g)
        for aut in dict.fromkeys((tuple(range(g.order)), *auts[:1], *auts[-1:])):
            iso = GroupIsomorphism(g, g, aut)
            moved = _class_map(table, table, iso)
            for cls in range(table.size):
                rhs = table.idempotent(moved[cls])
                where = f"{g.label}: transport at class {cls}"
                if not agrees(bisetops.transport, gsets.transport_morphism,
                              table, cls, iso, rhs, where):
                    break
                configs += 1
    return _result("biset-transport", t0, failures, f"{configs} configurations")


# ---------------------------------------------------------------------------
# 4. deflation-constant identities


def check_constants() -> CheckResult:
    t0 = time.perf_counter()
    failures: list[str] = []
    configs = 0
    for g in corpus().groups:
        lat = all_subgroups(g)
        normals = list(lat.normal)
        s_reps = [lat.subgroups[i].members for i in lat.class_reps]
        quotients = {}
        for n_idx in normals:
            quotients[n_idx] = quotient(g, lat.subgroups[n_idx].members)

        # transitivity along normal chains N <= M
        for n_idx in normals:
            q = quotients[n_idx]
            for m_idx in normals:
                if not lat.contains_pair(n_idx, m_idx):
                    continue
                m_members = lat.subgroups[m_idx].members
                m_in_q = q.image_members(m_members)
                for s in s_reps:
                    lhs = deflation_constant(g, s, m_members)
                    step = deflation_constant(g, s, lat.subgroups[n_idx].members)
                    sn_members = q.image_members(
                        set_product(g, s, lat.subgroups[n_idx].members)
                    )
                    rhs = step * deflation_constant(q.group, sn_members, m_in_q)
                    if lhs != rhs:
                        failures.append(
                            f"{g.label}: transitivity fails at S={s}, N={n_idx}, M={m_idx}"
                        )
                        break
                    configs += 1

        # factorization and Frattini invariance of the supplement sum
        for n_idx in normals:
            n_members = lat.subgroups[n_idx].members
            for s in s_reps:
                emb = subgroup_as_group(Subgroup.from_members(g, s))
                s_cap_n = emb.preimage_members(n_members)
                sn = set_product(g, s, n_members)
                ratio = Fraction(
                    len(normalizer(g, sn)) // len(sn),
                    len(normalizer(g, s)) // len(s),
                )
                lhs = deflation_constant(g, s, n_members)
                rhs = (
                    ratio
                    * classical_deflation_constant(emb.source, s_cap_n)
                    * supplement_moebius_sum(g, s, n_members)
                )
                if lhs != rhs:
                    failures.append(f"{g.label}: factorization fails at S={s}, N={n_idx}")
                    break
                if supplement_moebius_sum(g, s, n_members) != supplement_moebius_sum_frattini(
                    g, s, n_members
                ):
                    failures.append(f"{g.label}: Frattini invariance fails at S={s}")
                    break
                configs += 1

        # minimal abelian normal subgroups: complement count formula
        for sub in minimal_normal_subgroups(g):
            if not is_abelian_members(g, sub.members):
                continue
            direct, counted = complement_count_formula_check(g, sub.members)
            if direct != counted:
                failures.append(f"{g.label}: complement formula fails at N={sub.members}")
            configs += 1

    # elementary abelian closed form, both primes, rank up to 4
    for p in (2, 3):
        for rank in range(1, 5):
            e = elementary_abelian(p, rank)
            lat = all_subgroups(e)
            one = (e.identity,)
            for n_idx in range(len(lat.subgroups)):
                n_members = lat.subgroups[n_idx].members
                if len(n_members) == 1:
                    continue
                k = _rank_of(p, len(n_members))
                if supplement_moebius_sum(e, one, n_members) != (
                    elementary_abelian_supplement_value(p, rank, k)
                ):
                    failures.append(f"E{p}^{rank}: closed supplement form fails")
                    break
                configs += 1
            # reduction of the general supplement sum to the trivial-bottom case
            sample = lat.class_reps if rank <= 3 else lat.class_reps[::17]
            for s_idx in sample:
                s_members = lat.subgroups[s_idx].members
                q = quotient(e, s_members)
                for n_idx in lat.normal[:: (1 if rank <= 3 else 9)]:
                    n_members = lat.subgroups[n_idx].members
                    ns = q.image_members(set_product(e, n_members, s_members))
                    if supplement_moebius_sum(e, s_members, n_members) != (
                        supplement_moebius_sum(q.group, (q.group.identity,), ns)
                    ):
                        failures.append(f"E{p}^{rank}: supplement reduction fails")
                        break
                    configs += 1

    # vanishing criterion on p-groups
    for g, p in corpus().p_groups:
        lat = all_subgroups(g)
        for s_idx in lat.class_reps:
            s_members = lat.subgroups[s_idx].members
            for n in nontrivial_normal_subgroups(g):
                predicted = deflation_vanishes_predicted(g, s_members, n.members)
                actual = deflation_constant(g, s_members, n.members) == 0
                if predicted != actual:
                    failures.append(
                        f"{g.label}: vanishing criterion disagrees at S={s_members}, N={n.members}"
                    )
                    break
                configs += 1
    return _result("deflation-constants", t0, failures, f"{configs} identities")


def _rank_of(p: int, size: int) -> int:
    k = 0
    while size > 1:
        size //= p
        k += 1
    return k


# ---------------------------------------------------------------------------
# 5. classifications


def check_classifications() -> CheckResult:
    t0 = time.perf_counter()
    failures: list[str] = []
    for p, bound in ((2, 16), (3, 27)):
        universe = GroupUniverse(p, bound)
        found = [g for g in universe.groups if g.order > 1 and is_b_group(g)]
        ok = len(found) == 1 and is_isomorphic(found[0], elementary_abelian(p, 2))
        if not ok:
            failures.append(f"p={p}: B-groups {[g.label for g in found]}")
    for p in (2, 3):
        found_types = set()
        for rank_e in range(0, 5):
            e = elementary_abelian(p, rank_e)
            lat = all_subgroups(e)
            seen_sizes = set()
            for sub in lat.subgroups:
                if len(sub) in seen_sizes:
                    continue
                seen_sizes.add(len(sub))
                if is_t_slice(e, sub.members):
                    found_types.add((rank_e, _rank_of(p, len(sub))))
        expected_types = {(0, 0), (1, 0), (2, 2), (3, 2)}
        if found_types != expected_types:
            failures.append(f"p={p}: T-slice types {sorted(found_types)}")
    return _result("classifications", t0, failures, "B-groups and T-slices")


# ---------------------------------------------------------------------------
# 6. ideal dimension tables


DIMENSION_TABLE = (
    ("elab:3^3", 13),
    ("abelian:9x3", 1),
    ("mod:3", 1),
    ("heis:3", 4),
    ("elab:2^3", 7),
    ("abelian:4x2", 1),
    ("dihedral:8", 2),
)


def check_dimension_tables() -> CheckResult:
    t0 = time.perf_counter()
    failures: list[str] = []
    j3 = FAMILIES["J3"]
    for spec, expected in DIMENSION_TABLE:
        g = group_from_spec(spec)
        got = ideal_dimension(g, j3)
        if got != expected:
            failures.append(f"{spec}: dim {got} != {expected}")
    q8_dim = ideal_dimension(quaternion_group(), j3)
    return _result(
        "dimension-tables", t0, failures, f"table verified; quaternion dim is {q8_dim}"
    )


# ---------------------------------------------------------------------------
# 7. ideal lattice and bounded closures


def check_ideal_lattice() -> CheckResult:
    t0 = time.perf_counter()
    failures: list[str] = []
    for g, p in corpus().p_groups:
        table = slice_classes(g)
        sets = {
            fid: set(member_classes(table, FAMILIES[fid]))
            for fid in ("ZERO", "J1", "J2", "J3", "J4", "FULL")
        }
        ok = (
            sets["J3"] == sets["J1"] & sets["J2"]
            and sets["J4"] == sets["J1"] | sets["J2"]
            and sets["ZERO"] <= sets["J3"] <= sets["J1"] <= sets["J4"] <= sets["FULL"]
            and sets["J3"] <= sets["J2"] <= sets["J4"]
            and sets["FULL"] == set(range(table.size))
            and not sets["ZERO"]
        )
        if not ok:
            failures.append(f"{g.label}: member-class lattice identities fail")
    for p, big_bound in ((2, 16), (3, 81)):
        universe = GroupUniverse(p, big_bound)
        p3 = p**3
        seeds = [
            ("FULL", cyclic_group(1), (0,)),
            ("J1", cyclic_group(p), (0,)),
            ("J2", elementary_abelian(p, 2), tuple(range(p * p))),
        ]
        e3 = elementary_abelian(p, 3)
        rank2 = next(s for s in all_subgroups(e3).subgroups if len(s) == p * p)
        seeds.append(("J3", e3, rank2.members))
        for fid, seed_group, seed_members in seeds:
            closure = bounded_closure(universe, seed_group, seed_members)
            got = closure_trace(universe, closure, p3)
            want = universe.family_trace(FAMILIES[fid], max_order=p3)
            if got != want:
                failures.append(f"p={p}: closure from {fid} seed misses the family trace")
    return _result("ideal-lattice", t0, failures, "span lattice and closures")


# ---------------------------------------------------------------------------
# 8. minimal groups


def check_minimal_groups() -> CheckResult:
    t0 = time.perf_counter()
    failures: list[str] = []
    universe = GroupUniverse(3, 27)
    mins = minimal_groups(FAMILIES["J3"], universe)
    if len(mins) != 4 or any(g.order != 27 for g in mins):
        failures.append(f"minimal groups: {[g.label for g in mins]}")
    for i, a in enumerate(mins):
        for b in mins[i + 1 :]:
            if is_isomorphic(a, b):
                failures.append(f"{a.label} and {b.label} are isomorphic")
    return _result(
        "minimal-groups",
        t0,
        failures,
        f"{[g.label for g in mins]}" if not failures else "",
    )


# ---------------------------------------------------------------------------
# 9. Burnside-ring embedding


def check_embedding() -> CheckResult:
    t0 = time.perf_counter()
    failures: list[str] = []
    j1 = FAMILIES["J1"]
    for g, p in corpus().p_groups:
        k = len(all_subgroups(g).class_reps)
        if burnside_image_rank(g) != k:
            failures.append(f"{g.label}: embedded basis is not independent")
        if intersection_dimension(g, j1) != 0:
            failures.append(f"{g.label}: embedded algebra meets the proper-slice ideal")
        if intersection_dimension(g, FAMILIES["FULL"]) != k:
            failures.append(f"{g.label}: full-ideal intersection is not everything")
        if intersection_dimension(g, FAMILIES["ZERO"]) != 0:
            failures.append(f"{g.label}: zero-ideal intersection is nonzero")
    return _result("burnside-embedding", t0, failures, f"{len(corpus().p_groups)} p-groups")


# ---------------------------------------------------------------------------
# 10. family conditions


def check_family_conditions() -> CheckResult:
    t0 = time.perf_counter()
    failures: list[str] = []
    for p in (2, 3):
        universe = GroupUniverse(p, p**3)
        for fid in ("J1", "J2", "J3", "J4"):
            report = check_conditions(FAMILIES[fid], universe)
            if not report.passed:
                failures.append(f"p={p}: family {fid} fails its closure conditions")
        broken = check_conditions(BROKEN_CYCLIC_FAMILY, universe)
        if broken.passed or not broken.preimage_violations:
            failures.append(f"p={p}: broken family not caught")
    return _result("family-conditions", t0, failures, "closure conditions checked")


ALL_CHECKS = (
    check_idempotents,
    check_multiplication_oracle,
    check_biset_transport,
    check_constants,
    check_classifications,
    check_dimension_tables,
    check_ideal_lattice,
    check_minimal_groups,
    check_embedding,
    check_family_conditions,
)


def run_all() -> list[CheckResult]:
    """Run the full verification suite."""
    return [check() for check in ALL_CHECKS]
