"""The four benchmark workloads.

Each workload is a ``setup(seed, ref)`` that builds the groups and draws the
seeded inputs, and a ``run(state, ledger)`` that performs the task list and
checks every output.  The fixed core of each workload never depends on the
seed; the seed only picks the sampled inputs.

Why these workloads (one cold process each, as a command-line user runs):

* ``ghost``: marks, idempotents and ring products on five groups with many
  slice classes.  Almost all of it is the ``ring`` and ``gsets`` layers
  (``mark_matrix`` through ``gsets.hom_count``); no universe, no isomorphism
  search.
* ``deflation``: the criterion-04 deflation-constant identities over the
  verification corpus, seeded triples on ``heis:3 * cyclic:3`` and the
  B-group / T-slice classifications.  Dominated by ``groups`` lattice and
  quotient work and by ``constants``; no marks.
* ``closure``: the p = 3, bound-81 universe and bounded closures from the
  four criterion-07 seeds plus seeded extra seeds, and the family closure
  conditions.  Dominated by ``groups.find_isomorphism`` inside
  ``GroupUniverse.product_map``.
* ``many-small``: about forty fresh small groups, each taken through the
  lattice, table, marks, idempotents and all five biset operations.  Per-group
  fixed cost and the growth of module-level caches dominate, not per-class
  work.
"""

from __future__ import annotations

import random
from fractions import Fraction

import checks

# ---------------------------------------------------------------------------
# Operation ledger


class Ledger:
    """Counts operations; an operation fails when it raises or its check
    returns False."""

    MAX_MESSAGES = 8

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, name: str, op) -> None:
        self.attempted += 1
        try:
            ok = bool(op())
            why = "check rejected the output"
        except Exception as exc:  # a raising operation is a failed operation
            ok = False
            why = f"{type(exc).__name__}: {exc}"
        if not ok:
            self.failed += 1
            if len(self.messages) < self.MAX_MESSAGES:
                self.messages.append(f"{name}: {why}")


def _set_product(group, a, b) -> tuple[int, ...]:
    return tuple(sorted({group.mul(x, y) for x in a for y in b}))


# ---------------------------------------------------------------------------
# ghost: marks, idempotents, ring products

GHOST_SPECS = (
    "elab:2^4",
    "heis:3 * cyclic:3",
    "mod:3 * cyclic:3",
    "dihedral:8 * cyclic:2",
    "dihedral:16",
)
GHOST_INDICATORS = 8  # sampled idempotents whose mark vector is checked
GHOST_IDEMPOTENT_PRODUCTS = 50
GHOST_BASIS_PRODUCTS = 40
GHOST_RESTRICTED = 2  # sampled idempotents restricted to every subgroup class


def setup_ghost(seed: int, ref: dict):
    from sliceburnside import group_from_spec

    return {
        "rng": random.Random(seed),
        "groups": [(spec, group_from_spec(spec)) for spec in GHOST_SPECS],
        "ref": ref,
    }


def run_ghost(state, ledger: Ledger) -> None:
    from sliceburnside import bisetops, slice_classes, subgroup_as_group
    from sliceburnside.ideals import burnside_image_rank

    rng = state["rng"]
    for spec, g in state["groups"]:
        table = slice_classes(g)
        lat = table.lattice
        n = table.size
        ledger.check(f"{spec} marks", lambda: checks.marks_match(table, state["ref"]["marks"][spec]))
        xs = table.idempotents()
        ledger.check(f"{spec} sum", lambda: checks.sums_to_one(xs, table.one()))
        for c in rng.sample(range(n), GHOST_INDICATORS):
            ledger.check(f"{spec} indicator {c}", lambda: checks.is_indicator(xs[c].mark_vector(), c))
        for k in range(GHOST_IDEMPOTENT_PRODUCTS):
            a = rng.randrange(n)
            b = a if k % 5 == 0 else rng.randrange(n)
            ledger.check(f"{spec} xi{a}*xi{b}", lambda: checks.orthogonal(xs[a] * xs[b], a, b, xs[a]))
        for _ in range(GHOST_BASIS_PRODUCTS):
            a, b = rng.randrange(n), rng.randrange(n)

            def basis_product():
                ea, eb = table.basis_element(a), table.basis_element(b)
                prod = ea * eb
                return prod == eb * ea and checks.ghost_multiplicative(
                    prod.mark_vector(), ea.mark_vector(), eb.mark_vector()
                )

            ledger.check(f"{spec} e{a}*e{b}", basis_product)
        restricted = rng.sample(range(n), GHOST_RESTRICTED)
        for h_idx in lat.class_reps:
            emb = subgroup_as_group(lat.subgroups[h_idx])
            table_h = slice_classes(emb.source)
            h_to_g = checks.fusion_map(table_h, table, emb)
            for c in restricted:
                ledger.check(
                    f"{spec} res{h_idx} xi{c}",
                    lambda: checks.restriction_ok(bisetops.restrict(xs[c], emb), table_h, h_to_g, c),
                )
        ledger.check(
            f"{spec} burnside rank",
            lambda: burnside_image_rank(g) == len(lat.class_reps),
        )


# ---------------------------------------------------------------------------
# deflation: criterion-04 identities, seeded triples, classifications

# The verification corpus of sliceburnside.verify at the commit that defined
# this benchmark, copied so that the workload cannot change under a later edit
# of the library's own corpus.
DEFLATION_CORPUS = tuple(
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
DEFLATION_TRIPLE_SPEC = "heis:3 * cyclic:3"
DEFLATION_TRIPLES = 16
# A triple with N = 1 costs about 0.3 s (the quotient is a fresh copy of the
# whole group, whose lattice is built again), the others a tenth of that, so
# a fixed number of them keeps the work the same for every seed.
DEFLATION_TRIVIAL_N = 3


def setup_deflation(seed: int, ref: dict):
    from sliceburnside import GroupUniverse, group_from_spec
    from sliceburnside.groups import quaternion_group

    corpus = [group_from_spec(s) for s in DEFLATION_CORPUS] + [quaternion_group()]
    return {
        "rng": random.Random(seed),
        "corpus": corpus,
        "triple_group": group_from_spec(DEFLATION_TRIPLE_SPEC),
        "universes": [GroupUniverse(2, 16), GroupUniverse(3, 27)],
        "ref": ref,
    }


def _transitivity(ledger, g, s, n_members, m_members, q, tag):
    from sliceburnside import deflation_constant

    def op():
        lhs = deflation_constant(g, s, m_members)
        step = deflation_constant(g, s, n_members)
        sn = q.image_members(_set_product(g, s, n_members))
        return checks.transitivity_ok(
            lhs, step, deflation_constant(q.group, sn, q.image_members(m_members))
        )

    ledger.check(f"{tag} transitivity", op)


def _factorization(ledger, g, s, n_members, tag):
    from sliceburnside import (
        Subgroup,
        classical_deflation_constant,
        deflation_constant,
        normalizer,
        subgroup_as_group,
        supplement_moebius_sum,
    )
    from sliceburnside.constants import supplement_moebius_sum_frattini

    def factorization():
        emb = subgroup_as_group(Subgroup.from_members(g, s))
        back = {y: i for i, y in enumerate(emb.images)}
        n_set = set(n_members)
        s_cap_n = tuple(sorted(back[x] for x in s if x in n_set))
        sn = _set_product(g, s, n_members)
        ratio = Fraction(
            len(normalizer(g, sn)) // len(sn), len(normalizer(g, s)) // len(s)
        )
        return checks.factorization_ok(
            deflation_constant(g, s, n_members),
            ratio,
            classical_deflation_constant(emb.source, s_cap_n),
            supplement_moebius_sum(g, s, n_members),
        )

    ledger.check(f"{tag} factorization", factorization)
    ledger.check(
        f"{tag} frattini",
        lambda: checks.equal(
            supplement_moebius_sum(g, s, n_members),
            supplement_moebius_sum_frattini(g, s, n_members),
        ),
    )


def _vanishing(ledger, g, s, n_members, tag):
    from sliceburnside import deflation_constant
    from sliceburnside.constants import deflation_vanishes_predicted

    ledger.check(
        f"{tag} vanishing",
        lambda: checks.vanishing_ok(
            deflation_vanishes_predicted(g, s, n_members), deflation_constant(g, s, n_members)
        ),
    )


def run_deflation(state, ledger: Ledger) -> None:
    from sliceburnside import (
        all_subgroups,
        elementary_abelian,
        is_b_group,
        is_isomorphic,
        is_t_slice,
        quotient,
    )
    from sliceburnside.constants import (
        complement_count_formula_check,
        is_abelian_members,
        is_p_group,
        minimal_normal_subgroups,
        nontrivial_normal_subgroups,
    )

    pinned = state["ref"]["lattices"]
    for g in state["corpus"]:
        lat = all_subgroups(g)
        tag = g.label
        # the identities below loop over these; pinning them pins the work
        ledger.check(f"{tag} lattice", lambda: checks.lattice_counts_ok(lat, pinned[tag]))
        s_reps = [lat.subgroups[i].members for i in lat.class_reps]
        quotients = {n: quotient(g, lat.subgroups[n].members) for n in lat.normal}
        for n_idx in lat.normal:
            n_members = lat.subgroups[n_idx].members
            for m_idx in lat.normal:
                if lat.contains_pair(n_idx, m_idx):
                    m_members = lat.subgroups[m_idx].members
                    for s in s_reps:
                        _transitivity(ledger, g, s, n_members, m_members, quotients[n_idx], tag)
            for s in s_reps:
                _factorization(ledger, g, s, n_members, tag)
        for sub in minimal_normal_subgroups(g):
            if is_abelian_members(g, sub.members):
                ledger.check(
                    f"{tag} complements",
                    lambda: checks.equal(*complement_count_formula_check(g, sub.members)),
                )
        if g.order > 1 and is_p_group(g)[0]:
            for s in s_reps:
                for n in nontrivial_normal_subgroups(g):
                    _vanishing(ledger, g, s, n.members, tag)

    # seeded (S, N <= M) triples on a larger 3-group
    rng = state["rng"]
    g = state["triple_group"]
    lat = all_subgroups(g)
    ledger.check(f"{g.label} lattice", lambda: checks.lattice_counts_ok(lat, pinned[g.label]))
    chains = [(n, m) for n in lat.normal for m in lat.normal if lat.contains_pair(n, m)]
    trivial_n = [c for c in chains if len(lat.subgroups[c[0]]) == 1]
    proper_n = [c for c in chains if len(lat.subgroups[c[0]]) > 1]
    for k in range(DEFLATION_TRIPLES):
        s = lat.subgroups[rng.choice(lat.class_reps)].members
        n_idx, m_idx = rng.choice(trivial_n if k < DEFLATION_TRIVIAL_N else proper_n)
        n_members = lat.subgroups[n_idx].members
        m_members = lat.subgroups[m_idx].members
        tag = f"{g.label} S={len(s)} N={n_idx} M={m_idx}"
        _transitivity(ledger, g, s, n_members, m_members, quotient(g, n_members), tag)
        _factorization(ledger, g, s, n_members, tag)
        if len(n_members) > 1:
            _vanishing(ledger, g, s, n_members, tag)

    # classifications
    for universe in state["universes"]:
        p = universe.prime
        e2 = elementary_abelian(p, 2)
        ledger.check(
            f"B-groups p={p}",
            lambda: checks.b_groups_ok(
                is_isomorphic(h, e2) for h in universe.groups if h.order > 1 and is_b_group(h)
            ),
        )

    def t_slice_types(p):
        found = set()
        for rank in range(5):
            e = elementary_abelian(p, rank)
            seen = set()
            for sub in all_subgroups(e).subgroups:
                if len(sub) not in seen:
                    seen.add(len(sub))
                    if is_t_slice(e, sub.members):
                        found.add((rank, _log(p, len(sub))))
        return checks.t_slice_types_ok(found)

    for p in (2, 3):
        ledger.check(f"T-slices p={p}", lambda: t_slice_types(p))


def _log(p: int, size: int) -> int:
    k = 0
    while size > 1:
        size //= p
        k += 1
    return k


# ---------------------------------------------------------------------------
# closure: universe, bounded closures, family conditions

CLOSURE_PRIME = 3
CLOSURE_BOUND = 81
CLOSURE_WINDOW = CLOSURE_PRIME**3  # closures are trusted up to this order
CLOSURE_EXTRA_SEEDS = 2


def _smallest_family(group, s_members) -> str:
    """The ideal generated by one slice is spanned by the smallest family
    containing it; the families form the chain J3 < J1, J2 < FULL."""
    from sliceburnside import FAMILIES

    full = tuple(range(group.order))
    return next(f for f in ("J3", "J1", "J2", "FULL") if FAMILIES[f](group, full, s_members))


def setup_closure(seed: int, ref: dict):
    from sliceburnside import GroupUniverse, all_subgroups, cyclic_group, elementary_abelian

    p = CLOSURE_PRIME
    universe = GroupUniverse(p, CLOSURE_BOUND)
    e3 = elementary_abelian(p, 3)
    rank2 = next(s for s in all_subgroups(e3).subgroups if len(s) == p * p)
    seeds = [
        ("FULL", cyclic_group(1), (0,)),
        ("J1", cyclic_group(p), (0,)),
        ("J2", elementary_abelian(p, 2), tuple(range(p * p))),
        ("J3", e3, rank2.members),
    ]
    rng = random.Random(seed)
    small = [gi for gi, g in enumerate(universe.groups) if 1 < g.order <= CLOSURE_WINDOW]
    for _ in range(CLOSURE_EXTRA_SEEDS):
        gi = rng.choice(small)
        lat = universe.lattices[gi]
        s = lat.subgroups[rng.choice(lat.class_reps)].members
        g = universe.groups[gi]
        seeds.append((_smallest_family(g, s), g, s))
    return {
        "universe": universe,
        "seeds": seeds,
        "condition_universes": [GroupUniverse(q, q**3) for q in (2, 3)],
        "ref": ref,
    }


def run_closure(state, ledger: Ledger) -> None:
    from sliceburnside import FAMILIES, bounded_closure, check_conditions
    from sliceburnside.ideals import BROKEN_CYCLIC_FAMILY, closure_trace

    universe = state["universe"]
    expected = state["ref"]["closure_members"]
    for k, (fid, group, s_members) in enumerate(state["seeds"]):
        recorded = expected[fid] if k < 4 else None

        def op():
            members = bounded_closure(universe, group, s_members)
            return checks.closure_ok(
                closure_trace(universe, members, CLOSURE_WINDOW),
                universe.family_trace(FAMILIES[fid], max_order=CLOSURE_WINDOW),
                len(members),
                recorded,
            )

        ledger.check(f"closure {k} from {group.label} ({fid})", op)
    for cu in state["condition_universes"]:
        for fid in ("J1", "J2", "J3", "J4"):
            ledger.check(
                f"conditions {fid} p={cu.prime}",
                lambda: checks.conditions_ok(check_conditions(FAMILIES[fid], cu), True),
            )
        ledger.check(
            f"conditions broken p={cu.prime}",
            lambda: checks.conditions_ok(check_conditions(BROKEN_CYCLIC_FAMILY, cu), False),
        )


# ---------------------------------------------------------------------------
# many-small: many fresh small groups through every layer of the ring

# Each spec appears a fixed number of times, so the amount of work does not
# depend on the seed; the seed shuffles the order (which decides how the
# library's caches grow) and picks the automorphisms used for transport.
MANY_SMALL_COUNTS = {
    "cyclic:4": 3,
    "cyclic:6": 3,
    "cyclic:8": 3,
    "cyclic:12": 3,
    "elab:2^2": 3,
    "elab:2^3": 2,
    "elab:3^2": 3,
    "abelian:4x2": 3,
    "dihedral:8": 3,
    "dihedral:12": 3,
    "dihedral:16": 2,
    "perm:(0 1 2),(0 1)": 3,
    "perm:(0 1 2),(0 1)(2 3)": 3,
    "perm:(0 1 2 3),(0 1)": 2,
    "cyclic:3 * perm:(0 1 2),(0 1)": 3,
    "dihedral:8 * cyclic:2": 1,
}
MANY_SMALL_POOL = tuple(MANY_SMALL_COUNTS)
MANY_SMALL_AUTOMORPHISMS = 2


def setup_many_small(seed: int, ref: dict):
    from sliceburnside import group_from_spec

    rng = random.Random(seed)
    specs = [spec for spec, k in MANY_SMALL_COUNTS.items() for _ in range(k)]
    rng.shuffle(specs)
    return {"rng": rng, "groups": [(s, group_from_spec(s)) for s in specs], "ref": ref}


def run_many_small(state, ledger: Ledger) -> None:
    from sliceburnside import (
        GroupIsomorphism,
        automorphisms,
        bisetops,
        deflation_idempotent_scalar,
        quotient,
        slice_classes,
        subgroup_as_group,
    )
    from sliceburnside.groups import slice_normalizer

    rng = state["rng"]
    for spec, g in state["groups"]:
        table = slice_classes(g)
        lat = table.lattice
        ledger.check(f"{spec} marks", lambda: checks.marks_match(table, state["ref"]["marks"][spec]))
        xs = table.idempotents()
        ledger.check(f"{spec} sum", lambda: checks.sums_to_one(xs, table.one()))

        for h_idx in lat.class_reps:
            emb = subgroup_as_group(lat.subgroups[h_idx])
            table_h = slice_classes(emb.source)
            h_to_g = checks.fusion_map(table_h, table, emb)
            for c in range(table.size):
                ledger.check(
                    f"{spec} res{h_idx} xi{c}",
                    lambda: checks.restriction_ok(bisetops.restrict(xs[c], emb), table_h, h_to_g, c),
                )
            for hc in range(table_h.size):
                big, small = table_h.rep_subgroups(hc)

                def induction():
                    ratio = Fraction(
                        len(
                            slice_normalizer(
                                g, emb.image_members(big.members), emb.image_members(small.members)
                            )
                        ),
                        len(slice_normalizer(emb.source, big.members, small.members)),
                    )
                    result = bisetops.induce(table_h.idempotent(hc), emb)
                    return checks.induction_ok(result, table, h_to_g, hc, ratio)

                ledger.check(f"{spec} ind{h_idx} xi{hc}", induction)
        for n_idx in lat.normal:
            n_members = lat.subgroups[n_idx].members
            q = quotient(g, n_members)
            table_q = slice_classes(q.group)
            push = checks.push_map(table, table_q, q)
            for qc in range(table_q.size):
                ledger.check(
                    f"{spec} inf{n_idx} xi{qc}",
                    lambda: checks.inflation_ok(
                        bisetops.inflate(table_q.idempotent(qc), q), table, push, qc
                    ),
                )
            for c in range(table.size):
                big, small = table.rep_subgroups(c)
                ledger.check(
                    f"{spec} def{n_idx} xi{c}",
                    lambda: checks.deflation_ok(
                        bisetops.deflate(xs[c], q),
                        table_q,
                        push,
                        c,
                        deflation_idempotent_scalar(g, big.members, small.members, n_members),
                    ),
                )
        auts = automorphisms(g)
        for aut in rng.sample(auts, min(MANY_SMALL_AUTOMORPHISMS, len(auts))):
            iso = GroupIsomorphism(g, g, aut)
            for c in range(table.size):
                big, small = table.rep_subgroups(c)
                ledger.check(
                    f"{spec} iso xi{c}",
                    lambda: checks.transport_ok(
                        bisetops.transport(xs[c], iso),
                        table,
                        table.class_index(
                            iso.image_members(big.members), iso.image_members(small.members)
                        ),
                    ),
                )


WORKLOADS = {
    "ghost": (setup_ghost, run_ghost),
    "deflation": (setup_deflation, run_deflation),
    "closure": (setup_closure, run_closure),
    "many-small": (setup_many_small, run_many_small),
}
