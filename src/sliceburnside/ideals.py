"""Slice families and the ideals they span: membership, closure conditions
over a bounded universe of p-groups, generated-ideal closures, dimensions,
minimal groups, and the embedding of the ordinary Burnside ring.

A family is a predicate on a slice given by lattice indices (t, s) of one
subgroup lattice: J1 is t != s, and J2 reads the lattice's set of cyclic
subgroups, `SubgroupLattice.cyclic`.  The class sweeps pass the indices of
each class representative, so they build no member tuple.

The closure moves are the functor moves, surjection preimages and
nonzero-constant deflations, taken one minimal normal subgroup at a time
and once per abstract slice; products with other groups are not a separate
condition (`bounded_closure` gives the arguments and their precondition).
Each quotient G -> G/N is one `GroupQuotient` onto the universe's own
group (`GroupUniverse.quotient_map`); its `image_indices()` give the moves.

Up to order p^3 a canonical class is the least of its orbit under the
generators of Aut(G), so it stands for an abstract slice; above, it is raw.

Everything quantified "for all finite groups" in the theory is checked here
over an explicit finite universe; reports and results are universe-bounded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .groups import (
    FiniteGroup,
    GroupError,
    GroupIsomorphism,
    GroupQuotient,
    _invariant_profile,
    _is_prime,
    _mask_of,
    abelian_group,
    all_subgroups,
    automorphism_generators,
    cyclic_group,
    dihedral_group,
    direct_product,
    find_isomorphism,
    heisenberg_group_p3,
    modular_group_p3,
    permutation_orbit,
    quaternion_group,
    quotient,
)
from .constants import deflation_constant_at
from .linalg import rational_rank
from .ring import SliceClassTable, slice_classes


# ---------------------------------------------------------------------------
# Families


@dataclass(frozen=True)
class SliceFamily:
    """An isomorphism-invariant family of abstract slices (T, S).

    `membership(lattice, t, s)` decides the slice with lattice indices t
    and s of one `SubgroupLattice`; it must only depend on the isomorphism
    class of the pair.  Calling the family with member tuples is the one
    boundary form: it finds both indices in the group's lattice, and a
    tuple that is not a subgroup raises `GroupError`.
    """

    id: str
    membership: object

    def __call__(self, group: FiniteGroup, t_members, s_members) -> bool:
        lat = all_subgroups(group)
        return bool(self.membership(lat, lat.index_of(t_members), lat.index_of(s_members)))


FAMILIES: dict[str, SliceFamily] = {
    "ZERO": SliceFamily("ZERO", lambda lat, t, s: False),
    "J1": SliceFamily("J1", lambda lat, t, s: t != s),
    "J2": SliceFamily("J2", lambda lat, t, s: s not in lat.cyclic),
    "J3": SliceFamily("J3", lambda lat, t, s: t != s and s not in lat.cyclic),
    "J4": SliceFamily("J4", lambda lat, t, s: t != s or s not in lat.cyclic),
    "FULL": SliceFamily("FULL", lambda lat, t, s: True),
}

#: deliberately not an ideal family: closure under preimages fails
BROKEN_CYCLIC_FAMILY = SliceFamily("S_CYCLIC", lambda lat, t, s: s in lat.cyclic)


def family_by_id(fid: str) -> SliceFamily:
    if fid == BROKEN_CYCLIC_FAMILY.id:
        return BROKEN_CYCLIC_FAMILY
    try:
        return FAMILIES[fid]
    except KeyError:
        raise GroupError(f"unknown family {fid!r}") from None


# ---------------------------------------------------------------------------
# Per-group traces


def member_classes(table: SliceClassTable, family: SliceFamily) -> list[int]:
    """Slice classes of the table's group that belong to the family."""
    lat = table.lattice
    return [cls for cls, (t, s) in enumerate(table.reps) if family.membership(lat, t, s)]


def ideal_dimension(group: FiniteGroup, family: SliceFamily) -> int:
    return len(member_classes(slice_classes(group), family))


# ---------------------------------------------------------------------------
# The bounded universe


def _partitions(total: int):
    def rec(remaining, largest):
        if remaining == 0:
            yield ()
            return
        for part in range(min(remaining, largest), 0, -1):
            for rest in rec(remaining - part, part):
                yield (part,) + rest
    yield from rec(total, total)


def _abelian_types(p: int, bound: int):
    """One abelian group of each type of p-power order up to the bound, by
    order, C1 first."""
    exp = 0
    while p**exp <= bound:
        for part in _partitions(exp):
            yield abelian_group([p**e for e in part]) if part else cyclic_group(1)
        exp += 1


def constructor_known_p_groups(p: int, bound: int) -> list[FiniteGroup]:
    """One group per constructor-reachable isomorphism class of p-power
    order up to the bound: all abelian types, the two extraspecial-type
    order-p^3 constructions, dihedral 2-groups, the quaternion group, and
    direct products of these with abelian groups."""
    nonabelian_seeds: list[FiniteGroup] = []
    if p**3 <= bound:
        nonabelian_seeds.append(modular_group_p3(p))
        nonabelian_seeds.append(heisenberg_group_p3(p))
        if p == 2:
            nonabelian_seeds.append(quaternion_group())
    if p == 2:
        order = 8
        while order <= bound:
            nonabelian_seeds.append(dihedral_group(order))
            order *= 2

    candidates = list(_abelian_types(p, bound))
    for seed in nonabelian_seeds:
        for a in _abelian_types(p, bound // seed.order):
            candidates.append(direct_product(a, seed) if a.order > 1 else seed)

    by_order: dict[int, list[FiniteGroup]] = {}
    for g in candidates:
        bucket = by_order.setdefault(g.order, [])
        if not any(find_isomorphism(g, h) for h in bucket):
            bucket.append(g)
    out: list[FiniteGroup] = []
    for order in sorted(by_order):
        out.extend(sorted(by_order[order], key=lambda g: g.label))
    return out


class GroupUniverse:
    """A finite stand-in for the category of p-groups up to an order bound."""

    def __init__(self, prime: int, bound: int):
        if bound < 1:
            raise GroupError(f"universe bound must be at least 1, got {bound}")
        # its universe is C1 alone; refused before a slow trial division
        if prime > bound:
            raise GroupError(f"universe prime exceeds the bound {bound}")
        if not _is_prime(prime):
            raise GroupError(f"universe prime must be prime, got {prime}")
        self.prime = prime
        self.bound = bound
        self.groups = constructor_known_p_groups(prime, bound)
        self.lattices = [all_subgroups(g) for g in self.groups]
        self._by_profile: dict[tuple, list[int]] = {}
        for gi, g in enumerate(self.groups):
            self._by_profile.setdefault(_invariant_profile(g), []).append(gi)
        self._canon: list[tuple[int, ...]] = [
            self._canonical_map(i) for i in range(len(self.groups))
        ]
        # maps and closure moves, each filled on first use
        self._quotient_maps: dict[tuple[int, int], tuple[int, GroupQuotient]] = {}
        self._quotient_moves: dict[tuple[int, int], tuple] = {}
        self._minimal_moves: dict[tuple[int, int], tuple] = {}
        self._surjection_sources: dict[tuple[int, int], list[tuple[int, int]]] | None = None

    # -- canonicalization ----------------------------------------------------

    def _canonical_map(self, gi: int) -> tuple[int, ...]:
        g = self.groups[gi]
        lat = self.lattices[gi]
        nclasses = len(lat.class_reps)
        # membership tests during closure happen at or below this order
        if g.order > self.prime**3:
            return tuple(range(nclasses))
        # the least class of each orbit under the generators' class
        # permutations: classes ascend, so one not yet reached is the least
        images = [GroupIsomorphism(g, g, aut).image_indices() for aut in automorphism_generators(g)]
        perms = [[lat.class_of[image[rep]] for rep in lat.class_reps] for image in images]
        canon = [-1] * nclasses
        for cls in range(nclasses):
            if canon[cls] < 0:
                for c in permutation_orbit(cls, perms):
                    canon[c] = cls
        return tuple(canon)

    def canonical_class(self, gi: int, cls: int) -> int:
        return self._canon[gi][cls]

    # -- locating foreign groups ----------------------------------------------

    def find_group(self, group: FiniteGroup):
        """Universe index and isomorphism for a group, or None; identity for its own groups."""
        for gi, h in enumerate(self.groups):
            if h is group:
                return gi, GroupIsomorphism(h, h, tuple(range(h.order)))
        for gi in self._by_profile.get(_invariant_profile(group), ()):
            iso = find_isomorphism(group, self.groups[gi])
            if iso is not None:
                return gi, iso
        return None

    def locate_slice(self, group: FiniteGroup, s_members) -> tuple[int, int]:
        """Canonical (group index, subgroup class) of an abstract slice
        (group, S) given by an external group object."""
        hit = self.find_group(group)
        if hit is None:
            raise GroupError(
                f"group of order {group.order} is outside the universe"
            )
        gi, iso = hit
        lat = self.lattices[gi]
        idx = lat.index_of(map(iso.images.__getitem__, s_members))
        return gi, self.canonical_class(gi, lat.class_of[idx])

    # -- quotient witnesses and product element maps ---------------------------

    def quotient_map(self, gi: int, n_idx: int) -> tuple[int, GroupQuotient]:
        """(target group index qi, witness) for G_gi -> G_gi / N: one
        `GroupQuotient` onto the universe's own G_qi, with `quotient`'s
        projection and section composed with `find_group`'s isomorphism, and
        levels looked up by the masks of the projected subgroups above N."""
        hit = self._quotient_maps.get((gi, n_idx))
        if hit is None:
            g, lat = self.groups[gi], self.lattices[gi]
            q = quotient(g, lat.subgroups[n_idx].members)
            found = self.find_group(q.group)
            if found is None:
                raise GroupError(
                    f"quotient group is outside the universe: {g.label} mod a normal"
                    f" subgroup of order {len(q.kernel)} has order {q.group.order}"
                )
            qi, iso = found
            projection = tuple(map(iso.images.__getitem__, q.projection))
            section = tuple(map(q.section.__getitem__, iso.inverse().images))
            index = self.lattices[qi]._index
            levels = tuple(
                index[_mask_of(map(projection.__getitem__, lat.subgroups[v].members))]
                for v in lat.above[n_idx]
            )
            hit = qi, GroupQuotient(g, self.groups[qi], projection, q.kernel, section, levels)
            self._quotient_maps[gi, n_idx] = hit
        return hit

    def product_map(self, bi: int, ti: int) -> tuple[int, tuple[int, ...]]:
        """(target group index, composed element map) for G_bi x G_ti, built
        afresh on each call. No closure move calls it: it is the tests'
        oracle for the preimage argument of `bounded_closure`."""
        found = self.find_group(direct_product(self.groups[bi], self.groups[ti]))
        if found is None:
            raise GroupError("product group is outside the universe")
        pi, iso = found
        return pi, iso.images

    # -- closure moves -------------------------------------------------------------

    def quotient_moves(self, gi: int, cls: int) -> tuple[tuple[int, tuple[int, int]], ...]:
        """(N, canonical image slice) of the slice (G, S) of class `cls` under
        G -> G/N, for every nontrivial normal subgroup N of G = G_gi."""
        hit = self._quotient_moves.get((gi, cls))
        if hit is None:
            # subgroups are sorted by order, so the trivial one comes first
            normals = self.lattices[gi].normal[1:]
            hit = self._quotient_moves[gi, cls] = self._images(gi, cls, normals)
        return hit

    def minimal_moves(self, gi: int, cls: int) -> tuple[tuple[int, tuple[int, int]], ...]:
        """`quotient_moves` for the minimal normal subgroups N of G_gi only:
        the closure moves (`bounded_closure` gives the argument)."""
        hit = self._minimal_moves.get((gi, cls))
        if hit is None:
            minimal = self.lattices[gi].minimal_normal
            hit = self._minimal_moves[gi, cls] = self._images(gi, cls, minimal)
        return hit

    def _images(self, gi: int, cls: int, normals) -> tuple[tuple[int, tuple[int, int]], ...]:
        rep = self.lattices[gi].class_reps[cls]
        moves = []
        for n_idx in normals:
            qi, witness = self.quotient_map(gi, n_idx)
            image = self.lattices[qi].class_of[witness.image_indices()[rep]]
            moves.append((n_idx, (qi, self.canonical_class(qi, image))))
        return tuple(moves)

    def constant(self, gi: int, cls: int, n_idx: int) -> Fraction:
        """The deflation constant of the slice (G, S) of class `cls` by the
        normal subgroup N of G = G_gi; a move exists where it is nonzero.
        The value is kept on G's lattice by `deflation_constant_at`."""
        lat = self.lattices[gi]
        return deflation_constant_at(lat, lat.class_reps[cls], n_idx, lat.top)

    def surjection_sources(self) -> dict[tuple[int, int], list[tuple[int, int]]]:
        """Canonical slices that surject onto each canonical slice by one
        minimal step (`minimal_moves`), keyed by the target: a member
        target forces its sources into an ideal.  Only canonical classes are
        read: their moves stand for their Aut-orbits (see `bounded_closure`)."""
        if self._surjection_sources is None:
            sources: dict[tuple[int, int], list[tuple[int, int]]] = {}
            for src in sorted(self.all_abstract_classes()):
                for _, tgt in self.minimal_moves(*src):
                    if tgt != src:
                        sources.setdefault(tgt, []).append(src)
            self._surjection_sources = sources
        return self._surjection_sources

    # -- inventory -----------------------------------------------------------------

    def all_abstract_classes(self) -> set[tuple[int, int]]:
        """(group index, canonical class) of every abstract slice."""
        return {(gi, cls) for gi, canon in enumerate(self._canon) for cls in set(canon)}

    def _membership(self, family: SliceFamily, max_order: int) -> dict[tuple[int, int], bool]:
        """{(group index, class): membership of the whole-group slice (G, S)}
        over the universe's groups of order at most `max_order`, in (group,
        class) order."""
        member = {}
        # the groups ascend by order
        for gi, g in enumerate(self.groups):
            if g.order > max_order:
                break
            lat = self.lattices[gi]
            for cls, rep in enumerate(lat.class_reps):
                member[gi, cls] = bool(family.membership(lat, lat.top, rep))
        return member

    def family_trace(self, family: SliceFamily, max_order: int) -> set[tuple[int, int]]:
        """Canonical abstract member classes (whole-group slices) in the
        universe's groups of order at most `max_order`."""
        member = self._membership(family, max_order)
        return {(gi, self.canonical_class(gi, cls)) for (gi, cls), m in member.items() if m}

    def describe_class(self, gi: int, cls: int) -> str:
        lat = self.lattices[gi]
        sub = lat.subgroups[lat.class_reps[cls]]
        return f"{self.groups[gi].label}:S={'.'.join(map(str, sub.members))}"


# ---------------------------------------------------------------------------
# Condition checking


@dataclass
class ConditionReport:
    family_id: str
    prime: int
    bound: int
    slices_checked: int = 0
    preimage_violations: list = field(default_factory=list)
    deflation_violations: list = field(default_factory=list)
    iso_violations: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not (self.preimage_violations or self.deflation_violations or self.iso_violations)


def check_conditions(family: SliceFamily, universe: GroupUniverse) -> ConditionReport:
    """Exhaustively check the ideal-family closure conditions on the universe.

    Checked: invariance of membership under automorphisms (on every orbit
    of the universe's canonical class map, in every group), closure under
    surjection preimages (via quotients by every normal subgroup) and
    closure under deflations with nonzero constant.  Products with other
    groups need no sweep of their own (see `bounded_closure`).  Violations
    carry witnesses.  The sweep takes every nontrivial normal N, not only
    the minimal ones `bounded_closure` needs: a family that is not closed
    is reported at each N that witnesses it.
    """
    report = ConditionReport(family.id, universe.prime, universe.bound)
    member = universe._membership(family, universe.bound)
    report.slices_checked = len(member)

    # isomorphism invariance: classes merged by automorphisms must agree
    for gi, g in enumerate(universe.groups):
        orbits: dict[int, list[int]] = {}
        for cls in range(len(universe.lattices[gi].class_reps)):
            orbits.setdefault(universe.canonical_class(gi, cls), []).append(cls)
        for orbit in orbits.values():
            if len({member[gi, c] for c in orbit}) > 1:
                report.iso_violations.append(
                    {
                        "group": g.label,
                        "classes": [universe.describe_class(gi, c) for c in orbit],
                    }
                )

    for (gi, cls), member_here in member.items():
        lat = universe.lattices[gi]
        for n_idx, (qi, qcls) in universe.quotient_moves(gi, cls):
            quotient_member = member[qi, qcls]
            # preimage closure: member quotient forces member source
            if quotient_member and not member_here:
                report.preimage_violations.append(
                    {
                        "source": universe.describe_class(gi, cls),
                        "via_normal": list(lat.subgroups[n_idx].members),
                        "quotient": universe.describe_class(qi, qcls),
                    }
                )
            # deflation closure: member source with nonzero constant
            if member_here and not quotient_member:
                m = universe.constant(gi, cls, n_idx)
                if m != 0:
                    report.deflation_violations.append(
                        {
                            "source": universe.describe_class(gi, cls),
                            "via_normal": list(lat.subgroups[n_idx].members),
                            "constant": str(m),
                            "quotient": universe.describe_class(qi, qcls),
                        }
                    )
    return report


# ---------------------------------------------------------------------------
# Bounded closure of a generated ideal


def bounded_closure(
    universe: GroupUniverse, seed_group: FiniteGroup, seed_s_members
) -> set[tuple[int, int]]:
    """Least fixpoint within the universe of the closure moves: add sources
    of surjections onto members, and add deflation images with nonzero
    constant, both along minimal normal subgroups only (`minimal_moves`).

    Every other quotient is a chain of minimal steps.  For a nontrivial
    normal M of G and a minimal normal N0 <= M, G -> G/M factors through
    G/N0, and the image of S mod M is the image of SN0/N0 mod M/N0.  The
    deflation constants are transitive, m(G,S,M) = m(G,S,N0) *
    m(G/N0,SN0/N0,M/N0) (Bouc, *Biset functors for finite groups*), so a
    nonzero constant mod M is a chain of nonzero minimal ones, and a
    member image mod M pulls back to G one minimal step at a time.

    Each member is moved once, from its canonical class.  An automorphism a
    of G permutes its minimal normal subgroups, induces G/N -> G/a(N)
    sending the image of S to that of a(S), and keeps the constants,
    m(G,S,N) = m(G,a(S),a(N)) (Bouc), so every class of an Aut-orbit reaches
    the same abstract slices.  Precondition: the two images in the universe
    group differ by one of its automorphisms, so its canonical classes must
    be exact.  That holds while every orbit of more than one class lies in
    a group of order at most p^3, whose quotients all have exact classes.

    Products with other groups need no move of their own.  For a member
    (T, S) and a universe slice (B, A) with |B||T| within the bound, the
    projection B x T -> T has kernel N = B x 1 and sends A x S onto S, so
    (B x T, A x S) is a surjection source of (T, S) and already added.

    The result is a lower bound for the trace of the generated ideal on the
    universe (derivations may leave any finite bound).
    """
    seed = universe.locate_slice(seed_group, seed_s_members)
    sources = universe.surjection_sources()
    members: set[tuple[int, int]] = set()
    queue: list[tuple[int, int]] = []

    def add(pair: tuple[int, int]) -> None:
        if pair not in members:
            members.add(pair)
            queue.append(pair)

    add(seed)
    while queue:
        gi, canon_cls = queue.pop()
        for src in sources.get((gi, canon_cls), ()):
            add(src)
        # deflation constants are computed only while the image is missing
        for n_idx, tgt in universe.minimal_moves(gi, canon_cls):
            if tgt not in members and universe.constant(gi, canon_cls, n_idx) != 0:
                add(tgt)
    return members


def closure_trace(
    universe: GroupUniverse, members: set[tuple[int, int]], max_order: int
) -> set[tuple[int, int]]:
    """Restrict a closure result to groups of order at most `max_order`."""
    return {
        (gi, cls)
        for gi, cls in members
        if universe.groups[gi].order <= max_order
    }


# ---------------------------------------------------------------------------
# Minimal groups


def minimal_groups(family: SliceFamily, universe: GroupUniverse) -> list[FiniteGroup]:
    """Groups in the universe with nonzero ideal dimension, all strictly
    smaller universe groups having dimension zero."""
    dims = [
        (g, ideal_dimension(g, family)) for g in universe.groups
    ]
    out = []
    for g, d in dims:
        if d == 0:
            continue
        if all(d2 == 0 for h, d2 in dims if h.order < g.order):
            out.append(g)
    return out


# ---------------------------------------------------------------------------
# Burnside-ring embedding


def _embedded_columns(table: SliceClassTable) -> list[dict[int, int]]:
    """The table's own mark columns of the embedded Burnside basis: G/S maps
    to the class of its identity morphism, the diagonal slice (S, S)."""
    columns = table.mark_columns()
    return [columns[table.class_of[i, i]] for i in table.lattice.class_reps]


def burnside_image_rank(group: FiniteGroup) -> int:
    return rational_rank(_embedded_columns(slice_classes(group)))


def intersection_dimension(group: FiniteGroup, family: SliceFamily) -> int:
    """Dimension of the intersection of the embedded Burnside algebra with
    the family's ideal, computed in ghost coordinates: the ideal is the
    span of the member coordinate axes, so the intersection dimension is
    the rank drop of the embedded basis restricted to non-member axes.
    The embedded basis is independent, so its rank is its length: its marks
    at the diagonal rows (T, T) are the ordinary Burnside marks, which are
    triangular with a nonzero diagonal (`burnside_image_rank` checks it)."""
    table = slice_classes(group)
    full_rows = _embedded_columns(table)
    members = set(member_classes(table, family))
    restricted_rows = [{r: m for r, m in row.items() if r not in members} for row in full_rows]
    return len(full_rows) - rational_rank(restricted_rows)
