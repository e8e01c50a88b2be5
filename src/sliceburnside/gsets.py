"""Explicit finite G-sets and equivariant maps: the brute-force oracle.

Points are plain indices 0..n-1 with a separately stored action table, so
products, quotients and induced sets all share one representation.  Empty
G-sets and empty morphisms are legal everywhere.  `hom_count` is the oracle
for the closed-form marks of `ring.SliceClassTable.mark_columns`; only the
tests and `verify` call it.
"""

from __future__ import annotations

from .groups import (
    FiniteGroup,
    GroupEmbedding,
    GroupIsomorphism,
    GroupQuotient,
    GroupError,
)


class GSet:
    """A finite G-set: an action table act[g][x] over point indices."""

    def __init__(self, group: FiniteGroup, act_rows, point_reps=None):
        self.group = group
        self.act_rows = tuple(tuple(row) for row in act_rows)
        if len(self.act_rows) != group.order:
            raise GroupError("action table needs one row per group element")
        self.size = len(self.act_rows[0]) if self.act_rows else 0
        # for coset spaces: a group element representing each point
        self.point_reps = tuple(point_reps) if point_reps is not None else None
        self._fixed: dict[int, frozenset[int]] = {}
        self._stab: dict[int, tuple[int, ...]] = {}
        self._orbit_reps: tuple[int, ...] | None = None
        self._orbit_of: tuple[int, ...] | None = None
        self._transporter: tuple[int, ...] | None = None

    def act(self, g: int, x: int) -> int:
        return self.act_rows[g][x]

    def check(self) -> None:
        """Exhaustively verify the action axioms."""
        g = self.group
        e_row = self.act_rows[g.identity]
        if any(e_row[x] != x for x in range(self.size)):
            raise GroupError("identity does not act trivially")
        for a in range(g.order):
            for b in range(g.order):
                ab = g.mul(a, b)
                for x in range(self.size):
                    if self.act_rows[a][self.act_rows[b][x]] != self.act_rows[ab][x]:
                        raise GroupError("action is not compatible with the product")

    # -- orbit machinery ----------------------------------------------------

    def _compute_orbits(self) -> None:
        reps = []
        orbit_of = [-1] * self.size
        transporter = [self.group.identity] * self.size
        gens = self.group.generators()
        for x in range(self.size):
            if orbit_of[x] >= 0:
                continue
            reps.append(x)
            orbit_of[x] = x
            frontier = [x]
            while frontier:
                nxt = []
                for p in frontier:
                    for g in gens:
                        q = self.act_rows[g][p]
                        if orbit_of[q] < 0:
                            orbit_of[q] = x
                            transporter[q] = self.group.mul(g, transporter[p])
                            nxt.append(q)
                frontier = nxt
        self._orbit_reps = tuple(reps)
        self._orbit_of = tuple(orbit_of)
        self._transporter = tuple(transporter)

    def orbit_reps(self) -> tuple[int, ...]:
        """Smallest point index of each orbit, in increasing order."""
        if self._orbit_reps is None:
            self._compute_orbits()
        return self._orbit_reps

    def orbit_rep_of(self, x: int) -> int:
        if self._orbit_of is None:
            self._compute_orbits()
        return self._orbit_of[x]

    def transporter(self, x: int) -> int:
        """A group element u with u * rep(x) = x."""
        if self._transporter is None:
            self._compute_orbits()
        return self._transporter[x]

    def stabilizer_members(self, x: int) -> tuple[int, ...]:
        hit = self._stab.get(x)
        if hit is None:
            hit = tuple(
                g for g in range(self.group.order) if self.act_rows[g][x] == x
            )
            self._stab[x] = hit
        return hit

    def fixed_points(self, members) -> frozenset[int]:
        """Points fixed by every element of `members`; cached."""
        mask = 0
        for m in members:
            mask |= 1 << m
        hit = self._fixed.get(mask)
        if hit is None:
            members = tuple(members)
            hit = frozenset(
                x
                for x in range(self.size)
                if all(self.act_rows[g][x] == x for g in members)
            )
            self._fixed[mask] = hit
        return hit


class GSetMorphism:
    """An equivariant map between two G-sets over the same group."""

    def __init__(self, source: GSet, target: GSet, mapping):
        if source.group is not target.group:
            raise GroupError("morphism endpoints must share one group object")
        self.group = source.group
        self.source = source
        self.target = target
        self.mapping = tuple(mapping)
        if len(self.mapping) != source.size:
            raise GroupError("mapping length must match the source size")

    def check(self) -> None:
        """Exhaustively verify equivariance."""
        for g in range(self.group.order):
            srow, trow = self.source.act_rows[g], self.target.act_rows[g]
            for x in range(self.source.size):
                if self.mapping[srow[x]] != trow[self.mapping[x]]:
                    raise GroupError("map is not equivariant")

    def check_on_generators(self) -> None:
        """Verify equivariance on a generating set (sufficient exactly)."""
        for g in self.group.generators():
            srow, trow = self.source.act_rows[g], self.target.act_rows[g]
            for x in range(self.source.size):
                if self.mapping[srow[x]] != trow[self.mapping[x]]:
                    raise GroupError("map is not equivariant")

    def __call__(self, x: int) -> int:
        return self.mapping[x]


def stabilizer_pairs(f: GSetMorphism) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """One (stabilizer of image, stabilizer of point) pair per source orbit."""
    out = []
    for x in f.source.orbit_reps():
        s = f.source.stabilizer_members(x)
        t = f.target.stabilizer_members(f.mapping[x])
        out.append((t, s))
    return out


# ---------------------------------------------------------------------------
# Basic constructions


def coset_space(group: FiniteGroup, members) -> GSet:
    """Left cosets g*S as a transitive G-set, in order of first appearance."""
    members = tuple(members)
    n = group.order
    point_of = [-1] * n
    reps = []
    for g in range(n):
        if point_of[g] >= 0:
            continue
        idx = len(reps)
        reps.append(g)
        for s in members:
            point_of[group.mul(g, s)] = idx
    act = [
        [point_of[group.mul(g, reps[i])] for i in range(len(reps))]
        for g in range(n)
    ]
    gs = GSet(group, act, point_reps=reps)
    gs._point_of = tuple(point_of)
    return gs


def canonical_projection(group: FiniteGroup, s_members, t_members) -> GSetMorphism:
    """The projection G/S -> G/T for S <= T."""
    s_set, t_set = set(s_members), set(t_members)
    if not s_set <= t_set:
        raise GroupError("projection needs the smaller subgroup inside the larger")
    src = coset_space(group, tuple(sorted(s_set)))
    tgt = coset_space(group, tuple(sorted(t_set)))
    mapping = [tgt._point_of[rep] for rep in src.point_reps]
    return GSetMorphism(src, tgt, mapping)


def morphism_product(f: GSetMorphism, g: GSetMorphism) -> GSetMorphism:
    """Componentwise product morphism on the diagonal action."""
    if f.group is not g.group:
        raise GroupError("product needs morphisms over one group object")
    grp = f.group
    sizes = (f.source.size, g.source.size, f.target.size, g.target.size)
    sx, sz, ty, tt = sizes
    src_act = []
    tgt_act = []
    for e in range(grp.order):
        fs, gs_ = f.source.act_rows[e], g.source.act_rows[e]
        ft, gt = f.target.act_rows[e], g.target.act_rows[e]
        src_act.append(
            [fs[p // sz] * sz + gs_[p % sz] for p in range(sx * sz)]
        )
        tgt_act.append(
            [ft[p // tt] * tt + gt[p % tt] for p in range(ty * tt)]
        )
    mapping = [
        f.mapping[p // sz] * tt + g.mapping[p % sz] for p in range(sx * sz)
    ]
    return GSetMorphism(GSet(grp, src_act), GSet(grp, tgt_act), mapping)


# ---------------------------------------------------------------------------
# Hom counting


def hom_count(a: GSetMorphism, b: GSetMorphism) -> int:
    """|Hom(a, b)| in the category of morphisms of G-sets.

    A hom is a pair of equivariant maps (h: source(a) -> source(b),
    k: target(a) -> target(b)) with k after a equal to b after h.  Maps are
    enumerated orbitwise: the image of an orbit representative may be any
    point whose stabilizer contains the representative's stabilizer.
    """
    if a.group is not b.group:
        raise GroupError("hom counting needs morphisms over one group object")
    grp = a.group
    src_reps = a.source.orbit_reps()
    tgt_reps = a.target.orbit_reps()
    tgt_index = {z: j for j, z in enumerate(tgt_reps)}

    # candidate images for h on each source orbit
    h_candidates = [
        tuple(b.source.fixed_points(a.source.stabilizer_members(x)))
        for x in src_reps
    ]
    # fixed points available to k on each target orbit
    k_fixed = [
        b.target.fixed_points(a.target.stabilizer_members(z)) for z in tgt_reps
    ]
    # constraints: source orbit i forces k on target orbit of a(x_i)
    forced: dict[int, list[tuple[int, int]]] = {}
    for i, x in enumerate(src_reps):
        t = a.mapping[x]
        j = tgt_index[a.target.orbit_rep_of(t)]
        # translator u with u * rep_j = t, so k(rep_j) = u^-1 * k(t)
        u_inv = grp.inv(a.target.transporter(t))
        forced.setdefault(j, []).append((i, u_inv))

    free_factor = 1
    for j in range(len(tgt_reps)):
        if j not in forced:
            free_factor *= len(k_fixed[j])
    if free_factor == 0:
        return 0

    total = 0
    assignment = [0] * len(src_reps)

    def recurse(i: int):
        nonlocal total
        if i == len(src_reps):
            count = free_factor
            for j, constraints in forced.items():
                vals = set()
                for idx, u_inv in constraints:
                    u = assignment[idx]
                    vals.add(b.target.act_rows[u_inv][b.mapping[u]])
                if len(vals) > 1:
                    return
                v = vals.pop()
                if v not in k_fixed[j]:
                    return
            total += count
            return
        for u in h_candidates[i]:
            assignment[i] = u
            recurse(i + 1)

    recurse(0)
    return total


# ---------------------------------------------------------------------------
# Elementary operations on morphisms


def restrict_gset(x: GSet, emb: GroupEmbedding) -> GSet:
    act = [
        x.act_rows[emb.images[h]] for h in range(emb.source.order)
    ]
    return GSet(emb.source, act)


def restrict_morphism(f: GSetMorphism, emb: GroupEmbedding) -> GSetMorphism:
    if emb.target is not f.group:
        raise GroupError("embedding target must be the morphism's group")
    return GSetMorphism(
        restrict_gset(f.source, emb), restrict_gset(f.target, emb), f.mapping
    )


def _induced_gset(x: GSet, emb: GroupEmbedding):
    """Points of G x_H X as orbit indices, plus the pair -> point map."""
    g, h = emb.target, emb.source
    nx = x.size
    orbit_of = [-1] * (g.order * nx)
    count = 0
    for p in range(g.order * nx):
        if orbit_of[p] >= 0:
            continue
        idx = count
        count += 1
        stack = [p]
        orbit_of[p] = idx
        while stack:
            q = stack.pop()
            e, px = divmod(q, nx)
            for hh in range(h.order):
                q2 = g.mul(e, g.inv(emb.images[hh])) * nx + x.act_rows[hh][px]
                if orbit_of[q2] < 0:
                    orbit_of[q2] = idx
                    stack.append(q2)
    reps = [None] * count
    for p in range(g.order * nx):
        if reps[orbit_of[p]] is None:
            reps[orbit_of[p]] = p
    act = []
    for e in range(g.order):
        row = []
        for idx in range(count):
            ge, px = divmod(reps[idx], nx)
            row.append(orbit_of[g.mul(e, ge) * nx + px])
        act.append(row)
    return GSet(g, act), orbit_of, reps


def induce_morphism(f: GSetMorphism, emb: GroupEmbedding) -> GSetMorphism:
    if emb.source is not f.group:
        raise GroupError("embedding source must be the morphism's group")
    src, src_orbit_of, src_reps = _induced_gset(f.source, emb)
    tgt, tgt_orbit_of, _ = _induced_gset(f.target, emb)
    nx, ny = f.source.size, f.target.size
    mapping = []
    for idx in range(src.size):
        ge, px = divmod(src_reps[idx], nx)
        mapping.append(tgt_orbit_of[ge * ny + f.mapping[px]])
    return GSetMorphism(src, tgt, mapping)


def inflate_gset(x: GSet, quot: GroupQuotient) -> GSet:
    act = [x.act_rows[quot.projection[g]] for g in range(quot.source.order)]
    return GSet(quot.source, act)


def inflate_morphism(f: GSetMorphism, quot: GroupQuotient) -> GSetMorphism:
    if quot.group is not f.group:
        raise GroupError("quotient group must be the morphism's group")
    return GSetMorphism(
        inflate_gset(f.source, quot), inflate_gset(f.target, quot), f.mapping
    )


def _deflated_gset(x: GSet, quot: GroupQuotient):
    """Orbits of the kernel on X, acted on by the quotient group."""
    orbit_of = [-1] * x.size
    count = 0
    for p in range(x.size):
        if orbit_of[p] >= 0:
            continue
        idx = count
        count += 1
        stack = [p]
        orbit_of[p] = idx
        while stack:
            q = stack.pop()
            for n in quot.kernel:
                q2 = x.act_rows[n][q]
                if orbit_of[q2] < 0:
                    orbit_of[q2] = idx
                    stack.append(q2)
    reps = [None] * count
    for p in range(x.size):
        if reps[orbit_of[p]] is None:
            reps[orbit_of[p]] = p
    section = quot.section
    act = [
        [orbit_of[x.act_rows[section[q]][reps[i]]] for i in range(count)]
        for q in range(quot.group.order)
    ]
    return GSet(quot.group, act), orbit_of


def deflate_morphism(f: GSetMorphism, quot: GroupQuotient) -> GSetMorphism:
    if quot.source is not f.group:
        raise GroupError("quotient source must be the morphism's group")
    src, src_orbit_of = _deflated_gset(f.source, quot)
    tgt, tgt_orbit_of = _deflated_gset(f.target, quot)
    mapping = [None] * src.size
    for p in range(f.source.size):
        mapping[src_orbit_of[p]] = tgt_orbit_of[f.mapping[p]]
    return GSetMorphism(src, tgt, mapping)


def transport_gset(x: GSet, iso: GroupIsomorphism) -> GSet:
    inv = iso.inverse()
    act = [x.act_rows[inv.images[g2]] for g2 in range(iso.target.order)]
    return GSet(iso.target, act)


def transport_morphism(f: GSetMorphism, iso: GroupIsomorphism) -> GSetMorphism:
    if iso.source is not f.group:
        raise GroupError("isomorphism source must be the morphism's group")
    return GSetMorphism(
        transport_gset(f.source, iso), transport_gset(f.target, iso), f.mapping
    )
