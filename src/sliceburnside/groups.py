"""Small finite groups as explicit multiplication tables over element indices.

Groups are immutable after construction and safe to share between threads.
Derived structure (generators, element orders and keys, subgroup lattice,
slice table, the standalone groups of its subgroups, the Frattini quotient)
is cached on the group object; caches are filled before sharing in normal
use.  The automorphism generators are not cached.

One depth-first search over generator images finds the first isomorphism
extending a prefix of images; `automorphism_generators` runs it along a
stabiliser chain on each call, and `automorphisms` is the closure of what it
finds, kept for the tests and the benchmark.

A subgroup lattice grows from the cyclic subgroups, walked as powers, by one
cyclic extension a round; sorted by order, it reads containment and the
maximal subgroups off that order.  When |G| = p^a q^b, G is solvable
(Burnside), so every subgroup is reached through a series whose steps are
normalizing cyclic extensions, and only those are tried (Neubueser).  The
lattice of a group made by `quotient` or `subgroup_as_group` is instead read
off its parent's lattice: the subgroups above N, or below H, with their
containment and conjugation rows, and so are its witness's subgroup-index
maps (only a hand-built embedding maps member tuples).  Either way, the
Moebius function is filled one column per subgroup, and the tuple of
minimal normal subgroups once, on first use.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from itertools import takewhile
from math import gcd, lcm

DEFAULT_ORDER_CAP = 256


class GroupError(ValueError):
    """Invalid group-theoretic input (bad table, bad subgroup, bad parameter)."""


class SpecParseError(GroupError):
    """A group-spec string does not parse."""


class OrderCapError(GroupError):
    """A construction would exceed the configured order cap."""


class FiniteGroup:
    """Finite group on element indices 0..order-1 with a full multiplication table.

    The identity and inverse tables are derived from the multiplication table
    at construction time; `validate()` checks the group axioms exhaustively.
    """

    def __init__(self, mul_table, label: str = "G"):
        table = tuple(tuple(map(int, row)) for row in mul_table)
        n = len(table)
        if n == 0:
            raise GroupError("group must have at least one element")
        for row in table:
            if len(row) != n or min(row) < 0 or max(row) >= n:
                raise GroupError("multiplication table is not square over 0..n-1")
        self.order = n
        self.label = label
        self._mul = table
        self.identity = self._find_identity()
        self._inv = self._find_inverses()
        # lazy caches
        self._gens: tuple[int, ...] | None = None
        self._orders: tuple[int, ...] | None = None
        self._keys: tuple[tuple[int, int, int], ...] | None = None
        self._lattice = None
        # (parent lattice, parent subgroups kept, parent element of each
        # element) for a quotient or subgroup, until its lattice is built
        self._lattice_source = None
        self._slice_table = None
        self._subgroup_groups: dict[int, GroupEmbedding] = {}
        # G / Frattini(G), for the Frattini form of the supplement sum
        self._frattini_quotient: GroupQuotient | None = None

    def _find_identity(self) -> int:
        m = self._mul
        ident = tuple(range(self.order))
        for e, row in enumerate(m):
            if row == ident and all(r[e] == x for x, r in enumerate(m)):
                return e
        raise GroupError("table has no two-sided identity")

    def _find_inverses(self) -> tuple[int, ...]:
        # in a group each row holds the identity once, at the inverse
        m, e = self._mul, self.identity
        inv = []
        for x, row in enumerate(m):
            y = row.index(e) if e in row else None
            if y is None or m[y][x] != e:
                raise GroupError(f"element {x} has no two-sided inverse")
            inv.append(y)
        return tuple(inv)

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        return self._inv[a]

    def conj(self, g: int, x: int) -> int:
        """Left conjugate g*x*g^-1."""
        return self._mul[self._mul[g][x]][self._inv[g]]

    def elements(self) -> range:
        return range(self.order)

    def validate(self) -> None:
        """Exhaustively check associativity; identity/inverses hold by construction."""
        n, m = self.order, self._mul
        for a in range(n):
            ma = m[a]
            for b in range(n):
                mab = m[ma[b]]
                mb = m[b]
                for c in range(n):
                    if mab[c] != ma[mb[c]]:
                        raise GroupError(f"associativity fails at ({a},{b},{c})")

    def element_order(self, x: int) -> int:
        orders = self._element_orders()
        return orders[x]

    def _element_orders(self) -> tuple[int, ...]:
        if self._orders is None:
            out = []
            for x in range(self.order):
                k, y = 1, x
                while y != self.identity:
                    y = self._mul[y][x]
                    k += 1
                out.append(k)
            self._orders = tuple(out)
        return self._orders

    def _element_keys(self) -> tuple[tuple[int, int, int], ...]:
        """(element order, centraliser size, number of q-th roots) of each
        element, q the least prime dividing |G|; every isomorphism preserves
        them."""
        if self._keys is None:
            m, n = self._mul, self.order
            q = next((d for d in range(2, n + 1) if n % d == 0), 1)
            roots = [0] * n
            for y in range(n):
                power = y
                for _ in range(q - 1):
                    power = m[power][y]
                roots[power] += 1
            self._keys = tuple(
                (k, sum(m[x][y] == m[y][x] for y in range(n)), roots[x])
                for x, k in enumerate(self._element_orders())
            )
        return self._keys

    def exponent(self) -> int:
        return lcm(*self._element_orders())

    def is_abelian(self) -> bool:
        m = self._mul
        return all(
            m[a][b] == m[b][a] for a in range(self.order) for b in range(a)
        )

    def center_members(self) -> tuple[int, ...]:
        m = self._mul
        return tuple(
            z
            for z in range(self.order)
            if all(m[z][x] == m[x][z] for x in range(self.order))
        )

    def generators(self) -> tuple[int, ...]:
        """A small deterministic generating sequence (greedy by element index)."""
        if self._gens is None:
            gens: list[int] = []
            closed = {self.identity}
            while len(closed) < self.order:
                x = min(i for i in range(self.order) if i not in closed)
                gens.append(x)
                closed = set(close_under_product(self, gens))
            self._gens = tuple(gens)
        return self._gens

    def __repr__(self) -> str:
        return f"FiniteGroup({self.label}, order={self.order})"


def close_under_product(group: FiniteGroup, gens) -> tuple[int, ...]:
    """Members of the subgroup generated by `gens`, by breadth-first products."""
    seen = {group.identity}
    queue = [group.identity]
    gens = [g for g in gens]
    while queue:
        row = group._mul[queue.pop()]
        for g in gens:
            y = row[g]
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return tuple(sorted(seen))


# ---------------------------------------------------------------------------
# Subgroups


@dataclass(frozen=True)
class Subgroup:
    """A subgroup given by its sorted member indices inside a parent group."""

    parent: FiniteGroup
    members: tuple[int, ...]

    @staticmethod
    def from_members(parent: FiniteGroup, members) -> "Subgroup":
        ms = tuple(sorted(set(int(x) for x in members)))
        return Subgroup(parent, ms)

    def __len__(self) -> int:
        return len(self.members)

    def check(self) -> None:
        """Verify identity, closure under product and inverse, and Lagrange."""
        g = self.parent
        mem = set(self.members)
        if g.identity not in mem:
            raise GroupError("subgroup misses the identity")
        for a in self.members:
            if g.inv(a) not in mem:
                raise GroupError("subgroup not closed under inverse")
            for b in self.members:
                if g.mul(a, b) not in mem:
                    raise GroupError("subgroup not closed under product")
        if g.order % len(mem) != 0:
            raise GroupError("subgroup size does not divide the group order")


def set_product(group: FiniteGroup, a_members, b_members) -> tuple[int, ...]:
    """The product set A*B = {a*b}; a subgroup when one factor is normal."""
    out = set()
    for a in a_members:
        row = group._mul[a]
        for b in b_members:
            out.add(row[b])
    return tuple(sorted(out))


def normalizer(group: FiniteGroup, members) -> Subgroup:
    """N_G(H): the lattice's own record of the subgroup whose mask is H's
    normalizer mask.  Raises `GroupError` when `members` is not a subgroup."""
    lat = all_subgroups(group)
    return lat.subgroups[lat._index[lat.normalizer_mask(lat.index_of(members))]]


def slice_normalizer(group: FiniteGroup, t_members, s_members) -> tuple[int, ...]:
    """Elements normalizing both subgroups simultaneously: the members of
    the lattice's record of N_G(T) & N_G(S), itself a subgroup.  Raises
    `GroupError` when either member set is not a subgroup."""
    lat = all_subgroups(group)
    nm = lat.normalizer_mask
    both = nm(lat.index_of(t_members)) & nm(lat.index_of(s_members))
    return lat.subgroups[lat._index[both]].members


def double_cosets(group: FiniteGroup, a_members, b_members) -> tuple[int, ...]:
    """Representatives of the double cosets A\\G/B, smallest element first.
    An element sweep kept only as the oracle for the orbit sums of the
    tests' basis product and of restriction."""
    n = group.order
    seen = bytearray(n)
    reps = []
    for g in range(n):
        if seen[g]:
            continue
        reps.append(g)
        for a in a_members:
            ag = group.mul(a, g)
            row = group._mul[ag]
            for b in b_members:
                seen[row[b]] = 1
    return tuple(reps)


def _mask_of(members) -> int:
    m = 0
    for x in members:
        m |= 1 << x
    return m


def _members_of(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


# ---------------------------------------------------------------------------
# Morphism witnesses between groups
#
# Each witness owns the caches derived from it (the basis images that
# `bisetops` pushes along it, and its subgroup-index maps), so they are freed
# with the witness.


def _cache_field():
    return field(default_factory=dict, init=False, repr=False, compare=False)


@dataclass(frozen=True)
class GroupEmbedding:
    """An injective homomorphism, recorded as the image of each source element."""

    source: FiniteGroup
    target: FiniteGroup
    images: tuple[int, ...]
    basis_images: dict = _cache_field()
    index_maps: dict = _cache_field()

    def __call__(self, x: int) -> int:
        return self.images[x]

    def image_members(self, members) -> tuple[int, ...]:
        return tuple(sorted(map(self.images.__getitem__, members)))

    def preimage_members(self, members) -> tuple[int, ...]:
        """Sorted source indices of the members that lie in the image."""
        wanted = set(members)
        return tuple(x for x, y in enumerate(self.images) if y in wanted)

    def image_indices(self) -> tuple[int, ...]:
        """Target-lattice index of the image of each source subgroup; the
        last entry, the image of the whole source, is the image's index."""
        maps = self.index_maps
        if "image" not in maps:
            index = all_subgroups(self.target)._member_index
            subs = all_subgroups(self.source).subgroups
            maps["image"] = tuple(index[self.image_members(h.members)] for h in subs)
        return maps["image"]

    def preimage_indices(self) -> tuple[int, ...]:
        """The inverse of `image_indices`: the source-lattice index of each
        target subgroup inside the image, -1 for the others."""
        maps = self.index_maps
        if "preimage" not in maps:
            inverse = [-1] * len(all_subgroups(self.target).subgroups)
            for j, i in enumerate(self.image_indices()):
                inverse[i] = j
            maps["preimage"] = tuple(inverse)
        return maps["preimage"]

    def check(self) -> None:
        if len(set(self.images)) != self.source.order:
            raise GroupError("embedding is not injective")
        for a in range(self.source.order):
            for b in range(self.source.order):
                if self.images[self.source.mul(a, b)] != self.target.mul(
                    self.images[a], self.images[b]
                ):
                    raise GroupError("embedding is not a homomorphism")


@dataclass(frozen=True)
class GroupQuotient:
    """A surjection G -> G/N onto the quotient group or a copy of it, with
    coset projection; `preimage` gives the source-lattice index of the full
    preimage V of each target subgroup V/N, and both index maps read it."""

    source: FiniteGroup
    group: FiniteGroup
    projection: tuple[int, ...]
    kernel: tuple[int, ...]
    # the least element of each coset, by quotient element
    section: tuple[int, ...]
    preimage: tuple[int, ...]
    basis_images: dict = _cache_field()
    index_maps: dict = _cache_field()

    def image_members(self, members) -> tuple[int, ...]:
        return tuple(sorted(set(map(self.projection.__getitem__, members))))

    def preimage_members(self, members) -> tuple[int, ...]:
        wanted = set(members)
        return tuple(
            x for x in range(self.source.order) if self.projection[x] in wanted
        )

    def image_indices(self) -> tuple[int, ...]:
        """Target-lattice index of the image SN/N of each source subgroup S:
        the first preimage holding S, as the target lattice ascends by order."""
        maps = self.index_maps
        if "image" not in maps:
            below = all_subgroups(self.source).below
            image = [-1] * len(below)
            for j, v in enumerate(self.preimage):
                for s in below[v]:
                    if image[s] < 0:
                        image[s] = j
            maps["image"] = tuple(image)
        return maps["image"]

    def preimage_indices(self) -> tuple[int, ...]:
        """Source-lattice index of the full preimage V of each quotient subgroup V/N."""
        return self.preimage

    def compose(self, iso: "GroupIsomorphism") -> "GroupQuotient":
        """This quotient followed by an isomorphism of its group, each target
        subgroup's preimage V found by the mask of V's projected members."""
        if iso.source is not self.group:
            raise GroupError("the isomorphism does not start at the quotient group")
        proj = tuple(map(iso.images.__getitem__, self.projection))
        section = tuple(map(self.section.__getitem__, iso.inverse().images))
        subs, index = all_subgroups(self.source).subgroups, all_subgroups(iso.target)._index
        preimage = [-1] * len(self.preimage)
        for v in self.preimage:
            preimage[index[_mask_of(map(proj.__getitem__, subs[v].members))]] = v
        return GroupQuotient(self.source, iso.target, proj, self.kernel, section, tuple(preimage))


class GroupIsomorphism(GroupEmbedding):
    """A bijective embedding, with its inverse."""

    def inverse(self) -> "GroupIsomorphism":
        inv = [0] * len(self.images)
        for x, y in enumerate(self.images):
            inv[y] = x
        return GroupIsomorphism(self.target, self.source, tuple(inv))

    def check(self) -> None:
        if sorted(self.images) != list(range(self.target.order)):
            raise GroupError("isomorphism images are not a bijection")
        super().check()


def quotient(group: FiniteGroup, n_members) -> GroupQuotient:
    """Quotient by a normal subgroup; cosets indexed by order of first member.
    Raises `GroupError` when `n_members` is not a normal subgroup.  The
    quotient's lattice is read off the subgroups of `group` above N."""
    lat = all_subgroups(group)
    n_idx = lat.index_of(n_members)
    if n_idx not in lat.normal:
        raise GroupError("cannot form the quotient by a non-normal subgroup")
    n_members = lat.subgroups[n_idx].members
    rows = group._mul
    proj = [-1] * group.order
    reps: list[int] = []  # the first element of each coset is its least
    for g, row in enumerate(rows):
        if proj[g] >= 0:
            continue
        for x in n_members:
            proj[row[x]] = len(reps)
        reps.append(g)
    table = [[proj[rows[a][b]] for b in reps] for a in reps]
    q = FiniteGroup(table, label=f"{group.label}/N{len(n_members)}")
    section, keep = tuple(reps), lat.above[n_idx]
    q._lattice_source = (lat, keep, section)
    return GroupQuotient(group, q, tuple(proj), n_members, section, keep)


def subgroup_as_group(sub: Subgroup) -> GroupEmbedding:
    """The subgroup as a standalone group, with its inclusion embedding.
    Cached on the parent group by lattice index; its lattice, and so the
    embedding's image map, is read off the subgroups of the parent below H."""
    cache = sub.parent._subgroup_groups
    lat = all_subgroups(sub.parent)
    h_idx = lat.index_of(sub.members)
    hit = cache.get(h_idx)
    if hit is not None:
        return hit
    mem = lat.subgroups[h_idx].members
    pos = {x: i for i, x in enumerate(mem)}
    table = [[pos[sub.parent.mul(a, b)] for b in mem] for a in mem]
    h = FiniteGroup(table, label=f"{sub.parent.label}|{len(mem)}")
    h._lattice_source = (lat, lat.below[h_idx], mem)
    emb = GroupEmbedding(h, sub.parent, mem)
    emb.index_maps["image"] = lat.below[h_idx]
    cache[h_idx] = emb
    return emb


# ---------------------------------------------------------------------------
# Subgroup lattice


class SubgroupLattice:
    """All subgroups of a group, with containment, Moebius function and
    conjugacy classes.  Built once per group and cached on it: enumerated,
    or read off the parent's lattice for a quotient or subgroup; either way
    the rest is computed here from the subgroups, `below` and the
    conjugation table."""

    def __init__(self, group: FiniteGroup):
        self.group = group
        source, group._lattice_source = group._lattice_source, None
        members = _enumerate_subgroups(group) if source is None else self._derive(*source)
        self.subgroups = [Subgroup(group, m) for m in members]
        # sorted by order, so the whole group comes last
        self.top = len(members) - 1
        masks = self.masks = [_mask_of(m) for m in members]
        self._index = {m: i for i, m in enumerate(masks)}
        self._member_index = {m: i for i, m in enumerate(members)}
        if source is None:
            # sorted by order, so every subgroup of i has an index <= i
            self.below = [
                tuple(j for j in range(i + 1) if masks[j] & masks[i] == masks[j])
                for i in range(len(masks))
            ]
            self.conj_table = self._build_conj_table()
        n = len(self.subgroups)
        # below[i] is ascending, so each above[j] is too
        above: list[list[int]] = [[] for _ in range(n)]
        for i, down in enumerate(self.below):
            for j in down:
                above[j].append(i)
        self.above = [tuple(up) for up in above]
        self.class_reps, self.class_of, self.normal = self._build_classes()
        self._normalizers: list = [None] * n
        self._moebius_columns: list = [None] * n
        # {(s, n, t): constant}, filled by `constants.deflation_constant_at`
        self._deflation_constants: dict = {}

    # -- construction ------------------------------------------------------

    def _derive(self, parent: "SubgroupLattice", keep, reps) -> list[tuple[int, ...]]:
        """Fill `below` and `conj_table` from the parent's and return the
        member tuples of the subgroups.

        The subgroups of G/N are those of G above N and the subgroups of H
        those of G below H; `keep` lists them ascending and element k stands
        for parent element reps[k] (the least of its coset, or mem[k]).
        Kept in parent order, they are already sorted by (order, members):
        reps is ascending, so member tuples compare as the parent's do."""
        at = {p: a for a, p in enumerate(keep)}
        self.below = [tuple(at[j] for j in parent.below[p] if j in at) for p in keep]
        rows = parent.conj_table
        self.conj_table = [[at[rows[x][p]] for p in keep] for x in reps]
        pmasks = parent.masks
        return [tuple(k for k, x in enumerate(reps) if pmasks[p] >> x & 1) for p in keep]

    def _build_conj_table(self) -> list[list[int]]:
        # conjugation by e*z is conjugation by e for central z, so the
        # elements of one coset of the centre share one row
        g = self.group
        centre = g.center_members()
        table: list = [None] * g.order
        for e in range(g.order):
            if table[e] is not None:
                continue
            row = []
            for s in self.subgroups:
                m = 0
                for x in s.members:
                    m |= 1 << g.conj(e, x)
                row.append(self._index[m])
            for z in centre:
                table[g._mul[e][z]] = row
        return table

    def _build_classes(self):
        # a subgroup is normal exactly when its class has one member
        n = len(self.subgroups)
        class_of = [-1] * n
        reps = []
        normal = []
        for i in range(n):
            if class_of[i] >= 0:
                continue
            orbit = {row[i] for row in self.conj_table}
            if len(orbit) == 1:
                normal.append(i)
            cls = len(reps)
            reps.append(min(orbit))
            for j in orbit:
                class_of[j] = cls
        return tuple(reps), tuple(class_of), tuple(normal)

    # -- queries -----------------------------------------------------------

    def index_of(self, members) -> int:
        """The index of the subgroup with these members, by one lookup of
        its sorted member tuple: `members` itself when it is the lattice's
        own tuple, else sorted from it.  Raises `GroupError` when they are
        not a subgroup, a member outside the group included."""
        index = self._member_index
        i = index.get(members) if type(members) is tuple else None
        if i is None:
            i = index.get(tuple(sorted(set(members))))
            if i is None:
                raise GroupError("not a subgroup of this group")
        return i

    def contains_pair(self, i: int, j: int) -> bool:
        """True when subgroup i is contained in subgroup j."""
        return self.masks[i] & self.masks[j] == self.masks[i]

    def join(self, i: int, j: int) -> int:
        """Index of the subgroup generated by subgroups i and j: above[i] is
        ascending by order, so the first entry containing j is the least."""
        mj = self.masks[j]
        return next(v for v in self.above[i] if self.masks[v] & mj == mj)

    def normalizer_mask(self, i: int) -> int:
        """N_G(H_i) as an element bitmask, counted once from column i of the
        conjugation table."""
        nm = self._normalizers
        if nm[i] is None:
            nm[i] = _mask_of(g for g, row in enumerate(self.conj_table) if row[i] == i)
        return nm[i]

    def moebius_column(self, v: int) -> dict[int, int]:
        """{u: moebius(U, V)} over every subgroup U of V, filled once from the
        top down: moebius(U, V) is minus the sum over U < W <= V, read off
        above[u] up to v (ascending; U itself is not in the column yet)."""
        cols = self._moebius_columns
        if cols[v] is None:
            col = {v: 1}
            for u in reversed(self.below[v][:-1]):
                col[u] = -sum(col.get(w, 0) for w in takewhile(v.__ge__, self.above[u]))
            cols[v] = col
        return cols[v]

    def moebius(self, u: int, v: int) -> int:
        mu = self.moebius_column(v).get(u) if v in range(len(self.subgroups)) else None
        if mu is None:
            raise GroupError("moebius requires contained subgroup pair")
        return mu

    @cached_property
    def minimal_normal(self) -> tuple[int, ...]:
        """The minimal normal subgroups, ascending: the nontrivial normal
        subgroups with no normal subgroup strictly between them and 1."""
        normal = set(self.normal)
        # below[i] runs from the trivial subgroup up to i itself
        return tuple(
            i for i in self.normal[1:] if not any(j in normal for j in self.below[i][1:-1])
        )

    @cached_property
    def cyclic(self) -> frozenset[int]:
        """Indices of the cyclic subgroups: those that hold an element of
        their own order."""
        orders = self.group._element_orders()
        return frozenset(
            i for i, h in enumerate(self.subgroups) if any(orders[x] == len(h) for x in h.members)
        )

    def maximal_indices(self) -> tuple[int, ...]:
        top = self.top
        return tuple(i for i in range(top) if self.above[i] == (i, top))

    def frattini_index(self) -> int:
        mask = self.masks[self.top]
        for i in self.maximal_indices():
            mask &= self.masks[i]
        return self._index[mask]


def _extend_mask(group: FiniteGroup, a_members, gens) -> int:
    # <A, gens>, gens holding A's generators, as a union of right cosets A*y
    # (left-A-invariant, so closed once each rep times each generator is in it)
    rows = [group._mul[a] for a in a_members]
    mask, reps = _mask_of(a_members), [group.identity]
    for r in reps:
        row = group._mul[r]
        for g in gens:
            y = row[g]
            if not mask >> y & 1:
                for ra in rows:
                    mask |= 1 << ra[y]
                reps.append(y)
    return mask


def _enumerate_subgroups(group: FiniteGroup) -> list[tuple[int, ...]]:
    # Cyclic extension (Neubueser): the cyclic subgroups, each walked as the
    # powers of its least generator x, which marks every generator x^k,
    # gcd(k, |x|) = 1, so no later element finds it again.  Then each
    # nontrivial subgroup A of the last round (those of 1 are the cyclic
    # subgroups) is extended by every <x> it does not contain, skipping an x
    # in an extension of prime index over A already found: <A, x> is that
    # extension (Lagrange).  When |G| = p^a q^b, G is solvable (Burnside),
    # and so is each subgroup H: it has a series 1 < H_1 < ... < H with each
    # H_i normal in the next and cyclic factors, so H_{i+1} = <H_i, x> for a
    # cyclic representative x normalizing H_i.  There only such x are tried:
    # A inside C_G(x) by one mask test, else x conjugating A's recorded
    # generators into A.  Each subgroup is extended in exactly one round, so
    # its members are read once.
    n, rows, inv, e = group.order, group._mul, group._inv, group.identity
    found: dict[int, tuple[int, ...]] = {1 << e: ()}
    reps: list[int] = []
    generates = bytearray(n)
    generates[e] = 1
    for x in range(n):
        if generates[x]:
            continue
        powers, row = [x], rows[x]
        while powers[-1] != e:
            powers.append(row[powers[-1]])
        k = len(powers)
        for i, y in enumerate(powers, 1):
            if gcd(i, k) == 1:
                generates[y] = 1
        found[_mask_of(powers)] = (x,)
        reps.append(x)
    if sum(1 for p in range(2, n + 1) if n % p == 0 and _is_prime(p)) <= 2:
        # C_G(x): every A inside it is normalized by x without a conjugation
        commuting = {x: _mask_of(y for y in range(n) if rows[x][y] == rows[y][x]) for x in reps}
    else:
        # not known solvable: the whole group, so every extension is tried
        commuting = dict.fromkeys(reps, (1 << n) - 1)
    reps_mask = _mask_of(reps)
    members: list[tuple[int, ...]] = []
    new_masks = list(found)
    while new_masks:
        batch = []
        for ma in new_masks:
            a_members, a_gens = _members_of(ma), found[ma]
            members.append(a_members)
            # the representatives outside A and outside every prime-index
            # extension found so far, least first
            todo = reps_mask & ~ma if a_gens else 0
            while todo:
                low = todo & -todo
                todo ^= low
                x = low.bit_length() - 1
                if ma & commuting[x] != ma:
                    row, x_inv = rows[x], inv[x]
                    if any(not ma >> rows[row[a]][x_inv] & 1 for a in a_gens):
                        continue
                gens = a_gens + (x,)
                m = _extend_mask(group, a_members, gens)
                if _is_prime(m.bit_count() // len(a_members)):
                    todo &= ~m
                if m not in found:
                    found[m] = gens
                    batch.append(m)
        new_masks = batch
    return sorted(members, key=lambda m: (len(m), m))


def all_subgroups(group: FiniteGroup) -> SubgroupLattice:
    if group._lattice is None:
        group._lattice = SubgroupLattice(group)
    return group._lattice


def frattini(group: FiniteGroup) -> Subgroup:
    lat = all_subgroups(group)
    return lat.subgroups[lat.frattini_index()]


# ---------------------------------------------------------------------------
# Isomorphism testing


def _invariant_profile(group: FiniteGroup):
    return group.order, tuple(sorted(group._element_keys()))


def _commutator(group: FiniteGroup, a: int, b: int) -> int:
    m, inv = group._mul, group._inv
    return m[m[m[a][b]][inv[a]]][inv[b]]


def _hom_from_generator_images(
    g: FiniteGroup, h: FiniteGroup, gens: tuple[int, ...], images: list[int]
) -> tuple[int, ...] | None:
    """Extend generator images to a homomorphism on <gens>, or None if the
    assignment is inconsistent.  Returns the image of every element of g
    that lies in the generated subgroup (others map to -1)."""
    img = [-1] * g.order
    img[g.identity] = h.identity
    frontier = [g.identity]
    while frontier:
        nxt = []
        for a in frontier:
            ia = img[a]
            for x, y in zip(gens, images):
                b = g.mul(a, x)
                ib = h.mul(ia, y)
                if img[b] == -1:
                    img[b] = ib
                    nxt.append(b)
                elif img[b] != ib:
                    return None
        frontier = nxt
    return tuple(img)


def _iso_search(g: FiniteGroup, h: FiniteGroup, prefix=()) -> tuple[int, ...] | None:
    """The first isomorphism g -> h, as an image tuple, that sends generator
    i to prefix[i] for each i < len(prefix), depth first over generator
    images in index order.  Candidates are pruned only by conditions every
    isomorphism meets (element keys, commutators with earlier generators),
    so the witness found does not depend on the pruning."""
    gens = g.generators()
    if not gens:
        return (h.identity,) if h.order == 1 else None
    g_keys = g._element_keys()
    by_key: dict[tuple[int, int, int], list[int]] = {}
    for y, key in enumerate(h._element_keys()):
        by_key.setdefault(key, []).append(y)

    def extend(level: int, images: list[int], img: tuple[int, ...]):
        # img maps <gens[:level]>; at the last level that is all of g
        if level == len(gens):
            return img
        x = gens[level]
        checks = [(images[i], img[_commutator(g, gens[i], x)]) for i in range(level)]
        checks = [(a, c) for a, c in checks if c != -1]
        candidates = [prefix[level]] if level < len(prefix) else by_key.get(g_keys[x], [])
        for y in candidates:
            if any(_commutator(h, a, y) != c for a, c in checks):
                continue
            partial = _hom_from_generator_images(
                g, h, gens[: level + 1], images + [y]
            )
            if partial is None:
                continue
            # partial map must stay injective on its domain
            vals = [v for v in partial if v != -1]
            if len(vals) != len(set(vals)):
                continue
            found = extend(level + 1, images + [y], partial)
            if found is not None:
                return found
        return None

    return extend(0, [], ())


def find_isomorphism(g: FiniteGroup, h: FiniteGroup) -> GroupIsomorphism | None:
    """An explicit isomorphism g -> h, or None."""
    if _invariant_profile(g) != _invariant_profile(h):
        return None
    found = _iso_search(g, h)
    return None if found is None else GroupIsomorphism(g, h, found)


def is_isomorphic(g: FiniteGroup, h: FiniteGroup) -> bool:
    return find_isomorphism(g, h) is not None


def permutation_orbit(point: int, perms) -> list[int]:
    """The orbit of `point` under the group that the image tuples `perms`
    generate, in order of discovery (finite, so no inverses are needed)."""
    orbit, seen = [point], {point}
    for x in orbit:
        for perm in perms:
            y = perm[x]
            if y not in seen:
                seen.add(y)
                orbit.append(y)
    return orbit


def automorphism_generators(group: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """A strong generating set of Aut(G) along the generators x_0, x_1, ...
    of `group.generators()` (Sims), as image tuples.  Deepest level first,
    level i adds one automorphism fixing x_0..x_{i-1} for each image of x_i
    outside the orbit of x_i under the generators found so far.  So the ones
    fixing x_0..x_{i-1} generate that stabiliser, and |Aut(G)| is the
    product over i of the orbit lengths of x_i under them."""
    gens, keys = group.generators(), group._element_keys()
    found: list[tuple[int, ...]] = []
    for i, x in reversed(list(enumerate(gens))):
        reached = set(permutation_orbit(x, found))
        for y in range(group.order):
            if y in reached or keys[y] != keys[x]:
                continue
            aut = _iso_search(group, group, gens[:i] + (y,))
            if aut is not None:
                found.append(aut)
                reached = set(permutation_orbit(x, found))
    return tuple(found)


def automorphisms(group: FiniteGroup) -> list[tuple[int, ...]]:
    """Every automorphism, as an image tuple: the closure of
    `automorphism_generators`, sorted by the images of `group.generators()`
    (depth-first search order).  Built afresh on each call; meant for small
    groups, and called only by the tests and the benchmark."""
    # an automorphism is fixed by its generator images, so key on them
    gens, perms = group.generators(), automorphism_generators(group)
    perm_gens = [tuple(perm[x] for x in gens) for perm in perms]
    found = {gens: tuple(range(group.order))}
    queue = list(found.values())
    for a in queue:
        for perm, images in zip(perms, perm_gens):
            key = tuple(map(a.__getitem__, images))
            if key not in found:
                found[key] = b = tuple(map(a.__getitem__, perm))
                queue.append(b)
    return [found[key] for key in sorted(found)]


# ---------------------------------------------------------------------------
# Constructors


def cyclic_group(n: int) -> FiniteGroup:
    if n <= 0:
        raise GroupError("cyclic group needs a positive order")
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    return FiniteGroup(table, f"C{n}")


def direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    # (x, y) is x*m + y; the row of (x, y) pairs row x of a with row y of b
    m = b.order
    table = [[i * m + j for i in ra for j in rb] for ra in a._mul for rb in b._mul]
    return FiniteGroup(table, f"{a.label}x{b.label}")


def abelian_group(factors) -> FiniteGroup:
    factors = [int(f) for f in factors]
    if not factors or any(f <= 0 for f in factors):
        raise GroupError("abelian factors must be positive")
    g = cyclic_group(factors[0])
    for f in factors[1:]:
        g = direct_product(g, cyclic_group(f))
    g.label = "x".join(f"C{f}" for f in factors)
    return g


def elementary_abelian(p: int, k: int) -> FiniteGroup:
    if not _is_prime(p):
        raise GroupError("elementary abelian base must be prime")
    if k < 0:
        raise GroupError("elementary abelian rank must be nonnegative")
    if k == 0:
        return cyclic_group(1)
    g = abelian_group([p] * k)
    g.label = f"E{p}^{k}"
    return g


def dihedral_group(total_order: int) -> FiniteGroup:
    """Dihedral group of the given total order 2n (n >= 1)."""
    if total_order <= 0 or total_order % 2 != 0:
        raise GroupError("dihedral total order must be a positive even number")
    n = total_order // 2
    # element i + n*j  <->  r^i s^j with s r s = r^-1
    def mul(x, y):
        i1, j1 = x % n, x // n
        i2, j2 = y % n, y // n
        if j1 == 0:
            return (i1 + i2) % n + n * j2
        return (i1 - i2) % n + n * (1 - j2)

    table = [[mul(x, y) for y in range(total_order)] for x in range(total_order)]
    return FiniteGroup(table, f"D{total_order}")


def modular_group_p3(p: int) -> FiniteGroup:
    """The order p^3 group <a,b | a^(p^2)=b^p=1, b a b^-1 = a^(1+p)>."""
    if not _is_prime(p):
        raise GroupError("parameter must be prime")
    p2 = p * p
    # element i + p^2*j <-> a^i b^j ;  b^j a^i = a^(i*(1+p)^j) b^j
    def mul(x, y):
        i1, j1 = x % p2, x // p2
        i2, j2 = y % p2, y // p2
        twist = pow(1 + p, j1, p2)
        return (i1 + i2 * twist) % p2 + p2 * ((j1 + j2) % p)

    n = p2 * p
    table = [[mul(x, y) for y in range(n)] for x in range(n)]
    return FiniteGroup(table, f"M{p**3}")


def heisenberg_group_p3(p: int) -> FiniteGroup:
    """Upper unitriangular 3x3 matrices over the p-element field."""
    if not _is_prime(p):
        raise GroupError("parameter must be prime")
    # element (a, b, c) -> a + p*b + p^2*c : matrix with upper entries a, c, b
    def mul(x, y):
        a1, b1, c1 = x % p, (x // p) % p, x // (p * p)
        a2, b2, c2 = y % p, (y // p) % p, y // (p * p)
        return (
            (a1 + a2) % p
            + p * ((b1 + b2 + a1 * c2) % p)
            + p * p * ((c1 + c2) % p)
        )

    n = p**3
    table = [[mul(x, y) for y in range(n)] for x in range(n)]
    return FiniteGroup(table, f"H{p**3}")


def quaternion_group() -> FiniteGroup:
    """The quaternion group of order 8, from its regular permutation action."""
    g = from_permutation_generators(
        [
            [(0, 1, 2, 3), (4, 5, 6, 7)],
            [(0, 4, 2, 6), (1, 7, 3, 5)],
        ]
    )
    g.label = "Q8"
    return g


def from_permutation_generators(gens, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Close a list of permutations under composition.

    Each generator is a list of disjoint cycles (tuples of point indices);
    a bare tuple of ints is accepted as a one-cycle generator.  Element
    indices follow breadth-first discovery from the identity, generators
    applied in the given order.
    """
    cycle_lists = [_normalize_cycles(g) for g in gens]
    points = sorted({x for cycles in cycle_lists for cyc in cycles for x in cyc})
    if points and points[0] < 0:
        raise GroupError("permutation points must be nonnegative")
    # Only the named points move.  Relabelling them 0..k-1 in order keeps
    # memory independent of the largest label and leaves the table unchanged.
    label = {x: i for i, x in enumerate(points)}
    npts = len(points)
    perms = []
    for cycles in cycle_lists:
        perm = list(range(npts))
        for cyc in cycles:
            if len(set(cyc)) != len(cyc):
                raise GroupError(f"cycle {cyc} repeats a point")
            moved = [label[x] for x in cyc]
            for i, x in enumerate(moved):
                perm[x] = moved[(i + 1) % len(moved)]
        if sorted(perm) != list(range(npts)):
            raise GroupError("generator cycles are not disjoint")
        perms.append(tuple(perm))
    ident = tuple(range(npts))
    elems = [ident]
    index = {ident: 0}
    queue = [ident]
    while queue:
        cur = queue.pop(0)
        for perm in perms:
            new = tuple(perm[cur[i]] for i in range(npts))
            if new not in index:
                if len(elems) >= order_cap:
                    raise OrderCapError(f"permutation closure exceeds cap {order_cap}")
                index[new] = len(elems)
                elems.append(new)
                queue.append(new)
    table = []
    for a in elems:
        row = []
        for b in elems:
            row.append(index[tuple(a[b[i]] for i in range(npts))])
        table.append(row)
    return FiniteGroup(table, label=f"Perm{len(elems)}")


def _normalize_cycles(cycles):
    if not cycles:
        return []
    if isinstance(cycles[0], int):
        return [tuple(cycles)]
    return [tuple(c) for c in cycles]


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------
# Group-spec mini-grammar
#
#   cyclic:N | elab:P^K | abelian:N1xN2x... | dihedral:N | mod:P | heis:P |
#   perm:<cycles> | A * B   (direct product, left associative)

_PERM_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def group_from_spec(spec: str, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Build a named group from a spec string; see the module grammar."""
    parts = [p.strip() for p in spec.split("*")]
    if any(not p for p in parts):
        raise SpecParseError(f"empty factor in spec {spec!r}")
    groups = [_atom_from_spec(p, order_cap) for p in parts]
    g = groups[0]
    for h in groups[1:]:
        if g.order * h.order > order_cap:
            raise OrderCapError(f"product order {g.order * h.order} exceeds cap {order_cap}")
        g = direct_product(g, h)
    if len(groups) > 1:
        g.label = " * ".join(h.label for h in groups)
    return g


def _atom_from_spec(spec: str, order_cap: int) -> FiniteGroup:
    if ":" not in spec:
        raise SpecParseError(f"missing ':' in group spec {spec!r}")
    kind, _, arg = spec.partition(":")
    if kind == "cyclic":
        n = _parse_int(arg, spec)
        _check_cap((n,), order_cap)
        return cyclic_group(n)
    if kind == "elab":
        m = re.fullmatch(r"(\d+)\^(\d+)", arg.strip())
        if not m:
            raise SpecParseError(f"elab expects P^K, got {arg!r}")
        p, k = int(m.group(1)), int(m.group(2))
        # past this many factors P**K exceeds the cap for P >= 2, or stays P
        _check_cap([p] * min(k, order_cap.bit_length() + 1), order_cap)
        return elementary_abelian(p, k)
    if kind == "abelian":
        factors = [_parse_int(f, spec) for f in arg.split("x")]
        _check_cap(factors, order_cap)
        return abelian_group(factors)
    if kind == "dihedral":
        n = _parse_int(arg, spec)
        _check_cap((n,), order_cap)
        return dihedral_group(n)
    if kind == "mod":
        p = _parse_int(arg, spec)
        _check_cap((p, p, p), order_cap)
        return modular_group_p3(p)
    if kind == "heis":
        p = _parse_int(arg, spec)
        _check_cap((p, p, p), order_cap)
        return heisenberg_group_p3(p)
    if kind == "perm":
        gens = _parse_perm_arg(arg, spec)
        return from_permutation_generators(gens, order_cap=order_cap)
    raise SpecParseError(f"unknown group constructor {kind!r}")


def _parse_perm_arg(arg: str, spec: str):
    if not arg.strip():
        return []
    gens = []
    for gen_text in arg.split(","):
        gen_text = gen_text.strip()
        if not gen_text:
            raise SpecParseError(f"empty permutation generator in {spec!r}")
        if _PERM_CYCLE_RE.sub("", gen_text).strip():
            raise SpecParseError(f"bad cycle notation {gen_text!r} in {spec!r}")
        cycles = []
        for m in _PERM_CYCLE_RE.finditer(gen_text):
            body = m.group(1).split()
            if body:
                cycles.append(tuple(_parse_int(x, spec) for x in body))
        gens.append(cycles)
    return gens


def _parse_int(text: str, spec: str) -> int:
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        # past the interpreter's digit limit, far past any order cap: echo none of it
        if text.isdecimal():
            raise SpecParseError(f"integer of {len(text)} digits is too long") from None
        raise SpecParseError(f"expected an integer in {spec!r}, got {text!r}") from None


def _check_cap(factors, cap: int) -> None:
    # no product past the cap is formed, nor an order printed (too long for str)
    total = 1
    for f in factors:
        total *= f
        if total > cap:
            raise OrderCapError(f"order exceeds cap {cap}")
