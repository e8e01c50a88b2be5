"""The slice Burnside ring of a finite group, over exact rationals.

The ring is free on conjugacy classes of slices (T, S) with S <= T <= G; the
class of (T, S) is realised by the coset projection G/S -> G/T.  Marks are
computed in closed form from the subgroup lattice and kept only as sparse
columns.  The primitive idempotents xi_r are the dual basis of the mark rows
(Bouc), so x*y = sum_r m_r(x) m_r(y) xi_r and no product is stored.
Restriction sums over the conjugate pairs of a class (`orbits`) in one
kernel `orbit_sum`.  `projection` (the `gsets.canonical_projection` of a
class representative, kept per class) and `morphism_to_ring` only feed the
G-set oracles of `verify`.  Elements store integer numerators over one
common denominator; marks and `coeffs` are `fractions.Fraction`s, never
floats; a coefficient or scalar that is not a `numbers.Rational` is refused.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from numbers import Rational

from .groups import FiniteGroup, GroupError, all_subgroups
from . import gsets

# most marks are zero; Fractions are immutable, so one zero serves them all
_ZERO = Fraction(0)


class SliceClassTable:
    """Conjugacy classes of slices of one group, with frozen class indexing.

    Ring elements are only combinable when they share a table object,
    which pins down class indices, labels and caches.
    """

    def __init__(self, group: FiniteGroup):
        self.group = group
        self.lattice = all_subgroups(group)
        lat = self.lattice
        nsub = len(lat.subgroups)
        class_of: dict[tuple[int, int], int] = {}
        reps: list[tuple[int, int]] = []
        orbits: list[tuple[tuple[int, int], ...]] = []
        # pairs come in ascending order, so each orbit is met at its least pair
        for t in range(nsub):
            for s in lat.below[t]:
                if (t, s) in class_of:
                    continue
                orbit = tuple({(row[t], row[s]) for row in lat.conj_table})
                cls = len(reps)
                reps.append((t, s))
                orbits.append(orbit)
                for q in orbit:
                    class_of[q] = cls
        self.reps = tuple(reps)
        self.class_of = class_of
        # the conjugate (t, s) index pairs of each class
        self.orbits = tuple(orbits)
        self.class_sizes = tuple(len(o) for o in orbits)
        self.size = len(reps)
        self._projections: dict[int, gsets.GSetMorphism] = {}
        self._mark_columns: list[dict[int, int]] | None = None
        self._idempotents: list[SliceRingElement | None] = [None] * len(reps)
        # elements are immutable, so one zero serves every caller
        self._zero = _element(self, 1, {})

    # -- naming ------------------------------------------------------------

    def rep_subgroups(self, cls: int):
        t, s = self.reps[self._require_class(cls)]
        return self.lattice.subgroups[t], self.lattice.subgroups[s]

    def label(self, cls: int) -> str:
        big, small = self.rep_subgroups(cls)
        t = ".".join(str(x) for x in big.members)
        s = ".".join(str(x) for x in small.members)
        return f"(T={t}|S={s})"

    def class_index(self, t_members, s_members) -> int:
        lat = self.lattice
        t = lat.index_of(t_members)
        s = lat.index_of(s_members)
        try:
            return self.class_of[t, s]
        except KeyError:
            raise GroupError("not a slice: the pair is not nested") from None

    def _require_class(self, cls: int) -> int:
        if cls not in range(self.size):
            raise GroupError(f"no slice class {cls!r}: the table has {self.size}")
        return cls

    # -- elements ------------------------------------------------------------

    def zero(self) -> "SliceRingElement":
        return self._zero

    def basis_element(self, cls: int) -> "SliceRingElement":
        return _element(self, 1, {self._require_class(cls): 1})

    def one(self) -> "SliceRingElement":
        top = self.lattice.top
        return self.basis_element(self.class_of[top, top])

    def element_from_pairs(self, pairs) -> "SliceRingElement":
        """Sum of basis classes for (t_members, s_members) pairs."""
        counts: dict[int, int] = {}
        for t_members, s_members in pairs:
            cls = self.class_index(t_members, s_members)
            counts[cls] = counts.get(cls, 0) + 1
        return _element(self, 1, counts)

    # -- coset machinery -----------------------------------------------------

    def projection(self, cls: int) -> gsets.GSetMorphism:
        """The canonical projection G/S -> G/T of the class representative."""
        f = self._projections.get(cls)
        if f is None:
            big, small = self.rep_subgroups(cls)
            f = gsets.canonical_projection(self.group, small.members, big.members)
            self._projections[cls] = f
        return f

    # -- marks ----------------------------------------------------------------

    def mark_columns(self) -> list[dict[int, int]]:
        """Nonzero marks of each column (V,U) as a {row (T,S): mark} dict.

        Closed form (Bouc): the mark of (V,U) at (T,S) is the number of
        cosets gU with S <= gU and T <= gV, i.e. the number of g with both
        inclusions, divided by |U|.  One pass over `class_of` visits every
        conjugate of every column.  `verify.oracle_marks` is the oracle.
        """
        if self._mark_columns is None:
            lat = self.lattice
            masks = lat.masks
            rows_by_t: dict[int, list[tuple[int, int]]] = {}
            for r, (t, s) in enumerate(self.reps):
                rows_by_t.setdefault(t, []).append((masks[s], r))
            columns: list[dict[int, int]] = [{} for _ in range(self.size)]
            for (v, u), c in self.class_of.items():
                mu = masks[u]
                hits = columns[c]
                for t in lat.below[v]:
                    for ms, r in rows_by_t.get(t, ()):
                        if ms & mu == ms:
                            hits[r] = hits.get(r, 0) + 1
            for c, (_, u) in enumerate(self.reps):
                # each conjugate pair is hit by |N_G(V,U)| elements g
                weight = self.group.order // self.class_sizes[c] // len(lat.subgroups[u])
                hits = columns[c]
                for r in hits:
                    hits[r] *= weight
            self._mark_columns = columns
        return self._mark_columns

    def mark_matrix(self) -> list[list[int]]:
        """Dense integer matrix of marks, row (T,S), column (V,U), filled
        from `mark_columns` on each call."""
        matrix = [[0] * self.size for _ in range(self.size)]
        for c, column in enumerate(self.mark_columns()):
            for r, m in column.items():
                matrix[r][c] = m
        return matrix

    # -- restriction and products ----------------------------------------------

    def orbit_sum(self, t: int, s: int, j: int, key) -> dict[int, int]:
        """The sum over the conjugate pairs (T', S') of class j of
        |G| |S & S'| / (c_j |S| |S_j|) [key(T & T', S & S')], for lattice
        indices t, s and a `key` from index pairs to output classes.

        Each conjugate pair is hit by |G| / c_j elements g, so this is the
        sum over the double cosets S g S_j of [T & gT_j, S & gS_j]: every
        multiplicity is a whole number, and a remainder is an enumeration bug."""
        lat = self.lattice
        masks, index = lat.masks, lat._index
        mt, ms = masks[t], masks[s]
        weights: dict[int, int] = {}
        for tj, sj in self.orbits[j]:
            inter = ms & masks[sj]
            cls = key(index[mt & masks[tj]], index[inter])
            weights[cls] = weights.get(cls, 0) + inter.bit_count()
        order = self.group.order
        den = self.class_sizes[j] * ms.bit_count() * len(lat.subgroups[self.reps[j][1]])
        out = {}
        for cls, w in weights.items():
            count, rem = divmod(w * order, den)
            if rem:
                raise GroupError("orbit sum is not a whole multiplicity; enumeration bug")
            out[cls] = count
        return out

    def basis_mul(self, i: int, j: int) -> dict[int, int]:
        """e_i * e_j as a {class: multiplicity} dict; a fraction is a bug and raises."""
        prod = self.basis_element(i) * self.basis_element(j)
        if prod.denominator != 1:
            raise GroupError("basis product is not a whole multiplicity; ghost product bug")
        return prod.numerators

    # -- idempotents -------------------------------------------------------------

    def idempotent(self, cls: int) -> "SliceRingElement":
        """The primitive idempotent whose mark vector is the class indicator."""
        hit = self._idempotents[self._require_class(cls)]
        if hit is not None:
            return hit
        lat = self.lattice
        t, s = self.reps[cls]
        mu_s, mu_t = lat.moebius_column(s), lat.moebius_column(t)
        # integer sums over the denominator |N_G(T,S)| = |G| / class size
        acc: dict[int, int] = {}
        for u in lat.below[s]:
            wu = len(lat.subgroups[u]) * mu_s[u]
            if wu == 0:
                continue
            for v in lat.above[s]:
                # mu_t holds exactly the subgroups of T
                wv = mu_t.get(v, 0)
                if wv == 0:
                    continue
                key = self.class_of[v, u]
                acc[key] = acc.get(key, 0) + wu * wv
        out = _element(self, self.group.order // self.class_sizes[cls], acc)
        self._idempotents[cls] = out
        return out

    def idempotents(self) -> list["SliceRingElement"]:
        return [self.idempotent(c) for c in range(self.size)]


def slice_classes(group: FiniteGroup) -> SliceClassTable:
    """The (cached) slice class table of a group."""
    if group._slice_table is None:
        group._slice_table = SliceClassTable(group)
    return group._slice_table


class SliceRingElement:
    """An exact rational combination of slice classes of one group, stored as
    integer numerators over one positive denominator in lowest terms, so equal
    elements are stored alike.  `coeffs` is a {class: Fraction} output view."""

    __slots__ = ("table", "denominator", "numerators")

    def __init__(self, table: SliceClassTable, coeffs: dict[int, Fraction]):
        qs = {c: q for c, x in coeffs.items() if (q := _rational(x))}
        den = lcm(*(q.denominator for q in qs.values()))
        self.table = table
        self.denominator = den
        # reduced fractions over the lcm of their denominators share no factor
        self.numerators = {c: q.numerator * (den // q.denominator) for c, q in qs.items()}

    @property
    def coeffs(self) -> dict[int, Fraction]:
        den = self.denominator
        return {c: Fraction(n, den) for c, n in self.numerators.items()}

    def _require_same_table(self, other: "SliceRingElement") -> None:
        if self.table is not other.table:
            raise GroupError("elements live over different slice tables")

    def __add__(self, other: "SliceRingElement") -> "SliceRingElement":
        self._require_same_table(other)
        g = gcd(self.denominator, other.denominator)
        fa, fb = other.denominator // g, self.denominator // g
        out = {c: n * fa for c, n in self.numerators.items()}
        for c, n in other.numerators.items():
            out[c] = out.get(c, 0) + n * fb
        return _element(self.table, self.denominator * fa, out)

    def __sub__(self, other: "SliceRingElement") -> "SliceRingElement":
        return self + -other

    def __neg__(self) -> "SliceRingElement":
        return _element(self.table, self.denominator, {c: -n for c, n in self.numerators.items()})

    def scaled(self, scalar) -> "SliceRingElement":
        s = _rational(scalar)
        nums = {c: n * s.numerator for c, n in self.numerators.items()}
        return _element(self.table, self.denominator * s.denominator, nums)

    def __mul__(self, other: "SliceRingElement") -> "SliceRingElement":
        """sum_r m_r(x) m_r(y) xi_r; each xi_r's denominator divides |G|."""
        self._require_same_table(other)
        table, order = self.table, self.table.group.order
        xs = self._marks()
        acc: dict[int, int] = {}
        for r, y in other._marks(xs.keys()).items():
            if w := xs[r] * y:
                xi = table.idempotent(r)
                w *= order // xi.denominator
                for c, n in xi.numerators.items():
                    acc[c] = acc.get(c, 0) + w * n
        return _element(table, self.denominator * other.denominator * order, acc)

    def linear_image(self, out_table: SliceClassTable, basis_images) -> "SliceRingElement":
        """The image under the linear map that sends each class c of the support
        to `basis_images[c]`, a {class: multiplicity} dict over `out_table`."""
        acc: dict[int, int] = {}
        for cls, n in self.numerators.items():
            for c, m in basis_images[cls].items():
                acc[c] = acc.get(c, 0) + n * m
        return _element(out_table, self.denominator, acc)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SliceRingElement)
            and self.table is other.table
            and self.denominator == other.denominator
            and self.numerators == other.numerators
        )

    def __hash__(self):
        return hash((id(self.table), self.denominator, frozenset(self.numerators.items())))

    def is_zero(self) -> bool:
        return not self.numerators

    def _marks(self, rows=None) -> dict[int, int]:
        """Integer mark numerators over `denominator`, only at `rows` if given."""
        columns = self.table.mark_columns()
        acc: dict[int, int] = {}
        for c, n in self.numerators.items():
            column = columns[c]
            for r in column if rows is None else column.keys() & rows:
                acc[r] = acc.get(r, 0) + n * column[r]
        return acc

    def mark(self, cls: int) -> Fraction:
        return Fraction(self._marks({self.table._require_class(cls)}).get(cls, 0), self.denominator)

    def mark_vector(self) -> tuple[Fraction, ...]:
        vector, den = [_ZERO] * self.table.size, self.denominator
        for r, v in self._marks().items():
            vector[r] = Fraction(v, den) if v else _ZERO
        return tuple(vector)

    def __repr__(self) -> str:
        coeffs = self.coeffs
        if not coeffs:
            return "0"
        return " + ".join(f"{coeffs[c]}*{self.table.label(c)}" for c in sorted(coeffs))


def _rational(q) -> Fraction:
    """`q` as a `Fraction`; a float, string or other non-`Rational` value,
    zero or not, raises `TypeError`."""
    if not isinstance(q, Rational):
        raise TypeError(f"ring coefficients must be rational, got {type(q).__name__}")
    return Fraction(q)


def _element(table: SliceClassTable, den: int, nums: dict[int, int]) -> SliceRingElement:
    """The element with coefficients nums[c] / den for a positive `den`:
    zeros are dropped and the common factor is divided out."""
    g = gcd(den, *nums.values())
    elem = SliceRingElement.__new__(SliceRingElement)
    elem.table = table
    elem.denominator = den // g
    elem.numerators = {c: n // g for c, n in nums.items() if n}
    return elem


def morphism_to_ring(f: gsets.GSetMorphism, table: SliceClassTable) -> SliceRingElement:
    """Orbitwise decomposition of an equivariant map into slice classes."""
    if f.group is not table.group:
        raise GroupError("morphism and table have different groups")
    f.check_on_generators()
    return table.element_from_pairs(gsets.stabilizer_pairs(f))

