"""The first two Green-functor laws of the slice Burnside functor, with the
external product `helpers.cross` on one side and the biset operations of
`bisetops` on the other (Bouc, *Biset functors for finite groups*, LNM
1990, ch. 8):

- x·y = Res^{G×G}_{ΔG}(x × y), restricted along the diagonal G ≅ ΔG;
- x × y = Inf^{G×H}_G(x) · Inf^{G×H}_H(y), inflated along the two
  projections, each factor first transported onto the group that
  `quotient` makes of G×H mod the other factor.

The second law is why `bounded_closure` needs no product move: a
subfunctor whose evaluations are ideals holds Inf(x), so it holds x × y.
The same chapter's remaining laws are checked at every subgroup class H,
normal subgroup N and Aut generator of each group drawn:

- Res, Inf and transport are unital ring homomorphisms;
- Frobenius: Ind(a · Res y) = Ind(a) · y and Def(Inf(u) · y) = u · Def(y);
- Def ∘ Inf = id on KΞ(G/N).

Last, each ideal family absorbs the external product: for a member
idempotent ξ of G and any basis element e of H, ξ × e has its marks on
member classes of G×H only, and the broken family `S_CYCLIC` fails this."""

import functools
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sliceburnside import bisetops
from sliceburnside.groups import (
    GroupEmbedding,
    GroupIsomorphism,
    all_subgroups,
    automorphism_generators,
    direct_product,
    group_from_spec,
    quotient,
    subgroup_as_group,
)
from sliceburnside.ideals import BROKEN_CYCLIC_FAMILY, FAMILIES, member_classes
from sliceburnside.ring import SliceRingElement, slice_classes

from helpers import cross
from test_marks import rational_coeffs, small_perm_groups

# every group of order at most 6 up to isomorphism, then D8 and C3^2
SPECS = [
    "cyclic:1", "cyclic:2", "cyclic:3", "cyclic:4", "elab:2^2", "cyclic:5", "cyclic:6",
    "perm:(0 1 2),(0 1)", "dihedral:8", "elab:3^2",
]


@functools.cache
def spec_group(spec):
    return group_from_spec(spec)


def diagonal(group, square, twist=None):
    """The embedding x -> (x, twist(x)) of G into G×G; the diagonal ΔG when
    `twist` is None."""
    twist = twist or range(group.order)
    return GroupEmbedding(group, square, tuple(x * group.order + twist[x] for x in group.elements()))


def diagonal_law_holds(x, y, square, twist=None):
    return x * y == bisetops.restrict(cross(x, y, square), diagonal(x.table.group, square, twist))


def inflate_factor(x, big, kernel, lift):
    """Inf of x along the projection of G×H onto x's factor, whose kernel is
    the other factor: x is transported onto the group of `quotient(G×H,
    kernel)` by the isomorphism a -> the coset of `lift(a)`, then inflated."""
    q = quotient(big, kernel)
    group = x.table.group
    iso = GroupIsomorphism(group, q.group, tuple(q.projection[lift(a)] for a in group.elements()))
    iso.check()
    return bisetops.inflate(bisetops.transport(x, iso), q)


def assert_product_law(x, y, big):
    g, h = x.table.group, y.table.group
    m = h.order
    inf_x = inflate_factor(x, big, [g.identity * m + b for b in h.elements()], lambda a: a * m)
    inf_y = inflate_factor(y, big, [a * m + h.identity for a in g.elements()], lambda b: b)
    assert cross(x, y, big) == inf_x * inf_y


def random_element(data, group):
    table = slice_classes(group)
    return SliceRingElement(table, data.draw(rational_coeffs(table.size)))


def groups_of_order_at_most(n):
    return st.one_of(
        st.sampled_from([s for s in SPECS if spec_group(s).order <= n]).map(spec_group),
        small_perm_groups().filter(lambda g: g.order <= n),
    )


def assert_diagonal_law_on_basis(group):
    """The diagonal law on every pair of basis classes of the group, which
    by bilinearity is the law on all of KΞ(G); returns the number of pairs
    and the number of slice classes of G×G."""
    table, square = slice_classes(group), direct_product(group, group)
    basis = [table.basis_element(c) for c in range(table.size)]
    for x, y in product(basis, repeat=2):
        assert diagonal_law_holds(x, y, square), (x, y)
    return len(basis) ** 2, slice_classes(square).size


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(group=groups_of_order_at_most(6), data=st.data())
def test_the_product_is_the_diagonal_restriction_of_the_external_product(group, data):
    x, y = random_element(data, group), random_element(data, group)
    assert diagonal_law_holds(x, y, direct_product(group, group))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(g=groups_of_order_at_most(9), data=st.data())
def test_the_external_product_is_the_product_of_the_two_inflations(g, data):
    h = data.draw(groups_of_order_at_most(36 // g.order), label="H")
    x, y = random_element(data, g), random_element(data, h)
    assert_product_law(x, y, direct_product(g, h))


def test_the_diagonal_law_on_every_basis_pair_of_c2_squared():
    assert assert_diagonal_law_on_basis(spec_group("elab:2^2")) == (144, 513)


def test_a_diagonal_twisted_by_an_automorphism_breaks_the_law():
    # the law is not vacuous: restricting along x -> (x, a(x)) for an
    # automorphism a that moves subgroups changes some basis products
    g = spec_group("elab:2^2")
    table, square = slice_classes(g), direct_product(g, g)
    basis = [table.basis_element(c) for c in range(table.size)]
    for twist in automorphism_generators(g):
        assert not all(diagonal_law_holds(x, y, square, twist) for x in basis for y in basis)


def assert_green_laws(group, draw) -> int:
    """The homomorphism, Frobenius and Def ∘ Inf laws along the embedding
    of every subgroup class H, the quotient by every normal N and the
    transport along every Aut generator of `group`, on fresh elements from
    `draw(some_group)`; returns the number of identities checked."""
    lat, one = all_subgroups(group), slice_classes(group).one()
    checks = 0
    for h in lat.class_reps:
        emb = subgroup_as_group(lat.subgroups[h])
        x, y, a = draw(group), draw(group), draw(emb.source)

        def res(z):
            return bisetops.restrict(z, emb)

        assert res(x * y) == res(x) * res(y), (group.label, h)
        assert res(one) == slice_classes(emb.source).one(), (group.label, h)
        assert bisetops.induce(a * res(y), emb) == bisetops.induce(a, emb) * y, (group.label, h)
        checks += 3
    for n in lat.normal:
        q = quotient(group, lat.subgroups[n].members)
        u, v, y = draw(q.group), draw(q.group), draw(group)

        def inf(z):
            return bisetops.inflate(z, q)

        assert inf(u * v) == inf(u) * inf(v), (group.label, n)
        assert inf(slice_classes(q.group).one()) == one, (group.label, n)
        assert bisetops.deflate(inf(u) * y, q) == u * bisetops.deflate(y, q), (group.label, n)
        assert bisetops.deflate(inf(u), q) == u, (group.label, n)
        checks += 4
    for aut in automorphism_generators(group):
        iso = GroupIsomorphism(group, group, aut)
        x, y = draw(group), draw(group)

        def transport(z):
            return bisetops.transport(z, iso)

        assert transport(x * y) == transport(x) * transport(y), (group.label, aut)
        assert transport(one) == one, (group.label, aut)
        checks += 2
    return checks


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(group=groups_of_order_at_most(24), data=st.data())
def test_the_homomorphism_frobenius_and_def_inf_laws(group, data):
    assert assert_green_laws(group, functools.partial(random_element, data)) >= 4


def seeded_element(rng, group):
    table = slice_classes(group)
    classes = rng.sample(range(table.size), min(4, table.size))
    return SliceRingElement(
        table, {c: Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for c in classes}
    )


# C4, C2², D8, S3, C6, C3², A4, H27 and D10, with the number of laws each
# checks: 3 per subgroup class, 4 per normal subgroup, 2 per Aut generator
LAW_SWEEP = [
    ("cyclic:4", 23), ("elab:2^2", 39), ("dihedral:8", 52), ("perm:(0 1 2),(0 1)", 28),
    ("cyclic:6", 30), ("elab:3^2", 50), ("perm:(0 1 2),(0 1)(2 3)", 33), ("heis:3", 73),
    ("dihedral:10", 28),
]


@pytest.mark.parametrize("spec, checks", LAW_SWEEP)
def test_the_laws_at_every_subgroup_class_normal_subgroup_and_aut_generator(spec, checks):
    rng = random.Random(spec)
    assert assert_green_laws(spec_group(spec), functools.partial(seeded_element, rng)) == checks


def absorption_failures(family, groups, max_order) -> tuple[int, int]:
    """(products, products outside the family) over the ordered pairs
    (G, H) of `groups` with |G×H| <= `max_order`: each product is ξ × e for
    a member idempotent ξ of G and a basis element e of H, and it is
    outside when one of its nonzero marks is at a non-member class of G×H."""
    products = outside = 0
    for g, h in product(groups, repeat=2):
        if g.order * h.order > max_order:
            continue
        big, g_table, h_table = direct_product(g, h), slice_classes(g), slice_classes(h)
        members = set(member_classes(slice_classes(big), family))
        for c in member_classes(g_table, family):
            xi = g_table.idempotent(c)
            for e in range(h_table.size):
                # the mark numerators at the rows of its columns, the only
                # rows where a mark can be nonzero
                marks = cross(xi, h_table.basis_element(e), big)._marks()
                products += 1
                outside += any(m and r not in members for r, m in marks.items())
    return products, outside


def assert_families_absorb(specs, max_order) -> int:
    """Every family of `FAMILIES` absorbs the external product and the
    broken family does not; returns the number of family products."""
    groups = [spec_group(s) for s in specs]
    total = 0
    for family in FAMILIES.values():
        products, outside = absorption_failures(family, groups, max_order)
        assert outside == 0, family.id
        total += products
    products, outside = absorption_failures(BROKEN_CYCLIC_FAMILY, groups, max_order)
    assert 0 < outside < products
    return total


def test_the_ideal_families_absorb_the_external_product():
    # C2, C4, C2² and D8 with |G×H| <= 16; without D8 the broken family
    # fails 120 of its 420 products
    specs = ("cyclic:2", "cyclic:4", "elab:2^2", "dihedral:8")
    assert assert_families_absorb(specs, 16) == 1291
    groups = [spec_group(s) for s in specs[:3]]
    assert absorption_failures(BROKEN_CYCLIC_FAMILY, groups, 16) == (420, 120)
