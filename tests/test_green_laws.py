"""The first two Green-functor laws of the slice Burnside functor, with the
external product `helpers.cross` on one side and the biset operations of
`bisetops` on the other (Bouc, *Biset functors for finite groups*, LNM
1990, ch. 8):

- x·y = Res^{G×G}_{ΔG}(x × y), restricted along the diagonal G ≅ ΔG;
- x × y = Inf^{G×H}_G(x) · Inf^{G×H}_H(y), inflated along the two
  projections, each factor first transported onto the group that
  `quotient` makes of G×H mod the other factor.

The second law is why `bounded_closure` needs no product move: a
subfunctor whose evaluations are ideals holds Inf(x), so it holds x × y."""

import functools
from itertools import product

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sliceburnside import bisetops
from sliceburnside.groups import (
    GroupEmbedding,
    GroupIsomorphism,
    automorphism_generators,
    direct_product,
    group_from_spec,
    quotient,
)
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
