"""The subgroup enumeration: `groups._enumerate_subgroups` walks the cyclic
subgroups as powers and, when |G| = p^a q^b, extends each subgroup only by
cyclic subgroups that normalize it.  Checked against the enumeration it
replaced, which extends by every cyclic subgroup
(`helpers.every_extension_subgroups`)."""

import pytest
from hypothesis import HealthCheck, given, settings

from sliceburnside import groups, verify
from sliceburnside.groups import group_from_spec, quaternion_group
from sliceburnside.ideals import constructor_known_p_groups

from helpers import every_extension_subgroups
from test_marks import small_perm_groups

# (spec, subgroup count): S4, S3 x S4, A5, S5 and A5 x C2, the last three
# with three prime divisors, so every extension is tried; and H27 x C3^2
EXTRA_SPECS = [
    ("perm:(0 1 2 3),(0 1)", 30),
    ("perm:(0 1 2),(0 1) * perm:(0 1 2 3),(0 1)", 372),
    ("perm:(0 1 2 3 4),(0 1 2)", 59),
    ("perm:(0 1 2 3 4),(0 1)", 156),
    ("perm:(0 1 2 3 4),(0 1 2) * cyclic:2", 164),
    ("heis:3 * elab:3^2", 882),
]


def assert_enumeration_matches(group) -> int:
    """Check that the enumeration gives the oracle's member tuples, in its
    order, and return how many subgroups there are."""
    members = groups._enumerate_subgroups(group)
    assert members == every_extension_subgroups(group), group.label
    return len(members)


@pytest.mark.parametrize("spec", verify.CORPUS_SPECS)
def test_enumeration_matches_the_oracle_on_the_corpus(spec):
    assert assert_enumeration_matches(group_from_spec(spec)) >= 1


def test_enumeration_matches_the_oracle_on_the_quaternion_group():
    assert assert_enumeration_matches(quaternion_group()) == 6


@pytest.mark.parametrize("prime,bound", [(2, 32), (3, 81), (5, 125)])
def test_enumeration_matches_the_oracle_on_universe_groups(prime, bound):
    for g in constructor_known_p_groups(prime, bound):
        assert_enumeration_matches(g)


@pytest.mark.parametrize("spec,count", EXTRA_SPECS)
def test_enumeration_matches_the_oracle_on_larger_groups(spec, count):
    assert assert_enumeration_matches(group_from_spec(spec)) == count


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(group=small_perm_groups())
def test_enumeration_matches_the_oracle_on_perm_groups(group):
    assert_enumeration_matches(group)
