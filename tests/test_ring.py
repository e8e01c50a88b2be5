import ast
import csv
import io
import json
import random
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sliceburnside import bisetops, gsets, ring, verify
from sliceburnside.cli import element_to_json, fraction_str, mark_matrix_csv, table_to_json
from sliceburnside.groups import (
    GroupError,
    cyclic_group,
    double_cosets,
    group_from_spec,
    subgroup_as_group,
)
from sliceburnside.ring import SliceRingElement, morphism_to_ring, slice_classes

from helpers import from_mark_vector, orbit_basis_product, subgroup_positions
from test_bisetops import per_term_extend
from test_marks import rational_coeffs, small_perm_groups


@pytest.mark.parametrize("spec,count", [("cyclic:1", 1), ("cyclic:2", 3), ("cyclic:3", 3), ("cyclic:5", 3)])
def test_class_counts(spec, count):
    assert slice_classes(group_from_spec(spec)).size == count


def test_class_table_is_cached_and_deterministic():
    g = group_from_spec("dihedral:8")
    assert slice_classes(g) is slice_classes(g)
    h = group_from_spec("dihedral:8")
    assert slice_classes(g).reps == slice_classes(h).reps


def test_hand_computed_idempotents_of_c2():
    c2 = cyclic_group(2)
    t = slice_classes(c2)
    c11 = t.class_index((0,), (0,))
    c21 = t.class_index((0, 1), (0,))
    c22 = t.class_index((0, 1), (0, 1))
    assert t.idempotent(c22).coeffs == {c22: Fraction(1), c21: Fraction(-1, 2)}
    assert t.idempotent(c21).coeffs == {c21: Fraction(1, 2), c11: Fraction(-1, 2)}
    assert t.idempotent(c11).coeffs == {c11: Fraction(1, 2)}


def test_basis_multiplication_examples():
    c2 = cyclic_group(2)
    t = slice_classes(c2)
    c21 = t.class_index((0, 1), (0,))
    assert t.basis_mul(c21, c21) == {c21: 2}
    one = t.one()
    for cls in range(t.size):
        assert one * t.basis_element(cls) == t.basis_element(cls)


@pytest.mark.parametrize(
    "spec",
    ["cyclic:6", "dihedral:8", "elab:3^2", "perm:(0 1 2),(0 1)(2 3)", "perm:(0 1 2 3),(0 1)",
     "dihedral:12"],
)
def test_basis_multiplication_matches_oracle(spec):
    g = group_from_spec(spec)
    t = slice_classes(g)
    for a in range(t.size):
        for b in range(t.size):
            assert t.basis_element(a) * t.basis_element(b) == verify.oracle_product(t, a, b)


@pytest.mark.parametrize("spec", ["cyclic:12", "dihedral:8", "abelian:4x2", "elab:2^3"])
def test_ring_axioms_exhaustive(spec):
    g = group_from_spec(spec)
    t = slice_classes(g)
    basis = [t.basis_element(c) for c in range(t.size)]
    for a in basis:
        for b in basis:
            assert a * b == b * a
    rng = random.Random(7)
    triples = (
        [(a, b, c) for a in basis for b in basis for c in basis]
        if t.size <= 20
        else [
            (rng.choice(basis), rng.choice(basis), rng.choice(basis))
            for _ in range(400)
        ]
    )
    for a, b, c in triples:
        assert (a * b) * c == a * (b * c)


def test_mark_examples():
    d8 = group_from_spec("dihedral:8")
    t = slice_classes(d8)
    full = tuple(range(8))
    top = t.class_index(full, full)
    bottom = t.class_index((0,), (0,))
    for cls in range(t.size):
        assert t.basis_element(top).mark(cls) == 1
        assert t.basis_element(cls).mark(top) == (1 if cls == top else 0)
        big, small = t.rep_subgroups(cls)
        assert t.basis_element(cls).mark(bottom) == 8 // len(small)


def test_mark_is_multiplicative_on_samples():
    g = group_from_spec("elab:3^2")
    t = slice_classes(g)
    rng = random.Random(11)
    elems = []
    for _ in range(6):
        coeffs = {
            rng.randrange(t.size): Fraction(rng.randint(-4, 4), rng.randint(1, 5))
            for _ in range(3)
        }
        elems.append(SliceRingElement(t, coeffs))
    for a in elems:
        for b in elems:
            prod = a * b
            for cls in range(t.size):
                assert prod.mark(cls) == a.mark(cls) * b.mark(cls)


def test_eigenvector_property():
    g = group_from_spec("dihedral:8")
    t = slice_classes(g)
    for cls in range(t.size):
        xi = t.idempotent(cls)
        for b in range(t.size):
            v = t.basis_element(b)
            assert v * xi == xi.scaled(v.mark(cls))


def test_idempotents_conjugation_invariant():
    d8 = group_from_spec("dihedral:8")
    t = slice_classes(d8)
    lat = t.lattice
    # evaluating the defining sum at a conjugate slice gives the same element
    for cls in range(t.size):
        big, small = t.rep_subgroups(cls)
        for g in d8.elements():
            tc = tuple(sorted(d8.conj(g, x) for x in big.members))
            sc = tuple(sorted(d8.conj(g, x) for x in small.members))
            assert t.class_index(tc, sc) == cls


def test_ghost_round_trip():
    g = group_from_spec("cyclic:6")
    t = slice_classes(g)
    rng = random.Random(3)
    for _ in range(5):
        coeffs = {
            rng.randrange(t.size): Fraction(rng.randint(-9, 9), rng.randint(1, 7))
            for _ in range(4)
        }
        elem = SliceRingElement(t, coeffs)
        assert from_mark_vector(t, elem.mark_vector()) == elem
    ones = t.one().mark_vector()
    assert all(v == 1 for v in ones)
    with pytest.raises(GroupError):
        from_mark_vector(t, [1])


def test_elements_of_different_tables_do_not_mix():
    a = slice_classes(group_from_spec("cyclic:2"))
    b = slice_classes(group_from_spec("cyclic:3"))
    with pytest.raises(GroupError):
        a.one() + b.one()
    with pytest.raises(GroupError):
        a.one() * b.one()


def test_fraction_serialisation():
    assert fraction_str(Fraction(3)) == "3/1"
    assert fraction_str(Fraction(-1, 2)) == "-1/2"


def test_json_and_csv_exports():
    g = group_from_spec("cyclic:4")
    t = slice_classes(g)
    payload = table_to_json(t)
    assert payload["order"] == 4
    assert len(payload["classes"]) == t.size
    for entry in payload["classes"]:
        assert set(entry) == {"T", "S"}
        assert set(entry["S"]) <= set(entry["T"])
    elem = t.idempotent(0)
    as_json = element_to_json(elem)
    json.dumps(as_json)
    for value in as_json.values():
        num, den = value.split("/")
        assert int(den) > 0
    rows = list(csv.reader(io.StringIO(mark_matrix_csv(t))))
    assert len(rows) == t.size + 1
    assert rows[0][1:] == [t.label(c) for c in range(t.size)]
    for r, row in enumerate(rows[1:]):
        assert [int(x) for x in row[1:]] == t.mark_matrix()[r]


def test_not_a_slice_rejected():
    g = group_from_spec("elab:2^2")
    t = slice_classes(g)
    with pytest.raises(GroupError):
        t.class_index((0, 1), (0, 2))


def test_decomposition_rejects_non_equivariant_maps():
    c4 = cyclic_group(4)
    t = slice_classes(c4)
    reg = gsets.coset_space(c4, [0])
    bad = gsets.GSetMorphism(reg, reg, [0, 1, 3, 2])
    with pytest.raises(GroupError):
        morphism_to_ring(bad, t)


def per_term_idempotent(table, cls):
    """Oracle: the idempotent's coefficients summed one `Fraction` term at a
    time, as `SliceClassTable.idempotent` did before it summed integers."""
    lat = table.lattice
    t, s = table.reps[cls]
    t_mask = lat.masks[t]
    scale = Fraction(table.class_sizes[cls], table.group.order)
    coeffs = {}
    for u in lat.below[s]:
        wu = len(lat.subgroups[u]) * lat.moebius(u, s)
        if wu == 0:
            continue
        for v in lat.above[s]:
            if lat.masks[v] & t_mask != lat.masks[v]:
                continue
            wv = lat.moebius(v, t)
            if wv == 0:
                continue
            key = table.class_of[v, u]
            coeffs[key] = coeffs.get(key, Fraction(0)) + scale * wu * wv
    return {c: q for c, q in coeffs.items() if q != 0}


def assert_nonzero_fractions(elem):
    assert all(type(q) is Fraction and q != 0 for q in elem.coeffs.values())


IDEMPOTENT_GROUPS = (
    [g.label for g in verify.corpus().groups]
    + ["elab:2^4", "heis:3 * cyclic:3", "mod:3 * cyclic:3", "dihedral:8 * cyclic:2",
       "dihedral:16", "perm:(0 1 2 3),(0 1)"]
)


@pytest.mark.parametrize("idx", range(len(IDEMPOTENT_GROUPS)), ids=IDEMPOTENT_GROUPS)
def test_idempotents_equal_the_per_term_sum(idx):
    corpus = verify.corpus().groups
    g = corpus[idx] if idx < len(corpus) else group_from_spec(IDEMPOTENT_GROUPS[idx])
    table = slice_classes(g)
    for cls in range(table.size):
        xi = table.idempotent(cls)
        assert xi.coeffs == per_term_idempotent(table, cls)
        assert_nonzero_fractions(xi)


def test_stored_coefficients_are_nonzero_fractions():
    t = slice_classes(group_from_spec("dihedral:8"))
    elem = SliceRingElement(
        t, {0: 3, 1: Fraction(2, 4), 2: 0, 3: Fraction(0), 4: -1, 5: Fraction(-6, 3)}
    )
    assert elem.coeffs == {0: 3, 1: Fraction(1, 2), 4: -1, 5: -2}
    assert_nonzero_fractions(elem)
    assert SliceRingElement(t, {0: 0, 1: Fraction(0)}).coeffs == {}
    pairs = [((0,), (0,))] * 3 + [(tuple(range(8)), (0,))]
    xi = t.idempotent(t.size - 1)
    derived = [
        elem + elem, elem - elem, elem + -elem, -elem, elem.scaled(3), elem.scaled(0),
        elem * elem, xi * elem, t.one(), t.basis_element(2), t.element_from_pairs(pairs),
        from_mark_vector(t, [Fraction(c, 3) for c in range(t.size)]),
    ]
    for x in derived:
        assert_nonzero_fractions(x)
    assert (elem - elem).coeffs == {} and elem.scaled(0).coeffs == {}
    assert t.element_from_pairs(pairs).coeffs == {
        t.class_index((0,), (0,)): 3, t.class_index(tuple(range(8)), (0,)): 1
    }


@pytest.mark.parametrize("bad", [0.1, 0.5, 0.0, 1.0, "1/2", complex(1, 0)])
def test_non_rational_coefficients_are_refused(bad):
    # a float would slip in as its binary expansion, e.g. 0.1 as
    # 3602879701896397/36028797018963968
    t = slice_classes(group_from_spec("cyclic:4"))
    with pytest.raises(TypeError):
        t.one().scaled(bad)
    with pytest.raises(TypeError):
        SliceRingElement(t, {0: bad})
    with pytest.raises(TypeError):
        SliceRingElement(t, {0: 1, 1: bad})
    assert t.one().scaled(True) == t.one()


def test_ring_module_imports_no_serialiser_library():
    # every output format lives in `cli`
    tree = ast.parse(Path(ring.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module.split(".")[0])
    assert "fractions" in imported
    assert not imported & {"csv", "io", "json"}
    assert not {"fraction_str", "table_to_json", "element_to_json", "mark_matrix_csv"} & set(vars(ring))


def assert_lowest_terms(elem):
    assert elem.denominator > 0 and 0 not in elem.numerators.values()
    assert gcd(elem.denominator, *elem.numerators.values()) == 1


def per_term_sum(a, b, sign):
    acc = dict(a.coeffs)
    for c, q in b.coeffs.items():
        acc[c] = acc.get(c, 0) + sign * q
    return {c: q for c, q in acc.items() if q != 0}


def per_term_product(a, b):
    acc = {}
    for ca, qa in a.coeffs.items():
        for cb, qb in b.coeffs.items():
            for c, m in orbit_basis_product(a.table, ca, cb).items():
                acc[c] = acc.get(c, 0) + qa * qb * m
    return {c: q for c, q in acc.items() if q != 0}


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    spec=st.sampled_from(["cyclic:6", "dihedral:8", "perm:(0 1 2),(0 1)", "elab:2^2"]),
    data=st.data(),
)
def test_stored_form_is_lowest_terms_and_equals_per_term_arithmetic(spec, data):
    table = slice_classes(group_from_spec(spec))
    a, b = (SliceRingElement(table, data.draw(rational_coeffs(table.size))) for _ in range(2))
    s = data.draw(st.fractions(min_value=-5, max_value=5, max_denominator=12))
    lat = table.lattice
    emb = subgroup_as_group(lat.subgroups[data.draw(st.sampled_from(lat.class_reps))])
    sub_table = slice_classes(emb.source)
    c = SliceRingElement(sub_table, data.draw(rational_coeffs(sub_table.size)))
    results = [
        (a + b, per_term_sum(a, b, 1)),
        (a - b, per_term_sum(a, b, -1)),
        (a * b, per_term_product(a, b)),
        (a.scaled(s), {cls: q * s for cls, q in a.coeffs.items() if q * s != 0}),
        (bisetops.restrict(a, emb), per_term_extend(a, emb.basis_images["restriction"])),
        (bisetops.induce(c, emb), per_term_extend(c, emb.basis_images["induction"])),
    ]
    for elem, oracle in results:
        assert elem.coeffs == oracle
        assert_lowest_terms(elem)
        rebuilt = SliceRingElement(elem.table, oracle)
        assert rebuilt == elem and hash(rebuilt) == hash(elem)
    routes = [
        (a + b, b + a), ((a - b) + b, a), (a.scaled(2), a + a), (a * b, b * a),
        (a - a, table.zero()), (a.scaled(s) - a.scaled(s - 1), a), (-(-a), a),
    ]
    for x, y in routes:
        assert x == y and hash(x) == hash(y)


def test_the_zero_is_built_once_per_table_and_stays_empty():
    table = slice_classes(group_from_spec("dihedral:8"))
    zero = table.zero()
    assert table.zero() is zero
    xs = table.idempotents()
    x = xs[3].scaled(Fraction(2, 3)) + table.basis_element(1)
    assert zero + x == x and x + zero == x
    assert sum(xs, zero) == table.one()
    assert (x - x).is_zero() and x - x == zero
    assert zero.is_zero() and zero.denominator == 1 and zero.numerators == {}


# The double-coset sums that the orbit sums replaced, kept as their oracle.


def double_coset_product(table, i, j):
    lat = table.lattice
    masks, index = lat.masks, lat._index
    (ti, si), (tj, sj) = table.reps[i], table.reps[j]
    out = {}
    for g in double_cosets(table.group, lat.subgroups[si].members, lat.subgroups[sj].members):
        row = lat.conj_table[g]
        cls = table.class_of[index[masks[ti] & masks[row[tj]]], index[masks[si] & masks[row[sj]]]]
        out[cls] = out.get(cls, 0) + 1
    return out


def double_coset_restriction(table, emb, cls):
    """Mackey's formula: (T, S) goes to (H & xTx^-1, H & xSx^-1), x in H\\G/S."""
    lat = table.lattice
    masks, index = lat.masks, lat._index
    t, s = table.reps[cls]
    h = masks[lat.index_of(emb.images)]
    positions = subgroup_positions(emb)
    out_table = slice_classes(emb.source)
    out = {}
    for x in double_cosets(table.group, emb.images, lat.subgroups[s].members):
        row = lat.conj_table[x]
        c = out_table.class_of[
            positions[index[h & masks[row[t]]]],
            positions[index[h & masks[row[s]]]],
        ]
        out[c] = out.get(c, 0) + 1
    return out


def assert_orbit_sums_match_double_cosets(table, pairs, restrictions):
    for i, j in pairs:
        expected = double_coset_product(table, i, j)
        assert orbit_basis_product(table, i, j) == expected
        # the ghost-coordinate product against the orbit sums it replaced
        assert table.basis_mul(i, j) == expected
    for emb, cls in restrictions:
        image = bisetops.restrict(table.basis_element(cls), emb)
        assert image.denominator == 1
        assert image.numerators == double_coset_restriction(table, emb, cls)


def assert_mark_vector_entries(elem):
    columns = elem.table.mark_columns()
    acc = [0] * elem.table.size
    for c, n in elem.numerators.items():
        for r, m in columns[c].items():
            acc[r] += n * m
    vector = elem.mark_vector()
    assert len(vector) == len(acc)
    for got, v in zip(vector, acc):
        assert type(got) is Fraction and got == Fraction(v, elem.denominator)


GHOST_GROUPS = ["elab:2^4", "heis:3 * cyclic:3", "mod:3 * cyclic:3", "dihedral:8 * cyclic:2", "dihedral:16"]


@pytest.mark.parametrize("spec", GHOST_GROUPS)
def test_orbit_sums_match_double_coset_sums_on_sampled_pairs(spec):
    table = slice_classes(group_from_spec(spec))
    rng = random.Random(spec)
    pairs = [(rng.randrange(table.size), rng.randrange(table.size)) for _ in range(150)]
    lat = table.lattice
    restrictions = [
        (subgroup_as_group(lat.subgroups[rng.choice(lat.class_reps)]), rng.randrange(table.size))
        for _ in range(40)
    ]
    assert_orbit_sums_match_double_cosets(table, pairs, restrictions)
    for _ in range(5):
        coeffs = {rng.randrange(table.size): Fraction(rng.randint(-9, 9), rng.randint(1, 8))
                  for _ in range(4)}
        assert_mark_vector_entries(SliceRingElement(table, coeffs))


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(group=small_perm_groups(), data=st.data())
def test_orbit_sums_match_double_coset_sums_on_small_groups(group, data):
    table = slice_classes(group)
    lat = table.lattice
    cls = st.integers(0, table.size - 1)
    pairs = data.draw(st.lists(st.tuples(cls, cls), min_size=1, max_size=20))
    restrictions = [
        (subgroup_as_group(lat.subgroups[h]), c)
        for h, c in data.draw(st.lists(st.tuples(st.sampled_from(lat.class_reps), cls), max_size=8))
    ]
    assert_orbit_sums_match_double_cosets(table, pairs, restrictions)
    assert_mark_vector_entries(SliceRingElement(table, data.draw(rational_coeffs(table.size))))


def test_class_indices_outside_the_table_are_rejected():
    table = slice_classes(group_from_spec("cyclic:4"))
    assert table.size == 6
    elem = table.basis_element(5)
    for bad in (-1, 6, 10**6):
        # -1 would alias class 5 under a key of its own, and 6 has no row
        with pytest.raises(GroupError):
            table.basis_element(bad)
        # a missing row is not a zero mark
        with pytest.raises(GroupError):
            elem.mark(bad)
        for reject in (table.label, table.rep_subgroups, table.idempotent):
            with pytest.raises(GroupError):
                reject(bad)
        with pytest.raises(GroupError):
            table.basis_mul(bad, 2)
        with pytest.raises(GroupError):
            table.basis_mul(0, bad)
    # the table keeps no product cache
    assert not any("product" in name for name in vars(table))
    assert (elem * elem).numerators.keys() == {5}
    assert [elem.mark(r) for r in range(table.size)] == list(elem.mark_vector())


CORPUS_UP_TO_16 = [g for g in verify.corpus().groups if g.order <= 16]


@pytest.mark.parametrize("idx", range(len(CORPUS_UP_TO_16)), ids=[g.label for g in CORPUS_UP_TO_16])
def test_ghost_product_equals_the_orbit_product_on_every_corpus_basis_pair(idx):
    table = slice_classes(CORPUS_UP_TO_16[idx])
    for i in range(table.size):
        for j in range(table.size):
            assert table.basis_mul(i, j) == orbit_basis_product(table, i, j), (i, j)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(group=small_perm_groups(), data=st.data())
def test_ghost_product_equals_the_per_term_orbit_product_on_small_groups(group, data):
    table = slice_classes(group)
    x, y = (SliceRingElement(table, data.draw(rational_coeffs(table.size))) for _ in range(2))
    product = x * y
    assert product.coeffs == per_term_product(x, y)
    assert_lowest_terms(product)


def test_products_never_read_the_orbit_sums(monkeypatch):
    spec = "dihedral:8"
    oracle = slice_classes(group_from_spec(spec))
    pairs = [(i, j) for i in range(oracle.size) for j in range(oracle.size)]
    expected = {(i, j): orbit_basis_product(oracle, i, j) for i, j in pairs}
    x = SliceRingElement(oracle, {0: Fraction(-3, 4), 7: 2, oracle.size - 1: Fraction(5, 6)})
    y = oracle.idempotent(5) + oracle.basis_element(9).scaled(Fraction(1, 3))
    x_times_y = per_term_product(x, y)

    def refuse(*args):
        raise AssertionError("a product read an orbit sum")

    monkeypatch.setattr(ring.SliceClassTable, "orbit_sum", refuse)
    # a fresh group builds its table, marks and idempotents with the kernel refused
    table = slice_classes(group_from_spec(spec))
    assert table is not oracle and table.reps == oracle.reps
    for i, j in pairs:
        assert table.basis_mul(i, j) == expected[i, j], (i, j)
    x, y = SliceRingElement(table, x.coeffs), SliceRingElement(table, y.coeffs)
    assert (x * y).coeffs == x_times_y


def test_a_fractional_basis_product_is_refused(monkeypatch):
    table = slice_classes(group_from_spec("cyclic:4"))
    assert table.basis_mul(1, 2) == orbit_basis_product(table, 1, 2)
    monkeypatch.setattr(SliceRingElement, "__mul__", lambda x, y: x.scaled(Fraction(1, 2)))
    with pytest.raises(GroupError, match="not a whole multiplicity"):
        table.basis_mul(1, 2)
