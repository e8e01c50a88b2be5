"""Each output check accepts the library's real output and rejects a
perturbed copy of it; a rejected or raising operation counts as failed."""

import json
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

import checks
import workloads
from conftest import BENCH
from sliceburnside import (
    FAMILIES,
    GroupIsomorphism,
    GroupUniverse,
    all_subgroups,
    automorphisms,
    bisetops,
    bounded_closure,
    check_conditions,
    classical_deflation_constant,
    cyclic_group,
    deflation_constant,
    deflation_idempotent_scalar,
    group_from_spec,
    quotient,
    slice_classes,
    subgroup_as_group,
    supplement_moebius_sum,
)
from sliceburnside.constants import deflation_vanishes_predicted
from sliceburnside.groups import slice_normalizer
from sliceburnside.ideals import BROKEN_CYCLIC_FAMILY, closure_trace

REF = json.loads((BENCH / "reference.json").read_text())


@pytest.fixture(scope="module")
def d8():
    g = group_from_spec("dihedral:8")
    return g, slice_classes(g)


def bumped(elem, cls=0):
    """The element plus one more copy of a basis class."""
    return elem + elem.table.basis_element(cls)


class FlippedMarks:
    """A slice table whose mark matrix has one entry changed."""

    def __init__(self, table, row, col):
        self._table = table
        self.size = table.size
        self._matrix = [list(r) for r in table.mark_matrix()]
        self._matrix[row][col] += 1

    def label(self, cls):
        return self._table.label(cls)

    def mark_matrix(self):
        return self._matrix


def test_mark_digest_rejects_one_flipped_mark(d8):
    _, table = d8
    assert checks.marks_match(table, REF["marks"]["dihedral:8"])
    for row, col in ((0, 0), (table.size - 1, 3), (5, table.size - 1)):
        assert not checks.marks_match(FlippedMarks(table, row, col), REF["marks"]["dihedral:8"])


def test_indicator_rejects_a_changed_mark(d8):
    _, table = d8
    vec = list(table.idempotent(7).mark_vector())
    assert checks.is_indicator(vec, 7)
    vec[3] += 1
    assert not checks.is_indicator(vec, 7)
    assert not checks.is_indicator(table.idempotent(7).mark_vector(), 6)


def test_sum_and_orthogonality_reject_perturbations(d8):
    _, table = d8
    xs = table.idempotents()
    assert checks.sums_to_one(xs, table.one())
    assert not checks.sums_to_one(xs[1:], table.one())
    assert checks.orthogonal(xs[4] * xs[4], 4, 4, xs[4])
    assert checks.orthogonal(xs[4] * xs[5], 4, 5, xs[4])
    assert not checks.orthogonal(bumped(xs[4] * xs[5]), 4, 5, xs[4])
    assert not checks.orthogonal(bumped(xs[4] * xs[4]), 4, 4, xs[4])


def test_ghost_multiplicativity_rejects_perturbation(d8):
    _, table = d8
    ea, eb = table.basis_element(3), table.basis_element(9)
    prod = list((ea * eb).mark_vector())
    va, vb = ea.mark_vector(), eb.mark_vector()
    assert checks.ghost_multiplicative(prod, va, vb)
    prod[-1] += 1
    assert not checks.ghost_multiplicative(prod, va, vb)


def test_restriction_and_induction_identities(d8):
    g, table = d8
    lat = table.lattice
    h_idx = lat.class_reps[3]
    emb = subgroup_as_group(lat.subgroups[h_idx])
    table_h = slice_classes(emb.source)
    h_to_g = checks.fusion_map(table_h, table, emb)
    for cls in range(table.size):
        res = bisetops.restrict(table.idempotent(cls), emb)
        assert checks.restriction_ok(res, table_h, h_to_g, cls)
        assert not checks.restriction_ok(bumped(res), table_h, h_to_g, cls)
    for hc in range(table_h.size):
        big, small = table_h.rep_subgroups(hc)
        ratio = Fraction(
            len(slice_normalizer(g, emb.image_members(big.members), emb.image_members(small.members))),
            len(slice_normalizer(emb.source, big.members, small.members)),
        )
        ind = bisetops.induce(table_h.idempotent(hc), emb)
        assert checks.induction_ok(ind, table, h_to_g, hc, ratio)
        assert not checks.induction_ok(ind, table, h_to_g, hc, ratio * 2)


def test_inflation_deflation_transport_identities(d8):
    g, table = d8
    lat = table.lattice
    n_members = lat.subgroups[lat.normal[1]].members
    q = quotient(g, n_members)
    table_q = slice_classes(q.group)
    push = checks.push_map(table, table_q, q)
    for qc in range(table_q.size):
        inf = bisetops.inflate(table_q.idempotent(qc), q)
        assert checks.inflation_ok(inf, table, push, qc)
        assert not checks.inflation_ok(bumped(inf), table, push, qc)
    for cls in range(table.size):
        big, small = table.rep_subgroups(cls)
        scalar = deflation_idempotent_scalar(g, big.members, small.members, n_members)
        dfl = bisetops.deflate(table.idempotent(cls), q)
        assert checks.deflation_ok(dfl, table_q, push, cls, scalar)
        assert not checks.deflation_ok(dfl, table_q, push, cls, scalar + 1)
    iso = GroupIsomorphism(g, g, automorphisms(g)[-1])
    for cls in range(table.size):
        big, small = table.rep_subgroups(cls)
        image = table.class_index(iso.image_members(big.members), iso.image_members(small.members))
        out = bisetops.transport(table.idempotent(cls), iso)
        assert checks.transport_ok(out, table, image)
        assert not checks.transport_ok(bumped(out), table, image)


def test_deflation_constant_identities_reject_perturbation():
    g = group_from_spec("elab:2^2")
    one, n, full = (0,), (0, 1), tuple(range(4))
    q = quotient(g, n)
    m_s_m = deflation_constant(g, one, full)
    m_s_n = deflation_constant(g, one, n)
    m_img = deflation_constant(q.group, (q.group.identity,), tuple(range(q.group.order)))
    assert checks.transitivity_ok(m_s_m, m_s_n, m_img)
    assert not checks.transitivity_ok(m_s_m + Fraction(1, 2), m_s_n, m_img)
    classical = classical_deflation_constant(cyclic_group(1), (0,))
    supplement = supplement_moebius_sum(g, one, n)
    # S = 1 and SN = N: ratio (|N_G(SN)| / |SN|) / (|N_G(S)| / |S|) = (4/2) / (4/1)
    ratio = Fraction(4 // 2, 4 // 1)
    assert checks.factorization_ok(m_s_n, ratio, classical, supplement)
    assert not checks.factorization_ok(m_s_n, ratio, classical, supplement + 1)
    predicted = deflation_vanishes_predicted(g, one, n)
    assert checks.vanishing_ok(predicted, m_s_n)
    assert not checks.vanishing_ok(not predicted, m_s_n)


def test_classification_checks_reject_wrong_answers():
    assert checks.b_groups_ok([True])
    assert not checks.b_groups_ok([])
    assert not checks.b_groups_ok([True, False])
    assert checks.t_slice_types_ok({(0, 0), (1, 0), (2, 2), (3, 2)})
    assert not checks.t_slice_types_ok({(0, 0), (1, 0), (2, 2)})


def test_closure_check_rejects_a_dropped_member():
    universe = GroupUniverse(2, 16)
    members = bounded_closure(universe, cyclic_group(2), (0,))
    trace = closure_trace(universe, members, 8)
    want = universe.family_trace(FAMILIES["J1"], max_order=8)
    assert checks.closure_ok(trace, want, len(members), len(members))
    dropped = set(trace)
    dropped.pop()
    assert not checks.closure_ok(dropped, want, len(members) - 1, None)
    assert not checks.closure_ok(trace, want, len(members) - 1, len(members))


def test_closure_reference_counts_reject_a_dropped_member():
    counts = REF["closure_members"]
    assert counts == {"FULL": 432, "J1": 416, "J2": 272, "J3": 261}
    assert not checks.closure_ok(set(), set(), counts["J1"] - 1, counts["J1"])


def test_lattice_counts_reject_a_dropped_class_or_normal_subgroup():
    """The deflation workload's loops run over these counts, so a lattice that
    lost a subgroup class or a normal subgroup must not pass as less work."""
    lat = all_subgroups(group_from_spec("dihedral:8"))
    pinned = REF["lattices"]["D8"]
    assert checks.lattice_counts_ok(lat, pinned)
    fewer_classes = SimpleNamespace(
        subgroups=lat.subgroups, class_reps=lat.class_reps[:-1], normal=lat.normal,
        contains_pair=lat.contains_pair,
    )
    fewer_normal = SimpleNamespace(
        subgroups=lat.subgroups, class_reps=lat.class_reps, normal=lat.normal[:-1],
        contains_pair=lat.contains_pair,
    )
    assert not checks.lattice_counts_ok(fewer_classes, pinned)
    assert not checks.lattice_counts_ok(fewer_normal, pinned)


def test_condition_check_rejects_swapped_outcomes():
    universe = GroupUniverse(2, 8)
    good = check_conditions(FAMILIES["J2"], universe)
    broken = check_conditions(BROKEN_CYCLIC_FAMILY, universe)
    assert checks.conditions_ok(good, True) and checks.conditions_ok(broken, False)
    assert not checks.conditions_ok(broken, True)
    assert not checks.conditions_ok(good, False)


def test_ledger_counts_rejections_and_exceptions():
    ledger = workloads.Ledger()
    ledger.check("ok", lambda: True)
    ledger.check("rejected", lambda: False)
    ledger.check("raised", lambda: 1 // 0)
    assert (ledger.attempted, ledger.failed) == (3, 2)
    assert "ZeroDivisionError" in ledger.messages[1]


def test_a_perturbed_library_output_is_counted_as_failed(monkeypatch):
    """Flip one mark inside the library: the many-small workload on cyclic:4
    must count failed operations instead of passing."""
    from sliceburnside import ring

    original = ring.SliceClassTable.mark_matrix

    def flipped(self):
        matrix = [list(row) for row in original(self)]
        matrix[0][0] += 1
        return matrix

    def run(perturb):
        if perturb:
            monkeypatch.setattr(ring.SliceClassTable, "mark_matrix", flipped)
        state = {
            "rng": random.Random(1),
            "groups": [("cyclic:4", group_from_spec("cyclic:4"))],
            "ref": REF,
        }
        ledger = workloads.Ledger()
        workloads.run_many_small(state, ledger)
        return ledger

    clean = run(False)
    assert clean.attempted > 0 and clean.failed == 0
    broken = run(True)
    assert broken.attempted == clean.attempted
    assert broken.failed > 0
