"""Output checks for the benchmark workloads.

Every check is a pure function of outputs the workload already computed and
returns a bool, so the benchmark's tests can hand it a perturbed output and
see it rejected.  The identities hold by mathematics (ghost-map indicators,
orthogonality, the biset transport rules, the deflation-constant identities,
the classification of the ideal lattice); the exceptions are the mark matrix
digests, the lattice counts of the ``deflation`` groups and the closure member
counts, which are pinned to values recorded in ``reference.json``.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction


def mark_digest(table) -> str:
    """SHA-256 of the mark matrix with rows and columns ordered by class label,
    so the digest does not depend on how classes are numbered."""
    labels = [table.label(c) for c in range(table.size)]
    order = sorted(range(table.size), key=labels.__getitem__)
    matrix = table.mark_matrix()
    h = hashlib.sha256()
    h.update("|".join(labels[c] for c in order).encode())
    for r in order:
        row = matrix[r]
        h.update(("\n" + ",".join(str(row[c]) for c in order)).encode())
    return h.hexdigest()


def marks_match(table, reference: dict) -> bool:
    return reference["classes"] == table.size and reference["digest"] == mark_digest(table)


def lattice_counts(lat) -> list[int]:
    """Subgroups, conjugacy classes, normal subgroups and normal pairs N <= M
    of a subgroup lattice: the sizes of the loops a workload runs over it."""
    pairs = sum(lat.contains_pair(n, m) for n in lat.normal for m in lat.normal)
    return [len(lat.subgroups), len(lat.class_reps), len(lat.normal), pairs]


def lattice_counts_ok(lat, reference) -> bool:
    return lattice_counts(lat) == list(reference)


def is_indicator(vector, cls: int) -> bool:
    """The mark vector of a primitive idempotent is the indicator of its class."""
    return all(v == (1 if r == cls else 0) for r, v in enumerate(vector))


def sums_to_one(idempotents, one) -> bool:
    total = one.table.zero()
    for x in idempotents:
        total = total + x
    return total == one


def orthogonal(product, a: int, b: int, xa) -> bool:
    """xi_a * xi_b is xi_a when a == b and zero otherwise."""
    return product == xa if a == b else product.is_zero()


def ghost_multiplicative(product_vector, va, vb) -> bool:
    """The ghost map is a ring homomorphism: marks multiply pointwise."""
    return len(product_vector) == len(va) == len(vb) and all(
        p == x * y for p, x, y in zip(product_vector, va, vb)
    )


def equal(lhs, rhs) -> bool:
    return lhs == rhs


# ---------------------------------------------------------------------------
# Criterion-03 biset identities on idempotents


def fusion_map(table_h, table_g, emb) -> list[int]:
    """Slice class of G containing each slice class of the subgroup H."""
    out = []
    for c in range(table_h.size):
        big, small = table_h.rep_subgroups(c)
        out.append(
            table_g.class_index(emb.image_members(big.members), emb.image_members(small.members))
        )
    return out


def push_map(table_g, table_q, quot) -> list[int]:
    """Slice class of G/N containing the image of each slice class of G."""
    out = []
    for c in range(table_g.size):
        big, small = table_g.rep_subgroups(c)
        out.append(
            table_q.class_index(quot.image_members(big.members), quot.image_members(small.members))
        )
    return out


def sum_of_fibre(table, classes, target: int):
    """Sum of the idempotents of `table` whose class maps to `target`."""
    out = table.zero()
    for c, image in enumerate(classes):
        if image == target:
            out = out + table.idempotent(c)
    return out


def restriction_ok(result, table_h, h_to_g, cls: int) -> bool:
    """Res(xi_cls) is the sum of the H-idempotents fusing into cls."""
    return result == sum_of_fibre(table_h, h_to_g, cls)


def induction_ok(result, table_g, h_to_g, hcls: int, ratio: Fraction) -> bool:
    """Ind(xi^H_hcls) is |N_G(T,S)| / |N_H(T,S)| times the G-idempotent."""
    return result == table_g.idempotent(h_to_g[hcls]).scaled(ratio)


def inflation_ok(result, table_g, push, qcls: int) -> bool:
    """Inf(xi^Q_qcls) is the sum of the G-idempotents over qcls."""
    return result == sum_of_fibre(table_g, push, qcls)


def deflation_ok(result, table_q, push, cls: int, scalar: Fraction) -> bool:
    """Def(xi_cls) is the predicted scalar times the image idempotent."""
    return result == table_q.idempotent(push[cls]).scaled(scalar)


def transport_ok(result, table_h, image_cls: int) -> bool:
    """Transport along an isomorphism sends xi_cls to the image idempotent."""
    return result == table_h.idempotent(image_cls)


# ---------------------------------------------------------------------------
# Criterion-04 deflation-constant identities


def transitivity_ok(m_s_m, m_s_n, m_image) -> bool:
    """m_{G,S,M} = m_{G,S,N} * m_{G/N,SN/N,M/N} for N <= M normal."""
    return m_s_m == m_s_n * m_image


def factorization_ok(m_s_n, ratio, classical, supplement) -> bool:
    """m_{G,S,N} = ratio * m_{S, S cap N} * (supplement Moebius sum)."""
    return m_s_n == ratio * classical * supplement


def vanishing_ok(predicted: bool, constant) -> bool:
    """The p-group criterion predicts exactly when the constant is zero."""
    return predicted == (constant == 0)


# ---------------------------------------------------------------------------
# Classifications and closures


T_SLICE_TYPES = {(0, 0), (1, 0), (2, 2), (3, 2)}


def b_groups_ok(isomorphic_to_e2) -> bool:
    """The only nontrivial B-group in a small p-group universe is E_p^2;
    the argument says, for each B-group found, whether it is isomorphic to it."""
    return list(isomorphic_to_e2) == [True]


def t_slice_types_ok(types) -> bool:
    """T-slices of elementary abelian groups have (rank T, rank S) in a fixed set."""
    return set(types) == T_SLICE_TYPES


def closure_ok(trace, family_trace, members: int, expected_members: int | None) -> bool:
    """A bounded closure reproduces the family trace in the trusted order window,
    and (for the recorded seeds) has the recorded number of members."""
    return trace == family_trace and (expected_members is None or members == expected_members)


def conditions_ok(report, expect_pass: bool) -> bool:
    """Ideal families pass their closure conditions; the broken cyclic family
    fails with a preimage witness."""
    if expect_pass:
        return report.passed
    return not report.passed and bool(report.preimage_violations)
