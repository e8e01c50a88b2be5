"""Elementary biset operations as linear maps between slice rings.

All five operations run through one slice push: a basis class (T, S) is
sent to its basis image, the images are extended linearly, and they are
cached on the witness record (embedding, quotient or isomorphism), so they
live exactly as long as it does.  Induction, inflation, deflation and
transport send (T, S) to the class of (f(T), f(S)) for the witness's member
map f, and the G-set oracle (`gsets.*_morphism`) checks them.  Restriction
has no single-slice image: its production path is the oracle's orbit
decomposition over the subgroup, checked by the double-coset closed form.
Enabling oracle checking (globally or per call) compares the two paths on
every invocation and raises on disagreement.
"""

from __future__ import annotations

from .groups import (
    GroupEmbedding,
    GroupError,
    GroupIsomorphism,
    GroupQuotient,
    double_cosets,
)
from . import gsets
from .ring import SliceClassTable, SliceRingElement, morphism_to_ring, slice_classes

_ORACLE_CHECK = False


def set_oracle_checking(enabled: bool) -> None:
    """Force an oracle comparison inside every operation (slow, auditable)."""
    global _ORACLE_CHECK
    _ORACLE_CHECK = bool(enabled)


def oracle_checking() -> bool:
    return _ORACLE_CHECK


def induce(elem: SliceRingElement, emb: GroupEmbedding, check: bool = False) -> SliceRingElement:
    """Induction along a subgroup embedding: a slice of H is a slice of G."""
    if elem.table.group is not emb.source:
        raise GroupError("element is not over the embedding's source group")
    return _push(
        "induction", elem, emb, emb.target,
        _slice_image(emb.image_members), _orbit_image(gsets.induce_morphism, emb), check,
    )


def restrict(elem: SliceRingElement, emb: GroupEmbedding, check: bool = False) -> SliceRingElement:
    """Restriction to a subgroup, by orbit decomposition over the subgroup."""
    if elem.table.group is not emb.target:
        raise GroupError("element is not over the embedding's target group")
    return _push(
        "restriction", elem, emb, emb.source,
        _orbit_image(gsets.restrict_morphism, emb),
        lambda table, out_table, cls: _restrict_basis_closed_form(table, out_table, emb, cls),
        check,
    )


def inflate(elem: SliceRingElement, quot: GroupQuotient, check: bool = False) -> SliceRingElement:
    """Inflation along a quotient map: slices lift to their full preimages."""
    if elem.table.group is not quot.group:
        raise GroupError("element is not over the quotient group")
    return _push(
        "inflation", elem, quot, quot.source,
        _slice_image(quot.preimage_members), _orbit_image(gsets.inflate_morphism, quot), check,
    )


def deflate(elem: SliceRingElement, quot: GroupQuotient, check: bool = False) -> SliceRingElement:
    """Deflation mod a normal subgroup: a slice maps to its image slice."""
    if elem.table.group is not quot.source:
        raise GroupError("element is not over the quotient's source group")
    return _push(
        "deflation", elem, quot, quot.group,
        _slice_image(quot.image_members), _orbit_image(gsets.deflate_morphism, quot), check,
    )


def transport(elem: SliceRingElement, iso: GroupIsomorphism, check: bool = False) -> SliceRingElement:
    """Relabel an element along a verified isomorphism."""
    if elem.table.group is not iso.source:
        raise GroupError("element is not over the isomorphism's source")
    return _push(
        "transport", elem, iso, iso.target,
        _slice_image(iso.image_members), _orbit_image(gsets.transport_morphism, iso), check,
    )


def elementary_apply(op: str, elem: SliceRingElement, witness, check: bool = False) -> SliceRingElement:
    """Dispatch by operation name: ind, res, inf, def, iso."""
    table = {
        "ind": induce,
        "res": restrict,
        "inf": inflate,
        "def": deflate,
        "iso": transport,
    }
    try:
        fn = table[op]
    except KeyError:
        raise GroupError(f"unknown elementary operation {op!r}") from None
    return fn(elem, witness, check=check)


# ---------------------------------------------------------------------------
# The slice push
#
# A basis image maps (source table, target table, class) to a
# class -> multiplicity dict over the target table.


def _push(name, elem, witness, out_group, image, check_image, check) -> SliceRingElement:
    """Push `elem` along `witness` into the slice ring of `out_group`."""
    out_table = slice_classes(out_group)
    cache = witness.basis_images.setdefault(name, {})
    for cls in elem.coeffs:
        if cls not in cache:
            cache[cls] = image(elem.table, out_table, cls)
    out = _extend(elem, out_table, cache.__getitem__)
    if check or _ORACLE_CHECK:
        other = _extend(elem, out_table, lambda cls: check_image(elem.table, out_table, cls))
        if other != out:
            raise GroupError(f"{name}: closed form and oracle disagree")
    return out


def _extend(elem: SliceRingElement, out_table: SliceClassTable, image) -> SliceRingElement:
    acc: dict = {}
    for cls, q in elem.coeffs.items():
        for c, m in image(cls).items():
            acc[c] = acc.get(c, 0) + q * m
    return SliceRingElement(out_table, acc)


def _slice_image(member_map):
    """(T, S) goes to the single class of (member_map(T), member_map(S))."""

    def image(table: SliceClassTable, out_table: SliceClassTable, cls: int) -> dict:
        big, small = table.rep_subgroups(cls)
        return {out_table.class_index(member_map(big.members), member_map(small.members)): 1}

    return image


def _orbit_image(morphism_map, witness):
    """The G-set path: map the class's projection, decompose into orbits."""

    def image(table: SliceClassTable, out_table: SliceClassTable, cls: int) -> dict:
        f = morphism_map(table.projection(cls), witness)
        return morphism_to_ring(f, out_table).coeffs

    return image


def _restrict_basis_closed_form(
    table_g: SliceClassTable,
    table_h: SliceClassTable,
    emb: GroupEmbedding,
    cls: int,
) -> dict:
    # double-coset expansion indexed by H\G/S, validated against the oracle
    g = table_g.group
    big, small = table_g.rep_subgroups(cls)
    pairs = []
    for x in double_cosets(g, sorted(emb.images), small.members):
        t_mem = emb.preimage_members({g.conj(x, t) for t in big.members})
        s_mem = emb.preimage_members({g.conj(x, s) for s in small.members})
        pairs.append((t_mem, s_mem))
    return table_h.element_from_pairs(pairs).coeffs
