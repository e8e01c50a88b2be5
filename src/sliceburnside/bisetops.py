"""Elementary biset operations as linear maps between slice rings.

All five operations run through one slice push: a basis class (T, S) is
sent to its basis image, the images are extended linearly, and they are
cached on the witness record (embedding, quotient or isomorphism), so they
live exactly as long as it does.  Induction, inflation, deflation and
transport send (T, S) to the class of (f(T), f(S)) for the witness's member
map f.  Restriction to H is Mackey's formula, the sum over x in H\\G/S of
(H & xTx^-1, H & xSx^-1), which is the basis product's orbit sum
(`SliceClassTable.orbit_sum`) with H in place of (T_i, S_i).  The closed
form is the only path; on every run, criterion 03 of `verify` compares the
image of each basis class it configures with `verify.oracle_image`, the
orbit decomposition of the G-set image.
"""

from __future__ import annotations

from .groups import (
    GroupEmbedding,
    GroupError,
    GroupIsomorphism,
    GroupQuotient,
)
from .ring import SliceClassTable, SliceRingElement, slice_classes


def induce(elem: SliceRingElement, witness: GroupEmbedding) -> SliceRingElement:
    """Induction along a subgroup embedding: a slice of H is a slice of G."""
    if elem.table.group is not witness.source:
        raise GroupError("element is not over the embedding's source group")
    return _push("induction", elem, witness, witness.target, _slice_image(witness.image_members))


def restrict(elem: SliceRingElement, witness: GroupEmbedding) -> SliceRingElement:
    """Restriction to a subgroup H, by Mackey's formula: (T, S) goes to the
    sum over x in H\\G/S of (H & xTx^-1, H & xSx^-1), computed as a sum
    over the conjugates of (T, S) (see `_mackey_image`)."""
    if elem.table.group is not witness.target:
        raise GroupError("element is not over the embedding's target group")
    return _push("restriction", elem, witness, witness.source, _mackey_image(witness))


def inflate(elem: SliceRingElement, witness: GroupQuotient) -> SliceRingElement:
    """Inflation along a quotient map: slices lift to their full preimages."""
    if elem.table.group is not witness.group:
        raise GroupError("element is not over the quotient group")
    return _push(
        "inflation", elem, witness, witness.source, _slice_image(witness.preimage_members)
    )


def deflate(elem: SliceRingElement, witness: GroupQuotient) -> SliceRingElement:
    """Deflation mod a normal subgroup: a slice maps to its image slice."""
    if elem.table.group is not witness.source:
        raise GroupError("element is not over the quotient's source group")
    return _push("deflation", elem, witness, witness.group, _slice_image(witness.image_members))


def transport(elem: SliceRingElement, witness: GroupIsomorphism) -> SliceRingElement:
    """Relabel an element along a verified isomorphism."""
    if elem.table.group is not witness.source:
        raise GroupError("element is not over the isomorphism's source")
    return _push("transport", elem, witness, witness.target, _slice_image(witness.image_members))


# ---------------------------------------------------------------------------
# The slice push
#
# A basis image maps (source table, target table, class) to a
# class -> multiplicity dict over the target table.


def _push(name, elem, witness, out_group, image) -> SliceRingElement:
    """Push `elem` along `witness` into the slice ring of `out_group`."""
    out_table = slice_classes(out_group)
    cache = witness.basis_images.setdefault(name, {})

    def basis_image(cls):
        hit = cache.get(cls)
        if hit is None:
            hit = cache[cls] = image(elem.table, out_table, cls)
        return hit

    return elem.linear_image(out_table, basis_image)


def _slice_image(member_map):
    """(T, S) goes to the single class of (member_map(T), member_map(S))."""

    def image(table: SliceClassTable, out_table: SliceClassTable, cls: int) -> dict:
        big, small = table.rep_subgroups(cls)
        return {out_table.class_index(member_map(big.members), member_map(small.members)): 1}

    return image


def _mackey_image(emb: GroupEmbedding):
    """(T, S) goes to the orbit sum of its class with H as top and bottom,
    each pair (H & T', H & S') read as a class of H."""

    def image(table: SliceClassTable, out_table: SliceClassTable, cls: int) -> dict:
        h = table.lattice.index_of(emb.images)
        pre, class_of = emb.preimage_index, out_table.class_of
        return table.orbit_sum(h, h, cls, lambda t, s: class_of[pre(t), pre(s)])

    return image
