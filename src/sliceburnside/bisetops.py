"""Elementary biset operations as linear maps between slice rings.

All five operations run through one slice push: the basis images of an
element's support are cached on the witness record (embedding, quotient or
isomorphism), so they live as long as it does, and extended linearly.
Induction, inflation, deflation and transport send the class of lattice
indices (t, s) to `class_of[m[t], m[s]]`, m the witness's subgroup-index
map in their direction, built once per witness.  Restriction to H is
Mackey's formula, the sum over x in H\\G/S of (H & xTx^-1, H & xSx^-1): the
orbit sum (`SliceClassTable.orbit_sum`) with H in place of (T_i, S_i), read
back through the embedding's inverse map.  The closed form is the only
path; criterion 03 of `verify` compares the image of each basis class it
configures with `verify.oracle_image`, the orbit decomposition of the G-set
image.
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
    return _push("induction", elem, witness, witness.target, _slice_image(witness.image_indices()))


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
        "inflation", elem, witness, witness.source, _slice_image(witness.preimage_indices())
    )


def deflate(elem: SliceRingElement, witness: GroupQuotient) -> SliceRingElement:
    """Deflation mod a normal subgroup: a slice maps to its image slice."""
    if elem.table.group is not witness.source:
        raise GroupError("element is not over the quotient's source group")
    return _push("deflation", elem, witness, witness.group, _slice_image(witness.image_indices()))


def transport(elem: SliceRingElement, witness: GroupIsomorphism) -> SliceRingElement:
    """Relabel an element along a verified isomorphism."""
    if elem.table.group is not witness.source:
        raise GroupError("element is not over the isomorphism's source")
    return _push("transport", elem, witness, witness.target, _slice_image(witness.image_indices()))


# ---------------------------------------------------------------------------
# The slice push
#
# A basis image maps (source table, target table, class) to a
# class -> multiplicity dict over the target table.


def _push(name, elem, witness, out_group, image) -> SliceRingElement:
    """Push `elem` along `witness` into the slice ring of `out_group`."""
    out_table = slice_classes(out_group)
    cache = witness.basis_images.setdefault(name, {})
    for cls in elem.numerators:
        if cls not in cache:
            cache[cls] = image(elem.table, out_table, cls)
    return elem.linear_image(out_table, cache)


def _slice_image(m):
    """(T, S) goes to the single class of (m[T], m[S]), m a subgroup-index map."""

    def image(table: SliceClassTable, out_table: SliceClassTable, cls: int) -> dict:
        t, s = table.reps[cls]
        return {out_table.class_of[m[t], m[s]]: 1}

    return image


def _mackey_image(emb: GroupEmbedding):
    """(T, S) goes to the orbit sum of its class with H as top and bottom,
    each pair (H & T', H & S') read as a class of H."""
    h, pre = emb.image_indices()[-1], emb.preimage_indices()

    def image(table: SliceClassTable, out_table: SliceClassTable, cls: int) -> dict:
        class_of = out_table.class_of
        return table.orbit_sum(h, h, cls, lambda t, s: class_of[pre[t], pre[s]])

    return image
