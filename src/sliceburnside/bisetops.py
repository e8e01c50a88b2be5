"""Elementary biset operations as linear maps between slice rings.

Induction, inflation, deflation and transport are relabelings: each sends
the class of lattice indices (t, s) to the one class `class_of[m[t], m[s]]`,
m the witness's subgroup-index map in their direction.  The first push
along a witness (embedding, quotient or isomorphism) builds this class map
for the whole source table as a tuple kept on the witness, so it lives as
long as the witness, and `SliceRingElement.relabelled` extends it linearly.
Restriction to H is Mackey's formula, the sum over x in H\\G/S of
(H & xTx^-1, H & xSx^-1): the orbit sum (`SliceClassTable.orbit_sum`) with H
in place of (T_i, S_i), read back through the embedding's inverse map,
cached per class and extended by `SliceRingElement.linear_image`.  The
closed form is the only path; criterion 03 of `verify` compares the image
of each basis class it configures with `verify.oracle_image`, the orbit
decomposition of the G-set image.
"""

from __future__ import annotations

from .groups import (
    GroupEmbedding,
    GroupError,
    GroupIsomorphism,
    GroupQuotient,
)
from .ring import SliceRingElement, slice_classes


def induce(elem: SliceRingElement, witness: GroupEmbedding) -> SliceRingElement:
    """Induction along a subgroup embedding: a slice of H is a slice of G."""
    if elem.table.group is not witness.source:
        raise GroupError("element is not over the embedding's source group")
    return _relabel("induction", elem, witness, witness.target, witness.image_indices)


def restrict(elem: SliceRingElement, witness: GroupEmbedding) -> SliceRingElement:
    """Restriction to a subgroup H, by Mackey's formula: (T, S) goes to the
    sum over x in H\\G/S of (H & xTx^-1, H & xSx^-1), computed as a sum
    over the conjugates of (T, S) (see `_push`)."""
    if elem.table.group is not witness.target:
        raise GroupError("element is not over the embedding's target group")
    return _push(elem, witness)


def inflate(elem: SliceRingElement, witness: GroupQuotient) -> SliceRingElement:
    """Inflation along a quotient map: slices lift to their full preimages."""
    if elem.table.group is not witness.group:
        raise GroupError("element is not over the quotient group")
    return _relabel("inflation", elem, witness, witness.source, witness.preimage_indices)


def deflate(elem: SliceRingElement, witness: GroupQuotient) -> SliceRingElement:
    """Deflation mod a normal subgroup: a slice maps to its image slice."""
    if elem.table.group is not witness.source:
        raise GroupError("element is not over the quotient's source group")
    return _relabel("deflation", elem, witness, witness.group, witness.image_indices)


def transport(elem: SliceRingElement, witness: GroupIsomorphism) -> SliceRingElement:
    """Relabel an element along a verified isomorphism."""
    if elem.table.group is not witness.source:
        raise GroupError("element is not over the isomorphism's source")
    return _relabel("transport", elem, witness, witness.target, witness.image_indices)


# ---------------------------------------------------------------------------
# The slice pushes
#
# A relabeling keeps a tuple of target classes, one per source class, and
# restriction a {class: multiplicity} dict for each class it has pushed.


def _relabel(name, elem, witness, out_group, index_map) -> SliceRingElement:
    """Push `elem` along `witness` by the class map of `index_map()`, built once."""
    out_table = slice_classes(out_group)
    image = witness.basis_images.get(name)
    if image is None:
        m, class_of = index_map(), out_table.class_of
        image = tuple(class_of[m[t], m[s]] for t, s in elem.table.reps)
        witness.basis_images[name] = image
    return elem.relabelled(out_table, image)


def _push(elem, emb: GroupEmbedding) -> SliceRingElement:
    """Restrict `elem` along `emb`, caching the image of each class: the orbit
    sum of the class with H as top and bottom, each pair (H & T', H & S')
    read as a class of H."""
    out_table = slice_classes(emb.source)
    h, pre, class_of = emb.image_indices()[-1], emb.preimage_indices(), out_table.class_of
    cache = emb.basis_images.setdefault("restriction", {})
    for cls in elem.numerators:
        if cls not in cache:
            cache[cls] = elem.table.orbit_sum(h, h, cls, lambda t, s: class_of[pre[t], pre[s]])
    return elem.linear_image(out_table, cache)
