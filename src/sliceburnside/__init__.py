"""Exact-arithmetic slice Burnside rings of small finite groups."""

from .groups import (
    FiniteGroup,
    GroupEmbedding,
    GroupError,
    GroupIsomorphism,
    GroupQuotient,
    OrderCapError,
    SpecParseError,
    Subgroup,
    SubgroupLattice,
    all_subgroups,
    automorphism_generators,
    automorphisms,
    cyclic_group,
    dihedral_group,
    direct_product,
    double_cosets,
    elementary_abelian,
    find_isomorphism,
    frattini,
    from_permutation_generators,
    group_from_spec,
    heisenberg_group_p3,
    is_isomorphic,
    is_normal,
    modular_group_p3,
    normalizer,
    quaternion_group,
    quotient,
    subgroup_as_group,
)
from .gsets import (
    GSet,
    GSetMorphism,
    canonical_projection,
    coset_space,
    hom_count,
    identity_morphism,
    morphism_product,
)
from .ring import (
    SliceClassTable,
    SliceRingElement,
    morphism_to_ring,
    slice_classes,
)
from .bisetops import (
    deflate,
    induce,
    inflate,
    restrict,
    transport,
)
from .constants import (
    classical_deflation_constant,
    complement_count,
    deflation_constant,
    deflation_idempotent_scalar,
    is_b_group,
    is_t_slice,
    is_t_slice_of,
    supplement_moebius_sum,
)
from .ideals import (
    FAMILIES,
    GroupUniverse,
    SliceFamily,
    bounded_closure,
    check_conditions,
    ideal_dimension,
    intersection_dimension,
    minimal_groups,
)

__all__ = [name for name in dir() if not name.startswith("_")]
