"""Finite ordered-semigroup toolkit: ideals, generated ideals and
intra-regularity at set level; ideal elements and their generators on
lattice-ordered semigroups; exhaustive enumeration of small structures with
canonical-form deduplication; and brute-force oracles for every generator."""

from .canon import (
    canonical_le,
    canonical_ordered,
    le_structure_id,
    ordered_structure_id,
)
from .enumeration import (
    EnumerationConfig,
    all_lattices,
    all_posets,
    associative_tables,
    enumerate_compatible_orders,
    enumerate_le_semigroups,
    enumerate_ordered_semigroups,
    enumerate_semigroups,
)
from .le import (
    ElementFlags,
    ElementWitness,
    LeSemigroup,
    PoeSemigroup,
    element_class,
    gen_element,
    greatest,
    ideal_elements,
    is_intra_regular_poe,
    le_condition_holds,
    le_condition_scan,
    least_element_oracle,
    order_glb,
    validate_le,
    validate_poe,
    verify_theorem2,
)
from .ordered import (
    ConditionWitness,
    IdealFlags,
    OrderedSemigroup,
    classify_subset,
    condition_holds,
    downward_closure,
    gen_ideal,
    ideal_masks,
    intra_regular_witness,
    is_intra_regular,
    least_ideal_oracle,
    set_product,
    subset_indices,
    subset_mask,
    validate,
    verify_theorem1,
)
from .storage import Loaded, StructureFileError, from_payload, load, save, to_payload

__version__ = "0.1.0"
