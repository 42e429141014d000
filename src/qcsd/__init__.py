"""Quasi-cyclic self-dual codes over small fields via codes over F_q[Y]/(Y^m - 1)."""

__version__ = "0.1.0"  # set before the submodules load: classify records it

from .analysis import (
    DistanceScan,
    WeightEnum,
    divisibility_check,
    fixed_subcode,
    is_type_ii_binary,
    is_type_ii_f4,
    macwilliams_transform,
    match_template,
    min_distance,
    min_distance_prefix,
    shift_congruence_check,
    weight_enumerator,
)
from .buildup import extend_i, extend_ii, reduce, seed
from .classify import (
    ClassificationRun,
    classify,
    filter_report,
    replay_trail,
)
from .equiv import are_equivalent, automorphism_order, fingerprint
from .errors import BudgetExceeded, ConstructionError, UnsupportedCase
from .formats import (
    load_field_code,
    load_ring_code,
    parse_field_code,
    parse_ring_code,
    save_field_code,
    save_ring_code,
    serialize_field_code,
    serialize_ring_code,
)
from .gf import FieldSpec, field
from .qc import (
    FieldCode,
    collapse,
    expand,
    gray_image,
    is_euclidean_self_dual,
    is_shift_invariant,
)
from .rcode import RingCode, StandardForm
from .ring import RingSpec, ring

__all__ = [
    "BudgetExceeded",
    "ClassificationRun",
    "ConstructionError",
    "DistanceScan",
    "FieldCode",
    "FieldSpec",
    "RingCode",
    "RingSpec",
    "StandardForm",
    "UnsupportedCase",
    "WeightEnum",
    "are_equivalent",
    "automorphism_order",
    "classify",
    "collapse",
    "divisibility_check",
    "expand",
    "extend_i",
    "extend_ii",
    "field",
    "filter_report",
    "fingerprint",
    "gray_image",
    "is_euclidean_self_dual",
    "is_shift_invariant",
    "is_type_ii_binary",
    "is_type_ii_f4",
    "load_field_code",
    "load_ring_code",
    "macwilliams_transform",
    "match_template",
    "min_distance",
    "min_distance_prefix",
    "parse_field_code",
    "parse_ring_code",
    "reduce",
    "replay_trail",
    "ring",
    "save_field_code",
    "save_ring_code",
    "seed",
    "serialize_field_code",
    "serialize_ring_code",
    "weight_enumerator",
]
