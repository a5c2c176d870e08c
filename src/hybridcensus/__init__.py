"""Exact-arithmetic toolkit: noncommensurability certificates for diagonal
quadratic forms over Q(sqrt(2)), cyclic gluing-word combinatorics, and
equal-volume census tables."""

from .census import CensusRow, VolumeVector, lcom_lower_bound, liminf_check, theorem_table, volume_of
from .exact_arith import (
    SQRT2,
    LocalPlace,
    LocalValue,
    Sqrt2Int,
    hensel_lift_sqrt2,
    is_square_f,
    is_square_q,
    legendre,
    sqrt_mod_p,
    valuation_f,
)
from .gluing import (
    CyclicWord,
    StabilizerReport,
    canonical_rotation,
    dihedral_stabilizer,
    enumerate_classes,
    isometry_upper_bound,
    necklace_count,
    primitive_root,
    same_class,
)
from .quadform import (
    DiagonalForm,
    NoncommCertificate,
    certify_noncommensurable,
    disc_class,
    generate_family,
    hasse_witt,
    hilbert_symbol,
    is_admissible,
    is_anisotropic_certified,
    signatures,
    verify_certificate,
)

__version__ = "0.1.0"
