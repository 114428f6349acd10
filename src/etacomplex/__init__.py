"""Computational eta-twisted Frobenius structures on categories of complexes.

Layers:

* ``rings`` / ``matrix`` / ``linalg`` — exact linear algebra over Z, Z/m,
  F_p and Q (one sparse solver: valuation tiers over Z/p^k, a CRT split
  for composite m, and over Z Smith's pivot steps on the non-unit residual
  with the rhs carried, after coefficient-free rows have decided NONE).
* ``base`` — base-category instances: scalar twist, graded objects,
  iterated twist powers.
* ``complexes`` — bounded complexes, chain maps, cones, chainwise-split
  pairs, (twisted) homotopy certificates.
* ``frobenius`` — the twisted exact structure: conflation recognition,
  projective/injective lifting, the exact-structure axioms.
* ``gsystems`` — the bridge to bigraded systems with higher differentials:
  reindexing, totalization, inductive completion, homotopy completion.
* ``generators`` — seeded random instances at desk scale.
* ``serialize`` / ``suite`` / ``cli`` — instance files, the property
  suite, and the command-line entry point.
"""

from .base import EtaPower, Graded, ScalarEta, instance_from_json
from .complexes import (
    ChainMap,
    Complex,
    HomotopyCertificate,
    cone,
    eta_chain_map,
    homotopic,
    normalize_exact_pair,
    null_homotopic,
    validate_chain_map,
    validate_complex,
)
from .frobenius import (
    StandardConflation,
    cone_eta,
    cover_deflation,
    env_inflation,
    eta_homotopic,
    eta_null_homotopic,
    is_eta_conflation,
    projective_lift,
    injective_extend,
)
from .gsystems import (
    DeltaComplex,
    DeltaMap,
    GMorphism,
    GSystem,
    Obstruction,
    eta_null_complete,
    phi,
    phi_mor,
    psi,
    psi_inv,
    theta_extend,
    theta_extend_mor,
    theta_triangle_check,
    totalize,
    validate_delta,
    validate_gsystem,
)
from .linalg import smith_normal_form, solve_linear_system
from .matrix import RingMatrix, mat_mul
from .rings import GF, QQ, ZZ, CoeffRing, Zmod, ring_from_name
from .serialize import load_instance_file, save_instance_file
from .suite import PROPERTIES, run_property, run_suite

__all__ = [
    "CoeffRing", "RingMatrix", "ZZ", "QQ", "GF", "Zmod", "ring_from_name",
    "mat_mul", "smith_normal_form", "solve_linear_system",
    "ScalarEta", "Graded", "EtaPower", "instance_from_json",
    "Complex", "ChainMap", "HomotopyCertificate", "cone", "eta_chain_map",
    "homotopic", "null_homotopic", "normalize_exact_pair",
    "validate_complex", "validate_chain_map",
    "StandardConflation", "is_eta_conflation", "eta_homotopic",
    "eta_null_homotopic", "cone_eta", "env_inflation", "cover_deflation",
    "projective_lift", "injective_extend",
    "GSystem", "GMorphism", "DeltaComplex", "DeltaMap", "Obstruction",
    "psi", "psi_inv", "totalize", "theta_extend", "theta_extend_mor",
    "theta_triangle_check", "eta_null_complete", "phi", "phi_mor",
    "validate_gsystem", "validate_delta",
    "save_instance_file", "load_instance_file",
    "PROPERTIES", "run_property", "run_suite",
]

__version__ = "0.1.0"
