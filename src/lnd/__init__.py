"""Exact symbolic toolkit for locally nilpotent derivations of Q[x, y, z],
their exponential automorphisms, and the unipotent centralizer calculus."""

from .arith import (
    Poly,
    XYZ,
    YZ,
    ZP,
    ZVAR,
    divide_exact,
    gcd_multivariate,
    poly_to_str,
    substitute,
)
from .automorphisms import (
    Automorphism,
    commutes,
    compose,
    conjugation_formula_check,
    identity,
    inverse,
    inverse_unipotent,
    modification,
    mu_character,
)
from .delta_family import (
    DeltaContext,
    NElem,
    ad_identity_check,
    aut_to_n,
    exp_m_decompose,
    irreducibility_criterion_check,
    make_context,
    n_elem,
    n_mul,
    n_to_aut,
)
from .derivations import (
    Derivation,
    NilpotencyEvidence,
    apply,
    delta,
    exponential,
    is_irreducible,
    is_locally_nilpotent,
    lie_bracket,
    logarithm,
    plinth_search,
    sat_instance_check,
    standard_decomposition,
)
from .groupmodel import (
    CharacterVector,
    GElem,
    GroupLaw,
    char_commutator_check,
    commutator,
    g_elem,
    g_inverse,
    g_mul,
    make_group_law,
    nonfence_commutator_check,
    verify_pres_lemma,
)
from .quotient_geometry import (
    DivisorSymmetry,
    PlaneAut,
    PlaneDivisor,
    affine_symmetries,
    fence_unipotent_witness,
    fixed_scheme_check,
    is_inert,
    is_vertical_fence,
    lift_to_H,
    plane_divisor,
    preserves_divisor,
)
from .syntax import parse_poly

__all__ = [name for name in dir() if not name.startswith("_")]
