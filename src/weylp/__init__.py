"""Exact computation in the first Weyl algebra A_1 = K<x, d | dx - xd = 1>
over small finite fields of characteristic p, and in the automorphism groups
of its centre K[x^p, d^p]: p-th power identities, the degree-filtered
bijection f -> f^p + f^{(p-1)} with a closed-form inverse, canonical words
for plane automorphisms, and the restriction map with its inverse.
"""

from .autgrp import (A1, Z, AutImages, AutWord, GenAffine, GenGamma, GenPhi,
                     GenS, GenT, NotAnAutomorphismError, apply_images,
                     compose, decompose, identity_images, in_gamma, invert,
                     invert_word, normalize_word, realize)
from .gfq import FieldElement, FieldSpec
from .parsing import (ParseError, parse_automorphism, parse_bipoly,
                      parse_field_element, parse_field_spec, parse_images,
                      parse_unipoly, parse_weyl, parse_word)
from .poly import BiPoly, PolyRing, UniPoly, lucas_binomial, p_recompose
from .resmap import (ResResult, a1_affine_images, is_symplectic, res,
                     res_affine, res_inverse, res_n_affine,
                     res_n_affine_bruteforce, res_phi, symplectic_form,
                     z_affine_images)
from .suites import SUITES, SuiteReport, run_suite
from .theta import (delta, delta_geometric, delta_iterated, pi_component,
                    pi_component_via_operators, theta, theta_inverse,
                    theta_inverse_oracle, xp_components)
from .weyl import (WeylElement, jacobian, verify_pth_power_identity,
                   verify_pth_power_identity_2vars)

__all__ = [
    "A1", "Z",
    "AutImages", "AutWord", "BiPoly", "FieldElement", "FieldSpec",
    "GenAffine", "GenGamma", "GenPhi", "GenS", "GenT",
    "NotAnAutomorphismError", "ParseError", "PolyRing", "ResResult",
    "SUITES", "SuiteReport", "UniPoly", "WeylElement",
    "a1_affine_images", "apply_images", "compose", "decompose", "delta",
    "delta_geometric", "delta_iterated", "identity_images", "in_gamma",
    "invert", "invert_word", "is_symplectic", "jacobian", "lucas_binomial",
    "normalize_word", "p_recompose", "parse_automorphism", "parse_bipoly",
    "parse_field_element", "parse_field_spec", "parse_images",
    "parse_unipoly", "parse_weyl", "parse_word", "pi_component",
    "pi_component_via_operators", "realize", "res", "res_affine",
    "res_inverse", "res_n_affine", "res_n_affine_bruteforce", "res_phi",
    "run_suite", "symplectic_form", "theta", "theta_inverse",
    "theta_inverse_oracle", "verify_pth_power_identity",
    "verify_pth_power_identity_2vars", "xp_components", "z_affine_images",
]
