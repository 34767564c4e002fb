"""Typed refusals: for each malformed call, the exception's exact type and
message.  A subclass does not count: NotAnAutomorphismError is a
ValueError, and a refusal of malformed input must not be one."""

import pytest

from weylp import (A1, Z, AutImages, AutWord, BiPoly, FieldSpec, PolyRing,
                   UniPoly, WeylElement, apply_images, compose, delta_iterated,
                   identity_images, parse_field_spec,
                   pi_component_via_operators, res, res_inverse,
                   res_n_affine_bruteforce, verify_pth_power_identity_2vars)
from weylp import decompose, invert
from weylp.gfq import UsageError

F3 = FieldSpec(3)
F9 = FieldSpec(3, 2)
x = UniPoly.variable(F3)
# over K[t]: the translation (X + t; Y), an automorphism of jacobian 1 that
# decompose, and with it res_inverse and invert, refuse by name
T = PolyRing(F3)
X, Y = BiPoly.gens(T)
SHIFT_BY_T = AutImages(T, Z, X + BiPoly.constant(T, T.gen()), Y)
NOT_A_FIELD = "decompose requires a perfect-field coefficient ring"

REFUSALS = [
    ("images-target",
     lambda: AutImages(F3, "B", *BiPoly.gens(F3)),
     ValueError, "target must be 'A1' or 'Z'"),
    ("word-target", lambda: AutWord(F3, "B", []),
     ValueError, "target must be 'A1' or 'Z'"),
    ("z-images-kind",
     lambda: AutImages(F3, Z, *WeylElement._generators(F3, 1)),
     ValueError, "Z images must be BiPoly values"),
    ("word-generator", lambda: AutWord(F3, Z, ["s"]),
     ValueError, "unknown generator 's'"),
    ("compose-fields",
     lambda: compose(identity_images(F3, Z), identity_images(F9, Z)),
     ValueError, "field mismatch"),
    ("apply-a1-to-a2",
     lambda: apply_images(identity_images(F3, A1), WeylElement.one(F3, 2)),
     ValueError, "A_1 automorphisms act on A_1 elements"),
    ("jacobian-of-a1", lambda: identity_images(F3, A1).jacobian(),
     ValueError, "jacobian is defined on Z images"),
    ("res-of-z", lambda: res(identity_images(F3, Z)),
     ValueError, "res acts on A_1 automorphisms"),
    ("res-inverse-of-a1", lambda: res_inverse(identity_images(F3, A1)),
     ValueError, "res_inverse acts on centre automorphisms"),
    ("delta-iterated-count", lambda: delta_iterated(x ** 9, -1),
     ValueError, "iterate count must be >= 0"),
    ("component-index", lambda: pi_component_via_operators(x ** 3, 3),
     ValueError, "component index must be in 0..p-1"),
    ("weyl-rank", lambda: WeylElement(F3, {}, 3),
     ValueError, "only A_1 and A_2 are supported"),
    ("weyl-key", lambda: WeylElement.monomial(F3, (1,), 1),
     ValueError, "bad exponent vector (1,)"),
    ("substitute-count",
     lambda: WeylElement.x_gen(F3).substitute_gens(
         [WeylElement.x_gen(F3)]),
     ValueError, "need 2 generator images"),
    ("identity-axis",
     lambda: verify_pth_power_identity_2vars(BiPoly.one(F3), 2),
     ValueError, "axis must be 0 or 1"),
    ("modulus-degree", lambda: FieldSpec(3, 2, (1, 1)),
     UsageError, "modulus must have degree n = 2"),
    ("element-coordinates", lambda: F9.element([1, 2, 3]),
     ValueError, "too many coordinates for n = 2"),
    ("coerce-field", lambda: F3.coerce(1.5),
     TypeError, "cannot coerce 1.5 into p=3"),
    ("coerce-poly-ring", lambda: PolyRing(F3).coerce(1.5),
     TypeError, "cannot coerce 1.5 into (p=3)[t]"),
    ("monomial-exponent", lambda: UniPoly.monomial(F3, -1, 1),
     ValueError, "negative exponent"),
    ("power-exponent", lambda: x ** -1,
     ValueError, "exponent must be a non-negative integer"),
    ("inverse-frobenius", lambda: x.inv_frobenius(),
     ValueError, "exponent 1 not divisible by p = 3"),
    ("bruteforce-size",
     lambda: res_n_affine_bruteforce(F3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                                     [0, 0, 0]),
     ValueError, "only A_1 and A_2 are supported"),
    ("field-spec-component", lambda: parse_field_spec("p"),
     UsageError, "bad field spec component 'p' (want key=value)"),
    ("field-spec-modulus", lambda: parse_field_spec("p=3,n=2,mod=0"),
     UsageError, "modulus must be nonzero"),
    ("decompose-over-poly-ring", lambda: decompose(SHIFT_BY_T),
     ValueError, NOT_A_FIELD),
    ("res-inverse-over-poly-ring", lambda: res_inverse(SHIFT_BY_T),
     ValueError, NOT_A_FIELD),
    ("invert-over-poly-ring", lambda: invert(SHIFT_BY_T),
     ValueError, NOT_A_FIELD),
    ("inverse-frobenius-over-poly-ring",
     lambda: UniPoly(T, {3: T.gen()}).inv_frobenius(),
     ValueError, "inv_frobenius requires a perfect-field coefficient ring"),
]


@pytest.mark.parametrize("call, kind, message",
                         [case[1:] for case in REFUSALS],
                         ids=[case[0] for case in REFUSALS])
def test_refusal(call, kind, message):
    with pytest.raises(Exception) as info:
        call()
    assert (info.type, str(info.value)) == (kind, message)
