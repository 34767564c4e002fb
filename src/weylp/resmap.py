"""The restriction of A_1 automorphisms to the centre Z = K[x^p, d^p], its
affine closed form, its inverse, and the affine analogue for A_2.

res always brute-forces the p-th powers of the images (sigma(X) = sigma(x)^p,
sigma(Y) = sigma(d)^p, converted to centre coordinates after a centrality
check); the closed affine formula and the phi rule are cross-checks, never a
fast path.  The image lands in the jacobian-1 subgroup and preserves degree;
both facts are asserted on every call.  It needs only characteristic p, so
it runs over K[t] too; its inverse needs a field.

The inverse goes the way the canonical words suggest: decompose the centre
automorphism into t_nu phi_{f_1} s ... phi_{f_n}, then pull each generator
back (t by the p-th root of its payload, phi by the theta-preimage of its
payload, s by itself) and realize the resulting word on A_1.
"""

from __future__ import annotations

from .autgrp import (A1, Z, AutImages, AutWord, GenAffine, GenPhi, GenS,
                     GenT, Record, _affine_part, _check_affine, affine_forms,
                     decompose, generator_images, in_gamma, realize)
from .gfq import FieldSpec
from .poly import BiPoly, UniPoly
from .theta import theta, theta_inverse
from .weyl import WeylElement


class ResResult(Record):
    """Restriction of an A_1 automorphism: the centre images plus the checked
    invariants (jacobian constant 1, degree preserved): the AutImages
    ``image`` on Z, the FieldElement ``jacobian_value`` and the int degrees
    ``degree_in`` and ``degree_out``."""

    __slots__ = ("image", "jacobian_value", "degree_in", "degree_out")


def res(a: AutImages) -> ResResult:
    """Restrict an A_1 automorphism to the centre by brute-force p-th powers.

    The input is validated by [d', x'] = 1 alone, which in characteristic
    p does not make an endomorphism an automorphism: (x + x^p, d) passes,
    and its image (X + X^p, Y) is what res_inverse and decompose then
    refuse as a stalled degree reduction (ROADMAP item 12, res by
    decomposition, closes this)."""
    if a.target != A1:
        raise ValueError("res acts on A_1 automorphisms")
    a.validate()
    field = a.field
    p = field.characteristic
    pow_x = a.img_x ** p
    pow_y = a.img_y ** p
    # centrality is forced for genuine automorphisms; a failure here means
    # the input was no automorphism after all
    img_x = pow_x.to_center()
    img_y = pow_y.to_center()
    # jacobian 1, checked below, implies what validation would check
    image = AutImages(field, Z, img_x, img_y, validate=False)
    if not in_gamma(image):
        raise AssertionError("restriction left the jacobian-1 subgroup")
    jac_value = image.jacobian().coefficient(BiPoly._origin)
    d_in, d_out = a.degree, image.degree
    if d_in != d_out:
        raise AssertionError("restriction changed the degree: %d -> %d"
                             % (d_in, d_out))
    return ResResult(image, jac_value, d_in, d_out)


def a1_affine_images(field: FieldSpec, matrix, translation) -> AutImages:
    """The affine A_1 automorphism (x, d) -> A (x, d)^T + a; det A must be 1,
    as validation checks: [d', x'] = det A."""
    return generator_images(GenAffine(matrix, translation), field,
                            A1).validate()


def z_affine_images(field: FieldSpec, matrix, translation) -> AutImages:
    return generator_images(GenAffine(matrix, translation), field,
                            Z).validate()


def res_affine(field: FieldSpec, matrix, translation) -> AutImages:
    """Closed form of the restriction on affine automorphisms: res_n_affine
    at n = 1 (a 2x2 matrix is symplectic iff its determinant is 1), that is
    entrywise p-th powers, with the extra translation term (e^2+ab, f^2+cd)
    when p = 2."""
    return z_affine_images(field, *res_n_affine(field, matrix, translation))


def res_phi(f: UniPoly) -> UniPoly:
    """Payload rule for triangular automorphisms: res(phi_f) = phi_{g} with
    g the theta image of f written in X (exponent/p)."""
    # theta rejects images off K[x^p], so component 0 is the whole image
    return theta(f).p_decompose("X")[0]


def res_inverse(g: AutImages) -> AutImages:
    """Preimage of a jacobian-1 centre automorphism under res: decompose,
    map t_nu -> t_{nu^{1/p}}, phi_f -> phi_{theta^{-1}(f)}, s -> s, realize
    on A_1."""
    if g.target != Z:
        raise ValueError("res_inverse acts on centre automorphisms")
    if not in_gamma(g):
        raise ValueError(
            "not in the image of res: jacobian is %s, not 1" % g.jacobian())
    word = decompose(g)
    gens = []
    for gen in word.gens:
        if isinstance(gen, GenS):
            gens.append(gen)
        elif isinstance(gen, GenT):
            gens.append(GenT(gen.mu.inv_frobenius()))
        elif isinstance(gen, GenPhi):
            gens.append(GenPhi(theta_inverse(gen.payload.expand_inner("x"))))
        else:
            raise AssertionError("%s in a jacobian-1 decomposition" % (gen,))
    return realize(AutWord._built(g.field, A1, gens))


# ----------------------------------------------------------------------
# the affine story for A_2


def symplectic_form(field: FieldSpec, n: int = 2):
    """Gram matrix of the commutator form on the 2n generators of A_n:
    [x_{n+i}, x_i] = 1 pairs position n+i against i."""
    zero, one = field.zero(), field.one()
    size = 2 * n
    form = [[zero] * size for _ in range(size)]
    for i in range(n):
        form[i][n + i] = -one
        form[n + i][i] = one
    return tuple(tuple(row) for row in form)


def is_symplectic(matrix, field: FieldSpec) -> bool:
    """A^T J A = J for the commutator form J (symplectic_form), entry by
    entry: entry (i, j) of A^T J A is omega(col_i, col_j) = sum_s
    (A[n+s][i] A[s][j] - A[s][i] A[n+s][j]).  Like J it is antisymmetric
    and zero on the diagonal, so the entries i < j decide."""
    n2 = len(matrix)
    if n2 % 2 or any(len(row) != n2 for row in matrix):
        return False
    n = n2 // 2
    form = symplectic_form(field, n)
    return all(field.coerce(sum(
        matrix[n + s][i] * matrix[s][j] - matrix[s][i] * matrix[n + s][j]
        for s in range(n))) == form[i][j]
        for i in range(n2) for j in range(i + 1, n2))


def _require_symplectic(matrix, field: FieldSpec) -> None:
    if not is_symplectic(matrix, field):
        raise ValueError("matrix is not symplectic for the commutator form")


def res_n_affine(field: FieldSpec, matrix, translation):
    """Closed form of the restriction of an affine A_n automorphism
    x_i -> sum_j A_ij x_j + a_i (A symplectic): entrywise p-th powers, and
    for p = 2 the translation picks up a_i^2 + sum_{j<=n} A_ij A_{i,n+j}.
    Returns the (matrix, translation) pair of the affine centre automorphism;
    int entries are read as elements of ``field``."""
    matrix = tuple(tuple(map(field.coerce, row)) for row in matrix)
    translation = tuple(map(field.coerce, translation))
    _require_symplectic(matrix, field)
    _check_affine(matrix, translation, len(matrix))
    p = field.p
    size = len(matrix)
    n = size // 2
    mat_p = tuple(tuple(c ** p for c in row) for row in matrix)
    if p == 2:
        tr_p = []
        for i in range(size):
            corr = field.zero()
            for j in range(n):
                corr = corr + matrix[i][j] * matrix[i][n + j]
            tr_p.append(translation[i] ** 2 + corr)
        tr_p = tuple(tr_p)
    else:
        tr_p = tuple(c ** p for c in translation)
    return mat_p, tr_p


def res_n_affine_bruteforce(field: FieldSpec, matrix, translation):
    """The same restriction computed honestly, for the symplectic matrices
    that res_n_affine accepts: build each affine image in A_n, take its
    p-th power, read it in the centre generators X_j = x_j^p (which checks
    that it is central) and check that it is affine there, then read off
    the coefficient rows."""
    matrix = tuple(tuple(row) for row in matrix)
    size = len(matrix)
    if size not in (2, 4):
        raise ValueError("only A_1 and A_2 are supported")
    _require_symplectic(matrix, field)
    gens = WeylElement._generators(field, size // 2)
    images = affine_forms(gens, matrix, tuple(translation))
    return _affine_part([(w ** field.p)._center_coeffs() for w in images],
                        gens, field.zero())
