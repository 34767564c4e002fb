import random

import pytest

from weylp import (A1, Z, AutImages, AutWord, BiPoly, FieldSpec, GenGamma,
                   GenPhi, GenS, GenT, NotAnAutomorphismError, ResResult,
                   UniPoly, WeylElement, a1_affine_images, compose, decompose,
                   in_gamma, is_symplectic, parse_automorphism, realize, res,
                   res_affine, res_inverse, res_n_affine,
                   res_n_affine_bruteforce, res_phi, symplectic_form,
                   z_affine_images)
from weylp import PolyRing
from weylp.autgrp import mat_mul
from weylp.gfq import FieldElement
from weylp.suites import (random_sl2, random_symplectic4, random_word)

F2 = FieldSpec(2)
F3 = FieldSpec(3)
F5 = FieldSpec(5)
F4 = FieldSpec(2, 2, (1, 1, 1))


def imgs(spec, *gens, target=Z):
    return realize(AutWord(spec, target, list(gens)))


class TestResOnGenerators:
    @pytest.mark.parametrize("spec", [F2, F3, F5, F4])
    def test_s_restricts_to_s(self, spec):
        assert res(imgs(spec, GenS(), target=A1)).image == imgs(spec, GenS())

    @pytest.mark.parametrize("spec", [F2, F3, F5, F4])
    def test_t_restricts_to_pth_power(self, spec):
        rng = random.Random(1)
        for _ in range(8):
            mu = spec.random_nonzero(rng)
            assert res(imgs(spec, GenT(mu), target=A1)).image == \
                imgs(spec, GenT(mu ** spec.p))

    def test_phi_x_at_p2(self):
        sigma = imgs(F2, GenPhi(UniPoly.variable(F2)), target=A1)
        X, Y = BiPoly.gens(F2)
        assert res(sigma).image == AutImages(F2, Z, X, Y + X + BiPoly.one(F2))

    @pytest.mark.parametrize("spec", [F2, F3, F5])
    def test_phi_restricts_through_theta(self, spec):
        rng = random.Random(2)
        for _ in range(10):
            deg = rng.randint(0, 4)
            coeffs = {e: spec.random_element(rng) for e in range(deg + 1)}
            f = UniPoly(spec, coeffs, "x")
            sigma = imgs(spec, GenPhi(f), target=A1)
            expected = imgs(spec, GenPhi(res_phi(f)))
            assert res(sigma).image == expected

    def test_identity(self):
        from weylp import identity_images
        r = res(identity_images(F3, A1))
        assert r.image == identity_images(F3, Z)
        assert r.degree_in == r.degree_out == 1

    def test_rejects_non_automorphism_input(self):
        x = WeylElement.x_gen(F3)
        bad = AutImages(F3, A1, x, x, validate=False)
        with pytest.raises(ValueError):
            res(bad)


class TestResInvariants:
    @pytest.mark.parametrize("spec", [F2, F3])
    def test_jacobian_degree_and_monomorphism(self, spec):
        rng = random.Random(3)
        seen = []
        for _ in range(25):
            word = random_word(rng, spec, A1)
            sigma = realize(word)
            r = res(sigma)
            assert r.jacobian_value == spec.one()
            assert in_gamma(r.image)
            assert r.degree_in == r.degree_out == sigma.degree
            seen.append((sigma, r.image))
        # distinct automorphisms restrict to distinct centre automorphisms
        for i in range(len(seen)):
            for j in range(i + 1, len(seen)):
                if seen[i][0] != seen[j][0]:
                    assert seen[i][1] != seen[j][1]

    @pytest.mark.parametrize("spec", [F2, F3])
    def test_homomorphism(self, spec):
        rng = random.Random(4)
        for _ in range(20):
            a = realize(random_word(rng, spec, A1, max_len=3,
                                    max_payload_deg=2))
            b = realize(random_word(rng, spec, A1, max_len=3,
                                    max_payload_deg=2))
            assert res(compose(a, b)).image == \
                compose(res(a).image, res(b).image)


class TestResAffine:
    def test_identity(self):
        one, zero = F3.one(), F3.zero()
        ident = ((one, zero), (zero, one))
        assert res_affine(F3, ident, (zero, zero)) == \
            z_affine_images(F3, ident, (zero, zero))

    def test_p2_translation_correction(self):
        # matrix ((a,b),(c,d)), translation (e,f) -> squares with
        # translation (e^2+ab, f^2+cd)
        one, zero = F2.one(), F2.zero()
        A = ((one, one), (zero, one))
        tr = (one, one)
        out = res_affine(F2, A, tr)
        expected = z_affine_images(
            F2, ((one, one), (zero, one)),
            (one + one * one, one + zero * one))
        assert out == expected

    def test_p3_s_matrix_fixed(self):
        one, zero = F3.one(), F3.zero()
        s_mat = ((zero, one), (-one, zero))
        assert res_affine(F3, s_mat, (zero, zero)) == \
            z_affine_images(F3, s_mat, (zero, zero))

    def test_rejects_non_sl2(self):
        two, one, zero = F3.from_int(2), F3.one(), F3.zero()
        with pytest.raises(ValueError):
            res_affine(F3, ((two, zero), (zero, one)), (zero, zero))

    @pytest.mark.parametrize("spec", [F2, F3, F5, F4])
    def test_equals_brute_force(self, spec):
        rng = random.Random(5)
        for _ in range(30):
            matrix = random_sl2(rng, spec)
            translation = (spec.random_element(rng),
                           spec.random_element(rng))
            fast = res_affine(spec, matrix, translation)
            brute = res(a1_affine_images(spec, matrix, translation)).image
            assert fast == brute


class TestResInverse:
    def test_identity(self):
        from weylp import identity_images
        assert res_inverse(identity_images(F3, Z)) == \
            identity_images(F3, A1)

    def test_phi_X_at_p2(self):
        g = imgs(F2, GenPhi(UniPoly.variable(F2, "X")))
        sigma = res_inverse(g)
        x = WeylElement.x_gen(F2)
        d = WeylElement.d_gen(F2)
        assert sigma == AutImages(F2, A1, x, d + x + WeylElement.one(F2))

    def test_rejects_gamma(self):
        g = imgs(F3, GenGamma(F3.from_int(2)))
        with pytest.raises(ValueError, match="jacobian"):
            res_inverse(g)

    @pytest.mark.parametrize("spec", [F2, F3, F4])
    def test_section_both_ways(self, spec):
        rng = random.Random(6)
        for _ in range(12):
            sigma = realize(random_word(rng, spec, A1, max_len=4,
                                        max_payload_deg=3))
            assert res_inverse(res(sigma).image) == sigma
        for _ in range(12):
            gamma = realize(random_word(rng, spec, Z, max_len=4,
                                        max_payload_deg=3))
            assert res(res_inverse(gamma)).image == gamma


class TestSymplectic:
    def test_form(self):
        form = symplectic_form(F3, 2)
        one, zero = F3.one(), F3.zero()
        assert form[0][2] == -one and form[2][0] == one
        assert form[1][3] == -one and form[3][1] == one
        assert form[0][1] == zero

    def test_random_products_are_symplectic(self):
        rng = random.Random(7)
        for spec in (F2, F3):
            for _ in range(15):
                m = random_symplectic4(rng, spec)
                assert is_symplectic(m, spec)

    def test_rejects_non_symplectic(self):
        one, zero = F3.one(), F3.zero()
        bad = tuple(tuple(one if (i == j and i) else zero for j in range(4))
                    for i in range(4))
        assert not is_symplectic(bad, F3)
        with pytest.raises(ValueError):
            res_n_affine(F3, bad, (zero,) * 4)

    def test_symplectic_preserves_a2_relations(self):
        rng = random.Random(8)
        spec = F3
        gens = ([WeylElement.x_gen(spec, a, 2) for a in range(2)]
                + [WeylElement.d_gen(spec, a, 2) for a in range(2)])
        one = WeylElement.one(spec, 2)
        zero = WeylElement.zero(spec, 2)
        form = symplectic_form(spec, 2)
        for _ in range(5):
            m = random_symplectic4(rng, spec)
            images = []
            for i in range(4):
                w = WeylElement.zero(spec, 2)
                for j in range(4):
                    w = w + gens[j].scale(m[i][j])
                images.append(w)
            for i in range(4):
                for j in range(4):
                    c = images[i].commutator(images[j])
                    expected = one.scale(form[i][j]) \
                        if not form[i][j].is_zero() else zero
                    assert c == expected


class TestResNAffine:
    def test_identity(self):
        one, zero = F3.one(), F3.zero()
        ident = tuple(tuple(one if i == j else zero for j in range(4))
                      for i in range(4))
        out_m, out_t = res_n_affine(F3, ident, (zero,) * 4)
        assert out_m == ident and out_t == (zero,) * 4

    @pytest.mark.parametrize("spec", [F2, F3])
    def test_matches_brute_force(self, spec):
        rng = random.Random(9)
        for i in range(15):
            m = random_symplectic4(rng, spec, force_correction=(i % 3 == 0))
            tr = tuple(spec.random_element(rng) for _ in range(4))
            assert res_n_affine(spec, m, tr) == \
                res_n_affine_bruteforce(spec, m, tr)

    def test_p2_permutation_symplectic_has_no_correction(self):
        # swapping the two blocks pairs each row's x-entry with a zero
        # d-entry, so at p=2 the translation correction vanishes and the
        # image is plain entrywise squares
        one, zero = F2.one(), F2.zero()
        swap = ((zero, zero, one, zero), (zero, zero, zero, one),
                (one, zero, zero, zero), (zero, one, zero, zero))
        assert is_symplectic(swap, F2)
        out_m, out_t = res_n_affine(F2, swap, (zero,) * 4)
        assert out_m == swap and out_t == (zero,) * 4
        assert res_n_affine_bruteforce(F2, swap, (zero,) * 4) == \
            (out_m, out_t)

    def test_p2_correction_term(self):
        # transvection with B_00 = 1 has a nonzero correction on row 0
        one, zero = F2.one(), F2.zero()
        m = ((one, zero, one, zero), (zero, one, zero, zero),
             (zero, zero, one, zero), (zero, zero, zero, one))
        assert is_symplectic(m, F2)
        out_m, out_t = res_n_affine(F2, m, (zero,) * 4)
        assert out_t[0] == one  # 0^2 + a_00 a_02 = 1
        assert res_n_affine_bruteforce(F2, m, (zero,) * 4) == (out_m, out_t)

    def test_n1_agrees_with_res_affine(self):
        rng = random.Random(10)
        for spec in (F2, F3):
            for _ in range(10):
                matrix = random_sl2(rng, spec)
                tr = (spec.random_element(rng), spec.random_element(rng))
                out_m, out_t = res_n_affine(spec, matrix, tr)
                assert z_affine_images(spec, out_m, out_t) == \
                    res_affine(spec, matrix, tr)


def identity_matrix(spec, size):
    return tuple(tuple(spec.one() if i == j else spec.zero()
                       for j in range(size)) for i in range(size))


class TestAffineShape:
    """An affine map whose translation has the wrong length is refused,
    naming the size it needs."""

    def test_res_n_affine(self):
        with pytest.raises(ValueError, match="4x4 matrix"):
            res_n_affine(F3, identity_matrix(F3, 4), (F3.one(),) * 3)

    def test_res_n_affine_bruteforce(self):
        with pytest.raises(ValueError, match="4x4 matrix"):
            res_n_affine_bruteforce(F3, identity_matrix(F3, 4),
                                    (F3.one(),) * 3)

    def test_a1_affine_images(self):
        with pytest.raises(ValueError, match="2x2 matrix"):
            a1_affine_images(F3, identity_matrix(F3, 2), (F3.one(),) * 3)


class TestResResultRecord:
    def test_equality_and_repr(self):
        word = AutWord(F3, A1, [GenT(F3.from_int(2)),
                                GenPhi(UniPoly.variable(F3, "x") ** 2)])
        out = res(realize(word))
        assert out == res(realize(word))
        assert out != res(imgs(F3, GenT(F3.from_int(2)), target=A1))
        assert repr(out) == (
            "ResResult(image=AutImages(Z: (2*X; X^2+2*Y+2)), "
            "jacobian_value=1, degree_in=2, degree_out=2)")
        assert ResResult(image=out.image, jacobian_value=F3.one(),
                         degree_in=2, degree_out=2) == out


class TestBruteForceRefusesNonSymplectic:
    """The affine brute force refuses the matrices the closed form
    refuses."""

    def test_singular_2x2(self):
        for restrict in (res_n_affine, res_n_affine_bruteforce):
            with pytest.raises(ValueError, match="not symplectic"):
                restrict(F3, ((2, 0), (0, 0)), (0, 0))

    def test_invertible_4x4(self):
        # diag(2, 1, 1, 1) is invertible, but it scales [d_1, x_1] by 2
        m = tuple(tuple(F3.from_int(2 if i == j == 0 else int(i == j))
                        for j in range(4)) for i in range(4))
        for restrict in (res_n_affine, res_n_affine_bruteforce):
            with pytest.raises(ValueError, match="not symplectic"):
                restrict(F3, m, (F3.zero(),) * 4)


class TestAffineClosedFormOnInts:
    """res_n_affine reads int entries as field elements, as the brute
    force does, and returns elements of the field."""

    @pytest.mark.parametrize("spec,matrix,translation", [
        (F3, ((2, 0), (0, 2)), (1, 0)),
        (F2, ((1, 0, 1, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
         (1, 0, 1, 1)),
        (F5, ((3, 0, 0, 0), (0, 1, 0, 0), (0, 0, 2, 0), (0, 0, 0, 1)),
         (7, 0, 4, 1)),
    ])
    def test_matches_bruteforce_on_int_input(self, spec, matrix,
                                             translation):
        closed = res_n_affine(spec, matrix, translation)
        assert closed == res_n_affine_bruteforce(spec, matrix, translation)
        mat_p, tr_p = closed
        for c in (*(c for row in mat_p for c in row), *tr_p):
            assert isinstance(c, FieldElement) and c.spec == spec


def dense_is_symplectic(matrix, spec):
    """A^T J A == J as two dense matrix products, the oracle for the entry
    by entry check."""
    form = symplectic_form(spec, len(matrix) // 2)
    return mat_mul(mat_mul(tuple(zip(*matrix)), form), matrix) == form


class TestSymplecticEntrywise:
    """is_symplectic compares omega(col_i, col_j) with J entry by entry;
    it must agree with the dense product on symplectic matrices and on
    ones that miss by a single entry or are random."""

    @pytest.mark.parametrize("spec", [F2, FieldSpec(7, 2), FieldSpec(7, 3)],
                             ids=["F2", "F49", "F343"])
    def test_agrees_with_dense_product(self, spec):
        rng = random.Random(31)
        seen = set()
        for size in (2, 4):
            for _ in range(30):
                m = (random_sl2(rng, spec) if size == 2
                     else random_symplectic4(rng, spec))
                kind = rng.randrange(3)
                if kind == 1:
                    i, j = rng.randrange(size), rng.randrange(size)
                    rows = [list(row) for row in m]
                    rows[i][j] = rows[i][j] + spec.random_nonzero(rng)
                    m = tuple(map(tuple, rows))
                elif kind == 2:
                    m = tuple(tuple(spec.random_element(rng)
                                    for _ in range(size))
                              for _ in range(size))
                expected = dense_is_symplectic(m, spec)
                assert is_symplectic(m, spec) is expected
                seen.add((size, expected))
        assert seen == {(2, True), (2, False), (4, True), (4, False)}

    def test_int_entries(self):
        for m in (((2, 0), (0, 2)), ((1, 1), (0, 1)), ((2, 0), (0, 1)),
                  ((1, 0, 1, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
                  ((3, 0, 0, 0), (0, 1, 0, 0), (0, 0, 2, 0), (0, 0, 0, 1))):
            for spec in (F2, F3, F5):
                assert is_symplectic(m, spec) is dense_is_symplectic(m, spec)

    def test_refuses_odd_and_ragged_shapes(self):
        one, zero = F3.one(), F3.zero()
        assert not is_symplectic(((one,),), F3)
        assert not is_symplectic(((one, zero), (zero,)), F3)
        assert not is_symplectic(((one, zero, zero), (zero, one, zero),
                                  (zero, zero, one)), F3)


# (X + Y^2; Y + X^3) has jacobian 1 - 6 X^2 Y, which is 1 over F_2 and F_3
# (the jacobian conjecture fails in characteristic p), yet its image
# degrees 2 and 3 admit no reduction step: no automorphism
JACOBIAN_ONE_ENDOMORPHISM = "(X+Y^2; Y+X^3)"


@pytest.mark.parametrize("spec", [F2, F3], ids=["p=2", "p=3"])
class TestJacobianOneNonAutomorphism:
    STALLED = "degree reduction stalled: 2 does not divide 3"

    def images(self, spec):
        return parse_automorphism(JACOBIAN_ONE_ENDOMORPHISM, spec, Z)

    def test_jacobian_is_one(self, spec):
        g = self.images(spec)
        assert g.jacobian() == BiPoly.one(spec) and in_gamma(g)

    def test_decompose_refuses(self, spec):
        with pytest.raises(NotAnAutomorphismError) as exc:
            decompose(self.images(spec))
        assert str(exc.value) == self.STALLED

    def test_res_inverse_refuses(self, spec):
        with pytest.raises(NotAnAutomorphismError) as exc:
            res_inverse(self.images(spec))
        assert str(exc.value) == self.STALLED


# res needs only characteristic p (sigma |-> (sigma(x)^p, sigma(d)^p)), so
# it runs over K[t], where the generator rule res(phi_f) = phi_{res_phi(f)}
# and res(s) = s hold as over a field
@pytest.mark.parametrize("base", [F2, F3, FieldSpec(3, 2)],
                         ids=["F2[t]", "F3[t]", "F9[t]"])
class TestResOverPolyRing:
    def payload(self, ring):
        t = ring.gen()
        return UniPoly(ring, {2: t, 0: t ** 2}, "x")

    def check(self, ring, a1_gens, z_gens):
        r = res(imgs(ring, *a1_gens, target=A1))
        assert r.image == imgs(ring, *z_gens)
        assert r.jacobian_value == ring.one()
        assert r.degree_in == r.degree_out == 2
        return r

    def test_phi(self, base):
        ring = PolyRing(base)
        f = self.payload(ring)
        r = self.check(ring, [GenPhi(f)], [GenPhi(res_phi(f))])
        if base == F3:
            assert str(r.image) == "(X; (t^3)*X^2+Y+(t^6+2*t))"

    def test_conjugated_phi(self, base):
        ring = PolyRing(base)
        f = self.payload(ring)
        self.check(ring, [GenS(), GenPhi(f), GenS()],
                   [GenS(), GenPhi(res_phi(f)), GenS()])
