import collections
import copy
import itertools
import pickle
import random

import pytest

from weylp import (A1, Z, AutImages, AutWord, BiPoly, FieldSpec, GenAffine,
                   GenGamma, GenPhi, GenS, GenT, NotAnAutomorphismError,
                   UniPoly, WeylElement, apply_images, compose, decompose,
                   identity_images, in_gamma, invert, invert_word,
                   normalize_word, realize)
from weylp.autgrp import _affine_part, affine_forms
from weylp.suites import random_word

F2 = FieldSpec(2)
F3 = FieldSpec(3)
F5 = FieldSpec(5)
F4 = FieldSpec(2, 2, (1, 1, 1))


def w(spec, *gens, target=Z):
    return AutWord(spec, target, list(gens))


def imgs(spec, *gens, target=Z):
    return realize(w(spec, *gens, target=target))


def x_poly(spec, text_coeffs):
    return UniPoly(spec, {e: spec.coerce(c)
                          for e, c in text_coeffs.items()}, "X")


class TestWordValidation:
    def test_gamma_forbidden_on_a1(self):
        with pytest.raises(ValueError):
            AutWord(F3, A1, [GenGamma(F3.from_int(2))])

    def test_zero_scaling_payload(self):
        with pytest.raises(ValueError):
            AutWord(F3, Z, [GenT(F3.zero())])

    def test_a1_affine_must_be_sl2(self):
        two = F3.from_int(2)
        one = F3.one()
        zero = F3.zero()
        with pytest.raises(ValueError):
            AutWord(F3, A1, [GenAffine(((two, zero), (zero, one)),
                                       (zero, zero))])
        # on Z the same matrix is fine (GL_2)
        AutWord(F3, Z, [GenAffine(((two, zero), (zero, one)), (zero, zero))])

    def test_affine_shape_checked(self):
        one, zero = F3.one(), F3.zero()
        ident = ((one, zero), (zero, one))
        ident4 = tuple(tuple(one if i == j else zero for j in range(4))
                       for i in range(4))
        for gen in (GenAffine(ident, (one,)),
                    GenAffine(ident4, (zero,) * 4)):
            with pytest.raises(ValueError, match="2x2 matrix"):
                AutWord(F3, Z, [gen])

    def test_phi_payload_variable_check(self):
        with pytest.raises(ValueError):
            AutWord(F3, A1, [GenPhi(UniPoly.variable(F3, "X"))])
        with pytest.raises(ValueError):
            AutWord(F3, Z, [GenPhi(UniPoly.variable(F3, "x"))])


class TestRealize:
    def test_s_on_z(self):
        a = imgs(F3, GenS())
        X, Y = BiPoly.gens(F3)
        assert a == AutImages(F3, Z, Y, -X)

    def test_phi_multiplicative(self):
        f = x_poly(F5, {2: 3})
        g = x_poly(F5, {1: 1, 0: 4})
        assert compose(imgs(F5, GenPhi(f)), imgs(F5, GenPhi(g))) == \
            imgs(F5, GenPhi(f + g))

    def test_empty_word_is_identity(self):
        assert imgs(F3) == identity_images(F3, Z)
        assert imgs(F3, target=A1) == identity_images(F3, A1)

    def test_word_concatenation_is_composition(self):
        rng = random.Random(1)
        for spec in (F2, F3):
            for _ in range(15):
                w1 = random_word(rng, spec, Z, max_len=3, max_payload_deg=2)
                w2 = random_word(rng, spec, Z, max_len=3, max_payload_deg=2)
                together = AutWord(spec, Z, w1.gens + w2.gens)
                assert realize(together) == \
                    compose(realize(w1), realize(w2))

    def test_affine_composition_rule(self):
        # sigma_{A,a} sigma_{B,b} = sigma_{BA, Ba+b}
        rng = random.Random(2)
        for _ in range(25):
            def rnd_affine():
                while True:
                    m = ((F5.random_element(rng), F5.random_element(rng)),
                         (F5.random_element(rng), F5.random_element(rng)))
                    if not (m[0][0] * m[1][1] - m[0][1] * m[1][0]).is_zero():
                        return m, (F5.random_element(rng),
                                   F5.random_element(rng))
            (A, a), (B, b) = rnd_affine(), rnd_affine()
            BA = ((B[0][0] * A[0][0] + B[0][1] * A[1][0],
                   B[0][0] * A[0][1] + B[0][1] * A[1][1]),
                  (B[1][0] * A[0][0] + B[1][1] * A[1][0],
                   B[1][0] * A[0][1] + B[1][1] * A[1][1]))
            Ba_b = (B[0][0] * a[0] + B[0][1] * a[1] + b[0],
                    B[1][0] * a[0] + B[1][1] * a[1] + b[1])
            assert compose(imgs(F5, GenAffine(A, a)),
                           imgs(F5, GenAffine(B, b))) == \
                imgs(F5, GenAffine(BA, Ba_b))

    def test_a1_images_preserve_relation(self):
        rng = random.Random(3)
        one = WeylElement.one(F3)
        for _ in range(20):
            sigma = realize(random_word(rng, F3, A1, max_len=4,
                                        max_payload_deg=3))
            assert sigma.img_y.commutator(sigma.img_x) == one


class TestCompose:
    def test_identity_neutral(self):
        rng = random.Random(4)
        ident = identity_images(F3, Z)
        for _ in range(10):
            a = realize(random_word(rng, F3, Z, max_len=3))
            assert compose(ident, a) == a
            assert compose(a, ident) == a

    def test_affine_conjugation(self):
        # sigma_{A,0} sigma_{1,a} sigma_{A,0}^{-1} = sigma_{1, A^{-1} a}
        rng = random.Random(5)
        one, zero = F5.one(), F5.zero()
        ident_m = ((one, zero), (zero, one))
        for _ in range(20):
            while True:
                A = ((F5.random_element(rng), F5.random_element(rng)),
                     (F5.random_element(rng), F5.random_element(rng)))
                det = A[0][0] * A[1][1] - A[0][1] * A[1][0]
                if not det.is_zero():
                    break
            a = (F5.random_element(rng), F5.random_element(rng))
            di = det.inv()
            A_inv = ((A[1][1] * di, -A[0][1] * di),
                     (-A[1][0] * di, A[0][0] * di))
            lhs = compose(compose(imgs(F5, GenAffine(A, (zero, zero))),
                                  imgs(F5, GenAffine(ident_m, a))),
                          imgs(F5, GenAffine(A_inv, (zero, zero))))
            A_inv_a = (A_inv[0][0] * a[0] + A_inv[0][1] * a[1],
                       A_inv[1][0] * a[0] + A_inv[1][1] * a[1])
            assert lhs == imgs(F5, GenAffine(ident_m, A_inv_a))

    def test_s_squared_is_t_minus_one(self):
        for spec in (F3, F5):
            s = imgs(spec, GenS())
            assert compose(s, s) == imgs(spec, GenT(-spec.one()))

    def test_target_mismatch(self):
        with pytest.raises(ValueError):
            compose(identity_images(F3, Z), identity_images(F3, A1))


class TestDegreeGammaApply:
    def test_degree(self):
        assert identity_images(F3, Z).degree == 1
        assert imgs(F3, GenPhi(x_poly(F3, {2: 1}))).degree == 2
        assert imgs(F3, GenAffine(((F3.one(), F3.zero()),
                                   (F3.one(), F3.one())),
                                  (F3.zero(), F3.one()))).degree == 1

    def test_in_gamma(self):
        assert in_gamma(imgs(F3, GenS()))
        assert not in_gamma(imgs(F3, GenGamma(F3.from_int(2))))
        assert in_gamma(imgs(F3, GenPhi(x_poly(F3, {3: 2}))))

    def test_apply(self):
        X, Y = BiPoly.gens(F3)
        z = X * Y
        assert apply_images(identity_images(F3, Z), z) == z
        assert apply_images(imgs(F3, GenS()), z) == -(X * Y)
        assert apply_images(imgs(F3, GenPhi(x_poly(F3, {5: 1}))), X) == X

    def test_apply_type_checks(self):
        with pytest.raises(ValueError):
            apply_images(identity_images(F3, Z), WeylElement.one(F3))


class TestRelations:
    """The five generator relations at image level."""

    @pytest.mark.parametrize("spec", [F2, F3, F5, F4])
    def test_all_relations(self, spec):
        rng = random.Random(11)
        one = spec.one()
        for _ in range(50):
            mu = spec.random_nonzero(rng)
            lam = spec.random_element(rng)
            i = rng.randint(0, 4)
            phi = GenPhi(UniPoly.monomial(spec, i, lam, "X"))
            mu_inv = mu.inv()
            assert imgs(spec, GenS(), GenT(mu)) == \
                imgs(spec, GenT(mu_inv), GenS())
            assert imgs(spec, GenS(), GenGamma(mu)) == \
                imgs(spec, GenGamma(mu), GenT(mu_inv), GenS())
            assert imgs(spec, phi, GenT(mu)) == \
                imgs(spec, GenT(mu),
                     GenPhi(phi.payload.scale(mu_inv ** (i + 1))))
            assert imgs(spec, phi, GenGamma(mu)) == \
                imgs(spec, GenGamma(mu),
                     GenPhi(phi.payload.scale(mu_inv ** i)))
            assert imgs(spec, GenS(), GenS()) == imgs(spec, GenT(-one))

    def test_s_inverse(self):
        # s^{-1} = t_{-1} s : X -> -Y, Y -> X
        for spec in (F3, F5):
            X, Y = BiPoly.gens(spec)
            s_inv = imgs(spec, GenT(-spec.one()), GenS())
            assert s_inv == AutImages(spec, Z, -Y, X)
            assert compose(imgs(spec, GenS()), s_inv) == \
                identity_images(spec, Z)

    def test_t_gamma_commute(self):
        mu, nu = F5.from_int(2), F5.from_int(3)
        assert imgs(F5, GenT(mu), GenGamma(nu)) == \
            imgs(F5, GenGamma(nu), GenT(mu))


class TestNormalize:
    def test_preserves_images(self):
        rng = random.Random(13)
        for spec in (F2, F3, F5):
            for _ in range(30):
                gens = []
                for _ in range(rng.randint(1, 7)):
                    k = rng.randrange(4)
                    if k == 0:
                        gens.append(GenS())
                    elif k == 1:
                        gens.append(GenT(spec.random_nonzero(rng)))
                    elif k == 2:
                        gens.append(GenGamma(spec.random_nonzero(rng)))
                    else:
                        d = rng.randint(0, 3)
                        gens.append(GenPhi(UniPoly.monomial(
                            spec, d, spec.random_element(rng), "X")))
                word = AutWord(spec, Z, gens)
                norm = normalize_word(word)
                assert realize(norm) == realize(word)
                # canonical: gamma then t then alternating phi/s
                kinds = [type(g) for g in norm.gens]
                assert kinds == sorted(
                    kinds, key=lambda k: {GenGamma: 0, GenT: 1}.get(k, 2))
                for a, b in zip(norm.gens, norm.gens[1:]):
                    assert not (isinstance(a, GenS) and isinstance(b, GenS))
                    assert not (isinstance(a, GenPhi)
                                and isinstance(b, GenPhi))


class TestDecompose:
    def test_identity(self):
        word = decompose(identity_images(F3, Z))
        assert word.gens == (GenT(F3.one()),)
        assert realize(word) == identity_images(F3, Z)

    def test_elementary(self):
        img = imgs(F2, GenPhi(x_poly(F2, {2: 1})))
        word = decompose(img)
        assert word.gens == (GenPhi(x_poly(F2, {2: 1})),)

    def test_roundtrip_random_gamma_words(self):
        rng = random.Random(17)
        for spec in (F2, F3, F4):
            for _ in range(25):
                word = random_word(rng, spec, Z, max_len=6,
                                   max_payload_deg=4)
                img = realize(word)
                out = decompose(img)
                assert realize(out) == img
                assert not any(isinstance(g, GenGamma) for g in out.gens)

    def test_gamma_factor_appears_iff_jacobian_not_one(self):
        rng = random.Random(19)
        for _ in range(15):
            mu = F5.random_nonzero(rng)
            word = random_word(rng, F5, Z, max_len=4, max_payload_deg=3)
            img = realize(AutWord(F5, Z, (GenGamma(mu),) + word.gens))
            out = decompose(img)
            assert realize(out) == img
            gammas = [g for g in out.gens if isinstance(g, GenGamma)]
            if mu == F5.one():
                assert not gammas
            else:
                assert len(gammas) == 1 and gammas[0].mu == mu

    def test_deterministic(self):
        rng = random.Random(23)
        word = random_word(rng, F3, Z, max_len=5, max_payload_deg=3)
        img = realize(word)
        assert decompose(img).gens == decompose(img).gens

    def test_rejects_non_automorphisms(self):
        X, Y = BiPoly.gens(F3)
        X2, Y2 = BiPoly.gens(F2)
        bad = [
            AutImages(F3, Z, X ** 2, Y, validate=False),       # J = 2X
            AutImages(F3, Z, X + X ** 3, Y, validate=False),   # J = 1, stalls
            AutImages(F3, Z, X, X * Y, validate=False),        # J = X
            AutImages(F3, Z, X + Y, X + Y, validate=False),    # J = 0
            AutImages(F3, Z, Y, Y, validate=False),            # J = 0
            AutImages(F3, Z, BiPoly.constant(F3, 1), Y, validate=False),
            AutImages(F2, Z, X2 ** 2, Y2, validate=False),     # J = 0 (p=2)
            AutImages(F2, Z, X2 + X2 ** 2 * Y2, Y2, validate=False),
            AutImages(F3, Z, X ** 3, Y ** 3, validate=False),  # J = 0
            AutImages(F3, Z, X, Y + Y ** 3, validate=False),   # stalls
        ]
        for img in bad:
            with pytest.raises(NotAnAutomorphismError):
                decompose(img)

    def test_requires_z_target(self):
        with pytest.raises(ValueError):
            decompose(identity_images(F3, A1))

    def test_validating_constructor_rejects_bad_jacobian(self):
        X, Y = BiPoly.gens(F3)
        with pytest.raises(NotAnAutomorphismError):
            AutImages(F3, Z, X ** 2, Y)
        with pytest.raises(NotAnAutomorphismError):
            AutImages(F3, A1, WeylElement.x_gen(F3), WeylElement.x_gen(F3))


class TestInvert:
    def test_invert_word_and_images(self):
        rng = random.Random(29)
        ident = identity_images(F3, Z)
        for _ in range(15):
            word = random_word(rng, F3, Z, max_len=4, max_payload_deg=3)
            img = realize(word)
            back = realize(invert_word(word))
            assert compose(img, back) == ident
            assert compose(back, img) == ident
            inv_img = invert(img)
            assert compose(img, inv_img) == ident


class TestGeneratorRecords:
    """The value semantics of the generator records: equality by class and
    fields, hashing, immutability and the printed form."""

    F9 = FieldSpec(3, 2)

    def test_equality_needs_class_and_fields(self):
        g, one = self.F9.gen(), self.F9.one()
        assert GenT(g) == GenT(g)
        assert GenT(g) != GenT(one)
        assert GenT(g) != GenGamma(g)
        assert GenS() == GenS()
        assert GenS() != GenT(g)

    def test_hashing(self):
        F = self.F9
        g, one, zero = F.gen(), F.one(), F.zero()
        a = GenAffine(((one, g), (zero, one)), (g, zero))
        b = GenAffine(((one, g), (zero, one)), (g, zero))
        assert a == b and hash(a) == hash(b)
        assert hash(GenT(g)) == hash(GenT(g))
        assert hash(GenS()) == hash(GenS())
        with pytest.raises(TypeError):
            hash(GenPhi(UniPoly.variable(F, "x")))

    def test_immutable(self):
        g = self.F9.gen()
        gen = GenT(g)
        with pytest.raises(AttributeError):
            gen.mu = self.F9.one()
        with pytest.raises(AttributeError):
            del gen.mu
        with pytest.raises(AttributeError):
            GenS().mu = g
        assert gen.mu is g

    def test_repr(self):
        F = self.F9
        g, one, zero = F.gen(), F.one(), F.zero()
        assert repr(GenS()) == "GenS()"
        assert repr(GenT(g)) == "GenT(mu=g)"
        assert repr(GenGamma(g + one)) == "GenGamma(mu=1+g)"
        x = UniPoly.variable(F, "x")
        assert repr(GenPhi(x * x + UniPoly.constant(F, g, "x"))) == (
            "GenPhi(payload=UniPoly(x^2+g))")
        assert repr(GenAffine(((one, g), (zero, one)), (g, zero))) == (
            "GenAffine(matrix=((1, g), (0, 1)), translation=(g, 0))")


class TestWordPayloads:
    """A word refuses scaling payloads and affine entries that are not
    elements of its field, naming the generator."""

    def test_int_scaling_payload(self):
        with pytest.raises(ValueError, match="GenT"):
            AutWord(F3, Z, [GenT(2)])

    def test_int_affine_entries(self):
        with pytest.raises(ValueError, match="GenAffine"):
            AutWord(F3, Z, [GenAffine(((1, 0), (0, 1)), (0, 0))])

    def test_scaling_payload_from_another_field(self):
        with pytest.raises(ValueError, match="GenGamma"):
            AutWord(F3, Z, [GenGamma(F5.from_int(2))])

    def test_affine_entry_from_another_field(self):
        one, zero = F3.one(), F3.zero()
        with pytest.raises(ValueError, match="GenAffine"):
            AutWord(F3, A1, [GenAffine(((one, zero), (zero, one)),
                                       (zero, F5.one()))])


class TestInvertAllGenerators:
    """invert_word on every generator kind, affine maps included, over
    F_49: the word times its inverse realizes the identity, both ways."""

    F49 = FieldSpec(7, 2)

    def check_inverse(self, word):
        ident = identity_images(word.field, word.target)
        img, back = realize(word), realize(invert_word(word))
        assert compose(img, back) == ident
        assert compose(back, img) == ident

    def test_z_word(self):
        F = self.F49
        g, one, zero = F.gen(), F.one(), F.zero()
        X = UniPoly.variable(F, "X")
        affine = GenAffine(((g, one), (F.from_int(3), zero)), (one, g))
        self.check_inverse(w(F, affine, GenPhi(X ** 2 + X.scale(g)), GenS(),
                             GenT(g + one), GenGamma(g)))

    def test_a1_word(self):
        F = self.F49
        g, one = F.gen(), F.one()
        x = UniPoly.variable(F, "x")
        affine = GenAffine(((g, one), (g * g - one, g)), (g, F.from_int(5)))
        self.check_inverse(w(F, GenPhi(x ** 3), affine, GenS(), GenT(g),
                             target=A1))


class TestRecordCopies:
    """Records survive copy.copy, copy.deepcopy and a pickle round trip as
    equal records; an unvalidated endomorphism is not validated again."""

    F9 = FieldSpec(3, 2)

    def records(self):
        from weylp.resmap import res
        from weylp.suites import SuiteReport
        F = self.F9
        g, one, zero = F.gen(), F.one(), F.zero()
        x = UniPoly.variable(F, "x")
        word = w(F, GenT(g), GenPhi(x ** 2), target=A1)
        X, Y = BiPoly.gens(F3)
        return [GenT(g), GenPhi(x + x ** 4),
                GenAffine(((one, g), (zero, one)), (g, zero)),
                res(realize(word)), SuiteReport("demo", 5, 3, ["x^2+1"]),
                word, AutImages(F3, Z, X ** 2, Y, validate=False)]

    @pytest.mark.parametrize("copier", [
        copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))],
        ids=["copy", "deepcopy", "pickle"])
    def test_round_trip(self, copier):
        for record in self.records():
            out = copier(record)
            assert type(out) is type(record)
            assert out == record


class TestPhiPayloadType:
    """A phi payload that is not a polynomial is refused with a ValueError
    that names the generator."""

    def test_int_payload(self):
        with pytest.raises(ValueError, match="GenPhi"):
            AutWord(F3, Z, [GenPhi(3)])

    def test_two_variable_payload(self):
        with pytest.raises(ValueError, match="GenPhi"):
            AutWord(F3, A1, [GenPhi(BiPoly.gens(F3)[0])])


class TestRealizeFold:
    """realize starts from the first generator's images: the same images
    as the left fold of compose from the identity, one compose fewer."""

    @pytest.mark.parametrize("target", [A1, Z])
    def test_empty_word_is_identity(self, target):
        for spec in (F2, F4):
            assert realize(w(spec, target=target)) == \
                identity_images(spec, target)

    @pytest.mark.parametrize("target", [A1, Z])
    def test_one_generator(self, target):
        from weylp.autgrp import generator_images
        one, g = F4.one(), F4.gen()
        gens = [GenS(), GenT(g), GenPhi(UniPoly(F4, {0: g, 2: one},
                                               "x" if target == A1 else "X")),
                GenAffine(((one, g), (F4.zero(), one)), (g, one))]
        if target == Z:
            gens.append(GenGamma(g))
        for gen in gens:
            assert realize(w(F4, gen, target=target)) == \
                generator_images(gen, F4, target)

    @pytest.mark.parametrize("target", [A1, Z])
    def test_random_words_match_left_fold(self, target, monkeypatch):
        import weylp.autgrp as autgrp
        rng = random.Random(21)
        calls = []

        def counted(a, b):
            calls.append(1)
            return compose(a, b)

        for spec in (F2, F3, F4):
            for _ in range(10):
                word = random_word(rng, spec, target, max_len=4,
                                   max_payload_deg=2)
                expected = identity_images(spec, target)
                for gen in word.gens:
                    expected = compose(expected, autgrp.generator_images(
                        gen, spec, target))
                monkeypatch.setattr(autgrp, "compose", counted)
                del calls[:]
                assert realize(word) == expected
                assert len(calls) == max(len(word) - 1, 0)
                monkeypatch.undo()


class TestAffinePart:
    """_affine_part reads back the matrix and translation that affine_forms
    builds the generator images from, and refuses an image with a key of
    degree 2."""

    GENS = {"Z": lambda spec: BiPoly.gens(spec),
            "A1": lambda spec: WeylElement._generators(spec, 1),
            "A2": lambda spec: WeylElement._generators(spec, 2)}

    FIELDS = [F3, FieldSpec(7, 2), FieldSpec(7, 3)]

    @pytest.mark.parametrize("kind", sorted(GENS))
    @pytest.mark.parametrize("spec", FIELDS, ids=str)
    def test_inverse_of_affine_forms(self, spec, kind):
        gens = self.GENS[kind](spec)
        size = len(gens)
        rng = random.Random(size)
        for _ in range(8):
            matrix = tuple(tuple(spec.random_element(rng)
                                 for _ in range(size)) for _ in range(size))
            translation = tuple(spec.random_element(rng)
                                for _ in range(size))
            images = affine_forms(gens, matrix, translation)
            assert _affine_part([g.coeffs for g in images], gens,
                                spec.zero()) == (matrix, translation)

    @pytest.mark.parametrize("kind", sorted(GENS))
    @pytest.mark.parametrize("spec", FIELDS, ids=str)
    def test_int_entries(self, spec, kind):
        gens = self.GENS[kind](spec)
        size = len(gens)
        matrix = tuple(tuple(i * size + j for j in range(size))
                       for i in range(size))
        translation = tuple(range(1, size + 1))
        images = affine_forms(gens, matrix, translation)
        part = _affine_part([g.coeffs for g in images], gens, spec.zero())
        assert part == (tuple(tuple(map(spec.coerce, row)) for row in matrix),
                        tuple(map(spec.coerce, translation)))

    @pytest.mark.parametrize("kind", sorted(GENS))
    def test_degree_two_key_refused(self, kind):
        gens = self.GENS[kind](F3)
        images = affine_forms(gens, [[1] * len(gens)] * len(gens),
                              [0] * len(gens))
        images[-1] = images[-1] + gens[0] * gens[-1]
        with pytest.raises(AssertionError, match="not affine"):
            _affine_part([g.coeffs for g in images], gens, F3.zero())


class TestImagesOverAnotherField:
    """AutImages refuses images over a field other than its own with a plain
    ValueError, validated or not: the images are not wrong, they are in
    the wrong algebra."""

    F9 = FieldSpec(3, 2)

    @pytest.mark.parametrize("validate", [True, False])
    @pytest.mark.parametrize("target", [Z, A1])
    def test_identity_over_f9_in_an_f3_pair(self, target, validate):
        gens = (BiPoly.gens(self.F9) if target == Z
                else WeylElement._generators(self.F9, 1))
        with pytest.raises(ValueError, match="over p=3") as err:
            AutImages(F3, target, *gens, validate=validate)
        assert not isinstance(err.value, NotAnAutomorphismError)

    def test_one_image_over_another_field(self):
        X, _ = BiPoly.gens(F3)
        with pytest.raises(ValueError) as err:
            AutImages(F3, Z, X, BiPoly.gens(self.F9)[1], validate=False)
        assert not isinstance(err.value, NotAnAutomorphismError)

    def test_equal_field_built_separately(self):
        twin = FieldSpec(3)
        assert AutImages(F3, Z, *BiPoly.gens(twin)) == identity_images(F3, Z)
        assert (AutImages(F3, A1, *WeylElement._generators(twin, 1))
                == identity_images(F3, A1))


class TestGeneratorFieldsAndWordRepr:
    def test_missing_field_refused(self):
        with pytest.raises(TypeError) as info:
            GenT()
        assert str(info.value) == "GenT takes the fields (mu)"

    def test_repr_of_z_word(self):
        assert repr(w(F3, GenS())) == "AutWord(Z: s)"


class TestRefusalsThatCanOccur:
    """decompose refuses a non-automorphism in exactly two ways: validate
    finds a jacobian that is not a nonzero constant, or the degree
    reduction stalls.  Every pair of total degree <= 2 over F_2, and a
    seeded sample over F_3, ends in one of those or in a word that
    realizes back to the pair."""

    PREFIXES = ("jacobian ", "degree reduction stalled: ")

    @staticmethod
    def _quadratics(spec, coefficient_tuples):
        keys = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
        return [BiPoly(spec, {k: spec.from_int(c) for k, c in zip(keys, cs)
                              if c}) for cs in coefficient_tuples]

    def _outcome(self, spec, P, Q):
        pair = AutImages(spec, Z, P, Q, validate=False)
        try:
            word = decompose(pair)
        except NotAnAutomorphismError as err:
            prefix = [p for p in self.PREFIXES if str(err).startswith(p)]
            assert prefix, str(err)
            return prefix[0]
        assert realize(word) == pair, (P, Q, word)
        return "word"

    def test_every_quadratic_pair_over_f2(self):
        polys = self._quadratics(F2, itertools.product(range(2), repeat=6))
        counts = collections.Counter(self._outcome(F2, P, Q)
                                     for P in polys for Q in polys)
        assert counts == {"word": 96, "jacobian ": 3712,
                          "degree reduction stalled: ": 288}

    def test_random_quadratic_pairs_over_f3(self):
        rng = random.Random(24)
        polys = self._quadratics(F3, [[rng.randrange(3) for _ in range(6)]
                                      for _ in range(4000)])
        outcomes = {self._outcome(F3, P, Q)
                    for P, Q in zip(polys[::2], polys[1::2])}
        assert "word" in outcomes
        assert outcomes <= {"word", *self.PREFIXES}
