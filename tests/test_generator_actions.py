"""realize by generator actions, and the bookkeeping on the way back from
the centre: realize against the left fold of compose; validate and in_gamma
against the units they used to build; the words the package assembles
itself against validated AutWords; kept monomial texts; one hash per
FieldSpec; substitution added into an element; the decompose steps and the
affine word."""

import pickle
import random

import pytest

from weylp import (A1, Z, AutImages, AutWord, BiPoly, FieldSpec, GenAffine,
                   GenGamma, GenPhi, GenS, GenT, NotAnAutomorphismError,
                   PolyRing, UniPoly, WeylElement, compose, decompose,
                   invert_word, normalize_word, realize, res, res_inverse)
from weylp import autgrp, poly, resmap
from weylp.gfq import _format_term, _mono_str
from weylp.poly import random_unipoly
from weylp.suites import random_sl2
from weylp.weyl import jacobian

F2, F3 = FieldSpec(2), FieldSpec(3)
F4, F9 = FieldSpec(2, 2), FieldSpec(3, 2)
F49, F343 = FieldSpec(7, 2), FieldSpec(7, 3)
FIELDS = [F2, F4, F9, F49, F343]
F3T = PolyRing(F3)


def random_generator(rng, spec, target, max_deg=2):
    """One generator of any kind the target allows: s, t, phi, affine (SL_2
    on A_1, GL_2 on Z) and, on Z, gamma."""
    kind = rng.randrange(5 if target == Z else 4)
    if kind == 0:
        return GenS()
    if kind == 1:
        return GenT(spec.random_nonzero(rng))
    if kind == 2:
        return GenPhi(random_unipoly(rng, spec, max_deg,
                                     "x" if target == A1 else "X"))
    if kind == 3:
        (a, b), row = random_sl2(rng, spec)
        if target == Z:
            mu = spec.random_nonzero(rng)
            a, b = a * mu, b * mu
        return GenAffine(((a, b), row), (spec.random_element(rng),
                                         spec.random_element(rng)))
    return GenGamma(spec.random_nonzero(rng))


def images_by_hand(gen, spec, target):
    """The images of one generator, written out from the generator table
    of the autgrp module docstring, independently of its actions."""
    x, y = (WeylElement._generators(spec) if target == A1
            else BiPoly.gens(spec))
    if isinstance(gen, GenS):
        pair = (y, -x)
    elif isinstance(gen, GenT):
        pair = (x.scale(gen.mu), y.scale(gen.mu.inv()))
    elif isinstance(gen, GenGamma):
        pair = (x.scale(gen.mu), y)
    elif isinstance(gen, GenPhi):
        pair = (x, y + type(x).from_unipoly(gen.payload))
    else:
        pair = tuple(x.scale(a) + y.scale(b) + type(x).constant(spec, e)
                     for (a, b), e in zip(gen.matrix, gen.translation))
    return AutImages(spec, target, *pair, validate=False)


def left_fold(word):
    """compose from the identity, one generator's images at a time."""
    spec, target = word.field, word.target
    out = AutImages(spec, target, *(WeylElement._generators(spec)
                                    if target == A1 else BiPoly.gens(spec)),
                    validate=False)
    for gen in word.gens:
        out = compose(out, images_by_hand(gen, spec, target))
    return out


class TestRealizeByActions:
    @pytest.mark.parametrize("target", [A1, Z])
    @pytest.mark.parametrize("spec", FIELDS, ids=str)
    def test_random_words_of_every_kind(self, spec, target, monkeypatch):
        rng = random.Random(spec.q * 7 + len(target))
        kinds = set()
        calls = []
        for _ in range(12):
            word = AutWord(spec, target, [
                random_generator(rng, spec, target)
                for _ in range(rng.randint(0, 4))])
            kinds.update(type(g) for g in word.gens)
            expected = left_fold(word)
            monkeypatch.setattr(autgrp, "compose",
                                lambda a, b: calls.append(1))
            got = realize(word)
            monkeypatch.undo()
            assert got == expected, str(word)
            assert got.validate() is got
        assert not calls
        assert kinds == ({GenS, GenT, GenPhi, GenAffine}
                         | ({GenGamma} if target == Z else set()))

    @pytest.mark.parametrize("target", [A1, Z])
    def test_generator_images_are_the_actions_on_the_identity(self, target):
        rng = random.Random(5)
        for spec in (F4, F49):
            for _ in range(20):
                gen = random_generator(rng, spec, target, 3)
                assert (autgrp.generator_images(gen, spec, target)
                        == images_by_hand(gen, spec, target))


def validate_before(a):
    """AutImages.validate as it read before, with a unit built per call."""
    if a.target == Z:
        jac = jacobian(a.img_x, a.img_y)
        if jac.degree != 0:
            raise NotAnAutomorphismError(
                "jacobian %s is not a nonzero constant" % jac)
    elif a.img_y.commutator(a.img_x) != WeylElement.one(a.field):
        raise NotAnAutomorphismError(
            "images do not preserve the relation [d, x] = 1")
    return a


def in_gamma_before(a):
    return a.jacobian() == BiPoly.one(a.field)


def outcome(fn, a):
    """("ok", the verdict of a test), or the type and message of what
    ``fn`` raised."""
    try:
        value = fn(a)
    except Exception as err:
        return type(err), str(err)
    return "ok", value if isinstance(value, bool) else None


def pairs_to_check():
    """Image pairs that validate accepts and that it refuses, on both
    targets, over fields and over K[t]; elements of A_2 and polynomials in
    other variables among them."""
    rng = random.Random(11)
    out = []
    for spec in (F3, F4, F9, F49):
        for target in (A1, Z):
            for _ in range(8):
                out.append(realize(AutWord(spec, target, [
                    random_generator(rng, spec, target) for _ in range(3)])))
        x, d = WeylElement._generators(spec)
        X, Y = BiPoly.gens(spec)
        two = spec.from_int(2)
        out += [AutImages(spec, A1, x, d.scale(two), validate=False),
                AutImages(spec, A1, x + d, d, validate=False),
                AutImages(spec, A1, x * x, d, validate=False),
                AutImages(spec, A1, d, x, validate=False),
                AutImages(spec, Z, X.scale(two), Y, validate=False),
                AutImages(spec, Z, X + X ** spec.p, Y, validate=False),
                AutImages(spec, Z, X, X * Y, validate=False),
                AutImages(spec, Z, Y, X, validate=False)]
        x1, x2, d1, d2 = WeylElement._generators(spec, 2)
        out.append(AutImages(spec, A1, x1, d1, validate=False))
        U, V = BiPoly.gens(spec, ("U", "V"))
        out.append(AutImages(spec, Z, U, V, validate=False))
    X, Y = BiPoly.gens(F3T)
    t = F3T.gen()
    out += [AutImages(F3T, Z, X, Y, validate=False),
            AutImages(F3T, Z, X.scale(t), Y, validate=False),
            AutImages(F3T, Z, X + Y * Y, Y, validate=False)]
    x, d = WeylElement._generators(F3T)
    out += [AutImages(F3T, A1, x, d, validate=False),
            AutImages(F3T, A1, x.scale(t), d, validate=False)]
    return out


class TestUnitChecks:
    def test_validate_accepts_and_refuses_as_before(self):
        verdicts = set()
        for a in pairs_to_check():
            before = outcome(validate_before, a)
            assert outcome(AutImages.validate, a) == before, repr(a)
            verdicts.add(before[0])
        assert verdicts == {"ok", NotAnAutomorphismError}

    def test_in_gamma_as_before(self):
        verdicts = set()
        for a in pairs_to_check():
            if a.target == Z:
                before = outcome(in_gamma_before, a)
                assert outcome(autgrp.in_gamma, a) == before, repr(a)
                verdicts.add(before)
            else:
                with pytest.raises(ValueError,
                                   match="jacobian is defined on Z images"):
                    autgrp.in_gamma(a)
        assert verdicts == {("ok", True), ("ok", False)}

    @pytest.mark.parametrize("ring", [F3, F49, F3T], ids=str)
    def test_is_one(self, ring):
        one = ring.one()
        for cls, shape in ((UniPoly, "x"), (BiPoly, ("X", "Y")),
                           (WeylElement, 1)):
            assert cls.one(ring)._is_one(ring)
            assert not cls.zero(ring)._is_one(ring)
            assert not cls.constant(ring, ring.from_int(2))._is_one(ring)
            gen = (UniPoly.variable(ring) if cls is UniPoly
                   else cls._generators(ring)[0])
            assert not gen._is_one(ring)
            assert not (cls.one(ring) + gen)._is_one(ring)
            assert cls(ring, {cls.one(ring)._origin: one}, shape)._is_one(ring)
        assert not UniPoly.one(ring, "t")._is_one(ring)
        assert not BiPoly.one(ring, ("U", "V"))._is_one(ring)
        assert not WeylElement.one(ring, 2)._is_one(ring)
        assert not BiPoly.one(ring)._is_one(FieldSpec(5))


def words_built_inside():
    """Words that decompose, normalize_word, invert_word and res_inverse's
    pull-back assemble from generators they built themselves."""
    rng = random.Random(3)
    out = []
    for spec in (F2, F3, F9, F49):
        for _ in range(6):
            word = AutWord(spec, Z, [random_generator(rng, spec, Z)
                                     for _ in range(3)])
            out += [decompose(realize(word)), normalize_word(word),
                    invert_word(word)]
            a1 = AutWord(spec, A1, [random_generator(rng, spec, A1)
                                    for _ in range(3)])
            out += [normalize_word(a1), invert_word(a1)]
    return out


class TestWordsBuiltInside:
    def test_equal_to_validated_words(self):
        words = words_built_inside()
        assert any(isinstance(g, GenGamma) for w in words for g in w.gens)
        for word in words:
            assert type(word) is AutWord and type(word.gens) is tuple
            checked = AutWord(word.field, word.target, word.gens)
            assert checked == word and repr(checked) == repr(word)

    def test_res_inverse_pull_back(self, monkeypatch):
        pulled = []
        real = resmap.realize

        def kept(word):
            pulled.append(word)
            return real(word)
        monkeypatch.setattr(resmap, "realize", kept)
        rng = random.Random(8)
        for spec in (F3, F9):
            for _ in range(6):
                sigma = realize(AutWord(spec, A1, [
                    random_generator(rng, spec, A1) for _ in range(3)]))
                assert res_inverse(res(sigma).image) == sigma
        assert len(pulled) == 12
        for word in pulled:
            assert AutWord(word.field, A1, word.gens) == word

    def test_outside_input_is_still_checked(self):
        with pytest.raises(ValueError, match="nonzero"):
            AutWord(F3, Z, [GenT(F3.zero())])
        with pytest.raises(ValueError, match="gamma"):
            AutWord(F3, A1, [GenGamma(F3.one())])
        with pytest.raises(ValueError, match="determinant 1"):
            AutWord(F3, A1, [GenAffine(((F3.from_int(2), F3.zero()),
                                        (F3.zero(), F3.one())),
                                       (F3.zero(), F3.zero()))])
        with pytest.raises(ValueError, match="payload polynomial"):
            AutWord(F3, A1, [GenPhi(UniPoly.variable(F3, "X"))])


def str_uncached(f):
    """_Sparse.__str__ with each monomial printed afresh."""
    if not f.coeffs:
        return "0"
    one = f.ring.one()
    parts = []
    for key in sorted(f.coeffs, reverse=True):
        c = f.coeffs[key]
        exps = (key,) if isinstance(key, int) else key
        mono = "*".join(m for m in map(_mono_str, f._names(), exps) if m)
        parts.append(_format_term(str(c), c == one, mono))
    return "+".join(parts)


class TestMonomialTexts:
    def test_equal_to_the_uncached_printer(self):
        rng = random.Random(4)
        for ring in (F3, F49, F3T):
            for _ in range(20):
                f = random_unipoly(rng, ring, 6)
                X, Y = BiPoly.gens(ring)
                x, d = WeylElement._generators(ring)
                x1, x2, d1, d2 = WeylElement._generators(ring, 2)
                for g in (f, f.substitute(X) * Y + X,
                          f.substitute(x * d) + d, f.substitute(x1 * d2 + x2),
                          UniPoly(ring, f.coeffs, "u")):
                    assert str(g) == str_uncached(g)

    def test_kept_text_is_the_printers(self):
        text = poly._monomial_text
        for names in (("x",), ("X", "Y"), ("x1", "x2", "d1", "d2")):
            for key in ([0, 1, 7] if len(names) == 1 else
                        [(0,) * len(names), (1,) + (0,) * (len(names) - 1),
                         tuple(range(len(names))), (3,) * len(names)]):
                assert text(names, key) == text.__wrapped__(names, key)
                assert text(names, key) is text(names, key)

    def test_cache_stays_bounded(self):
        text = poly._monomial_text
        size = text.cache_info().maxsize
        assert size
        for e in range(size + 50):
            text(("X", "Y"), (e, 1))
        assert text.cache_info().currsize <= size


class TestFieldHash:
    @pytest.mark.parametrize("spec", [F2, F9, F343], ids=str)
    def test_hash_of_what_equality_compares(self, spec):
        assert hash(spec) == hash((spec.p, spec.n, spec.modulus))
        copy = pickle.loads(pickle.dumps(spec))
        twin = FieldSpec(spec.p, spec.n, spec.modulus)
        assert copy == spec == twin and hash(copy) == hash(twin) == hash(spec)
        assert {spec: 1}[twin] == 1 and {copy.gen(): 2}[spec.gen()] == 2


class TestSubstituteInto:
    @pytest.mark.parametrize("ring", [F3, F49, F3T], ids=str)
    def test_equal_to_substitution_and_sum(self, ring):
        rng = random.Random(9)
        X, Y = BiPoly.gens(ring)
        x, d = WeylElement._generators(ring)
        x1, x2, d1, d2 = WeylElement._generators(ring, 2)
        c = ring.from_int(2)
        values = [X, Y.scale(c), X * Y, BiPoly.constant(ring, c), X + Y,
                  x, d.scale(c), x * x, x * d, WeylElement.constant(ring, c),
                  x1 * d2, x2 * d2, UniPoly.variable(ring, "u").scale(c)]
        for value in values:
            for _ in range(4):
                f = random_unipoly(rng, ring, 4)
                # sum_e f_e value^e, term by term
                image = type(value)(ring, {}, value._shape())
                for e, coef in f.coeffs.items():
                    image = image + (value ** e).scale(coef)
                assert f.substitute(value) == image
                base = type(value)(ring, {value._origin: c}, value._shape())
                assert f._substitute([value], base) == base + image
                assert f._substitute([value], -image).is_zero()


class TestDecomposeSteps:
    def test_minus_scaled_and_leading_scalar(self):
        rng = random.Random(12)
        for spec in (F3, F9, F49):
            X, Y = BiPoly.gens(spec)
            for _ in range(30):
                P = X + Y.scale(spec.random_element(rng))
                m = rng.randint(1, 3)
                pm = P ** m
                c = spec.random_nonzero(rng)
                i = rng.randrange(m + 1)
                Q = pm.scale(c) + BiPoly(spec, {
                    (i, rng.randrange(m + 1 - i)): spec.random_element(rng)})
                assert autgrp._minus_scaled(Q, pm, c) == Q - pm.scale(c)
                got = autgrp._leading_scalar(Q, pm, m)
                lf = {k: v for k, v in Q.coeffs.items() if sum(k) == m}
                want = [c2 for c2 in spec.elements() if c2 and lf == {
                    k: v * c2 for k, v in pm.coeffs.items() if sum(k) == m}]
                assert (got,) == tuple(want) if want else got is None

    @pytest.mark.parametrize("spec", [F2, F3, F9, F49], ids=str)
    def test_affine_word_realizes_the_pair(self, spec):
        rng = random.Random(spec.q)
        X, Y = BiPoly.gens(spec)
        for _ in range(40):
            gen = random_generator(rng, spec, Z)
            while not isinstance(gen, GenAffine):
                gen = random_generator(rng, spec, Z)
            pair = images_by_hand(gen, spec, Z)
            gens = autgrp._affine_word(spec, pair.img_x, pair.img_y)
            assert realize(AutWord(spec, Z, gens)) == pair
            word = normalize_word(AutWord(spec, Z, gens))
            assert decompose(pair) == (word if word.gens else
                                       AutWord(spec, Z, [GenT(spec.one())]))
