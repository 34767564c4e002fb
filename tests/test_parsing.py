import random

import pytest

from weylp import (A1, Z, AutWord, BiPoly, FieldSpec, GenGamma, GenPhi, GenS,
                   GenT, ParseError, UniPoly, WeylElement, parse_automorphism,
                   parse_bipoly, parse_field_element, parse_field_spec,
                   parse_images, parse_unipoly, parse_weyl, parse_word,
                   realize)
from weylp.autgrp import GenAffine
from weylp.suites import random_word

F2 = FieldSpec(2)
F3 = FieldSpec(3)
F4 = FieldSpec(2, 2, (1, 1, 1))
F5 = FieldSpec(5)


class TestFieldSpecGrammar:
    def test_prime_field(self):
        assert parse_field_spec("p=5") == FieldSpec(5)

    def test_full_form(self):
        assert parse_field_spec("p=2,n=2,mod=g^2+g+1") == \
            FieldSpec(2, 2, (1, 1, 1))

    def test_default_modulus(self):
        spec = parse_field_spec("p=3,n=2")
        assert spec.n == 2 and spec.p == 3

    def test_spaces_ok(self):
        assert parse_field_spec(" p=2 , n=2 , mod=g^2+g+1 ") == \
            FieldSpec(2, 2, (1, 1, 1))

    def test_errors(self):
        for bad in ("", "p=four", "n=2", "p=2,q=3", "p=2,p=3",
                    "p=2,n=2,mod=g^2+1", "p=4"):
            with pytest.raises(ValueError):
                parse_field_spec(bad)

    def test_roundtrip_with_str(self):
        for spec in (F2, F4, F5, FieldSpec(7, 2), FieldSpec(3, 3)):
            assert parse_field_spec(str(spec)) == spec

    @pytest.mark.parametrize("p, modulus, text", [
        (5, (3, 0, 1), "g^2+3"),
        (3, (1, 0, 2, 1), "g^3+2*g^2+1"),
        (7, (3, 0, 2, 1), "g^3+2*g^2+3"),
        (13, (6, 0, 1), "g^2+6"),
        (13, (1, 0, 0, 5, 1), "g^4+5*g^3+1"),
    ])
    def test_roundtrip_of_non_default_moduli(self, p, modulus, text):
        # coefficients above 1 and missing middle terms, highest power first
        spec = FieldSpec(p, len(modulus) - 1, modulus)
        assert str(spec) == "p=%d,n=%d,mod=%s" % (p, spec.n, text)
        assert parse_field_spec(str(spec)) == spec


class TestExpressions:
    def test_unipoly(self):
        x = UniPoly.variable(F3)
        assert parse_unipoly("x^2+2*x+1", F3) == x ** 2 + x * 2 + \
            UniPoly.one(F3)
        assert parse_unipoly("(x+1)^2", F3) == (x + UniPoly.one(F3)) ** 2
        assert parse_unipoly("-x", F3) == -x
        assert parse_unipoly("2^3", F5) == UniPoly.constant(F5, 8)

    def test_field_generator_atom(self):
        g = F4.gen()
        assert parse_unipoly("(1+g)*x+g", F4) == \
            UniPoly(F4, {1: g + F4.one(), 0: g})
        with pytest.raises(ParseError):
            parse_unipoly("g*x", F3)  # no g in a prime field

    def test_bipoly(self):
        X, Y = BiPoly.gens(F3)
        assert parse_bipoly("X^2+X*Y+2", F3) == \
            X ** 2 + X * Y + BiPoly.constant(F3, 2)

    def test_weyl_normal_orders(self):
        assert parse_weyl("d*x", F3) == parse_weyl("x*d+1", F3)

    def test_weyl_n2(self):
        w = parse_weyl("d1*x1+x2*d2", F3, n=2)
        expected = (WeylElement.x_gen(F3, 0, 2) * WeylElement.d_gen(F3, 0, 2)
                    + WeylElement.one(F3, 2)
                    + WeylElement.x_gen(F3, 1, 2) * WeylElement.d_gen(F3, 1, 2))
        assert w == expected

    def test_wrong_symbol_named_in_error(self):
        with pytest.raises(ParseError, match="'X'"):
            parse_unipoly("X+1", F2)
        with pytest.raises(ParseError, match="'d'"):
            parse_bipoly("d*X", F2)

    def test_syntax_errors_carry_position(self):
        with pytest.raises(ParseError, match="position"):
            parse_unipoly("x++1", F2)
        with pytest.raises(ParseError):
            parse_unipoly("x^x", F2)
        with pytest.raises(ParseError):
            parse_unipoly("(x", F2)
        with pytest.raises(ParseError):
            parse_unipoly("x 1", F2)

    def test_field_element(self):
        assert parse_field_element("1+g", F4) == F4.gen() + F4.one()
        assert parse_field_element("2", F3) == F3.from_int(2)

    @pytest.mark.parametrize("spec", [F4, FieldSpec(2, 3), FieldSpec(3, 2),
                                      FieldSpec(13, 2),
                                      FieldSpec(13, 2, (6, 0, 1))], ids=str)
    def test_every_element_prints_and_parses_back(self, spec):
        for e in spec.elements():
            assert parse_field_element(str(e), spec) is e


class TestWordsAndImages:
    def test_word(self):
        word = parse_word("gamma[2] t[2] phi[X^2] s phi[X]", F3, Z)
        assert word.gens == (GenGamma(F3.from_int(2)), GenT(F3.from_int(2)),
                             GenPhi(parse_unipoly("X^2", F3, "X")), GenS(),
                             GenPhi(parse_unipoly("X", F3, "X")))

    def test_word_payload_var_depends_on_target(self):
        word = parse_word("phi[x^2+x]", F3, A1)
        assert word.gens[0].payload.var == "x"
        with pytest.raises(ParseError):
            parse_word("phi[x]", F3, Z)

    def test_word_errors(self):
        with pytest.raises(ParseError):
            parse_word("q", F3, Z)
        with pytest.raises(ParseError):
            parse_word("t[2", F3, Z)
        with pytest.raises(ParseError):
            parse_word("phi", F3, Z)
        with pytest.raises(ValueError):
            parse_word("t[0]", F3, Z)

    @pytest.mark.parametrize("parse, text, message", [
        (parse_word, "s 1", "expected a generator name (at position 2)"),
        (parse_word, "s  $", "expected a generator name (at position 3)"),
        (parse_word, " 1", "expected a generator name (at position 1)"),
        (parse_images, "  (x;d",
         "image pair must look like (exprX; exprY) (at position 2)"),
        (parse_images, " (X;Y;X)",
         "image pair needs exactly one ';' (at position 1)"),
    ], ids=["word-after-s", "word-two-blanks", "word-leading-blank",
            "images-shape", "images-semicolons"])
    def test_errors_point_past_blanks(self, parse, text, message):
        """A word or image pair that goes wrong after blanks is reported
        at its first non-blank character, not where the blanks start."""
        with pytest.raises(ParseError) as info:
            parse(text, F3, Z)
        assert str(info.value) == message

    def test_images(self):
        img = parse_images("(Y; -X)", F3, Z)
        assert img == realize(AutWord(F3, Z, [GenS()]))
        a1 = parse_images("(x; d+x)", F2, A1)
        assert a1.img_y == WeylElement.d_gen(F2) + WeylElement.x_gen(F2)

    def test_automorphism_dispatch(self):
        assert parse_automorphism("s", F3, Z) == \
            realize(AutWord(F3, Z, [GenS()]))
        assert parse_automorphism("(Y; -X)", F3, Z) == \
            parse_automorphism("s", F3, Z)


class TestPrintParseRoundTrip:
    def test_unipoly(self):
        rng = random.Random(1)
        for spec in (F2, F3, F4, F5):
            for _ in range(30):
                deg = rng.randint(0, 8)
                f = UniPoly(spec, {e: spec.random_element(rng)
                                   for e in range(deg + 1)})
                assert parse_unipoly(str(f), spec) == f

    def test_bipoly(self):
        rng = random.Random(2)
        for spec in (F3, F4):
            for _ in range(30):
                f = BiPoly(spec, {(rng.randint(0, 5), rng.randint(0, 5)):
                                  spec.random_element(rng)
                                  for _ in range(5)})
                assert parse_bipoly(str(f), spec) == f

    def test_weyl(self):
        rng = random.Random(3)
        for spec in (F2, F5, F4):
            for _ in range(30):
                w = WeylElement(spec, {(rng.randint(0, 5), rng.randint(0, 5)):
                                       spec.random_element(rng)
                                       for _ in range(5)})
                assert parse_weyl(str(w), spec) == w

    def test_words(self):
        rng = random.Random(4)
        for spec in (F3, F4):
            for _ in range(20):
                word = random_word(rng, spec, Z, max_len=5,
                                   max_payload_deg=3)
                assert parse_word(str(word), spec, Z) == word

    def test_images_roundtrip(self):
        rng = random.Random(5)
        for spec in (F2, F3):
            for _ in range(15):
                img = realize(random_word(rng, spec, A1, max_len=4,
                                          max_payload_deg=2))
                assert parse_images(str(img), spec, A1) == img


# malformed inputs with the exact message each raised under the recursive
# evaluator this module's loop replaced: (parser, text, field, message)
PARSE_ERRORS = [
    ("unipoly", "", F3, "expected a value (at position 0)"),
    ("unipoly", "x++1", F2, "expected a value (at position 2)"),
    ("unipoly", "x^x", F2,
     "exponent must be a non-negative integer (at position 2)"),
    ("unipoly", "(x", F2, "expected ')' (at position 2)"),
    ("unipoly", "x 1", F2, "unexpected trailing input (at position 2)"),
    ("unipoly", "x)", F3, "unexpected trailing input (at position 1)"),
    ("unipoly", "--x", F3, "expected a value (at position 1)"),
    ("unipoly", "x*-1", F3, "expected a value (at position 2)"),
    ("unipoly", "x^-1", F3,
     "exponent must be a non-negative integer (at position 2)"),
    ("unipoly", "x^2^3", F3, "unexpected trailing input (at position 3)"),
    ("unipoly", "(x^2^3)", F3, "expected ')' (at position 4)"),
    ("unipoly", "()", F3, "expected a value (at position 1)"),
    ("unipoly", "x^", F3,
     "exponent must be a non-negative integer (at position 2)"),
    ("unipoly", "g*x", F3,
     "symbol 'g' is not valid in a polynomial in x (allowed: x) "
     "(at position 0)"),
    ("unipoly", "x + y", F5,
     "symbol 'y' is not valid in a polynomial in x (allowed: x) "
     "(at position 4)"),
    ("unipoly", "((x+1)*(x+2)", F5, "expected ')' (at position 12)"),
    ("unipoly", "x $ 1", F3, "unexpected character '$' (at position 2)"),
    ("unipoly", "2 (x)", F3, "unexpected trailing input (at position 2)"),
    ("unipoly", "x*", F4, "expected a value (at position 2)"),
    ("unipoly", "(x)(x)", F4, "unexpected trailing input (at position 3)"),
    ("unipoly", "x;1", F3, "unexpected trailing input (at position 1)"),
    ("bipoly", "d*X", F2,
     "symbol 'd' is not valid in a polynomial in X, Y (allowed: X, Y) "
     "(at position 0)"),
    ("bipoly", "X+Y)", F3, "unexpected trailing input (at position 3)"),
    ("bipoly", "X^(2)", F3,
     "exponent must be a non-negative integer (at position 2)"),
    ("bipoly", "(X;Y)", F3, "expected ')' (at position 2)"),
    ("bipoly", "X*Y*", F4, "expected a value (at position 4)"),
    ("bipoly", "- -Y", F3, "expected a value (at position 2)"),
    ("weyl", "x*d+D", F3,
     "symbol 'D' is not valid in an A_1 expression (allowed: d, x) "
     "(at position 4)"),
    ("weyl", "x1*d", F3,
     "symbol 'x1' is not valid in an A_1 expression (allowed: d, x) "
     "(at position 0)"),
    ("weyl", "(x+d", F5, "expected ')' (at position 4)"),
    ("weyl", "x d", F3, "unexpected trailing input (at position 2)"),
    ("weyl", "x^1.5", F3, "unexpected character '.' (at position 3)"),
    ("weyl", "[x]", F3, "expected a value (at position 0)"),
    ("field", "g", F3,
     "symbol 'g' is not valid in a field element (allowed: ) (at position 0)"),
    ("field", "1+", F4, "expected a value (at position 2)"),
    ("field", "x", F4,
     "symbol 'x' is not valid in a field element (allowed: g) "
     "(at position 0)"),
    ("field", "g^g", F4,
     "exponent must be a non-negative integer (at position 2)"),
    ("field", "(1+g))", F4, "unexpected trailing input (at position 5)"),
    ("field", "", F5, "expected a value (at position 0)"),
]
_PARSERS = {"unipoly": parse_unipoly, "bipoly": parse_bipoly,
            "weyl": parse_weyl, "field": parse_field_element}


@pytest.mark.parametrize("kind, text, spec, message", PARSE_ERRORS)
def test_parse_error_messages(kind, text, spec, message):
    with pytest.raises(ParseError) as info:
        _PARSERS[kind](text, spec)
    assert str(info.value) == message



def random_affine(rng, spec, det_one=False):
    """A GenAffine with a random invertible matrix (det 1 if asked) and a
    random translation."""
    while True:
        m = tuple(tuple(spec.random_element(rng) for _ in range(2))
                  for _ in range(2))
        det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        if not det.is_zero() and (not det_one or det == spec.one()):
            return GenAffine(m, (spec.random_element(rng),
                                 spec.random_element(rng)))


class TestAffineWords:
    """str() of a word with affine generators parses back to the word."""

    @pytest.mark.parametrize("spec", [F3, FieldSpec(7, 2)],
                             ids=["F3", "F49"])
    def test_round_trip_on_z(self, spec):
        rng = random.Random(17)
        for _ in range(10):
            gens = list(random_word(rng, spec, Z, 3, 2).gens)
            gens.insert(rng.randrange(len(gens) + 1), random_affine(rng, spec))
            word = AutWord(spec, Z, gens)
            assert parse_word(str(word), spec, Z) == word

    @pytest.mark.parametrize("spec", [F3, FieldSpec(7, 2)],
                             ids=["F3", "F49"])
    def test_round_trip_on_a1(self, spec):
        rng = random.Random(19)
        for _ in range(10):
            word = AutWord(spec, A1, [random_affine(rng, spec, True), GenS(),
                                      random_affine(rng, spec, True)])
            assert parse_word(str(word), spec, A1) == word

    def test_entries_are_field_expressions(self):
        F4 = FieldSpec(2, 2, (1, 1, 1))
        g, one, zero = F4.gen(), F4.one(), F4.zero()
        word = parse_word("affine[ g , 1, 0, g^2 ; g+1 ,0 ]", F4, Z)
        assert word.gens == (GenAffine(((g, one), (zero, g * g)),
                                       (g + one, zero)),)

    @pytest.mark.parametrize("text, message", [
        ("affine[1,0,0;0,0]", "affine needs 4 entries before ';' "
                              "(at position 12)"),
        ("affine[1,0,0,1,2;0,0]", "affine needs 4 entries before ';' "
                                  "(at position 15)"),
        ("affine[1,0,0,1;0]", "affine needs 2 entries after ';' "
                              "(at position 16)"),
        ("s affine[1,0,0,1;0,0,1]", "affine needs 2 entries after ';' "
                                    "(at position 21)"),
        ("affine[1,0,0,1]", "affine needs a ';' before its translation "
                            "(at position 14)"),
        ("affine[1,0,0,1,0,0]", "affine needs 4 entries before ';' "
                                "(at position 15)"),
        ("affine[1,0,,1;0,0]", "expected a value (at position 11)"),
        ("affine[1,0,0,x;0,0]", "symbol 'x' is not valid in a field element"
                                " (allowed: ) (at position 13)"),
        ("affine[1,0,0,1;0,0", "unclosed payload bracket (at position 6)"),
        ("affine", "generator 'affine' needs a [payload] (at position 6)"),
    ])
    def test_malformed(self, text, message):
        with pytest.raises(ParseError) as info:
            parse_word(text, F3, Z)
        assert str(info.value) == message

    def test_singular_matrix_is_a_value_error(self):
        with pytest.raises(ValueError, match="invertible"):
            parse_word("affine[1,1,1,1;0,0]", F3, Z)
        with pytest.raises(ValueError, match="determinant 1"):
            parse_word("affine[2,0,0,1;0,0]", F3, A1)


def test_word_with_trailing_blanks():
    word = parse_word("s  ", F3, Z)
    assert word.gens == (GenS(),)
