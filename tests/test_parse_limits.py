"""The expression evaluator's limits: nesting depth, the degree budget,
the term-pair budget, literal length, and error positions inside word
payloads, image halves and field moduli."""

import time
from math import isqrt

import pytest

from weylp import (A1, FieldSpec, ParseError, PolyRing, UniPoly, WeylElement,
                   parse_field_element, parse_images, parse_unipoly,
                   parse_weyl)
from weylp.cli import main
from weylp.parsing import MAX_DEGREE, MAX_LITERAL_DIGITS, MAX_PAIRS

F2 = FieldSpec(2)
F3 = FieldSpec(3)
F4 = FieldSpec(2, 2, (1, 1, 1))
F5 = FieldSpec(5)


class TestEvaluatorLimits:
    DEPTH = 5000

    def run(self, argv, capsys):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_deep_nesting_equals_flat(self, capsys):
        nested = "(" * self.DEPTH + "x+1" + ")" * self.DEPTH
        assert parse_unipoly(nested, F3) == parse_unipoly("x+1", F3)
        assert parse_weyl(nested, F3) == parse_weyl("x+1", F3)
        negated = "-(" * self.DEPTH + "x+d" + ")" * self.DEPTH
        assert parse_weyl(negated, F3) == parse_weyl("x+d", F3)
        code, out, _ = self.run(["theta", "--field", "p=3", nested], capsys)
        assert code == 0
        assert out == "x^3+1\n"

    def test_degree_budget_boundary(self):
        x = UniPoly.variable(F3)
        assert parse_unipoly("x^%d" % MAX_DEGREE, F3) == x ** MAX_DEGREE
        with pytest.raises(ParseError) as info:
            parse_unipoly("x^%d" % (MAX_DEGREE + 1), F3)
        assert info.value.pos == 2
        assert "budget" in str(info.value)
        half = MAX_DEGREE // 2
        parse_weyl("x^%d*d^%d" % (half, MAX_DEGREE - half), F3)
        with pytest.raises(ParseError) as info:
            parse_weyl("x^%d*d^%d" % (half, MAX_DEGREE - half + 1), F3)
        assert info.value.pos == len("x^%d" % half)

    def test_coefficient_t_degree_counts(self):
        ring = PolyRing(F3)
        half = MAX_DEGREE // 2
        assert parse_unipoly("(t*x)^%d" % half, ring).degree == half
        with pytest.raises(ParseError, match="budget"):
            parse_unipoly("(t*x)^%d" % (MAX_DEGREE - half + 1), ring)

    def test_chain_rejected_at_first_product_over_budget(self):
        k = MAX_DEGREE // 3 + 1            # 2k fits the budget, 3k does not
        factor = "(x+1)^%d" % k
        text = "*".join([factor] * 5)
        with pytest.raises(ParseError) as info:
            parse_unipoly(text, F3)
        assert info.value.pos == 2 * len(factor) + 1
        assert str(info.value) == (
            "degree %d exceeds the budget of %d (at position %d)"
            % (3 * k, MAX_DEGREE, info.value.pos))

    def test_large_exponent_exits_2_quickly(self, capsys):
        start = time.perf_counter()
        code, out, err = self.run(
            ["pow-check", "--field", "p=3", "(x+1)^100000"], capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert "budget" in err and "(at position 6)" in err

    def test_constant_powers_are_not_limited(self):
        huge = 10 ** 1000 - 1
        assert parse_unipoly("2^%d" % huge, F3) == UniPoly.constant(F3, 2)
        assert parse_weyl("(1+g)^%d" % huge, F4) == \
            WeylElement.constant(F4, (F4.one() + F4.gen()) ** huge)

    def test_oversized_literal_exits_2(self, capsys):
        ones = "1" * 5000
        code, _, err = self.run(["theta", "--field", "p=3", ones], capsys)
        assert code == 2
        assert err.endswith("(at position 0)\n")
        with pytest.raises(ParseError) as info:
            parse_unipoly("x^" + "9" * 5000, F3)
        assert info.value.pos == 2
        digits = "1" * MAX_LITERAL_DIGITS
        assert parse_field_element(digits, F5) == F5.from_int(int(digits))

    @pytest.mark.parametrize("argv, position", [
        (["res", "--field", "p=3", "t[2] phi[x+q]"], 11),
        (["res", "--field", "p=3", "(x; d+q)"], 6),
        (["res", "--field", "p=3", "(x+q; d)"], 3),
        (["res-inv", "--field", "p=3", "  (X ; Y+q)"], 9),
        (["res-inv", "--field", "p=3", "gamma[2] t[1+q]"], 13),
    ])
    def test_positions_index_the_whole_argument(self, argv, position, capsys):
        assert argv[-1][position] == "q"
        code, _, err = self.run(argv, capsys)
        assert code == 2
        assert err.endswith("(at position %d)\n" % position)

    def test_trailing_blanks_are_insignificant(self):
        assert parse_unipoly("x+1  ", F3) == parse_unipoly("x+1", F3)
        assert parse_images("(x ; d )", F2, A1) == \
            parse_images("(x; d)", F2, A1)


def _sum_of_powers(var: str, terms: int) -> str:
    return "(" + "+".join("%s^%d" % (var, e) for e in range(terms)) + ")"


class TestTermPairBudget:
    def test_dense_product_exits_2_quickly(self, capsys):
        # 8,281 by 7,553 terms: about 6e7 term pairs, under the degree
        # budget; the two powers are computed, their product is not
        text = "((x+d+g)^168*(x+d+1)^168; d)"
        start = time.process_time()
        code = main(["res", "--field", "p=13,n=4", text])
        assert time.process_time() - start < 1.0
        _, err = capsys.readouterr()
        assert code == 2
        assert err.endswith(
            "product of 8281 and 7553 terms exceeds the budget of %d term "
            "pairs (at position 12)\n" % MAX_PAIRS)
        assert text[12] == "*"

    def test_boundary(self):
        k = isqrt(MAX_PAIRS)
        assert k * k == MAX_PAIRS
        square = _sum_of_powers("x", k)
        assert parse_unipoly(square + "*" + square, F3) == \
            parse_unipoly(square, F3) ** 2
        with pytest.raises(ParseError) as info:
            parse_unipoly(square + "*" + _sum_of_powers("x", k + 1), F3)
        assert info.value.pos == len(square)
        assert str(info.value) == (
            "product of %d and %d terms exceeds the budget of %d term pairs"
            " (at position %d)" % (k, k + 1, MAX_PAIRS, len(square)))
        # in A_2, one term per variable and exponent
        rows = _sum_of_powers("x1", k // 2) + "*(1+d2)"
        assert len(parse_weyl(rows, F3, 2).coeffs) == k
        parse_weyl(rows + "*" + rows, F3, 2)
        with pytest.raises(ParseError, match="term pairs"):
            parse_weyl(rows + "*(" + rows + "+x2)", F3, 2)

    def test_k_t_coefficients_count_their_terms(self):
        ring = PolyRing(F3)
        k = isqrt(MAX_PAIRS)
        tk = _sum_of_powers("t", k)
        assert parse_unipoly(tk + "*x*" + tk, ring).coefficient(1) == \
            parse_unipoly(tk, ring).coefficient(0) ** 2
        with pytest.raises(ParseError, match="term pairs"):
            parse_unipoly(tk + "*x*" + _sum_of_powers("t", k + 1), ring)


@pytest.mark.parametrize("field", [
    "p=2,n=2,mod=g^2+q", " p=2 , n=2 , mod =  g^2+q ", "p=2,mod=g^2+q,n=2",
    "p=2,,n=2,mod=(g+1)*q",
])
def test_modulus_positions_index_the_field_argument(field, capsys):
    code = main(["theta", "--field", field, "x"])
    _, err = capsys.readouterr()
    assert code == 2
    assert err.endswith("(at position %d)\n" % field.index("q"))
