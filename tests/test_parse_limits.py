"""The expression evaluator's limits: nesting depth, the degree budget,
literal length, and error positions inside word payloads and image
halves."""

import time

import pytest

from weylp import (A1, FieldSpec, ParseError, PolyRing, UniPoly, WeylElement,
                   parse_field_element, parse_images, parse_unipoly,
                   parse_weyl)
from weylp.cli import main
from weylp.parsing import MAX_DEGREE, MAX_LITERAL_DIGITS

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
