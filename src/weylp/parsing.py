"""The shared text grammar: field specs, polynomial / Weyl expressions,
generator words and image pairs.

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ['^' uint]
    atom   := int | 'g' | 'x' | 'd' | 'X' | 'Y' | 't' | x1 x2 d1 d2 | '(' expr ')'

Which atoms are allowed depends on context (a Weyl expression knows x and d,
a centre expression knows X and Y, ...); using a symbol outside its context
is reported with the offending name.  Whitespace is insignificant.  A leading
minus is accepted for convenience although canonical printing never emits one
(coefficients print as residues).

Word literals are generator names in sequence: ``s``, ``t[<field element>]``,
``gamma[<field element>]``, ``phi[<poly>]``.  Image pairs are
``(<expr> ; <expr>)``.
"""

from __future__ import annotations

import re

from .autgrp import (A1, AutImages, AutWord, GenGamma, GenPhi, GenS, GenT,
                     realize)
from .gfq import FieldSpec, UsageError
from .poly import BiPoly, PolyRing, UniPoly
from .weyl import WeylElement


class ParseError(UsageError):
    def __init__(self, message: str, pos: int):
        super().__init__("%s (at position %d)" % (message, pos))
        self.pos = pos


_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z]\w*)|(.))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == m.start():
            break
        if m.group(1) is not None:
            tokens.append(("int", int(m.group(1)), m.start(1)))
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2), m.start(2)))
        else:
            ch = m.group(3)
            if ch in "+-*^();[],=":
                tokens.append(("op", ch, m.start(3)))
            else:
                raise ParseError("unexpected character %r" % ch, m.start(3))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Expr:
    """Recursive-descent evaluator over a fixed atom table."""

    def __init__(self, tokens, atoms, make_int, where: str):
        self.tokens = tokens
        self.i = 0
        self.atoms = atoms
        self.make_int = make_int
        self.where = where

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, ch):
        kind, val, pos = self.take()
        if kind != "op" or val != ch:
            raise ParseError("expected %r" % ch, pos)

    def expr(self):
        kind, val, pos = self.peek()
        negate = False
        if kind == "op" and val == "-":
            self.take()
            negate = True
        acc = self.term()
        if negate:
            acc = -acc
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.term()
                acc = acc + rhs if val == "+" else acc - rhs
            else:
                return acc

    def term(self):
        acc = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.take()
                acc = acc * self.factor()
            else:
                return acc

    def factor(self):
        base = self.atom()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.take()
            kind, val, pos = self.take()
            if kind != "int":
                raise ParseError("exponent must be a non-negative integer",
                                 pos)
            base = base ** val
        return base

    def atom(self):
        kind, val, pos = self.take()
        if kind == "int":
            return self.make_int(val)
        if kind == "name":
            try:
                return self.atoms[val]
            except KeyError:
                raise ParseError(
                    "symbol %r is not valid in %s (allowed: %s)"
                    % (val, self.where, ", ".join(sorted(self.atoms))), pos)
        if kind == "op" and val == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ParseError("expected a value", pos)


def _run_expr(text: str, atoms, make_int, where: str):
    parser = _Expr(_tokenize(text), atoms, make_int, where)
    value = parser.expr()
    kind, _, pos = parser.peek()
    if kind != "end":
        raise ParseError("unexpected trailing input", pos)
    return value


def _field_atoms(spec: FieldSpec, lift):
    atoms = {}
    if spec.n > 1:
        atoms["g"] = lift(spec.gen())
    return atoms


def parse_field_element(text: str, spec: FieldSpec):
    return _run_expr(text, _field_atoms(spec, lambda c: c), spec.from_int,
                     "a field element")


def parse_unipoly(text: str, ring, var: str = "x") -> UniPoly:
    """Polynomial in ``var``; over a PolyRing the ring variable is an atom
    too."""
    atoms = {var: UniPoly.variable(ring, var)}
    if isinstance(ring, PolyRing):
        atoms[ring.var] = UniPoly.constant(ring, ring.gen(), var)
        base = ring.base
        if base.n > 1:
            atoms["g"] = UniPoly.constant(ring, ring.coerce(base.gen()), var)
    elif ring.n > 1:
        atoms["g"] = UniPoly.constant(ring, ring.gen(), var)

    def make_int(k):
        return UniPoly.constant(ring, ring.from_int(k), var)

    return _run_expr(text, atoms, make_int,
                     "a polynomial in %s" % var)


def parse_bipoly(text: str, spec: FieldSpec, vars=("X", "Y")) -> BiPoly:
    gx, gy = BiPoly.gens(spec, vars)
    atoms = {vars[0]: gx, vars[1]: gy}
    atoms.update(_field_atoms(spec, lambda c: BiPoly.constant(spec, c, vars)))

    def make_int(k):
        return BiPoly.constant(spec, spec.from_int(k), vars)

    return _run_expr(text, atoms, make_int,
                     "a polynomial in %s, %s" % vars)


def parse_weyl(text: str, spec: FieldSpec, n: int = 1) -> WeylElement:
    if n == 1:
        atoms = {"x": WeylElement.x_gen(spec),
                 "d": WeylElement.d_gen(spec)}
    else:
        atoms = {"x1": WeylElement.x_gen(spec, 0, 2),
                 "x2": WeylElement.x_gen(spec, 1, 2),
                 "d1": WeylElement.d_gen(spec, 0, 2),
                 "d2": WeylElement.d_gen(spec, 1, 2)}
    atoms.update(_field_atoms(
        spec, lambda c: WeylElement.constant(spec, c, n)))

    def make_int(k):
        return WeylElement.constant(spec, spec.from_int(k), n)

    return _run_expr(text, atoms, make_int, "an A_%d expression" % n)


def parse_field_spec(text: str) -> FieldSpec:
    """Grammar: p=<int>[,n=<int>,mod=<poly in g>], default n=1."""
    parts = [chunk.strip() for chunk in text.split(",") if chunk.strip()]
    seen = {}
    for chunk in parts:
        if "=" not in chunk:
            raise UsageError(
                "bad field spec component %r (want key=value)" % chunk)
        key, _, value = chunk.partition("=")
        key = key.strip()
        if key in seen:
            raise UsageError("duplicate field spec key %r" % key)
        seen[key] = value.strip()
    unknown = set(seen) - {"p", "n", "mod"}
    if unknown:
        raise UsageError("unknown field spec keys: %s" % sorted(unknown))
    if "p" not in seen:
        raise UsageError("field spec needs p=<prime>")
    try:
        p = int(seen["p"])
    except ValueError:
        raise UsageError("p must be an integer, got %r" % seen["p"])
    n = 1
    if "n" in seen:
        try:
            n = int(seen["n"])
        except ValueError:
            raise UsageError("n must be an integer, got %r" % seen["n"])
    modulus = None
    if "mod" in seen:
        prime = FieldSpec(p)
        poly = parse_unipoly(seen["mod"], prime, var="g")
        deg = poly.degree
        if deg == float("-inf"):
            raise UsageError("modulus must be nonzero")
        modulus = tuple(poly.coefficient(e).val for e in range(int(deg) + 1))
    return FieldSpec(p, n, modulus)


_WORD_GEN = re.compile(r"\s*([A-Za-z]+)")


def parse_word(text: str, spec: FieldSpec, target: str) -> AutWord:
    """Sequence of generators: s | t[..] | gamma[..] | phi[..]."""
    var = "x" if target == A1 else "X"
    gens = []
    pos = 0
    while pos < len(text):
        m = _WORD_GEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ParseError("expected a generator name", pos)
            break
        name = m.group(1)
        pos = m.end()
        if name == "s":
            gens.append(GenS())
            continue
        if name not in ("t", "gamma", "phi"):
            raise ParseError("unknown generator %r" % name, m.start(1))
        if pos >= len(text) or text[pos] != "[":
            raise ParseError("generator %r needs a [payload]" % name, pos)
        close = text.find("]", pos)
        if close < 0:
            raise ParseError("unclosed payload bracket", pos)
        payload = text[pos + 1:close]
        pos = close + 1
        if name == "t":
            gens.append(GenT(parse_field_element(payload, spec)))
        elif name == "gamma":
            gens.append(GenGamma(parse_field_element(payload, spec)))
        else:
            gens.append(GenPhi(parse_unipoly(payload, spec, var)))
    return AutWord(spec, target, gens)


def parse_images(text: str, spec: FieldSpec, target: str,
                 validate: bool = False) -> AutImages:
    """Image pair literal (exprX ; exprY)."""
    stripped = text.strip()
    if not stripped.startswith("(") or not stripped.endswith(")"):
        raise ParseError("image pair must look like (exprX; exprY)", 0)
    body = stripped[1:-1]
    if body.count(";") != 1:
        raise ParseError("image pair needs exactly one ';'", 0)
    left, right = body.split(";")
    if target == A1:
        img_x = parse_weyl(left, spec, 1)
        img_y = parse_weyl(right, spec, 1)
    else:
        img_x = parse_bipoly(left, spec)
        img_y = parse_bipoly(right, spec)
    return AutImages(spec, target, img_x, img_y, validate=validate)


def parse_automorphism(text: str, spec: FieldSpec, target: str,
                       validate: bool = False) -> AutImages:
    """Either an image pair literal or a generator word."""
    if text.lstrip().startswith("("):
        return parse_images(text, spec, target, validate=validate)
    return realize(parse_word(text, spec, target))
