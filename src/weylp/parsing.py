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

An expression is evaluated in one loop over a value stack and an operator
stack (Dijkstra's shunting-yard method), so nesting costs no recursion.  A
product or power of degree above MAX_DEGREE, a product of more than
MAX_PAIRS term pairs, and an integer literal longer than MAX_LITERAL_DIGITS
digits raise ParseError before anything is computed.  Error positions index
the whole argument, payloads and field moduli included.

Word literals are generator names in sequence: ``s``, ``t[<field element>]``,
``gamma[<field element>]``, ``phi[<poly>]`` and
``affine[<a>,<b>,<c>,<d>;<e>,<f>]`` (field elements: the matrix rows
(a, b), (c, d), then the translation (e, f)).  Image pairs are
``(<expr> ; <expr>)``.
"""

from __future__ import annotations

import re

from .autgrp import (A1, AutImages, AutWord, GenAffine, GenGamma, GenPhi,
                     GenS, GenT, _payload_var, realize)
from .gfq import FieldElement, FieldSpec, UsageError
from .poly import BiPoly, PolyRing, UniPoly
from .weyl import WeylElement

# largest degree of a product or power an expression may compute: the total
# degree, a K[t] coefficient adding its t-degree.  The largest the benchmark
# parses is 2 p^2 = 338, a theta image at p = 13.
MAX_DEGREE = 512
# largest number of term pairs a product may multiply: the product of its
# operands' term counts, a K[t] coefficient counting its terms in t.  The
# benchmark's products have at most 1 pair and the tests' at most 36.  The
# slowest admitted product found is two 128-term A_2 operands over F_{13^4}
# of degree at least 12 in each variable; CHANGES.md gives its time, in the
# entry "Second copies, round two".
MAX_PAIRS = 128 * 128
# Python's default limit on converting a digit string to an int
MAX_LITERAL_DIGITS = 4300


class ParseError(UsageError):
    def __init__(self, message: str, pos: int):
        super().__init__("%s (at position %d)" % (message, pos))
        self.pos = pos


_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z]\w*)|(\S))")


def _tokenize(text: str, offset: int = 0):
    """(kind, value, position) triples closed by an "end" token; positions
    are shifted by ``offset``, where ``text`` starts in the argument."""
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = ("int", "name", "op")[m.lastindex - 1]
        val, pos = m.group(m.lastindex), m.start(m.lastindex) + offset
        if kind == "int":
            if len(val) > MAX_LITERAL_DIGITS:
                raise ParseError("integer literal longer than %d digits"
                                 % MAX_LITERAL_DIGITS, pos)
            val = int(val)
        elif kind == "op" and val not in "+-*^();[],=":
            raise ParseError("unexpected character %r" % val, pos)
        tokens.append((kind, val, pos))
    tokens.append(("end", None, len(text) + offset))
    return tokens


def _degree(value) -> int:
    """The degree MAX_DEGREE bounds; 0 for a field element and for 0."""
    terms = {} if isinstance(value, FieldElement) else value.coeffs
    return max(((sum(k) if isinstance(k, tuple) else k)
                + (c.degree if isinstance(c, UniPoly) else 0)
                for k, c in terms.items()), default=0)


def _check_degree(degree: int, pos: int) -> None:
    if degree > MAX_DEGREE:
        raise ParseError("degree %d exceeds the budget of %d"
                         % (degree, MAX_DEGREE), pos)


def _terms(value) -> int:
    """The term count MAX_PAIRS bounds: 1 for a field element, the number
    of terms in t for a polynomial over K[t]."""
    if isinstance(value, FieldElement):
        return 1
    if isinstance(value.ring, PolyRing):
        return sum(len(c.coeffs) for c in value.coeffs.values())
    return len(value.coeffs)


# binary operators and the leading minus ("neg"); a "(" on the operator
# stack has none, so no reduction passes it
_PRECEDENCE = {"+": 1, "-": 1, "neg": 2, "*": 3}


def _evaluate(text: str, atoms: dict, one, where: str, offset: int = 0):
    """Value of the expression ``text`` (see the module grammar), built from
    ``atoms`` by name and the integer literal k as ``k * one``.  Operators
    wait on a stack until one that binds no tighter arrives, so evaluation
    runs in the order of a recursive-descent parser: left to right, each
    product as soon as its right factor (with its exponent) is complete."""
    tokens = _tokenize(text, offset)
    values, ops = [], []            # ops holds (operator, position)

    def reduce(precedence):
        while ops and _PRECEDENCE.get(ops[-1][0], 0) >= precedence:
            op, pos = ops.pop()
            rhs = values.pop()
            if op == "neg":
                values.append(-rhs)
                continue
            lhs = values.pop()
            if op == "*":
                _check_degree(_degree(lhs) + _degree(rhs), pos)
                a, b = _terms(lhs), _terms(rhs)
                if a * b > MAX_PAIRS:
                    raise ParseError(
                        "product of %d and %d terms exceeds the budget of %d"
                        " term pairs" % (a, b, MAX_PAIRS), pos)
                values.append(lhs * rhs)
            else:
                values.append(lhs + rhs if op == "+" else lhs - rhs)

    i = 0
    while True:
        kind, val, pos = tokens[i]
        i += 1
        # a '-' may open an expr: at the start of the input, where the
        # operator stack is empty, and right after a '('
        at_start = not ops or ops[-1][0] == "("
        if kind == "op" and (val == "(" or val == "-" and at_start):
            ops.append(("(" if val == "(" else "neg", pos))
            continue
        if kind == "int":
            value = val * one
        elif kind == "name" and val in atoms:
            value = atoms[val]
        elif kind == "name":
            raise ParseError("symbol %r is not valid in %s (allowed: %s)"
                             % (val, where, ", ".join(sorted(atoms))), pos)
        else:
            raise ParseError("expected a value", pos)
        # a value is complete: take its exponent, then close groups (each
        # closed group is again a value) until a binary operator follows
        while True:
            kind, val, pos = tokens[i]
            i += 1
            if kind == "op" and val == "^":
                kind, e, epos = tokens[i]
                if kind != "int":
                    raise ParseError("exponent must be a non-negative integer",
                                     epos)
                _check_degree(_degree(value) * e, epos)
                value = value ** e
                kind, val, pos = tokens[i + 1]
                i += 2
            values.append(value)
            if kind == "op" and val in "+-*":
                reduce(_PRECEDENCE[val])
                ops.append((val, pos))
                break
            reduce(1)               # the group or the whole input ends here
            if ops and kind == "op" and val == ")":
                ops.pop()
                value = values.pop()
            elif ops:
                raise ParseError("expected ')'", pos)
            elif kind != "end":
                raise ParseError("unexpected trailing input", pos)
            else:
                return values.pop()


def _grammar(atoms: dict, one, field: FieldSpec, where: str):
    """(atoms, one, where) for _evaluate; the field generator g is an atom
    too where the field has one (n > 1)."""
    if field.n > 1:
        atoms["g"] = one * field.gen()
    return atoms, one, where


def _field_grammar(spec: FieldSpec):
    return _grammar({}, spec.one(), spec, "a field element")


def _unipoly_grammar(ring, var: str):
    atoms = {var: UniPoly.variable(ring, var)}
    field = ring
    if isinstance(ring, PolyRing):
        atoms[ring.var] = UniPoly.constant(ring, ring.gen(), var)
        field = ring.base
    return _grammar(atoms, UniPoly.one(ring, var), field,
                    "a polynomial in %s" % var)


def _bipoly_grammar(spec: FieldSpec, vars):
    return _grammar(dict(zip(vars, BiPoly.gens(spec, vars))),
                    BiPoly.one(spec, vars), spec,
                    "a polynomial in %s, %s" % vars)


def _weyl_grammar(spec: FieldSpec, n: int):
    gens = WeylElement._generators(spec, n)
    return _grammar(dict(zip(gens[0]._names(), gens)),
                    WeylElement.one(spec, n), spec, "an A_%d expression" % n)


def parse_field_element(text: str, spec: FieldSpec):
    return _evaluate(text, *_field_grammar(spec))


def parse_unipoly(text: str, ring, var: str = "x") -> UniPoly:
    """Polynomial in ``var``; over a PolyRing the ring variable is an atom
    too."""
    return _evaluate(text, *_unipoly_grammar(ring, var))


def parse_bipoly(text: str, spec: FieldSpec, vars=("X", "Y")) -> BiPoly:
    return _evaluate(text, *_bipoly_grammar(spec, vars))


def parse_weyl(text: str, spec: FieldSpec, n: int = 1) -> WeylElement:
    return _evaluate(text, *_weyl_grammar(spec, n))


def parse_field_spec(text: str) -> FieldSpec:
    """Grammar: p=<int>[,n=<int>,mod=<poly in g>], default n=1.  Error
    positions in the modulus index ``text``."""
    seen, starts = {}, {}
    end = -1
    for raw in text.split(","):
        end += 1 + len(raw)
        chunk = raw.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise UsageError(
                "bad field spec component %r (want key=value)" % chunk)
        key, _, value = raw.partition("=")
        key = key.strip()
        if key in seen:
            raise UsageError("duplicate field spec key %r" % key)
        seen[key] = value.strip()
        # where the value starts: after the "=" and any blanks
        starts[key] = end - len(value.lstrip())
    unknown = set(seen) - {"p", "n", "mod"}
    if unknown:
        raise UsageError("unknown field spec keys: %s" % sorted(unknown))
    if "p" not in seen:
        raise UsageError("field spec needs p=<prime>")
    p, n = _spec_int(seen, "p"), _spec_int(seen, "n")
    modulus = None
    if "mod" in seen:
        poly = _evaluate(seen["mod"], *_unipoly_grammar(FieldSpec(p), "g"),
                         starts["mod"])
        if poly.is_zero():
            raise UsageError("modulus must be nonzero")
        modulus = tuple(poly.coefficient(e).val
                        for e in range(poly.degree + 1))
    return FieldSpec(p, n, modulus)


def _spec_int(seen: dict, key: str) -> int:
    """The integer value of a field spec key; n defaults to 1."""
    try:
        return int(seen.get(key, 1))
    except ValueError:
        raise UsageError("%s must be an integer, got %r" % (key, seen[key]))


_WORD_GEN = re.compile(r"\s*([A-Za-z]*)")


def _affine_gen(body: str, spec: FieldSpec, start: int) -> GenAffine:
    """The generator ``affine[a,b,c,d;e,f]`` from the text between its
    brackets, which starts at ``start`` in the argument: four field
    elements, the matrix rows (a, b), (c, d), then two, the translation
    (e, f).  A group of another size is refused at the entry where it goes
    wrong: the first one too many, or the end of a group one short."""
    grammar, end = _field_grammar(spec), start + len(body)
    groups = []
    for size, part in zip((4, 2), body.split(";", 1) + [None]):
        if part is None:
            raise ParseError("affine needs a ';' before its translation", end)
        entries = part.split(",")
        if len(entries) != size:
            pos = (len(",".join(entries[:size])) + 1 if len(entries) > size
                   else len(part))
            raise ParseError("affine needs %d entries %s ';'" % (
                size, "before" if size == 4 else "after"), start + pos)
        values = []
        for entry in entries:
            values.append(_evaluate(entry, *grammar, start))
            start += len(entry) + 1
        groups.append(values)
    (a, b, c, d), translation = groups
    return GenAffine(((a, b), (c, d)), tuple(translation))


def parse_word(text: str, spec: FieldSpec, target: str) -> AutWord:
    """Sequence of generators: s | t[..] | gamma[..] | phi[..] |
    affine[a,b,c,d;e,f]."""
    var = _payload_var(target)
    gens = []
    pos = 0
    while pos < len(text):
        m = _WORD_GEN.match(text, pos)
        name, pos = m.group(1), m.end()
        if not name:
            if pos < len(text):
                raise ParseError("expected a generator name", pos)
            break
        if name == "s":
            gens.append(GenS())
            continue
        if name not in ("t", "gamma", "phi", "affine"):
            raise ParseError("unknown generator %r" % name, m.start(1))
        if not text.startswith("[", pos):
            raise ParseError("generator %r needs a [payload]" % name, pos)
        close = text.find("]", pos)
        if close < 0:
            raise ParseError("unclosed payload bracket", pos)
        if name == "affine":
            gens.append(_affine_gen(text[pos + 1:close], spec, pos + 1))
            pos = close + 1
            continue
        grammar = (_unipoly_grammar(spec, var) if name == "phi"
                   else _field_grammar(spec))
        payload = _evaluate(text[pos + 1:close], *grammar, pos + 1)
        gens.append({"t": GenT, "gamma": GenGamma, "phi": GenPhi}[name](
            payload))
        pos = close + 1
    return AutWord(spec, target, gens)


def parse_images(text: str, spec: FieldSpec, target: str) -> AutImages:
    """Image pair literal (exprX ; exprY), not validated."""
    stripped = text.strip()
    # where the pair starts in text: after the leading blanks
    first = len(text) - len(text.lstrip())
    if not stripped.startswith("(") or not stripped.endswith(")"):
        raise ParseError("image pair must look like (exprX; exprY)", first)
    body = stripped[1:-1]
    if body.count(";") != 1:
        raise ParseError("image pair needs exactly one ';'", first)
    left, right = body.split(";")
    grammar = (_weyl_grammar(spec, 1) if target == A1
               else _bipoly_grammar(spec, ("X", "Y")))
    img_x = _evaluate(left, *grammar, first + 1)
    img_y = _evaluate(right, *grammar, first + len(left) + 2)
    return AutImages(spec, target, img_x, img_y, validate=False)


def parse_automorphism(text: str, spec: FieldSpec, target: str) -> AutImages:
    """Either an image pair literal (not validated) or a generator word."""
    if text.lstrip().startswith("("):
        return parse_images(text, spec, target)
    return realize(parse_word(text, spec, target))
