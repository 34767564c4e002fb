"""Exact arithmetic in small finite fields F_{p^n}.

Fields are described by a prime p, an extension degree n and a monic
irreducible modulus over F_p in the generator symbol ``g``.  Elements are
stored in the polynomial basis 1, g, ..., g^{n-1}.  Every finite field is
perfect, so besides the Frobenius a -> a^p each element has a unique p-th
root, computed as a -> a^{p^{n-1}} (since a^{p^n} = a).

Each FieldSpec interns all q = p^n of its elements at construction time and
builds its FieldCodec, which codes every element as an int; arithmetic then
only ever hands out interned values, so equal elements are identical
objects.  There is one arithmetic, through the codes: a sum or product of
two elements is the int sum or product of their codes, folded back to an
element by FieldCodec.value; a difference is the sum with the negation,
not one fold of its own.  Inside a polynomial or Weyl product the codes
are added and multiplied as plain ints and folded once at the end of the
product.  The fold is a closure built once per field (_folder) over the
field's constants, with the fold through the modulus and the coordinates
written out for n = 2 and run as two short loops for n >= 3.  A sum or
product takes an element of its own field before coercing anything else.

What does not change, an element pays for once: its inverse (one power,
a^(q-2)) and its text are computed on first use and kept in lists of the
FieldSpec (_invs, _texts), each allocated on its first use, so a field
holds only the values its callers asked for and has no q x q table.

Terms are printed by one printer, _mono_str and _format_term: the
polynomials in g here (_g_str, behind elements and moduli) and the sparse
polynomials and Weyl elements of poly.py, which imports them.
"""

from __future__ import annotations

from collections.abc import Iterator

SUPPORTED_PRIMES = (2, 3, 5, 7, 11, 13)
MAX_DEGREE = 4

# bits per coordinate in the int code of an element of F_{p^n}, n > 1
CODE_STRIDE = 64
_CODE_MASK = (1 << CODE_STRIDE) - 1


class UsageError(ValueError):
    """Malformed or unsupported input such as a bad field spec, an unknown
    suite or a non-positive count, as opposed to well-formed input that gets
    a negative verdict."""


def _poly_divmod(num: list[int], den: list[int], p: int) -> tuple[list[int], list[int]]:
    num = list(num)
    dn = len(den) - 1
    inv_lead = pow(den[-1], p - 2, p)
    quot = [0] * max(len(num) - dn, 0)
    for i in range(len(num) - dn - 1, -1, -1):
        c = (num[i + dn] * inv_lead) % p
        quot[i] = c
        if c:
            for j, d in enumerate(den):
                num[i + j] = (num[i + j] - c * d) % p
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return quot, num


def _monics(p: int, n: int) -> Iterator[tuple[int, ...]]:
    """Every monic polynomial of degree n over F_p, as ascending
    coefficients, the lower ones counted up in base p."""
    for v in range(p**n):
        yield tuple(v // p**i % p for i in range(n)) + (1,)


def is_irreducible(modulus: tuple[int, ...], p: int) -> bool:
    """Trial division by every monic polynomial of degree 1 .. deg/2;
    enough for the degrees (<= 4) supported."""
    return not any(_poly_divmod(modulus, den, p)[1] == [0]
                   for d in range(1, (len(modulus) - 1) // 2 + 1)
                   for den in _monics(p, d))


def default_modulus(p: int, n: int) -> tuple[int, ...]:
    """First monic irreducible of degree n, lower coefficients counted in base p."""
    return next(mod for mod in _monics(p, n) if is_irreducible(mod, p))


def _mono_str(var: str, e: int) -> str:
    """var^e, var for e = 1, empty for e = 0."""
    if e == 0:
        return ""
    if e == 1:
        return var
    return "%s^%d" % (var, e)


def _format_term(cs: str, is_one: bool, mono: str) -> str:
    """A term printed from its coefficient's text ``cs`` and its monomial
    ``mono``: the coefficient alone for a constant, the monomial alone for
    a coefficient of one, a compound coefficient in parentheses."""
    if is_one and mono:
        return mono
    compound = "+" in cs or "*" in cs or "^" in cs
    if not mono:
        return "(%s)" % cs if compound else cs
    return "(%s)*%s" % (cs, mono) if compound else "%s*%s" % (cs, mono)


def _g_str(coeffs, descending: bool = False) -> str:
    """The polynomial in g with ascending coefficients ``coeffs``, lowest
    power first (highest first if ``descending``), zero terms skipped."""
    parts = [_format_term(str(c), c == 1, _mono_str("g", e))
             for e, c in enumerate(coeffs) if c]
    if descending:
        parts.reverse()
    return "+".join(parts) or "0"


class FieldElement:
    """An element of F_{p^n}; immutable, interned by its FieldSpec."""

    __slots__ = ("spec", "val")

    def __init__(self, spec: "FieldSpec", val: int):
        self.spec = spec
        self.val = val

    @property
    def coeffs(self) -> tuple[int, ...]:
        """Coordinates in the basis 1, g, ..., g^{n-1}, ascending."""
        return self.spec._unpack(self.val)

    def is_zero(self) -> bool:
        return self.val == 0

    def __bool__(self) -> bool:
        return self.val != 0

    def _coerce(self, other):
        spec = self.spec
        if isinstance(other, FieldElement):
            if other.spec is not spec and other.spec != spec:
                raise ValueError(
                    "field mismatch: %s vs %s" % (spec, other.spec))
            return other
        if isinstance(other, int):
            return spec.from_int(other)
        return None

    # a sum or product takes an element of its own FieldSpec, the operand
    # it nearly always meets, before _coerce

    def __add__(self, other):
        spec = self.spec
        if type(other) is not FieldElement or other.spec is not spec:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        codec = spec.codec
        codes = codec._codes
        return spec._elts[codec.value(codes[self.val] + codes[other.val])]

    __radd__ = __add__

    def __neg__(self):
        # times p - 1 rather than -1: codes stay non-negative
        spec = self.spec
        codec = spec.codec
        return spec._elts[codec.value(codec._codes[self.val] * (spec.p - 1))]

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        spec = self.spec
        if type(other) is not FieldElement or other.spec is not spec:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        codec = spec.codec
        codes = codec._codes
        return spec._elts[codec.value(codes[self.val] * codes[other.val])]

    __rmul__ = __mul__

    def inv(self) -> "FieldElement":
        """self^(q - 2), computed once per element and kept (FieldSpec._invs);
        nothing is kept for zero, which raises ZeroDivisionError."""
        spec = self.spec
        invs = spec._invs
        if invs is None:
            invs = spec._invs = [None] * spec.q
        inv = invs[self.val]
        if inv is None:
            if self.val == 0:
                raise ZeroDivisionError("division by zero in %s" % spec)
            inv = invs[self.val] = self ** (spec.q - 2)
        return inv

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inv()

    def __pow__(self, e: int) -> "FieldElement":
        """self^e; a negative e inverts first.  Over F_p the built-in
        three-argument pow on the residue; over F_{p^n}, square and
        multiply on reduced codes."""
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            return self.inv() ** (-e)
        spec = self.spec
        if spec.n == 1:
            return spec._elts[pow(self.val, e, spec.p)]
        # the code of one is 1
        codes, value = spec.codec._codes, spec.codec.value
        result, base = 1, codes[self.val]
        while e:
            if e & 1:
                result = codes[value(result * base)]
            e >>= 1
            if e:
                base = codes[value(base * base)]
        return spec._elts[value(result)]

    def frobenius(self) -> "FieldElement":
        """a -> a^p, a field automorphism fixing F_p."""
        return self ** self.spec.p

    def inv_frobenius(self) -> "FieldElement":
        """The unique p-th root: a -> a^{p^{n-1}}."""
        spec = self.spec
        return self ** (spec.p ** (spec.n - 1))

    def __eq__(self, other) -> bool:
        if isinstance(other, FieldElement):
            return self.val == other.val and (
                self.spec is other.spec or self.spec == other.spec)
        if isinstance(other, int):
            return self == self.spec.from_int(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.spec, self.val))

    def __str__(self) -> str:
        """The residue over F_p, the polynomial in g (_g_str) over F_{p^n};
        printed once per element and kept (FieldSpec._texts)."""
        spec = self.spec
        texts = spec._texts
        if texts is None:
            texts = spec._texts = [None] * spec.q
        text = texts[self.val]
        if text is None:
            text = texts[self.val] = (
                str(self.val) if spec.n == 1 else _g_str(self.coeffs))
        return text

    __repr__ = __str__


class FieldSpec:
    """F_{p^n} with 2 <= p <= 13 prime and n <= 4; also the coefficient-ring
    object the polynomial layers work over (zero/one/from_int/characteristic).
    """

    is_field = True

    def __init__(self, p: int, n: int = 1, modulus=None):
        if p not in SUPPORTED_PRIMES:
            raise UsageError("p must be a prime in %s, got %r"
                             % (list(SUPPORTED_PRIMES), p))
        if not isinstance(n, int) or not 1 <= n <= MAX_DEGREE:
            raise UsageError("extension degree n must be in 1..%d, got %r"
                             % (MAX_DEGREE, n))
        if modulus is None:
            modulus = default_modulus(p, n)
        modulus = tuple(int(c) % p for c in modulus)
        if len(modulus) != n + 1:
            raise UsageError("modulus must have degree n = %d" % n)
        if modulus[-1] != 1:
            raise UsageError("modulus must be monic")
        if not is_irreducible(modulus, p):
            raise UsageError("modulus %s is reducible over F_%d"
                             % (_g_str(modulus, True), p))
        self.p = p
        self.n = n
        self.q = p**n
        self.modulus = modulus
        # the hash of what equality compares, taken once: fields key the
        # element hashes, the kept generators and the row layouts
        self._hash = hash((p, n, modulus))
        # images of g^{n+k} for k = 0..n-2, as basis vectors
        red = []
        for k in range(n - 1):
            _, rem = _poly_divmod([0] * (n + k) + [1], modulus, p)
            red.append(tuple(rem) + (0,) * (n - len(rem)))
        self._red = red
        self._elts = [FieldElement(self, v) for v in range(self.q)]
        self.codec = FieldCodec(self)
        # the inverses and texts of the elements by index, None until first
        # asked for; each list is allocated on its first use, so a field
        # pays for the values its callers use, not for q of them here
        self._invs = self._texts = None

    @property
    def characteristic(self) -> int:
        return self.p

    def _unpack(self, val: int) -> tuple[int, ...]:
        p = self.p
        out = []
        for _ in range(self.n):
            out.append(val % p)
            val //= p
        return tuple(out)

    def _pack(self, coeffs) -> int:
        val = 0
        for c in reversed(list(coeffs)):
            val = val * self.p + (c % self.p)
        return val

    def zero(self) -> FieldElement:
        return self._elts[0]

    def one(self) -> FieldElement:
        return self._elts[1 % self.q]

    def gen(self) -> FieldElement:
        """The generator g (for n = 1 this is the root of the linear modulus)."""
        if self.n == 1:
            return self.from_int(-self.modulus[0])
        return self._elts[self.p]

    def from_int(self, k: int) -> FieldElement:
        return self._elts[k % self.p]

    def element(self, coeffs) -> FieldElement:
        """Element from basis coordinates (ascending powers of g)."""
        coeffs = list(coeffs)
        if len(coeffs) > self.n:
            raise ValueError("too many coordinates for n = %d" % self.n)
        coeffs += [0] * (self.n - len(coeffs))
        return self._elts[self._pack(coeffs)]

    def coerce(self, value) -> FieldElement:
        """``value``, an element of this field or an int, as an element of
        this field; TypeError for anything else."""
        elt = self._elts[0]._coerce(value)
        if elt is None:
            raise TypeError("cannot coerce %r into %s" % (value, self))
        return elt

    def elements(self) -> Iterator[FieldElement]:
        return iter(self._elts)

    def random_element(self, rng) -> FieldElement:
        return self._elts[rng.randrange(self.q)]

    def random_nonzero(self, rng) -> FieldElement:
        return self._elts[1 + rng.randrange(self.q - 1)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, FieldSpec):
            return NotImplemented
        return (self.p, self.n, self.modulus) == (other.p, other.n, other.modulus)

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        if self.n == 1:
            return "p=%d" % self.p
        return "p=%d,n=%d,mod=%s" % (self.p, self.n, _g_str(self.modulus, True))

    def __repr__(self) -> str:
        return "FieldSpec(%s)" % self


class FieldCodec:
    """Int codes for the elements of one FieldSpec.

    An element of F_p is coded by its residue, an element of F_{p^n} by its
    n coordinates at a stride of CODE_STRIDE bits, so that the int product of
    two codes is their product as polynomials in g, the coefficient of g^i
    in bits 64i .. 64i+63.  value() folds a code back to an element: the
    coefficients of g^n .. g^{2n-2} through the modulus (FieldSpec._red),
    then every coordinate mod p; it is a closure (_folder) over constants
    fixed when the codec is built, the codes of the images of g^n ..
    g^{2n-2} among them, with no loop per call.  FieldElement's sum,
    negation and product are one int operation on codes and one fold (a
    difference is the sum with the negation, two of them); inside a
    polynomial or Weyl product, codes (code(), or encode() for a whole
    map) are added and multiplied as plain ints and decode() folds once
    per product, unpacking the packed keys in the same pass.
    check_pairs() guards the stride, which only codes of F_{p^n}, n > 1,
    have (``strided``).
    """

    zero = 0

    def __init__(self, spec: FieldSpec):
        p, n = spec.p, spec.n
        self.p, self.n = p, n
        self.strided = n > 1
        self._elts = spec._elts
        # value v = v mod p + p * (v // p), so its code is v mod p plus the
        # code of v // p shifted up one coordinate
        self._codes = codes = list(range(p))
        for v in range(p, spec.q):
            codes.append(v % p + (codes[v // p] << CODE_STRIDE))
        # the code of the image of g^(n+k) under the modulus, k = 0..n-2
        self._images = [sum(c << CODE_STRIDE * i for i, c in enumerate(row))
                        for row in spec._red]
        self.value = _folder(p, n, self._images)

    # value is a closure, which pickle cannot write: a copy builds its own

    def __getstate__(self) -> dict:
        return {k: v for k, v in vars(self).items() if k != "value"}

    def __setstate__(self, state: dict) -> None:
        vars(self).update(state)
        self.value = _folder(self.p, self.n, self._images)

    def check_stride(self, bound: int) -> None:
        """Raise OverflowError when ``bound``, an upper bound on the
        coordinates of the codes of a product, reaches 2^CODE_STRIDE: one
        coordinate would then carry into the next."""
        if bound >> CODE_STRIDE:
            raise OverflowError(
                "coordinate bound %d of %s codes exceeds the %d-bit stride"
                % (bound, self._elts[0].spec, CODE_STRIDE))

    def bound(self, pairs: int, scale: int) -> int:
        """An upper bound on the coordinates of a product, folded through
        the modulus, in which at most ``pairs`` code pairs land on one key,
        each operand coordinate (at most p - 1) multiplied by at most
        ``scale``: a pair adds at most n products of two coordinates to a
        coefficient of g, and the fold adds n - 1 further coefficients times
        entries of FieldSpec._red (each at most p - 1)."""
        p, n = self.p, self.n
        return pairs * scale * n * (p - 1) ** 2 * (1 + (n - 1) * (p - 1))

    def check_pairs(self, pairs: int, scale: int = 1) -> None:
        """Guard the stride of a product with at most ``pairs`` code pairs
        on one key, each operand coordinate times at most ``scale`` (bound).
        Codes of F_p have no stride to overflow (``strided`` is False)."""
        if self.strided:
            self.check_stride(self.bound(pairs, scale))

    def code(self, c: FieldElement) -> int:
        return self._codes[c.val]

    def encode(self, coeffs: dict) -> dict:
        codes = self._codes
        return {k: codes[c.val] for k, c in coeffs.items()}

    def decode(self, acc: dict, width: int = 0, arity: int = 1) -> dict:
        """Codes to this field's own interned elements, zeros dropped, and
        in the same pass keys packed at ``width`` bits per slot back to
        tuples of ``arity`` exponents (arity 1: int keys kept)."""
        elts, value = self._elts, self.value
        if arity == 1:
            return {k: elts[v] for k, c in acc.items() if (v := value(c))}
        mask, shifts = (1 << width) - 1, [s * width for s in range(arity)]
        return {tuple([k >> s & mask for s in shifts]): elts[v]
                for k, c in acc.items() if (v := value(c))}


def _folder(p: int, n: int, images: list):
    """FieldCodec.value for F_{p^n}: the element (its index in
    FieldSpec._elts) of an unreduced code with non-negative coordinates,
    the coefficients of g^n .. g^{2n-2} folded through the modulus (the
    coefficient of g^(n+k) times ``images[k]``, the code of the image of
    g^(n+k)), then every coordinate taken mod p.  One closure per n, over
    the field's constants: the residue for n = 1, the fold and the two
    coordinates written out for n = 2 (the extension fields a restriction
    pass meets most), and for n >= 3 one loop over the fold images and one
    over the coordinates, from the top down (Horner in p)."""
    M, S = _CODE_MASK, CODE_STRIDE
    low = (1 << S * n) - 1
    if n == 1:
        def value(code: int) -> int:
            return code % p
    elif n == 2:
        (f0,) = images

        def value(code: int) -> int:
            r = (code & low) + (code >> 2 * S & M) * f0
            return (r & M) % p + (r >> S & M) % p * p
    else:
        # (bit offset of g^(n+k), images[k]); bit offsets of g^(n-1) .. 1
        folds = [(S * (n + k), f) for k, f in enumerate(images)]
        tops = [S * i for i in range(n - 1, -1, -1)]

        def value(code: int) -> int:
            r = code & low
            for s, f in folds:
                r += (code >> s & M) * f
            v = 0
            for s in tops:
                v = v * p + (r >> s & M) % p
            return v
    return value
