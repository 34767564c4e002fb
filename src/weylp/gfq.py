"""Exact arithmetic in small finite fields F_{p^n}.

Fields are described by a prime p, an extension degree n and a monic
irreducible modulus over F_p in the generator symbol ``g``.  Elements are
stored in the polynomial basis 1, g, ..., g^{n-1}.  Every finite field is
perfect, so besides the Frobenius a -> a^p each element has a unique p-th
root, computed as a -> a^{p^{n-1}} (since a^{p^n} = a).

Each FieldSpec interns all q = p^n of its elements at construction time and,
for small q, precomputes addition/multiplication tables; arithmetic then only
ever hands out interned values, so equal elements are identical objects and
the polynomial layers above can run hot loops over them cheaply.
"""

from __future__ import annotations

from typing import Iterable, Iterator

SUPPORTED_PRIMES = (2, 3, 5, 7, 11, 13)
MAX_DEGREE = 4

# add/mul lookup tables are built when q <= this; beyond it ops are computed
_TABLE_LIMIT = 256


class UsageError(ValueError):
    """Malformed or unsupported input such as a bad field spec, an unknown
    suite or a non-positive count, as opposed to well-formed input that gets
    a negative verdict."""


def _eval_mod(coeffs: Iterable[int], x: int, p: int) -> int:
    acc = 0
    for c in reversed(list(coeffs)):
        acc = (acc * x + c) % p
    return acc


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


def is_irreducible(modulus: tuple[int, ...], p: int) -> bool:
    """Trial root/factor search; enough for the degrees (<= 4) supported."""
    deg = len(modulus) - 1
    if deg == 1:
        return True
    if any(_eval_mod(modulus, x, p) == 0 for x in range(p)):
        return False
    if deg < 4:
        return True
    # degree 4 and no roots: only quadratic factors remain possible
    for b in range(p):
        for c in range(p):
            quad = [c, b, 1]
            if any(_eval_mod(quad, x, p) == 0 for x in range(p)):
                continue
            _, rem = _poly_divmod(list(modulus), quad, p)
            if rem == [0]:
                return False
    return True


def default_modulus(p: int, n: int) -> tuple[int, ...]:
    """First monic irreducible of degree n, lower coefficients counted in base p."""
    if n == 1:
        return (0, 1)
    for v in range(p**n):
        coeffs = []
        t = v
        for _ in range(n):
            coeffs.append(t % p)
            t //= p
        mod = tuple(coeffs) + (1,)
        if is_irreducible(mod, p):
            return mod
    raise AssertionError("no irreducible modulus found")  # unreachable


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

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        spec = self.spec
        if spec._add is not None:
            return spec._add[self.val][other.val]
        return spec._elts[spec._add_vals(self.val, other.val)]

    __radd__ = __add__

    def __neg__(self):
        spec = self.spec
        return spec._elts[spec._neg_vals(self.val)]

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
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        spec = self.spec
        if spec._mul is not None:
            return spec._mul[self.val][other.val]
        return spec._elts[spec._mul_vals(self.val, other.val)]

    __rmul__ = __mul__

    def inv(self) -> "FieldElement":
        if self.val == 0:
            raise ZeroDivisionError("division by zero in %s" % self.spec)
        return self ** (self.spec.q - 2)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inv()

    def __pow__(self, e: int) -> "FieldElement":
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            return self.inv() ** (-e)
        result = self.spec.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

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
        spec = self.spec
        if spec.n == 1:
            return str(self.val)
        cs = self.coeffs
        parts = []
        for e, c in enumerate(cs):
            if c == 0:
                continue
            if e == 0:
                parts.append(str(c))
            elif e == 1:
                parts.append("g" if c == 1 else "%d*g" % c)
            else:
                parts.append("g^%d" % e if c == 1 else "%d*g^%d" % (c, e))
        return "+".join(parts) if parts else "0"

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
                             % (self._mod_str(modulus), p))
        self.p = p
        self.n = n
        self.q = p**n
        self.modulus = modulus
        # images of g^{n+k} for k = 0..n-2, as basis vectors
        red = []
        if n > 1:
            row = [(-modulus[i]) % p for i in range(n)]
            red.append(tuple(row))
            for _ in range(n - 2):
                shifted = [0] + row[:-1]
                top = row[-1]
                if top:
                    base = red[0]
                    shifted = [(shifted[i] + top * base[i]) % p
                               for i in range(n)]
                row = shifted
                red.append(tuple(row))
        self._red = red
        self._elts = [FieldElement(self, v) for v in range(self.q)]
        if self.q <= _TABLE_LIMIT:
            elts = self._elts
            self._add = [[elts[self._add_vals(a, b)] for b in range(self.q)]
                         for a in range(self.q)]
            self._mul = [[elts[self._mul_vals(a, b)] for b in range(self.q)]
                         for a in range(self.q)]
        else:
            self._add = None
            self._mul = None

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

    def _add_vals(self, a: int, b: int) -> int:
        p = self.p
        if self.n == 1:
            return (a + b) % p
        av, bv = self._unpack(a), self._unpack(b)
        return self._pack((x + y) % p for x, y in zip(av, bv))

    def _neg_vals(self, a: int) -> int:
        p = self.p
        if self.n == 1:
            return (-a) % p
        return self._pack((-x) % p for x in self._unpack(a))

    def _mul_vals(self, a: int, b: int) -> int:
        p, n = self.p, self.n
        if n == 1:
            return (a * b) % p
        av, bv = self._unpack(a), self._unpack(b)
        prod = [0] * (2 * n - 1)
        for i, ai in enumerate(av):
            if ai:
                for j, bj in enumerate(bv):
                    if bj:
                        prod[i + j] = (prod[i + j] + ai * bj) % p
        out = prod[:n]
        for k in range(n, 2 * n - 1):
            c = prod[k]
            if c:
                row = self._red[k - n]
                for i in range(n):
                    if row[i]:
                        out[i] = (out[i] + c * row[i]) % p
        return self._pack(out)

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
        if isinstance(value, FieldElement):
            if value.spec is not self and value.spec != self:
                raise ValueError("field mismatch: %s vs %s" % (self, value.spec))
            return value
        if isinstance(value, int):
            return self.from_int(value)
        raise TypeError("cannot coerce %r into %s" % (value, self))

    def elements(self) -> Iterator[FieldElement]:
        return iter(self._elts)

    def random_element(self, rng) -> FieldElement:
        return self._elts[rng.randrange(self.q)]

    def random_nonzero(self, rng) -> FieldElement:
        return self._elts[1 + rng.randrange(self.q - 1)]

    @staticmethod
    def _mod_str(modulus) -> str:
        parts = []
        for e in range(len(modulus) - 1, -1, -1):
            c = modulus[e]
            if c == 0:
                continue
            if e == 0:
                parts.append(str(c))
            elif e == 1:
                parts.append("g" if c == 1 else "%d*g" % c)
            else:
                parts.append("g^%d" % e if c == 1 else "%d*g^%d" % (c, e))
        return "+".join(parts) if parts else "0"

    def __eq__(self, other) -> bool:
        if not isinstance(other, FieldSpec):
            return NotImplemented
        return (self.p, self.n, self.modulus) == (other.p, other.n, other.modulus)

    def __hash__(self) -> int:
        return hash((self.p, self.n, self.modulus))

    def __str__(self) -> str:
        if self.n == 1:
            return "p=%d" % self.p
        return "p=%d,n=%d,mod=%s" % (self.p, self.n, self._mod_str(self.modulus))

    def __repr__(self) -> str:
        return "FieldSpec(%s)" % self
