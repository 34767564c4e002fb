"""Automorphisms of A_1 and of its centre Z = K[X, Y], as generator words and
as image pairs.

Generator alphabet (payloads over the coefficient field):

    s        : X -> Y,  Y -> -X          (and x -> d, d -> -x on A_1)
    t_mu     : X -> mu X, Y -> mu^{-1} Y
    gamma_mu : X -> mu X, Y -> Y          (centre only)
    phi_f    : X -> X, Y -> Y + f(X)
    affine   : (X, Y) -> A (X, Y)^T + a   (A in SL_2 for A_1 words)

Words multiply left to right with the convention (a b)(v) = a(b(v)); under it
affine generators satisfy sigma_{A,a} sigma_{B,b} = sigma_{BA, Ba+b}.

realize() turns a word into its image pair by generator actions: if sigma
has the images (x', y'), then sigma o g has g's images read through sigma,

    sigma o s        = (y', -x')
    sigma o t_mu     = (mu x', mu^{-1} y')
    sigma o gamma_mu = (mu x', y')
    sigma o phi_f    = (x', y' + f(x'))
    sigma o affine   = A (x', y')^T + a,

one table (_ACTIONS) folded from the identity pair, which generator_images
reads on the identity pair too.  No generator's images are built and
compose, the substitution of one pair into another, is not called.  An
AutWord built from outside input checks every generator; the words the
package assembles from generators it built itself (decompose,
normalize_word, invert_word, the pull-back of resmap.res_inverse) come
through AutWord._built, without that check.

decompose() factors an automorphism of Z into the canonical word
gamma_mu t_nu phi_{f_1} s phi_{f_2} s ... phi_{f_n} (gamma omitted when the
jacobian is 1) by leading-form degree reduction: while the degree exceeds 1,
the smaller image's leading form must, up to a scalar power, cancel the
larger's, which peels off a phi (after an s swap when the roles of X and Y
are reversed); the remaining affine part is factored through the generator
relations.  An endomorphism that is no automorphism is refused in one of two
ways, each a NotAnAutomorphismError (distinct from malformed input, which
raises ValueError): validate finds a jacobian that is not a nonzero constant,
or the degree reduction stalls, as it does on (X + X^p, Y), whose jacobian is
1 in characteristic p.  No other refusal can occur: both steps, (P, Q) ->
(-Q, P) and Q -> Q - c P^m, keep the jacobian, so no image becomes constant,
the affine part left at the end has the jacobian as its determinant, and each
peeled phi has a nonzero payload.
"""

from __future__ import annotations

from operator import attrgetter

from .gfq import FieldElement, FieldSpec
from .poly import BiPoly, UniPoly, _add_terms, _require_field
from .weyl import WeylElement, jacobian

A1 = "A1"
Z = "Z"
# the element class of each target's images
_KINDS = {A1: WeylElement, Z: BiPoly}


class NotAnAutomorphismError(ValueError):
    """The input defines an endomorphism but not an automorphism."""


# ----------------------------------------------------------------------
# generators and words


class Record:
    """A record of the fields its class names in ``__slots__``: built from
    them in that order (or by name), equal to a record of the same class
    with equal fields, printed as ``Name(field=value, ...)``.  Mutable and
    unhashable, as a plain dataclass is; Generator makes it immutable and
    hashable.  Words and image pairs are records whose own constructors
    validate."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = cls.__slots__
        # the slots' own setters, which store a field where a subclass's
        # __setattr__ refuses to
        cls._setters = tuple(getattr(cls, name).__set__ for name in names)
        # what equality and hashing compare: the value of a single field,
        # the tuple of values of several
        cls._key = staticmethod(attrgetter(*names) if names
                                else lambda record: ())

    def __init__(self, *values, **named):
        if named:
            values += tuple(named.pop(name)
                            for name in self.__slots__[len(values):]
                            if name in named)
        setters = self._setters
        if named or len(values) != len(setters):
            raise TypeError("%s takes the fields (%s)"
                            % (type(self).__name__, ", ".join(self.__slots__)))
        for setter, value in zip(setters, values):
            setter(self, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    __hash__ = None

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self.__slots__))

    def __reduce__(self):
        return type(self), tuple(getattr(self, name)
                                 for name in self.__slots__)


class Generator(Record):
    """A generator of a word: an immutable record, hashable when its
    payloads are."""

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError("cannot assign to field %r of %s"
                             % (name, type(self).__name__))

    __delattr__ = __setattr__

    def __hash__(self):
        return hash(self._key(self))


class GenS(Generator):
    __slots__ = ()

    def __str__(self):
        return "s"


class GenT(Generator):
    __slots__ = ("mu",)

    def __str__(self):
        return "t[%s]" % self.mu


class GenGamma(Generator):
    __slots__ = ("mu",)

    def __str__(self):
        return "gamma[%s]" % self.mu


class GenPhi(Generator):
    __slots__ = ("payload",)    # unhashable, as UniPoly is

    def __str__(self):
        return "phi[%s]" % self.payload


class GenAffine(Generator):
    __slots__ = ("matrix", "translation")    # ((a, b), (c, d)), (e, f)

    def __str__(self):
        (a, b), (c, d) = self.matrix
        e, f = self.translation
        return "affine[%s,%s,%s,%s;%s,%s]" % (a, b, c, d, e, f)


def _det2(m) -> FieldElement:
    (a, b), (c, d) = m
    return a * d - b * c


def mat_mul(m1, m2):
    """Product of two matrices over a field, each a tuple of rows."""
    cols = tuple(zip(*m2))
    return tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
                 for row in m1)


def _inv2(m):
    (a, b), (c, d) = m
    det = _det2(m)
    di = det.inv()
    return ((d * di, -b * di), (-c * di, a * di))


def _payload_var(target: str) -> str:
    """The variable of a phi payload: x on A_1, X on Z."""
    return "x" if target == A1 else "X"


def _require_elements(gen: Generator, field: FieldSpec, values) -> None:
    """Refuse a generator whose payloads are not elements of ``field``."""
    for v in values:
        if not isinstance(v, FieldElement) or v.spec != field:
            raise ValueError("%r needs payloads in %s" % (gen, field))


class AutWord(Record):
    """A word over the generator alphabet, tied to a field and a target
    algebra (A1 or Z).  A_1 words never contain gamma and their affine
    matrices have determinant 1.  The constructor checks every generator
    against the field and the target; _built stores the words the package
    assembles from generators it built itself, without that check."""

    __slots__ = ("field", "target", "gens")

    def __init__(self, field: FieldSpec, target: str, gens):
        if target not in (A1, Z):
            raise ValueError("target must be %r or %r" % (A1, Z))
        Record.__init__(self, field, target, tuple(gens))
        var = _payload_var(target)
        for gen in self.gens:
            if isinstance(gen, (GenT, GenGamma)):
                _require_elements(gen, field, (gen.mu,))
                if gen.mu.is_zero():
                    raise ValueError("scaling payload must be nonzero")
                if target == A1 and isinstance(gen, GenGamma):
                    raise ValueError("gamma is not an automorphism of A_1")
            elif isinstance(gen, GenPhi):
                f = gen.payload
                if (not isinstance(f, UniPoly) or f.var != var
                        or f.ring != field):
                    raise ValueError(
                        "%r needs a payload polynomial in %s over %s"
                        % (gen, var, field))
            elif isinstance(gen, GenAffine):
                _check_affine(gen.matrix, gen.translation, 2)
                _require_elements(gen, field, (*gen.matrix[0], *gen.matrix[1],
                                               *gen.translation))
                det = _det2(gen.matrix)
                if det.is_zero():
                    raise ValueError("affine matrix must be invertible")
                if target == A1 and det != field.one():
                    raise ValueError(
                        "affine matrices on A_1 must have determinant 1")
            elif not isinstance(gen, GenS):
                raise ValueError("unknown generator %r" % (gen,))

    @classmethod
    def _built(cls, field: FieldSpec, target: str, gens) -> "AutWord":
        """A word of generators that the package built itself, each of a
        kind and with payloads that the constructor's check accepts for
        ``field`` and ``target``: stored without running that check again."""
        word = object.__new__(cls)
        word.field, word.target, word.gens = field, target, tuple(gens)
        return word

    def __len__(self):
        return len(self.gens)

    def __str__(self):
        return " ".join(str(g) for g in self.gens)

    def __repr__(self):
        return "AutWord(%s: %s)" % (self.target, self)


# ----------------------------------------------------------------------
# image pairs


class _JacobianSlot:
    """The slot where AutImages keeps its jacobian on Z, or its bracket
    [d', x'] on A_1, once computed, outside AutImages.__slots__, so that
    equality, printing, copies and pickles, which read those fields only,
    never see it."""

    __slots__ = ("_jacobian",)


class AutImages(Record, _JacobianSlot):
    """An automorphism (or, when validate=False, a mere endomorphism) given
    by the images of the two algebra generators: BiPoly pair on Z, Weyl
    element pair on A_1.  The value that validation tests, the jacobian on
    Z and the bracket [d', x'] on A_1, is computed on first use and kept
    with the images it was computed from: validate, jacobian() and in_gamma
    all read it, so a pair is validated by one jacobian or one commutator
    however often it is asked, and a pair whose images are reassigned
    computes it again."""

    __slots__ = ("field", "target", "img_x", "img_y")
    # copies and pickles restore the four fields as they are: an
    # endomorphism built with validate=False is not validated again, and
    # a kept jacobian or bracket is not carried over
    __reduce__ = object.__reduce__

    def __getstate__(self):
        return None, {name: getattr(self, name) for name in self.__slots__}

    def __init__(self, field: FieldSpec, target: str, img_x, img_y,
                 validate: bool = True):
        if target not in (A1, Z):
            raise ValueError("target must be %r or %r" % (A1, Z))
        kind = _KINDS[target]
        if not isinstance(img_x, kind) or not isinstance(img_y, kind):
            raise ValueError("%s images must be %s values"
                             % (target, kind.__name__))
        for img in (img_x, img_y):
            if img.ring is not field and img.ring != field:
                raise ValueError("images must be over %s, not %s"
                                 % (field, img.ring))
        # plain stores, not Record.__init__: realize, compose and res each
        # build a pair per call
        self.field = field
        self.target = target
        self.img_x = img_x
        self.img_y = img_y
        if validate:
            self.validate()

    def validate(self):
        """For Z: the jacobian is a nonzero constant; for A_1: the images
        preserve the defining relation [d, x] = 1."""
        if self.target == Z:
            jac = self._kept()
            if jac.degree != 0:
                raise NotAnAutomorphismError(
                    "jacobian %s is not a nonzero constant" % jac)
        elif not self._kept()._is_one(self.field):
            raise NotAnAutomorphismError(
                "images do not preserve the relation [d, x] = 1")
        return self

    def _kept(self):
        """The value validation tests, computed once per image pair: on Z
        the jacobian of (P, Q), the order-1 term of [Q, P]; on A_1 the
        whole commutator [Q, P] = [d', x']."""
        P, Q = self.img_x, self.img_y
        kept = getattr(self, "_jacobian", (None, None))
        if kept[0] is not P or kept[1] is not Q:
            value = jacobian(P, Q) if self.target == Z else Q.commutator(P)
            kept = self._jacobian = (P, Q, value)
        return kept[2]

    def jacobian(self) -> BiPoly:
        if self.target != Z:
            raise ValueError("jacobian is defined on Z images")
        return self._kept()

    @property
    def degree(self) -> int:
        d = max(self.img_x.degree, self.img_y.degree)
        return 0 if d == float("-inf") else int(d)

    def __str__(self):
        return "(%s; %s)" % (self.img_x, self.img_y)

    def __repr__(self):
        return "AutImages(%s: %s)" % (self.target, self)


def _gens(field: FieldSpec, target: str) -> tuple:
    return _KINDS[target]._generators(field)


def identity_images(field: FieldSpec, target: str) -> AutImages:
    return AutImages(field, target, *_gens(field, target), validate=False)


def _check_affine(matrix, translation, size: int) -> None:
    """Refuse an affine map whose matrix is not size x size or whose
    translation has not size entries."""
    if (len(matrix) != size or len(translation) != size
            or any(len(row) != size for row in matrix)):
        raise ValueError(
            "an affine map on %d generators needs a %dx%d matrix and %d "
            "translation entries" % (size, size, size, size))


def _affine_keys(gens) -> list:
    """The unit keys of the generators ``gens``, one per generator, then the
    origin: the keys of an affine image's coefficient map."""
    return [key for g in gens for key in g.coeffs] + [gens[0]._origin]


def affine_forms(gens, matrix, translation) -> list:
    """The forms sum_j A_ij g_j + a_i in the elements g_j (the generators, or
    the images of the generators under an automorphism) for the affine map
    with matrix A and translation a (entries read in the elements' ring),
    each built as one coefficient map: the terms of each g_j with A_ij
    nonzero, times A_ij, then a_i at the origin, added by _add_terms, which
    drops a key as it cancels."""
    _check_affine(matrix, translation, len(gens))
    first = gens[0]
    ring = first.ring
    # the terms of each g_j, then the unit term that the translation scales
    terms_of = [g.coeffs.items() for g in gens] + [
        ((first._origin, ring.one()),)]
    forms = []
    for row, a in zip(matrix, translation):
        acc: dict = {}
        for terms, c in zip(terms_of, map(ring.coerce, (*row, a))):
            if not c.is_zero():
                _add_terms(acc, terms, c)
        forms.append(first._from_nonzero(acc))
    return forms


def _affine_part(maps, gens, zero) -> tuple:
    """The inverse of affine_forms: the matrix and translation of the affine
    map whose images of the generators ``gens`` have the coefficient maps
    ``maps``, read at _affine_keys, with ``zero`` where a key is absent.
    Raises AssertionError on any other key."""
    keys = _affine_keys(gens)
    rows = []
    for m in maps:
        if set(m) - set(keys):
            raise AssertionError("image is not affine")
        rows.append(tuple(m.get(key, zero) for key in keys))
    return tuple(row[:-1] for row in rows), tuple(row[-1] for row in rows)


# sigma o gen, for a generator gen and the images (x, y) under sigma of the
# two algebra generators: gen's own images read through sigma, so a word is
# realized without substituting into generator images.  On the identity
# pair each entry gives gen's images.
_ACTIONS = {
    GenS: lambda gen, x, y: (y, -x),
    GenT: lambda gen, x, y: (x.scale(gen.mu), y.scale(gen.mu.inv())),
    GenGamma: lambda gen, x, y: (x.scale(gen.mu), y),
    GenPhi: lambda gen, x, y: (x, gen.payload._substitute([x], y)),
    GenAffine: lambda gen, x, y: tuple(
        affine_forms((x, y), gen.matrix, gen.translation)),
}


def generator_images(gen: Generator, field: FieldSpec, target: str) -> AutImages:
    """The images of one generator: its _ACTIONS entry on the identity
    pair, unvalidated."""
    return AutImages(field, target,
                     *_ACTIONS[type(gen)](gen, *_gens(field, target)),
                     validate=False)


def compose(a: AutImages, b: AutImages) -> AutImages:
    """(a b)(v) = a(b(v)): substitute a's images into b's image polynomials."""
    if a.target != b.target:
        raise ValueError("target mismatch: %s vs %s" % (a.target, b.target))
    if a.field != b.field:
        raise ValueError("field mismatch")
    return AutImages(a.field, a.target, apply_images(a, b.img_x),
                     apply_images(a, b.img_y), validate=False)


def realize(word: AutWord) -> AutImages:
    """Images of a word g_1 ... g_k, the left fold of compose from the
    identity, by generator actions: from the identity pair, each generator
    g_i turns the images of g_1 ... g_{i-1} into those of g_1 ... g_i by its
    _ACTIONS entry (s swaps them with a sign, t and gamma scale, phi_f adds
    f of the first image to the second, affine takes linear combinations),
    so no generator's images are built and none is substituted into."""
    field, target = word.field, word.target
    x, y = _gens(field, target)
    for gen in word.gens:
        x, y = _ACTIONS[type(gen)](gen, x, y)
    return AutImages(field, target, x, y, validate=False)


def apply_images(a: AutImages, z) -> object:
    """Apply the substitution homomorphism to an algebra element."""
    if a.target == Z:
        if not isinstance(z, BiPoly):
            raise ValueError("Z automorphisms act on BiPoly values")
        return z.substitute(a.img_x, a.img_y)
    if not isinstance(z, WeylElement) or z.n != 1:
        raise ValueError("A_1 automorphisms act on A_1 elements")
    return z.substitute_gens([a.img_x, a.img_y])


def in_gamma(a: AutImages) -> bool:
    """Whether the jacobian is the constant 1."""
    return a.jacobian()._is_one(a.field)


# ----------------------------------------------------------------------
# word inversion and canonical normalization


def invert_word(word: AutWord) -> AutWord:
    """Reverse the word, inverting generators: s^{-1} = t_{-1} s,
    phi_f^{-1} = phi_{-f}, t and gamma by inverse payload, affine by the
    inverse affine map."""
    out = []
    minus_one = -word.field.one()
    for gen in reversed(word.gens):
        if isinstance(gen, GenS):
            out.append(GenT(minus_one))
            out.append(GenS())
        elif isinstance(gen, GenT):
            out.append(GenT(gen.mu.inv()))
        elif isinstance(gen, GenGamma):
            out.append(GenGamma(gen.mu.inv()))
        elif isinstance(gen, GenPhi):
            out.append(GenPhi(-gen.payload))
        else:
            inv = _inv2(gen.matrix)
            (t0,), (t1,) = mat_mul(inv, tuple(zip(gen.translation)))
            out.append(GenAffine(inv, (-t0, -t1)))
    return AutWord._built(word.field, word.target, out)


def _phi_rescaled(payload: UniPoly, mu: FieldElement, extra: int) -> UniPoly:
    """Payload map behind the scaling relations: lambda X^i picks up
    mu^{-(i + extra)}."""
    mu_inv = mu.inv()
    return UniPoly(payload.ring,
                   {e: c * mu_inv ** (e + extra)
                    for e, c in payload.coeffs.items()}, payload.var)


# the generator relations as rewrites of an adjacent pair (a, b), given the
# field's one: merge like generators, collapse s^2 into t_{-1}, and move t
# and gamma to the left (adjusting phi payloads and flipping t across s)
_REWRITES = {
    (GenT, GenT): lambda a, b, one: [GenT(a.mu * b.mu)],
    (GenGamma, GenGamma): lambda a, b, one: [GenGamma(a.mu * b.mu)],
    (GenPhi, GenPhi): lambda a, b, one: [GenPhi(a.payload + b.payload)],
    (GenS, GenS): lambda a, b, one: [GenT(-one)],
    (GenS, GenT): lambda a, b, one: [GenT(b.mu.inv()), GenS()],
    (GenPhi, GenT): lambda a, b, one: [
        b, GenPhi(_phi_rescaled(a.payload, b.mu, 1))],
    (GenS, GenGamma): lambda a, b, one: [b, GenT(b.mu.inv()), GenS()],
    (GenPhi, GenGamma): lambda a, b, one: [
        b, GenPhi(_phi_rescaled(a.payload, b.mu, 0))],
    (GenT, GenGamma): lambda a, b, one: [b, a],
}


def normalize_word(word: AutWord) -> AutWord:
    """Rewrite into the canonical shape [gamma] [t] phi s phi s ... by
    _REWRITES, in one left-to-right pass: an identity is dropped; a
    generator that rewrites with the last one kept takes that one back and
    puts the replacement in front of the input still to read."""
    field = word.field
    one = field.one()
    todo = list(reversed(word.gens))
    out = []
    rewrites = 0
    while todo:
        b = todo.pop()
        if (isinstance(b, (GenT, GenGamma)) and b.mu == one) or (
                isinstance(b, GenPhi) and b.payload.is_zero()):
            continue
        rule = _REWRITES.get((type(out[-1]) if out else None, type(b)))
        if rule is None:
            out.append(b)
            continue
        rewrites += 1
        if rewrites > 10000:
            raise AssertionError("word normalization did not terminate")
        todo.extend(reversed(rule(out.pop(), b, one)))
    return AutWord._built(field, word.target, out)


# ----------------------------------------------------------------------
# tame decomposition


def _leading_scalar(big: BiPoly, small: BiPoly, degree: int):
    """Scalar c with lf(big) = c * lf(small), where both polynomials have
    total degree ``degree``, or None: c is read at one key of lf(small),
    and the leading forms must have as many terms, each of big's c times
    small's at the same key."""
    lf_small = [(k, v) for k, v in small.coeffs.items() if sum(k) == degree]
    coeffs = big.coeffs
    key, v = lf_small[0]
    if key not in coeffs:
        return None
    c = coeffs[key] * v.inv()
    if sum(sum(k) == degree for k in coeffs) != len(lf_small):
        return None
    return c if all(coeffs.get(k) == v * c for k, v in lf_small) else None


def _minus_scaled(Q: BiPoly, pm: BiPoly, c: FieldElement) -> BiPoly:
    """Q - c pm in one sum over pm's terms, each times -c (_add_terms, which
    drops the keys that cancel)."""
    return Q._from_nonzero(_add_terms(dict(Q.coeffs), pm.coeffs.items(), -c))


def _affine_word(field: FieldSpec, img_x: BiPoly, img_y: BiPoly) -> list:
    """Factor a degree-1 pair of Z images into [gamma] [t] (s/linear-phi
    word).  The linear part is never singular: its determinant is the
    jacobian, a nonzero constant, which decompose validated and its steps
    kept."""
    one = field.one()
    ((a, b), (c, d)), (e, f) = _affine_part(
        (img_x.coeffs, img_y.coeffs), _gens(field, Z), field.zero())
    det = _det2(((a, b), (c, d)))
    gens: list = []
    if det != one:
        gens.append(GenGamma(det))
        det_inv = det.inv()
        a, c = a * det_inv, c * det_inv
    x_var = UniPoly.variable(field, "X")

    def phi_lin(coef: FieldElement) -> GenPhi:
        return GenPhi(x_var.scale(coef))

    if b.is_zero():
        gens.append(GenT(a))
        if not c.is_zero():
            gens.append(phi_lin(c * a.inv()))
    else:
        b_inv = b.inv()
        gens.append(GenT(b_inv))
        if not a.is_zero():
            gens.append(phi_lin(a * b))
        gens.append(GenS())
        if not d.is_zero():
            gens.append(phi_lin(d * b_inv))
    if not e.is_zero():
        # X-translation by e: s phi_{-e} s^{-1}
        gens.extend([GenS(), GenPhi(UniPoly.constant(field, -e, "X")),
                     GenT(-one), GenS()])
    if not f.is_zero():
        gens.append(GenPhi(UniPoly.constant(field, f, "X")))
    return gens


def decompose(a: AutImages) -> AutWord:
    """Canonical word gamma_mu t_nu phi_{f_1} s ... s phi_{f_n} realizing a
    Z-automorphism (gamma omitted when the jacobian is 1; the identity comes
    back as t_1).  Deterministic: ties between the image degrees are broken
    by swapping through s first.  Over K[t] it is refused: the degree
    reduction divides by leading coefficients.

    A non-automorphism is refused in two ways: validate (the jacobian is
    not a nonzero constant) and a stalled degree reduction (a degree that
    does not divide, or leading forms that do not cancel).  Nothing else
    can fail once validate passes: both steps keep the jacobian, so no
    image becomes constant and the final affine part is not singular, and
    each outer step runs the inner loop at least once, adding c X^m with
    c != 0 and m falling, so no phi payload is zero."""
    if a.target != Z:
        raise ValueError("decompose acts on Z images")
    _require_field(a.field, "decompose")
    a.validate()
    field = a.field
    P, Q = a.img_x, a.img_y
    # the image degrees, carried across the steps: a step changes only Q's
    dp, dq = P.degree, Q.degree
    tail: list = []
    while max(dp, dq) > 1:
        if dp >= dq:
            # peel s: sigma = sigma' o s, images of sigma' are (-Q, P)
            P, Q, dp, dq = -Q, P, dq, dp
            tail.insert(0, GenS())
        # reduce Q by multiples of powers of P; K[X, Y] is a domain, so
        # the leading form of P^m is lf(P)^m
        payload = {}
        while dq >= max(dp, 2):
            m, rem = divmod(dq, dp)
            if rem:
                raise NotAnAutomorphismError(
                    "degree reduction stalled: %d does not divide %d"
                    % (dp, dq))
            pm = P ** m
            c = _leading_scalar(Q, pm, dq)
            if c is None:
                raise NotAnAutomorphismError(
                    "degree reduction stalled: leading forms do not cancel")
            # m falls from step to step: each is a new key of the payload
            payload[m] = c
            Q = _minus_scaled(Q, pm, c)
            dq = Q.degree
        tail.insert(0, GenPhi(UniPoly(field, payload, "X")))
    gens = _affine_word(field, P, Q) + tail
    word = normalize_word(AutWord._built(field, Z, gens))
    if not word.gens:
        word = AutWord._built(field, Z, [GenT(field.one())])
    return word


def invert(a: AutImages) -> AutImages:
    """Inverse of a Z automorphism, via decomposition."""
    return realize(invert_word(decompose(a)))
