"""The bijection theta : K[x] -> K[x^p], f -> f^p + f^{(p-1)}, and its
closed-form inverse over a perfect field.

Polynomials "in x^p" or "in x^{p^2}" are ordinary UniPoly values in x whose
support is constrained to multiples of p or p^2; the constraints are checked
at operation boundaries rather than encoded in types.  F^{-1} on such a
polynomial means the p-th root of every coefficient together with exponent
division by p.

The inverse is assembled from three operators:

  * the components of g = sum_i mu_i x^{pi} with mu_i in K[x^{p^2}]
    (coefficient extraction; an equivalent differential-operator product
    is provided as an independent implementation),
  * delta = d^[(p-1)p] F^{-1} on K[x^{p^2}], a locally nilpotent map whose
    geometric series sum_j delta^j therefore terminates, and
  * inverse Frobenius on coefficients.

Given the splitting g = sum mu_i x^{pi} and S = sum_j delta^j(mu_{p-1}), the
unique f = sum lambda_i x^i with theta(f) = g has

  lambda_i     = mu_i^{1/p} + F^{-1} pi_i F^{-1} (S)          (i < p-1)
  lambda_{p-1} = sum_{i<p-1} x^{pi} pi_i F^{-1}(S) + x^{p(p-1)} (S - mu_{p-1})

A degree-by-degree solver (leading term of f is the p-th root of the leading
term of g) is kept alongside as an independent oracle.
"""

from __future__ import annotations

from .poly import UniPoly, _add_terms, _require_field


def _require_support(f: UniPoly, modulo: int, what: str):
    for e in f.coeffs:
        if e % modulo:
            raise ValueError("%s: exponent %d is not divisible by %d"
                             % (what, e, modulo))


def theta(f: UniPoly) -> UniPoly:
    """f^p + f^{(p-1)}; lands in K[x^p] (checked).  Defined over any
    coefficient ring of characteristic p, field or not."""
    p = f.ring.characteristic
    out = f.frobenius() + f.derivative(p - 1)
    _require_support(out, p, "theta image")
    return out


def _field_only(f: UniPoly, op: str, power: int) -> int:
    """The characteristic p of f's ring, once the operator ``op`` has
    refused a ring that is not a field and a support with an exponent not
    divisible by p^power."""
    p = _require_field(f.ring, op)
    _require_support(f, p ** power, "argument")
    return p


def xp_components(g: UniPoly) -> list[UniPoly]:
    """The components (mu_0, ..., mu_{p-1}) of g = sum mu_i x^{pi} with
    mu_i in K[x^{p^2}], kept as polynomials in x."""
    p = g.ring.characteristic
    _require_support(g, p, "argument")
    parts: list[dict] = [{} for _ in range(p)]
    for e, c in g.coeffs.items():
        k = e // p
        parts[k % p][p * p * (k // p)] = c
    return [UniPoly(g.ring, part, g.var) for part in parts]


def pi_component(g: UniPoly, i: int) -> UniPoly:
    """Component extraction K[x^p] -> K[x^{p^2}] picking mu_i."""
    if i not in range(g.ring.characteristic):
        raise ValueError("component index must be in 0..p-1")
    return xp_components(g)[i]


def pi_component_via_operators(g: UniPoly, i: int) -> UniPoly:
    """Same projection realized by differential operators: the product of
    (x^p d^[p] - j)/(i - j) over j != i (a projection onto the eigenspace of
    x^p d^[p] with eigenvalue i) followed by d^[p*i].  Independent of
    pi_component; the two must agree."""
    p = g.ring.characteristic
    if i not in range(p):
        raise ValueError("component index must be in 0..p-1")
    _require_support(g, p, "argument")
    ring = g.ring
    acc = g
    denom = 1
    for j in range(p):
        if j == i:
            continue
        # x^p d^[p] acts diagonally on monomials; apply then shift back up
        acc = acc.divided_power(p).shift(p) - acc.scale(ring.from_int(j))
        denom = (denom * (i - j)) % p
    acc = acc.scale(ring.from_int(denom).inv())
    return acc.divided_power(p * i)


def delta(g: UniPoly) -> UniPoly:
    """d^[(p-1)p] F^{-1} on K[x^{p^2}]: reading g = sum a_I x^{p^2 I}, the
    image is sum a_{p-1+pI}^{1/p} x^{p^2 I}."""
    p = _field_only(g, "delta", 2)
    out = {}
    for e, c in g.coeffs.items():
        idx = e // (p * p)
        if idx >= p - 1 and (idx - (p - 1)) % p == 0:
            out[p * p * ((idx - (p - 1)) // p)] = c.inv_frobenius()
    return UniPoly(g.ring, out, g.var)


def delta_iterated(g: UniPoly, n: int) -> UniPoly:
    """Closed form of delta^n: index I is read from (p-1)(1+p+...+p^{n-1})
    + p^n I = p^n - 1 + p^n I, with the p^n-th root of the coefficient."""
    if n < 0:
        raise ValueError("iterate count must be >= 0")
    if n == 0:
        return g
    p = _field_only(g, "delta_iterated", 2)
    base = p**n - 1
    out = {}
    for e, c in g.coeffs.items():
        idx = e // (p * p)
        if idx >= base and (idx - base) % p**n == 0:
            for _ in range(n):
                c = c.inv_frobenius()
            out[p * p * ((idx - base) // p**n)] = c
    return UniPoly(g.ring, out, g.var)


def delta_geometric(g: UniPoly) -> UniPoly:
    """sum_{j >= 0} delta^j(g); finite because delta is locally nilpotent.
    The number of nonzero terms is at most 1 + log_p(1 + deg) where deg is
    the degree of g in x^{p^2} (asserted)."""
    p = _field_only(g, "delta_geometric", 2)
    total = UniPoly.zero(g.ring, g.var)
    cur = g
    terms = 0
    while not cur.is_zero():
        total = total + cur
        cur = delta(cur)
        terms += 1
    if terms:
        d = g.degree // (p * p)
        # term j survives only if p^j <= d + 1, so at most 1 + log_p(1 + d)
        bound = 1
        t = d + 1
        while t >= p:
            t //= p
            bound += 1
        if terms > bound:
            raise AssertionError("nilpotency bound exceeded")
    return total


def theta_inverse(g: UniPoly) -> UniPoly:
    """The unique f with theta(f) = g, by the closed formula, read off the
    coefficient maps: the term c x^{pk} of g lies in mu_i, i = k mod p, as
    c x^{p^2 (k // p)}, and the term r x^{pJ} of F^{-1}(S) in nu_i,
    i = J mod p, so that F^{-1}(mu_i) and F^{-1}(nu_i) shifted by i put
    c^{1/p} at x^k and r^{1/p} at x^J.  Every term of f goes into one map,
    the nu terms added to the mu terms by _add_terms (which drops a key
    that cancels), and one UniPoly is built from it."""
    p = _field_only(g, "theta_inverse", 1)
    out, top = {}, {}       # top: mu_{p-1}
    for e, c in g.coeffs.items():
        k = e // p
        if k % p == p - 1:
            top[p * (k - p + 1)] = c
        else:
            out[k] = c.inv_frobenius()
    mu = UniPoly(g.ring, top, g.var)
    s = delta_geometric(mu)
    for e, c in s.coeffs.items():
        r, J = c.inv_frobenius(), e // (p * p)
        # nu_i shifted by p i + p - 1 puts r at x^{pJ + p - 1}; nu_{p-1}
        # is not part of the formula
        if J % p != p - 1:
            _add_terms(out, ((J, r.inv_frobenius()),))
            out[p * J + p - 1] = r
    # the rest of lambda_{p-1} x^{p-1}: (S - mu_{p-1}) x^{p^2 - 1}
    for e, c in (s - mu).coeffs.items():
        out[e + p * p - 1] = c
    return UniPoly(g.ring, out, g.var)


def theta_inverse_oracle(g: UniPoly) -> UniPoly:
    """Independent inverse: solve theta(f) = g from the top degree down.
    theta multiplies degrees by p and raises leading coefficients to the
    p-th power, so the leading monomial of f is forced; subtract its theta
    image and recurse."""
    p = _field_only(g, "theta_inverse_oracle", 1)
    rest = g
    out = UniPoly.zero(g.ring, g.var)
    while not rest.is_zero():
        e, c = rest.leading_term()
        mono = UniPoly.monomial(g.ring, e // p, c.inv_frobenius(), g.var)
        out = out + mono
        rest = rest - theta(mono)
        if not rest.is_zero() and rest.degree >= e:
            raise AssertionError("degree did not drop")  # unreachable
    return out
