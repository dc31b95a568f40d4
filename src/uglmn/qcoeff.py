"""Exact arithmetic in Q(v): sparse polynomials in v over the rationals,
reduced rational functions, and the quantum combinatorics [i], [a]!, v_h.

Everything is immutable and kept in one canonical form.  A VFunc is
v^s * n/d with n, d in Q[v] prime to v and to each other, d monic, and zero
stored as (0, 0, 1).  The action divides only by v_h - v_h^-1 = v^-1 Phi_1 Phi_2
and by [a]!, both v-powers times products of cyclotomic polynomials Phi_k
(Phi_1 = v - 1, Phi_2 = v + 1, Phi_4 = v^2 + 1, ...).  So d is stored as the
sorted pairs (k, e) of d = prod Phi_k^e, and .d, .num and .den expand it.  A
product adds the exponents and a sum takes their elementwise max; each
cancels only by exact trial division by the Phi_k present, and never runs
Euclid.  VFunc(num, den), from_json and inv reduce by one gcd and then
factor the monic denominator over the Phi_k; one that does not factor
completely is kept as a VPoly, and any operation with such an operand goes
through that constructor.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from fractions import Fraction


class PoleError(ZeroDivisionError):
    """Raised when a rational function is evaluated at a root of its denominator."""


def _coerce(c):
    """Normalize a coefficient to int (preferred) or Fraction."""
    if isinstance(c, int):
        return c
    if isinstance(c, Fraction):
        return int(c) if c.denominator == 1 else c
    raise TypeError(f"cannot use {c!r} as an exact coefficient")


def _div_coeff(a, b):
    """Exact coefficient division, staying in int when possible."""
    if isinstance(a, int) and isinstance(b, int):
        q, r = divmod(a, b)
        if r == 0:
            return q
        return Fraction(a, b)
    return _coerce(Fraction(a) / Fraction(b))


class VPoly:
    """A sparse polynomial in v with exact rational coefficients.

    Stored as exponent -> coefficient (int where possible, Fraction
    otherwise) with no zero entries and all exponents >= 0.

    >>> VPoly({2: 1, 0: -1}).text()
    'v^2 - 1'
    """

    __slots__ = ("c",)

    def __init__(self, coeffs=None):
        d = {}
        if coeffs:
            for e, c in coeffs.items():
                c = _coerce(c)
                if c:
                    if e < 0:
                        raise ValueError("VPoly exponents must be nonnegative")
                    d[int(e)] = c
        self.c = d

    @classmethod
    def _raw(cls, d: dict) -> "VPoly":
        # Trusted constructor: d already normalized.
        p = object.__new__(cls)
        p.c = d
        return p

    def is_zero(self) -> bool:
        return not self.c

    def valuation(self) -> int:
        """Min exponent; 0 for the zero polynomial."""
        return min(self.c) if self.c else 0

    def leading_coeff(self):
        return self.c[max(self.c)] if self.c else 0

    def __eq__(self, other) -> bool:
        return isinstance(other, VPoly) and self.c == other.c

    def __add__(self, other: "VPoly") -> "VPoly":
        d = dict(self.c)
        for e, c in other.c.items():
            s = d.get(e, 0) + c
            if s:
                d[e] = s if type(s) is int else _coerce(s)  # 1/2 + 1/2 is the int 1
            else:
                d.pop(e, None)
        return VPoly._raw(d)

    def __neg__(self) -> "VPoly":
        return VPoly._raw({e: -c for e, c in self.c.items()})

    def __sub__(self, other: "VPoly") -> "VPoly":
        return self + (-other)

    def __mul__(self, other: "VPoly") -> "VPoly":
        if not self.c or not other.c:
            return _P_ZERO
        if len(self.c) > 1:
            if len(other.c) > 1:
                d = {}
                for e1, c1 in self.c.items():
                    for e2, c2 in other.c.items():
                        e = e1 + e2
                        s = d.get(e, 0) + c1 * c2
                        if s:
                            d[e] = s if type(s) is int else _coerce(s)
                        else:
                            del d[e]
                return VPoly._raw(d)
            self, other = other, self
        (e1, c1), = self.c.items()
        if c1 == 1:
            return other.shift(e1) if e1 else other
        return VPoly._raw({e1 + e: x if type(x := c1 * c) is int else _coerce(x) for e, c in other.c.items()})

    def shift(self, k: int) -> "VPoly":
        """Multiply by v^k (k >= -valuation)."""
        return VPoly._raw({e + k: c for e, c in self.c.items()})

    def divmod(self, other: "VPoly"):
        """(q, r) with self = q * other + r and deg r < deg other, by long
        division over a dense list of coefficients."""
        a, b = self.c, other.c
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        db, top = max(b), max(a, default=-1)
        lb = b[db]
        # Each step cancels the entry it reads, so the leading term of other
        # is left out, and only the entries below db form the remainder.
        low = [(e, y) for e, y in b.items() if e != db]
        rem = [0] * (top + 1)
        for e, x in a.items():
            rem[e] = x
        quo = {}
        for i in range(top - db, -1, -1):
            if x := rem[i + db]:
                if lb != 1 or type(x) is not int:
                    x = _div_coeff(x, lb)  # keeps integral values int; int / 1 is itself
                quo[i] = x
                for e, y in low:
                    rem[i + e] -= x * y
        return VPoly._raw(quo), VPoly._raw({e: _coerce(x) for e, x in enumerate(rem[:db]) if x})

    def gcd(self, other: "VPoly") -> "VPoly":
        """Monic gcd over Q by Euclid on monic remainders, whose fractions do
        not compound; gcd(0, p) = monic p."""
        a, b = self, other
        while b.c:
            a, b = b, a.divmod(b)[1]
            b = _scaled(b, b.leading_coeff() or 1)
        return _scaled(a, a.leading_coeff() or 1)

    def evaluate(self, q: Fraction) -> Fraction:
        return Fraction(sum(c * q**e for e, c in self.c.items()))

    def text(self) -> str:
        return _terms_text(self.c, 0) if self.c else "0"

    def __repr__(self):
        return f"VPoly('{self.text()}')"


def _terms_text(c: dict, shift: int) -> str:
    """Terms of exponent -> coefficient as text, each exponent lowered by
    shift, highest first."""
    parts = []
    for e in sorted(c, reverse=True):
        x = c[e]
        ee = e - shift
        sign = "-" if x < 0 else "+"
        mag = abs(x)
        if ee == 0:
            body = str(mag)
        else:
            var = "v" if ee == 1 else f"v^{ee}"
            body = var if mag == 1 else f"{mag}{var}"
        if not parts:
            parts.append(body if x > 0 else f"-{body}")
        else:
            parts.append(f" {sign} {body}")
    return "".join(parts)


def _scaled(p: VPoly, lc) -> VPoly:
    """p divided by the nonzero constant lc."""
    return p if lc == 1 else VPoly._raw({e: _div_coeff(c, lc) for e, c in p.c.items()})


_P_ZERO = VPoly._raw({})
_P_ONE = VPoly._raw({0: 1})


def _prime_factors(k: int) -> list:
    out, p = [], 2
    while p * p <= k:
        if k % p == 0:
            out.append(p)
            while k % p == 0:
                k //= p
        p += 1
    return out + [k] if k > 1 else out


@functools.cache
def _cyclotomic(k: int) -> VPoly:
    """Phi_k, from Phi_k(v) = Phi_q(v^p) if p^2 | k and Phi_q(v^p)/Phi_q(v)
    otherwise, where p is the largest prime dividing k = pq."""
    if k == 1:
        return VPoly._raw({1: 1, 0: -1})
    p = _prime_factors(k)[-1]
    raised = VPoly._raw({e * p: c for e, c in _cyclotomic(k // p).c.items()})
    return raised if k // p % p == 0 else _quotient(raised, k // p)


def _quotient(p: VPoly, k: int):
    """p / Phi_k if Phi_k divides p, else None; Phi_1 and Phi_2 are first
    tested by the sum and the alternating sum of the coefficients."""
    c = p.c
    if k == 1 and sum(c.values()) or k == 2 and sum(x if e % 2 == 0 else -x for e, x in c.items()):
        return None
    q, r = p.divmod(_cyclotomic(k))
    return None if r.c else q


def _cancel(n: VPoly, phi: tuple, ks=None) -> tuple:
    """(n', phi') with n'/phi' = n/phi, after dividing n by each Phi_k with
    k in ks (default: every k of phi) as often as phi allows."""
    if len(n.c) == 1 or not phi or ks == ():
        return n, phi
    left = dict(phi)
    for k in left if ks is None else ks:
        while left[k] and (q := _quotient(n, k)) is not None:
            n, left[k] = q, left[k] - 1
    return n, tuple((k, e) for k, e in left.items() if e)


@functools.cache
def _phi_product(phi: tuple) -> VPoly:
    """The product of Phi_k^e over the pairs (k, e) of phi."""
    return math.prod((_cyclotomic(k) for k, e in phi for _ in range(e)), start=_P_ONE)


def _k_limit(top: int) -> Fraction:
    """A bound on every k with phi(k) <= top.  If r primes divide k, then
    phi(k) >= (2 - 1)(3 - 1)...(p_r - 1) and k/phi(k) <= 2/1 * 3/2 * ...
    * p_r/(p_r - 1), over the first r primes p_1 = 2, 3, ..., p_r."""
    limit, rest, p = Fraction(top), top, 2
    while p - 1 <= rest:
        if _prime_factors(p) == [p]:
            rest, limit = rest // (p - 1), limit * p / (p - 1)
        p += 1
    return limit


def _phi_exponents(d: VPoly):
    """The sorted pairs (k, e) with d = prod Phi_k^e, or None when d (monic,
    prime to v) is no such product.  Such a product has integer
    coefficients, constant term +-1, and is its own reverse up to that sign;
    only the Phi_k with phi(k) at most the degree still left are tried."""
    c = d.c
    top, sign = max(c), c[0]
    if abs(sign) != 1 or any(type(x) is not int or c.get(top - e) != sign * x for e, x in c.items()):
        return None
    phi, k, limit = [], 0, _k_limit(top)
    while top:
        k += 1
        if k > limit:
            return None
        ps = _prime_factors(k)
        if k // math.prod(ps) * math.prod(p - 1 for p in ps) > top:
            continue
        e = 0
        while (q := _quotient(d, k)) is not None:
            d, e = q, e + 1
        if e:
            phi.append((k, e))
            limit = _k_limit(top := max(d.c))
    return tuple(phi)


@functools.cache
def _phi_pair(a: tuple, b: tuple) -> tuple:
    """For the denominators a and b: the pairs of their product and of their
    lcm, the factor each side is missing from the lcm, and the k with one
    exponent on both sides, the only Phi_k that can divide a sum over the lcm."""
    ca, cb = Counter(dict(a)), Counter(dict(b))
    lcm = ca | cb
    return (
        tuple(sorted((ca + cb).items())), tuple(sorted(lcm.items())),
        _phi_product(tuple(sorted((lcm - ca).items()))), _phi_product(tuple(sorted((lcm - cb).items()))),
        tuple(k for k, e in a if cb[k] == e),
    )


# A JSON coefficient over a denominator of more than one term is reduced by a
# gcd and factored over the Phi_k, at a cost steep in its degree (0.5 s for
# two dense sides of degree 128, 4 s at 256; 2-core box, Python 3.11), so
# each of its sides may span at most this many degrees.
JSON_MAX_SPAN = 128


class VFunc:
    """A rational function v^s * n/d in the canonical form of the module
    docstring; .num and .den give it as one reduced fraction.

    >>> x = VFunc.v_power(1) + VFunc.v_power(-1)
    >>> x.s, x.n.text(), x.d.text()
    (-1, 'v^2 + 1', '1')
    >>> x.text(), x.den.text()
    ('v + v^-1', 'v')
    >>> y = x.inv()
    >>> y.phi, y.d.text(), y.text()
    (((4, 1),), 'v^2 + 1', '(v)/(v^2 + 1)')
    """

    __slots__ = ("s", "n", "phi")

    def __init__(self, num: VPoly, den: VPoly):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            self.s, self.n, self.phi = 0, _P_ZERO, ()
            return
        vn, vd = num.valuation(), den.valuation()
        n, d = num.shift(-vn), den.shift(-vd)
        if len(n.c) > 1 and len(d.c) > 1:
            # A one-term side is a constant and shares no factor.
            g = n.gcd(d)
            n, d = n.divmod(g)[0], d.divmod(g)[0]
        lc = d.leading_coeff()
        n, d = _scaled(n, lc), _scaled(d, lc)
        phi = _phi_exponents(d)
        self.s, self.n, self.phi = vn - vd, n, d if phi is None else phi

    @classmethod
    def _raw(cls, s: int, n: VPoly, phi) -> "VFunc":
        # Trusted constructor: (s, n, phi) already canonical.
        f = object.__new__(cls)
        f.s, f.n, f.phi = s, n, phi
        return f

    @property
    def d(self) -> VPoly:
        phi = self.phi
        return _phi_product(phi) if type(phi) is tuple else phi

    @property
    def num(self) -> VPoly:
        return self.n.shift(self.s) if self.s > 0 else self.n

    @property
    def den(self) -> VPoly:
        return self.d.shift(-self.s) if self.s < 0 else self.d

    @classmethod
    def from_int(cls, k) -> "VFunc":
        c = _coerce(k)
        if not c:
            return ZERO
        return cls._raw(0, VPoly._raw({0: c}), ())

    @staticmethod
    @functools.cache
    def v_power(e: int) -> "VFunc":
        """The Laurent monomial v^e (e may be negative)."""
        return VFunc._raw(e, _P_ONE, ())

    @classmethod
    def laurent(cls, coeffs: dict) -> "VFunc":
        """Build a Laurent polynomial from exponent -> coefficient."""
        lo = min(coeffs, default=0)
        p = VPoly({e - lo: c for e, c in coeffs.items()})
        if p.is_zero():
            return ZERO
        k = p.valuation()
        return cls._raw(lo + k, p.shift(-k), ())

    def is_zero(self) -> bool:
        return not self.n.c

    def __bool__(self) -> bool:
        return bool(self.n.c)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, VFunc):
            return NotImplemented
        return self.s == other.s and self.n.c == other.n.c and self.phi == other.phi

    def __add__(self, other: "VFunc") -> "VFunc":
        a, b = self.phi, other.phi
        if type(a) is not tuple or type(b) is not tuple:
            return VFunc(self.num * other.den + other.num * self.den, self.den * other.den)
        s = min(self.s, other.s)
        n1 = self.n.shift(self.s - s) if self.s != s else self.n
        n2 = other.n.shift(other.s - s) if other.s != s else other.n
        if a == b:
            t, phi, ks = n1 + n2, a, None
        else:
            _, phi, miss1, miss2, ks = _phi_pair(a, b)
            t = n1 * miss1 + n2 * miss2
        if not t.c:
            return ZERO
        k = t.valuation()
        if k:
            t = t.shift(-k)
        return VFunc._raw(s + k, *_cancel(t, phi, ks))

    def __neg__(self) -> "VFunc":
        return VFunc._raw(self.s, -self.n, self.phi)

    def __sub__(self, other: "VFunc") -> "VFunc":
        return self + (-other)

    def __mul__(self, other: "VFunc") -> "VFunc":
        if not self.n.c or not other.n.c:
            return ZERO
        a, b = self.phi, other.phi
        # A factor +-v^k only shifts s; its n, prime to v, is the constant +-1.
        if a == () and len(self.n.c) == 1 and self.n.c[0] in (1, -1):
            return VFunc._raw(self.s + other.s, other.n if self.n.c[0] == 1 else -other.n, b)
        if b == () and len(other.n.c) == 1 and other.n.c[0] in (1, -1):
            return VFunc._raw(self.s + other.s, self.n if other.n.c[0] == 1 else -self.n, a)
        if type(a) is not tuple or type(b) is not tuple:
            return VFunc(self.num * other.num, self.den * other.den)
        # Cross-cancel before multiplying out; then no factor is shared.
        n1, b = _cancel(self.n, b) if b else (self.n, b)
        n2, a = _cancel(other.n, a) if a else (other.n, a)
        return VFunc._raw(self.s + other.s, n1 * n2, _phi_pair(a, b)[0] if a and b else a or b)

    def inv(self) -> "VFunc":
        if not self.n.c:
            raise ZeroDivisionError("inverse of the zero rational function")
        return VFunc(self.den, self.num)

    def __truediv__(self, other: "VFunc") -> "VFunc":
        return self * other.inv()

    def as_unit_monomial(self):
        """If self = +-v^c, return (+-1, c); else None."""
        if self.phi == () and self.n.c in ({0: 1}, {0: -1}):
            return (int(self.n.c[0]), self.s)
        return None

    def evaluate(self, q) -> Fraction:
        """Exact value at v = q; raises PoleError at a root of d, and at
        v = 0 when s < 0."""
        q = _coerce(q)
        d = self.d.evaluate(q)
        if not d or (not q and self.s < 0):
            raise PoleError(f"pole at v = {q}")
        return Fraction(q) ** self.s * self.n.evaluate(q) / d

    def text(self) -> str:
        if self.phi == ():
            # A Laurent polynomial: v^s n term by term.
            return _terms_text(self.n.c, -self.s) if self.n.c else "0"
        return f"({self.num.text()})/({self.den.text()})"

    def __repr__(self):
        return f"VFunc('{self.text()}')"

    def to_json(self) -> dict:
        def side(p: VPoly) -> dict:
            return {str(e): str(p.c[e]) for e in sorted(p.c, reverse=True)}

        return {"num": side(self.num), "den": side(self.den)}

    @classmethod
    def from_json(cls, obj: dict) -> "VFunc":
        """A coefficient {"num": {...}, "den": {...}} whose polynomial
        coefficients are strings or integers.  Floats and booleans are
        rejected, not converted: Fraction(0.1) would read the binary value of
        0.1.  So are two keys naming one exponent, such as "0" and "+0",
        which would overwrite each other, and, when the denominator has more
        than one term, a side spanning more than JSON_MAX_SPAN degrees."""
        sides = []
        for side in (obj["num"], obj["den"]):
            if not isinstance(side, dict) or any(isinstance(c, (float, bool)) for c in side.values()):
                raise ValueError(f"coefficient must map exponents to strings or integers, got {side!r}")
            c = {int(e): Fraction(x) for e, x in side.items()}
            if len(c) != len(side):
                raise ValueError(f"coefficient names one exponent twice, got {side!r}")
            sides.append(VPoly(c))
        span = max((max(p.c) - min(p.c) for p in sides if p.c), default=0)
        if len(sides[1].c) > 1 and span > JSON_MAX_SPAN:
            raise ValueError(f"coefficient spans {span} degrees; above {JSON_MAX_SPAN} its denominator must be v^k")
        return cls(*sides)


ZERO = VFunc._raw(0, _P_ZERO, ())
ONE = VFunc._raw(0, _P_ONE, ())


@functools.cache
def quantum_integer(i: int) -> VFunc:
    """[i] = (v^i - v^-i)/(v - v^-1) = v^(i-1) + v^(i-3) + ... + v^(1-i).

    >>> quantum_integer(2).text()
    'v + v^-1'
    """
    if i < 0:
        raise ValueError("quantum integer of a negative argument")
    return VFunc.laurent({i - 1 - 2 * k: 1 for k in range(i)})


@functools.cache
def quantum_factorial(a: int) -> VFunc:
    """[a]! = [1][2]...[a] with [0]! = 1."""
    if a < 0:
        raise ValueError("quantum factorial of a negative argument")
    return math.prod(map(quantum_integer, range(2, a + 1)), start=ONE)


@functools.cache
def v_sub(h: int, e: int, m: int) -> VFunc:
    """v_h^e where v_h = v for h <= m and v^-1 for h > m (1-based h)."""
    if h < 1:
        raise IndexError("generator subscript must be >= 1")
    return VFunc.v_power(-e if h > m else e)


@functools.cache
def quantum_factorial_inv(a: int) -> VFunc:
    """1/[a]!."""
    return quantum_factorial(a).inv()


@functools.cache
def v_gap_inv(h: int, m: int) -> VFunc:
    """1/(v_h - v_h^{-1})."""
    return (v_sub(h, 1, m) - v_sub(h, -1, m)).inv()
