"""Exact arithmetic in Q(v): sparse polynomials in v over the rationals,
reduced rational functions, and the quantum combinatorics [i], [a]!, v_h.

Everything is immutable after construction and kept in a canonical form.
A VFunc stores v^s * n/d: an integer s and n, d in Q[v], both prime to v
and to each other, d monic; zero is stored as (0, 0, 1).  The action only
divides by v_h - v_h^-1 = (v^2 - 1)/v and by [a]!, so the powers of v that
every coefficient carries stay in s and never enter a polynomial gcd.  The
properties .num and .den give the same value as one reduced fraction with
monic denominator; text and JSON print from them.

The constructor runs a full polynomial gcd.  Arithmetic on canonical
operands skips it by two rules, both applied in _reduce:
- a one-term n or d is a constant, so it shares no factor with anything
  (and two equal polynomials are their own gcd);
- a product cross-reduces n1 against d2 and n2 against d1, and a sum
  reduces only by gcd(t, g) with g = gcd(d1, d2), t = n1 d2/g + n2 d1/g
  (Henrici's addition).
"""

from __future__ import annotations

import functools
import math
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

    def degree(self) -> int:
        """Max exponent; -1 for the zero polynomial."""
        return max(self.c) if self.c else -1

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
                d[e] = s
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
        if len(self.c) == 1:
            (e1, c1), = self.c.items()
            if c1 == 1:
                return other.shift(e1) if e1 else other
            return VPoly._raw({e1 + e: c1 * c for e, c in other.c.items()})
        if len(other.c) == 1:
            (e2, c2), = other.c.items()
            if c2 == 1:
                return self.shift(e2) if e2 else self
            return VPoly._raw({e2 + e: c2 * c for e, c in self.c.items()})
        d = {}
        for e1, c1 in self.c.items():
            for e2, c2 in other.c.items():
                e = e1 + e2
                s = d.get(e, 0) + c1 * c2
                if s:
                    d[e] = s
                else:
                    del d[e]
        return VPoly._raw(d)

    def shift(self, k: int) -> "VPoly":
        """Multiply by v^k (k >= -valuation)."""
        return VPoly._raw({e + k: c for e, c in self.c.items()})

    def divmod(self, other: "VPoly"):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero():
            return _P_ZERO, _P_ZERO
        db = other.degree()
        lb = other.c[db]
        rem = dict(self.c)
        quo = {}
        dr = max(rem)
        while rem and dr >= db:
            k = _div_coeff(rem[dr], lb)
            quo[dr - db] = k
            for e, c in other.c.items():
                ee = e + dr - db
                s = rem.get(ee, 0) - k * c
                if s:
                    rem[ee] = s
                else:
                    rem.pop(ee, None)
            dr = max(rem) if rem else -1
        return VPoly._raw(quo), VPoly._raw(rem)

    def div_exact(self, other: "VPoly") -> "VPoly":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError("inexact polynomial division")
        return q

    def monic(self) -> "VPoly":
        lc = self.leading_coeff()
        if lc in (0, 1):
            return self
        return VPoly._raw({e: _div_coeff(c, lc) for e, c in self.c.items()})

    def gcd(self, other: "VPoly") -> "VPoly":
        """Monic gcd over Q by Euclid; gcd(0, p) = monic p."""
        a, b = self, other
        while b.c:
            a, b = b, a.divmod(b)[1]
        return a.monic()

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


_P_ZERO = VPoly._raw({})
_P_ONE = VPoly._raw({0: 1})


def _monic_pair(num: VPoly, den: VPoly):
    """(num, den) divided by the leading coefficient of den."""
    lc = den.leading_coeff()
    if lc == 1:
        return num, den
    return tuple(VPoly._raw({e: _div_coeff(c, lc) for e, c in p.c.items()}) for p in (num, den))


def _reduce(a: VPoly, b: VPoly):
    """(a/g, b/g, g) for g = gcd(a, b), where a and b are prime to v.  A
    one-term side is then a constant and shares no factor, and equal sides
    are their own gcd, so neither runs Euclid."""
    if len(a.c) > 1 and len(b.c) > 1:
        if a.c == b.c:
            return _P_ONE, _P_ONE, a
        g = a.gcd(b)
        if g.c != _P_ONE.c:
            return a.div_exact(g), b.div_exact(g), g
    return a, b, _P_ONE


class VFunc:
    """A rational function v^s * n/d in the canonical form of the module
    docstring; .num and .den give it as one reduced fraction.

    >>> x = VFunc.v_power(1) + VFunc.v_power(-1)
    >>> x.s, x.n.text(), x.d.text()
    (-1, 'v^2 + 1', '1')
    >>> x.text(), x.den.text()
    ('v + v^-1', 'v')
    """

    __slots__ = ("s", "n", "d")

    def __init__(self, num: VPoly, den: VPoly):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            self.s, self.n, self.d = 0, _P_ZERO, _P_ONE
            return
        vn, vd = num.valuation(), den.valuation()
        n, d, _ = _reduce(num.shift(-vn), den.shift(-vd))
        self.s = vn - vd
        self.n, self.d = _monic_pair(n, d)

    @classmethod
    def _raw(cls, s: int, n: VPoly, d: VPoly) -> "VFunc":
        # Trusted constructor: (s, n, d) already canonical.
        f = object.__new__(cls)
        f.s = s
        f.n = n
        f.d = d
        return f

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
        return cls._raw(0, VPoly._raw({0: c}), _P_ONE)

    @staticmethod
    @functools.cache
    def v_power(e: int) -> "VFunc":
        """The Laurent monomial v^e (e may be negative)."""
        return VFunc._raw(e, _P_ONE, _P_ONE)

    @classmethod
    def laurent(cls, coeffs: dict) -> "VFunc":
        """Build a Laurent polynomial from exponent -> coefficient."""
        lo = min(coeffs, default=0)
        p = VPoly({e - lo: c for e, c in coeffs.items()})
        if p.is_zero():
            return ZERO
        k = p.valuation()
        return cls._raw(lo + k, p.shift(-k), _P_ONE)

    def is_zero(self) -> bool:
        return not self.n.c

    def __bool__(self) -> bool:
        return bool(self.n.c)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, VFunc):
            return NotImplemented
        return self.s == other.s and self.n.c == other.n.c and self.d.c == other.d.c

    def __add__(self, other: "VFunc") -> "VFunc":
        # Henrici: t = n1 (d2/g) + n2 (d1/g), g = gcd(d1, d2), is prime to d1/g
        # and d2/g, so only gcd(t, g) can cancel.  A factor v^k of t moves to s.
        s = min(self.s, other.s)
        n1 = self.n.shift(self.s - s) if self.s != s else self.n
        n2 = other.n.shift(other.s - s) if other.s != s else other.n
        e1, e2, g = _reduce(self.d, other.d)
        t = n1 * e2 + n2 * e1
        if not t.c:
            return ZERO
        k = t.valuation()
        if k:
            t = t.shift(-k)
        t, g, _ = _reduce(t, g)
        return VFunc._raw(s + k, t, e1 * e2 * g)

    def __neg__(self) -> "VFunc":
        if not self.n.c:
            return self
        return VFunc._raw(self.s, -self.n, self.d)

    def __sub__(self, other: "VFunc") -> "VFunc":
        return self + (-other)

    def __mul__(self, other: "VFunc") -> "VFunc":
        if not self.n.c or not other.n.c:
            return ZERO
        # Cross-reduce before multiplying out; then no factor is shared.
        n1, d2, _ = _reduce(self.n, other.d)
        n2, d1, _ = _reduce(other.n, self.d)
        return VFunc._raw(self.s + other.s, n1 * n2, d1 * d2)

    def inv(self) -> "VFunc":
        if not self.n.c:
            raise ZeroDivisionError("inverse of the zero rational function")
        return VFunc._raw(-self.s, *_monic_pair(self.d, self.n))

    def __truediv__(self, other: "VFunc") -> "VFunc":
        return self * other.inv()

    def as_unit_monomial(self):
        """If self = +-v^c, return (+-1, c); else None."""
        if len(self.d.c) == 1 and self.n.c in ({0: 1}, {0: -1}):
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
        if self.d.c == _P_ONE.c:
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
        which would overwrite each other."""
        sides = []
        for side in (obj["num"], obj["den"]):
            if not isinstance(side, dict) or any(isinstance(c, (float, bool)) for c in side.values()):
                raise ValueError(f"coefficient must map exponents to strings or integers, got {side!r}")
            c = {int(e): Fraction(x) for e, x in side.items()}
            if len(c) != len(side):
                raise ValueError(f"coefficient names one exponent twice, got {side!r}")
            sides.append(VPoly(c))
        return cls(*sides)


ZERO = VFunc._raw(0, _P_ZERO, _P_ONE)
ONE = VFunc._raw(0, _P_ONE, _P_ONE)


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
def v_gap(h: int, m: int) -> VFunc:
    """v_h - v_h^{-1}."""
    return v_sub(h, 1, m) - v_sub(h, -1, m)
