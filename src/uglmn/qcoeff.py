"""Exact arithmetic in Q(v): sparse polynomials in v over the rationals,
reduced rational functions, and the quantum combinatorics [i], [a]!, v_h.

Everything is immutable after construction and kept in a canonical form:
a VFunc stores a gcd-reduced fraction num/den with monic denominator, and
zero is always 0/1.  Laurent monomials v^-k live as 1/v^k.

The constructor runs a full polynomial gcd; arithmetic on canonical operands
skips it wherever the reduced form already says the gcd is 1:
- a product with a monomial a v^t can only cancel powers of v;
- after cross-reduction, n1 n2 and d1 d2 share no factor;
- the inverse den/num is already reduced;
- a sum with g = gcd(d1, d2) can only cancel gcd(t, g), t = n1 d2/g + n2 d1/g.
"""

from __future__ import annotations

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

    def is_monomial(self) -> bool:
        return len(self.c) == 1

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
        """Monic gcd over Q; gcd(0, p) = monic p."""
        a, b = self, other
        # Monomials divide exactly by their v-valuation.
        if a.is_monomial() or b.is_monomial():
            if a.is_zero():
                return b.monic()
            if b.is_zero():
                return a.monic()
            k = min(a.valuation(), b.valuation())
            return VPoly._raw({k: 1})
        while not b.is_zero():
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


class VFunc:
    """A rational function in v over Q, always in canonical reduced form:
    gcd(num, den) = 1, den monic and nonzero, zero stored as 0/1.

    >>> (VFunc.v_power(1) + VFunc.v_power(-1)).text()
    'v + v^-1'
    >>> (VFunc.v_power(1) * VFunc.v_power(-1)).text()
    '1'
    """

    __slots__ = ("num", "den")

    def __init__(self, num: VPoly, den: VPoly):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            self.num = _P_ZERO
            self.den = _P_ONE
            return
        g = num.gcd(den)
        if g.c != _P_ONE.c:
            num = num.div_exact(g)
            den = den.div_exact(g)
        self.num, self.den = _monic_pair(num, den)

    @classmethod
    def _raw(cls, num: VPoly, den: VPoly) -> "VFunc":
        # Trusted constructor: (num, den) already canonical.
        f = object.__new__(cls)
        f.num = num
        f.den = den
        return f

    @classmethod
    def _coprime(cls, num: VPoly, den: VPoly) -> "VFunc":
        # Trusted constructor: num nonzero, gcd(num, den) = 1; den made monic.
        return cls._raw(*_monic_pair(num, den))

    @classmethod
    def from_int(cls, k) -> "VFunc":
        c = _coerce(k)
        if not c:
            return ZERO
        return cls._raw(VPoly._raw({0: c}), _P_ONE)

    @classmethod
    def v_power(cls, e: int) -> "VFunc":
        """The Laurent monomial v^e (e may be negative)."""
        f = _POWERS.get(e)
        if f is None:
            if e >= 0:
                f = cls._raw(VPoly._raw({e: 1}), _P_ONE)
            else:
                f = cls._raw(_P_ONE, VPoly._raw({-e: 1}))
            _POWERS[e] = f
        return f

    @classmethod
    def laurent(cls, coeffs: dict) -> "VFunc":
        """Build a Laurent polynomial from exponent -> coefficient."""
        if not coeffs:
            return ZERO
        shift = min(coeffs)
        if shift >= 0:
            return cls(VPoly(coeffs), _P_ONE)
        num = VPoly({e - shift: c for e, c in coeffs.items()})
        return cls(num, VPoly._raw({-shift: 1}))

    def is_zero(self) -> bool:
        return not self.num.c

    def __bool__(self) -> bool:
        return bool(self.num.c)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, VFunc):
            return NotImplemented
        return self.num.c == other.num.c and self.den.c == other.den.c

    def __add__(self, other: "VFunc") -> "VFunc":
        d1, d2 = self.den.c, other.den.c
        if len(d1) == 1 and len(d2) == 1:
            (k1, c1), = d1.items()
            (k2, c2), = d2.items()
            if c1 == 1 and c2 == 1:
                # Laurent denominators v^k: align and strip the common power.
                kk = max(k1, k2)
                s = self.num.shift(kk - k1) + other.num.shift(kk - k2)
                if not s.c:
                    return ZERO
                drop = min(kk, s.valuation())
                if drop:
                    s = s.shift(-drop)
                    kk -= drop
                return VFunc._raw(s, VPoly._raw({kk: 1}) if kk else _P_ONE)
        if d1 == d2:
            return VFunc(self.num + other.num, self.den)
        # Henrici: t = n1 (d2/g) + n2 (d1/g), g = gcd(d1, d2), is prime to d1/g
        # and d2/g, so only gcd(t, g) can cancel; t != 0 (x + y = 0 forces d1 = d2).
        g = self.den.gcd(other.den)
        if g.c == _P_ONE.c:
            t = self.num * other.den + other.num * self.den
            return VFunc._coprime(t, self.den * other.den)
        dd1 = self.den.div_exact(g)
        t = self.num * other.den.div_exact(g) + other.num * dd1
        g = t.gcd(g)
        if g.c == _P_ONE.c:
            return VFunc._coprime(t, dd1 * other.den)
        return VFunc._coprime(t.div_exact(g), dd1 * other.den.div_exact(g))

    def __neg__(self) -> "VFunc":
        if not self.num.c:
            return self
        return VFunc._raw(-self.num, self.den)

    def __sub__(self, other: "VFunc") -> "VFunc":
        return self + (-other)

    def __mul__(self, other: "VFunc") -> "VFunc":
        n1, n2 = self.num.c, other.num.c
        if not n1 or not n2:
            return ZERO
        d1, d2 = self.den.c, other.den.c
        if len(d1) == 1 and len(d2) == 1:
            (k1, c1), = d1.items()
            (k2, c2), = d2.items()
            if c1 == 1 and c2 == 1:
                if len(n1) == 1 and len(n2) == 1:
                    (e1, a1), = n1.items()
                    (e2, a2), = n2.items()
                    if a1 == 1 and a2 == 1:
                        return VFunc.v_power(e1 - k1 + e2 - k2)
                # Laurent denominators v^k: multiply and strip v factors.
                num = self.num * other.num
                kk = k1 + k2
                drop = min(kk, num.valuation())
                if drop:
                    num = num.shift(-drop)
                    kk -= drop
                return VFunc._raw(num, VPoly._raw({kk: 1}) if kk else _P_ONE)
        # A monomial a v^t shares only v factors with the other operand.
        if len(n2) == 1 and len(d2) == 1:
            return self._times_monomial(other)
        if len(n1) == 1 and len(d1) == 1:
            return other._times_monomial(self)
        # Cross-reduce before multiplying out; then no factor is shared.
        g1 = self.num.gcd(other.den)
        g2 = other.num.gcd(self.den)
        n1 = self.num if g1.c == _P_ONE.c else self.num.div_exact(g1)
        dd2 = other.den if g1.c == _P_ONE.c else other.den.div_exact(g1)
        n2 = other.num if g2.c == _P_ONE.c else other.num.div_exact(g2)
        dd1 = self.den if g2.c == _P_ONE.c else self.den.div_exact(g2)
        return VFunc._coprime(n1 * n2, dd1 * dd2)

    def _times_monomial(self, mono: "VFunc") -> "VFunc":
        # self * a v^e/v^k, both nonzero.  With self = v^(vn - vd) n0/d0 and
        # n0, d0 prime to v, the product is a v^s n0/d0: no gcd needed.
        (e, a), = mono.num.c.items()
        (k, _), = mono.den.c.items()
        vn, vd = self.num.valuation(), self.den.valuation()
        s = e - k + vn - vd
        sn, sd = max(s, 0) - vn, max(-s, 0) - vd
        num = self.num
        if sn or a != 1:
            num = VPoly._raw({x + sn: a * c for x, c in num.c.items()})
        return VFunc._raw(num, self.den.shift(sd) if sd else self.den)

    def inv(self) -> "VFunc":
        if not self.num.c:
            raise ZeroDivisionError("inverse of the zero rational function")
        return VFunc._coprime(self.den, self.num)

    def __truediv__(self, other: "VFunc") -> "VFunc":
        return self * other.inv()

    def as_unit_monomial(self):
        """If self = s * v^c with s in {1, -1}, return (s, c); else None."""
        if len(self.num.c) != 1 or len(self.den.c) != 1:
            return None
        en, cn = next(iter(self.num.c.items()))
        ed, cd = next(iter(self.den.c.items()))
        r = cn / cd
        if r == 1:
            return (1, en - ed)
        if r == -1:
            return (-1, en - ed)
        return None

    def evaluate(self, q) -> Fraction:
        """Exact value at v = q; raises PoleError at a denominator root."""
        q = _coerce(q)
        d = self.den.evaluate(q)
        if not d:
            raise PoleError(f"pole at v = {q}")
        return self.num.evaluate(q) / d

    def text(self) -> str:
        if not self.num.c:
            return "0"
        if self.den.c == _P_ONE.c:
            return self.num.text()
        if self.den.is_monomial():
            # Laurent polynomial: print with shifted exponents.
            return _terms_text(self.num.c, self.den.valuation())
        return f"({self.num.text()})/({self.den.text()})"

    def __repr__(self):
        return f"VFunc('{self.text()}')"

    def to_json(self) -> dict:
        def side(p: VPoly) -> dict:
            return {str(e): str(p.c[e]) for e in sorted(p.c, reverse=True)}

        return {"num": side(self.num), "den": side(self.den)}

    @classmethod
    def from_json(cls, obj: dict) -> "VFunc":
        num = VPoly({int(e): Fraction(c) for e, c in obj["num"].items()})
        den = VPoly({int(e): Fraction(c) for e, c in obj["den"].items()})
        return cls(num, den)


ZERO = VFunc._raw(_P_ZERO, _P_ONE)
ONE = VFunc._raw(_P_ONE, _P_ONE)
_POWERS: dict = {0: ONE}

_QINT: dict = {}
_QFACT: dict = {0: ONE}


def quantum_integer(i: int) -> VFunc:
    """[i] = (v^i - v^-i)/(v - v^-1) = v^(i-1) + v^(i-3) + ... + v^(1-i).

    >>> quantum_integer(2).text()
    'v + v^-1'
    """
    f = _QINT.get(i)
    if f is None:
        if i < 0:
            raise ValueError("quantum integer of a negative argument")
        f = VFunc.laurent({i - 1 - 2 * k: 1 for k in range(i)})
        _QINT[i] = f
    return f


def quantum_factorial(a: int) -> VFunc:
    """[a]! = [1][2]...[a] with [0]! = 1."""
    f = _QFACT.get(a)
    if f is None:
        if a < 0:
            raise ValueError("quantum factorial of a negative argument")
        # _QFACT holds 0..top without gaps; fill it upward to a.
        top = max(_QFACT)
        f = _QFACT[top]
        for i in range(top + 1, a + 1):
            f = f * quantum_integer(i)
            _QFACT[i] = f
    return f


def v_sub(h: int, e: int, m: int) -> VFunc:
    """v_h^e where v_h = v for h <= m and v^-1 for h > m (1-based h)."""
    if h < 1:
        raise IndexError("generator subscript must be >= 1")
    if h > m:
        e = -e
    # The power cache is read here directly: every action weight passes here.
    f = _POWERS.get(e)
    return VFunc.v_power(e) if f is None else f


def v_gap(h: int, m: int) -> VFunc:
    """v_h - v_h^{-1}."""
    return v_sub(h, 1, m) - v_sub(h, -1, m)
