"""Exact coefficient arithmetic: canonical forms, quantum integers, evaluation."""

import inspect
import random
import sys
from fractions import Fraction

import pytest

from uglmn.qcoeff import (
    ONE,
    ZERO,
    PoleError,
    VFunc,
    VPoly,
    _QFACT,
    quantum_factorial,
    quantum_integer,
    v_sub,
)


def v(e: int) -> VFunc:
    return VFunc.v_power(e)


def test_add_common_denominator():
    # v + 1/v = (v^2+1)/v
    s = v(1) + v(-1)
    assert s == VFunc(VPoly({2: 1, 0: 1}), VPoly({1: 1}))
    assert s.text() == "v + v^-1"


def test_mul_inverse_pair():
    assert v(1) * v(-1) == ONE
    assert (v(3) * v(-3)).text() == "1"


def test_eq_after_cancellation():
    # (v^2-1)/(v-1) == v+1
    f = VFunc(VPoly({2: 1, 0: -1}), VPoly({1: 1, 0: -1}))
    g = VFunc(VPoly({1: 1, 0: 1}), VPoly({0: 1}))
    assert f == g


def test_inv_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        ZERO.inv()


def test_quantum_integer_basics():
    assert quantum_integer(0) == ZERO
    assert quantum_integer(1) == ONE
    assert quantum_integer(2) == v(1) + v(-1)
    with pytest.raises(ValueError):
        quantum_integer(-1)


def test_quantum_integer_three_term_identity():
    # [a] + [a+2] - (v + v^-1)[a+1] = 0
    two = v(1) + v(-1)
    for a in range(0, 8):
        lhs = quantum_integer(a) + quantum_integer(a + 2) - two * quantum_integer(a + 1)
        assert lhs == ZERO


def test_quantum_factorial_values():
    assert quantum_factorial(0) == ONE
    assert quantum_factorial(2) == v(1) + v(-1)
    # [3]! = [2][3] = (v + v^-1)(v^2 + 1 + v^-2), expanded by hand:
    # v^3 + 2v + 2v^-1 + v^-3
    assert quantum_factorial(3) == VFunc.laurent({3: 1, 1: 2, -1: 2, -3: 1})


def test_pascal_type_recursion():
    # [a+1] = v*[a] + v^-a
    for a in range(0, 21):
        assert quantum_integer(a + 1) == v(1) * quantum_integer(a) + v(-a)


def test_v_sub():
    assert v_sub(1, 3, 2) == v(3)
    assert v_sub(3, 3, 2) == v(-3)
    for m in (1, 2, 3):
        assert v_sub(m, 1, m) == v(1)
        assert v_sub(m + 1, 1, m) == v(-1)
    with pytest.raises(IndexError):
        v_sub(0, 1, 2)


def test_evaluate():
    assert quantum_integer(2).evaluate(3) == Fraction(10, 3)
    assert v(1).evaluate(1) == 1
    with pytest.raises(PoleError):
        (v(1) - v(-1)).inv().evaluate(1)


def test_quantum_integer_at_one():
    # The canonical form of [i] has denominator v^(i-1), so v = 1 is not a pole.
    for i in range(0, 12):
        assert quantum_integer(i).evaluate(1) == i


def _random_vfunc(rng: random.Random) -> VFunc:
    num = VPoly({rng.randrange(0, 5): Fraction(rng.randint(-4, 4)) for _ in range(rng.randrange(1, 4))})
    den = VPoly({rng.randrange(0, 3): Fraction(rng.randint(-3, 3)) for _ in range(rng.randrange(1, 3))})
    if den.is_zero():
        den = VPoly({1: 1})
    return VFunc(num, den)


def test_ring_axioms_random():
    rng = random.Random(20260810)
    for _ in range(200):
        a, b, c = (_random_vfunc(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + ZERO == a
        assert a * ONE == a
        assert a - a == ZERO
        if not a.is_zero():
            assert a * a.inv() == ONE


def test_canonical_form_uniqueness():
    rng = random.Random(7)
    for _ in range(100):
        a, b = _random_vfunc(rng), _random_vfunc(rng)
        if b.is_zero():
            continue
        # Two construction orders of a/b.
        lhs = a / b
        rhs = VFunc(a.num * b.den, a.den * b.num)
        assert lhs == rhs
        assert lhs.num.c == rhs.num.c and lhs.den.c == rhs.den.c
        assert lhs.den.leading_coeff() in (0, 1)


def test_negative_power_representation():
    f = v(-3)
    assert f.num == VPoly({0: 1})
    assert f.den == VPoly({3: 1})


def test_as_unit_monomial():
    assert v(4).as_unit_monomial() == (1, 4)
    assert (-v(-2)).as_unit_monomial() == (-1, -2)
    assert (v(1) + ONE).as_unit_monomial() is None
    assert (VFunc.from_int(2) * v(1)).as_unit_monomial() is None


def test_text_forms():
    assert quantum_integer(3).text() == "v^2 + 1 + v^-2"
    f = VFunc(VPoly({2: 1, 0: 1}), VPoly({3: 1, 1: -1}))
    assert f.text() == "(v^2 + 1)/(v^3 - v)"
    assert (VFunc.from_int(Fraction(1, 2)) * v(2)).text() == "1/2v^2"


def test_json_round_trip():
    f = v(1) + v(-1)
    obj = f.to_json()
    assert obj == {"num": {"2": "1", "0": "1"}, "den": {"1": "1"}}
    assert VFunc.from_json(obj) == f
    rng = random.Random(99)
    for _ in range(50):
        g = _random_vfunc(rng)
        assert VFunc.from_json(g.to_json()) == g


def test_quantum_factorial_is_iterative():
    # Empty the cache so [60]! is built from [0]! within a small stack.
    saved = dict(_QFACT)
    _QFACT.clear()
    _QFACT[0] = ONE
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 30)
    try:
        f60 = quantum_factorial(60)
    finally:
        sys.setrecursionlimit(limit)
        _QFACT.clear()
        _QFACT.update(saved)
    assert f60 == quantum_integer(60) * quantum_factorial(59)


# Denominators built from shared factors, so that products and sums of
# canonical fractions meet every cancellation the fast paths must get right.
_FACTORS = [
    VPoly({1: 1}),
    VPoly({2: 1, 0: -1}),
    VPoly({2: 1, 0: 1}),
    VPoly({4: 1, 2: 1, 0: 1}),
    VPoly({1: 1, 0: -1}),
]
_SCALARS = [1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)]


def _product(factors) -> VPoly:
    out = VPoly({0: 1})
    for f in factors:
        out = out * f
    return out


def _factored(rng: random.Random) -> VPoly:
    factors = [rng.choice(_FACTORS) for _ in range(rng.randrange(0, 4))]
    return VPoly({0: rng.choice(_SCALARS)}) * _product(factors)


def _shared_factor_vfunc(rng: random.Random) -> VFunc:
    r = rng.random()
    if r < 0.05:
        return ZERO
    if r < 0.35:
        num = VPoly({rng.randrange(0, 4): rng.choice(_SCALARS)})
    elif r < 0.7:
        num = _factored(rng)
    else:
        num = _random_vfunc(rng).num
    den = VPoly({rng.randrange(0, 3): rng.choice(_SCALARS)}) if rng.random() < 0.3 else _factored(rng)
    return VFunc(num, den)


def _assert_canonical(f: VFunc) -> None:
    if f.num.is_zero():
        assert f.den.c == {0: 1}
    else:
        assert f.num.gcd(f.den).c == {0: 1}
        assert f.den.leading_coeff() == 1


def test_fast_paths_match_full_gcd_constructor():
    rng = random.Random(20261018)
    for _ in range(1500):
        x, y = _shared_factor_vfunc(rng), _shared_factor_vfunc(rng)
        cases = [
            (x * y, VFunc(x.num * y.num, x.den * y.den)),
            (x + y, VFunc(x.num * y.den + y.num * x.den, x.den * y.den)),
            (x - y, VFunc(x.num * y.den - y.num * x.den, x.den * y.den)),
        ]
        if y:
            cases.append((x / y, VFunc(x.num * y.den, x.den * y.num)))
        if x:
            cases.append((x.inv(), VFunc(x.den, x.num)))
        for got, want in cases:
            assert got == want
            _assert_canonical(got)


def test_monomial_product_cancels_only_powers_of_v():
    # v^3 * 1/(v(v^2 - 1)) = v^2/(v^2 - 1)
    f = VFunc(VPoly({0: 1}), VPoly({3: 1, 1: -1}))
    assert v(3) * f == VFunc(VPoly({2: 1}), VPoly({2: 1, 0: -1}))
    # v^-3 * v(v^2 + 1)/(v^2 - 1) = (v^2 + 1)/(v^2 (v^2 - 1)), on either side
    g = VFunc(VPoly({3: 1, 1: 1}), VPoly({2: 1, 0: -1}))
    want = VFunc(VPoly({2: 1, 0: 1}), VPoly({4: 1, 2: -1}))
    assert v(-3) * g == want and g * v(-3) == want
    # -1/2 v^-1 * (v^2 + 1)/(v^2 - 1): the scalar lands on the numerator
    h = VFunc.from_int(Fraction(-1, 2)) * v(-1) * VFunc(VPoly({2: 1, 0: 1}), VPoly({2: 1, 0: -1}))
    assert h.num.c == {2: Fraction(-1, 2), 0: Fraction(-1, 2)}
    assert h.den.c == {3: 1, 1: -1}


def test_cross_reduced_product():
    # (v^2 + 1)/(v^2 - 1) * (v^2 - 1)/(v^4 + v^2 + 1) = (v^2 + 1)/(v^4 + v^2 + 1)
    x = VFunc(VPoly({2: 1, 0: 1}), VPoly({2: 1, 0: -1}))
    y = VFunc(VPoly({2: 1, 0: -1}), VPoly({4: 1, 2: 1, 0: 1}))
    z = x * y
    assert z.num.c == {2: 1, 0: 1}
    assert z.den.c == {4: 1, 2: 1, 0: 1}


def test_inverse_makes_denominator_monic():
    # ((2 - 2v^2)/(v^2 + 1))^-1 = (-1/2 v^2 - 1/2)/(v^2 - 1)
    x = VFunc(VPoly({2: -2, 0: 2}), VPoly({2: 1, 0: 1}))
    y = x.inv()
    assert y.num.c == {2: Fraction(-1, 2), 0: Fraction(-1, 2)}
    assert y.den.c == {2: 1, 0: -1}


def test_henrici_sum():
    # g = gcd(d1, d2) = 1: 1/(v^2 + 1) + 1/(v^2 - 1) = 2v^2/(v^4 - 1)
    s = VFunc(VPoly({0: 1}), VPoly({2: 1, 0: 1})) + VFunc(VPoly({0: 1}), VPoly({2: 1, 0: -1}))
    assert s.num.c == {2: 2} and s.den.c == {4: 1, 0: -1}
    # g = v - 1 and t = -(v - 1): 1/(v^2 - 1) - 2/((v - 1)(v + 3)) = -1/((v + 1)(v + 3))
    s = VFunc(VPoly({0: 1}), VPoly({2: 1, 0: -1})) + VFunc(VPoly({0: -2}), VPoly({2: 1, 1: 2, 0: -3}))
    assert s.num.c == {0: -1} and s.den.c == {2: 1, 1: 4, 0: 3}
    # g = v^2 - 1 and t = v + 1: 1/(v(v^2 - 1)) + 1/(v^2 - 1) = 1/(v(v - 1))
    s = VFunc(VPoly({0: 1}), VPoly({3: 1, 1: -1})) + VFunc(VPoly({0: 1}), VPoly({2: 1, 0: -1}))
    assert s.num.c == {0: 1} and s.den.c == {2: 1, 1: -1}
    # g = v^2 - 1 and gcd(t, g) = 1: 1/(v(v^2 - 1)) + v/(v^2 - 1) = (v^2 + 1)/(v^3 - v)
    s = VFunc(VPoly({0: 1}), VPoly({3: 1, 1: -1})) + VFunc(VPoly({1: 1}), VPoly({2: 1, 0: -1}))
    assert s.num.c == {2: 1, 0: 1} and s.den.c == {3: 1, 1: -1}


def test_vfunc_against_sympy_cancel():
    # sympy.cancel is an independent Q(v) implementation.
    sympy = pytest.importorskip("sympy")
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    q = sympy.Symbol("v")

    def to_sympy(p: VPoly):
        return sum((sympy.Rational(c) * q**e for e, c in p.c.items()), sympy.Integer(0))

    scalars = st.sampled_from(_SCALARS)
    monomials = st.builds(lambda e, c: VPoly({e: c}), st.integers(0, 3), scalars)
    polys = st.one_of(
        monomials,
        st.builds(
            lambda c, factors, extra: VPoly({0: c}) * extra * _product(factors),
            scalars,
            st.lists(st.sampled_from(_FACTORS), max_size=3),
            st.dictionaries(st.integers(0, 3), st.integers(-3, 3), max_size=3).map(
                lambda d: VPoly(d) if any(d.values()) else VPoly({0: 1})
            ),
        ),
    )
    vfuncs = st.builds(VFunc, polys, polys)

    @hypothesis.settings(derandomize=True, max_examples=80, deadline=None)
    @hypothesis.given(vfuncs, vfuncs)
    def check(x, y):
        xs = to_sympy(x.num) / to_sympy(x.den)
        ys = to_sympy(y.num) / to_sympy(y.den)
        for got, expr in ((x + y, xs + ys), (x * y, xs * ys), (x.inv(), 1 / xs)):
            p, d = sympy.fraction(sympy.cancel(expr))
            num, den = to_sympy(got.num), to_sympy(got.den)
            assert sympy.expand(num * d - den * p) == 0
            assert sympy.gcd(num, den).is_number
            assert sympy.Poly(den, q).LC() == 1

    check()
