"""Exact coefficient arithmetic: canonical forms, quantum integers, evaluation."""

import random
from fractions import Fraction

import pytest

from uglmn.qcoeff import (
    ONE,
    ZERO,
    PoleError,
    VFunc,
    VPoly,
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


def test_power_operator():
    f = v(1) + v(-1)
    assert f**0 == ONE
    assert f**3 == f * f * f
    assert f**-2 == (f * f).inv()


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
