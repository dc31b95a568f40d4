"""Exact coefficient arithmetic: canonical forms, quantum integers, evaluation."""

import inspect
import json
import random
import sys
import time
from fractions import Fraction

import pytest

from uglmn import qcoeff
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
    # At v = 0 the pole comes from the stored power v^s alone.
    assert v(2).evaluate(0) == 0
    assert ONE.evaluate(0) == 1
    for f in (v(-1), v(1) + v(-1)):
        with pytest.raises(PoleError):
            f.evaluate(0)


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


@pytest.mark.parametrize(
    "obj",
    [
        {"num": {"0": "1", "+0": "1"}, "den": {"0": "1"}},
        {"num": {"0": "1"}, "den": {"1": "1", "01": "1"}},
        {"num": {"0": 0.1}, "den": {"0": "1"}},
        {"num": {"0": "1"}, "den": {"0": True}},
        {"num": [1], "den": {"0": "1"}},
    ],
    ids=["exponent-twice", "exponent-twice-den", "float", "bool", "side-not-object"],
)
def test_from_json_rejects_ambiguous_coefficients(obj):
    # "0"/"+0" would read 1 + 1 as 1, Fraction(0.1) the binary value of 0.1,
    # and Fraction(True) the number 1.
    with pytest.raises(ValueError):
        VFunc.from_json(obj)


def test_quantum_factorial_is_iterative():
    # Empty the memo so [60]! is built from [0]! within a small stack.
    quantum_factorial.cache_clear()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 30)
    try:
        f60 = quantum_factorial(60)
    finally:
        sys.setrecursionlimit(limit)
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
        assert (f.s, f.n.c, f.d.c) == (0, {}, {0: 1})
    else:
        assert f.num.gcd(f.den).c == {0: 1}
        assert f.den.leading_coeff() == 1
        # The stored triple v^s * n/d: n, d prime to v and to each other, d monic.
        assert f.n.c.get(0) and f.d.c.get(0)
        assert f.d.leading_coeff() == 1
        assert f.n.gcd(f.d).c == {0: 1}


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


def test_hot_path_runs_no_euclid(monkeypatch, fresh_expansions):
    # Every denominator the action computes is a v-power times a product of
    # cyclotomic polynomials, so relations, truncations and products never
    # run a polynomial gcd.
    from uglmn import regular
    from uglmn.linear import LinComb
    from uglmn.relcheck import full_suite, series_handle
    from uglmn.suites import series_truncation_agreement
    from uglmn.superindex import Profile, SuperMatrix

    calls = []
    gcd = VPoly.gcd

    def counted(self, other):
        calls.append((self, other))
        return gcd(self, other)

    monkeypatch.setattr(VPoly, "gcd", counted)
    p21 = Profile(2, 1)
    assert full_suite(series_handle(p21, 1, [(0, 1, -1), (1, -1, 0), (-1, 0, 1)])).all_pass
    assert series_truncation_agreement(Profile(1, 1), 1, [(0, 0), (1, -1)], 3).all_pass
    left = [((0, 1, 1), (0, 0, 0), (1, 1, 0)), ((0, 1, 0), (1, 0, 1), (0, 1, 0))]
    right = [((0, 0, 1), (1, 0, 0), (0, 1, 0)), ((0, 1, 1), (0, 0, 0), (0, 0, 0))]
    for a, b in zip(left, right):
        x = LinComb({regular.SeriesBasis(SuperMatrix(p21, a), (1, 0, -1)): v(1) + v(-1)})
        y = LinComb({regular.SeriesBasis(SuperMatrix(p21, b), (0, 2, 0)): v(-2)})
        assert not regular.multiply(x, y).is_zero()
    assert calls == []


def _same_stored_form(x: VFunc) -> None:
    assert VFunc.from_json(x.to_json()) == x
    assert VFunc(x.num, x.den) == x


def test_computed_and_constructed_values_share_one_stored_form():
    gaps = [(v(1) - v(-1)).inv(), (v(-1) - v(1)).inv()]
    facts = [quantum_factorial(a).inv() for a in range(9)]
    assert gaps[0].phi == ((1, 1), (2, 1)) and gaps[0].d.c == {2: 1, 0: -1}
    assert facts[3].phi == ((3, 1), (4, 1), (6, 1))  # [2] = v^-1 Phi_4, [3] = v^-2 Phi_3 Phi_6
    for x in gaps + facts:
        _same_stored_form(x)
    rng = random.Random(20261019)
    for _ in range(200):
        laurent = VFunc.laurent({rng.randint(-3, 3): rng.choice(_SCALARS) for _ in range(rng.randint(1, 3))})
        x, y = rng.choice(gaps + facts), rng.choice(gaps + facts)
        _same_stored_form(x + laurent * y if rng.random() < 0.5 else x * y * laurent)


def test_general_denominator_agrees_with_sympy():
    # Phi_3 (v + 3) is no product of cyclotomic polynomials, so it stays a
    # VPoly, and arithmetic with it goes through the gcd constructor.
    sympy = pytest.importorskip("sympy")
    q = sympy.Symbol("v")

    def to_sympy(p: VPoly):
        return sum((sympy.Rational(c) * q**e for e, c in p.c.items()), sympy.Integer(0))

    d = VPoly({2: 1, 1: 1, 0: 1}) * VPoly({1: 1, 0: 3})
    x = VFunc(VPoly({1: 2, 0: -1}), d)
    assert isinstance(x.phi, VPoly) and x.d == d
    xs = to_sympy(x.num) / to_sympy(x.den)
    others = [(v(1) - v(-1)).inv(), quantum_factorial(3).inv(), v(2), VFunc(VPoly({1: 1, 0: 3}), VPoly({2: 1, 0: 1}))]
    for y in others:
        ys = to_sympy(y.num) / to_sympy(y.den)
        cases = ((x + y, xs + ys), (x * y, xs * ys), (x / y, xs / ys), (y / x, ys / xs), (x.inv(), 1 / xs))
        for got, expr in cases:
            p, den = sympy.fraction(sympy.cancel(expr))
            gn, gd = to_sympy(got.num), to_sympy(got.den)
            assert sympy.expand(gn * den - gd * p) == 0
            assert sympy.gcd(gn, gd).is_number and sympy.Poly(gd, q).LC() == 1
            _same_stored_form(got)


def test_large_json_denominators_classify_quickly():
    start = time.perf_counter()
    # Phi_97 Phi_3 has degree 98, and the JSON path factors it completely.
    phi97 = VFunc.laurent({e: 1 for e in range(97)})
    phi3 = VFunc.laurent({0: 1, 1: 1, 2: 1})
    den = (phi97 * phi3).n
    x = VFunc.from_json({"num": {"0": "1"}, "den": {str(e): str(c) for e, c in den.c.items()}})
    assert x == (phi97 * phi3).inv()
    assert x.phi == ((3, 1), (97, 1))
    # v^100 + v + 1 is no such product and stays general, through the CLI too.
    from uglmn.cli import main

    term = {
        "coeff": {"num": {"0": "1"}, "den": {"100": "1", "1": "1", "0": "1"}},
        "A": {"m": 1, "n": 1, "entries": [[0, 0], [0, 0]]},
        "j": [0, 0],
    }
    argv = ["act", "--m", "1", "--n", "1", "--space", "series", "--gen", "E1", "--input", json.dumps([term])]
    assert main(argv) == 0
    assert time.perf_counter() - start < 10


def _random_poly(rng, top):
    """Degree top, Fraction coefficients; the leading one is often not 1."""
    c = {e: Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3))) for e in range(top + 1)}
    c[top] = Fraction(rng.choice((-3, -2, 1, 2, 5)), rng.choice((1, 2, 3)))
    return VPoly(c)


def _exact_types(p: VPoly) -> bool:
    """Integral coefficients are stored as int."""
    return all(type(x) is int or x.denominator != 1 for x in p.c.values())


def _act_k1_on(coeff: dict, capsys) -> tuple:
    """Exit code, stderr lines and seconds of act K1 on one (1,1) label with
    the given JSON coefficient."""
    from uglmn.cli import main

    term = {"coeff": coeff, "A": {"m": 1, "n": 1, "entries": [[0, 0], [0, 0]]}, "j": [0, 0]}
    start = time.perf_counter()
    code = main(["act", "--m", "1", "--n", "1", "--gen", "K1", "--input", json.dumps([term])])
    return code, capsys.readouterr().err.splitlines(), time.perf_counter() - start


@pytest.mark.parametrize(
    "den",
    [{"4000": "1", "2000": "3", "0": "1"}, {"4000": "1", "0": "1"}],
    ids=["no-phi-product", "phi-product"],
)
def test_high_degree_json_denominator_is_rejected_quickly(den, capsys):
    # Trial division classifies such a denominator in time about cubic in its
    # degree (4.7 s for v^2000 + 1); above JSON_MAX_SPAN it is an input error.
    code, err, seconds = _act_k1_on({"num": {"0": "1"}, "den": den}, capsys)
    assert seconds < 2 and code == 2 and len(err) == 1, (seconds, code, err)


def test_json_span_bound_applies_to_general_denominators_only(capsys):
    top = qcoeff.JSON_MAX_SPAN
    # v^top + 1 is Phi_(2 top), at the bound; one degree more is rejected.
    assert VFunc.from_json({"num": {"1": "1"}, "den": {str(top): "1", "0": "1"}}).phi == ((2 * top, 1),)
    with pytest.raises(ValueError):
        VFunc.from_json({"num": {str(top + 1): "1", "0": "1"}, "den": {"1": "1", "0": "1"}})
    # A Laurent polynomial, over one term, is read at any span.
    code, err, _ = _act_k1_on({"num": {"4000": "1", "0": "-1"}, "den": {"2": "1"}}, capsys)
    assert code == 0 and err == []


def test_euclid_on_dense_sides_of_the_largest_json_degree():
    # Monic remainders keep the fractions from compounding, which made these
    # sides take 36 s (2-core box, Python 3.11).
    rng = random.Random(128)
    coeffs = (-3, -2, -1, 1, 2, 3)
    sides = [VPoly({e: rng.choice(coeffs) for e in range(qcoeff.JSON_MAX_SPAN + 1)}) for _ in "nd"]
    start = time.perf_counter()
    x = VFunc(*sides)
    assert time.perf_counter() - start < 5
    assert x.num * sides[1] == x.den * sides[0]


def test_divmod_is_exact_long_division():
    try:
        import sympy
    except ImportError:
        sympy = None
    rng = random.Random(20261019)
    for _ in range(300):
        a = _random_poly(rng, rng.randrange(0, 9)) if rng.random() < 0.9 else VPoly()
        b = _random_poly(rng, rng.randrange(0, 5))
        q, r = a.divmod(b)
        assert q * b + r == a
        assert max(r.c, default=-1) < max(b.c)
        assert _exact_types(q) and _exact_types(r)
        if sympy is not None:
            x = sympy.Symbol("v")

            def sym(p):
                return sum((sympy.Rational(c) * x**e for e, c in p.c.items()), sympy.Integer(0))

            sq, sr = sympy.div(sym(a), sym(b), x, domain="QQ")
            assert sympy.expand(sq - sym(q)) == 0 and sympy.expand(sr - sym(r)) == 0
    with pytest.raises(ZeroDivisionError):
        VPoly({1: 1}).divmod(VPoly())


def test_cyclotomic_trial_division():
    rng = random.Random(30)
    for k in range(1, 31):
        q = VPoly({e: rng.randint(-3, 3) for e in range(rng.randrange(0, 6))} | {6: 1})
        multiple = qcoeff._cyclotomic(k) * q
        assert qcoeff._quotient(multiple, k) == q
        assert _exact_types(qcoeff._quotient(multiple, k))
        assert qcoeff._quotient(multiple + VPoly({0: 1}), k) is None


def _same_fields(x: VFunc, y: VFunc) -> bool:
    return x.s == y.s and x.n.c == y.n.c and x.phi == y.phi


def test_unit_monomial_product_only_shifts():
    # +-v^k times anything keeps the other side's n and phi: Phi_k products,
    # general VPoly denominators and Laurent polynomials alike.
    rng = random.Random(1404)
    general = VFunc(VPoly({1: 2, 0: -1}), VPoly({2: 1, 1: 1, 0: 1}) * VPoly({1: 1, 0: 3}))
    assert isinstance(general.phi, VPoly)
    for _ in range(400):
        x = rng.choice([_shared_factor_vfunc(rng), _random_vfunc(rng), general, quantum_factorial(3).inv()])
        u = v(rng.randint(-3, 3)) * VFunc.from_int(rng.choice((1, -1)))
        for a, b in ((u, x), (x, u)):
            got = a * b
            assert _same_fields(got, VFunc(a.num * b.num, a.den * b.den))
            assert got.phi is x.phi or got.is_zero()


def test_integral_fractions_keep_one_canonical_form():
    # (v/2 + v/2 - 1) sums Fraction coefficients to the integers of v - 1; its
    # inverse must then factor as 1/Phi_1, like the one built from ints.
    x = (VFunc.laurent({1: Fraction(1, 2)}) + VFunc.laurent({1: Fraction(1, 2), 0: -1})).inv()
    y = VFunc.laurent({1: 1, 0: -1}).inv()
    assert (x - y).is_zero()
    assert x.phi == y.phi == ((1, 1),)
    assert x == y
    # The same through a product: (v - 1)/2 times 2.
    z = (VFunc.laurent({1: Fraction(1, 2), 0: Fraction(-1, 2)}) * VFunc.from_int(2)).inv()
    assert _same_fields(z, y)
    rng = random.Random(1405)
    for _ in range(200):
        p = _random_poly(rng, rng.randrange(0, 5))
        for q in (p + p, p * VPoly({0: 2}), p * VPoly({1: 1, 0: 2})):
            assert _exact_types(q)
