"""Factor and tensor actions: worked values, conservation laws, and agreement
of the closed-form tensor action with the coproduct expansion."""

import itertools

import pytest

from uglmn import polyaction
from uglmn.linear import LinComb
from uglmn.polyaction import (
    ONE_ZERO,
    ZERO_ONE,
    DividedMonomial,
    act_factor,
    act_tensor,
    act_tensor_coproduct,
    act_word_factor,
    column_monomials,
    factor_element_from_json,
    factor_element_to_json,
    highest_weight_word,
    reversed_e_word,
    tensor_element_from_json,
    tensor_element_to_json,
)
from uglmn.qcoeff import ONE, VFunc, quantum_integer
from uglmn.regular import act_letter, one_label
from uglmn.suites import tensor_agreement
from uglmn.superindex import (
    Profile,
    SuperMatrix,
    all_matrices,
    matrix_parity,
    unit_matrix,
    zero_matrix,
)
from uglmn.words import apply_word, e, f, k

P11 = Profile(1, 1)
P21 = Profile(2, 1)
P12 = Profile(1, 2)
P22 = Profile(2, 2)


def mono(p, flavor, exps):
    return DividedMonomial(p, flavor, exps)


def single(key, c=None):
    return LinComb.single(key, c if c is not None else ONE)


def all_letters(p):
    out = []
    for h in range(1, p.size):
        out.append(e(h))
        out.append(f(h))
    for i in range(1, p.size + 1):
        out.append(k(i, 1))
        out.append(k(i, -1))
    return out


def all_monomials(p, flavor, max_degree):
    m = p.m
    caps = []
    for i in range(p.size):
        odd = (i >= m) if flavor == ZERO_ONE else (i < m)
        caps.append(range(2 if odd else max_degree + 1))
    for exps in itertools.product(*caps):
        if sum(exps) <= max_degree:
            yield DividedMonomial(p, flavor, exps)


def test_divided_monomial_validation():
    with pytest.raises(ValueError):
        DividedMonomial(P11, ZERO_ONE, (0, 2))
    with pytest.raises(ValueError):
        DividedMonomial(P11, ONE_ZERO, (2, 0))
    DividedMonomial(P11, ONE_ZERO, (0, 5))


def test_act_factor_e_basic():
    x = mono(P11, ZERO_ONE, (0, 1))
    assert act_factor(e(1), x) == single(mono(P11, ZERO_ONE, (1, 0)))


def test_act_factor_f_guard():
    for p, flavor in ((P21, ZERO_ONE), (P21, ONE_ZERO)):
        for x in all_monomials(p, flavor, 3):
            for h in range(1, p.size):
                if x.exps[h - 1] == 0:
                    assert act_factor(f(h), x).is_zero()


def test_act_factor_k():
    x = mono(P21, ZERO_ONE, (2, 1, 1))
    assert act_factor(k(1), x) == single(x, VFunc.v_power(2))
    assert act_factor(k(3), x) == single(x, VFunc.v_power(-1))
    assert act_factor(k(3, -1), x) == single(x, VFunc.v_power(1))


def test_anticommutator_identity_on_factors():
    # (E_m F_m + F_m E_m) . X^(a) = [a_m + 1] X^(a) whenever a_{m+1} = 1.
    for p in (P11, P21, P22):
        m = p.m
        for x in all_monomials(p, ZERO_ONE, 3):
            if x.exps[m] != 1:
                continue
            word_ef = act_word_factor((e(m), f(m)), single(x))
            word_fe = act_word_factor((f(m), e(m)), single(x))
            assert word_ef + word_fe == single(x, quantum_integer(x.exps[m - 1] + 1))


def test_odd_square_is_zero_on_factors():
    for p in (P11, P21, P12):
        m = p.m
        for flavor in (ZERO_ONE, ONE_ZERO):
            for x in all_monomials(p, flavor, 3):
                assert act_word_factor((e(m), e(m)), single(x)).is_zero()
                assert act_word_factor((f(m), f(m)), single(x)).is_zero()


def test_act_tensor_k_on_zero_matrix():
    for p in (P11, P21):
        o = zero_matrix(p)
        for i in range(1, p.size + 1):
            assert act_tensor(k(i), o) == single(o)


def test_act_tensor_e_worked_value():
    # E_1 . X^[E_22] = X^[E_12] at profile (1,1).
    a = unit_matrix(P11, 2, 2)
    assert act_tensor(e(1), a) == single(unit_matrix(P11, 1, 2))


def test_act_tensor_f_empty_row():
    for a in all_matrices(P21, 1):
        for h in range(1, 3):
            if all(a.entry(h, j) == 0 for j in range(1, 4)):
                assert act_tensor(f(h), a).is_zero()


def test_degree_and_column_sums_conserved():
    for a in all_matrices(P21, 2):
        cols = [sum(c) for c in zip(*a.rows)]
        for letter in all_letters(P21):
            res = act_tensor(letter, a)
            for b, _ in res:
                assert b.total() == a.total()
                assert [sum(c) for c in zip(*b.rows)] == cols


def test_parity_rule():
    # E_m and F_m flip the monomial parity, every other letter preserves it.
    p = P21
    for a in all_matrices(p, 1):
        for letter in all_letters(p):
            flip = letter.kind in "EF" and letter.index == p.m
            for b, _ in act_tensor(letter, a):
                assert matrix_parity(b) == matrix_parity(a) ^ (1 if flip else 0)


@pytest.mark.parametrize("p,bound", [(P11, 2), (P12, 2), (P21, 1)])
def test_closed_matches_coproduct(p, bound):
    letters = all_letters(p)
    for a in all_matrices(p, bound):
        cols = column_monomials(a)
        for letter in letters:
            assert act_tensor(letter, a) == act_tensor_coproduct(letter, a, cols), (
                letter,
                a,
            )


def test_coproduct_k_diagonal():
    for a in all_matrices(P21, 2):
        for i in range(1, 4):
            res = act_tensor_coproduct(k(i), a)
            ei = a.row_sum(i)
            assert res == single(a, VFunc.v_power(ei if i <= 2 else -ei))


def test_coproduct_k_is_product_of_factor_actions():
    # K_i^e acts on X^[A] by the product of its actions on the column factors.
    for p in (P11, P21, P12):
        for a in all_matrices(p, 1):
            cols = column_monomials(a)
            for i in range(1, p.size + 1):
                for power in (1, -1, 2):
                    letter = k(i, power)
                    expected = ONE
                    for col in cols:
                        expected = expected * act_factor(letter, col)[col]
                    assert act_tensor_coproduct(letter, a, cols) == single(a, expected)


def _drop_koszul_sign(monkeypatch):
    # Every column counts as even, so no Koszul sign is ever inserted.
    monkeypatch.setattr(DividedMonomial, "parity", lambda self: 0)


def _shift_tail_exponent(monkeypatch):
    # A nonzero Ktilde tail comes out one power of v too high.
    move = polyaction._move_coeff
    monkeypatch.setattr(
        polyaction, "_move_coeff", lambda n, exp, neg: move(n, exp + 1 if exp else exp, neg)
    )


@pytest.mark.parametrize("mutate", [_drop_koszul_sign, _shift_tail_exponent])
def test_tensor_agreement_catches_coproduct_mutations(monkeypatch, mutate):
    assert tensor_agreement(P11, 2, threads=1).all_pass
    mutate(monkeypatch)
    report = tensor_agreement(P11, 2, threads=1)
    assert report.checked == 36
    assert report.failures


def test_act_word_tensor_basics():
    a = unit_matrix(P11, 1, 2)
    x = single(a)
    assert apply_word((), x, act_tensor) == x
    assert apply_word((e(1),), x, act_tensor) == act_tensor(e(1), a)


def test_divided_power_word_on_tensor():
    # F_1^(2) sends X^[2 E_12] to exactly X^[2 E_22] at profile (2,0).
    p = Profile(2, 0)
    a = SuperMatrix(p, [[0, 2], [0, 0]])
    res = apply_word((f(1, 2),), single(a), act_tensor)
    assert res == single(SuperMatrix(p, [[0, 0], [0, 2]]))


def test_highest_weight_word_shapes():
    assert highest_weight_word(3, (3, 0), P11) == ()
    assert highest_weight_word(1, (0, 1), P11) == (f(1),)
    word = highest_weight_word(2, (1, 1, 0), Profile(2, 1))
    assert word == (f(1),)
    with pytest.raises(ValueError):
        highest_weight_word(2, (1, 0), P11)


def test_highest_weight_word_moves_highest_vector():
    p = P21
    x0 = single(mono(p, ZERO_ONE, (2, 0, 0)))
    res = act_word_factor(highest_weight_word(2, (1, 1, 0), p), x0)
    assert res == single(mono(p, ZERO_ONE, (1, 1, 0)))


@pytest.mark.parametrize("p", [P11, P21])
def test_cyclicity_small(p):
    for r in range(0, 4):
        top = mono(p, ZERO_ONE, (r,) + (0,) * (p.size - 1))
        for target in all_monomials(p, ZERO_ONE, r):
            if target.degree() != r:
                continue
            word = highest_weight_word(r, target.exps, p)
            res = act_word_factor(word, single(top))
            assert res == single(target)
            back = act_word_factor(reversed_e_word(word), res)
            assert len(back) == 1 and not back[top].is_zero()


def test_factor_element_json_round_trip():
    x = act_factor(e(1), mono(P21, ZERO_ONE, (1, 2, 1)))
    obj = factor_element_to_json(x)
    assert factor_element_from_json(obj, P21, ZERO_ONE) == x


def test_tensor_element_json_round_trip():
    a = SuperMatrix(P21, [[1, 0, 1], [0, 2, 0], [1, 0, 0]])
    x = act_tensor(f(2), a) + act_tensor(e(1), a)
    obj = tensor_element_to_json(x)
    assert tensor_element_from_json(obj) == x
    # Canonical sort: row-major lexicographic matrices.
    keys = [t["A"]["entries"] for t in obj]
    assert keys == sorted(keys)


def test_element_json_rejects_duplicate_terms():
    one = {"num": {"0": "1"}, "den": {"0": "1"}}
    with pytest.raises(ValueError):
        factor_element_from_json([{"coeff": one, "a": [1, 0]}] * 2, P11, ZERO_ONE)
    a = {"m": 1, "n": 1, "entries": [[1, 0], [0, 0]]}
    with pytest.raises(ValueError):
        tensor_element_from_json([{"coeff": one, "A": a}] * 2)


@pytest.mark.parametrize("p", [P11, P21, P12])
def test_actions_reject_generators_outside_the_profile(p):
    size = p.size
    keys = (
        (act_letter, one_label(p)),
        (act_tensor, zero_matrix(p)),
        (act_tensor_coproduct, zero_matrix(p)),
        (act_factor, mono(p, ZERO_ONE, (0,) * size)),
        (act_factor, mono(p, ONE_ZERO, (0,) * size)),
    )
    for act, key in keys:
        for letter in (e(size), f(size), k(size + 1), k(size + 1, -1)):
            with pytest.raises(IndexError, match=f"needs an index in 1..[0-9]+ when m \\+ n = {size}"):
                act(letter, key)
