"""Series-basis actions, truncation oracle, word expansion, multiplication."""

import itertools
import random

import pytest

from uglmn import regular
from uglmn.linear import LinComb
from uglmn.qcoeff import ONE, VFunc, quantum_integer, v_gap_inv, v_sub
from uglmn.regular import (
    FormalLabel,
    SeriesBasis,
    act_element,
    act_formal,
    act_letter,
    act_word,
    at_twist,
    compare_truncated,
    expand_as_words,
    leading_decompose,
    monomial_word,
    multiply,
    one_label,
    series_element_from_json,
    series_element_to_json,
    to_signed,
    truncate,
    unit,
)
from uglmn.superindex import (
    Profile,
    SuperMatrix,
    all_offdiag,
    basis_vector,
    f_stat,
    g_stat,
    s_sign,
    sigma,
    strictly_lower,
    super_dot,
    unit_matrix,
    zero_matrix,
)
from uglmn.words import (
    E,
    K,
    apply_word,
    apply_words,
    check_index,
    check_letter,
    e,
    f,
    k,
    word_from_text,
    word_text,
)

P11 = Profile(1, 1)
P21 = Profile(2, 1)
P12 = Profile(1, 2)


def label(mat, j):
    return SeriesBasis(mat, j)


def all_letters(p):
    out = []
    for h in range(1, p.size):
        out += [e(h), f(h)]
    for i in range(1, p.size + 1):
        out += [k(i, 1), k(i, -1)]
    return out


def all_j(p, values=(-1, 0, 1)):
    return list(itertools.product(values, repeat=p.size))


def test_label_validation():
    with pytest.raises(ValueError):
        SeriesBasis(unit_matrix(P11, 1, 1), (0, 0))
    with pytest.raises(ValueError):
        SeriesBasis(zero_matrix(P11), (0,))


def test_act_k_on_identity_label():
    for p in (P11, P21):
        o = one_label(p)
        for i in range(1, p.size + 1):
            res = act_letter(k(i, 1), o)
            assert res == LinComb.single(label(zero_matrix(p), basis_vector(i, p.size)))


def test_act_k_inverse_pair():
    rng = random.Random(42)
    mats = list(all_offdiag(P21, 1))
    for _ in range(50):
        b = label(rng.choice(mats), tuple(rng.randint(-2, 2) for _ in range(3)))
        for i in range(1, 4):
            fwd = act_letter(k(i, 1), b)
            back = fwd.bind(lambda key: act_letter(k(i, -1), key))
            assert back == LinComb.single(b)


def test_act_k_worked_value():
    b = label(unit_matrix(P11, 1, 2), (0, 0))
    res = act_letter(k(1, 1), b)
    assert res == LinComb.single(
        label(unit_matrix(P11, 1, 2), (1, 0)), VFunc.v_power(1)
    )


def test_act_e_on_identity_label():
    for p in (P11, P21):
        o = one_label(p)
        for h in range(1, p.size):
            assert act_letter(e(h), o) == unit(unit_matrix(p, h, h + 1), (0,) * p.size)
            assert act_letter(f(h), o) == unit(unit_matrix(p, h + 1, h), (0,) * p.size)


def test_act_e_worked_value_difference_quotient():
    # E_1 . (E_21)(0,0) at profile (1,1):
    #   [O(1,-1) - O(-1,-1)] / (v - v^-1)  -  (E_12 + E_21)(0,0)
    b = label(unit_matrix(P11, 2, 1), (0, 0))
    res = act_letter(e(1), b)
    gap_inv = (VFunc.v_power(1) - VFunc.v_power(-1)).inv()
    o = zero_matrix(P11)
    both = SuperMatrix(P11, [[0, 1], [1, 0]])
    expected = LinComb(
        {
            label(o, (1, -1)): gap_inv,
            label(o, (-1, -1)): -gap_inv,
            label(both, (0, 0)): -ONE,
        }
    )
    assert res == expected


def test_act_f_worked_value():
    # F_1 . (E_12)(0,0) at profile (1,1):
    #   (E_12 + E_21)(0,0) + [O(-1,1) - O(-1,-1)] / (v^-1 - v)
    b = label(unit_matrix(P11, 1, 2), (0, 0))
    res = act_letter(f(1), b)
    gap_inv = (VFunc.v_power(-1) - VFunc.v_power(1)).inv()
    o = zero_matrix(P11)
    both = SuperMatrix(P11, [[0, 1], [1, 0]])
    expected = LinComb(
        {
            label(both, (0, 0)): ONE,
            label(o, (-1, 1)): gap_inv,
            label(o, (-1, -1)): -gap_inv,
        }
    )
    assert res == expected


def test_act_e_guards_leave_only_last_term():
    # With row h+1 empty and the (h, h+1) slot addable, only the final
    # summand survives.
    p = P21
    b = label(unit_matrix(p, 1, 3), (0, 0, 0))
    res = act_letter(e(2), b)
    # row 3 of A is zero, a_{2,3} = 0: E_2 target is A + E_23.
    target = b.mat.shift(((2, 3, 1),))
    assert set(res.terms) == {label(target, (0, 0, 0))}


def test_odd_square_vanishes_on_labels():
    # E_m twice on any (1,1) label dies: the moved entry would pass 1 in the
    # odd block, so the series is zero.
    for a in all_offdiag(P11, 1):
        for j in all_j(P11, (0, 1)):
            b = label(a, j)
            assert act_element(e(1), act_letter(e(1), b)).is_zero()
            assert act_element(f(1), act_letter(f(1), b)).is_zero()


def _shift_j(j: tuple, i: int, d: int) -> tuple:
    return j[: i - 1] + (j[i - 1] + d,) + j[i:]


def _reference_act_letter(letter, b, signed=False):
    """Reference for act_letter: every term computed directly at the twist
    b.j, with no template shared between twists."""
    a = b.mat
    p = a.profile
    m, size = p.m, p.size
    j = b.j
    check_index(letter, size)
    if letter.kind == K:
        i = letter.index
        coeff = v_sub(i, letter.power * a.row_sum(i), m)
        return LinComb._raw({SeriesBasis._make(a, _shift_j(j, i, letter.power)): coeff})
    h = letter.index
    is_e = letter.kind == E
    src, dst = (h + 1, h) if is_e else (h, h + 1)
    stat = f_stat if is_e else g_stat
    row_src = a.rows[src - 1]
    row_dst = a.rows[dst - 1]
    twisted = None  # j + e_dst - e_src, built on first use
    # Every term lands on its own (target, twist) key, so terms are stored,
    # never summed: column moves hit distinct columns, the two
    # difference-quotient terms differ in their twist, and the (dst, src)
    # move fills a third slot.
    out: dict = {}

    def put(target, col, c, twist):
        # Both sign statistics vanish unless h = m.
        if h == m:
            flip = s_sign(h, col, a if is_e else target) if signed else sigma(col, a)
            if flip & 1:
                c = -c
        out[SeriesBasis._make(target, twist)] = c

    for i in range(1, size + 1):
        if i in (h, h + 1) or row_src[i - 1] < 1:
            continue
        target = a.shift(((dst, i, 1), (src, i, -1)))
        if target is None:
            continue  # odd entry would exceed 1: the series is zero
        c = v_sub(dst, stat(h, i, a), m) * quantum_integer(row_dst[i - 1] + 1)
        near = i < h if is_e else i > h + 1  # on the destination row's side
        if near:
            twisted = twisted or _shift_j(_shift_j(j, dst, 1), src, -1)
            put(target, i, c, twisted)
        else:
            put(target, i, c, j)
    if row_src[dst - 1] >= 1:
        # Emptying the (src, dst) slot turns the quantum bracket into a
        # difference of two twists divided by v_dst - v_dst^{-1}.
        target = a.shift(((src, dst, -1),))
        c = v_sub(dst, stat(h, dst, a) - j[dst - 1], m) * v_gap_inv(dst, m)
        twisted = twisted or _shift_j(_shift_j(j, dst, 1), src, -1)
        put(target, dst, c, twisted)
        put(target, dst, -c, _shift_j(_shift_j(j, h, -1), h + 1, -1))
    target = a.shift(((dst, src, 1),))
    if target is not None:
        exp = stat(h, src, a) + (-j[src - 1] if h == m else j[src - 1])
        c = v_sub(dst, exp, m) * quantum_integer(row_dst[src - 1] + 1)
        put(target, src, c, j)
    return LinComb._raw(out)


def _action_letters(p):
    """Every E/F letter and K_i^(+-1), K_i^(+-2)."""
    letters = [x(h) for h in range(1, p.size) for x in (e, f)]
    return letters + [k(i, x) for i in range(1, p.size + 1) for x in (1, -1, 2, -2)]


def _template_mismatches(grids):
    """The (letter, label, signed) triples of the grids, (profile, entry
    bound) pairs, where act_letter differs from the direct reference; every
    letter of _action_letters, every twist in {-2, ..., 2}^size.  Twists
    beyond {-1, 0, 1} separate a character v^(j_i) from v^(j_i^3)."""
    out = []
    for p, bound in grids:
        twists = all_j(p, range(-2, 3))
        for a in all_offdiag(p, bound):
            for letter in _action_letters(p):
                for signed in (False, True):
                    for j in twists:
                        b = label(a, j)
                        if act_letter(letter, b, signed) != _reference_act_letter(letter, b, signed):
                            out.append((letter, b, signed))
    return out


def test_label_action_matches_the_direct_formulas():
    # 2,000 + 256,000 + 576,000 + 256,000 comparisons.
    grids = [(P11, 1), (P21, 1), (P21, 2), (P12, 1)]
    assert _template_mismatches(grids) == []


def test_direct_formulas_catch_a_flipped_character(monkeypatch):
    # Negate the character index of the first term that has one: the j
    # factor v^(j_i) becomes v^(-j_i), and nothing else changes.
    template = regular._template

    def planted(letter, a, signed):
        terms = list(template(letter, a, signed))
        for n, (target, shift, char, c) in enumerate(terms):
            if char:
                terms[n] = (target, shift, -char, c)
                break
        return tuple(terms)

    monkeypatch.setattr(regular, "_template", planted)
    assert _template_mismatches([(P11, 1)])


def test_formal_action_matches_the_label_action():
    # at_twist(act_formal(L, v^<l, j> (A, j + s)), j) is v^<l, j> times
    # act_letter(L, (A, j + s)): every label of (1,1), (2,1), (1,2) with
    # entries <= 1, every letter of _action_letters, seeded s and l in
    # {-1, 0, 1}^size, every twist j in {-2, ..., 2}^size (257,000 pairs).
    rng = random.Random(2019)
    out = []
    for p in (P11, P21, P12):
        twists = all_j(p, range(-2, 3))
        for a in all_offdiag(p, 1):
            for letter in _action_letters(p):
                s, ell = (tuple(rng.choice((-1, 0, 1)) for _ in range(p.size)) for _ in range(2))
                formal = act_formal(letter, FormalLabel(a, s, ell))
                for j in twists:
                    char = VFunc.v_power(sum(x * y for x, y in zip(ell, j)))
                    concrete = act_letter(letter, label(a, [x + y for x, y in zip(j, s)]))
                    if at_twist(formal, j) != concrete.scale(char):
                        out.append((letter, a, s, ell, j))
    assert out == []


def test_label_actions_take_divided_powers_apart():
    # E_h^(a) on an element is the a-fold E_h divided by [a]!, as in a word;
    # the template refuses the letter itself, on every call, as the memo
    # stores no exceptions.
    b = label(unit_matrix(P21, 2, 1), (0, 0, 0))
    x = LinComb.single(b)
    assert act_element(e(1, 2), x) == apply_word((e(1, 2),), x, act_letter)
    assert act_element(e(1, 2), x) != act_element(e(1), x)
    assert act_element(f(2, 2), x) == apply_word((f(2, 2),), x, act_letter)
    formal = FormalLabel(b.mat, (0, 0, 0), (0, 0, 0))
    for _ in range(2):
        with pytest.raises(ValueError, match="power 1"):
            act_letter(e(1, 2), b)
        with pytest.raises(ValueError, match="power 1"):
            act_formal(f(1, 3), formal)


def test_truncate_levels():
    o = one_label(P11)
    t0 = truncate(o, 0)
    assert t0 == LinComb.single(zero_matrix(P11))
    t1 = truncate(o, 1)
    assert set(t1.terms) == {
        zero_matrix(P11),
        unit_matrix(P11, 1, 1),
        unit_matrix(P11, 2, 2),
    }
    assert all(c == ONE for _, c in t1)
    # Twist e_1 weights the first diagonal slot by v, the odd slot by 1.
    t = truncate(label(zero_matrix(P11), (1, 0)), 1)
    assert t[unit_matrix(P11, 1, 1)] == VFunc.v_power(1)
    assert t[unit_matrix(P11, 2, 2)] == ONE
    # Twist e_2 weights the odd diagonal slot by v^-1.
    t = truncate(label(zero_matrix(P11), (0, 1)), 1)
    assert t[unit_matrix(P11, 2, 2)] == VFunc.v_power(-1)


def test_truncate_at_22_sums_every_diagonal_shift():
    p = Profile(2, 2)
    a = SuperMatrix(p, ((0, 2, 1, 0), (0, 0, 0, 1), (1, 0, 0, 3), (0, 1, 0, 0)))
    j = (1, -2, 0, 3)
    # Each lam with |lam| <= 3, built as a multiset of the diagonal slots.
    lams = [
        tuple(slots.count(i) for i in range(p.size))
        for total in range(4)
        for slots in itertools.combinations_with_replacement(range(p.size), total)
    ]
    t = truncate(label(a, j), 3)
    assert len(t) == 35
    assert t.terms == {a.add_diag(lam): VFunc.v_power(super_dot(lam, j, p)) for lam in lams}


def test_compare_truncated_k_and_e():
    for p in (P11, P21):
        o = one_label(p)
        for i in range(1, p.size + 1):
            assert compare_truncated(k(i, 1), o, 2)
        for h in range(1, p.size):
            assert compare_truncated(e(h), o, 3)


def test_compare_truncated_worked_examples_level_4():
    b1 = label(unit_matrix(P11, 2, 1), (0, 0))
    assert compare_truncated(e(1), b1, 4)
    b2 = label(unit_matrix(P11, 1, 2), (0, 0))
    assert compare_truncated(f(1), b2, 4)


def test_compare_truncated_grid_11():
    for a in all_offdiag(P11, 1):
        for j in all_j(P11):
            b = label(a, j)
            for letter in all_letters(P11):
                assert compare_truncated(letter, b, 3), (letter, b)


def test_compare_truncated_sample_22():
    # Every (2,2) matrix is compared at a formal twist by the slow
    # test_truncations_agree_at_every_twist_22; this seeded sample across all
    # generators keeps the profile covered in the fast run.
    p = Profile(2, 2)
    rng = random.Random(2024)
    mats = list(all_offdiag(p, 1))
    letters = all_letters(p)
    for _ in range(40):
        b = label(rng.choice(mats), tuple(rng.randint(-1, 1) for _ in range(4)))
        for letter in letters:
            assert compare_truncated(letter, b, 3), (letter, b)


def test_the_truncation_grid_acts_k_letters_only_inside_the_window(monkeypatch):
    # At (2,1), level 3, a label's truncation has 20 monomials and its window
    # (level 2) 10. The 4 E/F letters act on all 20; a K letter keeps the
    # diagonal level, so the 6 K letters act on the 10 inside the window.
    act, calls = regular.act_tensor, []

    def counting(letter, a):
        calls.append(letter)
        return act(letter, a)

    monkeypatch.setattr(regular, "act_tensor", counting)
    mats = list(all_offdiag(P21, 1))
    for a in mats:
        diffs = regular._truncation_differences(a, all_letters(P21), 3)
        assert [d for _, d in diffs if d.terms] == []
    assert len(calls) == 140 * len(mats)
    assert sum(letter.kind == K for letter in calls) == 60 * len(mats)


def test_a_memoized_letter_check_still_raises():
    for _ in range(2):
        with pytest.raises(IndexError):
            check_letter(e(2), P11.size)
        with pytest.raises(ValueError):
            check_letter(e(1, 2), P11.size)
        with pytest.raises(IndexError):
            regular.act_tensor(e(2), zero_matrix(P11))


def test_divided_power_word_on_identity_label():
    # E_1^(2) . O(0) at profile (3,0): the move doubles the (1,2) entry and
    # the bracket [2] cancels against the divided-power factorial exactly.
    p = Profile(3, 0)
    res = act_word((e(1, 2),), LinComb.single(one_label(p)))
    target = zero_matrix(p).shift(((1, 2, 2),))
    assert res == unit(target, (0, 0, 0))


def test_monomial_word_trivial():
    assert monomial_word(zero_matrix(P11), (0, 0)) == ()
    assert word_text(monomial_word(zero_matrix(P11), (2, -1))) == "K1^2 K2^-1"


def test_monomial_word_single_upper_entry():
    word = monomial_word(unit_matrix(P21, 1, 3), (0, 0, 0))
    assert word == (e(1), e(2))


def test_monomial_word_full_template_22():
    p = Profile(2, 2)
    ones = SuperMatrix(
        p, [[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]]
    )
    word = monomial_word(ones, (0, 0, 0, 0))
    assert word_text(word) == (
        "F1 F2 F1 F3 F2 F1 F2 F3 F2 F3 E3 E2 E3 E1 E2 E3 E2 E1 E2 E1"
    )
    word_j = monomial_word(ones, (1, -2, 0, 3))
    assert "K1 K2^-2 K4^3" in word_text(word_j)


def test_triangularity_grid_11():
    for a in all_offdiag(P11, 1):
        for j in all_j(P11):
            x = act_word(monomial_word(a, j), LinComb.single(one_label(P11)))
            lead, rest = leading_decompose(x, a)
            assert len(lead) == 1
            (bk, u), = lead.terms.items()
            assert bk == label(a, j)
            assert u.as_unit_monomial() is not None
            for b2, _ in rest:
                assert strictly_lower(b2.mat, a)


def test_leading_decompose_trivial_and_errors():
    b = label(unit_matrix(P11, 1, 2), (1, 0))
    x = LinComb.single(b, VFunc.v_power(2))
    lead, rest = leading_decompose(x, b.mat)
    assert lead == x and rest.is_zero()
    with pytest.raises(ValueError):
        leading_decompose(x, unit_matrix(P11, 2, 1))


def test_expand_identity_labels():
    out = expand_as_words(zero_matrix(P11), (1, -1))
    assert out == ((ONE, (k(1, 1), k(2, -1))),)
    out = expand_as_words(unit_matrix(P11, 1, 2), (0, 0))
    assert out == ((ONE, (e(1),)),)
    out = expand_as_words(unit_matrix(P11, 2, 1), (0, 0))
    assert out == ((ONE, (f(1),)),)


@pytest.mark.parametrize("p", [P11])
def test_expand_round_trip(p):
    o = LinComb.single(one_label(p))
    for a in all_offdiag(p, 1):
        for j in all_j(p):
            total = LinComb.zero()
            for c, w in expand_as_words(a, j):
                total = total + act_word(w, o).scale(c)
            assert total == unit(a, j), (a, j)


def test_expand_round_trip_21_sample():
    o = LinComb.single(one_label(P21))
    rng = random.Random(17)
    mats = list(all_offdiag(P21, 1))
    for _ in range(15):
        a = rng.choice(mats)
        j = tuple(rng.randint(-1, 1) for _ in range(3))
        total = LinComb.zero()
        for c, w in expand_as_words(a, j):
            total = total + act_word(w, o).scale(c)
        assert total == unit(a, j), (a, j)


def _direct_expansion(mat, j, memo):
    """Reference: expand (A, j) at its own twist, with every lower label
    expanded at its own twist too, as a combination keyed by word."""
    key = label(mat, j)
    if key not in memo:
        word = monomial_word(mat, j)
        lead, rest = leading_decompose(act_word(word, LinComb.single(one_label(mat.profile))), mat)
        (lead_key, u), = lead.terms.items()
        assert lead_key == key and u.as_unit_monomial() is not None
        lower = rest.bind(lambda b: _direct_expansion(b.mat, b.j, memo))
        memo[key] = (LinComb.single(word) - lower).scale(u.inv())
    return memo[key]


def test_derived_expansions_match_the_direct_algorithm():
    # 36 + 1,728 + 1,728 labels, and the round trip at (2,1); 7-9 s on a
    # 2-core box.  Only (A, 0) is expanded; every twist is derived from it.
    memo = {}
    o21 = LinComb.single(one_label(P21))
    for p in (P11, P21, P12):
        for a in all_offdiag(p, 1):
            for j in all_j(p):
                got = expand_as_words(a, j)
                want = _direct_expansion(a, j, memo).terms.items()
                want = sorted(want, key=lambda kv: (len(kv[0]), word_text(kv[0])))
                assert got == tuple((c, w) for w, c in want), (a, j)
                if p == P21:
                    words = LinComb._raw({w: c for c, w in got})
                    assert apply_words(words, o21, act_letter) == unit(a, j), (a, j)


def test_each_matrix_is_expanded_once(fresh_expansions):
    # All 64 x 27 labels, and the lower labels their expansions reach, are
    # derived from one expansion per matrix: the 64, and 30 lower matrices.
    mats = list(all_offdiag(P21, 1))
    for a in mats:
        for j in all_j(P21):
            expand_as_words(a, j)
    info = regular._untwisted.cache_info()
    assert info.misses == info.currsize == 94


def test_distinct_labels_have_distinct_words():
    # Expansions are stored by label and read by word, which needs the
    # monomial words of distinct labels to differ.
    for p, bound in ((P21, 2), (Profile(2, 2), 1)):
        twists = ((0,) * p.size, (1,) + (-1,) * (p.size - 1))
        labels = [label(a, j) for a in all_offdiag(p, bound) for j in twists]
        assert len({monomial_word(b.mat, b.j) for b in labels}) == len(labels)


def _random_element(p, rng, mats, nterms=2):
    x = LinComb.zero()
    for _ in range(nterms):
        b = label(rng.choice(mats), tuple(rng.randint(-1, 1) for _ in range(p.size)))
        x = x + LinComb.single(b, VFunc.v_power(rng.randint(-2, 2)))
    return x


@pytest.mark.parametrize("p", [P11, P21])
def test_multiply_generator_identification(p):
    rng = random.Random(23)
    mats = list(all_offdiag(p, 1))
    o = (0,) * p.size
    for _ in range(12):
        y = _random_element(p, rng, mats)
        assert multiply(unit(zero_matrix(p), o), y) == y
        for h in range(1, p.size):
            assert multiply(unit(unit_matrix(p, h, h + 1), o), y) == act_element(e(h), y)
            assert multiply(unit(unit_matrix(p, h + 1, h), o), y) == act_element(f(h), y)
        for i in range(1, p.size + 1):
            assert multiply(unit(zero_matrix(p), basis_vector(i, p.size)), y) == (
                act_element(k(i, 1), y)
            )


def test_multiply_k_basis():
    p = P21
    for i in range(1, 4):
        for kk in range(1, 4):
            lhs = multiply(
                unit(zero_matrix(p), basis_vector(i, 3)),
                unit(zero_matrix(p), basis_vector(kk, 3)),
            )
            expect = tuple(
                x + y for x, y in zip(basis_vector(i, 3), basis_vector(kk, 3))
            )
            assert lhs == unit(zero_matrix(p), expect)


def test_multiply_associativity_spot_checks():
    p = P11
    rng = random.Random(31)
    mats = list(all_offdiag(p, 1))
    for _ in range(25):
        x = _random_element(p, rng, mats, 1)
        y = _random_element(p, rng, mats, 1)
        z = _random_element(p, rng, mats, 1)
        assert multiply(multiply(x, y), z) == multiply(x, multiply(y, z))


def test_to_signed_involution():
    rng = random.Random(7)
    mats = list(all_offdiag(P12, 1))
    for _ in range(100):
        x = _random_element(P12, rng, mats, 3)
        assert to_signed(to_signed(x)) == x
    # Labels with trivial statistic are fixed.
    assert to_signed(unit(zero_matrix(P12), (1, 0, -1))) == unit(
        zero_matrix(P12), (1, 0, -1)
    )


@pytest.mark.parametrize("p", [P12])
def test_signed_action_is_conjugated_action(p):
    # In the signed basis the action keeps all magnitudes and swaps the sign
    # statistic: conjugating by the sign rescaling must reproduce the
    # signed-statistic formulas exactly.
    for a in all_offdiag(p, 1):
        b = label(a, (0,) * p.size)
        x = LinComb.single(b)
        for h in range(1, p.size):
            conj_e = to_signed(act_element(e(h), to_signed(x)))
            assert conj_e == act_letter(e(h), b, signed=True), (a, h)
            conj_f = to_signed(act_element(f(h), to_signed(x)))
            assert conj_f == act_letter(f(h), b, signed=True), (a, h)


def test_series_element_json_round_trip():
    b = label(unit_matrix(P11, 2, 1), (0, 0))
    x = act_letter(e(1), b)
    obj = series_element_to_json(x)
    assert series_element_from_json(obj) == x
    keys = [(t["A"]["entries"], t["j"]) for t in obj]
    assert keys == sorted(keys)


def test_series_element_json_rejects_duplicate_labels():
    # Two copies of 1.O(0) must not collapse into one.
    term = series_element_to_json(LinComb.single(one_label(P11)))[0]
    with pytest.raises(ValueError):
        series_element_from_json([term, term])


def test_expand_as_words_invariant_is_an_exception(monkeypatch, fresh_expansions):
    # A broken leading term raises an explicit error, also under python -O.
    monkeypatch.setattr(regular, "monomial_word", lambda mat, j: ())
    with pytest.raises(RuntimeError):
        expand_as_words(unit_matrix(P11, 1, 2), (0, 0))


def test_word_text_round_trip():
    w = (f(1, 2), k(1, 3), k(2, -1), e(2), e(1))
    assert word_text(w) == "F1^(2) K1^3 K2^-1 E2 E1"
    assert word_from_text(word_text(w)) == w
