"""multiply and Horner evaluation against routes that do not share them:
word by word, the rank-one closed forms, the odd squares and associativity.

The closed forms are those of Lusztig (Introduction to Quantum Groups, 1993)
carried to each simple root h: for even h, E_h^(a) E_h^(b) = [a+b choose a]
E_h^(a+b) and the same for F; for the odd h = m, E_m E_m = F_m F_m = 0.
The label with the single entry a at (h, h+1) is E_h^(a) O(0), and at
(h+1, h) it is F_h^(a) O(0).
"""

import random

import pytest

from uglmn import regular
from uglmn.linear import LinComb
from uglmn.qcoeff import ONE, VFunc, quantum_factorial
from uglmn.regular import SeriesBasis, act_letter, act_word, multiply, one_label
from uglmn.superindex import Profile, all_offdiag, zero_matrix
from uglmn.words import apply_word, apply_words, e, f, k

P11 = Profile(1, 1)
P20 = Profile(2, 0)
P21 = Profile(2, 1)
P12 = Profile(1, 2)
P22 = Profile(2, 2)


def _rank_one(p: Profile, kind, h: int, a: int) -> LinComb:
    """The label with the single entry a at (h, h+1) for E, (h+1, h) for F."""
    slot = (h, h + 1) if kind is e else (h + 1, h)
    return LinComb.single(SeriesBasis(zero_matrix(p).shift((slot + (a,),)), (0,) * p.size))


def _qbinom(n: int, a: int) -> VFunc:
    return quantum_factorial(n) * (quantum_factorial(a) * quantum_factorial(n - a)).inv()


def _random_element(p, rng, mats, nterms):
    x = LinComb.zero()
    for _ in range(nterms):
        b = SeriesBasis(rng.choice(mats), tuple(rng.randint(-1, 1) for _ in range(p.size)))
        x = x + LinComb.single(b, VFunc.v_power(rng.randint(-2, 2)))
    return x


def _random_words(p, rng, count) -> LinComb:
    """Words of length 0 to 4 over a small alphabet, so that many share their
    leftmost letters: divided powers up to 2 and K letters of either sign."""
    alphabet = [k(i, s) for i in range(1, p.size + 1) for s in (1, -1, 2)]
    for h in range(1, p.size):
        alphabet += [e(h), f(h), e(h, 2), f(h, 2)]
    terms = {(): VFunc.v_power(rng.randint(-1, 1))}
    while len(terms) < count:
        w = tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 4)))
        terms[w] = VFunc.laurent({rng.randint(-2, 2): rng.choice((1, -1, 2))})
    return LinComb(terms)


@pytest.mark.parametrize("p", [P11, P21, P12])
def test_apply_words_matches_word_by_word(p):
    rng = random.Random(1401)
    mats = [a for a in all_offdiag(p, 1) if a.offdiag_total() <= 2]
    for _ in range(8):
        words, x = _random_words(p, rng, 10), _random_element(p, rng, mats, 3)
        want = LinComb.zero()
        for w, c in words:
            want = want + apply_word(w, x, act_letter).scale(c)
        assert apply_words(words, x, act_letter) == want
    assert apply_words(LinComb.zero(), x, act_letter) == LinComb.zero()
    assert apply_words(LinComb.single(()), x, act_letter) == x


def _closed_form_failures(p: Profile) -> list:
    o = LinComb.single(one_label(p))
    out = []
    for h in range(1, p.size):
        if h == p.m:
            continue  # odd root: see _odd_square_failures
        for kind in (e, f):
            for a in (1, 2, 3):
                if act_word((kind(h, a),), o) != _rank_one(p, kind, h, a):
                    out.append((kind(h, a), "O(0)"))
                for b in (1, 2, 3):
                    lhs = multiply(_rank_one(p, kind, h, a), _rank_one(p, kind, h, b))
                    if lhs != _rank_one(p, kind, h, a + b).scale(_qbinom(a + b, a)):
                        out.append((kind(h, a), kind(h, b)))
    return out


def _odd_square_failures(p: Profile) -> list:
    o = LinComb.single(one_label(p))
    out = []
    for kind in (e, f):
        x = _rank_one(p, kind, p.m, 1)
        if act_word((kind(p.m),), o) != x or not multiply(x, x).is_zero():
            out.append(kind(p.m))
    return out


def _associativity_failures(p: Profile) -> list:
    rng = random.Random(1402)
    mats = [a for a in all_offdiag(p, 1) if a.offdiag_total() <= 2]
    out = []
    for _ in range(6):
        x, y, z = (_random_element(p, rng, mats, 2) for _ in range(3))
        if multiply(multiply(x, y), z) != multiply(x, multiply(y, z)):
            out.append((x, y, z))
    return out


@pytest.mark.parametrize("p", [P20, P21, P12, P22])
def test_rank_one_divided_powers(p):
    assert not _closed_form_failures(p)


@pytest.mark.parametrize("p", [P11, P21, P12, P22])
def test_odd_squares_vanish(p):
    assert not _odd_square_failures(p)


def test_multiply_associativity_at_21():
    assert not _associativity_failures(P21)


def test_multiply_associativity_at_22():
    assert not _associativity_failures(P22)


def _act_letter_calls(monkeypatch, fn) -> int:
    calls = []

    def counted(letter, b, signed=False):
        calls.append(letter)
        return act_letter(letter, b, signed)

    with monkeypatch.context() as mp:
        mp.setattr(regular, "act_letter", counted)
        fn()
    return len(calls)


def test_multiply_shares_leftmost_letters(monkeypatch):
    # Word by word, each word acts letter by letter on y; in Horner form the
    # words that begin with one letter apply it once, to their summed image.
    rng = random.Random(1403)
    mats = sorted(all_offdiag(P21, 2), key=lambda a: (-a.offdiag_total(), a.rows))
    x = LinComb({SeriesBasis(a, (0, 0, 0)): ONE for a in mats[:4]})
    y = _random_element(P21, rng, [a for a in mats if a.offdiag_total() <= 2], 2)
    words = x.bind(regular._words)  # expand first: expanding acts too
    got = []
    horner = _act_letter_calls(monkeypatch, lambda: got.append(multiply(x, y)))
    by_word = _act_letter_calls(
        monkeypatch, lambda: got.append(words.bind(lambda w: act_word(w, y)))
    )
    assert got[0] == got[1]
    assert horner < 0.5 * by_word, (horner, by_word)  # 4187 against 12110


def test_oracle_catches_a_dropped_remainder_word(monkeypatch):
    # Drop one lower word from every expansion that has one: multiply then
    # computes a wrong product, which the checks above must notice.
    words = regular._words

    def planted(b):
        x = words(b)
        lead = regular.monomial_word(b.mat, b.j)
        rest = sorted((w for w in x.terms if w != lead), key=lambda w: (len(w), w))
        return x.filter_keys(lambda w: w != rest[0]) if rest else x

    monkeypatch.setattr(regular, "_words", planted)
    failures = _associativity_failures(P21)
    for p in (P20, P21, P12):
        failures += _closed_form_failures(p)
    for p in (P11, P21, P12):
        failures += _odd_square_failures(p)
    assert failures
