"""multiply and Horner evaluation against routes that do not share them:
word by word, the rank-one closed forms, the odd squares, associativity and
the commutation formula of E_h^(a) and F_h^(b) on the labels.

The closed forms are those of Lusztig (Introduction to Quantum Groups, 1993)
carried to each simple root h: for even h, E_h^(a) E_h^(b) = [a+b choose a]
E_h^(a+b) and the same for F; for the odd h = m, E_m E_m = F_m F_m = 0.
The label with the single entry a at (h, h+1) is E_h^(a) O(0), and at
(h+1, h) it is F_h^(a) O(0).
"""

import random
import sys

import pytest

from uglmn import regular
from uglmn.linear import LinComb
from uglmn.qcoeff import ONE, ZERO, VFunc, quantum_factorial, v_sub
from uglmn.regular import SeriesBasis, act_letter, act_word, multiply, one_label
from uglmn.superindex import Profile, all_offdiag, zero_matrix
from uglmn.words import E, K, apply_plan, apply_word, apply_words, e, f, k, horner_plan

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


def test_apply_plan_acts_once_per_prefix():
    # On a module where every letter scales the one key, each trie node's
    # sum is one term: apply_plan then makes exactly one act call per
    # distinct nonempty prefix.  On words themselves, with each letter
    # prepended, the leftmost letter acts last and the sum is the words.
    x, y = e(1), f(1)
    words = LinComb.single(()) + LinComb(
        {w: VFunc.v_power(len(w)) for w in [(x, y), (x, y, x), (x, x), (y,), (k(2),) * 7]}
    )
    prefixes = {w[:i] for w in words.terms for i in range(1, len(w) + 1)}
    calls = []

    def scale(letter, key):
        calls.append(letter)
        return LinComb.single(key, VFunc.v_power(letter.index))

    got = apply_plan(horner_plan(words), LinComb.single("o"), scale)
    assert len(calls) == len(prefixes) == 12
    want = LinComb.zero()
    for w, c in words:
        want = want + apply_word(w, LinComb.single("o"), scale).scale(c)
    assert got == want

    def prepend(letter, w):
        return LinComb.single((letter,) + w)

    assert apply_words(words, LinComb.single(()), prepend) == words


def test_apply_words_takes_a_long_word():
    # The recursion is as deep as the longest word, far below the default
    # limit for relation words (4 letters) and computable expansions.
    word = (k(1), k(2, -1)) * 300
    o = LinComb.single(one_label(P11))
    assert sys.getrecursionlimit() <= 1000
    assert apply_words(LinComb.single(word), o, act_letter) == apply_word(word, o, act_letter)


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


def _bracket(h: int, m: int, c: int, t: int) -> dict:
    """Lusztig's [K~_h; c; t] as {r: coefficient of K~_h^r}: the product over
    s = 1..t of (K~ v_h^(c-s+1) - K~^-1 v_h^(-c+s-1)) / (v_h^s - v_h^-s)."""
    out = {0: ONE}
    for s in range(1, t + 1):
        gap = (v_sub(h, s, m) - v_sub(h, -s, m)).inv()
        up, down = v_sub(h, c - s + 1, m) * gap, -v_sub(h, s - 1 - c, m) * gap
        step = {}
        for r, x in out.items():
            step[r + 1] = step.get(r + 1, ZERO) + x * up
            step[r - 1] = step.get(r - 1, ZERO) + x * down
        out = step
    return out


def _commutation(h: int, m: int, a: int, b: int) -> LinComb:
    """E_h^(a) F_h^(b) - sum_t F_h^(b-t) [K~_h; 2t-a-b; t] E_h^(a-t), with
    K~_h = K_h K_(h+1)^-1, as a word-keyed combination (Lusztig, Cor. 3.1.9)."""
    out = LinComb.single((e(h, a), f(h, b)))
    for t in range(min(a, b) + 1):
        fs = (f(h, b - t),) if b > t else ()
        es = (e(h, a - t),) if a > t else ()
        for r, c in _bracket(h, m, 2 * t - a - b, t).items():
            ks = (k(h, r), k(h + 1, -r)) if r else ()
            out = out - LinComb.single(fs + ks + es, c)
    return out


def _commutation_failures(p: Profile, act=act_letter) -> list:
    """(h, a, b, label) where the formula leaves a residual, at every even
    h and a, b <= 3, on eight seeded labels with entries <= 2."""
    rng = random.Random(1701)
    mats = list(all_offdiag(p, 2))
    labels = [
        SeriesBasis(rng.choice(mats), tuple(rng.randint(-1, 1) for _ in range(p.size)))
        for _ in range(8)
    ]
    out = []
    for h in range(1, p.size):
        if h == p.m:
            continue  # odd root: the formula reduces to QG3 of the relation suites
        for a in (1, 2, 3):
            for b in (1, 2, 3):
                poly = _commutation(h, p.m, a, b)
                for x in labels:
                    if not apply_words(poly, LinComb.single(x), act).is_zero():
                        out.append((h, a, b, x))
    return out


@pytest.mark.parametrize("p", [P20, P21, P12, P22])
def test_commutation_formula_on_labels(p):
    assert not _commutation_failures(p)


def _flipped_difference_quotient(letter, b, signed=False):
    """act_letter with the difference-quotient term negated: the terms at
    A minus a unit in the (source, destination) slot, which no other term
    reaches."""
    out = act_letter(letter, b, signed)
    if letter.kind == K:
        return out
    h = letter.index
    src, dst = (h + 1, h) if letter.kind == E else (h, h + 1)
    emptied = b.mat.shift(((src, dst, -1),)) if b.mat.entry(src, dst) else None
    return LinComb._raw({t: -c if t.mat == emptied else c for t, c in out})


def test_commutation_formula_catches_a_flipped_difference_quotient():
    assert _commutation_failures(P21, _flipped_difference_quotient)


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


def test_oracle_catches_a_dropped_remainder_word(monkeypatch, fresh_expansions):
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
