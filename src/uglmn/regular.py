"""The supergroup realized inside formal power series over the tensor space.

A basis label (A, j) with A a diagonal-free SuperMatrix and j an integer
vector stands for the series  sum_lam v^(lam * j) X^[A + diag(lam)].  The
span of these labels is stable under the generator actions, which are given
by explicit four-term formulas; the label O(0) generates everything, and
pulling the action back along u -> u.O(0) turns the labels into a basis of
the supergroup itself, with multiplication computed by expanding a label
into generator words.  The twist j enters a generator's action on (A, j)
only through a shift of the twist and one factor v^(+-j_i) per term, so the
action is built once per (letter, matrix) as a template and evaluated at j.
The template also acts on formal labels v^<char, j> (A, j + shift) with j
left formal, so the relation and truncation checks take each matrix once for
every twist: by the independence of the characters v^<char, j>, a zero
formal residual is zero at every twist (see relcheck.check_relation).
An expansion is a combination of labels (B, k), each standing for its word
monomial_word(B, k); only (A, 0) is expanded, once per matrix, and every
twist is derived from it.

Truncating the series at a finite diagonal level gives an independent check:
the explicit action must match the tensor-space action monomial by monomial
on the window the truncation determines.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections import namedtuple

from .linear import LinComb, element_from_json
from .polyaction import act_tensor
from .qcoeff import VFunc, quantum_integer, v_gap_inv, v_sub
from .superindex import (
    Profile,
    SuperMatrix,
    a_bar,
    dominated_by,
    f_stats,
    g_stats,
    json_ints,
    s_sign,
    sigma,
    super_dot,
    zero_matrix,
)
from .words import E, K, GenLetter, Word, apply_word, apply_words, check_letter, word_text
from .words import e as e_letter
from .words import f as f_letter
from .words import k as k_letter


class SeriesBasis(namedtuple("SeriesBasis", "mat j")):
    """Label (A, j): a diagonal-free matrix and an integer twist vector."""

    __slots__ = ()

    def __new__(cls, mat: SuperMatrix, j):
        if not mat.is_offdiag():
            raise ValueError("series labels need a diagonal-free matrix")
        j = tuple(map(operator.index, j))
        if len(j) != mat.profile.size:
            raise ValueError(f"twist vector must have length {mat.profile.size}")
        return tuple.__new__(cls, (mat, j))

    @classmethod
    def _make(cls, mat, j):
        return tuple.__new__(cls, (mat, j))

    @property
    def profile(self) -> Profile:
        return self.mat.profile

    def __repr__(self):
        body = ";".join(",".join(map(str, r)) for r in self.mat.rows)
        return f"({body})({','.join(map(str, self.j))})"


class FormalLabel(namedtuple("FormalLabel", "mat shift char")):
    """v^<char, j> (mat, j + shift) for a formal twist j: shift and char are
    integer vectors, and at_twist evaluates the label at one j."""

    __slots__ = ()


def one_label(p: Profile) -> SeriesBasis:
    """The identity label O(0)."""
    return SeriesBasis._make(zero_matrix(p), (0,) * p.size)


def unit(mat: SuperMatrix, j) -> LinComb:
    return LinComb.single(SeriesBasis(mat, j))


def _twist_shift(size: int, *moves) -> tuple:
    """The twist shift sum d e_i over the (i, d) moves."""
    out = [0] * size
    for i, d in moves:
        out[i - 1] += d
    return tuple(out)


# Bounded, at the smallest power of two above the benchmark workloads'
# working sets (1,160 and 2,692 templates): unbounded, the (2,2) relation
# suite over 1,500 labels at j = 0 built 99,194 and peaked at 136.2 MB RSS,
# against 25.1 MB bounded and 18.1 MB with no memo.
@functools.lru_cache(maxsize=4096)
def _template(letter: GenLetter, a: SuperMatrix, signed: bool) -> tuple:
    """The action of one letter on every label (a, j) at once, as terms
    (target, shift, char, c): the term of (a, j) is c v^(+-j_|char|) at the
    label (target, j + shift), with shift None for j itself and char 0 for
    no j factor.  The twist enters the action only through these shifts and
    characters, so act_letter evaluates the template at b.j, and act_formal
    keeps j formal.  E/F letters must have divided power 1 (check_letter).

    K_i^e scales by v_i^(e row_i sum) and shifts the twist by e e_i.  E_h
    moves a unit from row h+1 to row h, F_h from row h to row h+1, in four
    parts: plain moves in the columns on the source row's side, moves in the
    columns on the destination row's side with the twist shifted by +alpha_h
    (E) or -alpha_h (F), a difference quotient when the (source, destination)
    slot can be emptied, and the unconditional move into the (destination,
    source) slot.  Weights are v_dst powers of the f (E) or g (F) statistic.
    Moves that would push an off-diagonal-block entry past 1 produce the zero
    series and are dropped.

    With signed=True the sign is s_sign(h, col, a) in place of sigma(col, a),
    read on the source label for every term: a term's target differs from a
    only in column col, which s_sign leaves out.  Nothing else changes.
    """
    p = a.profile
    m, size = p.m, p.size
    check_letter(letter, size)
    if letter.kind == K:
        i, e = letter.index, letter.power
        return ((a, _twist_shift(size, (i, e)), 0, v_sub(i, e * a.row_sum(i), m)),)
    h = letter.index
    is_e = letter.kind == E
    src, dst = (h + 1, h) if is_e else (h, h + 1)
    stats = (f_stats if is_e else g_stats)(h, a)
    row_src = a.rows[src - 1]
    row_dst = a.rows[dst - 1]
    raised = _twist_shift(size, (dst, 1), (src, -1))
    # Every term lands on its own (target, shift) pair, so the terms of one
    # label have distinct keys: column moves hit distinct columns, the two
    # difference-quotient terms differ in their shift, and the (dst, src)
    # move fills a third slot.
    terms = []

    def put(target, col, shift, char, c):
        # Both sign statistics vanish unless h = m.
        if h == m:
            flip = s_sign(h, col, a) if signed else sigma(col, a)
            if flip & 1:
                c = -c
        terms.append((target, shift, char, c))

    for i in range(1, size + 1):
        if i in (h, h + 1) or row_src[i - 1] < 1:
            continue
        target = a.move(src, dst, i)
        if target is None:
            continue  # odd entry would exceed 1: the series is zero
        c = v_sub(dst, stats[i - 1], m) * quantum_integer(row_dst[i - 1] + 1)
        near = i < h if is_e else i > h + 1  # on the destination row's side
        put(target, i, raised if near else None, 0, c)
    if row_src[dst - 1] >= 1:
        # Emptying the (src, dst) slot turns the quantum bracket into a
        # difference of two twists divided by v_dst - v_dst^{-1}; both
        # carry v_dst^(-j_dst).
        target = a.shift(((src, dst, -1),))
        c = v_sub(dst, stats[dst - 1], m) * v_gap_inv(dst, m)
        char = dst if dst > m else -dst
        put(target, dst, raised, char, c)
        put(target, dst, _twist_shift(size, (h, -1), (h + 1, -1)), char, -c)
    target = a.shift(((dst, src, 1),))
    if target is not None:
        # The weight carries v_dst^(j_src), or v_dst^(-j_src) when h = m.
        c = v_sub(dst, stats[src - 1], m) * quantum_integer(row_dst[src - 1] + 1)
        put(target, src, None, src if (h == m) == (dst > m) else -src, c)
    return tuple(terms)


def act_letter(letter: GenLetter, b: SeriesBasis, signed: bool = False) -> LinComb:
    """One generator on a label: the letter's template on b.mat (see
    _template) evaluated at the twist b.j."""
    j, out = b.j, {}
    for target, shift, char, c in _template(letter, b.mat, signed):
        if char:
            c = c * VFunc.v_power(j[char - 1] if char > 0 else -j[-char - 1])
        out[SeriesBasis._make(target, j if shift is None else tuple(map(operator.add, j, shift)))] = c
    return LinComb._raw(out)


def act_formal(letter: GenLetter, t: FormalLabel) -> LinComb:
    """One generator on a formal label: a term (target, shift, +-i, c) of the
    letter's template on t.mat (see _template) sends v^<char, j> (A, j + s)
    to c v^(+-s_i) v^<char +- e_i, j> (target, j + s + shift)."""
    s, out = t.shift, {}
    for target, shift, char, c in _template(letter, t.mat, False):
        ell = t.char
        if char:
            i, d = (char - 1, 1) if char > 0 else (-char - 1, -1)
            if s[i]:
                c = c * VFunc.v_power(d * s[i])
            ell = ell[:i] + (ell[i] + d,) + ell[i + 1 :]
        out[FormalLabel._make((target, s if shift is None else tuple(map(operator.add, s, shift)), ell))] = c
    return LinComb._raw(out)


def at_twist(x: LinComb, j) -> LinComb:
    """A combination of formal labels at the twist j: each
    v^<char, j> (A, j + shift) becomes v^<char, j> times the label
    (A, j + shift), and equal labels are summed."""
    return x.bind(
        lambda t: LinComb.single(
            SeriesBasis._make(t.mat, tuple(map(operator.add, j, t.shift))), _char(t.char, j)
        )
    )


def _char(ell, j) -> VFunc:
    """The character v^<ell, j>."""
    return VFunc.v_power(sum(map(operator.mul, ell, j)))


def act_element(letter: GenLetter, x: LinComb) -> LinComb:
    """One generator on an element; an E/F letter of divided power a acts as
    its a-fold application divided by [a]! (see words.apply_word)."""
    return apply_word((letter,), x, act_letter)


def act_word(word: Word, x: LinComb) -> LinComb:
    return apply_word(word, x, act_letter)


@functools.cache
def _diag_shifts(size: int, level: int) -> tuple:
    """Every lam in N^size with |lam| <= level."""
    # Each lam is size bars among level + size slots: lam_i counts the free
    # slots just before bar i, and those after the last bar are slack.
    return tuple(
        tuple(y - x - 1 for x, y in zip((-1,) + bars, bars))
        for bars in itertools.combinations(range(level + size), size)
    )


def _window(mat: SuperMatrix, level: int) -> list:
    """The monomials mat + diag(lam), |lam| <= level, each with lam signed
    by (-1)^parity, so that its dot product with j is the super_dot."""
    m = mat.profile.m
    shifts = _diag_shifts(mat.profile.size, level)
    return [(lam[:m] + tuple(-x for x in lam[m:]), mat.add_diag(lam)) for lam in shifts]


def truncate(b: SeriesBasis, level: int) -> LinComb:
    """Finite witness of a label: sum over |lam| <= level of v^(lam * j) X^[A + diag(lam)]."""
    if level < 0:
        raise ValueError("truncation level must be >= 0")
    return LinComb._raw({x: _char(lam, b.j) for lam, x in _window(b.mat, level)})


def _truncation_differences(mat: SuperMatrix, letters, level: int) -> list:
    """(letter, difference) pairs: the tensor action on the truncated series
    of (mat, j) less the truncated explicit action, j formal, on monomials of
    level <= level - 1, in terms (monomial, char) for v^<char, j> X^[monomial].
    A term v^<char, j> (A, j + s) of act_formal truncates to v^<mu, s> at
    (A + diag(mu), char + mu), mu signed as in _window; neither side calls
    the other's action.  The two sides are built apart and compared, and the
    difference is built only when they differ.  A K letter keeps every
    monomial's diagonal level, so it acts only on the series monomials inside
    the window: its images of the others would all fall outside it."""
    window, zero, series = level - 1, (0,) * mat.profile.size, _window(mat, level)
    inner = [(lam, x) for lam, x in series if x.diag_total() <= window]
    window_of = functools.cache(lambda a: _window(a, window))  # exact: labels are diagonal-free
    out = []
    for letter in letters:
        # The signed lam of each series monomial keeps its images apart.
        source = inner if letter.kind == K else series
        lhs = {(y, lam): c for lam, x in source for y, c in act_tensor(letter, x) if y.diag_total() <= window}
        rhs = {}
        for t, c in act_formal(letter, FormalLabel(mat, zero, zero)):
            for mu, y in window_of(t.mat):
                key = y, tuple(map(operator.add, t.char, mu))
                x = c * _char(mu, t.shift)
                rhs[key] = rhs[key] + x if key in rhs else x
        lhs, rhs = LinComb(lhs), LinComb(rhs)  # rhs may hold cancelled terms
        out.append((letter, LinComb.zero() if lhs == rhs else lhs - rhs))
    return out


def truncation_mismatches(mat: SuperMatrix, twists, letters, level: int) -> list:
    """The (twist, letter) pairs, in that order, where the explicit action
    of the letter on the label (mat, twist) disagrees with the tensor action
    of the truncated series.  One generator application moves the diagonal
    level by at most one, so the two sides are both complete on monomials
    of level <= level - 1; they must agree there exactly.  Each letter is
    compared once at a formal twist (_truncation_differences), and a nonzero
    difference is read off at each twist."""
    if level < 1:
        raise ValueError("comparison needs level >= 1")
    twists = [(j, SeriesBasis(mat, j).j) for j in twists]  # validated as labels
    diffs = _truncation_differences(mat, letters, level)
    return [
        (j, letter) for j, valid in twists for letter, d in diffs
        if d.bind(lambda t: LinComb.single(t[0], _char(t[1], valid))).terms
    ]


def compare_truncated(letter: GenLetter, b: SeriesBasis, level: int) -> bool:
    """truncation_mismatches on one label and one letter: True if they agree."""
    return not truncation_mismatches(b.mat, (b.j,), (letter,), level)


@functools.cache
def _k_block(exps: tuple) -> Word:
    """K_1^(exps_1) ... K_size^(exps_size), zero exponents omitted."""
    return tuple(k_letter(i, x) for i, x in enumerate(exps, 1) if x)


@functools.cache
def _fe_blocks(mat: SuperMatrix) -> tuple:
    """The lowering and raising blocks of monomial_word(mat, j), which do not
    depend on j."""
    size, rows = mat.profile.size, mat.rows
    lowering, raising = [], []
    for col in range(1, size):
        for row in range(col + 1, size + 1):
            amount = rows[row - 1][col - 1]
            if amount:
                lowering.extend(f_letter(idx, amount) for idx in range(row - 1, col - 1, -1))
    for col in range(size, 1, -1):
        for row in range(col - 1, 0, -1):
            amount = rows[row - 1][col - 1]
            if amount:
                raising.extend(e_letter(idx, amount) for idx in range(row, col))
    return tuple(lowering), tuple(raising)


def _word(b: SeriesBasis) -> Word:
    """monomial_word of a label already validated."""
    lowering, raising = _fe_blocks(b.mat)
    return lowering + _k_block(b.j) + raising


def monomial_word(mat: SuperMatrix, j) -> Word:
    """The generator word whose action on O(0) has leading label (A, j):
    lowering blocks column by column, the twist as K powers, then raising
    blocks from the last column down to the second.  Letters with zero
    divided power are omitted.
    """
    return _word(SeriesBasis(mat, j))


def leading_decompose(x: LinComb, mat: SuperMatrix):
    """Split off the part of x sitting at the matrix mat (all twists) from
    the strictly lower remainder; reject inputs with labels not below mat."""
    below = dominated_by(mat)
    lead, rest = {}, {}
    for b, c in x:
        if b.mat == mat:
            lead[b] = c
        elif below(b.mat):
            rest[b] = c
        else:
            raise ValueError(f"label {b!r} is not dominated by the leading matrix")
    return LinComb._raw(lead), LinComb._raw(rest)


@functools.cache
def _untwisted(mat: SuperMatrix) -> LinComb:
    """Expand (A, 0) over labels, each label (B, k) standing for its word
    monomial_word(B, k): act with A's own word on O(0), peel off the unit
    leading term, and expand the strictly lower remainder recursively."""
    key = SeriesBasis._make(mat, (0,) * mat.profile.size)
    start = LinComb.single(one_label(mat.profile))
    lead, rest = leading_decompose(act_word(monomial_word(mat, key.j), start), mat)
    if len(lead) != 1:
        raise RuntimeError(f"leading part of {key!r} is not a single label")
    (lead_key, u), = lead.terms.items()
    if lead_key != key:
        raise RuntimeError(f"leading twist mismatch: {lead_key!r} != {key!r}")
    if u.as_unit_monomial() is None:
        raise RuntimeError(f"leading coefficient {u!r} is not +-v^c")
    return (LinComb.single(key) - rest.bind(_coords)).scale(u.inv())


@functools.cache
def _lowering_weight(mat: SuperMatrix) -> tuple:
    """Sum of B_rc (e_c - e_r) below the diagonal, or of a alpha_h over the
    F_h^(a) of monomial_word(B, k); odd entries negated as in _window."""
    rows, m = mat.rows, mat.profile.m
    lower = [sum(r[i] for r in rows[i + 1:]) - sum(rows[i][:i]) for i in range(len(rows))]
    return tuple(lower[:m] + [-x for x in lower[m:]])


def _coords(b: SeriesBasis) -> LinComb:
    """The expansion of (A, j), derived from that of (A, 0) by
    K^j (A, 0) = v^(j * rowsums(A)) (A, j) and K^j F_h^(a) =
    v^(-a j * alpha_h) F_h^(a) K^j: a term (B, k) becomes (B, k + j) times
    v^(-j * (rowsums(A) + _lowering_weight(B))), * the super_dot."""
    a, j = b.mat, b.j
    x = _untwisted(a)
    if not any(j):
        return x
    rows, out = super_dot(j, tuple(map(sum, a.rows)), a.profile), {}
    for t, c in x:
        d = rows + sum(map(operator.mul, j, _lowering_weight(t.mat)))
        out[SeriesBasis._make(t.mat, tuple(map(operator.add, t.j, j)))] = c * VFunc.v_power(-d) if d else c
    return LinComb._raw(out)


def _words(b: SeriesBasis) -> LinComb:
    """The expansion of a label keyed by word.  Index ascents (F) and descents
    (E) separate a word's runs, so distinct labels give distinct words."""
    return LinComb._raw({_word(t): c for t, c in _coords(b)})


def expand_as_words(mat: SuperMatrix, j) -> tuple:
    """Write the label (A, j) as a combination of generator words applied to
    O(0): the words monomial_word(B, k) of the labels (B, k) of its
    expansion, which is derived from that of (A, 0) (see _coords).  Returns
    a tuple of (coefficient, word) pairs, by word length, then text.

    >>> a = SuperMatrix(Profile(1, 1), ((0, 1), (1, 0)))
    >>> [(c.text(), word_text(w)) for c, w in expand_as_words(a, (1, 0))]
    [('(1)/(v^2 - 1)', 'K2'), ('(-1)/(v^2 - 1)', 'K2^-1'), ('v^-2', 'F1 K1 E1')]
    """
    out = sorted(_words(SeriesBasis(mat, j)), key=lambda kv: (len(kv[0]), word_text(kv[0])))
    return tuple((c, w) for w, c in out)


def multiply(x: LinComb, y: LinComb) -> LinComb:
    """Product in the supergroup: expand each left label into generator words
    and act with them, in Horner form, on the right element."""
    return apply_words(x.bind(_words), y, act_letter)


def to_signed(x: LinComb) -> LinComb:
    """Rescale each label by (-1)^(a_bar of its matrix); an involution."""
    return LinComb._raw(
        {b: (-c if a_bar(b.mat) & 1 else c) for b, c in x.terms.items()}
    )


def series_element_to_json(x: LinComb) -> list:
    items = sorted(x.terms.items(), key=lambda kv: (kv[0].mat.rows, kv[0].j))
    return [
        {"coeff": c.to_json(), "A": b.mat.to_json(), "j": list(b.j)}
        for b, c in items
    ]


def series_element_from_json(obj) -> LinComb:
    return element_from_json(
        obj, lambda t: SeriesBasis(SuperMatrix.from_json(t["A"]), json_ints(t["j"], "twist j"))
    )
