"""The supergroup realized inside formal power series over the tensor space.

A basis label (A, j) with A a diagonal-free SuperMatrix and j an integer
vector stands for the series  sum_lam v^(lam * j) X^[A + diag(lam)].  The
span of these labels is stable under the generator actions, which are given
by explicit four-term formulas; the label O(0) generates everything, and
pulling the action back along u -> u.O(0) turns the labels into a basis of
the supergroup itself, with multiplication computed by expanding a label
into a generator word.

Truncating the series at a finite diagonal level gives an independent check:
the explicit action must match the tensor-space action monomial by monomial
on the window the truncation determines.
"""

from __future__ import annotations

from .linear import LinComb, element_from_json
from .polyaction import act_tensor
from .qcoeff import VFunc, quantum_integer, v_gap, v_sub
from .superindex import (
    Profile,
    SuperMatrix,
    a_bar,
    f_stat,
    g_stat,
    json_ints,
    preceq,
    s_sign,
    sigma,
    super_dot,
    zero_matrix,
)
from .words import E, K, GenLetter, Word, apply_word, word_text
from .words import e as e_letter
from .words import f as f_letter
from .words import k as k_letter


class SeriesBasis:
    """Label (A, j): a diagonal-free matrix and an integer twist vector."""

    __slots__ = ("mat", "j", "_hash")

    def __init__(self, mat: SuperMatrix, j):
        if not mat.is_offdiag():
            raise ValueError("series labels need a diagonal-free matrix")
        j = tuple(int(x) for x in j)
        if len(j) != mat.profile.size:
            raise ValueError(f"twist vector must have length {mat.profile.size}")
        self.mat = mat
        self.j = j
        self._hash = hash((mat, j))

    @classmethod
    def _make(cls, mat, j):
        b = object.__new__(cls)
        b.mat = mat
        b.j = j
        b._hash = hash((mat, j))
        return b

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return (
            isinstance(other, SeriesBasis)
            and self.mat == other.mat
            and self.j == other.j
        )

    def __repr__(self):
        body = ";".join(",".join(map(str, r)) for r in self.mat.rows)
        return f"({body})({','.join(map(str, self.j))})"


def one_label(p: Profile) -> SeriesBasis:
    """The identity label O(0)."""
    return SeriesBasis._make(zero_matrix(p), (0,) * p.size)


def unit(mat: SuperMatrix, j) -> LinComb:
    return LinComb.single(SeriesBasis(mat, j))


def _shift_j(j: tuple, i: int, d: int) -> tuple:
    return j[: i - 1] + (j[i - 1] + d,) + j[i:]


def act_letter(letter: GenLetter, b: SeriesBasis, signed: bool = False) -> LinComb:
    """One generator on a label.

    K_i^e scales by v_i^(e row_i sum) and shifts the twist by e e_i.  E_h
    moves a unit from row h+1 to row h, F_h from row h to row h+1, in four
    parts: plain moves in the columns on the source row's side, moves in the
    columns on the destination row's side with the twist shifted by +alpha_h
    (E) or -alpha_h (F), a difference quotient when the (source, destination)
    slot can be emptied, and the unconditional move into the (destination,
    source) slot.  Weights are v_dst powers of the f (E) or g (F) statistic.
    Moves that would push an off-diagonal-block entry past 1 produce the zero
    series and are dropped.

    With signed=True the sign prefactor uses the signed-basis statistic
    instead of sigma, taken on the source label for E and on each term's
    target label for F; everything else is identical.
    """
    a = b.mat
    p = a.profile
    m, size = p.m, p.size
    j = b.j
    if letter.kind == K:
        i = letter.index
        if not 1 <= i <= size:
            raise IndexError(f"K index {i} out of range 1..{size}")
        coeff = v_sub(i, letter.power * a.row_sum(i), m)
        return LinComb._raw({SeriesBasis._make(a, _shift_j(j, i, letter.power)): coeff})
    h = letter.index
    if not 1 <= h < size:
        raise IndexError(f"generator index {h} out of range 1..{size - 1}")
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
        c = v_sub(dst, stat(h, dst, a) - j[dst - 1], m) / v_gap(dst, m)
        twisted = twisted or _shift_j(_shift_j(j, dst, 1), src, -1)
        put(target, dst, c, twisted)
        put(target, dst, -c, _shift_j(_shift_j(j, h, -1), h + 1, -1))
    target = a.shift(((dst, src, 1),))
    if target is not None:
        exp = stat(h, src, a) + (-j[src - 1] if h == m else j[src - 1])
        c = v_sub(dst, exp, m) * quantum_integer(row_dst[src - 1] + 1)
        put(target, src, c, j)
    return LinComb._raw(out)


def act_element(letter: GenLetter, x: LinComb) -> LinComb:
    return x.bind(lambda b: act_letter(letter, b))


def act_word(word: Word, x: LinComb) -> LinComb:
    return apply_word(word, x, act_letter)


def _diag_tuples(size: int, total: int):
    if size == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _diag_tuples(size - 1, total - first):
            yield (first,) + rest


def truncate(b: SeriesBasis, level: int) -> LinComb:
    """Finite witness of a label: sum over |lam| <= level of
    v^(lam * j) X^[A + diag(lam)]."""
    if level < 0:
        raise ValueError("truncation level must be >= 0")
    p = b.mat.profile
    terms = {}
    for total in range(level + 1):
        for lam in _diag_tuples(p.size, total):
            terms[b.mat.add_diag(lam)] = VFunc.v_power(super_dot(lam, b.j, p))
    return LinComb._raw(terms)


def truncate_element(x: LinComb, level: int) -> LinComb:
    return x.bind(lambda b: truncate(b, level))


def compare_truncated(letter: GenLetter, b: SeriesBasis, level: int) -> bool:
    """Check the explicit action of one generator on one label against the
    tensor action of the truncated series.  One generator application moves
    the diagonal level by at most one, so the two sides are both complete on
    monomials of level <= level - 1; they must agree there exactly.
    """
    if level < 1:
        raise ValueError("comparison needs level >= 1")
    window = level - 1
    lhs = truncate(b, level).bind(lambda mat: act_tensor(letter, mat))
    lhs = lhs.filter_keys(lambda mat: mat.diag_total() <= window)
    # Label matrices are diagonal-free, so truncating at the window is exact.
    return lhs == truncate_element(act_letter(letter, b), window)


def monomial_word(mat: SuperMatrix, j) -> Word:
    """The generator word whose action on O(0) has leading label (A, j):
    lowering blocks column by column, the twist as K powers, then raising
    blocks from the last column down to the second.  Letters with zero
    divided power are omitted.
    """
    if not mat.is_offdiag():
        raise ValueError("monomial words are indexed by diagonal-free matrices")
    size = mat.profile.size
    j = tuple(int(x) for x in j)
    if len(j) != size:
        raise ValueError(f"twist vector must have length {size}")
    letters = []
    for col in range(1, size):
        for row in range(col + 1, size + 1):
            amount = mat.entry(row, col)
            if amount:
                letters.extend(
                    f_letter(idx, amount) for idx in range(row - 1, col - 1, -1)
                )
    for i in range(1, size + 1):
        if j[i - 1]:
            letters.append(k_letter(i, j[i - 1]))
    for col in range(size, 1, -1):
        for row in range(col - 1, 0, -1):
            amount = mat.entry(row, col)
            if amount:
                letters.extend(e_letter(idx, amount) for idx in range(row, col))
    return tuple(letters)


def leading_decompose(x: LinComb, mat: SuperMatrix):
    """Split off the part of x sitting at the matrix mat (all twists) from
    the strictly lower remainder; reject inputs with labels not below mat."""
    lead = {}
    rest = {}
    for b, c in x:
        if b.mat == mat:
            lead[b] = c
        elif preceq(b.mat, mat):
            rest[b] = c
        else:
            raise ValueError(f"label {b!r} is not dominated by the leading matrix")
    return LinComb._raw(lead), LinComb._raw(rest)


_EXPAND_CACHE: dict = {}


def expand_as_words(mat: SuperMatrix, j) -> tuple:
    """Write the label (A, j) as a combination of generator words applied to
    O(0): act with the label's own word, peel off the unit leading term, and
    eliminate the strictly lower remainder recursively.  Returns a tuple of
    (coefficient, word) pairs."""
    key = SeriesBasis(mat, j)
    hit = _EXPAND_CACHE.get(key)
    if hit is not None:
        return hit
    word = monomial_word(mat, j)
    x = act_word(word, LinComb.single(one_label(mat.profile)))
    lead, rest = leading_decompose(x, mat)
    if len(lead) != 1:
        raise RuntimeError(f"leading part of {key!r} is not a single label")
    (lead_key, u), = lead.terms.items()
    if lead_key != key:
        raise RuntimeError(f"leading twist mismatch: {lead_key!r} != {key!r}")
    if u.as_unit_monomial() is None:
        raise RuntimeError(f"leading coefficient {u!r} is not +-v^c")
    out = (LinComb.single(word) - rest.bind(_words)).scale(u.inv())
    result = tuple(
        (c, w)
        for w, c in sorted(out.terms.items(), key=lambda kv: (len(kv[0]), word_text(kv[0])))
    )
    _EXPAND_CACHE[key] = result
    return result


def _words(b: SeriesBasis) -> LinComb:
    """The cached expansion of a label, as a combination keyed by word."""
    return LinComb._raw({w: c for c, w in expand_as_words(b.mat, b.j)})


def multiply(x: LinComb, y: LinComb) -> LinComb:
    """Product in the supergroup: expand each left label into generator words
    and act with them on the right element."""
    return x.bind(_words).bind(lambda w: act_word(w, y))


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
