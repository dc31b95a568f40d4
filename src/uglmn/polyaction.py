"""Module actions on polynomial superalgebras.

Two factor superalgebras share one index set: in flavor "0|1" the first m
variables are even (symmetric) and the last n odd (exterior); flavor "1|0"
swaps the roles.  Monomials are divided powers X^(a) = prod X_i^{a_i}/[a_i]!,
so odd slots only carry exponents 0 or 1 and a monomial with an odd exponent
pushed to 2 is zero.

Generator actions on divided monomials:

    K_i . X^(a) = v_i^{a_i} X^(a)
    E_h . X^(a) = [a_h + 1] X^(a + alpha_h)   if a_{h+1} > 0, else 0
    F_h . X^(a) = [a_{h+1} + 1] X^(a - alpha_h) if a_h > 0, else 0

The mixed tensor space takes m factors of flavor "0|1" followed by n factors
of flavor "1|0"; its monomials X^[A] are indexed by SuperMatrix columns.  The
closed-form action uses the sigma/f/g statistics; an independent route
expands the iterated coproduct over the factors and inserts Koszul signs, and
the two must agree.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections import namedtuple

from .linear import LinComb, element_from_json
from .qcoeff import VFunc, quantum_integer, v_sub
from .superindex import Profile, SuperMatrix, f_stats, g_stats, json_ints, odd_counts
from .words import E, K, GenLetter, Word, apply_word, check_letter
from .words import f as f_letter

ZERO_ONE = "0|1"
ONE_ZERO = "1|0"


def odd_slot(profile: Profile, flavor: str, i: int) -> bool:
    """True when the 1-based slot i is an odd variable of the flavor."""
    return i > profile.m if flavor == ZERO_ONE else i <= profile.m


class DividedMonomial(namedtuple("DividedMonomial", "profile flavor exps")):
    """A divided-power monomial of one factor algebra."""

    __slots__ = ()

    def __new__(cls, profile: Profile, flavor: str, exps):
        if flavor not in (ZERO_ONE, ONE_ZERO):
            raise ValueError(f"unknown flavor {flavor!r}")
        exps = tuple(map(operator.index, exps))
        if len(exps) != profile.size:
            raise ValueError(f"exponent vector must have length {profile.size}")
        for i, x in enumerate(exps, 1):
            if x < 0:
                raise ValueError("exponents must be nonnegative")
            if x > 1 and odd_slot(profile, flavor, i):
                raise ValueError(f"odd slot {i} carries exponent {x} > 1")
        return tuple.__new__(cls, (profile, flavor, exps))

    @classmethod
    def _make(cls, profile, flavor, exps):
        return tuple.__new__(cls, (profile, flavor, exps))

    def degree(self) -> int:
        return sum(self.exps)

    def parity(self) -> int:
        m = self.profile.m
        odd = self.exps[m:] if self.flavor == ZERO_ONE else self.exps[:m]
        return sum(odd) & 1

    def __repr__(self):
        return f"X^({','.join(map(str, self.exps))};{self.flavor})"


@functools.cache
def _coeff(h: int, exp: int, m: int, bracket: int, neg: bool) -> VFunc:
    """(+-) v_h^exp [bracket]; for [1] the memoized v_h^exp itself, which
    the coproduct route's _move_coeff shares."""
    c = v_sub(h, exp, m)
    if bracket != 1:
        c = c * quantum_integer(bracket)
    return -c if neg else c


@functools.cache
def _move_coeff(bracket: int, exp: int, neg: bool) -> VFunc:
    """(+-) [bracket] v^exp; for [1] the memoized v^exp itself."""
    c = VFunc.v_power(exp)
    if bracket != 1:
        c = quantum_integer(bracket) * c
    return -c if neg else c


_EMPTY = LinComb._raw({})


def _ef_factor(x: DividedMonomial, kind: str, h: int):
    """One E_h/F_h move on a divided monomial: (target exponents, n) with
    coefficient [n], or None; h must exist at the profile."""
    a = x.exps
    if kind == E:
        if a[h] == 0:
            return None
        if a[h - 1] == 1 and odd_slot(x.profile, x.flavor, h):
            return None  # odd variable squares to zero
        return a[: h - 1] + (a[h - 1] + 1, a[h] - 1) + a[h + 1 :], a[h - 1] + 1
    else:
        if a[h - 1] == 0:
            return None
        if a[h] == 1 and odd_slot(x.profile, x.flavor, h + 1):
            return None
        return a[: h - 1] + (a[h - 1] - 1, a[h] + 1) + a[h + 1 :], a[h] + 1


def act_factor(letter: GenLetter, x: DividedMonomial) -> LinComb:
    """Single-generator action on a divided monomial of one factor algebra."""
    check_letter(letter, x.profile.size)
    if letter.kind == K:
        i = letter.index
        return LinComb._raw({x: v_sub(i, letter.power * x.exps[i - 1], x.profile.m)})
    res = _ef_factor(x, letter.kind, letter.index)
    if res is None:
        return _EMPTY
    exps, bracket = res
    target = DividedMonomial._make(x.profile, x.flavor, exps)
    return LinComb._raw({target: quantum_integer(bracket)})


def column_flavor(p: Profile, j: int) -> str:
    return ZERO_ONE if j <= p.m else ONE_ZERO


def column_monomials(a: SuperMatrix) -> list:
    p = a.profile
    return [
        DividedMonomial._make(p, column_flavor(p, j + 1), tuple(r[j] for r in a.rows))
        for j in range(p.size)
    ]


def act_tensor(letter: GenLetter, a: SuperMatrix) -> LinComb:
    """Closed-form action on a tensor monomial X^[A].

    K_i multiplies by v_i^(row_i sum); E_h/F_h move one unit between rows h
    and h+1 inside each admissible column, weighted by the f/g statistics and
    the sign (-1)^sigma when h = m.  One pass takes the statistic of every
    column (f_stats, g_stats) and, when h = m, every sigma as one prefix sum
    of the odd-block column counts.
    """
    p = a.profile
    m = p.m
    check_letter(letter, p.size)
    if letter.kind == K:
        i = letter.index
        return LinComb._raw({a: v_sub(i, letter.power * a.row_sum(i), m)})
    h = letter.index
    # E_h moves one unit from row h+1 to row h, F_h from row h to row h+1.
    src, dst = (h + 1, h) if letter.kind == E else (h, h + 1)
    stats = (f_stats if letter.kind == E else g_stats)(h, a)
    sigmas = itertools.accumulate(odd_counts(a), initial=0) if h == m else itertools.repeat(0)
    row_dst = a.rows[dst - 1]
    # Each column moves to its own target and [n] != 0 for n >= 1, so the
    # terms are stored, never summed.
    out: dict = {}
    for i, (x, stat, sig) in enumerate(zip(a.rows[src - 1], stats, sigmas), 1):
        if x < 1:
            continue
        target = a.move(src, dst, i)
        if target is not None:
            out[target] = _coeff(dst, stat, m, row_dst[i - 1] + 1, sig & 1 == 1)
    return LinComb._raw(out)


def _splice(a: SuperMatrix, h: int, j: int, col) -> SuperMatrix:
    """a with its column j replaced by col, which differs from it only in
    rows h and h+1: only those two rows are rebuilt."""
    rows = a.rows
    r, s = rows[h - 1], rows[h]
    moved = (r[: j - 1] + (col[h - 1],) + r[j:], s[: j - 1] + (col[h],) + s[j:])
    return SuperMatrix._make(a.profile, rows[: h - 1] + moved + rows[h + 1 :])


def act_tensor_coproduct(letter: GenLetter, a: SuperMatrix, _cols=None) -> LinComb:
    """Tensor action computed structurally from the iterated coproduct.

    K goes to K x ... x K.  E_h spreads as 1 x .. x E_h x Ktilde_h x .. with
    Ktilde_h = K_h K_{h+1}^{-1}; F_h as Ktilde_h^{-1} x .. x F_h x 1 x ...
    Moving an odd generator past the first factors inserts the Koszul sign
    (-1)^(sum of the skipped column parities); only E_m and F_m are odd, so
    the parities are summed for them alone.

    Every K-type weight is a pure power of v, so it is carried as an integer
    exponent: K_i^e scales a column with exponents c by v^(s(i) e c_i), where
    s(i) = +1 for i <= m and -1 otherwise.  A K letter sums these exponents
    over the columns; for E/F the Ktilde weights of the columns right of
    (for E) or left of (for F) the moving factor form a running sum, the
    tail, and each move builds the single coefficient +-[bracket] v^tail.
    """
    p = a.profile
    m = p.m
    check_letter(letter, p.size)
    cols = column_monomials(a) if _cols is None else _cols
    if letter.kind == K:
        i = letter.index
        sgn = letter.power if i <= m else -letter.power
        # v^e is never zero, so the single term is stored as it is.
        return LinComb._raw({a: VFunc.v_power(sum(sgn * col.exps[i - 1] for col in cols))})

    h = letter.index
    odd = h == m
    is_e = letter.kind == E
    # Exponent of Ktilde_h on each column: s(h) c_h - s(h+1) c_{h+1}.
    s_h = 1 if h <= m else -1
    s_h1 = 1 if h + 1 <= m else -1
    weights = [s_h * col.exps[h - 1] - s_h1 * col.exps[h] for col in cols]
    # E: Ktilde_h on every column right of the mover; F: Ktilde_h^{-1} left.
    tail = sum(weights) if is_e else 0
    out: dict = {}
    par = 0  # parity of the columns already passed, summed only when odd
    for j, (col, w) in enumerate(zip(cols, weights), 1):
        if is_e:
            tail -= w
        res = _ef_factor(col, letter.kind, h)
        if res is not None:
            exps, bracket = res
            # Each column moves to a distinct target, so nothing accumulates.
            out[_splice(a, h, j, exps)] = _move_coeff(bracket, tail, par & 1 == 1)
        if not is_e:
            tail -= w
        if odd:
            par += col.parity()
    return LinComb._raw(out)


def act_word_factor(word: Word, x: LinComb) -> LinComb:
    return apply_word(word, x, act_factor)


def highest_weight_word(r: int, a, profile: Profile) -> Word:
    """The lowering word carrying X^(r e_1) to X^(a) with coefficient one.

    Built of blocks, one per slot k = 2..m+n: the block for slot k walks the
    packet a_k down the chain 1 -> 2 -> ... -> k (letters F_{k-1} ... F_1 in
    writing order, so F_1 acts first).  Blocks for larger k are written
    further right and act earlier.
    """
    a = DividedMonomial(profile, ZERO_ONE, a).exps
    if sum(a) != r:
        raise ValueError(f"weight vector sums to {sum(a)}, expected {r}")
    letters = []
    for kslot in range(2, profile.size + 1):
        amount = a[kslot - 1]
        if amount == 0:
            continue
        letters.extend(f_letter(j, amount) for j in range(kslot - 1, 0, -1))
    return tuple(letters)


def reversed_e_word(word: Word) -> Word:
    """The raising companion of a lowering word: reverse and swap F -> E."""
    return tuple(GenLetter(E, l.index, l.power) for l in reversed(word))


def factor_element_to_json(x: LinComb) -> list:
    items = sorted(x.terms.items(), key=lambda kv: kv[0].exps)
    return [{"coeff": c.to_json(), "a": list(mono.exps)} for mono, c in items]


def factor_element_from_json(obj, profile: Profile, flavor: str) -> LinComb:
    return element_from_json(
        obj, lambda t: DividedMonomial(profile, flavor, json_ints(t["a"], "exponents a"))
    )


def tensor_element_to_json(x: LinComb) -> list:
    items = sorted(x.terms.items(), key=lambda kv: kv[0].rows)
    return [{"coeff": c.to_json(), "A": a.to_json()} for a, c in items]


def tensor_element_from_json(obj) -> LinComb:
    return element_from_json(obj, lambda t: SuperMatrix.from_json(t["A"]))
