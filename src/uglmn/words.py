"""Formal words in the generators E_h^(a), F_h^(a), K_i^e.

A word is a tuple of letters written left to right; as an operator product the
rightmost letter acts first.  E/F letters carry a divided-power exponent
a >= 1 (the a-fold application divided by [a]!); K letters carry an integer
exponent, possibly negative.
"""

from __future__ import annotations

import functools
import operator
import re
from collections import namedtuple

from .linear import LinComb
from .qcoeff import quantum_factorial_inv

E, F, K = "E", "F", "K"


class GenLetter(namedtuple("GenLetter", "kind index power")):
    __slots__ = ()

    def __new__(cls, kind: str, index: int, power: int = 1):
        index, power = operator.index(index), operator.index(power)
        if kind not in (E, F, K):
            raise ValueError(f"unknown generator kind {kind!r}")
        if index < 1:
            raise ValueError("generator index must be >= 1")
        if kind == K:
            if power == 0:
                raise ValueError("K letter needs a nonzero exponent")
        elif power < 1:
            raise ValueError("divided-power exponent must be >= 1")
        return tuple.__new__(cls, (kind, index, power))

    def text(self) -> str:
        if self.kind == K:
            return f"K{self.index}" if self.power == 1 else f"K{self.index}^{self.power}"
        if self.power == 1:
            return f"{self.kind}{self.index}"
        return f"{self.kind}{self.index}^({self.power})"


Word = tuple  # tuple[GenLetter, ...]


def check_index(letter: GenLetter, size: int) -> None:
    """Raise IndexError unless the letter exists at m + n = size: K_i needs
    i <= size, and E_h, F_h need h < size."""
    top = size if letter.kind == K else size - 1
    if letter.index > top:
        raise IndexError(f"generator {letter.text()} needs an index in 1..{top} when m + n = {size}")


@functools.cache
def check_letter(letter: GenLetter, size: int) -> None:
    """check_index, and a ValueError for an E/F letter of divided power a
    other than 1, which only apply_word takes (as a letters).  Memoized:
    letters are few, and a raised error is never cached."""
    check_index(letter, size)
    if letter.kind != K and letter.power != 1:
        raise ValueError(f"single-letter actions take E/F letters of power 1, not {letter.text()}")


def e(h: int, a: int = 1) -> GenLetter:
    return GenLetter(E, h, a)


def f(h: int, a: int = 1) -> GenLetter:
    return GenLetter(F, h, a)


def k(i: int, exp: int = 1) -> GenLetter:
    return GenLetter(K, i, exp)


def word_text(word: Word) -> str:
    return " ".join(letter.text() for letter in word)


_LETTER_RE = re.compile(r"^([EFK])(\d+)(?:\^(?:\((-?\d+)\)|(-?\d+)))?$")


def word_from_text(text: str) -> Word:
    out = []
    for tok in text.split():
        m = _LETTER_RE.match(tok)
        if not m:
            raise ValueError(f"cannot parse generator letter {tok!r}")
        kind, idx, p1, p2 = m.groups()
        power = int(p1 if p1 is not None else p2) if (p1 or p2) else 1
        out.append(GenLetter(kind, int(idx), power))
    return tuple(out)


def apply_word(word: Word, x: LinComb, act) -> LinComb:
    """Apply a word to an element, rightmost letter first.

    act(letter, key) -> LinComb must handle E/F letters of power 1 and K
    letters of arbitrary exponent.
    """
    for letter in reversed(word):
        if x.is_zero():
            return x
        if letter.kind == K or letter.power == 1:
            x = x.bind(lambda key: act(letter, key))
        else:
            single = GenLetter(letter.kind, letter.index, 1)
            for _ in range(letter.power):
                x = x.bind(lambda key: act(single, key))
                if x.is_zero():
                    return x
            x = x.scale(quantum_factorial_inv(letter.power))
    return x


def horner_plan(words: LinComb) -> list:
    """The trie of word prefixes of sum_w c_w w: a node is [c, children],
    with c the coefficient of the word that ends there (None if none) and
    children {letter: node} over the prefixes one letter longer."""
    root = [None, {}]
    for w, c in words:
        node = root
        for letter in w:
            node = node[1].setdefault(letter, [None, {}])
        node[0] = c
    return root


def apply_plan(plan: list, x: LinComb, act) -> LinComb:
    """sum_w c_w w(x) from its horner_plan: the node of a prefix p yields
    sum_{w = p w'} c_w w'(x), its c times x plus each child's letter acting
    once on the child's sum: the words that begin with one letter apply it
    once, where it costs most.  The recursion is as deep as the longest word."""
    c, children = plan
    out = LinComb.zero() if c is None else x.scale(c)
    for letter, child in children.items():
        out = out + apply_word((letter,), apply_plan(child, x, act), act)
    return out


def apply_words(words: LinComb, x: LinComb, act) -> LinComb:
    """sum_w c_w w(x) in Horner form (see apply_plan)."""
    return apply_plan(horner_plan(words), x, act)
