"""Combinatorial indexing for the m|n superworld: parities, the signed dot
product, matrix sets with Z2-constrained off-diagonal blocks, the row/column
statistics entering the action formulas, and the dominance-style order on
matrices.

All public indices are 1-based.
"""

from __future__ import annotations

import itertools
import operator
from collections import namedtuple


def _check_index(size: int, i: int, h=None) -> None:
    """IndexError unless 1 <= i <= size and, when h is given, 1 <= h < size."""
    if h is not None and not 1 <= h < size:
        raise IndexError(f"index {h} out of range 1..{size - 1}")
    if not 1 <= i <= size:
        raise IndexError(f"index {i} out of range 1..{size}")


class Profile(namedtuple("Profile", "m n")):
    """Block sizes (m, n) with m + n > 0; indices 1..m are even, the rest odd."""

    __slots__ = ()

    def __new__(cls, m: int, n: int):
        if m < 0 or n < 0 or m + n == 0:
            raise ValueError("profile needs m, n >= 0 and m + n > 0")
        return tuple.__new__(cls, (m, n))

    @property
    def size(self) -> int:
        return self.m + self.n

    def parity(self, i: int) -> int:
        _check_index(self.size, i)
        return 0 if i <= self.m else 1


def json_ints(values, what: str) -> tuple:
    """A JSON list of integers as a tuple.  Floats and booleans are rejected,
    not truncated: int(0.5) would silently read 0."""
    if not isinstance(values, list) or not all(type(x) is int for x in values):
        raise ValueError(f"{what} must be a JSON list of integers, got {values!r}")
    return tuple(values)


def super_dot(a, b, p: Profile) -> int:
    """Signed dot product: sum_i (-1)^parity(i) * a_i * b_i."""
    if len(a) != len(b) or len(a) != p.size:
        raise ValueError("vector length mismatch")
    m = p.m
    return sum(x * y for x, y in zip(a[:m], b[:m])) - sum(x * y for x, y in zip(a[m:], b[m:]))


def basis_vector(i: int, size: int) -> tuple:
    _check_index(size, i)
    return tuple(1 if k == i - 1 else 0 for k in range(size))


def alpha(h: int, size: int) -> tuple:
    """e_h - e_{h+1} for 1 <= h < size."""
    if not 1 <= h < size:
        raise IndexError(f"simple-root index {h} out of range 1..{size - 1}")
    return tuple(1 if k == h - 1 else -1 if k == h else 0 for k in range(size))


class SuperMatrix(namedtuple("SuperMatrix", "profile rows")):
    """A square matrix over N with Z2-valued off-diagonal blocks: entries
    a_{i,j} with parities of i and j differing must be 0 or 1."""

    __slots__ = ()

    def __new__(cls, profile: Profile, rows):
        rows = tuple(tuple(int(x) for x in r) for r in rows)
        size = profile.size
        if len(rows) != size or any(len(r) != size for r in rows):
            raise ValueError(f"matrix must be {size}x{size}")
        m = profile.m
        for i, row in enumerate(rows):
            for j, x in enumerate(row):
                if x < 0:
                    raise ValueError("matrix entries must be nonnegative")
                if x > 1 and (i < m) != (j < m):
                    raise ValueError(
                        f"off-diagonal-block entry ({i + 1},{j + 1}) = {x} exceeds 1"
                    )
        return tuple.__new__(cls, (profile, rows))

    @classmethod
    def _make(cls, profile: Profile, rows: tuple) -> "SuperMatrix":
        # Trusted constructor: rows validated by the caller.
        return tuple.__new__(cls, (profile, rows))

    def entry(self, i: int, j: int) -> int:
        return self.rows[i - 1][j - 1]

    def row_sum(self, i: int) -> int:
        return sum(self.rows[i - 1])

    def total(self) -> int:
        return sum(map(sum, self.rows))

    def diag_total(self) -> int:
        return sum(r[i] for i, r in enumerate(self.rows))

    def offdiag_total(self) -> int:
        return self.total() - self.diag_total()

    def is_offdiag(self) -> bool:
        return all(r[i] == 0 for i, r in enumerate(self.rows))

    def shift(self, moves):
        """Return the matrix with unit moves ((i, j, delta), ...) applied,
        or None when an off-diagonal-block entry would exceed 1 (the
        corresponding monomial is zero: odd variables square to zero).
        A move that would make an entry negative is a ValueError.
        """
        m = self.profile.m
        rows = [list(r) for r in self.rows]
        for i, j, d in moves:
            x = rows[i - 1][j - 1] + d
            if x < 0:
                raise ValueError(f"entry ({i},{j}) would become {x} < 0")
            if x > 1 and (i <= m) != (j <= m):
                return None
            rows[i - 1][j - 1] = x
        return SuperMatrix._make(self.profile, tuple(tuple(r) for r in rows))

    def with_column(self, j: int, col) -> "SuperMatrix":
        rows = tuple(
            r[: j - 1] + (col[i],) + r[j:] for i, r in enumerate(self.rows)
        )
        return SuperMatrix._make(self.profile, rows)

    def add_diag(self, lam) -> "SuperMatrix":
        rows = tuple(
            r[:i] + (r[i] + lam[i],) + r[i + 1 :] for i, r in enumerate(self.rows)
        )
        return SuperMatrix._make(self.profile, rows)

    def __repr__(self):
        body = ";".join(",".join(str(x) for x in r) for r in self.rows)
        return f"SuperMatrix({self.profile.m}|{self.profile.n}, '{body}')"

    def to_json(self) -> dict:
        return {
            "m": self.profile.m,
            "n": self.profile.n,
            "entries": [list(r) for r in self.rows],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SuperMatrix":
        m, n = json_ints([obj["m"], obj["n"]], "matrix m, n")
        return cls(Profile(m, n), [json_ints(r, "matrix row") for r in obj["entries"]])


def zero_matrix(p: Profile) -> SuperMatrix:
    row = (0,) * p.size
    return SuperMatrix._make(p, (row,) * p.size)


def unit_matrix(p: Profile, i: int, j: int) -> SuperMatrix:
    """The elementary matrix with a single 1 at (i, j)."""
    return zero_matrix(p).shift(((i, j, 1),))


def odd_counts(a: SuperMatrix) -> list:
    """For each column, the sum of its odd-block entries: rows > m in the
    first m columns, rows <= m in the others."""
    m = a.profile.m
    return [sum(c[m:]) if t < m else sum(c[:m]) for t, c in enumerate(zip(*a.rows))]


def sigma(i: int, a: SuperMatrix) -> int:
    """Count of odd-block entries in the columns strictly before column i."""
    _check_index(a.profile.size, i)
    return sum(odd_counts(a)[: i - 1])


def f_stat(h: int, i: int, a: SuperMatrix) -> int:
    """Signed count of row-h/h+1 entries to the right of column i."""
    p = a.profile
    _check_index(p.size, i, h)
    sgn = -1 if h == p.m else 1
    return sum(a.rows[h - 1][i:]) - sgn * sum(a.rows[h][i:])


def g_stat(h: int, i: int, a: SuperMatrix) -> int:
    """Signed count of row-h+1/h entries to the left of column i."""
    p = a.profile
    _check_index(p.size, i, h)
    sgn = -1 if h == p.m else 1
    return sum(a.rows[h][: i - 1]) - sgn * sum(a.rows[h - 1][: i - 1])


def a_bar(a: SuperMatrix) -> int:
    """Sum over pairs of upper-right-block entries in strictly increasing
    columns: sum_{i,k <= m; m < j < l} a_{i,j} a_{k,l}."""
    total = seen = 0
    for x in odd_counts(a)[a.profile.m :]:
        total += seen * x
        seen += x
    return total


def s_sign(h: int, i: int, a: SuperMatrix) -> int:
    """Sign exponent of the signed-basis action: for h = m, the count of
    lower-left entries in columns <= min(i-1, m) plus, when i > m, the count
    of upper-right entries in columns > i; zero for h != m."""
    p = a.profile
    _check_index(p.size, i, h)
    if h != p.m:
        return 0
    o = odd_counts(a)
    return sum(o[: min(i - 1, p.m)]) + (sum(o[i:]) if i > p.m else 0)


def matrix_parity(a: SuperMatrix) -> int:
    """Total of odd-block entries mod 2."""
    return sum(odd_counts(a)) & 1


def corner_sums(a: SuperMatrix) -> list:
    """Every corner sum of a, in row-major order of (s, t) with s != t: over
    rows <= s and columns >= t when s < t, over rows >= s and columns <= t
    when s > t."""
    rows = a.rows
    prefix = []  # prefix[s][t]: the sum over rows <= s and columns <= t
    run = [0] * len(rows)
    for row in rows:
        run = list(map(operator.add, run, itertools.accumulate(row)))
        prefix.append(run)
    above, out = [0] * len(rows), []  # above: the prefix sums of rows < s
    for s, cur in enumerate(prefix):
        out += map(operator.sub, run[:s], above)  # t < s: rows >= s
        out += [cur[-1] - x for x in cur[s:-1]]  # t > s: rows <= s less columns < t
        above = cur
    return out


def preceq(a: SuperMatrix, b: SuperMatrix) -> bool:
    """True iff every corner sum of a is <= the same corner sum of b."""
    if a.profile != b.profile:
        raise ValueError("profile mismatch")
    return all(x <= y for x, y in zip(corner_sums(a), corner_sums(b)))


def strictly_lower(a: SuperMatrix, b: SuperMatrix) -> bool:
    return a != b and preceq(a, b)


def _matrices(p: Profile, bound: int, diag_bound: int, shard: int, nshards: int):
    """Every SuperMatrix with entries <= bound, off-diagonal blocks capped at
    1 and the diagonal at diag_bound, in row-major lexicographic order; only
    those with index = shard mod nshards, skipped before any matrix is built."""
    if not 0 <= shard < nshards:
        raise ValueError(f"shard {shard} out of range 0..{nshards - 1}")
    m, size = p.m, p.size
    ranges = [
        range((diag_bound if i == j else min(bound, 1) if (i < m) != (j < m) else bound) + 1)
        for i in range(size)
        for j in range(size)
    ]
    for flat in itertools.islice(itertools.product(*ranges), shard, None, nshards):
        yield SuperMatrix._make(p, tuple(flat[i * size : (i + 1) * size] for i in range(size)))


def all_matrices(p: Profile, bound: int, shard: int = 0, nshards: int = 1):
    """Iterate every SuperMatrix with entries <= bound (off-diagonal blocks
    capped at 1), in row-major lexicographic order; with nshards > 1 only
    every nshards-th of them, starting at index shard."""
    yield from _matrices(p, bound, bound, shard, nshards)


def all_offdiag(p: Profile, bound: int, shard: int = 0, nshards: int = 1):
    """Iterate every diagonal-free SuperMatrix with entries <= bound, in the
    order of all_matrices; with nshards > 1 only every nshards-th of them,
    starting at index shard."""
    yield from _matrices(p, bound, 0, shard, nshards)
