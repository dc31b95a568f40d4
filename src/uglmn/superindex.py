"""Combinatorial indexing for the m|n superworld: parities, the signed dot
product, matrix sets with Z2-constrained off-diagonal blocks, the row/column
statistics entering the action formulas, and the dominance-style order on
matrices.

All public indices are 1-based.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass


@dataclass(frozen=True)
class Profile:
    """Block sizes (m, n) with m + n > 0; indices 1..m are even, the rest odd."""

    m: int
    n: int

    def __post_init__(self):
        if self.m < 0 or self.n < 0 or self.m + self.n == 0:
            raise ValueError("profile needs m, n >= 0 and m + n > 0")

    @property
    def size(self) -> int:
        return self.m + self.n

    def parity(self, i: int) -> int:
        if not 1 <= i <= self.size:
            raise IndexError(f"index {i} out of range 1..{self.size}")
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
    if not 1 <= i <= size:
        raise IndexError(f"index {i} out of range 1..{size}")
    return tuple(1 if k == i - 1 else 0 for k in range(size))


def alpha(h: int, size: int) -> tuple:
    """e_h - e_{h+1} for 1 <= h < size."""
    if not 1 <= h < size:
        raise IndexError(f"simple-root index {h} out of range 1..{size - 1}")
    return tuple(1 if k == h - 1 else -1 if k == h else 0 for k in range(size))


class SuperMatrix:
    """A square matrix over N with Z2-valued off-diagonal blocks: entries
    a_{i,j} with parities of i and j differing must be 0 or 1."""

    __slots__ = ("profile", "rows", "_hash")

    def __init__(self, profile: Profile, rows):
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
        self.profile = profile
        self.rows = rows
        self._hash = hash((profile, rows))

    @classmethod
    def _make(cls, profile: Profile, rows: tuple) -> "SuperMatrix":
        # Trusted constructor: rows validated by the caller.
        a = object.__new__(cls)
        a.profile = profile
        a.rows = rows
        a._hash = hash((profile, rows))
        return a

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return (
            isinstance(other, SuperMatrix)
            and self.profile == other.profile
            and self.rows == other.rows
        )

    def entry(self, i: int, j: int) -> int:
        return self.rows[i - 1][j - 1]

    def row_sum(self, i: int) -> int:
        return sum(self.rows[i - 1])

    def column(self, j: int) -> tuple:
        return tuple(r[j - 1] for r in self.rows)

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


def sigma(i: int, a: SuperMatrix) -> int:
    """Count of odd-block entries strictly "before" column position i:
    rows > m against columns < i for i <= m; for i > m, all of the lower-left
    block plus rows <= m against columns strictly between m and i.
    """
    p = a.profile
    m, size = p.m, p.size
    if not 1 <= i <= size:
        raise IndexError(f"index {i} out of range 1..{size}")
    rows = a.rows
    if i <= m:
        return sum(rows[s][t] for s in range(m, size) for t in range(i - 1))
    total = sum(rows[s][t] for s in range(m, size) for t in range(m))
    total += sum(rows[s][t] for s in range(m) for t in range(m, i - 1))
    return total


def f_stat(h: int, i: int, a: SuperMatrix) -> int:
    """Signed count of row-h/h+1 entries to the right of column i."""
    p = a.profile
    if not 1 <= h < p.size:
        raise IndexError(f"index {h} out of range 1..{p.size - 1}")
    if not 1 <= i <= p.size:
        raise IndexError(f"index {i} out of range 1..{p.size}")
    sgn = -1 if h == p.m else 1
    rh = a.rows[h - 1]
    rh1 = a.rows[h]
    return sum(rh[i:]) - sgn * sum(rh1[i:])


def g_stat(h: int, i: int, a: SuperMatrix) -> int:
    """Signed count of row-h+1/h entries to the left of column i."""
    p = a.profile
    if not 1 <= h < p.size:
        raise IndexError(f"index {h} out of range 1..{p.size - 1}")
    if not 1 <= i <= p.size:
        raise IndexError(f"index {i} out of range 1..{p.size}")
    sgn = -1 if h == p.m else 1
    rh = a.rows[h - 1]
    rh1 = a.rows[h]
    return sum(rh1[: i - 1]) - sgn * sum(rh[: i - 1])


def a_bar(a: SuperMatrix) -> int:
    """Sum over pairs of upper-right-block entries in strictly increasing
    columns: sum_{i,k <= m; m < j < l} a_{i,j} a_{k,l}."""
    p = a.profile
    m, size = p.m, p.size
    col = [sum(a.rows[i][t] for i in range(m)) for t in range(size)]
    total = 0
    for j in range(m, size):
        for l in range(j + 1, size):
            total += col[j] * col[l]
    return total


def s_sign(h: int, i: int, a: SuperMatrix) -> int:
    """Sign exponent of the signed-basis action: for h = m, the count of
    lower-left entries in columns <= min(i-1, m) plus, when i > m, the count
    of upper-right entries in columns > i; zero for h != m."""
    p = a.profile
    m, size = p.m, p.size
    if not 1 <= h < size:
        raise IndexError(f"index {h} out of range 1..{size - 1}")
    if not 1 <= i <= size:
        raise IndexError(f"index {i} out of range 1..{size}")
    if h != m:
        return 0
    cut = min(i - 1, m)
    total = sum(a.rows[s][t] for s in range(m, size) for t in range(cut))
    if i > m:
        total += sum(a.rows[s][t] for s in range(m) for t in range(i, size))
    return total


def matrix_parity(a: SuperMatrix) -> int:
    """Total of odd-block entries mod 2."""
    m, size = a.profile.m, a.profile.size
    total = sum(a.rows[s][t] for s in range(m) for t in range(m, size))
    total += sum(a.rows[s][t] for s in range(m, size) for t in range(m))
    return total & 1


def upper_l(a: SuperMatrix, s: int, t: int) -> int:
    """Corner sum over rows <= s and columns >= t (requires s < t)."""
    if not s < t:
        raise ValueError("upper corner sum needs s < t")
    return sum(a.rows[i][j] for i in range(s) for j in range(t - 1, a.profile.size))


def lower_neg(a: SuperMatrix, s: int, t: int) -> int:
    """Corner sum over rows >= s and columns <= t (requires s > t)."""
    if not s > t:
        raise ValueError("lower corner sum needs s > t")
    return sum(a.rows[i][j] for i in range(s - 1, a.profile.size) for j in range(t))


def preceq(a: SuperMatrix, b: SuperMatrix) -> bool:
    """True iff every upper corner sum of a is <= that of b (s < t) and every
    lower corner sum likewise (s > t)."""
    if a.profile != b.profile:
        raise ValueError("profile mismatch")
    size = a.profile.size
    for s in range(1, size + 1):
        for t in range(1, size + 1):
            if s < t:
                if upper_l(a, s, t) > upper_l(b, s, t):
                    return False
            elif s > t:
                if lower_neg(a, s, t) > lower_neg(b, s, t):
                    return False
    return True


def strictly_lower(a: SuperMatrix, b: SuperMatrix) -> bool:
    return a != b and preceq(a, b)


def _entry_choices(p: Profile, bound: int, positions, shard: int, nshards: int):
    """Entry tuples over the given (row, column) positions with entries <= bound
    (off-diagonal blocks capped at 1), in lexicographic order; only the
    tuples with flat index = shard mod nshards, skipped before any matrix is
    built from them."""
    if not 0 <= shard < nshards:
        raise ValueError(f"shard {shard} out of range 0..{nshards - 1}")
    m = p.m
    ranges = [
        range((min(bound, 1) if (i < m) != (j < m) else bound) + 1)
        for i, j in positions
    ]
    return itertools.islice(itertools.product(*ranges), shard, None, nshards)


def all_matrices(p: Profile, bound: int, shard: int = 0, nshards: int = 1):
    """Iterate every SuperMatrix with entries <= bound (off-diagonal blocks
    capped at 1), in row-major lexicographic order; with nshards > 1 only
    every nshards-th of them, starting at index shard."""
    size = p.size
    positions = [(i, j) for i in range(size) for j in range(size)]
    for flat in _entry_choices(p, bound, positions, shard, nshards):
        rows = tuple(flat[i * size : (i + 1) * size] for i in range(size))
        yield SuperMatrix._make(p, rows)


def all_offdiag(p: Profile, bound: int, shard: int = 0, nshards: int = 1):
    """Iterate every diagonal-free SuperMatrix with entries <= bound; with
    nshards > 1 only every nshards-th of them, starting at index shard."""
    size = p.size
    positions = [(i, j) for i in range(size) for j in range(size) if i != j]
    for choice in _entry_choices(p, bound, positions, shard, nshards):
        rows = [[0] * size for _ in range(size)]
        for (i, j), x in zip(positions, choice):
            rows[i][j] = x
        yield SuperMatrix._make(p, tuple(tuple(r) for r in rows))
