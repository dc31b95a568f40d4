"""Index combinatorics: statistics, the matrix order, parities."""

import itertools
import random

import pytest

from uglmn.superindex import (
    Profile,
    SuperMatrix,
    a_bar,
    all_matrices,
    all_offdiag,
    alpha,
    basis_vector,
    corner_sums,
    count_matrices,
    count_offdiag,
    f_stat,
    f_stats,
    g_stat,
    g_stats,
    matrix_parity,
    odd_counts,
    preceq,
    s_sign,
    sigma,
    super_dot,
    unit_matrix,
    zero_matrix,
)

P11 = Profile(1, 1)
P21 = Profile(2, 1)
P12 = Profile(1, 2)
P22 = Profile(2, 2)
P31 = Profile(3, 1)
P13 = Profile(1, 3)


def mat(p, rows):
    return SuperMatrix(p, rows)


def test_profile_validation():
    with pytest.raises(ValueError):
        Profile(0, 0)
    with pytest.raises(ValueError):
        Profile(-1, 2)


def test_parity_hat():
    p = Profile(2, 1)
    assert p.parity(1) == 0
    assert p.parity(2) == 0
    assert p.parity(3) == 1
    with pytest.raises(IndexError):
        p.parity(4)


def test_super_dot():
    for p in (P11, P21, P22):
        size = p.size
        e1 = basis_vector(1, size)
        assert super_dot(e1, e1, p) == 1
        em1 = basis_vector(p.m + 1, size)
        assert super_dot(em1, em1, p) == -1
        if size >= 2:
            assert super_dot(e1, basis_vector(2, size), p) == 0


def test_super_dot_bilinear_symmetric():
    rng = random.Random(5)
    p = P21
    for _ in range(100):
        a, b, c = (tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(3))
        assert super_dot(a, b, p) == super_dot(b, a, p)
        ab = tuple(x + y for x, y in zip(b, c))
        assert super_dot(a, ab, p) == super_dot(a, b, p) + super_dot(a, c, p)


def test_alpha_beta():
    assert alpha(1, 2) == (1, -1)
    with pytest.raises(IndexError):
        alpha(2, 2)
    # e_m against e_m - e_{m+1} picks up +1 from the even slot only.
    for p in (P11, P21, P22):
        em = basis_vector(p.m, p.size)
        assert super_dot(em, alpha(p.m, p.size), p) == 1


def test_sigma_examples():
    a = mat(P11, [[0, 1], [1, 0]])
    assert odd_counts(a) == [1, 1]
    assert sigma(2, a) == 1
    assert sigma(1, a) == 0
    for p in (P11, P21, P22):
        assert sigma(p.m + 1, zero_matrix(p)) == 0
    with pytest.raises(IndexError):
        sigma(3, a)


def test_f_g_examples():
    a = mat(P11, [[0, 1], [0, 0]])
    # h = m = 1 flips the second sum's sign to +.
    assert f_stat(1, 1, a) == 1
    b = mat(P21, [[0, 1, 1], [0, 0, 1], [1, 0, 0]])
    for h in (1, 2):
        assert f_stat(h, 3, b) == 0
        assert g_stat(h, 1, b) == 0
    # h = 1 != m: f(1) = (a_{12}+a_{13}) - (a_{22}+a_{23}) = 2 - 1 = 1
    assert f_stat(1, 1, b) == 1
    # h = 2 = m: g(3) = (a_{31}+a_{32}) + (a_{21}+a_{22}) = 1 + 0 = 1
    assert g_stat(2, 3, b) == 1


def test_sigma_hm():
    # The h = m sign of the label actions is sigma itself; i > m counts the
    # whole lower-left block.
    a = mat(P11, [[0, 1], [1, 0]])
    assert sigma(2, a) == 1
    b = mat(P21, [[0, 0, 1], [0, 0, 0], [1, 1, 0]])
    assert odd_counts(b) == [1, 1, 1]
    assert sigma(3, b) == 2


def test_a_bar():
    a = mat(P12, [[0, 1, 1], [0, 0, 0], [0, 0, 0]])
    assert a_bar(a) == 1
    # A single odd column (n <= 1) cannot form a pair.
    for p in (P11, P21):
        for b in all_matrices(p, 2):
            assert a_bar(b) == 0


def test_a_bar_diag_invariance():
    rng = random.Random(11)
    for p in (P11, P12, P21, P22):
        mats = list(all_offdiag(p, 1))
        for _ in range(200):
            a = rng.choice(mats)
            lam = tuple(rng.randint(0, 3) for _ in range(p.size))
            assert a_bar(a.add_diag(lam)) == a_bar(a)


def test_a_bar_shift_identity():
    # a_bar(A) + [h=m] sigma(k, A) ==
    #   a_bar(A + E_{h,k} - E_{h+1,k})
    #   + [h=m] (sum_{i>m, j<=min(k-1,m)} a_{i,j} - [k>m] sum_{i<=m, j>k} a_{i,j})
    # checked for every shift that stays inside the matrix set.
    for p in (P12, P22):
        m, size = p.m, p.size
        for a in all_offdiag(p, 1):
            for h in range(1, size):
                for k in range(1, size + 1):
                    if a.entry(h + 1, k) < 1:
                        continue
                    target = a.shift(((h, k, 1), (h + 1, k, -1)))
                    if target is None:
                        continue
                    lhs = a_bar(a) + (sigma(k, a) if h == m else 0)
                    corr = 0
                    if h == m:
                        cut = min(k - 1, m)
                        corr = sum(
                            a.entry(i, j)
                            for i in range(m + 1, size + 1)
                            for j in range(1, cut + 1)
                        )
                        if k > m:
                            corr -= sum(
                                a.entry(i, j)
                                for i in range(1, m + 1)
                                for j in range(k + 1, size + 1)
                            )
                    assert lhs == a_bar(target) + corr


def test_s_sign_examples():
    a = mat(P11, [[0, 1], [1, 0]])
    assert s_sign(1, 2, a) == 1  # h = m: a_{21} counted, no column beyond 2
    assert s_sign(1, 1, zero_matrix(P11)) == 0
    b = mat(P21, [[0, 0, 0], [0, 0, 0], [1, 1, 0]])
    assert s_sign(1, 2, b) == 0  # h != m
    assert s_sign(2, 3, b) == 2  # a_{31} and a_{32} sit left of the min(2,2) cut


def test_corner_sums_and_preceq():
    e12 = unit_matrix(P11, 1, 2)
    e21 = unit_matrix(P11, 2, 1)
    assert corner_sums(e12) == [1, 0]  # (s, t) = (1, 2), then (2, 1)
    assert corner_sums(e21) == [0, 1]
    assert preceq(e12, e12)
    assert preceq(zero_matrix(P11), e12)
    assert not preceq(e12, e21)
    assert not preceq(e21, e12)
    with pytest.raises(ValueError):
        preceq(e12, zero_matrix(P21))


def test_preceq_reflexive_transitive():
    # Full matrix set, diagonals included: only a preorder there.
    mats = list(all_matrices(P21, 1))
    rng = random.Random(3)
    for a in mats[::7]:
        assert preceq(a, a)
    for _ in range(800):
        a, b, c = (rng.choice(mats) for _ in range(3))
        if preceq(a, b) and preceq(b, c):
            assert preceq(a, c)


@pytest.mark.parametrize("p", [P11, P21, P22, P12, P31, P13])
def test_preceq_antisymmetric_on_offdiag(p):
    # a preceq b and b preceq a iff the corner-sum signatures agree, so
    # antisymmetry on diagonal-free matrices is injectivity of the signature.
    seen = {}
    for a in all_offdiag(p, 1):
        sig = tuple(corner_sums(a))
        assert sig not in seen, f"{seen[sig]!r} and {a!r} are order-equivalent"
        seen[sig] = a


def test_matrix_parity():
    assert matrix_parity(zero_matrix(P21)) == 0
    for p in (P11, P21, P22):
        assert matrix_parity(unit_matrix(p, p.m, p.m + 1)) == 1
    assert matrix_parity(unit_matrix(P22, 1, 2)) == 0


def test_shift_drops_odd_overflow():
    a = unit_matrix(P11, 1, 2)
    assert a.shift(((1, 2, 1),)) is None  # odd-block entry would reach 2
    b = a.shift(((2, 1, 1),))
    assert b.entry(2, 1) == 1
    with pytest.raises(ValueError):
        a.shift(((2, 1, -1),))


def test_shift_rejects_negative_entry():
    # An explicit check, not an assert, so it also holds under python -O.
    with pytest.raises(ValueError):
        zero_matrix(P11).shift(((1, 2, -1),))


def test_matrix_validation_and_json():
    with pytest.raises(ValueError):
        SuperMatrix(P11, [[0, 2], [0, 0]])
    with pytest.raises(ValueError):
        SuperMatrix(P11, [[0, -1], [0, 0]])
    a = mat(P21, [[1, 2, 1], [0, 3, 0], [1, 1, 2]])
    obj = a.to_json()
    assert obj == {"m": 2, "n": 1, "entries": [[1, 2, 1], [0, 3, 0], [1, 1, 2]]}
    assert SuperMatrix.from_json(obj) == a


def test_enumeration_counts():
    assert sum(1 for _ in all_matrices(P11, 2)) == 9 * 4
    assert sum(1 for _ in all_offdiag(P11, 1)) == 4
    assert sum(1 for _ in all_offdiag(P21, 1)) == 64


@pytest.mark.parametrize("p", [P11, P21, P12])
@pytest.mark.parametrize("bound", [0, 1, 2])
def test_counts_read_the_enumerated_ranges(p, bound):
    # The worker count is sized from these, before any matrix is built.
    assert count_matrices(p, bound) == sum(1 for _ in all_matrices(p, bound))
    assert count_offdiag(p, bound) == sum(1 for _ in all_offdiag(p, bound))


@pytest.mark.parametrize(
    "p, bound",
    [(P11, 1), (P11, 2), (P21, 1), (P21, 2), (P12, 1), (P12, 2), (P22, 1)],
)
def test_all_offdiag_keeps_the_order_of_all_matrices(p, bound):
    # verify reports failures in this order.
    assert list(all_offdiag(p, bound)) == [a for a in all_matrices(p, bound) if a.is_offdiag()]


# The loops below are the statistics as first written, one nested sum per
# statistic and per corner: the reference for the shared odd-column counts
# and corner sums.


def _ref_sigma(i, a):
    m, size = a.profile.m, a.profile.size
    rows = a.rows
    if i <= m:
        return sum(rows[s][t] for s in range(m, size) for t in range(i - 1))
    total = sum(rows[s][t] for s in range(m, size) for t in range(m))
    return total + sum(rows[s][t] for s in range(m) for t in range(m, i - 1))


def _ref_f(h, i, a):
    sgn = -1 if h == a.profile.m else 1
    return sum(a.rows[h - 1][i:]) - sgn * sum(a.rows[h][i:])


def _ref_g(h, i, a):
    sgn = -1 if h == a.profile.m else 1
    return sum(a.rows[h][: i - 1]) - sgn * sum(a.rows[h - 1][: i - 1])


def _ref_a_bar(a):
    m, size = a.profile.m, a.profile.size
    col = [sum(a.rows[i][t] for i in range(m)) for t in range(size)]
    return sum(col[j] * col[l] for j in range(m, size) for l in range(j + 1, size))


def _ref_s_sign(h, i, a):
    m, size = a.profile.m, a.profile.size
    if h != m:
        return 0
    total = sum(a.rows[s][t] for s in range(m, size) for t in range(min(i - 1, m)))
    if i > m:
        total += sum(a.rows[s][t] for s in range(m) for t in range(i, size))
    return total


def _ref_parity(a):
    m, size = a.profile.m, a.profile.size
    total = sum(a.rows[s][t] for s in range(m) for t in range(m, size))
    return (total + sum(a.rows[s][t] for s in range(m, size) for t in range(m))) & 1


def _ref_corner_sums(a):
    size = a.profile.size
    out = []
    for s in range(1, size + 1):
        for t in range(1, size + 1):
            if s < t:  # rows <= s, columns >= t
                out.append(sum(a.rows[i][j] for i in range(s) for j in range(t - 1, size)))
            elif s > t:  # rows >= s, columns <= t
                out.append(sum(a.rows[i][j] for i in range(s - 1, size) for j in range(t)))
    return out


def _statistics_mismatches(a):
    size = a.profile.size
    out = []
    for i in range(1, size + 1):
        if sigma(i, a) != _ref_sigma(i, a):
            out.append(("sigma", i))
        for h in range(1, size):
            for name, fn, ref in (
                ("f", f_stat, _ref_f),
                ("g", g_stat, _ref_g),
                ("s_sign", s_sign, _ref_s_sign),
            ):
                if fn(h, i, a) != ref(h, i, a):
                    out.append((name, h, i))
    for h in range(1, size):
        if f_stats(h, a) != [_ref_f(h, i, a) for i in range(1, size + 1)]:
            out.append(("f_stats", h))
        if g_stats(h, a) != [_ref_g(h, i, a) for i in range(1, size + 1)]:
            out.append(("g_stats", h))
    if a_bar(a) != _ref_a_bar(a):
        out.append("a_bar")
    if matrix_parity(a) != _ref_parity(a):
        out.append("parity")
    if corner_sums(a) != _ref_corner_sums(a):
        out.append("corner_sums")
    return out


def _sample(p, rng, count):
    """Matrices with even-block entries up to 3 and odd-block entries up to 1."""
    m, size = p.m, p.size
    return [
        SuperMatrix(
            p,
            [
                [rng.randint(0, 1 if (i < m) != (j < m) else 3) for j in range(size)]
                for i in range(size)
            ],
        )
        for _ in range(count)
    ]


@pytest.mark.parametrize(
    "p", [P11, P21, P12, Profile(2, 0), Profile(3, 0), Profile(0, 3), P22, P31, P13]
)
def test_statistics_match_the_reference_loops(p):
    rng = random.Random(1501)
    mats = list(all_matrices(p, 1)) if p.size <= 3 else _sample(p, rng, 600)
    verdicts = set()
    for a in mats:
        assert not _statistics_mismatches(a), a
        for b in [a] + rng.sample(mats, 6):
            want = all(x <= y for x, y in zip(_ref_corner_sums(a), _ref_corner_sums(b)))
            assert preceq(a, b) == want, (a, b)
            verdicts.add(want)
    assert verdicts == {True, False}


def _move_or_error(a, src, dst, j):
    try:
        return a.move(src, dst, j)
    except ValueError:
        return ValueError


@pytest.mark.parametrize("p, bound", [(P21, 2), (P12, 2), (P22, 1)])
def test_move_is_the_two_entry_shift(p, bound):
    size = p.size
    pairs = list(itertools.permutations(range(1, size + 1), 2))
    outcomes = set()
    for a in all_matrices(p, bound):
        for (src, dst), j in itertools.product(pairs, range(1, size + 1)):
            got = _move_or_error(a, src, dst, j)
            if a.rows[src - 1][j - 1]:
                assert got == a.shift(((dst, j, 1), (src, j, -1))), (a, src, dst, j)
            else:
                assert got is ValueError, (a, src, dst, j)
            outcomes.add(got if got in (None, ValueError) else SuperMatrix)
    assert outcomes == {None, ValueError, SuperMatrix}
