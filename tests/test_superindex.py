"""Index combinatorics: statistics, the matrix order, parities."""

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
    f_stat,
    g_stat,
    lower_neg,
    matrix_parity,
    preceq,
    s_sign,
    sigma,
    super_dot,
    unit_matrix,
    upper_l,
    zero_matrix,
)

P11 = Profile(1, 1)
P21 = Profile(2, 1)
P12 = Profile(1, 2)
P22 = Profile(2, 2)


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
    assert upper_l(e12, 1, 2) == 1
    assert lower_neg(e21, 2, 1) == 1
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


def _corner_signature(a):
    size = a.profile.size
    sig = []
    for s in range(1, size + 1):
        for t in range(1, size + 1):
            if s < t:
                sig.append(upper_l(a, s, t))
            elif s > t:
                sig.append(lower_neg(a, s, t))
    return tuple(sig)


@pytest.mark.parametrize("p", [P11, P21, P22])
def test_preceq_antisymmetric_on_offdiag(p):
    # a preceq b and b preceq a iff the corner-sum signatures agree, so
    # antisymmetry on diagonal-free matrices is injectivity of the signature.
    seen = {}
    for a in all_offdiag(p, 1):
        sig = _corner_signature(a)
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
