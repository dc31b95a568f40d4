"""Acceptance suite: one test per criterion, exact (tolerance-zero) equality.

Each test prints a single PASS/FAIL line; run with `pytest -s
tests/test_acceptance.py` to see them as they complete.  The exhaustive
tensor-agreement grid (criterion 2) is the long pole: its (2,2) slice walks
1,679,616 matrices.  The grids shard over one worker per 1,000 matrices, at
most one per CPU this process may run on, so criterion 2's line names the
worker count of each of its grids.
"""

import itertools
import random
import time

import pytest

from uglmn.linear import LinComb
from uglmn.polyaction import (
    ONE_ZERO,
    ZERO_ONE,
    act_word_factor,
    highest_weight_word,
    reversed_e_word,
)
from uglmn.qcoeff import ONE, VFunc
from uglmn.regular import (
    SeriesBasis,
    act_element,
    act_letter,
    act_word,
    compare_truncated,
    expand_as_words,
    leading_decompose,
    monomial_word,
    multiply,
    one_label,
    to_signed,
    unit,
)
from uglmn.relcheck import (
    FAIL,
    all_divided_monomials,
    factor_handle,
    full_suite,
    series_handle,
)
from uglmn.superindex import (
    Profile,
    a_bar,
    all_offdiag,
    basis_vector,
    count_matrices,
    sigma,
    strictly_lower,
    unit_matrix,
    zero_matrix,
)
from uglmn.suites import (
    default_j_values,
    series_truncation_agreement,
    tensor_agreement,
    worker_count,
)
from uglmn.words import e, f, k


def report(num: int, desc: str, ok: bool, started: float, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} {desc}: {status} [{time.time() - started:.1f}s]{extra}")


def test_criterion_1_factor_relation_suite():
    started = time.time()
    failures = []
    checked = 0
    for m, n in ((1, 1), (2, 1), (1, 2), (2, 2)):
        p = Profile(m, n)
        for flavor in (ZERO_ONE, ONE_ZERO):
            rep = full_suite(factor_handle(p, flavor, 4))
            checked += len(rep.reports)
            failures.extend((rep.name, r.to_json()) for r in rep.failures())
    ok = not failures
    report(1, "factor-module relations, degree <= 4", ok, started, f"{checked} relations")
    assert ok, failures


@pytest.mark.slow
def test_criterion_2_tensor_oracle_equivalence():
    started = time.time()
    failures = []
    checked = 0
    workers = []
    for m, n in ((1, 1), (2, 1), (2, 2)):
        p = Profile(m, n)
        rep = tensor_agreement(p, 2)
        checked += rep.checked
        failures.extend(rep.failures)
        workers.append(f"{worker_count(count_matrices(p, 2))} at ({m},{n})")
    ok = not failures
    report(2, "tensor action equals coproduct route, entries <= 2", ok, started,
           f"{checked} matrices; workers {', '.join(workers)}")
    assert ok, failures[:5]


def test_criterion_3_truncated_series_oracle():
    started = time.time()
    failures = []
    checked = 0
    for m, n in ((1, 1), (2, 1)):
        p = Profile(m, n)
        rep = series_truncation_agreement(p, 1, default_j_values(p), 3)
        checked += rep.checked
        failures.extend(rep.failures)
    # The two worked (1,1) difference-quotient cases at the deeper level.
    p11 = Profile(1, 1)
    for letter, mat in ((e(1), unit_matrix(p11, 2, 1)), (f(1), unit_matrix(p11, 1, 2))):
        if not compare_truncated(letter, SeriesBasis(mat, (0, 0)), 4):
            failures.append({"generator": letter.text(), "level": 4})
        checked += 1
    ok = not failures
    report(3, "label actions match truncated series, level 3 (+2 at level 4)",
           ok, started, f"{checked} labels")
    assert ok, failures[:5]


def test_criterion_4_series_relation_suite():
    started = time.time()
    failures = []
    checked = 0
    grids = (
        (Profile(1, 1), default_j_values(Profile(1, 1))),
        (Profile(2, 1), list(itertools.product((0, 1), repeat=3))),
    )
    for p, j_values in grids:
        rep = full_suite(series_handle(p, 1, j_values))
        checked += len(rep.reports)
        failures.extend((rep.name, r.to_json()) for r in rep.failures())
    ok = not failures
    report(4, "series-basis relations", ok, started, f"{checked} relations")
    assert ok, failures


def test_criterion_5_triangularity_and_round_trip():
    started = time.time()
    failures = []
    checked = 0
    for m, n in ((1, 1), (2, 1)):
        p = Profile(m, n)
        o = LinComb.single(one_label(p))
        for a in all_offdiag(p, 1):
            for j in default_j_values(p):
                x = act_word(monomial_word(a, j), o)
                lead, rest = leading_decompose(x, a)
                if len(lead) != 1:
                    failures.append(("leading size", a, j))
                    continue
                (bk, u), = lead.terms.items()
                if bk != SeriesBasis(a, j) or u.as_unit_monomial() is None:
                    failures.append(("leading value", a, j, u.text()))
                if any(not strictly_lower(b2.mat, a) for b2, _ in rest):
                    failures.append(("lower terms", a, j))
                total = LinComb.zero()
                for c, w in expand_as_words(a, j):
                    total = total + act_word(w, o).scale(c)
                if total != unit(a, j):
                    failures.append(("round trip", a, j))
                checked += 1
    ok = not failures
    report(5, "triangular leading terms and word-expansion round trip", ok, started,
           f"{checked} labels")
    assert ok, failures[:5]


def _random_series_element(p, rng, mats):
    x = LinComb.zero()
    for _ in range(2):
        b = SeriesBasis(
            rng.choice(mats), tuple(rng.randint(-1, 1) for _ in range(p.size))
        )
        x = x + LinComb.single(b, VFunc.v_power(rng.randint(-2, 2)))
    return x


def test_criterion_6_generator_identification():
    started = time.time()
    failures = []
    rng = random.Random(20260810)
    for m, n in ((1, 1), (2, 1)):
        p = Profile(m, n)
        mats = list(all_offdiag(p, 1))
        o = (0,) * p.size
        identity = unit(zero_matrix(p), o)
        for _ in range(50):
            y = _random_series_element(p, rng, mats)
            if multiply(identity, y) != y:
                failures.append(("identity", p))
            for h in range(1, p.size):
                if multiply(unit(unit_matrix(p, h, h + 1), o), y) != act_element(e(h), y):
                    failures.append(("E", p, h))
                if multiply(unit(unit_matrix(p, h + 1, h), o), y) != act_element(f(h), y):
                    failures.append(("F", p, h))
            for i in range(1, p.size + 1):
                if multiply(unit(zero_matrix(p), basis_vector(i, p.size)), y) != (
                    act_element(k(i, 1), y)
                ):
                    failures.append(("K", p, i))
    ok = not failures
    report(6, "products by generator labels equal generator actions", ok, started,
           "50 random elements x 2 profiles")
    assert ok, failures[:5]


def test_criterion_7_signed_basis():
    started = time.time()
    failures = []
    rng = random.Random(7)
    # Diagonal shifts never change the off-diagonal pair statistic.
    for m, n in ((1, 2), (2, 2)):
        p = Profile(m, n)
        mats = list(all_offdiag(p, 1))
        for _ in range(200):
            a = rng.choice(mats)
            lam = tuple(rng.randint(0, 3) for _ in range(p.size))
            if a_bar(a.add_diag(lam)) != a_bar(a):
                failures.append(("diag invariance", a, lam))
    # The shift identity for the statistic, exhaustively on valid moves.
    for m, n in ((1, 2), (2, 2)):
        p = Profile(m, n)
        size = p.size
        for a in all_offdiag(p, 1):
            for h in range(1, size):
                for kk in range(1, size + 1):
                    if a.entry(h + 1, kk) < 1:
                        continue
                    target = a.shift(((h, kk, 1), (h + 1, kk, -1)))
                    if target is None:
                        continue
                    lhs = a_bar(a) + (sigma(kk, a) if h == m else 0)
                    corr = 0
                    if h == m:
                        cut = min(kk - 1, m)
                        corr = sum(
                            a.entry(i, j)
                            for i in range(m + 1, size + 1)
                            for j in range(1, cut + 1)
                        )
                        if kk > m:
                            corr -= sum(
                                a.entry(i, j)
                                for i in range(1, m + 1)
                                for j in range(kk + 1, size + 1)
                            )
                    if lhs != a_bar(target) + corr:
                        failures.append(("shift identity", a, h, kk))
    # Conjugating by the sign rescaling reproduces the signed-statistic
    # action formulas exactly, raising and lowering alike.
    checked = 0
    for m, n in ((1, 2), (2, 2)):
        p = Profile(m, n)
        for a in all_offdiag(p, 1):
            b = SeriesBasis(a, (0,) * p.size)
            x = LinComb.single(b)
            for h in range(1, p.size):
                if to_signed(act_element(e(h), to_signed(x))) != act_letter(e(h), b, signed=True):
                    failures.append(("signed E", a, h))
                if to_signed(act_element(f(h), to_signed(x))) != act_letter(f(h), b, signed=True):
                    failures.append(("signed F", a, h))
                checked += 2
    ok = not failures
    report(7, "sign-modified basis identities", ok, started, f"{checked} signed actions")
    assert ok, failures[:5]


def test_criterion_8_cyclicity_of_graded_pieces():
    started = time.time()
    failures = []
    checked = 0
    for m, n in ((1, 1), (2, 1)):
        p = Profile(m, n)
        for r in range(1, 5):
            top = None
            for mono in all_divided_monomials(p, ZERO_ONE, r):
                if mono.degree() == r and mono.exps[0] == r:
                    top = mono
            x0 = LinComb.single(top)
            for target in all_divided_monomials(p, ZERO_ONE, r):
                if target.degree() != r:
                    continue
                word = highest_weight_word(r, target.exps, p)
                res = act_word_factor(word, x0)
                if res != LinComb.single(target):
                    failures.append(("lowering", p, r, target.exps))
                    continue
                back = act_word_factor(reversed_e_word(word), res)
                if len(back) != 1 or back[top].is_zero():
                    failures.append(("raising", p, r, target.exps))
                checked += 1
    ok = not failures
    report(8, "graded pieces are cyclic both ways, r <= 4", ok, started,
           f"{checked} weight vectors")
    assert ok, failures[:5]


def test_criterion_9_mutation_sensitivity():
    started = time.time()
    rep = full_suite(factor_handle(Profile(1, 1), ZERO_ONE, 4, mutate=True))
    failed = [r.relation for r in rep.reports if r.status == FAIL]
    ok = bool(failed)
    report(9, "sign-flip mutation trips the relation suite", ok, started,
           f"failing: {', '.join(failed) or 'none'}")
    assert ok
