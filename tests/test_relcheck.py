"""Relation verification: enumeration, compound Serre words, suites, mutation,
and relations evaluated once per matrix at a formal twist, as are the
truncation comparisons."""

import itertools
import random

import pytest

from uglmn import regular
from uglmn.linear import LinComb
from uglmn.polyaction import ONE_ZERO, ZERO_ONE
from uglmn.qcoeff import ONE, VFunc
from uglmn.regular import FormalLabel, act_formal, act_letter
from uglmn.relcheck import (
    EMPTY,
    FAIL,
    NOT_APPLICABLE,
    PASS,
    ActionHandle,
    check_relation,
    compound_serre_words,
    factor_handle,
    full_suite,
    relations_for,
    series_handle,
    tensor_handle,
)
from uglmn.suites import generator_letters
from uglmn.superindex import Profile, all_offdiag
from uglmn.words import E, apply_plan, horner_plan

P11 = Profile(1, 1)
P21 = Profile(2, 1)
P12 = Profile(1, 2)
P22 = Profile(2, 2)


def _relation(p, label):
    return next(rel for rel in relations_for(p) if rel.label == label)


def test_compound_serre_words_coefficients():
    e_words, f_words = compound_serre_words(2)
    v = VFunc.v_power(1)
    v_inv = VFunc.v_power(-1)
    assert [c for c, _ in e_words] == [ONE, -v, -v_inv, ONE]
    assert [c for c, _ in f_words] == [ONE, -v_inv, -v, ONE]
    # First word of the raising combination is E_{m-1} E_m E_{m+1}.
    assert [(l.kind, l.index) for l in e_words[0][1]] == [("E", 1), ("E", 2), ("E", 3)]
    with pytest.raises(ValueError):
        compound_serre_words(1)


def test_relation_enumeration_counts():
    # Hand count for (2,2): QG1 pairs a<=b: 10; QG2: 4*3 = 12; QG3: 3*3 = 9;
    # QG4: only (1,3) x {E,F} = 2; QG5: a in {1,3}, b = 2, x {E,F} = 4;
    # QG6: 2 squares + 2 serre = 4.  Total 41.
    assert len(relations_for(P22)) == 41
    # (2,1): 6 + 6 + 4 + 0 + 2 + 4 = 22.
    assert len(relations_for(P21)) == 22
    # (1,1): 3 + 2 + 1 + 0 + 0 + 4 = 10.
    assert len(relations_for(P11)) == 10
    labels = [r.label for r in relations_for(P11)]
    assert len(labels) == len(set(labels))


LABELS_22 = (
    [f"QG1({a},{b})" for a in range(1, 5) for b in range(a, 5)]
    + [f"QG2({a},{b})" for a in range(1, 5) for b in range(1, 4)]
    + [f"QG3({a},{b})" for a in range(1, 4) for b in range(1, 4)]
    + ["QG4(1,3,E)", "QG4(1,3,F)"]
    + ["QG5(1,2,E)", "QG5(1,2,F)", "QG5(3,2,E)", "QG5(3,2,F)"]
    + ["QG6-square(E)", "QG6-square(F)", "QG6-serre(E)", "QG6-serre(F)"]
)
SERRE = {"QG6-serre(E)", "QG6-serre(F)"}
SQUARE = {"QG6-square(E)", "QG6-square(F)"}


def _statuses(m, n):
    report = full_suite(ActionHandle("empty", Profile(m, n), (), None))
    return [(r.relation, r.status) for r in report.reports]


def test_relation_list_at_22():
    statuses = _statuses(2, 2)
    assert len(LABELS_22) == 41
    assert [label for label, _ in statuses] == LABELS_22
    assert all(status == EMPTY for _, status in statuses)


@pytest.mark.parametrize(
    "m, n, absent",
    [
        (1, 1, SERRE),
        (2, 1, SERRE),
        (1, 2, SERRE),
        (3, 1, SERRE),
        (2, 0, SERRE | SQUARE),
        (0, 2, SERRE | SQUARE),
    ],
)
def test_not_applicable_relations(m, n, absent):
    assert {label for label, status in _statuses(m, n) if status == NOT_APPLICABLE} == absent


def test_qg3_diagonal_on_factor_module():
    h = factor_handle(P11, ZERO_ONE, 3)
    rep = check_relation(_relation(P11, "QG3(1,1)"), h)
    assert rep.status == PASS and rep.checked == len(h.basis)


def test_qg6_square_on_factor_module():
    h = factor_handle(P21, ZERO_ONE, 3)
    rep = check_relation(_relation(P21, "QG6-square(E)"), h)
    assert rep.status == PASS
    rep = check_relation(_relation(P21, "QG6-square(F)"), h)
    assert rep.status == PASS


def test_qg1_smoke():
    h = factor_handle(P11, ONE_ZERO, 2)
    rep = check_relation(_relation(P11, "QG1(1,2)"), h)
    assert rep.status == PASS
    rep = check_relation(_relation(P11, "QG1(2,2)"), h)
    assert rep.status == PASS


def test_full_suite_factor_22():
    for flavor in (ZERO_ONE, ONE_ZERO):
        rep = full_suite(factor_handle(P22, flavor, 3))
        assert rep.all_pass, [r.to_json() for r in rep.failures()]
        assert all(r.status == PASS for r in rep.reports)  # serre applies at (2,2)


def test_full_suite_tensor_11():
    rep = full_suite(tensor_handle(P11, 2))
    assert rep.all_pass, [r.to_json() for r in rep.failures()]


def test_full_suite_series_11():
    j_values = list(itertools.product((-1, 0, 1), repeat=2))
    rep = full_suite(series_handle(P11, 1, j_values))
    assert rep.all_pass, [r.to_json() for r in rep.failures()]


def test_series_handle_takes_its_twists_from_an_iterator():
    # The twists are walked once per matrix: a one-shot iterator gives the
    # same 512 labels as a list.
    twists = list(itertools.product((0, 1), repeat=3))
    basis = series_handle(P21, 1, twists).basis
    assert len(basis) == 64 * 8
    assert series_handle(P21, 1, itertools.product((0, 1), repeat=3)).basis == basis


def test_serre_not_applicable_small_profiles():
    rep = full_suite(factor_handle(P21, ZERO_ONE, 2))
    by_label = {r.relation: r for r in rep.reports}
    assert by_label["QG6-serre(E)"].status == NOT_APPLICABLE
    assert by_label["QG6-serre(F)"].status == NOT_APPLICABLE
    assert by_label["QG6-square(E)"].status == PASS
    assert rep.all_pass


def test_qg6_not_applicable_when_no_odd_generators():
    p = Profile(2, 0)
    rep = full_suite(factor_handle(p, ZERO_ONE, 3))
    by_label = {r.relation: r for r in rep.reports}
    for which in "EF":
        assert by_label[f"QG6-square({which})"].status == NOT_APPLICABLE
        assert by_label[f"QG6-serre({which})"].status == NOT_APPLICABLE
    assert rep.all_pass


def test_degenerate_all_odd_profile():
    # m = 0: every index is odd, v_h = v^-1 throughout, no odd generators.
    p = Profile(0, 2)
    for flavor in (ZERO_ONE, ONE_ZERO):
        rep = full_suite(factor_handle(p, flavor, 3))
        assert rep.all_pass, [r.to_json() for r in rep.failures()]
    j_values = list(itertools.product((-1, 0, 1), repeat=2))
    rep = full_suite(series_handle(p, 1, j_values))
    assert rep.all_pass, [r.to_json() for r in rep.failures()]


def test_mutation_is_detected():
    rep = full_suite(factor_handle(P11, ZERO_ONE, 3, mutate=True))
    assert not rep.all_pass
    failed = {r.relation for r in rep.failures()}
    assert "QG3(1,1)" in failed
    bad = next(r for r in rep.reports if r.relation == "QG3(1,1)")
    assert bad.counterexample is not None
    assert "residual" in bad.counterexample


def test_report_json_shape():
    rep = full_suite(factor_handle(P11, ZERO_ONE, 2))
    obj = rep.to_json()
    assert obj["pass"] is True
    entry = obj["reports"][0]
    assert set(entry) == {"relation", "status", "checked"}


def _flip_quotient_characters(monkeypatch):
    # The difference-quotient terms, the only ones with both a twist shift
    # and a character, carry v^(-+j_dst) in place of v^(+-j_dst).
    template = regular._template

    def planted(letter, a, signed):
        return tuple((t, s, -c if s is not None else c, x) for t, s, c, x in template(letter, a, signed))

    monkeypatch.setattr(regular, "_template", planted)


def _negate_e2(monkeypatch):
    template = regular._template

    def planted(letter, a, signed):
        terms = template(letter, a, signed)
        if letter.kind == E and letter.index == 2:
            return tuple((t, s, c, -x) for t, s, c, x in terms)
        return terms

    monkeypatch.setattr(regular, "_template", planted)


def _drop_the_odd_sign(monkeypatch):
    # The sign (-1)^sigma of the h = m terms is never taken.
    monkeypatch.setattr(regular, "sigma", lambda col, a: 0)
    regular._template.cache_clear()  # templates built before would hide it


BENCH_TWISTS = [(0, 1, -1), (1, -1, 1), (-1, 0, 0)]  # series-verify, seed 1


@pytest.mark.parametrize("plant", [_flip_quotient_characters, _negate_e2])
@pytest.mark.parametrize(
    "twists, shuffle",
    [(BENCH_TWISTS, False), (BENCH_TWISTS, True), (list(itertools.product((-1, 0, 1), repeat=3)), False)],
    ids=["bench", "bench-shuffled", "all"],
)
def test_formal_reports_match_the_label_action(monkeypatch, fresh_templates, plant, twists, shuffle):
    # The formal evaluation reports the statuses, counts, first failing
    # label and residual that act_letter reports label by label, whatever
    # the order of the basis.
    plant(monkeypatch)
    handle = series_handle(P21, 1, twists)
    if shuffle:
        basis = list(handle.basis)
        random.Random(19).shuffle(basis)
        handle.basis = tuple(basis)
    report = full_suite(handle).to_json()
    concrete = ActionHandle(handle.name, P21, handle.basis, act_letter)
    assert report == full_suite(concrete).to_json()
    assert any(r["status"] == FAIL for r in report["reports"])


def _nonzero_formal_residuals(p, first=False):
    """(polys evaluated, nonzero residuals) of every relation poly on every
    matrix of p with entries <= 1, each acting once on (A, j) with j formal;
    stop at the first nonzero residual when first is set."""
    plans = [horner_plan(poly) for rel in relations_for(p) if rel.polys for poly in rel.polys]
    zero = (0,) * p.size
    polys = nonzero = 0
    for a in all_offdiag(p, 1):
        start = LinComb.single(FormalLabel(a, zero, zero))
        for plan in plans:
            polys += 1
            if not apply_plan(plan, start, act_formal).is_zero():
                nonzero += 1
                if first:
                    return polys, nonzero
    return polys, nonzero


@pytest.mark.parametrize("p, polys, flipped", [(P11, 40, 8), (P21, 1664, 326), (P12, 1664, 326)])
def test_relations_hold_at_every_twist(monkeypatch, fresh_templates, p, polys, flipped):
    # A zero formal residual is zero at every twist j in Z^size.
    assert _nonzero_formal_residuals(p) == (polys, 0)
    _flip_quotient_characters(monkeypatch)
    assert _nonzero_formal_residuals(p) == (polys, flipped)


@pytest.mark.slow
def test_relations_hold_at_every_twist_22(monkeypatch, fresh_templates):
    # All 4,096 matrices of (2,2) with entries <= 1, 53 polys each, where
    # the super Serre relations apply.
    assert _nonzero_formal_residuals(P22) == (217_088, 0)
    _drop_the_odd_sign(monkeypatch)
    assert _nonzero_formal_residuals(P22, first=True)[1] == 1


def _nonzero_truncation_differences(p, first=False):
    """(letters compared, nonzero differences) of the level-3 truncation
    check on every matrix of p with entries <= 1, each letter compared once
    on (A, j) with j formal; stop at the first matrix with a nonzero
    difference when first is set."""
    letters = generator_letters(p)
    compared = nonzero = 0
    for a in all_offdiag(p, 1):
        diffs = regular._truncation_differences(a, letters, 3)
        compared += len(diffs)
        nonzero += sum(not d.is_zero() for _, d in diffs)
        if first and nonzero:
            break
    return compared, nonzero


@pytest.mark.parametrize("p, compared, flipped", [(P11, 24, 4), (P21, 640, 128), (P12, 640, 128)])
def test_truncations_agree_at_every_twist(monkeypatch, fresh_templates, p, compared, flipped):
    # A zero formal truncation difference is zero at every twist j in Z^size.
    assert _nonzero_truncation_differences(p) == (compared, 0)
    _flip_quotient_characters(monkeypatch)
    assert _nonzero_truncation_differences(p) == (compared, flipped)


@pytest.mark.slow
def test_truncations_agree_at_every_twist_22(monkeypatch, fresh_templates):
    # All 4,096 matrices of (2,2) with entries <= 1, 14 letters each.
    assert _nonzero_truncation_differences(P22) == (57_344, 0)
    # Without the sign (-1)^sigma, the third matrix already differs.
    _drop_the_odd_sign(monkeypatch)
    assert _nonzero_truncation_differences(P22, first=True) == (42, 1)
