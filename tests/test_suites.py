"""Agreement grids: shards partition the grid, build only their own matrices,
the sharded runner gives the same report as one process and starts at most
one worker per CPU (by default one per 1,000 grid matrices, so a small
`verify` starts none), an empty grid does not pass, a bad twist is rejected,
and a lost action term is caught.  The truncation grid, which compares each
matrix once at a formal twist, rejects exactly the (matrix, twist, letter)
triples that the per-pair check rejects.  Relations and truncations
on a fixed sample of (2,2) labels, where the super Serre relations apply,
and on the complete (3,0) and (0,3) grids."""

import concurrent.futures
import itertools
import json
import math
import os
import random

import pytest

from uglmn import cli, regular, suites
from uglmn.qcoeff import VFunc
from uglmn.regular import SeriesBasis, compare_truncated
from uglmn.relcheck import (
    EMPTY,
    FAIL,
    NOT_APPLICABLE,
    PASS,
    ActionHandle,
    check_relation,
    full_suite,
    relations_for,
    series_handle,
)
from uglmn.suites import (
    default_j_values,
    generator_letters,
    series_truncation_agreement,
    tensor_agreement,
    worker_count,
)
from uglmn.superindex import Profile, SuperMatrix, all_matrices, all_offdiag
from uglmn.words import E, K

P11 = Profile(1, 1)
P21 = Profile(2, 1)
P12 = Profile(1, 2)
P22 = Profile(2, 2)


def _shard_in_two(monkeypatch, size):
    """Shard a grid of `size` matrices over two workers (one on a one-CPU
    machine); every grid in this file runs serially by default."""
    monkeypatch.setattr(suites, "SHARD_MATRICES", size // 2)


def _cpus(monkeypatch, n):
    """The CPUs this process may run on, as worker_count sees them."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def _same_report(one, two):
    assert one.name == two.name
    assert one.checked == two.checked > 0
    key = lambda failure: json.dumps(failure, sort_keys=True)  # noqa: E731
    assert sorted(one.failures, key=key) == sorted(two.failures, key=key)


def test_tensor_grid_sharded_matches_single_process(monkeypatch):
    one = tensor_agreement(P11, 2)
    _shard_in_two(monkeypatch, 36)
    _same_report(one, tensor_agreement(P11, 2))


def test_series_grid_sharded_matches_single_process(monkeypatch):
    twists = [(0, 0), (1, -1), (-1, 1)]
    one = series_truncation_agreement(P11, 1, twists, 3)
    _shard_in_two(monkeypatch, 4)
    two = series_truncation_agreement(P11, 1, twists, 3)
    _same_report(one, two)


@pytest.mark.parametrize("enumerate_grid", [all_matrices, all_offdiag])
def test_shards_partition_the_grid(enumerate_grid):
    grid = [a.rows for a in enumerate_grid(P21, 2)]
    shards = [[a.rows for a in enumerate_grid(P21, 2, s, 4)] for s in range(4)]
    assert sum(map(len, shards)) == len(grid)
    assert sorted(rows for shard in shards for rows in shard) == sorted(grid)


def test_shard_builds_only_its_share(monkeypatch):
    built = []
    make = SuperMatrix._make

    def counting_make(cls, profile, rows):
        built.append(rows)
        return make(profile, rows)

    monkeypatch.setattr(SuperMatrix, "_make", classmethod(counting_make))
    count_only = lambda a, letters: (1, [])  # noqa: E731
    checked, failures = suites._grid_shard((count_only, all_matrices, P21, 2, 0, 4))
    assert failures == []
    assert checked == math.ceil(3888 / 4)
    assert len(built) <= math.ceil(3888 / 4)


def test_empty_series_grid_does_not_pass():
    report = series_truncation_agreement(P11, 1, [], 3)
    assert report.checked == 0
    assert not report.all_pass
    assert report.to_json()["pass"] is False


def test_series_grid_rejects_bad_twists():
    # Every twist is validated as a label's, even where the formal
    # comparison finds nothing to read off.
    with pytest.raises(ValueError, match="length 3"):
        series_truncation_agreement(P21, 1, [(0, 0)], 3)
    with pytest.raises(TypeError):
        series_truncation_agreement(P21, 1, [(0, 0.5, 0)], 3)


def test_empty_basis_relations_are_empty_not_passing():
    handle = ActionHandle("empty", P11, (), regular.act_letter)
    report = full_suite(handle)
    assert len(report.reports) == len(relations_for(P11))
    applicable = [r for r in report.reports if r.status != NOT_APPLICABLE]
    assert applicable and all(r.status == EMPTY and r.checked == 0 for r in applicable)
    assert not report.all_pass
    assert report.failures() == []
    # The same relations pass on a non-empty basis.
    assert full_suite(series_handle(P11, 1, [(0, 0)])).all_pass


def _drop_one_term(act):
    """act with one term lost from every result that has two or more, as if
    two terms had been stored under one key."""

    def mutated(letter, key, *args, **kwargs):
        res = act(letter, key, *args, **kwargs)
        if len(res) < 2:
            return res
        return res.filter_keys(lambda k, last=list(res.terms)[-1]: k != last)

    return mutated


def _flip_last_column(monkeypatch):
    sigma = regular.sigma
    monkeypatch.setattr(regular, "sigma", lambda col, a: sigma(col, a) + (col == a.profile.size))
    # Templates built before the patch would hide it, here and in the
    # workers a sharded grid forks.
    regular._template.cache_clear()


def _lose_a_label_term(monkeypatch):
    # Every template with two or more terms loses its last, as if two terms
    # had been stored under one key.
    template = regular._template.__wrapped__

    def planted(letter, a, signed):
        terms = template(letter, a, signed)
        return terms[:-1] if len(terms) > 1 else terms

    monkeypatch.setattr(regular, "_template", planted)


def test_series_grid_catches_a_lost_label_term(monkeypatch, fresh_templates):
    twists = [(0, 0), (1, -1), (-1, 1)]
    assert series_truncation_agreement(P11, 1, twists, 3).all_pass
    _lose_a_label_term(monkeypatch)
    report = series_truncation_agreement(P11, 1, twists, 3)
    assert report.checked == 12
    assert report.failures
    # A one-shot iterator of letters finds the same mismatches as a list.
    a = SuperMatrix(P11, ((0, 1), (1, 0)))
    letters = generator_letters(P11)
    found = regular.truncation_mismatches(a, twists, letters, 3)
    assert len(found) == 6
    assert regular.truncation_mismatches(a, twists, iter(letters), 3) == found


def _shift_the_second_quotient_term(monkeypatch):
    # The second difference-quotient term, the only one with twist shift
    # -e_h - e_(h+1), is shifted by -2 along e_(h+1) instead of -1.  Only
    # its twist changes, so only the weights v^(lam * j') of its window show it.
    template = regular._template.__wrapped__

    def planted(letter, a, signed):
        terms = template(letter, a, signed)
        if letter.kind == K:
            return terms
        h, size = letter.index, a.profile.size
        low = tuple(-1 if i in (h - 1, h) else 0 for i in range(size))
        lower = tuple(x - (i == h) for i, x in enumerate(low))
        return tuple((t, lower if s == low else s, c, x) for t, s, c, x in terms)

    monkeypatch.setattr(regular, "_template", planted)


def _read_the_characters_at_one(monkeypatch):
    # Every character v^(+-j_i) is read as v^(+-1), its value at j_i = 1, so
    # which twists fail depends on reading the differences off at the right
    # twist.
    template = regular._template.__wrapped__

    def planted(letter, a, signed):
        terms = template(letter, a, signed)
        return tuple((t, s, 0, x * VFunc.v_power(1 if c > 0 else -1) if c else x) for t, s, c, x in terms)

    monkeypatch.setattr(regular, "_template", planted)


def _reference_failures(p, bound, twists, level):
    """The truncation grid's failures, checked one (matrix, twist, letter)
    triple at a time: act on every monomial of the label's truncation and
    keep the window, with no image shared between twists or letters."""
    failures = []
    for a in all_offdiag(p, bound):
        for j in twists:
            b = SeriesBasis(a, j)
            for letter in generator_letters(p):
                lhs = regular.truncate(b, level).bind(lambda mat: regular.act_tensor(letter, mat))
                lhs = lhs.filter_keys(lambda mat: mat.diag_total() <= level - 1)
                rhs = regular.act_letter(letter, b).bind(lambda t: regular.truncate(t, level - 1))
                if lhs != rhs:
                    failures.append({"generator": letter.text(), "A": a.to_json(), "j": list(j)})
    return failures


@pytest.mark.parametrize(
    "plant",
    [_flip_last_column, _lose_a_label_term, _shift_the_second_quotient_term, _read_the_characters_at_one],
)
def test_series_grid_rejects_what_the_per_pair_check_rejects(monkeypatch, fresh_templates, plant):
    twists = [(0, 0, 0), (1, -1, 0), (-1, 1, 1)]
    plant(monkeypatch)
    expected = _reference_failures(P21, 1, twists, 3)
    assert len(expected) > 10  # to_json lists only the first ten
    for sharded in (False, True):
        if sharded:
            _shard_in_two(monkeypatch, 64)
        report = series_truncation_agreement(P21, 1, twists, 3)
        assert report.checked == 64 * len(twists)
        assert report.failures == expected
        assert report.to_json()["failures"] == expected[:10]


def _drop_the_last_tensor_term(monkeypatch):
    # Every E/F image under the tensor oracle loses its last term.
    act = regular.act_tensor

    def planted(letter, a):
        res = act(letter, a)
        if letter.kind == K or res.is_zero():
            return res
        return res.filter_keys(lambda key, last=list(res.terms)[-1]: key != last)

    monkeypatch.setattr(regular, "act_tensor", planted)


def _negate_k_inverse_in_the_window(monkeypatch):
    # K_i^-1 acts with the wrong sign on the monomials of diagonal level
    # <= 2, the window of a level-3 truncation.
    act = regular.act_tensor

    def planted(letter, a):
        res = act(letter, a)
        return -res if letter.kind == K and letter.power == -1 and a.diag_total() <= 2 else res

    monkeypatch.setattr(regular, "act_tensor", planted)


@pytest.mark.parametrize("plant", [_drop_the_last_tensor_term, _negate_k_inverse_in_the_window])
def test_series_grid_rejects_what_the_per_pair_check_rejects_on_the_tensor_side(monkeypatch, plant):
    # The grid compares the tensor side with the label side and builds their
    # difference only on a mismatch; a fault on the tensor side must take
    # that path for exactly the triples the per-pair check rejects.
    twists = [(0, 0, 0), (1, -1, 0), (-1, 1, 1)]
    plant(monkeypatch)
    expected = _reference_failures(P21, 1, twists, 3)
    assert len(expected) > 10
    for sharded in (False, True):
        if sharded:
            _shard_in_two(monkeypatch, 64)
        report = series_truncation_agreement(P21, 1, twists, 3)
        assert report.checked == 64 * len(twists)
        assert report.failures == expected


def test_series_grid_12_every_twist():
    # The complete (1,2) grid, entries <= 1, level 3, all of {-1,0,1}^3.
    report = series_truncation_agreement(P12, 1, default_j_values(P12), 3)
    assert report.checked == 64 * 27
    assert report.all_pass, report.failures


@pytest.mark.parametrize("p", [Profile(3, 0), Profile(0, 3)], ids=["3|0", "0|3"])
def test_series_suites_without_odd_generators(p):
    twists = list(itertools.product((0, 1), repeat=3))
    suite = full_suite(series_handle(p, 1, twists))
    # With m = 0 or n = 0 only the four QG6 relations lack their generators.
    skipped = [r.relation for r in suite.reports if r.status == NOT_APPLICABLE]
    assert skipped == [
        "QG6-square(E)", "QG6-square(F)", "QG6-serre(E)", "QG6-serre(F)"
    ]
    assert all(r.status == PASS for r in suite.reports if r.status != NOT_APPLICABLE)
    report = series_truncation_agreement(p, 1, twists, 3)
    assert report.checked == 64 * len(twists)
    assert report.all_pass, report.failures


def test_tensor_grid_catches_a_lost_tensor_term(monkeypatch):
    assert tensor_agreement(P11, 2).all_pass
    monkeypatch.setattr(suites, "act_tensor", _drop_one_term(suites.act_tensor))
    report = tensor_agreement(P11, 2)
    assert report.checked == 36
    assert report.failures


def test_grid_failures_do_not_depend_on_the_worker_count(monkeypatch):
    monkeypatch.setattr(suites, "act_tensor", _drop_one_term(suites.act_tensor))
    one = tensor_agreement(P11, 2)
    _shard_in_two(monkeypatch, 36)
    two = tensor_agreement(P11, 2)
    assert len(one.failures) > 10  # to_json lists only the first ten
    assert one.to_json() == two.to_json()


def _sample_22():
    """64 labels of the (2,2) grid with entries <= 1, twist 0, fixed seed."""
    mats = random.Random(2022).sample(list(all_offdiag(P22, 1)), 64)
    return tuple(SeriesBasis(a, (0, 0, 0, 0)) for a in mats)


def test_series_relations_on_a_22_sample():
    labels = _sample_22()
    report = full_suite(ActionHandle("series 2|2 sample", P22, labels, regular.act_letter))
    # None is not-applicable: the quartic super Serre relations apply at (2,2).
    assert [r.status for r in report.reports] == [PASS] * 41

    def negate_e2(letter, b):
        res = regular.act_letter(letter, b)
        return -res if letter.kind == E and letter.index == 2 else res

    mutated = ActionHandle("mutated", P22, labels, negate_e2)
    qg3_22 = next(rel for rel in relations_for(P22) if rel.label == "QG3(2,2)")
    assert check_relation(qg3_22, mutated).status == FAIL


def test_truncation_on_a_22_sample(monkeypatch, fresh_templates):
    labels = _sample_22()
    letters = generator_letters(P22)

    def failing():
        return [
            letter.text() for b in labels for letter in letters
            if not compare_truncated(letter, b, 3)
        ]

    assert failing() == []
    # One more sign flip in the last column is a change of basis: the
    # relations cannot see it, the truncated series can.
    _flip_last_column(monkeypatch)
    failures = failing()
    assert len(failures) == 49
    assert set(failures) == {"E2", "F2"}


def _serial_pool(asked):
    """A ProcessPoolExecutor stand-in that records each pool's worker count
    and runs the shards in this process."""

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    return SerialPool


def test_worker_count_is_capped_at_the_cpu_count(monkeypatch):
    asked = []
    SerialPool = _serial_pool(asked)
    monkeypatch.setattr(suites, "act_tensor", _drop_one_term(suites.act_tensor))
    serial = tensor_agreement(P11, 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(suites, "SHARD_MATRICES", 1)  # 36 workers wanted
    _cpus(monkeypatch, 3)
    report = tensor_agreement(P11, 2)
    assert asked == [3]
    _same_report(serial, report)


def test_default_worker_count_follows_the_grid_size(monkeypatch):
    _cpus(monkeypatch, 4)
    assert worker_count(0) == worker_count(36) == worker_count(1999) == 1
    assert worker_count(3888) == 3
    assert worker_count(1_679_616) == 4


def test_worker_count_reads_the_cpus_this_process_may_use(monkeypatch):
    # Pinned to one of 64 CPUs, even the (2,2) grid runs in one process.
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    _cpus(monkeypatch, 1)
    assert worker_count(1_679_616) == 1
    _cpus(monkeypatch, 64)
    assert worker_count(1_679_616) == 64
    # Where the platform has no affinity call, the CPU count caps it.
    monkeypatch.delattr(os, "sched_getaffinity")
    assert worker_count(1_679_616) == 64
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert worker_count(1_679_616) == 1


def test_default_verify_on_a_small_grid_starts_no_pool(monkeypatch, capsys):
    asked = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _serial_pool(asked))
    _cpus(monkeypatch, 4)
    argv = ["verify", "--m", "1", "--n", "1", "--bound", "2"]
    assert cli.main(argv) == 0
    assert asked == []
    out = capsys.readouterr().out
    # The same run with sharding forced does shard, with the same output.
    monkeypatch.setattr(suites, "SHARD_MATRICES", 1)
    assert cli.main(argv) == 0
    assert asked == [4, 4]
    assert capsys.readouterr().out == out
