"""Agreement grids: shards partition the grid, build only their own matrices,
the sharded runner gives the same report as one process and starts at most
one worker per CPU, an empty grid does not pass, and a lost action term is
caught.  Relations and truncations on a
fixed sample of (2,2) labels, where the super Serre relations apply."""

import concurrent.futures
import json
import math
import os
import random

import pytest

from uglmn import regular, suites
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
from uglmn.suites import generator_letters, series_truncation_agreement, tensor_agreement
from uglmn.superindex import Profile, SuperMatrix, all_matrices, all_offdiag
from uglmn.words import E

P11 = Profile(1, 1)
P21 = Profile(2, 1)
P22 = Profile(2, 2)


def _same_report(one, two):
    assert one.name == two.name
    assert one.checked == two.checked > 0
    key = lambda failure: json.dumps(failure, sort_keys=True)  # noqa: E731
    assert sorted(one.failures, key=key) == sorted(two.failures, key=key)


def test_tensor_grid_sharded_matches_single_process():
    _same_report(tensor_agreement(P11, 2, threads=1), tensor_agreement(P11, 2, threads=2))


def test_series_grid_sharded_matches_single_process():
    twists = [(0, 0), (1, -1), (-1, 1)]
    one = series_truncation_agreement(P11, 1, twists, 3, threads=1)
    two = series_truncation_agreement(P11, 1, twists, 3, threads=2)
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
    report = series_truncation_agreement(P11, 1, [], 3, threads=1)
    assert report.checked == 0
    assert not report.all_pass
    assert report.to_json()["pass"] is False


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


def test_series_grid_catches_a_lost_label_term(monkeypatch):
    twists = [(0, 0), (1, -1), (-1, 1)]
    assert series_truncation_agreement(P11, 1, twists, 3, threads=1).all_pass
    monkeypatch.setattr(regular, "act_letter", _drop_one_term(regular.act_letter))
    report = series_truncation_agreement(P11, 1, twists, 3, threads=1)
    assert report.checked == 12
    assert report.failures


def test_tensor_grid_catches_a_lost_tensor_term(monkeypatch):
    assert tensor_agreement(P11, 2, threads=1).all_pass
    monkeypatch.setattr(suites, "act_tensor", _drop_one_term(suites.act_tensor))
    report = tensor_agreement(P11, 2, threads=1)
    assert report.checked == 36
    assert report.failures


def test_grid_failures_do_not_depend_on_the_worker_count(monkeypatch):
    monkeypatch.setattr(suites, "act_tensor", _drop_one_term(suites.act_tensor))
    one = tensor_agreement(P11, 2, threads=1)
    two = tensor_agreement(P11, 2, threads=2)
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


def test_truncation_on_a_22_sample(monkeypatch):
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
    sigma = regular.sigma
    monkeypatch.setattr(regular, "sigma", lambda col, a: sigma(col, a) + (col == a.profile.size))
    failures = failing()
    assert len(failures) == 49
    assert set(failures) == {"E2", "F2"}


def test_worker_count_is_capped_at_the_cpu_count(monkeypatch):
    asked = []

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(suites, "act_tensor", _drop_one_term(suites.act_tensor))
    serial = tensor_agreement(P11, 2, threads=1)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    cpus = os.cpu_count() or 1
    report = tensor_agreement(P11, 2, threads=cpus + 3)
    assert all(workers <= cpus for workers in asked)
    _same_report(serial, report)
