"""Agreement grids: shards partition the grid, build only their own matrices,
and the sharded runner gives the same report as one process."""

import json
import math

import pytest

from uglmn import suites
from uglmn.suites import series_truncation_agreement, tensor_agreement
from uglmn.superindex import Profile, SuperMatrix, all_matrices, all_offdiag

P11 = Profile(1, 1)
P21 = Profile(2, 1)


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
