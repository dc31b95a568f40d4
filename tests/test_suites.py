"""Agreement grids: the sharded runner gives the same report as one process."""

import json

from uglmn.suites import series_truncation_agreement, tensor_agreement
from uglmn.superindex import Profile

P11 = Profile(1, 1)


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
