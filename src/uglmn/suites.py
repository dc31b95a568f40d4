"""High-level verification suites over exhaustive grids.

Each runner returns machine-readable reports; the heavy agreement grids can
shard across processes when UGLMN_THREADS (or an explicit thread count) asks
for more than one worker.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field
from functools import partial

from .polyaction import (
    ONE_ZERO,
    ZERO_ONE,
    act_tensor,
    act_tensor_coproduct,
    column_monomials,
)
from .regular import SeriesBasis, compare_truncated
from .relcheck import factor_handle, full_suite, series_handle, tensor_handle
from .superindex import Profile, all_matrices, all_offdiag
from .words import e, f, k

SERIES_LEVEL = 3  # diagonal level of the truncations in run_series_suites


def generator_letters(p: Profile) -> list:
    out = []
    for h in range(1, p.size):
        out.append(e(h))
        out.append(f(h))
    for i in range(1, p.size + 1):
        out.append(k(i, 1))
        out.append(k(i, -1))
    return out


def thread_count(threads=None) -> int:
    """The worker count: `threads`, else UGLMN_THREADS, else 1, capped at the
    CPU count; below 1 is a ValueError."""
    if threads is None:
        threads = os.environ.get("UGLMN_THREADS") or 1
    n = int(threads)
    if n < 1:
        raise ValueError(f"worker count must be >= 1, got {n}")
    return min(n, os.cpu_count() or 1)


@dataclass
class GridReport:
    name: str
    checked: int = 0
    failures: list = field(default_factory=list)

    @property
    def all_pass(self) -> bool:
        """A grid that checked nothing has not passed."""
        return self.checked > 0 and not self.failures

    def to_json(self) -> dict:
        return {
            "suite": self.name,
            "pass": self.all_pass,
            "checked": self.checked,
            "failures": self.failures[:10],
        }


def _check_tensor(a, letters) -> tuple:
    """Closed form against coproduct on one matrix: (checked, failures)."""
    cols = column_monomials(a)
    failures = [
        {"generator": letter.text(), "A": a.to_json()}
        for letter in letters
        if act_tensor(letter, a) != act_tensor_coproduct(letter, a, cols)
    ]
    return 1, failures


def _check_series(a, letters, j_values, level) -> tuple:
    """Label actions against truncated series on one matrix, every twist."""
    failures = []
    for j in j_values:
        b = SeriesBasis(a, j)
        for letter in letters:
            if not compare_truncated(letter, b, level):
                failures.append({"generator": letter.text(), "A": a.to_json(), "j": list(j)})
    return len(j_values), failures


def _grid_shard(args) -> tuple:
    check, matrices, p, bound, shard, nshards = args
    letters = generator_letters(p)
    checked = 0
    failures = []
    # The shard's t-th matrix has grid index shard + t * nshards.
    for t, a in enumerate(matrices(p, bound, shard, nshards)):
        n, found = check(a, letters)
        checked += n
        failures.extend((shard + t * nshards, failure) for failure in found)
    return checked, failures


def _run_grid(name, check, matrices, p, bound, threads) -> GridReport:
    """Run check(matrix, letters) on every matrix the enumerator yields,
    sharded across processes when more than one worker is asked for; the
    failures come in grid order whatever the worker count."""
    workers = thread_count(threads)
    jobs = [(check, matrices, p, bound, s, workers) for s in range(workers)]
    if workers == 1:
        shards = [_grid_shard(jobs[0])]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            shards = list(pool.map(_grid_shard, jobs))
    report = GridReport(name)
    tagged = []
    for checked, failures in shards:
        report.checked += checked
        tagged.extend(failures)
    report.failures = [failure for _, failure in sorted(tagged, key=lambda t: t[0])]
    return report


def tensor_agreement(p: Profile, bound: int, threads=None) -> GridReport:
    """Closed-form tensor action against the coproduct expansion, for every
    generator and every matrix with entries <= bound."""
    name = f"tensor-agreement {p.m}|{p.n} entries<={bound}"
    return _run_grid(name, _check_tensor, all_matrices, p, bound, threads)


def series_truncation_agreement(
    p: Profile, bound: int, j_values, level: int, threads=None
) -> GridReport:
    """Explicit label actions against the truncated tensor series, for every
    generator, every diagonal-free matrix with entries <= bound, and every
    twist vector in j_values."""
    name = f"series-truncation {p.m}|{p.n} entries<={bound} level={level}"
    check = partial(_check_series, j_values=[tuple(j) for j in j_values], level=level)
    return _run_grid(name, check, all_offdiag, p, bound, threads)


def default_j_values(p: Profile, values=(-1, 0, 1)) -> list:
    return list(itertools.product(values, repeat=p.size))


def run_factor_suites(p: Profile, degree_bound: int, mutate: bool = False) -> list:
    return [
        full_suite(factor_handle(p, ZERO_ONE, degree_bound, mutate=mutate)),
        full_suite(factor_handle(p, ONE_ZERO, degree_bound, mutate=mutate)),
    ]


def run_tensor_suites(p: Profile, bound: int, threads=None) -> list:
    return [full_suite(tensor_handle(p, bound)), tensor_agreement(p, bound, threads)]


def run_series_suites(p: Profile, bound: int, threads=None) -> list:
    """Relations, and truncations at SERIES_LEVEL, on every default twist."""
    j_values = default_j_values(p)
    return [
        full_suite(series_handle(p, bound, j_values)),
        series_truncation_agreement(p, bound, j_values, SERIES_LEVEL, threads),
    ]
