"""One round of a benchmark workload, run in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N --spawned-at T
        [--trace] [--smoke] [--setup-only] [--expect-offset K]

`bench/run.py` starts one of these per round, so the module caches of
`uglmn` start empty every round.  The worker imports `uglmn` from the
`src/` directory next to `bench/`, builds the workload's inputs from the
seed (set-up), runs the workload's timed phases, and then checks the outputs.
It prints one JSON object on stdout: the set-up time, each phase's wall time
and operation count, CPU time and peak RSS of the timed part, the number of
output checks attempted and failed, and with --trace the per-layer metrics.

--expect-offset adds K to the first expected count the workload checks, so
a self-test can show that a wrong expectation is counted as a failure.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


class Tally:
    """Output checks of one round: how many were attempted and failed."""

    def __init__(self, expect_offset: int = 0):
        self.attempted = 0
        self.failed = 0
        self.notes = []
        self._offset = expect_offset

    def add(self, what: str, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.notes.append(f"{what}: {failed} of {attempted} failed")

    def check(self, what: str, ok: bool) -> None:
        self.add(what, 1, 0 if ok else 1)

    def expected(self, count: int) -> int:
        """An expected count; the first one asked for carries the offset."""
        count, self._offset = count + self._offset, 0
        return count


def grid_size(m: int, n: int, bound: int) -> int:
    """Matrices with entries <= bound whose odd-parity blocks are capped at 1."""
    return (bound + 1) ** (m * m + n * n) * (min(bound, 1) + 1) ** (2 * m * n)


def offdiag_size(m: int, n: int, bound: int) -> int:
    """Diagonal-free matrices with entries <= bound, odd blocks capped at 1."""
    return (bound + 1) ** (m * (m - 1) + n * (n - 1)) * (min(bound, 1) + 1) ** (2 * m * n)


def letter_count(m: int, n: int) -> int:
    """E_h and F_h for h < m+n, and K_i^(+-1) for i <= m+n."""
    size = m + n
    return 2 * (size - 1) + 2 * size


def applicable_relations(m: int, n: int) -> int:
    """Relation instances of U_v(gl(m|n)) that the profile has generators for:
    QG1 for a <= b, QG2 for every (a, b), QG3 for every (a, b), QG4 (E and F)
    for |a - b| >= 2, QG5 (E and F) for even a and b = a +- 1, the two odd
    square relations when m, n >= 1, and the two extra Serre relations when
    m, n >= 2."""
    size = m + n
    count = size * (size + 1) // 2 + size * (size - 1) + (size - 1) ** 2
    count += 2 * sum(1 for a in range(1, size) for b in range(a + 2, size))
    count += 2 * sum(
        1 for a in range(1, size) if a != m for b in (a - 1, a + 1) if 1 <= b < size
    )
    count += 2 if m >= 1 and n >= 1 else 0
    count += 2 if m >= 2 and n >= 2 else 0
    return count


def balanced_twists(rng: random.Random, size: int, count: int) -> list:
    """`count` twist vectors from {-1, 0, 1}^size in which every coordinate
    runs through shuffled copies of (-1, 0, 1).  The cost of a label action
    depends on the twist, so every seed draws the same mix of values."""
    columns = []
    for _ in range(size):
        column = []
        while len(column) < count:
            values = [-1, 0, 1]
            rng.shuffle(values)
            column.extend(values)
        columns.append(column[:count])
    return list(zip(*columns))


class TensorOracle:
    """`suites.tensor_agreement` over complete grids: the closed-form tensor
    action against the coproduct, for every generator on every matrix.  The
    grids are complete, so the seed changes nothing; phase 1 holds the
    profiles with m >= n and phase 2 the odd-heavy profile (1,2)."""

    MULTIPLY_PHASE = None
    GRIDS = {"phase1": ((1, 1, 2), (2, 1, 2)), "phase2": ((1, 2, 2),)}
    SMOKE = {"phase1": ((1, 1, 1),), "phase2": ((1, 1, 2),)}

    def __init__(self, seed: int, smoke: bool):
        from uglmn.superindex import Profile

        self.Profile = Profile
        self.grids = self.SMOKE if smoke else self.GRIDS
        self.reports = {}

    def phases(self):
        from uglmn import suites

        def run(phase):
            ops = 0
            for m, n, bound in self.grids[phase]:
                rep = suites.tensor_agreement(self.Profile(m, n), bound)
                self.reports[(m, n, bound)] = rep
                ops += rep.checked * letter_count(m, n)
            return ops

        return [(phase, lambda phase=phase: run(phase)) for phase in self.grids]

    def check(self, tally: Tally) -> None:
        from uglmn import suites

        for (m, n, bound), rep in self.reports.items():
            size = grid_size(m, n, bound)
            tally.check(f"grid size {m}|{n}<={bound}", rep.checked == tally.expected(size))
            missing = max(0, size - rep.checked) * letter_count(m, n)
            tally.add(
                f"tensor comparisons {m}|{n}<={bound}",
                size * letter_count(m, n),
                len(rep.failures) + missing,
            )
        # The suite must be able to fail: the built-in sign flip must trip it.
        mutated = suites.run_factor_suites(self.Profile(1, 1), 2, mutate=True)
        tally.check("mutated factor suite fails", any(not s.all_pass for s in mutated))


class SeriesVerify:
    """The path of `uglmn verify --suite series`: the defining relations on
    the series basis (phase 1), then the label actions against truncated
    series (phase 2).  The seed picks three twist vectors that differ in
    every coordinate."""

    MULTIPLY_PHASE = None

    def __init__(self, seed: int, smoke: bool):
        from uglmn.superindex import Profile

        rng = random.Random(seed)
        self.m, self.n = (1, 1) if smoke else (2, 1)
        self.bound = 1
        self.level = 2 if smoke else 3
        self.p = Profile(self.m, self.n)
        self.twists = balanced_twists(rng, self.p.size, 1 if smoke else 3)
        self.relations = None
        self.grid = None

    def phases(self):
        from uglmn import relcheck, suites

        def relations():
            handle = relcheck.series_handle(self.p, self.bound, self.twists)
            self.relations = relcheck.full_suite(handle)
            return sum(r.checked for r in self.relations.reports)

        def truncation():
            self.grid = suites.series_truncation_agreement(
                self.p, self.bound, self.twists, self.level
            )
            return self.grid.checked * letter_count(self.m, self.n)

        return [("phase1", relations), ("phase2", truncation)]

    def check(self, tally: Tally) -> None:
        from uglmn.relcheck import NOT_APPLICABLE, PASS

        labels = offdiag_size(self.m, self.n, self.bound) * len(self.twists)
        applicable = applicable_relations(self.m, self.n)
        reports = [r for r in self.relations.reports if r.status != NOT_APPLICABLE]
        tally.check("applicable relations", len(reports) == tally.expected(applicable))
        passed = sum(r.checked for r in reports if r.status == PASS)
        tally.check(
            "relation evaluations", sum(r.checked for r in reports) == applicable * labels
        )
        tally.add("relations x basis", applicable * labels, max(0, applicable * labels - passed))
        letters = letter_count(self.m, self.n)
        tally.check("truncation labels", self.grid.checked == labels)
        missing = max(0, labels - self.grid.checked) * letters
        tally.add("truncation comparisons", labels * letters, len(self.grid.failures) + missing)


class Products:
    """The basis together with its multiplication.  Phase 1 expands a fixed
    set of labels (entries <= 1) into generator words with a cold cache;
    phase 2 multiplies two-term elements through `uglmn multiply`, whose
    left labels all come from that set.  The seed picks the twists and the
    coefficients; the matrices are fixed, so the work per round hardly
    depends on the seed."""

    MULTIPLY_PHASE = "phase2"
    # (m, n, largest off-diagonal total of an expanded label)
    PROFILES = ((2, 1, 6), (2, 2, 2))
    SMOKE = ((1, 1, 2),)
    LIBRARY_CHECKS = 4  # products recomputed through the library, per profile
    GENERATOR_CHECKS = 3  # right factors multiplied by each generator label
    TRIPLES = 2  # associativity triples per profile

    def __init__(self, seed: int, smoke: bool):
        from uglmn.linear import LinComb
        from uglmn.qcoeff import VFunc
        from uglmn.regular import SeriesBasis, series_element_to_json
        from uglmn.superindex import Profile, all_offdiag

        rng = random.Random(seed)
        self.cases = []
        for m, n, cap in self.SMOKE if smoke else self.PROFILES:
            p = Profile(m, n)
            mats = sorted(
                (a for a in all_offdiag(p, 1) if a.offdiag_total() <= cap),
                key=lambda a: (a.offdiag_total(), a.rows),
            )
            labels = [
                SeriesBasis(a, j)
                for a, j in zip(mats, balanced_twists(rng, p.size, len(mats)))
            ]
            small = [a for a in mats if a.offdiag_total() <= 2]
            right_twists = balanced_twists(rng, p.size, 2 * (len(labels) // 2))

            def coeff():
                return VFunc.v_power(rng.randint(-2, 2))

            pairs = []
            for i in range(len(labels) // 2):
                # The lightest label with the heaviest, and so on inwards.
                x = LinComb({labels[i]: coeff(), labels[-1 - i]: coeff()})
                ys = (small[i % len(small)], small[(i + len(small) // 2) % len(small)])
                y = LinComb(
                    {SeriesBasis(a, right_twists[2 * i + t]): coeff() for t, a in enumerate(ys)}
                )
                argv = [
                    "multiply", "--m", str(m), "--n", str(n),
                    "--lhs", json.dumps(series_element_to_json(x)),
                    "--rhs", json.dumps(series_element_to_json(y)),
                ]
                pairs.append((x, y, argv))
            tiny = [a for a in mats if a.offdiag_total() <= 1]
            triples = [
                tuple(
                    LinComb.single(SeriesBasis(rng.choice(tiny), j), coeff())
                    for j in balanced_twists(rng, p.size, 3)
                )
                for _ in range(self.TRIPLES)
            ]
            self.cases.append(
                {
                    "profile": p,
                    "labels": labels,
                    "pairs": pairs,
                    "library": rng.sample(range(len(pairs)), min(self.LIBRARY_CHECKS, len(pairs))),
                    "triples": triples,
                    "expansions": {},
                    "outputs": [],
                }
            )

    def phases(self):
        from uglmn import cli
        from uglmn.regular import expand_as_words

        def expand():
            ops = 0
            for case in self.cases:
                for b in case["labels"]:
                    case["expansions"][b] = expand_as_words(b.mat, b.j)
                    ops += 1
            return ops

        def multiply():
            ops = 0
            for case in self.cases:
                for _, _, argv in case["pairs"]:
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out):
                        code = cli.main(argv)
                    case["outputs"].append((code, out.getvalue()))
                    ops += 1
            return ops

        return [("phase1", expand), ("phase2", multiply)]

    def check(self, tally: Tally) -> None:
        from uglmn.linear import LinComb
        from uglmn.regular import (
            SeriesBasis,
            act_element,
            act_word,
            multiply,
            one_label,
            series_element_from_json,
        )
        from uglmn.superindex import unit_matrix, zero_matrix
        from uglmn.words import e, f, k

        for case in self.cases:
            p = case["profile"]
            size = p.size
            tally.check(
                "expanded labels", len(case["expansions"]) == tally.expected(len(case["labels"]))
            )
            # Each expansion, applied to O(0), gives back its label (criterion 5).
            o = LinComb.single(one_label(p))
            bad = 0
            for b, words in case["expansions"].items():
                total = LinComb.zero()
                for c, w in words:
                    total = total + act_word(w, o).scale(c)
                bad += total != LinComb.single(b)
            tally.add("expansion round trip", len(case["expansions"]), bad)

            products = []
            bad = 0
            for code, text in case["outputs"]:
                try:
                    products.append(series_element_from_json(json.loads(text)) if code == 0 else None)
                except (ValueError, KeyError, TypeError):
                    products.append(None)
                bad += products[-1] is None
            tally.add("multiply CLI calls", len(case["pairs"]), bad)

            for i in case["library"]:
                x, y, _ = case["pairs"][i]
                lib = multiply(x, y)
                tally.check("CLI product equals library product", products[i] == lib)
                split = LinComb.zero()
                for b, c in x:
                    split = split + multiply(LinComb.single(b), y).scale(c)
                tally.check("product linear in the left factor", split == lib)

            for _, y, _ in case["pairs"]:
                tally.check("identity label is a left unit", multiply(o, y) == y)
            zero = (0,) * size
            generators = []
            for h in range(1, size):
                generators.append((unit_matrix(p, h, h + 1), zero, e(h)))
                generators.append((unit_matrix(p, h + 1, h), zero, f(h)))
            for i in range(1, size + 1):
                generators.append((zero_matrix(p), tuple(int(t == i - 1) for t in range(size)), k(i, 1)))
            for _, y, _ in case["pairs"][: self.GENERATOR_CHECKS]:
                for mat, j, letter in generators:
                    lhs = multiply(LinComb.single(SeriesBasis(mat, j)), y)
                    tally.check(f"{letter.text()} label acts as {letter.text()}", lhs == act_element(letter, y))

            for x, y, z in case["triples"]:
                tally.check("(xy)z = x(yz)", multiply(multiply(x, y), z) == multiply(x, multiply(y, z)))


WORKLOADS = {
    "tensor-oracle": TensorOracle,
    "series-verify": SeriesVerify,
    "products": Products,
}


def _cpu_s() -> float:
    """User + system time of this process and of its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _peak_rss_mb() -> float:
    """Peak resident set of this process or its largest child (ru_maxrss is in KiB)."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def import_program():
    """Import `uglmn` from the checkout's `src/`, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "uglmn", "__init__.py")):
        raise SystemExit(f"error: no uglmn sources under {SRC}")
    sys.path.insert(0, SRC)
    import uglmn

    where = os.path.dirname(os.path.realpath(uglmn.__file__))
    if where != os.path.realpath(os.path.join(SRC, "uglmn")):
        raise SystemExit(f"error: imported uglmn from {where}, not from {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() when the parent started this process")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--expect-offset", type=int, default=0)
    args = parser.parse_args(argv)

    import_program()
    workload = WORKLOADS[args.workload](args.seed, args.smoke)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    from uglmn import regular

    if args.trace:
        import cProfile
    cache_before = len(getattr(regular, "_EXPAND_CACHE", ()))
    profiles = {}
    phases = []
    cpu0 = _cpu_s()
    for name, fn in workload.phases():
        prof = cProfile.Profile() if args.trace else None
        t0 = time.perf_counter()
        if prof is not None:
            prof.enable()
        ops = fn()
        if prof is not None:
            prof.disable()
            profiles[name] = prof
        phases.append({"name": name, "wall_s": time.perf_counter() - t0, "ops": ops})
    cpu_s = _cpu_s() - cpu0
    peak_rss_mb = _peak_rss_mb()
    cache_growth = len(getattr(regular, "_EXPAND_CACHE", ())) - cache_before

    out = {
        "setup_s": setup_s,
        "wall_s": sum(ph["wall_s"] for ph in phases),
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "phases": phases,
    }
    if args.trace:
        from layers import per_layer

        out["layers"] = per_layer(profiles, cache_growth, workload.MULTIPLY_PHASE)
    tally = Tally(args.expect_offset)
    workload.check(tally)
    out.update(attempted=tally.attempted, failed=tally.failed, notes=tally.notes)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
