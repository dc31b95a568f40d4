"""Benchmark for uglmn: three workloads, each run as whole rounds in fresh
interpreters, with end-to-end metrics from untraced rounds and per-layer
metrics from rounds traced under cProfile.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Run it from the root of a checkout: it measures the `uglmn` under `src/`.
The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; with --trace 0 the metrics are the
end-to-end ones, with --trace 1 the per-layer ones.  The whole result, with
every round, is also written to bench/out/.  --smoke runs every workload at
tiny sizes, traced and untraced, with one deliberately wrong expected count
that must come back as exactly one failed check; it exits 0 when it does.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from layers import METRICS as LAYER_METRICS  # noqa: E402

WORKLOADS = ("tensor-oracle", "series-verify", "products")

# name -> unit; phase1/phase2 are the two timed phases of each workload.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "phase1_per_s": "ops/s",
    "phase2_per_s": "ops/s",
}

SETUP_PROBES = 3  # set-up only processes before the rounds; the first warms bytecode caches
ROUND_TIMEOUT_S = 150


class RoundError(RuntimeError):
    pass


def run_round(workload: str, seed: int, *, trace=False, smoke=False,
              setup_only=False, expect_offset=0) -> dict:
    """One round in a fresh interpreter, with UGLMN_THREADS unset so the
    program picks its own worker count, and a fixed hash seed so that the
    per-layer counts repeat exactly."""
    env = {k: v for k, v in os.environ.items() if k != "UGLMN_THREADS"}
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed)]
    cmd += ["--trace"] * trace + ["--smoke"] * smoke + ["--setup-only"] * setup_only
    if expect_offset:
        cmd += ["--expect-offset", str(expect_offset)]
    spawned = time.monotonic()
    proc = subprocess.run(
        cmd + ["--spawned-at", repr(spawned)], env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=ROUND_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RoundError(f"{workload} round exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _phase_rate(rounds: list, i: int) -> float:
    """Operations of phase i in all rounds per second spent in them."""
    ops = sum(r["phases"][i]["ops"] for r in rounds)
    return ops / sum(r["phases"][i]["wall_s"] for r in rounds)


def end_to_end(probes: list, rounds: list) -> dict:
    """Set-up time and peak RSS are medians; the timed part is taken over
    all untraced rounds together.  The host can switch between a fast and a
    slow speed for several rounds at a time: a median over rounds then jumps
    between the two speeds, while a total moves with the share of time spent
    at each."""
    med = statistics.median
    return {
        "setup_s": med([p["setup_s"] for p in probes[1:]] + [r["setup_s"] for r in rounds]),
        "wall_s": statistics.fmean(r["wall_s"] for r in rounds),
        "cpu_s": statistics.fmean(r["cpu_s"] for r in rounds),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in rounds),
        "phase1_per_s": _phase_rate(rounds, 0),
        "phase2_per_s": _phase_rate(rounds, 1),
    }


def per_layer(untraced: list, traced: list) -> dict:
    """Medians over the traced rounds; counts repeat exactly, and the low
    median keeps them whole."""
    out = {
        name: (statistics.median_low if unit == "count" else statistics.median)(
            r["layers"][name] for r in traced
        )
        for name, (unit, _) in LAYER_METRICS.items()
        if name != "trace.overhead_ratio"
    }
    out["trace.overhead_ratio"] = (
        statistics.median(r["wall_s"] for r in traced)
        / statistics.median(r["wall_s"] for r in untraced)
    )
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool,
            smoke=False, expect_offset=0) -> dict:
    """Set up a few times, then run whole rounds until `seconds` have passed.
    With trace, untraced and traced rounds alternate, at least one of each."""
    probes = [
        run_round(workload, seed, smoke=smoke, setup_only=True)
        for _ in range(SETUP_PROBES)
    ]
    untraced, traced = [], []
    started = time.monotonic()
    while True:
        is_traced = trace and len(traced) < len(untraced)
        rnd = run_round(workload, seed, trace=is_traced, smoke=smoke,
                        expect_offset=expect_offset)
        (traced if is_traced else untraced).append(rnd)
        if time.monotonic() - started >= seconds and (traced or not trace):
            break
    rounds = untraced + traced
    result = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version()},
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "end_to_end": end_to_end(probes, untraced),
        "per_layer": per_layer(untraced, traced) if trace else None,
        "setup_probes": probes,
        "untraced_rounds": untraced,
        "traced_rounds": traced,
    }
    return result


def report_line(result: dict, trace: bool) -> dict:
    if trace:
        metrics = {
            name: {"value": result["per_layer"][name], "unit": unit}
            for name, (unit, _) in LAYER_METRICS.items()
        }
    else:
        metrics = {
            name: {"value": result["end_to_end"][name], "unit": unit}
            for name, unit in END_TO_END.items()
        }
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def save(result: dict, name: str) -> None:
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)


def smoke() -> int:
    """Every workload at tiny sizes, traced and untraced; tensor-oracle runs
    with its first expected count off by one, which must fail exactly one
    check in each of its rounds and nothing else."""
    ok = True
    for workload in WORKLOADS:
        planted = 1 if workload == "tensor-oracle" else 0
        result = measure(workload, 1, 0, True, smoke=True, expect_offset=planted)
        save(result, f"smoke-{workload}.json")
        for line in (report_line(result, False), report_line(result, True)):
            for name, m in line["metrics"].items():
                if not math.isfinite(m["value"]):
                    print(f"FAIL {workload}: {name} is {m['value']}")
                    ok = False
                print(f"{workload:14s} {name:32s} {m['value']:14.6g} {m['unit']}")
        rounds = result["untraced_rounds"] + result["traced_rounds"]
        expect = planted * len(rounds)
        notes = sorted({n for r in rounds for n in r["notes"]})
        only_planted = all(
            r["failed"] == planted and all(n.startswith("grid size") for n in r["notes"])
            for r in rounds
        )
        status = "ok" if only_planted else "FAIL"
        ok &= status == "ok"
        print(f"{workload:14s} checks: {result['attempted']} attempted, "
              f"{result['failed']} failed, {expect} expected to fail: {status} {notes}")
    print(json.dumps({"smoke": "pass" if ok else "fail"}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="uglmn benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "uglmn", "__init__.py")):
        print(f"error: no uglmn sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required unless --smoke is given")
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RoundError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    save(result, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    print(json.dumps(report_line(result, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
