"""Golden CLI corpus: recorded argv, exit code and stdout, replayed in-process.

The corpus in tests/data/cli_golden.json pins the byte-exact output of every
subcommand on a fixed set of inputs.  Re-record it only for an intended change
of output:

    PYTHONPATH=src python tests/test_cli_golden.py --record
"""

import contextlib
import io
import json
import os
import sys

from uglmn.cli import main
from uglmn.qcoeff import VFunc

CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "cli_golden.json")

PROFILES = ((1, 1), (2, 1), (1, 2))

# Coefficients as element JSON: 1, v, (v^2 + 1)/v, -(2/3)/(v - 1).
COEFFS = (
    {"num": {"0": "1"}, "den": {"0": "1"}},
    {"num": {"1": "1"}, "den": {"0": "1"}},
    {"num": {"2": "1", "0": "1"}, "den": {"1": "1"}},
    {"num": {"0": "-2/3"}, "den": {"1": "1", "0": "-1"}},
)


def _generators(size: int) -> list:
    gens = []
    for h in range(1, size):
        gens += [f"E{h}", f"F{h}"]
    for i in range(1, size + 1):
        gens += [f"K{i}", f"K{i}^-1"]
    return gens + ["E1^(2)", "F1^(2)", "K1^2", f"K{size}^-2"]


def _matrix_text(rows) -> str:
    return ";".join(",".join(map(str, r)) for r in rows)


def _cases() -> list:
    """Every recorded argv; built with the library, stored as plain argv."""
    from uglmn.relcheck import all_divided_monomials
    from uglmn.superindex import Profile, all_matrices, all_offdiag

    cases = []
    for m, n in PROFILES:
        p = Profile(m, n)
        size = p.size
        mn = ["--m", str(m), "--n", str(n)]
        twists = [(0,) * size, (1,) + (0,) * (size - 2) + (-1,), (-1,) * size]
        for flavor, key in (("01", "0|1"), ("10", "1|0")):
            elt = [
                {"coeff": COEFFS[i % len(COEFFS)], "a": list(x.exps)}
                for i, x in enumerate(all_divided_monomials(p, key, 2))
            ]
            for gen in _generators(size):
                cases.append(["act", *mn, "--space", "factor", "--flavor", flavor,
                              "--gen", gen, "--input", json.dumps(elt)])
        mats = list(all_matrices(p, 2))
        tensor = [
            {"coeff": COEFFS[i % len(COEFFS)], "A": a.to_json()}
            for i, a in enumerate(mats[5 :: max(1, len(mats) // 9)])
        ]
        labels = list(all_offdiag(p, 2))
        series = [
            {"coeff": COEFFS[i % len(COEFFS)], "A": a.to_json(), "j": list(twists[i % 3])}
            for i, a in enumerate(labels[:: max(1, len(labels) // 12)])
        ]
        for gen in _generators(size):
            cases.append(["act", *mn, "--space", "tensor", "--gen", gen,
                          "--input", json.dumps(tensor)])
            cases.append(["act", *mn, "--space", "series", "--gen", gen,
                          "--input", json.dumps(series)])
        for a in labels[:: max(1, len(labels) // 4)]:
            text = _matrix_text(a.rows)
            cases.append(["truncate", *mn, "--A", text,
                          "--j=" + ",".join(map(str, twists[1])), "--L", "2"])
            for gen in _generators(size)[:4]:
                cases.append(["oracle-compare", *mn, "--gen", gen, "--A", text,
                              "--j=" + ",".join(map(str, twists[2])), "--L", "3"])
        cases.append(["highest-weight", *mn, "--r", "3", "--a", "2,1" if size == 2 else "1,1,1"])

    p21 = Profile(2, 1)
    for a in all_offdiag(p21, 1):
        for j in ("0,0,0", "1,0,-1"):
            cases.append(["expand", "--m", "2", "--n", "1", "--A", _matrix_text(a.rows),
                          "--j=" + j])

    def element(m, n, terms):
        return json.dumps([
            {"coeff": COEFFS[c], "A": {"m": m, "n": n, "entries": rows}, "j": list(j)}
            for c, rows, j in terms
        ])

    pairs = [
        (1, 1, [(0, [[0, 1], [0, 0]], (0, 0)), (2, [[0, 0], [1, 0]], (1, -1))],
         [(1, [[0, 0], [1, 0]], (0, 1)), (3, [[0, 1], [1, 0]], (0, 0))]),
        (1, 1, [(1, [[0, 1], [1, 0]], (-1, 1))], [(0, [[0, 1], [1, 0]], (1, 1))]),
        (2, 1, [(0, [[0, 1, 0], [0, 0, 1], [0, 0, 0]], (0, 0, 0))],
         [(2, [[0, 0, 0], [1, 0, 0], [0, 1, 0]], (1, 0, -1))]),
        (2, 1, [(3, [[0, 0, 1], [0, 0, 0], [0, 0, 0]], (0, 1, 0)),
                (0, [[0, 0, 0], [0, 0, 0], [1, 0, 0]], (0, 0, 0))],
         [(1, [[0, 1, 0], [0, 0, 0], [0, 1, 0]], (1, 1, 1))]),
        (1, 2, [(2, [[0, 1, 0], [0, 0, 1], [0, 0, 0]], (0, 0, 0))],
         [(0, [[0, 0, 0], [1, 0, 0], [0, 1, 0]], (0, -1, 1))]),
    ]
    for m, n, lhs, rhs in pairs:
        cases.append(["multiply", "--m", str(m), "--n", str(n),
                      "--lhs", element(m, n, lhs), "--rhs", element(m, n, rhs)])

    cases.append(["verify", "--m", "1", "--n", "1", "--bound", "2"])
    cases.append(["verify", "--m", "1", "--n", "1", "--bound", "2", "--mutate"])
    for m, n, suite, bound in ((2, 1, "series", 1), (1, 2, "series", 1),
                               (2, 1, "tensor", 1), (2, 1, "factor", 2)):
        cases.append(["verify", "--m", str(m), "--n", str(n), "--suite", suite,
                      "--bound", str(bound)])
    return cases


def run(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue()


def record() -> None:
    entries = []
    for argv in _cases():
        code, stdout = run(argv)
        entries.append({"argv": argv, "code": code, "stdout": stdout})
    os.makedirs(os.path.dirname(CORPUS), exist_ok=True)
    with open(CORPUS, "w", encoding="utf-8") as fh:
        json.dump(entries, fh, indent=0)
        fh.write("\n")
    print(f"recorded {len(entries)} cases to {CORPUS}")


def _coefficients(obj) -> list:
    """Every {"num", "den"} object inside a JSON value."""
    if isinstance(obj, dict):
        if set(obj) == {"num", "den"}:
            return [obj]
        obj = list(obj.values())
    return [c for x in obj for c in _coefficients(x)] if isinstance(obj, list) else []


def test_printed_coefficients_read_back():
    # Every coefficient the corpus prints is read by from_json, whose input
    # bounds must admit it, and prints again the same.
    with open(CORPUS, encoding="utf-8") as fh:
        corpus = json.load(fh)
    coeffs = [c for case in corpus if case["code"] == 0 for c in _coefficients(json.loads(case["stdout"]))]
    assert len(coeffs) > 1000
    for c in coeffs:
        assert VFunc.from_json(c).to_json() == c


def test_cli_output_matches_recorded_corpus():
    with open(CORPUS, encoding="utf-8") as fh:
        entries = json.load(fh)
    assert entries
    mismatches = []
    for entry in entries:
        code, stdout = run(entry["argv"])
        if (code, stdout) != (entry["code"], entry["stdout"]):
            mismatches.append(entry["argv"][:3])
    assert not mismatches, f"{len(mismatches)} of {len(entries)} cases differ: {mismatches[:5]}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_cli_golden.py --record")
    record()
