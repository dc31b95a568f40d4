"""Command-line front end: actions, products, expansions, truncations, and
verification suites, all over canonical JSON.

Exit codes: 0 on success (and for verify/oracle-compare: everything passed),
1 when a verification fails, 2 on bad input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .linear import LinComb
from .polyaction import (
    ONE_ZERO,
    ZERO_ONE,
    DividedMonomial,
    act_factor,
    act_tensor,
    act_word_factor,
    factor_element_from_json,
    factor_element_to_json,
    highest_weight_word,
    tensor_element_from_json,
    tensor_element_to_json,
)
from .regular import (
    SeriesBasis,
    act_letter,
    compare_truncated,
    expand_as_words,
    multiply,
    series_element_from_json,
    series_element_to_json,
    truncate,
)
from .superindex import Profile, SuperMatrix, json_ints
from .suites import run_factor_suites, run_series_suites, run_tensor_suites, thread_count
from .words import K, apply_word, word_from_text, word_text

FLAVORS = {"01": ZERO_ONE, "10": ONE_ZERO}
# Each --space: its single-letter action and its output codec.
SPACES = {
    "factor": (act_factor, factor_element_to_json),
    "tensor": (act_tensor, tensor_element_to_json),
    "series": (act_letter, series_element_to_json),
}


class InputError(Exception):
    pass


def _read_source(text: str) -> str:
    """Inline JSON if it looks like JSON, else the contents of a file."""
    stripped = text.strip()
    if stripped.startswith(("[", "{")):
        return stripped
    if os.path.exists(text):
        try:
            with open(text, "r", encoding="utf-8") as fh:
                return fh.read()
        except OSError as exc:
            raise InputError(f"cannot read {text!r}: {exc.strerror or exc}") from exc
    return stripped


def _load_json(src: str):
    """json.loads, with input nested too deeply to decode as an input error."""
    try:
        return json.loads(src)
    except RecursionError as exc:
        raise InputError(f"cannot decode JSON input: {exc}") from exc


def parse_matrix(text: str, p: Profile) -> SuperMatrix:
    src = _read_source(text)
    if src.startswith("{"):
        obj = _load_json(src)
        try:
            mat = SuperMatrix.from_json(obj)
        except TypeError as exc:
            raise InputError(f"malformed matrix {text!r}: {exc}") from exc
        if mat.profile != p:
            raise InputError(
                f"matrix profile {mat.profile.m}|{mat.profile.n} does not match --m/--n"
            )
        return mat
    try:
        rows = [[int(x) for x in row.split(",")] for row in src.split(";")]
    except ValueError as exc:
        raise InputError(f"cannot parse matrix {text!r}: {exc}") from exc
    return SuperMatrix(p, rows)


def parse_vector(text: str, size: int) -> tuple:
    src = _read_source(text)
    if src.startswith("["):
        vals = json_ints(_load_json(src), f"vector {text!r}")
    else:
        try:
            vals = [int(x) for x in src.split(",")]
        except ValueError as exc:
            raise InputError(f"cannot parse vector {text!r}: {exc}") from exc
    if len(vals) != size:
        raise InputError(f"vector {text!r} must have length {size}")
    return tuple(int(x) for x in vals)


def parse_generator(text: str, p: Profile):
    """One generator letter whose index exists at profile p."""
    word = word_from_text(text)
    if len(word) != 1:
        raise InputError(f"expected a single generator token, got {text!r}")
    letter = word[0]
    top = p.size if letter.kind == K else p.size - 1
    if letter.index > top:
        raise InputError(f"generator {text!r} needs an index in 1..{top} at {p.m}|{p.n}")
    return letter


def parse_element(text: str, space: str, p: Profile, flavor: str) -> LinComb:
    obj = _load_json(_read_source(text))
    if space == "factor":
        return factor_element_from_json(obj, p, flavor)
    x = tensor_element_from_json(obj) if space == "tensor" else series_element_from_json(obj)
    for key, _ in x:
        profile = key.profile if space == "tensor" else key.mat.profile
        if profile != p:
            raise InputError(
                f"element profile {profile.m}|{profile.n} does not match --m/--n"
            )
    return x


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2))


def cmd_act(args) -> int:
    p = Profile(args.m, args.n)
    letter = parse_generator(args.gen, p)
    x = parse_element(args.input, args.space, p, FLAVORS[args.flavor])
    act, to_json = SPACES[args.space]
    _emit(to_json(apply_word((letter,), x, act)))
    return 0


def cmd_multiply(args) -> int:
    p = Profile(args.m, args.n)
    lhs = parse_element(args.lhs, "series", p, ZERO_ONE)
    rhs = parse_element(args.rhs, "series", p, ZERO_ONE)
    _emit(series_element_to_json(multiply(lhs, rhs)))
    return 0


def cmd_expand(args) -> int:
    p = Profile(args.m, args.n)
    mat = parse_matrix(args.A, p)
    j = parse_vector(args.j, p.size)
    out = [
        {"coeff": c.to_json(), "word": word_text(w)} for c, w in expand_as_words(mat, j)
    ]
    _emit(out)
    return 0


def cmd_truncate(args) -> int:
    p = Profile(args.m, args.n)
    mat = parse_matrix(args.A, p)
    j = parse_vector(args.j, p.size)
    _emit(tensor_element_to_json(truncate(SeriesBasis(mat, j), args.L)))
    return 0


def cmd_oracle_compare(args) -> int:
    p = Profile(args.m, args.n)
    letter = parse_generator(args.gen, p)
    mat = parse_matrix(args.A, p)
    j = parse_vector(args.j, p.size)
    ok = compare_truncated(letter, SeriesBasis(mat, j), args.L)
    _emit(
        {
            "generator": letter.text(),
            "A": mat.to_json(),
            "j": list(j),
            "level": args.L,
            "pass": ok,
        }
    )
    return 0 if ok else 1


def cmd_verify(args) -> int:
    p = Profile(args.m, args.n)
    if args.bound < 0:
        raise InputError(f"--bound must be >= 0, got {args.bound}")
    threads = thread_count(args.threads)
    suites = []
    if args.suite in ("factor", "all"):
        suites.extend(run_factor_suites(p, args.bound, mutate=args.mutate))
    if args.suite in ("tensor", "all"):
        suites.extend(run_tensor_suites(p, args.bound, threads=threads))
    if args.suite in ("series", "all"):
        suites.extend(run_series_suites(p, args.bound, threads=threads))
    ok = all(s.all_pass for s in suites)
    _emit({"profile": {"m": p.m, "n": p.n}, "pass": ok, "suites": [s.to_json() for s in suites]})
    return 0 if ok else 1


def cmd_highest_weight(args) -> int:
    p = Profile(args.m, args.n)
    a = parse_vector(args.a, p.size)
    word = highest_weight_word(args.r, a, p)
    top = DividedMonomial(p, ZERO_ONE, (args.r,) + (0,) * (p.size - 1))
    res = act_word_factor(word, LinComb.single(top))
    _emit({"word": word_text(word), "result": factor_element_to_json(res)})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uglmn",
        description="Exact computations in the quantum general linear supergroup.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--m", type=int, required=True, help="even block size")
        sp.add_argument("--n", type=int, required=True, help="odd block size")

    sp = sub.add_parser("act", help="apply one generator to an element")
    common(sp)
    sp.add_argument("--space", choices=list(SPACES), default="series")
    sp.add_argument("--gen", required=True, help="generator token, e.g. E1, F2, K3, K3^-1")
    sp.add_argument("--input", required=True, help="element JSON (inline or file)")
    sp.add_argument("--flavor", choices=sorted(FLAVORS), default="01")
    sp.set_defaults(fn=cmd_act)

    sp = sub.add_parser("multiply", help="product of two series elements")
    common(sp)
    sp.add_argument("--lhs", required=True)
    sp.add_argument("--rhs", required=True)
    sp.set_defaults(fn=cmd_multiply)

    sp = sub.add_parser("expand", help="expand a basis label into generator words")
    common(sp)
    sp.add_argument("--A", required=True, help="matrix: '0,1;1,0', JSON, or file")
    sp.add_argument("--j", required=True, help="twist vector: '0,0', JSON, or file")
    sp.set_defaults(fn=cmd_expand)

    sp = sub.add_parser("truncate", help="finite witness of a basis label")
    common(sp)
    sp.add_argument("--A", required=True)
    sp.add_argument("--j", required=True)
    sp.add_argument("--L", type=int, required=True, help="diagonal level bound")
    sp.set_defaults(fn=cmd_truncate)

    sp = sub.add_parser(
        "oracle-compare", help="check one label action against its truncated series"
    )
    common(sp)
    sp.add_argument("--gen", required=True)
    sp.add_argument("--A", required=True)
    sp.add_argument("--j", required=True)
    sp.add_argument("--L", type=int, default=3)
    sp.set_defaults(fn=cmd_oracle_compare)

    sp = sub.add_parser("verify", help="run relation and agreement suites")
    common(sp)
    sp.add_argument("--suite", choices=["factor", "tensor", "series", "all"], default="all")
    sp.add_argument("--bound", type=int, default=2, help="degree/entry bound")
    sp.add_argument("--mutate", action="store_true", help="corrupt one sign (self-test)")
    sp.add_argument("--threads", type=int, default=None)
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("highest-weight", help="lowering word from the top monomial")
    common(sp)
    sp.add_argument("--r", type=int, required=True, help="total degree")
    sp.add_argument("--a", required=True, help="target exponent vector")
    sp.set_defaults(fn=cmd_highest_weight)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (InputError, ValueError, IndexError, KeyError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
