"""Command-line front end: actions, products, expansions, truncations, and
verification suites, all over canonical JSON.

Exit codes: 0 on success (and for verify/oracle-compare: everything passed),
1 when a verification fails, 2 on bad input, 141 when the reader of stdout
closed it before the output was written (the code a shell reports after
SIGPIPE).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
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
from .suites import run_factor_suites, run_series_suites, run_tensor_suites
from .words import K, apply_word, check_index, word_from_text, word_text

FLAVORS = {"01": ZERO_ONE, "10": ONE_ZERO}
# Each --space: its single-letter action, its input codec (called with the
# element JSON, the profile and the flavor) and its output codec.
SPACES = {
    "factor": (act_factor, factor_element_from_json, factor_element_to_json),
    "tensor": (act_tensor, lambda obj, p, flavor: tensor_element_from_json(obj), tensor_element_to_json),
    "series": (act_letter, lambda obj, p, flavor: series_element_from_json(obj), series_element_to_json),
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
        except KeyError as exc:
            raise InputError(f"matrix {text!r} is missing the field {exc}") from exc
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


def parse_vector(text: str) -> tuple:
    """Integers as 'a,b,c' or JSON; the key built from them checks the length."""
    src = _read_source(text)
    if src.startswith("["):
        return json_ints(_load_json(src), f"vector {text!r}")
    try:
        return tuple(int(x) for x in src.split(","))
    except ValueError as exc:
        raise InputError(f"cannot parse vector {text!r}: {exc}") from exc


def parse_generator(text: str, p: Profile):
    """One generator letter whose index exists at profile p."""
    word = word_from_text(text)
    if len(word) != 1:
        raise InputError(f"expected a single generator token, got {text!r}")
    check_index(word[0], p.size)
    return word[0]


def parse_label(args, p: Profile) -> SeriesBasis:
    """The basis label (A, j) given by --A and --j."""
    return SeriesBasis(parse_matrix(args.A, p), parse_vector(args.j))


def parse_element(text: str, space: str, p: Profile, flavor: str) -> LinComb:
    x = SPACES[space][1](_load_json(_read_source(text)), p, flavor)
    for key, _ in x:
        if key.profile != p:
            raise InputError(
                f"element profile {key.profile.m}|{key.profile.n} does not match --m/--n"
            )
    return x


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2))


def cmd_act(args) -> int:
    p = Profile(args.m, args.n)
    letter = parse_generator(args.gen, p)
    x = parse_element(args.input, args.space, p, FLAVORS[args.flavor])
    act, _, to_json = SPACES[args.space]
    _emit(to_json(apply_word((letter,), x, act)))
    return 0


def cmd_multiply(args) -> int:
    p = Profile(args.m, args.n)
    lhs = parse_element(args.lhs, "series", p, ZERO_ONE)
    rhs = parse_element(args.rhs, "series", p, ZERO_ONE)
    _emit(series_element_to_json(multiply(lhs, rhs)))
    return 0


def cmd_expand(args) -> int:
    b = parse_label(args, Profile(args.m, args.n))
    out = [
        {"coeff": c.to_json(), "word": word_text(w)} for c, w in expand_as_words(b.mat, b.j)
    ]
    _emit(out)
    return 0


def cmd_truncate(args) -> int:
    _emit(tensor_element_to_json(truncate(parse_label(args, Profile(args.m, args.n)), args.L)))
    return 0


def cmd_oracle_compare(args) -> int:
    p = Profile(args.m, args.n)
    letter = parse_generator(args.gen, p)
    if letter.kind != K and letter.power != 1:
        raise InputError(f"oracle-compare compares one letter of power 1, got {letter.text()}")
    b = parse_label(args, p)
    ok = compare_truncated(letter, b, args.L)
    _emit(
        {
            "generator": letter.text(),
            "A": b.mat.to_json(),
            "j": list(b.j),
            "level": args.L,
            "pass": ok,
        }
    )
    return 0 if ok else 1


def cmd_verify(args) -> int:
    p = Profile(args.m, args.n)
    if args.bound < 0:
        raise InputError(f"--bound must be >= 0, got {args.bound}")
    suites = []
    if args.suite in ("factor", "all"):
        suites.extend(run_factor_suites(p, args.bound, mutate=args.mutate))
    if args.suite in ("tensor", "all"):
        suites.extend(run_tensor_suites(p, args.bound))
    if args.suite in ("series", "all"):
        suites.extend(run_series_suites(p, args.bound))
    ok = all(s.all_pass for s in suites)
    _emit({"profile": {"m": p.m, "n": p.n}, "pass": ok, "suites": [s.to_json() for s in suites]})
    return 0 if ok else 1


def cmd_highest_weight(args) -> int:
    p = Profile(args.m, args.n)
    a = parse_vector(args.a)
    word = highest_weight_word(args.r, a, p)
    top = DividedMonomial(p, ZERO_ONE, (args.r,) + (0,) * (p.size - 1))
    res = act_word_factor(word, LinComb.single(top))
    _emit({"word": word_text(word), "result": factor_element_to_json(res)})
    return 0


@functools.cache  # parsing never changes the parser: build it once per process
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uglmn",
        description="Exact computations in the quantum general linear supergroup.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--m", type=int, required=True, help="even block size")
        sp.add_argument("--n", type=int, required=True, help="odd block size")

    def label(sp):
        sp.add_argument("--A", required=True, help="matrix: '0,1;1,0', JSON, or file")
        sp.add_argument("--j", required=True, help="twist vector: '0,0', JSON, or file")

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
    label(sp)
    sp.set_defaults(fn=cmd_expand)

    sp = sub.add_parser("truncate", help="finite witness of a basis label")
    common(sp)
    label(sp)
    sp.add_argument("--L", type=int, required=True, help="diagonal level bound")
    sp.set_defaults(fn=cmd_truncate)

    sp = sub.add_parser(
        "oracle-compare", help="check one label action against its truncated series"
    )
    common(sp)
    sp.add_argument("--gen", required=True)
    label(sp)
    sp.add_argument("--L", type=int, default=3)
    sp.set_defaults(fn=cmd_oracle_compare)

    sp = sub.add_parser("verify", help="run relation and agreement suites")
    common(sp)
    sp.add_argument("--suite", choices=["factor", "tensor", "series", "all"], default="all")
    sp.add_argument("--bound", type=int, default=2, help="degree/entry bound")
    sp.add_argument("--mutate", action="store_true", help="corrupt one sign (self-test)")
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("highest-weight", help="lowering word from the top monomial")
    common(sp)
    sp.add_argument("--r", type=int, required=True, help="total degree")
    sp.add_argument("--a", required=True, help="target exponent vector")
    sp.set_defaults(fn=cmd_highest_weight)

    return parser


def _attach_negative_values(argv) -> list:
    """argparse reads a value such as '-1,0' as an option: pass '--j -1,0'
    on as '--j=-1,0'."""
    out = []
    for tok in argv:
        if out and re.match(r"--\w[^=]*$", out[-1]) and re.match(r"-\d", tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_attach_negative_values(argv))
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except (InputError, ValueError, IndexError, KeyError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Nothing reads stdout any more: send what is left to the null device,
        # so the flush at interpreter exit raises nothing either.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
