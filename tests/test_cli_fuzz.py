"""CLI exit-code contract under generated input: every subcommand, given
well-formed or malformed JSON and text, returns 0, 1 or 2 and raises
nothing, and exit 2 prints one error line and no output.

About half of the calls are valid throughout; the rest corrupt exactly one
input, so each malformed case meets otherwise valid arguments.  Option
values are passed as --name=value, so argparse never reads a value such as
"-1,0" as an option."""

import contextlib
import io
import json

import pytest

from uglmn.cli import main

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# Malformed values for any JSON slot: wrong types, floats, booleans, nesting.
junk = st.sampled_from([None, True, 0.5, -1, 7, "x", "1", [], [1], {}, {"a": 1}, [[0]], [0.5]])

bad_exponent_maps = st.dictionaries(
    st.sampled_from(["0", "1", "-1", "+0", "x", "1.5"]),
    st.one_of(st.sampled_from(["1", "3/2", "0", "1/0", "y", ""]), st.integers(-2, 2), junk),
    max_size=3,
)


def coefficients(bad):
    if bad:
        return st.one_of(
            st.fixed_dictionaries({"num": bad_exponent_maps, "den": bad_exponent_maps}),
            st.dictionaries(st.sampled_from(["num", "den"]), bad_exponent_maps, max_size=1),
            junk,
        )
    return st.fixed_dictionaries({
        "num": st.dictionaries(
            st.sampled_from(["0", "1", "2"]), st.sampled_from(["1", "-2", "3/2"]), min_size=1, max_size=2
        ),
        "den": st.sampled_from([{"0": "1"}, {"1": "1", "0": "1"}, {"0": "2"}]),
    })


def vectors(size, bad, lo=-1):
    """Integer lists of the given length; bad ones have another length."""
    if bad:
        return st.lists(st.integers(-1, 2), max_size=4).filter(lambda v: len(v) != size)
    return st.lists(st.integers(lo, 1), min_size=size, max_size=size)


def vector_text(size, bad, lo=-1):
    """A vector option as 'a,b,c' text, as JSON, or as malformed JSON."""
    text = st.one_of(
        vectors(size, bad, lo).map(lambda v: ",".join(map(str, v)) or "junk"),
        vectors(size, bad, lo).map(json.dumps),
    )
    return st.one_of(text, junk.map(json.dumps)) if bad else text


@st.composite
def matrix_json(draw, m, n, bad):
    """A diagonal-free matrix object of the profile with entries 0 or 1; a
    bad one has a field missing or of the wrong type, another profile, or an
    entry out of range."""
    size = m + n
    cells = draw(st.lists(st.integers(0, 1), min_size=size * size, max_size=size * size))
    rows = [[0 if r == c else cells[r * size + c] for c in range(size)] for r in range(size)]
    obj = {"m": m, "n": n, "entries": rows}
    if bad:
        fault = draw(st.sampled_from(["junk", "drop", "profile", "entry", "ragged"]))
        if fault == "junk":
            obj[draw(st.sampled_from(sorted(obj)))] = draw(junk)
        elif fault == "drop":
            del obj[draw(st.sampled_from(sorted(obj)))]
        elif fault == "profile":
            obj["m"], obj["n"] = n + 1, m
        elif fault == "entry":
            rows[-1][0] = draw(st.sampled_from([-1, 2, 0.5, "1"]))
        else:
            rows[-1].append(0)
    return obj


@st.composite
def matrix_text(draw, m, n, bad):
    """--A as JSON or as the 'a,b;c,d' text form."""
    obj = draw(matrix_json(m, n, bad))
    if draw(st.booleans()) or not isinstance(obj.get("entries"), list):
        return json.dumps(obj)
    return ";".join(",".join(map(str, r)) for r in obj["entries"]) or "junk"


@st.composite
def elements(draw, space, m, n, bad):
    """Element JSON for a --space; a bad one is no list, or has one term
    with a field missing or malformed."""
    size = m + n
    terms = []
    for _ in range(draw(st.integers(0, 2))):
        term = {"coeff": draw(coefficients(False))}
        if space == "factor":
            term["a"] = draw(vectors(size, False, lo=0))
        else:
            term["A"] = draw(matrix_json(m, n, False))
            if space == "series":
                term["j"] = draw(vectors(size, False))
        terms.append(term)
    if not bad:
        return json.dumps(terms)
    if not terms or draw(st.integers(0, 3)) == 0:
        return json.dumps(draw(junk.filter(lambda x: not isinstance(x, list))))
    term = terms[-1]
    field = draw(st.sampled_from(sorted(term)))
    fault = draw(st.sampled_from(["drop", "junk", "value"]))
    if fault == "drop":
        del term[field]
    elif fault == "junk":
        term[field] = draw(junk)
    elif field == "coeff":
        term[field] = draw(coefficients(True))
    elif field == "A":
        term[field] = draw(matrix_json(m, n, True))
    else:
        term[field] = draw(vectors(size, True))
    return json.dumps(terms)


def generators(size, bad):
    if bad:
        return st.sampled_from([f"E{size}", f"K{size + 1}", "E0", "K0", "E1 F1", "Q1", "", "k1", "F1^(0)"])
    valid = [f"{x}{h}" for h in range(1, size) for x in "EF"] + [f"E{h}^(2)" for h in range(1, size)]
    return st.sampled_from(valid + [f"K{i}" for i in range(1, size + 1)] + [f"K{size}^-1"])


SLOTS = {
    "act": ("gen", "input"),
    "multiply": ("lhs", "rhs"),
    "expand": ("A", "j"),
    "truncate": ("A", "j", "L"),
    "oracle-compare": ("gen", "A", "j", "L"),
    "verify": ("bound",),
    "highest-weight": ("r", "a"),
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(SLOTS)))
    bad = draw(st.sampled_from((None, None, None, "profile") + SLOTS[command]))
    # Profiles up to (2,1); (0,0) is rejected.
    m, n = (0, 0) if bad == "profile" else draw(st.sampled_from([(1, 0), (0, 1), (1, 1), (2, 0), (2, 1)]))
    size = m + n
    argv = [command, f"--m={m}", f"--n={n}"]
    if "gen" in SLOTS[command]:
        argv.append(f"--gen={draw(generators(size, bad == 'gen'))}")
    if command == "act":
        space = draw(st.sampled_from(["factor", "tensor", "series"]))
        argv += [f"--space={space}", f"--flavor={draw(st.sampled_from(['01', '10']))}",
                 f"--input={draw(elements(space, m, n, bad == 'input'))}"]
    elif command == "multiply":
        argv += [f"--{side}={draw(elements('series', m, n, bad == side))}" for side in ("lhs", "rhs")]
    elif "A" in SLOTS[command]:
        argv += [f"--A={draw(matrix_text(m, n, bad == 'A'))}", f"--j={draw(vector_text(size, bad == 'j'))}"]
        if "L" in SLOTS[command]:
            # oracle-compare needs level >= 1, truncate level >= 0.
            least = 1 if command == "oracle-compare" else 0
            argv.append(f"--L={least - 1 if bad == 'L' else draw(st.integers(least, 3))}")
    elif command == "verify":
        # The series suite at size 3 with bound 1 takes seconds, so size 3
        # stops at bound 0.
        bound = -1 if bad == "bound" else draw(st.integers(0, 1 if size < 3 else 0))
        suite = draw(st.sampled_from(["factor", "tensor", "series", "all"]))
        argv += [f"--bound={bound}", f"--suite={suite}"]
        if draw(st.booleans()):
            argv.append("--mutate")
    else:
        a = draw(vectors(size, bad == "a", lo=0))
        r = draw(st.integers(-1, 3).filter(lambda r: r != sum(a))) if bad == "r" else sum(a)
        argv += [f"--r={r}", f"--a={','.join(map(str, a)) or 'junk'}"]
    return argv


@hypothesis.settings(derandomize=True, max_examples=400, deadline=None)
@hypothesis.given(argvs())
def test_every_subcommand_exits_0_1_or_2(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    hypothesis.event(f"{argv[0]} exit {code}")
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().count("\n") == 1 and err.getvalue().startswith("error:")
