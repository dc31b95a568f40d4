"""Basis keys and generator letters are immutable tuples: hashing, equality
and pickling come from `tuple`, and no invariant is an `assert`.  Checks on
the source of every module: no assert, no hand-kept memo, and doctests that
run."""

import ast
import doctest
import importlib
import pathlib
import pickle

import pytest

import uglmn
from uglmn.polyaction import ZERO_ONE, DividedMonomial
from uglmn.regular import SeriesBasis
from uglmn.superindex import Profile, SuperMatrix
from uglmn.words import E, K, GenLetter

P21 = Profile(2, 1)
ROWS = ((0, 1, 1), (2, 0, 0), (1, 0, 0))
MAT = SuperMatrix(P21, ROWS)

# (validated construction, trusted construction, a field to assign)
CASES = {
    "Profile": (lambda: Profile(2, 1), lambda: Profile._make((2, 1)), "m"),
    "SuperMatrix": (lambda: SuperMatrix(P21, ROWS), lambda: SuperMatrix._make(P21, ROWS), "rows"),
    "SeriesBasis": (
        lambda: SeriesBasis(MAT, (1, -1, 0)),
        lambda: SeriesBasis._make(MAT, (1, -1, 0)),
        "j",
    ),
    "DividedMonomial": (
        lambda: DividedMonomial(P21, ZERO_ONE, (3, 0, 1)),
        lambda: DividedMonomial._make(P21, ZERO_ONE, (3, 0, 1)),
        "exps",
    ),
    "GenLetter": (lambda: GenLetter(K, 2, -3), lambda: GenLetter._make((K, 2, -3)), "power"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_value_type_contract(name):
    validated, trusted, field = CASES[name]
    a, b = validated(), trusted()
    assert type(a) is type(b) and a == b and hash(a) == hash(b)
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(a, field))
    c = pickle.loads(pickle.dumps(a))
    assert type(c) is type(a) and c == a and hash(c) == hash(a)


# Floats where integers belong, which int() would truncate: 0.7 reads 0.
NON_INTEGERS = {
    "SuperMatrix": [lambda: SuperMatrix(Profile(1, 1), [[0, 0.7], [0, 0]])],
    "SeriesBasis": [lambda: SeriesBasis(SuperMatrix(Profile(1, 1), [[0, 1], [0, 0]]), (1.5, 0))],
    "DividedMonomial": [lambda: DividedMonomial(P21, ZERO_ONE, (2.0, 0, 1))],
    "GenLetter": [lambda: GenLetter(K, 1, 0.5), lambda: GenLetter(E, 1.0)],
}


@pytest.mark.parametrize("name", sorted(NON_INTEGERS))
def test_constructor_rejects_non_integers(name):
    for build in NON_INTEGERS[name]:
        with pytest.raises(TypeError):
            build()


def test_keys_of_different_kinds_are_unequal():
    rows = ((0, 1, 1), (0, 0, 0), (1, 0, 0))
    mat, label = SuperMatrix(P21, rows), SeriesBasis(SuperMatrix(P21, rows), (0, 0, 0))
    assert mat != label and label != mat and len({mat, label}) == 2


def test_source_has_no_assert():
    # python -O strips assert statements, so invariants must raise instead.
    found = []
    for path in sorted(pathlib.Path(uglmn.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{n.lineno}" for n in ast.walk(tree) if isinstance(n, ast.Assert)]
    assert found == []


def test_module_doctests_run():
    # Every module's documented examples run as written.
    attempted = {}
    for path in sorted(pathlib.Path(uglmn.__file__).parent.glob("*.py")):
        name = "uglmn" if path.stem == "__init__" else f"uglmn.{path.stem}"
        result = doctest.testmod(importlib.import_module(name))
        assert result.failed == 0, name
        attempted[name] = result.attempted
    assert attempted["uglmn.qcoeff"] >= 4 and attempted["uglmn.regular"] >= 2


def _memo_tables(tree) -> list:
    """Module-level names bound to a dict display or dict() call that is
    empty or that the module stores into by subscript."""
    stored = {
        n.value.id
        for n in ast.walk(tree)
        if isinstance(n, ast.Subscript) and isinstance(n.ctx, ast.Store)
        and isinstance(n.value, ast.Name)
    }
    found = []
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        else:
            continue
        if isinstance(value, ast.Dict):
            empty = not value.keys
        elif isinstance(value, ast.Call) and isinstance(value.func, ast.Name) and value.func.id == "dict":
            empty = not value.args and not value.keywords
        else:
            continue
        found += [t.id for t in targets if isinstance(t, ast.Name) and (empty or t.id in stored)]
    return found


def test_source_memoizes_with_functools_cache():
    # A memo is a functools.cache or lru_cache, whose size cache_info() reports.
    found = []
    for path in sorted(pathlib.Path(uglmn.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.stem}.{name}" for name in _memo_tables(tree)]
    assert found == []
