"""Machine verification of the defining relations on a based module action.

A relation is evaluated as an operator identity: its left-minus-right side is
expanded into generator words with scalar coefficients and applied to every
basis vector the handle enumerates; the residual must vanish exactly.  The
extra Serre relations take the two four-term compound elements built from
E_{m-1}, E_m, E_{m+1} (resp. the F's) and anticommute them with the odd
generator.

Each relation poly is one nested Horner trie (words.horner_plan), evaluated
once per formal key a basis vector lifts to: the vector itself, or on the
series basis its matrix at a formal twist (see regular.act_formal).  By the
independence of the characters v^<char, j>, a zero formal residual is zero
at every twist j in Z^(m+n); a nonzero one is read off at each label's
twist, so the reports are those of a label-by-label check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

from .linear import LinComb
from .polyaction import DividedMonomial, act_factor, act_tensor, odd_slot
from .qcoeff import ONE, VFunc, v_gap_inv
from .regular import FormalLabel, SeriesBasis, act_formal, at_twist
from .superindex import (
    Profile,
    all_matrices,
    all_offdiag,
    alpha,
    basis_vector,
    super_dot,
)
from .words import E, F, GenLetter, apply_plan, horner_plan
from .words import e as e_letter
from .words import f as f_letter
from .words import k as k_letter

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not-applicable"
EMPTY = "empty"  # applicable, but the basis had no vector to check


class Relation(NamedTuple):
    """One defining relation: its label and its left-minus-right as a tuple
    of word-keyed LinCombs, every one required to kill every basis vector
    (no two words of one relation coincide); polys is None when the relation
    needs generators the profile does not have."""

    label: str
    polys: tuple | None


@dataclass
class RelationReport:
    relation: str
    status: str
    checked: int = 0
    counterexample: dict | None = None

    def to_json(self) -> dict:
        obj = {"relation": self.relation, "status": self.status, "checked": self.checked}
        if self.counterexample is not None:
            obj["counterexample"] = self.counterexample
        return obj


@dataclass
class SuiteReport:
    name: str
    reports: list = field(default_factory=list)

    @property
    def all_pass(self) -> bool:
        return all(r.status not in (FAIL, EMPTY) for r in self.reports)

    def failures(self) -> list:
        return [r for r in self.reports if r.status == FAIL]

    def to_json(self) -> dict:
        return {
            "suite": self.name,
            "pass": self.all_pass,
            "reports": [r.to_json() for r in self.reports],
        }


def _as_is(key) -> tuple:
    """The identity lift: the key is its own formal key, read unchanged."""
    return key, lambda r: r


@dataclass
class ActionHandle:
    """A based module: a finite family of test vectors plus a single-letter
    action callback (letter, key) -> LinComb, extended linearly, on formal
    keys: lift(key) -> (formal key, read), and a key's residual is read(its
    formal key's residual).  The default lift is the identity."""

    name: str
    profile: Profile
    basis: tuple
    act: object
    lift: object = _as_is


def relations_for(p: Profile) -> list:
    """Every relation instance valid for the profile, in a fixed order, as
    Relation(label, polys) records built here.  The QG6 entries are always
    listed; their polys are None when the required generators do not exist."""
    size, m = p.size, p.m
    e_and_f = ((E, e_letter), (F, f_letter))
    out = []

    def add(label, *polys):
        out.append(Relation(label, tuple(LinComb(terms) for terms in polys)))

    for a in range(1, size + 1):
        ka = k_letter(a, 1)
        for b in range(a, size + 1):
            kb = k_letter(b, 1)
            if a == b:
                add(f"QG1({a},{b})", {(ka, k_letter(a, -1)): ONE, (): -ONE})
            else:
                add(f"QG1({a},{b})", {(ka, kb): ONE, (kb, ka): -ONE})
    for a in range(1, size + 1):
        ka = k_letter(a, 1)
        for b in range(1, size):
            sd = super_dot(basis_vector(a, size), alpha(b, size), p)
            eb, fb = e_letter(b), f_letter(b)
            add(
                f"QG2({a},{b})",
                {(ka, eb): ONE, (eb, ka): -VFunc.v_power(sd)},
                {(ka, fb): ONE, (fb, ka): -VFunc.v_power(-sd)},
            )
    for a in range(1, size):
        for b in range(1, size):
            # Super bracket: anticommutator exactly when both indices are odd.
            sign = ONE if a == b == m else -ONE
            terms = {(e_letter(a), f_letter(b)): ONE, (f_letter(b), e_letter(a)): sign}
            if a == b:
                inv = v_gap_inv(a, m)
                terms[(k_letter(a, 1), k_letter(a + 1, -1))] = -inv
                terms[(k_letter(a, -1), k_letter(a + 1, 1))] = inv
            add(f"QG3({a},{b})", terms)
    for a in range(1, size):
        for b in range(a + 2, size):
            for which, x in e_and_f:
                add(f"QG4({a},{b},{which})", {(x(a), x(b)): ONE, (x(b), x(a)): -ONE})
    two = VFunc.v_power(1) + VFunc.v_power(-1)
    for a in range(1, size):
        if a == m:
            continue
        for b in (a - 1, a + 1):
            if 1 <= b < size:
                for which, x in e_and_f:
                    aab, aba, baa = (x(a), x(a), x(b)), (x(a), x(b), x(a)), (x(b), x(a), x(a))
                    add(f"QG5({a},{b},{which})", {aab: ONE, aba: -two, baa: ONE})
    square = m >= 1 and p.n >= 1
    for which, x in e_and_f:
        polys = (LinComb.single((x(m), x(m))),) if square else None
        out.append(Relation(f"QG6-square({which})", polys))
    compounds = compound_serre_words(m) if m >= 2 and p.n >= 2 else (None, None)
    for (which, x), words in zip(e_and_f, compounds):
        polys = None
        if words:
            odd = (x(m),)
            terms = {odd + w: c for c, w in words} | {w + odd: c for c, w in words}
            polys = (LinComb(terms),)
        out.append(Relation(f"QG6-serre({which})", polys))
    return out


def compound_serre_words(m: int):
    """The two four-term cubic combinations entering the extra Serre
    relations, as (coefficient, word) lists; needs m >= 2 so that the lower
    neighbor index exists (the caller checks that index m+1 exists too)."""
    if m < 2:
        raise ValueError("compound words need an index below m")
    v = VFunc.v_power(1)
    v_inv = VFunc.v_power(-1)
    e_words = (
        (ONE, (e_letter(m - 1), e_letter(m), e_letter(m + 1))),
        (-v, (e_letter(m - 1), e_letter(m + 1), e_letter(m))),
        (-v_inv, (e_letter(m), e_letter(m + 1), e_letter(m - 1))),
        (ONE, (e_letter(m + 1), e_letter(m), e_letter(m - 1))),
    )
    f_words = (
        (ONE, (f_letter(m + 1), f_letter(m), f_letter(m - 1))),
        (-v_inv, (f_letter(m), f_letter(m + 1), f_letter(m - 1))),
        (-v, (f_letter(m - 1), f_letter(m + 1), f_letter(m))),
        (ONE, (f_letter(m - 1), f_letter(m), f_letter(m + 1))),
    )
    return e_words, f_words


def residual_to_json(x: LinComb) -> list:
    items = sorted(x.terms.items(), key=lambda kv: repr(kv[0]))
    return [{"coeff": c.to_json(), "key": repr(key)} for key, c in items]


def check_relation(rel: Relation, handle: ActionHandle) -> RelationReport:
    """Evaluate one relation on every basis vector; stop at the first
    nonzero residual.  The polys act once per formal key, shared by the
    basis vectors next to each other that lift to it; each nonzero formal
    residual is read off at the vector, and a zero one passes it unread."""
    if rel.polys is None:
        return RelationReport(rel.label, NOT_APPLICABLE)
    checked, formal_key = 0, None
    plans = [horner_plan(poly) for poly in rel.polys]
    for key in handle.basis:
        lifted, read = handle.lift(key)
        if lifted != formal_key:
            formal_key = lifted
            start = LinComb.single(lifted)
            formal = [r for r in (apply_plan(plan, start, handle.act) for plan in plans) if not r.is_zero()]
        for residual in map(read, formal):
            if not residual.is_zero():
                counterexample = {"basis": repr(key), "residual": residual_to_json(residual)}
                return RelationReport(rel.label, FAIL, checked, counterexample)
        checked += 1
    return RelationReport(rel.label, PASS if checked else EMPTY, checked)


def full_suite(handle: ActionHandle) -> SuiteReport:
    report = SuiteReport(handle.name)
    for rel in relations_for(handle.profile):
        report.reports.append(check_relation(rel, handle))
    return report


def all_divided_monomials(p: Profile, flavor: str, max_degree: int):
    """Every divided monomial of total degree <= max_degree."""
    caps = [range(2 if odd_slot(p, flavor, i) else max_degree + 1) for i in range(1, p.size + 1)]
    for exps in itertools.product(*caps):
        if sum(exps) <= max_degree:
            yield DividedMonomial(p, flavor, exps)


def factor_handle(
    p: Profile, flavor: str, max_degree: int, mutate: bool = False
) -> ActionHandle:
    basis = tuple(all_divided_monomials(p, flavor, max_degree))
    if mutate:
        m = p.m

        def act(letter: GenLetter, x: DividedMonomial) -> LinComb:
            res = act_factor(letter, x)
            if letter.kind == E and letter.index == m:
                return -res  # deliberate corruption for mutation testing
            return res

    else:
        act = act_factor
    tag = "mutated-" if mutate else ""
    return ActionHandle(f"{tag}factor[{flavor}] {p.m}|{p.n} deg<={max_degree}", p, basis, act)


def tensor_handle(p: Profile, bound: int) -> ActionHandle:
    basis = tuple(all_matrices(p, bound))
    return ActionHandle(f"tensor {p.m}|{p.n} entries<={bound}", p, basis, act_tensor)


def _lift_label(b: SeriesBasis) -> tuple:
    """(A, j) as the formal label (A, j + 0) with no character, read off at j."""
    zero = (0,) * len(b.j)
    return FormalLabel(b.mat, zero, zero), lambda r: at_twist(r, b.j)


def series_handle(p: Profile, bound: int, j_values) -> ActionHandle:
    """The labels (A, j), grouped by matrix so that every twist of one
    matrix shares its formal evaluation."""
    j_values = list(j_values)  # walked once per matrix
    basis = tuple(SeriesBasis(a, j) for a in all_offdiag(p, bound) for j in j_values)
    name = f"series {p.m}|{p.n} entries<={bound}"
    return ActionHandle(name, p, basis, act_formal, _lift_label)
