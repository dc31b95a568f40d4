"""Machine verification of the defining relations on a based module action.

A relation is evaluated as an operator identity: its left-minus-right side is
expanded into generator words with scalar coefficients and applied to every
basis vector the handle enumerates; the residual must vanish exactly.  The
extra Serre relations take the two four-term compound elements built from
E_{m-1}, E_m, E_{m+1} (resp. the F's) and anticommute them with the odd
generator.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .linear import LinComb
from .polyaction import ZERO_ONE, DividedMonomial, act_factor, act_tensor
from .qcoeff import ONE, VFunc, v_gap
from .superindex import (
    Profile,
    all_matrices,
    all_offdiag,
    alpha,
    basis_vector,
    super_dot,
)
from .words import E, F, GenLetter, apply_word
from .words import e as e_letter
from .words import f as f_letter
from .words import k as k_letter

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not-applicable"
EMPTY = "empty"  # applicable, but the basis had no vector to check


@dataclass(frozen=True)
class RelationId:
    family: str
    a: int = 0
    b: int = 0
    which: str = ""

    def label(self) -> str:
        if self.family in ("QG6-square", "QG6-serre"):
            return f"{self.family}({self.which})"
        if self.which:
            return f"{self.family}({self.a},{self.b},{self.which})"
        return f"{self.family}({self.a},{self.b})"


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


@dataclass
class ActionHandle:
    """A based module: a finite family of test vectors plus a single-letter
    action callback (letter, key) -> LinComb, extended linearly."""

    name: str
    profile: Profile
    basis: tuple
    act: object


def relations_for(p: Profile) -> list:
    """Every relation instance valid for the profile, in a fixed order.
    The QG6 entries are always listed; they report as not-applicable when
    the required generators do not exist."""
    size = p.size
    m = p.m
    out = []
    for a in range(1, size + 1):
        for b in range(a, size + 1):
            out.append(RelationId("QG1", a, b))
    for a in range(1, size + 1):
        for b in range(1, size):
            out.append(RelationId("QG2", a, b))
    for a in range(1, size):
        for b in range(1, size):
            out.append(RelationId("QG3", a, b))
    for a in range(1, size):
        for b in range(a + 2, size):
            out.append(RelationId("QG4", a, b, E))
            out.append(RelationId("QG4", a, b, F))
    for a in range(1, size):
        if a == m:
            continue
        for b in (a - 1, a + 1):
            if 1 <= b < size:
                out.append(RelationId("QG5", a, b, E))
                out.append(RelationId("QG5", a, b, F))
    out.append(RelationId("QG6-square", which=E))
    out.append(RelationId("QG6-square", which=F))
    out.append(RelationId("QG6-serre", which=E))
    out.append(RelationId("QG6-serre", which=F))
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


def _qg3_rhs(a: int, p: Profile):
    inv = v_gap(a, p.m).inv()
    return (
        (-inv, (k_letter(a, 1), k_letter(a + 1, -1))),
        (inv, (k_letter(a, -1), k_letter(a + 1, 1))),
    )


def operator_terms(rel: RelationId, p: Profile):
    """The relation's left-minus-right as a list of operator polynomials
    (each a tuple of (coefficient, word) pairs), every one required to kill
    every basis vector.  None when the relation needs generators the profile
    does not have."""
    m, size = p.m, p.size
    a, b = rel.a, rel.b
    fam = rel.family
    if fam == "QG1":
        if a == b:
            return [((ONE, (k_letter(a, 1), k_letter(a, -1))), (-ONE, ()))]
        return [
            ((ONE, (k_letter(a, 1), k_letter(b, 1))), (-ONE, (k_letter(b, 1), k_letter(a, 1)))),
        ]
    if fam == "QG2":
        sd = super_dot(basis_vector(a, size), alpha(b, size), p)
        return [
            (
                (ONE, (k_letter(a, 1), e_letter(b))),
                (-VFunc.v_power(sd), (e_letter(b), k_letter(a, 1))),
            ),
            (
                (ONE, (k_letter(a, 1), f_letter(b))),
                (-VFunc.v_power(-sd), (f_letter(b), k_letter(a, 1))),
            ),
        ]
    if fam == "QG3":
        # Super bracket: anticommutator exactly when both indices are odd.
        sign = ONE if (a == m and b == m) else -ONE
        terms = [(ONE, (e_letter(a), f_letter(b))), (sign, (f_letter(b), e_letter(a)))]
        if a == b:
            terms.extend(_qg3_rhs(a, p))
        return [tuple(terms)]
    if fam == "QG4":
        x = e_letter if rel.which == E else f_letter
        return [((ONE, (x(a), x(b))), (-ONE, (x(b), x(a))))]
    if fam == "QG5":
        x = e_letter if rel.which == E else f_letter
        two = VFunc.v_power(1) + VFunc.v_power(-1)
        return [
            (
                (ONE, (x(a), x(a), x(b))),
                (-two, (x(a), x(b), x(a))),
                (ONE, (x(b), x(a), x(a))),
            )
        ]
    if fam == "QG6-square":
        if m < 1 or p.n < 1:
            return None
        x = e_letter if rel.which == E else f_letter
        return [((ONE, (x(m), x(m))),)]
    if fam == "QG6-serre":
        if m < 2 or p.n < 2:
            return None
        e_words, f_words = compound_serre_words(m)
        if rel.which == E:
            words, odd = e_words, e_letter(m)
        else:
            words, odd = f_words, f_letter(m)
        terms = [(c, (odd,) + w) for c, w in words]
        terms += [(c, w + (odd,)) for c, w in words]
        return [tuple(terms)]
    raise ValueError(f"unknown relation family {fam!r}")


def residual_to_json(x: LinComb) -> list:
    items = sorted(x.terms.items(), key=lambda kv: repr(kv[0]))
    return [{"coeff": c.to_json(), "key": repr(key)} for key, c in items]


def check_relation(rel: RelationId, handle: ActionHandle) -> RelationReport:
    """Evaluate one relation on every basis vector; stop at the first
    nonzero residual."""
    polys = operator_terms(rel, handle.profile)
    if polys is None:
        return RelationReport(rel.label(), NOT_APPLICABLE)
    checked = 0
    act = handle.act
    for key in handle.basis:
        start = LinComb.single(key)
        for poly in polys:
            residual = LinComb.zero()
            for coeff, word in poly:
                residual = residual + apply_word(word, start, act).scale(coeff)
            if not residual.is_zero():
                return RelationReport(
                    rel.label(),
                    FAIL,
                    checked,
                    {"basis": repr(key), "residual": residual_to_json(residual)},
                )
        checked += 1
    return RelationReport(rel.label(), PASS if checked else EMPTY, checked)


def full_suite(handle: ActionHandle) -> SuiteReport:
    report = SuiteReport(handle.name)
    for rel in relations_for(handle.profile):
        report.reports.append(check_relation(rel, handle))
    return report


def all_divided_monomials(p: Profile, flavor: str, max_degree: int):
    """Every divided monomial of total degree <= max_degree."""
    m = p.m
    caps = []
    for i in range(p.size):
        odd = (i >= m) if flavor == ZERO_ONE else (i < m)
        caps.append(range(2 if odd else max_degree + 1))
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


def series_handle(p: Profile, bound: int, j_values) -> ActionHandle:
    from .regular import SeriesBasis, act_letter

    basis = tuple(
        SeriesBasis(a, j) for a in all_offdiag(p, bound) for j in j_values
    )
    return ActionHandle(f"series {p.m}|{p.n} entries<={bound}", p, basis, act_letter)
