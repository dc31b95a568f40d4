"""Sparse linear combinations with VFunc coefficients over hashable basis keys."""

from __future__ import annotations

from .qcoeff import VFunc, ZERO


class LinComb:
    """A finite formal sum  sum_k  c_k * k  with nonzero VFunc coefficients.

    Immutable by convention; arithmetic returns fresh objects.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        d = {}
        if terms:
            for k, c in terms.items():
                if not c.is_zero():
                    d[k] = c
        self.terms = d

    @classmethod
    def _raw(cls, d: dict) -> "LinComb":
        x = object.__new__(cls)
        x.terms = d
        return x

    @classmethod
    def zero(cls) -> "LinComb":
        return cls._raw({})

    @classmethod
    def single(cls, key, coeff: VFunc = None) -> "LinComb":
        if coeff is None:
            from .qcoeff import ONE

            coeff = ONE
        if coeff.is_zero():
            return cls._raw({})
        return cls._raw({key: coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms.items())

    def __getitem__(self, key) -> VFunc:
        return self.terms.get(key, ZERO)

    def __eq__(self, other) -> bool:
        return isinstance(other, LinComb) and self.terms == other.terms

    def __add__(self, other: "LinComb") -> "LinComb":
        if not other.terms:
            return self
        if not self.terms:
            return other
        d = dict(self.terms)
        for k, c in other.terms.items():
            s = d.get(k)
            if s is None:
                d[k] = c
            else:
                s = s + c
                if s.is_zero():
                    del d[k]
                else:
                    d[k] = s
        return LinComb._raw(d)

    def __neg__(self) -> "LinComb":
        return LinComb._raw({k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "LinComb") -> "LinComb":
        return self + (-other)

    def scale(self, c: VFunc) -> "LinComb":
        if c.is_zero():
            return LinComb._raw({})
        return LinComb._raw({k: x * c for k, x in self.terms.items()})

    def bind(self, fn) -> "LinComb":
        """Linear extension of a key -> LinComb map."""
        out: dict = {}
        for k, c in self.terms.items():
            for k2, c2 in fn(k).terms.items():
                s = out.get(k2)
                s = c * c2 if s is None else s + c * c2
                if s.is_zero():
                    out.pop(k2, None)
                else:
                    out[k2] = s
        return LinComb._raw(out)

    def filter_keys(self, pred) -> "LinComb":
        return LinComb._raw({k: c for k, c in self.terms.items() if pred(k)})

    def __repr__(self):
        if not self.terms:
            return "LinComb(0)"
        parts = [f"({c.text()})*{k!r}" for k, c in self.terms.items()]
        return "LinComb(" + " + ".join(parts) + ")"


def _coeff_from_json(obj) -> VFunc:
    """A coefficient {"num": {...}, "den": {...}} whose polynomial
    coefficients are strings or integers.  Floats and booleans are rejected,
    not converted: Fraction(0.1) would read the binary value of 0.1."""
    for side in (obj["num"], obj["den"]):
        if not isinstance(side, dict) or any(isinstance(c, (float, bool)) for c in side.values()):
            raise ValueError(f"coefficient must map exponents to strings or integers, got {side!r}")
    return VFunc.from_json(obj)


def element_from_json(obj, parse_key) -> LinComb:
    """An element from JSON terms [{"coeff": ..., <key fields>}, ...], with
    parse_key(term) -> basis key.  Every malformed shape is a ValueError: an
    element that is not a list, a term that is not an object, a field of the
    wrong type, and a key given twice."""
    if not isinstance(obj, list):
        raise ValueError(f"element must be a JSON list of terms, got {type(obj).__name__}")
    terms = {}
    for t in obj:
        if not isinstance(t, dict):
            raise ValueError(f"element term must be a JSON object, got {t!r}")
        try:
            key = parse_key(t)
            coeff = _coeff_from_json(t["coeff"])
        except TypeError as exc:
            raise ValueError(f"malformed element term {t!r}: {exc}") from exc
        if key in terms:
            raise ValueError(f"duplicate term {key!r} in element")
        terms[key] = coeff
    return LinComb(terms)
