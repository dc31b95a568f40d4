"""Per-layer metrics of one traced round, read from cProfile statistics.

Self time is totalled by source file, one file per layer of `uglmn`.  Call
counts and inclusive times are read for named functions, which are found
through their code objects, so moving a function within its file does not
break the lookup; a function that no longer exists counts as zero.
"""

from __future__ import annotations

import os
import pstats
import types

LAYERS = (
    "qcoeff", "linear", "superindex", "words", "polyaction",
    "regular", "relcheck", "suites", "cli",
)

# name -> (unit, better); the order is the order of the report.
METRICS = {
    "qcoeff.self_s": ("s", "lower"),
    "qcoeff.vfunc_ops": ("count", "lower"),
    "qcoeff.gcd_calls": ("count", "lower"),
    "linear.self_s": ("s", "lower"),
    "linear.bind_calls": ("count", "lower"),
    "superindex.self_s": ("s", "lower"),
    "superindex.stat_calls": ("count", "lower"),
    "superindex.enumerate_s": ("s", "lower"),
    "superindex.matrices_built": ("count", "lower"),
    "words.self_s": ("s", "lower"),
    "words.letters_applied": ("count", "lower"),
    "polyaction.self_s": ("s", "lower"),
    "polyaction.closed_form_s": ("s", "lower"),
    "polyaction.coproduct_s": ("s", "lower"),
    "regular.self_s": ("s", "lower"),
    "regular.label_action_s": ("s", "lower"),
    "regular.truncate_s": ("s", "lower"),
    "regular.truncate_calls": ("count", "lower"),
    "regular.expand_s": ("s", "lower"),
    "regular.expand_cache_hit_ratio": ("ratio", "higher"),
    "regular.multiply_s": ("s", "lower"),
    "regular.multiply_letters": ("count", "lower"),
    "relcheck.self_s": ("s", "lower"),
    "relcheck.check_relation_s": ("s", "lower"),
    "suites.self_s": ("s", "lower"),
    "suites.grid_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.main_s": ("s", "lower"),
    "cli.codec_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def _key(code: types.CodeType) -> tuple:
    return (code.co_filename, code.co_firstlineno, code.co_name)


def _keys(module, dotted: str) -> set:
    """cProfile keys of module.dotted (a function, method or classmethod)."""
    obj = module
    for part in dotted.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return set()
    code = getattr(getattr(obj, "__func__", obj), "__code__", None)
    return {_key(code)} if code is not None else set()


def _lambda_keys(module, dotted: str) -> set:
    """cProfile keys of the lambdas written inside module.dotted."""
    fn = getattr(module, dotted, None)
    if fn is None:
        return set()
    return {
        _key(c)
        for c in fn.__code__.co_consts
        if isinstance(c, types.CodeType) and c.co_name == "<lambda>"
    }


def _calls(stats: dict, keys: set) -> int:
    return sum(stats[k][1] for k in keys if k in stats)


def _span_s(stats: dict, keys: set) -> float:
    """Inclusive time spent in any of `keys`, counting time in a member
    called from another member only once."""
    total = 0.0
    for k in keys:
        if k not in stats:
            continue
        _, _, _, ct, callers = stats[k]
        total += ct
        for caller, edge in callers.items():
            if caller in keys and caller != k:
                total -= edge[3]
    return total


def per_layer(profiles: dict, expand_cache_growth: int, multiply_phase=None) -> dict:
    """Metrics (without trace.overhead_ratio) from the per-phase profiles of
    one round; `profiles` maps phase name -> cProfile.Profile, and
    `multiply_phase` names the phase whose letters count as multiply work."""
    import importlib

    mods = {name: importlib.import_module(f"uglmn.{name}") for name in LAYERS}
    merged = None
    per_phase = {}
    for name, prof in profiles.items():
        per_phase[name] = pstats.Stats(prof).stats
        merged = pstats.Stats(prof) if merged is None else merged.add(prof)
    stats = merged.stats if merged is not None else {}

    layer_of = {os.path.realpath(m.__file__): name for name, m in mods.items()}
    out = {f"{name}.self_s": 0.0 for name in LAYERS}
    real = {}
    for key, (_, _, tt, _, _) in stats.items():
        path = real.setdefault(key[0], os.path.realpath(key[0]))
        name = layer_of.get(path)
        if name is not None:
            out[f"{name}.self_s"] += tt

    q, sx, r = mods["qcoeff"], mods["superindex"], mods["regular"]

    def keys(module, *names):
        return set().union(*(_keys(module, n) for n in names))

    expand = keys(r, "expand_as_words")
    expand_calls = _calls(stats, expand)
    multiply_stats = per_phase.get(multiply_phase, {})
    out.update({
        "qcoeff.vfunc_ops": _calls(stats, keys(q, "VFunc.__add__", "VFunc.__mul__", "VFunc.__truediv__")),
        "qcoeff.gcd_calls": _calls(stats, keys(q, "VPoly.gcd")),
        "linear.bind_calls": _calls(stats, keys(mods["linear"], "LinComb.bind")),
        "superindex.stat_calls": _calls(stats, keys(sx, "f_stat", "g_stat", "sigma", "s_sign")),
        "superindex.enumerate_s": _span_s(stats, keys(sx, "all_matrices", "all_offdiag")),
        "superindex.matrices_built": _calls(stats, keys(sx, "SuperMatrix.__init__", "SuperMatrix._make")),
        "words.letters_applied": _calls(stats, _lambda_keys(mods["words"], "apply_word")),
        "polyaction.closed_form_s": _span_s(stats, keys(mods["polyaction"], "act_tensor")),
        "polyaction.coproduct_s": _span_s(stats, keys(mods["polyaction"], "act_tensor_coproduct")),
        "regular.label_action_s": _span_s(stats, keys(r, "act_letter", "act_e", "act_f", "act_k")),
        "regular.truncate_s": _span_s(stats, keys(r, "truncate", "truncate_element")),
        "regular.truncate_calls": _calls(stats, keys(r, "truncate", "truncate_element")),
        "regular.expand_s": _span_s(stats, expand),
        "regular.expand_cache_hit_ratio": (
            (expand_calls - expand_cache_growth) / expand_calls if expand_calls else 0.0
        ),
        "regular.multiply_s": _span_s(stats, keys(r, "multiply")),
        "regular.multiply_letters": _calls(multiply_stats, keys(r, "act_letter")),
        "relcheck.check_relation_s": _span_s(stats, keys(mods["relcheck"], "check_relation")),
        "suites.grid_s": _span_s(
            stats, keys(mods["suites"], "tensor_agreement", "series_truncation_agreement")
        ),
        "cli.main_s": _span_s(stats, keys(mods["cli"], "main")),
        "cli.codec_s": _span_s(
            stats, keys(r, "series_element_from_json", "series_element_to_json")
        ),
    })
    return out
