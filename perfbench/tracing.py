"""Span tracing for the benchmark's traced passes.

The library is not edited.  ``install`` wraps the public entry points of each
``sttlab`` module, the kernel boundary of ``exactfield`` and the few private
functions a per-layer metric counts, and rebinds every ``sttlab`` namespace
that bound one of them with ``from .x import y``.  ``uninstall`` puts every
original object back.  Spans stay in memory in a ``Tracer`` and are
summarised, and written out, after the pass.

The layers are the library's modules.  A span's self time is its duration
minus the durations of its child spans, and a layer's self time is the sum
over its spans.  Time under a root span that no wrapped call covers is
``unattributed``, so the layer self times plus that remainder add up to the
root spans exactly.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from functools import cached_property
from statistics import median

from stats import tail_percentile

LAYERS = ("exactfield", "permgroup", "grouprep", "meataxe", "taucalc",
          "blockdec", "theoremlab", "cli")

# The names other modules import from exactfield: the kernel boundary.
KERNEL = ("_matmul", "_rref", "_nullspace", "linsolve", "charpoly", "minpoly",
          "factor")

# Private functions wrapped because a per-layer metric counts them.
EXTRA_FUNCTIONS = {
    "exactfield": KERNEL,
    "meataxe": ("_fitting_split", "_semisimple_quotient_split"),
    "taucalc": ("_cover_data",),
}

# Methods wrapped per class; None wraps every public method of the class.
METHODS = {
    "permgroup": {"Group": ("mult_table",)},
    "grouprep": {"Rep": ("__init__",)},
    "taucalc": {"Tables": ("simples", "pimtable", "chop")},
    "theoremlab": {"PairLab": None},
}

# Facts recorded per span, from the arguments or from the result.
ARG_INFO = {
    "exactfield._matmul": lambda f, A, B: (A.shape[0], A.shape[1], B.shape[1]),
    "exactfield._rref": lambda f, A: A.shape,
    "grouprep.hom_space": lambda M, N: M.dim * N.dim,
}
RESULT_INFO = {
    "grouprep.iso_indecomposable": bool,
    "grouprep.is_isomorphic": bool,
    "meataxe._fitting_split": lambda parts: parts is not None,
}

# PairLab lookups; a lookup whose span has no child span was a cache hit.
CACHE_LOOKUPS = tuple(f"theoremlab.PairLab.{m}" for m in (
    "tau_classes", "homdim", "ind_classes", "res_ind_classes", "conj_classes",
    "chop_class"))
VERDICT_SPANS = ("theoremlab.check_theorem1_classes",
                 "theoremlab.check_theorem2_classes",
                 "theoremlab.check_theorem1", "theoremlab.check_theorem2")
SMALL_DIM = 16

# Every per-layer metric a traced pass reports, with its unit.
PASS_METRICS = {
    "exactfield.self_s": "s",
    "exactfield.share": "ratio",
    "exactfield.matmul_calls": "count",
    "exactfield.matmul_s": "s",
    "exactfield.matmul_small_frac": "ratio",
    "exactfield.matmul_ops": "count",
    "exactfield.rref_calls": "count",
    "exactfield.rref_s": "s",
    "exactfield.rref_cells": "count",
    "exactfield.rref_max_cols": "count",
    "exactfield.charpoly_calls": "count",
    "exactfield.charpoly_s": "s",
    "exactfield.minpoly_calls": "count",
    "exactfield.factor_s": "s",
    "grouprep.self_s": "s",
    "grouprep.hom_space_calls": "count",
    "grouprep.hom_space_s": "s",
    "grouprep.hom_unknowns": "count",
    "grouprep.rep_builds": "count",
    "grouprep.rep_build_s": "s",
    "grouprep.iso_calls": "count",
    "grouprep.iso_hit_ratio": "ratio",
    "meataxe.self_s": "s",
    "meataxe.decompose_calls": "count",
    "meataxe.decompose_s": "s",
    "meataxe.fitting_attempts": "count",
    "meataxe.fitting_split_ratio": "ratio",
    "meataxe.radical_calls": "count",
    "meataxe.radical_s": "s",
    "meataxe.rescue_calls": "count",
    "meataxe.irreducible_calls": "count",
    "meataxe.irreducible_s": "s",
    "meataxe.inconclusive": "count",
    "taucalc.self_s": "s",
    "taucalc.tables_s": "s",
    "taucalc.cover_calls": "count",
    "taucalc.cover_s": "s",
    "taucalc.tau_calls": "count",
    "taucalc.tau_s": "s",
    "blockdec.self_s": "s",
    "blockdec.blocks_calls": "count",
    "blockdec.blocks_s": "s",
    "blockdec.block_of_module_calls": "count",
    "blockdec.inertial_s": "s",
    "theoremlab.self_s": "s",
    "theoremlab.classes_of_calls": "count",
    "theoremlab.classes_of_s": "s",
    "theoremlab.register_calls": "count",
    "theoremlab.register_iso_calls": "count",
    "theoremlab.cache_hit_ratio": "ratio",
    "theoremlab.verdicts": "count",
    "theoremlab.verdict_p50_ms": "ms",
    "theoremlab.verdict_tail_ms": "ms",
    "theoremlab.verdict_tail_pct": "%",
    "permgroup.self_s": "s",
    "permgroup.close_s": "s",
    "permgroup.mult_table_s": "s",
    "cli.self_s": "s",
    "trace.unattributed_s": "s",
    "trace.root_s": "s",
    "trace.pass_s": "s",
    "trace.spans": "count",
}


class Tracer:
    """In-memory span store.  Spans are kept in the order they start, so a
    span's parent always has a smaller index."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.info: list = []
        self.errors: list = []
        self._open = [-1]

    def _enter(self, name: str, info) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1])
        self.info.append(info)
        self.errors.append(None)
        self.ends.append(0.0)
        self._open.append(i)
        self.starts.append(self.clock())
        return i

    def _exit(self, i: int):
        self.ends[i] = self.clock()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        i = self._enter(name, None)
        try:
            yield
        finally:
            self._exit(i)

    def wrap(self, name: str, fn):
        arg_info = ARG_INFO.get(name)
        result_info = RESULT_INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._enter(name, arg_info(*args, **kwargs) if arg_info else None)
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                self.errors[i] = type(e).__name__
                raise
            finally:
                self._exit(i)
            if result_info:
                self.info[i] = result_info(result)
            return result

        return traced

    def dump(self, path: str):
        with open(path, "w") as fh:
            json.dump({"names": self.names, "parents": self.parents,
                       "starts": self.starts, "ends": self.ends,
                       "info": self.info, "errors": self.errors}, fh)


# ---------------------------------------------------------------------------
# wrapping

def _entry_points(layer: str, mod) -> list[str]:
    names = getattr(mod, "__all__", None)
    if names is None:
        names = [n for n in vars(mod) if not n.startswith("_")]
    out = [n for n in names
           if callable(getattr(mod, n)) and not isinstance(getattr(mod, n), type)
           and getattr(getattr(mod, n), "__module__", None) == mod.__name__]
    return out + [n for n in EXTRA_FUNCTIONS.get(layer, ()) if n not in out]


def _methods(cls, wanted) -> list[str]:
    if wanted is not None:
        return list(wanted)
    return [n for n, v in vars(cls).items()
            if not n.startswith("_") and callable(v)]


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every entry point; returns the records ``uninstall`` needs."""
    import sttlab  # noqa: F401  (imports every layer but cli)
    import sttlab.cli  # noqa: F401

    restore: list[tuple[object, str, object]] = []
    wrappers: dict[int, tuple[object, object]] = {}
    for layer in LAYERS:
        mod = sys.modules[f"sttlab.{layer}"]
        for name in _entry_points(layer, mod):
            fn = getattr(mod, name)
            wrappers[id(fn)] = (fn, tracer.wrap(f"{layer}.{name}", fn))
        for cls_name, wanted in METHODS.get(layer, {}).items():
            cls = getattr(mod, cls_name)
            for mname in _methods(cls, wanted):
                attr = vars(cls)[mname]
                span = f"{layer}.{cls_name}.{mname}"
                if isinstance(attr, cached_property):
                    restore.append((attr, "func", attr.func))
                    attr.func = tracer.wrap(span, attr.func)
                else:
                    restore.append((cls, mname, attr))
                    setattr(cls, mname, tracer.wrap(span, attr))
    for modname, mod in list(sys.modules.items()):
        if modname != "sttlab" and not modname.startswith("sttlab."):
            continue
        for attr, value in list(vars(mod).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                restore.append((mod, attr, value))
                setattr(mod, attr, hit[1])
    return restore


def uninstall(restore: list[tuple[object, str, object]]):
    for obj, attr, value in reversed(restore):
        setattr(obj, attr, value)


# ---------------------------------------------------------------------------
# summaries

def layer_of(name: str):
    head = name.split(".", 1)[0]
    return head if head in LAYERS else None


def self_times(t: Tracer) -> list[float]:
    out = [e - s for s, e in zip(t.starts, t.ends)]
    for i, p in enumerate(t.parents):
        if p >= 0:
            out[p] -= t.ends[i] - t.starts[i]
    return out


def outermost(t: Tracer) -> list[bool]:
    """True for spans with no ancestor of the same name, so inclusive times
    of recursive entry points are not counted twice."""
    stack: list[int] = []
    open_names: Counter = Counter()
    out = []
    for i, (name, p) in enumerate(zip(t.names, t.parents)):
        while stack and stack[-1] != p:
            open_names[t.names[stack.pop()]] -= 1
        out.append(open_names[name] == 0)
        stack.append(i)
        open_names[name] += 1
    return out


def accounting(t: Tracer) -> dict:
    """Layer self times, the unattributed remainder and the root total."""
    layers: dict[str, float] = {layer: 0.0 for layer in LAYERS}
    unattributed = 0.0
    for name, st in zip(t.names, self_times(t)):
        layer = layer_of(name)
        if layer is None:
            unattributed += st
        else:
            layers[layer] += st
    root = sum(e - s for s, e, p in zip(t.starts, t.ends, t.parents) if p < 0)
    return {"layers": layers, "unattributed_s": unattributed, "root_s": root}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def summarize(t: Tracer) -> dict:
    """Every metric of PASS_METRICS for one traced pass."""
    acc = accounting(t)
    outer = outermost(t)
    calls: Counter = Counter(t.names)
    incl: dict[str, float] = defaultdict(float)
    children = [0] * len(t.names)
    for i, name in enumerate(t.names):
        if outer[i]:
            incl[name] += t.ends[i] - t.starts[i]
        if t.parents[i] >= 0:
            children[t.parents[i]] += 1

    def infos(name):
        return [x for n, x in zip(t.names, t.info) if n == name]

    mm = infos("exactfield._matmul")
    rr = infos("exactfield._rref")
    iso = infos("grouprep.iso_indecomposable") + infos("grouprep.is_isomorphic")
    fit = infos("meataxe._fitting_split")
    lookups = [children[i] == 0 for i, n in enumerate(t.names) if n in CACHE_LOOKUPS]
    verdict_ms = [(t.ends[i] - t.starts[i]) * 1e3 for i, n in enumerate(t.names)
                  if n in VERDICT_SPANS and outer[i]]
    tail = tail_percentile(verdict_ms) if verdict_ms else None
    register_iso = sum(1 for n, p in zip(t.names, t.parents)
                       if n == "grouprep.iso_indecomposable" and p >= 0
                       and t.names[p] == "theoremlab.PairLab.register")
    inconclusive = sum(
        1 for i, n in enumerate(t.names)
        if layer_of(n) == "meataxe" and t.errors[i] == "InconclusiveError"
        and (t.parents[i] < 0 or layer_of(t.names[t.parents[i]]) != "meataxe"))
    pass_s = sum(e - s for n, s, e, p in zip(t.names, t.starts, t.ends, t.parents)
                 if p < 0 and n == "pass")
    layers = acc["layers"]
    out = {
        "exactfield.self_s": layers["exactfield"],
        "exactfield.share": _ratio(layers["exactfield"], acc["root_s"]),
        "exactfield.matmul_calls": calls["exactfield._matmul"],
        "exactfield.matmul_s": incl["exactfield._matmul"],
        "exactfield.matmul_small_frac": _ratio(
            sum(1 for dims in mm if max(dims) <= SMALL_DIM), len(mm)),
        "exactfield.matmul_ops": sum(n * r * m for n, r, m in mm),
        "exactfield.rref_calls": calls["exactfield._rref"],
        "exactfield.rref_s": incl["exactfield._rref"],
        "exactfield.rref_cells": sum(r * c for r, c in rr),
        "exactfield.rref_max_cols": max((c for _, c in rr), default=0),
        "exactfield.charpoly_calls": calls["exactfield.charpoly"],
        "exactfield.charpoly_s": incl["exactfield.charpoly"],
        "exactfield.minpoly_calls": calls["exactfield.minpoly"],
        "exactfield.factor_s": incl["exactfield.factor"],
        "grouprep.self_s": layers["grouprep"],
        "grouprep.hom_space_calls": calls["grouprep.hom_space"],
        "grouprep.hom_space_s": incl["grouprep.hom_space"],
        "grouprep.hom_unknowns": sum(infos("grouprep.hom_space")),
        "grouprep.rep_builds": calls["grouprep.Rep.__init__"],
        "grouprep.rep_build_s": incl["grouprep.Rep.__init__"],
        "grouprep.iso_calls": len(iso),
        "grouprep.iso_hit_ratio": _ratio(sum(1 for hit in iso if hit), len(iso)),
        "meataxe.self_s": layers["meataxe"],
        "meataxe.decompose_calls": calls["meataxe.decompose"],
        "meataxe.decompose_s": incl["meataxe.decompose"],
        "meataxe.fitting_attempts": len(fit),
        "meataxe.fitting_split_ratio": _ratio(sum(1 for ok in fit if ok), len(fit)),
        "meataxe.radical_calls": calls["meataxe.algebra_radical"],
        "meataxe.radical_s": incl["meataxe.algebra_radical"],
        "meataxe.rescue_calls": calls["meataxe._semisimple_quotient_split"],
        "meataxe.irreducible_calls": calls["meataxe.is_irreducible"],
        "meataxe.irreducible_s": incl["meataxe.is_irreducible"],
        "meataxe.inconclusive": inconclusive,
        "taucalc.self_s": layers["taucalc"],
        "taucalc.tables_s": incl["taucalc.Tables.simples"]
        + incl["taucalc.Tables.pimtable"],
        "taucalc.cover_calls": calls["taucalc._cover_data"],
        "taucalc.cover_s": incl["taucalc._cover_data"],
        "taucalc.tau_calls": calls["taucalc.tau"],
        "taucalc.tau_s": incl["taucalc.tau"],
        "blockdec.self_s": layers["blockdec"],
        "blockdec.blocks_calls": calls["blockdec.blocks"],
        "blockdec.blocks_s": incl["blockdec.blocks"],
        "blockdec.block_of_module_calls": calls["blockdec.block_of_module"],
        "blockdec.inertial_s": incl["blockdec.inertial_group"],
        "theoremlab.self_s": layers["theoremlab"],
        "theoremlab.classes_of_calls": calls["theoremlab.PairLab.classes_of"],
        "theoremlab.classes_of_s": incl["theoremlab.PairLab.classes_of"],
        "theoremlab.register_calls": calls["theoremlab.PairLab.register"],
        "theoremlab.register_iso_calls": register_iso,
        "theoremlab.cache_hit_ratio": _ratio(sum(lookups), len(lookups)),
        "theoremlab.verdicts": len(verdict_ms),
        "theoremlab.verdict_p50_ms": median(verdict_ms) if verdict_ms else 0.0,
        "theoremlab.verdict_tail_ms": tail[1] if tail else 0.0,
        "theoremlab.verdict_tail_pct": tail[0] if tail else 0.0,
        "permgroup.self_s": layers["permgroup"],
        "permgroup.close_s": incl["permgroup.group_close"],
        "permgroup.mult_table_s": incl["permgroup.Group.mult_table"],
        "cli.self_s": layers["cli"],
        "trace.unattributed_s": acc["unattributed_s"],
        "trace.root_s": acc["root_s"],
        "trace.pass_s": pass_s,
        "trace.spans": len(t.names),
    }
    return out
