"""Span tracing of rmcode from outside the package.

``Tracer.install()`` wraps the public functions of each traced module and
``Field.__init__``, and rebinds every name in every loaded ``rmcode``
module that refers to a wrapped function, so calls made through a
``from .codes import min_distance`` binding are traced too.  ``polyring``
is not traced: its arithmetic runs per term and wrappers would swamp it;
its cost shows in the self time of its callers.

Each call records a span ``[name, parent, start, end, note]``.  A span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from math import comb

import numpy as np

TRACED_MODULES = (
    "linalg",
    "groebner",
    "variety",
    "indicators",
    "codes",
    "duality",
    "artinian",
    "analysis",
)

NAME, PARENT, START, END, NOTE = range(5)


def self_times(spans):
    """Self time of each span: its duration minus its direct children's."""
    child = [0.0] * len(spans)
    for sp in spans:
        if sp[PARENT] >= 0:
            child[sp[PARENT]] += sp[END] - sp[START]
    return [sp[END] - sp[START] - c for sp, c in zip(spans, child)]


def _rref_note(args, kwargs, result):
    shape = np.shape(args[1] if len(args) > 1 else kwargs["mat"])
    return shape[0] * shape[1] if len(shape) == 2 else 0


def _md_note(args, kwargs, result):
    C = args[0]
    return (C.dimension, C.field.q, result)


def _ghw_note(args, kwargs, result):
    C = args[0]
    r = args[1] if len(args) > 1 else kwargs["r"]
    return (C.dimension, r, C.field.q, result)


def _ext_note(args, kwargs, result):
    return result[1]


def _wm_note(args, kwargs, result):
    counts = defaultdict(int)
    for row in result.cells:
        for c in row:
            counts[c.method if c.kind == "exact" else c.kind] += 1
    return dict(counts)


class Tracer:
    """Records spans of the traced rmcode functions while installed."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._restore = []
        self._widths = {}

    # -- wrapping -------------------------------------------------------------

    def wrap(self, name, fn, note=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[END] = clock()
                stack.pop()
                span[NOTE] = ("raised", type(exc).__name__)
                raise
            span[END] = clock()
            stack.pop()
            if note is not None:
                span[NOTE] = note(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _footprint_note(self, args, kwargs, result):
        # the r-subsets swept are C(width, r), width = #standard monomials of
        # degree d; memoized per basis object so the count costs one call
        from rmcode.groebner import standard_monomials_upto

        gb, d, r = args[:3]
        nvars = (args[3] if len(args) > 3 else kwargs.get("nvars")) or gb.nvars
        hit = self._widths.get((id(gb), nvars, d))
        if hit is None or hit[0] is not gb:
            smu = getattr(standard_monomials_upto, "__wrapped__", standard_monomials_upto)
            hit = (gb, len(smu(gb, nvars, d)[d]))
            self._widths[(id(gb), nvars, d)] = hit
        return comb(hit[1], r)

    def install(self):
        """Wrap the traced layers; ``uninstall`` restores every binding."""
        from rmcode import gf

        notes = {
            "linalg.rref": _rref_note,
            "codes.min_distance": _md_note,
            "codes.ghw": _ghw_note,
            "codes.footprint": self._footprint_note,
            "codes.weight_matrix": _wm_note,
            "artinian.find_regular_linear_form": _ext_note,
        }
        replace = {}
        for mod_name in TRACED_MODULES:
            mod = sys.modules[f"rmcode.{mod_name}"]
            for attr, fn in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or not callable(fn)
                    or isinstance(fn, type)
                    or getattr(fn, "__module__", None) != mod.__name__
                ):
                    continue
                name = f"{mod_name}.{attr}"
                replace[id(fn)] = (fn, self.wrap(name, fn, notes.get(name)))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "rmcode" or mod_name.startswith("rmcode.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._restore.append((mod, attr, value))
        # Field stays the same class (its __eq__ tests isinstance); only its
        # construction is wrapped
        init = gf.Field.__init__
        gf.Field.__init__ = self.wrap("gf.field_init", init)
        self._restore.append((gf.Field, "__init__", init))
        return self

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()


def summarize(spans):
    """Per-layer metrics of one traced pass (see ``PER_LAYER``) and its
    decision log."""
    from rmcode.codes import gaussian_binomial, projective_count

    selfs = self_times(spans)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    for sp, st in zip(spans, selfs):
        self_s[sp[NAME]] += st
        calls[sp[NAME]] += 1

    def ancestors(i):
        p = spans[i][PARENT]
        while p >= 0:
            yield spans[p][NAME]
            p = spans[p][PARENT]

    md_cw = md_time = md_exits = md_skipped = 0
    ghw_sub = ghw_time = 0
    fp_sub = fp_time = 0
    rref_cells = fallbacks = 0
    ext = []
    wm = defaultdict(int)
    for i, sp in enumerate(spans):
        name, note, dur = sp[NAME], sp[NOTE], sp[END] - sp[START]
        raised = isinstance(note, tuple) and note[:1] == ("raised",)
        if name == "codes.min_distance":
            if raised:
                # global_duality skips its check when the sweep is over budget
                parent = sp[PARENT]
                if (
                    note[1] == "BudgetExceeded"
                    and parent >= 0
                    and spans[parent][NAME] == "duality.global_duality"
                ):
                    md_skipped += 1
            elif note[2] > 1:
                # a result above 1 means the whole projective space was swept
                md_cw += projective_count(note[0], note[1])
                md_time += dur
            else:
                md_exits += 1
        elif name == "codes.ghw" and not raised:
            k, r, q, val = note
            if val > r:
                ghw_sub += gaussian_binomial(k, r, q)
                ghw_time += dur
        elif name == "codes.footprint" and not raised:
            fp_sub += note
            fp_time += dur
        elif name == "codes.weight_matrix" and not raised:
            for key, n in note.items():
                wm[key] += n
        elif name == "linalg.rref" and not raised:
            rref_cells += note
        elif name == "groebner.buchberger":
            if "variety.vanishing_ideal" in ancestors(i):
                fallbacks += 1
        elif name == "artinian.find_regular_linear_form" and not raised:
            ext.append(note)

    out = {f"{n}_s": self_s[n] for n in _TIMED}
    out.update({f"{n}_calls": calls[n] for n in _COUNTED})
    out.update(
        {
            "codes.min_distance_codewords": md_cw,
            "codes.min_distance_cw_per_s": md_cw / md_time if md_time else 0.0,
            "codes.min_distance_early_exits": md_exits,
            "codes.ghw_subspaces": ghw_sub,
            "codes.ghw_subspaces_per_s": ghw_sub / ghw_time if ghw_time else 0.0,
            "codes.footprint_subsets": fp_sub,
            "codes.footprint_subsets_per_s": fp_sub / fp_time if fp_time else 0.0,
            "linalg.rref_cells": rref_cells,
            "variety.buchberger_fallbacks": fallbacks,
            "duality.md_check_skipped": md_skipped,
            "artinian.extended_inputs": sum(1 for e in ext if e > 1),
            "artinian.extension_degree_max": max(ext, default=0),
            "gf.fields_built": calls["gf.field_init"],
        }
    )
    for method in WM_METHODS:
        out[f"codes.wm_cells.{method}"] = wm[method]
    decisions = [f"artinian.extension_degree={e}" for e in ext]
    return out, decisions


WM_METHODS = ("brute", "regularity-pin", "bounds", "interval", "infinity")

# spans whose summed self time is a metric `<span>_s`
_TIMED = (
    "codes.min_distance",
    "codes.ghw",
    "codes.footprint",
    "codes.weight_matrix",
    "codes.code_of_degree",
    "codes.dual_code",
    "linalg.rref",
    "linalg.nullspace",
    "groebner.standard_monomials_upto",
    "groebner.buchberger",
    "groebner.gb_certify",
    "groebner.monomial_dim_degree",
    "groebner.monomial_colon",
    "groebner.minimal_generator_count",
    "variety.parse_points_text",
    "variety.vanishing_ideal",
    "variety.hilbert_data",
    "indicators.standard_indicators",
    "duality.global_duality",
    "duality.self_dual_report",
    "duality.gorenstein_selfdual_classify",
    "artinian.classify",
    "artinian.find_regular_linear_form",
    "artinian.verify_socle_identities",
    "gf.field_init",
    "analysis.analyze_text",
)
_COUNTED = (
    "codes.min_distance",
    "codes.ghw",
    "codes.footprint",
    "codes.code_of_degree",
    "codes.dual_code",
    "linalg.rref",
    "linalg.nullspace",
    "groebner.standard_monomials_upto",
    "groebner.buchberger",
    "groebner.monomial_dim_degree",
    "groebner.monomial_colon",
)

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    [(f"{n}_s", "s", "lower") for n in _TIMED]
    + [(f"{n}_calls", "count", "lower") for n in _COUNTED]
    + [
        ("codes.min_distance_codewords", "count", "lower"),
        ("codes.min_distance_cw_per_s", "1/s", "higher"),
        ("codes.min_distance_early_exits", "count", "higher"),
        ("codes.ghw_subspaces", "count", "lower"),
        ("codes.ghw_subspaces_per_s", "1/s", "higher"),
        ("codes.footprint_subsets", "count", "lower"),
        ("codes.footprint_subsets_per_s", "1/s", "higher"),
        ("codes.wm_cells.brute", "count", "lower"),
        ("codes.wm_cells.regularity-pin", "count", "higher"),
        ("codes.wm_cells.bounds", "count", "higher"),
        ("codes.wm_cells.interval", "count", "lower"),
        ("codes.wm_cells.infinity", "count", "higher"),
        ("linalg.rref_cells", "count", "lower"),
        ("variety.buchberger_fallbacks", "count", "lower"),
        ("duality.md_check_skipped", "count", "lower"),
        ("artinian.extended_inputs", "count", "lower"),
        ("artinian.extension_degree_max", "count", "lower"),
        ("gf.fields_built", "count", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
)
