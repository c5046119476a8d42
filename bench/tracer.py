"""Per-layer tracing of cgm from outside the library.

`Tracer.install()` replaces the public functions of each `cgm` module with
timing wrappers, wherever they are looked up: in the defining module, in
every module that imported them by name (the `cgm` package, other `cgm`
modules, the benchmark's own modules), and on the class for methods such as
`Matrix.__matmul__`.  `uninstall()` puts every original back.

Two kinds of wrapper:

* **Spans** for layer functions (dsl, diagram casts, semantics, normalform,
  gadgets, axioms, randcircuit).  Each call records name, start, end,
  parent span and operation id into flat arrays that stay in memory until
  the run ends.
* **Leaves** for `linalg`.  Their calls are far too many for one span each;
  they are counted and timed per function and their time is charged to the
  enclosing span, so that span's self time excludes it.

Self time of a span is its duration minus the durations of its child spans,
minus the linalg leaf time spent directly inside it, minus the time the
tracer's own bookkeeping hooks spent inside it.  Self time of a leaf is its
duration minus the leaf calls nested inside it (`cov_compose` calls `@`).
"""

from __future__ import annotations

import os
import sys
from array import array
from time import perf_counter

import cgm
from cgm import (axioms, diagram, dsl, gadgets, linalg, normalform,
                 randcircuit, semantics)
from cgm.diagram import Gen, GenKind, Id, Par, Seq, Swap

SPAN_FUNCTIONS = {
    dsl: ("parse", "print_term", "export_json_ast", "export_dot"),
    diagram: ("has_float_literal", "to_exact_params", "to_float_params",
              "generator_count"),
    semantics: ("evaluate", "interp_generator", "identity_kernel",
                "swap_kernel", "compose", "tensor", "canonicalize",
                "mixture_is_exact", "mixtures_equal", "max_deviation",
                "moments", "sample_many", "sample", "mixture_to_json",
                "with_sorted_words"),
    normalform: ("disintegrate", "synth_cnf", "synth_bool", "emit_nf",
                 "nftree_equal", "tree_is_exact", "decide_equiv",
                 "make_bool_kernel", "certificate_json"),
    gadgets: ("permute_term", "nary_copy", "discard_all", "copy_bundle",
              "add_n", "ite_n", "thick_ite", "matrix_circuit",
              "gaussian_circuit", "gauss_map_circuit", "convex_mix",
              "mix_gate", "sort_boundary"),
    axioms: ("sample_binding", "check_binding", "instantiate", "mutant_of"),
}
SPAN_METHODS = ((randcircuit.TermSampler, "term", "randcircuit.term"),)
LEAF_FUNCTIONS = ("hstack", "vstack", "block_diag", "cov_compose",
                  "cov_block", "ldlt", "four_squares", "sum_square_scales")
LEAF_METHODS = ((linalg.Matrix, "__matmul__", "matmul"),
                (linalg.Matrix, "__add__", "add"),
                (linalg.Matrix, "transpose", "transpose"),
                (linalg.CovFactor, "gram", "gram"))
CACHED = (("gadgets.permute_term", gadgets.permute_term),
          ("gadgets.matrix_circuit", gadgets.matrix_circuit),
          ("linalg.four_squares", linalg.four_squares))
PARAM_CAST = ("diagram.has_float_literal", "diagram.to_exact_params",
              "diagram.to_float_params")
WIRING_KINDS = frozenset({GenKind.BOOL_COPY, GenKind.BOOL_DISCARD,
                          GenKind.REAL_COPY, GenKind.REAL_DISCARD})
PATCH_DIRS = (os.path.dirname(os.path.abspath(cgm.__file__)) + os.sep,
              os.path.dirname(os.path.abspath(__file__)) + os.sep)
MODULES = ("dsl", "diagram", "semantics", "linalg", "normalform", "gadgets")
SETUP_MODULES = ("axioms", "randcircuit")


def gate_count(term) -> int:
    """Generators in a term counted with multiplicity, as `generator_count`."""
    memo = {}

    def count(t):
        key = id(t)
        if key in memo:
            return memo[key]
        if isinstance(t, Gen):
            out = 1
        elif isinstance(t, Seq):
            out = count(t.early) + count(t.late)
        elif isinstance(t, Par):
            out = count(t.top) + count(t.bottom)
        else:
            out = 0
        memo[key] = out
        return out

    return count(term)


def leaf_nodes(term):
    """(wiring leaves, all leaves, all nodes) over distinct node objects."""
    seen = set()
    todo = [term]
    wiring = leaves = nodes = 0
    while todo:
        t = todo.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        nodes += 1
        if isinstance(t, Seq):
            todo.extend((t.early, t.late))
        elif isinstance(t, Par):
            todo.extend((t.top, t.bottom))
        else:
            leaves += 1
            if isinstance(t, (Id, Swap)) or t.generator.kind in WIRING_KINDS:
                wiring += 1
    return wiring, leaves, nodes


def _component_total(mix) -> int:
    return sum(len(comps) for _, comps in mix.table)


class Tracer:
    """Span recorder plus the per-layer counters measured at the same
    boundaries.  One instance per traced run; not thread-safe."""

    def __init__(self):
        self.op = -1
        self.name_of = []
        self.id_of = {}
        self.span_name = array("i")
        self.span_op = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_leaf = array("d")     # linalg leaf time directly inside
        self.span_hook = array("d")     # tracer bookkeeping inside
        self.stack = []
        self.leaf_stack = []
        self.leaf = {}                  # name -> [calls, total, self] per phase
        self.patched = []
        self.cache_start = {}
        self.cache_end = {}
        self._reset_counters()

    def _reset_counters(self):
        self.distinct_generators = set()
        self.wiring_leaves = 0
        self.term_leaves = 0
        self.parsed_nodes = 0
        self.canon_in = 0
        self.canon_out = 0
        self.draws = 0
        self.peak_rows = 0
        self.peak_components = 0
        self.peak_real_dim = 0
        self.peak_factor_width = 0
        self.gates_in = 0
        self.gates_out = 0
        self._provenance = {}
        for name in LEAF_FUNCTIONS + tuple(n for _, _, n in LEAF_METHODS):
            self.leaf[name] = [0, 0.0, 0.0]

    # --- wrappers ------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self.id_of:
            self.id_of[name] = len(self.name_of)
            self.name_of.append(name)
        return self.id_of[name]

    def _span(self, name, fn, pre=None, post=None):
        nid = self._name_id(name)
        stack = self.stack
        names, ops, parents = self.span_name, self.span_op, self.span_parent
        starts, ends = self.span_start, self.span_end
        leaf, hook = self.span_leaf, self.span_hook

        def wrapped(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            ops.append(self.op)
            parents.append(stack[-1] if stack else -1)
            leaf.append(0.0)
            hook.append(0.0)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            start = perf_counter()
            try:
                if pre is not None:
                    tick = perf_counter()
                    state = pre(args, kwargs)
                    hook[idx] += perf_counter() - tick
                out = fn(*args, **kwargs)
                if post is not None:
                    tick = perf_counter()
                    post(args, kwargs, out, state if pre is not None else None)
                    hook[idx] += perf_counter() - tick
            finally:
                end = perf_counter()
                stack.pop()
                starts[idx] = start
                ends[idx] = end
            return out

        wrapped.__wrapped__ = fn
        return wrapped

    def _leaf(self, name, fn):
        leaf_stack = self.leaf_stack
        stack = self.stack
        span_leaf = self.span_leaf

        def wrapped(*args, **kwargs):
            leaf_stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                took = perf_counter() - start
                nested = leaf_stack.pop()
                rec = self.leaf[name]
                rec[0] += 1
                rec[1] += took
                rec[2] += took - nested
                if leaf_stack:
                    leaf_stack[-1] += took
                elif stack:
                    span_leaf[stack[-1]] += took

        wrapped.__wrapped__ = fn
        return wrapped

    # --- hooks: counters measured where the work happens ------------------

    def _see_kernel(self, mix):
        rows = len(mix.table)
        if rows > self.peak_rows:
            self.peak_rows = rows
        dim = max(mix.m, mix.n)
        if dim > self.peak_real_dim:
            self.peak_real_dim = dim
        for _, comps in mix.table:
            if len(comps) > self.peak_components:
                self.peak_components = len(comps)
            for c in comps:
                if c.cov.factor.cols > self.peak_factor_width:
                    self.peak_factor_width = c.cov.factor.cols

    def _post_kernel(self, args, kwargs, out, state):
        self._see_kernel(out)

    def _post_interp(self, args, kwargs, out, state):
        gen = args[0]
        self.distinct_generators.add((gen, type(gen.param)))
        self._see_kernel(out)

    def _pre_canon(self, args, kwargs):
        return _component_total(args[0])

    def _post_canon(self, args, kwargs, out, before):
        self.canon_in += before
        self.canon_out += _component_total(out)

    def _pre_evaluate(self, args, kwargs):
        wiring, leaves, _ = leaf_nodes(args[0])
        self.wiring_leaves += wiring
        self.term_leaves += leaves

    def _post_evaluate(self, args, kwargs, out, state):
        self._provenance[id(out)] = (out, gate_count(args[0]))

    def _post_disintegrate(self, args, kwargs, out, state):
        hit = self._provenance.get(id(args[0]))
        if hit is not None and hit[0] is args[0]:
            self._provenance[id(out)] = (out, hit[1])

    def _post_emit(self, args, kwargs, out, state):
        hit = self._provenance.get(id(args[0]))
        if hit is not None and hit[0] is args[0]:
            self.gates_in += hit[1]
            self.gates_out += gate_count(out)

    def _post_parse(self, args, kwargs, out, state):
        self.parsed_nodes += leaf_nodes(out)[2]

    def _pre_sample(self, args, kwargs):
        self.draws += kwargs["count"] if "count" in kwargs else args[3]

    # --- install / uninstall --------------------------------------------

    def _replace_everywhere(self, original, replacement):
        for mod in list(sys.modules.values()):
            path = os.path.abspath(getattr(mod, "__file__", None) or os.sep)
            if not path.startswith(PATCH_DIRS):
                continue
            space = vars(mod)
            for key, value in list(space.items()):
                if value is original:
                    space[key] = replacement
                    self.patched.append((space, key, original))

    def install(self):
        hooks = {
            "semantics.interp_generator": (None, self._post_interp),
            "semantics.compose": (None, self._post_kernel),
            "semantics.tensor": (None, self._post_kernel),
            "semantics.canonicalize": (self._pre_canon, self._post_canon),
            "semantics.evaluate": (self._pre_evaluate, self._post_evaluate),
            "semantics.sample_many": (self._pre_sample, None),
            "normalform.disintegrate": (None, self._post_disintegrate),
            "normalform.emit_nf": (None, self._post_emit),
            "dsl.parse": (None, self._post_parse),
        }
        for module, names in SPAN_FUNCTIONS.items():
            short = module.__name__.split(".")[-1]
            for fname in names:
                original = getattr(module, fname)
                label = f"{short}.{fname}"
                pre, post = hooks.get(label, (None, None))
                self._replace_everywhere(
                    original, self._span(label, original, pre, post))
        for cls, attr, label in SPAN_METHODS:
            original = cls.__dict__[attr]
            setattr(cls, attr, self._span(label, original))
            self.patched.append((cls, attr, original))
        for fname in LEAF_FUNCTIONS:
            original = getattr(linalg, fname)
            self._replace_everywhere(original, self._leaf(fname, original))
        for cls, attr, label in LEAF_METHODS:
            original = cls.__dict__[attr]
            setattr(cls, attr, self._leaf(label, original))
            self.patched.append((cls, attr, original))

    def uninstall(self):
        for owner, key, original in reversed(self.patched):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self.patched.clear()

    def begin_ops(self):
        """Close the set-up phase: later spans and counters belong to ops."""
        self._reset_counters()
        self.cache_start = {name: fn.cache_info() for name, fn in CACHED}

    def next_op(self, index: int):
        self.op = index
        self._provenance = {}

    def end_ops(self):
        self.cache_end = {name: fn.cache_info() for name, fn in CACHED}
        self._provenance = {}

    # --- aggregation -------------------------------------------------------

    def span_stats(self, ops_phase: bool = True) -> dict:
        """name -> [calls, inclusive seconds, self seconds] over one phase."""
        n = len(self.span_name)
        child = [0.0] * n
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += self.span_end[i] - self.span_start[i]
        stats = {}
        for i in range(n):
            if (self.span_op[i] >= 0) != ops_phase:
                continue
            name = self.name_of[self.span_name[i]]
            dur = self.span_end[i] - self.span_start[i]
            rec = stats.setdefault(name, [0, 0.0, 0.0])
            rec[0] += 1
            rec[1] += dur
            rec[2] += dur - child[i] - self.span_leaf[i] - self.span_hook[i]
        return stats

    def hit_ratio(self, name: str) -> float:
        before, after = self.cache_start[name], self.cache_end[name]
        hits = after.hits - before.hits
        misses = after.misses - before.misses
        return hits / (hits + misses) if hits + misses else 0.0

    def metrics(self) -> dict:
        """Per-layer metrics of the op phase (plus set-up layer self time)."""
        spans = self.span_stats(True)
        leaves = self.leaf

        def span(name, idx):
            return spans.get(name, (0, 0.0, 0.0))[idx]

        out = {}
        for name in ("interp_generator", "compose", "tensor", "canonicalize",
                     "evaluate", "sample_many"):
            out[f"semantics.{name}.calls"] = span(f"semantics.{name}", 0)
        for name in ("interp_generator", "compose", "tensor", "canonicalize",
                     "evaluate", "mixture_is_exact", "mixtures_equal",
                     "moments", "sample_many"):
            out[f"semantics.{name}.self_s"] = span(f"semantics.{name}", 2)
        calls = span("semantics.interp_generator", 0)
        out["semantics.interp_generator.distinct_ratio"] = (
            len(self.distinct_generators) / calls if calls else 0.0)
        out["semantics.canonicalize.merge_ratio"] = (
            (self.canon_in - self.canon_out) / self.canon_in
            if self.canon_in else 0.0)
        out["diagram.wiring_node_share"] = (
            self.wiring_leaves / self.term_leaves if self.term_leaves else 0.0)
        out["diagram.param_cast.self_s"] = sum(span(n, 2) for n in PARAM_CAST)
        out["normalform.nftree_equal.self_s"] = span("normalform.nftree_equal", 2)
        for name in ("disintegrate", "emit_nf", "synth_bool", "synth_cnf",
                     "decide_equiv"):
            out[f"normalform.{name}.self_s"] = span(f"normalform.{name}", 2)
        for name in ("matmul", "gram", "block_diag", "hstack"):
            out[f"linalg.{name}.calls"] = leaves[name][0]
        for name in ("matmul", "gram", "block_diag", "hstack", "cov_compose",
                     "ldlt"):
            out[f"linalg.{name}.self_s"] = leaves[name][2]
        out["linalg.peak_factor_width"] = self.peak_factor_width
        for name, _ in CACHED:
            out[f"{name}.hit_ratio"] = self.hit_ratio(name)
        out["dsl.parse.self_s"] = span("dsl.parse", 2)
        parse_time = span("dsl.parse", 1)
        out["dsl.parse.nodes_per_s"] = (self.parsed_nodes / parse_time
                                        if parse_time else 0.0)
        out["dsl.print_term.self_s"] = span("dsl.print_term", 2)
        sample_time = span("semantics.sample_many", 1)
        out["semantics.sample_many.draws_per_s"] = (self.draws / sample_time
                                                    if sample_time else 0.0)
        out["semantics.peak_rows"] = self.peak_rows
        out["semantics.peak_components"] = self.peak_components
        out["semantics.peak_real_dim"] = self.peak_real_dim
        out["nf_gate_ratio"] = (self.gates_out / self.gates_in
                                if self.gates_in else 0.0)
        for module in MODULES:
            out[f"{module}.self_s"] = self._module_self(spans, leaves, module)
        setup = self.span_stats(False)
        for module in SETUP_MODULES:
            out[f"setup.{module}.self_s"] = self._module_self(setup, {}, module)
        return out

    @staticmethod
    def _module_self(spans, leaves, module) -> float:
        total = sum(rec[2] for name, rec in spans.items()
                    if name.split(".")[0] == module)
        if module == "linalg":
            total += sum(rec[2] for rec in leaves.values())
        return total
