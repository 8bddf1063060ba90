"""Spans and counts around the public functions of each jvu layer.

The tracer patches functions from outside the library: nothing in ``src/jvu``
knows about it.  A function imported by value into another module (``ideals``
imports ``dominated``, ``albert`` imports ``affine_solve``, ``cli`` imports
``cohn_gap_witness`` ...) is a second binding of the same object, and a call
through an unpatched binding would be missed silently.  So every jvu module is
scanned for every binding of each traced function, and each one is replaced.

Spans are ``[name, start, end, parent]`` records kept in memory; the worker
ships them out after the operation has finished.  Field operations and other
very hot calls are counted, not timed, so tracing stays cheap enough to run
a whole operation under it.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# Span names, one per wrapped layer boundary.  Several functions may share a
# name (the three identity checks, the two subspace queries).
SPAN_TARGETS = (
    ("jvu.jordan", "jordan_closure_table", "jordan.closure_table"),
    ("jvu.ideals", "cohn_gap_witness", "ideals.cohn_gap_witness"),
    ("jvu.ideals", "outer_ideal_component", "ideals.outer_ideal_component"),
    ("jvu.ideals", "assoc_ideal_component", "ideals.assoc_ideal_component"),
    ("jvu.ideals", "outer_ideal_is_closed", "ideals.outer_ideal_is_closed"),
    ("jvu.linalg", "Subspace.insert", "linalg.insert"),
    ("jvu.linalg", "Subspace.contains", "linalg.query"),
    ("jvu.linalg", "Subspace.membership", "linalg.query"),
    ("jvu.linalg", "affine_solve", "linalg.affine_solve"),
    ("jvu.freealg", "FreePoly.__mul__", "freealg.mul"),
    ("jvu.albert", "jordan_mul", "albert.jordan_mul"),
    ("jvu.albert", "r_op", "albert.r_op"),
    ("jvu.albert", "u_op", "albert.u_op"),
    ("jvu.albert", "AlbertOperator.__matmul__", "albert.op_matmul"),
    ("jvu.albert", "sample_zero_pair", "albert.sample_zero_pair"),
    ("jvu.albert", "left_kernel", "albert.left_kernel"),
    ("jvu.albert", "check_zero_pair", "albert.check_zero_pair"),
    ("jvu.albert", "zero_pair_operator_collapse", "albert.operator_collapse"),
    ("jvu.albert", "check_cubic", "albert.identity_checks"),
    ("jvu.albert", "check_eq1", "albert.identity_checks"),
    ("jvu.albert", "check_operator_identity", "albert.identity_checks"),
    ("jvu.albert", "find_noncommuting_pair", "albert.nonvacuous_check"),
    ("jvu.expr", "parse_expr", "expr.parse_expr"),
    ("jvu.expr", "format_poly", "expr.format"),
    ("jvu.expr", "format_linear_combination", "expr.format"),
    ("jvu.cli", "run_command", "cli.run_command"),
)

FIELD_OPS = ("add", "sub", "mul", "neg", "inv", "div")

ROOT = "unwrapped"  # the operation itself: time outside every wrapped call


def _resolve(module: str, qualname: str):
    owner = sys.modules[module]
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Installs span and count wrappers; ``uninstall`` puts the originals back."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.bindings: list[str] = []  # "module.attr" of every patched binding
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._table_inserts = 0  # GradedSpanTable.insert calls, for cache-hit detection

    # -- patching -----------------------------------------------------------

    def _replace(self, owner, attr: str, wrapper, label: str):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)
        self.bindings.append(label)

    def _patch_everywhere(self, module: str, qualname: str, make_wrapper):
        """Wrap a function at its definition and at every module-level
        binding of the same object in any loaded jvu module."""
        owner, attr = _resolve(module, qualname)
        original = owner.__dict__[attr]
        wrapper = make_wrapper(original)
        self._replace(owner, attr, wrapper, f"{module}.{qualname}")
        if "." in qualname:  # a method: the class attribute is its only binding
            return
        for name, mod in sorted(sys.modules.items()):
            if mod is owner or not (name == "jvu" or name.startswith("jvu.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._replace(mod, key, wrapper, f"{name}.{key}")

    def install(self):
        for module, qualname, span_name in SPAN_TARGETS:
            self._patch_everywhere(module, qualname, lambda fn, n=span_name: self._span(n, fn))
        self._patch_everywhere("jvu.jordan", "dominated", lambda fn: self._count("jordan.degree_checks", fn))
        self._patch_everywhere("jvu.jordan", "GradedSpanTable.insert", self._table_insert)
        self._patch_everywhere("jvu.albert", "random_element", self._sampler_draw)
        for op in FIELD_OPS:
            self._patch_everywhere("jvu.fields", f"Field.{op}", self._field_op)
        self._patch_everywhere("jvu.fields", "Field.is_zero", lambda fn: self._count("fields.is_zero.calls", fn))
        self._wrap_results()

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- wrappers -----------------------------------------------------------

    def _span(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return wrapper

    def _count(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _field_op(self, fn):
        counts = self.counts

        def wrapper(field, *args):
            counts["fields.ops.gfp" if field.characteristic else "fields.ops.q"] += 1
            return fn(field, *args)

        return wrapper

    def innermost(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def _table_insert(self, fn):
        """GradedSpanTable.insert, attributed to the closure or the outer-ideal
        loop by the innermost open span."""
        counts = self.counts
        prefix = {"jordan.closure_table": "jordan.closure", "ideals.outer_ideal_component": "ideals.outer"}

        def wrapper(table, elem):
            self._table_inserts += 1
            grew = fn(table, elem)
            layer = prefix.get(self.innermost())
            if layer is not None:
                counts[f"{layer}.inserts"] += 1
                counts[f"{layer}.reps"] += grew
            return grew

        return wrapper

    def _sampler_draw(self, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            if self.innermost() == "albert.sample_zero_pair":
                counts["albert.sampler_attempts"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap_results(self):
        """Counts read off return values and call outcomes of spanned calls."""
        counts = self.counts

        def closure_table(fn):
            def wrapper(*args, **kwargs):
                before = self._table_inserts
                out = fn(*args, **kwargs)
                counts["jordan.closure_table.hits"] += self._table_inserts == before
                return out

            return wrapper

        def outer_component(fn):
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                counts["ideals.outer.rounds"] += out.rounds_to_fixpoint
                return out

            return wrapper

        def subspace_insert(fn):
            def wrapper(space, vec):
                grew = fn(space, vec)
                counts["linalg.insert.grew"] += grew
                return grew

            return wrapper

        def sampler(fn):
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                counts["albert.sampler_pairs"] += 1
                return out

            return wrapper

        # Installed over the span wrappers: this bookkeeping runs outside the
        # spans and lands in the caller's self time.
        self._patch_everywhere("jvu.jordan", "jordan_closure_table", closure_table)
        self._patch_everywhere("jvu.ideals", "outer_ideal_component", outer_component)
        self._patch_everywhere("jvu.linalg", "Subspace.insert", subspace_insert)
        self._patch_everywhere("jvu.albert", "sample_zero_pair", sampler)

    # -- the operation root and aggregation -------------------------------

    def root(self, fn, *args, **kwargs):
        """Run fn as the root span of one operation."""
        return self._span(ROOT, fn)(*args, **kwargs)

    def summary(self) -> dict:
        """Calls and self time per span name, plus the counts."""
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for name, start, end, _ in self.spans:
            calls[name] += 1
            self_s[name] += end - start
        for name, start, end, parent in self.spans:
            if parent >= 0:
                self_s[self.spans[parent][0]] -= end - start
        return {"calls": dict(calls), "self_s": dict(self_s), "counts": dict(self.counts)}
