"""Timing and counting wrappers for a traced run of the ecgroups package.

`install` rebinds module attributes of the package to wrappers, so the
program itself is unchanged and an untraced run pays nothing. A name a
module brought in with `from ... import` is rebound in that module too,
because the module looks it up in its own globals.

Two kinds of wrapper:

- a span, for layer boundaries called at most thousands of times
  (context build, row sieve, field build, ...). Each call is kept in
  memory as (name, start, end, parent, self time) until the run ends;
- a leaf, for the scalar helpers called millions of times (is_prime and
  friends). A leaf keeps only its call count and total time, and its time
  counts as child time of the enclosing span, so span self times exclude
  it. A leaf called from inside another leaf adds to its own totals only.

Wrappers inherited by a forked pool worker record into the worker's own
copy of the tracer, which is discarded; cross-process work is therefore
seen only from the parent side (`counting.row_wait_s`).
"""

from __future__ import annotations

import collections
import functools
import os
import time

import numpy as np


class Tracer:
    def __init__(self):
        self.spans = []                        # (name, start, end, parent, self_s)
        self.calls = collections.Counter()     # leaf name -> calls
        self.busy = collections.Counter()      # leaf name -> seconds, inclusive
        self.counts = collections.Counter()    # named counters set by `after` hooks
        self._stack = []                       # open spans: [index, child seconds]
        self._leaf_depth = 0

    def span(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [len(self.spans), 0.0]
            self.spans.append(None)
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                parent = self._stack[-1] if self._stack else None
                self.spans[frame[0]] = (name, t0, t1, parent[0] if parent else -1,
                                        t1 - t0 - frame[1])
                if parent is not None:
                    parent[1] += t1 - t0
            if after is not None:
                after(self, result, *args, **kwargs)
            return result
        return wrapper

    def leaf(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._leaf_depth += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._leaf_depth -= 1
                self.calls[name] += 1
                self.busy[name] += dt
                if not self._leaf_depth and self._stack:
                    self._stack[-1][1] += dt
            if after is not None:
                after(self, result, *args, **kwargs)
            return result
        return wrapper

    def watch(self, fn, after):
        """Call through untimed and let `after` read the arguments and result."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(self, result, *args, **kwargs)
            return result
        return wrapper

    def span_each_item(self, name, genfn):
        """Wrap a generator function so that every next() is one span."""
        @functools.wraps(genfn)
        def wrapper(*args, **kwargs):
            step = self.span(name, genfn(*args, **kwargs).__next__)
            while True:
                try:
                    item = step()
                except StopIteration:
                    return
                yield item
        return wrapper

    def span_total(self, name):
        return sum(s[2] - s[1] for s in self.spans if s[0] == name)

    def span_self(self, name):
        return sum(s[4] for s in self.spans if s[0] == name)

    def span_calls(self, name):
        return sum(1 for s in self.spans if s[0] == name)


# --- hooks that read arguments and results --------------------------------

def _range_span(tr, result, lo, hi, *rest, **kw):
    tr.counts["arith.primes_in_range_span"] += hi - lo + 1


def _realizable_hit(tr, result, *args, **kw):
    tr.counts["realizability.hits"] += result is not None


def _marks_found(tr, result, *args, **kw):
    tr.counts["counting.pp_marks_found"] += sum(len(ks) for ks in result.values())


def _checkpoint_written(tr, result, path, d_max, step, rows_done, missed):
    tr.counts["counting.checkpoint_bytes"] += os.path.getsize(path)
    tr.counts["counting.missed_pairs"] = len(missed)


def _survey_done(tr, grid, *args, **kw):
    tr.counts["counting.missed_pairs"] = len(grid.missed)


def _rendered(tr, text, *args, **kw):
    tr.counts["cli.payload_bytes"] += len(text.encode())


def _parser_built(tr, parser, *args, **kw):
    parser.parse_args = tr.span("cli.parse_args", parser.parse_args)


def _classes_seen(tr, result, field, fam_rows, N, *rest):
    tr.counts["curve_oracle.curves"] += len(N)
    tr.counts["curve_oracle.classes"] += int(np.unique(N).size)


def _class_resolved(tr, result, field, Nval, rows, *rest):
    tr.counts["curve_oracle.lanes_resolved"] += int(rows[0].shape[0])


def install(tr):
    """Rebind every traced attribute of the package to a wrapper of `tr`."""
    from ecgroups import (arith, cli, counting, curve_oracle, heuristics,
                          realizability, special_sets)

    arith.is_prime = realizability.is_prime = tr.leaf("arith.is_prime", arith.is_prime)
    arith.prime_power_decompose = realizability.prime_power_decompose = tr.leaf(
        "arith.prime_power_decompose", arith.prime_power_decompose)
    arith.primes_in_range = tr.leaf("arith.primes_in_range", arith.primes_in_range,
                                    after=_range_span)
    arith.legendre_symbol = tr.leaf("arith.legendre_symbol", arith.legendre_symbol)

    realizable = tr.leaf("realizability.shape_realizable_over",
                         realizability.shape_realizable_over, after=_realizable_hit)
    for mod in (realizability, counting, special_sets, curve_oracle):
        mod.shape_realizable_over = realizable

    ctx_cls = counting._SieveContext
    ctx_cls.__init__ = tr.span("counting.context", ctx_cls.__init__)
    counting._prime_power_marks = tr.span("counting.pp_marks", counting._prime_power_marks,
                                          after=_marks_found)
    counting._sieve_row = tr.span("counting.row", counting._sieve_row)
    counting._member_rows = tr.span_each_item("counting.row_wait", counting._member_rows)
    counting._write_checkpoint = tr.span("counting.checkpoint", counting._write_checkpoint,
                                         after=_checkpoint_written)
    counting.survey = tr.watch(counting.survey, _survey_done)

    special_sets.high_degree_search = tr.span("special_sets.high_degree_search",
                                              special_sets.high_degree_search)
    heuristics.bateman_horn_C = tr.span("heuristics.bateman_horn_C",
                                        heuristics.bateman_horn_C)
    heuristics.zeta3 = tr.span("heuristics.zeta3", heuristics.zeta3)

    curve_oracle.build_field = tr.span("curve_oracle.build_field", curve_oracle.build_field)
    curve_oracle._tables = tr.span("curve_oracle.tables", curve_oracle._tables)
    curve_oracle._forced_or_resolve = tr.watch(curve_oracle._forced_or_resolve,
                                               _classes_seen)
    curve_oracle._resolve_class = tr.span("curve_oracle.resolve_class",
                                          curve_oracle._resolve_class,
                                          after=_class_resolved)
    curve_oracle.realized_shapes = tr.span("curve_oracle.realized_shapes",
                                           curve_oracle.realized_shapes)

    cli._build_parser = tr.span("cli.build_parser", cli._build_parser, after=_parser_built)
    cli._render = tr.span("cli.render", cli._render, after=_rendered)


def layer_metrics(tr):
    """The per-layer readings derivable from the spans and counters alone.

    Times of spans are inclusive, except two self times: row_wait_s is
    the consumer's wait on `_member_rows` items minus the context build,
    the marks and in-process rows nested in it (what is left is the pool
    wait and the row merge), and count_s is `realized_shapes` minus field
    build, tables, class resolution and arith calls (point counting and
    curve enumeration). Leaf times (arith.*_s) are inclusive of nested
    leaf calls. A layer the workload never entered reads 0.
    """
    c = tr.counts
    realizable_calls = tr.calls["realizability.shape_realizable_over"]
    resolved = tr.span_calls("curve_oracle.resolve_class")
    return {
        "cli.parse_s": tr.span_total("cli.build_parser") + tr.span_total("cli.parse_args"),
        "cli.render_s": tr.span_total("cli.render"),
        "cli.payload_bytes": c["cli.payload_bytes"],
        "counting.context_s": tr.span_total("counting.context"),
        "counting.pp_marks_s": tr.span_total("counting.pp_marks"),
        "counting.pp_marks_found": c["counting.pp_marks_found"],
        "counting.rows": tr.span_calls("counting.row"),
        "counting.row_s": tr.span_total("counting.row"),
        "counting.row_wait_s": tr.span_self("counting.row_wait"),
        "counting.checkpoint_s": tr.span_total("counting.checkpoint"),
        "counting.checkpoint_bytes": c["counting.checkpoint_bytes"],
        "counting.missed_pairs": c["counting.missed_pairs"],
        "arith.is_prime_calls": tr.calls["arith.is_prime"],
        "arith.is_prime_s": tr.busy["arith.is_prime"],
        "arith.prime_power_decompose_calls": tr.calls["arith.prime_power_decompose"],
        "arith.prime_power_decompose_s": tr.busy["arith.prime_power_decompose"],
        "arith.primes_in_range_calls": tr.calls["arith.primes_in_range"],
        "arith.primes_in_range_s": tr.busy["arith.primes_in_range"],
        "arith.primes_in_range_span": c["arith.primes_in_range_span"],
        "arith.legendre_symbol_calls": tr.calls["arith.legendre_symbol"],
        "realizability.realizable_over_calls": realizable_calls,
        "realizability.hit_ratio": (c["realizability.hits"] / realizable_calls
                                    if realizable_calls else 0.0),
        "special_sets.high_degree_search_s": tr.span_total("special_sets.high_degree_search"),
        "heuristics.bateman_horn_C_s": tr.span_total("heuristics.bateman_horn_C"),
        "heuristics.zeta3_s": tr.span_total("heuristics.zeta3"),
        "curve_oracle.fields": tr.span_calls("curve_oracle.build_field"),
        "curve_oracle.build_field_s": tr.span_total("curve_oracle.build_field"),
        "curve_oracle.tables_s": tr.span_total("curve_oracle.tables"),
        "curve_oracle.curves": c["curve_oracle.curves"],
        "curve_oracle.classes_forced": c["curve_oracle.classes"] - resolved,
        "curve_oracle.classes_resolved": resolved,
        "curve_oracle.lanes_resolved": c["curve_oracle.lanes_resolved"],
        "curve_oracle.resolve_s": tr.span_total("curve_oracle.resolve_class"),
        "curve_oracle.count_s": tr.span_self("curve_oracle.realized_shapes"),
    }
