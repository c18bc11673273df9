"""Outside-in tracing of bitmine's layers.

The tracer replaces, for the length of one operation, the names that
bitmine's callers look up (class methods, module functions, one dispatch
table entry) with wrappers that time each call.  Nothing under ``src/``
changes.  Spans are aggregated as they close rather than stored, because a
mining operation makes hundreds of thousands of coder calls:

- ``calls[name]``, ``total[name]``: call count and inclusive seconds;
- ``self_[name]``: inclusive seconds minus the time of wrapped calls made
  inside it, so ``code_len -> extend_cost -> extend`` nest correctly;
- ``counts``: work counted where it happens (pairs, bits, strings).

A target that no longer exists is recorded in ``missing``; metrics built
on it report null instead of crashing.  Spans are kept on one stack, so
traced operations run with ``--threads 1``.
"""

from __future__ import annotations

import time
from collections import Counter


MISSING = object()


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.total = Counter()
        self.self_ = Counter()
        self.counts = Counter()
        self.active = Counter()   # name -> open spans
        self.missing = set()
        self.levels = []          # per-level side table of the miner
        self.matrix = None        # last DistanceMatrix produced
        self._stack = []          # [child seconds] per open span
        self._undo = []

    # -- installing wrappers -------------------------------------------------

    def wrap(self, owner, attr, name, on_call=None, on_return=None):
        """Wrap ``owner.attr`` (module or class) under span ``name``."""
        orig = getattr(owner, attr, MISSING)
        if not callable(orig):
            self.missing.add(name)
            return
        setattr(owner, attr, self._wrapper(orig, name, on_call, on_return))
        self._undo.append(lambda: setattr(owner, attr, orig))

    def wrap_item(self, table, key, name):
        """Wrap ``table[key]`` of a dispatch dict under span ``name``."""
        if not isinstance(table, dict) or key not in table:
            self.missing.add(name)
            return
        orig = table[key]
        table[key] = self._wrapper(orig, name, None, None)
        self._undo.append(lambda: table.__setitem__(key, orig))

    def uninstall(self):
        while self._undo:
            self._undo.pop()()

    def _wrapper(self, orig, name, on_call, on_return):
        stack, active = self._stack, self.active
        calls, total, self_ = self.calls, self.total, self.self_
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(self, args)
            frame = [0.0]
            stack.append(frame)
            active[name] += 1
            start = clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                elapsed = clock() - start
                active[name] -= 1
                stack.pop()
                calls[name] += 1
                total[name] += elapsed
                self_[name] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if on_return is not None:
                on_return(self, args, result, elapsed)
            return result

        return traced

    # -- reading results -----------------------------------------------------

    def hooked(self, *names):
        return not self.missing.intersection(names)

    def value(self, table, name):
        """``table[name]``, or None when the hook ``name`` is missing."""
        return table[name] if self.hooked(name) else None


def install(tracer: Tracer, bm, eps: int):
    """Wrap every bitmine layer boundary the benchmark measures.

    ``eps`` is the operation's absolute support threshold, used to count
    frequent patterns per level from the count pass's return value.
    """
    codelength, occurrence = bm.codelength, bm.occurrence
    miner, textio, distance, cli = bm.miner, bm.textio, bm.distance, bm.cli

    def on_extend_cost(t, args):
        t.counts["bits_coded"] += len(args[2])
        if not t.active["codelength.code_len"]:
            t.counts["pairs"] += 1

    def on_code_len(t, args):
        if t.active["oracle"]:
            t.counts["oracle.strings"] += 1
        if t.active["distance.matrix"]:
            t.counts["distance.code_len"] += 1

    for cls in (codelength.KTBackend, codelength.LZBackend):
        tracer.wrap(cls, "extend_cost", "codelength.extend_cost", on_extend_cost)
        tracer.wrap(cls, "extend", "codelength.extend")
        tracer.wrap(cls, "code_len", "codelength.code_len", on_code_len)
        tracer.wrap(cls, "signature", "codelength.signature")

    fill = {"sets": set(), "first": False}

    def on_cached(t, args):
        fill["first"] = id(args[0]) not in fill["sets"]

    def after_cached(t, args, result, elapsed):
        if fill["first"]:
            fill["sets"].add(id(args[0]))
            t.counts["cache_fill_s"] += elapsed

    tracer.wrap(occurrence.TransactionSet, "cached", "occurrence.cached",
                on_cached, after_cached)

    # Per-level side table.  Every level runs generate (not on the seed
    # level), then the prefilter, then one count pass.
    level = {"generate_s": 0.0, "pairs0": 0}

    def after_generate(t, args, result, elapsed):
        level["generate_s"] = elapsed

    def after_prefilter(t, args, result, elapsed):
        t.levels.append({"level": len(t.levels), "candidates": len(args[2]),
                         "kept": len(result),
                         "seconds": level["generate_s"] + elapsed})
        level["generate_s"] = 0.0

    def on_count_pass(t, args):
        level["pairs0"] = t.counts["pairs"]

    def after_count_pass(t, args, result, elapsed):
        if not t.levels or "pairs" in t.levels[-1]:  # no prefilter ran
            t.levels.append({"level": len(t.levels), "candidates": len(args[3]),
                             "kept": len(args[3]), "seconds": 0.0})
        row = t.levels[-1]
        pairs = t.counts["pairs"] - level["pairs0"]
        row.update(pairs=pairs, groups=pairs // max(1, len(args[2])),
                   frequent=sum(1 for c in result.values() if c >= eps))
        row["seconds"] += elapsed

    def after_matrix(t, args, result, elapsed):
        t.matrix = result

    tracer.wrap(miner, "generate", "miner.generate", None, after_generate)
    tracer.wrap(miner, "_prefilter", "miner.prefilter", None, after_prefilter)
    tracer.wrap(miner, "_count_pass", "miner.count_pass", on_count_pass,
                after_count_pass)

    tracer.wrap(cli, "main", "cli")
    tracer.wrap(cli, "mine", "miner")
    tracer.wrap(cli, "enumerate_frequent", "oracle")
    tracer.wrap(cli, "distance_matrix", "distance.matrix", None, after_matrix)
    tracer.wrap_item(getattr(distance, "_MEASURE_FN", None), "ncd", "distance.pair")
    for attr in ("load_transactions", "parse_result"):
        tracer.wrap(textio, attr, "textio.load")
    for attr in ("format_result", "format_matrix"):
        tracer.wrap(textio, attr, "textio.format")
