"""Batched KT coding in numpy, ``==`` the per-bit walk.

``KTBackend._walk`` codes one string at a time in Python.  This module
codes many at once with the walk's floats: a string's KT code length is a
running sum of step costs ``total[n] - count[c]`` (``_terms``), with n
the earlier occurrences of the step's context and c those with the
coded bit.  A cost is a float sum, so ``==`` needs the walk's additions in
its order (numpy's ``sum`` adds pairwise and would round differently).

- ``_kt_joint_costs`` prices joints of coded items for
  ``distance._joint_costs``: each string coded after another's state, in
  chunks of at most ``_JOINT_CHUNK`` entries, a longer string a chunk of
  it at a time, so memory does not grow with the items' length.  It adds
  each row with ``np.cumsum``, which adds in order.
- ``class_lengths`` codes a length class of the oracle from the initial
  state, each string's length from its prefix's in the previous class:
  the walk's own last addition.  The oracle carries signature groups over
  from class to class the same way, a string's group from its prefix's
  group and its last bit, and ``class_groups`` merges those (group, tail,
  bit) combinations that have equal signatures, one string per
  combination, so ``oracle.enumerate_frequent`` counts each signature once
  per class; ``class_bodies`` gives the counted strings' bodies.
- The level coder codes a whole level of the KT miner.  A ``Frontier``
  keeps no coder state: per pattern its L(p), its head (first ``order``
  bits), its count row (the (zeros, ones) of each full-length context in
  it) and its tail (the coder context after it); a shorter context
  occurs only at its own position, within the head, so it needs no
  count.  A child's steps depend only on its parent's tail and its
  suffix, so ``code_level`` plans each distinct (tail, suffix) once; a
  child's L(x) and row, in the ``Frontier`` it returns, are its parent's
  plus its plan's steps (a column at a time) and counts.  ``groups``
  partitions the rows by (head, row), and ``narrow`` keeps the frequent
  children as the next frontier.  Rows are sparse, so memory follows the
  contexts that occur, not the 2**order that may.
- ``Groups`` is the one form in which ``occurrence.support`` takes KT
  strings: their L(x), the signature partition and its first members as a
  ``Frontier`` with no tails, from ``class_bodies`` (the oracle),
  ``groups`` (the miner) or ``string_groups`` (plain
  strings).  ``head_steps`` gives the closed form each head's steps after
  each transaction's tail from integer windows, with no walk, and
  ``context_ids`` names contexts by integers below 2 << order, the rows of
  the closed form's count tables (orders up to ``occurrence._KT_MAX_ORDER``).
"""

from __future__ import annotations

import math
from functools import lru_cache, partial
from itertools import chain, repeat
from typing import NamedTuple

import numpy as np

from .codelength import KTBackend

# Entries per chunk of the KT joint pricer: a block of plans holds at most
# this many positions, and a chunk of pairs at most this many (pair,
# position) entries; a longer string is priced this many bits at a time.
_JOINT_CHUNK = 1 << 13
# Entries of the KT term tables the pricer builds at most (1 MB of arrays).
_TERMS = 1 << 16


def _runs(widths, budget: int):
    """Consecutive runs [lo, hi) of the non-decreasing ``widths`` with
    (hi - lo) * widths[hi - 1] <= budget, or of one entry."""
    lo = 0
    while lo < len(widths):
        hi = min(len(widths), lo + max(1, budget // widths[lo]))
        while hi - lo > 1 and (hi - lo) * widths[hi - 1] > budget:
            hi -= 1
        yield lo, hi
        lo = hi


def _earlier(key: np.ndarray) -> np.ndarray:
    """For each entry, how many earlier entries hold the same key."""
    by_key = np.argsort(key, kind="stable")
    sorted_key = key[by_key]
    out = np.empty_like(by_key)
    out[by_key] = np.arange(len(key)) - np.searchsorted(sorted_key, sorted_key)
    return out


class _Body(NamedTuple):
    """The positions of a string past its first ``order`` (its body), whose
    contexts lie within the string, whatever context precedes it."""
    index: dict          # context -> its index, in order of first use
    ctxbit: np.ndarray   # per position, 2 * its context's index + its bit
    seen: np.ndarray     # per position, earlier ones with its context
    seen_bit: np.ndarray  # ... with its context and its bit


def _body(order: int, bits: str) -> _Body:
    at = [bits[t - order:t] for t in range(order, len(bits))]
    index = {ctx: i for i, ctx in enumerate(dict.fromkeys(at))}
    context = np.fromiter(map(index.__getitem__, at), np.intp, len(at))
    ctxbit = 2 * context + (np.frombuffer(bits[order:].encode(), np.uint8)
                            == ord("1"))
    return _Body(index, ctxbit, _earlier(context), _earlier(ctxbit))


class _Plans(NamedTuple):
    """A block of plans, one per (tail context, second string): per plan,
    the walk of the string after the tail from empty counts, position by
    position, in rows padded to the block's longest string."""
    contexts: list       # per plan, its contexts (its body's, then its head's)
    size: np.ndarray     # per plan, its number of positions
    ctxbit: np.ndarray   # 2 * the position's context index + its bit
    seen: np.ndarray     # earlier positions with the position's context
    seen_bit: np.ndarray  # ... with its context and its bit


def _plans(order: int, plans, body_of) -> _Plans:
    """Plan each (tail, bits), with ``body_of(bits)`` its body.  A
    position's context is the last ``order`` bits of the tail and the bits
    before it, as ``KTBackend._walk`` keeps it; only the first ``order``
    positions (the head) depend on the tail, so a plan adds its head's
    occurrences to its body's counts of earlier ones."""
    width = max(len(bits) for _, bits in plans)
    ctxbit, seen, seen_bit = np.zeros((3, len(plans), width), dtype=np.intp)
    contexts = []
    for r, (tail, bits) in enumerate(plans):
        body = body_of(bits)
        more: dict = {}  # head contexts the body lacks
        head, n_before, c_before = [], {}, {}
        for t in range(min(order, len(bits))):
            ctx = (tail + bits[:t])[-order:]
            i = body.index.get(ctx)
            if i is None:
                i = more.setdefault(ctx, len(body.index) + len(more))
            cb = 2 * i + (bits[t] == "1")
            head.append(cb)
            k, kb = n_before.get(i, 0), c_before.get(cb, 0)
            seen[r, t], seen_bit[r, t] = k, kb
            n_before[i], c_before[cb] = k + 1, kb + 1
        h = len(head)
        ctxbit[r, :h] = head
        ctxbit[r, h:len(bits)] = body.ctxbit
        in_head = np.bincount(np.array(head, dtype=np.intp),
                              minlength=2 * (len(body.index) + len(more)))
        seen[r, h:len(bits)] = (body.seen + (in_head[0::2] + in_head[1::2])
                                [body.ctxbit >> 1])
        seen_bit[r, h:len(bits)] = body.seen_bit + in_head[body.ctxbit]
        contexts.append([*body.index, *more])
    return _Plans(contexts, np.array([len(bits) for _, bits in plans]),
                  ctxbit, seen, seen_bit)


def _terms(top: int):
    """The walk's two KT term tables, log2(2n + 2) and log2(2c + 1), as
    arrays for the counts below ``top``: ``math.log2`` of the same
    integers as the walk's tables, so the same floats.  The one builder
    of these arrays: the closed form in ``occurrence`` reads them too.
    ``_step`` computes terms past a table's end."""
    return (np.fromiter(map(math.log2, range(add, 2 * top + add, 2)),
                        float, top) for add in (2, 1))


def _lookup(table: np.ndarray, values: np.ndarray, add: int) -> np.ndarray:
    """``math.log2(2 * v + add)`` for each v of ``values``: ``table[v]``,
    the same float, where the table holds v, else computed once per
    distinct v."""
    if values.max() < len(table):
        # as in a matrix of short items, where the general path would
        # add about 10%
        return table[values]
    out = table[np.minimum(values, len(table) - 1)]
    big = values >= len(table)
    distinct, which = np.unique(values[big], return_inverse=True)
    out[big] = np.fromiter(map(math.log2, (2 * distinct + add).tolist()),
                           float, len(distinct))[which]
    return out


def _step(n: np.ndarray, c: np.ndarray, total, count) -> np.ndarray:
    """The walk's step cost total[n] - count[c], with its floats at any n."""
    return _lookup(total, n, 2) - _lookup(count, c, 1)


def _counts(known, contexts) -> tuple[np.ndarray, list]:
    """The counts (zeros, ones) in each dict ``known[i]`` of the contexts
    ``contexts[i]``, end to end, and the offset of each i's."""
    counts, offset = [], []
    for of, ctxs in zip(known, contexts):
        offset.append(len(counts))
        counts.extend(chain.from_iterable(map(of.get, ctxs, repeat((0, 0)))))
    return np.array(counts, dtype=np.intp), offset


def _price(plans: _Plans, plan, of_ctxbit, offset, start, total, count):
    """Joint costs of a chunk of pairs, pair i coding ``plan[i]``'s string
    after a state of code length ``start[i]`` whose counts (zeros, ones)
    of the plan's contexts begin at ``of_ctxbit[offset[i]]``.  Each
    position costs ``total[n] - count[c]``, with n and c the state's
    counts of its context (and bit) plus the plan's earlier ones.
    ``np.cumsum`` sums each row from its start, and the sum is read at the
    row's own length (later columns pad the rows to one width): the walk's
    float operations in its order."""
    of_ctx = np.repeat(of_ctxbit[0::2] + of_ctxbit[1::2], 2)
    size = plans.size[plan]
    width = size.max()
    at = np.asarray(offset)[:, None] + plans.ctxbit[plan, :width]
    n = of_ctx[at] + plans.seen[plan, :width]
    c = of_ctxbit[at] + plans.seen_bit[plan, :width]
    row = np.empty((len(plan), width + 1))
    row[:, 0] = start
    row[:, 1:] = _step(n, c, total, count)
    return np.cumsum(row, axis=1)[np.arange(len(plan)), size]


def _kt_joint_costs(order: int, coded, pairs: np.ndarray) -> np.ndarray:
    """KT joint costs, equal (==) to ``extend_cost`` pair by pair.

    Coding s after the first state F costs, at each position, the step
    cost of a context seen n times, c of them with the coded bit: F's
    counts of that context plus its occurrences earlier in s.  Pairs
    whose s is at most a chunk long are batched (``_batched_costs``); a
    longer s is priced a chunk at a time (``_segmented_costs``), so no
    call holds more than a chunk's plans and priced rows.
    """
    size = np.array([len(c.bits) for c in coded])
    total, count = _terms(min(2 * int(size.max()) + 1, _TERMS))
    long = size[pairs[:, 1]] > _JOINT_CHUNK
    costs = np.empty(len(pairs))
    if long.any():
        costs[long] = _segmented_costs(order, coded, pairs[long],
                                       total, count)
    if not long.all():
        costs[~long] = _batched_costs(order, coded, pairs[~long],
                                      total, count)
    return costs


def _batched_costs(order: int, coded, pairs: np.ndarray, total, count):
    """Joint costs of pairs whose second strings are at most a chunk long.
    The contexts and earlier occurrences of s depend only on s and F's
    tail context, so each (tail, s) is planned once per call, in blocks;
    pairs are sorted by (|s|, s, tail) and priced in chunks."""
    tails: dict = {}
    tail_of = np.array([tails.setdefault(c.state.context, len(tails))
                        for c in coded])
    size = np.array([len(c.bits) for c in coded])
    length = np.array([c.length for c in coded])
    first, second = pairs[:, 0], pairs[:, 1]
    by_plan = np.lexsort((tail_of[first], second, size[second]))
    first, second = first[by_plan], second[by_plan]
    tail = tail_of[first]
    new = np.r_[True, (second[1:] != second[:-1]) | (tail[1:] != tail[:-1])]
    plan_of = np.cumsum(new) - 1  # per sorted pair
    opens = np.flatnonzero(new)   # per plan, its first sorted pair
    width = size[second].tolist()
    # plans of one string are adjacent, so one body is held at a time
    body_of = lru_cache(maxsize=1)(partial(_body, order))
    costs = np.empty(len(pairs))
    for p, q in _runs(size[second[opens]].tolist(), _JOINT_CHUNK):
        plans = _plans(order, [(coded[first[h]].state.context,
                                coded[second[h]].bits)
                               for h in opens[p:q].tolist()], body_of)
        base = opens[p]
        end = opens[q] if q < len(opens) else len(pairs)
        for lo, hi in _runs(width[base:end], _JOINT_CHUNK):
            lo, hi = base + lo, base + hi
            plan = plan_of[lo:hi] - p
            costs[by_plan[lo:hi]] = _price(
                plans, plan, *_counts(
                    [coded[f].state.counts for f in first[lo:hi].tolist()],
                    map(plans.contexts.__getitem__, plan.tolist())),
                length[first[lo:hi]], total, count)
    return costs


def _segmented_costs(order: int, coded, pairs: np.ndarray, total, count):
    """Joint costs of pairs whose second strings s are longer than a chunk.

    Each pair's first state codes the head of s, its first ``order`` bits,
    with the walk, which keeps the head's counts apart in a small dict.
    Past the head every context lies within s, so each chunk of s is
    planned once for all its pairs and priced from each pair's running
    sum, with the counts of its first state and head plus those of the
    earlier chunks (``shared``, one dict per s).
    """
    walk = KTBackend(order)._walk
    costs = np.empty(len(pairs))
    for s in dict.fromkeys(pairs[:, 1].tolist()):
        rows = np.flatnonzero(pairs[:, 1] == s)
        bits = coded[s].bits
        heads, cost = [], np.empty(len(rows))
        for i, f in enumerate(pairs[rows, 0].tolist()):
            state, head = coded[f].state, {}
            cost[i] = walk(state.context, state.counts, head, bits[:order],
                           coded[f].length)[1]
            heads.append((state.counts, head))
        shared: dict = {}
        for lo in range(order, len(bits), _JOINT_CHUNK):
            part = bits[lo:lo + _JOINT_CHUNK]
            plans = _plans(order, [(bits[lo - order:lo], part)],
                           partial(_body, order))
            contexts = plans.contexts[0]
            where = {ctx: j for j, ctx in enumerate(contexts)}
            before = _counts([shared], [contexts])[0]
            for i, (known, head) in enumerate(heads):
                of_ctxbit = _counts([known], [contexts])[0]
                for ctx, counts in head.items():
                    j = where.get(ctx)
                    if j is not None:
                        of_ctxbit[2 * j:2 * j + 2] = counts
                of_ctxbit += before
                cost[i] = _price(plans, np.zeros(1, dtype=np.intp),
                                 of_ctxbit, [0], cost[i], total, count)[0]
            before += np.bincount(plans.ctxbit[0, :len(part)],
                                  minlength=2 * len(contexts))
            shared.update(zip(contexts, zip(before[0::2].tolist(),
                                            before[1::2].tolist())))
        costs[rows] = cost
    return costs


def class_lengths(order: int, width: int, prev: np.ndarray,
                  values: np.ndarray) -> np.ndarray:
    """L(x) of the ``width``-bit strings x whose integer values are
    ``values``, each ``==`` ``code_len(x)``, from ``prev``, the lengths of
    class ``width - 1`` (class 0 is ``[0.0]``).

    x without its last bit is ``v >> 1``, so L(x) is the walk's own last
    addition, ``prev[v >> 1] + (total[n] - count[c])``.  The last bit's
    context is its previous ``min(width - 1, order)`` bits.  A head step
    (``width - 1 < order``) has a context no earlier position has, so
    n = c = 0.  Otherwise n and c count the earlier positions t >= order
    whose window, its context and bit ``v >> (width - 1 - t)`` masked to
    ``order + 1`` bits, equals the last one's in its context, and in its
    context and bit.
    """
    total, count = _terms(width)
    last = width - 1
    mask = (2 << order) - 1
    n = np.zeros(len(values), dtype=np.intp)
    c = np.zeros(len(values), dtype=np.intp)
    for t in range(order, last):
        same = (values >> (last - t) ^ values) & mask
        c += same == 0
        n += same < 2
    return prev[values >> 1] + (total[n] - count[c])


class Groups(NamedTuple):
    """KT-coded strings, in the one form ``occurrence.support`` takes from
    every producer: their L(x) and signature groups (which only the closed
    form reads).  A group is one (head, count row): its strings' first
    ``order`` bits and the (zeros, ones) of each full-length context after
    them, ``signature``'s partition (shorter contexts lie within the head)."""
    group: np.ndarray   # per string, its group, numbered by first member
    first: np.ndarray   # per group, the index of its first member
    reps: Frontier      # the groups' first members, in group order, no tails
    length: np.ndarray  # per string, L(x)


def _pack(columns: np.ndarray, bits: int) -> list:
    """The rows of ``columns`` (values in [0, 2**bits)) packed into as few
    int64 keys as hold them, each key one value per column."""
    per = max(1, 63 // max(1, bits))
    return [np.bitwise_or.reduce(
                part << (bits * np.arange(len(part)))[:, None], axis=0)
            for part in (columns[j:j + per]
                         for j in range(0, len(columns), per))]


def _partition(keys: list):
    """(group of each column, first column of each group) of ``keys``, equal
    columns of int keys sharing a group, groups numbered by first member."""
    keys = np.array(keys)
    by = np.lexsort(keys)
    new = np.ones(len(by), dtype=bool)  # first of its group, in ``by``
    new[1:] = np.any(np.diff(keys[:, by], axis=1) != 0, axis=0)
    # the sort is stable, so each group's first member comes first
    lead = np.empty_like(by)  # per column, its group's first member
    lead[by] = by[new][np.cumsum(new) - 1]
    leads = lead == np.arange(len(lead))
    return (np.cumsum(leads) - 1)[lead], np.flatnonzero(leads)


def _spans(start: np.ndarray, which: np.ndarray):
    """(k, i) for every entry i in ``start[w]:start[w + 1]`` of each
    ``w = which[k]``, in order."""
    lo = start[which]
    size = start[which + 1] - lo
    k = np.repeat(np.arange(len(which)), size)
    return k, np.arange(len(k)) + np.repeat(lo - np.cumsum(size) + size, size)


def _bits(value: int, width: int) -> str:
    return format(value | 1 << width, "b")[1:]


def _windows(order: int, width: int, values: np.ndarray):
    """The head (first ``min(order, width)`` bits) of each ``width``-bit
    string of ``values``, and its windows, ascending: each later bit with
    its ``order``-bit context, as in ``class_lengths``.  A string's count
    row is the multiset of its windows."""
    head = min(order, width)
    shift = np.arange(width - 1 - order, -1, -1)  # none when order >= width
    return (values >> (width - head),
            np.sort(values[:, None] >> shift & ((2 << head) - 1), axis=1))


def class_groups(order: int, width: int, values: np.ndarray, chunk: int):
    """(group of each, index of each group's first member) of the
    ``width``-bit strings whose ascending integer values are ``values`` (at
    most 20 bits), exactly as ``KTBackend(order).signature`` partitions
    them, groups numbered by first member.

    A group is one (head, sorted windows).  The oracle passes one string
    per (prefix group, last bit) combination of a class, so that
    combinations of equal signature merge.  Strings of different heads
    never share a group, and each head's strings are one aligned range of
    values, so the strings are partitioned a range of whole heads at a
    time: about ``chunk`` values wide, or one head's if that is wider.
    """
    head = min(order, width)
    block = 1 << (width - head)  # values per head
    span = block * max(1, chunk // block)
    ends = np.searchsorted(values, np.arange(span, (1 << width) + span, span))
    group = np.empty(len(values), dtype=np.int32)
    leads = np.zeros(len(values), dtype=bool)  # first of its group
    lo = n = 0
    for hi in ends[np.diff(ends, prepend=0) > 0].tolist():
        heads, windows = _windows(order, width, values[lo:hi])
        part, lead = _partition([heads, *_pack(windows.T, head + 1)])
        group[lo:hi] = part + n
        leads[lead + lo] = True
        lo, n = hi, n + len(lead)
    return group, np.flatnonzero(leads)


def class_bodies(order: int, width: int, values: np.ndarray,
                 lengths: np.ndarray) -> Groups:
    """``Groups`` of ``width``-bit strings of pairwise distinct signatures,
    each its own group, as ``class_groups``'s first members are, with
    lengths ``lengths``.  A string's count row is read off its sorted
    windows: each run of one context gives its zeros and ones."""
    heads, rows = _windows(order, width, values)
    own = np.arange(len(values))
    heads, head_of = np.unique(heads, return_inverse=True)
    names = [_bits(v, min(order, width)) for v in heads.tolist()]
    ctx = rows >> 1
    starts = np.ones(ctx.shape, dtype=bool)  # first window of a context
    starts[:, 1:] = ctx[:, 1:] != ctx[:, :-1]
    at = np.flatnonzero(starts)
    body = np.zeros((4, len(at)), dtype=np.intp)
    if len(at):
        ones = np.add.reduceat((rows & 1).ravel(), at)
        contexts, context = np.unique(ctx.ravel()[at], return_inverse=True)
        names += [_bits(v, order) for v in contexts.tolist()]
        body[:] = (at // ctx.shape[1], context + len(heads),
                   np.diff(at, append=ctx.size) - ones, ones)
    return Groups(own, own, Frontier(names, lengths, head_of, body), lengths)


# Largest (head, tail, step) block ``head_steps`` builds at once.
_HEAD_BLOCK = 1 << 14


def _values(strings):
    """(value, bits) of each bit string (of at most 62 bits, so that its
    context id fits an int64)."""
    return (np.array([int(x or "0", 2) for x in strings], dtype=np.intp),
            np.array([len(x) for x in strings], dtype=np.intp))


def context_ids(contexts) -> np.ndarray:
    """The id (1 << j) | value of each context string of j bits, below
    2 << order for contexts of at most ``order`` bits."""
    value, size = _values(contexts)
    return (1 << size) | value


def _distinct(ids: np.ndarray, size: int):
    """The distinct values of ``ids`` (all in [0, size)), ascending, and
    the rank among them of each value in [0, size)."""
    used = np.zeros(size, dtype=bool)
    used[ids] = True
    return np.flatnonzero(used), np.cumsum(used) - 1


def head_steps(order: int, tails: list, heads: list):
    """Every step of every head coded after every tail, as
    ``KTBackend._walk`` codes it: (tail, context id, bit) per step, by
    head, tail and step, and each head's first step.

    Step i of head h after tail t has the context of the last
    min(order, |t| + i) bits of t + h[:i] (a tail is a coder context, at
    most ``order`` bits).  It is read from integer windows
    of the tail and head values, a block of heads at a time, with no walk.
    """
    tv, tl = _values(tails)
    hv, hl = _values(heads)
    width = int(hl.max(initial=0))
    starts = np.concatenate(([0], np.cumsum(hl * len(tails))))
    tail = np.empty(starts[-1], dtype=np.int32)
    ids = np.empty(starts[-1], dtype=np.intp)
    bit = np.empty(starts[-1], dtype=np.int8)
    per = max(1, _HEAD_BLOCK // max(1, len(tails) * width))
    for lo in range(0, len(heads) if width else 0, per):
        valid = np.arange(width) < hl[lo:lo + per, None]
        h, t, i = np.nonzero(np.broadcast_to(
            valid[:, None], (len(valid), len(tails), width)))
        h += lo
        size = np.minimum(order, tl[t] + i)  # bits of the context
        from_tail = tv[t] & ((1 << (size - i)) - 1)
        at = slice(starts[lo], starts[lo] + len(h))
        tail[at] = t
        ids[at] = (1 << size) | from_tail << i | hv[h] >> (hl[h] - i)
        bit[at] = hv[h] >> (hl[h] - 1 - i) & 1
    return tail, ids, bit, starts


class Frontier(NamedTuple):
    """KT patterns as the level coder keeps them, with no coder state."""
    names: list         # the strings that head, rows' contexts and tail index
    length: np.ndarray  # per pattern, L(p)
    head: np.ndarray    # per pattern, its first ``order`` bits (all, if fewer)
    rows: np.ndarray    # (pattern, context, zeros, ones) per full-length
                        # context of a pattern, by pattern, then context
    tail: np.ndarray = None  # per pattern, its last ``order`` bits (all, if
                             # fewer); None where nothing extends them


def root() -> Frontier:
    """The frontier of the empty string alone."""
    zero = np.zeros(1, dtype=np.intp)
    return Frontier([""], np.zeros(1), zero, np.zeros((4, 0), dtype=np.intp),
                    zero)


def _plan(order: int, tail: str, bits: str, width: int, intern) -> tuple:
    """The steps of ``bits`` after a parent whose coder context is
    ``tail``, as four rows of ``width`` end to end: per step its context
    (-1 for a head step, whose context is the whole string before it and
    so occurs nowhere else, and for padding), its earlier occurrences in
    ``bits`` with that context and with that context and bit, and its bit
    (-1 for padding).  Then the tail after ``bits``, the child's head (-1
    when the parent's is whole) and the plan's [zeros, ones] per
    context."""
    row = [-1] * width + [0] * (2 * width) + [-1] * width
    ctx, inc = tail, {}
    for j, ch in enumerate(bits):
        b = ch == "1"
        row[3 * width + j] = b
        if len(ctx) == order:
            i = intern(ctx)
            counts = inc.get(i)
            if counts is None:
                counts = inc[i] = [0, 0]
            row[j], row[width + j] = i, counts[0] + counts[1]
            row[2 * width + j] = counts[b]
            counts[b] += 1
        ctx = (ctx + ch)[-order:] if order else ""
    head = intern((tail + bits)[:order]) if len(tail) < order else -1
    return row, intern(ctx), head, inc


# The walk's KT term tables for counts below 1,024, for the level coder
# (``_step`` computes larger terms).
_LEVEL_TERMS = tuple(_terms(1 << 10))


def code_level(order: int, frontier: Frontier, suffixes: list) -> Frontier:
    """The children of ``frontier``, each pattern followed by each of
    ``suffixes`` (pattern by pattern), each L(x) ``==`` ``code_len(x)``.

    A child's L(x) continues its parent's L(p) step by step, in the
    walk's order, as ``L + (total[n] - count[c])``: n and c are the
    parent's counts of the step's context (and bit) plus the plan's
    earlier steps.  A head step reads n = c = 0, and a padded step (past
    a shorter suffix) adds nothing.  A child's row is its parent's plus
    its plan's counts.
    """
    names = list(frontier.names)
    index = {name: i for i, name in enumerate(names)}

    def intern(name):
        i = index.get(name)
        if i is None:
            i = index[name] = len(names)
            names.append(name)
        return i

    width = max(map(len, suffixes))
    tails, rank = _distinct(frontier.tail, len(names))
    plans = [_plan(order, names[t], s, width, intern)
             for t in tails.tolist() for s in suffixes]
    steps, tail, head, incs = zip(*plans)
    n_suffix = len(suffixes)
    plan = (rank[frontier.tail, None] * n_suffix
            + np.arange(n_suffix)).ravel()
    parent = np.repeat(np.arange(len(frontier.length)), n_suffix)
    context, seen, seen_bit, bit = np.array(steps, dtype=np.intp)[plan] \
        .reshape(len(plan), 4, width).transpose(1, 0, 2)
    # the parent's counts of each step's context: its row's entry, or 0
    # for a context it lacks (a new or head context reads one past them)
    rows = frontier.rows
    base = len(names) + 1
    keys = np.append(rows[0] * base + rows[1], -1)
    want = parent[:, None] * base + np.where(context < 0, len(names), context)
    at = np.searchsorted(keys[:-1], want)
    hit = keys[at] == want
    zeros = np.where(hit, np.append(rows[2], 0)[at], 0)
    ones = np.where(hit, np.append(rows[3], 0)[at], 0)
    n = zeros + ones + seen
    step = _step(n, np.where(bit == 1, ones, zeros) + seen_bit, *_LEVEL_TERMS)
    step[bit < 0] = 0.0
    length = frontier.length[parent]
    for j in range(width):
        length += step[:, j]
    # free the steps before the rows are built, to bound the peak memory
    del context, seen, seen_bit, bit, want, at, hit, zeros, ones, n, step
    inc = np.array([(p, ctx, *counts) for p, of in enumerate(incs)
                    for ctx, counts in sorted(of.items())],
                   dtype=np.intp).reshape(-1, 4).T
    child, at = _spans(np.searchsorted(frontier.rows[0],
                                       np.arange(len(frontier.length) + 1)),
                       parent)
    rows = frontier.rows[:, at]
    rows[0] = child
    child, at = _spans(np.searchsorted(inc[0], np.arange(len(plans) + 1)),
                       plan)
    inc = inc[:, at]
    inc[0] = child
    # each plan count adds to its child's entry for its context, or is
    # inserted where that entry would be, keeping the rows sorted
    base = len(names)
    keys = np.append(rows[0] * base + rows[1], -1)
    want = inc[0] * base + inc[1]
    at = np.searchsorted(keys[:-1], want)
    new = keys[at] != want
    rows[2:, at[~new]] += inc[2:, ~new]
    rows = np.insert(rows, at[new], inc[:, new], axis=1)
    head = np.array(head, dtype=np.intp)[plan]
    return Frontier(names, length,
                    np.where(head < 0, frontier.head[parent], head), rows,
                    np.array(tail, dtype=np.intp)[plan])


def narrow(frontier: Frontier, keep: np.ndarray) -> Frontier:
    """The patterns ``keep`` (in that order) of ``frontier``, holding
    only the names they use."""
    number = np.full(len(frontier.length), -1)
    number[keep] = np.arange(len(keep))
    rows = frontier.rows[:, number[frontier.rows[0]] >= 0]
    rows[0] = number[rows[0]]
    rows = rows[:, np.argsort(rows[0], kind="stable")]
    tail, head = frontier.tail[keep], frontier.head[keep]
    used, rank = _distinct(np.concatenate((tail, head, rows[1])),
                           len(frontier.names))
    rows[1] = rank[rows[1]]
    return Frontier([frontier.names[i] for i in used.tolist()],
                    frontier.length[keep], rank[head], rows, rank[tail])


def groups(frontier: Frontier) -> Groups:
    """The signature groups of a frontier's patterns, equal (head, row),
    in the closed form's form; each group's first member keeps its row."""
    member, ctx, zeros, ones = frontier.rows
    n = len(frontier.length)
    # each row's (context, zeros, ones) codes, one column per member,
    # padded with 0, then packed
    size = np.bincount(member, minlength=n)
    span = int(max(zeros.max(initial=0), ones.max(initial=0))) + 1
    code = (ctx * span + zeros) * span + ones + 1
    grid = np.zeros((size.max(initial=0), n), dtype=np.intp)
    grid[np.arange(len(member)) - (np.cumsum(size) - size)[member],
         member] = code
    group, first = _partition([frontier.head, *_pack(
        grid, int(code.max(initial=0)).bit_length())])
    number = np.full(n, -1)
    number[first] = np.arange(len(first))
    body = frontier.rows[:, number[member] >= 0]
    body[0] = number[body[0]]
    return Groups(group, first, Frontier(
        frontier.names, frontier.length[first], frontier.head[first], body),
        frontier.length)


def string_groups(order: int, strings: list) -> Groups:
    """The signature groups, with L(x), of plain strings, each coded as a
    child of the empty string."""
    return groups(code_level(order, root(), strings))
