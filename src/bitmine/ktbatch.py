"""Batched KT coding in numpy, ``==`` the per-bit walk.

``KTBackend._walk`` codes one string at a time in Python.  This module
codes many at once with the walk's floats: a string's KT code length is a
running sum of step costs ``total[n] - count[c]`` (``kt_log2_terms``),
with n the earlier occurrences of the step's context and c those with the
coded bit.  A cost is a float sum, so ``==`` needs the walk's additions in
its order (numpy's ``sum`` adds pairwise and would round differently).

- ``_kt_joint_costs`` prices joints of coded items for
  ``distance._joint_costs``: each string coded after another's state, in
  chunks of at most ``_JOINT_CHUNK`` entries, a longer string a chunk of
  it at a time, so memory does not grow with the items' length.  It adds
  each row with ``np.cumsum``, which adds in order.
- ``class_lengths`` codes a length class of the oracle from the initial
  state, each string's length from its prefix's in the previous class:
  the walk's own last addition.  ``class_groups`` groups a class's
  strings by signature and builds each group's signature once, so
  ``oracle.enumerate_frequent`` counts one string per group.
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
    arrays for counts below ``top`` but of at most ``_TERMS`` entries:
    ``math.log2`` of the same integers as ``kt_log2_terms``, so the same
    floats, with no list between.  ``_step`` computes larger terms."""
    size = min(top, _TERMS)
    return (np.fromiter(map(math.log2, range(add, 2 * size + add, 2)),
                        float, size) for add in (2, 1))


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
    total, count = _terms(2 * int(size.max()) + 1)
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
    for s in np.unique(pairs[:, 1]).tolist():
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
    """The signature groups of a chunk of one length class."""
    group: np.ndarray  # per string, its group (numbered by first member)
    first: np.ndarray  # per group, the index of its first member
    reps: list         # per group, its first member as a string
    sigs: list         # per group, its signature, in ``signature``'s form


def class_groups(order: int, width: int, values: np.ndarray) -> Groups:
    """Group the ``width``-bit strings whose ascending integer values are
    ``values`` (at most 20 bits) exactly as ``KTBackend(order).signature``
    partitions them.

    A signature is the head (the first ``min(order, width)`` bits) and
    the counts of each later position's context and bit, that is the
    multiset of its windows (as in ``class_lengths``), so a group is one
    (head, row-sorted windows).  Each group's signature is built once,
    from its first member: a head context x[:t] is seen once, with bit
    x[t], and a full context's zeros and ones are its windows' counts.
    """
    head = min(order, width)
    shift = np.arange(width - 1 - order, -1, -1)
    windows = np.sort(values[:, None] >> shift & ((2 << order) - 1), axis=1)
    # the head, then the sorted windows packed into as few keys as hold them
    keys = [values >> (width - head)]
    per = 63 // (order + 1)
    for j in range(0, len(shift), per):
        keys.append(np.zeros_like(values))
        for column in windows.T[j:j + per]:
            keys[-1] <<= order + 1
            keys[-1] |= column
    by = np.lexsort(keys)
    new = np.ones(len(values), dtype=bool)  # first of its group, in ``by``
    new[1:] = np.any([np.diff(key[by]) != 0 for key in keys], axis=0)
    # the sort is stable, so each group's first member comes first
    lead = np.empty_like(by)  # per string, its group's first member
    lead[by] = by[new][np.cumsum(new) - 1]
    first, group = np.unique(lead, return_inverse=True)
    rep = values[first]
    fmt = f"0{width}b"
    reps = [format(v, fmt) for v in rep.tolist()]

    # Each (context, (zeros, ones)) of a group as one integer code, which
    # orders contexts as ``signature`` sorts their strings: a context of
    # j bits ranks by its value padded to ``head`` bits, then by j.  Each
    # group's codes are sorted in one row, padded past its contexts.
    span = width + 1
    t = np.arange(head)
    bit = rep[:, None] >> (width - 1 - t) & 1
    key = (rep[:, None] >> (width - t) << (head - t)) * (head + 1) + t
    rows = windows[first]
    ctx = rows >> 1
    starts = np.ones(ctx.shape, dtype=bool)  # first window of a context
    starts[:, 1:] = ctx[:, 1:] != ctx[:, :-1]
    at = np.flatnonzero(starts)
    ones = np.add.reduceat((rows & 1).ravel(), at)
    zeros = np.diff(at, append=ctx.size) - ones
    pad = np.iinfo(np.int64).max
    body = np.full(ctx.size, pad)
    body[at] = ((ctx.ravel()[at] * (head + 1) + head) * span
                + zeros) * span + ones
    codes = np.sort(np.hstack(((key * span + 1 - bit) * span + bit,
                               body.reshape(ctx.shape))), axis=1)
    listed = codes != pad
    distinct, which = np.unique(codes[listed], return_inverse=True)
    pairs = []
    for code in distinct.tolist():
        key, counts = divmod(code, span * span)
        value, j = divmod(key, head + 1)
        pairs.append((format(value >> (head - j) | 1 << j, "b")[1:],
                      divmod(counts, span)))
    objects = np.fromiter(pairs, dtype=object, count=len(pairs))
    listing = objects[which].tolist()
    ends = np.cumsum(listed.sum(axis=1)).tolist()
    sigs = [(x[:order], tuple(listing[a:b]))
            for x, a, b in zip(reps, [0, *ends], ends)]
    return Groups(group, first, reps, sigs)
