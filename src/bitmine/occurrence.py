"""The pattern-occurrence predicate, the frequency function and the batched
support kernel.

A pattern x occurs in a datum y when it is both substantially simpler than y
(entropy reduction) and carries only bounded information not already in y
(noise exclusion).  Two threshold variants are supported:

  scale-free:  L(x) <= c1 * L(y)   and   L(y||x) <= (1 + c2) * L(y)
  additive:    L(x) <= L(y) - c3   and   L(y||x) - L(y) <= c4

with 0 < c1 < 1, 0 < c2 < 1 for the scale-free form and c3, c4 > 0 for the
additive form.  All inequalities are non-strict.

``frequency`` is the definitional count: one sequential coder call per
transaction.  ``support`` counts many candidates at once, against
per-transaction bounds (``_bounds``) built once per count.  KT signature
groups (``ktbatch.Groups``: from the miner's level coder, the oracle's
class coder, or ``ktbatch.string_groups``) are counted in closed form
with numpy (the add-1/2 estimator is exchangeable), and the sequential
coder recounts the members that rounding could set apart, so the
decisions equal those of ``frequency``; this up to order
``_KT_MAX_ORDER``, while 2**(order + 1) rows by |T| fit ``_KT_TABLE_MAX``.
Otherwise each candidate is counted on its own, from its L(x), parent by
parent (as Eclat counts on tid-lists): the caller passes its frontier as
arrays, and a child is counted only where its parent occurs.  One
planner (``_per_parent``) decides such a count, and the closed form's
recount, on the extra costs of a pricer: for LZ ``lzbatch.extras``
parses each (parent, transaction) pair once in numpy, a bit column at a
time, from the transaction's phrase trie cached as a flat table, and
each child from there (its costs are integers, so its decisions equal
those of ``frequency`` exactly); the sequential coder (``_coder_prices``)
prices the rest: KT past the closed form's limits, the recount, and the
non-monotone external adapter on every transaction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, islice, repeat

import numpy as np

from . import bits as bitutil
from . import ktbatch
from .codelength import EstimationError, KTBackend, LZBackend

VARIANTS = ("scale-free", "additive")

# A closed-form extra cost this close to the noise threshold (plus the
# tables' own rounding bound) is re-decided by the sequential coder.
REDECIDE_TOL = 1e-9
# Elements of one block of the KT kernel (groups x contexts x transactions),
# the planner (pair x bit of the parent) or ``lzbatch`` (row x bit).
_BLOCK_ELEMENTS = 1 << 13
# Largest KT order counted in closed form.  Its columns span every
# context a count touches, so its work grows with the order, while the
# sequential path prunes by the parents' occurrence lists; above this
# order the sequential path was faster in both the miner and the oracle.
_KT_MAX_ORDER = 8
# Largest (context id x transaction) table the KT kernel builds: a context
# of j <= order bits has id (1 << j) | value < 2 << order, so this bounds
# the count tables and every count's (column x transaction) arrays.
_KT_TABLE_MAX = 1 << 22


class PredicateError(Exception):
    """Occurrence could not be decided (as opposed to being false)."""


@dataclass(frozen=True)
class OccurrenceParams:
    variant: str = "scale-free"
    c1: float = 0.5
    c2: float = 0.25
    c3: float = 1.0
    c4: float = 1.0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        if self.variant == "scale-free":
            if not (0.0 < self.c1 < 1.0 and 0.0 < self.c2 < 1.0):
                raise ValueError("scale-free thresholds need 0 < c1 < 1 and 0 < c2 < 1")
        else:
            if not (self.c3 > 0.0 and self.c4 > 0.0):
                raise ValueError("additive thresholds need c3 > 0 and c4 > 0")

    def entropy_bound(self, len_y):
        """Largest L(x) that passes entropy reduction against L(y) = len_y
        (a float or an array of them)."""
        if self.variant == "scale-free":
            return self.c1 * len_y
        return len_y - self.c3

    def noise_bound(self, len_y):
        """Largest L(y||x) - L(y) that passes noise exclusion."""
        if self.variant == "scale-free":
            return self.c2 * len_y
        return self.c4


@dataclass
class _Coded:
    """A transaction set as one backend sees it."""
    items: tuple    # the transactions these entries were computed from
    lengths: list   # L(y) per transaction
    states: list    # coder state after y per transaction
    kt: object = None  # _KTCounts, built by the first closed-form count
    lz: object = None  # lzbatch.Tries, built by the first LZ count


def _check_items(items):
    for i, y in enumerate(items):
        bitutil.check(y, f"transaction {i}")


@dataclass
class TransactionSet:
    """Multiset of bit-string observations (ordered list, repetition allowed).

    Per-backend code lengths and coder states of each transaction are cached
    so repeated predicate evaluations pay O(|pattern|) instead of
    O(|transaction| + |pattern|).
    """

    items: list
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        _check_items(self.items)

    def __len__(self):
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def cached(self, backend) -> _Coded:
        """L(y) and the coder state after y of every transaction, computed
        once per backend value (``backend.key``) and again whenever
        ``items`` has changed since."""
        items = tuple(self.items)
        entry = self._cache.get(backend.key)
        if entry is None or entry.items != items:
            _check_items(items)
            root = backend.initial_state()
            coded = [backend.extend(root, y) for y in items]
            entry = _Coded(items, [c for _, c in coded], [s for s, _ in coded])
            self._cache[backend.key] = entry
        return entry

    def max_code_len(self, backend) -> float:
        return max(self.cached(backend).lengths)


def occurs(backend, params: OccurrenceParams, x: str, y: str) -> bool:
    """Does pattern x occur in datum y under the given thresholds?"""
    bitutil.check(x, "pattern")
    bitutil.check(y, "datum")
    state_y, len_y = backend.extend(backend.initial_state(), y)
    if len_y <= 0.0:
        raise PredicateError(
            f"backend reports code length {len_y} for a non-empty datum")
    return (backend.code_len(x) <= params.entropy_bound(len_y)
            and backend.extend_cost(state_y, x) <= params.noise_bound(len_y))


def frequency(backend, params: OccurrenceParams, T: TransactionSet, x: str) -> int:
    """Number of transactions (with multiplicity) in which x occurs."""
    bitutil.check(x, "pattern")
    cache = T.cached(backend)
    len_x = backend.code_len(x)
    count = 0
    for i, (state_y, max_len_x, max_extra) in enumerate(
            zip(cache.states, *(b.tolist() for b in _bounds(params, cache)))):
        if len_x > max_len_x:
            continue
        try:
            extra = backend.extend_cost(state_y, x)
        except EstimationError as exc:
            raise EstimationError(f"transaction {i}: {exc}") from exc
        if extra <= max_extra:
            count += 1
    return count


def _bounds(params, coded):
    """(largest L(x), largest L(y||x) - L(y)) that occur, per transaction."""
    for i, len_y in enumerate(coded.lengths):
        if len_y <= 0.0:
            raise PredicateError(f"transaction {i}: backend reports code "
                                 f"length {len_y} for a non-empty datum")
    lengths = np.asarray(coded.lengths, dtype=float)
    return (params.entropy_bound(lengths),
            np.full_like(lengths, params.noise_bound(lengths)))


class Support(dict):
    """{x: support count} as returned by ``support``, with the work done:
    ``groups`` groups were counted, over ``pairs`` (group, transaction)
    pairs whose extra cost was evaluated.  ``occurrences`` holds, per
    candidate, the ascending indices of the transactions it occurs in, or
    None from the KT closed form.  ``near`` flags the members of the KT
    groups that rounding may split (see ``support``): another string of
    their signature group may count otherwise.  For LZ, which has no
    groups and integer costs, the same test flags an extra cost on the
    noise bound; nothing reads it there."""
    groups = 0
    pairs = 0
    occurrences = None
    near = None


def code_strings(backend, xs) -> np.ndarray:
    """L(x) of each x, in order, each priced from scratch by
    ``backend.code_len``, so no coder state is built.  An ``LZBackend``
    prices every x at once instead, in numpy (``lzbatch.lengths``); its
    costs are integers, so they are the same floats.
    """
    if isinstance(backend, LZBackend):
        from . import lzbatch  # loaded on first use: only LZ needs it

        return lzbatch.lengths(list(xs)).astype(float)
    return np.fromiter(map(backend.code_len, xs), float)


def _margin(m: int, bound: float) -> float:
    """A bound on the gap between the L(x) of two m-bit members of one KT
    group, L(x) about ``bound``: a sum of m steps, each within 3u = 3 * 2**-53
    of log2(2m + 2), errs by <= m u (3 log2(2m + 2) + L(x)) (Higham 1993)."""
    return REDECIDE_TOL + m * 2.0 ** -52 * (3 * math.log2(2 * m + 2) + bound)


def support(backend, params: OccurrenceParams, T: TransactionSet, candidates,
            coded=None, parents=None) -> Support:
    """Support of every candidate in T, as {x: count}; each count equals
    ``frequency(backend, params, T, x)``.

    ``coded`` gives each candidate's L(x): its ``ktbatch.Groups`` for a
    ``KTBackend`` (default ``ktbatch.string_groups``, after checking the
    candidates), else an array (default ``code_strings``).  Up to KT
    order ``_KT_MAX_ORDER``, while (2 << order) x |T| fits
    ``_KT_TABLE_MAX``, the signature groups are counted in closed form,
    each once, on every transaction, and the coder recounts every member
    of a group that rounding may split (``Support.near``, on either path):
    with a pair near the noise bound, or a first member whose L(x) lies
    within ``_margin`` of an entropy bound.  This is the one place that
    chooses the KT count path and that makes these two tests.  Otherwise
    each candidate is counted on its own, parent by parent, as
    ``_per_parent`` plans it, and so is the recount; the pricer is
    ``lzbatch.extras`` for an ``LZBackend``, else ``_coder_prices``.
    ``parents`` is (patterns, their occurrence lists: the ascending
    indices of the transactions each occurs in, None for all, and each
    candidate's parent's index); None is one parent, the empty pattern,
    on every transaction.  A monotone backend's x can only occur where its
    parent does, so the other transactions are skipped; a non-monotone
    backend's ``parents`` are ignored, here and only here.
    """
    kt = isinstance(backend, KTBackend)
    if coded is None:
        candidates = [bitutil.check(x, "pattern") for x in candidates]
    if not candidates:
        return Support()
    if coded is None:
        coded = (ktbatch.string_groups(backend.order, candidates) if kt
                 else code_strings(backend, candidates))
    cache = T.cached(backend)
    bounds = _bounds(params, cache)
    if parents is None or not backend.monotone:
        parents = [""], [None], np.zeros(len(candidates), dtype=np.intp)
    if isinstance(backend, LZBackend):
        from . import lzbatch  # loaded on first use: only LZ needs it

        price = partial(lzbatch.extras, cache)
    else:
        price = partial(_coder_prices, backend, cache)
    if kt:  # the groups whose members' L(x) may lie across an entropy bound
        m, entropy = max(map(len, candidates)), np.sort(bounds[0])
        lead, margin = coded.reps.length, _margin(m, entropy.max(initial=0.0))
        edge = (np.searchsorted(entropy, lead - margin)
                != np.searchsorted(entropy, lead + margin, "right"))
    if (kt and len(T) and backend.order <= _KT_MAX_ORDER
            and (2 << backend.order) * len(T) <= _KT_TABLE_MAX):
        counts, near = _kt_support(backend.order, cache, coded.reps, bounds, m)
        counts, near = counts[coded.group], (near | edge)[coded.group]
        groups, pairs, found = len(coded.first), len(coded.first) * len(T), None
        again = np.flatnonzero(near)
        if len(again):
            recount, more, _ = _per_parent(
                price, bounds, cache, [candidates[i] for i in again.tolist()],
                coded.length[again], (*parents[:2], parents[2][again]))
            counts[again] = [len(ts) for ts in recount]
            pairs += more
        counts = counts.tolist()
    else:
        found, pairs, near = _per_parent(price, bounds, cache, candidates,
                                         coded.length if kt else coded, parents)
        if kt:
            near |= edge[coded.group]
        groups, counts = len(candidates), [len(ts) for ts in found]
    result = Support(zip(candidates, counts))
    result.groups, result.pairs = groups, pairs
    result.occurrences, result.near = found, near
    return result


def _per_parent(price, bounds, coded: _Coded, xs, lens, parents):
    """(occurrence list of each x, pairs priced, near flag of each x),
    counted parent by parent (as Eclat counts on tid-lists); x is near
    where an extra cost of it lies within ``REDECIDE_TOL`` of the noise
    bound.  ``lens`` holds each L(x), and ``parents`` is as ``support``
    resolves it.

    A child of p is live on a transaction of p's list where its L(x)
    passes entropy reduction, so where its rank among the distinct L(x)
    is below that of the entropy bound.  ``price(plan, chunks)`` prices
    the live pairs.  ``plan`` is (xs, the parents longest first, each
    x's parent's index in them, ``order``: the x by (parent, L(x))).  A
    chunk is the (parent, transaction) pairs, of ``_BLOCK_ELEMENTS``
    parent bits in all, that have a live child, as arrays (parent,
    transaction, first, live); a pair's live children are
    ``order[first:first + live]``.  The pricer yields (children,
    transactions, extra costs), each cost ``==`` ``extend_cost(state_y,
    x)``, and a child's pairs in the order of its parent's list.
    """
    entropy, noise = bounds
    patterns, lists, of = parents
    by = sorted(range(len(patterns)), key=lambda i: -len(patterns[i]))
    of = np.argsort(by)[of]
    patterns = [patterns[i] for i in by]
    occs = [range(len(coded.items)) if lists[i] is None else lists[i]
            for i in by]
    distinct, rank = np.unique(lens, return_inverse=True)
    span = len(distinct) + 1
    key = of * span + rank
    order = np.argsort(key, kind="stable")
    key = key[order]
    live_below = np.searchsorted(distinct, entropy, "right")
    step = _BLOCK_ELEMENTS // max(1, len(patterns[0])) or 1
    ps = chain.from_iterable(map(repeat, range(len(occs)), map(len, occs)))
    ts = chain.from_iterable(occs)

    def chunks():
        while len(p := np.fromiter(islice(ps, step), np.intp)):
            t = np.fromiter(ts, np.intp, len(p))
            first = np.searchsorted(key, p * span)
            live = np.searchsorted(key, p * span + live_below[t]) - first
            on = np.flatnonzero(live)
            if len(on):
                yield p[on], t[on], first[on], live[on]

    found = [[] for _ in xs]
    near = np.zeros(len(xs), dtype=bool)
    pairs = 0
    for g, t, extra in price((xs, patterns, of, order), chunks()):
        pairs += len(g)
        near[g[np.abs(extra - noise[t]) <= REDECIDE_TOL]] = True
        ok = np.flatnonzero(extra <= noise[t])
        # a child's pairs come in order: its transactions ascend
        for x, y in zip(g[ok].tolist(), t[ok].tolist()):
            found[x].append(y)
    return found, pairs, near


def _coder_prices(backend, coded: _Coded, plan, chunks):
    """``_per_parent``'s pricer by the sequential coder: y || p is coded
    once per pair, and each live child x = p || s is priced by s alone
    from that state, continuing p's extra cost (``extend_cost``'s running
    sum), so each extra cost is bit-identical to ``extend_cost(state_y,
    x)``."""
    xs, patterns, of, order = plan
    suffixes = [xs[g][len(patterns[p]):]
                for g, p in zip(order.tolist(), of[order].tolist())]
    for p, t, first, live in chunks:
        extra = []
        for i, y, lo, n in zip(p.tolist(), t.tolist(), first.tolist(),
                               live.tolist()):
            try:
                state, extra_p = coded.states[y], 0.0
                if patterns[i]:
                    state, extra_p = backend.extend(state, patterns[i])
                extra += [backend.extend_cost(state, s, extra_p)
                          for s in suffixes[lo:lo + n]]
            except EstimationError as exc:
                raise EstimationError(f"transaction {y}: {exc}") from exc
        end = np.cumsum(live)
        rows = np.arange(end[-1]) + np.repeat(first - end + live, live)
        yield order[rows], np.repeat(t, live), np.array(extra)


@dataclass
class _KTCounts:
    """Per-context counts of every transaction, laid out for the kernel."""
    zeros: np.ndarray  # (2 << order) x transactions, a row per context id
    ones: np.ndarray   # (``ktbatch.context_ids``); zero where y lacks it
    tails: list       # distinct tail contexts (coder context after y)
    tail_of: np.ndarray  # index into tails, per transaction


def _kt_counts(coded: _Coded, order: int):
    """The count tables of a KT-coded set, built once per set."""
    if coded.kt is None:
        contexts = dict.fromkeys(c for s in coded.states for c in s.counts)
        ids = dict(zip(contexts, ktbatch.context_ids(contexts).tolist()))
        zeros = np.zeros((2 << order, len(coded.states)), dtype=np.intp)
        ones = np.zeros_like(zeros)
        tails: dict = {}
        tail_of = []
        for t, state in enumerate(coded.states):
            for ctx, (c0, c1) in state.counts.items():
                zeros[ids[ctx], t], ones[ids[ctx], t] = c0, c1
            tail_of.append(tails.setdefault(state.context, len(tails)))
        coded.kt = _KTCounts(zeros, ones, list(tails), np.array(tail_of))
    return coded.kt


def _kt_support(order: int, coded: _Coded, firsts, bounds, max_x: int):
    """Closed-form counts of signature groups, and which groups have a
    pair near the noise bound, from the groups' first members, their
    ``ktbatch.Frontier`` ``firsts`` (``Groups.reps``), the transactions'
    ``bounds`` (``_bounds``) and the longest member's length ``max_x``.

    The extra cost of x after y is a sum over contexts of the KT block cost
    of x's increments (d0, d1) on y's counts (c0, c1).  Increments of the
    bits after x's first ``order`` (the head) are the group's body; those
    of the head depend on y's tail context, and come from the (tail, head)
    windows (``ktbatch.head_steps``).  Groups are evaluated in chunks
    whose dense groups x contexts x transactions arrays hold at most
    ``_BLOCK_ELEMENTS`` entries (a single group may exceed it).
    """
    kt = _kt_counts(coded, order)
    n_t = len(coded.states)
    n_groups = len(firsts.length)
    names = firsts.names

    # Columns are the contexts any group touches, by id: those of the
    # groups' bodies (full length) and of their heads' steps after every
    # tail, which depend on y only through its tail.
    heads, rank = ktbatch._distinct(firsts.head, len(names))
    group_head = rank[firsts.head]
    tail, head_ids, bit, head_starts = ktbatch.head_steps(
        order, kt.tails, [names[h] for h in heads.tolist()])
    contexts, rank = ktbatch._distinct(firsts.rows[1], len(names))
    body_ids = ktbatch.context_ids([names[c] for c in contexts.tolist()])
    ids = np.sort(np.concatenate((body_ids, head_ids)))
    ids = ids[np.diff(ids, prepend=-1) != 0]
    n_cols = len(ids)
    body = firsts.rows.copy()
    body[1] = np.searchsorted(ids, body_ids)[rank[body[1]]]
    starts = np.searchsorted(body[0], np.arange(n_groups + 1))
    head_col = np.searchsorted(ids, head_ids)
    del head_ids  # one int64 per (tail, head step): free it for the chunks
    c0, c1 = kt.zeros[ids], kt.ones[ids]
    # By exchangeability, coding d0 zeros and d1 ones in a context with
    # counts (c0, c1) costs, in any order, (B[n + d] - B[n])
    # - (A[c0 + d0] - A[c0]) - (A[c1 + d1] - A[c1]), with n = c0 + c1,
    # d = d0 + d1 and the prefix sums A[m] = sum_{i<m} log2(2i + 1),
    # B[m] = sum_{i<m} log2(2i + 2), the walk's terms.  No pair reads past top.
    top = int((c0 + c1).max()) + max_x
    total, count = ktbatch._terms(top)
    A = np.concatenate(([0.0], np.cumsum(count)))
    B = np.concatenate(([0.0], np.cumsum(total)))
    base = B[c0 + c1] - A[c0] - A[c1]
    # Every B - A - A term is compared with ``base``, read from the same
    # tables at y's own counts, so a context a group does not touch costs
    # exactly 0, and each table's error enters a touched context as
    # e(m + d) - e(m): for a prefix sum, the rounding of the d additions
    # between the two entries, at most d ulps of B[top].  A group's
    # increments sum to |x| <= max_x, and it touches at most per_group
    # contexts, so the table error, the closed form's own rounding
    # (per_group terms) and the sequential coder's (max_x steps) are
    # bounded in units of B[top].
    per_group = min(max_x, 2 ** (order + 1) - 1)
    tol = REDECIDE_TOL + 16 * np.finfo(float).eps * B[top] * (per_group + max_x)

    entropy, noise = bounds
    counts = np.zeros(n_groups, dtype=np.intp)
    near = np.zeros(n_groups, dtype=bool)
    step = max(1, _BLOCK_ELEMENTS // (n_cols * n_t))
    for lo in range(0, n_groups, step):
        hi = min(lo + step, n_groups)
        d = np.zeros((2, hi - lo, n_cols), dtype=np.intp)
        part = body[:, starts[lo]:starts[hi]]
        d[:, part[0] - lo, part[1]] = part[2:]
        # The chunk's heads after every tail, gathered per transaction.
        h = np.zeros((2, len(kt.tails), hi - lo, n_cols), dtype=np.intp)
        g, at = ktbatch._spans(head_starts, group_head[lo:hi])
        np.add.at(h, (bit[at], tail[at], g, head_col[at]), 1)
        # (bit, group, column, transaction): head plus body increments
        inc = h[:, kt.tail_of].transpose(0, 2, 3, 1)
        inc += d[:, :, :, None]
        d0, d1 = inc
        cost = B[c0 + c1 + d0 + d1]
        cost -= A[c0 + d0]
        cost -= A[c1 + d1]
        cost -= base
        extra = cost.sum(axis=1)
        passes = firsts.length[lo:hi, None] <= entropy
        gap = extra - noise
        counts[lo:hi] = (passes & (gap <= 0)).sum(axis=1)
        near[lo:hi] = (passes & (np.abs(gap) <= tol)).any(axis=1)
    return counts, near
