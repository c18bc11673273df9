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
arrays, and a child is counted only where its parent occurs.  LZ is
counted in numpy: each (parent, transaction) pair is parsed once, a bit
column at a time over all pairs, from the transaction's phrase trie
cached as a flat table, and each child from there (``_lz_support``, on
the batch module ``lzbatch``); its costs are integers, so its decisions
equal those of ``frequency`` exactly.  The sequential coder counts the
rest (``_count_by_parent``): KT past the closed form's limits, and the
non-monotone external adapter on every transaction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import bits as bitutil
from . import ktbatch
from .codelength import EstimationError, KTBackend, LZBackend

VARIANTS = ("scale-free", "additive")

# A closed-form extra cost this close to the noise threshold (plus the
# tables' own rounding bound) is re-decided by the sequential coder.
REDECIDE_TOL = 1e-9
# Elements (groups x contexts x transactions) of one chunk of the KT
# kernel; bounds the kernel's working memory.
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
    ``groups`` groups were counted, over ``pairs``
    (group, transaction) pairs whose extra cost was evaluated.
    ``occurrences`` holds, per candidate, the ascending indices of the
    transactions it occurs in, or None from the KT closed form.  ``near``
    flags the candidates that a pair near a bound sent to the sequential
    coder: another string of their signature group may count otherwise."""
    groups = 0
    pairs = 0
    occurrences = None
    near = None


def code_strings(backend, xs) -> dict:
    """{x: L(x)}, each x priced once, from scratch, by ``backend.code_len``,
    so no coder state is built.  An ``LZBackend`` prices every x at once
    instead, in numpy (``lzbatch.lengths``); its costs are integers, so
    they are the same floats.
    """
    if isinstance(backend, LZBackend):
        from . import lzbatch  # loaded on first use: only LZ needs it

        xs = list(xs)
        return dict(zip(xs, map(float, lzbatch.lengths(xs).tolist())))
    return {x: backend.code_len(x) for x in xs}


def support(backend, params: OccurrenceParams, T: TransactionSet, candidates,
            coded=None, parents=None) -> Support:
    """Support of every candidate in T, as {x: count}; each count equals
    ``frequency(backend, params, T, x)``.

    ``coded`` gives each candidate's L(x): its ``ktbatch.Groups`` for a
    ``KTBackend`` (default ``ktbatch.string_groups``, after checking the
    candidates), else {x: L(x)} (default ``code_strings``).  Up to KT
    order ``_KT_MAX_ORDER``, while (2 << order) x |T| fits
    ``_KT_TABLE_MAX``, the signature groups are counted in closed form,
    each once, on every transaction; the coder recounts every member of a
    group with a pair near the noise bound, and every member with an
    entropy bound between its L(x) and its first member's.  This is the
    one place that chooses the KT count path and that reads the groups.
    Otherwise each candidate is counted on its own, parent by parent: by
    ``_lz_support`` for an ``LZBackend``, else by ``_count_by_parent``.
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
        coded = (ktbatch.string_groups(backend.order, candidates) if kt
                 else code_strings(backend, candidates))
    lens = (coded.length if kt else np.fromiter(
        map(coded.__getitem__, candidates), float, len(candidates)))
    cache = T.cached(backend)
    bounds = _bounds(params, cache)
    n_t = len(cache.items)
    if parents is None or not backend.monotone:
        parents = [""], [None], np.zeros(len(candidates), dtype=np.intp)
    if (kt and candidates and n_t and backend.order <= _KT_MAX_ORDER
            and (2 << backend.order) * n_t <= _KT_TABLE_MAX):
        counts, near = _kt_support(backend.order, cache, coded.reps, bounds)
        counts, near = counts[coded.group], near[coded.group]
        # a member whose L(x) differs from its first member's by rounding,
        # with an entropy bound in between
        lead, entropy = lens[coded.first][coded.group], np.sort(bounds[0])
        apart = np.flatnonzero(lens != lead)
        near[apart] |= (np.searchsorted(entropy, lens[apart])
                        != np.searchsorted(entropy, lead[apart]))
        groups, pairs, found = len(coded.first), len(coded.first) * n_t, None
        again = np.flatnonzero(near)
        if len(again):
            recount, more, _ = _count_by_parent(
                backend, bounds, cache, [candidates[i] for i in again.tolist()],
                lens[again], (*parents[:2], parents[2][again]))
            counts[again] = [len(ts) for ts in recount]
            pairs += more
        counts = counts.tolist()
    else:
        count = _lz_support if isinstance(backend, LZBackend) else _count_by_parent
        found, pairs, near = count(backend, bounds, cache, candidates, lens,
                                   parents)
        groups, counts = len(candidates), [len(ts) for ts in found]
    result = Support(zip(candidates, counts))
    result.groups, result.pairs = groups, pairs
    result.occurrences, result.near = found, near
    return result


def _count_by_parent(backend, bounds, coded: _Coded, xs, lens, parents):
    """(occurrence list of each x, pairs priced, near flag of each x) by
    the sequential coder; x is near where an extra cost of it lies within
    ``REDECIDE_TOL`` of the noise bound.

    For every parent p and transaction y in p's occurrence list where some
    child of p passes entropy reduction, y || p is parsed once; each child
    x = p || s is then priced by s alone from that state, continuing p's
    extra cost (``extend_cost``'s running sum), so each extra cost is
    bit-identical to ``extend_cost(state_y, x)``.
    """
    max_len_x, max_extra = (b.tolist() for b in bounds)
    lens = lens.tolist()
    patterns, lists, of = parents
    by = np.argsort(of, kind="stable")  # children by parent
    ends = np.searchsorted(of[by], np.arange(len(patterns) + 1)).tolist()
    found = [[] for _ in xs]
    near = np.zeros(len(xs), dtype=bool)
    pairs = t = 0
    try:
        for p, occ, lo, hi in zip(patterns, lists, ends, ends[1:]):
            gs, cut = by[lo:hi].tolist(), len(p)
            for t in range(len(coded.items)) if occ is None else occ:
                live = [g for g in gs if lens[g] <= max_len_x[t]]
                if not live:
                    continue
                state, extra_p = coded.states[t], 0.0
                if cut:
                    state, extra_p = backend.extend(state, p)
                pairs += len(live)
                for g in live:
                    extra = backend.extend_cost(state, xs[g][cut:], extra_p)
                    if extra <= max_extra[t]:
                        found[g].append(t)
                    near[g] |= abs(extra - max_extra[t]) <= REDECIDE_TOL
    except EstimationError as exc:
        raise EstimationError(f"transaction {t}: {exc}") from exc
    return found, pairs, near


def _lz_support(backend, bounds, coded: _Coded, xs, lens, parents):
    """``_count_by_parent`` for ``LZBackend``, in numpy: the noise test on
    the pairs and extra costs of ``lzbatch.extras``.  LZ costs are
    integers, exact as floats, so each test is decided as ``frequency``
    decides it, and no x is near."""
    from . import lzbatch  # loaded on first use: only LZ needs it

    found = [[] for _ in xs]
    pairs = 0
    for g, t, extra in lzbatch.extras(bounds, coded, xs, lens, parents):
        pairs += len(g)
        ok = np.flatnonzero(extra <= bounds[1][t])
        # a child's pairs come in order: its transactions ascend
        for x, y in zip(g[ok].tolist(), t[ok].tolist()):
            found[x].append(y)
    return found, pairs, np.zeros(len(xs), dtype=bool)


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


def _kt_support(order: int, coded: _Coded, firsts, bounds):
    """Closed-form counts of signature groups, and which groups have a
    pair near the noise bound, from the groups' first members, their
    ``ktbatch.Frontier`` ``firsts`` (``Groups.reps``), and the
    transactions' ``bounds`` (``_bounds``).

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
    # the longest member: the bits of its head, then one per window
    windows = np.bincount(firsts.rows[0], firsts.rows[2] + firsts.rows[3], n_groups)
    max_x = int((windows + np.array(list(map(len, names)))[firsts.head]).max())

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
