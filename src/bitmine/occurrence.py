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
transaction.  ``support`` counts many candidates at once.  For the KT
backend it takes their signature groups and first members' count rows
(``ktbatch.Groups``, from the miner's level coder, the oracle's class
coder, or ``ktbatch.string_groups`` for plain strings), evaluates
L(y||x) - L(y) in closed form with numpy and hands every pair within
``REDECIDE_TOL`` of the noise threshold back to the sequential coder, so
its decisions equal those of ``frequency`` (the entropy test is exact).
It does so only up to order ``_KT_MAX_ORDER`` and while a table of
2**(order + 1) rows by |T| fits ``_KT_TABLE_MAX``; past either, KT takes
the sequential path.
Signature groups are a KT shortcut (the add-1/2 estimator is
exchangeable): every other backend counts each distinct candidate as a
group of its own, from its L(x) (``code_strings``, which prices it from
scratch with ``code_len`` and builds no coder state, or, for LZ, parses
every candidate at once in numpy).  LZ is counted in numpy too, parent by
parent, on the transactions where the parent occurs: each (parent,
transaction) pair is parsed once, a bit column at a time over all pairs,
from the transaction's phrase trie cached as a flat table, and each child
from there (``_lz_support``, on the batch module ``lzbatch``).  LZ costs
are integers, so its decisions equal those of ``frequency`` exactly.
The sequential coder counts the rest (``_count_by_parent``): KT past the
closed form's limits, parent by parent, and the non-monotone external
adapter on every transaction.
"""

from __future__ import annotations

import math
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
    for i, (state_y, (max_len_x, max_extra)) in enumerate(
            zip(cache.states, _limits(params, cache))):
        if len_x > max_len_x:
            continue
        try:
            extra = backend.extend_cost(state_y, x)
        except EstimationError as exc:
            raise EstimationError(f"transaction {i}: {exc}") from exc
        if extra <= max_extra:
            count += 1
    return count


def _limits(params, coded):
    """(largest L(x), largest L(y||x) - L(y)) that occur, per transaction."""
    for i, len_y in enumerate(coded.lengths):
        if len_y <= 0.0:
            raise PredicateError(f"transaction {i}: backend reports code "
                                 f"length {len_y} for a non-empty datum")
    return [(params.entropy_bound(len_y), params.noise_bound(len_y))
            for len_y in coded.lengths]


class Support(dict):
    """{x: support count} as returned by ``support``, with the work done:
    ``groups`` groups were counted, over ``pairs``
    (group, transaction) pairs whose extra cost was evaluated.
    ``per_group`` holds each group's count as an intp array.
    ``occurrences`` maps each x to the ascending indices of the
    transactions it occurs in when the count went parent by parent (the
    coder or the LZ kernel), and is None when it came from the KT closed
    form."""
    groups = 0
    pairs = 0
    per_group = None
    occurrences = None


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
            coded=None, parent=None) -> Support:
    """Support of every candidate in T, as {x: count}; each count equals
    ``frequency(backend, params, T, x)``.

    Candidates are counted in groups, each once, by its first member in
    ``candidates``: its L(x) decides entropy reduction for the whole
    group, and only it is re-coded where the noise test is re-decided.
    (The oracle passes each KT group's first kept member alone.)
    For a ``KTBackend`` a group is a signature group (strings with equal
    signatures cost the same after any coder state, hence have identical
    support), ``coded`` is the candidates' ``ktbatch.Groups`` (by default
    ``ktbatch.string_groups``, after checking the candidates), and the
    groups are counted in closed form, on every transaction, up to order
    ``_KT_MAX_ORDER`` while (2 << order) x |T| fits ``_KT_TABLE_MAX``;
    this is the one place that chooses the KT count path.  For every
    other backend each distinct candidate is a group of its own, and
    ``coded`` maps each x to L(x), as ``code_strings`` (the default)
    returns it.  An ``LZBackend`` is counted in numpy (``_lz_support``),
    every other backend (and KT past that order or size) by the coder
    (``_count_by_parent``), both parent by parent: ``parent`` maps x to
    (p, occ), a prefix p of x and the ascending transaction indices where
    p occurs (None: every transaction).  With a monotone
    backend x can only occur where p does, so the transactions outside
    occ are skipped.  This is the one place that decides whether occ may
    prune: a non-monotone backend's ``parent`` is ignored, and every x is
    counted on every transaction as its own child of the empty prefix, as
    without ``parent``.  Counts do not depend on grouping.
    """
    kt = isinstance(backend, KTBackend)
    if coded is None:
        candidates = [bitutil.check(x, "pattern") for x in candidates]
        coded = (ktbatch.string_groups(backend.order, candidates) if kt
                 else code_strings(backend, candidates))
    if kt:
        reps = [candidates[i] for i in coded.first.tolist()]
        group, lens = coded.group, coded.reps.length.tolist()
    else:
        number = {}
        group = [number.setdefault(x, len(number)) for x in candidates]
        reps = list(number)
        lens = [coded[x] for x in reps]
    cache = T.cached(backend)
    n_t = len(cache.items)
    if (kt and reps and n_t and backend.order <= _KT_MAX_ORDER
            and (2 << backend.order) * n_t <= _KT_TABLE_MAX):
        counts = _kt_support(backend, params, cache, coded.reps, reps)
        found, pairs = None, len(reps) * n_t
    elif isinstance(backend, LZBackend):
        found, pairs = _lz_support(_limits(params, cache), cache, reps, lens,
                                   parent)
        counts = [len(ts) for ts in found]
    else:
        found, pairs = _count_by_parent(
            backend, _limits(params, cache), cache, reps, lens,
            parent if backend.monotone else None)
        counts = [len(ts) for ts in found]
    per_group = np.asarray(counts, dtype=np.intp)
    result = Support(zip(candidates, per_group[group].tolist()))
    result.groups, result.pairs, result.per_group = len(reps), pairs, per_group
    if found is not None:
        result.occurrences = dict(zip(candidates, (found[g] for g in group)))
    return result


def _count_by_parent(backend, limits, coded: _Coded, xs, lens, parent):
    """(occurrence list of each x, pairs priced) by the sequential coder.

    For every parent p and transaction y in p's occurrence list where some
    child of p passes entropy reduction, y || p is parsed once; each
    child x = p || s is then priced by s alone from that state.  The
    suffix's cost continues p's extra cost L(y||p) - L(y) (``extend_cost``'s
    running sum), so each extra cost is bit-identical to
    ``extend_cost(state_y, x)``.
    """
    children: dict = {}  # p -> (p's occurrence list, indices into xs)
    for g, x in enumerate(xs):
        p, occ = parent(x) if parent is not None else ("", None)
        children.setdefault(p, (occ, []))[1].append(g)
    found = [[] for _ in xs]
    pairs = t = 0
    try:
        for p, (occ, gs) in children.items():
            cut = len(p)
            for t in range(len(coded.items)) if occ is None else occ:
                max_len_x, max_extra = limits[t]
                live = [g for g in gs if lens[g] <= max_len_x]
                if not live:
                    continue
                state, extra_p = coded.states[t], 0.0
                if cut:
                    state, extra_p = backend.extend(state, p)
                pairs += len(live)
                for g in live:
                    if backend.extend_cost(state, xs[g][cut:], extra_p) <= max_extra:
                        found[g].append(t)
    except EstimationError as exc:
        raise EstimationError(f"transaction {t}: {exc}") from exc
    return found, pairs


def _lz_support(limits, coded: _Coded, xs, lens, parent):
    """``_count_by_parent`` for ``LZBackend``, in numpy: the noise test on
    the pairs and extra costs of ``lzbatch.extras``.  LZ costs are
    integers, so an extra cost is at most a bound b exactly when it is at
    most floor(b), and each test is decided as ``frequency`` decides it."""
    from . import lzbatch  # loaded on first use: only LZ needs it

    max_extra = np.array([math.floor(e) for _, e in limits], dtype=np.intp)
    found = [[] for _ in xs]
    pairs = 0
    for g, t, extra in lzbatch.extras(limits, coded, xs, lens, parent):
        pairs += len(g)
        ok = np.flatnonzero(extra <= max_extra[t])
        # a child's pairs come in order: its transactions ascend
        for x, y in zip(g[ok].tolist(), t[ok].tolist()):
            found[x].append(y)
    return found, pairs


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


def _kt_support(backend: KTBackend, params, coded: _Coded, firsts, reps):
    """Closed-form counts of signature groups, from their first members
    ``reps`` and their ``ktbatch.Frontier`` ``firsts`` (``Groups.reps``).

    The extra cost of x after y is a sum over contexts of the KT block cost
    of x's increments (d0, d1) on y's counts (c0, c1).  Increments of the
    bits after x's first ``order`` (the head) are the group's body; those
    of the head depend on y's tail context, and come from the (tail, head)
    windows (``ktbatch.head_steps``).  Groups are evaluated in chunks
    whose dense groups x contexts x transactions arrays hold at most
    ``_BLOCK_ELEMENTS`` entries (a single group may exceed it).
    """
    k = backend.order
    kt = _kt_counts(coded, k)
    lengths = np.asarray(coded.lengths)
    n_t = len(coded.states)
    max_x = max(map(len, reps))
    names = firsts.names

    # Columns are the contexts any group touches, by id: those of the
    # groups' bodies (full length) and of their heads' steps after every
    # tail, which depend on y only through its tail.
    heads, rank = ktbatch._distinct(firsts.head, len(names))
    group_head = rank[firsts.head]
    tail, head_ids, bit, head_starts = ktbatch.head_steps(
        k, kt.tails, [names[h] for h in heads.tolist()])
    contexts, rank = ktbatch._distinct(firsts.rows[1], len(names))
    body_ids = ktbatch.context_ids([names[c] for c in contexts.tolist()])
    ids = np.sort(np.concatenate((body_ids, head_ids)))
    ids = ids[np.diff(ids, prepend=-1) != 0]
    n_cols = len(ids)
    body = firsts.rows.copy()
    body[1] = np.searchsorted(ids, body_ids)[rank[body[1]]]
    starts = np.searchsorted(body[0], np.arange(len(reps) + 1))
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
    per_group = min(max_x, 2 ** (backend.order + 1) - 1)
    tol = REDECIDE_TOL + 16 * np.finfo(float).eps * B[top] * (per_group + max_x)

    counts = np.zeros(len(reps), dtype=np.intp)
    step = max(1, _BLOCK_ELEMENTS // (n_cols * n_t))
    for lo in range(0, len(reps), step):
        hi = min(lo + step, len(reps))
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
        passes = firsts.length[lo:hi, None] <= params.entropy_bound(lengths)
        gap = extra - params.noise_bound(lengths)
        ok = passes & (gap <= 0)
        # ``passes`` is exact; only the noise test is re-decided
        for g, t in zip(*np.nonzero(passes & (np.abs(gap) <= tol))):
            extra_seq = backend.extend_cost(coded.states[t], reps[lo + g])
            ok[g, t] = extra_seq <= params.noise_bound(coded.lengths[t])
        counts[lo:hi] = ok.sum(axis=1)
    return counts
