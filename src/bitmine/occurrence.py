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
backend it takes their signature groups as count arrays
(``ktbatch.Groups``, from the miner's level coder, the oracle's class
coder, or ``ktbatch.string_groups`` for plain strings), evaluates
L(y||x) - L(y) in closed form with numpy and hands every pair within
``REDECIDE_TOL`` of the noise threshold back to the sequential coder, so
its decisions equal those of ``frequency``.  Signature groups are a KT
shortcut (the add-1/2 estimator is exchangeable): every other backend
counts each distinct candidate as a group of its own, from its L(x)
(``code_strings``, which prices it with ``extend_cost`` and builds no
coder state), with the sequential coder: LZ parent by parent, on the
transactions where the parent occurs; the non-monotone external adapter
on every transaction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import bits as bitutil
from . import ktbatch
from .codelength import EstimationError, KTBackend, kt_log2_terms

VARIANTS = ("scale-free", "additive")

# A closed-form extra cost this close to the noise threshold (plus the
# tables' own rounding bound) is re-decided by the sequential coder.
REDECIDE_TOL = 1e-9
# Elements (groups x contexts x transactions) of one chunk of the KT
# kernel; bounds the kernel's working memory.
_BLOCK_ELEMENTS = 1 << 13
# Largest (contexts x transactions) count table the KT kernel builds; a
# larger transaction set is counted by the sequential path.
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
    kt_refused: bool = False  # the count tables were found too large


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


def _occurs_len(params: OccurrenceParams, len_x: float, len_y: float,
                extra: float) -> bool:
    """Decide occurrence from L(x), L(y) and L(y||x) - L(y)."""
    return (len_x <= params.entropy_bound(len_y)
            and extra <= params.noise_bound(len_y))


def occurs(backend, params: OccurrenceParams, x: str, y: str) -> bool:
    """Does pattern x occur in datum y under the given thresholds?"""
    bitutil.check(x, "pattern")
    bitutil.check(y, "datum")
    state_y, len_y = backend.extend(backend.initial_state(), y)
    if len_y <= 0.0:
        raise PredicateError(
            f"backend reports code length {len_y} for a non-empty datum")
    len_x = backend.code_len(x)
    return _occurs_len(params, len_x, len_y, backend.extend_cost(state_y, x))


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
    ``occurrences`` maps each x to the ascending indices of the
    transactions it occurs in when the count came from coder states, and
    is None when it came from the KT closed form."""
    groups = 0
    pairs = 0
    occurrences = None


def code_strings(backend, xs, start=None) -> dict:
    """{x: L(x)}, each x priced once by ``extend_cost``, so no coder state
    is built.  ``start`` maps x to (coder state after a prefix p of x,
    L(p), the rest of x), continuing L(p)'s running sum (default: the
    initial state), so L(x) is bit-identical to ``backend.code_len(x)``.
    """
    root = backend.initial_state()
    coded = {}
    for x in xs:
        state, cost, rest = (root, 0.0, x) if start is None else start(x)
        coded[x] = backend.extend_cost(state, rest, cost)
    return coded


def support(backend, params: OccurrenceParams, T: TransactionSet, candidates,
            coded=None, parent=None) -> Support:
    """Support of every candidate in T, as {x: count}; each count equals
    ``frequency(backend, params, T, x)``.

    Candidates are counted in groups, each once, by its first member.
    For a ``KTBackend`` a group is a signature group (strings with equal
    signatures cost the same after any coder state, hence have identical
    support), ``coded`` is the candidates' ``ktbatch.Groups`` (by default
    ``ktbatch.string_groups``, after checking the candidates), and the
    groups are counted in closed form, on every transaction.  For every
    other backend each distinct candidate is a group of its own, and
    ``coded`` maps each x to L(x), as ``code_strings`` (the default)
    returns it.  Every other backend (and KT when its count tables are
    too large) is counted parent by parent (``_count_by_parent``):
    ``parent`` maps x to (p, occ), a prefix p of x and the transaction
    indices where p occurs (None: every transaction).  With a monotone
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
        group, lens = coded.group, coded.length.tolist()
    else:
        number = {}
        group = [number.setdefault(x, len(number)) for x in candidates]
        reps = list(number)
        lens = [coded[x] for x in reps]
    cache = T.cached(backend)

    counts = found = None
    if kt and reps and len(cache.items):
        counts = _kt_support(backend, params, cache, coded, reps)
    if counts is not None:
        pairs = len(reps) * len(cache.items)
    else:
        found, pairs = _count_by_parent(
            backend, _limits(params, cache), cache, reps, lens,
            parent if backend.monotone else None)
        counts = [len(ts) for ts in found]
    counts = np.asarray(counts, dtype=np.intp)[group].tolist()
    result = Support(zip(candidates, counts))
    result.groups, result.pairs = len(reps), pairs
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


@dataclass
class _KTCounts:
    """Per-context counts of every transaction, laid out for the kernel."""
    ids: np.ndarray    # ascending ids (``ktbatch.context_ids``) of the contexts
    zeros: np.ndarray  # (contexts + 1) x transactions, a row per id; the
    ones: np.ndarray   # extra last row is all zero
    tails: list       # distinct tail contexts (coder context after y)
    tail_of: np.ndarray  # index into tails, per transaction


def _kt_counts(coded: _Coded):
    """The count tables of a KT-coded set, or None when they exceed
    ``_KT_TABLE_MAX`` elements (decided once per set)."""
    if coded.kt is None and not coded.kt_refused:
        rows: dict = {}
        for state in coded.states:
            for ctx in state.counts:
                rows.setdefault(ctx, len(rows))
        if (len(rows) + 1) * len(coded.states) > _KT_TABLE_MAX:
            coded.kt_refused = True
            return None
        ids = ktbatch.context_ids(rows)
        by_id = np.argsort(ids)
        rank = np.empty_like(by_id)  # per context, its row
        rank[by_id] = np.arange(len(ids))
        zeros = np.zeros((len(rows) + 1, len(coded.states)), dtype=np.intp)
        ones = np.zeros_like(zeros)
        tails: dict = {}
        tail_of = []
        for t, state in enumerate(coded.states):
            for ctx, (c0, c1) in state.counts.items():
                row = rank[rows[ctx]]
                zeros[row, t], ones[row, t] = c0, c1
            tail_of.append(tails.setdefault(state.context, len(tails)))
        coded.kt = _KTCounts(ids[by_id], zeros, ones, list(tails),
                             np.array(tail_of))
    return coded.kt


def _kt_support(backend: KTBackend, params, coded: _Coded, groups, reps):
    """Closed-form counts of signature groups (``ktbatch.Groups``, whose
    first members are ``reps``); None when the count tables would be too
    large, or the order too high for integer context ids.

    The extra cost of x after y is a sum over contexts of the KT block cost
    of x's increments (d0, d1) on y's counts (c0, c1).  Increments of the
    bits after x's first ``order`` (the head) are the group's body; those
    of the head depend on y's tail context, and come from the (tail, head)
    windows (``ktbatch.head_steps``).  Groups are evaluated in chunks
    whose dense groups x contexts x transactions arrays hold at most
    ``_BLOCK_ELEMENTS`` entries (a single group may exceed it).
    """
    k = backend.order
    if k > ktbatch.ID_ORDER:
        return None
    kt = _kt_counts(coded)
    if kt is None:
        return None
    lengths = np.asarray(coded.lengths)
    n_t = len(coded.states)
    max_x = max(map(len, reps))
    names = groups.names

    # Columns are the contexts any group touches, by id: those of the
    # groups' bodies (full length) and of their heads' steps after every
    # tail, which depend on y only through its tail.
    heads, rank = ktbatch._distinct(groups.head, len(names))
    group_head = rank[groups.head]
    tail, head_ids, bit, head_starts = ktbatch.head_steps(
        k, kt.tails, [names[h] for h in heads.tolist()])
    contexts, rank = ktbatch._distinct(groups.body[1], len(names))
    body_ids = ktbatch.context_ids([names[c] for c in contexts.tolist()])
    ids = np.sort(np.concatenate((body_ids, head_ids)))
    ids = ids[np.diff(ids, prepend=-1) != 0]
    n_cols = len(ids)
    body = groups.body.copy()
    body[1] = np.searchsorted(ids, body_ids)[rank[body[1]]]
    starts = np.searchsorted(body[0], np.arange(len(reps) + 1))
    head_col = np.searchsorted(ids, head_ids)
    del head_ids  # one int64 per (tail, head step): free it for the chunks
    # each column's row of the count tables (the zero row if y lacks it)
    row = np.minimum(np.searchsorted(kt.ids, ids), len(kt.ids) - 1)
    row[kt.ids[row] != ids] = len(kt.ids)
    c0, c1 = kt.zeros[row], kt.ones[row]
    # By exchangeability, coding d0 zeros and d1 ones in a context with
    # counts (c0, c1) costs, in any order, (B[n + d] - B[n])
    # - (A[c0 + d0] - A[c0]) - (A[c1 + d1] - A[c1]), with n = c0 + c1,
    # d = d0 + d1 and the prefix sums A[m] = sum_{i<m} log2(2i + 1),
    # B[m] = sum_{i<m} log2(2i + 2), the walk's terms.  No pair reads past top.
    top = int((c0 + c1).max()) + max_x
    total, count = kt_log2_terms(top)
    A = np.concatenate(([0.0], np.cumsum(count[:top])))
    B = np.concatenate(([0.0], np.cumsum(total[:top])))
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

    lens = groups.length.tolist()
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
        passes = groups.length[lo:hi, None] <= params.entropy_bound(lengths)
        gap = extra - params.noise_bound(lengths)
        ok = passes & (gap <= 0)
        for g, t in zip(*np.nonzero(passes & (np.abs(gap) <= tol))):
            extra_seq = backend.extend_cost(coded.states[t], reps[lo + g])
            ok[g, t] = _occurs_len(params, lens[lo + g], coded.lengths[t], extra_seq)
        counts[lo:hi] = ok.sum(axis=1)
    return counts
