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
backend it evaluates L(y||x) - L(y) in closed form with numpy and hands
every pair within ``REDECIDE_TOL`` of the noise threshold back to the
sequential coder, so its decisions equal those of ``frequency``.  Every
other backend (LZ, the external adapter) is counted with the sequential
coder, parent by parent, on the transactions where the parent occurs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .codelength import EstimationError, KTBackend, KTState, kt_log_tables

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


def _check_items(items):
    for i, y in enumerate(items):
        if not isinstance(y, str):
            raise ValueError(f"transaction {i} is a {type(y).__name__}, not a bit string")
        if len(y) < 1:
            raise ValueError(f"transaction {i} is empty; length >= 1 required")
        bad = y.strip("01")
        if bad:
            raise ValueError(
                f"transaction {i} holds {bad[0]!r}; only '0' and '1' are bits")


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


def _check_pattern(x: str):
    if not x:
        raise ValueError("pattern must have length >= 1")


def occurs(backend, params: OccurrenceParams, x: str, y: str) -> bool:
    """Does pattern x occur in datum y under the given thresholds?"""
    _check_pattern(x)
    if len(y) < 1:
        raise ValueError("datum must have length >= 1")
    state_y, len_y = backend.extend(backend.initial_state(), y)
    if len_y <= 0.0:
        raise PredicateError(
            f"backend reports code length {len_y} for a non-empty datum")
    len_x = backend.code_len(x)
    return _occurs_len(params, len_x, len_y, backend.extend_cost(state_y, x))


def frequency(backend, params: OccurrenceParams, T: TransactionSet, x: str) -> int:
    """Number of transactions (with multiplicity) in which x occurs."""
    _check_pattern(x)
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
    ``groups`` signature groups were counted, over ``pairs``
    (group, transaction) pairs whose extra cost was evaluated.
    ``occurrences`` maps each x to the ascending indices of the
    transactions it occurs in when the count came from coder states, and
    is None when it came from the KT closed form."""
    groups = 0
    pairs = 0
    occurrences = None


def code_strings(backend, xs, start=None) -> dict:
    """{x: (L(x), signature of x)}, each x coded once by ``extend`` and
    its signature read off the resulting state; equal signatures share one
    object.  ``start`` maps x to (coder state after a prefix p of x, L(p),
    the rest of x), continuing L(p)'s running sum (default: the initial
    state), so L(x) is bit-identical to ``backend.code_len(x)``.
    """
    root = backend.initial_state()
    coded, interned = {}, {}
    for x in xs:
        state, cost, rest = (root, 0.0, x) if start is None else start(x)
        state, length = backend.extend(state, rest, cost)
        sig = backend.signature(x, state)
        coded[x] = (length, interned.setdefault(sig, sig))
    return coded


def support(backend, params: OccurrenceParams, T: TransactionSet, candidates,
            coded=None, parent=None) -> Support:
    """Support of every candidate in T, as {x: count}; each count equals
    ``frequency(backend, params, T, x)``.

    ``coded`` maps each x to (L(x), its signature), as ``code_strings``
    (the default) returns it.  Candidates are grouped by signature
    (strings with equal signatures cost the same after any coder state,
    hence have identical support) and each group is counted once.  The KT
    backend is counted in closed form, on every transaction.  Every other
    backend (and KT when its count tables are too large) is counted parent
    by parent (``_count_by_parent``): ``parent`` maps x to (p, occ), a
    prefix p of x and the transaction indices where p occurs (None: every
    transaction).  With a monotone backend x can only occur where p does,
    so the transactions outside occ are skipped.  Without ``parent`` every
    x is its own child of the empty prefix.  Counts do not depend on
    grouping.
    """
    if coded is None:
        candidates = list(candidates)
        coded = code_strings(backend, candidates)
    groups: dict = {}
    for x in candidates:
        _check_pattern(x)
        sig = coded[x][1]
        groups.setdefault(sig if sig is not None else ("raw", x), []).append(x)
    members = list(groups.values())
    lens = [coded[xs[0]][0] for xs in members]
    cache = T.cached(backend)

    counts = found = None
    if isinstance(backend, KTBackend) and members and len(cache.items):
        counts = _kt_support(backend, params, cache, list(groups), members, lens)
    if counts is not None:
        pairs = len(members) * len(cache.items)
    else:
        found, pairs = _count_by_parent(backend, _limits(params, cache), cache,
                                        [xs[0] for xs in members], lens, parent)
        counts = [len(ts) for ts in found]
    result = Support((x, int(n)) for xs, n in zip(members, counts) for x in xs)
    result.groups, result.pairs = len(members), pairs
    if found is not None:
        result.occurrences = {x: ts for xs, ts in zip(members, found) for x in xs}
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
    rows: dict        # context -> row; the extra last row is all zero
    max_count: int    # largest count total n = c0 + c1 of any row
    zeros: np.ndarray  # (rows + 1) x transactions
    ones: np.ndarray
    tails: list       # distinct tail contexts (coder context after y)
    tail_of: np.ndarray  # index into tails, per transaction


def _kt_counts(coded: _Coded):
    """The count tables of a KT-coded set, or None when they exceed
    ``_KT_TABLE_MAX`` elements."""
    if coded.kt is None:
        rows: dict = {}
        for state in coded.states:
            for ctx in state.counts:
                rows.setdefault(ctx, len(rows))
        if (len(rows) + 1) * len(coded.states) > _KT_TABLE_MAX:
            return None
        zeros = np.zeros((len(rows) + 1, len(coded.states)), dtype=np.intp)
        ones = np.zeros_like(zeros)
        tails: dict = {}
        tail_of = []
        for t, state in enumerate(coded.states):
            for ctx, (c0, c1) in state.counts.items():
                zeros[rows[ctx], t], ones[rows[ctx], t] = c0, c1
            tail_of.append(tails.setdefault(state.context, len(tails)))
        coded.kt = _KTCounts(rows, int((zeros + ones).max()), zeros, ones,
                             list(tails), np.array(tail_of))
    return coded.kt


def _kt_support(backend: KTBackend, params, coded: _Coded, sigs, members, lens):
    """Closed-form counts of signature groups; None when the count tables
    would be too large.

    The extra cost of x after y is a sum over contexts of the KT block cost
    of x's increments (d0, d1) on y's counts (c0, c1).  Increments of the
    bits after x's first ``order`` (the head) come from the signature;
    those of the head depend on y's tail context and come from a
    (tail, head) table.  Each signature is parsed once; groups are then
    evaluated in chunks whose dense groups x contexts x transactions
    arrays hold at most ``_BLOCK_ELEMENTS`` entries (a single group may
    exceed it).
    """
    kt = _kt_counts(coded)
    if kt is None:
        return None
    lengths = np.asarray(coded.lengths)
    n_t = len(coded.states)
    max_x = max(len(xs[0]) for xs in members)
    top = kt.max_count + max_x
    A, B = kt_log_tables(1 << top.bit_length())
    # A group touches at most this many contexts.  Every table entry is
    # within an ulp of exact, so the closed form's rounding (per_group
    # entries) and the sequential coder's (max_x steps) are bounded in
    # units of the largest entry a pair can read.  A context a group does
    # not touch costs exactly 0: it repeats ``base``, the B - A - A terms
    # at y's own counts (an entry does not depend on the table's size).
    per_group = min(max_x, 2 ** (backend.order + 1) - 1)
    tol = REDECIDE_TOL + 16 * np.finfo(float).eps * B[top] * (per_group + max_x)

    # Columns are the contexts any group touches.  A group's body holds its
    # signature's counts in full-length contexts (shorter ones lie within
    # the head), as columns of ``body``: (group, column, zeros, ones).  A
    # head's increments after every tail are the columns (tail, column,
    # zeros, ones) of its ``head_inc`` entry.
    k = backend.order
    cols: dict = {}
    heads: dict = {}  # head -> index into head_inc
    head_inc = []
    body: tuple = ([], [], [], [])
    group_head, starts = [], [0]
    for g, (head, pairs) in enumerate(sigs):
        if head not in heads:
            heads[head] = len(head_inc)
            inc = [(t, cols.setdefault(ctx, len(cols)), *n)
                   for t, tail in enumerate(kt.tails)
                   for ctx, n in backend.extend(KTState(tail, {}), head)[0].counts.items()]
            head_inc.append(np.array(inc, dtype=np.intp).reshape(-1, 4).T)
        group_head.append(heads[head])
        for ctx, (c0, c1) in pairs:
            if len(ctx) == k:
                body[0].append(g)
                body[1].append(cols.setdefault(ctx, len(cols)))
                body[2].append(c0)
                body[3].append(c1)
        starts.append(len(body[0]))
    body = np.array(body, dtype=np.intp)
    group_head = np.array(group_head)
    rows = np.array([kt.rows.get(ctx, len(kt.rows)) for ctx in cols])
    c0, c1 = kt.zeros[rows], kt.ones[rows]
    base = B[c0 + c1] - A[c0] - A[c1]

    len_x = np.asarray(lens)
    counts = np.zeros(len(members), dtype=np.intp)
    step = max(1, _BLOCK_ELEMENTS // (len(cols) * n_t))
    for lo in range(0, len(sigs), step):
        hi = min(lo + step, len(sigs))
        d = np.zeros((2, hi - lo, len(cols)), dtype=np.intp)
        part = body[:, starts[lo]:starts[hi]]
        d[:, part[0] - lo, part[1]] = part[2:]
        # The chunk's heads after every tail, gathered per (group, transaction).
        used, which = np.unique(group_head[lo:hi], return_inverse=True)
        h = np.zeros((2, len(kt.tails), len(used), len(cols)), dtype=np.intp)
        for j, i in enumerate(used):
            tail, col, zeros, ones = head_inc[i]
            h[0, tail, j, col], h[1, tail, j, col] = zeros, ones
        # (bit, group, column, transaction): head plus body increments
        inc = h[:, kt.tail_of[:, None], which[None, :]].transpose(0, 2, 3, 1)
        inc += d[:, :, :, None]
        d0, d1 = inc
        cost = B[c0 + c1 + d0 + d1]
        cost -= A[c0 + d0]
        cost -= A[c1 + d1]
        cost -= base
        extra = cost.sum(axis=1)
        passes = len_x[lo:hi, None] <= params.entropy_bound(lengths)
        gap = extra - params.noise_bound(lengths)
        ok = passes & (gap <= 0)
        for g, t in zip(*np.nonzero(passes & (np.abs(gap) <= tol))):
            extra_seq = backend.extend_cost(coded.states[t], members[lo + g][0])
            ok[g, t] = _occurs_len(params, lens[lo + g], coded.lengths[t], extra_seq)
        counts[lo:hi] = ok.sum(axis=1)
    return counts
