"""Level-wise breadth-first mining of frequent abstract patterns.

Seeds with every frequent pattern of length 1..n, then repeatedly extends
the surviving patterns by exactly n bits, counts candidate occurrences in a
single pass over the transaction set, and prunes candidates below the
support threshold.  One level function (``_run_level``) serves every
backend, and no frontier keeps a coder state.  For a ``KTBackend`` the
frontier is count arrays (``ktbatch.Frontier``): one ``ktbatch.code_level``
call codes a whole level's children in numpy, each continuing its
parent's L(p) and count row, so L(x) is bit-identical to coding x from
scratch; the kept children's rows give their signature groups, and the
frequent ones are the next frontier.  Every other backend prices its
candidates from scratch with ``code_strings``: LZ all of a level's at
once, in numpy, with integer costs, and the external adapter by one
compressor run each (extending a parent's state would run it on all of
the child's bits anyway).  Either way the prefilter is one test on the
level's array of lengths.  The frontier lists its patterns and, where
the count reports them, the transactions each occurs in; ``support``
gets each candidate's parent by index into them.
Infrequent patterns are never extended; with a monotone backend this
pruning is exact (extensions of non-occurring patterns cannot occur), so
the result equals the full frequent set, in either mode.  For the same
reason ``support`` counts a child only on the transactions where its
parent occurs.

Non-monotone backends (the external adapter) are only admitted in heuristic
mode, where the output is flagged approximate: ``support`` then counts a
child on every transaction, but the child of an infrequent parent is never
generated.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import bits as bitutil
from . import ktbatch
from .codelength import KTBackend
from .occurrence import OccurrenceParams, TransactionSet, code_strings, support

MODES = ("sound", "heuristic")
# Budget caps.  Every frontier pattern has 2**step_bits children, and the
# seed level enumerates all 2**(step_bits + 1) - 2 strings up to step_bits.
MAX_STEP_BITS = 16
# Largest level ``generate`` is asked for: frontier x 2**step_bits
# candidates.  The seed level (at most 131,070 strings) is not generated.
MAX_LEVEL_CANDIDATES = 1 << 18


@dataclass(frozen=True)
class MiningConfig:
    """Support threshold and search-shape knobs.

    ``epsilon`` is an absolute count when int (>= 1) or a fraction of |T| in
    (0, 1] when float; fractions resolve by ceiling.
    """
    epsilon: object = 2
    step_bits: int = 4
    max_level: int = 64
    mode: str = "sound"

    def __post_init__(self):
        if isinstance(self.epsilon, bool) or not isinstance(self.epsilon, (int, float)):
            raise ValueError("epsilon must be an int count or a float fraction")
        if isinstance(self.epsilon, int) and self.epsilon < 1:
            raise ValueError("absolute epsilon must be >= 1")
        if isinstance(self.epsilon, float) and not (0.0 < self.epsilon <= 1.0):
            raise ValueError("fractional epsilon must be in (0, 1]")
        if not 1 <= self.step_bits <= MAX_STEP_BITS:
            raise ValueError(f"step_bits must be in 1..{MAX_STEP_BITS}")
        if self.max_level < 1:
            raise ValueError("max_level must be >= 1")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")

    def resolve_epsilon(self, n_transactions: int) -> int:
        if isinstance(self.epsilon, int):
            return self.epsilon
        return max(1, math.ceil(self.epsilon * n_transactions))


@dataclass(frozen=True)
class FrequentPattern:
    pattern: str
    count: int
    code_len: float
    level: int


@dataclass(frozen=True)
class LevelStats:
    """What one level of the search did; level 0 is the seed level."""
    level: int
    candidates: int  # generated
    kept: int        # left after the entropy-reduction prefilter
    groups: int      # KT closed form: signature groups; else candidates
    # (group, transaction) pairs whose extra cost was evaluated: all of them
    # under the KT closed form (orders up to 8, see ``support``), and its
    # members' recounts; otherwise only those where L(x) passes entropy
    # reduction, on the parent's occurrence list for LZ and KT above order
    # 8, and on every transaction for the external adapter (not monotone)
    pairs: int
    frequent: int
    seconds: float   # wall time of the whole level


class LevelCapError(ValueError):
    """A level would generate more than ``MAX_LEVEL_CANDIDATES`` candidates.

    Carries what the search did before it stopped: ``stats``, the
    ``LevelStats`` of every level run, and the refused ``level``, its
    ``size`` (the candidates it would generate) and the ``cap``.
    """

    def __init__(self, level: int, size: int, cap: int, stats: list):
        super().__init__(f"level {level} would generate {size} candidates, "
                         f"over the cap of {cap}")
        self.level, self.size, self.cap, self.stats = level, size, cap, stats


@dataclass
class MiningResult:
    patterns: list  # FrequentPattern, sorted by (level, pattern)
    truncated: bool = False
    approximate: bool = False
    levels: int = 0
    stats: list = field(default_factory=list)  # LevelStats per level run

    def as_dict(self) -> dict:
        return {p.pattern: p.count for p in self.patterns}

    def __iter__(self):
        return iter(self.patterns)

    def __len__(self):
        return len(self.patterns)


def _count_pass(backend, params, T, candidates, coded, parents):
    """Exact support count for every candidate in one pass over T (see
    ``occurrence.support``)."""
    return support(backend, params, T, candidates, coded, parents)


def _prefilter(backend, params, candidates, max_len_y, lengths):
    """The indices of the candidates whose L(x) (``lengths``) can pass
    entropy reduction in some transaction; the rest have support 0."""
    return np.flatnonzero(lengths <= params.entropy_bound(max_len_y))


def _run_level(backend, params, T, config, candidates, frontier, level, start):
    """Code, prefilter and count one level's candidates.

    Each candidate is a pattern of ``frontier`` followed by ``step_bits``
    bits, pattern by pattern, as ``generate`` lists them; the seed
    candidates are the children of the empty pattern.  The frontier is
    (coder, patterns, their occurrence lists or None), ``coder`` the
    patterns' ``ktbatch.Frontier`` for a KT backend, else None; no coder
    state is built.  It goes to ``support`` with each kept candidate's
    parent index; ``support`` alone decides whether a list may prune (for
    the external adapter never, so its lists go unread).  Returns the
    frequent patterns, the next frontier and the level's ``LevelStats``.
    """
    coder, patterns, lists = frontier
    per_parent = len(candidates) // len(patterns)
    if coder is None:
        lengths = code_strings(backend, candidates)
    else:
        first = len(patterns[0])  # its children come first
        children = ktbatch.code_level(
            backend.order, coder, [x[first:] for x in candidates[:per_parent]])
        lengths = children.length
    kept_at = _prefilter(backend, params, candidates, T.max_code_len(backend),
                         lengths)
    kept = [candidates[i] for i in kept_at.tolist()]
    coded = lengths[kept_at]
    if coder is not None:
        if len(kept) < len(candidates):  # else narrowing only costs time
            children = ktbatch.narrow(children, kept_at)
        coded = ktbatch.groups(children)
    # ``generate`` lists each parent's children together, in frontier order
    counts = _count_pass(backend, params, T, kept, coded,
                         (patterns, lists, kept_at // per_parent))
    eps = config.resolve_epsilon(len(T))
    n = np.fromiter(counts.values(), np.intp, len(counts))  # in kept order
    chosen = sorted(np.flatnonzero(n >= eps).tolist(), key=kept.__getitem__)
    frequent = [FrequentPattern(kept[i], c, length, level) for i, c, length
                in zip(chosen, n[chosen].tolist(),
                       lengths[kept_at[chosen]].tolist())]
    if coder is not None:
        coder = ktbatch.narrow(children, np.array(chosen, dtype=np.intp))
    found = counts.occurrences or [None] * len(kept)
    frontier = (coder, [p.pattern for p in frequent], [found[i] for i in chosen])
    stats = LevelStats(level, len(candidates), len(kept), counts.groups,
                       counts.pairs, len(frequent), time.perf_counter() - start)
    return frequent, frontier, stats


def _seed(backend, params, T, config):
    """``seed_level0`` plus the seed frontier and the level's stats."""
    start = time.perf_counter()
    if len(T) < 1:
        raise ValueError("transaction set must be non-empty")
    if config.resolve_epsilon(len(T)) > len(T):
        return [], None, None
    candidates = []
    for length in range(1, config.step_bits + 1):
        candidates.extend(bitutil.all_of_length(length))
    root = (ktbatch.root() if isinstance(backend, KTBackend) else None,
            [""], [None])
    return _run_level(backend, params, T, config, candidates, root, 0, start)


def seed_level0(backend, params: OccurrenceParams, T: TransactionSet,
                config: MiningConfig):
    """All frequent patterns of length 1..step_bits, with exact counts."""
    return _seed(backend, params, T, config)[0]


def generate(prev_patterns, step_bits: int):
    """Every exact step_bits-bit extension of the previous level's patterns.

    Distinct parents yield distinct children (the parent is the unique
    length-(|child| - n) prefix), so no deduplication is needed.
    """
    suffixes = list(bitutil.all_of_length(step_bits))
    return [p.pattern + s for p in prev_patterns for s in suffixes]


def mine(backend, params: OccurrenceParams, T: TransactionSet,
         config: MiningConfig) -> MiningResult:
    """Run the full level-wise search and return all frequent patterns,
    sorted by (level, pattern).

    The result is flagged approximate, with a warning, exactly when the
    backend is not monotone; sound mode refuses such a backend.  A level
    over ``MAX_LEVEL_CANDIDATES`` raises ``LevelCapError``, which carries
    the stats of the levels already run.
    """
    if config.mode == "sound" and not backend.monotone:
        raise ValueError(
            "sound mode requires a monotone backend; use mode='heuristic' "
            "with the external adapter")
    approximate = not backend.monotone
    if approximate:
        warnings.warn("non-monotone backend: pruning is best-effort, "
                      "result may be incomplete", stacklevel=2)

    frequent, frontier, seed_stats = _seed(backend, params, T, config)
    found = list(frequent)
    stats = [seed_stats] if seed_stats else []
    truncated = False
    level = 0
    while frequent:
        if level >= config.max_level:
            truncated = True
            break
        level += 1
        size = len(frequent) << config.step_bits
        if size > MAX_LEVEL_CANDIDATES:
            raise LevelCapError(level, size, MAX_LEVEL_CANDIDATES, stats)
        start = time.perf_counter()
        candidates = generate(frequent, config.step_bits)
        frequent, frontier, level_stats = _run_level(
            backend, params, T, config, candidates, frontier, level, start)
        found.extend(frequent)
        stats.append(level_stats)

    return MiningResult(found, truncated=truncated, approximate=approximate,
                        levels=level, stats=stats)
