"""Level-wise breadth-first mining of frequent abstract patterns.

Seeds with every frequent pattern of length 1..n, then repeatedly extends
the surviving patterns by exactly n bits, counts candidate occurrences in a
single pass over the transaction set, and prunes candidates below the
support threshold.  A candidate is coded from its parent, continuing the
parent's L(p), so L(x) is bit-identical to coding x from scratch.  For a
``KTBackend`` the frontier is count arrays (``ktbatch.Frontier``): one
``ktbatch.code_level`` call codes a whole level in numpy, and the kept
children's count rows give their signature groups and, for the frequent
ones, the next frontier.  Every other backend prices each candidate with
``extend_cost`` from its parent's coder state, by the n new bits, and
keeps one coder state per frequent pattern only.  The frontier keeps
the transactions each pattern occurs in where the count reports them.
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
    groups: int      # groups counted: KT signature groups, else candidates
    # (group, transaction) pairs whose extra cost was evaluated: all of them
    # under the KT closed form; for LZ only the (child, transaction) pairs
    # priced on the parent's occurrence list where L(x) passes entropy
    # reduction
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


def _count_pass(backend, params, T, candidates, coded, parent):
    """Exact support count for every candidate in one pass over T (see
    ``occurrence.support``)."""
    return support(backend, params, T, candidates, coded, parent)


def _prefilter(backend, params, candidates, max_len_y, code_len):
    """Drop candidates that cannot satisfy entropy reduction in any
    transaction; output-preserving because support of a dropped candidate
    is necessarily zero."""
    bound = params.entropy_bound(max_len_y)
    return [x for x in candidates if code_len(x) <= bound]


def _run_level(backend, params, T, config, candidates, parents, level, start):
    """Code, prefilter and count one level's candidates.

    Each candidate is a pattern of the frontier ``parents`` followed by
    ``step_bits`` bits, pattern by pattern, as ``generate`` lists them; the
    seed candidates are the children of the empty pattern.  Returns the
    frequent patterns, the frontier for the next level (in the same form)
    and the level's ``LevelStats``.  Each candidate's parent and its
    occurrence list (None, from the KT closed form, stands for every
    transaction) go to ``support``, which alone decides whether the list
    may prune.  For the external adapter it never may, so that backend's
    frontier keeps exact occurrence lists that nothing reads.
    """
    code = _kt_level if isinstance(backend, KTBackend) else _state_level
    return code(backend, params, T, config, candidates, parents, level, start)


def _kt_level(backend, params, T, config, candidates, parents, level, start):
    """``_run_level`` for a KT backend, whose frontier is (its
    ``ktbatch.Frontier``, {pattern: its occurrence list or None}, in
    frontier order).  One ``ktbatch.code_level`` call codes the whole level
    from the parents' counts, and the kept children's count rows give both
    their signature groups and the next frontier, so no coder state is
    built."""
    frontier, occurs_in = parents
    first = len(next(iter(occurs_in)))  # its children come first
    coded = ktbatch.code_level(
        backend.order, frontier,
        [x[first:] for x in candidates[:len(candidates) // len(occurs_in)]])
    code_len = dict(zip(candidates, coded.length.tolist())).__getitem__
    max_len_y = T.max_code_len(backend)
    kept = _prefilter(backend, params, candidates, max_len_y, code_len)
    # the prefilter's own test, on the array of lengths
    kept_at = np.flatnonzero(coded.length <= params.entropy_bound(max_len_y))
    children = ktbatch.children(coded, kept_at)

    def parent(x):
        p = x[:-config.step_bits]
        return p, occurs_in[p]

    counts = _count_pass(backend, params, T, kept, ktbatch.groups(children),
                         parent)
    eps = config.resolve_epsilon(len(T))
    n = np.fromiter(map(counts.__getitem__, kept), np.intp, len(kept))
    chosen = sorted(np.flatnonzero(n >= eps).tolist(), key=kept.__getitem__)
    frequent = [FrequentPattern(kept[i], c, length, level) for i, c, length
                in zip(chosen, n[chosen].tolist(),
                       children.length[chosen].tolist())]
    found = counts.occurrences or {}
    frontier = (ktbatch.narrow(children, np.array(chosen, dtype=np.intp)),
                {p.pattern: found.get(p.pattern) for p in frequent})
    stats = LevelStats(level, len(candidates), len(kept), counts.groups,
                       counts.pairs, len(frequent), time.perf_counter() - start)
    return frequent, frontier, stats


def _state_level(backend, params, T, config, candidates, parents, level,
                 start):
    """``_run_level`` for every other backend, whose frontier maps each
    pattern to (its coder state, its L, its occurrence list or None).  A
    candidate is priced with ``extend_cost`` from its parent's state by its
    last ``step_bits`` bits (a seed candidate, at most ``step_bits`` long,
    gets the empty parent and all of its bits), so no candidate's state is
    built.  Only the frequent patterns' states are built, by one ``extend``
    each, and kept, so memory follows the frontier, not the candidates.
    """
    cut = -config.step_bits

    def from_parent(x):
        state, length, _ = parents[x[:cut]]
        return state, length, x[cut:]

    def parent(x):
        return x[:cut], parents[x[:cut]][2]

    coded = code_strings(backend, candidates, from_parent)
    kept = _prefilter(backend, params, candidates, T.max_code_len(backend),
                      coded.__getitem__)
    counts = _count_pass(backend, params, T, kept, coded, parent)
    eps = config.resolve_epsilon(len(T))
    frequent = [FrequentPattern(x, c, coded[x], level)
                for x, c in sorted(counts.items()) if c >= eps]
    found = counts.occurrences or {}
    frontier = {}
    for p in frequent:
        x = p.pattern
        state = backend.extend(parents[x[:cut]][0], x[cut:])[0]
        frontier[x] = (state, p.code_len, found.get(x))
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
    if isinstance(backend, KTBackend):
        root = (ktbatch.root(), {"": None})
    else:
        root = {"": (backend.initial_state(), 0.0, None)}
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
