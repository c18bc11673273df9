"""Level-wise breadth-first mining of frequent abstract patterns.

Seeds with every frequent pattern of length 1..n, then repeatedly extends
the surviving patterns by exactly n bits, counts candidate occurrences in a
single pass over the transaction set, and prunes candidates below the
support threshold.  A candidate is coded by extending its parent's coder
state by its n new bits, so the miner keeps one coder state per surviving
pattern, with the transactions it occurs in where the count reports them.
Infrequent patterns are never extended; with a monotone backend this
pruning is exact (extensions of non-occurring patterns cannot occur), so
the result equals the full frequent set.  For the same reason a child is
only counted on the transactions where its parent occurs.

Non-monotone backends (the external adapter) are only admitted in heuristic
mode, where the output is flagged approximate; a child is then counted on
every transaction and no occurrence lists are kept.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field

from . import bits as bitutil
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
    groups: int      # signature groups counted
    # (group, transaction) pairs whose extra cost was evaluated: all of them
    # under the KT closed form; for LZ only the (child, transaction) pairs
    # priced on the parent's occurrence list where L(x) passes entropy
    # reduction
    pairs: int
    frequent: int
    seconds: float   # wall time of the whole level


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


def _split(x, step_bits):
    """(parent, suffix) of a candidate: the suffix is its last ``step_bits``
    bits, or all of a seed-level candidate, whose parent is empty."""
    cut = max(0, len(x) - step_bits)
    return x[:cut], x[cut:]


def _run_level(backend, params, T, config, candidates, parents, level, start):
    """Code, prefilter and count one level's candidates.

    ``parents`` maps each pattern of the frontier to (its coder state, its
    L, its occurrence list or None); a candidate is coded from its parent's
    state by its last ``step_bits`` bits.  Returns the frequent patterns,
    the frontier for the next level (in the same form) and the level's
    ``LevelStats``.  Only the frequent patterns' states are built and
    kept, so memory follows the frontier, not the candidates.  A child of a
    monotone backend is counted only on its parent's occurrence list (None,
    from the KT closed form, stands for every transaction).
    """
    step = config.step_bits

    def from_parent(x):
        p, suffix = _split(x, step)
        state, length, _ = parents[p]
        return state, length, suffix

    coded = code_strings(backend, candidates, from_parent)
    kept = _prefilter(backend, params, candidates, T.max_code_len(backend),
                      lambda x: coded[x][0])
    parent = None
    if backend.monotone:
        def parent(x):
            p = _split(x, step)[0]
            return p, parents[p][2]
    counts = _count_pass(backend, params, T, kept, coded, parent)
    eps = config.resolve_epsilon(len(T))
    frequent = [FrequentPattern(x, c, coded[x][0], level)
                for x, c in sorted(counts.items()) if c >= eps]
    found = (counts.occurrences if backend.monotone else None) or {}
    frontier = {}
    for p in frequent:
        parent_pattern, suffix = _split(p.pattern, step)
        state = backend.extend(parents[parent_pattern][0], suffix)[0]
        frontier[p.pattern] = (state, p.code_len, found.get(p.pattern))
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
    """Run the full level-wise search and return all frequent patterns."""
    if config.mode == "sound" and not backend.monotone:
        raise ValueError(
            "sound mode requires a monotone backend; use mode='heuristic' "
            "with the external adapter")
    approximate = config.mode == "heuristic"
    if approximate:
        warnings.warn("heuristic mode: pruning is best-effort, result may be "
                      "incomplete", stacklevel=2)

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
            raise ValueError(
                f"level {level} would generate {size} candidates, over the "
                f"cap of {MAX_LEVEL_CANDIDATES}")
        start = time.perf_counter()
        candidates = generate(frequent, config.step_bits)
        frequent, frontier, level_stats = _run_level(
            backend, params, T, config, candidates, frontier, level, start)
        found.extend(frequent)
        stats.append(level_stats)

    found.sort(key=lambda p: (p.level, p.pattern))
    return MiningResult(found, truncated=truncated, approximate=approximate,
                        levels=level, stats=stats)
