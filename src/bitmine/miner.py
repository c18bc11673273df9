"""Level-wise breadth-first mining of frequent abstract patterns.

Seeds with every frequent pattern of length 1..n, then repeatedly extends
the surviving patterns by exactly n bits, counts candidate occurrences in a
single pass over the transaction set, and prunes candidates below the
support threshold.  Infrequent patterns are never extended; with a monotone
backend this pruning is exact (extensions of non-occurring patterns cannot
occur), so the result equals the full frequent set.

Non-monotone backends (the external adapter) are only admitted in heuristic
mode, where the output is flagged approximate.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from . import bits as bitutil
from .occurrence import OccurrenceParams, TransactionSet, support

MODES = ("sound", "heuristic")


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
    threads: int = 1

    def __post_init__(self):
        if isinstance(self.epsilon, bool) or not isinstance(self.epsilon, (int, float)):
            raise ValueError("epsilon must be an int count or a float fraction")
        if isinstance(self.epsilon, int) and self.epsilon < 1:
            raise ValueError("absolute epsilon must be >= 1")
        if isinstance(self.epsilon, float) and not (0.0 < self.epsilon <= 1.0):
            raise ValueError("fractional epsilon must be in (0, 1]")
        if self.step_bits < 1:
            raise ValueError("step_bits must be >= 1")
        if self.max_level < 1:
            raise ValueError("max_level must be >= 1")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")

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


@dataclass
class MiningResult:
    patterns: list  # FrequentPattern, sorted by (level, pattern)
    truncated: bool = False
    approximate: bool = False
    levels: int = 0

    def as_dict(self) -> dict:
        return {p.pattern: p.count for p in self.patterns}

    def __iter__(self):
        return iter(self.patterns)

    def __len__(self):
        return len(self.patterns)


def _count_pass(backend, params, T, candidates, threads=1, code_len=None):
    """Exact support count for every candidate in one pass over T (see
    ``occurrence.support``)."""
    return support(backend, params, T, candidates, code_len, threads)


def _prefilter(backend, params, candidates, max_len_y, code_len):
    """Drop candidates that cannot satisfy entropy reduction in any
    transaction; output-preserving because support of a dropped candidate
    is necessarily zero."""
    bound = params.entropy_bound(max_len_y)
    return [x for x in candidates if code_len(x) <= bound]


def _memo(backend):
    """``backend.code_len`` memoized, for the candidates of one level."""
    lengths: dict = {}

    def code_len(x):
        length = lengths.get(x)
        if length is None:
            length = lengths[x] = backend.code_len(x)
        return length

    return code_len


def seed_level0(backend, params: OccurrenceParams, T: TransactionSet,
                config: MiningConfig):
    """All frequent patterns of length 1..step_bits, with exact counts."""
    if len(T) < 1:
        raise ValueError("transaction set must be non-empty")
    eps = config.resolve_epsilon(len(T))
    if eps > len(T):
        return []
    code_len = _memo(backend)
    candidates = []
    for length in range(max(1, params.min_pattern_len), config.step_bits + 1):
        candidates.extend(bitutil.all_of_length(length))
    candidates = _prefilter(backend, params, candidates, T.max_code_len(backend),
                            code_len)
    counts = _count_pass(backend, params, T, candidates, config.threads, code_len)
    return [FrequentPattern(x, c, code_len(x), 0)
            for x, c in sorted(counts.items()) if c >= eps]


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

    eps = config.resolve_epsilon(len(T))
    found = list(seed_level0(backend, params, T, config))
    frontier = found
    truncated = False
    level = 0
    max_len_y = T.max_code_len(backend)
    while frontier:
        if level >= config.max_level:
            truncated = True
            break
        level += 1
        candidates = generate(frontier, config.step_bits)
        code_len = _memo(backend)  # a level's candidates are all new strings
        candidates = _prefilter(backend, params, candidates, max_len_y, code_len)
        counts = _count_pass(backend, params, T, candidates, config.threads,
                             code_len)
        frontier = [FrequentPattern(x, c, code_len(x), level)
                    for x, c in sorted(counts.items()) if c >= eps]
        found.extend(frontier)

    found.sort(key=lambda p: (p.level, p.pattern))
    return MiningResult(found, truncated=truncated, approximate=approximate,
                        levels=level)
