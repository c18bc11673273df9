"""Brute-force ground truth for the frequent pattern set.

Enumerates every bit string up to a length cap and computes its support,
with no pruning.  Only meant for desk-scale verification of the level-wise
miner's search.  Each string is coded once from the initial coder state,
which gives its code length and its signature.  Supports come from the
same ``occurrence.support`` kernel the miner uses; that kernel is checked
against the sequential ``occurrence.frequency`` in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

from . import bits as bitutil
from .occurrence import OccurrenceParams, TransactionSet, code_strings, support

# Strings of one length class counted per support call; bounds memory.
_CHUNK = 2048
# Budget cap: the oracle codes all 2**(max_len + 1) - 2 strings.
MAX_LEN = 20


class IncompleteEnumerationError(Exception):
    """max_len provably does not cover the point where all patterns die out."""


@dataclass(frozen=True)
class OracleConfig:
    max_len: int = 12
    must_cover_termination: bool = False

    def __post_init__(self):
        if not 1 <= self.max_len <= MAX_LEN:
            raise ValueError(f"max_len must be in 1..{MAX_LEN}")


def enumerate_frequent(backend, params: OccurrenceParams, T: TransactionSet,
                       epsilon: int, config: OracleConfig) -> dict:
    """All patterns of length 1..max_len with support >= epsilon, by exhaustion.

    Returns {pattern: count}.  With must_cover_termination the enumeration
    must reach a length class whose cheapest member already fails entropy
    reduction against every transaction (so no longer pattern can occur
    anywhere); otherwise the possibly-incomplete set is refused.  The
    minimum code length per length class is found by exhaustive scan.
    """
    if len(T) < 1:
        raise ValueError("transaction set must be non-empty")
    occur_bound = params.entropy_bound(T.max_code_len(backend))

    result = {}
    termination_covered = False
    for length in range(1, config.max_len + 1):
        min_code_len = math.inf
        strings = bitutil.all_of_length(length)
        while chunk := list(islice(strings, _CHUNK)):
            coded = code_strings(backend, chunk)
            min_code_len = min(min_code_len, *(n for n, _ in coded.values()))
            # a string above the bound occurs in no transaction; support 0
            kept = [x for x in chunk if coded[x][0] <= occur_bound]
            counts = support(backend, params, T, kept, coded)
            result.update((x, counts[x]) for x in kept if counts[x] >= epsilon)
        if min_code_len > occur_bound:
            termination_covered = True
            break

    if config.must_cover_termination and not termination_covered:
        raise IncompleteEnumerationError(
            f"no length <= {config.max_len} has min code length above the "
            f"entropy-reduction bound {occur_bound:.3f}; enumeration may be "
            "incomplete")
    return result
