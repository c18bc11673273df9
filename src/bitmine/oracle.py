"""Brute-force ground truth for the frequent pattern set.

Enumerates every bit string up to a length cap and computes its support,
with no pruning.  Only meant for desk-scale verification of the level-wise
miner's search.  Each string's code length is taken once, as from the
initial coder state.  A ``KTBackend``'s length classes are coded in numpy
by the batch module, each length from the previous class's
(``ktbatch.class_lengths``, ``==`` ``code_len``), and a chunk's strings
are grouped by signature (``ktbatch.class_groups``), so one string per
group is counted and only frequent strings are formatted.  Every other
backend prices each string with ``occurrence.code_strings``
(``extend_cost``, no coder state) and counts it on its own.  The result
keeps the L(x) it coded (``Frequent.code_len``) for ``oracle --out``.
Supports come from the same ``occurrence.support`` kernel the miner uses;
that kernel is checked against the sequential ``occurrence.frequency`` in
the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from . import bits as bitutil
from .codelength import KTBackend
from .ktbatch import class_groups, class_lengths
from .occurrence import OccurrenceParams, TransactionSet, code_strings, support

# Strings of one length class counted per support call; bounds memory.
_CHUNK = 2048
# Budget cap: the oracle codes all 2**(max_len + 1) - 2 strings, and a
# KT run holds two classes of lengths (12 MB at 20 bits).
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


class Frequent(dict):
    """{pattern: count}, with ``code_len``: {pattern: L(pattern)} as the
    oracle coded it, ``==`` ``backend.code_len(pattern)``."""
    code_len = None


def enumerate_frequent(backend, params: OccurrenceParams, T: TransactionSet,
                       epsilon: int, config: OracleConfig) -> Frequent:
    """All patterns of length 1..max_len with support >= epsilon, by exhaustion.

    Returns {pattern: count}, with each L(pattern) (``Frequent``).  With
    must_cover_termination the enumeration must reach a length class whose
    cheapest member already fails entropy reduction against every
    transaction (so no longer pattern can occur anywhere); otherwise the
    possibly-incomplete set is refused.  The minimum code length per
    length class is found by exhaustive scan.
    """
    if len(T) < 1:
        raise ValueError("transaction set must be non-empty")
    occur_bound = params.entropy_bound(T.max_code_len(backend))
    classes = _kt_classes if isinstance(backend, KTBackend) else _classes

    result = Frequent()
    result.code_len = {}
    termination_covered = False
    for min_code_len, frequent in classes(backend, params, T, epsilon,
                                          occur_bound, config.max_len):
        for x, count, length in frequent:
            result[x], result.code_len[x] = count, length
        if min_code_len > occur_bound:
            termination_covered = True
            break

    if config.must_cover_termination and not termination_covered:
        raise IncompleteEnumerationError(
            f"no length <= {config.max_len} has min code length above the "
            f"entropy-reduction bound {occur_bound:.3f}; enumeration may be "
            "incomplete")
    return result


def _classes(backend, params, T, epsilon, bound, max_len):
    """Per length class: its minimum code length and its frequent
    (x, count, L(x)), each string priced by ``code_strings``."""
    for length in range(1, max_len + 1):
        min_code_len, frequent = math.inf, []
        strings = bitutil.all_of_length(length)
        while chunk := list(islice(strings, _CHUNK)):
            coded = code_strings(backend, chunk)
            min_code_len = min(min_code_len, *coded.values())
            # a string above the bound occurs in no transaction; support 0
            kept = [x for x in chunk if coded[x] <= bound]
            counts = support(backend, params, T, kept, coded)
            frequent += [(x, counts[x], coded[x]) for x in kept
                         if counts[x] >= epsilon]
        yield min_code_len, frequent


def _kt_classes(backend: KTBackend, params, T, epsilon, bound, max_len):
    """``_classes`` for a KT backend, with no string per enumerated
    pattern: each class's lengths come from the previous class's, and
    ``support`` counts one string per signature group of a chunk's kept
    strings, its first member, whose L(x) it would read for the whole
    group.  Only frequent strings are formatted."""
    order = backend.order
    lengths = np.zeros(1)  # class 0, the empty string
    for width in range(1, max_len + 1):
        prev, lengths = lengths, np.empty(1 << width)
        fmt, frequent = f"0{width}b", []
        for lo in range(0, len(lengths), _CHUNK):
            hi = min(lo + _CHUNK, len(lengths))
            values = np.arange(lo, hi)
            lengths[lo:hi] = class_lengths(order, width, prev, values)
            kept = values[lengths[lo:hi] <= bound]  # the rest occur nowhere
            if not len(kept):
                continue
            groups = class_groups(order, width, kept, lengths[kept])
            reps = [format(v, fmt) for v in kept[groups.first].tolist()]
            # one candidate per group: its first member
            own = np.arange(len(reps))
            counts = support(backend, params, T, reps,
                             groups._replace(group=own, first=own))
            n = counts.per_group[groups.group]
            hit = n >= epsilon
            frequent += zip([format(v, fmt) for v in kept[hit].tolist()],
                            n[hit].tolist(), lengths[kept[hit]].tolist())
        yield lengths.min(), frequent
