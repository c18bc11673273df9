"""Brute-force ground truth for the frequent pattern set.

Enumerates every bit string up to a length cap and computes its support,
with no pruning.  Only meant for desk-scale verification of the level-wise
miner's search.  Each string's code length is taken once, as from the
initial coder state.  A ``KTBackend``'s length classes are coded in numpy
by the batch module, each length from the previous class's
(``ktbatch.class_lengths``, ``==`` ``code_len``).  Its signature groups
carry over from class to class too: a string's signature is its prefix's
plus one window, so a class's groups follow from the previous class's
(``ktbatch.class_groups`` merges the combinations of equal signature),
each string keeps only its group's number, and each signature is counted
once per class, by its first kept member, and only the members rounding
may set apart are counted on their own.  Only frequent strings and those
are formatted.  Every other backend prices each string with
``occurrence.code_strings`` (``code_len``, no coder state; LZ a chunk
of strings at once, in numpy) and counts it on its own.  The result keeps
the L(x) it coded (``Frequent.code_len``) for ``oracle --out``, and what
each class did (``Frequent.stats``).
Supports come from the same ``occurrence.support`` kernel the miner uses;
that kernel is checked against the sequential ``occurrence.frequency`` in
the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import islice

import numpy as np

from . import bits as bitutil
from .codelength import KTBackend
from .ktbatch import class_bodies, class_groups, class_lengths
from .occurrence import (REDECIDE_TOL, OccurrenceParams, TransactionSet,
                         _bounds, code_strings, support)

# Strings of one length class coded (and grouped) at a time, and groups
# counted per support call; bounds memory.
_CHUNK = 2048
# Budget cap: the oracle codes all 2**(max_len + 1) - 2 strings, and a
# KT run holds two classes of lengths (12 MB at 20 bits).
MAX_LEN = 20


class IncompleteEnumerationError(Exception):
    """max_len provably does not cover the point where all patterns die out.

    Carries ``stats``, the ``ClassStats`` of every length class enumerated.
    """

    def __init__(self, message: str, stats: list):
        super().__init__(message)
        self.stats = stats


@dataclass(frozen=True)
class OracleConfig:
    max_len: int = 12
    must_cover_termination: bool = False

    def __post_init__(self):
        if not 1 <= self.max_len <= MAX_LEN:
            raise ValueError(f"max_len must be in 1..{MAX_LEN}")


@dataclass(frozen=True)
class ClassStats:
    """What the oracle did for one length class."""
    width: int           # the length of the class's strings
    strings: int         # strings coded: 2 ** width
    kept: int            # strings within the entropy-reduction bound
    groups: int          # groups counted: KT signature groups, else kept
    pairs: int           # (group, transaction) pairs evaluated by ``support``
    min_code_len: float  # the least L(x) of the class
    # min_code_len is above the bound, so no longer string occurs anywhere
    termination_covered: bool


class Frequent(dict):
    """{pattern: count}, with ``code_len``: {pattern: L(pattern)} as the
    oracle coded it, ``==`` ``backend.code_len(pattern)``, and ``stats``:
    one ``ClassStats`` per length class enumerated."""
    code_len = None
    stats = None


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
    result.code_len, result.stats = {}, []
    for stats, frequent in classes(backend, params, T, epsilon, occur_bound,
                                   config.max_len):
        for x, count, length in frequent:
            result[x], result.code_len[x] = count, length
        result.stats.append(stats)
        if stats.termination_covered:
            break

    covered = result.stats[-1].termination_covered
    if config.must_cover_termination and not covered:
        raise IncompleteEnumerationError(
            f"no length <= {config.max_len} has min code length above the "
            f"entropy-reduction bound {occur_bound:.3f}; enumeration may be "
            "incomplete", result.stats)
    return result


def _class_stats(width, kept, groups, pairs, min_code_len, bound):
    return ClassStats(width, 1 << width, int(kept), groups, pairs,
                      float(min_code_len), bool(min_code_len > bound))


def _classes(backend, params, T, epsilon, bound, max_len):
    """Per length class: its ``ClassStats`` and its frequent
    (x, count, L(x)), each string priced by ``code_strings``."""
    for length in range(1, max_len + 1):
        min_code_len, frequent = math.inf, []
        n_kept = groups = pairs = 0
        strings = bitutil.all_of_length(length)
        while chunk := list(islice(strings, _CHUNK)):
            coded = code_strings(backend, chunk)
            min_code_len = min(min_code_len, *coded.values())
            # a string above the bound occurs in no transaction; support 0
            kept = [x for x in chunk if coded[x] <= bound]
            counts = support(backend, params, T, kept, coded)
            frequent += [(x, counts[x], coded[x]) for x in kept
                         if counts[x] >= epsilon]
            n_kept, groups = n_kept + len(kept), groups + counts.groups
            pairs += counts.pairs
        yield _class_stats(length, n_kept, groups, pairs, min_code_len,
                           bound), frequent


def _kt_groups(order: int, bound: float, max_len: int):
    """Per length class 1..max_len: its lengths, per string its group's
    number, and per group its first member, ascending.  Only the strings
    within ``bound`` (kept) are grouped; the others' numbers mean nothing.

    A string's signature is its prefix's plus one window: its prefix's
    last ``order`` bits, which the prefix's group fixes (the end of the
    path its windows trace from its head), and its last bit.  So a class's
    kept strings fall into (prefix group, last bit) combinations of one
    signature each (``_combinations``), and ``class_groups`` merges the
    combinations of equal signature by their first members (``_merge``).
    """
    lengths = np.zeros(1)  # class 0: the empty string, its own group
    group, n_groups = np.zeros(1, dtype=np.uint8), 1
    for width in range(1, max_len + 1):
        lengths, group, lead = _combinations(order, width, bound, lengths,
                                             group, n_groups)
        group, first = _merge(order, width, group, lead)
        n_groups = len(first)
        yield lengths, group, first


def _combinations(order, width, bound, prev, parent, n_groups):
    """The lengths of class ``width``, per kept string its (prefix group,
    last bit) combination, and which kept strings come first in theirs,
    from the previous class's lengths ``prev`` and group numbers
    ``parent``, ``_CHUNK`` strings at a time.  A string's children cost at
    least what it does, so the prefix of a kept string is kept.  Each
    string keeps its number in the smallest unsigned type that holds it."""
    lengths = np.empty(1 << width)
    group = np.zeros(1 << width, dtype=np.min_scalar_type(2 * n_groups))
    lead = np.zeros(1 << width, dtype=bool)
    seen = np.zeros(2 * n_groups, dtype=bool)
    for lo in range(0, 1 << width, _CHUNK):
        values = np.arange(lo, min(lo + _CHUNK, 1 << width))
        lengths[lo:lo + _CHUNK] = class_lengths(order, width, prev, values)
        kept = values[lengths[lo:lo + _CHUNK] <= bound]
        combo = 2 * parent[kept >> 1].astype(np.intp) + (kept & 1)
        group[kept] = combo
        combo, at = np.unique(combo, return_index=True)
        lead[kept[at[~seen[combo]]]] = True
        seen[combo] = True
    return lengths, group, lead


def _merge(order, width, group, lead):
    """Per string its group's number, and per group its first member, from
    the combinations ``group`` and the mask ``lead`` of their first
    members."""
    firsts = np.flatnonzero(lead).astype(np.int32)
    merged, first = class_groups(order, width, firsts, _CHUNK)
    combos = group[firsts]
    number = np.zeros(int(combos.max(initial=0)) + 1, dtype=group.dtype)
    number[combos] = merged
    return number[group], firsts[first]


def _kt_classes(backend: KTBackend, params, T, epsilon, bound, max_len):
    """``_classes`` for a KT backend, with no string per enumerated
    pattern: each class's lengths and signature groups come from the
    previous class's (``_kt_groups``), and ``_kt_count`` counts them."""
    entropy = np.sort(_bounds(params, T.cached(backend))[0])
    # map, not a loop: no loop variable holds one class's arrays while the
    # next class is built (3.6 MB of max RSS at order 5, 18 bits)
    count = partial(_kt_count, backend, params, T, epsilon, bound, entropy)
    return map(count, _kt_groups(backend.order, bound, max_len))


def _kt_count(backend, params, T, epsilon, bound, entropy, classed):
    """A class's ``ClassStats`` and frequent (x, count, L(x)), from its
    lengths, group numbers and groups' first members.  ``support`` counts
    each group by its first kept member, ``_CHUNK`` groups per call.  The
    other members take that count, but those of a group whose first
    ``Support.near`` flags, or lies within rounding of an entropy bound
    (``entropy``, ascending), are counted on their own."""
    lengths, group, first = classed
    width = len(lengths).bit_length() - 1
    fmt = f"0{width}b"
    counts, near = np.zeros(len(first), np.intp), np.zeros(len(first), bool)
    pairs = 0
    for lo in range(0, len(first), _CHUNK):
        reps = first[lo:lo + _CHUNK]
        got = support(backend, params, T,
                      [format(v, fmt) for v in reps.tolist()],
                      class_bodies(backend.order, width, reps, lengths[reps]))
        counts[lo:lo + _CHUNK] = list(got.values())
        near[lo:lo + _CHUNK], pairs = got.near, pairs + got.pairs
    kept = lengths <= bound
    # a member's L(x) differs from its first member's by rounding, within
    # ``margin``: only with a bound that near can the two lie across it
    margin = REDECIDE_TOL + 2 * width * 2.0 ** -52 * bound
    near |= (np.searchsorted(entropy + margin, lengths[first])
             != np.searchsorted(entropy - margin, lengths[first]))
    again = np.zeros(0, dtype=np.intp)  # the members counted on their own
    if near.any():
        again = np.flatnonzero(kept & near[group])
        again = again[first[group[again]] != again]
    recount = np.zeros(len(again), dtype=np.intp)
    for lo in range(0, len(again), _CHUNK):
        got = support(backend, params, T, [
            format(v, fmt) for v in again[lo:lo + _CHUNK].tolist()])
        recount[lo:lo + _CHUNK], pairs = list(got.values()), pairs + got.pairs
    frequent = []
    if len(again) or (counts >= epsilon).any():
        hit = kept & (counts >= epsilon)[group]
        hit[again] = recount >= epsilon
        hit = np.flatnonzero(hit)
        count, on = counts[group[hit]], recount >= epsilon
        count[np.searchsorted(hit, again[on])] = recount[on]
        frequent = list(zip([format(v, fmt) for v in hit.tolist()],
                            count.tolist(), lengths[hit].tolist()))
    return _class_stats(width, np.count_nonzero(kept), len(first), pairs,
                        lengths.min(), bound), frequent
