"""The batch module's class coder against the per-bit walk."""

import tracemalloc

import numpy as np

from bitmine import KTBackend
from bitmine import bits as bitutil
from bitmine.ktbatch import class_groups, class_lengths


def _check_groups(backend, strings, groups):
    # the groups are signature()'s partition, each numbered by and
    # represented by its first member, with that signature
    first: dict = {}  # signature -> its first string's index
    sigs = [backend.signature(x) for x in strings]
    for i, sig in enumerate(sigs):
        first.setdefault(sig, i)
    number = {sig: g for g, sig in enumerate(first)}
    assert groups.sigs == list(first)
    assert groups.first.tolist() == list(first.values())
    assert groups.reps == [strings[i] for i in first.values()]
    assert groups.group.tolist() == [number[sig] for sig in sigs]


def test_class_coder_equals_the_walk():
    # every string of 1-12 bits, each class coded from the one before
    for order in [0, 1, 2, 3, 4, 5, 6, 24]:
        backend = KTBackend(order)
        lengths = np.zeros(1)
        for width in range(1, 13):
            values = np.arange(1 << width)
            strings = list(bitutil.all_of_length(width))
            lengths = class_lengths(order, width, lengths, values)
            assert lengths.tolist() == [backend.code_len(x) for x in strings]
            _check_groups(backend, strings, class_groups(order, width, values))
            # the oracle groups the strings a chunk keeps: a sparse subset
            kept = np.flatnonzero(lengths <= np.median(lengths))
            _check_groups(backend, [strings[v] for v in kept.tolist()],
                          class_groups(order, width, kept))


def test_class_coder_memory_does_not_span_the_contexts():
    # order 24 has 2**25 context ids; the coder holds contexts as window
    # values, never as an axis, so a chunk of 2,048 16-bit strings (every
    # one its own signature group) stays within a bound a dense axis
    # would break
    prev = np.zeros(1)
    for width in range(1, 16):
        prev = class_lengths(24, width, prev, np.arange(1 << width))
    values = np.arange(20_000, 22_048)
    tracemalloc.start()
    try:
        lengths = class_lengths(24, 16, prev, values)
        groups = class_groups(24, 16, values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lengths[0] == KTBackend(24).code_len(format(20_000, "016b"))
    assert len(groups.sigs) == len(values)
    assert peak < 8 * 2 ** 20
