"""The batch module's class coder and level coder against the per-bit walk."""

import tracemalloc
from random import Random

import numpy as np

from bitmine import KTBackend
from bitmine import bits as bitutil
from bitmine.ktbatch import (class_bodies, class_groups, class_lengths,
                             code_level, groups, narrow, root)

ORDERS = [0, 1, 2, 3, 4, 5, 6, 9, 24]


def _signature(groups, g):
    # signature()'s key, rebuilt from group g's array form: each head
    # position's context (shorter than the order) once, with its bit, and
    # the body's full-length contexts
    reps = groups.reps
    head = reps.names[reps.head[g]]
    counts = {head[:t]: (int(b == "0"), int(b == "1")) for t, b in enumerate(head)}
    _, ctx, zeros, ones = reps.rows[:, reps.rows[0] == g].tolist()
    counts.update((reps.names[c], (z, o)) for c, z, o in zip(ctx, zeros, ones))
    return head, tuple(sorted(counts.items()))


def _check_groups(backend, strings, lengths, groups):
    # the groups are signature()'s partition, each numbered by and
    # represented by its first member, with that signature and length
    first: dict = {}  # signature -> its first string's index
    sigs = [backend.signature(x) for x in strings]
    for i, sig in enumerate(sigs):
        first.setdefault(sig, i)
    number = {sig: g for g, sig in enumerate(first)}
    assert groups.first.tolist() == list(first.values())
    assert groups.group.tolist() == [number[sig] for sig in sigs]
    assert [_signature(groups, g) for g in range(len(first))] == list(first)
    assert groups.reps.length.tolist() == [lengths[i] for i in first.values()]
    assert all(len(groups.reps.names[c]) == backend.order
               for c in groups.reps.rows[1].tolist())


def _class_groups(order, width, values, lengths, chunk):
    # class_groups' partition of ``values``, with each group's body from
    # its first member; ``lengths`` are the whole class's
    group, first = class_groups(order, width, values, chunk)
    reps = values[first]
    bodies = class_bodies(order, width, reps, lengths[reps])
    return bodies._replace(group=group, first=first)


def test_class_coder_equals_the_walk():
    # every string of 1-12 bits, each class coded from the one before; the
    # partition is built a range of whole heads at a time, of about 3 or
    # 2,048 values
    for order in [0, 1, 2, 3, 4, 5, 6, 24]:
        backend = KTBackend(order)
        lengths = np.zeros(1)
        for width in range(1, 13):
            values = np.arange(1 << width)
            strings = list(bitutil.all_of_length(width))
            lengths = class_lengths(order, width, lengths, values)
            assert lengths.tolist() == [backend.code_len(x) for x in strings]
            # a sparse subset, as the oracle passes one string per
            # combination
            kept = np.flatnonzero(lengths <= np.median(lengths))
            for part in (values, kept):
                grouped = _class_groups(order, width, part, lengths, 2048)
                _check_groups(backend, [strings[v] for v in part.tolist()],
                              lengths[part].tolist(), grouped)
                group, first = class_groups(order, width, part, 3)
                assert group.tolist() == grouped.group.tolist()
                assert first.tolist() == grouped.first.tolist()


def _frontiers(order, widest):
    # the frontier of every string of 0..widest bits, each from the one
    # before by one-bit steps, as the miner grows them
    frontier, strings = root(), [""]
    for _ in range(widest + 1):
        yield strings, frontier
        frontier = code_level(order, frontier, ["0", "1"])
        strings = [p + s for p in strings for s in "01"]


def _check_level(backend, parents, frontier, suffixes):
    level = code_level(backend.order, frontier, suffixes)
    strings = [p + s for p in parents for s in suffixes]
    lengths = level.length.tolist()
    assert lengths == [backend.code_len(x) for x in strings]
    # the groups of a sparse kept subset, and of every child
    for keep in (np.flatnonzero(level.length <= np.median(level.length))[::2],
                 np.arange(len(strings))):
        _check_groups(backend, [strings[i] for i in keep.tolist()],
                      [lengths[i] for i in keep.tolist()],
                      groups(narrow(level, keep)))


def test_level_coder_equals_the_walk():
    # frontiers of every string of 0-8 bits, steps of 1-3 bits: every
    # L(x) == code_len(x), and the kept children's groups are
    # signature()'s partition
    for order in ORDERS:
        backend = KTBackend(order)
        for parents, frontier in _frontiers(order, 8):
            for step in (1, 2, 3):
                _check_level(backend, parents, frontier,
                             list(bitutil.all_of_length(step)))
        # the seed level: suffixes of 1..3 bits, padded to the longest
        _check_level(backend, [""], root(),
                     [x for n in (1, 2, 3) for x in bitutil.all_of_length(n)])


def _patterns(frontier):
    # per pattern its L(x), head, tail and count row as {context: (zeros,
    # ones)}, by name
    names, rows = frontier.names, [{} for _ in frontier.length]
    for p, c, zeros, ones in zip(*frontier.rows.tolist()):
        rows[p][names[c]] = (zeros, ones)
    return [(length, names[h], names[t], row) for length, h, t, row in zip(
        frontier.length.tolist(), frontier.head.tolist(),
        frontier.tail.tolist(), rows)]


def _pattern(backend, x):
    # _patterns' entry for x, from its definition
    k = backend.order
    row: dict = {}
    for t in range(k, len(x)):
        zeros, ones = row.get(x[t - k:t], (0, 0))
        row[x[t - k:t]] = (zeros + (x[t] == "0"), ones + (x[t] == "1"))
    return backend.code_len(x), x[:k], x[max(0, len(x) - k):], row


def test_children_equal_the_same_strings_coded_from_the_root():
    # every child of a frontier of every string of 0-8 bits, steps of 1-3
    # bits, has the L(x), head, tail and count row of the same string
    # coded from the root, which are x's own
    for order in ORDERS:
        backend = KTBackend(order)
        for parents, frontier in _frontiers(order, 8):
            for step in (1, 2, 3):
                suffixes = list(bitutil.all_of_length(step))
                strings = [p + s for p in parents for s in suffixes]
                got = _patterns(code_level(order, frontier, suffixes))
                assert got == _patterns(code_level(order, root(), strings))
                assert got == [_pattern(backend, x) for x in strings]


def test_level_coder_on_long_patterns():
    # a frontier of random 30-60-bit patterns in any order, grown from
    # plain strings and narrowed to a shuffled subset
    rng = Random(5)
    strings = ["".join(rng.choice("01") for _ in range(rng.randint(30, 60)))
               for _ in range(40)]
    for order in ORDERS:
        backend = KTBackend(order)
        level = code_level(order, root(), strings)
        assert level.length.tolist() == [backend.code_len(x) for x in strings]
        keep = list(range(len(strings)))
        rng.shuffle(keep)
        keep = keep[:25]
        frontier = narrow(level, np.array(keep))
        _check_level(backend, [strings[i] for i in keep], frontier,
                     list(bitutil.all_of_length(3)))


def test_class_coder_memory_does_not_span_the_contexts():
    # order 24 has 2**25 context ids; the coder holds contexts as window
    # values, never as an axis, so 2,048 16-bit strings (every one its own
    # signature group) are grouped within a bound a dense axis would break
    prev = np.zeros(1)
    for width in range(1, 16):
        prev = class_lengths(24, width, prev, np.arange(1 << width))
    values = np.arange(20_000, 22_048)
    tracemalloc.start()
    try:
        lengths = class_lengths(24, 16, prev, values)
        group, first = class_groups(24, 16, values, 2048)
        class_bodies(24, 16, values[first], lengths[first])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lengths[0] == KTBackend(24).code_len(format(20_000, "016b"))
    assert len(first) == len(values)
    assert peak < 8 * 2 ** 20


def test_level_coder_memory_does_not_span_the_contexts():
    # 768 random 40-bit patterns at order 9 use all 512 full contexts; a
    # dense children x contexts layout of int64 (zeros, ones) for their
    # 3,072 children alone would take 25 MB, where their sparse rows (about
    # 32 entries each) and the coder's work take under half of that
    rng = Random(9)
    strings = ["".join(rng.choice("01") for _ in range(40))
               for _ in range(768)]
    frontier = code_level(9, root(), strings)
    assert len(np.unique(frontier.rows[1])) >= 500
    suffixes = list(bitutil.all_of_length(2))
    tracemalloc.start()
    try:
        level = code_level(9, frontier, suffixes)
        coded = groups(level)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert level.length[-1] == KTBackend(9).code_len(strings[-1] + "11")
    assert len(coded.first) == len(level.length)
    assert peak < 12 * 2 ** 20
