"""Batched LZ parsing in numpy, ``==`` the per-bit parse.

``LZBackend._parse`` parses one string at a time in Python.  This module
parses many at once, one bit column over all rows: each row continues a
transaction's LZ78 parse (or the initial state's) by its bits.  The
transactions' phrase tries are read from one flat table (``tries``,
cached once per set); the phrases a row adds are kept beside it, one
column per bit, so no trie is copied and a row's memory does not grow
with the transaction.  An LZ cost is an integer (the cost of a phrase
count, ``codelength._lz_cum_cost``), so every cost here ``==`` the
coder's, and a cost is at most a bound b exactly when it is at most
floor(b).

- ``extras`` prices the live (child, transaction) pairs of an LZ count
  (``occurrence.support``): each (parent, transaction) pair is parsed
  once, and each child from there by its suffix.
- ``lengths`` prices L(x) of many strings, each from the initial state
  (``occurrence.code_strings``).

Work is done in blocks of ``_BLOCK_ELEMENTS`` (row x phrase column)
entries.  ``occurrence`` imports this module on first use, so that a
session without LZ does not load it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain, repeat

import numpy as np

from .codelength import _lz_cum_cost

# Entries (row x phrase column) of one block; bounds the working memory.
_BLOCK_ELEMENTS = 1 << 13


@dataclass
class Tries:
    """Every transaction's phrase trie as one flat table, and the fields
    of each transaction's coder state."""
    child: np.ndarray     # child[at[t] + 2 * node + bit]: 0 where y lacks
    # the edge; a trailing 0 is read for nodes that y's parse did not make
    at: np.ndarray        # where each transaction's rows start in ``child``
    nodes: np.ndarray     # next node: y's trie holds the nodes below it
    node: np.ndarray      # current node
    complete: np.ndarray  # complete phrases
    phrases: np.ndarray   # phrases, an open one included


def tries(coded):
    """The phrase tables of an LZ-coded set (``occurrence._Coded``), built
    once per set and kept on it."""
    if coded.lz is None:
        states = coded.states
        at = [0, *accumulate(2 * s.next_node for s in states)]
        edge, to = [], []
        for offset, state in zip(at, states):
            for (node, ch), child in state.trie.items():
                edge.append(offset + 2 * node + (ch == "1"))
                to.append(child)
        child = np.zeros(at[-1] + 1, dtype=np.intp)
        child[edge] = to
        coded.lz = Tries(child, *(np.array(v, dtype=np.intp) for v in (
            at[:-1], [s.next_node for s in states], [s.node for s in states],
            [s.complete for s in states], [s.phrases for s in states])))
    return coded.lz


def _bit_rows(strings, cuts):
    """Each string's bits from its cut on, as a (strings x longest) array
    of 0s and 1s, padded with 0s, and how many bits each row has."""
    widths = [len(s) - cut for s, cut in zip(strings, cuts)]
    width = max(widths, default=0)
    data = "".join(s[cut:].ljust(width, "0") for s, cut in zip(strings, cuts))
    bits = np.where(np.frombuffer(data.encode(), np.uint8) == ord("1"), 1, 0)
    return bits.reshape(len(widths), width), np.array(widths, dtype=np.intp)


def _parse(lz: Tries, parse, bits, which, widths, col):
    """Continue each row's parse, a column at a time, in place, by its
    bits: row i parses the first ``widths[i]`` bits of row ``which[i]`` of
    ``bits``, and ``widths`` descend, so the rows still parsing are a
    prefix.  ``parse`` holds per row its transaction's offset in
    ``lz.child`` and node count, its node, and the phrases the row added:
    column c of ``key`` holds the edge 2 * node + bit of the phrase added
    at bit c, which made node ``nodes + c`` (-1: none); this parse writes
    columns ``col`` on.  An edge is read from y's table, else from the
    row's phrases (they never share an edge); a miss ends a phrase, as in
    ``LZBackend._parse``."""
    at, nodes, node, key = parse
    # rows with more than j bits, for each column j
    active = len(widths) - np.searchsorted(widths[::-1], np.arange(widths[0]),
                                           "right")
    for j, n in enumerate(active.tolist()):
        here = node[:n]
        edge = 2 * here + bits[which[:n], j]
        child = lz.child[np.where(here < nodes[:n], at[:n] + edge, -1)]
        r, c = np.nonzero(key[:n, :col + j] == edge[:, None])
        child[r] = nodes[r] + c
        key[:n, col + j] = np.where(child == 0, edge, -1)
        node[:n] = child


def _phrases(parse):
    """The phrases each row's parse added, an open phrase included."""
    rows = np.nonzero(parse[3] >= 0)[0]  # a row per phrase added, ascending
    added = np.diff(np.searchsorted(rows, np.arange(len(parse[2]) + 1)))
    return np.where(parse[2] != 0, 1, 0) + added


def _cum_costs(top: int):
    """The cost of i phrases, ``_lz_cum_cost(i)`` (an integer), for i =
    0..top."""
    return np.array([int(_lz_cum_cost(i)) for i in range(top + 1)],
                    dtype=np.intp)


def _longest_first(widths):
    """The indices of ``widths``, widest first, ties in index order."""
    widths = widths.tolist()
    return np.array(sorted(range(len(widths)), key=widths.__getitem__,
                           reverse=True), dtype=np.intp)


# The initial LZ state as a set of one empty transaction.
_ROOT = Tries(*(np.array(v, dtype=np.intp) for v in (
    [0, 0, 0], [0], [1], [0], [0], [0])))


def lengths(xs):
    """L(x) of each x, ``==`` ``LZBackend.code_len(x)``: each x is parsed
    from the initial state, as ``extras`` parses a child after a
    transaction (here an empty one), in blocks of ``_BLOCK_ELEMENTS``
    (string x bit) entries."""
    bits, widths = _bit_rows(xs, repeat(0))
    which = _longest_first(widths)
    cum = _cum_costs(bits.shape[1])  # at most one phrase per bit
    out = np.zeros(len(xs), dtype=np.intp)
    rows = max(1, _BLOCK_ELEMENTS // max(1, bits.shape[1]))
    for lo in range(0, len(xs), rows):
        g = which[lo:lo + rows]
        zero = np.zeros(len(g), dtype=np.intp)
        parse = [zero, zero + 1, zero.copy(),
                 np.full((len(g), int(widths[g[0]])), -1, dtype=np.intp)]
        _parse(_ROOT, parse, bits, g, widths[g], 0)
        out[g] = cum[_phrases(parse)]
    return out


def extras(bounds, coded, xs, lens, parents):
    """The live (child, transaction) pairs of an LZ count and their extra
    costs, a block at a time: (indices into ``xs``, transactions,
    the integers L(y||x) - L(y)), each ``==`` ``extend_cost(state_y, x)``.
    ``bounds`` holds the transactions' largest L(x) and largest extra
    cost as ``occurrence._bounds`` gives them, ``lens`` each L(x), and
    ``parents`` is (patterns, occurrence lists, each x's parent's index)
    as ``occurrence.support`` resolves it.

    For every parent p and transaction y in p's occurrence list where some
    child of p passes entropy reduction (its live children, the first of
    p's children by L(x)), y || p is parsed once, from y's phrase table
    (``tries``), and each live child x = p || s then by s from that
    parse.  A parse reads y's table and keeps the phrases it adds beside
    it, at most one per bit of x, so nothing the size of y is copied.
    (Parent, transaction) pairs are taken in chunks, and their children in
    blocks, of ``_BLOCK_ELEMENTS`` (row x phrase column) entries.  The
    pairs of one child come in the order of its parent's list.
    """
    lz = tries(coded)
    if not xs:
        return
    ps, occs, of = parents
    by = sorted(range(len(ps)), key=lambda i: -len(ps[i]))  # longest first
    of = np.argsort(by)[of]
    ps = [ps[i] for i in by]
    occs = [range(len(coded.items)) if occ is None else occ
            for occ in map(occs.__getitem__, by)]
    cut = np.array([len(p) for p in ps], dtype=np.intp)
    # Children by (parent, L(x)), so a pair's live children come first.
    # LZ costs are integers, so L(x) <= b exactly when L(x) <= floor(b).
    lens = np.asarray(lens).astype(np.intp)
    span = int(lens.max()) + 2
    order = (of * span + lens).tolist()
    by_len = sorted(range(len(xs)), key=order.__getitem__)
    order = np.array(order, dtype=np.intp)[by_len]
    by_len = np.array(by_len, dtype=np.intp)
    live_below = np.clip(np.floor(bounds[0]) + 1, 0, span).astype(np.intp)
    p_bits = _bit_rows(ps, repeat(0))[0]
    s_bits, s_width = _bit_rows(xs, cut[of].tolist())  # each child's suffix
    s_max = s_bits.shape[1]
    # a bit adds at most one phrase, and an open phrase counts as one
    top = max(lz.phrases.tolist(), default=0) + max(map(len, xs)) + 1
    cum = _cum_costs(top)
    mixed = min(s_width.tolist()) < s_max  # suffixes of more than one length
    # a row has a phrase column per bit of x
    rows = max(1, _BLOCK_ELEMENTS // (int(cut[0]) + s_max))

    start = [0, *accumulate(map(len, occs))]
    for lo in range(0, start[-1], rows):
        hi = min(lo + rows, start[-1])
        pieces = [(i, occs[i][max(lo - start[i], 0):hi - start[i]])
                  for i in range(bisect_right(start, lo) - 1,
                                 bisect_left(start, hi))]
        pair_p = np.repeat([i for i, _ in pieces], [len(o) for _, o in pieces])
        pair_t = np.fromiter(chain.from_iterable(o for _, o in pieces),
                             np.intp, hi - lo)
        first = np.searchsorted(order, pair_p * span)
        live = np.searchsorted(order, pair_p * span + live_below[pair_t]) - first
        on = np.flatnonzero(live)
        pair_p, pair_t, first, live = pair_p[on], pair_t[on], first[on], live[on]
        if not len(live):
            continue
        end = np.cumsum(live)
        p_width = int(cut[pair_p[0]])  # the chunk's longest parent
        parse = [lz.at[pair_t], lz.nodes[pair_t], lz.node[pair_t],
                 np.full((len(live), p_width + s_max), -1, dtype=np.intp)]
        _parse(lz, parse, p_bits, pair_p, cut[pair_p], 0)
        for r0 in range(0, int(end[-1]), rows):
            r = np.arange(r0, min(r0 + rows, int(end[-1])))
            k = np.searchsorted(end, r, "right")  # each child row's pair
            g = by_len[first[k] + r - (end[k] - live[k])]
            if mixed:
                o = _longest_first(s_width[g])
                g, k = g[o], k[o]
            state = [column[k] for column in parse]
            _parse(lz, state, s_bits, g, s_width[g], p_width)
            t = pair_t[k]
            phrases = lz.complete[t] + _phrases(state)
            yield g, t, cum[phrases] - cum[lz.phrases[t]]
