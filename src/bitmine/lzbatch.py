"""Batched LZ parsing in numpy, ``==`` the per-bit parse.

``LZBackend._parse`` parses one string at a time in Python.  This module
parses many at once, one bit column over all rows: each row continues a
transaction's LZ78 parse (or the initial state's) by its bits.  The
transactions' phrase tries are read from one flat table (``tries``,
cached once per set), in which a node is named by its slot, where its
two edges start.  The phrases a row adds are kept beside it, one column
per bit, and the nodes they make get slots past the table, so no trie is
copied and a row's memory does not grow with the transaction.  Every
edge is looked up in y's table; only where that misses are the row's
phrases searched.  An LZ cost is an integer (the cost of a phrase count,
``codelength._lz_cum_cost``), so every cost here ``==`` the coder's.

- ``extras`` prices the live (child, transaction) pairs of an LZ count,
  as ``occurrence._per_parent`` plans them and makes the noise test on
  them: each (parent, transaction) pair is parsed once, and each child
  from there by its suffix.  A child row holds only its node and its own
  phrases, and reads its pair's phrases in place.
- ``lengths`` prices L(x) of many strings, each from the initial state
  (``occurrence.code_strings``).

Work is done in blocks of ``occurrence._BLOCK_ELEMENTS`` (row x phrase
column) entries, read at each call: the planner's chunks of parent rows
have a column per bit of the parent, a block of child rows one per bit
of the suffix.  ``occurrence`` imports this module on first use, so that
a session without LZ does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, repeat

import numpy as np

from . import occurrence
from .codelength import _lz_cum_cost


@dataclass
class Tries:
    """Every transaction's phrase trie as one flat table, and the fields
    of each transaction's coder state.  A node is named by its slot, 2 *
    node, where its two edges start in y's rows of ``child``; the root's
    slot is 0."""
    child: np.ndarray     # child[at[t] + slot + bit]: the child's slot, 0
    # where y lacks the edge, and a trailing 0
    at: np.ndarray        # where each transaction's rows start in ``child``
    node: np.ndarray      # current node's slot
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
                to.append(2 * child)
        child = np.zeros(at[-1] + 1, dtype=np.intp)
        child[edge] = to
        coded.lz = Tries(child, *(np.array(v, dtype=np.intp) for v in (
            at[:-1], [2 * s.node for s in states],
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


def _parse(lz: Tries, parse, bits, which, widths, pairs=None):
    """Continue each row's parse, a column at a time, in place, by its
    bits: row i parses the first ``widths[i]`` bits of row ``which[i]`` of
    ``bits``, and ``widths`` descend, so the rows still parsing are a
    prefix.  ``parse`` holds per row its transaction's offset in
    ``lz.child``, its node's slot and its own phrases: column j of ``key``
    holds the edge (slot + bit) of the phrase the row added at bit j
    (-1: none).  That phrase made the node of slot ``len(lz.child) +
    2 * (w + j)``, past every transaction's, so that a lookup from it
    reads the table's trailing 0.  ``pairs`` is None (w = 0), or, for a
    child parse, (the key of the parents' parse, each row's pair): a child
    row reads its pair's w phrase columns there, in place, and holds only
    its own.  An edge is read from y's table, and only where that misses
    from the row's phrases, its pair's and its own, whose edges y's
    table lacks and which never repeat one another; a miss ends a phrase,
    as in ``LZBackend._parse``."""
    at, node, key = parse
    seen, k = (None, None) if pairs is None else pairs
    w = 0 if seen is None else seen.shape[1]
    # rows with more than j bits, for each column j
    active = len(widths) - np.searchsorted(widths[::-1], np.arange(widths[0]),
                                           "right")
    bits = bits[which].T  # a row per column j, a column per parse row
    for j, n in enumerate(active.tolist()):
        edge = node[:n] + bits[j, :n]
        # "clip": a slot past the table reads its trailing 0
        child = lz.child.take(at[:n] + edge, mode="clip")
        miss = np.flatnonzero(child == 0)
        if len(miss) and w + j:
            phrases = key[miss, :j]
            if w:
                phrases = np.concatenate((seen[k[miss]], phrases), axis=1)
            hit = phrases == edge[miss, None]
            c = hit.argmax(1)  # the first match; at most one matches
            found = hit[np.arange(len(miss)), c]
            child[miss[found]] = len(lz.child) + 2 * c[found]
        key[:n, j] = np.where(child == 0, edge, -1)
        node[:n] = child


def _phrases(parse):
    """The phrases each row's parse added, an open phrase included."""
    return (parse[1] != 0) + np.count_nonzero(parse[2] >= 0, axis=1)


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
    [0, 0, 0], [0], [0], [0], [0])))


def lengths(xs):
    """L(x) of each x, ``==`` ``LZBackend.code_len(x)``: each x is parsed
    from the initial state, as ``extras`` parses a child after a
    transaction (here an empty one), in blocks of
    ``occurrence._BLOCK_ELEMENTS`` (string x bit) entries."""
    bits, widths = _bit_rows(xs, repeat(0))
    which = _longest_first(widths)
    cum = _cum_costs(bits.shape[1])  # at most one phrase per bit
    out = np.zeros(len(xs), dtype=np.intp)
    rows = max(1, occurrence._BLOCK_ELEMENTS // max(1, bits.shape[1]))
    for lo in range(0, len(xs), rows):
        g = which[lo:lo + rows]
        zero = np.zeros(len(g), dtype=np.intp)
        parse = [zero, zero.copy(),
                 np.full((len(g), int(widths[g[0]])), -1, dtype=np.intp)]
        _parse(_ROOT, parse, bits, g, widths[g])
        out[g] = cum[_phrases(parse)]
    return out


def extras(coded, plan, chunks):
    """``occurrence._per_parent``'s pricer for LZ, from its ``plan`` and
    chunks of live (parent, transaction) pairs: (indices into the x,
    transactions, the integers L(y||x) - L(y)), a block at a time, each
    ``==`` ``extend_cost(state_y, x)``.

    Each pair's y || p is parsed once, from y's phrase table (``tries``),
    and each of its live children x = p || s then by s from that parse,
    in blocks of ``occurrence._BLOCK_ELEMENTS`` child columns (row x bit
    of s).  A parse keeps the phrases it adds beside y's table, at most
    one per bit of x, so nothing the size of y is copied.  A child row
    holds its node and its own columns only; it reads its pair's row by
    index where y's table misses, so the rows it gathers at once are
    bounded by its block's rows x |x|.
    """
    lz = tries(coded)
    xs, ps, of, order = plan
    cut = np.array([len(p) for p in ps], dtype=np.intp)
    p_bits = _bit_rows(ps, repeat(0))[0]
    s_bits, s_width = _bit_rows(xs, cut[of].tolist())  # each suffix
    s_max = s_bits.shape[1]
    # a bit adds at most one phrase, and an open phrase counts as one
    top = max(lz.phrases.tolist(), default=0) + max(map(len, xs)) + 1
    cum = _cum_costs(top)
    mixed = min(s_width.tolist()) < s_max  # suffixes of more than one length
    rows = occurrence._BLOCK_ELEMENTS // s_max or 1  # a column per bit of s
    for pair_p, pair_t, first, live in chunks:
        end = np.cumsum(live)
        p_width = int(cut[pair_p[0]])  # the chunk's longest parent
        parse = [lz.at[pair_t], lz.node[pair_t],
                 np.full((len(live), p_width), -1, dtype=np.intp)]
        _parse(lz, parse, p_bits, pair_p, cut[pair_p])
        # complete phrases after y || p: y's, and each phrase p added
        complete = (lz.complete[pair_t]
                    + np.count_nonzero(parse[2] >= 0, axis=1))
        for r0 in range(0, int(end[-1]), rows):
            r = np.arange(r0, min(r0 + rows, int(end[-1])))
            k = np.searchsorted(end, r, "right")  # each child row's pair
            g = order[first[k] + r - (end[k] - live[k])]
            if mixed:
                o = _longest_first(s_width[g])
                g, k = g[o], k[o]
            t = pair_t[k]
            state = [parse[0][k], parse[1][k],
                     np.full((len(k), s_max), -1, dtype=np.intp)]
            _parse(lz, state, s_bits, g, s_width[g], (parse[2], k))
            yield g, t, cum[complete[k] + _phrases(state)] - cum[lz.phrases[t]]
