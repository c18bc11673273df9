"""Deterministic code-length estimators for bit strings.

A backend assigns every bit string a real-valued code length in bits.  The
two built-in backends (adaptive KT and LZ78-style parse cost) are pure
functions of the input and are monotone: appending bits never decreases the
code length.  Joint code lengths are computed over the plain concatenation of
the two strings with the adaptive model carried across the boundary, so
``joint(c, x) >= code_len(c)`` holds for the built-ins and conditional code
lengths are never negative.  A backend's ``key`` is its value identity:
backends with equal keys assign equal code lengths, so results computed
for one may be reused for the other.

An external adapter scores a string as 8 times the byte length of the output
of a user-supplied compression command.  It is *not* monotone and is only
admissible in heuristic workflows.  Every backend codes from coder states
(``initial_state``, ``extend``, ``extend_cost``).
"""

from __future__ import annotations

import math
import shlex
import subprocess
from functools import lru_cache
from typing import NamedTuple

from . import bits as bitutil


class EstimationError(Exception):
    """A backend failed to produce a code length (never silently zero)."""


# The KT step cost -log2((c + 1/2) / (n + 1)) is log2(2n + 2) - log2(2c + 1)
# for a context seen n = c0 + c1 times, c of them with the coded bit.  Both
# terms are read from these fixed lists while n < _KT_LOG2_LEN, and from
# math.log2 beyond; the lists hold math.log2 of the same integers, so either
# way the step cost is the same float.  They never grow.
_KT_LOG2_LEN = 1 << 10
_KT_LOG2_TOTAL = [math.log2(2 * n + 2) for n in range(_KT_LOG2_LEN)]
_KT_LOG2_COUNT = [math.log2(2 * c + 1) for c in range(_KT_LOG2_LEN)]


class KTState(NamedTuple):
    """Adaptive estimator state: recent context plus per-context bit counts
    (a tuple, which is cheaper to build than a dataclass)."""
    context: str
    counts: dict  # context str -> (zeros, ones)


class KTBackend:
    """Add-1/2 sequential probability estimator with a k-bit context.

    Order 0 codes bit i at -log2((count of that bit so far + 1/2) / i).
    Order k keeps separate counts per context of the previous k bits; at the
    start of a string (or after a short context) the available shorter
    history is used as its own context.  ``extend`` and ``extend_cost``
    share one loop, ``_walk``, which reads each step cost's two log2 terms
    from fixed module-level tables (``math.log2`` past their end, with the
    same floats); ``extend_cost`` never copies a state's counts.
    """

    kind = "kt"
    monotone = True

    def __init__(self, order: int = 0):
        if order < 0:
            raise ValueError("order must be >= 0")
        self.order = order

    def __repr__(self):
        return f"KTBackend(order={self.order})"

    @property
    def key(self):
        """Value identity: backends with equal keys give equal code lengths."""
        return (self.kind, self.order)

    def initial_state(self) -> KTState:
        return KTState("", {})

    def _walk(self, ctx: str, counts: dict, new: dict, bits: str,
              cost: float):
        """Code ``bits`` after context ``ctx``; return (context after them,
        cost + their cost).  A context's counts are read from ``new``,
        else from ``counts``, and its updated counts are written to
        ``new`` only (``extend`` passes its copy of the counts as both)."""
        order = self.order
        total, count, log2 = _KT_LOG2_TOTAL, _KT_LOG2_COUNT, math.log2
        size = len(total)  # the length of both lists; c0, c1 <= n
        for ch in bits:
            # a count pair is never empty, so ``or`` falls through only on
            # a context ``new`` does not hold
            c0, c1 = new.get(ctx) or counts.get(ctx, (0, 0))
            n = c0 + c1
            if ch == "1":
                if n < size:
                    cost += total[n] - count[c1]
                else:
                    cost += log2(2 * n + 2) - log2(2 * c1 + 1)
                new[ctx] = (c0, c1 + 1)
            else:
                if n < size:
                    cost += total[n] - count[c0]
                else:
                    cost += log2(2 * n + 2) - log2(2 * c0 + 1)
                new[ctx] = (c0 + 1, c1)
            if order:
                ctx = ctx[1 - order:] + ch if order > 1 else ch
        return ctx, cost

    def extend(self, state: KTState, bits: str,
               cost: float = 0.0) -> tuple[KTState, float]:
        """Code ``bits`` after ``state`` without mutating it; return
        (state', cost + the cost of ``bits``).

        Passing the code length of the string coded so far as ``cost``
        continues its running float sum, so the result is bit-identical to
        coding the whole string from the initial state.  state' gets one
        copy of the state's counts, which the walk updates in place.
        """
        counts = state.counts.copy()
        ctx, cost = self._walk(state.context, counts, counts, bits, cost)
        return KTState(ctx, counts), cost

    def extend_cost(self, state: KTState, bits: str, cost: float = 0.0) -> float:
        """``cost`` plus the cost of coding ``bits`` after ``state``;
        continues ``cost``'s running sum like ``extend``.  No state is
        built: the walk reads the state's counts and writes the contexts
        it touches to a local dict."""
        return self._walk(state.context, state.counts, {}, bits, cost)[1]

    def code_len(self, x: str) -> float:
        return self.extend_cost(self.initial_state(), x)

    def signature(self, x: str):
        """Hashable key with the property that two strings with equal
        signatures cost the same after *any* fixed coder state.

        The cost of a string after a state splits per context into
        exchangeable add-1/2 products, so it depends only on the first
        ``order`` bits (the head, whose contexts straddle the boundary) and
        on the counts (zeros, ones) of the remaining bits per context.  The
        key is (head, ((context, (zeros, ones)), ...)) sorted by context,
        with the counts of x coded from the initial state: contexts shorter
        than ``order`` occur only within the head, so keeping them adds
        nothing the head does not fix.  Nothing in the package calls this:
        ``ktbatch`` builds the same partition from count arrays, which the
        tests check against it, and ``perfbench/tracer.py`` wraps it.
        """
        state = self.extend(self.initial_state(), x)[0]
        return (x[:self.order], tuple(sorted(state.counts.items())))


class LZState(NamedTuple):
    """Incremental parse state: phrase trie, current node, phrase counts.

    The trie is shared, never mutated: a parse that adds phrases builds a
    new dict for the state it returns and leaves its input's trie as it is.
    """
    trie: dict  # (node, bit) -> node
    next_node: int
    node: int
    complete: int

    @property
    def phrases(self) -> int:
        # a partially matched phrase counts as a phrase
        return self.complete + (1 if self.node != 0 else 0)


@lru_cache(maxsize=None)
def _lz_cum_cost(t: int) -> float:
    # sum over phrases i=1..t of (ceil(log2 i) + 1) bits; with
    # m = ceil(log2 t) it is t * (m + 1) - 2^m + 1
    if t == 0:
        return 0.0
    m = (t - 1).bit_length()
    return float(t * (m + 1) - (1 << m) + 1)


class LZBackend:
    """LZ78-style incremental parse; cost is sum of ceil(log2 i) + 1 over phrases."""

    kind = "lz"
    monotone = True

    def __repr__(self):
        return "LZBackend()"

    @property
    def key(self):
        return (self.kind,)

    def initial_state(self) -> LZState:
        return LZState({}, 1, 0, 0)

    @staticmethod
    def _parse(state: LZState, bits: str):
        """Parse ``bits`` after ``state``: (phrases added as {(node, bit):
        node}, next node, current node, complete phrases).  The state's trie
        is read, never copied or written."""
        trie, new = state.trie, {}
        nxt, node, complete = state.next_node, state.node, state.complete
        for ch in bits:
            key = (node, ch)
            # node ids are >= 1, so a miss in the trie falls through to ``new``
            child = trie.get(key) or new.get(key)
            if child is not None:
                node = child
            else:
                new[key] = nxt
                nxt += 1
                complete += 1
                node = 0
        return new, nxt, node, complete

    def extend(self, state: LZState, bits: str,
               cost: float = 0.0) -> tuple[LZState, float]:
        """Parse ``bits`` after ``state`` without mutating it; return
        (state', cost + the cost of ``bits``).  Costs are integer-valued, so
        continuing a running ``cost`` is exact.  When the parse adds no
        phrase, state' shares ``state``'s trie."""
        new, nxt, node, complete = self._parse(state, bits)
        trie = {**state.trie, **new} if new else state.trie
        out = LZState(trie, nxt, node, complete)
        return out, cost + (_lz_cum_cost(out.phrases) - _lz_cum_cost(state.phrases))

    def extend_cost(self, state: LZState, bits: str, cost: float = 0.0) -> float:
        """``cost`` plus the cost of ``bits`` after ``state`` (no state is
        built)."""
        _, _, node, complete = self._parse(state, bits)
        phrases = complete + (1 if node != 0 else 0)
        return cost + (_lz_cum_cost(phrases) - _lz_cum_cost(state.phrases))

    def code_len(self, x: str) -> float:
        return self.extend_cost(self.initial_state(), x)

    def signature(self, x: str, state: LZState | None = None):
        """None: the parse cost after a state depends on the whole string,
        so LZ strings form no signature groups.  Nothing in the package
        calls this; only ``perfbench/tracer.py`` wraps it."""
        return None


class ExternalState(NamedTuple):
    """The bits scored so far and their score."""
    bits: str
    score: float


class ExternalBackend:
    """Adapter scoring a string as 8 x compressed size under a shell command.

    The command reads raw bytes on stdin (bits packed MSB-first, final
    partial byte zero-padded, no length prefix) and writes compressed bytes
    on stdout.  Byte granularity makes the score non-monotone, so this
    backend is only allowed in heuristic mining mode.  Extending a state
    runs the command on the whole string again.
    """

    kind = "external"
    monotone = False

    def __init__(self, command: str, timeout: float = 10.0):
        if not command.strip():
            raise ValueError("external backend needs a non-empty command")
        if not (isinstance(timeout, (int, float)) and 0 < timeout < math.inf):
            raise ValueError(
                f"external backend timeout must be finite and > 0, not {timeout!r}")
        self.command = command
        self.timeout = timeout

    def __repr__(self):
        return f"ExternalBackend({self.command!r})"

    @property
    def key(self):
        return (self.kind, self.command)

    def initial_state(self) -> ExternalState:
        return ExternalState("", 0.0)

    def extend(self, state: ExternalState, bits: str,
               cost: float = 0.0) -> tuple[ExternalState, float]:
        """Score ``state``'s bits followed by ``bits``; return (state',
        cost + the score's increase).  Scores are multiples of 8, so
        continuing a running ``cost`` is exact."""
        x = state.bits + bits
        score = self.code_len(x)
        return ExternalState(x, score), cost + (score - state.score)

    def extend_cost(self, state: ExternalState, bits: str,
                    cost: float = 0.0) -> float:
        """``cost`` plus the score's increase from appending ``bits`` (no
        state is built)."""
        return cost + (self.code_len(state.bits + bits) - state.score)

    def code_len(self, x: str) -> float:
        if x == "":
            return 0.0
        payload = bitutil.to_bytes(x)
        try:
            proc = subprocess.run(
                shlex.split(self.command),
                input=payload,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                timeout=self.timeout,
            )
        except (OSError, subprocess.TimeoutExpired) as exc:
            raise EstimationError(f"external compressor failed: {exc}") from exc
        if proc.returncode != 0:
            msg = proc.stderr.decode(errors="replace").strip()
            raise EstimationError(
                f"external compressor exited {proc.returncode}: {msg}")
        if not proc.stdout:
            raise EstimationError("external compressor produced no output")
        return 8.0 * len(proc.stdout)


def code_len(backend, x: str) -> float:
    """Code length L(x) in bits; L of the empty string is 0."""
    return backend.code_len(bitutil.validate(x, "x"))


def joint_code_len(backend, context: str, x: str) -> float:
    """L(context || x): plain concatenation, adaptive model carried across."""
    return backend.code_len(bitutil.validate(context, "context")
                            + bitutil.validate(x, "x"))


def cond_code_len(backend, x: str, given: str) -> float:
    """L(x | given) = L(given || x) - L(given)."""
    bitutil.validate(x, "x")
    bitutil.validate(given, "given")
    return backend.code_len(given + x) - backend.code_len(given)


def joint_code_len_canonical(backend, a: str, b: str) -> float:
    """Symmetric joint: concatenate in canonical order (shorter first,
    ties broken lexicographically) so the result is exactly symmetric."""
    bitutil.validate(a, "a")
    bitutil.validate(b, "b")
    if (len(a), a) > (len(b), b):
        a, b = b, a
    return backend.code_len(a + b)


def make_backend(name: str, order: int = 0, timeout: float = 10.0):
    """Build a backend from a CLI-style spec: 'kt', 'lz' or 'external:<cmd>'."""
    if name == "kt":
        return KTBackend(order=order)
    if name == "lz":
        return LZBackend()
    if name.startswith("external:"):
        return ExternalBackend(name[len("external:"):], timeout=timeout)
    raise ValueError(f"unknown backend {name!r}")
