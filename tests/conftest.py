import math
from fractions import Fraction

import pytest

from bitmine import KTBackend, LZBackend, gen_random


# Independent reference implementations used as test oracles.  They follow
# the defining formulas directly (exact rational arithmetic for the add-1/2
# products, a list-based reparse for the phrase cost) and share no code with
# the incremental coders under test.

def kt0_prob_exact(s: str) -> Fraction:
    counts = [0, 0]
    p = Fraction(1)
    for i, ch in enumerate(s):
        b = int(ch)
        p *= Fraction(2 * counts[b] + 1, 2 * (i + 1))
        counts[b] += 1
    return p


def kt0_len_exact(s: str) -> float:
    return -math.log2(kt0_prob_exact(s)) if s else 0.0


def ktk_len_exact(s: str, order: int) -> float:
    """Order-k add-1/2 code length by direct probability products."""
    counts = {}
    total = 0.0
    for i, ch in enumerate(s):
        ctx = s[max(0, i - order):i]
        c = counts.setdefault(ctx, [0, 0])
        b = int(ch)
        total += -math.log2((c[b] + 0.5) / (c[0] + c[1] + 1))
        c[b] += 1
    return total


def lz_phrase_count(s: str) -> int:
    """Number of phrases in the incremental parse, trailing partial phrase
    included, using a plain set of phrase strings."""
    phrases = set()
    cur = ""
    for ch in s:
        cur += ch
        if cur not in phrases:
            phrases.add(cur)
            cur = ""
    return len(phrases) + (1 if cur else 0)


def lz_len_exact(s: str) -> float:
    t = lz_phrase_count(s)
    return float(sum(math.ceil(math.log2(i)) + 1 if i > 1 else 1
                     for i in range(1, t + 1)))


class ZeroBackend:
    """A stub backend that gives every string code length 0, which no
    built-in backend does for a non-empty one."""

    kind = "zero"
    key = ("zero",)
    monotone = True

    def initial_state(self):
        return None

    def extend(self, state, bits, cost=0.0):
        return None, cost

    def extend_cost(self, state, bits, cost=0.0):
        return cost

    def code_len(self, x):
        return 0.0


@pytest.fixture(scope="session")
def kt0():
    return KTBackend(order=0)


@pytest.fixture(scope="session")
def kt1():
    return KTBackend(order=1)


@pytest.fixture(scope="session")
def lz():
    return LZBackend()


@pytest.fixture(scope="session")
def fixture_transactions():
    """The fixed 12 x 24-bit instance (generator seed 7) used across tests."""
    return gen_random(12, (24, 24), 7)
