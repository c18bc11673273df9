"""Information-distance estimates between bit strings.

All three measures substitute deterministic code lengths for the
uncomputable algorithmic information content:

  info_dist(a, b) = max(L(b|a), L(a|b))                   (bits, unnormalized)
  nid(a, b)       = info_dist(a, b) / max(L(a), L(b))
  ncd(a, b)       = (Ljoint(a, b) - min(L(a), L(b))) / max(L(a), L(b))

where L(x|y) = L(y||x) - L(y) and Ljoint is the canonically ordered joint,
which makes ncd exactly symmetric.  With approximations the metric axioms
are not guaranteed: self-distances are positive and values may slightly
exceed 1, so triangle-inequality and Kraft checks are offered as
diagnostics only.

Matrices and the Kraft sum code each item once from the initial state and
price every joint by continuing the first item's coder state and running
sum, so they equal (``==``) the single-pair functions, which stay the
definitional reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

import numpy as np

from . import bits as bitutil
from .codelength import cond_code_len, joint_code_len_canonical

MEASURES = ("nid", "ncd", "info")
# Budget cap of kraft_diagnostic, which evaluates 2**neighborhood_len distances.
MAX_NEIGHBORHOOD_LEN = 16
# Budget cap of distance_matrix: n items code n(n+1)/2 joints into an n x n
# float matrix, so 2048 items are at most 2.1 M joints and 32 MB.
MAX_MATRIX_ITEMS = 2048


class UndefinedDistanceError(Exception):
    """Both operands have zero code length; the quotient is undefined."""


def _check_measure(measure: str):
    if measure not in MEASURES:
        raise ValueError(f"measure must be one of {MEASURES}")


def _check(a: str, b: str):
    if len(a) < 1 or len(b) < 1:
        raise ValueError("distance operands must have length >= 1")


def info_dist(backend, a: str, b: str) -> float:
    """Unnormalized information distance max(L(b|a), L(a|b)) in bits."""
    _check(a, b)
    return max(cond_code_len(backend, b, a), cond_code_len(backend, a, b))


def nid_estimate(backend, a: str, b: str) -> float:
    """Normalized information distance with code lengths in place of H."""
    _check(a, b)
    denom = max(backend.code_len(a), backend.code_len(b))
    if denom <= 0.0:
        raise UndefinedDistanceError("both code lengths are zero")
    return info_dist(backend, a, b) / denom


def ncd(backend, a: str, b: str) -> float:
    """Normalized compression distance; exactly symmetric by canonical joint.

    Self-distance under KT order 0: for a of length n with binary entropy
    h(a) of its fraction of ones, n*h(a)/L(a) <= ncd(a, a) < 1.  The lower
    bound holds because the KT probability of a after a is a posterior
    mixture, so it is at most the maximum-likelihood value 2^(-n*h(a)); the
    upper because the Beta(1/2, 1/2) mixture gives P(a||a) > P(a)^2.  Only
    constant strings come near 0 (about 0.13 for 64 zeros); balanced random
    strings stay near 1.  Other backends have no such bound: LZ reaches
    1.07 on random 64-96 bit strings.
    """
    _check(a, b)
    la, lb = backend.code_len(a), backend.code_len(b)
    denom = max(la, lb)
    if denom <= 0.0:
        raise UndefinedDistanceError("both code lengths are zero")
    return (joint_code_len_canonical(backend, a, b) - min(la, lb)) / denom


_MEASURE_FN = {"nid": nid_estimate, "ncd": ncd, "info": info_dist}


class _Coded(NamedTuple):
    """An item coded once from the initial state."""
    bits: str
    state: object
    length: float


def _code(backend, x: str) -> _Coded:
    return _Coded(x, *backend.extend(backend.initial_state(), x))


def _cond(backend, x: _Coded, given: _Coded) -> float:
    """L(x | given) from given's state: equals ``cond_code_len``."""
    return backend.extend_cost(given.state, x.bits, given.length) - given.length


def _denom(a: _Coded, b: _Coded) -> float:
    denom = max(a.length, b.length)
    if denom <= 0.0:
        raise UndefinedDistanceError("both code lengths are zero")
    return denom


def _info_coded(backend, a: _Coded, b: _Coded) -> float:
    return max(_cond(backend, b, a), _cond(backend, a, b))


def _nid_coded(backend, a: _Coded, b: _Coded) -> float:
    denom = _denom(a, b)
    return _info_coded(backend, a, b) / denom


def _ncd_coded(backend, a: _Coded, b: _Coded) -> float:
    denom = _denom(a, b)
    first, second = (b, a) if (len(a.bits), a.bits) > (len(b.bits), b.bits) else (a, b)
    joint = backend.extend_cost(first.state, second.bits, first.length)
    return (joint - min(a.length, b.length)) / denom


# The same measures on coded items, equal (==) to ``_MEASURE_FN``'s.
_CODED_FN = {"nid": _nid_coded, "ncd": _ncd_coded, "info": _info_coded}


@dataclass
class DistanceMatrix:
    labels: list
    values: np.ndarray  # square, exactly symmetric
    measure: str

    def __post_init__(self):
        if self.values.shape != (len(self.labels), len(self.labels)):
            raise ValueError("matrix shape does not match label count")


def distance_matrix(backend, items, measure: str = "ncd",
                    labels=None) -> DistanceMatrix:
    """Pairwise distances; each unordered pair is computed once and mirrored.

    Each item is coded once; each pair, the diagonal included, then codes
    one joint for ncd and two for nid and info.  At most
    ``MAX_MATRIX_ITEMS`` items, checked before any item is coded.
    """
    items = list(items)
    if len(items) < 2:
        raise ValueError("need at least 2 items")
    if len(items) > MAX_MATRIX_ITEMS:
        raise ValueError(f"{len(items)} items, over the cap of "
                         f"{MAX_MATRIX_ITEMS} for a distance matrix")
    _check_measure(measure)
    if labels is None:
        labels = [f"item{i}" for i in range(len(items))]
    fn = _CODED_FN[measure]
    n = len(items)
    values = np.zeros((n, n))
    coded = []

    def entry(i, j):
        try:
            _check(items[i], items[j])
            return fn(backend, coded[i], coded[j])
        except (UndefinedDistanceError, ValueError) as exc:
            raise type(exc)(f"pair ({i}, {j}): {exc}") from exc

    for i, x in enumerate(items):
        coded.append(_code(backend, x))
        values[i, i] = entry(i, i)
    for i, j in combinations(range(n), 2):
        values[i, j] = values[j, i] = entry(i, j)
    return DistanceMatrix(list(labels), values, measure)


def triangle_violation_rate(matrix: DistanceMatrix) -> float:
    """Fraction of ordered triples (a, b, c) with d(a,c) > d(a,b) + d(b,c).

    Diagnostic only: the triangle inequality holds for true algorithmic
    information, not necessarily for code-length approximations.
    """
    d = matrix.values
    n = d.shape[0]
    triples = n * (n - 1) * (n - 2)
    distinct = ~np.eye(n, dtype=bool)
    violations = 0
    for a in range(n):  # one (b, c) plane at a time: O(n**2) memory
        bad = d[a, None, :] > d[a, :, None] + d + 1e-12
        bad &= distinct
        bad[a, :] = bad[:, a] = False
        violations += int(np.count_nonzero(bad))
    return violations / triples if triples else 0.0


def kraft_diagnostic(backend, x: str, neighborhood_len: int,
                     measure: str = "nid") -> float:
    """Sum of 2**(-d(x, y)) over all y != x of a given length.

    A normalized metric would keep this at most 1; approximations need not.
    Exponential in neighborhood_len, which must be in
    1..``MAX_NEIGHBORHOOD_LEN``.
    """
    if not 1 <= neighborhood_len <= MAX_NEIGHBORHOOD_LEN:
        raise ValueError(
            f"neighborhood_len must be in 1..{MAX_NEIGHBORHOOD_LEN}")
    _check_measure(measure)
    fn = _CODED_FN[measure]
    cx = _code(backend, x)
    total = 0.0
    for y in bitutil.all_of_length(neighborhood_len):
        if y != x:
            _check(x, y)
            total += 2.0 ** (-fn(backend, cx, _code(backend, y)))
    return total
