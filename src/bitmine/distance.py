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
definitional reference.  KT joints are priced in fixed-size numpy chunks
by the batch module ``ktbatch`` (``_kt_joint_costs``), with the per-bit
walk's float operations in its order; other backends call ``extend_cost``
once per joint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import NamedTuple

import numpy as np

from . import bits as bitutil
from . import ktbatch
from .codelength import KTBackend, cond_code_len, joint_code_len_canonical

MEASURES = ("nid", "ncd", "info")
# Budget cap of kraft_diagnostic, which evaluates 2**neighborhood_len distances.
MAX_NEIGHBORHOOD_LEN = 16
# Budget cap of distance_matrix: n items cost n(n+1)/2 joints for ncd and
# n(n+1) for nid and info, into an n x n float matrix, so 2048 items are at
# most 2.1 M joints (ncd) or 4.2 M (nid, info) and 32 MB.
MAX_MATRIX_ITEMS = 2048


class UndefinedDistanceError(Exception):
    """Both operands have zero code length; the quotient is undefined."""


def _check_measure(measure: str):
    if measure not in MEASURES:
        raise ValueError(f"measure must be one of {MEASURES}")


def _check(*operands: str):
    for x in operands:
        bitutil.check(x, "distance operands")


def info_dist(backend, a: str, b: str) -> float:
    """Unnormalized information distance max(L(b|a), L(a|b)) in bits."""
    _check(a, b)
    return max(cond_code_len(backend, b, a), cond_code_len(backend, a, b))


def nid_estimate(backend, a: str, b: str) -> float:
    """Normalized information distance with code lengths in place of H."""
    _check(a, b)
    denom = _denom(backend.code_len(a), backend.code_len(b))
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
    denom = _denom(la, lb)
    return (joint_code_len_canonical(backend, a, b) - min(la, lb)) / denom


_MEASURE_FN = {"nid": nid_estimate, "ncd": ncd, "info": info_dist}


class _Coded(NamedTuple):
    """An item coded once from the initial state."""
    bits: str
    state: object
    length: float


def _code(backend, x: str) -> _Coded:
    return _Coded(x, *backend.extend(backend.initial_state(), x))


def _denom(la: float, lb: float) -> float:
    denom = max(la, lb)
    if denom <= 0.0:
        raise UndefinedDistanceError("both code lengths are zero")
    return denom


def _distances(backend, coded, measure: str, a, b) -> np.ndarray:
    """``measure`` of each pair (coded[a], coded[b]) of the index arrays
    ``a`` and ``b``, equal (==) to ``_MEASURE_FN``'s: the same float
    operations on the same joint costs."""
    length = np.array([c.length for c in coded])
    la, lb = length[a], length[b]
    if measure == "ncd":
        # the canonical joint codes the shorter, then lexicographically
        # smaller, item first
        swap = np.array([(len(coded[i].bits), coded[i].bits)
                         > (len(coded[j].bits), coded[j].bits)
                         for i, j in zip(a.tolist(), b.tolist())], dtype=bool)
        joint = _joint_costs(backend, coded, np.stack(
            (np.where(swap, b, a), np.where(swap, a, b)), axis=1))
        return (joint - np.minimum(la, lb)) / np.maximum(la, lb)
    # L(b | a) and L(a | b)
    joint = _joint_costs(backend, coded,
                         np.stack((np.r_[a, b], np.r_[b, a]), axis=1))
    info = np.maximum(joint[:len(a)] - la, joint[len(a):] - lb)
    return info / np.maximum(la, lb) if measure == "nid" else info


def _joint_costs(backend, coded, pairs: np.ndarray) -> np.ndarray:
    """``backend.extend_cost(coded[f].state, coded[s].bits, coded[f].length)``
    for each row (f, s) of the integer array ``pairs``; KT joints are
    priced by ``ktbatch._kt_joint_costs``, with the same floats."""
    if isinstance(backend, KTBackend):
        return ktbatch._kt_joint_costs(backend.order, coded, pairs)
    return np.array([backend.extend_cost(coded[f].state, coded[s].bits,
                                         coded[f].length)
                     for f, s in pairs.tolist()], dtype=float)


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

    Each item is coded once; each pair, the diagonal included, then costs
    one joint for ncd and two for nid and info, priced by ``_joint_costs``
    one tile of the matrix at a time.  At most ``MAX_MATRIX_ITEMS`` items,
    checked before any item is coded.
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
    labels = list(labels)
    if len(labels) != len(items):
        raise ValueError(f"{len(labels)} labels for {len(items)} items")
    n = len(items)
    coded = []
    for i, x in enumerate(items):
        # a pair fails these checks only if one of its items' diagonal
        # entries does, so checking each item and its diagonal as it is
        # coded raises the first failing pair's error
        try:
            _check(x)
            coded.append(_code(backend, x))
            _denom(coded[i].length, coded[i].length)
        except (UndefinedDistanceError, ValueError) as exc:
            raise type(exc)(f"pair ({i}, {i}): {exc}") from exc
    values = np.zeros((n, n))
    # the upper triangle, the diagonal included, in square tiles of about
    # ktbatch._JOINT_CHUNK pairs: a tile's second strings come from its rows
    # and columns only, so few strings are planned per pair
    side = math.isqrt(ktbatch._JOINT_CHUNK)
    for lo in range(0, n, side):
        for left in range(lo, n, side):
            i, j = np.meshgrid(np.arange(lo, min(n, lo + side)),
                               np.arange(left, min(n, left + side)),
                               indexing="ij")
            upper = i <= j
            i, j = i[upper], j[upper]
            values[i, j] = values[j, i] = _distances(backend, coded, measure,
                                                     i, j)
    return DistanceMatrix(labels, values, measure)


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
    1..``MAX_NEIGHBORHOOD_LEN``.  For nid and ncd, a neighbour y with
    max(L(x), L(y)) = 0 raises ``UndefinedDistanceError`` naming y.
    """
    if not 1 <= neighborhood_len <= MAX_NEIGHBORHOOD_LEN:
        raise ValueError(
            f"neighborhood_len must be in 1..{MAX_NEIGHBORHOOD_LEN}")
    _check_measure(measure)
    bitutil.check(x, "x")  # every y is a non-empty bit string
    cx = _code(backend, x)
    ys = (y for y in bitutil.all_of_length(neighborhood_len) if y != x)
    total = 0.0
    size = max(1, ktbatch._JOINT_CHUNK // neighborhood_len)
    while block := [_code(backend, y) for y in islice(ys, size)]:
        if measure != "info":
            # the block's shortest neighbour has the smallest denominator
            y = min(block, key=lambda c: c.length)
            try:
                _denom(cx.length, y.length)
            except UndefinedDistanceError as exc:
                raise UndefinedDistanceError(
                    f"neighbour {y.bits}: {exc}") from exc
        d = _distances(backend, [cx] + block, measure,
                       np.zeros(len(block), dtype=np.intp),
                       np.arange(1, len(block) + 1))
        for v in d.tolist():
            total += 2.0 ** (-v)
    return total
