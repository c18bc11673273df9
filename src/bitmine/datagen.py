"""Reproducible synthetic transaction sets with planted motifs.

Randomness comes from an in-repo xorshift64* generator rather than platform
RNGs, so a seed produces bit-identical datasets on every platform and
Python version.  The update is

    x ^= x >> 12;  x ^= (x << 25) & (2**64 - 1);  x ^= x >> 27
    output = (x * 0x2545F4914F6CDD1D) mod 2**64

seeded with the given 64-bit integer (a fixed constant replaces a zero
seed).  One bit is drawn per output (its top bit); bounded integers use the
output modulo the range size; uniform [0,1) values use output / 2**64.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import bits as bitutil
from .occurrence import TransactionSet

_MASK = (1 << 64) - 1
_MULT = 0x2545F4914F6CDD1D
_ZERO_SEED = 0x9E3779B97F4A7C15

DEFAULT_MOTIF = "00000001111111"


class Xorshift64Star:
    """Minimal portable PRNG; deterministic function of the 64-bit seed."""

    def __init__(self, seed: int):
        self.state = (seed & _MASK) or _ZERO_SEED

    def next64(self) -> int:
        x = self.state
        x ^= x >> 12
        x = (x ^ (x << 25)) & _MASK
        x ^= x >> 27
        self.state = x
        return (x * _MULT) & _MASK

    def bit(self) -> str:
        return "1" if self.next64() >> 63 else "0"

    def bits(self, n: int) -> str:
        return "".join(self.bit() for _ in range(n))

    def int_range(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in [lo, hi] (modulo bias is negligible at 64 bits)."""
        return lo + self.next64() % (hi - lo + 1)

    def uniform(self) -> float:
        return self.next64() / 2.0 ** 64


@dataclass(frozen=True)
class PlantSpec:
    motif: str = DEFAULT_MOTIF
    transaction_count: int = 50
    planted_fraction: float = 0.8
    flip_prob: float = 0.05
    pad_len_range: tuple = (4, 10)
    rng_seed: int = 0

    def __post_init__(self):
        bitutil.check(self.motif, "motif")
        if self.transaction_count < 1:
            raise ValueError("transaction_count must be >= 1")
        if not (0.0 <= self.planted_fraction <= 1.0):
            raise ValueError("planted_fraction must be in [0, 1]")
        if not (0.0 <= self.flip_prob < 1.0):
            raise ValueError("flip_prob must be in [0, 1)")
        lo, hi = self.pad_len_range
        if lo < 0 or lo > hi:
            raise ValueError("pad_len_range must satisfy 0 <= min <= max")

    @property
    def planted_count(self) -> int:
        return round(self.planted_fraction * self.transaction_count)


@dataclass(frozen=True)
class ManifestEntry:
    """Per-transaction generation record; carries the bits themselves so a
    manifest alone reconstructs the dataset."""
    index: int
    bits: str
    planted: bool
    motif_offset: int = -1  # -1 when not planted
    flipped: tuple = ()     # indices into the motif copy that were flipped


def gen_planted(spec: PlantSpec):
    """Generate (TransactionSet, manifest).

    The first round(planted_fraction * count) transactions embed a noisy
    motif copy between random pads; the remainder are uniform random strings
    of comparable length (pad + motif-length + pad).
    """
    rng = Xorshift64Star(spec.rng_seed)
    lo, hi = spec.pad_len_range
    items = []
    manifest = []
    for i in range(spec.transaction_count):
        prefix = rng.bits(rng.int_range(lo, hi))
        suffix = rng.bits(rng.int_range(lo, hi))
        if i < spec.planted_count:
            copy = []
            flipped = []
            for j, ch in enumerate(spec.motif):
                if spec.flip_prob > 0.0 and rng.uniform() < spec.flip_prob:
                    copy.append("1" if ch == "0" else "0")
                    flipped.append(j)
                else:
                    copy.append(ch)
            bits = prefix + "".join(copy) + suffix
            entry = ManifestEntry(i, bits, True, len(prefix), tuple(flipped))
        else:
            bits = prefix + rng.bits(len(spec.motif)) + suffix
            entry = ManifestEntry(i, bits, False)
        items.append(bits)
        manifest.append(entry)
    return TransactionSet(items), manifest


def gen_random(count: int, len_range: tuple, rng_seed: int) -> TransactionSet:
    """Uniform random transactions with lengths drawn from len_range."""
    if count < 1:
        raise ValueError("count must be >= 1")
    lo, hi = len_range
    if lo < 1 or lo > hi:
        raise ValueError("len_range must satisfy 1 <= min <= max")
    rng = Xorshift64Star(rng_seed)
    return TransactionSet(
        [rng.bits(rng.int_range(lo, hi)) for _ in range(count)])


def replay_manifest(manifest) -> TransactionSet:
    """Reconstruct the exact dataset recorded in a manifest."""
    ordered = sorted(manifest, key=lambda e: e.index)
    return TransactionSet([e.bits for e in ordered])


def verify_manifest(spec: PlantSpec, manifest) -> None:
    """Check internal consistency of a manifest against its spec; raises on
    mismatch (planted count, motif placement, recorded flips)."""
    planted = [e for e in manifest if e.planted]
    if len(planted) != spec.planted_count:
        raise ValueError(
            f"manifest has {len(planted)} planted entries, "
            f"expected {spec.planted_count}")
    for e in planted:
        window = e.bits[e.motif_offset:e.motif_offset + len(spec.motif)]
        if len(window) != len(spec.motif):
            raise ValueError(f"entry {e.index}: motif window out of range")
        for j, (got, want) in enumerate(zip(window, spec.motif)):
            if (got != want) != (j in e.flipped):
                raise ValueError(
                    f"entry {e.index}: bit {j} inconsistent with flip record")
