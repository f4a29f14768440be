"""XOR-mask sets forming binary codes of minimum distance t/2.

A mask set over block length t is a list of t-bit masks such that every
mask has Hamming weight >= t/2 and every pair of distinct masks differs
in >= t/2 positions; together with the zero mask they form a binary code
of minimum distance t/2.  For power-of-two t the union is in fact a
linear [t, log2(t) + 1, t/2] code, i.e. a first-order Reed-Muller code
up to coordinate relabeling.  XOR-ing a seed bitstring with such masks
yields groups of strings that are pairwise "maximally dissimilar",
which is what the correlated sampler in :mod:`stabsparse.magic`
consumes.

Each even block length t has one mask set, from
:func:`generate_masks_even`: the 2^(k+1)-1 power-of-two masks of the
largest power of two 2^k dividing t, tiled to length t.  A caller that
needs more supplements than that generates at a larger power-of-two
block length and builds its model there.

Masks are little-endian integers (bit q = position q) serialized as hex.
Generation is a pure function of t; no randomness is involved.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .stabilizer import insert_row, reduce_row

EVEN = "EVEN"
POW2 = "POW2"
#: the largest block length generated: 2t - 1 masks of t bits are 64 MB of ints
MAX_BLOCK_LENGTH = 1 << 14


def _is_pow2(t: int) -> bool:
    return t >= 1 and (t & (t - 1)) == 0


def check_block_length(t: int) -> None:
    if not 1 <= t <= MAX_BLOCK_LENGTH:
        raise ValueError(f"block length t = {t} must lie in [1, {MAX_BLOCK_LENGTH}]")


@dataclass(frozen=True)
class MaskSet:
    """XOR masks of a common block length with a distance-t/2 guarantee."""

    block_length: int
    masks: tuple
    strategy: str

    def __len__(self) -> int:
        return len(self.masks)

    def min_weight(self) -> int:
        return min(m.bit_count() for m in self.masks)

    def min_pairwise_distance(self) -> int:
        """Least Hamming distance over pairs of masks.  When the masks and 0
        are closed under XOR (``_xor_closed``), the XOR of two masks is a
        third, so it is the least mask weight; other sets compare every pair."""
        ms = self.masks
        if len(ms) > 1 and _xor_closed(ms):
            return self.min_weight()
        best = self.block_length
        for i in range(len(ms)):
            for j in range(i + 1, len(ms)):
                best = min(best, (ms[i] ^ ms[j]).bit_count())
        return best

    def to_json(self) -> dict:
        return {
            "block_length": self.block_length,
            "strategy": self.strategy,
            "masks": [format(m, "x") for m in self.masks],
        }

    @classmethod
    def from_json(cls, data: dict) -> "MaskSet":
        return cls(
            block_length=int(data["block_length"]),
            masks=tuple(int(m, 16) for m in data["masks"]),
            strategy=data["strategy"],
        )

    def save(self, path: str) -> None:
        """``json.dump(self.to_json(), fh, indent=1)``'s bytes, one mask at a time."""
        head = json.dumps({"block_length": self.block_length, "strategy": self.strategy}, indent=1)
        with open(path, "w") as fh:
            fh.write(head[:-2] + ',\n "masks": [')
            for i, m in enumerate(self.masks):
                fh.write(f'{"," if i else ""}\n  "{m:x}"')
            fh.write("\n ]\n}" if self.masks else "]\n}")

    @classmethod
    def load(cls, path: str) -> "MaskSet":
        with open(path) as fh:
            return cls.from_json(json.load(fh))


def _xor_closed(masks: tuple) -> bool:
    """Whether the masks and 0 are closed under XOR: 0 is not a mask and the
    masks are 2^d - 1 distinct ints, d the rank of their span (by the shared
    echelon, ``stabilizer.reduce_row``), so they are its nonzero vectors."""
    echelon: dict = {}
    pivots = 0
    for m in masks:
        row = reduce_row(m, echelon, pivots)
        if row:
            pivots |= insert_row(echelon, row)
    return 0 not in masks and len(set(masks)) == len(masks) == (1 << len(echelon)) - 1


# ---------------------------------------------------------------------------
# the binary-tree bitstring family
# ---------------------------------------------------------------------------


def tree_bitstrings(t: int) -> list:
    """The 2t-1 't additional bitstrings' family for t a power of two.

    Grown from the two-bit seeds {10, 01, 00}: each level doubles the
    width w by cloning every string y into y y and into y ~y (its upper
    half complemented), then adds one extra string, w ones followed by w
    zeros (the 00 clone with both halves complemented in turn).  Every
    pair of outputs, and every output against the all-ones string,
    differs in at least t/2 positions.
    """
    if not _is_pow2(t) or t < 2:
        raise ValueError("t must be a power of two, at least 2")
    check_block_length(t)
    # seeds: alpha=10, beta=01, gamma=00 as little-endian ints of width 2
    ys, w = [0b01, 0b10, 0b00], 2
    while w < t:
        ones = (1 << w) - 1
        ys = [y | y << w for y in ys] + [y | (y ^ ones) << w for y in ys] + [ones]
        w *= 2
    return ys


def generate_masks_pow2(t: int) -> MaskSet:
    """2t-1 masks of length t (t a power of two): complemented tree strings."""
    ys = tree_bitstrings(t)
    for i, y in enumerate(ys):  # in place: each tree string is freed as it goes
        ys[i] = y ^ ((1 << t) - 1)
    return MaskSet(block_length=t, masks=tuple(ys), strategy=POW2)


def generate_masks_even(t: int) -> MaskSet:
    """Masks for any even t by tiling the largest power-of-two divisor.

    With 2^k the largest power of two dividing t, the 2^(k+1)-1 masks of
    length 2^k are each repeated t / 2^k times.  Tiling multiplies all
    weights and pairwise distances by the repetition count, so the
    minimum distance t/2 is preserved.  For power-of-two t there is one
    repetition and the result is :func:`generate_masks_pow2` itself.
    """
    if t < 2 or t % 2 != 0:
        raise ValueError(f"t must be even and at least 2, got t = {t}")
    check_block_length(t)
    base = t & (-t)  # largest power of two dividing t
    base_set = generate_masks_pow2(base)
    if base == t:
        return base_set
    # a base-bit mask times 1 + 2^base + 2^(2 base) + ... is its t / base copies
    tile = ((1 << t) - 1) // ((1 << base) - 1)
    return MaskSet(block_length=t, masks=tuple(m * tile for m in base_set.masks), strategy=EVEN)


@dataclass(frozen=True)
class MaskReport:
    count: int
    min_weight: int
    min_pairwise_distance: int
    ok: bool


def verify_mask_set(mask_set: MaskSet) -> MaskReport:
    """Exhaustive weight / pairwise-distance check against block_length/2."""
    half = mask_set.block_length / 2.0
    wmin = mask_set.min_weight() if len(mask_set) else mask_set.block_length
    dmin = (
        mask_set.min_pairwise_distance()
        if len(mask_set) > 1
        else mask_set.block_length
    )
    return MaskReport(
        count=len(mask_set),
        min_weight=wmin,
        min_pairwise_distance=dmin,
        ok=(wmin >= half and dmin >= half),
    )
