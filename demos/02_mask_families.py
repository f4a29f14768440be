"""Generating XOR mask families at power-of-two and even block lengths.

The masks (plus the zero string) form binary codes of minimum distance
t/2; the demo prints the small families against the two-bit symbol
alphabet and shows that more supplements means generating at a larger
power-of-two block length.
"""

import time

from stabsparse import masks

SYMBOLS = {(1, 0): "a", (0, 1): "b", (0, 0): "g", (1, 1): "d"}


def to_symbols(value, t):
    out = []
    for pos in range(0, t, 2):
        out.append(SYMBOLS[((value >> pos) & 1, (value >> (pos + 1)) & 1)])
    return "".join(out)


for t in (2, 4, 8):
    family = masks.tree_bitstrings(t)
    print(f"t = {t}: {len(family)} additional bitstrings "
          f"({', '.join(to_symbols(y, t) for y in family)})")
    mask_set = masks.generate_masks_pow2(t)
    rep = masks.verify_mask_set(mask_set)
    print(f"   masks = complements; min weight {rep.min_weight}, "
          f"min pairwise distance {rep.min_pairwise_distance} (need {t // 2})")

print("\neven t by tiling the largest power-of-two divisor:")
for t in (6, 12, 24):
    mask_set = masks.generate_masks_even(t)
    rep = masks.verify_mask_set(mask_set)
    print(f"  t = {t}: {rep.count} masks, min distance {rep.min_pairwise_distance}")

print("\nmore supplements means a larger power-of-two block length:")
for needed in (0, 20, 40, 100):
    tp = 16
    while 2 * tp - 1 < needed:
        tp *= 2
    mask_set = masks.generate_masks_even(tp)
    print(f"  need {needed:3d} -> block length {tp} ({len(mask_set)} masks); "
          f"the model is built at t = {tp}")

print("\nper-mask generation time (doubling t):")
for t in (2**8, 2**10, 2**12, 2**14):
    t0 = time.perf_counter()
    mask_set = masks.generate_masks_pow2(t)
    dt = time.perf_counter() - t0
    print(f"  t = {t:6d}: {dt * 1e6 / len(mask_set):8.2f} us per mask "
          f"({len(mask_set)} masks)")
