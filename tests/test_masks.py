import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

from stabsparse import masks as mk

SYMBOLS = {"a": (1, 0), "b": (0, 1), "g": (0, 0), "d": (1, 1)}


def from_symbols(text):
    """Two-bit-symbol string ('a'=10, 'b'=01, 'g'=00, 'd'=11) to an int."""
    value = 0
    pos = 0
    for ch in text:
        for bit in SYMBOLS[ch]:
            value |= bit << pos
            pos += 1
    return value


# the known-good additional-bitstring family for small block lengths,
# written in the two-bit symbol alphabet
TREE_FAMILY = {
    2: ["a", "b", "g"],
    4: ["aa", "bb", "ab", "ba", "gg", "gd", "dg"],
    8: [
        "aaaa", "bbbb", "aabb", "bbaa", "abba", "baab", "abab", "baba",
        "gggg", "ggdd", "ddgg", "gddg", "dggd", "gdgd", "dgdg",
    ],
    16: [
        "aaaaaaaa", "bbbbbbbb", "aaaabbbb", "bbbbaaaa",
        "aabbaabb", "bbaabbaa", "aabbbbaa", "bbaaaabb",
        "abababab", "ababbaba", "babaabab", "babababa",
        "abbaabba", "baabbaab", "abbabaab", "baababba",
        "gggggggg", "ggggdddd", "ddddgggg",
        "ggddggdd", "ddggddgg", "ggddddgg", "ddggggdd",
        "gdgdgdgd", "gdgddgdg", "dgdggdgd", "dgdgdgdg",
        "gddggddg", "dggddggd", "gddgdggd", "dggdgddg",
    ],
}


class TestPow2Generation:
    def test_t2_bitstrings_and_masks(self):
        assert set(mk.tree_bitstrings(2)) == {0b01, 0b10, 0b00}
        ms = mk.generate_masks_pow2(2)
        assert set(ms.masks) == {0b10, 0b01, 0b11}

    @pytest.mark.parametrize("t", [2, 4, 8, 16])
    def test_matches_known_family(self, t):
        expect = {from_symbols(s) for s in TREE_FAMILY[t]}
        assert set(mk.tree_bitstrings(t)) == expect

    def test_t16_counts_and_distance(self):
        ms = mk.generate_masks_pow2(16)
        assert len(ms) == 31
        assert ms.min_pairwise_distance() == 8
        assert ms.min_weight() >= 8

    @pytest.mark.parametrize("t", [2, 4, 8, 16, 32, 64, 128, 256, 512, 1024])
    def test_cardinality(self, t):
        assert len(mk.generate_masks_pow2(t)) == 2 * t - 1

    @pytest.mark.parametrize("t", [2, 4, 8, 16, 32, 64, 128, 256])
    def test_code_property_exhaustive(self, t):
        report = mk.verify_mask_set(mk.generate_masks_pow2(t))
        assert report.ok
        assert report.min_weight >= t // 2
        assert report.min_pairwise_distance >= t // 2

    def test_rejects_non_power_of_two(self):
        for t in (0, 1, 3, 6, 12):
            with pytest.raises(ValueError):
                mk.generate_masks_pow2(t)

    def test_deterministic(self):
        assert mk.generate_masks_pow2(64) == mk.generate_masks_pow2(64)

    @pytest.mark.parametrize("t", [2, 4, 8, 16, 32])
    def test_union_with_zero_is_linear(self, t):
        # {0} + masks is closed under XOR: a [t, log2(t)+1, t/2] code
        import itertools

        code = set(mk.generate_masks_pow2(t).masks) | {0}
        assert len(code) == 2 * t
        assert all(a ^ b in code for a, b in itertools.combinations(code, 2))


class TestEvenGeneration:
    def test_t12_count(self):
        ms = mk.generate_masks_even(12)
        assert len(ms) == 7  # lowest set bit of 12 is 4, so 2^3 - 1
        assert ms.block_length == 12

    def test_t8_matches_pow2(self):
        assert mk.generate_masks_even(8).masks == mk.generate_masks_pow2(8).masks

    def test_t12_distance(self):
        ms = mk.generate_masks_even(12)
        assert ms.min_pairwise_distance() >= 6
        assert mk.verify_mask_set(ms).ok

    def test_odd_rejected(self):
        with pytest.raises(ValueError):
            mk.generate_masks_even(9)

    @pytest.mark.parametrize("t", [6, 10, 12, 20, 24, 40, 48, 96])
    def test_code_property(self, t):
        assert mk.verify_mask_set(mk.generate_masks_even(t)).ok


class TestVerify:
    def test_t2_pass(self):
        ms = mk.MaskSet(2, (0b01, 0b10, 0b11), "POW2")
        report = mk.verify_mask_set(ms)
        assert report.ok and report.min_weight == 1

    def test_pair_pass(self):
        ms = mk.MaskSet(2, (0b11, 0b10), "POW2")
        assert mk.verify_mask_set(ms).ok

    def test_low_weight_fails(self):
        ms = mk.MaskSet(8, (0b1, 0b10), "POW2")
        report = mk.verify_mask_set(ms)
        assert not report.ok
        assert report.min_weight == 1


def pairwise_distance(masks):
    """The least distance over every pair of masks, pair by pair."""
    return min((a ^ b).bit_count() for a, b in itertools.combinations(masks, 2))


class TestClosedSets:
    def test_generated_sets_match_the_pairwise_loop(self):
        # every generated set is closed under XOR, so its distance is read
        # off the least weight; pair by pair gives the same at each even t
        for t in range(2, 513, 2):
            ms = mk.generate_masks_even(t)
            assert mk._xor_closed(ms.masks)
            assert ms.min_pairwise_distance() == pairwise_distance(ms.masks) == t // 2

    @pytest.mark.parametrize("masks", [
        (0b111, 0b001),  # two of the three nonzero vectors of their span
        (0b000, 0b001, 0b010),  # 2^2 - 1 masks, but one is 0
        (0b01, 0b10, 0b10),  # a repeated mask
        (0b001, 0b010, 0b100),  # 2^2 - 1 masks of rank 3
    ], ids=["subset", "zero", "repeat", "rank-too-high"])
    def test_open_sets_compare_every_pair(self, masks):
        ms = mk.MaskSet(3, masks, "POW2")
        assert not mk._xor_closed(masks)
        assert ms.min_pairwise_distance() == pairwise_distance(masks)
        assert ms.min_pairwise_distance() != ms.min_weight()


class TestSerialization:
    def test_json_roundtrip(self, tmp_path):
        ms = mk.generate_masks_pow2(16)
        path = tmp_path / "masks.json"
        ms.save(str(path))
        loaded = mk.MaskSet.load(str(path))
        assert loaded == ms

    @pytest.mark.parametrize("ms", [mk.generate_masks_pow2(2), mk.generate_masks_even(12),
                                    mk.MaskSet(3, (5,), mk.EVEN), mk.MaskSet(3, (), mk.POW2)],
                             ids=["pow2", "even", "one-mask", "no-masks"])
    def test_save_writes_json_dump_bytes(self, tmp_path, ms):
        ms.save(str(tmp_path / "got.json"))
        with open(tmp_path / "want.json", "w") as fh:
            json.dump(ms.to_json(), fh, indent=1)
        assert (tmp_path / "got.json").read_bytes() == (tmp_path / "want.json").read_bytes()

    def test_schema_fields(self):
        data = mk.generate_masks_pow2(4).to_json()
        assert set(data) == {"block_length", "strategy", "masks"}
        assert all(isinstance(m, str) for m in data["masks"])

    def test_loads_older_padded_record(self):
        # a padded record as older versions wrote it, with source_t
        data = {"block_length": 4, "strategy": "PADDED", "source_t": 2,
                "masks": ["a", "5", "f", "6", "9", "3", "c"]}
        ms = mk.MaskSet.from_json(data)
        assert ms.block_length == 4
        assert ms.masks == mk.generate_masks_pow2(4).masks
        assert ms.strategy == "PADDED"


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 128))
def test_property_even_code_distance(half):
    t = 2 * half
    ms = mk.generate_masks_even(t)
    assert mk.verify_mask_set(ms).ok
