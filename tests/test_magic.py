import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stabsparse import dense, magic, masks

PI4 = math.pi / 4
XI1 = 4 - 2 * math.sqrt(2)


class TestMagicModel:
    def test_extent_t1(self):
        m = magic.magic_model(PI4, 1)
        assert m.xi_t == pytest.approx(XI1, abs=1e-12)
        assert math.log2(m.xi_t) == pytest.approx(0.2284, abs=5e-4)

    def test_extent_multiplicative(self):
        m = magic.magic_model(PI4, 8)
        assert m.xi_t == pytest.approx(XI1**8, rel=1e-12)

    def test_small_phi_limit(self):
        m = magic.magic_model(1e-9, 1)
        assert m.xi_t == pytest.approx(1, abs=1e-4)

    def test_phi_range(self):
        for phi in (0.0, -0.1, math.pi / 2 + 0.01):
            with pytest.raises(ValueError):
                magic.magic_model(phi, 1)
        with pytest.raises(ValueError):
            magic.magic_model(PI4, 0)

    def test_extent_overflow_rejected(self):
        assert math.isfinite(magic.magic_model(PI4, 4482).xi_t)
        for t in (4483, 8965):  # xi_t = inf, then l1 itself overflows
            with pytest.raises(ValueError, match=f"at t = {t}"):
                magic.magic_model(PI4, t)

    def test_coefficient_magnitudes(self):
        for phi in (0.2, PI4, 1.1, math.pi / 2):
            m = magic.magic_model(phi, 3)
            assert m.c0_mag == pytest.approx(math.sqrt(1 - math.sin(phi)), abs=1e-12)
            assert m.c1_mag == pytest.approx(math.sqrt(1 - math.cos(phi)), abs=1e-12)
            assert abs(m.u0) == pytest.approx(1, abs=1e-12)
            assert abs(m.u1) == pytest.approx(1, abs=1e-12)

    def test_p1_half_at_pi4(self):
        assert magic.magic_model(PI4, 5).p1 == pytest.approx(0.5, abs=1e-12)

    def test_dense_reconstruction(self):
        # the coefficient formulas rebuild the polar-family state
        # e^{i(phi/2 - pi/8)} (cos(phi/2)|0> + sin(phi/2)|1>) per qubit
        for phi in (0.3, PI4, 1.2):
            for t in (1, 2, 4):
                m = magic.magic_model(phi, t)
                per_bit = np.exp(1j * (phi / 2 - math.pi / 8)) * np.array(
                    [math.cos(phi / 2), math.sin(phi / 2)]
                )
                expect = np.array([1.0])
                for _ in range(t):
                    expect = np.kron(per_bit, expect)
                assert np.allclose(magic.dense_target(m), expect, atol=1e-9)
                assert np.linalg.norm(magic.dense_target(m)) == pytest.approx(1, abs=1e-12)


class TestOverlap:
    def test_pi4(self):
        assert magic.overlap(PI4) == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_pi2(self):
        assert magic.overlap(math.pi / 2) == pytest.approx(0, abs=1e-12)

    def test_alpha_bound(self):
        assert magic.ALPHA_BOUND == pytest.approx(0.457, abs=5e-3)

    @pytest.mark.parametrize("phi", [0.0, -0.1, math.pi / 2 + 1e-9, 2.0])
    def test_phi_outside_range_rejected(self, phi):
        with pytest.raises(ValueError, match=r"phi must lie in \(0, pi/2\]"):
            magic.overlap(phi)


class TestPowerTable:
    def test_root2_is_exact_over_its_whole_range(self):
        # both ends are read at t = T_MAX: 2^(-3t/2) by a fastnorm overlap
        # scale and 2^(t/2) by a one-tile Gram overlap 2^(|a & b| - t/2)
        t_max = magic.T_MAX
        assert magic.ROOT2.shape == (4 * t_max + 1,)
        for n in range(-3 * t_max, t_max + 1):
            if n % 2 == 0:
                want = math.ldexp(1.0, n // 2)
            else:
                want = math.ldexp(math.sqrt(2.0), (n - 1) // 2)
            assert magic.ROOT2[3 * t_max + n] == want, n


class TestSampleIid:
    def test_bit_frequency(self):
        m = magic.magic_model(PI4, 10)
        rng = np.random.default_rng(0)
        d = magic.sample_iid(m, 10_000, rng)
        ones = sum(masks.popcount(x) for x, _ in d.entries)
        assert ones / (10 * 10_000) == pytest.approx(0.5, abs=5e-3)

    def test_deterministic(self):
        m = magic.magic_model(PI4, 4)
        a = magic.sample_iid(m, 1, np.random.default_rng(42))
        b = magic.sample_iid(m, 1, np.random.default_rng(42))
        assert a.entries == b.entries

    def test_unbiased_mean(self):
        m = magic.magic_model(PI4, 3)
        rng = np.random.default_rng(1)
        acc = np.zeros(8, dtype=np.complex128)
        trials = 2000
        for _ in range(trials):
            acc += magic.dense_decomposition(magic.sample_iid(m, 4, rng))
        mean = acc / trials
        target = magic.dense_target(m)
        # component-wise 3-sigma band; the per-trial std is at most ~l1/2
        sigma = m.l1 / math.sqrt(trials)
        assert np.all(np.abs(mean - target) <= 3 * sigma)

    def test_prefactor_and_k(self):
        m = magic.magic_model(PI4, 4)
        d = magic.sample_iid(m, 7, np.random.default_rng(2))
        assert d.k == 7 == len(d.entries)
        assert d.prefactor == pytest.approx(m.l1 / 7)

    def test_unbiasedness_slope(self):
        # trial-averaged dense state converges ~ 1/sqrt(trials)
        m = magic.magic_model(PI4, 3)
        rng = np.random.default_rng(3)
        target = magic.dense_target(m)
        errors = []
        sizes = [100, 1000, 10000]
        acc = np.zeros(8, dtype=np.complex128)
        done = 0
        for size in sizes:
            while done < size:
                acc += magic.dense_decomposition(magic.sample_iid(m, 2, rng))
                done += 1
            errors.append(np.linalg.norm(acc / done - target))
        slope = np.polyfit(np.log(sizes), np.log(errors), 1)[0]
        assert -0.7 <= slope <= -0.3


class TestSampleCorrelated:
    def setup_method(self):
        self.m8 = magic.magic_model(PI4, 8)
        self.masks8 = masks.generate_masks_pow2(8)

    def test_group_rounding(self):
        d = magic.sample_correlated(self.m8, self.masks8, 15, 100, np.random.default_rng(4))
        assert d.k == 112  # ceil(100/16) = 7 groups of 16
        assert len(d.groups) == 7
        assert all(size == 16 for _, size in d.groups)

    def test_f0_matches_iid_draws(self):
        d_corr = magic.sample_correlated(self.m8, self.masks8, 0, 9, np.random.default_rng(5))
        d_iid = magic.sample_iid(self.m8, 9, np.random.default_rng(5))
        assert d_corr.entries == d_iid.entries

    def test_within_group_distance(self):
        d = magic.sample_correlated(self.m8, self.masks8, 15, 64, np.random.default_rng(6))
        for start, size in d.groups:
            bits = [d.entries[i][0] for i in range(start, start + size)]
            for i in range(size):
                for j in range(i + 1, size):
                    assert masks.popcount(bits[i] ^ bits[j]) >= 4

    def test_f_exceeding_masks(self):
        with pytest.raises(ValueError):
            magic.sample_correlated(self.m8, self.masks8, 16, 32, np.random.default_rng(7))

    def test_block_length_mismatch(self):
        with pytest.raises(ValueError):
            magic.sample_correlated(
                self.m8, masks.generate_masks_pow2(4), 3, 8, np.random.default_rng(8)
            )

    def test_bias_warning_off_pi4(self):
        m = magic.magic_model(0.5, 8)
        with pytest.warns(UserWarning):
            magic.sample_correlated(m, self.masks8, 3, 8, np.random.default_rng(9))

    def test_correlated_not_worse_at_equal_k(self):
        # at equal k the correlated ensemble's mean squared error is
        # lower; one-sided comparison with normal margins
        rng = np.random.default_rng(10)
        k = 16
        target = magic.dense_target(self.m8)
        err_corr, err_iid = [], []
        for _ in range(300):
            dc = magic.sample_correlated(self.m8, self.masks8, 7, k, rng)
            err_corr.append(np.sum(np.abs(magic.dense_decomposition(dc) - target) ** 2))
            di = magic.sample_iid(self.m8, k, rng)
            err_iid.append(np.sum(np.abs(magic.dense_decomposition(di) - target) ** 2))
        mc, mi = np.mean(err_corr), np.mean(err_iid)
        se = math.hypot(np.std(err_corr) / math.sqrt(300), np.std(err_iid) / math.sqrt(300))
        assert mc <= mi + 1.645 * se
        assert mc < mi  # strict at these settings

    def test_variance_increase_large_t(self):
        # correlated <psi|psi> spreads more than i.i.d. at t = 24
        from stabsparse.estimator import exact_sqnorm

        t = 24
        m = magic.magic_model(PI4, t)
        ms = masks.generate_masks_even(t)
        rng = np.random.default_rng(11)
        f_t = len(ms)
        from stabsparse import costmodel

        gamma = magic.gamma_bound(m, ms, f_t)
        k_corr = costmodel.k_theorem1(m.xi_t, 0.4, gamma)
        k_corr = -(-k_corr // (f_t + 1)) * (f_t + 1)
        k_iid = costmodel.k_theorem1(m.xi_t, 0.4, 1.0)
        v_corr = [
            exact_sqnorm(magic.sample_correlated(m, ms, f_t, k_corr, rng)).value
            for _ in range(250)
        ]
        v_iid = [exact_sqnorm(magic.sample_iid(m, k_iid, rng)).value for _ in range(250)]
        assert np.var(v_corr) >= np.var(v_iid)


class TestGammaBound:
    def test_f0(self):
        m = magic.magic_model(PI4, 8)
        assert magic.gamma_bound(m, masks.generate_masks_pow2(8), 0) == pytest.approx(1.0)

    def test_t16_band(self):
        m = magic.magic_model(PI4, 16)
        g = magic.gamma_bound(m, masks.generate_masks_pow2(16), 31)
        assert 1 < g <= 32
        # the mask weights are >= 8, so the subtracted sum is at most
        # 31 * xi_16 / 16
        assert g >= 1 + 31 - 31 * m.xi_t * (0.5**4)

    def test_large_t_limit(self):
        m = magic.magic_model(PI4, 1024)
        g = magic.gamma_bound(m, masks.generate_masks_pow2(1024), 100)
        assert g == pytest.approx(101, abs=1e-4)

    @pytest.mark.parametrize("f_t", [-1, 16])
    def test_f_t_outside_mask_count_rejected(self, f_t):
        m, ms = magic.magic_model(PI4, 8), masks.generate_masks_pow2(8)
        assert len(ms) == 15
        with pytest.raises(ValueError, match=r"f_t must lie in \[0, number of masks\]"):
            magic.gamma_bound(m, ms, f_t)


class TestTailBound:
    def test_degenerate_gamma(self):
        assert magic.tail_bound(2.0, 1.0, 2.0) == 0.0

    def test_zero_delta(self):
        assert magic.tail_bound(10.0, 0.0, 1.0) == 0.0

    def test_reference_value(self):
        assert magic.tail_bound(3.5448, 2.0, 1.0) == pytest.approx(0.4397, abs=5e-4)

    def test_clamped_to_unit_interval(self):
        assert 0.0 <= magic.tail_bound(1e6, 0.5, 1.0) <= 1.0


class TestToStates:
    def test_single_entry(self):
        m = magic.magic_model(PI4, 1)
        d = magic.SparseDecomposition(
            t=1, k=1, prefactor=m.l1, entries=((0, m.u0),), mode=magic.IID
        )
        [(weight, stt)] = magic.to_states(d)
        assert weight == pytest.approx(m.l1 * m.u0)
        assert np.allclose(stt.to_dense(), [1, 0])

    def test_dense_match(self):
        m = magic.magic_model(PI4, 4)
        rng = np.random.default_rng(12)
        d = magic.sample_iid(m, 6, rng)
        acc = np.zeros(16, dtype=np.complex128)
        for weight, stt in magic.to_states(d):
            acc += weight * stt.to_dense()
        assert np.allclose(acc, magic.dense_decomposition(d), atol=1e-10)

    def test_count_preserved(self):
        m = magic.magic_model(PI4, 3)
        d = magic.sample_iid(m, 11, np.random.default_rng(13))
        assert len(magic.to_states(d)) == 11


class TestDenseDecomposition:
    @pytest.mark.parametrize("t", range(1, 13))
    def test_matches_kron_sum(self, t):
        # the superset-sum transform against one np.kron chain per term;
        # k > 2^t forces repeated labels up to t = 8
        rng = np.random.default_rng(300 + t)
        d = magic.sample_iid(magic.magic_model(math.pi / 5, t), min((1 << t) + 5, 400), rng)
        want = sum(
            phase * dense.product_vector([(bits >> q) & 1 for q in range(t)])
            for bits, phase in d.entries
        )
        assert np.abs(magic.dense_decomposition(d) - d.prefactor * want).max() <= 1e-12

    def test_rejects_t_above_cap(self):
        d = magic.SparseDecomposition(t=15, k=1, prefactor=1.0, entries=((0, 1.0),),
                                      mode=magic.IID)
        with pytest.raises(ValueError):
            magic.dense_decomposition(d)


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        m = magic.magic_model(PI4, 8)
        d = magic.sample_correlated(
            m, masks.generate_masks_pow2(8), 7, 16, np.random.default_rng(14)
        )
        path = tmp_path / "decomp.json"
        d.save(str(path))
        loaded = magic.SparseDecomposition.load(str(path))
        assert loaded.entries == d.entries
        assert loaded.groups == d.groups
        assert loaded.mode == d.mode

    def test_legacy_null_keys_load(self, tmp_path):
        # files written before the mask_ref / seed fields were dropped
        d = magic.sample_iid(magic.magic_model(PI4, 4), 5, np.random.default_rng(15))
        data = d.to_json()
        assert "mask_ref" not in data and "seed" not in data
        path = tmp_path / "legacy.json"
        path.write_text(json.dumps({**data, "mask_ref": None, "seed": None}))
        assert magic.SparseDecomposition.load(str(path)) == d


@settings(max_examples=30, deadline=None)
@given(
    st.floats(0.05, math.pi / 2),
    st.integers(1, 6),
    st.integers(1, 12),
    st.integers(0, 2**32 - 1),
)
def test_property_unit_phases(phi, t, k, seed):
    m = magic.magic_model(phi, t)
    d = magic.sample_iid(m, k, np.random.default_rng(seed))
    for _, phase in d.entries:
        assert abs(abs(phase) - 1) <= 1e-12


class TestTermArrays:
    """A decomposition holds its terms as read-only label and phase arrays;
    ``entries``, ``phases()``, JSON and ``==`` all read the same terms."""

    TS = [1, 8, 32, 64, 65, 96, 130]

    @staticmethod
    def draws(t):
        m = magic.magic_model(PI4, t)
        # f_t = 0 at odd t, where no mask set has block length t
        mask_set = masks.generate_masks_even(t if t % 2 == 0 else 2)
        f_t = min(3, len(mask_set)) if t % 2 == 0 else 0
        iid = magic.sample_iid(m, 9, np.random.default_rng(t))
        corr = magic.sample_correlated(m, mask_set, f_t, 10, np.random.default_rng(t + 1))
        built = magic.SparseDecomposition(
            t=t, k=3, prefactor=0.5, entries=((0, 1.0), ((1 << t) - 1, 1j), (1 << (t - 1), -1.0)),
            mode=magic.IID,
        )
        return iid, corr, built

    @pytest.mark.parametrize("t", TS)
    def test_views_json_and_equality_agree(self, t):
        for d in self.draws(t):
            assert len(d.entries) == d.k
            assert all(isinstance(x, int) and 0 <= x < 1 << t for x, _ in d.entries)
            assert [ph for _, ph in d.entries] == d.phases().tolist()
            assert magic.lane_words([x for x, _ in d.entries], t).tolist() == d.labels.tolist()
            data = d.to_json()
            assert [int(e["x"], 16) for e in data["entries"]] == [x for x, _ in d.entries]
            assert [complex(*e["phase"]) for e in data["entries"]] == d.phases().tolist()
            loaded = magic.SparseDecomposition.from_json(json.loads(json.dumps(data)))
            assert loaded == d and loaded.entries == d.entries
            rebuilt = magic.SparseDecomposition(
                t=t, k=d.k, prefactor=d.prefactor, entries=d.entries, mode=d.mode, f_t=d.f_t
            )
            assert rebuilt == d

    @pytest.mark.parametrize("t", TS)
    def test_inequality_reads_every_term(self, t):
        iid, _, built = self.draws(t)
        flipped = magic.SparseDecomposition(
            t=t, k=3, prefactor=0.5, entries=built.entries[:2] + ((1 << (t - 1), 1.0),),
            mode=magic.IID,
        )
        moved = magic.SparseDecomposition(
            t=t, k=3, prefactor=0.5, entries=built.entries[:2] + ((0, -1.0),), mode=magic.IID,
        )
        assert flipped != built and moved != built and iid != built
        assert built != built.entries

    @pytest.mark.parametrize("t", TS)
    def test_entries_view_is_cached(self, t):
        for d in self.draws(t):
            assert d.entries is d.entries

    @pytest.mark.parametrize("t", TS)
    def test_arrays_are_read_only(self, t):
        for d in self.draws(t):
            for array in (d.labels, d.phases()):
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[0] = 0

    @pytest.mark.parametrize("t", TS)
    def test_label_dtype_follows_lane_bytes(self, t):
        want = np.dtype(f"<u{magic.lane_bytes(t)}") if t <= 64 else np.dtype("<u8")
        for d in self.draws(t):
            assert d.labels.dtype == want
            assert d.labels.shape == (d.k, 1 if t <= 64 else -(-t // 64))
            assert d.phases().dtype == np.complex128 and d.phases().shape == (d.k,)

    def test_constructor_keeps_the_arrays_read_only(self):
        labels, phases = np.array([[5], [0]], np.uint8), np.array([1j, -1.0])
        d = magic.SparseDecomposition(t=3, k=2, prefactor=1.0, mode=magic.IID,
                                      labels=labels, phases=phases)
        assert d.labels is labels and d.phases() is phases
        assert not labels.flags.writeable and not phases.flags.writeable
        assert d.entries == ((5, 1j), (0, -1 + 0j))

    def test_term_count_must_equal_k(self):
        with pytest.raises(ValueError, match="entry count must equal k"):
            magic.SparseDecomposition(t=3, k=2, prefactor=1.0, mode=magic.IID,
                                      labels=np.zeros((2, 1), np.uint8), phases=np.ones(1))

    @pytest.mark.parametrize("mode, f_t, needle", [
        ("BOGUS", 0, "unknown decomposition mode 'BOGUS'"),
        (magic.THEOREM1, 2, "multiple of f_t + 1 = 3, got k = 2"),
        (magic.THEOREM2, 3, "multiple of f_t + 1 = 4, got k = 2"),
    ], ids=["mode-unknown", "theorem1-groups", "theorem2-groups"])
    def test_mode_and_group_size_checked(self, mode, f_t, needle):
        # groups of f_t + 1 must tile the k terms, or the last runs past k
        entries = ((3, 1.0), (12, 1j))
        assert magic.SparseDecomposition(4, 2, 1.0, entries, magic.THEOREM1, 1).groups == ((0, 2),)
        with pytest.raises(ValueError, match=re.escape(needle)):
            magic.SparseDecomposition(4, 2, 1.0, entries, mode, f_t)


def reference_entries(model, seeds, shifts):
    """Per-row reference sampler: one rng.random(t) call per seed, bits
    set one by one, each member's phase u0^(t-w) u1^w computed on its own."""
    entries = []
    for draws in seeds:
        seed = 0
        for q in range(model.t):
            if draws[q] < model.p1:
                seed |= 1 << q
        for shift in shifts:
            bits = seed ^ shift
            w = bin(bits).count("1")
            entries.append((bits, model.u0 ** (model.t - w) * model.u1**w))
    return tuple(entries)


class TestSamplingStream:
    """The batched samplers reproduce the per-row loop entry for entry and
    leave the generator at the same position."""

    # every lane size (1, 2, 4 and 8 bytes), each lane partly and fully
    # filled, and multi-word lanes of 2 and 3 uint64 words beyond 64 bits
    @pytest.mark.parametrize("t", [1, 7, 8, 9, 17, 24, 31, 32, 33, 40, 48, 56, 63, 64, 65,
                                   96, 130])
    def test_iid_matches_per_row_loop(self, t):
        m = magic.magic_model(PI4, t)
        for k in (1, 7, 50):
            got_rng, ref_rng = np.random.default_rng(t + k), np.random.default_rng(t + k)
            d = magic.sample_iid(m, k, got_rng)
            want = reference_entries(m, [ref_rng.random(t) for _ in range(k)], (0,))
            assert d.entries == want
            assert got_rng.random() == ref_rng.random()

    @pytest.mark.parametrize("t", [8, 24, 32, 48, 64, 96])
    def test_correlated_matches_per_row_loop(self, t):
        m = magic.magic_model(PI4, t)
        mask_set = masks.generate_masks_even(t)
        for f_t in (0, 1, 3, len(mask_set)):
            got_rng, ref_rng = np.random.default_rng(t * f_t), np.random.default_rng(t * f_t)
            d = magic.sample_correlated(m, mask_set, f_t, 40, got_rng)
            groups = math.ceil(40 / (f_t + 1))
            shifts = (0,) + tuple(mask_set.masks[:f_t])
            want = reference_entries(m, [ref_rng.random(t) for _ in range(groups)], shifts)
            assert d.entries == want
            assert d.groups == tuple((g * (f_t + 1), f_t + 1) for g in range(groups))
            assert got_rng.random() == ref_rng.random()

    @pytest.mark.parametrize("step", ["bitwise_count", "zeros"])
    def test_refused_lane_allocation_is_a_value_error(self, step, monkeypatch):
        # the lanes, weights and phases are allocated after the draw succeeded;
        # a refusal there gets the same message as a refused draw
        def refuse(*args, **kwargs):
            raise MemoryError("refused")

        m, rng = magic.magic_model(PI4, 32), np.random.default_rng(1)
        mask_set = masks.generate_masks_pow2(32)
        monkeypatch.setattr(np, step, refuse)
        with pytest.raises(ValueError, match=r"cannot draw k = 128 terms at t = 32"):
            magic.sample_correlated(m, mask_set, 63, 100, rng)

    def test_refused_draw_names_the_exact_group_multiple(self):
        # past 2^53 a float ceiling of k_total / (f_t + 1) named a k below
        # the group multiple; numpy refuses the draw's shape before allocating
        m, rng = magic.magic_model(PI4, 64), np.random.default_rng(1)
        mask_set = masks.generate_masks_even(64)
        message = r"cannot draw k = 1152921504606846978 terms at t = 64"
        with pytest.raises(ValueError, match=message):
            magic.sample_correlated(m, mask_set, 2, 2**60 + 1, rng)

    def test_off_pi4_phases(self):
        # p1 != 1/2 and u0 != u1 exercise both the threshold and the table
        m = magic.magic_model(0.3, 12)
        got_rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
        d = magic.sample_iid(m, 30, got_rng)
        assert d.entries == reference_entries(m, [ref_rng.random(12) for _ in range(30)], (0,))
