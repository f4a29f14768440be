import hashlib
import math
import time

import numpy as np
import pytest

from stabsparse import bench, costmodel, dense, estimator, magic, masks, quadform
from stabsparse import stabilizer as sb

PI4 = math.pi / 4


def full_decomposition(t):
    """The exact 2^t-term decomposition at phi = pi/4 (equal magnitudes)."""
    m = magic.magic_model(PI4, t)
    entries = tuple(
        (bits, m.u0 ** (t - masks.popcount(bits)) * m.u1 ** masks.popcount(bits))
        for bits in range(1 << t)
    )
    return m, magic.SparseDecomposition(
        t=t, k=1 << t, prefactor=m.l1 / (1 << t), entries=entries, mode=magic.IID
    )


class TestExactSqnorm:
    def test_single_term_gives_extent(self):
        m = magic.magic_model(PI4, 5)
        d = magic.SparseDecomposition(
            t=5, k=1, prefactor=m.l1, entries=((0, m.u0**5),), mode=magic.IID
        )
        assert estimator.exact_sqnorm(d).value == pytest.approx(m.xi_t, rel=1e-12)

    def test_against_dense(self):
        rng = np.random.default_rng(0)
        for t in (1, 2, 3, 4):
            m = magic.magic_model(PI4, t)
            d = magic.sample_iid(m, int(rng.integers(1, 12)), rng)
            vec = magic.dense_decomposition(d)
            assert estimator.exact_sqnorm(d).value == pytest.approx(
                float(np.vdot(vec, vec).real), abs=1e-9
            )

    def test_duplicate_entries(self):
        m = magic.magic_model(PI4, 3)
        entry = (0b101, m.u0 * m.u1**2)
        d = magic.SparseDecomposition(
            t=3, k=2, prefactor=m.l1 / 2, entries=(entry, entry), mode=magic.IID
        )
        assert estimator.exact_sqnorm(d).value == pytest.approx(m.xi_t, rel=1e-12)

    def test_entry_reordering_invariant(self):
        m = magic.magic_model(PI4, 4)
        d = magic.sample_iid(m, 9, np.random.default_rng(1))
        shuffled = magic.SparseDecomposition(
            t=4, k=9, prefactor=d.prefactor, entries=tuple(reversed(d.entries)),
            mode=magic.IID,
        )
        assert estimator.exact_sqnorm(d).value == estimator.exact_sqnorm(shuffled).value

    def test_entry_reordering_invariant_across_tiles(self):
        # k = 1500 splits the Gram sum into several row tiles
        k = 1500
        assert estimator._TILE_ENTRIES // k < k
        m = magic.magic_model(PI4, 8)
        d = magic.sample_iid(m, k, np.random.default_rng(2))
        shuffled = magic.SparseDecomposition(
            t=8, k=k, prefactor=d.prefactor, entries=tuple(reversed(d.entries)),
            mode=magic.IID,
        )
        want = estimator.exact_sqnorm(d).value
        assert estimator.exact_sqnorm(shuffled).value == pytest.approx(want, rel=1e-12)

    def test_terms_path_matches_fast_path(self):
        m = magic.magic_model(PI4, 4)
        d = magic.sample_iid(m, 7, np.random.default_rng(2))
        assert estimator.sqnorm_terms(magic.to_states(d)) == pytest.approx(
            estimator.exact_sqnorm(d).value, abs=1e-10
        )

    def test_unitary_invariance(self):
        rng = np.random.default_rng(3)
        m = magic.magic_model(PI4, 3)
        d = magic.sample_iid(m, 6, rng)
        op = sb.random_clifford_word(3, 30, rng)
        terms = [(w, sb.apply_clifford(stt, op)) for w, stt in magic.to_states(d)]
        assert estimator.sqnorm_terms(terms) == pytest.approx(
            estimator.exact_sqnorm(d).value, abs=1e-9
        )

    def test_metadata(self):
        m = magic.magic_model(PI4, 2)
        est = estimator.exact_sqnorm(magic.sample_iid(m, 3, np.random.default_rng(4)))
        assert est.method == estimator.EXACT
        assert est.samples_used == 0


class TestFastnorm:
    def test_unbiased_on_basis_state(self):
        d = magic.SparseDecomposition(
            t=2, k=1, prefactor=1.0, entries=((0, 1.0 + 0j),), mode=magic.IID
        )
        rng = np.random.default_rng(5)
        reps = 3000
        values = [estimator.fastnorm(d, 1, rng).value for _ in range(reps)]
        mean = np.mean(values)
        sigma = np.std(values) / math.sqrt(reps)
        assert abs(mean - 1.0) <= 3 * sigma

    def test_deterministic_under_seed(self):
        m = magic.magic_model(PI4, 3)
        d = magic.sample_iid(m, 4, np.random.default_rng(6))
        a = estimator.fastnorm(d, 25, np.random.default_rng(7)).value
        b = estimator.fastnorm(d, 25, np.random.default_rng(7)).value
        assert a == b

    def test_mean_converges_to_exact_t8(self):
        # sample mean over many single-draw repetitions sits inside a
        # 3-sigma band around the exact squared norm
        m = magic.magic_model(PI4, 8)
        d = magic.sample_iid(m, 12, np.random.default_rng(20))
        exact = estimator.exact_sqnorm(d).value
        rng = np.random.default_rng(21)
        reps = 10_000
        values = np.array([estimator.fastnorm(d, 1, rng).value for _ in range(reps)])
        sem = values.std(ddof=1) / math.sqrt(reps)
        assert abs(values.mean() - exact) <= 3 * sem

    def test_covers_the_gram_range(self):
        # 2^t |<theta|0^t>|^2 is 0 or 2^(t - r) for a support of dimension
        # r, so the estimate is an exact power of two even at t = 1024,
        # where 2.0**t itself overflows
        def basis_state(t):
            return magic.SparseDecomposition(
                t=t, k=1, prefactor=1.0, entries=((0, 1.0 + 0j),), mode=magic.IID
            )

        value = estimator.fastnorm(basis_state(1024), 1, np.random.default_rng(3)).value
        assert value == 0.0 or (math.isfinite(value) and math.frexp(value)[0] == 0.5)
        with pytest.raises(ValueError, match="t <= 1024"):
            estimator.fastnorm(basis_state(1025), 1, np.random.default_rng(3))

    def test_concentrates_near_exact(self):
        m = magic.magic_model(PI4, 4)
        d = magic.sample_iid(m, 8, np.random.default_rng(8))
        exact = estimator.exact_sqnorm(d).value
        est = estimator.fastnorm(d, 600, np.random.default_rng(9))
        assert est.value == pytest.approx(exact, rel=0.3)
        assert est.method == estimator.FASTNORM
        assert est.samples_used == 600

    @pytest.mark.parametrize(
        "m_samples, rng",
        [
            (5, None),  # no rng
            (5, 7),  # a seed, not a Generator
            (True, np.random.default_rng(0)),  # a bool is no sample count
            (2.0, np.random.default_rng(0)),
            (0, np.random.default_rng(0)),
        ],
    )
    def test_bad_arguments_rejected(self, m_samples, rng):
        d = magic.sample_iid(magic.magic_model(PI4, 3), 4, np.random.default_rng(6))
        with pytest.raises(ValueError):
            estimator.fastnorm(d, m_samples, rng)

    @pytest.mark.parametrize("lane_entries", [None, 40])
    def test_rng_pinned_after_a_chain_and_a_norm(self, monkeypatch, lane_entries):
        # pins the rng right after a FASTNORM chain whose last step
        # annihilates and right after a fastnorm call, recorded when every
        # sample drew its state alone: sample chunks never draw a state they
        # do not use, also at 40 lane entries (one sample a chunk, 6 lanes a tile)
        if lane_entries:
            monkeypatch.setattr(quadform, "_LANE_ENTRIES", lane_entries)
        rng = np.random.default_rng(1901)
        d = magic.sample_iid(magic.magic_model(PI4, 6), 5, rng)
        circuit = sb.random_clifford_word(6, 30, rng)
        z0, z1 = sb.PauliOperator.from_string("ZIIIII"), sb.PauliOperator.from_string("IZIIII")
        est = estimator.pauli_prob(d, circuit, [(z0, 1), (z1, 1), (z0, -1)],
                                   method=estimator.FASTNORM, fastnorm_samples=37, rng=rng)
        assert est.step_values == (0.49705576983809635, 0.8873837950230609, 0.0)
        assert rng.random() == 0.37769487598557583
        assert estimator.fastnorm(d, 41, rng).value == 0.9921114813650289
        assert rng.random() == 0.32390881348044187

    @pytest.mark.parametrize("t", [16, 70])
    def test_lanes_in_many_chunks_bit_equal(self, monkeypatch, t):
        # one sample a chunk and 20 lanes a tile give the bits of one chunk in
        # one tile (which sheds idle lanes), for Paulis with X and Z parts
        rng = np.random.default_rng(1950 + t)
        d = magic.sample_iid(magic.magic_model(PI4, t), 12, rng)
        bits = [int.from_bytes(rng.bytes(9), "little") >> (72 - t) for _ in range(4)]
        pauli_sum = {(0, 0): 0.5, (bits[0], bits[1]): 0.25j, (bits[2], 0): -0.5, (0, bits[3]): 0.5}
        labels = magic.lane_words([b for b, _ in d.entries], t)
        states = [quadform.random_stabilizer_state(t, rng) for _ in range(5)]

        def run():
            value = estimator._sampled_sqnorm(d, pauli_sum, 6, np.random.default_rng(7))
            return value, quadform.overlaps(states, pauli_sum, labels)

        assert 6 * len(pauli_sum) * d.k >= quadform._SHED_LANES
        value, overlaps = run()
        assert np.count_nonzero(overlaps) and not np.all(overlaps)
        monkeypatch.setattr(quadform, "_LANE_ENTRIES", 20 * t * (1 if t <= 64 else 2))
        assert quadform.lane_tile(t) == 20 and quadform.chunk_states(t, 4 * d.k) == 1
        chunked_value, chunked = run()
        assert chunked_value == value
        assert np.array_equal(chunked.view(np.float64), overlaps.view(np.float64))


class TestApproxError:
    def test_exact_decomposition_is_zero(self):
        m, d = full_decomposition(3)
        assert estimator.approx_error(d, m) == pytest.approx(0, abs=1e-9)

    def test_error_scaling_in_k(self):
        m = magic.magic_model(PI4, 3)
        rng = np.random.default_rng(10)
        ks = [10, 100, 1000]
        means = []
        for k in ks:
            errs = [estimator.approx_error(magic.sample_iid(m, k, rng), m) for _ in range(400)]
            means.append(np.mean(errs))
        slope = np.polyfit(np.log(ks), np.log(means), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.1)

    def test_mean_square_matches_envelope(self):
        # E||Psi - psi||^2 = (xi - 1)/k for i.i.d. sampling
        m = magic.magic_model(PI4, 8)
        rng = np.random.default_rng(11)
        k = 40
        errs = [estimator.approx_error(magic.sample_iid(m, k, rng), m) ** 2 for _ in range(300)]
        envelope = (m.xi_t - 1.0) / k
        sem = np.std(errs) / math.sqrt(len(errs))
        assert np.mean(errs) <= envelope + 1.645 * sem

    def test_cap_enforced(self):
        m = magic.magic_model(PI4, 13)
        d = magic.SparseDecomposition(
            t=13, k=1, prefactor=m.l1, entries=((0, m.u0**13),), mode=magic.IID
        )
        with pytest.raises(ValueError):
            estimator.approx_error(d, m)

    def test_model_of_another_t_rejected(self):
        d = magic.sample_iid(magic.magic_model(PI4, 4), 5, np.random.default_rng(13))
        with pytest.raises(ValueError, match="decomposition and model disagree on t"):
            estimator.approx_error(d, magic.magic_model(PI4, 3))


class TestRho1:
    def test_exact_decomposition_gives_zero(self):
        m, d = full_decomposition(3)
        dist = estimator.rho1_distance(m, lambda rng: d, 3, np.random.default_rng(12))
        assert dist == pytest.approx(0, abs=1e-9)

    def test_distance_decreases_with_trials(self):
        m = magic.magic_model(PI4, 4)
        ms = masks.generate_masks_pow2(4)

        def draw(rng):
            return magic.sample_correlated(m, ms, 3, 4, rng)

        rng = np.random.default_rng(13)
        target = magic.dense_target(m)
        proj = np.outer(target, np.conjugate(target))
        acc = np.zeros((16, 16), dtype=np.complex128)
        dists = []
        done = 0
        for total in (200, 800, 3200):
            while done < total:
                vec = magic.dense_decomposition(draw(rng))
                acc += np.outer(vec, np.conjugate(vec)) / np.vdot(vec, vec).real
                done += 1
            dists.append(dense.trace_norm(acc / done - proj))
        assert dists[0] + 1e-3 >= dists[1] >= dists[2] - 1e-3

    def test_cap_enforced(self):
        m = magic.magic_model(PI4, 11)
        with pytest.raises(ValueError):
            estimator.rho1_distance(m, lambda rng: None, 1, np.random.default_rng(14))


class TestPauliProb:
    def test_z_on_magic_qubit(self):
        # the polar-family magic state cos(pi/8)|0> + sin(pi/8)|1> gives
        # P(Z=+1) = cos^2(pi/8) = (2 + sqrt 2)/4; cross-checked densely
        m, d = full_decomposition(1)
        est = estimator.pauli_prob(d, None, [(sb.PauliOperator.from_string("Z"), 1)])
        vec = magic.dense_target(m)
        truth = abs(vec[0]) ** 2
        assert truth == pytest.approx((2 + math.sqrt(2)) / 4, abs=1e-12)
        assert est.value == pytest.approx(truth, abs=1e-9)

    def test_x_on_magic_qubit(self):
        # P(X=+1) = (1 + sin phi)/2, which at phi = pi/4 equals
        # (1 + cos(pi/4))/2 ~ 0.85355
        m, d = full_decomposition(1)
        est = estimator.pauli_prob(d, None, [(sb.PauliOperator.from_string("X"), 1)])
        assert est.value == pytest.approx((1 + math.cos(PI4)) / 2, abs=1e-9)

    def test_complete_decomposition_matches_dense(self):
        rng = np.random.default_rng(15)
        m, d = full_decomposition(4)
        op = sb.random_clifford_word(4, 50, rng)
        p1 = sb.random_pauli(4, rng)
        p2 = sb.random_pauli(4, rng)
        chain = [(p1, 1), (p2, -1)]
        est = estimator.pauli_prob(d, op, chain)
        vec = dense.apply_clifford_dense(magic.dense_target(m), op)
        truth = 1.0
        for p, outcome in chain:
            res = dense.projector_factor(vec, p, outcome, 4)
            if res is None:
                truth = 0.0
                break
            vec, factor = res
            truth *= factor
        assert est.value == pytest.approx(truth, abs=1e-8)

    def test_chain_rule_consistency(self):
        rng = np.random.default_rng(16)
        m, d = full_decomposition(3)
        op = sb.random_clifford_word(3, 40, rng)
        p1, p2 = sb.random_pauli(3, rng), sb.random_pauli(3, rng)
        prefix = estimator.pauli_prob(d, op, [(p1, 1)])
        both = sum(
            estimator.pauli_prob(d, op, [(p1, 1), (p2, s)]).raw_value for s in (1, -1)
        )
        assert both == pytest.approx(prefix.raw_value, abs=1e-8)

    def test_annihilated_gives_zero(self):
        d = magic.SparseDecomposition(
            t=1, k=1, prefactor=1.0, entries=((0, 1.0 + 0j),), mode=magic.IID
        )
        est = estimator.pauli_prob(d, None, [(sb.PauliOperator.from_string("Z"), -1)])
        assert est.value == 0.0

    def test_numerically_annihilated_gives_zero(self):
        # |1> (x) (a|0> + b|+>) with |1> = sqrt2 |+> - |0>: measuring Z = +1 on
        # qubit 0 leaves a positive rounding residue (4e-16 against a norm of
        # 7.5), which counts as annihilation
        a = 1.4209820223119163 + 0.843732662303268j
        b = 0.726093788947765 + 1.1648639811110282j
        entries = ((0b00, -a), (0b01, math.sqrt(2) * a), (0b10, -b), (0b11, math.sqrt(2) * b))
        d = magic.SparseDecomposition(
            t=2, k=4, prefactor=1.0, entries=entries, mode=magic.IID
        )
        chain = [(sb.PauliOperator.from_string(s), 1) for s in ("ZI", "IX")]
        est = estimator.pauli_prob(d, None, chain)
        assert est.raw_value == 0.0
        assert est.step_values == (0.0, 0.0)

    def test_sparsified_estimate_lands_near_truth(self):
        rng = np.random.default_rng(17)
        m = magic.magic_model(PI4, 4)
        ms = masks.generate_masks_pow2(4)
        gamma = magic.gamma_bound(m, ms, 4)
        k = costmodel.k_theorem1(m.xi_t, 0.2, gamma)
        k = -(-k // 5) * 5
        d = magic.sample_correlated(m, ms, 4, k, rng)
        op = sb.random_clifford_word(4, 100, rng)
        p1 = sb.random_pauli(4, rng)
        est = estimator.pauli_prob(d, op, [(p1, 1)])
        vec = dense.apply_clifford_dense(magic.dense_target(m), op)
        res = dense.projector_factor(vec, p1, 1, 4)
        truth = res[1] if res else 0.0
        assert abs(est.value - truth) <= 0.45  # coarse: one draw at delta = 0.2
        assert 0.0 <= est.value <= 1.0

    def test_fastnorm_method(self):
        m, d = full_decomposition(2)
        exact = estimator.pauli_prob(d, None, [(sb.PauliOperator.from_string("ZI"), 1)])
        est = estimator.pauli_prob(
            d,
            None,
            [(sb.PauliOperator.from_string("ZI"), 1)],
            method=estimator.FASTNORM,
            fastnorm_samples=800,
            rng=np.random.default_rng(18),
        )
        assert est.norm_method == estimator.FASTNORM
        assert est.value == pytest.approx(exact.value, abs=0.2)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            sb.PauliOperator(1, 1, 0, 1j)

    def test_clamping_flag(self):
        # a sparsified norm ratio can exceed 1; force it with a tiny
        # artificial decomposition whose norm grows under projection
        m = magic.magic_model(PI4, 1)
        d = magic.SparseDecomposition(
            t=1, k=2, prefactor=m.l1 / 2, entries=((0, 1.0 + 0j), (1, 1.0 + 0j)),
            mode=magic.IID,
        )
        est = estimator.pauli_prob(d, None, [(sb.PauliOperator.from_string("X"), 1)])
        assert est.value <= 1.0
        assert est.clamped == (est.raw_value > 1.0)


def ch_chain_steps(decomp, circuit, chain):
    """Per-step conditionals of the CH-form reference: every term through the
    circuit and each projector, norms from sqnorm_terms."""
    terms = magic.to_states(decomp)
    if circuit is not None:
        terms = [(w, sb.apply_clifford(stt, circuit)) for w, stt in terms]
    norm_prev = estimator.sqnorm_terms(terms)
    steps = []
    for p, outcome in chain:
        projected = []
        for w, stt in terms:
            res = sb.project_pauli(stt, p, outcome)
            if res is not None:
                projected.append((w * math.sqrt(res[1]), res[0]))
        terms = projected
        norm_next = estimator.sqnorm_terms(terms) if terms else 0.0
        steps.append(norm_next / norm_prev if norm_prev > 0 else 0.0)
        norm_prev = norm_next
    return steps


def dense_chain_steps(decomp, circuit, chain):
    return dense_vector_steps(magic.dense_decomposition(decomp), decomp.t, circuit, chain)


def dense_vector_steps(vec, t, circuit, chain):
    """Per-step conditionals of the chain on a dense vector, zero-padded
    from the first annihilated step on."""
    if circuit is not None:
        vec = dense.apply_clifford_dense(vec, circuit)
    steps = []
    for p, outcome in chain:
        res = dense.projector_factor(vec, p, outcome, t)
        if res is None:
            break
        vec, factor = res
        steps.append(factor)
    return steps + [0.0] * (len(chain) - len(steps))


def row_product_conjugate(tab, p):
    """U^dag P U as a Pauli sum {(x, z): c}, multiplying the rows U^dag X_q U
    and U^dag Z_q U of ``tab``, the tableau of U^dag, as P = phase i^e X^x Z^z
    dictates: the reference for ``CliffordOp.conjugate_paulis``."""
    out = {(0, 0): p.phase * 1j ** p.xz_phase_power()}
    for row in sb._ones(p.x_bits) + [p.n + q for q in sb._ones(p.z_bits)]:
        r = tab.row_pauli(row)
        out = estimator._product(out, {(r.x_bits, r.z_bits): r.phase * 1j ** r.xz_phase_power()})
    return out


class TestHeisenbergPauliProb:
    @staticmethod
    def chains(t, rng):
        ys = sb.PauliOperator.from_string("Y" * t)
        p = sb.random_pauli(t, rng)
        q = sb.random_pauli(t, rng)
        minus_y = sb.PauliOperator.from_string("-" + "Y" + "XZ"[t % 2] * (t - 1))
        ident = sb.PauliOperator(t, 0, 0)
        neg_ident = sb.PauliOperator(t, 0, 0, -1)
        return [
            [(ys, 1)],
            [(minus_y, -1), (p, 1)],
            [(p, 1), (q, -1), (ys, 1)],
            [(p, -1), (p, -1), (q, 1)],  # repeated Pauli
            [(ident, 1), (p, 1)],
            [(neg_ident, 1), (p, 1)],  # -I annihilates at once
            [(p, 1), (p, -1)],  # annihilated at step 2
        ]

    def test_matches_ch_reference_and_dense(self):
        rng = np.random.default_rng(40)
        for t in range(1, 7):
            m = magic.magic_model(PI4, t)
            for circuit in (None, sb.random_clifford_word(t, 60, rng)):
                d = magic.sample_iid(m, int(rng.integers(1, 9)), rng)
                for chain in self.chains(t, rng):
                    est = estimator.pauli_prob(d, circuit, chain)
                    ref = ch_chain_steps(d, circuit, chain)
                    truth = dense_chain_steps(d, circuit, chain)
                    assert len(est.step_values) == len(chain)
                    assert est.raw_value == pytest.approx(math.prod(ref), abs=1e-12)
                    assert est.step_values == pytest.approx(ref, abs=1e-12)
                    assert est.raw_value == pytest.approx(math.prod(truth), abs=1e-9)
                    assert est.step_values == pytest.approx(truth, abs=1e-9)

    def test_conjugation_matches_dense(self):
        rng = np.random.default_rng(41)
        for t in range(1, 5):
            for _ in range(10):
                op = sb.random_clifford_word(t, 40, rng)
                p = sb.random_pauli(t, rng)
                (image,) = op.conjugate_paulis([p])
                u = dense.clifford_unitary(op)
                want = u.conj().T @ dense.pauli_matrix(p) @ u
                assert np.abs(dense.pauli_matrix(image) - want).max() < 1e-12

    @pytest.mark.parametrize("t, gates", [(t, 1000) for t in range(1, 9)] + [(70, 2000)])
    def test_conjugation_matches_row_products(self, t, gates):
        # the Heisenberg frame against products of the rows of the inverse
        # word's tableau; n = 70 spans two 64-bit words
        rng = np.random.default_rng(1000 + t)
        op = sb.random_clifford_word(t, gates, rng)
        tab = op.inverse().tableau()
        paulis = [sb.random_pauli(t, rng) for _ in range(12)]
        paulis += [sb.PauliOperator(t, 0, 0, -1)]
        images = op.conjugate_paulis(paulis)
        assert len(images) == len(paulis)
        for p, image in zip(paulis, images):
            got = {(image.x_bits, image.z_bits): image.phase * 1j ** image.xz_phase_power()}
            assert got == row_product_conjugate(tab, p)

    @pytest.mark.parametrize(
        "circuit, chain, kwargs",
        [
            (None, [("Z", 0)], {}),  # outcome other than +-1
            (sb.CliffordOp(3), [("Z", 1)], {}),  # circuit of the wrong size
            (None, [("ZZ", 1)], {}),  # Pauli of the wrong size
            (None, [("Z", 1)], dict(method="BOGUS")),
            (None, [("Z", 1)], dict(method=estimator.FASTNORM)),  # no rng
        ],
    )
    def test_bad_arguments_rejected(self, circuit, chain, kwargs):
        _, d = full_decomposition(1)
        chain = [(sb.PauliOperator.from_string(s), o) for s, o in chain]
        with pytest.raises(ValueError):
            estimator.pauli_prob(d, circuit, chain, **kwargs)

    def test_fastnorm_ch_branch_pooled_mean(self):
        # every sample draws a stabilizer state and sums closed-form overlaps
        start = time.perf_counter()
        rng = np.random.default_rng(42)
        m = magic.magic_model(PI4, 13)
        d = magic.sample_iid(m, 3, rng)
        circuit = sb.random_clifford_word(13, 50, rng)
        chain = [(sb.PauliOperator.from_string("ZYIIIIIIIIIIX"), 1)]
        exact = estimator.pauli_prob(d, circuit, chain).raw_value
        values = np.array([
            estimator.pauli_prob(
                d, circuit, chain, method=estimator.FASTNORM, fastnorm_samples=50, rng=rng
            ).raw_value
            for _ in range(10)
        ])
        sem = values.std(ddof=1) / math.sqrt(len(values))
        assert abs(values.mean() - exact) <= 5 * sem
        assert time.perf_counter() - start < 30

    def test_fastnorm_chain_steps_pinned(self):
        # pins FASTNORM step values bit for bit over chains whose conjugated
        # Paulis have X parts, so form_overlaps runs with x != 0
        h = hashlib.sha256()
        moved = 0
        for t in (2, 5, 9, 16):
            rng = np.random.default_rng(900 + t)
            m = magic.magic_model(PI4, t)
            for _ in range(3):
                d = magic.sample_iid(m, 6, rng)
                circuit = sb.random_clifford_word(t, 40, rng)
                chain = [(sb.random_pauli(t, rng), 1), (sb.random_pauli(t, rng), -1)]
                images = circuit.conjugate_paulis([p for p, _ in chain])
                moved += sum(image.x_bits != 0 for image in images)
                est = estimator.pauli_prob(
                    d, circuit, chain, method=estimator.FASTNORM, fastnorm_samples=8, rng=rng
                )
                h.update(repr(est.step_values).encode())
        assert moved >= 16
        assert h.hexdigest() == (
            "bd976ba71fcefdb51e5a061d762c16650a45f686d5c2da428c8848349b833199"
        )

    @staticmethod
    def anticommuting(p, rng):
        """A random Pauli that anticommutes with p (p must not be +-I)."""
        while True:
            q = sb.random_pauli(p.n, rng)
            if ((p.x_bits & q.z_bits).bit_count() + (p.z_bits & q.x_bits).bit_count()) % 2:
                return q

    def test_exact_chain_pinned(self, monkeypatch):
        # pins EXACT raw_value and step_values bit for bit over 240 cases:
        # k in {1, 2, 5, 32, 64} (i.i.d., and correlated at t = 8, 64 and
        # k >= 32), t in {1, 3, 8, 64, 65, 96} (t = 65, 96 in two 64-bit
        # words), chains of 1-4 Paulis: commuting (a repeated Pauli) and
        # anticommuting pairs, all-Y Paulis and one annihilated step; each
        # in one row tile and, at 97 entries a tile, in several
        cases = []
        for t in (1, 3, 8, 64, 65, 96):
            m = magic.magic_model(PI4, t)
            for k in (1, 2, 5, 32, 64):
                rng = np.random.default_rng(1600 + 100 * t + k)
                if t in (8, 64) and k >= 32:
                    d = magic.sample_correlated(m, bench.default_masks(t, 3), 3, k, rng)
                else:
                    d = magic.sample_iid(m, k, rng)
                circuit = None if k == 1 else sb.random_clifford_word(t, 3 * t + 10, rng)
                p = sb.random_pauli(t, rng)
                while not (p.x_bits or p.z_bits):
                    p = sb.random_pauli(t, rng)
                anti = self.anticommuting(p, rng)
                q, r = sb.random_pauli(t, rng), sb.random_pauli(t, rng)
                ys = sb.PauliOperator.from_string("-" * (k % 2) + "Y" * t)
                cases += [(d, circuit, chain) for chain in (
                    [(p, 1)],
                    [(ys, -1)],
                    [(p, 1), (anti, -1)],
                    [(p, -1), (q, 1), (p, -1)],  # a repeated Pauli commutes with itself
                    [(ys, 1), (p, 1), (anti, 1), (q, -1)],
                    [(q, -1), (r, 1), (ys, -1), (p, 1)],
                    [(p, 1), (anti, 1), (p, -1)],  # O_3 has no identity term
                    [(p, 1), (p, -1)],  # annihilated at step 2
                )]
        assert len(cases) == 240
        h = hashlib.sha256()
        zeros = live = 0
        for tile_entries in (1 << 18, 97):
            monkeypatch.setattr(estimator, "_TILE_ENTRIES", tile_entries)
            for d, circuit, chain in cases:
                est = estimator.pauli_prob(d, circuit, chain)
                h.update(repr((est.raw_value, est.step_values)).encode())
                zeros += est.step_values[-1] == 0.0
                live += est.raw_value > 1e-3
        assert zeros >= 60
        assert live >= 300
        assert h.hexdigest() == (
            "c8d790f0c0115a7ce768139a939d61579e0b06fbcf9bdd537e9bf5bbe3521ee3"
        )


class TestGramKernel:
    T = 96  # two uint64 words per bitstring

    def brute(self, bits, phases, x, z):
        full = (1 << self.T) - 1
        total = 0j
        for a, pa in zip(bits, phases):
            for b, pb in zip(bits, phases):
                if (x & ~a & ~b & full) or (z & a & b):
                    continue
                sign = -1 if (x & z & ~a & b).bit_count() & 1 else 1
                total += np.conjugate(pa) * pb * sign * 2.0 ** (-(a ^ b).bit_count() / 2)
        return total

    def decomposition(self, rng, k=20):
        # mostly-zero strings keep the Pauli entries away from all-zero Grams
        bits = [
            int.from_bytes(rng.bytes(12), "little") & int.from_bytes(rng.bytes(12), "little")
            & int.from_bytes(rng.bytes(12), "little")
            for _ in range(k)
        ]
        phases = np.exp(2j * math.pi * rng.random(k))
        return magic.SparseDecomposition(
            t=self.T, k=k, prefactor=0.3, entries=tuple(zip(bits, phases)), mode=magic.IID
        )

    def test_exact_sqnorm_two_words(self, monkeypatch):
        monkeypatch.setattr(estimator, "_TILE_ENTRIES", 64)  # several row tiles
        d = self.decomposition(np.random.default_rng(43))
        bits = [b for b, _ in d.entries]
        want = 0.3**2 * self.brute(bits, d.phases(), 0, 0).real
        assert estimator.exact_sqnorm(d).value == pytest.approx(want, rel=1e-12)

    def test_pauli_entries_two_words(self, monkeypatch):
        monkeypatch.setattr(estimator, "_TILE_ENTRIES", 64)
        rng = np.random.default_rng(44)
        d = self.decomposition(rng)
        bits = [b for b, _ in d.entries]
        full = (1 << self.T) - 1
        for i in range(4):
            # X inside bits[i] | bits[i + 1] and Z off bits[i] & bits[i + 1]
            # keep that pair's entry alive; x & z gives Y factors
            x = (bits[i] | bits[i + 1]) & int.from_bytes(rng.bytes(12), "little")
            z = ~(bits[i] & bits[i + 1]) & full & int.from_bytes(rng.bytes(12), "little")
            (got,) = estimator._gram(*estimator._terms(d), [(x, z)])
            want = self.brute(bits, d.phases(), x, z)
            assert abs(want) > 1e-6
            assert abs(got - want) <= 1e-12 * abs(want)

    def test_fold_matches_brute_force_antisymmetric(self, monkeypatch):
        # k = 23 over tiles of 64 // 23 = 2 rows: eleven full tiles and a
        # partial last one; odd |x & z| makes G_P antisymmetric
        monkeypatch.setattr(estimator, "_TILE_ENTRIES", 64)
        rng = np.random.default_rng(45)
        d = self.decomposition(rng, k=23)
        bits = [b for b, _ in d.entries]
        full = (1 << self.T) - 1
        checked = 0
        for i in range(22):
            x = (bits[i] | bits[i + 1]) & int.from_bytes(rng.bytes(12), "little")
            z = ~(bits[i] & bits[i + 1]) & full & int.from_bytes(rng.bytes(12), "little")
            if (x & z).bit_count() % 2 == 0:
                continue
            checked += 1
            want = self.brute(bits, d.phases(), x, z)
            (got,) = estimator._gram(*estimator._terms(d), [(x, z)])
            assert abs(want) > 1e-6
            assert abs(got - want) <= 1e-12 * abs(want)
            # one call over several Paulis gives each one's single-Pauli value
            pair = [(x, z), (x ^ bits[i], z)]
            got_pair = estimator._gram(*estimator._terms(d), pair)
            for key, value in zip(pair, got_pair):
                want_one = self.brute(bits, d.phases(), *key)
                assert abs(value - want_one) <= 1e-12 * max(abs(want_one), abs(want))
        assert checked >= 5

    def test_kernel_pinned(self, monkeypatch):
        # pins exact_sqnorm and multi-Pauli _gram values bit for bit, recorded
        # while labels sat in uint64 words and every tile allocated afresh: at
        # every lane size (t = 5, 12, 32 and 48, 64 in one 1-, 2-, 4- or 8-byte
        # lane), at two and three 64-bit words (t = 96, 130), in one row tile
        # and in many tiles through reused buffers with a partial last tile
        # (k = 23: 97 // 23 = 4 and 64 // 23 = 2 rows per tile)
        h = hashlib.sha256()
        live = 0
        for tile_entries in (1 << 18, 97, 64):
            monkeypatch.setattr(estimator, "_TILE_ENTRIES", tile_entries)
            for t in (5, 12, 32, 48, 64, 96, 130):
                rng = np.random.default_rng(1300 + t)
                full = (1 << t) - 1
                d = magic.sample_iid(magic.magic_model(PI4, t), 23, rng)
                h.update(repr(estimator.exact_sqnorm(d).value).encode())
                bits = [b for b, _ in d.entries]
                keys = [(0, 0)]
                for i in range(3):
                    # X inside a pair's union and Z off its intersection keep
                    # that pair alive; the three keys are x, z and x & z ones
                    noise = int.from_bytes(rng.bytes(17), "little") & full
                    x = (bits[i] | bits[i + 1]) & noise
                    z = ~(bits[i] & bits[i + 1]) & full & ~noise
                    keys += [(x, 0), (0, z), (x | z, z)]
                values = estimator._gram(*estimator._terms(d, d.prefactor), keys)
                live += sum(abs(v) > 1e-9 for v in values)
                h.update(repr(values).encode())
                h.update(repr(estimator._gram(*estimator._terms(d), keys[-2:])).encode())
        assert live >= 100
        assert h.hexdigest() == (
            "467249a1f490f5f0c5fbd22d40377b389b6311f62f7c3e65126398a3d91aa87e"
        )

    def test_wide_kernel_pinned(self, monkeypatch):
        # pins exact_sqnorm and multi-Pauli _gram values bit for bit past one
        # 64-bit word (t = 65, 72 and 128), recorded while the kernel summed
        # per-word counts over a trailing word axis: in one row tile and in
        # tiles of 97 // (k p) rows with a partial last tile
        h = hashlib.sha256()
        live = 0
        for tile_entries in (1 << 18, 97):
            monkeypatch.setattr(estimator, "_TILE_ENTRIES", tile_entries)
            for t in (65, 72, 128):
                rng = np.random.default_rng(1600 + t)
                full = (1 << t) - 1
                d = magic.sample_iid(magic.magic_model(PI4, t), 29, rng)
                h.update(repr(estimator.exact_sqnorm(d).value).encode())
                bits = [b for b, _ in d.entries]
                keys = [(0, 0)]
                for i in range(3):
                    noise = int.from_bytes(rng.bytes(16), "little") & full
                    x = (bits[i] | bits[i + 1]) & noise
                    z = ~(bits[i] & bits[i + 1]) & full & ~noise
                    keys += [(x, 0), (0, z), (x | z, z)]
                values = estimator._gram(*estimator._terms(d, d.prefactor), keys)
                live += sum(abs(v) > 1e-9 for v in values)
                h.update(repr(values).encode())
                h.update(repr(estimator._gram(*estimator._terms(d), keys[-2:])).encode())
        assert live >= 40
        assert h.hexdigest() == (
            "a6acb6dd695ca3af14bc3991bb216ebdf07950d4fe9d79c336b45aa80b191caa"
        )

    def test_zero_extended_labels_give_the_same_bits(self, monkeypatch):
        # a t = 64 decomposition is the same state with its labels
        # zero-extended to t = 65, 128 and 1024 (one to 16 words): the norm
        # and every Pauli value agree bit for bit across the four widths, in
        # one row tile and in tiles of 97 // (k p) rows
        rng = np.random.default_rng(1700)
        d = magic.sample_iid(magic.magic_model(PI4, 64), 37, rng)
        bits = [b for b, _ in d.entries]
        keys = [(0, 0)]
        for i in range(3):
            noise = int.from_bytes(rng.bytes(8), "little")
            x = (bits[i] | bits[i + 1]) & noise
            z = ~(bits[i] & bits[i + 1]) & ((1 << 64) - 1) & ~noise
            keys += [(x, 0), (0, z), (x | z, z)]
        for tile_entries in (1 << 18, 97):
            monkeypatch.setattr(estimator, "_TILE_ENTRIES", tile_entries)
            values = []
            for t in (64, 65, 128, 1024):
                labels = np.zeros((d.k, -(-t // 64)), np.uint64)
                labels[:, 0] = d.labels[:, 0]
                wide = magic.SparseDecomposition(t, d.k, d.prefactor, labels=labels,
                                                 phases=d.phases())
                gram = estimator._gram(*estimator._terms(wide, wide.prefactor), keys)
                values.append(repr((estimator.exact_sqnorm(wide).value, gram)))
            assert sum(abs(v) > 1e-9 for v in gram) >= 4
            assert values[1:] == values[:1] * 3

    def test_words_use_the_narrowest_lane(self):
        rng = np.random.default_rng(1400)
        cases = [(1, 1), (8, 1), (9, 2), (16, 2), (17, 4), (32, 4), (33, 8), (64, 8),
                 (65, 8), (96, 8), (1024, 8)]
        for t, itemsize in cases:
            values = [0, (1 << t) - 1, 1 << (t - 1)]
            values += [int.from_bytes(rng.bytes(128), "little") >> (1024 - t) for _ in range(5)]
            words = magic.lane_words(values, t)
            assert words.dtype.kind == "u"
            assert words.dtype.itemsize == itemsize
            assert words.shape == (len(values), 1 if t <= 64 else -(-t // 64))
            assert [int.from_bytes(row.tobytes(), "little") for row in words] == values

    def test_memory_stays_bounded_at_large_k(self):
        # one k x k float64 block at k = 4000 would be 122 MiB; the row-tile
        # buffers keep the traced peak of a norm and of a 17-Pauli call under
        # 8 MiB, and at t = 1024 (16 words a label) that of a norm and of a
        # 2-Pauli call, whose buffers hold one word plane of a tile
        import tracemalloc

        rng = np.random.default_rng(1500)
        for t, p in ((32, 17), (1024, 2)):
            d = magic.sample_iid(magic.magic_model(PI4, t), 4000, rng)
            terms = estimator._terms(d)
            keys = [tuple(int.from_bytes(rng.bytes(t // 8), "little") for _ in "xz")
                    for _ in range(p)]
            for call in (lambda: estimator.exact_sqnorm(d), lambda: estimator._gram(*terms, keys)):
                tracemalloc.start()
                try:
                    call()
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak <= 8 << 20, (t, peak)

    def test_wider_than_1024_bits_rejected(self):
        d = magic.SparseDecomposition(
            t=1100, k=2, prefactor=1.0, entries=((0, 1.0), (1 << 1099, 1.0)), mode=magic.IID
        )
        with pytest.raises(ValueError, match="t <= 1024"):
            estimator.exact_sqnorm(d)

    def test_pauli_prob_matches_dense_across_tiles(self, monkeypatch):
        # k = 300 with 2^12-entry blocks and up to 16 Paulis per norm: row
        # tiles of one to 13 rows, off-diagonal blocks on every tile but the last
        monkeypatch.setattr(estimator, "_TILE_ENTRIES", 1 << 12)
        rng = np.random.default_rng(46)
        for t in (5, 8):
            d = magic.sample_iid(magic.magic_model(PI4, t), 300, rng)
            circuit = sb.random_clifford_word(t, 80, rng)
            for _ in range(3):
                chain = [(sb.random_pauli(t, rng), int(rng.choice([1, -1]))) for _ in range(4)]
                est = estimator.pauli_prob(d, circuit, chain)
                truth = dense_chain_steps(d, circuit, chain)
                assert est.step_values == pytest.approx(truth, abs=1e-9)
                assert est.raw_value == pytest.approx(math.prod(truth), abs=1e-9)


class TestCanonicalOrder:
    """exact_sqnorm and pauli_prob depend only on the multiset of terms: any
    permutation of the entries gives bit-equal results."""

    @staticmethod
    def permuted(d, rng):
        order = rng.permutation(d.k)
        return magic.SparseDecomposition(
            t=d.t, k=d.k, prefactor=d.prefactor,
            entries=tuple(d.entries[i] for i in order), mode=d.mode,
        )

    @pytest.mark.parametrize("tile_entries", [1 << 18, 1 << 10, 97])
    def test_exact_sqnorm_bit_equal_under_permutation(self, tile_entries, monkeypatch):
        monkeypatch.setattr(estimator, "_TILE_ENTRIES", tile_entries)
        for seed in range(40):
            rng = np.random.default_rng(seed)
            t = (2, 4, 8, 32)[seed % 4]
            d = magic.sample_iid(magic.magic_model(PI4, t), int(rng.integers(2, 60)), rng)
            if seed % 3 == 0:  # repeated terms with different phases
                d = magic.SparseDecomposition(
                    t=t, k=d.k + 2, prefactor=d.prefactor, mode=d.mode,
                    entries=d.entries + ((d.entries[0][0], 1j), (d.entries[0][0], -1.0)),
                )
            want = estimator.exact_sqnorm(d).value
            for _ in range(3):
                assert estimator.exact_sqnorm(self.permuted(d, rng)).value == want

    def test_two_words_bit_equal_under_permutation(self, monkeypatch):
        monkeypatch.setattr(estimator, "_TILE_ENTRIES", 256)
        kernel = TestGramKernel()
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            d = kernel.decomposition(rng, k=40)
            want = estimator.exact_sqnorm(d).value
            for _ in range(3):
                assert estimator.exact_sqnorm(self.permuted(d, rng)).value == want

    @pytest.mark.parametrize("tile_entries", [1 << 18, 1 << 9])
    def test_pauli_prob_bit_equal_under_permutation(self, tile_entries, monkeypatch):
        monkeypatch.setattr(estimator, "_TILE_ENTRIES", tile_entries)
        for seed in range(12):
            rng = np.random.default_rng(200 + seed)
            t = (3, 6, 8, 96)[seed % 4]
            if t == 96:
                d = TestGramKernel().decomposition(rng, k=30)
            else:
                d = magic.sample_iid(magic.magic_model(PI4, t), int(rng.integers(5, 60)), rng)
            circuit = sb.random_clifford_word(t, 40, rng)
            chain = [(sb.random_pauli(t, rng), int(rng.choice([1, -1]))) for _ in range(2)]
            want = estimator.pauli_prob(d, circuit, chain)
            for _ in range(2):
                got = estimator.pauli_prob(self.permuted(d, rng), circuit, chain)
                assert got.raw_value == want.raw_value
                assert got.step_values == want.step_values


PHIS = (math.pi / 5, math.pi / 4, math.pi / 3, math.pi / 2, 0.3)


class TestTargetReferences:
    def test_target_prob_matches_dense(self):
        rng = np.random.default_rng(50)
        for t in (1, 2, 3, 5, 8, 10):
            for phi in PHIS:
                m = magic.magic_model(phi, t)
                target = magic.dense_target(m)
                for circuit in (None, sb.random_clifford_word(t, 80, rng)):
                    p, q, r = (sb.random_pauli(t, rng) for _ in range(3))
                    signs = [1 if rng.integers(2) else -1 for _ in range(3)]
                    for chain in (
                        [(p, signs[0])],
                        [(p, signs[0]), (q, signs[1])],
                        [(p, signs[0]), (q, signs[1]), (r, signs[2])],
                        [(p, 1), (p, -1), (q, 1)],  # annihilated at step 2
                    ):
                        truth = estimator.target_prob(m, circuit, chain)
                        ref = dense_vector_steps(target, t, circuit, chain)
                        assert truth.step_values == pytest.approx(ref, abs=1e-12)
                        assert truth.value == pytest.approx(math.prod(ref), abs=1e-12)
                    assert truth.step_values[1:] == (0.0, 0.0)

    def test_target_prob_one_qubit_bloch(self):
        for phi in PHIS:
            m = magic.magic_model(phi, 1)
            for text, value in (("X", math.sin(phi)), ("Z", math.cos(phi)), ("Y", 0.0)):
                for s in (1, -1):
                    est = estimator.target_prob(m, None, [(sb.PauliOperator.from_string(text), s)])
                    assert est.value == pytest.approx((1 + s * value) / 2, abs=1e-15)

    def test_target_prob_matches_exact_estimate(self):
        # the full 2^t-term decomposition is Psi itself
        rng = np.random.default_rng(51)
        m, d = full_decomposition(4)
        op = sb.random_clifford_word(4, 60, rng)
        chain = [(sb.random_pauli(4, rng), 1), (sb.random_pauli(4, rng), -1)]
        truth = estimator.target_prob(m, op, chain)
        est = estimator.pauli_prob(d, op, chain)
        assert truth.step_values == pytest.approx(est.step_values, abs=1e-12)

    def test_target_prob_rejects_mismatched_chain(self):
        m = magic.magic_model(PI4, 3)
        with pytest.raises(ValueError):
            estimator.target_prob(m, None, [(sb.PauliOperator.from_string("ZZ"), 1)])
        with pytest.raises(ValueError):
            estimator.target_prob(m, sb.CliffordOp(2), [(sb.PauliOperator.from_string("ZZZ"), 1)])

    def test_target_overlap_rejects_model_of_another_t(self):
        d = magic.sample_iid(magic.magic_model(PI4, 4), 5, np.random.default_rng(53))
        with pytest.raises(ValueError, match="decomposition and model disagree on t"):
            estimator.target_overlap(d, magic.magic_model(PI4, 5))

    def test_target_overlap_matches_dense(self):
        rng = np.random.default_rng(52)
        for t in range(1, 11):
            for phi in PHIS:
                m = magic.magic_model(phi, t)
                d = magic.sample_iid(m, int(rng.integers(1, 40)), rng)
                ref = np.vdot(magic.dense_target(m), magic.dense_decomposition(d))
                assert abs(estimator.target_overlap(d, m) - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_closed_form_error_matches_approx_error(self):
        rng = np.random.default_rng(53)
        for t in (2, 4, 6, 8, 10):
            m = magic.magic_model(PI4, t)
            ms = masks.generate_masks_even(t)
            for d in (
                magic.sample_iid(m, int(rng.integers(2, 200)), rng),
                magic.sample_correlated(m, ms, min(3, len(ms)), int(rng.integers(8, 200)), rng),
            ):
                err2 = (estimator.exact_sqnorm(d).value
                        - 2 * estimator.target_overlap(d, m).real + 1)
                assert err2 == pytest.approx(estimator.approx_error(d, m) ** 2, abs=1e-12)
        m, d = full_decomposition(3)
        assert abs(estimator.target_overlap(d, m) - 1) <= 1e-12

    @pytest.mark.parametrize("f_t", [0, 31])
    def test_mean_err2_follows_the_measured_law_t16(self, f_t):
        # E||psi - Psi||^2 = (xi - gamma)/k at k = 64: i.i.d. draws (gamma = 1)
        # and two correlated groups of 32, with gamma from gamma_bound
        t, k, trials = 16, 64, 1000
        m = magic.magic_model(PI4, t)
        mask_set = bench.default_masks(t, 2 * t - 1)
        gamma = magic.gamma_bound(m, mask_set, f_t)
        rng = np.random.default_rng(1700 + f_t)
        err2 = []
        for _ in range(trials):
            if f_t:
                d = magic.sample_correlated(m, mask_set, f_t, k, rng)
            else:
                d = magic.sample_iid(m, k, rng)
            overlap = estimator.target_overlap(d, m)
            err2.append(estimator.exact_sqnorm(d).value - 2 * overlap.real + 1)
        sem = np.std(err2, ddof=1) / math.sqrt(trials)
        z = (np.mean(err2) - (m.xi_t - gamma) / k) / sem
        assert abs(z) <= 3
