import math
import time

import numpy as np
import pytest

from stabsparse import costmodel, dense, estimator, magic, masks
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

    def test_concentrates_near_exact(self):
        m = magic.magic_model(PI4, 4)
        d = magic.sample_iid(m, 8, np.random.default_rng(8))
        exact = estimator.exact_sqnorm(d).value
        est = estimator.fastnorm(d, 600, np.random.default_rng(9))
        assert est.value == pytest.approx(exact, rel=0.3)
        assert est.method == estimator.FASTNORM
        assert est.samples_used == 600


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
        m, d = full_decomposition(1)
        with pytest.raises(ValueError):
            estimator.pauli_prob(d, None, [(sb.PauliOperator(1, 1, 0, 1j), 1)])

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
    vec = magic.dense_decomposition(decomp)
    if circuit is not None:
        vec = dense.apply_clifford_dense(vec, circuit)
    steps = []
    for p, outcome in chain:
        res = dense.projector_factor(vec, p, outcome, decomp.t)
        if res is None:
            break
        vec, factor = res
        steps.append(factor)
    return steps + [0.0] * (len(chain) - len(steps))


def xz_matrix(t, x, z):
    """Dense X^x Z^z."""
    return dense.pauli_matrix(sb.PauliOperator(t, x, 0)) @ dense.pauli_matrix(
        sb.PauliOperator(t, 0, z)
    )


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
                p = sb.random_pauli(t, rng, hermitian=False)
                image = estimator._conjugate(op.inverse().tableau(), p)
                u = dense.clifford_unitary(op)
                want = u.conj().T @ dense.pauli_matrix(p) @ u
                got = sum(c * xz_matrix(t, x, z) for (x, z), c in image.items())
                assert len(image) == 1
                assert np.abs(got - want).max() < 1e-12

    def test_conjugates_through_the_inverse_tableau(self, monkeypatch):
        rng = np.random.default_rng(127)
        circuit = sb.random_clifford_word(5, 300, rng)
        d = magic.sample_iid(magic.magic_model(PI4, 5), 4, rng)
        seen = []
        conjugate = estimator._conjugate
        monkeypatch.setattr(
            estimator, "_conjugate", lambda tab, p: seen.append(tab) or conjugate(tab, p)
        )
        estimator.pauli_prob(d, circuit, [(sb.random_pauli(5, rng), 1)])
        assert seen and all(t.key() == circuit.inverse().tableau().key() for t in seen)

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

    def test_fastnorm_branches_agree_draw_for_draw(self, monkeypatch):
        # both branches consume the rng only through random_stabilizer_state,
        # so the same seed gives the same theta draws on the closed-form and
        # the dense branch
        rng = np.random.default_rng(45)
        m = magic.magic_model(PI4, 4)
        d = magic.sample_iid(m, 5, rng)
        circuit = sb.random_clifford_word(4, 60, rng)
        chain = [(sb.random_pauli(4, rng), 1), (sb.PauliOperator.from_string("-YZXI"), -1)]

        def run():
            return estimator.pauli_prob(
                d, circuit, chain, method=estimator.FASTNORM, fastnorm_samples=6,
                rng=np.random.default_rng(46),
            ).step_values

        on_dense = run()
        monkeypatch.setattr(dense, "VECTOR_CAP", 0)
        assert run() == pytest.approx(on_dense, rel=1e-9)

    def test_fastnorm_ch_branch_pooled_mean(self):
        # t = 13 is above the dense cap, so every sample runs the CH branch
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
            got = estimator._gram(*estimator._terms(d), {(x, z): 1})
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
            got = estimator._gram(*estimator._terms(d), {(x, z): 1})
            assert abs(want) > 1e-6
            assert abs(got - want) <= 1e-12 * abs(want)
            # the whole sum in one call equals the sum of single-Pauli calls
            pair = {(x, z): 0.5 - 0.25j, (x ^ bits[i], z): 2.0}
            want_pair = sum(c * self.brute(bits, d.phases(), *key) for key, c in pair.items())
            got_pair = estimator._gram(*estimator._terms(d), pair)
            assert abs(got_pair - want_pair) <= 1e-12 * abs(want_pair)
        assert checked >= 5

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
