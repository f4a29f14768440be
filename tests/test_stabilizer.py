import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stabsparse import dense, estimator, magic
from stabsparse import stabilizer as sb


def random_state(n, rng, n_gates=20):
    op = sb.random_clifford_word(n, int(rng.integers(0, n_gates)), rng)
    sel = [int(rng.integers(2)) for _ in range(n)]
    return sb.apply_clifford(sb.product_state(sel), op), dense.apply_clifford_dense(
        dense.product_vector(sel), op
    )


class TestConstruction:
    def test_zero_state_t1(self):
        st1 = sb.StabilizerState(1)
        assert sb.amplitude(st1, "0") == pytest.approx(1)
        assert sb.amplitude(st1, "1") == pytest.approx(0)

    def test_zero_state_norm(self):
        assert sb.StabilizerState(3).sqnorm() == pytest.approx(1, abs=1e-12)

    def test_zero_state_dense_t6(self):
        vec = sb.StabilizerState(6).to_dense()
        expect = np.zeros(64)
        expect[0] = 1
        assert np.allclose(vec, expect, atol=1e-12)

    def test_zero_state_rejects_t0(self):
        with pytest.raises(ValueError):
            sb.StabilizerState(0)

    def test_plus_amplitudes(self):
        plus = sb.product_state([sb.PLUS])
        assert sb.amplitude(plus, "0") == pytest.approx(1 / np.sqrt(2))
        assert sb.amplitude(plus, "1") == pytest.approx(1 / np.sqrt(2))

    def test_zero_plus_product(self):
        stt = sb.product_state([sb.ZERO, sb.PLUS])
        assert sb.amplitude(stt, "00") == pytest.approx(1 / np.sqrt(2))
        assert sb.amplitude(stt, "01") == pytest.approx(1 / np.sqrt(2))
        assert sb.amplitude(stt, "10") == pytest.approx(0)
        assert sb.amplitude(stt, "11") == pytest.approx(0)

    def test_plus4_inner_with_zero(self):
        a = sb.StabilizerState(4)
        b = sb.product_state([sb.PLUS] * 4)
        assert sb.inner_product(a, b) == pytest.approx(0.25)

    def test_empty_product_rejected(self):
        with pytest.raises(ValueError):
            sb.product_state([])

    @pytest.mark.parametrize("bits", [-1, 0b1000])
    def test_bits_beyond_qubit_count_rejected(self, bits):
        with pytest.raises(ValueError):
            sb.product_state_from_bits(bits, 3)


class TestCliffordApplication:
    def test_h_on_zero(self):
        op = sb.CliffordOp(n=1, word=(("H", (0,)),))
        stt = sb.apply_clifford(sb.StabilizerState(1), op)
        assert np.allclose(stt.to_dense(), [1 / np.sqrt(2), 1 / np.sqrt(2)])

    def test_ss_on_plus_gives_minus(self):
        op = sb.CliffordOp(n=1, word=(("S", (0,)), ("S", (0,))))
        stt = sb.apply_clifford(sb.product_state([1]), op)
        assert np.allclose(stt.to_dense(), [1 / np.sqrt(2), -1 / np.sqrt(2)], atol=1e-12)

    def test_random_word_vs_dense(self):
        rng = np.random.default_rng(11)
        op = sb.random_clifford_word(4, 5, rng)
        stt = sb.apply_clifford(sb.StabilizerState(4), op)
        vec = dense.apply_clifford_dense(dense.product_vector([0] * 4), op)
        assert np.allclose(stt.to_dense(), vec, atol=1e-10)

    def test_qubit_count_mismatch(self):
        op = sb.CliffordOp(n=2, word=(("H", (0,)),))
        with pytest.raises(ValueError):
            sb.apply_clifford(sb.StabilizerState(3), op)

    def test_norm_preserved_long_words(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            op = sb.random_clifford_word(n, 200, rng)
            stt = sb.apply_clifford(sb.StabilizerState(n), op)
            assert abs(stt.sqnorm() - 1) <= 1e-10


class TestInnerProduct:
    def test_zero_plus(self):
        assert sb.inner_product(sb.StabilizerState(1), sb.product_state([1])) == pytest.approx(
            1 / np.sqrt(2)
        )

    def test_self_inner_after_clifford(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            stt, _ = random_state(int(rng.integers(1, 6)), rng)
            assert sb.inner_product(stt, stt) == pytest.approx(1, abs=1e-10)

    def test_against_dense_many(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            a, va = random_state(n, rng)
            b, vb = random_state(n, rng)
            assert sb.inner_product(a, b) == pytest.approx(np.vdot(va, vb), abs=1e-9)

    def test_mismatch_rejected(self):
        with pytest.raises(ValueError):
            sb.inner_product(sb.StabilizerState(2), sb.StabilizerState(3))

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            a, _ = random_state(n, rng)
            b, _ = random_state(n, rng)
            assert sb.inner_product(a, b) == pytest.approx(
                np.conjugate(sb.inner_product(b, a)), abs=1e-12
            )


class TestAmplitude:
    def test_plus_one(self):
        assert sb.amplitude(sb.product_state([1]), "1") == pytest.approx(1 / np.sqrt(2))

    def test_zero_one(self):
        assert sb.amplitude(sb.StabilizerState(1), "1") == pytest.approx(0)

    def test_random_t5_vs_dense(self):
        rng = np.random.default_rng(13)
        stt, vec = random_state(5, rng, n_gates=40)
        for idx in range(32):
            assert stt.amplitude(idx) == pytest.approx(vec[idx], abs=1e-10)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            sb.amplitude(sb.StabilizerState(3), "01")


class TestProjection:
    def test_z_on_plus(self):
        res = sb.project_pauli(sb.product_state([1]), sb.PauliOperator.from_string("Z"), 1)
        assert res is not None
        stt, factor = res
        assert factor == pytest.approx(0.5)
        assert np.allclose(stt.to_dense(), [1, 0], atol=1e-12)

    def test_z_on_zero(self):
        res = sb.project_pauli(sb.StabilizerState(1), sb.PauliOperator.from_string("Z"), 1)
        stt, factor = res
        assert factor == pytest.approx(1.0)
        assert np.allclose(stt.to_dense(), [1, 0], atol=1e-12)

    def test_annihilation(self):
        assert sb.project_pauli(sb.StabilizerState(1), sb.PauliOperator.from_string("Z"), -1) is None

    def test_xx_vs_dense(self):
        rng = np.random.default_rng(17)
        stt, vec = random_state(4, rng, n_gates=30)
        p = sb.PauliOperator.from_string("XXII")
        res = sb.project_pauli(stt, p, -1)
        dres = dense.projector_factor(vec, p, -1, 4)
        if res is None:
            assert dres is None
        else:
            assert res[1] == pytest.approx(dres[1], abs=1e-10)
            assert np.allclose(res[0].to_dense(), dres[0], atol=1e-9)

    def test_random_vs_dense(self):
        rng = np.random.default_rng(19)
        for _ in range(150):
            n = int(rng.integers(1, 6))
            stt, vec = random_state(n, rng)
            p = sb.random_pauli(n, rng)
            outcome = 1 if rng.integers(2) else -1
            res = sb.project_pauli(stt, p, outcome)
            dres = dense.projector_factor(vec, p, outcome, n)
            assert (res is None) == (dres is None)
            if res is not None:
                assert res[1] == pytest.approx(dres[1], abs=1e-10)
                assert np.allclose(res[0].to_dense(), dres[0], atol=1e-9)

    @pytest.mark.parametrize("pauli, outcome", [("ZI", 0), ("ZI", 2), ("Z", 1), ("ZII", -1)])
    def test_bad_arguments_rejected(self, pauli, outcome):
        with pytest.raises(ValueError):
            sb.project_pauli(sb.StabilizerState(2), sb.PauliOperator.from_string(pauli), outcome)

    def test_imaginary_phase_rejected(self):
        with pytest.raises(ValueError):
            sb.PauliOperator(1, 1, 0, 1j)

    def test_completeness(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            n = int(rng.integers(1, 6))
            stt, _ = random_state(n, rng)
            p = sb.random_pauli(n, rng)
            plus = sb.project_pauli(stt, p, 1)
            minus = sb.project_pauli(stt, p, -1)
            total = (plus[1] if plus else 0.0) + (minus[1] if minus else 0.0)
            assert total == pytest.approx(1, abs=1e-10)


class TestRandomClifford:
    def test_deterministic_for_seed(self):
        a = sb.random_clifford(3, np.random.default_rng(77))
        b = sb.random_clifford(3, np.random.default_rng(77))
        assert a.word == b.word

    def test_single_qubit_group_uniform(self):
        rng = np.random.default_rng(101)
        counts = {}
        for _ in range(24000):
            key = sb.random_clifford(1, rng).tableau().key()
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 24
        assert min(counts.values()) >= 880
        assert max(counts.values()) <= 1120

    def test_two_qubit_commutation_preserved(self):
        rng = np.random.default_rng(103)
        assert all(sb.random_clifford(2, rng).tableau().is_symplectic() for _ in range(1000))

    def test_synthesis_roundtrip(self):
        rng = np.random.default_rng(107)
        for _ in range(40):
            n = int(rng.integers(1, 5))
            tab = sb.random_clifford_tableau(n, rng)
            word = sb.synthesize_word(tab)
            assert sb.CliffordOp(n=n, word=word).tableau().key() == tab.key()

    def test_word_unitary_matches_tableau_action(self):
        # conjugating dense Paulis through the synthesized unitary must
        # reproduce the tableau rows
        rng = np.random.default_rng(109)
        for _ in range(10):
            op = sb.random_clifford(2, rng)
            u = dense.clifford_unitary(op)
            tab = op.tableau()
            for q in range(2):
                for row, base in ((q, "X"), (2 + q, "Z")):
                    mat = dense.pauli_matrix(
                        sb.PauliOperator.from_string("I" * q + base + "I" * (1 - q))
                    )
                    img = u @ mat @ u.conj().T
                    expect = dense.pauli_matrix(tab.row_pauli(row))
                    assert np.allclose(img, expect, atol=1e-10)


def span(rows):
    out = {0}
    for row in rows:
        out |= {v ^ row for v in out}
    return out


def brute_force_rref(rows):
    """The reduced echelon basis of the rows' span, read off the whole span:
    the pivots are the lowest set bits of its vectors, and pivot p's row is
    the one vector with lowest bit p and no other pivot's bit."""
    vectors = span(rows)
    mask = sum({v & -v for v in vectors if v})
    return {(v & -v).bit_length() - 1: v for v in vectors
            if v and not v & (mask ^ (v & -v))}


class TestEchelon:
    @pytest.mark.parametrize("width", [1, 3, 6, 10, 12, 130])
    def test_reduce_and_insert_build_the_reduced_echelon_form(self, width):
        rng = np.random.default_rng(200 + width)
        for _ in range(20):
            rows, echelon, pivots = [], {}, 0
            for _ in range(int(rng.integers(1, min(width, 12) + 4))):
                dependent = bool(rows) and rng.random() < 0.3
                if dependent:  # a sum of earlier rows
                    row = 0
                    for take, r in zip(rng.integers(2, size=len(rows)).tolist(), rows):
                        row ^= r if take else 0
                else:  # a uniform row, or a sparse one that hits few pivots
                    row = int.from_bytes(rng.bytes(17), "little") % (1 << width)
                    if rng.random() < 0.5:
                        row &= int.from_bytes(rng.bytes(17), "little")
                reduced = sb.reduce_row(row, echelon, pivots)
                assert not reduced & pivots
                if dependent:
                    assert reduced == 0
                if width <= 12:
                    assert (reduced == 0) == (row in span(rows))
                if reduced:
                    bit = sb.insert_row(echelon, reduced)
                    assert bit == reduced & -reduced and not pivots & bit
                    pivots |= bit
                rows.append(row)
            assert pivots == sum(1 << c for c in echelon)
            for col, row in echelon.items():
                assert row & -row == 1 << col and not row & (pivots ^ 1 << col)
            assert all(sb.reduce_row(row, echelon, pivots) == 0 for row in rows)
            if width <= 12:
                assert echelon == brute_force_rref(rows)


class TestPackedTableau:
    @pytest.mark.parametrize("gate", sb.GATE_NAMES)
    def test_rows_match_dense_conjugation(self, gate):
        rng = np.random.default_rng(113)
        arity = 2 if gate in ("CX", "CZ") else 1
        for n in range(arity, 5):
            for _ in range(5):
                qubits = tuple(int(q) for q in rng.permutation(n)[:arity])
                word = (sb.random_clifford_word(n, 6, rng).word + ((gate, qubits),)
                        + sb.random_clifford_word(n, 6, rng).word)
                op = sb.CliffordOp(n, word)
                u = dense.clifford_unitary(op)
                tab = op.tableau()
                for row in range(2 * n):
                    q = row % n
                    base = sb.PauliOperator(n, (1 << q) * (row < n), (1 << q) * (row >= n))
                    img = u @ dense.pauli_matrix(base) @ u.conj().T
                    assert np.allclose(img, dense.pauli_matrix(tab.row_pauli(row)), atol=1e-10)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 130).flatmap(lambda width: st.tuples(
        st.just(width), st.lists(st.integers(0, 1 << (width + 3)), max_size=70))))
    def test_transpose_matches_bitwise_formula(self, case):
        # bits at or above width (here up to three of them) are ignored
        width, vals = case
        assert sb._transpose(vals, width) == [
            sum(((v >> b) & 1) << i for i, v in enumerate(vals)) for b in range(width)]

    def test_conjugate_paulis_matches_row_pauli(self):
        rng = np.random.default_rng(127)
        for n in (1, 3, 8, 70):
            for rows in (1, 2, 5):
                paulis = [sb.random_pauli(n, rng) for _ in range(rows)]
                op = sb.random_clifford_word(n, 40, rng)
                frame = sb.Tableau(n, paulis)
                frame.apply_word(op.word, inverse=True)
                assert op.conjugate_paulis(paulis) == [frame.row_pauli(r) for r in range(rows)]

    def test_synthesis_roundtrip_beyond_one_word(self):
        rng = np.random.default_rng(131)
        tab = sb.random_clifford_tableau(70, rng)
        assert tab.is_symplectic()
        op = sb.CliffordOp(n=70, word=sb.synthesize_word(tab))
        assert op.tableau().is_symplectic()
        assert op.tableau().key() == tab.key()

    def test_random_clifford_words_pinned(self):
        # pins the rng stream and the synthesized words (recorded before bit-packing)
        h = hashlib.sha256()
        for t in range(1, 17):
            h.update(repr(sb.random_clifford(t, np.random.default_rng(1000 + t)).word).encode())
        assert h.hexdigest() == (
            "febaf99bd4733c1bb899203d12d940d2c81eab7a9bdd2b02da8b30de3f07295a"
        )

    def test_random_clifford_words_pinned_beyond_one_word(self):
        # pins the incremental elimination of random_clifford_tableau to the
        # words of the full per-row elimination it replaced
        h = hashlib.sha256()
        for t in (24, 32, 64):
            h.update(repr(sb.random_clifford(t, np.random.default_rng(1000 + t)).word).encode())
        assert h.hexdigest() == (
            "4fbbdbe7139fca4e07d976fc8d04760c01214bf011f5283568f150d51deb0bae"
        )

    def test_fastnorm_ch_values_pinned(self):
        # every draw runs the closed-form overlaps; the digest was recorded
        # when fastnorm moved from random Clifford words on the CH form to
        # random_stabilizer_state
        h = hashlib.sha256()
        for t, seed in ((13, 0), (13, 1), (16, 2), (16, 3)):
            model = magic.magic_model(math.pi / 4, t)
            d = magic.sample_iid(model, 6, np.random.default_rng(seed))
            value = estimator.fastnorm(d, 8, np.random.default_rng(100 + seed)).value
            h.update(repr(value).encode())
        assert h.hexdigest() == (
            "d3c09ccb5b9d80e18bdd83d77d46b6fbeaae4cbf8b97237f5baa8fadb0f6efb6"
        )


class TestCHFormBeyondOneWord:
    """At n = 70 every CH-form row spans two 64-bit words; the packed
    tableau of the same word is the oracle, no dense vector is needed."""

    N = 70

    def state(self, rng):
        op = sb.random_clifford_word(self.N, 400, rng)
        return op, sb.apply_clifford(sb.StabilizerState(self.N), op)

    def test_stabilized_by_tableau_z_images(self):
        op, stt = self.state(np.random.default_rng(141))
        tab = op.tableau()
        for q in range(self.N):
            p = tab.row_pauli(self.N + q)
            assert sb.project_pauli(stt, p, 1)[1] == 1.0
            assert sb.project_pauli(stt, p, -1) is None

    def test_inner_products(self):
        rng = np.random.default_rng(142)
        _, a = self.state(rng)
        _, b = self.state(rng)
        norm = abs(a.omega) ** 2
        assert abs(sb.inner_product(a, a) - norm) <= 1e-12 * norm
        assert abs(sb.inner_product(a, b) - np.conjugate(sb.inner_product(b, a))) <= 1e-12
        # a neighbour of a has a complex overlap with it, so the symmetry bites
        near = sb.apply_clifford(a, sb.CliffordOp(self.N, (("H", (3,)), ("S", (4,)), ("H", (4,)))))
        ip = sb.inner_product(a, near)
        assert abs(abs(ip) - 0.5) <= 1e-12 and abs(ip.imag) > 0.1
        assert abs(ip - np.conjugate(sb.inner_product(near, a))) <= 1e-12


class TestCHOracle:
    def test_outputs_pinned(self):
        # pins the CH form's values bit for bit, + 0.0-normalised like the
        # dense pin below
        h = hashlib.sha256()

        def feed(value):
            h.update((np.asarray(value, dtype=np.complex128) + 0.0).tobytes())

        def feed_state(st):
            feed(st.omega)
            if st.n <= 8:
                feed(st.to_dense())

        rng = np.random.default_rng(143)
        for case in range(240):
            n = case % 12 + 1
            a = sb.apply_clifford(sb.product_state_from_bits(int(rng.integers(1 << n)), n),
                                  sb.random_clifford_word(n, int(rng.integers(0, 81)), rng))
            b = sb.apply_clifford(sb.StabilizerState(n), sb.random_clifford(n, rng))
            for st in (a, b):
                feed_state(st)
            feed(sb.inner_product(a, b))
            feed(sb.inner_product(b, a))
            p = sb.random_pauli(n, rng)
            for st in (a, b):
                for outcome in (1, -1):
                    res = sb.project_pauli(st, p, outcome)
                    if res is None:
                        h.update(b"None")
                    else:
                        feed(res[1])
                        feed_state(res[0])
        for t in (3, 6, 10):
            d = magic.sample_iid(magic.magic_model(math.pi / 4, t), 12, np.random.default_rng(t))
            op = sb.random_clifford_word(t, 40, np.random.default_rng(50 + t))
            terms = [(w, sb.apply_clifford(st, op)) for w, st in magic.to_states(d)]
            feed(estimator.sqnorm_terms(terms))
        rng = np.random.default_rng(144)
        a, b = (sb.apply_clifford(sb.StabilizerState(70), sb.random_clifford_word(70, 400, rng))
                for _ in range(2))
        feed(sb.inner_product(a, b))
        assert h.hexdigest() == (
            "f3685ed8fd96d3fb25a5e188879deb1dbd58e854eed110e04d7721ee3c7bf004"
        )


class TestDenseOracle:
    def test_outputs_pinned(self):
        # pins the oracle's values bit for bit; + 0.0 folds -0.0 into 0.0, the
        # one thing that may differ between two exact engines
        h = hashlib.sha256()

        def feed(arr):
            h.update((np.asarray(arr, dtype=np.complex128) + 0.0).tobytes())

        rng = np.random.default_rng(139)
        for case in range(300):
            n = case % 8 + 1
            op = sb.random_clifford_word(n, int(rng.integers(0, 61)), rng)
            p = sb.random_pauli(n, rng)
            vec = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            feed(dense.apply_clifford_dense(vec, op))
            feed(dense.pauli_apply(vec, p, n))
            eigen = dense.apply_clifford_dense(dense.product_vector([0] * n), op)
            for state in (vec, eigen):
                for outcome in (1, -1):
                    res = dense.projector_factor(state, p, outcome, n)
                    if res is None:
                        h.update(b"None")
                    else:
                        feed(res[0])
                        feed(res[1])
            if n <= 4:
                feed(dense.clifford_unitary(op))
                feed(dense.pauli_matrix(p))
        assert h.hexdigest() == (
            "211de788f2c6315a81e688dbfd3ffc0541092e9b123c1d00e77573b1ba870af4"
        )


class TestSerialization:
    def test_circuit_json_roundtrip(self, tmp_path):
        rng = np.random.default_rng(31)
        op = sb.random_clifford_word(3, 25, rng)
        path = tmp_path / "circuit.json"
        path.write_text(json.dumps(op.to_json()))
        loaded = sb.load_circuit(str(path), 3)
        assert loaded == op

    def test_pauli_string_roundtrip(self):
        p = sb.PauliOperator.from_string("-XIZY")
        assert p.phase == -1
        assert p.to_string() == "-XIZY"
        assert sb.PauliOperator.from_string(p.to_string()) == p

    def test_bad_pauli_string(self):
        with pytest.raises(ValueError):
            sb.PauliOperator.from_string("XQ")


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 4), st.integers(0, 60), st.integers(0, 2**32 - 1))
def test_property_clifford_preserves_norm(n, n_gates, seed):
    rng = np.random.default_rng(seed)
    op = sb.random_clifford_word(n, n_gates, rng)
    stt = sb.apply_clifford(sb.product_state([int(rng.integers(2)) for _ in range(n)]), op)
    assert abs(stt.sqnorm() - 1) <= 1e-10


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_property_projectors_complete(n, seed):
    rng = np.random.default_rng(seed)
    stt, _ = random_state(n, rng)
    p = sb.random_pauli(n, rng)
    plus = sb.project_pauli(stt, p, 1)
    minus = sb.project_pauli(stt, p, -1)
    total = (plus[1] if plus else 0.0) + (minus[1] if minus else 0.0)
    assert total == pytest.approx(1, abs=1e-10)
