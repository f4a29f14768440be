import hashlib
import math

import numpy as np
import pytest

from stabsparse import dense
from stabsparse import quadform as qf
from stabsparse import stabilizer as sb


def brute_amplitudes(state):
    """{x: theta(x)} straight from the definition, y by y."""
    r = len(state.R)
    out = {}
    for y in range(1 << r):
        x, e = state.a0, 0
        for j, row in enumerate(state.R):
            if (y >> j) & 1:
                x ^= row
                e += (state.l >> j) & 1
                e += 2 * (state.Q[j] & y).bit_count()  # bits k >= j of q's row j
        out[x] = 1j**e * 2.0 ** (-r / 2)
    return out


def to_dense(state):
    """The dense 2^t vector from ``support()``."""
    x, e = state.support()
    vec = np.zeros(1 << state.t, dtype=complex)
    vec[x] = 1j**e * 2.0 ** (-len(state.R) / 2)
    return vec


def state_key(vec):
    """A dense state up to global phase, rounded, as a hashable key."""
    lead = vec[np.flatnonzero(np.abs(vec) > 1e-9)[0]]
    vec = vec * abs(lead) / lead
    return tuple(np.round(vec, 6).view(np.float64) + 0.0)


def chi_square(counts, probs, draws):
    expected = np.asarray(probs) * draws
    return float(((np.asarray(counts) - expected) ** 2 / expected).sum())


class TestSampler:
    @pytest.mark.parametrize("t", range(1, 25))
    def test_counts_sum_to_number_of_stabilizer_states(self, t):
        assert sum(qf.support_dimension_counts(t)) == (1 << t) * math.prod(
            (1 << j) + 1 for j in range(1, t + 1)
        )

    def test_canonical_form(self):
        rng = np.random.default_rng(11)
        for t in (1, 3, 8, 70):
            for _ in range(30):
                st = qf.random_stabilizer_state(t, rng)
                pivots = [row & -row for row in st.R]
                assert pivots == sorted(pivots)
                for p, row in zip(pivots, st.R):
                    assert sum(bool(other & p) for other in st.R) == 1
                    assert not st.a0 & p
                    assert row >> t == 0
                r = len(st.R)
                assert st.l >> r == 0
                assert all(qj >> r == 0 and qj & ((1 << j) - 1) == 0 for j, qj in enumerate(st.Q))

    def test_support_matches_definition(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            st = qf.random_stabilizer_state(int(rng.integers(1, 8)), rng)
            vec = np.zeros(1 << st.t, dtype=complex)
            for x, amp in brute_amplitudes(st).items():
                vec[x] = amp
            assert np.allclose(to_dense(st), vec, atol=1e-15)

    # chi-square bounds: the 0.999 quantiles for 5, 59 and 4 degrees of
    # freedom, fixed before the seeds were run
    def test_one_qubit_states_uniform(self):
        rng = np.random.default_rng(2024)
        draws = 6000
        counts: dict = {}
        for _ in range(draws):
            key = state_key(to_dense(qf.random_stabilizer_state(1, rng)))
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 6
        assert chi_square(list(counts.values()), [1 / 6] * 6, draws) <= 20.52

    def test_two_qubit_states_uniform_and_the_clifford_orbit(self):
        rng = np.random.default_rng(2025)
        draws = 30000
        counts: dict = {}
        for _ in range(draws):
            key = state_key(to_dense(qf.random_stabilizer_state(2, rng)))
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 60
        assert chi_square(list(counts.values()), [1 / 60] * 60, draws) <= 98.32
        orbit = {
            state_key(sb.apply_clifford(sb.zero_state(2), sb.random_clifford(2, rng)).to_dense())
            for _ in range(3000)
        }
        assert orbit == set(counts)

    def test_support_dimension_histogram_t4(self):
        rng = np.random.default_rng(2026)
        draws = 20000
        counts = np.bincount([len(qf.random_stabilizer_state(4, rng).R) for _ in range(draws)],
                             minlength=5)
        weights = qf.support_dimension_counts(4)
        probs = [w / sum(weights) for w in weights]
        assert chi_square(counts, probs, draws) <= 18.47

    def test_draws_pinned(self):
        # pins the sampler's rng use and canonical form
        h = hashlib.sha256()
        for t in (1, 2, 5, 13, 16, 70):
            rng = np.random.default_rng(500 + t)
            for _ in range(5):
                h.update(repr(qf.random_stabilizer_state(t, rng)).encode())
        assert h.hexdigest() == (
            "f512c4ce7f5006f843b0379fc5cc82b3e878ed9c101b93a8abeeab5f0a66c840"
        )

    def test_rejects_zero_qubits(self):
        with pytest.raises(ValueError):
            qf.random_stabilizer_state(0, np.random.default_rng(0))


def dense_overlaps(st, x, z):
    """<phi_b| Z^z X^x |theta> for every b from dense vectors."""
    t = st.t
    xz = (x & z).bit_count()
    ket = 1j**xz * dense.pauli_apply(to_dense(st), sb.PauliOperator(t, x, z), t)
    return [
        np.vdot(dense.product_vector([(b >> q) & 1 for q in range(t)]), ket)
        for b in range(1 << t)
    ]


class TestProductOverlaps:
    @pytest.mark.parametrize("t", range(1, 11))
    def test_matches_dense_for_every_label(self, t):
        rng = np.random.default_rng(300 + t)
        zeros = nonzeros = 0
        for _ in range(max(2, 64 >> t)):
            st = qf.random_stabilizer_state(t, rng)
            x, z = (int(v) for v in rng.integers(1 << t, size=2))
            y = 1 << int(rng.integers(t))  # at least one Y
            x, z = x | y, z | y
            got = qf.product_overlaps(st, list(range(1 << t)), x, z)
            for want, have in zip(dense_overlaps(st, x, z), got):
                if abs(want) < 1e-12:
                    assert have == 0
                    zeros += 1
                else:
                    assert abs(have - want) <= 1e-12
                    nonzeros += 1
        assert zeros and nonzeros

    def test_low_rank_and_basis_states(self):
        # r = 0 (a basis state) and r = t (full support) at t = 3
        t = 3
        for st in (qf.QuadraticFormState(t, 0b101, (), 0, ()),
                   qf.QuadraticFormState(t, 0, (1, 2, 4), 0b011, (0b111, 0b010, 0b100))):
            for x, z in ((0, 0), (0b110, 0b011), (0b111, 0b111)):
                got = qf.product_overlaps(st, list(range(8)), x, z)
                assert np.allclose(got, dense_overlaps(st, x, z), atol=1e-12)

    def test_two_words_against_enumeration(self):
        # t = 70: bits beyond the first 64-bit word, r = 5 rows built by hand
        t = 70
        rng = np.random.default_rng(310)
        pivots = (3, 20, 64, 66, 69)
        rows = []
        for p in pivots:
            row = 1 << p
            for c in range(p + 1, t):
                if c not in pivots and rng.integers(2):
                    row |= 1 << c
            rows.append(row)
        a0 = int(rng.integers(1 << 62)) << 8 & ~sum(1 << p for p in pivots)
        q = (0b11011, 0b00110, 0b10100, 0, 0b10000)
        st = qf.QuadraticFormState(t, a0, tuple(rows), 0b10110, q)
        support = brute_amplitudes(st)
        nonzero = 0
        for _ in range(40):
            x = int(rng.integers(1 << 62)) << 8 if rng.integers(2) else 0
            z = int(rng.integers(1 << 62)) << 8 | int(rng.integers(256))
            # labels covering shifted support points, so most overlaps are nonzero
            points = [w ^ x for w in support]
            labels = [points[int(rng.integers(len(points)))] | int(rng.integers(1 << 62)) << 8
                      for _ in range(6)] + [int(rng.integers(1 << 62)) << 8]
            got = qf.product_overlaps(st, labels, x, z)
            for b, have in zip(labels, got):
                want = sum(
                    amp * (-1) ** (z & w).bit_count() * 2.0 ** (-b.bit_count() / 2)
                    for w, amp in ((w ^ x, amp) for w, amp in support.items())
                    if not w & ~b
                )
                assert abs(have - want) <= 1e-12
                assert (have == 0) == (abs(want) < 1e-12)
                nonzero += have != 0
        assert nonzero >= 40

    def test_z4_sum_matches_enumeration(self):
        rng = np.random.default_rng(320)
        for _ in range(400):
            d = int(rng.integers(0, 8))
            L = [int(v) for v in rng.integers(0, 4, size=d)]
            upper = np.triu(rng.integers(0, 2, size=(d, d)), 1)
            J = [sum(int(upper[m, n] | upper[n, m]) << n for n in range(d)) for m in range(d)]
            want = 0
            for u in range(1 << d):
                bits = [(u >> m) & 1 for m in range(d)]
                f = sum(L[m] * bits[m] for m in range(d))
                f += 2 * sum(upper[m, n] * bits[m] * bits[n] for m in range(d) for n in range(d))
                want += 1j ** (f % 4)
            got = qf._z4_sum(list(L), list(J), (1 << d) - 1)
            if got is None:
                assert abs(want) < 1e-9
            else:
                e, k = got
                assert abs(2 ** (e / 2) * np.exp(1j * np.pi * k / 4) - want) <= 1e-9
