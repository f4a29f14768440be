import bisect
import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stabsparse import dense, magic
from stabsparse import quadform as qf
from stabsparse import stabilizer as sb

ROOT = Path(__file__).resolve().parents[1]


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
    """The dense 2^t vector from ``brute_amplitudes``."""
    vec = np.zeros(1 << state.t, dtype=complex)
    for x, amp in brute_amplitudes(state).items():
        vec[x] = amp
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
            state_key(sb.apply_clifford(sb.StabilizerState(2), sb.random_clifford(2, rng)).to_dense())
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

    def test_rejects_32_bit_raw_words_before_drawing(self):
        # MT19937's raw words hold 32 bits, so rows never span more than
        # 32 columns and the redraw loop never ended at t > 32; it is
        # rejected at every t (t = 40 is in the child below)
        t, rng = 8, np.random.Generator(np.random.MT19937(0))
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="MT19937"):
            qf.random_stabilizer_state(t, rng)
        with pytest.raises(ValueError, match="MT19937"):
            next(qf.sample_overlaps(t, [(0, 0)], magic.lane_words([0], t), 3, rng))
        np.testing.assert_equal(rng.bit_generator.state, before)

    def test_32_bit_raw_words_raise_not_hang_at_t40(self):
        # a child with a timeout turns a hang into a failure
        code = (
            "import math, numpy as np\n"
            "from stabsparse import estimator, magic, quadform\n"
            "from stabsparse import stabilizer as sb\n"
            "model = magic.magic_model(math.pi / 4, 40)\n"
            "d = magic.sample_iid(model, 3, np.random.default_rng(0))\n"
            "rng = np.random.Generator(np.random.MT19937(0))\n"
            "z = sb.PauliOperator.from_string('Z' + 'I' * 39)\n"
            "for call in (lambda: quadform.random_stabilizer_state(40, rng),\n"
            "             lambda: estimator.fastnorm(d, 4, rng),\n"
            "             lambda: estimator.pauli_prob(d, None, [(z, 1)], estimator.FASTNORM,\n"
            "                                          4, rng)):\n"
            "    try:\n"
            "        call()\n"
            "    except ValueError as exc:\n"
            "        print(exc)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert len(lines) == 3 and all("MT19937" in line for line in lines)


def oracle_draw(t, rng):
    """(state, redraws): the per-row draw that the two-stage ``_draw``
    replaced, with each accepted row reduced and inserted into a reduced
    echelon form at once by ``stabilizer.reduce_row`` and ``insert_row``."""
    r = bisect.bisect_right(qf._support_cdf(t), rng.random())
    echelon: dict = {}
    pivots = redraws = 0
    for row in qf._random_rows(t, r, rng):
        row = sb.reduce_row(row, echelon, pivots)
        while not row:
            redraws += 1
            row = sb.reduce_row(qf._random_rows(t, 1, rng)[0], echelon, pivots)
        pivots |= sb.insert_row(echelon, row)
    a0, l, *q = qf._random_rows(t, r + 2, rng)
    low = (1 << r) - 1
    state = qf.QuadraticFormState(
        t=t, a0=sb.reduce_row(a0, echelon, pivots), R=tuple(echelon[c] for c in sorted(echelon)),
        l=l & low, Q=tuple((qj & low) >> j << j for j, qj in enumerate(q)))
    return state, redraws


class TestDrawOracle:
    """The two-stage draw gives the per-row draw's states and rng stream."""

    @pytest.mark.parametrize("t", [1, 2, 3, 8, 16, 31, 64, 65, 70, 130])
    def test_states_and_rng_match_the_per_row_draw(self, t):
        draws = 40 if t <= 70 else 12
        new, old = np.random.default_rng(2400 + t), np.random.default_rng(2400 + t)
        full = redraws = 0
        for _ in range(draws):
            want, hits = oracle_draw(t, old)
            assert qf.random_stabilizer_state(t, new) == want
            assert new.bit_generator.state == old.bit_generator.state
            full += len(want.R) == t
            redraws += hits
        # rank t draws, and rows redrawn because they fell in the span
        assert full and redraws

    @pytest.mark.parametrize("t", [5, 16, 70])
    def test_chunk_matches_one_draw_a_state(self, t):
        # one ``_draw`` call over a chunk gives the per-row draws' a0 and R
        # by pivot, and their overlaps as complex128 bytes
        new, old = np.random.default_rng(2450 + t), np.random.default_rng(2450 + t)
        words = qf._draw(t, 9, new)
        states = [oracle_draw(t, old)[0] for _ in range(9)]
        assert new.bit_generator.state == old.bit_generator.state
        rows = []
        for st in states:
            by_pivot = [0] * t
            for row in st.R:
                by_pivot[(row & -row).bit_length() - 1] = row
            rows += [st.a0, *by_pivot]
        assert words[:, :t + 1].tobytes() == magic.lane_words(rows, t).tobytes()
        keys = [(0, 0), (random_bits(old, t), random_bits(old, t))]
        bits = [random_bits(old, t) for _ in range(6)] + [st.a0 for st in states]
        labels = magic.lane_words(bits, t)
        assert (qf._overlaps(t, words, keys, labels).tobytes()
                == qf.overlaps(states, keys, labels).tobytes())


def random_bits(rng, t):
    """A uniform t-bit int (0 for t = 0)."""
    return int.from_bytes(rng.bytes((t + 7) // 8), "little") & ((1 << t) - 1)


def echelon_state(t, r, rng):
    """A random state in canonical form with r rows at random pivots."""
    pivots = sorted(int(p) for p in rng.choice(t, size=r, replace=False))
    others = ((1 << t) - 1) & ~sum(1 << p for p in pivots)
    rows = tuple((1 << p) | (random_bits(rng, t) & others) >> (p + 1) << (p + 1)
                 for p in pivots)
    q = tuple(random_bits(rng, r) >> j << j for j in range(r))
    return qf.QuadraticFormState(t, random_bits(rng, t) & others, rows, random_bits(rng, r), q)


def dense_overlaps(st, x, z):
    """<phi_b| Z^z X^x |theta> for every b from dense vectors."""
    t = st.t
    xz = (x & z).bit_count()
    ket = 1j**xz * dense.pauli_apply(to_dense(st), sb.PauliOperator(t, x, z), t)
    return [
        np.vdot(dense.product_vector([(b >> q) & 1 for q in range(t)]), ket)
        for b in range(1 << t)
    ]


def overlaps(st, labels, x=0, z=0):
    """<phi_b| Z^z X^x |theta> for each label b: one form, one ``overlaps`` row."""
    return qf.overlaps([st], [(x, z)], magic.lane_words(labels, st.t))[0]


def z4_sum(L, J, alive):
    """(e, k) of sum over u in F2^alive of i^(L.u + 2 sum_(m<n) J_mn u_m u_n)
    as 2^(e/2) w^k, or None when it is 0: one lane of ``_z4_lanes``."""
    t, full = len(L), (1 << len(L)) - 1
    (acc,) = qf._z4_lanes(
        np.array([[v & 3 for v in L]], np.uint8).reshape(1, t),
        magic.lane_words([j & full for j in J], t)[None],
        np.zeros(1, np.intp),
        magic.lane_words([alive & full], t),
    ).tolist()
    return None if acc >= qf._ZERO else (acc >> 16, acc & 7)


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
            got = overlaps(st, list(range(1 << t)), x, z)
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
                got = overlaps(st, list(range(8)), x, z)
                assert np.allclose(got, dense_overlaps(st, x, z), atol=1e-12)

    @pytest.mark.parametrize("rank", ["none", "full", "full-1"])
    def test_extreme_ranks_under_pivot_shifts(self, rank):
        # r = 0, r = t and r = t - 1, with x hitting pivot columns so that
        # labels leave fixed pivots at 1 and shift the form
        rng = np.random.default_rng(330)
        hits = 0
        for t in range(1, 8):
            r = {"none": 0, "full": t, "full-1": t - 1}[rank]
            for _ in range(6):
                st = echelon_state(t, r, rng)
                pivots = sum(row & -row for row in st.R)
                x = random_bits(rng, t) | (pivots & -pivots)
                z = random_bits(rng, t)
                got = overlaps(st, list(range(1 << t)), x, z)
                for want, have in zip(dense_overlaps(st, x, z), got):
                    assert abs(have - want) <= 1e-12
                hits += bool(x & pivots)
        assert hits == 0 if rank == "none" else hits >= 30

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
            got = overlaps(st, labels, x, z)
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

    def test_overlaps_pinned(self):
        # pins every overlap bit for bit as complex128 bytes, the values a
        # repr digest pinned before the Z4 form was built once per call.
        # A random x sets pivot bits s of a0 ^ x, and
        # ``shifted`` counts the labels that miss some of s: off such a
        # label the once-per-call move y = s ^ y' holds a pivot at 1, so
        # the phases that move adds (the constant and the pivots' L) count
        h = hashlib.sha256()
        shifted = 0
        for t in (3, 8, 16, 40, 70):
            rng = np.random.default_rng(700 + t)
            for _ in range(4):
                st = qf.random_stabilizer_state(t, rng)
                pivots = sum(row & -row for row in st.R)
                for x, z in ((0, 0), (random_bits(rng, t), random_bits(rng, t)),
                             (random_bits(rng, t), 0)):
                    labels = []
                    for i in range(20):
                        if i % 2:
                            labels.append(random_bits(rng, t))
                            continue
                        # a shifted support point and some extra bits
                        y, point = random_bits(rng, len(st.R)), st.a0 ^ x
                        for j, row in enumerate(st.R):
                            if (y >> j) & 1:
                                point ^= row
                        labels.append(point | (random_bits(rng, t) & random_bits(rng, t)))
                    shifted += sum(bool((st.a0 ^ x) & pivots & ~b) for b in labels)
                    h.update(overlaps(st, labels, x, z).tobytes())
        assert shifted >= 100
        assert h.hexdigest() == (
            "76f67dc5ab1883a44a8c7c9eac8c5307d3fd320de183c3b4754d3e6e755fe516"
        )

    @pytest.mark.parametrize("t", [8, 70])
    def test_many_keys_equal_one_key_calls(self, t):
        # one call over several Paulis gives each Pauli's rows of its own
        # one-key call bit for bit, as complex128 bytes: the forms of a state
        # share its R, Q and l, and each Pauli's move stays in its own form
        rng = np.random.default_rng(760 + t)
        states = [qf.random_stabilizer_state(t, rng) for _ in range(3)]
        keys = [(0, 0), (random_bits(rng, t), random_bits(rng, t)), (random_bits(rng, t), 0),
                (0, random_bits(rng, t))]
        bits = [st.a0 | (random_bits(rng, t) & random_bits(rng, t)) for st in states * 4]
        labels = magic.lane_words(bits + [random_bits(rng, t) for _ in range(8)], t)
        many = qf.overlaps(states, keys, labels).reshape(len(states), len(keys), len(labels))
        assert np.count_nonzero(many) and not np.all(many)
        for j, key in enumerate(keys):
            one = qf.overlaps(states, [key], labels)
            assert one.tobytes() == np.ascontiguousarray(many[:, j]).tobytes()

    def test_z4_sum_ignores_self_bits_and_bits_outside_alive(self):
        # the invariant behind building the form once per call: only bits of
        # variables still to be summed are read, so junk elsewhere in J, and
        # L or J of variables outside ``alive``, leave (e, k) unchanged
        rng = np.random.default_rng(340)
        width = 12
        for _ in range(400):
            alive = random_bits(rng, width)
            upper = np.triu(rng.integers(0, 2, size=(width, width)), 1)
            L = [int(v) for v in rng.integers(-8, 8, size=width)]
            J = [sum(int(upper[m, n] | upper[n, m]) << n for n in range(width)) & alive
                 if (alive >> m) & 1 else 0 for m in range(width)]
            junk = [(j | random_bits(rng, width) & ~alive) ^ (int(rng.integers(2)) << m)
                    for m, j in enumerate(J)]
            noisy = [v if (alive >> m) & 1 else int(rng.integers(-8, 8)) for m, v in enumerate(L)]
            assert z4_sum(noisy, junk, alive) == z4_sum(list(L), list(J), alive)

    def test_z4_sum_spread_over_wide_lanes(self):
        # d variables scattered over t > 64 bits (words and rows skipped
        # below the lowest one, the empty-lane index past the last word's
        # bit at t = 150) give the same (e, k) as the same sum packed low
        rng = np.random.default_rng(330)
        for t in (70, 128, 150):
            for _ in range(60):
                d = int(rng.integers(0, 9))
                at = sorted(int(q) for q in rng.choice(t, size=d, replace=False))
                L = [int(v) for v in rng.integers(0, 4, size=d)]
                upper = np.triu(rng.integers(0, 2, size=(d, d)), 1)
                J = [sum(int(upper[m, n] | upper[n, m]) << n for n in range(d)) for m in range(d)]
                wide_l, wide_j = [0] * t, [0] * t
                for m, q in enumerate(at):
                    wide_l[q] = L[m]
                    wide_j[q] = sum(1 << at[n] for n in range(d) if (J[m] >> n) & 1)
                alive = sum(1 << q for q in at)
                assert z4_sum(wide_l, wide_j, alive) == z4_sum(L, J, (1 << d) - 1)

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
            got = z4_sum(list(L), list(J), (1 << d) - 1)
            if got is None:
                assert abs(want) < 1e-9
            else:
                e, k = got
                assert abs(2 ** (e / 2) * np.exp(1j * np.pi * k / 4) - want) <= 1e-9
