"""Random stabilizer states as an affine support with quadratic-form phases.

A t-qubit stabilizer state is, up to global phase,
``theta(x) = 2^(-r/2) sum_y [x = a0 ^ yR] i^(l.y) (-1)^(q(y))`` over
y in F2^r (Dehaene-De Moor, quant-ph/0304125).  ``_draw`` draws a chunk of
them uniformly, with no Clifford circuit, in two stages: a span test per
row in Python ints, then one numpy back-substitution to canonical form.
Overlaps with the |0>/|+> product terms of a decomposition under a Pauli
are exponential sums over Z4 forms (Bravyi-Gosset, arXiv:1601.07601):
``_overlaps`` builds one O(t^2) form per state and Pauli from the chunk's
arrays and sums every term of every form in one numpy elimination whose
lanes are the (form, term) pairs.  ``sample_overlaps`` (fastnorm's sampler)
runs the two per chunk; ``random_stabilizer_state`` and ``overlaps`` wrap
them for ``QuadraticFormState``s.  Bit q of an int is qubit q.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from typing import NamedTuple, Sequence

import numpy as np

from .magic import ROOT2, T_MAX, lane_words, pack_lanes

#: w^k (k = 0..7) for w = e^(i pi / 4)
_C = math.sqrt(0.5)
_ROOTS8 = np.array([1, complex(_C, _C), 1j, complex(-_C, _C), -1, complex(-_C, -_C), -1j,
                    complex(_C, -_C)])


class QuadraticFormState(NamedTuple):
    """theta(x) = 2^(-r/2) sum_y [x = a0 ^ yR] i^(l.y) (-1)^(q(y)), y in F2^r.

    ``R`` holds r rows in reduced echelon form: row j's pivot is its lowest
    set bit, pivots ascend, and no row has a bit in another row's pivot
    column.  ``a0`` is the support's coset representative with zeros at the
    pivots.  Bit j of ``l`` is y_j's i-phase and bit k of ``Q[j]`` (k >= j)
    the coefficient of y_j y_k in q (Dehaene-De Moor, quant-ph/0304125).
    Every stabilizer state has exactly one such form up to global phase.
    """

    t: int
    a0: int
    R: tuple
    l: int
    Q: tuple


def support_dimension_counts(t: int) -> list:
    """Number of t-qubit stabilizer states (up to phase) by support dimension.

    w_r = 2^(t-r) [t r]_2 2^(r + r(r+1)/2): affine r-dimensional supports
    times the i^(l.y) (-1)^(q(y)) phase patterns on them.
    """
    counts, gauss = [], 1  # gauss = [t r]_2
    for r in range(t + 1):
        counts.append(gauss << (t + r * (r + 1) // 2))
        gauss = gauss * ((1 << (t - r)) - 1) // ((1 << (r + 1)) - 1)
    return counts


@functools.lru_cache(maxsize=64)
def _support_cdf(t: int) -> tuple:
    counts = support_dimension_counts(t)
    total = sum(counts)
    return tuple(s / total for s in itertools.accumulate(counts))


def _random_rows(t: int, count: int, rng) -> list:
    """``count`` uniform t-bit ints from one draw of raw 64-bit words."""
    mask = (1 << t) - 1
    if t <= 64:
        return (rng.bit_generator.random_raw(count) & mask).tolist()
    width = 8 * -(-t // 64)
    data = rng.bit_generator.random_raw(width // 8 * count).astype("<u8").tobytes()
    return [int.from_bytes(data[i:i + width], "little") & mask
            for i in range(0, width * count, width)]


def _draw(t: int, count: int, rng) -> np.ndarray:
    """``count`` uniformly random t-qubit stabilizer states (up to global
    phase), one after another from ``rng``, as (count, 2t + 2, width)
    ``lane_words``: per state a0, the t rows of R by pivot (0 off the
    pivots), l, the r rows of Q and t - r zeros.  l and Q are as drawn: no
    reader looks at bits of l from r on, nor of Q[j] below j or from r on.

    The support dimension r is drawn with weight ``support_dimension_counts``.
    The subspace is the row space of r uniform rows, each redrawn while it
    lies in the span of the rows before it (tested in Python ints on a
    forward echelon, whose row p has its lowest set bit at p): that makes the
    matrix uniform over the full-rank ones, so its row space is uniform.  a0,
    l and Q are uniform bits.  One numpy back-substitution over the chunk then
    reduces the rows and a0 to the one canonical form of each state, so the
    draw is uniform over the states.

    A state reads r = ``rng.random()``, then its 2r + 2 words (r rows, a0, l
    and Q) with one ``_random_rows`` call.  Redraws take the next words of
    that list (one word a call once they pass its end), and one more call
    tops it up by the words they used, so the rng gives the words of one
    call per row, in the same order.
    """
    if t < 1:
        raise ValueError("qubit count must be at least 1")
    if not isinstance(rng, np.random.Generator):
        raise ValueError(f"a stabilizer draw needs an rng (an np.random.Generator), got {rng!r}")
    if isinstance(rng.bit_generator, np.random.MT19937):
        raise ValueError(f"{type(rng.bit_generator).__name__} gives 32-bit raw words, and a "
                         "stabilizer draw needs 64-bit ones (PCG64, Philox or SFC64)")
    cdf, values = _support_cdf(t), []
    for _ in range(count):
        r = bisect.bisect_right(cdf, rng.random())
        words, used = _random_rows(t, 2 * r + 2, rng), r
        rows = [0] * (t + 1)  # rows[p + 1]: the row whose lowest set bit is p
        for row in words[:r]:
            while True:
                p = (row & -row).bit_length()
                while other := rows[p]:
                    row ^= other
                    p = (row & -row).bit_length()
                if p:
                    break
                if used == len(words):
                    words += _random_rows(t, 1, rng)
                row, used = words[used], used + 1  # the row was in the span: redraw it
            rows[p] = row
        if more := used + r + 2 - len(words):
            words += _random_rows(t, more, rng)
        rows[0], *lq = words[used:]
        values += rows + lq + [0] * (t - r)
    words = lane_words(values, t).reshape(count, 2 * t + 2, -1).copy()
    # from the highest column p down, reduced row p clears bit p from a0 and
    # lower rows; rows of higher pivots lack bit p, so it is still as drawn
    echelon = words[:, :t + 1]
    drawn = np.unpackbits(echelon.view(np.uint8), axis=-1, count=t, bitorder="little")
    for p in range(t - 1, -1, -1):
        echelon[:, :p + 1] ^= drawn[:, :p + 1, p, None] * echelon[:, p + 1, None]
    return words


def random_stabilizer_state(t: int, rng) -> QuadraticFormState:
    """A uniformly random t-qubit stabilizer state (up to global phase): one
    ``_draw`` as a ``QuadraticFormState``."""
    words = _draw(t, 1, rng)[0]
    a0, *values = (words[:, 0].tolist() if t <= 64 else
                   [int.from_bytes(w.tobytes(), "little") for w in words])
    # tuples from lists: one built from a generator is resized, so every
    # draw would leave a block in CPython's per-size tuple free lists
    R = tuple([row for row in values[:t] if row])
    low, q = (1 << len(R)) - 1, values[t + 1:t + 1 + len(R)]
    return QuadraticFormState(t, a0, R, values[t] & low,
                              tuple([(qj & low) >> j << j for j, qj in enumerate(q)]))


#: the size of a chunk: lanes x t x words of J in one elimination tile,
#: and states x t x t bits in one batch of ``overlaps``
_LANE_ENTRIES = 1 << 18


def lane_tile(t: int) -> int:
    """Lanes per elimination tile at t variables: ``_LANE_ENTRIES`` over J's
    t x words entries per lane."""
    return max(1, _LANE_ENTRIES // (t * -(-t // 64)))


def chunk_states(t: int, lanes: int) -> int:
    """States per chunk when each brings ``lanes`` lanes: as many as fill
    one lane tile and hold at most ``_LANE_ENTRIES`` form bits, at least one."""
    return max(1, min(lane_tile(t) // max(lanes, 1), _LANE_ENTRIES // (t * t)))


def _lowest(words: np.ndarray, t: int) -> tuple:
    """(index, words of that bit alone) of each lane's lowest set bit, by
    popcount of the bits below it; an empty lane's index is its bit count in
    one word, and t in several."""
    if words.shape[1] == 1:
        low = words & -words
        return np.bitwise_count(low[:, 0] - 1), low
    rows, nonzero = np.arange(len(words)), words != 0
    w = np.where(nonzero.any(axis=1), nonzero.argmax(axis=1), words.shape[1] - 1)
    word = words[rows, w]
    low = word & -word
    bit = np.zeros_like(words)
    bit[rows, w] = low
    return np.minimum(64 * w + np.bitwise_count(low - 1), t), bit


#: (e, k, zero) of a lane packed in one int64: k's sum in the low bits, e
#: from bit 16, and a zero sum from bit 32
_E, _ZERO = 1 << 16, 1 << 32
#: L of the sentinel row, which a lane reads for a variable it does not
#: have: L_m = 4 means nothing is left, L_p = 4 no neighbour
_NONE = 4
#: a tile of at least this many lanes sheds them once half are idle: below
#: it the numpy calls of shedding cost more than the idle lanes' work
_SHED_LANES = 256


def _step_tables() -> tuple:
    """One step of sum over u in F2^alive of
    i^(sum_m L_m u_m + 2 sum_(m<n) J_mn u_m u_n), which is 2^(e/2) w^k
    (w = e^(i pi/4), 0 <= k < 8) or 0, as table rows: the step sums out
    the lowest variable m, and its row's code is L_m + 5 L_p, with p the
    lowest neighbour of m (either may be ``_NONE``).

    An odd L_m gives sqrt2 w^(2 - L_m) i^((L_m - 2) s), s = parity(J_m . u),
    which moves L and J of m's neighbours: in Z4,
    s = sum_nb u - 2 sum_(pairs in nb) u u.  An even L_m gives
    2 [s = L_m/2], a constraint that substitutes one neighbour p,
    u_p = c ^ parity(u_T) with c = L_m/2 and T the other neighbours:
    L_p u_p = L_p c + L_p (1 - 2c) sum_T u - 2 L_p sum_(pairs in T) u u and
    2 u_p u_n (n in N_p) = 2 c u_n + 2 sum_T u_n u_n'.  With no neighbour
    the constraint is 0 = L_m/2, so the sum is 0 when L_m = 2.  Only bits
    of variables still to be summed are read, and the sum does not depend
    on the order.  A ``_STEPS`` row is (substitute p, T's shift, N_p's
    shift, T's rows toggle T too, the lane goes on), an ``_ACC`` entry the
    step's packed (e, k, zero)."""
    steps, acc = np.zeros((25, 5), np.uint8), np.zeros(25, np.int64)
    for lm, lp in itertools.product(range(_NONE), range(_NONE + 1)):
        code, c = lm + 5 * lp, lm >> 1
        if lm & 1:  # sqrt2 w^(2 - L_m): T = the neighbours, which gain -L_m
            steps[code], acc[code] = (0, -lm % 4, 0, 1, 1), _E + (2 - lm) % 8
        elif lp < _NONE:  # 2 w^(2 L_p c): substitute p, T = the other neighbours
            steps[code] = (1, lp * (1 - 2 * c) % 4, 2 * c, lp & 1, 1)
            acc[code] = 2 * _E + 2 * lp * c % 8
        else:  # 2 [c = 0]
            steps[code], acc[code] = (0, 0, 0, 0, 1 - c), 2 * _E + c * _ZERO
    return steps, acc


_STEPS, _ACC = _step_tables()


def _z4_lanes(L: np.ndarray, J: np.ndarray, form: np.ndarray, alive: np.ndarray) -> np.ndarray:
    """The Z4 sum of ``_step_tables`` in every lane at once: each lane's
    (e, k, zero), packed as in ``_ACC`` (k mod 8 is the low 3 bits).

    Lane i sums the variables ``alive[i]`` (``lane_words`` words) of form
    ``form[i]``, whose terms are ``L[form[i]]`` (t values, read mod 4) and
    ``J[form[i]]`` (t rows of words).  Each pass sums out every lane's
    lowest alive variable m by the rule read from ``_STEPS``
    and ``_ACC``: an odd L_m moves its neighbours, and an even L_m with
    neighbours substitutes the lowest one, p.  Both updates have one
    shape: rows in a set T gain a shift in L and toggle a mask in J, rows
    in N_p gain 2c and toggle T (N_p is empty when L_m is odd).  A lane
    with nothing left to sum, or a zero sum, reads the sentinel row as m
    and stands idle.  A lane's m only rises, so in lanes of several words a
    pass rewrites only the rows and words from the tile's lowest m on.  A
    tile of at least ``_SHED_LANES`` lanes drops its idle lanes once half
    of them are idle.
    """
    t, width = J.shape[1:]
    # the last row is the sentinel that ``_lowest`` gives a lane with no bit
    # set, and the rows from t up to it are dead
    rows = (8 * J.itemsize if width == 1 else t) + 1
    extra = rows - t
    L = np.concatenate([L, np.zeros((len(L), extra), np.uint8)], axis=1).take(form, axis=0)
    L[:, -1] = _NONE
    J = np.concatenate([J, np.zeros((len(J), extra, width), J.dtype)], axis=1).take(form, axis=0)
    mod4 = np.array([3] * (rows - 1) + [7], np.uint8)  # L mod 4, and the sentinel's 4 kept
    alive, out = alive.copy(), np.zeros(len(alive), np.int64)
    lanes, acc, size = np.arange(len(alive)), out.copy(), len(alive)
    flat_l, flat_j, base = L.reshape(-1), J.reshape(-1, width), np.arange(0, size * rows, rows)
    while True:
        count = int(np.count_nonzero(alive if width == 1 else alive.any(axis=1)))
        if not count:
            out[lanes] = acc
            return out
        if size >= _SHED_LANES and 2 * count <= size:
            # shed idle lanes down to a power of two, busy lanes first: exact
            # counts would leave numpy's small-block cache one block per size
            order = np.argsort(~alive.any(axis=1), kind="stable")
            size = 1 << (count - 1).bit_length()
            out[lanes.take(order[size:])] = acc.take(order[size:])
            keep = order[:size]
            lanes, acc, L, J, alive = (a.take(keep, axis=0) for a in (lanes, acc, L, J, alive))
            flat_l, flat_j, base = L.reshape(-1), J.reshape(-1, width), base[:size]
        m, bit = _lowest(alive, t)
        alive ^= bit
        at = base + m  # each lane's row m in flat_l and flat_j
        nb = flat_j.take(at, axis=0) & alive
        code = flat_l.take(at)
        p, bit = _lowest(nb, t)
        at = base + p
        code += 5 * flat_l.take(at)
        sub, tadd, nadd, jodd, live = _STEPS.take(code, axis=0).T
        acc += _ACC.take(code)
        bit *= sub[:, None]
        alive ^= bit
        alive *= live[:, None]
        T = nb ^ bit
        N = (flat_j.take(at, axis=0) & alive) * sub[:, None]
        # T and N_p lie above every lane's m, so in wide lanes only the rows
        # r and words w from the lowest m on change (in one-word lanes the
        # strided views would cost more than the rows they skip)
        r = int(m.min()) if width > 1 else 0
        w = r >> 6
        T, N, first = T[:, w:], N[:, w:], r - 64 * w  # row r is bit `first` of word w
        bt = np.unpackbits(T.view(np.uint8), axis=1, count=rows - 64 * w, bitorder="little")
        bn = np.unpackbits(N.view(np.uint8), axis=1, count=rows - 64 * w, bitorder="little")
        bt, bn = bt[:, first:], bn[:, first:]
        L[:, r:] += bt * tadd[:, None] + bn * (nadd[:, None] + 2 * bt)
        L[:, r:] &= mod4[r:]
        J[:, r:, w:] ^= (bn[..., None] * T[:, None]
                         ^ bt[..., None] * (N ^ T * jodd[:, None])[:, None])


def overlaps(states: Sequence[QuadraticFormState], keys: Sequence,
             labels: np.ndarray) -> np.ndarray:
    """(len(states) * len(keys), len(labels)) complex128 <phi_b| Z^z X^x |theta>,
    one row per state theta and Pauli (x, z) in ``keys``, state-major, with
    the labels b as ``lane_words`` rows: ``_overlaps`` of the states' words."""
    t, values = states[0].t, []
    for st in states:
        rows = [0] * t
        for row in st.R:
            rows[(row & -row).bit_length() - 1] = row
        values += [st.a0, *rows, st.l, *st.Q] + [0] * (t - len(st.Q))
    return _overlaps(t, lane_words(values, t).reshape(len(states), 2 * t + 2, -1), keys, labels)


def _overlaps(t: int, words: np.ndarray, keys: Sequence, labels: np.ndarray) -> np.ndarray:
    """``overlaps`` of the states in ``_draw``'s words.

    X^x moves a0 to a = a0 ^ x, and Z^z adds a sign and flips q's diagonal
    by parity(z & R_j).  Once per (state, Pauli) form, y = s ^ y' with
    s = a's pivot bits adds s's rows to a, so that a is zero on the pivots:
    y' gains 2 in its i-phase at l_n s_n = 1 and at parity(q's pairs of
    n & s) = 1, and the sum one constant phase.  A support point's pivot
    bits are then y' itself, so a point inside b fixes y' = 0 off b, and
    each non-pivot column c outside b asks parity(y' & column c) = a_c.
    Each such check enters the sum as one more variable v_c, through
    [check] = 1/2 sum_v (-1)^(v (y' . column c + a_c)).  So a pivot n has
    L = l_n + 2 (q_nn (after Z^z) + l_n s_n + parity(q's pairs of n & s))
    and J = q's pairs and its row's check columns, and a check c has
    L = 2 a_c and J = the pivots of the rows through c (Bravyi-Gosset,
    arXiv:1601.07601).  Every state is a t x t bit matrix with row j at
    its pivot column, so all forms come from a few numpy calls (l and Q are
    read at the pivot columns by one flat ``take`` each), and the products
    that only need parities run in uint8.  A label b sums the
    variables ``pivots & b`` and ``~pivots & ~b`` of a form, and its overlap
    is 2^((e - 2 |~pivots & ~b| - |b| - rank)/2) w^(k + phase) for the
    sum's (e, k), or 0: every label of every form is one lane of
    ``_z4_lanes``, in tiles of ``lane_tile(t)`` lanes.
    """
    count, per = len(words), len(keys)
    bits = np.unpackbits(words.view(np.uint8), axis=-1, count=t, bitorder="little")
    a0, Rc, cols = bits[:, None, 0], bits[:, 1:t + 1], np.arange(t)
    pivot = Rc[:, cols, cols]
    # l and Q by pivot column n, from their bit j = the count of pivots below
    # n: state s's l is flat row (s(2t + 2) + t + 1) of t bits, and Q's rows follow it
    j = pivot.cumsum(axis=1, dtype=np.intp) - pivot
    row = (np.arange(count)[:, None] * (2 * t + 2) + t + 1) * t
    flat = bits.reshape(-1)
    lin = (flat.take(row + j) & pivot)[:, None]
    Qc = flat.take((row + t + t * j)[..., None] + j[:, None]) & (pivot[..., None] & pivot[:, None])
    x, z = np.unpackbits(lane_words([x for x, _ in keys] + [z for _, z in keys], t).view(np.uint8),
                         axis=1, count=t, bitorder="little").reshape(2, per, t)
    upper, off = cols[:, None] < cols, cols[:, None] != cols
    pairs = Qc & upper
    sym = pairs | pairs.transpose(0, 2, 1)
    checks = Rc & off
    J = pack_lanes(sym | checks | checks.transpose(0, 2, 1)).repeat(per, axis=0)
    # per Pauli: a = a0 ^ x and its pivot bits s.  Products in uint8 are
    # counts mod 256, and only their parities are read.  A pivot's L reads
    # s @ sym and a check's L reads a ^ s @ R, which is 0 at every pivot,
    # so one product over sym | R serves both
    a = a0 ^ x
    s = a & pivot[:, None]
    diag = Qc[:, cols, cols][:, None] ^ z @ Rc.transpose(0, 2, 1)
    both = lin & s
    L = ((lin + 2 * (diag ^ both ^ a ^ s @ (sym | Rc))) & 3).reshape(count * per, t)
    # 2 |lin & s| + 4 (|diag & s| + s^T pairs s + |a & z|), mod 8
    doubled = (s & (diag ^ s @ pairs.transpose(0, 2, 1))) ^ a & z
    phase = ((2 * both + 4 * doubled).sum(axis=-1) % 8).reshape(-1).astype(np.int64)
    pivots = pack_lanes(pivot).repeat(per, axis=0)
    rank = pivot.sum(axis=1, dtype=np.int64).repeat(per)
    # lanes: each form's pivots inside b and its checks outside b, per label b
    size = len(L) * len(labels)
    outside = (pivots ^ lane_words([(1 << t) - 1], t))[:, None] & ~labels
    alive = ((pivots[:, None] & labels) | outside).reshape(size, labels.shape[1])
    shift = 2 * np.bitwise_count(outside).sum(axis=-1, dtype=np.int64)
    shift += np.bitwise_count(labels).sum(axis=-1, dtype=np.int64) + rank[:, None]
    form, acc, tile = np.arange(len(L)).repeat(len(labels)), np.empty(size, np.int64), lane_tile(t)
    for lo in range(0, size, tile):
        acc[lo:lo + tile] = _z4_lanes(L, J, form[lo:lo + tile], alive[lo:lo + tile])
    acc = acc.reshape(shift.shape)
    scale = ROOT2[3 * T_MAX::-1]  # 2^(-n/2) for the n = 0..3t that t <= T_MAX gives
    out = scale[shift - ((acc >> 16) & 0xFFFF)] * _ROOTS8[(acc + phase[:, None]) & 7]
    out[acc >= _ZERO] = 0
    return out


def sample_overlaps(t: int, keys: Sequence, labels: np.ndarray, m: int, rng):
    """Yield, for each of m samples in order, the (len(keys), len(labels))
    ``overlaps`` of one fresh ``random_stabilizer_state``.  One ``_draw``
    call draws a chunk of ``chunk_states`` samples' states with the rng
    stream of one draw per sample, and no state is drawn unused."""
    per = chunk_states(t, len(keys) * len(labels))
    for done in range(0, m, per):
        count = min(per, m - done)
        yield from _overlaps(t, _draw(t, count, rng), keys, labels).reshape(count, len(keys), -1)
