"""Random stabilizer states as an affine support with quadratic-form phases.

A t-qubit stabilizer state is, up to global phase,
``theta(x) = 2^(-r/2) sum_y [x = a0 ^ yR] i^(l.y) (-1)^(q(y))`` over
y in F2^r (Dehaene-De Moor, quant-ph/0304125).  ``random_stabilizer_state``
draws it uniformly without a Clifford circuit, and ``product_overlaps``
gives its overlaps with the |0>/|+> product terms of a decomposition under
a Pauli as exponential sums over Z4 forms (Bravyi-Gosset,
arXiv:1601.07601), in O(t^2) int operations per term at any t.  Bit q of
an int is qubit q, as in ``stabilizer``.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from typing import NamedTuple, Sequence

import numpy as np

from .stabilizer import _add_row

#: w^k for w = e^(i pi / 4)
_C = math.sqrt(0.5)
_ROOTS8 = (1, complex(_C, _C), 1j, complex(-_C, _C), -1, complex(-_C, -_C), -1j, complex(_C, -_C))


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

    def support(self) -> tuple:
        """(x, e): the 2^r support points and theta(x) = 2^(-r/2) i^e.

        Built by doubling over the rows: index y's bit j is y_j, and adding
        row j adds l_j + 2 Q_jj + 2 |y & column j of Q above the diagonal|.
        """
        if self.t > 62:
            raise ValueError("dense support points are limited to t <= 62")
        x = np.array([self.a0], dtype=np.int64)
        e = np.zeros(1, dtype=np.int64)
        for j, row in enumerate(self.R):
            above = sum(((q >> j) & 1) << i for i, q in enumerate(self.Q[:j]))
            step = ((self.l >> j) & 1) + 2 * ((self.Q[j] >> j) & 1)
            quad = np.bitwise_count(np.arange(len(x)) & above).astype(np.int64)
            x = np.concatenate([x, x ^ row])
            e = np.concatenate([e, (e + step + 2 * quad) % 4])
        return x, e


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
    width = 8 * ((t + 63) // 64)
    data = rng.bit_generator.random_raw(width // 8 * count).astype("<u8").tobytes()
    return [int.from_bytes(data[i:i + width], "little") & ((1 << t) - 1)
            for i in range(0, width * count, width)]


def random_stabilizer_state(t: int, rng) -> QuadraticFormState:
    """A uniformly random t-qubit stabilizer state (up to global phase).

    The support dimension r is drawn with weight ``support_dimension_counts``.
    The subspace is the row space of r uniform rows, each redrawn while it
    lies in the span of the rows before it: that makes the matrix uniform
    over the full-rank ones, so its row space is uniform.  a0, l and Q are
    uniform bits, with a0 reduced by the pivots.  Each state has one
    canonical form, so the draw is uniform over the states.
    """
    if t < 1:
        raise ValueError("qubit count must be at least 1")
    r = bisect.bisect_right(_support_cdf(t), rng.random())
    echelon: dict = {}
    for row in _random_rows(t, r, rng):
        rank = len(echelon)
        _add_row(echelon, row, t)
        while len(echelon) == rank:  # the row was in the span: redraw it
            _add_row(echelon, _random_rows(t, 1, rng)[0], t)
    a0, l, *q = _random_rows(t, r + 2, rng)
    for col, row in echelon.items():
        if (a0 >> col) & 1:
            a0 ^= row
    low = (1 << r) - 1
    # tuples from lists: one built from a generator is resized, so every
    # draw would leave a block in CPython's per-size tuple free lists
    return QuadraticFormState(
        t=t,
        a0=a0,
        R=tuple([echelon[c] for c in sorted(echelon)]),
        l=l & low,
        Q=tuple([(qj & low) >> j << j for j, qj in enumerate(q)]),
    )


def _z4_sum(L: list, J: list, alive: int):
    """sum over u in F2^alive of i^(sum_m L_m u_m + 2 sum_(m<n) J_mn u_m u_n).

    ``alive`` is the mask of the variables, ``L[m]`` an int (read mod 4)
    and ``J[m]`` a mask of the n with J_mn = 1 (symmetric, bits outside
    ``alive`` ignored); both lists are updated in place.  Returns (e, k)
    with the sum 2^(e/2) w^k, w = e^(i pi/4), or None when it is 0.  The
    variables are summed out one at a time, the highest first.  An odd L_m
    gives sqrt2 w^(2 - L_m) i^((L_m - 2) s), s = parity(J_m . u), which
    moves L and J of m's neighbours; an even L_m gives 2 [s = L_m/2], a
    constraint that replaces one neighbour, or 0 when m has none.
    """
    e = k = 0
    while alive:
        m = alive.bit_length() - 1
        alive ^= 1 << m
        lm, nb = L[m] % 4, J[m] & alive
        if lm & 1:
            # in Z4, s = sum_nb u - 2 sum_(pairs in nb) u u
            e += 1
            k += 2 - lm
            rest = nb
            while rest:
                bit = rest & -rest
                n = bit.bit_length() - 1
                L[n] += lm - 2
                J[n] ^= nb ^ bit
                rest ^= bit
            continue
        e += 2
        if not nb:
            if lm == 2:
                return None
            continue
        # substitute u_p = c ^ parity(u_T):
        # L_p u_p = L_p c + L_p (1 - 2c) sum_T u - 2 L_p sum_(pairs in T) u u
        # and 2 u_p u_n (n in N_p) = 2 c u_n + 2 sum_T u_n u_n'
        p_bit = nb & -nb
        p = p_bit.bit_length() - 1
        alive ^= p_bit
        T, c = nb ^ p_bit, lm >> 1
        lp, np_ = L[p] % 4, J[p] & alive
        k += 2 * lp * c
        rest = np_ | T
        while rest:
            bit = rest & -rest
            n = bit.bit_length() - 1
            toggle = 0
            if bit & T:
                L[n] += lp * (1 - 2 * c)
                toggle ^= np_ ^ (T if lp & 1 else 0)
            if bit & np_:
                L[n] += 2 * c + (2 if bit & T else 0)
                toggle ^= T
            J[n] ^= toggle & ~bit
            rest ^= bit
    return e, k


def product_overlaps(
    state: QuadraticFormState, labels: Sequence[int], x: int = 0, z: int = 0
) -> list:
    """<phi_b| Z^z X^x |theta> for each label b, |phi_b> the product of |+>
    on b's set bits and |0> elsewhere.

    X^x moves a0, and Z^z adds a sign and flips q's diagonal by
    parity(z & R_j).  With y indexed by the pivot columns, a support point's
    pivot bits are y itself, so a point inside b fixes y off b, and each
    non-pivot column c outside b asks parity(y & column c) = (a0 ^ x)_c.
    Each such check enters the sum as one more variable v_c, through
    [check] = 1/2 sum_v (-1)^(v (y . column c + (a0 ^ x)_c)).  Shifting q
    to the fixed part leaves one Z4 form over the free pivots and the
    checks, which ``_z4_sum`` sums: O(t^2) int operations per label
    (Bravyi-Gosset, arXiv:1601.07601).
    """
    t, rows = state.t, state.R
    piv = [row & -row for row in rows]
    pivots = sum(piv)

    def cols(mask: int) -> int:
        """a mask over the rows as the same mask over their pivots"""
        out = 0
        while mask:
            bit = mask & -mask
            out |= piv[bit.bit_length() - 1]
            mask ^= bit
        return out

    a = state.a0 ^ x
    sign = (z & a).bit_count() & 1
    lin, diag = cols(state.l), 0
    upper, sym = {}, dict.fromkeys(piv, 0)  # q's pairs: above, both sides
    column: dict = {}  # non-pivot column bit -> pivots whose rows have it
    for j, (p, row, qj) in enumerate(zip(piv, rows, state.Q)):
        if ((qj >> j) ^ (z & row).bit_count()) & 1:
            diag |= p
        upper[p] = rest = cols(qj >> (j + 1) << (j + 1))
        sym[p] |= rest
        while rest:
            bit = rest & -rest
            sym[bit] |= p
            rest ^= bit
        rest = row ^ p
        while rest:
            bit = rest & -rest
            column[bit] = column.get(bit, 0) | p
            rest ^= bit
    row_of = dict(zip(piv, rows))

    def quad(mask: int) -> int:
        """q(y) over the pairs inside ``mask``"""
        total, rest = 0, mask
        while rest:
            bit = rest & -rest
            total += (upper[bit] & mask).bit_count()
            rest ^= bit
        return total

    def shift(mask: int) -> int:
        """the linear part q(mask ^ w) - q(mask) - q(w) as a mask over w"""
        out, rest = 0, mask
        while rest:
            bit = rest & -rest
            out ^= sym[bit]
            rest ^= bit
        return out

    full, out = (1 << t) - 1, []
    L, J = [0] * t, [0] * t
    for b in labels:
        free, y0 = pivots & b, a & pivots & ~b
        checks = full & ~pivots & ~b
        # y = y0 + w with w over the free pivots, disjoint from y0: the
        # i-phases add, and q(y0 + w) = q(y0) + shift(y0) . w + q(w)
        const = (lin & y0).bit_count() + 2 * ((diag & y0).bit_count() + quad(y0))
        flips = diag ^ shift(y0)
        rest = free
        while rest:
            bit = rest & -rest
            n = bit.bit_length() - 1
            L[n] = ((lin >> n) & 1) + 2 * ((flips >> n) & 1)
            J[n] = (sym[bit] & free) | (row_of[bit] & checks)
            rest ^= bit
        rest = checks
        while rest:
            bit = rest & -rest
            n = bit.bit_length() - 1
            col = column.get(bit, 0)
            L[n] = 2 * (((col & y0).bit_count() + (a >> n & 1)) & 1)
            J[n] = col & free
            rest ^= bit
        summed = _z4_sum(L, J, free | checks)
        if summed is None:
            out.append(0j)
            continue
        e, k = summed
        scale = 2.0 ** ((e - 2 * checks.bit_count() - b.bit_count() - len(rows)) / 2)
        out.append(scale * _ROOTS8[(k + 2 * const + 4 * sign) % 8])
    return out
