"""Random stabilizer states as an affine support with quadratic-form phases.

A t-qubit stabilizer state is, up to global phase,
``theta(x) = 2^(-r/2) sum_y [x = a0 ^ yR] i^(l.y) (-1)^(q(y))`` over
y in F2^r (Dehaene-De Moor, quant-ph/0304125).  ``random_stabilizer_state``
draws it uniformly without a Clifford circuit, and ``product_overlaps``
gives its overlaps with the |0>/|+> product terms of a decomposition under
a Pauli as exponential sums over Z4 forms (Bravyi-Gosset,
arXiv:1601.07601): one O(t^2) form per state and Pauli, with the
Pauli's move of the support folded in once, then one elimination per
term and no per-term shift, at any t: fastnorm's only sampler.  Bit q of
an int is qubit q, as in ``stabilizer``.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from typing import NamedTuple, Sequence

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
    and ``J[m]`` a mask of the n with J_mn = 1 (symmetric); both lists are
    updated in place.  Only bits of variables still to be summed are ever
    read, so bits outside ``alive`` and each row's own bit may hold
    anything.  Returns (e, k) with the sum 2^(e/2) w^k, w = e^(i pi/4), or
    None when it is 0.  The variables are summed out one at a time, the
    highest first.  An odd L_m gives sqrt2 w^(2 - L_m) i^((L_m - 2) s),
    s = parity(J_m . u), which moves L and J of m's neighbours; an even L_m
    gives 2 [s = L_m/2], a constraint that replaces one neighbour, or 0
    when m has none.
    """
    e = k = 0
    while alive:
        m = alive.bit_length() - 1
        alive ^= 1 << m
        lm, nb = L[m] & 3, J[m] & alive
        if lm & 1:
            # in Z4, s = sum_nb u - 2 sum_(pairs in nb) u u
            e += 1
            k += 2 - lm
            lm -= 2
            rest = nb
            while rest:
                bit = rest & -rest
                n = bit.bit_length() - 1
                L[n] += lm
                J[n] ^= nb
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
        lp, np_ = L[p] & 3, J[p] & alive
        k += 2 * lp * c
        # T's rows gain lt and toggle jt, N_p's gain ln and toggle T
        lt, jt, ln = lp * (1 - 2 * c), np_ ^ T if lp & 1 else np_, 2 * c
        rest = np_ | T
        while rest:
            bit = rest & -rest
            n = bit.bit_length() - 1
            if not bit & T:
                L[n] += ln
                J[n] ^= T
            elif bit & np_:
                L[n] += lt + ln + 2
                J[n] ^= jt ^ T
            else:
                L[n] += lt
                J[n] ^= jt
            rest ^= bit
    return e, k


def product_overlaps(
    state: QuadraticFormState, labels: Sequence[int], x: int = 0, z: int = 0
) -> list:
    """<phi_b| Z^z X^x |theta> for each label b, |phi_b> the product of |+>
    on b's set bits and |0> elsewhere.

    X^x moves a0 to a = a0 ^ x, and Z^z adds a sign and flips q's diagonal
    by parity(z & R_j).  Once per call, y = s ^ y' with s = a's pivot bits
    adds s's rows to a, so that a is zero on the pivots: y' gains 2 in its
    i-phase at l_n s_n = 1 and at parity(q's pairs of n & s) = 1, and the
    sum one constant phase.  A support point's pivot bits are then y'
    itself, so a point inside b fixes y' = 0 off b, and each non-pivot
    column c outside b asks parity(y' & column c) = a_c.  Each such check
    enters the sum as one more variable v_c, through
    [check] = 1/2 sum_v (-1)^(v (y' . column c + a_c)).  One Z4 form over
    all t variables (pivots and checks) is built per call, and each label
    restricts it to its free pivots and checks and sums it with
    ``_z4_sum``: one O(t^2) form per state and Pauli, then one elimination
    per label (Bravyi-Gosset, arXiv:1601.07601).
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
    sign, s = (z & a).bit_count() & 1, a & pivots
    for p, row in zip(piv, rows):  # y = s ^ y': a gains s's rows
        if p & s:
            a ^= row
    lin, diag = cols(state.l), 0
    # const: the phase i^const that y = s ^ y' leaves; sym: q's pairs, both sides
    const, sym = (lin & s).bit_count(), dict.fromkeys(piv, 0)
    # the form: a pivot n has L = l_n + 2 (q_nn (after Z^z) + l_n s_n +
    # parity(sym_n & s)) and J = q's pairs and its row's check columns; a
    # check c has L = 2 a_c and J = column c
    L0, J0 = [2 * ((a >> n) & 1) for n in range(t)], [0] * t
    for j, (p, row, qj) in enumerate(zip(piv, rows, state.Q)):
        n = p.bit_length() - 1
        if ((qj >> j) ^ (z & row).bit_count()) & 1:
            diag |= p
        rest = cols(qj >> (j + 1) << (j + 1))
        if p & s:
            const += 2 * (rest & s).bit_count()
        sym[p] |= rest  # complete: the rows before j have added theirs
        L0[n] = (lin >> n & 1) + 2 * ((diag ^ lin & s) >> n & 1) + 2 * (sym[p] & s).bit_count()
        J0[n] = sym[p] | row ^ p
        while rest:
            bit = rest & -rest
            sym[bit] |= p
            rest ^= bit
        rest = row ^ p
        while rest:
            bit = rest & -rest
            J0[bit.bit_length() - 1] |= p
            rest ^= bit
    const += 2 * (diag & s).bit_count()

    out, others = [], ((1 << t) - 1) & ~pivots
    for b in labels:
        free, checks = pivots & b, others & ~b
        summed = _z4_sum(L0[:], J0[:], free | checks)
        if summed is None:
            out.append(0j)
            continue
        e, k = summed
        scale = 2.0 ** ((e - 2 * checks.bit_count() - b.bit_count() - len(rows)) / 2)
        out.append(scale * _ROOTS8[(k + 2 * const + 4 * sign) % 8])
    return out
