"""Norms, approximation-error diagnostics and Pauli-outcome estimation.

Every exact quantity comes from one closed-form Gram kernel over the
|0>/|+> product terms, sum_ij conj(a_i) a_j <phi_i| P |phi_j> for a list of
Paulis P (``exact_sqnorm`` is its P = I case), by popcounts one word-major
label plane at a time, in one block of plain temporaries when one row tile
covers every row and otherwise over the upper triangle in row tiles that
reuse one set of O(tile k) buffers at every width, summed as real 2 x 2
products of [Re a, Im a] with terms in canonical order (see ``_gram``).
Monte-Carlo norm estimation (``fastnorm``) samples random stabilizer states
instead, drawn with their closed-form product-term overlaps by
``quadform.sample_overlaps`` at every t.  Probability estimation works in
the Heisenberg picture: one Pauli frame pushes the measured Paulis back
through the Clifford circuit (``CliffordOp.conjugate_paulis``), and a joint
outcome probability is a telescoping product of ratios of norms under the
projected Pauli sums.  One chain evaluator serves estimates and truths:
``pauli_prob`` takes the Paulis' values on psi from one Gram call (or
samples them), ``target_prob`` takes them on the exact magic state from its
one-qubit Bloch components, and both share the annihilation rule and the
clamp.  ``target_overlap`` gives <Psi|psi> in O(k t), hence the
sparsification error at any t.  ``approx_error``, the ``rho1_*``
diagnostics and ``sqnorm_terms`` stay as dense and CH-form test oracles;
they are the module's only users of ``dense``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from . import dense
from .magic import (ROOT2, T_MAX, MagicModel, SparseDecomposition, dense_decomposition,
                    dense_target, lane_words)
from .magic import to_states  # noqa: F401  (unused here; perfbench traces it at this name)
from .quadform import sample_overlaps
from .stabilizer import (
    CliffordOp,
    apply_clifford,  # noqa: F401  (unused here; perfbench traces it at this name)
    project_pauli,  # noqa: F401  (unused here; perfbench traces it at this name)
    random_clifford,  # noqa: F401  (unused here; perfbench traces it at this name)
)

EXACT = "EXACT"
FASTNORM = "FASTNORM"


@dataclass(frozen=True)
class NormEstimate:
    value: float
    method: str
    samples_used: int = 0

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("squared norm cannot be negative")
        if self.method == EXACT and self.samples_used != 0:
            raise ValueError("EXACT norms use no samples")


@dataclass(frozen=True)
class ProbabilityEstimate:
    value: float
    raw_value: float
    step_values: tuple
    paulis: tuple
    norm_method: str
    clamped: bool


def check_t(t: int) -> None:
    """Exact norms and fastnorm take t in [1, ``T_MAX``]."""
    if not 1 <= t <= T_MAX:
        raise ValueError(f"no exact norm or fastnorm at t = {t}: t must lie in [1, {T_MAX}]")


#: entries per row-tile Gram block over all Paulis: a call whose whole block
#: (k^2 entries per Pauli) fits uses temporaries, larger ones reuse O(tile * k) buffers
_TILE_ENTRIES = 1 << 18
#: the signs +1, -1 as a table: with cold caches an index costs less than a where
_SIGNS = np.array([1.0, -1.0])


def _word_sum(width: int, count: Callable) -> np.ndarray:
    """Per-word counts count(w) summed over w < width: uint8 for one word, else int16."""
    total = count(0)
    for w in range(1, width):
        total = np.add(total, count(w), dtype=np.int16)
    return total


def _terms(decomp: SparseDecomposition, scale: float = 1.0) -> tuple:
    """The decomposition's labels as word-major planes, (width, k) with one
    contiguous row per ``lane_words`` word, and k x 2 rows [Re, Im] of r_b *
    scale * phase, r_b = 2^((h - |b|)/2) as ``_gram`` takes them, both sorted
    by (bits, Re, Im) so that a Gram sum is independent of the term order."""
    ri = (decomp.phases() * scale).view(np.float64).reshape(-1, 2)
    order = np.lexsort((ri[:, 1], ri[:, 0], *decomp.labels.T))
    bits = np.ascontiguousarray(decomp.labels[order].T)
    count = _word_sum(len(bits), lambda w: np.bitwise_count(bits[w]))
    # 2^((h - |b|)/2), h = 32 * width: ROOT2 read down from 2^(h/2)
    r = ROOT2[3 * T_MAX + 32 * len(bits)::-1][count]
    return bits, ri[order] * r[:, None]


def _gram(bits: np.ndarray, ri: np.ndarray, keys: Sequence) -> list:
    """[sum_ij conj(a_i) a_j <phi_i| X^x Z^z |phi_j> for (x, z) in keys].

    ``bits`` holds the |0>/|+> product labels as ``_terms``' word-major
    planes (a set bit is |+>), ``ri`` the amplitudes as rows r_b [Re a, Im
    a].  An entry of G_P is 0 if a qubit has x & ~a & ~b or z & a & b, that
    is if row a's mask x ^ ((x ^ z) & a) meets ~(a ^ b), else 2^(-|a ^
    b|/2) (-1)^|x & z & b| (live x & z qubits have one of a, b set).  With
    r_b = 2^((h - |b|)/2) in the amplitudes, the overlap is an exact 2^(|a &
    b| - h) (h = 32 per lane or 64-bit word keeps both in range): one tile
    per row tile serves all Paulis, each adding its live mask and column
    signs.  Counts, signs and live masks come one word plane at a time (one
    pass at t <= 64), and the tiled overlap scales exactly by 2^|a_w & b_w|
    per word: buffers hold one plane, and no value depends on the width.
    G_P^T = (-1)^|x & z| G_P, so row tile I meets only columns lo: and an
    off-diagonal block's z adds its mirror (-1)^|x & z| conj(z).  Blocks sum
    as the real 2 x 2 M = ri_I^T G ri_J, and a_I^dag G a_J = M00 + M11 +
    i(M01 - M10).  When one row tile covers every row (k^2 len(keys) <=
    ``_TILE_ENTRIES``), the whole block comes from fresh temporaries, with
    no buffer set-up and no off-diagonal block: at k = 32 that is cheaper
    than the pool.  Otherwise every tile writes into contiguous leading
    views of one set of flat buffers, allocated for the first (largest) tile,
    which beats fresh temporaries at k in the thousands.  Both paths give
    the same bits.
    """
    width, k = bits.shape
    if width > T_MAX // 64:
        raise ValueError(f"the Gram kernel's power-of-two scaling covers t <= {T_MAX}")
    h, keys = 32 * width, list(keys)
    p = len(keys)
    sri = ri[None]  # (Paulis, k, 2) with each Pauli's column signs
    pauli = any(x or z for x, z in keys)
    if pauli:
        words = lane_words([x for x, _ in keys] + [z for _, z in keys], 8 * bits.itemsize * width)
        xs, zs = words.T.reshape(width, 2, p, 1).swapaxes(0, 1)  # (width, Paulis, 1) each
        rows = (xs ^ ((xs ^ zs) & bits[:, None]))[:, :, :, None]  # x ^ ((x ^ z) & a) per row a
        if any(x & z for x, z in keys):
            odd = _word_sum(width, lambda w: np.bitwise_count(bits[w] & (xs[w] & zs[w]))) & 1
            sri = ri * _SIGNS[odd][..., None]
    tile = max(1, _TILE_ENTRIES // max(k * p, 1))
    if tile >= k:  # one row tile: plain temporaries, and no off-diagonal block
        a = bits[:, :, None]
        cnt = _word_sum(width, lambda w: np.bitwise_count(a[w] & bits[w]))
        g = ROOT2[3 * T_MAX - 2 * h::2][cnt]  # g = 2^(|a & b| - h)
        if pauli:  # live where the row mask misses ~(a ^ b) in every word
            for w in range(width):
                g = g * ((rows[w] & (~a[w] ^ bits[w])) == 0)
        m = np.zeros((p, 2, 2))
        m += ri.T @ (g @ sri)  # from zero like the tiled sum, so -0.0 reads 0.0
        return [complex(d0[0] + d1[1], d0[1] - d1[0]) for d0, d1 in m.tolist()]
    m = np.zeros((2, p, 2, 2))  # diagonal and off-diagonal blocks
    size = tile * k
    both_buf, cnt_buf, g_buf = np.empty(size, bits.dtype), np.empty(size, np.uint8), np.empty(size)
    if pauli:
        dead_buf, live_buf, gp_buf = (np.empty(p * size, dt) for dt in (bits.dtype, bool, float))
    for lo in range(0, k, tile):
        hi = min(lo + tile, k)
        n, e, shape = hi - lo, (hi - lo) * (k - lo), (hi - lo, k - lo)
        a, b = bits[:, lo:hi, None], bits[:, None, lo:]
        both, cnt, g = both_buf[:e].reshape(shape), cnt_buf[:e].reshape(shape), 2.0**-h
        for w in range(width):  # g = 2^(|a & b| - h), one exact scaling per word
            np.bitwise_count(np.bitwise_and(a[w], b[w], out=both), out=cnt)
            g = np.ldexp(g, cnt, out=g_buf[:e].reshape(shape))
        if pauli:
            dead, live, gp = (v[:p * e].reshape(p, *shape) for v in (dead_buf, live_buf, gp_buf))
            for w in range(width):  # ~(a ^ b) = ~a ^ b, from the tile's flipped rows
                np.bitwise_and(rows[w, :, lo:hi], np.bitwise_xor(~a[w], b[w], out=both), out=dead)
                g = np.multiply(g, np.equal(dead, 0, out=live), out=gp)
        m[0] += ri[lo:hi].T @ (g[..., :n] @ sri[:, lo:hi])
        if hi < k:
            m[1] += ri[lo:hi].T @ (g[..., n:] @ sri[:, hi:])
    out = []
    for (x, z), (d0, d1), (o0, o1) in zip(keys, m[0].tolist(), m[1].tolist()):
        off = complex(o0[0] + o1[1], o0[1] - o1[0])
        off += (-1) ** (x & z).bit_count() * off.conjugate()
        out.append(complex(d0[0] + d1[1], d0[1] - d1[0]) + off)
    return out


def exact_sqnorm(decomp: SparseDecomposition) -> NormEstimate:
    """Exact <psi|psi> of a product-term decomposition in O(k^2)."""
    bits, ri = _terms(decomp)
    (total,) = _gram(bits, ri, [(0, 0)])
    value = float(decomp.prefactor**2 * total.real)
    return NormEstimate(value=max(value, 0.0), method=EXACT)


def sqnorm_terms(terms: Sequence) -> float:
    """Exact squared norm of sum_i w_i |state_i> for arbitrary states.

    The CH-form reference for the Gram kernel: pairwise exact inner
    products, O(k^2 t^3).
    """
    total = sum(abs(w) ** 2 * st.sqnorm() for w, st in terms)
    for i, (wi, si) in enumerate(terms):
        for wj, sj in terms[i + 1:]:
            total += 2.0 * (np.conjugate(wi) * wj * si.inner_product(sj)).real
    return float(total)


def fastnorm(decomp: SparseDecomposition, m_samples: int, rng) -> NormEstimate:
    """Monte-Carlo squared norm: (2^t / M) sum_j |<theta_j|psi>|^2.

    theta_j are uniformly random stabilizer states, drawn directly as an
    affine support with quadratic-form phases; uniformity makes
    E|<theta|psi>|^2 = <psi|psi>/2^t, so the estimator is unbiased.
    """
    return NormEstimate(
        value=_sampled_sqnorm(decomp, {(0, 0): 1.0}, m_samples, rng),
        method=FASTNORM,
        samples_used=m_samples,
    )


def _sampled_sqnorm(decomp: SparseDecomposition, pauli_sum: dict, m_samples: int, rng) -> float:
    """(2^t / M) sum_j |<theta_j| O |psi>|^2 for O = sum c X^x Z^z, {(x, z): c}.

    ``sample_overlaps`` draws the states theta_j and gives each sample's
    <phi_b| Z^z X^x |theta_j> for every Pauli and term; only its draws use
    the rng.  Each sample sums its terms' conj(overlap) phase with
    ``np.vdot``, in sample order.  The 2^t scaling is exact (``ldexp``)
    and, like the Gram kernel's, covers t <= ``T_MAX``.
    """
    if isinstance(m_samples, bool) or not isinstance(m_samples, (int, np.integer)):
        raise ValueError(f"sample count must be an int, got {m_samples!r}")
    if m_samples < 1:
        raise ValueError("sample count must be at least 1")
    if not isinstance(rng, np.random.Generator):
        raise ValueError(f"fastnorm needs an rng (an np.random.Generator), got {rng!r}")
    t = decomp.t
    if t > T_MAX:
        raise ValueError(f"fastnorm's 2^t scaling covers t <= {T_MAX}")
    phases = decomp.phases()
    keys, coeffs = list(pauli_sum), list(pauli_sum.values())
    total = 0.0
    for row in sample_overlaps(t, keys, decomp.labels, m_samples, rng):
        amp = sum(c * np.vdot(overlaps, phases) for c, overlaps in zip(coeffs, row))
        total += abs(decomp.prefactor * amp) ** 2
    return float(math.ldexp(total, t) / m_samples)


def approx_error(decomp: SparseDecomposition, model: MagicModel) -> float:
    """Euclidean norm of the dense difference ||Psi - psi|| (t <= 12)."""
    if model.t > dense.VECTOR_CAP:
        raise ValueError(f"dense error diagnostics limited to t <= {dense.VECTOR_CAP}")
    if decomp.t != model.t:
        raise ValueError("decomposition and model disagree on t")
    diff = dense_decomposition(decomp) - dense_target(model)
    return float(np.linalg.norm(diff))


def rho1_matrix(
    model: MagicModel,
    draw: Callable,
    trials: int,
    rng,
) -> np.ndarray:
    """Average of |psi><psi| / <psi|psi> over freshly drawn decompositions."""
    if model.t > dense.DENSITY_CAP:
        raise ValueError(f"density diagnostics limited to t <= {dense.DENSITY_CAP}")
    dim = 1 << model.t
    acc = np.zeros((dim, dim), dtype=np.complex128)
    for _ in range(trials):
        vec = dense_decomposition(draw(rng))
        acc += np.outer(vec, np.conjugate(vec)) / np.vdot(vec, vec).real
    return acc / trials


def rho1_distance(
    model: MagicModel,
    draw: Callable,
    trials: int,
    rng,
) -> float:
    """Trace-norm distance ||E[psi psi^dag / <psi psi>] - Psi Psi^dag||_1."""
    target = dense_target(model)
    rho = rho1_matrix(model, draw, trials, rng)
    return dense.trace_norm(rho - np.outer(target, np.conjugate(target)))


def _product(left: dict, right: dict) -> dict:
    """Product of Pauli sums {(x, z): c}, each standing for sum c X^x Z^z.

    A chain's coefficients are sums of products of 1/2, +-1 and +-i, exact
    in floats, so how a product is formed changes at most the sign of a
    zero, which no norm reads."""
    out: dict = {}
    for (x1, z1), c1 in left.items():
        for (x2, z2), c2 in right.items():
            key = (x1 ^ x2, z1 ^ z2)
            # Z^z1 X^x2 = (-1)^|z1 & x2| X^x2 Z^z1
            out[key] = out.get(key, 0) + (-c1 * c2 if (z1 & x2).bit_count() & 1 else c1 * c2)
    return out if all(out.values()) else {key: c for key, c in out.items() if c}


def _chain(t: int, circuit: Optional[CliffordOp], paulis: Sequence) -> list:
    """[(O_j, O_j^dag)] for j = 0..len(paulis) as Pauli sums {(x, z): c}.

    ``paulis`` is a sequence of (PauliOperator, outcome) pairs measured in
    order after the circuit C.  With P'_j = C^dag P_j C (one Pauli frame,
    ``CliffordOp.conjugate_paulis``), O_j = Pi'_j ... Pi'_1 and
    Pi'_j = (I + outcome_j P'_j)/2, a sum of at most 2^j Paulis.
    """
    for p, outcome in paulis:
        if outcome not in (1, -1):
            raise ValueError("measurement outcomes must be +1 or -1")
        if p.n != t:
            raise ValueError("Pauli and state disagree on qubit count")
    if circuit is None:
        circuit = CliffordOp(t)
    if circuit.n != t:
        raise ValueError("circuit and state disagree on qubit count")
    ops = [({(0, 0): 1.0}, {(0, 0): 1.0})]
    for (_, outcome), image in zip(paulis, circuit.conjugate_paulis([p for p, _ in paulis])):
        proj = {(0, 0): 0.5}
        key = (image.x_bits, image.z_bits)
        proj[key] = proj.get(key, 0) + 0.5 * outcome * (image.phase * 1j ** image.xz_phase_power())
        op, op_dag = ops[-1]
        ops.append((_product(proj, op), _product(op_dag, proj)))
    return ops


def _chain_norms(ops: list, values: Callable) -> list:
    """Every N_j = <O_j^dag O_j> from one ``values(keys)`` call over the
    union of the Pauli sums' keys."""
    sums = [_product(op_dag, op) for op, op_dag in ops]
    keys = list(dict.fromkeys(key for pauli_sum in sums for key in pauli_sum))
    table = dict(zip(keys, values(keys)))
    return [
        float(sum((c * table[key] for key, c in pauli_sum.items()), 0j).real)
        for pauli_sum in sums
    ]


def _chain_estimate(norms: Iterable, paulis: Sequence, method: str) -> ProbabilityEstimate:
    """Step j's conditional is N_j / N_(j-1); N_j <= 1e-14 N_(j-1) counts as
    annihilation, and it and every later step read zero.  ``norms`` is
    consumed lazily, so an annihilated chain evaluates no further norm."""
    norms = iter(norms)
    norm_prev = next(norms)
    steps = []
    for norm_next in norms:
        if norm_prev <= 0.0 or norm_next <= 1e-14 * norm_prev:
            steps += [0.0] * (len(paulis) - len(steps))
            break
        steps.append(norm_next / norm_prev)
        norm_prev = norm_next
    raw = math.prod(steps)
    value = min(1.0, max(0.0, raw))
    return ProbabilityEstimate(
        value=value,
        raw_value=raw,
        step_values=tuple(steps),
        paulis=tuple((p.to_string(), outcome) for p, outcome in paulis),
        norm_method=method,
        clamped=(value != raw),
    )


def pauli_prob(
    decomp: SparseDecomposition,
    circuit: Optional[CliffordOp],
    paulis: Sequence,
    method: str = EXACT,
    fastnorm_samples: int = 1000,
    rng=None,
) -> ProbabilityEstimate:
    """Joint outcome probability of a chain of Pauli measurements on psi.

    The j-th projected norm (see ``_chain``) is N_j = <psi| O_j^dag O_j |psi>
    (EXACT: one Gram call over every step's Paulis) or a sample mean of
    2^t |<theta| O_j |psi>|^2 (FASTNORM, which stops sampling at an
    annihilated step); ``_chain_estimate`` turns the norms into steps.
    """
    if method not in (EXACT, FASTNORM):
        raise ValueError(f"unknown norm method {method!r}")
    ops = _chain(decomp.t, circuit, paulis)
    if method == EXACT:
        norms = _chain_norms(ops, lambda keys: _gram(*_terms(decomp, decomp.prefactor), keys))
    else:
        norms = (_sampled_sqnorm(decomp, op, fastnorm_samples, rng) if op else 0.0
                 for op, _ in ops)
    return _chain_estimate(norms, paulis, method)


def target_prob(
    model: MagicModel, circuit: Optional[CliffordOp], paulis: Sequence
) -> ProbabilityEstimate:
    """``pauli_prob``'s chain on the exact, normalized magic state |Psi>, at any t.

    Each Pauli's value is a product over qubits of the one-qubit Bloch
    components <I> = 1, <X> = sin phi, <Z> = cos phi and <XZ> = -i<Y> = 0.
    """
    sin, cos = math.sin(model.phi), math.cos(model.phi)
    norms = _chain_norms(_chain(model.t, circuit, paulis), lambda keys: [
        0.0 if x & z else sin ** x.bit_count() * cos ** z.bit_count() for x, z in keys])
    return _chain_estimate(norms, paulis, EXACT)


def target_overlap(decomp: SparseDecomposition, model: MagicModel) -> complex:
    """<Psi|psi> = prefactor * sum_i phase_i a^(t - |b_i|) b^|b_i| in O(k t).

    a = <Psi_1|0> and b = <Psi_1|+> for the one-qubit factor Psi_1; with
    ``exact_sqnorm`` it gives the sparsification error
    ||psi - Psi||^2 = ||psi||^2 - 2 Re<Psi|psi> + 1.
    """
    if decomp.t != model.t:
        raise ValueError("decomposition and model disagree on t")
    v0, v1 = model.psi_1
    a, b = v0.conjugate(), (v0 + v1).conjugate() / math.sqrt(2.0)
    table = [a ** (model.t - w) * b**w for w in range(model.t + 1)]
    weights = np.bitwise_count(decomp.labels).sum(axis=1).tolist()
    return decomp.prefactor * sum(ph * table[w] for ph, w in zip(decomp.phases().tolist(), weights))
