"""Norms, approximation-error diagnostics and Pauli-outcome estimation.

Every exact quantity comes from one closed-form Gram kernel over the
|0>/|+> product terms, sum_ij conj(a_i) a_j <phi_i| P |phi_j> for a Pauli
sum P, by popcounts on packed bits over the upper triangle in row tiles,
summed as real 2 x 2 products of [Re a, Im a] with terms in canonical order
(see ``_gram``); ``exact_sqnorm`` is its P = I case.  Monte-Carlo norm
estimation (``fastnorm``) samples random stabilizer states instead, drawn
directly by ``quadform`` with closed-form product-term overlaps.  Probability
estimation conjugates each measured Pauli back through the Clifford circuit
(Heisenberg picture), so a joint outcome probability is a telescoping
product of ratios of such norms.  ``sqnorm_terms`` keeps the CH-form path as
the test reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import dense
from .magic import MagicModel, SparseDecomposition, dense_decomposition, dense_target
from .magic import to_states  # noqa: F401  (unused here; perfbench traces it at this name)
from .quadform import product_overlaps, random_stabilizer_state
from .stabilizer import (
    CliffordOp,
    PauliOperator,
    Tableau,
    _ones,
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
    seed: Optional[int] = None

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
    decomposition_id: Optional[str] = None
    circuit_id: Optional[str] = None


#: entries per row-tile Gram block: temporaries stay O(tile * k) and in cache
_TILE_ENTRIES = 1 << 18


def _words(values: Sequence[int], t: int) -> np.ndarray:
    """(len(values), ceil(t/64)) little-endian uint64 words of t-bit ints."""
    width = (t + 63) // 64
    data = b"".join(v.to_bytes(8 * width, "little") for v in values)
    return np.frombuffer(data, dtype="<u8").reshape(len(values), width)


def _terms(decomp: SparseDecomposition, scale: float = 1.0) -> tuple:
    """Packed bits and k x 2 rows [Re, Im] of r_b * scale * phase, with
    r_b = 2^((h - |b|)/2) as ``_gram`` takes them, sorted by (bits, Re, Im)
    so that a Gram sum is independent of the entry order."""
    bits = _words([x for x, _ in decomp.entries], decomp.t)
    ri = (decomp.phases() * scale).view(np.float64).reshape(-1, 2)
    order = np.lexsort((ri[:, 1], ri[:, 0], *bits.T))
    bits, ri = bits[order], ri[order]
    r = np.exp2(16 * bits.shape[1] - 0.5 * np.bitwise_count(bits).sum(axis=-1))
    return bits, ri * r[:, None]


def _gram(bits: np.ndarray, ri: np.ndarray, pauli_sum: dict) -> complex:
    """sum_P c_P sum_ij conj(a_i) a_j <phi_i| P |phi_j> over |0>/|+> products.

    ``bits`` holds the labels as uint64 words (a set bit is |+>), ``ri`` the
    amplitudes as rows r_b [Re a, Im a] from ``_terms``, ``pauli_sum``
    {(x, z): c} for sum c X^x Z^z.  An entry of G_P is 0 if a qubit has
    x & ~a & ~b or z & a & b, else 2^(-|a ^ b|/2) (-1)^|x & z & b| (live
    x & z qubits have one of a, b set).  With r_b = 2^((h - |b|)/2) in the
    amplitudes, the overlap is an exact 2^(|a & b| - h) (h = 32 per word
    keeps both in range): one tile per row tile serves all Paulis, each
    adding its dead mask and column signs.  G_P^T = (-1)^|x & z| G_P, so row
    tile I meets only columns lo: and an off-diagonal block's z adds its
    mirror (-1)^|x & z| conj(z).  Blocks sum as the real 2 x 2
    M = ri_I^T G ri_J, and a_I^dag G a_J = M00 + M11 + i(M01 - M10).
    """
    k, width = bits.shape
    if width > 16:
        raise ValueError("the Gram kernel's power-of-two scaling covers t <= 1024")
    h, keys = 32 * width, list(pauli_sum)
    words = _words([x for x, _ in keys] + [z for _, z in keys], 64 * width)
    xw, zw = words.reshape(2, len(keys), 1, 1, width)
    sri = ri[None]  # (Paulis, k, 2) with each Pauli's column signs
    if any(x & z for x, z in keys):
        odd = np.bitwise_count(bits & (xw & zw)[:, 0]).sum(axis=-1) & 1
        sri = np.where(odd[..., None], -ri, ri)
    m = np.zeros((2, len(keys), 2, 2))  # diagonal and off-diagonal blocks
    tile = max(1, _TILE_ENTRIES // max(k * len(keys), 1))
    for lo in range(0, k, tile):
        hi = min(lo + tile, k)
        a, b = bits[lo:hi, None, :], bits[None, lo:, :]
        both = a & b
        cnt = np.bitwise_count(both)
        g = np.ldexp(2.0**-h, cnt[..., 0] if width == 1 else cnt.sum(axis=-1, dtype=np.int32))
        if any(x or z for x, z in keys):
            g = np.where((xw & ~(a | b)).any(axis=-1) | (zw & both).any(axis=-1), 0.0, g)
        m[0] += ri[lo:hi].T @ (g[..., :hi - lo] @ sri[:, lo:hi])
        if hi < k:
            m[1] += ri[lo:hi].T @ (g[..., hi - lo:] @ sri[:, hi:])
    total = 0j
    for (x, z), (d0, d1), (o0, o1) in zip(keys, m[0].tolist(), m[1].tolist()):
        off = complex(o0[0] + o1[1], o0[1] - o1[0])
        off += (-1) ** (x & z).bit_count() * off.conjugate()
        total += pauli_sum[x, z] * (complex(d0[0] + d1[1], d0[1] - d1[0]) + off)
    return total


def exact_sqnorm(decomp: SparseDecomposition) -> NormEstimate:
    """Exact <psi|psi> of a product-term decomposition in O(k^2)."""
    bits, ri = _terms(decomp)
    total = _gram(bits, ri, {(0, 0): 1}).real
    value = float(decomp.prefactor**2 * total)
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


_I_POWERS = np.array([1, 1j, -1, -1j])


def _sampled_sqnorm(decomp: SparseDecomposition, pauli_sum: dict, m_samples: int, rng) -> float:
    """(2^t / M) sum_j |<theta_j| O |psi>|^2 for O = sum c X^x Z^z, {(x, z): c}.

    Each sample is one ``random_stabilizer_state`` draw on either branch, so
    a seed gives the same theta_j at any t.  Up to the dense cap,
    <theta|O psi> is one gather of the precomputed dense O|psi> over
    theta's support; above it, each term's <theta| X^x Z^z |phi_b> comes
    from ``product_overlaps`` as conj(<phi_b| Z^z X^x |theta>).
    """
    if m_samples < 1:
        raise ValueError("sample count must be at least 1")
    t = decomp.t
    total = 0.0
    if t <= dense.VECTOR_CAP:
        psi = dense_decomposition(decomp)
        vec = sum(
            c * (-1j) ** (x & z).bit_count() * dense.pauli_apply(psi, PauliOperator(t, x, z), t)
            for (x, z), c in pauli_sum.items()
        )
        for _ in range(m_samples):
            points, e = random_stabilizer_state(t, rng).support()
            total += abs(np.vdot(_I_POWERS[e], vec[points])) ** 2 / len(points)
    else:
        labels, phases = [b for b, _ in decomp.entries], decomp.phases()
        for _ in range(m_samples):
            theta = random_stabilizer_state(t, rng)
            amp = sum(
                c * np.vdot(product_overlaps(theta, labels, x, z), phases)
                for (x, z), c in pauli_sum.items()
            )
            total += abs(decomp.prefactor * amp) ** 2
    return float(2.0**t * total / m_samples)


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
    """Product of Pauli sums {(x, z): c}, each standing for sum c X^x Z^z."""
    out: dict = {}
    for (x1, z1), c1 in left.items():
        for (x2, z2), c2 in right.items():
            key = (x1 ^ x2, z1 ^ z2)
            # Z^z1 X^x2 = (-1)^|z1 & x2| X^x2 Z^z1
            out[key] = out.get(key, 0) + (-1) ** (z1 & x2).bit_count() * c1 * c2
    return {key: c for key, c in out.items() if c != 0}


def _conjugate(tab: Tableau, p: PauliOperator) -> dict:
    """U^dag P U as a Pauli sum, multiplying the rows U^dag X_q U and
    U^dag Z_q U of the tableau of U^dag as P = phase i^e X^x Z^z dictates."""
    out = {(0, 0): p.phase * 1j ** p.xz_phase_power()}
    for row in _ones(p.x_bits) + [p.n + q for q in _ones(p.z_bits)]:
        r = tab.row_pauli(row)
        out = _product(out, {(r.x_bits, r.z_bits): r.phase * 1j ** r.xz_phase_power()})
    return out


def pauli_prob(
    decomp: SparseDecomposition,
    circuit: Optional[CliffordOp],
    paulis: Sequence,
    method: str = EXACT,
    fastnorm_samples: int = 1000,
    rng=None,
    decomposition_id: Optional[str] = None,
    circuit_id: Optional[str] = None,
) -> ProbabilityEstimate:
    """Joint outcome probability of a chain of Pauli measurements.

    ``paulis`` is a sequence of (PauliOperator, outcome) pairs measured in
    order after the circuit C.  With P'_j = C^dag P_j C and O_j =
    Pi'_j ... Pi'_1, Pi'_j = (I + outcome_j P'_j)/2, a sum of at most 2^j
    Paulis, the j-th projected norm is N_j = <psi| O_j^dag O_j |psi> (EXACT:
    the Gram kernel) or a sample mean of 2^t |<theta| O_j |psi>|^2
    (FASTNORM).  Step j's conditional is N_j / N_(j-1); N_j <= 1e-14
    N_(j-1) counts as annihilation and yields probability zero.
    """
    if method not in (EXACT, FASTNORM):
        raise ValueError(f"unknown norm method {method!r}")
    if method == FASTNORM and rng is None:
        raise ValueError("fastnorm needs an rng")
    for p, outcome in paulis:
        if not p.is_hermitian or outcome not in (1, -1):
            raise ValueError("measurements need Hermitian Paulis and outcomes +-1")
        if p.n != decomp.t:
            raise ValueError("Pauli and decomposition disagree on qubit count")
    if circuit is None:
        circuit = CliffordOp(decomp.t)
    if circuit.n != decomp.t:
        raise ValueError("circuit and decomposition disagree on qubit count")
    tab = circuit.inverse_tableau()
    bits, ri = _terms(decomp, decomp.prefactor)

    def measure_norm(op: dict, op_dag: dict) -> float:
        if not op:
            return 0.0
        if method == FASTNORM:
            return _sampled_sqnorm(decomp, op, fastnorm_samples, rng)
        return float(_gram(bits, ri, _product(op_dag, op)).real)

    # O_j and O_j^dag = Pi'_1 ... Pi'_j, grown one projector at a time
    op = op_dag = {(0, 0): 1.0}
    norm_prev = measure_norm(op, op_dag)
    steps = []
    for p, outcome in paulis:
        proj = {(0, 0): 0.5}
        for key, c in _conjugate(tab, p).items():
            proj[key] = proj.get(key, 0) + 0.5 * outcome * c
        op, op_dag = _product(proj, op), _product(op_dag, proj)
        norm_next = measure_norm(op, op_dag)
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
        decomposition_id=decomposition_id,
        circuit_id=circuit_id,
    )
