"""Norms, approximation-error diagnostics and Pauli-outcome estimation.

Every exact quantity comes from one closed-form Gram kernel over the
|0>/|+> product terms, sum_ij conj(a_i) a_j <phi_i| X^x Z^z |phi_j>,
computed by popcounts on packed bits in row tiles; ``exact_sqnorm`` is its
x = z = 0 case.  Monte-Carlo norm estimation samples random stabilizer
states instead.  Probability estimation conjugates each measured Pauli
back through the Clifford circuit (Heisenberg picture), so a joint outcome
probability is a telescoping product of ratios of such norms.
``sqnorm_terms`` keeps the CH-form path as the test reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import dense
from .magic import MagicModel, SparseDecomposition, dense_decomposition, dense_target
from .magic import to_states  # noqa: F401  (unused here; perfbench traces it at this name)
from .stabilizer import (
    CliffordOp,
    PauliOperator,
    Tableau,
    apply_clifford,
    project_pauli,  # noqa: F401  (unused here; perfbench traces it at this name)
    random_clifford,
    zero_state,
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


#: entries per (row tile x k) Gram block: temporaries stay O(tile * k), never k x k
_TILE_ENTRIES = 1 << 20


def _words(values: Sequence[int], t: int) -> np.ndarray:
    """(len(values), ceil(t/64)) little-endian uint64 words of t-bit ints."""
    width = (t + 63) // 64
    data = b"".join(v.to_bytes(8 * width, "little") for v in values)
    return np.frombuffer(data, dtype="<u8").reshape(len(values), width)


def _gram(bits: np.ndarray, amps: np.ndarray, x: int, z: int) -> complex:
    """sum_ij conj(a_i) a_j <phi_i| X^x Z^z |phi_j> over |0>/|+> products.

    ``bits`` holds the product labels as uint64 words (a set bit is |+>).
    An entry is 0 if any qubit has x & ~a & ~b or z & a & b, else
    2^(-|a ^ b|/2) (-1)^|x & z & ~a & b|; rows go tile by tile.
    """
    k, width = bits.shape
    xw, zw = _words([x, z], 64 * width)
    overlap = np.exp2(-0.5 * np.arange(64 * width + 1))
    tile = max(1, _TILE_ENTRIES // max(k, 1))
    total = 0j
    for lo in range(0, k, tile):
        a = bits[lo:lo + tile, None, :]
        gram = overlap[np.bitwise_count(a ^ bits).sum(axis=-1)]
        if x or z:
            odd = np.bitwise_count(xw & zw & ~a & bits).sum(axis=-1) & 1
            dead = ((xw & ~(a | bits)) | (zw & a & bits)).any(axis=-1)
            gram = np.where(dead, 0.0, np.where(odd, -gram, gram))
        total += np.conjugate(amps[lo:lo + tile]) @ gram @ amps
    return total


def exact_sqnorm(decomp: SparseDecomposition) -> NormEstimate:
    """Exact <psi|psi> of a product-term decomposition in O(k^2)."""
    bits = _words([x for x, _ in decomp.entries], decomp.t)
    total = _gram(bits, decomp.phases(), 0, 0).real
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

    theta_j are uniformly random stabilizer states (random Clifford on
    |0..0>); uniformity makes E|<theta|psi>|^2 = <psi|psi>/2^t, so the
    estimator is unbiased.
    """
    return NormEstimate(
        value=_sampled_sqnorm(decomp, {(0, 0): 1.0}, m_samples, rng),
        method=FASTNORM,
        samples_used=m_samples,
    )


def _sampled_sqnorm(decomp: SparseDecomposition, pauli_sum: dict, m_samples: int, rng) -> float:
    """(2^t / M) sum_j |<theta_j| O |psi>|^2 for O = sum c X^x Z^z, {(x, z): c}."""
    if m_samples < 1:
        raise ValueError("sample count must be at least 1")
    t = decomp.t
    total = 0.0
    if t <= dense.VECTOR_CAP:
        # <theta|O psi> is linear in the decomposition, so at desk scale
        # each draw is one dot against the precomputed dense vector; the
        # random stream (Clifford draws only) matches the generic path
        psi = dense_decomposition(decomp)
        vec = sum(
            c * (-1j) ** (x & z).bit_count() * dense.pauli_apply(psi, PauliOperator(t, x, z), t)
            for (x, z), c in pauli_sum.items()
        )
        for _ in range(m_samples):
            op = random_clifford(t, rng)
            theta = dense.apply_clifford_dense(dense.zero_vector(t), op)
            total += abs(np.vdot(theta, vec)) ** 2
    else:
        for _ in range(m_samples):
            theta = apply_clifford(zero_state(t), random_clifford(t, rng))
            amp = 0.0 + 0.0j
            for (x, z), c in pauli_sum.items():
                # <theta| X^x Z^z |product(b)> = conj(<0| H^b Z^z X^x |theta>):
                # a few one-qubit gates instead of a general inner product
                shifted = theta.copy()
                for q in _ones(x):
                    shifted._apply_x(q)
                for q in _ones(z):
                    shifted._apply_z(q)
                for bits, phase in decomp.entries:
                    ket = shifted.copy()
                    for q in _ones(bits):
                        ket._apply_h(q)
                    amp += c * phase * np.conjugate(ket.amplitude(0))
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


def _ones(value: int) -> list:
    """Positions of the set bits of a non-negative int, ascending."""
    return [q for q in range(value.bit_length()) if (value >> q) & 1]


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
    tab = circuit.inverse().tableau()
    bits = _words([x for x, _ in decomp.entries], decomp.t)
    amps = decomp.prefactor * decomp.phases()

    def measure_norm(op: dict, op_dag: dict) -> float:
        if not op:
            return 0.0
        if method == FASTNORM:
            return _sampled_sqnorm(decomp, op, fastnorm_samples, rng)
        gram = _product(op_dag, op)
        return float(sum(c * _gram(bits, amps, x, z) for (x, z), c in gram.items()).real)

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
