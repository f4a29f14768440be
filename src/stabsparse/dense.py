"""Dense statevector oracle for small qubit counts.

Everything here scales as 2^n and exists to cross-check the stabilizer
formalism and the sparsified estimators.  Every operator acts by one rule
on the rows of a vector or matrix: row m holds basis state |m>, bit q of m
is qubit q, and b = 2^q for the gate's target qubit q.

- X, CX and a Pauli's X part gather rows by XOR: row m takes row m ^ b
  (for CX, where the control bit of m is set).
- S, Sdg, Z, CZ and a Pauli's Z part weight each row by its bits.
- H sets row m to (row m & ~b + (-1)^(m_q) row m | b) / sqrt 2.

``clifford_unitary`` and ``pauli_matrix`` are that rule applied to the
identity.
"""

from __future__ import annotations

import numpy as np

from .stabilizer import CliffordOp, PauliOperator

VECTOR_CAP = 12
DENSITY_CAP = 10

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
#: the weight of the rows whose target (and control) bits are set
_WEIGHTS = {"S": 1j, "Sdg": -1j, "Z": -1.0, "CZ": -1.0}


def product_vector(selectors) -> np.ndarray:
    """Dense |0>/|+> product with qubit 0 as the fastest index bit."""
    single = {
        0: np.array([1.0, 0.0], dtype=np.complex128),
        1: np.array([1.0, 1.0], dtype=np.complex128) / np.sqrt(2.0),
    }
    # np.kron(a, b) keeps b as the fast index, so fold qubit 0 first and wrap
    # each later qubit around it as the slower factor.
    vec = np.array([1.0], dtype=np.complex128)
    for sel in selectors:
        vec = np.kron(single[sel], vec)
    return vec


def _gate(rows: np.ndarray, m: np.ndarray, bits: np.ndarray, name: str, qubits) -> np.ndarray:
    """rows after one gate; m is the row index array and bits[:, q] bit q of m."""
    q = qubits[-1]
    ctrl = bits[:, qubits[0]] if len(qubits) == 2 else True
    if name == "H":
        partner = rows[m ^ (1 << q)]
        return np.where(bits[:, q, None], partner - rows, rows + partner) * _INV_SQRT2
    if name in ("X", "CX"):
        return rows[m ^ np.where(ctrl, 1 << q, 0)]
    out = rows.copy()
    out[ctrl & bits[:, q]] *= _WEIGHTS[name]
    return out


def apply_clifford_dense(vec: np.ndarray, op: CliffordOp) -> np.ndarray:
    m = np.arange(1 << op.n)
    bits = (m[:, None] >> np.arange(op.n)) & 1 == 1
    rows = vec.reshape(len(m), -1)
    for name, qubits in op.word:
        rows = _gate(rows, m, bits, name, qubits)
    return rows.reshape(vec.shape)


def clifford_unitary(op: CliffordOp) -> np.ndarray:
    return apply_clifford_dense(np.eye(1 << op.n, dtype=np.complex128), op)


def pauli_apply(vec: np.ndarray, p: PauliOperator, n: int) -> np.ndarray:
    """P vec, with P = phase i^(#Y) X^x Z^z: row m takes row m ^ x, weighted."""
    m = np.arange(1 << n)
    rows = np.asarray(vec, dtype=np.complex128).reshape(len(m), -1)
    odd = np.bitwise_count((m ^ p.x_bits) & p.z_bits) & 1 == 1
    weight = p.phase * 1j ** (p.x_bits & p.z_bits).bit_count() * np.where(odd, -1.0, 1.0)
    return (weight[:, None] * rows[m ^ p.x_bits]).reshape(np.shape(vec))


def pauli_matrix(p: PauliOperator) -> np.ndarray:
    return pauli_apply(np.eye(1 << p.n), p, p.n)


def projector_factor(vec: np.ndarray, p: PauliOperator, outcome: int, n: int):
    """Dense (state, squared-norm factor) for (I + outcome P)/2, or None."""
    proj = 0.5 * (vec + outcome * pauli_apply(vec, p, n))
    norm2 = float(np.vdot(proj, proj).real)
    total = float(np.vdot(vec, vec).real)
    if norm2 / total < 1e-14:
        return None
    return proj / np.sqrt(norm2 / total), norm2 / total


def trace_norm(mat: np.ndarray) -> float:
    """Sum of singular values (for Hermitian input: sum |eigenvalues|)."""
    herm = np.allclose(mat, mat.conj().T, atol=1e-10)
    if herm:
        return float(np.abs(np.linalg.eigvalsh(mat)).sum())
    return float(np.linalg.svd(mat, compute_uv=False).sum())
