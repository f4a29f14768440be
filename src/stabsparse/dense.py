"""Dense statevector oracle for small qubit counts.

Everything here scales as 2^n and exists to cross-check the stabilizer
formalism and the sparsified estimators.  Index convention matches the
rest of the package: bit q of the array index is qubit q.
"""

from __future__ import annotations

import numpy as np

from .stabilizer import CliffordOp, PauliOperator

VECTOR_CAP = 12
DENSITY_CAP = 10

_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_Z = np.diag([1, -1]).astype(np.complex128)
_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)

PAULI_MATRICES = {"I": np.eye(2, dtype=np.complex128), "X": _X, "Y": _Y, "Z": _Z}


def zero_vector(n: int) -> np.ndarray:
    vec = np.zeros(1 << n, dtype=np.complex128)
    vec[0] = 1.0
    return vec


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


def apply_one_qubit(vec: np.ndarray, mat: np.ndarray, q: int, n: int) -> np.ndarray:
    work = vec.reshape([2] * n)
    axis = n - 1 - q  # C order: last axis is qubit 0
    work = np.moveaxis(work, axis, 0)
    work = np.tensordot(mat, work, axes=(1, 0))
    work = np.moveaxis(work, 0, axis)
    return work.reshape(-1)


_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_index_cache: dict = {}


def _bit_indices(n: int, q: int):
    """(indices with bit q clear, same + 2^q), cached per (n, q)."""
    key = (n, q)
    hit = _index_cache.get(key)
    if hit is None:
        idx = np.arange(1 << n)
        lo = idx[(idx >> q) & 1 == 0]
        hit = (lo, lo + (1 << q))
        _index_cache[key] = hit
    return hit


def apply_gate(vec: np.ndarray, name: str, qubits, n: int) -> np.ndarray:
    """In-place-style fast application of the package gate set."""
    out = vec.copy()
    if name == "H":
        lo, hi = _bit_indices(n, qubits[0])
        a, b = out[lo], out[hi]
        out[lo] = (a + b) * _INV_SQRT2
        out[hi] = (a - b) * _INV_SQRT2
    elif name == "S":
        _, hi = _bit_indices(n, qubits[0])
        out[hi] *= 1j
    elif name == "Sdg":
        _, hi = _bit_indices(n, qubits[0])
        out[hi] *= -1j
    elif name == "X":
        lo, hi = _bit_indices(n, qubits[0])
        out[lo], out[hi] = vec[hi], vec[lo]
    elif name == "Z":
        _, hi = _bit_indices(n, qubits[0])
        out[hi] *= -1.0
    elif name == "CX":
        c, t = qubits
        lo, hi = _bit_indices(n, t)
        ctrl = (lo >> c) & 1 == 1
        out[lo[ctrl]], out[hi[ctrl]] = vec[hi[ctrl]], vec[lo[ctrl]]
    elif name == "CZ":
        c, t = qubits
        _, hi = _bit_indices(n, t)
        out[hi[(hi >> c) & 1 == 1]] *= -1.0
    else:
        raise ValueError(f"unknown gate {name!r}")
    return out


def apply_clifford_dense(vec: np.ndarray, op: CliffordOp) -> np.ndarray:
    out = vec
    for name, qubits in op.word:
        out = apply_gate(out, name, qubits, op.n)
    return out


def clifford_unitary(op: CliffordOp) -> np.ndarray:
    dim = 1 << op.n
    cols = []
    for b in range(dim):
        e = np.zeros(dim, dtype=np.complex128)
        e[b] = 1.0
        cols.append(apply_clifford_dense(e, op))
    return np.stack(cols, axis=1)


def pauli_matrix(p: PauliOperator) -> np.ndarray:
    mat = np.array([[p.phase]], dtype=np.complex128)
    for q in reversed(range(p.n)):
        xb = (p.x_bits >> q) & 1
        zb = (p.z_bits >> q) & 1
        sigma = PAULI_MATRICES["IXZY"[xb + 2 * zb]]
        mat = np.kron(mat, sigma)
    return mat


def pauli_apply(vec: np.ndarray, p: PauliOperator, n: int) -> np.ndarray:
    out = vec.astype(np.complex128) * p.phase
    for q in range(n):
        xb = (p.x_bits >> q) & 1
        zb = (p.z_bits >> q) & 1
        if xb or zb:
            out = apply_one_qubit(out, PAULI_MATRICES["IXZY"[xb + 2 * zb]], q, n)
    return out


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
