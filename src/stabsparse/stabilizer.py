"""Phase-sensitive stabilizer states in CH form.

The state is stored as ``|psi> = omega * U_C * U_H |s>`` following the
formalism of Bravyi, Browne, Calpin, Campbell, Gosset and Howard
(arXiv:1808.00128, section IV).  ``U_C`` is a "control-type" Clifford
described by binary matrices G, F, M and a phase vector gamma (mod 4),
``U_H`` is a layer of Hadamards selected by the bit vector v, ``s`` is a
computational basis string, and ``omega`` is an explicit complex global
scalar.  Unlike a plain tableau, this form supports exact amplitudes and
exact inner products (including global phase) at cost O(n^3).

Conventions: qubit q corresponds to bit q of an integer basis label
(little endian).  A basis string ``"011"`` puts qubit 0 in |0> and qubits
1, 2 in |1>.  Pauli strings such as ``"+XZI"`` list qubit 0 first.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

GATE_NAMES = ("H", "S", "Sdg", "X", "Z", "CX", "CZ")

_ONE_QUBIT_GATES = frozenset(["H", "S", "Sdg", "X", "Z"])
_TWO_QUBIT_GATES = frozenset(["CX", "CZ"])


def _parity(bits: np.ndarray) -> int:
    return int(np.count_nonzero(bits)) & 1


def bits_from_string(text: str) -> int:
    """Parse a basis string like ``"0110"`` (qubit 0 leftmost) to an int."""
    value = 0
    for q, ch in enumerate(text):
        if ch == "1":
            value |= 1 << q
        elif ch != "0":
            raise ValueError(f"invalid basis character {ch!r}")
    return value


def string_from_bits(value: int, n: int) -> str:
    return "".join("1" if (value >> q) & 1 else "0" for q in range(n))


# ---------------------------------------------------------------------------
# Pauli operators
# ---------------------------------------------------------------------------

_PHASE_CHARS = {1: "+", -1: "-", 1j: "+i", -1j: "-i"}


@dataclass(frozen=True)
class PauliOperator:
    """A Pauli operator ``phase * sigma_1 x ... x sigma_n``.

    ``x_bits``/``z_bits`` are little-endian bit masks; qubit q carries
    X when bit q of ``x_bits`` is set, Z when bit q of ``z_bits`` is set
    and Y when both are set.  ``phase`` must be one of 1, -1, 1j, -1j.
    """

    n: int
    x_bits: int
    z_bits: int
    phase: complex = 1

    def __post_init__(self):
        if self.phase not in (1, -1, 1j, -1j):
            raise ValueError("phase must be a fourth root of unity")
        if self.x_bits >> self.n or self.z_bits >> self.n:
            raise ValueError("Pauli support exceeds qubit count")

    @property
    def is_hermitian(self) -> bool:
        return self.phase in (1, -1)

    @classmethod
    def from_string(cls, text: str) -> "PauliOperator":
        """Parse e.g. ``"XIZY"`` or ``"-ZZ"`` (optional leading +/-)."""
        text = text.strip().replace("−", "-")
        phase = 1
        if text.startswith(("+", "-")):
            phase = -1 if text[0] == "-" else 1
            text = text[1:]
        x = z = 0
        for q, ch in enumerate(text.upper()):
            if ch == "X":
                x |= 1 << q
            elif ch == "Z":
                z |= 1 << q
            elif ch == "Y":
                x |= 1 << q
                z |= 1 << q
            elif ch != "I":
                raise ValueError(f"invalid Pauli character {ch!r}")
        return cls(n=len(text), x_bits=x, z_bits=z, phase=phase)

    def to_string(self) -> str:
        body = []
        for q in range(self.n):
            xb = (self.x_bits >> q) & 1
            zb = (self.z_bits >> q) & 1
            body.append("IXZY"[xb + 2 * zb])
        return _PHASE_CHARS[self.phase] + "".join(body)

    def xz_phase_power(self) -> int:
        """Power e such that the operator equals phase * i^e * X^x Z^z."""
        return int(self.x_bits & self.z_bits).bit_count() % 4


# ---------------------------------------------------------------------------
# Symplectic tableau (Pauli frame) and Clifford operations
# ---------------------------------------------------------------------------


class Tableau:
    """Images of X_q and Z_q under conjugation by a Clifford word.

    Rows 0..n-1 hold the X images, rows n..2n-1 the Z images, each as
    (x bits, z bits, sign bit).  Used for validity checks, canonical
    keys and gate-word synthesis; the CH form is used for states.
    """

    def __init__(self, n: int):
        self.n = n
        self.x = np.zeros((2 * n, n), dtype=bool)
        self.z = np.zeros((2 * n, n), dtype=bool)
        self.sign = np.zeros(2 * n, dtype=bool)
        for q in range(n):
            self.x[q, q] = True
            self.z[n + q, q] = True

    def copy(self) -> "Tableau":
        t = Tableau.__new__(Tableau)
        t.n = self.n
        t.x = self.x.copy()
        t.z = self.z.copy()
        t.sign = self.sign.copy()
        return t

    def apply_gate(self, name: str, qubits: Sequence[int]) -> None:
        x, z = self.x, self.z
        if name == "H":
            (q,) = qubits
            self.sign ^= x[:, q] & z[:, q]
            x[:, q], z[:, q] = z[:, q].copy(), x[:, q].copy()
        elif name == "S":
            (q,) = qubits
            self.sign ^= x[:, q] & z[:, q]
            z[:, q] ^= x[:, q]
        elif name == "Sdg":
            (q,) = qubits
            z[:, q] ^= x[:, q]
            self.sign ^= x[:, q] & z[:, q]
        elif name == "X":
            (q,) = qubits
            self.sign ^= z[:, q]
        elif name == "Z":
            (q,) = qubits
            self.sign ^= x[:, q]
        elif name == "CX":
            c, t = qubits
            self.sign ^= x[:, c] & z[:, t] & ~(x[:, t] ^ z[:, c])
            x[:, t] ^= x[:, c]
            z[:, c] ^= z[:, t]
        elif name == "CZ":
            c, t = qubits
            self.sign ^= x[:, c] & x[:, t] & (z[:, c] ^ z[:, t])
            z[:, c] ^= x[:, t]
            z[:, t] ^= x[:, c]
        else:
            raise ValueError(f"unknown gate {name!r}")

    def row_pauli(self, row: int) -> PauliOperator:
        x = sum(1 << q for q in range(self.n) if self.x[row, q])
        z = sum(1 << q for q in range(self.n) if self.z[row, q])
        return PauliOperator(self.n, x, z, -1 if self.sign[row] else 1)

    def is_symplectic(self) -> bool:
        """True iff row pairings match the identity frame's pairings."""
        n = self.n
        for a in range(2 * n):
            for b in range(a + 1, 2 * n):
                pair = _parity(self.x[a] & self.z[b]) ^ _parity(self.z[a] & self.x[b])
                expect = 1 if (a % n == b % n and a != b) else 0
                if pair != expect:
                    return False
        return True

    def key(self) -> bytes:
        """Canonical hashable identity of the Clifford action."""
        return (
            np.packbits(self.x).tobytes()
            + np.packbits(self.z).tobytes()
            + np.packbits(self.sign).tobytes()
        )


@dataclass(frozen=True)
class CliffordOp:
    """A Clifford operation given as a word over {H, S, Sdg, X, Z, CX, CZ}."""

    n: int
    word: tuple = ()

    def __post_init__(self):
        for name, qubits in self.word:
            if name in _ONE_QUBIT_GATES:
                if len(qubits) != 1:
                    raise ValueError(f"{name} takes one qubit")
            elif name in _TWO_QUBIT_GATES:
                if len(qubits) != 2 or qubits[0] == qubits[1]:
                    raise ValueError(f"{name} takes two distinct qubits")
            else:
                raise ValueError(f"unknown gate {name!r}")
            if any(q < 0 or q >= self.n for q in qubits):
                raise ValueError("gate qubit out of range")

    def __len__(self) -> int:
        return len(self.word)

    def tableau(self) -> Tableau:
        t = Tableau(self.n)
        for name, qubits in self.word:
            t.apply_gate(name, qubits)
        return t

    def is_valid(self) -> bool:
        return self.tableau().is_symplectic()

    def inverse(self) -> "CliffordOp":
        return CliffordOp(n=self.n, word=_inverse_word(self.word))

    @classmethod
    def from_json(cls, records: Iterable[dict], n: int) -> "CliffordOp":
        try:
            word = tuple((rec["gate"], tuple(rec["qubits"])) for rec in records)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed circuit JSON ({type(exc).__name__}: {exc})") from None
        return cls(n=n, word=word)

    def to_json(self) -> list:
        return [{"gate": g, "qubits": list(qs)} for g, qs in self.word]


def load_circuit(path: str, n: int) -> CliffordOp:
    """Load a circuit file: a JSON list of {"gate": name, "qubits": [..]}."""
    with open(path) as fh:
        records = json.load(fh)
    return CliffordOp.from_json(records, n)


# ---------------------------------------------------------------------------
# CH-form stabilizer state
# ---------------------------------------------------------------------------


class StabilizerState:
    """An n-qubit stabilizer state with exact global scalar.

    Public module-level functions (:func:`zero_state`, :func:`apply_clifford`,
    :func:`inner_product`, ...) treat states as immutable values; the
    ``_apply_*`` methods mutate in place and are internal.
    """

    __slots__ = ("n", "G", "F", "M", "gamma", "v", "s", "omega")

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("qubit count must be at least 1")
        self.n = n
        self.G = np.eye(n, dtype=bool)
        self.F = np.eye(n, dtype=bool)
        self.M = np.zeros((n, n), dtype=bool)
        self.gamma = np.zeros(n, dtype=np.int64)
        self.v = np.zeros(n, dtype=bool)
        self.s = np.zeros(n, dtype=bool)
        self.omega: complex = 1.0 + 0.0j

    def copy(self) -> "StabilizerState":
        st = StabilizerState.__new__(StabilizerState)
        st.n = self.n
        st.G = self.G.copy()
        st.F = self.F.copy()
        st.M = self.M.copy()
        st.gamma = self.gamma.copy()
        st.v = self.v.copy()
        st.s = self.s.copy()
        st.omega = self.omega
        return st

    def __repr__(self) -> str:
        return f"StabilizerState(n={self.n}, omega={self.omega:.6g})"

    # -- right multiplications of U_C (used only inside _update_sum) --------

    def _right_cx(self, q: int, r: int) -> None:
        self.G[:, q] ^= self.G[:, r]
        self.F[:, r] ^= self.F[:, q]
        self.M[:, q] ^= self.M[:, r]

    def _right_cz(self, q: int, r: int) -> None:
        self.M[:, q] ^= self.F[:, r]
        self.M[:, r] ^= self.F[:, q]
        self.gamma += 2 * (self.F[:, q] & self.F[:, r])
        self.gamma %= 4

    def _right_s(self, q: int) -> None:
        self.M[:, q] ^= self.F[:, q]
        self.gamma -= self.F[:, q]
        self.gamma %= 4

    # -- superposition update (Proposition 4 of arXiv:1808.00128) -----------

    def _update_sum(self, t: np.ndarray, u: np.ndarray, delta: int, alpha: int) -> None:
        """Rewrite U_H (|t> + i^delta |u>) / sqrt(2) into CH form.

        The incoming superposition is normalized by sqrt(2) when t != u;
        for t == u the factor (1 + i^delta)/sqrt(2) * 1/sqrt(2)... is
        carried entirely by omega so annihilation shows up as omega == 0.
        """
        if np.array_equal(t, u):
            self.s = t.copy()
            self.omega *= ((-1) ** alpha) * (1 + 1j**delta) / np.sqrt(2.0)
            return

        set0 = np.flatnonzero(~self.v & (t ^ u))
        set1 = np.flatnonzero(self.v & (t ^ u))

        if len(set0) > 0:
            q = int(set0[0])
            for i in set0[1:]:
                self._right_cx(q, int(i))
            for i in set1:
                self._right_cz(q, int(i))
        else:
            q = int(set1[0])
            for i in set1[1:]:
                self._right_cx(int(i), q)

        if t[q]:
            y, z = u.copy(), u.copy()
            y[q] = not y[q]
        else:
            y, z = t.copy(), t.copy()
            z[q] = not z[q]

        omega, a, b, c = _h_decompose(bool(self.v[q]), bool(y[q]), bool(z[q]), delta)
        self.s = y
        self.s[q] = c
        self.omega *= ((-1) ** alpha) * omega
        if a:
            self._right_s(q)
        self.v[q] = b

    # -- left multiplications (gates acting on the state) --------------------

    def _apply_s(self, q: int) -> None:
        self.M[q, :] ^= self.G[q, :]
        self.gamma[q] = (self.gamma[q] - 1) % 4

    def _apply_sdg(self, q: int) -> None:
        self.M[q, :] ^= self.G[q, :]
        self.gamma[q] = (self.gamma[q] + 1) % 4

    def _apply_z(self, q: int) -> None:
        self.gamma[q] = (self.gamma[q] + 2) % 4

    def _apply_x(self, q: int) -> None:
        u = self.s ^ (self.F[q] & ~self.v) ^ (self.M[q] & self.v)
        beta = (
            _parity(self.M[q] & ~self.v & self.s)
            ^ _parity(self.F[q] & self.v & self.M[q])
            ^ _parity(self.F[q] & self.v & self.s)
        )
        self.omega *= (1j ** int(self.gamma[q])) * ((-1) ** beta)
        self.s = u

    def _apply_cz(self, q: int, r: int) -> None:
        self.M[q, :] ^= self.G[r, :]
        self.M[r, :] ^= self.G[q, :]

    def _apply_cx(self, q: int, r: int) -> None:
        self.gamma[q] = (
            self.gamma[q] + self.gamma[r] + 2 * _parity(self.M[q] & self.F[r])
        ) % 4
        self.G[r, :] ^= self.G[q, :]
        self.F[q, :] ^= self.F[r, :]
        self.M[q, :] ^= self.M[r, :]

    def _apply_h(self, q: int) -> None:
        t = self.s ^ (self.G[q] & self.v)
        u = self.s ^ (self.F[q] & ~self.v) ^ (self.M[q] & self.v)
        alpha = _parity(self.G[q] & ~self.v & self.s)
        beta = (
            _parity(self.M[q] & ~self.v & self.s)
            ^ _parity(self.F[q] & self.v & self.M[q])
            ^ _parity(self.F[q] & self.v & self.s)
        )
        delta = int((self.gamma[q] + 2 * (alpha ^ beta)) % 4)
        self._update_sum(t, u, delta=delta, alpha=alpha)

    def _apply_gate(self, name: str, qubits: Sequence[int]) -> None:
        if name == "H":
            self._apply_h(qubits[0])
        elif name == "S":
            self._apply_s(qubits[0])
        elif name == "Sdg":
            self._apply_sdg(qubits[0])
        elif name == "X":
            self._apply_x(qubits[0])
        elif name == "Z":
            self._apply_z(qubits[0])
        elif name == "CX":
            self._apply_cx(qubits[0], qubits[1])
        elif name == "CZ":
            self._apply_cz(qubits[0], qubits[1])
        else:
            raise ValueError(f"unknown gate {name!r}")

    def _apply_word(self, word: Iterable) -> None:
        for name, qubits in word:
            self._apply_gate(name, qubits)

    # -- read-out ------------------------------------------------------------

    def amplitude(self, basis: int) -> complex:
        """Exact amplitude <basis|psi> (basis little endian)."""
        y = np.array([(basis >> q) & 1 for q in range(self.n)], dtype=bool)
        mu = 0
        u = np.zeros(self.n, dtype=bool)
        for p in np.flatnonzero(y):
            mu += int(self.gamma[p])
            u ^= self.F[p]
            mu += 2 * _parity(self.M[p] & u)
        if not np.all(self.v | (u == self.s)):
            return 0.0 + 0.0j
        return (
            self.omega
            * 2.0 ** (-int(np.count_nonzero(self.v)) / 2.0)
            * 1j ** (mu % 4)
            * (-1.0) ** _parity(self.v & u & self.s)
        )

    def to_dense(self) -> np.ndarray:
        """Dense 2^n state vector; intended for small n only."""
        if self.n > 14:
            raise ValueError("dense expansion is limited to n <= 14")
        dim = 1 << self.n
        vec = np.empty(dim, dtype=np.complex128)
        for idx in range(dim):
            vec[idx] = self.amplitude(idx)
        return vec

    def _zeroing_word(self) -> list:
        """Gate word mapping this state onto (scalar) * |0...0>.

        Sweeps G to the identity with left CX gates (F follows because
        of the CH-form constraint G = (F^-1)^T), clears M with diagonal
        CZ/S gates, then removes the Hadamard layer and the basis string.
        """
        st = self.copy()
        ops: list = []

        def emit(name, *qubits):
            st._apply_gate(name, qubits)
            ops.append((name, qubits))

        n = st.n
        for j in range(n):
            if not st.G[j, j]:
                k = next(i for i in range(j + 1, n) if st.G[i, j])
                emit("CX", k, j)
                emit("CX", j, k)
                emit("CX", k, j)
            for i in range(n):
                if i != j and st.G[i, j]:
                    emit("CX", j, i)
        # With G = F = identity the remaining U_C is diagonal, so left and
        # right multiplications by CZ/S coincide and clear M directly.
        for r in range(n):
            for c in range(r + 1, n):
                if st.M[r, c]:
                    emit("CZ", r, c)
        for q in range(n):
            if st.M[q, q]:
                if st.gamma[q] % 4 == 3:
                    emit("S", q)
                else:
                    emit("Sdg", q)
        for q in range(n):
            if st.gamma[q] % 4 == 2:
                emit("Z", q)
        for q in np.flatnonzero(st.v):
            emit("H", int(q))
        for q in np.flatnonzero(st.s):
            emit("X", int(q))
        return ops

    def inner_product(self, other: "StabilizerState") -> complex:
        """Exact <self|other> including both global scalars."""
        if self.n != other.n:
            raise ValueError("qubit counts differ")
        ops = self._zeroing_word()
        bra = self.copy()
        bra._apply_word(ops)
        ket = other.copy()
        ket._apply_word(ops)
        return np.conjugate(bra.omega) * ket.amplitude(0)

    def sqnorm(self) -> float:
        return float(abs(self.omega) ** 2)

    # -- Pauli action and projection -----------------------------------------

    def _conjugated_pauli(self, p: PauliOperator):
        """Return (a, b, mu) with U_H^† U_C^† P U_C U_H = i^mu X^a Z^b."""
        a = np.zeros(self.n, dtype=bool)
        b = np.zeros(self.n, dtype=bool)
        mu = p.xz_phase_power()
        if p.phase == -1:
            mu += 2
        elif p.phase == 1j:
            mu += 1
        elif p.phase == -1j:
            mu += 3
        # push through U_C row by row: U_C^† X_q U_C = i^gamma_q X^{F_q} Z^{M_q},
        # U_C^† Z_q U_C = Z^{G_q}
        for q in range(self.n):
            if (p.x_bits >> q) & 1:
                mu += int(self.gamma[q]) + 2 * _parity(b & self.F[q])
                a ^= self.F[q]
                b ^= self.M[q]
        for q in range(self.n):
            if (p.z_bits >> q) & 1:
                b ^= self.G[q]
        # push through U_H: swap (x, z) on Hadamard qubits, Y picks up a sign
        mu += 2 * int(np.count_nonzero(a & b & self.v))
        a_h = np.where(self.v, b, a)
        b_h = np.where(self.v, a, b)
        return a_h, b_h, mu % 4

    def _project_pauli_inplace(self, p: PauliOperator, outcome: int) -> Optional[float]:
        """Apply (I + outcome*P)/2; return the squared-norm factor.

        Returns None when the projection annihilates the state.  The
        surviving state keeps the norm it had before projection.
        """
        if outcome not in (1, -1):
            raise ValueError("outcome must be +1 or -1")
        if not p.is_hermitian:
            raise ValueError("projection requires a Hermitian Pauli (phase +-1)")
        if p.n != self.n:
            raise ValueError("qubit counts differ")
        a, b, mu = self._conjugated_pauli(p)
        mu = (mu + 2 * _parity(b & self.s)) % 4
        if outcome == -1:
            mu = (mu + 2) % 4
        u = self.s ^ a
        if np.array_equal(u, self.s):
            if mu % 2 != 0:
                raise ValueError("inconsistent phase; Pauli is not Hermitian")
            if mu == 0:
                return 1.0
            return None
        # The halved weight is reported through the returned factor; the
        # update keeps |omega| so the surviving state retains its norm.
        self._update_sum(self.s.copy(), u, delta=mu, alpha=0)
        return 0.5


def _h_decompose(v: bool, y: bool, z: bool, delta: int):
    """Single-qubit rewrite H^v (|y> + i^delta |z>)/sqrt(2) = w S^a H^b |c>."""
    if y == z:
        raise ValueError("states must differ")
    if not v:
        omega = 1j ** (delta * int(y))
        delta2 = ((-1) ** y * delta) % 4
        return omega, bool(delta2 & 1), True, bool(delta2 >> 1)
    if delta % 2 == 0:
        c = bool((delta >> 1) & 1)
        return complex((-1) ** (int(c) & int(y))), False, False, c
    omega = (1 + 1j**delta) / np.sqrt(2.0)
    c = not (((delta >> 1) & 1) ^ int(y))
    return omega, True, True, c


# ---------------------------------------------------------------------------
# Public, value-style operations
# ---------------------------------------------------------------------------

ZERO = 0
PLUS = 1


def zero_state(t: int) -> StabilizerState:
    """The all-zeros state |0^t> with global scalar 1."""
    if t < 1:
        raise ValueError("qubit count must be at least 1")
    return StabilizerState(t)


def product_state(selectors: Sequence[int]) -> StabilizerState:
    """Tensor product of |0> (selector 0) and |+> (selector 1) qubits."""
    if len(selectors) == 0:
        raise ValueError("selector list must be nonempty")
    st = StabilizerState(len(selectors))
    for q, sel in enumerate(selectors):
        if sel == PLUS:
            st._apply_h(q)
        elif sel != ZERO:
            raise ValueError("selectors must be 0 (|0>) or 1 (|+>)")
    return st


def product_state_from_bits(bits: int, n: int) -> StabilizerState:
    """Product state with qubit q in |+> iff bit q of ``bits`` is set."""
    return product_state([(bits >> q) & 1 for q in range(n)])


def apply_clifford(state: StabilizerState, op: CliffordOp) -> StabilizerState:
    """Apply a Clifford word, returning a new state (norm preserved)."""
    if op.n != state.n:
        raise ValueError("qubit counts differ")
    st = state.copy()
    st._apply_word(op.word)
    return st


def inner_product(a: StabilizerState, b: StabilizerState) -> complex:
    return a.inner_product(b)


def amplitude(state: StabilizerState, basis) -> complex:
    """<basis|state>; basis may be an int or a string like "010"."""
    if isinstance(basis, str):
        if len(basis) != state.n:
            raise ValueError("basis string length differs from qubit count")
        basis = bits_from_string(basis)
    if basis >> state.n:
        raise ValueError("basis label out of range")
    return state.amplitude(basis)


def project_pauli(state: StabilizerState, p: PauliOperator, outcome: int):
    """Project with (I + outcome*P)/2.

    Returns (post_state, factor) with factor = ||Pi psi||^2 / ||psi||^2,
    or None when the projection annihilates the state.  The returned
    state is normalized to the input's norm.
    """
    st = state.copy()
    factor = st._project_pauli_inplace(p, outcome)
    if factor is None:
        return None
    return st, factor


# ---------------------------------------------------------------------------
# Random Cliffords
# ---------------------------------------------------------------------------


def _solve_affine_gf2(rows: list, rhs: list, width: int, rng) -> int:
    """Uniform solution x of the GF(2) system row_i . x = rhs_i (bitmask rows).

    Returns a uniformly random element of the solution affine space.
    Raises ValueError if the system is inconsistent.
    """
    # Gaussian elimination with recorded pivots.
    rows = list(rows)
    rhs = list(rhs)
    pivots = []
    r = 0
    for col in range(width):
        sel = None
        for i in range(r, len(rows)):
            if (rows[i] >> col) & 1:
                sel = i
                break
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        rhs[r], rhs[sel] = rhs[sel], rhs[r]
        for i in range(len(rows)):
            if i != r and (rows[i] >> col) & 1:
                rows[i] ^= rows[r]
                rhs[i] ^= rhs[r]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    for i in range(r, len(rows)):
        if rhs[i]:
            raise ValueError("inconsistent GF(2) system")
    free_cols = [c for c in range(width) if c not in pivots]
    x = 0
    for c in free_cols:
        if rng.integers(2):
            x |= 1 << c
    for i, col in enumerate(pivots):
        val = rhs[i] ^ ((rows[i] & x).bit_count() & 1) ^ ((x >> col) & 1)
        if val:
            x |= 1 << col
    return x


def _symplectic_pairing_row(vec: int, n: int) -> int:
    """Bitmask L with L.w = <vec, w> for the form <(x|z),(x'|z')> = x.z' + z.x'."""
    x = vec & ((1 << n) - 1)
    z = vec >> n
    return (z) | (x << n)


def random_clifford_tableau(t: int, rng) -> Tableau:
    """Uniformly random Clifford (as a tableau), by row-wise sampling.

    Row i's X image is uniform over the nonzero solutions of the pairing
    constraints with rows < i, and its Z image uniform over vectors
    pairing 1 with it; sign bits are uniform.  Each step is uniform over
    exactly the allowed completions, so the overall draw is uniform over
    the full Clifford group (modulo global phase).
    """
    if t < 1:
        raise ValueError("qubit count must be at least 1")
    width = 2 * t
    xs: list = []
    zs: list = []
    for _ in range(t):
        rows = []
        rhs = []
        for v in xs:
            rows.append(_symplectic_pairing_row(v, t))
            rhs.append(0)
        for w in zs:
            rows.append(_symplectic_pairing_row(w, t))
            rhs.append(0)
        while True:
            v = _solve_affine_gf2(rows, rhs, width, rng)
            if v != 0:
                break
        rows_w = rows + [_symplectic_pairing_row(v, t)]
        rhs_w = rhs + [1]
        w = _solve_affine_gf2(rows_w, rhs_w, width, rng)
        xs.append(v)
        zs.append(w)
    tab = Tableau(t)
    for i in range(t):
        for q in range(t):
            tab.x[i, q] = bool((xs[i] >> q) & 1)
            tab.z[i, q] = bool((xs[i] >> (t + q)) & 1)
            tab.x[t + i, q] = bool((zs[i] >> q) & 1)
            tab.z[t + i, q] = bool((zs[i] >> (t + q)) & 1)
        tab.sign[i] = bool(rng.integers(2))
        tab.sign[t + i] = bool(rng.integers(2))
    return tab


def synthesize_word(tab: Tableau) -> tuple:
    """Gate word realizing the tableau (sweep to identity, invert)."""
    work = tab.copy()
    n = work.n
    inverse_ops = []

    def emit(name, *qubits):
        work.apply_gate(name, qubits)
        inverse_ops.append((name, qubits))

    for i in range(n):
        xrow = i
        zrow = n + i
        # bring the X image to X_i
        if not work.x[xrow, i]:
            cand = [q for q in range(i, n) if work.x[xrow, q]]
            if cand:
                q = cand[0]
            else:
                q = next(q for q in range(i, n) if work.z[xrow, q])
                emit("H", q)
            if q != i:
                emit("CX", i, q)
                emit("CX", q, i)
                emit("CX", i, q)
        for q in range(n):
            if q != i and work.x[xrow, q]:
                emit("CX", i, q)
        for q in range(n):
            if q != i and work.z[xrow, q]:
                emit("CZ", i, q)
        if work.z[xrow, i]:
            emit("S", i)
        # bring the Z image to Z_i; it now anticommutes with X_i so z_i = 1
        if work.x[zrow, i]:
            other = [q for q in range(n) if q != i and work.x[zrow, q]]
            if other:
                emit("CX", other[0], i)
            else:
                emit("H", i)
                emit("S", i)
                emit("H", i)
        for q in range(n):
            if q != i and work.x[zrow, q]:
                if work.z[zrow, q]:
                    emit("S", q)
                emit("H", q)
        for q in range(n):
            if q != i and work.z[zrow, q]:
                emit("CX", q, i)
        # signs
        if work.sign[zrow]:
            emit("X", i)
        if work.sign[xrow]:
            emit("Z", i)

    if not np.array_equal(work.x[:n], np.eye(n, dtype=bool)) or np.any(work.sign):
        raise RuntimeError("tableau synthesis failed to reach the identity")

    return _inverse_word(inverse_ops)


def _inverse_word(word) -> tuple:
    """The inverse gate word: reversed, with S and Sdg swapped."""
    daggers = {"S": "Sdg", "Sdg": "S"}
    return tuple((daggers.get(name, name), qubits) for name, qubits in reversed(word))


def random_clifford(t: int, rng) -> CliffordOp:
    """A Clifford drawn exactly uniformly from the t-qubit Clifford group."""
    tab = random_clifford_tableau(t, rng)
    return CliffordOp(n=t, word=synthesize_word(tab))


def random_clifford_word(t: int, length: int, rng) -> CliffordOp:
    """A circuit of ``length`` uniformly random gates from the gate set."""
    word = []
    names = ["H", "S", "Sdg", "X", "Z"] if t == 1 else list(GATE_NAMES)
    for _ in range(length):
        name = names[int(rng.integers(len(names)))]
        if name in _TWO_QUBIT_GATES:
            a = int(rng.integers(t))
            b = int(rng.integers(t - 1))
            if b >= a:
                b += 1
            word.append((name, (a, b)))
        else:
            word.append((name, (int(rng.integers(t)),)))
    return CliffordOp(n=t, word=tuple(word))


def random_pauli(t: int, rng, hermitian: bool = True) -> PauliOperator:
    """A uniformly random t-qubit Pauli with sign +-1."""
    x = int.from_bytes(rng.bytes((t + 7) // 8), "little") & ((1 << t) - 1)
    z = int.from_bytes(rng.bytes((t + 7) // 8), "little") & ((1 << t) - 1)
    phase = -1 if rng.integers(2) else 1
    if not hermitian:
        phase *= 1j if rng.integers(2) else 1
    return PauliOperator(t, x, z, phase)
