"""Phase-sensitive stabilizer states in CH form.

The state is stored as ``|psi> = omega * U_C * U_H |s>`` following the
formalism of Bravyi, Browne, Calpin, Campbell, Gosset and Howard
(arXiv:1808.00128, section IV).  ``U_C`` is a "control-type" Clifford
described by binary matrices G, F, M and a phase vector gamma (mod 4),
``U_H`` is a layer of Hadamards selected by the bit vector v, ``s`` is a
computational basis string, and ``omega`` is an explicit complex global
scalar.  Unlike a plain tableau, this form supports exact amplitudes and
exact inner products (including global phase) at cost O(n^3).  Each row
of G, F and M is one Python int, as are v and s, so a gate of the one gate
loop (``StabilizerState._apply_word``) is a few row XORs and a parity is
one ``int.bit_count()``.  Clifford words act on Paulis through
:class:`Tableau`, which packs each qubit's x bits, z bits and all row
signs into Python ints (Stim-style, arXiv:2103.02202).

Conventions: qubit q corresponds to bit q of an integer basis label
(little endian).  Pauli strings such as ``"+XZI"`` list qubit 0 first.
Every Pauli is a measured observable, so its phase is a sign, +1 or -1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

GATE_NAMES = ("H", "S", "Sdg", "X", "Z", "CX", "CZ")

_ONE_QUBIT_GATES = frozenset(["H", "S", "Sdg", "X", "Z"])
_TWO_QUBIT_GATES = frozenset(["CX", "CZ"])
_DAGGERS = {"S": "Sdg", "Sdg": "S"}


def _ones(value: int) -> list:
    """Positions of the set bits of a non-negative int, ascending."""
    return [q for q in range(value.bit_length()) if (value >> q) & 1]


# ---------------------------------------------------------------------------
# Pauli operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PauliOperator:
    """A Hermitian Pauli operator ``phase * sigma_1 x ... x sigma_n``.

    ``x_bits``/``z_bits`` are little-endian bit masks; qubit q carries
    X when bit q of ``x_bits`` is set, Z when bit q of ``z_bits`` is set
    and Y when both are set.  ``phase`` is the sign, 1 or -1.
    """

    n: int
    x_bits: int
    z_bits: int
    phase: int = 1

    def __post_init__(self):
        if self.phase not in (1, -1):
            raise ValueError("phase must be a sign, 1 or -1")
        if self.x_bits >> self.n or self.z_bits >> self.n:
            raise ValueError("Pauli support exceeds qubit count")

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
        return ("-" if self.phase == -1 else "+") + "".join(body)

    def xz_phase_power(self) -> int:
        """Power e such that the operator equals phase * i^e * X^x Z^z."""
        return int(self.x_bits & self.z_bits).bit_count() % 4


# ---------------------------------------------------------------------------
# Symplectic tableau (Pauli frame) and Clifford operations
# ---------------------------------------------------------------------------


class Tableau:
    """A Pauli frame: Pauli rows conjugated by a Clifford word.

    Bits are packed by column: bit r of ``x[q]`` (of ``z[q]``) is the x (z)
    bit of qubit q in row r and bit r of ``sign`` is row r's sign, so a gate
    update is a few whole-column integer operations.  ``rows`` may be any
    Paulis; the default identity frame (X_q in row q, Z_q in row n + q)
    becomes a word's tableau.  Used for validity checks, canonical keys,
    gate-word synthesis and Heisenberg-picture conjugation.
    """

    __slots__ = ("n", "x", "z", "sign")

    def __init__(self, n: int, rows: Optional[Sequence[PauliOperator]] = None):
        self.n = n
        if rows is None:  # the identity frame
            self.x = [1 << q for q in range(n)]
            self.z = [1 << (n + q) for q in range(n)]
            self.sign = 0
        else:
            if any(p.n != n for p in rows):
                raise ValueError("frame rows must be Paulis on n qubits")
            self.x = _transpose([p.x_bits for p in rows], n)
            self.z = _transpose([p.z_bits for p in rows], n)
            self.sign = sum(1 << r for r, p in enumerate(rows) if p.phase == -1)

    def copy(self) -> "Tableau":
        t = Tableau.__new__(Tableau)
        t.n, t.x, t.z, t.sign = self.n, list(self.x), list(self.z), self.sign
        return t

    def apply_word(self, word: Sequence, inverse: bool = False) -> None:
        """Map every row P to W P W^dag for the word's unitary W, gate by
        gate; with ``inverse`` (reversed, S and Sdg swapped), to W^dag P W."""
        x, z, sign = self.x, self.z, self.sign
        s_gate, sdg_gate = ("Sdg", "S") if inverse else ("S", "Sdg")
        for name, qubits in reversed(word) if inverse else word:
            if name == "CX":
                c, t = qubits
                sign ^= x[c] & z[t] & ~(x[t] ^ z[c])
                x[t] ^= x[c]
                z[c] ^= z[t]
            elif name == "CZ":
                c, t = qubits
                sign ^= x[c] & x[t] & (z[c] ^ z[t])
                z[c] ^= x[t]
                z[t] ^= x[c]
            elif name == "H":
                (q,) = qubits
                sign ^= x[q] & z[q]
                x[q], z[q] = z[q], x[q]
            elif name == s_gate:
                (q,) = qubits
                sign ^= x[q] & z[q]
                z[q] ^= x[q]
            elif name == sdg_gate:
                (q,) = qubits
                z[q] ^= x[q]
                sign ^= x[q] & z[q]
            elif name == "X":
                sign ^= z[qubits[0]]
            elif name == "Z":
                sign ^= x[qubits[0]]
            else:
                raise ValueError(f"unknown gate {name!r}")
        self.sign = sign

    def row_pauli(self, row: int) -> PauliOperator:
        x = sum(((col >> row) & 1) << q for q, col in enumerate(self.x))
        z = sum(((col >> row) & 1) << q for q, col in enumerate(self.z))
        return PauliOperator(self.n, x, z, -1 if (self.sign >> row) & 1 else 1)

    def is_symplectic(self) -> bool:
        """True iff row pairings match the identity frame's pairings."""
        n = self.n
        xs, zs = _transpose(self.x, 2 * n), _transpose(self.z, 2 * n)
        for a in range(2 * n):
            for b in range(a + 1, 2 * n):
                pair = ((xs[a] & zs[b]).bit_count() ^ (zs[a] & xs[b]).bit_count()) & 1
                if pair != (b == a + n):
                    return False
        return True

    def key(self) -> bytes:
        """Canonical hashable identity of the Clifford action."""
        width = (2 * self.n + 7) // 8
        return b"".join(v.to_bytes(width, "little") for v in self.x + self.z + [self.sign])


def _transpose(vals: Sequence[int], width: int) -> list:
    """Bit matrix transpose: bit i of out[b] is bit b < width of vals[i], set bits only."""
    out = [0] * width
    for i, v in enumerate(vals):
        v &= (1 << width) - 1
        while v:
            out[(v & -v).bit_length() - 1] |= 1 << i
            v &= v - 1
    return out


@dataclass(frozen=True)
class CliffordOp:
    """A Clifford operation given as a word over {H, S, Sdg, X, Z, CX, CZ}."""

    n: int
    word: tuple = ()

    def __post_init__(self):
        for name, qubits in self.word:
            if not isinstance(name, str):
                raise ValueError(f"gate name {name!r} must be a string")
            if name in _ONE_QUBIT_GATES:
                if len(qubits) != 1:
                    raise ValueError(f"{name} takes one qubit")
            elif name in _TWO_QUBIT_GATES:
                if len(qubits) != 2 or qubits[0] == qubits[1]:
                    raise ValueError(f"{name} takes two distinct qubits")
            else:
                raise ValueError(f"unknown gate {name!r}")
            if any(isinstance(q, bool) or not isinstance(q, (int, np.integer))
                   or not 0 <= q < self.n for q in qubits):
                raise ValueError(f"gate qubits {list(qubits)} must be integers in [0, {self.n})")

    def tableau(self) -> Tableau:
        t = Tableau(self.n)
        t.apply_word(self.word)
        return t

    def conjugate_paulis(self, paulis: Sequence[PauliOperator]) -> list:
        """[U^dag P U for P in paulis]: one frame with the Paulis as rows runs
        through the inverse word."""
        frame = Tableau(self.n, paulis)
        frame.apply_word(self.word, inverse=True)
        xs, zs = _transpose(frame.x, len(paulis)), _transpose(frame.z, len(paulis))
        return [PauliOperator(self.n, x, z, -1 if (frame.sign >> r) & 1 else 1)
                for r, (x, z) in enumerate(zip(xs, zs))]

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

    Row r of G, F and M is one Python int whose bit c is the matrix entry
    (r, c); ``v`` and ``s`` are ints with bit q for qubit q and ``gamma``
    is a list of ints mod 4.  :func:`product_state_from_bits`,
    :func:`apply_clifford` and :func:`project_pauli` return new states, the
    methods ``amplitude``, ``inner_product``, ``to_dense`` and ``sqnorm`` read
    one, and ``_apply_word`` and ``_update_sum`` mutate one in place.
    """

    __slots__ = ("n", "G", "F", "M", "gamma", "v", "s", "omega")

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("qubit count must be at least 1")
        self.n = n
        self.G = [1 << r for r in range(n)]
        self.F = [1 << r for r in range(n)]
        self.M = [0] * n
        self.gamma = [0] * n
        self.v = 0
        self.s = 0
        self.omega: complex = 1.0 + 0.0j

    def copy(self) -> "StabilizerState":
        st = StabilizerState.__new__(StabilizerState)
        st.n, st.v, st.s, st.omega = self.n, self.v, self.s, self.omega
        st.G, st.F, st.M, st.gamma = list(self.G), list(self.F), list(self.M), list(self.gamma)
        return st

    # -- superposition update (Proposition 4 of arXiv:1808.00128) -----------

    def _update_sum(self, t: int, u: int, delta: int, alpha: int) -> None:
        """Replace U_H |s> by (-1)^alpha U_H (|t> + i^delta |u>) / sqrt(2).

        For t == u the factor (-1)^alpha (1 + i^delta) / sqrt(2) goes into
        omega, so an annihilated sum shows up as omega == 0.  Otherwise
        right multiplications of U_C by CX, CZ and S reduce the sum to one
        qubit q.  Within one call the CX and CZ chains never write a column
        they read, so they collapse into one pass over the rows; the final
        S on q, when needed, is a second pass.
        """
        if t == u:
            self.s = t
            self.omega *= ((-1) ** alpha) * (1 + 1j**delta) / np.sqrt(2.0)
            return

        v = self.v
        set0 = (t ^ u) & ~v
        set1 = (t ^ u) & v
        low = set0 or set1
        bq = low & -low
        if t & bq:
            y, z = u ^ bq, u
        else:
            y, z = t, t ^ bq
        omega, a, b, c = _h_decompose(bool(v & bq), bool(y & bq), bool(z & bq), delta)
        self.s = (y & ~bq) | (bq if c else 0)
        self.omega *= ((-1) ** alpha) * omega
        self.v = (v & ~bq) | (bq if b else 0)

        G, F, M, gamma = self.G, self.F, self.M, self.gamma
        rest = low ^ bq
        if set0 and (rest or set1):
            # right CX(q, i) for i in rest: G[:, q] ^= G[:, i], F[:, i] ^= F[:, q],
            # M[:, q] ^= M[:, i]; then right CZ(q, i) for i in set1:
            # M[:, q] ^= F[:, i], M[:, i] ^= F[:, q], gamma += 2 F[:, q] F[:, i]
            for r in range(self.n):
                f, m = F[r], M[r]
                if (G[r] & rest).bit_count() & 1:
                    G[r] ^= bq
                if ((m & rest).bit_count() + (f & set1).bit_count()) & 1:
                    m ^= bq
                if f & bq:
                    F[r] = f ^ rest
                    m ^= set1
                    gamma[r] = (gamma[r] + 2 * (f & set1).bit_count()) % 4
                M[r] = m
        elif rest:
            # right CX(i, q) for i in rest: G[:, i] ^= G[:, q],
            # F[:, q] ^= F[:, i], M[:, i] ^= M[:, q]
            for r in range(self.n):
                if G[r] & bq:
                    G[r] ^= rest
                if (F[r] & rest).bit_count() & 1:
                    F[r] ^= bq
                if M[r] & bq:
                    M[r] ^= rest
        if a:
            # right S(q): M[:, q] ^= F[:, q], gamma -= F[:, q]
            for r in range(self.n):
                if F[r] & bq:
                    M[r] ^= bq
                    gamma[r] = (gamma[r] - 1) % 4

    # -- left multiplications (gates acting on the state) --------------------

    def _apply_word(self, word: Iterable) -> None:
        """Left-multiply by each gate in turn.  G, F, M and gamma change in
        place; s, v and omega are reassigned, so each gate reads them anew."""
        G, F, M, gamma = self.G, self.F, self.M, self.gamma
        for name, qubits in word:
            if name == "H" or name == "X":
                # X_q U_C U_H |s> = i^gamma_q (-1)^beta U_C U_H |u>
                (q,) = qubits
                g, f, m, v, s = G[q], F[q], M[q], self.v, self.s
                u = s ^ (f & ~v) ^ (m & v)
                beta = ((m & ~v & s).bit_count() + (f & v & m).bit_count()
                        + (f & v & s).bit_count()) & 1
                if name == "X":
                    self.omega *= (1j ** gamma[q]) * ((-1) ** beta)
                    self.s = u
                else:
                    alpha = (g & ~v & s).bit_count() & 1
                    delta = (gamma[q] + 2 * (alpha ^ beta)) % 4
                    self._update_sum(s ^ (g & v), u, delta=delta, alpha=alpha)
            elif name == "S" or name == "Sdg":
                (q,) = qubits
                M[q] ^= G[q]
                gamma[q] = (gamma[q] + (3 if name == "S" else 1)) % 4
            elif name == "Z":
                (q,) = qubits
                gamma[q] = (gamma[q] + 2) % 4
            elif name == "CX":
                q, r = qubits
                gamma[q] = (gamma[q] + gamma[r] + 2 * ((M[q] & F[r]).bit_count() & 1)) % 4
                G[r] ^= G[q]
                F[q] ^= F[r]
                M[q] ^= M[r]
            elif name == "CZ":
                q, r = qubits
                M[q] ^= G[r]
                M[r] ^= G[q]
            else:
                raise ValueError(f"unknown gate {name!r}")

    # -- read-out ------------------------------------------------------------

    def amplitude(self, basis: int) -> complex:
        """Exact amplitude <basis|psi> (basis little endian)."""
        mu = 0
        u = 0
        for p in _ones(basis):
            mu += self.gamma[p]
            u ^= self.F[p]
            mu += 2 * ((self.M[p] & u).bit_count() & 1)
        if (u ^ self.s) & ~self.v:
            return 0.0 + 0.0j
        return (
            self.omega
            * 2.0 ** (-self.v.bit_count() / 2.0)
            * 1j ** (mu % 4)
            * (-1.0) ** ((self.v & u & self.s).bit_count() & 1)
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

    def _zeroing_word(self) -> tuple:
        """(scalar, word): a gate word mapping this state onto scalar * |0...0>.

        Sweeps G to the identity with left CX gates (F follows because
        of the CH-form constraint G = (F^-1)^T), clears M with diagonal
        CZ/S gates, then removes the Hadamard layer and the basis string.
        """
        st = self.copy()
        G, M = st.G, st.M
        ops: list = []

        def emit(name, *qubits):
            st._apply_word(((name, qubits),))
            ops.append((name, qubits))

        n = st.n
        for j in range(n):
            bj = 1 << j
            if not G[j] & bj:
                k = next(i for i in range(j + 1, n) if G[i] & bj)
                emit("CX", k, j)
                emit("CX", j, k)
                emit("CX", k, j)
            for i in range(n):
                if i != j and G[i] & bj:
                    emit("CX", j, i)
        # With G = F = identity the remaining U_C is diagonal, so left and
        # right multiplications by CZ/S coincide and clear M directly.
        for r in range(n):
            for c in range(r + 1, n):
                if (M[r] >> c) & 1:
                    emit("CZ", r, c)
        for q in range(n):
            if (M[q] >> q) & 1:
                if st.gamma[q] % 4 == 3:
                    emit("S", q)
                else:
                    emit("Sdg", q)
        for q in range(n):
            if st.gamma[q] % 4 == 2:
                emit("Z", q)
        for q in _ones(st.v):
            emit("H", q)
        for q in _ones(st.s):
            emit("X", q)
        return st.omega, ops

    def inner_product(self, other: "StabilizerState") -> complex:
        """Exact <self|other> including both global scalars."""
        if self.n != other.n:
            raise ValueError("qubit counts differ")
        scalar, ops = self._zeroing_word()
        ket = other.copy()
        ket._apply_word(ops)
        return np.conjugate(scalar) * ket.amplitude(0)

    def sqnorm(self) -> float:
        return float(abs(self.omega) ** 2)

    # -- Pauli action and projection -----------------------------------------

    def _conjugated_pauli(self, p: PauliOperator):
        """Return (a, b, mu) with U_H^† U_C^† P U_C U_H = i^mu X^a Z^b."""
        a = b = 0
        mu = p.xz_phase_power() + (2 if p.phase == -1 else 0)
        # push through U_C row by row: U_C^† X_q U_C = i^gamma_q X^{F_q} Z^{M_q},
        # U_C^† Z_q U_C = Z^{G_q}
        for q in _ones(p.x_bits):
            mu += self.gamma[q] + 2 * ((b & self.F[q]).bit_count() & 1)
            a ^= self.F[q]
            b ^= self.M[q]
        for q in _ones(p.z_bits):
            b ^= self.G[q]
        # push through U_H: swap (x, z) on Hadamard qubits, Y picks up a sign
        v = self.v
        mu += 2 * (a & b & v).bit_count()
        return (b & v) | (a & ~v), (a & v) | (b & ~v), mu % 4


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


def product_state_from_bits(bits: int, n: int) -> StabilizerState:
    """Product state with qubit q in |+> iff bit q of ``bits`` is set.

    On |0...0> a Hadamard only sets bit q of v (omega stays 1), so the
    Hadamard layer is v = bits.
    """
    if bits < 0 or bits >> n:
        raise ValueError("bits exceed the qubit count")
    st = StabilizerState(n)
    st.v = bits
    return st


def apply_clifford(state: StabilizerState, op: CliffordOp) -> StabilizerState:
    """Apply a Clifford word, returning a new state (norm preserved)."""
    if op.n != state.n:
        raise ValueError("qubit counts differ")
    st = state.copy()
    st._apply_word(op.word)
    return st


def project_pauli(state: StabilizerState, p: PauliOperator, outcome: int):
    """Project with (I + outcome*P)/2.

    Returns (post_state, factor) with factor = ||Pi psi||^2 / ||psi||^2,
    or None when the projection annihilates the state.  The returned
    state is normalized to the input's norm.
    """
    if outcome not in (1, -1):
        raise ValueError("outcome must be +1 or -1")
    if p.n != state.n:
        raise ValueError("qubit counts differ")
    a, b, mu = state._conjugated_pauli(p)
    mu = (mu + 2 * (b & state.s).bit_count() + (2 if outcome == -1 else 0)) % 4
    if a == 0:  # i^mu Z^b is Hermitian like P, so mu is 0 or 2
        return (state.copy(), 1.0) if mu == 0 else None
    # The halved weight is reported through the factor; the update keeps
    # |omega|, so the surviving state retains its norm.
    st = state.copy()
    st._update_sum(st.s, st.s ^ a, delta=mu, alpha=0)
    return st, 0.5


# ---------------------------------------------------------------------------
# Random Cliffords
# ---------------------------------------------------------------------------


def reduce_row(row: int, echelon: dict, pivots: int) -> int:
    """``row`` less the echelon rows of the pivots it hits: 0 for a row in
    their span.  ``echelon`` maps each pivot column (the lowest set bit of its
    row) to its row, with no row set in another's pivot column (a reduced
    echelon form), and ``pivots`` has the pivot columns' bits."""
    hits = row & pivots
    while hits:
        bit = hits & -hits
        row ^= echelon[bit.bit_length() - 1]
        hits ^= bit
    return row


def insert_row(echelon: dict, row: int) -> int:
    """Add a nonzero ``reduce_row`` result to ``echelon`` in place, clearing
    its pivot (its lowest set bit) from the other rows; returns the pivot bit."""
    bit = row & -row
    for col, other in echelon.items():
        if other & bit:
            echelon[col] = other ^ row
    echelon[bit.bit_length() - 1] = row
    return bit


def _draw_solution(echelon: dict, width: int, rng) -> int:
    """Uniform solution of a reduced echelon system: one rng bit per free
    column in ascending order (one batched draw), then each pivot bit from
    its row."""
    cols = [c for c in range(width) if c not in echelon]
    free = 0
    for c, bit in zip(cols, rng.integers(2, size=len(cols)).tolist()):
        free |= bit << c
    x = free
    for col, r in echelon.items():
        if ((r & free).bit_count() + (r >> width)) & 1:
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
    the full Clifford group (modulo global phase).  One reduced echelon
    form of the constraints is carried across the rows; being unique, it
    fixes the free columns, hence the rng stream, whatever the row order.
    The images' pairing rows pair a symplectic basis, so each is independent
    of the rows before it; bit ``width`` of a row is its right-hand side.
    """
    if t < 1:
        raise ValueError("qubit count must be at least 1")
    width = 2 * t
    echelon: dict = {}
    pivots = 0
    xs: list = []
    zs: list = []
    for _ in range(t):
        while True:
            v = _draw_solution(echelon, width, rng)
            if v != 0:
                break
        with_v = dict(echelon)
        insert_row(with_v, reduce_row(_symplectic_pairing_row(v, t) | 1 << width, echelon, pivots))
        w = _draw_solution(with_v, width, rng)
        xs.append(v)
        zs.append(w)
        for image in (v, w):
            row = reduce_row(_symplectic_pairing_row(image, t), echelon, pivots)
            pivots |= insert_row(echelon, row)
    tab = Tableau(t)
    cols = _transpose(xs + zs, 2 * t)
    tab.x, tab.z = cols[:t], cols[t:]
    signs = rng.integers(2, size=2 * t).tolist()  # row i's sign, then row t + i's
    for i in range(t):
        tab.sign |= signs[2 * i] << i | signs[2 * i + 1] << (t + i)
    return tab


def synthesize_word(tab: Tableau) -> tuple:
    """Gate word realizing the tableau (sweep to identity, invert)."""
    work = tab.copy()
    n = work.n
    inverse_ops = []

    def emit(name, *qubits):
        work.apply_word(((name, qubits),))
        inverse_ops.append((name, qubits))

    def xb(row, q):
        return (work.x[q] >> row) & 1

    def zb(row, q):
        return (work.z[q] >> row) & 1

    for i in range(n):
        xrow = i
        zrow = n + i
        # bring the X image to X_i
        if not xb(xrow, i):
            cand = [q for q in range(i, n) if xb(xrow, q)]
            if cand:
                q = cand[0]
            else:
                q = next(q for q in range(i, n) if zb(xrow, q))
                emit("H", q)
            if q != i:
                emit("CX", i, q)
                emit("CX", q, i)
                emit("CX", i, q)
        for q in range(n):
            if q != i and xb(xrow, q):
                emit("CX", i, q)
        for q in range(n):
            if q != i and zb(xrow, q):
                emit("CZ", i, q)
        if zb(xrow, i):
            emit("S", i)
        # bring the Z image to Z_i; it now anticommutes with X_i so z_i = 1
        if xb(zrow, i):
            other = [q for q in range(n) if q != i and xb(zrow, q)]
            if other:
                emit("CX", other[0], i)
            else:
                emit("H", i)
                emit("S", i)
                emit("H", i)
        for q in range(n):
            if q != i and xb(zrow, q):
                if zb(zrow, q):
                    emit("S", q)
                emit("H", q)
        for q in range(n):
            if q != i and zb(zrow, q):
                emit("CX", q, i)
        # signs
        if (work.sign >> zrow) & 1:
            emit("X", i)
        if (work.sign >> xrow) & 1:
            emit("Z", i)

    if work.key() != Tableau(n).key():
        raise RuntimeError("tableau synthesis failed to reach the identity")

    return _inverse_word(inverse_ops)


def _inverse_word(word) -> tuple:
    """The inverse gate word: reversed, with S and Sdg swapped."""
    return tuple((_DAGGERS.get(name, name), qubits) for name, qubits in reversed(word))


def random_clifford(t: int, rng) -> CliffordOp:
    """A Clifford drawn exactly uniformly from the t-qubit Clifford group."""
    tab = random_clifford_tableau(t, rng)
    return CliffordOp(n=t, word=synthesize_word(tab))


def random_clifford_word(t: int, length: int, rng) -> CliffordOp:
    """A circuit of ``length`` uniformly random gates from the gate set."""
    if length < 0:
        raise ValueError(f"gate count must be non-negative, got {length}")
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


def random_pauli(t: int, rng) -> PauliOperator:
    """A uniformly random t-qubit Pauli with sign +-1."""
    x = int.from_bytes(rng.bytes((t + 7) // 8), "little") & ((1 << t) - 1)
    z = int.from_bytes(rng.bytes((t + 7) // 8), "little") & ((1 << t) - 1)
    return PauliOperator(t, x, z, -1 if rng.integers(2) else 1)
