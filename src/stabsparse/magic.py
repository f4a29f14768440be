"""Tensored one-qubit magic states and their sparse stabilizer ensembles.

A one-qubit magic state at angle phi (measured from the top pole of the
Bloch sphere, phi in (0, pi/2]) decomposes over the non-orthogonal
stabilizer pair {|0>, |+>} with per-bit coefficients

    c0 = (2 nu)^-1 * (i/sqrt 2) * (-i + e^{-i pi/4}) * (-i + e^{i phi})
    c1 = (2 nu)^-1 * (i/sqrt 2) * (1 + e^{-i pi/4}) * (1 - e^{i phi})

where nu = cos(pi/8).  These satisfy |c0| = sqrt(1 - sin phi),
|c1| = sqrt(1 - cos phi) and reconstruct exactly the polar-family state
e^{i(phi/2 - pi/8)} (cos(phi/2)|0> + sin(phi/2)|1>) per qubit; phi = pi/4
gives the T-type magic state cos(pi/8)|0> + sin(pi/8)|1>.  The squared
L1 norm of the t-fold tensor coefficients, (|c0| + |c1|)^(2t), saturates
the stabilizer extent of the tensor power.

``sample_iid`` draws k-term sparsifications with i.i.d. term selection;
``sample_correlated`` supplements each seed with f_t masked variants at
pairwise Hamming distance >= t/2, which raises the cross-term constant
gamma above 1 and lowers the number of terms needed for a target error.
Both give a ``SparseDecomposition`` its terms as arrays, ``lane_words``
label rows and complex128 phases, with no Python object per term.  The lane
format's t bound ``T_MAX`` and the exact power table ``ROOT2`` are shared
by the Gram kernel (``estimator``) and the Z4 overlaps (``quadform``).
"""

from __future__ import annotations

import cmath
import functools
import json
import math
import warnings
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .masks import MaskSet, popcount
from .stabilizer import product_state_from_bits

IID = "IID"
THEOREM1 = "THEOREM1"
THEOREM2 = "THEOREM2"

NU = math.cos(math.pi / 8.0)


def per_bit_coefficients(phi: float) -> tuple:
    """(c0, c1): exact complex coefficients of |0> and |+> for one qubit."""
    pref = 1j / (2.0 * NU * math.sqrt(2.0))
    c0 = pref * (-1j + np.exp(-1j * math.pi / 4)) * (-1j + np.exp(1j * phi))
    c1 = pref * (1 + np.exp(-1j * math.pi / 4)) * (1 - np.exp(1j * phi))
    return complex(c0), complex(c1)


def overlap(phi: float) -> float:
    """Per-flipped-bit overlap constant (2^-1/2 + 1)(sin phi + cos phi - 1)."""
    if not 0.0 < phi <= math.pi / 2:
        raise ValueError("phi must lie in (0, pi/2]")
    return (2.0 ** -0.5 + 1.0) * (math.sin(phi) + math.cos(phi) - 1.0)


#: Fraction-of-bits bound 2(2 ln2 + ln(1 - 2^-1/2))/ln2 ~ 0.457: flipping
#: this fraction of bits pushes the pairwise overlap below the inverse
#: extent, hence the distance-t/2 mask requirement.
ALPHA_BOUND = 2.0 * (2.0 * math.log(2.0) + math.log(1.0 - 2.0 ** -0.5)) / math.log(2.0)


@dataclass(frozen=True)
class MagicModel:
    """Derived constants of the t-fold tensor magic state at angle phi."""

    phi: float
    t: int
    c0_mag: float
    c1_mag: float
    u0: complex
    u1: complex
    xi_t: float
    l1: float
    p1: float

    @property
    def psi_1(self) -> tuple:
        """One-qubit factor (<0|Psi_1>, <1|Psi_1>) = (c0 + c1/sqrt2, c1/sqrt2)."""
        c1 = self.c1_mag * self.u1 / math.sqrt(2.0)
        return self.c0_mag * self.u0 + c1, c1


def magic_model(phi: float, t: int) -> MagicModel:
    if not 0.0 < phi <= math.pi / 2:
        raise ValueError("phi must lie in (0, pi/2]")
    if t < 1:
        raise ValueError("t must be at least 1")
    c0, c1 = per_bit_coefficients(phi)
    c0_mag, c1_mag = abs(c0), abs(c1)
    u0 = c0 / c0_mag if c0_mag > 0 else 1.0 + 0j
    u1 = c1 / c1_mag if c1_mag > 0 else 1.0 + 0j
    try:
        l1 = (c0_mag + c1_mag) ** t
    except OverflowError:
        l1 = math.inf
    if not math.isfinite(l1 * l1):
        raise ValueError(f"the extent xi_t overflows a float at t = {t}")
    return MagicModel(
        phi=phi,
        t=t,
        c0_mag=c0_mag,
        c1_mag=c1_mag,
        u0=complex(u0),
        u1=complex(u1),
        xi_t=l1 * l1,
        l1=l1,
        p1=c1_mag / (c0_mag + c1_mag),
    )


def dense_target(model: MagicModel) -> np.ndarray:
    """Dense magic-state vector sum_x c_x |x~> (t <= 14)."""
    if model.t > 14:
        raise ValueError("dense target limited to t <= 14")
    per_bit = np.array(model.psi_1, dtype=np.complex128)
    vec = np.array([1.0], dtype=np.complex128)
    for _ in range(model.t):
        vec = np.kron(per_bit, vec)
    return vec


@dataclass(frozen=True, eq=False, init=False)
class SparseDecomposition:
    """A k-term approximation (l1/k) * sum_i phase_i |product(x_i)>.

    The terms are two read-only arrays: ``labels``, the x_i as (k, width)
    ``lane_words`` rows, and ``phases()``, k complex128 unit phases, kept as
    given (and made read-only) or built from ``entries=``, (bitstring int,
    complex phase) pairs, which is also the view ``entries`` builds once, on
    first use.  Decompositions are equal when every field and term is.
    """

    t: int
    k: int
    prefactor: float
    mode: str
    f_t: int
    labels: np.ndarray
    _phases: np.ndarray

    def __init__(self, t, k, prefactor, entries=None, mode=IID, f_t=0, *, labels=None, phases=None):
        if entries is not None:
            labels = lane_words([x for x, _ in entries], t)
            phases = np.array([ph for _, ph in entries], np.complex128)
        if len(labels) != k or len(phases) != k:
            raise ValueError("entry count must equal k")
        if f_t < 0:
            raise ValueError(f"f_t must be nonnegative, got f_t = {f_t}")
        if mode not in (IID, THEOREM1, THEOREM2):
            raise ValueError(f"unknown decomposition mode {mode!r}")
        if mode != IID and k % (f_t + 1):  # else the last group would run past k
            raise ValueError(f"a {mode} decomposition needs k to be a multiple of "
                             f"f_t + 1 = {f_t + 1}, got k = {k}")
        labels.setflags(write=False)
        phases.setflags(write=False)
        # past the frozen __setattr__, as a dataclass __init__ would
        vars(self).update(t=t, k=k, prefactor=prefactor, mode=mode, f_t=f_t, labels=labels,
                          _phases=phases)

    def __eq__(self, other):
        return isinstance(other, SparseDecomposition) and all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))

    @functools.cached_property
    def entries(self) -> tuple:
        """The terms as (bitstring int, complex phase) pairs."""
        data, size = self.labels.tobytes(), self.labels.itemsize * self.labels.shape[1]
        bits = [int.from_bytes(data[i:i + size], "little") for i in range(0, len(data), size)]
        return tuple(zip(bits, self._phases.tolist()))

    @property
    def groups(self) -> tuple:
        """(first entry index, f_t + 1) per seed group of a correlated draw; () for i.i.d."""
        if self.mode == IID:
            return ()
        return tuple((start, self.f_t + 1) for start in range(0, self.k, self.f_t + 1))

    def phases(self) -> np.ndarray:
        return self._phases

    def to_json(self) -> dict:
        return {
            "t": self.t,
            "k": self.k,
            "prefactor": self.prefactor,
            "mode": self.mode,
            "f_t": self.f_t,
            "entries": [
                {"x": format(x, "x"), "phase": [ph.real, ph.imag]}
                for x, ph in self.entries
            ],
            "groups": [list(g) for g in self.groups],
        }

    @classmethod
    def from_json(cls, data: dict) -> "SparseDecomposition":
        try:
            entries = tuple(
                (int(e["x"], 16), complex(e["phase"][0], e["phase"][1]))
                for e in data["entries"]
            )
            t, k, f_t, mode = data["t"], data["k"], data.get("f_t", 0), data["mode"]
            for name, value in (("t", t), ("k", k), ("f_t", f_t)):
                if isinstance(value, bool) or not isinstance(value, int):
                    raise ValueError(f"decomposition {name} must be an int, got {name} = {value!r}")
            if t < 1:
                raise ValueError(f"decomposition needs t >= 1, got t = {t}")
            if k < 1:
                raise ValueError(f"decomposition needs k >= 1 entries, got k = {k}")
            for x, phase in entries:
                if x < 0 or x.bit_length() > t:
                    raise ValueError(f"bitstring {x:x} does not fit in t = {t} bits")
                if not cmath.isfinite(phase):
                    raise ValueError(f"phase {phase} of bitstring {x:x} is not finite")
                if abs(abs(phase) - 1.0) > 1e-9:
                    raise ValueError(f"phase {phase} of bitstring {x:x} is not a unit phase")
            prefactor = float(data["prefactor"])
            if not (math.isfinite(prefactor) and prefactor > 0.0):
                raise ValueError(f"prefactor {prefactor} is not finite and positive")
            return cls(t, k, prefactor, entries, mode, f_t)
        except (KeyError, IndexError, TypeError) as exc:
            msg = f"malformed decomposition JSON ({type(exc).__name__}: {exc})"
            raise ValueError(msg) from None

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh)

    @classmethod
    def load(cls, path: str) -> "SparseDecomposition":
        with open(path) as fh:
            return cls.from_json(json.load(fh))


#: the largest t of the Gram kernel's and fastnorm's power-of-two scalings
T_MAX = 1024
#: 2^(n/2) at index 3 T_MAX + n (n = -3 T_MAX..T_MAX), exact at even n: with cold
#: caches a read costs less than a fresh ldexp or exp2, and gives their values
ROOT2 = np.exp2(0.5 * np.arange(-3 * T_MAX, T_MAX + 1))


def lane_bytes(t: int) -> int:
    """Bytes (1, 2, 4 or 8) of the narrowest unsigned lane holding min(t, 64) bits."""
    return 1 << max(0, (min(t, 64) - 1).bit_length() - 3)


def lane_words(values: Sequence[int], t: int) -> np.ndarray:
    """(len(values), width) little-endian words of t-bit ints: t <= 64 in
    one ``lane_bytes`` lane, wider t in ceil(t/64) uint64 words."""
    if t <= 64:
        return np.array(values, dtype=f"<u{lane_bytes(t)}")[:, None]
    try:
        data = b"".join(v.to_bytes(8 * -(-t // 64), "little") for v in values)
    except (MemoryError, OverflowError):  # the words' size is refused
        raise ValueError(f"labels of t = {t} bits do not fit in memory") from None
    return np.frombuffer(data, dtype="<u8").reshape(len(values), -(-t // 64))


def pack_lanes(bits: np.ndarray) -> np.ndarray:
    """(..., t) bits as (..., width) ``lane_words`` words."""
    t = bits.shape[-1]
    lanes = np.zeros((*bits.shape[:-1], lane_bytes(t) if t <= 64 else 8 * -(-t // 64)), np.uint8)
    lanes[..., :-(-t // 8)] = np.packbits(bits, axis=-1, bitorder="little")
    return lanes.view(f"<u{min(lanes.shape[-1], 8)}")


def _sample_terms(model: MagicModel, m: int, rng, shifts=(0,)) -> tuple:
    """(labels, phases): ``lane_words`` rows seed ^ shift and complex128
    u0^(t-w) u1^w, w the Hamming weight, for m i.i.d. Bernoulli(p1) seeds and
    each shift.  One ``rng.random((m, t))`` call draws the same stream as m
    calls of ``rng.random(t)``; bit q of seed i is draw (i, q)."""
    t = model.t
    try:
        table = np.array([model.u0 ** (t - w) * model.u1**w for w in range(t + 1)])
        seeds = pack_lanes(rng.random((m, t)) < model.p1)
        labels = (seeds[:, None] ^ lane_words(shifts, t)).reshape(-1, seeds.shape[1])
        weight = np.bitwise_count(labels)
        phases = table[weight[:, 0] if t <= 64 else weight.sum(axis=1)]
    except (MemoryError, ValueError):  # numpy refuses an array's size
        raise ValueError(f"cannot draw k = {m * len(shifts)} terms at t = {t}: "
                         "the draws do not fit in memory") from None
    return labels, phases


def sample_iid(model: MagicModel, k: int, rng) -> SparseDecomposition:
    """k-term sparsification with bits i.i.d. Bernoulli(p1) per qubit."""
    if k < 1:
        raise ValueError("k must be at least 1")
    labels, phases = _sample_terms(model, k, rng)
    return SparseDecomposition(model.t, k, model.l1 / k, labels=labels, phases=phases)


def sample_correlated(
    model: MagicModel,
    masks: MaskSet,
    f_t: int,
    k_total: int,
    rng,
    mode: str = THEOREM1,
) -> SparseDecomposition:
    """Groups of one i.i.d. seed plus its f_t mask-shifted companions.

    Draws ceil(k_total / (f_t+1)) seeds; each group holds the seed and
    seed XOR mask_j for the first f_t masks, so k is rounded up to a
    multiple of the group size.  f_t = 0 degenerates to plain i.i.d.
    sampling.  Phases follow the same per-entry rule as sample_iid.
    """
    if f_t < 0 or f_t > len(masks):
        raise ValueError("f_t must lie in [0, number of masks]")
    if k_total < 1:
        raise ValueError("k_total must be at least 1")
    if f_t > 0 and masks.block_length != model.t:
        raise ValueError(
            "mask block length must equal the model qubit count; for more "
            "masks build the model at a larger power-of-two block length"
        )
    if abs(model.p1 - 0.5) > 1e-12 and f_t > 0:
        warnings.warn(
            "masked supplements preserve the seed distribution only at "
            "phi = pi/4 (p1 = 1/2); the correlated ensemble is biased",
            stacklevel=2,
        )
    shifts = (0,) + tuple(masks.masks[:f_t])
    labels, phases = _sample_terms(model, -(-k_total // (f_t + 1)), rng, shifts)
    return SparseDecomposition(model.t, len(labels), model.l1 / len(labels), mode=mode, f_t=f_t,
                               labels=labels, phases=phases)


def gamma_bound(model: MagicModel, masks: MaskSet, f_t: int) -> float:
    """Cross-term constant 1 + f_t - sum_j xi_t |overlap|^(mask weight).

    The magnitude bound stands in for the phase-carrying expectation;
    at phi = pi/4 the two coincide and the value is exact for the
    seed-supplement pairs.  f_t = 0 returns 1 (the i.i.d. value).
    """
    if f_t < 0 or f_t > len(masks):
        raise ValueError("f_t must lie in [0, number of masks]")
    ov = abs(overlap(model.phi))
    total = 0.0
    for j in range(f_t):
        total += model.xi_t * ov ** popcount(masks.masks[j])
    return 1.0 + f_t - total


def tail_bound(xi: float, delta: float, gamma: float) -> float:
    """Convergence-probability lower bound 1 - 2 exp(-d^2 xi/8 + g d^2/8).

    Clamped to [0, 1]; degenerate settings (gamma >= xi or delta = 0)
    clamp to 0.
    """
    raw = 1.0 - 2.0 * math.exp(-(delta**2) * xi / 8.0 + gamma * delta**2 / 8.0)
    return min(1.0, max(0.0, raw))


def to_states(decomp: SparseDecomposition) -> list:
    """Decomposition as [(complex weight, StabilizerState), ...]."""
    out = []
    for bits, phase in decomp.entries:
        weight = decomp.prefactor * phase
        out.append((weight, product_state_from_bits(bits, decomp.t)))
    return out


def dense_decomposition(decomp: SparseDecomposition) -> np.ndarray:
    """Dense vector of the sparsified state (t <= 14): term b adds 2^(-|b|/2) phase_b
    to every x inside b, a superset sum done as t passes v[x] += v[x | 1 << q]."""
    if decomp.t > 14:
        raise ValueError("dense expansion limited to t <= 14")
    labels = decomp.labels[:, 0]
    vec = np.zeros(1 << decomp.t, dtype=np.complex128)
    np.add.at(vec, labels, decomp.phases() * np.exp2(-0.5 * np.bitwise_count(labels)))
    for q in range(decomp.t):
        view = vec.reshape(-1, 2, 1 << q)  # axis 1 is bit q
        view[:, 0] += view[:, 1]
    return decomp.prefactor * vec
