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
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dense import product_vector
from .masks import MaskSet, popcount
from .stabilizer import StabilizerState, product_state_from_bits

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
    def xi_1(self) -> float:
        return (self.c0_mag + self.c1_mag) ** 2


def magic_model(phi: float, t: int) -> MagicModel:
    if not 0.0 < phi <= math.pi / 2:
        raise ValueError("phi must lie in (0, pi/2]")
    if t < 1:
        raise ValueError("t must be at least 1")
    c0, c1 = per_bit_coefficients(phi)
    c0_mag, c1_mag = abs(c0), abs(c1)
    u0 = c0 / c0_mag if c0_mag > 0 else 1.0 + 0j
    u1 = c1 / c1_mag if c1_mag > 0 else 1.0 + 0j
    l1 = (c0_mag + c1_mag) ** t
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
    c0 = model.c0_mag * model.u0
    c1 = model.c1_mag * model.u1
    per_bit = np.array(
        [c0 + c1 / math.sqrt(2.0), c1 / math.sqrt(2.0)], dtype=np.complex128
    )
    vec = np.array([1.0], dtype=np.complex128)
    for _ in range(model.t):
        vec = np.kron(per_bit, vec)
    return vec


@dataclass(frozen=True)
class SparseDecomposition:
    """A k-term approximation (l1/k) * sum_i phase_i |product(x_i)>."""

    t: int
    k: int
    prefactor: float
    entries: tuple  # of (bitstring int, complex unit phase)
    mode: str
    f_t: int = 0
    groups: tuple = ()  # of (seed entry index, member index range length f_t+1)
    mask_ref: Optional[str] = None
    seed: Optional[int] = None

    def __post_init__(self):
        if len(self.entries) != self.k:
            raise ValueError("entry count must equal k")

    def phases(self) -> np.ndarray:
        return np.array([ph for _, ph in self.entries], dtype=np.complex128)

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
            "mask_ref": self.mask_ref,
            "seed": self.seed,
        }

    @classmethod
    def from_json(cls, data: dict) -> "SparseDecomposition":
        try:
            entries = tuple(
                (int(e["x"], 16), complex(e["phase"][0], e["phase"][1]))
                for e in data["entries"]
            )
            return cls(
                t=int(data["t"]),
                k=int(data["k"]),
                prefactor=float(data["prefactor"]),
                entries=entries,
                mode=data["mode"],
                f_t=int(data.get("f_t", 0)),
                groups=tuple(tuple(g) for g in data.get("groups", [])),
                mask_ref=data.get("mask_ref"),
                seed=data.get("seed"),
            )
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


def _entry_phase(model: MagicModel, bits: int) -> complex:
    ones = popcount(bits)
    return model.u0 ** (model.t - ones) * model.u1 ** ones


def _draw_seed_bits(model: MagicModel, rng) -> int:
    draws = rng.random(model.t) < model.p1
    bits = 0
    for q in range(model.t):
        if draws[q]:
            bits |= 1 << q
    return bits


def sample_iid(model: MagicModel, k: int, rng, mode: str = IID) -> SparseDecomposition:
    """k-term sparsification with bits i.i.d. Bernoulli(p1) per qubit."""
    if k < 1:
        raise ValueError("k must be at least 1")
    entries = []
    for _ in range(k):
        bits = _draw_seed_bits(model, rng)
        entries.append((bits, _entry_phase(model, bits)))
    return SparseDecomposition(
        t=model.t,
        k=k,
        prefactor=model.l1 / k,
        entries=tuple(entries),
        mode=mode,
    )


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
            "mask block length must equal the model qubit count; for a padded "
            "plan build the model at the padded length"
        )
    if abs(model.p1 - 0.5) > 1e-12 and f_t > 0:
        warnings.warn(
            "masked supplements preserve the seed distribution only at "
            "phi = pi/4 (p1 = 1/2); the correlated ensemble is biased",
            stacklevel=2,
        )
    size = f_t + 1
    m_groups = math.ceil(k_total / size)
    entries = []
    groups = []
    for _ in range(m_groups):
        seed_bits = _draw_seed_bits(model, rng)
        start = len(entries)
        entries.append((seed_bits, _entry_phase(model, seed_bits)))
        for j in range(f_t):
            bits = seed_bits ^ masks.masks[j]
            entries.append((bits, _entry_phase(model, bits)))
        groups.append((start, size))
    k = len(entries)
    return SparseDecomposition(
        t=model.t,
        k=k,
        prefactor=model.l1 / k,
        entries=tuple(entries),
        mode=mode,
        f_t=f_t,
        groups=tuple(groups),
    )


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
    """Dense vector of the sparsified state (t <= 14)."""
    if decomp.t > 14:
        raise ValueError("dense expansion limited to t <= 14")
    acc = np.zeros(1 << decomp.t, dtype=np.complex128)
    for bits, phase in decomp.entries:
        acc += phase * product_vector([(bits >> q) & 1 for q in range(decomp.t)])
    return decomp.prefactor * acc
