"""The three benchmark workloads and the references that check them.

Each workload is a closed loop of independent ops.  Op ``i`` draws all of
its randomness from ``bench.trial_rng(seed, workload.index, i)``; the
untimed ``inputs`` step draws first and the timed ``op`` continues the
same stream, so a seed fixes every op's inputs and outputs.

Every call into the package goes through a module attribute
(``magic.sample_correlated``, ``estimator.pauli_prob``, ...) so that the
traced run can wrap it.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from stabsparse import bench, dense, estimator, magic
from stabsparse import stabilizer as sb

#: ops whose inputs count as set-up: the warm-up op and the first timed
#: ops, which every run executes and whose outputs form the run digest
PRELOAD_OPS = 4
#: absolute tolerance on probabilities and relative tolerance on norms
TOL = 1e-9
#: fastnorm_ch run check: the pooled mean of fastnorm / exact norm must
#: lie within this many standard errors of 1
FASTNORM_Z = 5.0
#: row tile of the reference Gram sum, which bounds its memory at
#: about 17 * TILE * k bytes, far below the estimator's k x k temporaries
TILE = 256


def reference_sqnorm(decomp: magic.SparseDecomposition) -> float:
    """sum_ij conj(a_i) a_j 2^(-|x_i ^ x_j|/2), summed tile by tile."""
    if decomp.t > 64:
        raise ValueError("reference Gram sum packs bitstrings into one word")
    bits = np.array([x for x, _ in decomp.entries], dtype=np.uint64)
    ph = decomp.phases()
    overlap = np.exp2(-0.5 * np.arange(65))
    total = 0.0 + 0.0j
    for lo in range(0, decomp.k, TILE):
        hi = min(lo + TILE, decomp.k)
        gram = overlap[np.bitwise_count(bits[lo:hi, None] ^ bits[None, :])]
        row = gram @ ph.real + 1j * (gram @ ph.imag)
        total += np.vdot(ph[lo:hi], row)
    return float(decomp.prefactor**2 * total.real)


def dense_chain(decomp: magic.SparseDecomposition, circuit, chain) -> tuple:
    """(raw probability, per-step conditionals) from the dense oracle."""
    vec = dense.apply_clifford_dense(magic.dense_decomposition(decomp), circuit)
    steps = []
    for p, outcome in chain:
        res = dense.projector_factor(vec, p, outcome, decomp.t)
        if res is None:
            break
        vec, factor = res
        steps.append(factor)
    steps += [0.0] * (len(chain) - len(steps))
    return math.prod(steps), steps


def _bits_digest(decomp: magic.SparseDecomposition) -> str:
    data = ",".join(format(x, "x") for x, _ in decomp.entries)
    return hashlib.sha256(data.encode()).hexdigest()[:16]


class Workload:
    """Setup, per-op inputs, the timed op, and its correctness checks."""

    name = ""
    index = 0
    SIZES: dict = {}

    def __init__(self, seed: int, size: str = "full"):
        self.seed = seed
        self.size = size
        self.p = dict(self.SIZES[size])

    def rng(self, i: int) -> np.random.Generator:
        return bench.trial_rng(self.seed, self.index, i)

    def setup(self) -> None:
        raise NotImplementedError

    def inputs(self, i: int):
        raise NotImplementedError

    def op(self, inp):
        raise NotImplementedError

    def check(self, inp, out):
        """None when the op's output is correct, else the reason."""
        raise NotImplementedError

    def canon(self, out) -> str:
        """Timing-free text of an op's output, for the run digest."""
        raise NotImplementedError

    def finish(self):
        """Run-level check over all checked ops: None or the reason."""
        return None


class OutcomeChain(Workload):
    """pauli_prob (EXACT) of a theorem-1 decomposition after a random circuit."""

    name = "outcome_chain"
    index = 0
    SIZES = {
        "full": dict(t=8, phi=math.pi / 4, delta=0.2, gates=1000, chain=2),
        "tiny": dict(t=4, phi=math.pi / 4, delta=0.4, gates=40, chain=2),
    }

    def setup(self):
        p = self.p
        self.model = magic.magic_model(p["phi"], p["t"])
        mask_set = bench.default_masks(p["t"], 2 * p["t"] - 1)
        self.plan = bench.theorem1_plan(self.model, p["delta"], mask_set)

    def inputs(self, i):
        t = self.p["t"]
        rng = self.rng(i)
        circuit = sb.random_clifford_word(t, self.p["gates"], rng)
        chain = []
        for _ in range(self.p["chain"]):
            pauli = sb.random_pauli(t, rng)
            chain.append((pauli, 1 if rng.integers(2) else -1))
        return i, rng, circuit, chain

    def op(self, inp):
        _, rng, circuit, chain = inp
        plan = self.plan
        decomp = magic.sample_correlated(
            self.model, plan.mask_set, plan.f_t, plan.k_correlated, rng
        )
        return decomp, estimator.pauli_prob(decomp, circuit, chain)

    def check(self, inp, out):
        _, _, circuit, chain = inp
        decomp, est = out
        if decomp.k != self.plan.k_correlated:
            return f"k {decomp.k} != plan {self.plan.k_correlated}"
        raw, steps = dense_chain(decomp, circuit, chain)
        if abs(est.raw_value - raw) > TOL:
            return f"raw_value {est.raw_value!r} != dense {raw!r}"
        if len(est.step_values) != len(steps):
            return "step count differs from the chain length"
        for got, want in zip(est.step_values, steps):
            if abs(got - want) > TOL:
                return f"step {got!r} != dense {want!r}"
        return None

    def canon(self, out):
        decomp, est = out
        return repr((_bits_digest(decomp), est.raw_value, est.step_values))


class SparsifyNorm(Workload):
    """Exact norms of an i.i.d. and a correlated sparsification above the dense cap."""

    name = "sparsify_norm"
    index = 1
    SIZES = {
        "full": dict(t=32, phi=math.pi / 4, delta=0.2),
        "tiny": dict(t=8, phi=math.pi / 4, delta=0.4),
    }

    def setup(self):
        p = self.p
        self.model = magic.magic_model(p["phi"], p["t"])
        mask_set = bench.default_masks(p["t"], 2 * p["t"] - 1)
        self.plan = bench.theorem1_plan(self.model, p["delta"], mask_set)

    def inputs(self, i):
        return i, self.rng(i)

    def op(self, inp):
        _, rng = inp
        plan = self.plan
        iid = magic.sample_iid(self.model, plan.k_iid, rng)
        corr = magic.sample_correlated(
            self.model, plan.mask_set, plan.f_t, plan.k_correlated, rng
        )
        return iid, corr, estimator.exact_sqnorm(iid), estimator.exact_sqnorm(corr)

    def check(self, inp, out):
        iid, corr, norm_iid, norm_corr = out
        plan = self.plan
        if iid.k != plan.k_iid or corr.k != plan.k_correlated:
            return f"k ({iid.k}, {corr.k}) != plan ({plan.k_iid}, {plan.k_correlated})"
        size = plan.f_t + 1
        if corr.f_t != plan.f_t or corr.groups != tuple(
            (g * size, size) for g in range(corr.k // size)
        ):
            return "correlated groups do not follow the plan"
        for start, _ in corr.groups:
            seed_bits = corr.entries[start][0]
            for j in range(plan.f_t):
                if corr.entries[start + 1 + j][0] != seed_bits ^ plan.mask_set.masks[j]:
                    return f"group at {start}: member {j + 1} is not seed ^ mask_{j}"
        for decomp, norm in ((iid, norm_iid), (corr, norm_corr)):
            bits = np.array([x for x, _ in decomp.entries], dtype=np.uint64)
            w = np.bitwise_count(bits).astype(np.int64)
            want = self.model.u0 ** (decomp.t - w) * self.model.u1**w
            if np.max(np.abs(decomp.phases() - want)) > 1e-12:
                return f"{decomp.mode} phases differ from u0^(t-w) u1^w"
            ref = reference_sqnorm(decomp)
            if abs(norm.value - ref) > TOL * abs(ref):
                return f"{decomp.mode} exact_sqnorm {norm.value!r} != reference {ref!r}"
        return None

    def canon(self, out):
        iid, corr, norm_iid, norm_corr = out
        return repr((_bits_digest(iid), _bits_digest(corr), norm_iid.value, norm_corr.value))


class FastnormCH(Workload):
    """fastnorm above the dense cap, one fresh theorem-2 decomposition per op."""

    name = "fastnorm_ch"
    index = 2
    SIZES = {
        "full": dict(t=16, phi=math.pi / 4, delta=0.3, samples=32),
        "tiny": dict(t=14, phi=math.pi / 4, delta=0.5, samples=2),
    }

    def setup(self):
        p = self.p
        self.model = magic.magic_model(p["phi"], p["t"])
        mask_set = bench.default_masks(p["t"], 2 * p["t"] - 1)
        self.plan = bench.theorem2_plan(self.model, p["delta"], mask_set)
        self.ratios = {}

    def inputs(self, i):
        rng = self.rng(i)
        plan = self.plan
        decomp = magic.sample_correlated(
            self.model, plan.mask_set, plan.f_t, plan.k_correlated, rng,
            mode=magic.THEOREM2,
        )
        return i, rng, decomp

    def op(self, inp):
        _, rng, decomp = inp
        return estimator.fastnorm(decomp, self.p["samples"], rng)

    def check(self, inp, out):
        i, _, decomp = inp
        if not (math.isfinite(out.value) and out.value > 0):
            return f"fastnorm value {out.value!r} is not finite and positive"
        if out.samples_used != self.p["samples"]:
            return f"samples_used {out.samples_used} != {self.p['samples']}"
        self.ratios[i] = out.value / reference_sqnorm(decomp)
        return None

    def canon(self, out):
        return repr((out.value, out.samples_used))

    def finish(self):
        r = np.array(list(self.ratios.values()))
        if len(r) < 2:
            return None
        se = r.std(ddof=1) / math.sqrt(len(r))
        if abs(r.mean() - 1.0) > FASTNORM_Z * se:
            return (
                f"pooled fastnorm/exact {r.mean():.4f} is more than "
                f"{FASTNORM_Z} standard errors ({se:.4f}) from 1"
            )
        return None


WORKLOADS = {cls.name: cls for cls in (OutcomeChain, SparsifyNorm, FastnormCH)}
