"""Estimating Pauli-measurement outcomes through a Clifford circuit.

Applies a long random Clifford word to a sparsified magic state and
estimates a two-measurement joint probability as a chain of marginals,
comparing the sparse estimate (and its Monte-Carlo-norm variant)
against the exact truth: the same chain evaluated on the exact magic
state (``estimator.target_prob``).
"""

import math

import numpy as np

from stabsparse import bench, estimator, magic
from stabsparse import stabilizer as sb

T = 4
DELTA = 0.2
rng = np.random.default_rng(7)

model = magic.magic_model(math.pi / 4, T)
decomp, _ = bench.sparsify(model, DELTA, "theorem1", rng)
print(f"sparsified decomposition: k = {decomp.k} terms (f_t = {decomp.f_t}), "
      f"versus 2^{T} = {2**T} exact terms")

circuit = sb.random_clifford_word(T, 1000, rng)
p1, p2 = sb.random_pauli(T, rng), sb.random_pauli(T, rng)
chain = [(p1, 1), (p2, 1)]
print(f"circuit: 1000 random gates; measuring {p1.to_string()} then {p2.to_string()}")

est = estimator.pauli_prob(decomp, circuit, chain)
print(f"\nexact-norm estimate:   joint = {est.value:.5f}, "
      f"conditionals = {[round(v, 5) for v in est.step_values]}")

est_mc = estimator.pauli_prob(
    decomp, circuit, chain,
    method=estimator.FASTNORM, fastnorm_samples=1000, rng=rng,
)
print(f"monte-carlo-norm estimate: joint = {est_mc.value:.5f}")

truth = estimator.target_prob(model, circuit, chain).value
print(f"exact truth:           joint = {truth:.5f}")
print(f"\nsparse-estimate error = {abs(est.value - truth):.5f} "
      f"(target additive error {DELTA})")
