"""Sparsifying a tensored magic state, i.i.d. versus correlated.

Builds the t-fold T-type magic state model, samples sparse stabilizer
approximations both ways at the same target error, and compares term
counts and realized approximation error against the exact state, in
closed form: ||Psi - psi||^2 = ||psi||^2 - 2 Re<Psi|psi> + 1.
"""

import math

import numpy as np

from stabsparse import bench, costmodel, estimator, magic, masks

PHI = math.pi / 4
T = 8
DELTA = 0.4
TRIALS = 200

model = magic.magic_model(PHI, T)
print(f"t = {T}, phi = pi/4")
print(f"  per-bit coefficient magnitudes: {model.c0_mag:.6f}, {model.c1_mag:.6f}")
print(f"  stabilizer extent xi_t = {model.xi_t:.6f} = (4 - 2 sqrt 2)^{T}")
print(f"  L1 norm of the coefficients = {model.l1:.6f}")

mask_set = masks.generate_masks_pow2(T)
report = masks.verify_mask_set(mask_set)
print(f"\nmask family: {report.count} masks, min weight {report.min_weight}, "
      f"min pairwise distance {report.min_pairwise_distance}")

plan = bench.theorem1_plan(model, DELTA, mask_set)
k_iid = costmodel.k_theorem1(model.xi_t, DELTA, 1.0)
print(f"\nterm counts at delta = {DELTA}:")
print(f"  i.i.d. (gamma = 1):      k = {k_iid}")
print(f"  correlated (gamma = {plan.gamma:.3f}, f_t = {plan.f_t}): "
      f"k = {plan.k_correlated}")

rng = np.random.default_rng(1)
for label, draw in [
    ("i.i.d.", lambda r: magic.sample_iid(model, k_iid, r)),
    ("correlated", lambda r: magic.sample_correlated(
        model, mask_set, plan.f_t, plan.k_correlated, r)),
]:
    errs, norms = [], []
    for _ in range(TRIALS):
        d = draw(rng)
        sqnorm = estimator.exact_sqnorm(d).value
        errs.append(sqnorm - 2.0 * estimator.target_overlap(d, model).real + 1.0)
        norms.append(sqnorm)
    print(f"\n{label}: over {TRIALS} trials")
    print(f"  mean ||Psi - psi||^2 = {np.mean(errs):.4f}  (target {DELTA**2:.2f})")
    print(f"  mean <psi|psi> = {np.mean(norms):.4f}, variance {np.var(norms):.5f}")
    print(f"  convergence frequency = {np.mean(np.array(errs) <= DELTA**2):.3f}")

bound = magic.tail_bound(model.xi_t, DELTA, plan.gamma)
print(f"\nconvergence-probability lower bound (correlated): {bound:.3f}")
