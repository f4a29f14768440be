"""Acceptance suite: every promised behavior as a timed pass/fail check.

Each test prints one line ``[criterion N] name: PASS (...)`` with its
headline numbers (visible under ``pytest -s`` or in failure output) and
enforces its stated wall-clock budget.
"""

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from stabsparse import bench, costmodel, dense, estimator, magic, masks
from stabsparse import stabilizer as sb

PI4 = math.pi / 4
XI1 = 4 - 2 * math.sqrt(2)
WORKERS = max(1, min(8, os.cpu_count() or 1))

TREE_FAMILY = {
    2: ["a", "b", "g"],
    4: ["aa", "bb", "ab", "ba", "gg", "gd", "dg"],
    8: [
        "aaaa", "bbbb", "aabb", "bbaa", "abba", "baab", "abab", "baba",
        "gggg", "ggdd", "ddgg", "gddg", "dggd", "gdgd", "dgdg",
    ],
    16: [
        "aaaaaaaa", "bbbbbbbb", "aaaabbbb", "bbbbaaaa",
        "aabbaabb", "bbaabbaa", "aabbbbaa", "bbaaaabb",
        "abababab", "ababbaba", "babaabab", "babababa",
        "abbaabba", "baabbaab", "abbabaab", "baababba",
        "gggggggg", "ggggdddd", "ddddgggg",
        "ggddggdd", "ddggddgg", "ggddddgg", "ddggggdd",
        "gdgdgdgd", "gdgddgdg", "dgdggdgd", "dgdgdgdg",
        "gddggddg", "dggddggd", "gddgdggd", "dggdgddg",
    ],
}
SYMBOL_BITS = {"a": (1, 0), "b": (0, 1), "g": (0, 0), "d": (1, 1)}


def _sym(text):
    value = 0
    pos = 0
    for ch in text:
        for bit in SYMBOL_BITS[ch]:
            value |= bit << pos
            pos += 1
    return value


def report(number, name, ok, detail):
    line = f"[criterion {number}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_mask_correctness():
    start = time.perf_counter()
    for t in (2, 4, 8, 16, 32, 64, 128, 256):
        mask_set = masks.generate_masks_pow2(t)
        rep = masks.verify_mask_set(mask_set)
        assert rep.count == 2 * t - 1
        assert rep.min_weight >= t / 2
        assert rep.min_pairwise_distance >= t / 2
    for t in (2, 4, 8, 16):
        assert set(masks.tree_bitstrings(t)) == {_sym(s) for s in TREE_FAMILY[t]}
    elapsed = time.perf_counter() - start
    report(1, "mask correctness", elapsed < 5.0, f"8 sizes exhaustive, {elapsed:.2f}s")


def test_criterion_2_extent_constants():
    start = time.perf_counter()
    model = magic.magic_model(PI4, 1)
    ok = (
        abs(model.xi_t - XI1) <= 1e-12
        and abs(math.log2(model.xi_t) - 0.2284) <= 5e-4
        and abs(magic.ALPHA_BOUND - 0.457) <= 5e-3
        and abs(magic.overlap(PI4) - 1 / math.sqrt(2)) <= 1e-12
    )
    report(
        2, "extent constants", ok,
        f"xi1={model.xi_t:.12f}, log2={math.log2(model.xi_t):.5f}, "
        f"alpha={magic.ALPHA_BOUND:.4f}, overlap={magic.overlap(PI4):.6f}, "
        f"{time.perf_counter() - start:.2f}s",
    )


def test_criterion_3_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_ip = worst_amp = worst_proj = 0.0
    cases = 0
    while cases < 500:
        t = int(rng.integers(1, 7))
        op_a = sb.random_clifford_word(t, int(rng.integers(0, 30)), rng)
        op_b = sb.random_clifford_word(t, int(rng.integers(0, 30)), rng)
        sel_a = [int(rng.integers(2)) for _ in range(t)]
        sel_b = [int(rng.integers(2)) for _ in range(t)]
        bits_a, bits_b = (sum(s << q for q, s in enumerate(sel)) for sel in (sel_a, sel_b))
        a = sb.apply_clifford(sb.product_state_from_bits(bits_a, t), op_a)
        b = sb.apply_clifford(sb.product_state_from_bits(bits_b, t), op_b)
        va = dense.apply_clifford_dense(dense.product_vector(sel_a), op_a)
        vb = dense.apply_clifford_dense(dense.product_vector(sel_b), op_b)

        worst_ip = max(worst_ip, abs(a.inner_product(b) - np.vdot(va, vb)))
        idx = int(rng.integers(1 << t))
        worst_amp = max(worst_amp, abs(a.amplitude(idx) - va[idx]))

        p = sb.random_pauli(t, rng)
        outcome = 1 if rng.integers(2) else -1
        res = sb.project_pauli(b, p, outcome)
        dres = dense.projector_factor(vb, p, outcome, t)
        assert (res is None) == (dres is None)
        if res is not None:
            worst_proj = max(worst_proj, abs(res[1] - dres[1]))
            worst_proj = max(worst_proj, float(np.max(np.abs(res[0].to_dense() - dres[0]))))
        cases += 1
    elapsed = time.perf_counter() - start
    ok = worst_ip <= 1e-9 and worst_amp <= 1e-9 and worst_proj <= 1e-9 and elapsed < 60
    report(
        3, "oracle equivalence", ok,
        f"500 cases, worst ip={worst_ip:.2e} amp={worst_amp:.2e} "
        f"proj={worst_proj:.2e}, {elapsed:.1f}s",
    )


def test_criterion_4_theorem1_statistics():
    start = time.perf_counter()
    model = magic.magic_model(PI4, 8)
    mask_set = masks.generate_masks_pow2(8)
    plan = bench.theorem1_plan(model, 0.4, mask_set)
    # the count rule: ceil((xi - gamma)/delta^2) rounded up to whole groups
    k_raw = costmodel.k_theorem1(model.xi_t, 0.4, plan.gamma)
    assert plan.k_correlated == math.ceil(k_raw / (plan.f_t + 1)) * (plan.f_t + 1)

    rng = np.random.default_rng(48)
    target = magic.dense_target(model)
    errs = []
    for _ in range(300):
        d = magic.sample_correlated(model, mask_set, plan.f_t, plan.k_correlated, rng)
        errs.append(float(np.sum(np.abs(magic.dense_decomposition(d) - target) ** 2)))
    mean = float(np.mean(errs))
    sem = float(np.std(errs, ddof=1)) / math.sqrt(len(errs))
    upper95 = mean + 1.645 * sem

    count_saving = plan.k_iid - plan.k_correlated
    elapsed = time.perf_counter() - start
    ok = (
        upper95 <= 0.4**2
        and plan.k_correlated < plan.k_iid
        and count_saving >= plan.f_t / 2
        and elapsed < 600
    )
    report(
        4, "next-order sampling statistics", ok,
        f"mean err2={mean:.4f} (95% upper {upper95:.4f}) <= {0.16}, "
        f"k_corr={plan.k_correlated} vs k_iid={plan.k_iid} "
        f"(saving {count_saving} >= f_t/2={plan.f_t / 2}), {elapsed:.1f}s",
    )


def test_criterion_5_theorem2_statistics():
    start = time.perf_counter()
    model = magic.magic_model(PI4, 8)
    mask_set = masks.generate_masks_pow2(8)
    f_t = costmodel.f_t_optimal(0.2, model.xi_t)
    k = costmodel.k_correlated(model.xi_t, 0.2, f_t)

    def draw(rng):
        return magic.sample_correlated(model, mask_set, f_t, k, rng)

    rng = np.random.default_rng(52)
    batches = 20
    per_batch = 100
    target = magic.dense_target(model)
    proj = np.outer(target, np.conjugate(target))
    batch_mats = [estimator.rho1_matrix(model, draw, per_batch, rng) for _ in range(batches)]
    rho = np.mean(batch_mats, axis=0)
    trace_norm_dist = dense.trace_norm(rho - proj)
    trace_dist = 0.5 * trace_norm_dist

    # 95% Monte-Carlo margin by bootstrap over batch means
    boot_rng = np.random.default_rng(53)
    boot = []
    for _ in range(400):
        pick = boot_rng.integers(0, batches, size=batches)
        mat = np.mean([batch_mats[i] for i in pick], axis=0)
        boot.append(0.5 * dense.trace_norm(mat - proj))
    margin = 1.645 * float(np.std(boot, ddof=1))

    elapsed = time.perf_counter() - start
    ok = trace_dist <= 0.2 + margin and elapsed < 1800
    report(
        5, "renormalized-ensemble statistics", ok,
        f"t=8 delta=0.2 f_t={f_t} k={k}, 2000 trials: trace distance "
        f"{trace_dist:.4f} <= 0.2 + {margin:.4f} "
        f"(trace-norm convention: {trace_norm_dist:.4f}), {elapsed:.1f}s",
    )


def test_criterion_6_cost_model_asymptote():
    start = time.perf_counter()
    delta = 1e-4
    xi = XI1**100
    f_t = costmodel.f_t_optimal(delta, xi)
    k = costmodel.k_correlated(xi, delta, f_t)
    scaled = k * delta / xi
    ratio = costmodel.k_sota(xi, delta) / k

    sqrt2_raw = costmodel.k_correlated_raw(1e6, delta, 0.0)
    sqrt2_rel = abs(sqrt2_raw - math.sqrt(2) * 1e6 / delta) / (math.sqrt(2) * 1e6 / delta)

    elapsed = time.perf_counter() - start
    ok = (
        0.0494 <= scaled <= 0.0505
        and 67.8 <= ratio <= 68.9
        and sqrt2_rel <= 1e-3
        and elapsed < 1.0
    )
    report(
        6, "cost-model asymptote", ok,
        f"k*delta/xi={scaled:.6f}, ratio={ratio:.2f}, sqrt2 rel err="
        f"{sqrt2_rel:.2e}, {elapsed:.3f}s",
    )


def test_criterion_7_regime_map():
    start = time.perf_counter()
    crossover = costmodel.exact_vs_strong_crossover(XI1)
    elapsed = time.perf_counter() - start
    ok = 140 <= crossover <= 160 and elapsed < 10
    report(
        7, "regime-map crossover", ok,
        f"exact-vs-strong threshold ordering holds up to t={crossover}, "
        f"{elapsed:.2f}s",
    )


def _probability_trial(trial):
    rng = bench.trial_rng(97, 0, trial)
    t = 4
    model = magic.magic_model(PI4, t)
    mask_set = masks.generate_masks_pow2(t)
    plan = bench.theorem1_plan(model, 0.2, mask_set)
    circuit = sb.random_clifford_word(t, 1000, rng)
    p1, p2 = sb.random_pauli(t, rng), sb.random_pauli(t, rng)
    s1 = 1 if rng.integers(2) else -1
    s2 = 1 if rng.integers(2) else -1
    chain = [(p1, s1), (p2, s2)]

    vec = dense.apply_clifford_dense(magic.dense_target(model), circuit)
    truth = 1.0
    for p, s in chain:
        res = dense.projector_factor(vec, p, s, t)
        if res is None:
            truth = 0.0
            break
        vec, factor = res
        truth *= factor

    d_sparse = magic.sample_correlated(model, mask_set, plan.f_t, plan.k_correlated, rng)
    est = estimator.pauli_prob(d_sparse, circuit, chain)

    entries = tuple(
        (bits, model.u0 ** (t - bits.bit_count()) * model.u1 ** bits.bit_count())
        for bits in range(1 << t)
    )
    d_full = magic.SparseDecomposition(
        t=t, k=1 << t, prefactor=model.l1 / (1 << t), entries=entries, mode=magic.IID
    )
    est_full = estimator.pauli_prob(d_full, circuit, chain)
    return abs(est.value - truth), abs(est_full.value - truth)


def test_criterion_8_probability_estimation():
    start = time.perf_counter()
    trials = 200
    model = magic.magic_model(PI4, 4)
    plan = bench.theorem1_plan(model, 0.2, masks.generate_masks_pow2(4))
    predicted = magic.tail_bound(model.xi_t, 0.2, plan.gamma)

    if WORKERS > 1:
        with ProcessPoolExecutor(max_workers=WORKERS) as pool:
            results = list(pool.map(_probability_trial, range(trials), chunksize=8))
    else:
        results = [_probability_trial(i) for i in range(trials)]
    sparse_errs = np.array([r[0] for r in results])
    full_errs = np.array([r[1] for r in results])

    fraction = float(np.mean(sparse_errs <= 0.2))
    worst_full = float(full_errs.max())
    elapsed = time.perf_counter() - start
    ok = fraction >= predicted - 0.05 and worst_full <= 1e-8 and elapsed < 1200
    report(
        8, "probability estimation", ok,
        f"fraction within delta: {fraction:.3f} >= tail bound {predicted:.3f} - 0.05; "
        f"complete-decomposition worst error {worst_full:.2e} <= 1e-8; "
        f"k={plan.k_correlated}, {elapsed:.1f}s",
    )


_FASTNORM_STATE = {}


def _fastnorm_rep(rep):
    decomp, exact = _FASTNORM_STATE["decomp"], _FASTNORM_STATE["exact"]
    rng = bench.trial_rng(101, 0, rep)
    est = estimator.fastnorm(decomp, 1000, rng)
    return abs(est.value - exact) / exact


def test_criterion_9_fastnorm_calibration():
    start = time.perf_counter()
    model = magic.magic_model(PI4, 8)
    decomp = magic.sample_iid(model, 16, np.random.default_rng(100))
    exact = estimator.exact_sqnorm(decomp).value
    _FASTNORM_STATE["decomp"] = decomp
    _FASTNORM_STATE["exact"] = exact

    reps = 200
    if WORKERS > 1:
        with ProcessPoolExecutor(max_workers=WORKERS) as pool:
            rel_errs = list(pool.map(_fastnorm_rep, range(reps), chunksize=4))
    else:
        rel_errs = [_fastnorm_rep(i) for i in range(reps)]
    rel_errs = np.array(rel_errs)
    fraction = float(np.mean(rel_errs <= 0.15))
    elapsed = time.perf_counter() - start
    ok = fraction >= 0.9 and elapsed < 600
    report(
        9, "fastnorm calibration", ok,
        f"M=1000: rel err <= 0.15 in {fraction:.3f} of {reps} reps "
        f"(median {np.median(rel_errs):.4f}), {elapsed:.1f}s",
    )


def test_criterion_10_determinism(tmp_path):
    start = time.perf_counter()
    variants = {}
    for workers in (1, 4, 8):
        stats_out = tmp_path / f"stats_{workers}.csv"
        bench.run_sparsify_stats(
            PI4, [6], [0.5], 6, seed=77, workers=workers, out=str(stats_out)
        )
        worst_out = tmp_path / f"worst_{workers}.csv"
        bench.run_worst_case(
            [4], [0.24], 30, 4, seed=78, workers=workers, out=str(worst_out)
        )
        timing_out = tmp_path / f"timing_{workers}.csv"
        bench.run_mask_timing([32, 64], out=str(timing_out))
        cost_out = tmp_path / f"cost_{workers}.csv"
        bench.run_cost_map([4, 8], [0.2, 0.1], out=str(cost_out))
        variants[workers] = tuple(
            tuple(map(tuple, bench.read_metric_columns(str(path))))
            for path in (stats_out, worst_out, timing_out, cost_out)
        )
    ok = variants[1] == variants[4] == variants[8]
    elapsed = time.perf_counter() - start
    report(
        10, "determinism across workers", ok,
        f"sparsify-stats / worst-case / mask-timing / cost-map identical "
        f"metric columns for 1, 4, 8 workers, {elapsed:.1f}s",
    )
