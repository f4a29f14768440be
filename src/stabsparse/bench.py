"""Deterministic, seedable benchmark harness with CSV output.

``sparsify`` is the one place a mode name ("iid", "theorem1" or
"theorem2") becomes a term count or plan and a draw; the CLI and every
experiment here draw through it.  ``write_csv`` writes every table.
Each experiment expands into (cell, trial) work items; a trial's random
stream is derived from (master seed, cell index, trial index), so results
are bit-identical for a given seed regardless of the worker count or
completion order.  Rows are emitted sorted by (cell, trial).  Wall-clock
columns are informational only and are excluded from reproducibility
comparisons.  The references the estimates are scored against are closed
forms on the exact magic state, so every column is filled at any t the
Gram kernel covers (t <= 1024): sparsify-stats' err2 is
||psi||^2 - 2 Re<Psi|psi> + 1 (``estimator.target_overlap``) and
worst-case's truth is ``estimator.target_prob``, the same chain evaluator
as the estimates.
"""

from __future__ import annotations

import csv
import math
import os
import time
from dataclasses import dataclass, field, fields
from typing import Callable, Optional, Sequence

import numpy as np

from . import costmodel, estimator, magic, masks
from . import stabilizer as sb

WALL_COLUMNS = ("wall_ns", "total_seconds", "seconds_per_mask")


@dataclass(frozen=True)
class ExperimentRecord:
    """One benchmark row: identity plus a flat name -> value metric map."""

    experiment: str
    mode: str
    phi: float
    t: int
    delta: float
    k: int
    f_t: int
    trial: int
    master_seed: int
    metrics: dict = field(default_factory=dict)

    def row(self, metric_names: Sequence[str]) -> list:
        return ([_fmt(getattr(self, name)) for name in HEAD_COLUMNS]
                + [_fmt(self.metrics.get(name)) for name in metric_names])


HEAD_COLUMNS = tuple(f.name for f in fields(ExperimentRecord) if f.name != "metrics")


def _fmt(value) -> str:
    if value is None:
        return ""
    return repr(value) if isinstance(value, float) else str(value)


def trial_rng(master_seed: int, cell: int, trial: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(master_seed, spawn_key=(cell, trial))
    )


def _run_grid(
    worker: Callable,
    cells: Sequence,
    trials: int,
    master_seed: int,
    workers: int = 1,
) -> list:
    """Evaluate worker(cell, cell_idx, trial_idx, master_seed) on the grid."""
    if trials < 1:
        raise ValueError(f"trial count must be at least 1, got {trials}")
    if workers < 1:
        raise ValueError(f"worker (--threads) count must be at least 1, got {workers}")
    specs = [(ci, ti) for ci in range(len(cells)) for ti in range(trials)]
    # the pool starts every worker at the first submit, so ask for no more
    # than there are work items and CPUs: rows are the same at any count
    workers, out = min(workers, len(specs), os.cpu_count() or 1), {}
    if workers <= 1:
        for ci, ti in specs:
            out[(ci, ti)] = worker(cells[ci], ci, ti, master_seed)
    else:
        from concurrent.futures import ProcessPoolExecutor  # only pooled runs load it
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {
                pool.submit(worker, cells[ci], ci, ti, master_seed): (ci, ti)
                for ci, ti in specs
            }
            for fut, key in futures.items():
                out[key] = fut.result()
    return [out[key] for key in sorted(out)]


def write_csv(path: str, header: Sequence[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_metric_columns(path: str) -> list:
    """CSV rows minus wall-clock columns, for reproducibility comparisons."""
    with open(path) as fh:
        rows = list(csv.reader(fh))
    keep = [i for i, name in enumerate(rows[0]) if name not in WALL_COLUMNS]
    return [[row[i] for i in keep] for row in rows]


# ---------------------------------------------------------------------------
# correlated-run planning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CorrelatedPlan:
    f_t: int
    gamma: float
    k_correlated: int
    k_iid: int
    mask_set: masks.MaskSet


def theorem1_plan(model: magic.MagicModel, delta: float, mask_set: masks.MaskSet) -> CorrelatedPlan:
    """Desk-scale supplement choice for the next-order sampling bound.

    The asymptotically optimal supplement count round(10 delta xi) often
    loses its advantage at small t because k is rounded up to whole
    groups of f_t + 1.  This picks the largest f_t at or below the
    optimum whose group-rounded count still undercuts the i.i.d. count
    by at least ceil(f_t / 2) states, falling back to f_t = 0: gamma = 1
    and the i.i.d. count.
    """
    xi = model.xi_t
    k_iid = costmodel.k_theorem1(xi, delta, 1.0)
    f_cap = min(costmodel.f_t_optimal(delta, xi), len(mask_set))
    for f in range(f_cap, 0, -1):
        gamma = magic.gamma_bound(model, mask_set, f)
        if gamma >= xi:
            continue
        k = costmodel._round_up_multiple(costmodel.k_theorem1(xi, delta, gamma), f + 1)
        if k_iid - k >= math.ceil(f / 2):
            return CorrelatedPlan(f, gamma, k, k_iid, mask_set)
    return CorrelatedPlan(0, 1.0, k_iid, k_iid, mask_set)


def theorem2_plan(model: magic.MagicModel, delta: float, mask_set: masks.MaskSet) -> CorrelatedPlan:
    """Supplement choice for the renormalized ensemble.

    f_t is the optimum capped at the mask count.  k comes from the measured
    distance law (``costmodel.k_distance_law``), not the paper's cubic: once
    the cap binds (t >= 24) the cubic's k hardly moves with delta, and its
    draws miss 1 - F <= delta, a lower bound on the trace distance.
    """
    xi = model.xi_t
    f_t = min(costmodel.f_t_optimal(delta, xi), len(mask_set))
    gamma = magic.gamma_bound(model, mask_set, f_t)
    return CorrelatedPlan(
        f_t=f_t,
        gamma=gamma,
        k_correlated=costmodel.k_distance_law(xi, delta, gamma, f_t),
        k_iid=costmodel.k_sota(xi, delta),
        mask_set=mask_set,
    )


def default_masks(t: int, f_required: int) -> masks.MaskSet:
    """The block-length-t mask set; f_required does not change it (plans cap f_t at its size)."""
    return masks.generate_masks_even(t)


def sparsify(model: magic.MagicModel, delta: float, mode: str, rng,
             k: Optional[int] = None) -> tuple:
    """(decomposition, gamma): one draw of the "iid", "theorem1" or "theorem2"
    ensemble at the count its rule gives for delta, or at k terms if given.

    i.i.d. draws take ``costmodel.k_theorem1`` at gamma = 1; the correlated
    modes draw their plan's groups over ``default_masks``.
    """
    if mode == "iid":
        k = costmodel.k_theorem1(model.xi_t, delta, 1.0) if k is None else k
        return magic.sample_iid(model, k, rng), 1.0
    plan_of, tag = {"theorem1": (theorem1_plan, magic.THEOREM1),
                    "theorem2": (theorem2_plan, magic.THEOREM2)}[mode]
    plan = plan_of(model, delta, default_masks(model.t, 2 * model.t - 1))
    k = plan.k_correlated if k is None else k
    return magic.sample_correlated(model, plan.mask_set, plan.f_t, k, rng, mode=tag), plan.gamma


# ---------------------------------------------------------------------------
# experiment: sparsify-stats
# ---------------------------------------------------------------------------

SPARSIFY_METRICS = ("gamma", "sqnorm", "err2", "converged", "wall_ns")


def _sparsify_trial(cell, cell_idx, trial_idx, master_seed):
    phi, t, delta, mode = cell
    rng = trial_rng(master_seed, cell_idx, trial_idx)
    model = magic.magic_model(phi, t)
    t0 = time.perf_counter_ns()
    decomp, gamma = sparsify(model, delta, mode, rng)
    sqnorm = estimator.exact_sqnorm(decomp).value
    err2 = sqnorm - 2.0 * estimator.target_overlap(decomp, model).real + 1.0  # ||psi - Psi||^2
    wall = time.perf_counter_ns() - t0
    metrics = {
        "gamma": gamma, "sqnorm": sqnorm, "err2": err2,
        "converged": int(err2 <= delta * delta), "wall_ns": wall,
    }
    return ExperimentRecord(
        experiment="sparsify-stats", mode=mode, phi=phi, t=t, delta=delta,
        k=decomp.k, f_t=decomp.f_t, trial=trial_idx, master_seed=master_seed,
        metrics=metrics,
    )


def run_sparsify_stats(
    phi: float,
    ts: Sequence[int],
    deltas: Sequence[float],
    trials: int,
    seed: int,
    workers: int = 1,
    out: Optional[str] = None,
) -> list:
    cells = [(phi, t, d, mode) for t in ts for d in deltas for mode in ("iid", "theorem1")]
    records = _run_grid(_sparsify_trial, cells, trials, seed, workers)
    if out:
        write_csv(out, HEAD_COLUMNS + SPARSIFY_METRICS,
                  (r.row(SPARSIFY_METRICS) for r in records))
    return records


def summarize_sparsify(records: Sequence[ExperimentRecord]) -> dict:
    """Per-cell mean/variance of <psi|psi> and convergence frequency."""
    cells = {}
    for rec in records:
        cells.setdefault((rec.t, rec.delta, rec.mode), []).append(rec)
    out = {}
    for key, recs in sorted(cells.items()):
        norms = np.array([r.metrics["sqnorm"] for r in recs])
        out[key] = {
            "k": recs[0].k,
            "f_t": recs[0].f_t,
            "mean_sqnorm": float(norms.mean()),
            "var_sqnorm": float(norms.var(ddof=1)) if len(norms) > 1 else 0.0,
            "convergence_frequency": float(np.mean([r.metrics["converged"] for r in recs])),
            "trials": len(recs),
        }
    return out


# ---------------------------------------------------------------------------
# experiment: worst-case probability estimation
# ---------------------------------------------------------------------------

WORST_CASE_METRICS = (
    "p_true", "p_iid", "p_corr",
    "err_iid", "err_corr",
    "err1_iid", "err2_iid", "err1_corr", "err2_corr",
    "outcome1", "outcome2", "k_iid", "k_corr", "wall_ns",
)


def _worst_case_trial(cell, cell_idx, trial_idx, master_seed):
    phi, t, delta, n_cliffords = cell
    rng = trial_rng(master_seed, cell_idx, trial_idx)
    model = magic.magic_model(phi, t)
    t0 = time.perf_counter_ns()

    circuit = sb.random_clifford_word(t, n_cliffords, rng)
    p1 = sb.random_pauli(t, rng)
    p2 = sb.random_pauli(t, rng)
    s1 = 1 if rng.integers(2) else -1
    s2 = 1 if rng.integers(2) else -1
    chain = [(p1, s1), (p2, s2)]

    d_iid, _ = sparsify(model, delta, "iid", rng, k=costmodel.k_sota(model.xi_t, delta))
    d_corr, _ = sparsify(model, delta, "theorem2", rng)
    truth = estimator.target_prob(model, circuit, chain)

    metrics = {
        "p_true": truth.value,
        "outcome1": s1, "outcome2": s2,
        "k_iid": d_iid.k, "k_corr": d_corr.k,
    }
    for label, decomp in (("iid", d_iid), ("corr", d_corr)):
        est = estimator.pauli_prob(decomp, circuit, chain)
        metrics[f"p_{label}"] = est.value
        metrics[f"err_{label}"] = abs(est.value - truth.value)
        for j, (step, step_truth) in enumerate(zip(est.step_values, truth.step_values), 1):
            metrics[f"err{j}_{label}"] = abs(step - step_truth)
    metrics["wall_ns"] = time.perf_counter_ns() - t0
    return ExperimentRecord(
        experiment="worst-case", mode="both", phi=phi, t=t, delta=delta,
        k=d_corr.k, f_t=d_corr.f_t, trial=trial_idx, master_seed=master_seed,
        metrics=metrics,
    )


def run_worst_case(
    ts: Sequence[int],
    deltas: Sequence[float],
    n_cliffords: int,
    trials: int,
    seed: int,
    phi: float = math.pi / 4,
    workers: int = 1,
    out: Optional[str] = None,
) -> list:
    cells = [(phi, t, d, n_cliffords) for t in ts for d in deltas]
    records = _run_grid(_worst_case_trial, cells, trials, seed, workers)
    if out:
        write_csv(out, HEAD_COLUMNS + WORST_CASE_METRICS,
                  (r.row(WORST_CASE_METRICS) for r in records))
    return records


def summarize_worst_case(records: Sequence[ExperimentRecord]) -> dict:
    """Max and quantile errors per cell (the worst-case envelope proxy)."""
    cells = {}
    for rec in records:
        cells.setdefault((rec.t, rec.delta), []).append(rec)
    out = {}
    for key, recs in sorted(cells.items()):
        entry = {"trials": len(recs)}
        for label in ("iid", "corr"):
            errs = np.array([r.metrics[f"err_{label}"] for r in recs])
            entry[f"max_err_{label}"] = float(errs.max())
            entry[f"q90_err_{label}"] = float(np.quantile(errs, 0.9))
            entry[f"mean_err_{label}"] = float(errs.mean())
        out[key] = entry
    return out


# ---------------------------------------------------------------------------
# experiment: mask generation timing
# ---------------------------------------------------------------------------

MASK_TIMING_METRICS = ("count", "total_seconds", "seconds_per_mask", "wall_ns")


def run_mask_timing(
    ts: Sequence[int],
    repeats: int = 3,
    out: Optional[str] = None,
) -> list:
    records = []
    for t in ts:
        best = math.inf
        for _ in range(repeats):
            t0 = time.perf_counter()
            count = len(masks.generate_masks_pow2(t))
            best = min(best, time.perf_counter() - t0)
        records.append(ExperimentRecord(
            experiment="mask-timing", mode="pow2", phi=0.0, t=t, delta=0.0,
            k=count, f_t=count, trial=0, master_seed=0,
            metrics={"count": count, "total_seconds": best,
                     "seconds_per_mask": best / count, "wall_ns": int(best * 1e9)},
        ))
    if out:
        write_csv(out, HEAD_COLUMNS + MASK_TIMING_METRICS,
                  (r.row(MASK_TIMING_METRICS) for r in records))
    return records


def timing_exponent(records: Sequence[ExperimentRecord]) -> float:
    """Least-squares slope of log(per-mask seconds) against log t."""
    if len({r.t for r in records}) < 2:
        raise ValueError("a timing exponent needs at least two distinct t")
    ts = np.array([r.t for r in records], dtype=float)
    per = np.array([r.metrics["seconds_per_mask"] for r in records], dtype=float)
    return float(np.polyfit(np.log(ts), np.log(per), 1)[0])


# ---------------------------------------------------------------------------
# experiment: cost map
# ---------------------------------------------------------------------------

COST_MAP_COLUMNS = tuple(f.name for f in fields(costmodel.CostPoint))


def run_cost_map(
    ts: Sequence[int],
    deltas: Sequence[float],
    phi: float = math.pi / 4,
    out: Optional[str] = None,
    chi_table: Optional[dict] = None,
) -> list:
    for t in ts:
        costmodel.check_t(t)
    model1 = magic.magic_model(phi, 1)
    rows = []
    for t in ts:
        for delta in deltas:
            gamma = None
            if t >= 2 and t % 2 == 0:
                model = magic.magic_model(phi, t)
                gamma = theorem2_plan(model, delta, default_masks(t, 2 * t - 1)).gamma
            rows.append(costmodel.cost_point(t, delta, model1.xi_t, gamma, chi_table))
    if out:
        write_csv(out, COST_MAP_COLUMNS,
                  ([_fmt(getattr(p, name)) for name in COST_MAP_COLUMNS] for p in rows))
    return rows
