"""Span tracing of calls into the package's layers, from outside the package.

``Tracer.installed()`` replaces each traced function at the name its
caller looks it up by (several are bound with ``from ... import``, so
``estimator.apply_clifford`` rather than ``stabilizer.apply_clifford``)
and restores every original on exit.  Spans (name, start, end, parent,
op id) are kept in memory and written out at the end of the run; a
span's self time is its duration minus the time its child spans cover.

Every other public function of every layer gets a wrapper that only
counts the exceptions leaving it, so each layer reports its errors.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import time
from collections import defaultdict

from stabsparse import bench, cli, costmodel, dense, estimator, magic, masks
from stabsparse import stabilizer as sb

LAYERS = {
    "stabilizer": sb,
    "masks": masks,
    "magic": magic,
    "estimator": estimator,
    "costmodel": costmodel,
    "dense": dense,
    "bench": bench,
    "cli": cli,
}

OP_SPAN = "op"


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_sqnorm_terms(c, args, kwargs, result):
    k = len(_arg(args, kwargs, 0, "terms"))
    c["calls"] += 1
    c["pairs"] += k * (k - 1) // 2


def _count_apply_clifford(c, args, kwargs, result):
    c["calls"] += 1
    c["gates"] += len(_arg(args, kwargs, 1, "op").word)


def _count_project_pauli(c, args, kwargs, result):
    c["calls"] += 1
    c["annihilated"] += result is None


def _count_calls(c, args, kwargs, result):
    c["calls"] += 1


def _count_fastnorm(c, args, kwargs, result):
    m = _arg(args, kwargs, 1, "m_samples")
    c["samples"] += m
    c["term_evals"] += m * _arg(args, kwargs, 0, "decomp").k


def _count_exact_sqnorm(c, args, kwargs, result):
    k = _arg(args, kwargs, 0, "decomp").k
    c["calls"] += 1
    c["gram_entries"] += k * k


def _count_terms(c, args, kwargs, result):
    c["terms"] += result.k


#: (owner, attribute, span name, layer, counter): each traced function at
#: the name its caller looks up.
TRACED = (
    (estimator, "pauli_prob", "estimator.pauli_prob", "estimator", None),
    (estimator, "sqnorm_terms", "estimator.sqnorm_terms", "estimator", _count_sqnorm_terms),
    (estimator, "exact_sqnorm", "estimator.exact_sqnorm", "estimator", _count_exact_sqnorm),
    (estimator, "fastnorm", "estimator.fastnorm", "estimator", _count_fastnorm),
    (estimator, "apply_clifford", "stabilizer.apply_clifford", "stabilizer", _count_apply_clifford),
    (estimator, "project_pauli", "stabilizer.project_pauli", "stabilizer", _count_project_pauli),
    (estimator, "random_clifford", "stabilizer.random_clifford", "stabilizer", _count_calls),
    (estimator, "to_states", "magic.to_states", "magic", None),
    (magic, "product_state_from_bits", "stabilizer.product_state_from_bits", "stabilizer", _count_calls),
    (sb.StabilizerState, "amplitude", "stabilizer.amplitude", "stabilizer", _count_calls),
    (magic, "sample_iid", "magic.sample_iid", "magic", _count_terms),
    (magic, "sample_correlated", "magic.sample_correlated", "magic", _count_terms),
    (bench, "theorem1_plan", "bench.theorem1_plan", "bench", None),
    (bench, "theorem2_plan", "bench.theorem2_plan", "bench", None),
    (bench, "default_masks", "bench.default_masks", "bench", None),
    (dense, "apply_clifford_dense", "dense.apply_clifford_dense", "dense", None),
    (dense, "projector_factor", "dense.projector_factor", "dense", None),
)

#: Per-layer metrics of the traced run: (name, unit, better, what it
#: should move).  Counts and self times are per traced op, except the
#: bench.* set-up spans (per set-up) and the error counts (per run).
PER_LAYER = (
    ("estimator.sqnorm_terms.calls", "count/op", "lower", "outcome_chain op_p50_s, ops_per_s; absent elsewhere"),
    ("estimator.sqnorm_terms.pairs", "count/op", "lower", "outcome_chain op_p50_s, ops_per_s; absent elsewhere"),
    ("estimator.sqnorm_terms.self_s", "s/op", "lower", "outcome_chain op_p50_s, ops_per_s; absent elsewhere"),
    ("stabilizer.apply_clifford.calls", "count/op", "lower", "outcome_chain, fastnorm_ch less; not sparsify_norm"),
    ("stabilizer.apply_clifford.gates", "count/op", "lower", "outcome_chain, fastnorm_ch less; not sparsify_norm"),
    ("stabilizer.apply_clifford.self_s", "s/op", "lower", "outcome_chain, fastnorm_ch less; not sparsify_norm"),
    ("stabilizer.project_pauli.calls", "count/op", "lower", "outcome_chain ops_per_s; base of survive_ratio"),
    ("stabilizer.project_pauli.annihilated", "count/op", "higher", "outcome_chain ops_per_s"),
    ("stabilizer.project_pauli.survive_ratio", "ratio", "lower", "outcome_chain ops_per_s"),
    ("stabilizer.project_pauli.self_s", "s/op", "lower", "outcome_chain ops_per_s"),
    ("stabilizer.amplitude.calls", "count/op", "lower", "outcome_chain and fastnorm_ch ops_per_s"),
    ("stabilizer.amplitude.self_s", "s/op", "lower", "outcome_chain and fastnorm_ch ops_per_s"),
    ("stabilizer.random_clifford.calls", "count/op", "lower", "fastnorm_ch ops_per_s only"),
    ("stabilizer.random_clifford.self_s", "s/op", "lower", "fastnorm_ch ops_per_s only"),
    ("estimator.fastnorm.samples", "count/op", "lower", "fastnorm_ch ops_per_s only"),
    ("estimator.fastnorm.term_evals", "count/op", "lower", "fastnorm_ch ops_per_s only"),
    ("estimator.fastnorm.self_s", "s/op", "lower", "fastnorm_ch ops_per_s only"),
    ("estimator.exact_sqnorm.calls", "count/op", "lower", "sparsify_norm ops_per_s, peak_rss_mb only"),
    ("estimator.exact_sqnorm.gram_entries", "count/op", "lower", "sparsify_norm ops_per_s, peak_rss_mb only"),
    ("estimator.exact_sqnorm.self_s", "s/op", "lower", "sparsify_norm ops_per_s, peak_rss_mb only"),
    ("magic.sample_iid.terms", "count/op", "lower", "sparsify_norm ops_per_s (under 5% of any op)"),
    ("magic.sample_iid.self_s", "s/op", "lower", "sparsify_norm ops_per_s (under 5% of any op)"),
    ("magic.sample_correlated.terms", "count/op", "lower", "sparsify_norm ops_per_s (under 5% of any op)"),
    ("magic.sample_correlated.self_s", "s/op", "lower", "sparsify_norm ops_per_s (under 5% of any op)"),
    ("magic.to_states.self_s", "s/op", "lower", "outcome_chain ops_per_s"),
    ("stabilizer.product_state_from_bits.calls", "count/op", "lower", "outcome_chain ops_per_s"),
    ("stabilizer.product_state_from_bits.self_s", "s/op", "lower", "outcome_chain ops_per_s"),
    ("estimator.pauli_prob.self_s", "s/op", "lower", "outcome_chain ops_per_s"),
    ("bench.theorem1_plan.self_s", "s/setup", "lower", "setup_s (masks and costmodel layers)"),
    ("bench.theorem2_plan.self_s", "s/setup", "lower", "setup_s (masks and costmodel layers)"),
    ("bench.default_masks.self_s", "s/setup", "lower", "setup_s (masks and costmodel layers)"),
    ("dense.apply_clifford_dense.self_s", "s/op", "lower", "none: correctness checks, outside the timed op"),
    ("dense.projector_factor.self_s", "s/op", "lower", "none: correctness checks, outside the timed op"),
) + tuple(
    (f"{layer}.errors", "count", "lower", "failed ops on every workload")
    for layer in LAYERS
) + (
    ("trace.overhead_frac", "ratio", "lower", "none: traced against untraced ops_per_s"),
    ("trace.layer_self_frac", "ratio", "higher", "none: share of op time inside layer spans"),
)

_PER_SETUP = "bench."


class Tracer:
    """In-memory spans and counters for one traced run."""

    def __init__(self):
        self.names: list = []
        self.spans: list = []  # [name index, start ns, end ns, parent index, op id]
        self.counts = defaultdict(lambda: defaultdict(int))
        self.errors = defaultdict(int)
        self.op = None
        self._stack: list = []
        self._seen_errors: list = []

    # -- spans -----------------------------------------------------------------

    def _name(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _open(self, name_idx: int) -> list:
        rec = [name_idx, time.perf_counter_ns(), 0, self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def op_span(self, op_id: int):
        """The root span of one op; layer spans inside it carry its id."""
        self.op = op_id
        rec = self._open(self._name(OP_SPAN))
        try:
            yield
        finally:
            self._close(rec)
            self.op = None

    def _error(self, layer: str, exc: BaseException) -> None:
        if not any(e is exc and seen == layer for e, seen in self._seen_errors):
            self._seen_errors.append((exc, layer))
            self.errors[layer] += 1

    def _timed(self, fn, name: str, layer: str, counter):
        idx = self._name(name)
        counts = self.counts[name]

        def traced(*args, **kwargs):
            rec = self._open(idx)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._error(layer, exc)
                raise
            finally:
                self._close(rec)
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _counted(self, fn, layer: str):
        def counted(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                self._error(layer, exc)
                raise

        counted.__wrapped__ = fn
        return counted

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced and error-counted function; restore on exit."""
        saved = []
        try:
            traced = {(id(owner), attr) for owner, attr, *_ in TRACED}
            for layer, module in LAYERS.items():
                for attr, fn in vars(module).copy().items():
                    if (
                        inspect.isfunction(fn)
                        and fn.__module__ == module.__name__
                        and not attr.startswith("_")
                        and (id(module), attr) not in traced
                    ):
                        saved.append((module, attr, fn))
                        setattr(module, attr, self._counted(fn, layer))
            for owner, attr, name, layer, counter in TRACED:
                fn = vars(owner)[attr]
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._timed(fn, name, layer, counter))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    # -- results ---------------------------------------------------------------

    def self_ns(self) -> list:
        child = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def metrics(self, n_ops: int, overhead_frac: float) -> dict:
        """Every PER_LAYER metric as {name: (value, unit)}."""
        self_ns = self.self_ns()
        op_idx = self._name(OP_SPAN)
        by_name = defaultdict(int)
        op_total = inside = 0
        for (name_idx, start, end, parent, op), own in zip(self.spans, self_ns):
            by_name[self.names[name_idx]] += own
            if name_idx == op_idx:
                op_total += end - start
            elif op is not None:
                inside += own
        values = {}
        for name, counts in self.counts.items():
            for key, value in counts.items():
                values[f"{name}.{key}"] = value / n_ops
        for name, ns in by_name.items():
            per = 1 if name.startswith(_PER_SETUP) else n_ops
            values[f"{name}.self_s"] = ns / 1e9 / per
        for layer in LAYERS:
            values[f"{layer}.errors"] = self.errors[layer]
        calls = self.counts["stabilizer.project_pauli"]["calls"]
        annihilated = self.counts["stabilizer.project_pauli"]["annihilated"]
        values["stabilizer.project_pauli.survive_ratio"] = (
            (calls - annihilated) / calls if calls else 0.0
        )
        values["trace.overhead_frac"] = overhead_frac
        values["trace.layer_self_frac"] = inside / op_total if op_total else 0.0
        return {name: (float(values.get(name, 0.0)), unit) for name, unit, _, _ in PER_LAYER}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh, separators=(",", ":"))
