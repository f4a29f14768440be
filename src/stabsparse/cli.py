"""Command-line front end.

Subcommands: gen-masks, sparsify, estimate, cost and bench (with the
experiment runners sparsify-stats, worst-case and mask-timing); every
draw goes through ``bench.sparsify``.
Exit codes: 0 on success; 2 for an argparse usage error (a missing or
unknown option, or a value of the wrong type); 3 for any value rejected
after parsing (a bad angle, delta, Pauli chain or mask size, a t outside
its command's range, checked before a range is expanded, an empty range, a
step count below 1 or too large for memory, a bench trial, thread or gate
count out of range, a term count too large to draw, a decomposition with a
t, k or f_t that is not an int, no terms, a negative f_t, an unknown mode,
a correlated mode whose k is not a multiple of f_t + 1 or a t too large to
pack, a prefactor that is not finite and positive or a phase that is not a
finite unit phase, or an input or output path that cannot be read, written
or parsed), reported as one ``error:`` line.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import bench, costmodel, estimator, magic, masks
from . import stabilizer as sb


def parse_phi(text: str) -> float:
    """Angles as plain floats or 'pi', 'pi/4', '3pi/8' style fractions."""
    text = text.strip().lower().replace(" ", "")
    if "pi" in text:
        num, _, den = text.partition("pi")
        scale = float(num) if num not in ("", "+", "-") else (1.0 if num != "-" else -1.0)
        if den.startswith("/") and float(den[1:]):
            return scale * math.pi / float(den[1:])
        if den:
            raise ValueError(f"cannot parse angle {text!r}")
        return scale * math.pi
    return float(text)


def parse_int_range(text: str, check=lambda end: None) -> list:
    """'4' or '4,8,16' or '2..6' (inclusive, and not empty); ``check`` vets
    both ends of every range before the range is expanded."""
    out = []
    for part in text.split(","):
        lo, hi = (int(v) for v in part.split("..")) if ".." in part else (int(part),) * 2
        if hi < lo:
            raise ValueError(f"range {part!r} is empty: it ends below its start")
        check(lo)
        check(hi)
        out.extend(range(lo, hi + 1))
    return out


def parse_float_list(text: str, steps: int = 13) -> list:
    """'0.2' or '0.24,0.2,0.15' or geometric '0.3..0.001' (steps points)."""
    if steps < 1:
        raise ValueError(f"delta step count must be at least 1, got {steps}")
    out = []
    for part in text.split(","):
        if ".." in part:
            hi, lo = (float(v) for v in part.split(".."))
            if not (0.0 < hi <= 1.0 and 0.0 < lo <= 1.0):
                raise ValueError(f"delta range {part!r} must lie in (0, 1]")
            try:
                out.extend(np.geomspace(hi, lo, steps).tolist())
            except MemoryError:  # numpy refuses the array's size
                raise ValueError(f"delta step count {steps} does not fit in memory") from None
        else:
            out.append(float(part))
    return out


def parse_pauli_chain(text: str, t: int) -> list:
    """'ZIII,+;XXII,-' into [(PauliOperator, outcome), ...]."""
    chain = []
    for item in text.split(";"):
        body, _, sign = item.partition(",")
        sign = (sign.strip() or "+").replace("−", "-")
        if sign not in ("+", "-"):
            raise ValueError(f"outcome must be '+' or '-', got {sign!r}")
        p = sb.PauliOperator.from_string(body.strip())
        if p.n != t:
            raise ValueError(f"Pauli {body!r} has {p.n} qubits, expected {t}")
        chain.append((p, 1 if sign == "+" else -1))
    return chain


def cmd_gen_masks(args) -> int:
    mask_set = bench.default_masks(args.t, 2 * args.t - 1)
    report = masks.verify_mask_set(mask_set)
    if not report.ok:
        raise ValueError("generated mask set failed verification")
    if args.out:
        mask_set.save(args.out)
    print(
        f"{len(mask_set)} masks, block length {mask_set.block_length}, "
        f"strategy {mask_set.strategy}, min weight {report.min_weight}, "
        f"min pairwise distance {report.min_pairwise_distance}"
    )
    return 0


def cmd_sparsify(args) -> int:
    model = magic.magic_model(parse_phi(args.phi), args.t)
    rng = np.random.default_rng(args.seed)
    decomp, _ = bench.sparsify(model, args.delta, args.mode, rng, args.k)
    if args.out:
        decomp.save(args.out)
    print(
        f"mode {decomp.mode}: k = {decomp.k}, f_t = {decomp.f_t}, "
        f"prefactor = {decomp.prefactor:.6g}, xi_t = {model.xi_t:.6g}"
    )
    return 0


def cmd_estimate(args) -> int:
    decomp = magic.SparseDecomposition.load(args.decomp)
    circuit = None
    if args.circuit:
        circuit = sb.load_circuit(args.circuit, decomp.t)
    chain = parse_pauli_chain(args.paulis, decomp.t)
    rng = np.random.default_rng(args.seed)
    est = estimator.pauli_prob(
        decomp,
        circuit,
        chain,
        method=estimator.FASTNORM if args.method == "fastnorm" else estimator.EXACT,
        fastnorm_samples=args.fastnorm_samples,
        rng=rng,
    )
    payload = {
        "probability": est.value,
        "raw_probability": est.raw_value,
        "per_step_conditionals": list(est.step_values),
        "clamped": est.clamped,
        "norm_method": est.norm_method,
        "paulis": [list(p) for p in est.paulis],
    }
    if args.json:
        print(json.dumps(payload, indent=1))
    else:
        print(f"probability = {est.value!r} (method {est.norm_method})")
    return 0


def cmd_cost(args) -> int:
    ts = parse_int_range(args.t, costmodel.check_t)
    deltas = parse_float_list(args.delta, args.delta_steps)
    chi_table = costmodel.CHI_TABLE if args.chi_table else None
    bench.run_cost_map(ts, deltas, parse_phi(args.phi), out=args.out, chi_table=chi_table)
    xi_1 = magic.magic_model(parse_phi(args.phi), 1).xi_t
    print(
        f"{len(ts) * len(deltas)} grid cells written to {args.out or '(stdout skipped)'}; "
        f"exact-vs-strong threshold crossover at t = "
        f"{costmodel.exact_vs_strong_crossover(xi_1)}"
    )
    return 0


def cmd_bench(args) -> int:
    if args.experiment == "mask-timing":
        records = bench.run_mask_timing(parse_int_range(args.t, masks.check_block_length),
                                        out=args.out)
        if len({r.t for r in records}) >= 2:
            print(f"fitted per-mask exponent: {bench.timing_exponent(records):.3f}")
        return 0
    if args.experiment == "sparsify-stats":
        summary = bench.summarize_sparsify(bench.run_sparsify_stats(
            parse_phi(args.phi), parse_int_range(args.t, estimator.check_t),
            parse_float_list(args.delta), args.trials, args.seed,
            workers=args.threads, out=args.out,
        ))
    else:
        summary = bench.summarize_worst_case(bench.run_worst_case(
            parse_int_range(args.t, estimator.check_t), parse_float_list(args.delta),
            args.cliffords, args.trials, args.seed,
            phi=parse_phi(args.phi), workers=args.threads, out=args.out,
        ))
    for key, row in summary.items():
        print(key, row)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stabsparse",
        description="sparse stabilizer decompositions of magic states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-masks", help="generate an XOR mask set")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen_masks)

    p = sub.add_parser("sparsify", help="sample a sparse decomposition")
    p.add_argument("--phi", default="pi/4")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--mode", choices=["iid", "theorem1", "theorem2"], default="iid")
    p.add_argument("--k", type=int, default=None, help="override the term count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sparsify)

    p = sub.add_parser("estimate", help="estimate Pauli outcome probabilities")
    p.add_argument("--decomp", required=True)
    p.add_argument("--circuit", default=None)
    p.add_argument("--paulis", required=True, help='e.g. "ZIII,+;XXII,-"')
    p.add_argument("--method", choices=["exact", "fastnorm"], default="exact")
    p.add_argument("--fastnorm-samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("cost", help="emit the sampling-cost map",
                       epilog="CSV columns: " + ", ".join(bench.COST_MAP_COLUMNS) + ".")
    p.add_argument("--phi", default="pi/4")
    p.add_argument("--t", default="1..200")
    p.add_argument("--delta", default="0.3..0.001")
    p.add_argument("--delta-steps", type=int, default=13)
    p.add_argument("--chi-table", action="store_true",
                   help="use published chi overrides at t = 4, 8, 16")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_cost)

    p = sub.add_parser(
        "bench",
        help="run a benchmark experiment",
        epilog=(
            "CSV columns: every table starts with "
            + ", ".join(bench.HEAD_COLUMNS)
            + "; sparsify-stats adds " + ", ".join(bench.SPARSIFY_METRICS)
            + "; worst-case adds " + ", ".join(bench.WORST_CASE_METRICS)
            + "; mask-timing adds " + ", ".join(bench.MASK_TIMING_METRICS)
            + ". Wall-clock columns vary between runs; all other columns are "
            "byte-identical for a fixed --seed at any --threads."
        ),
    )
    p.add_argument("experiment",
                   choices=["sparsify-stats", "worst-case", "mask-timing"])
    p.add_argument("--phi", default="pi/4")
    p.add_argument("--t", default="8")
    p.add_argument("--delta", default="0.4")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--cliffords", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
