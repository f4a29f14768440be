import dataclasses
import hashlib
import json
import math
import os
import pathlib
import resource
import subprocess
import sys

import numpy as np
import pytest

from stabsparse import bench, cli, costmodel, estimator, magic, masks

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_capped(argv, cwd):
    """``python -m stabsparse.cli`` with ``argv`` under a 1 GB address-space
    cap, so that work sized to fill the host fails fast instead."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run([sys.executable, "-m", "stabsparse.cli", *argv], cwd=cwd, env=env,
                          preexec_fn=cap, capture_output=True, text=True, timeout=60)


class TestPlans:
    def test_theorem1_plan_t8(self):
        model = magic.magic_model(math.pi / 4, 8)
        plan = bench.theorem1_plan(model, 0.4, masks.generate_masks_pow2(8))
        assert plan.k_iid == 16
        assert plan.k_correlated % (plan.f_t + 1) == 0
        assert plan.k_iid - plan.k_correlated >= math.ceil(plan.f_t / 2)

    @pytest.mark.parametrize("t, delta", [(246, 0.3), (254, 0.1)])
    def test_theorem1_plan_rounds_groups_in_integers(self, t, delta):
        # past 2^53 terms a float ceiling of k / (f_t + 1) fell below k_theorem1
        model = magic.magic_model(math.pi / 4, t)
        plan = bench.theorem1_plan(model, delta, bench.default_masks(t, 2 * t - 1))
        assert plan.k_correlated > 2**53
        assert plan.k_correlated % (plan.f_t + 1) == 0
        assert plan.k_correlated >= costmodel.k_theorem1(model.xi_t, delta, plan.gamma)

    def test_theorem2_plan_t8(self):
        model = magic.magic_model(math.pi / 4, 8)
        plan = bench.theorem2_plan(model, 0.2, masks.generate_masks_pow2(8))
        assert plan.f_t == 7
        assert plan.k_correlated == costmodel.k_distance_law(model.xi_t, 0.2, plan.gamma, 7) == 8

    @pytest.mark.parametrize("t", [16, 24, 32])
    @pytest.mark.parametrize("delta", [0.3, 0.2])
    def test_theorem2_plan_meets_delta(self, t, delta):
        # the mean of 1 - |<Psi|psi>|^2 / ||psi||^2 over draws is a lower bound
        # on the trace distance; the cubic's k missed delta from t = 24 on
        model = magic.magic_model(math.pi / 4, t)
        plan = bench.theorem2_plan(model, delta, bench.default_masks(t, 2 * t - 1))
        rng = np.random.default_rng(t)
        fidelity = []
        for _ in range(100):
            d = magic.sample_correlated(model, plan.mask_set, plan.f_t, plan.k_correlated,
                                        rng, mode=magic.THEOREM2)
            fidelity.append(abs(estimator.target_overlap(d, model)) ** 2
                            / estimator.exact_sqnorm(d).value)
        assert 1 - np.mean(fidelity) <= delta

    def test_default_masks_odd_t_rejected(self):
        with pytest.raises(ValueError):
            bench.default_masks(7, 13)
        for t in range(2, 65, 2):
            for f in (0, 1, t, 2 * t - 1, 4 * t, 1000):
                assert bench.default_masks(t, f) == masks.generate_masks_even(t)


class TestSparsifyStats:
    def test_zero_trials_rejected(self, tmp_path):
        out = tmp_path / "stats.csv"
        with pytest.raises(ValueError, match="at least 1"):
            bench.run_sparsify_stats(math.pi / 4, [4], [0.4], 0, seed=1, out=str(out))
        assert not out.exists()

    def test_correlated_uses_fewer_terms(self):
        records = bench.run_sparsify_stats(math.pi / 4, [8], [0.4], 4, seed=2)
        by_mode = {}
        for rec in records:
            by_mode.setdefault(rec.mode, rec)
        assert by_mode["theorem1"].k < by_mode["iid"].k

    def test_summary_shape(self):
        records = bench.run_sparsify_stats(math.pi / 4, [4], [0.4, 0.6], 6, seed=3)
        summary = bench.summarize_sparsify(records)
        assert set(summary) == {(4, 0.4, "iid"), (4, 0.4, "theorem1"),
                                (4, 0.6, "iid"), (4, 0.6, "theorem1")}
        for row in summary.values():
            assert row["trials"] == 6
            assert row["mean_sqnorm"] > 0

    def test_error_filled_above_dense_cap(self):
        records = bench.run_sparsify_stats(math.pi / 4, [14], [0.6], 2, seed=4)
        for rec in records:
            assert rec.metrics["sqnorm"] > 0
            assert rec.metrics["err2"] >= 0
            assert rec.metrics["converged"] == int(rec.metrics["err2"] <= 0.36)

    def test_error_matches_dense_oracle(self):
        records = bench.run_sparsify_stats(math.pi / 4, [4, 8], [0.3], 3, seed=9)
        for rec in records:
            rng = bench.trial_rng(9, records.index(rec) // 3, rec.trial)
            model = magic.magic_model(math.pi / 4, rec.t)
            if rec.mode == "iid":
                decomp = magic.sample_iid(model, rec.k, rng)
            else:
                decomp = magic.sample_correlated(
                    model, bench.default_masks(rec.t, 0), rec.f_t, rec.k, rng)
            assert decomp.k == rec.k
            err = estimator.approx_error(decomp, model)
            assert rec.metrics["err2"] == pytest.approx(err * err, abs=1e-12)

    def test_iid_mean_sqnorm_envelope(self):
        # E<psi|psi> = 1 + (xi - 1)/k sits below the 1 + xi/k envelope;
        # one-sided check with a normal margin
        records = bench.run_sparsify_stats(math.pi / 4, [8], [0.4], 200, seed=8)
        iid = [r for r in records if r.mode == "iid"]
        norms = np.array([r.metrics["sqnorm"] for r in iid])
        xi = magic.magic_model(math.pi / 4, 8).xi_t
        envelope = 1 + xi / iid[0].k
        sem = norms.std(ddof=1) / math.sqrt(len(norms))
        assert norms.mean() <= envelope + 1.645 * sem
        assert norms.mean() == pytest.approx(1 + (xi - 1) / iid[0].k, abs=5 * sem)


class TestWorstCase:
    def test_record_fields(self):
        records = bench.run_worst_case([4], [0.24], 50, 3, seed=5)
        assert len(records) == 3
        for rec in records:
            assert 0.0 <= rec.metrics["p_iid"] <= 1.0
            assert 0.0 <= rec.metrics["p_corr"] <= 1.0
            assert rec.metrics["p_true"] is not None
            assert rec.metrics["err_iid"] >= 0.0

    def test_truth_filled_above_dense_cap(self):
        (rec,) = bench.run_worst_case([12], [0.3], 10, 1, seed=6)
        assert 0.0 <= rec.metrics["p_true"] <= 1.0
        for name in bench.WORST_CASE_METRICS:
            assert rec.metrics[name] is not None

    def test_runs_beyond_desk_scale(self):
        (rec,) = bench.run_worst_case([24], [0.3], 10, 1, seed=6)
        assert 0.0 <= rec.metrics["p_true"] <= 1.0

    def test_summarizer(self):
        records = bench.run_worst_case([4], [0.24], 30, 4, seed=7)
        summary = bench.summarize_worst_case(records)
        entry = summary[(4, 0.24)]
        assert entry["max_err_iid"] >= entry["q90_err_iid"] >= 0


class TestDeterminism:
    def test_workers_do_not_change_metrics(self, tmp_path):
        outs = []
        for workers in (1, 2):
            out = tmp_path / f"stats_{workers}.csv"
            bench.run_sparsify_stats(
                math.pi / 4, [6], [0.5], 6, seed=11, workers=workers, out=str(out)
            )
            outs.append(bench.read_metric_columns(str(out)))
        assert outs[0] == outs[1]

    def test_reruns_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        bench.run_worst_case([4], [0.3], 20, 3, seed=13, out=str(a))
        bench.run_worst_case([4], [0.3], 20, 3, seed=13, out=str(b))
        assert bench.read_metric_columns(str(a)) == bench.read_metric_columns(str(b))

    def test_different_seeds_differ(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        bench.run_sparsify_stats(math.pi / 4, [6], [0.5], 3, seed=1, out=str(a))
        bench.run_sparsify_stats(math.pi / 4, [6], [0.5], 3, seed=2, out=str(b))
        assert bench.read_metric_columns(str(a)) != bench.read_metric_columns(str(b))


class TestMaskTimingAndCostMap:
    def test_timing_rows(self, tmp_path):
        out = tmp_path / "timing.csv"
        records = bench.run_mask_timing([32, 64, 128], out=str(out))
        assert [r.t for r in records] == [32, 64, 128]
        assert all(r.metrics["seconds_per_mask"] > 0 for r in records)
        assert isinstance(bench.timing_exponent(records), float)

    def test_timing_exponent_needs_two_block_lengths(self):
        records = bench.run_mask_timing([4, 4], repeats=1)
        with pytest.raises(ValueError):
            bench.timing_exponent(records)

    def test_timing_exponent_subquadratic(self):
        # fitted per-mask growth over 2^5..2^14 stays comfortably below
        # quadratic-in-t behavior
        records = bench.run_mask_timing([2**e for e in range(5, 15)], repeats=2)
        assert bench.timing_exponent(records) <= 1.3

    def test_cost_map_csv(self, tmp_path):
        out = tmp_path / "map.csv"
        rows = bench.run_cost_map([4, 8], [0.2, 0.1], out=str(out))
        assert len(rows) == 4
        lines = out.read_text().strip().splitlines()
        assert lines[0].split(",")[:2] == ["t", "delta"]
        assert len(lines) == 5

    def test_cost_map_header_is_cost_point_fields(self, tmp_path):
        out = tmp_path / "map.csv"
        bench.run_cost_map([4], [0.2], out=str(out))
        header = out.read_text().splitlines()[0].split(",")
        assert header == [f.name for f in dataclasses.fields(costmodel.CostPoint)]

    def test_cost_map_empty_grid(self, tmp_path):
        out = tmp_path / "empty.csv"
        bench.run_cost_map([], [], out=str(out))
        assert out.read_text().strip().splitlines() == [",".join(bench.COST_MAP_COLUMNS)]

    def test_cost_map_68x_asymptotic_law(self):
        # the asymptotic-law comparison is ~68x everywhere; the t at
        # which xi_1^t equals that ratio is ~27
        rows = bench.run_cost_map([27], [1e-4])
        assert rows[0].ratio_sota_over_asymptotic == pytest.approx(68.3, abs=1.0)
        assert rows[0].equivalent_magic_gates_removed() == pytest.approx(27, abs=1.0)
        # at fixed small t and delta -> 0 the supplement count round(10
        # delta xi) collapses to zero and the finite-t column shows no gain
        assert rows[0].f_t == 0


class TestFrontEndPin:
    # sha256 over what the front ends write for fixed seeds: sparsify JSON in
    # every mode (with and without --k), the metric columns of both bench
    # experiments, and the default cost map.  Any change to a plan, a draw or
    # a table writer moves it.
    PIN = "7db6744aea35fae5b71875f91f8b90e72489754b37f69dc02471f3dde9f86be6"

    def test_outputs_pinned(self, tmp_path, capsys):
        digest = hashlib.sha256()
        runs = [["--t", str(t), "--seed", str(seed)] for t in (4, 8, 16) for seed in (1, 2)]
        runs.append(["--t", "8", "--seed", "1", "--k", "10"])
        for mode in ("iid", "theorem1", "theorem2"):
            for flags in runs:
                out = tmp_path / "d.json"
                argv = ["sparsify", "--delta", "0.3", "--mode", mode, "--out", str(out)]
                assert cli.main(argv + flags) == 0
                digest.update(out.read_bytes())
        for argv in (
            ["bench", "sparsify-stats", "--t", "4,8,16", "--delta", "0.4,0.3",
             "--trials", "20", "--seed", "3"],
            ["bench", "worst-case", "--t", "4,8", "--delta", "0.4", "--trials", "10",
             "--cliffords", "50", "--seed", "3"],
        ):
            out = tmp_path / "b.csv"
            assert cli.main(argv + ["--out", str(out)]) == 0
            digest.update(repr(bench.read_metric_columns(str(out))).encode())
        out = tmp_path / "cost.csv"
        assert cli.main(["cost", "--out", str(out)]) == 0
        digest.update(out.read_bytes())
        capsys.readouterr()
        assert digest.hexdigest() == self.PIN


class TestCliParsing:
    def test_parse_phi(self):
        assert cli.parse_phi("pi/4") == pytest.approx(math.pi / 4)
        assert cli.parse_phi("pi") == pytest.approx(math.pi)
        assert cli.parse_phi("0.5") == 0.5
        with pytest.raises(ValueError):
            cli.parse_phi("pix")

    def test_parse_ranges(self):
        assert cli.parse_int_range("2..5") == [2, 3, 4, 5]
        assert cli.parse_int_range("4,8,16") == [4, 8, 16]
        assert cli.parse_float_list("0.24,0.2") == [0.24, 0.2]
        geo = cli.parse_float_list("0.3..0.003", steps=3)
        assert geo[0] == pytest.approx(0.3)
        assert geo[-1] == pytest.approx(0.003)

    def test_parse_pauli_chain(self):
        chain = cli.parse_pauli_chain("ZI,+;XX,-", 2)
        assert chain[0][1] == 1 and chain[1][1] == -1
        with pytest.raises(ValueError):
            cli.parse_pauli_chain("ZII,+", 2)


class TestCliCommands:
    def test_gen_masks(self, tmp_path, capsys):
        out = tmp_path / "masks.json"
        code = cli.main(["gen-masks", "--t", "16", "--out", str(out)])
        assert code == 0
        loaded = masks.MaskSet.load(str(out))
        assert len(loaded) == 31
        assert "31 masks" in capsys.readouterr().out

    def test_gen_masks_file_is_json_dump(self, tmp_path):
        # the file is written one mask at a time, with json.dump's bytes
        out = tmp_path / "masks.json"
        assert cli.main(["gen-masks", "--t", "1024", "--out", str(out)]) == 0
        with open(tmp_path / "want.json", "w") as fh:
            json.dump(bench.default_masks(1024, 2047).to_json(), fh, indent=1)
        assert out.read_bytes() == (tmp_path / "want.json").read_bytes()

    def test_sparsify_estimate_pipeline(self, tmp_path, capsys):
        decomp_path = tmp_path / "d.json"
        code = cli.main([
            "sparsify", "--phi", "pi/4", "--t", "4", "--delta", "0.3",
            "--mode", "theorem1", "--seed", "9", "--out", str(decomp_path),
        ])
        assert code == 0
        capsys.readouterr()
        code = cli.main([
            "estimate", "--decomp", str(decomp_path),
            "--paulis", "ZIII,+;XXII,-", "--json",
        ])
        assert code == 0
        raw = capsys.readouterr().out
        payload = json.loads(raw[raw.index("{"):])
        assert 0.0 <= payload["probability"] <= 1.0
        assert len(payload["per_step_conditionals"]) == 2

    def test_estimate_with_circuit_file(self, tmp_path, capsys):
        from stabsparse import stabilizer as sb

        decomp_path = tmp_path / "d.json"
        cli.main(["sparsify", "--t", "3", "--delta", "0.4", "--seed", "1",
                  "--out", str(decomp_path)])
        circuit = sb.random_clifford_word(3, 12, np.random.default_rng(0))
        circuit_path = tmp_path / "c.json"
        circuit_path.write_text(json.dumps(circuit.to_json()))
        code = cli.main([
            "estimate", "--decomp", str(decomp_path), "--circuit", str(circuit_path),
            "--paulis", "ZZZ,+",
        ])
        assert code == 0
        assert "probability" in capsys.readouterr().out

    def test_cost_command(self, tmp_path, capsys):
        out = tmp_path / "map.csv"
        code = cli.main(["cost", "--t", "4..6", "--delta", "0.2,0.1", "--out", str(out)])
        assert code == 0
        assert len(out.read_text().strip().splitlines()) == 7

    def test_bench_command(self, tmp_path, capsys):
        out = tmp_path / "b.csv"
        code = cli.main([
            "bench", "sparsify-stats", "--t", "4", "--delta", "0.4",
            "--trials", "3", "--seed", "5", "--out", str(out),
        ])
        assert code == 0
        assert out.exists()

    def test_mask_timing_one_block_length(self, tmp_path, capsys):
        out = tmp_path / "timing.csv"
        code = cli.main(["bench", "mask-timing", "--t", "4", "--out", str(out)])
        assert code == 0
        assert "exponent" not in capsys.readouterr().out
        assert len(out.read_text().strip().splitlines()) == 2

    def test_bench_summaries_printed(self, capsys):
        assert cli.main(["bench", "worst-case", "--t", "4", "--delta", "0.4", "--trials", "2",
                         "--cliffords", "5"]) == 0
        assert capsys.readouterr().out.startswith("(4, 0.4) {'trials': 2, ")
        assert cli.main(["bench", "mask-timing", "--t", "4,8"]) == 0
        assert "fitted per-mask exponent" in capsys.readouterr().out

    @pytest.mark.parametrize("mode", ["iid", "theorem1", "theorem2"])
    def test_sparsify_k_zero_exit_3(self, mode, capsys):
        code = cli.main(["sparsify", "--t", "8", "--delta", "0.4",
                         "--mode", mode, "--k", "0"])
        assert code == 3
        assert "must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, needle", [
        (["sparsify", "--t", "4", "--delta", "0"], "delta"),
        (["sparsify", "--t", "4", "--delta", "0.4", "--phi", "foo"], "foo"),
        (["sparsify", "--t", "4", "--delta", "0.4", "--phi", "pi/0"], "pi/0"),
        (["estimate", "--decomp", "{decomp}", "--paulis", "ZZZ,+"], "ZZZ"),
        (["gen-masks", "--t", "0"], "t = 0"),
        (["sparsify", "--t", "4", "--delta", "1.5"], "delta"),
        (["cost", "--t", "10", "--delta", "1e-200"], "delta"),
        (["cost", "--t", "200", "--delta", "1e-150"], "delta"),
        (["sparsify", "--t", "8", "--delta", "1e-200", "--mode", "iid"], "delta"),
        # k beyond the address space: numpy refuses the draw at once
        (["sparsify", "--t", "200", "--mode", "theorem2", "--delta", "0.3"], "at t = 200"),
        (["bench", "worst-case", "--t", "200", "--delta", "0.3", "--trials", "1",
          "--cliffords", "1"], "at t = 200"),
        (["estimate", "--decomp", "{dir}", "--paulis", "Z"], "directory"),
        (["cost", "--t", "4", "--delta", "0.3", "--out", "{dir}"], "directory"),
        (["gen-masks", "--t", "8", "--out", "{dir}"], "directory"),
        (["estimate", "--decomp", "{decomp}", "--paulis", "ZZ,x"], "'+' or '-', got 'x'"),
        # xi_t = l1^2 is inf from t = 4483 at pi/4, and l1 = (c0 + c1)^t overflows from 8965
        (["sparsify", "--t", "4482", "--mode", "theorem2", "--delta", "0.3"], "not a finite"),
        (["sparsify", "--t", "4484", "--mode", "theorem2", "--delta", "0.3"], "at t = 4484"),
        (["sparsify", "--t", "10000", "--mode", "iid", "--delta", "0.3"], "at t = 10000"),
        (["sparsify", "--t", "10000", "--mode", "theorem1", "--delta", "0.3"], "at t = 10000"),
        (["sparsify", "--t", "10000", "--mode", "theorem2", "--delta", "0.3"], "at t = 10000"),
        (["bench", "sparsify-stats", "--t", "10000", "--trials", "1"], "at t = 10000"),
        (["bench", "worst-case", "--t", "10000", "--trials", "1", "--cliffords", "0"],
         "at t = 10000"),
    ], ids=["delta-zero", "phi-foo", "phi-pi-over-zero", "paulis-too-long",
         "gen-masks-t-zero", "delta-above-one", "cost-delta-cube-underflows",
         "cost-delta-cube-underflows-t200", "sparsify-delta-square-underflows",
         "sparsify-k-undrawable", "worst-case-k-undrawable", "decomp-is-directory",
         "cost-out-is-directory", "gen-masks-out-is-directory", "paulis-outcome-not-a-sign",
         "theorem2-f-t-overflows", "theorem2-extent-overflows", "iid-extent-overflows",
         "theorem1-extent-overflows", "theorem2-extent-overflows-t10000",
         "sparsify-stats-extent-overflows", "worst-case-extent-overflows"])
    def test_rejected_values_exit_3(self, argv, needle, tmp_path, capsys):
        decomp_path = tmp_path / "d.json"
        cli.main(["sparsify", "--t", "2", "--delta", "0.4", "--seed", "1",
                  "--out", str(decomp_path)])
        capsys.readouterr()
        assert cli.main([a.format(decomp=decomp_path, dir=tmp_path) for a in argv]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and needle in err[0]

    @pytest.mark.parametrize("experiment, flags, needle", [
        ("worst-case", ["--cliffords", "-1"], "gate count"),
        ("worst-case", ["--trials", "0"], "at least 1"),
        ("worst-case", ["--trials", "-2"], "at least 1"),
        ("worst-case", ["--threads", "0"], "at least 1"),
        ("sparsify-stats", ["--threads", "0"], "at least 1"),
        ("sparsify-stats", ["--delta", "0.3..0"], "must lie in (0, 1]"),
        ("worst-case", ["--delta", "0..0.3"], "must lie in (0, 1]"),
    ], ids=["cliffords-negative", "trials-zero", "trials-negative",
         "worst-case-threads-zero", "sparsify-stats-threads-zero",
         "sparsify-stats-delta-range-to-zero", "worst-case-delta-range-from-zero"])
    def test_out_of_range_bench_integers_exit_3(self, experiment, flags, needle,
                                                 tmp_path, capsys):
        out = tmp_path / "b.csv"
        # argparse keeps the last occurrence, so ``flags`` override the defaults
        argv = ["bench", experiment, "--t", "2", "--delta", "0.4", "--trials", "1",
                "--seed", "1", "--out", str(out)] + flags
        assert cli.main(argv) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and needle in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("flags, needle", [
        (["--t", "3..1"], "'3..1' is empty"),
        (["--delta-steps", "0"], "at least 1, got 0"),
        (["--delta-steps", "-2"], "at least 1, got -2"),
        (["--t", "1293"], "t must lie in [1, 1292]"),
        (["--t", "100000"], "t must lie in [1, 1292]"),
        (["--delta", "0.3..0"], "'0.3..0' must lie in (0, 1]"),
    ], ids=["t-range-reversed", "delta-steps-zero", "delta-steps-negative",
         "t-chi-squared-overflows", "t-far-beyond-range", "delta-range-to-zero"])
    def test_empty_cost_grid_exit_3(self, flags, needle, tmp_path, capsys):
        out = tmp_path / "cost.csv"
        assert cli.main(["cost", "--t", "1..4", "--out", str(out)] + flags) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and needle in err[0]
        assert not out.exists()

    def test_delta_steps_beyond_memory_exit_3(self, monkeypatch, tmp_path, capsys):
        # numpy raises MemoryError for a grid it cannot allocate (ValueError
        # only past the address space); refuse it here without allocating
        def refuse(*args, **kwargs):
            raise MemoryError("Unable to allocate 72.8 TiB")

        monkeypatch.setattr(np, "geomspace", refuse)
        out = tmp_path / "cost.csv"
        assert cli.main(["cost", "--t", "4", "--delta", "0.3..0.001",
                         "--delta-steps", "10000000000000", "--out", str(out)]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "10000000000000" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("argv, code", [
        (["cost", "--t", "300..310,350"], 0),
        (["sparsify", "--t", "400", "--mode", "theorem2", "--delta", "0.3"], 3),
    ], ids=["cost-map-beyond-2^53", "theorem2-plan-beyond-2^53"])
    def test_counts_beyond_float_integers_return(self, argv, code, tmp_path):
        # k_correlated used to walk the cubic in floats, which never ends
        # once neighbouring integers share a float; a subprocess with a
        # timeout turns such a hang into a failure
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-m", "stabsparse.cli", *argv], cwd=tmp_path, env=env,
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == code, proc.stderr
        assert code == 0 or len(proc.stderr.strip().splitlines()) == 1

    def test_huge_cost_t_range_is_checked_before_expanding(self, tmp_path):
        # a range of 10^13 t values used to be built as a list before
        # check_t saw it; under a 1 GB address-space cap that list is a
        # MemoryError traceback (exit 1), and without one it can fill the host
        proc = run_capped(["cost", "--t", "1..10000000000000", "--delta", "0.3"], tmp_path)
        assert proc.returncode == 3, proc.stderr
        err = proc.stderr.strip().splitlines()
        assert err == [f"error: t must lie in [1, {costmodel.T_MAX}], "
                       "where chi_t^2 is a finite float"]

    @pytest.mark.parametrize("argv, bound", [
        (["bench", "sparsify-stats", "--t", "1..10000000000000"], 1024),
        (["bench", "worst-case", "--t=-10000000000000..8"], 1024),
        (["bench", "mask-timing", "--t", "1..10000000000000"], 1 << 14),
        (["gen-masks", "--t", "1000000000000"], 1 << 14),
    ], ids=["sparsify-stats-range", "worst-case-range-below-1", "mask-timing-range",
            "gen-masks-tiles"])
    def test_huge_bench_t_is_checked_before_any_work(self, argv, bound, tmp_path):
        # a bench --t range was a list before anything checked it, and
        # gen-masks --t 10^12 tiled 8191 masks 244140625 times
        proc = run_capped(argv, tmp_path)
        assert proc.returncode == 3, proc.stderr
        err = proc.stderr.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and f", {bound}]" in err[0]

    def test_t_bounds_at_their_edges(self):
        estimator.check_t(estimator.T_MAX)
        masks.check_block_length(masks.MAX_BLOCK_LENGTH)
        for check, bad in ((estimator.check_t, estimator.T_MAX + 1), (estimator.check_t, 0),
                           (masks.check_block_length, masks.MAX_BLOCK_LENGTH + 1)):
            with pytest.raises(ValueError, match=f"t = {bad}[: ]"):
                check(bad)
        assert cli.main(["bench", "sparsify-stats", "--t", "1025", "--trials", "1"]) == 3

    @pytest.mark.parametrize("t", [10**12, 10**30])
    def test_decomposition_t_too_large_to_pack_exit_3(self, t, tmp_path):
        # packing the labels used to end in a MemoryError (t = 10^12, under
        # the cap) or OverflowError (t = 10^30) traceback, exit 1
        (tmp_path / "d.json").write_text(json.dumps({
            "t": t, "k": 1, "prefactor": 1.0, "mode": "IID",
            "entries": [{"x": "1", "phase": [1.0, 0.0]}],
        }))
        proc = run_capped(["estimate", "--decomp", "d.json", "--paulis", "Z,+"], tmp_path)
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.strip().splitlines() == [
            f"error: labels of t = {t} bits do not fit in memory"]

    def test_threads_pool_capped_by_work_and_cpus(self, monkeypatch, capsys):
        # the pool starts every worker at its first submit, so --threads 5000
        # must not ask it for 5000 processes for 4 work items (2 cells, 2
        # trials); a stand-in pool records its size and runs the work inline
        import concurrent.futures

        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        argv = ["bench", "sparsify-stats", "--t", "4", "--trials", "2", "--threads"]
        assert cli.main(argv + ["1"]) == 0
        serial = capsys.readouterr().out
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        for cpus, threads in ((64, "5000"), (3, "5000"), (64, "2"), (None, "5000")):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            assert cli.main(argv + [threads]) == 0
            assert capsys.readouterr().out == serial
        assert sizes == [4, 3, 2]  # with no CPU count, one worker runs inline

    def test_import_loads_no_process_pool(self):
        # only a pooled bench run (--threads > 1) imports the process machinery
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        probe = ("import sys, stabsparse.cli; print(sorted(m for m in sys.modules if m in "
                 "('multiprocessing', 'concurrent.futures.process')))")
        proc = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("t, code", [(1024, 0), (1025, 3)])
    def test_estimate_fastnorm_t_range(self, t, code, tmp_path, capsys):
        decomp_path = tmp_path / "d.json"
        decomp_path.write_text(json.dumps({
            "t": t, "k": 1, "prefactor": 1.0, "mode": "IID",
            "entries": [{"x": "0", "phase": [1.0, 0.0]}],
        }))
        assert cli.main(["estimate", "--decomp", str(decomp_path), "--paulis",
                         "Z" * t + ",+", "--method", "fastnorm",
                         "--fastnorm-samples", "1"]) == code
        if code:
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1 and "t <= 1024" in err[0]

    def test_invalid_arguments_exit_2(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["sparsify", "--t", "4"])  # missing --delta
        assert err.value.code == 2
        with pytest.raises(SystemExit) as err:
            cli.main(["bench", "nonsense"])
        assert err.value.code == 2
        with pytest.raises(SystemExit) as err:  # f_t comes from the plan only
            cli.main(["sparsify", "--t", "8", "--delta", "0.4", "--mode", "theorem1",
                      "--f-t", "3"])
        assert err.value.code == 2

    def test_precondition_failure_exit_3(self, capsys):
        code = cli.main(["gen-masks", "--t", "7"])
        assert code == 3
        assert "error" in capsys.readouterr().err

    def test_estimate_missing_file_exit_3(self):
        assert cli.main(["estimate", "--decomp", "/nonexistent.json",
                         "--paulis", "Z,+"]) == 3

    def test_estimate_decomposition_missing_key_exit_3(self, tmp_path, capsys):
        decomp_path = tmp_path / "d.json"
        decomp_path.write_text(json.dumps({"t": 2, "k": 1}))  # no "entries"
        assert cli.main(["estimate", "--decomp", str(decomp_path), "--paulis", "ZZ,+"]) == 3
        err = capsys.readouterr().err
        assert "entries" in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("t, k, x, prefactor, phase, needle, f_t", [
        (4, 1, "1f", 1.0, [1.0, 0.0], "does not fit in t = 4 bits", 0),
        (4, 1, "-1", 1.0, [1.0, 0.0], "does not fit in t = 4 bits", 0),
        (4, 1, "f" * 20, 1.0, [1.0, 0.0], "does not fit in t = 4 bits", 0),
        (0, 1, "0", 1.0, [1.0, 0.0], "t >= 1", 0),
        (-3, 1, "0", 1.0, [1.0, 0.0], "t >= 1", 0),
        # json writes these as NaN and Infinity, and json.load reads them back
        (1, 1, "0", float("nan"), [1.0, 0.0], "prefactor nan is not finite", 0),
        (1, 1, "0", 1.0, [float("inf"), 0.0], "phase (inf+0j) of bitstring 0 is not finite", 0),
        # each of these used to read probability 0.0 and exit 0
        (1, 0, "0", 1.0, [1.0, 0.0], "k >= 1 entries, got k = 0", 0),
        (1, 1, "0", 0.0, [1.0, 0.0], "prefactor 0.0 is not finite and positive", 0),
        (1, 1, "0", 1.0, [1e200, 1e200], "is not a unit phase", 0),
        # groups are derived from f_t, and a negative f_t used to load
        (1, 1, "0", 1.0, [1.0, 0.0], "f_t must be nonnegative, got f_t = -1", -1),
    ], ids=["bits-above-t", "negative-bits", "twenty-hex-digits", "t-zero", "t-negative",
         "prefactor-nan", "phase-infinite", "k-zero-no-entries", "prefactor-zero",
         "phase-not-unit", "f-t-negative"])
    def test_estimate_malformed_decomposition_exit_3(self, t, k, x, prefactor, phase, needle,
                                                     f_t, tmp_path, capsys):
        decomp_path = tmp_path / "d.json"
        decomp_path.write_text(json.dumps({
            "t": t, "k": k, "prefactor": prefactor, "mode": "IID", "f_t": f_t,
            "entries": [{"x": x, "phase": phase}] * k,
        }))
        paulis = "Z" * max(t, 1) + ",+"
        assert cli.main(["estimate", "--decomp", str(decomp_path), "--paulis", paulis]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and needle in err[0]

    @pytest.mark.parametrize("fields, needle", [
        # each of these used to load: int() truncated 4.7, 2.9 and 1.5
        ({"t": 4.7}, "decomposition t must be an int, got t = 4.7"),
        ({"k": 2.9}, "decomposition k must be an int, got k = 2.9"),
        ({"f_t": 1.5}, "decomposition f_t must be an int, got f_t = 1.5"),
        ({"t": True}, "decomposition t must be an int, got t = True"),
        ({"mode": "BOGUS"}, "unknown decomposition mode 'BOGUS'"),
        # its groups would run past k
        ({"mode": "THEOREM1", "f_t": 2}, "needs k to be a multiple of f_t + 1 = 3, got k = 2"),
        ({"mode": "THEOREM2", "f_t": 3}, "needs k to be a multiple of f_t + 1 = 4, got k = 2"),
    ], ids=["t-float", "k-float", "f-t-float", "t-bool", "mode-unknown", "theorem1-groups",
         "theorem2-groups"])
    def test_estimate_malformed_decomposition_fields_exit_3(self, fields, needle, tmp_path,
                                                            capsys):
        data = {"t": 4, "k": 2, "prefactor": 1.0, "mode": "THEOREM1", "f_t": 1,
                "entries": [{"x": "3", "phase": [1.0, 0.0]}, {"x": "c", "phase": [0.0, 1.0]}]}
        assert magic.SparseDecomposition.from_json(data).groups == ((0, 2),)
        decomp_path = tmp_path / "d.json"
        decomp_path.write_text(json.dumps({**data, **fields}))
        assert cli.main(["estimate", "--decomp", str(decomp_path), "--paulis", "ZZZZ,+"]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and needle in err[0]

    def test_estimate_circuit_missing_qubits_exit_3(self, tmp_path, capsys):
        decomp_path = tmp_path / "d.json"
        cli.main(["sparsify", "--t", "2", "--delta", "0.4", "--seed", "1",
                  "--out", str(decomp_path)])
        circuit_path = tmp_path / "c.json"
        circuit_path.write_text(json.dumps([{"gate": "H"}]))  # no "qubits"
        capsys.readouterr()
        assert cli.main(["estimate", "--decomp", str(decomp_path), "--circuit",
                         str(circuit_path), "--paulis", "ZZ,+"]) == 3
        err = capsys.readouterr().err
        assert "qubits" in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("record", [
        {"gate": "H", "qubits": [0.0]},
        {"gate": "CX", "qubits": [0, 1.5]},
        {"gate": "H", "qubits": "0"},
        {"gate": "H", "qubits": [True]},
    ], ids=["float", "float-second", "string", "bool"])
    def test_estimate_circuit_malformed_qubits_exit_3(self, record, tmp_path, capsys):
        decomp_path = tmp_path / "d.json"
        cli.main(["sparsify", "--t", "2", "--delta", "0.4", "--seed", "1",
                  "--out", str(decomp_path)])
        circuit_path = tmp_path / "c.json"
        circuit_path.write_text(json.dumps([record]))
        capsys.readouterr()
        assert cli.main(["estimate", "--decomp", str(decomp_path), "--circuit",
                         str(circuit_path), "--paulis", "ZZ,+"]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "must be integers" in err[0]

    @pytest.mark.parametrize("gate", [["H"], {"H": 0}, 7, None],
                             ids=["list", "dict", "int", "null"])
    def test_estimate_circuit_malformed_gate_name_exit_3(self, gate, tmp_path, capsys):
        decomp_path = tmp_path / "d.json"
        cli.main(["sparsify", "--t", "2", "--delta", "0.4", "--seed", "1",
                  "--out", str(decomp_path)])
        circuit_path = tmp_path / "c.json"
        circuit_path.write_text(json.dumps([{"gate": gate, "qubits": [0]}]))
        capsys.readouterr()
        assert cli.main(["estimate", "--decomp", str(decomp_path), "--circuit",
                         str(circuit_path), "--paulis", "ZZ,+"]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "must be a string" in err[0]

    @pytest.mark.parametrize("record, message", [
        ({"gate": "T", "qubits": [0]}, "unknown gate 'T'"),
        ({"gate": "H", "qubits": [0, 1]}, "H takes one qubit"),
        ({"gate": "CX", "qubits": [0]}, "CX takes two distinct qubits"),
        ({"gate": "CX", "qubits": [1, 1]}, "CX takes two distinct qubits"),
    ], ids=["unknown-name", "one-qubit-gate-on-two", "two-qubit-gate-on-one", "repeated-qubit"])
    def test_estimate_circuit_bad_gate_exit_3(self, record, message, tmp_path, capsys):
        decomp_path = tmp_path / "d.json"
        cli.main(["sparsify", "--t", "2", "--delta", "0.4", "--seed", "1",
                  "--out", str(decomp_path)])
        circuit_path = tmp_path / "c.json"
        circuit_path.write_text(json.dumps([record]))
        capsys.readouterr()
        assert cli.main(["estimate", "--decomp", str(decomp_path), "--circuit",
                         str(circuit_path), "--paulis", "ZZ,+"]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and message in err[0]
