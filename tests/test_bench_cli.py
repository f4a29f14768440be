import json
import math

import numpy as np
import pytest

from stabsparse import bench, cli, costmodel, magic, masks


class TestPlans:
    def test_theorem1_plan_t8(self):
        model = magic.magic_model(math.pi / 4, 8)
        plan = bench.theorem1_plan(model, 0.4, masks.generate_masks_pow2(8))
        assert plan.k_iid == 16
        assert plan.k_correlated % (plan.f_t + 1) == 0
        assert plan.k_iid - plan.k_correlated >= math.ceil(plan.f_t / 2)

    def test_theorem2_plan_t8(self):
        model = magic.magic_model(math.pi / 4, 8)
        plan = bench.theorem2_plan(model, 0.2, masks.generate_masks_pow2(8))
        assert plan.f_t == 7
        assert plan.k_correlated == costmodel.k_correlated(model.xi_t, 0.2, 7)

    def test_default_masks_odd_t_rejected(self):
        with pytest.raises(ValueError):
            bench.default_masks(7, 13)


class TestSparsifyStats:
    def test_zero_trials_header_only(self, tmp_path):
        out = tmp_path / "stats.csv"
        bench.run_sparsify_stats(math.pi / 4, [4], [0.4], 0, seed=1, out=str(out))
        rows = out.read_text().strip().splitlines()
        assert len(rows) == 1
        assert rows[0].startswith("experiment,mode,phi,t,delta,k,f_t,trial")

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

    def test_norm_only_above_dense_cap(self):
        records = bench.run_sparsify_stats(math.pi / 4, [14], [0.6], 2, seed=4)
        assert all(rec.metrics["err2"] is None for rec in records)
        assert all(rec.metrics["sqnorm"] > 0 for rec in records)

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

    def test_no_dense_truth_above_cap(self):
        records = bench.run_worst_case([12], [0.3], 10, 1, seed=6)
        assert records[0].metrics.get("p_true") is None

    def test_desk_scale_cap(self):
        with pytest.raises(ValueError):
            bench.run_worst_case([24], [0.3], 10, 1, seed=6)

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

    def test_cost_map_empty_grid(self, tmp_path):
        out = tmp_path / "empty.csv"
        bench.run_cost_map([], [], out=str(out))
        assert out.read_text().strip().splitlines() == [",".join(bench.COST_MAP_COLUMNS)]

    def test_cost_map_68x_asymptotic_law(self):
        # the asymptotic-law comparison is ~68x everywhere; the t at
        # which xi_1^t equals that ratio is ~27
        rows = bench.run_cost_map([27], [1e-4])
        assert rows[0].asymptotic_ratio_vs_sota() == pytest.approx(68.3, abs=1.0)
        assert rows[0].equivalent_magic_gates_removed() == pytest.approx(27, abs=1.0)
        # at fixed small t and delta -> 0 the supplement count round(10
        # delta xi) collapses to zero and the finite-t column shows no gain
        assert rows[0].f_t == 0


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

    def test_invalid_arguments_exit_2(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["sparsify", "--t", "4"])  # missing --delta
        assert err.value.code == 2
        with pytest.raises(SystemExit) as err:
            cli.main(["bench", "nonsense"])
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
