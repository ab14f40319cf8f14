import csv
import json

import numpy as np
import pytest

from sparse_ou import model
from sparse_ou.cli import main
from sparse_ou.errors import GenerationError


def run(args):
    return main([str(a) for a in args])


class TestSimulate:
    def test_two_group_file_shape(self, tmp_path):
        out = tmp_path / "traj.csv"
        code = run(["simulate", "--kind", "two-group", "--d", 8, "--T", 10, "--dt", 0.01,
                    "--seed", 7, "--out", out])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1002  # header + 1001 states
        assert all(len(line.split(",")) == 9 for line in lines)
        assert (tmp_path / "traj.csv.drift.json").exists()

    def test_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            run(["simulate", "--d", 4, "--s", 1, "--T", 2, "--seed", 3, "--out", out])
        assert a.read_text() == b.read_text()

    def test_zero_dimension_is_usage_error(self, tmp_path):
        code = run(["simulate", "--d", 0, "--T", 1, "--out", tmp_path / "x.csv"])
        assert code == 2

    def test_generation_failure_is_runtime_error(self, tmp_path, monkeypatch, capsys):
        def fail(d, s, seed):
            raise GenerationError(f"no stable {d}x{d} drift (seed {seed})")

        monkeypatch.setattr(model, "generate_sparse_drift", fail)
        code = run(["simulate", "--kind", "sparse", "--d", 4, "--s", 1, "--T", 1, "--out", tmp_path / "x.csv"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: no stable 4x4 drift")
        assert "Traceback" not in err
        assert not (tmp_path / "x.csv").exists()

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SPARSE_OU_SEED", "11")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["simulate", "--d", 3, "--s", 1, "--T", 1, "--out", a])
        run(["simulate", "--d", 3, "--s", 1, "--T", 1, "--out", b])
        assert a.read_text() == b.read_text()
        monkeypatch.setenv("SPARSE_OU_SEED", "12")
        c = tmp_path / "c.csv"
        run(["simulate", "--d", 3, "--s", 1, "--T", 1, "--out", c])
        assert a.read_text() != c.read_text()


@pytest.fixture(scope="module")
def sim_files(tmp_path_factory):
    base = tmp_path_factory.mktemp("sim")
    traj = base / "traj.csv"
    run(["simulate", "--kind", "sparse", "--d", 6, "--s", 2, "--T", 30, "--dt", 0.01,
         "--seed", 5, "--out", traj])
    return traj, base / "traj.csv.drift.json"


class TestFit:
    def test_lasso_zero_matches_mle(self, sim_files, tmp_path):
        traj, _ = sim_files
        mle_out, lasso_out = tmp_path / "mle.json", tmp_path / "lasso.json"
        assert run(["fit", "--traj", traj, "--method", "mle", "--out", mle_out]) == 0
        assert run(["fit", "--traj", traj, "--method", "lasso", "--lambda", 0.0,
                    "--rel-tol", 1e-10, "--out", lasso_out]) == 0
        a = np.asarray(json.loads(mle_out.read_text())["matrix"])
        b = np.asarray(json.loads(lasso_out.read_text())["matrix"])
        assert np.linalg.norm(a - b) <= 1e-6

    def test_cv_lambda_writes_cv_result(self, sim_files, tmp_path):
        traj, _ = sim_files
        out = tmp_path / "est.json"
        assert run(["fit", "--traj", traj, "--method", "adalasso", "--lambda", "cv",
                    "--gamma", 2, "--grid-size", 8, "--out", out]) == 0
        est = json.loads(out.read_text())
        cv = json.loads((tmp_path / "est.json.cv.json").read_text())
        assert est["lambda"] == cv["best_lambda"]
        assert len(cv["lambda_grid"]) == 8

    def test_theory_lambda(self, sim_files, tmp_path):
        traj, _ = sim_files
        out = tmp_path / "t.json"
        assert run(["fit", "--traj", traj, "--method", "lasso", "--lambda", "theory",
                    "--out", out]) == 0
        assert json.loads(out.read_text())["lambda_rule"] == "theory"

    def test_truth_report_and_method_ordering(self, tmp_path):
        # adaptive weights raise the support F1 over the plain fit for
        # the majority of seeds
        wins = 0
        for seed in range(5):
            traj = tmp_path / f"traj{seed}.csv"
            run(["simulate", "--d", 10, "--s", 2, "--T", 100, "--seed", seed, "--out", traj])
            f1 = {}
            for method in ("lasso", "adalasso"):
                out = tmp_path / f"{method}{seed}.json"
                run(["fit", "--traj", traj, "--method", method, "--lambda", "cv",
                     "--gamma", 2, "--truth", str(traj) + ".drift.json", "--out", out])
                f1[method] = json.loads(out.read_text())["report"]["f1"]
            wins += f1["adalasso"] > f1["lasso"]
        assert wins >= 3

    def test_missing_file_is_runtime_error(self, tmp_path):
        assert run(["fit", "--traj", tmp_path / "nope.csv", "--out", tmp_path / "o.json"]) == 1

    def test_bad_lambda_is_usage_error(self, sim_files, tmp_path):
        traj, _ = sim_files
        assert run(["fit", "--traj", traj, "--lambda", "garbage", "--out", tmp_path / "o.json"]) == 2

    @pytest.mark.parametrize("method", ["lasso", "adalasso"])
    def test_nan_lambda_is_runtime_error(self, sim_files, tmp_path, capsys, method):
        traj, _ = sim_files
        out = tmp_path / "o.json"
        assert run(["fit", "--traj", traj, "--method", method, "--lambda", "nan", "--out", out]) == 1
        assert capsys.readouterr().err.startswith("error: lambda must be >= 0")
        assert not out.exists()


class TestCv:
    def test_writes_result(self, sim_files, tmp_path):
        traj, _ = sim_files
        out = tmp_path / "cv.json"
        assert run(["cv", "--traj", traj, "--method", "lasso", "--grid-size", 6, "--out", out]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["validation_scores"]) == 6
        assert payload["best_lambda"] in payload["lambda_grid"]

    def test_negative_gamma_is_runtime_error(self, sim_files, tmp_path, capsys):
        traj, _ = sim_files
        out = tmp_path / "cv.json"
        assert run(["cv", "--traj", traj, "--method", "adalasso", "--gamma", -1, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: gamma must be >= 0")
        assert not out.exists()

    def test_nan_grid_is_runtime_error(self, sim_files, tmp_path, capsys):
        traj, _ = sim_files
        out = tmp_path / "cv.json"
        assert run(["cv", "--traj", traj, "--grid-min", "nan", "--out", out]) == 1
        assert capsys.readouterr().err.startswith("error: lambda grid entries must be >= 0")
        assert not out.exists()


class TestBenchmark:
    def test_t_sweep_row_counts_and_schema(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = run(["benchmark", "--kind", "t_sweep", "--d-values", "6", "--t-values", "5,10",
                    "--reps", 3, "--seed", 1, "--grid-size", 6, "--out", out])
        assert code == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 3 * 2 * 3  # reps x T-points x methods
        assert list(rows[0].keys()) == ["method", "d", "T", "dt", "rep", "frobenius", "l1", "f1", "wall_time"]
        summary = json.loads(open(str(out) + ".summary.json").read())
        assert summary["config"]["kind"] == "t_sweep"
        assert summary["config"]["seed"] == 1
        assert len(summary["groups"]) == 6

    @pytest.mark.parametrize("kind, sizes", [
        ("d_sweep", ["--d-values", "4,5", "--t-values", "5"]),
        ("t_sweep", ["--d-values", "4", "--t-values", "5,10"]),
        ("f1_study", ["--d-values", "5", "--t-values", "5"]),
        ("dt_study", ["--d-values", "4", "--t-values", "5", "--dt-values", "0.1,0.01"]),
        ("oracle_coverage", ["--d-values", "4", "--t-values", "30"]),
        ("finance", ["--d-values", "4", "--t-values", "50"]),
    ])
    def test_parallel_matches_serial(self, tmp_path, kind, sizes):
        # results are keyed by derived seeds, so scheduling cannot change
        # them; only wall_time is timing-dependent
        rows = {}
        for jobs in (1, 2):
            out = tmp_path / f"bench{jobs}.csv"
            assert run(["benchmark", "--kind", kind, *sizes, "--reps", 2, "--seed", 4, "--jobs", jobs,
                        "--grid-size", 5, "--out", out]) == 0
            rows[jobs] = [
                {k: v for k, v in row.items() if k != "wall_time"}
                for row in csv.DictReader(out.open())
            ]
        assert len(rows[1]) > 0
        assert rows[1] == rows[2]

    def test_dt_study_rows(self, tmp_path):
        out = tmp_path / "dt.csv"
        code = run(["benchmark", "--kind", "dt_study", "--d-values", "4", "--t-values", "5",
                    "--dt-values", "0.1,0.01", "--reps", 2, "--seed", 2, "--grid-size", 5,
                    "--out", out])
        assert code == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 2 * 2 * 3  # reps x dt-points x methods
        assert {r["dt"] for r in rows} == {"0.1", "0.01"}

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "f1_study", "d_values": [4], "t_values": [5.0],
                                   "reps": 3, "seed": 9, "grid_size": 5}))
        out = tmp_path / "b.csv"
        code = run(["benchmark", "--config", cfg, "--reps", 2, "--out", out])
        assert code == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 2 * 3  # flag wins over config reps
        summary = json.loads(open(str(out) + ".summary.json").read())
        assert summary["config"]["reps"] == 2
        assert summary["config"]["kind"] == "f1_study"

    def test_oracle_coverage_kind(self, tmp_path):
        out = tmp_path / "oc.csv"
        code = run(["benchmark", "--kind", "oracle_coverage", "--d-values", "4",
                    "--t-values", "30", "--reps", 3, "--seed", 6, "--out", out])
        assert code == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 3
        assert {r["method"] for r in rows} == {"lasso_theory"}
        summary = json.loads(open(str(out) + ".summary.json").read())
        (group,) = summary["groups"].values()
        assert 0.0 <= group["bound_holds_mean"] <= 1.0

    def test_finance_kind(self, tmp_path):
        out = tmp_path / "fin.csv"
        code = run(["benchmark", "--kind", "finance", "--d-values", "4", "--t-values", "100",
                    "--reps", 2, "--seed", 6, "--grid-size", 5, "--out", out])
        assert code == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 2
        summary = json.loads(open(str(out) + ".summary.json").read())
        (group,) = summary["groups"].values()
        assert group["m_err_mean"] >= 0.0
        assert group["sigma_rel_err_mean"] >= 0.0

    def test_missing_kind_is_usage_error(self, tmp_path):
        assert run(["benchmark", "--out", tmp_path / "x.csv"]) == 2

    @pytest.mark.parametrize("entry", [{"d_values": []}, {"reps": "2"}, {"rep": 3}, {"seed": 1.5}])
    def test_bad_config_entry_is_usage_error(self, tmp_path, capsys, entry):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "f1_study", "d_values": [4], "t_values": [5.0], "reps": 2,
                                   "grid_size": 5, **entry}))
        out = tmp_path / "b.csv"
        assert run(["benchmark", "--config", cfg, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: ")
        assert "Traceback" not in err
        assert not out.exists()
        assert not (tmp_path / "b.csv.summary.json").exists()


class TestFinanceCommand:
    def _write_prices(self, path, n_days=1500, n_assets=4, seed=3):
        rng = np.random.default_rng(seed)
        log_p = np.cumsum(rng.normal(0.0002, 0.01, size=(n_days, n_assets)), axis=0)
        lines = ["date," + ",".join(f"S{j}" for j in range(n_assets))]
        for k in range(n_days):
            lines.append(f"day{k:05d}," + ",".join(f"{np.exp(v):.10f}" for v in log_p[k]))
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_pipeline_and_heavy_diagonal(self, tmp_path):
        prices = self._write_prices(tmp_path / "prices.csv")
        out = tmp_path / "model.json"
        code = run(["finance", "--prices", prices, "--span", 10, "--gamma", 2,
                    "--grid-size", 10, "--out", out])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["tickers"] == ["S0", "S1", "S2", "S3"]
        a = np.asarray(payload["A"]).reshape(4, 4)
        diag = np.abs(np.diag(a))
        off = np.abs(a[~np.eye(4, dtype=bool)])
        # EMA smoothing induces strong mean reversion on the diagonal
        assert np.min(diag) > 0
        assert np.median(diag) > np.median(off)


class TestDiagnostics:
    def test_re_constant(self, sim_files, tmp_path):
        traj, _ = sim_files
        out = tmp_path / "re.json"
        code = run(["diagnostics", "--which", "re-constant", "--traj", traj, "--s", 2,
                    "--seed", 1, "--out", out])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["re_constant"] > 0
        assert payload["restricted_sparse_min"] > 0  # d=6 <= 12

    def test_deviation_bounds(self, sim_files, tmp_path):
        _, drift = sim_files
        out = tmp_path / "dev.json"
        code = run(["diagnostics", "--which", "deviation-bounds", "--drift", drift,
                    "--r-values", "0.1,0.2", "--out", out])
        assert code == 0
        curves = json.loads(out.read_text())["curves"]
        assert len(curves) == 2
        assert curves[0]["h1"] > 0 and curves[1]["h1"] > curves[0]["h1"]

    def test_oracle_coverage(self, tmp_path):
        out = tmp_path / "cov.json"
        code = run(["diagnostics", "--which", "oracle-coverage", "--d", 4, "--s", 1,
                    "--T", 30, "--reps", 3, "--seed", 2, "--out", out])
        assert code == 0
        assert 0.0 <= json.loads(out.read_text())["coverage"] <= 1.0

    @pytest.mark.parametrize("which, missing", [("re-constant", "--traj"), ("deviation-bounds", "--drift")])
    def test_missing_input_is_usage_error(self, tmp_path, capsys, which, missing):
        out = tmp_path / "x.json"
        assert run(["diagnostics", "--which", which, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: --which {which} needs {missing}")
        assert "Traceback" not in err
        assert not out.exists()
