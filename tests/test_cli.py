import csv
import datetime
import inspect
import json
import re
import shlex
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from sparse_ou import (
    LambdaConfig,
    cross_validate,
    default_lambda_grid,
    ema_log_returns,
    lasso,
    model,
    sufficient_stats,
    theoretical_lambda,
)
from sparse_ou.cli import build_parser, main
from sparse_ou.errors import GenerationError
from sparse_ou.experiments import BENCHMARK_KINDS, ExperimentConfig, _truth, fit_settings
from sparse_ou.sim import DEFAULT_DT, derive_seed, load_trajectory_csv, sample_trajectory

CONFIG_FIELDS = [f.name for f in fields(ExperimentConfig)]
HORIZON_RULE = "dt must be > 0 and finite, and T / dt must be finite and round to at least 1"


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

    @pytest.mark.parametrize("flags, message", [
        (["--d", 0, "--T", 1], "--d must be >= 1"),
        (["--d", 3, "--T", 0.004, "--dt", 0.01], HORIZON_RULE),
        (["--d", 3, "--T", 1, "--dt", 0], HORIZON_RULE),
        (["--d", 3, "--T", 1, "--dt", -0.5], HORIZON_RULE),
        (["--d", 3, "--T", "inf"], HORIZON_RULE),
        (["--d", 3, "--T", "nan"], HORIZON_RULE),
        (["--d", 3, "--T", 1, "--dt", "inf"], HORIZON_RULE),
        (["--kind", "shifted-antisym", "--d", 12, "--s", 3, "--w", 1, "--alpha", 1e-16, "--T", 1],
         "alpha must be at least 1e-06 * |w| * s = 3e-06, got alpha=1e-16"),
    ])
    def test_bad_dimension_step_or_horizon_is_usage_error(self, tmp_path, capsys, flags, message):
        assert run(["simulate", *flags, "--out", tmp_path / "x.csv"]) == 2
        assert capsys.readouterr().err.startswith(f"usage error: {message}")
        assert list(tmp_path.iterdir()) == []

    def test_horizon_that_rounds_to_one_step_is_sampled(self, tmp_path):
        # n = round(T / dt) steps, as the sampler and ExperimentConfig count them
        out = tmp_path / "x.csv"
        assert run(["simulate", "--d", 3, "--T", 0.006, "--dt", 0.01, "--out", out]) == 0
        assert len(out.read_text().splitlines()) == 3  # header + 2 states

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

    def test_environment_does_not_set_the_seed(self, tmp_path, monkeypatch):
        # --seed, default 0, is the one source of the seed
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["simulate", "--d", 3, "--s", 1, "--T", 1, "--out", a])
        monkeypatch.setenv("SPARSE_OU_SEED", "12")
        run(["simulate", "--d", 3, "--s", 1, "--T", 1, "--out", b])
        assert a.read_bytes() == b.read_bytes()
        assert Path(f"{a}.drift.json").read_bytes() == Path(f"{b}.drift.json").read_bytes()

    def test_streams_are_the_benchmarks_first_truth_and_path(self, tmp_path):
        # the drift is sweep point d's truth and the path is its replication 0, each from its own stream
        out = tmp_path / "x.csv"
        assert run(["simulate", "--d", 6, "--T", 5, "--seed", 3, "--out", out]) == 0
        truth = _truth(ExperimentConfig(kind="sweep", d_values=[6], t_values=[5.0], seed=3), 6)
        assert np.array_equal(model.load_drift_json(f"{out}.drift.json").matrix, truth.matrix)
        path = sample_trajectory(truth, 5.0, DEFAULT_DT, derive_seed(3, 0))
        assert np.array_equal(load_trajectory_csv(out).states, path.states)


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

    def test_cv_out_writes_the_cv_curve(self, sim_files, tmp_path):
        traj, _ = sim_files
        out, cv_out = tmp_path / "est.json", tmp_path / "cv.json"
        assert run(["fit", "--traj", traj, "--method", "lasso", "--lambda", "cv", "--grid-size", 6,
                    "--cv-out", cv_out, "--out", out]) == 0
        payload = json.loads(cv_out.read_text())
        assert len(payload["validation_scores"]) == 6
        assert payload["best_lambda"] in payload["lambda_grid"]
        assert len(payload["iterations"]) == len(payload["converged"]) == 6
        assert json.loads(out.read_text())["cv_out"] == str(cv_out)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cv.json", "est.json"]

    @pytest.mark.parametrize("flags", [["--method", "mle"], ["--lambda", 0.1], ["--lambda", "theory"]],
                             ids=["mle", "lambda 0.1", "lambda theory"])
    def test_cv_out_without_cv_is_usage_error(self, sim_files, tmp_path, capsys, flags):
        # a CV curve that no cross-validation would compute is refused before anything is read or written
        traj, _ = sim_files
        assert run(["fit", "--traj", traj, *flags, "--cv-out", tmp_path / "x.json", "--out", tmp_path / "e.json"]) == 2
        assert capsys.readouterr().err.startswith("usage error: --cv-out needs a cross-validated fit")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("lam", [-1, 0.1, "theory"])
    def test_mle_with_a_penalty_is_usage_error(self, sim_files, tmp_path, capsys, lam):
        # the MLE reads no penalty, so one given to it is refused before anything is read or written
        traj, _ = sim_files
        assert run(["fit", "--traj", traj, "--method", "mle", "--lambda", lam, "--out", tmp_path / "e.json"]) == 2
        assert capsys.readouterr().err.startswith(f"usage error: --method mle takes no --lambda, got {lam}")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag, value", [("--seed", 1), ("--zero-tol", 0)])
    def test_removed_flag_is_rejected_by_the_parser(self, sim_files, tmp_path, capsys, flag, value):
        # fit draws no random numbers, and support is scored at metrics.ZERO_TOL
        traj, _ = sim_files
        with pytest.raises(SystemExit) as exc:
            run(["fit", "--traj", traj, "--method", "mle", flag, value, "--out", tmp_path / "e.json"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_cv_command_is_gone(self, tmp_path, capsys):
        # fit --lambda cv --cv-out is the one cross-validation command
        with pytest.raises(SystemExit) as exc:
            run(["cv", "--traj", "traj.csv", "--out", tmp_path / "cv.json"])
        assert exc.value.code == 2
        assert "argument command: invalid choice: 'cv'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_truth_of_another_dimension_is_runtime_error(self, sim_files, tmp_path, capsys):
        # the truth is checked against the path before the CV sidecar or the estimate is written
        traj, _ = sim_files
        truth = tmp_path / "truth.json"
        model.save_drift_json(truth, model.generate_sparse_drift(3, 1, 0))
        out = tmp_path / "est.json"
        assert run(["fit", "--traj", traj, "--lambda", "cv", "--grid-size", 3, "--truth", truth, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {truth} holds a 3-dimensional drift")
        assert "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["truth.json"]

    def test_library_default_solver_is_the_cli_default(self, sim_files, tmp_path):
        traj, _ = sim_files
        out = tmp_path / "est.json"
        assert run(["fit", "--traj", traj, "--method", "lasso", "--lambda", 0.05, "--out", out]) == 0
        est = json.loads(out.read_text())
        fit = lasso(sufficient_stats(load_trajectory_csv(traj)), 0.05)
        assert np.count_nonzero(fit.matrix) > 0
        assert est["matrix"] == fit.matrix.reshape(-1).tolist()
        assert est["iterations"] == fit.iterations

    def test_theory_lambda(self, sim_files, tmp_path):
        traj, _ = sim_files
        out = tmp_path / "t.json"
        assert run(["fit", "--traj", traj, "--method", "lasso", "--lambda", "theory",
                    "--out", out]) == 0
        est = json.loads(out.read_text())
        assert est["lambda_rule"] == "theory"
        assert est["lambda"] == theoretical_lambda(sufficient_stats(load_trajectory_csv(traj)), LambdaConfig())

    @pytest.mark.parametrize("flags", [["--lambda", "theory", "--theory-gamma", "2.0"], ["--theory-eps0", "0.1"]],
                             ids=["theory-gamma", "theory-eps0"])
    def test_theory_constants_are_not_flags(self, sim_files, tmp_path, capsys, flags):
        # --lambda theory fits at the LambdaConfig() penalty, as the oracle_coverage kind does
        traj, _ = sim_files
        with pytest.raises(SystemExit) as exc:
            run(["fit", "--traj", traj, *flags, "--out", tmp_path / "t.json"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flags[-2]} {flags[-1]}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

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

    def test_no_acceleration_flag_is_usage_error(self, sim_files, tmp_path, capsys):
        # the CLI always runs FISTA with restarts
        traj, _ = sim_files
        with pytest.raises(SystemExit) as exc:
            run(["fit", "--traj", traj, "--lambda", 0.1, "--no-acceleration", "--out", tmp_path / "o.json"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --no-acceleration" in capsys.readouterr().err

    def test_missing_file_is_runtime_error(self, tmp_path):
        assert run(["fit", "--traj", tmp_path / "nope.csv", "--out", tmp_path / "o.json"]) == 1

    def test_drift_file_round_trips_under_any_name(self, tmp_path):
        # simulate writes the drift as JSON whatever its name, and fit and diagnostics read it back
        traj = tmp_path / "traj.csv"
        reports, curves = [], []
        for drift in ("d.txt", "d.csv", "d.json"):
            assert run(["simulate", "--d", 4, "--s", 1, "--T", 20, "--seed", 3, "--out", traj,
                        "--drift-out", tmp_path / drift]) == 0
            out = tmp_path / f"{drift}.fit.json"
            assert run(["fit", "--traj", traj, "--lambda", 0.1, "--truth", tmp_path / drift, "--out", out]) == 0
            reports.append(json.loads(out.read_text())["report"])
            out = tmp_path / f"{drift}.dev.json"
            assert run(["diagnostics", "deviation-bounds", "--drift", tmp_path / drift, "--out", out]) == 0
            curves.append(json.loads(out.read_text())["curves"])
        assert (tmp_path / "d.txt").read_text() == (tmp_path / "d.csv").read_text() == (tmp_path / "d.json").read_text()
        assert reports[0] == reports[1] == reports[2]
        assert curves[0] == curves[1] == curves[2]

    def test_bad_lambda_is_usage_error(self, sim_files, tmp_path, capsys):
        traj, _ = sim_files
        with pytest.raises(SystemExit) as exc:
            run(["fit", "--traj", traj, "--lambda", "garbage", "--out", tmp_path / "o.json"])
        assert exc.value.code == 2
        assert "argument --lambda: invalid penalty value: 'garbage'" in capsys.readouterr().err

    @pytest.mark.parametrize("lam", ["nan", "inf"])
    @pytest.mark.parametrize("method", ["lasso", "adalasso"])
    def test_non_finite_lambda_is_usage_error(self, sim_files, tmp_path, capsys, method, lam):
        traj, _ = sim_files
        out = tmp_path / "o.json"
        assert run(["fit", "--traj", traj, "--method", method, "--lambda", lam, "--out", out]) == 2
        assert capsys.readouterr().err.startswith("usage error: lambda must be >= 0 and finite")
        assert not out.exists()


class TestBenchmark:
    def test_t_sweep_row_counts_and_schema(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = run(["benchmark", "--kind", "sweep", "--d-values", "6", "--t-values", "5,10",
                    "--reps", 3, "--seed", 1, "--grid-size", 6, "--out", out])
        assert code == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 3 * 2 * 3  # reps x T-points x methods
        assert list(rows[0].keys()) == ["method", "d", "T", "dt", "rep", "frobenius", "l1", "f1", "wall_time"]
        summary = json.loads(Path(f"{out}.summary.json").read_text())
        assert summary["config"]["kind"] == "sweep"
        assert summary["config"]["seed"] == 1
        assert len(summary["groups"]) == 6

    @pytest.mark.parametrize("kind, sizes", [
        ("sweep", ["--d-values", "4,5", "--t-values", "5"]),
        ("sweep", ["--d-values", "4", "--t-values", "5,10"]),
        ("sweep", ["--d-values", "5", "--t-values", "5"]),
        ("sweep", ["--d-values", "4", "--t-values", "5", "--dt-values", "0.1,0.01"]),
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
                for row in csv.DictReader(out.read_text().splitlines())
            ]
        assert len(rows[1]) > 0
        assert rows[1] == rows[2]

    @pytest.mark.parametrize("kind", BENCHMARK_KINDS)
    def test_every_kind_runs_every_point_in_d_major_order(self, tmp_path, kind):
        # each (d, T) point fits every step, largest first, on one path sampled at the smallest
        out = tmp_path / "bench.csv"
        assert run(["benchmark", "--kind", kind, "--d-values", "3,4", "--t-values", "5,10", "--dt-values", "0.01,0.05",
                    "--reps", 1, "--seed", 2, "--grid-size", 5, "--jobs", 1, "--out", out]) == 0
        points = [(row["d"], row["T"], row["dt"]) for row in csv.DictReader(out.read_text().splitlines())]
        assert list(dict.fromkeys(points)) == [(d, T, dt) for d in ("3", "4") for T in ("5.0", "10.0")
                                               for dt in ("0.05", "0.01")]
        assert points == sorted(points, key=lambda p: (int(p[0]), float(p[1]), -float(p[2])))

    def test_dt_study_rows(self, tmp_path):
        out = tmp_path / "dt.csv"
        code = run(["benchmark", "--kind", "sweep", "--d-values", "4", "--t-values", "5",
                    "--dt-values", "0.1,0.01", "--reps", 2, "--seed", 2, "--grid-size", 5,
                    "--out", out])
        assert code == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 2 * 2 * 3  # reps x dt-points x methods
        assert {r["dt"] for r in rows} == {"0.1", "0.01"}

    def test_dt_study_step_not_a_multiple_is_usage_error(self, tmp_path, capsys):
        # every step subsamples the path sampled at the smallest one, so 0.1 cannot follow from 0.04
        out = tmp_path / "dt.csv"
        code = run(["benchmark", "--kind", "sweep", "--d-values", "3", "--t-values", "4",
                    "--dt-values", "0.1,0.04", "--reps", 1, "--out", out])
        assert code == 2
        assert capsys.readouterr().err.startswith("usage error: dt_values must be integer multiples")
        assert list(tmp_path.iterdir()) == []
        assert ExperimentConfig(kind="sweep").dt_values == [DEFAULT_DT]

    @pytest.mark.parametrize("kind, flags, message", [
        ("sweep", ["--dt-values", "-0.1"], "dt must be > 0"),
        ("finance", ["--dt-values", "0"], "dt must be > 0"),
        ("sweep", ["--t-values", "-1"], HORIZON_RULE),
        ("sweep", ["--dt-values", "0.1,-0.05"], HORIZON_RULE),
        ("finance", ["--dt-values", "0.1,0"], HORIZON_RULE),
        ("sweep", ["--t-values", "0.005", "--dt-values", "0.01"], HORIZON_RULE),
        ("finance", ["--dt-values", "2,1"], "t_values entries must round to a positive whole"),
        ("finance", ["--dt-values", "inf"], "dt must be > 0"),
        ("sweep", ["--t-values", "inf"], HORIZON_RULE),
        ("sweep", ["--t-values", "1e300", "--dt-values", "1e-10"], HORIZON_RULE),
        ("sweep", ["--dt-values", "0.1,inf"], "dt_values must be integer multiples"),
        ("sweep", ["--rel-tol", "0"], "rel_tol must be > 0"),
        ("sweep", ["--rel-tol", "inf"], "rel_tol must be > 0"),
        ("sweep", ["--d-values", "0"], "d_values entries must be >= 1"),
        ("sweep", ["--s-rule", "-1"], "s_rule must be in (0, 1]"),
        ("sweep", ["--d-values", "3,3"], "d_values entries must be distinct"),
        ("oracle_coverage", ["--t-values", "1,1"], "t_values entries must be distinct"),
        ("finance", ["--dt-values", "0.01,0.01"], "dt_values entries must be distinct"),
    ])
    def test_non_positive_step_or_horizon_is_usage_error(self, tmp_path, capsys, kind, flags, message):
        out = tmp_path / "b.csv"
        code = run(["benchmark", "--kind", kind, "--d-values", "3", "--t-values", "1", *flags,
                    "--reps", 1, "--out", out])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"usage error: {message}")
        assert list(tmp_path.iterdir()) == []

    def test_every_flag_is_echoed_in_the_summary_config(self, tmp_path):
        settings = {"kind": "sweep", "d_values": [3, 5], "t_values": [2.0, 4.0], "dt_values": [0.1, 0.05],
                    "s_rule": 0.4, "reps": 1, "seed": 8, "gamma": 2.0, "grid_min": 0.1,
                    "grid_max": 10.0, "grid_size": 3, "rel_tol": 1e-6, "max_iters": 500, "jobs": 1,
                    "out": str(tmp_path / "b.csv")}
        assert list(settings) == CONFIG_FIELDS
        flags = []
        for key, value in settings.items():
            flags += ["--" + key.replace("_", "-"), ",".join(map(str, value)) if isinstance(value, list) else value]
        assert run(["benchmark", *flags]) == 0
        assert json.loads((tmp_path / "b.csv.summary.json").read_text())["config"] == settings

    def test_flags_and_readme_keys_are_the_config_fields(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["benchmark", "--help"])
        assert exc.value.code == 0
        flags = re.findall(r"^  --([a-z-]+)", capsys.readouterr().out, re.M)
        assert [f.replace("-", "_") for f in flags] == CONFIG_FIELDS
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        keys = re.search(r"`config` names every setting.*?\((.*?)\)", readme, re.S).group(1)
        assert re.findall(r"`(\w+)`", keys) == CONFIG_FIELDS

    def test_readme_subcommands_are_the_parser_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["--help"])
        assert exc.value.code == 0
        commands = re.search(r"\{([\w,-]+)\}", capsys.readouterr().out).group(1).split(",")
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        names = re.search(r"All \w+\s+subcommands \((.*?)\)", readme, re.S).group(1)
        assert re.findall(r"`([\w-]+)`", names) == commands
        number = ["one", "two", "three", "four", "five", "six", "seven", "eight"][len(commands) - 1]
        assert set(re.findall(r"(\w+)\s+subcommands", readme)) == {number}

    def test_readme_commands_parse(self):
        # every sparse-ou example in README's bash blocks, \-continuations joined, is one the parser accepts
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        blocks = "".join(re.findall(r"^```bash\n(.*?)^```", readme, re.S | re.M))
        commands = [shlex.split(line)[1:] for line in blocks.replace("\\\n", " ").splitlines()
                    if line.startswith("sparse-ou ")]
        assert len(commands) >= 7
        parser = build_parser()
        for argv in commands:
            try:
                parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"README command does not parse: sparse-ou {shlex.join(argv)}")

    def test_readme_kinds_are_the_benchmark_kinds(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        kinds = re.search(r"Benchmark kinds: (.*?)\.", readme, re.S).group(1)
        assert tuple(re.findall(r"`(\w+)`", re.sub(r"\(.*?\)", "", kinds, flags=re.S))) == BENCHMARK_KINDS

    def test_readme_command_line_flags_are_parser_flags(self):
        # every --flag named between "## Command line" and "## Tests" is a flag of some subcommand or diagnostics mode
        subparsers = _subparsers(build_parser(), "command")
        parsers = [*subparsers.values(), *_subparsers(subparsers["diagnostics"], "which").values()]
        flags = {opt for p in parsers for a in p._actions for opt in a.option_strings}
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = re.search(r"^## Command line$(.*?)^## Tests", readme, re.S | re.M).group(1)
        named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", section))
        assert named and named <= flags, sorted(named - flags)

    def test_oracle_coverage_kind(self, tmp_path):
        out = tmp_path / "oc.csv"
        code = run(["benchmark", "--kind", "oracle_coverage", "--d-values", "4",
                    "--t-values", "30", "--reps", 3, "--seed", 6, "--out", out])
        assert code == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 3
        assert {r["method"] for r in rows} == {"lasso_theory"}
        summary = json.loads(Path(f"{out}.summary.json").read_text())
        (group,) = summary["groups"].values()
        assert 0.0 <= group["bound_holds_mean"] <= 1.0
        ratios = [float(r["_bound_ratio"]) for r in rows]
        assert group["bound_ratio_mean"] == np.mean(ratios)
        assert all(ratio <= 1.0 for ratio, r in zip(ratios, rows) if r["_bound_holds"] == "True")

    def test_finance_kind(self, tmp_path):
        out = tmp_path / "fin.csv"
        code = run(["benchmark", "--kind", "finance", "--d-values", "4", "--t-values", "100",
                    "--reps", 2, "--seed", 6, "--grid-size", 5, "--out", out])
        assert code == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 2
        summary = json.loads(Path(f"{out}.summary.json").read_text())
        (group,) = summary["groups"].values()
        assert group["m_err_mean"] >= 0.0
        assert group["sigma_rel_err_mean"] >= 0.0

    def test_missing_kind_is_usage_error(self, tmp_path, capsys):
        # kind is the one ExperimentConfig field without a default, so the parser requires its flag
        with pytest.raises(SystemExit) as exc:
            run(["benchmark", "--out", tmp_path / "x.csv"])
        assert exc.value.code == 2
        assert "the following arguments are required: --kind" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_jobs_default_is_the_config_default(self, tmp_path):
        out = tmp_path / "b.csv"
        assert run(["benchmark", "--kind", "sweep", "--d-values", 3, "--t-values", 1, "--reps", 1, "--grid-size", 3,
                    "--out", out]) == 0
        config = json.loads((tmp_path / "b.csv.summary.json").read_text())["config"]
        assert config["jobs"] == ExperimentConfig(kind="sweep").jobs

    def test_short_path_aborts_the_sweep(self, tmp_path, capsys):
        # 10 steps for d = 12: the MLE does not exist and the whole sweep stops before writing anything.
        # ROADMAP item 2 will change this on purpose, recording the failed fit instead of aborting.
        code = run(["benchmark", "--kind", "sweep", "--d-values", 12, "--t-values", 0.1, "--reps", 1, "--jobs", 1,
                    "--grid-size", 5, "--out", tmp_path / "b.csv"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: empirical covariance too ill-conditioned for the MLE: cond = ")
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, message", [
        (["--kind", "d_sweep"], "argument --kind: invalid choice: 'd_sweep'"),
        (["--kind", "sweep", "--dt", "0.02"], "unrecognized arguments: --dt 0.02"),
        (["--config", "cfg.json", "--kind", "sweep"], "unrecognized arguments: --config cfg.json"),
    ], ids=["--kind d_sweep", "--dt 0.02", "--config cfg.json"])
    def test_removed_kind_and_step_flag_are_rejected_by_the_parser(self, tmp_path, capsys, argv, message):
        # one sweep kind, one step field and one source per setting, its flag;
        # a flag is read only by its full name, so --dt is not --dt-values
        with pytest.raises(SystemExit) as exc:
            run(["benchmark", *argv, "--d-values", 3, "--t-values", 1, "--reps", 1, "--out", tmp_path / "b.csv"])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


def write_prices(path, n_days=1500, n_assets=4, seed=3):
    rng = np.random.default_rng(seed)
    log_p = np.cumsum(rng.normal(0.0002, 0.01, size=(n_days, n_assets)), axis=0)
    lines = ["date," + ",".join(f"S{j}" for j in range(n_assets))]
    for k in range(n_days):
        day = datetime.date(2000, 1, 1) + datetime.timedelta(days=k)
        lines.append(f"{day}," + ",".join(f"{np.exp(v):.10f}" for v in log_p[k]))
    path.write_text("\n".join(lines) + "\n")
    return path


class TestFinanceCommand:
    def test_pipeline_and_heavy_diagonal(self, tmp_path):
        prices = write_prices(tmp_path / "prices.csv")
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

    def test_two_dates_is_runtime_error(self, tmp_path, capsys):
        # two dates give one return, too few for a path of two states
        prices = write_prices(tmp_path / "prices.csv", n_days=2)
        out = tmp_path / "model.json"
        assert run(["finance", "--prices", prices, "--out", out]) == 1
        assert capsys.readouterr().err.startswith("error: panel needs at least 3 dates")
        assert not out.exists()


class TestDiagnostics:
    def test_re_constant(self, sim_files, tmp_path):
        traj, _ = sim_files
        out = tmp_path / "re.json"
        code = run(["diagnostics", "re-constant", "--traj", traj, "--s", 2, "--out", out])
        assert code == 0
        payload = json.loads(out.read_text())
        assert list(payload) == ["which", "s", "eigen_floor", "restricted_sparse_min"]  # d=6 <= 12
        # the certified floor and the s-sparse minimum bracket every cone constant
        assert 0 < payload["eigen_floor"] <= payload["restricted_sparse_min"]

    def test_re_constant_beyond_enumeration_checks_s(self, tmp_path, capsys):
        traj = tmp_path / "traj.csv"
        assert run(["simulate", "--d", 13, "--T", 1, "--out", traj]) == 0
        out = tmp_path / "re.json"
        assert run(["diagnostics", "re-constant", "--traj", traj, "--out", out]) == 0
        assert list(json.loads(out.read_text())) == ["which", "s", "eigen_floor"]  # d=13 > 12
        out.unlink()
        assert run(["diagnostics", "re-constant", "--traj", traj, "--s", 0, "--out", out]) == 2
        assert capsys.readouterr().err.startswith("usage error: need 1 <= s <= d, got s=0, d=13")
        assert not out.exists()

    def test_deviation_bounds(self, sim_files, tmp_path):
        _, drift = sim_files
        out = tmp_path / "dev.json"
        code = run(["diagnostics", "deviation-bounds", "--drift", drift,
                    "--r-values", "0.1,0.2", "--out", out])
        assert code == 0
        curves = json.loads(out.read_text())["curves"]
        assert len(curves) == 2
        assert curves[0]["h1"] > 0 and curves[1]["h1"] > curves[0]["h1"]

    @pytest.mark.parametrize("flag, text", [("--r-values", "abc"), ("--u", "1,x")])
    def test_unreadable_list_flag_is_rejected_by_the_parser(self, sim_files, tmp_path, capsys, flag, text):
        _, drift = sim_files
        with pytest.raises(SystemExit) as exc:
            run(["diagnostics", "deviation-bounds", "--drift", drift, flag, text, "--out", tmp_path / "d.json"])
        assert exc.value.code == 2
        assert f"argument {flag}: invalid comma-separated float value: {text!r}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag, value", [("--c0", 3.0), ("--probes", 200), ("--d", 8), ("--T", 200), ("--dt", 0.01),
                                             ("--reps", 20), ("--seed", 0), ("--theory-gamma", 2.0),
                                             ("--theory-eps0", 0.1)])
    def test_removed_probe_flag_is_rejected_by_the_parser(self, sim_files, tmp_path, capsys, flag, value):
        # the certified floor needs no cone width and no sample count, no mode draws random numbers,
        # and the oracle bound's Monte Carlo is the oracle_coverage benchmark kind; --d is not --drift
        traj, _ = sim_files
        with pytest.raises(SystemExit) as exc:
            run(["diagnostics", "re-constant", "--traj", traj, flag, value, "--out", tmp_path / "re.json"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_oracle_coverage_mode_is_gone(self, tmp_path, capsys):
        # benchmark --kind oracle_coverage is the one route to the oracle bound's Monte Carlo
        with pytest.raises(SystemExit) as exc:
            run(["diagnostics", "oracle-coverage", "--out", tmp_path / "cov.json"])
        assert exc.value.code == 2
        assert "argument which: invalid choice: 'oracle-coverage'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("which, missing", [("re-constant", "--traj"), ("deviation-bounds", "--drift")])
    def test_missing_input_is_usage_error(self, tmp_path, capsys, which, missing):
        # each mode's input is a required flag of its own parser
        out = tmp_path / "x.json"
        with pytest.raises(SystemExit) as exc:
            run(["diagnostics", which, "--out", out])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"sparse-ou diagnostics {which}: error: the following arguments are required: {missing}" in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [["re-constant", "--traj", "{traj}", "--r-values", "-1"],
                                      ["deviation-bounds", "--drift", "{drift}", "--s", "0"]],
                             ids=["re-constant --r-values", "deviation-bounds --s"])
    def test_other_mode_flag_is_rejected_by_the_parser(self, sim_files, tmp_path, capsys, argv):
        # a mode reads only its own flags, so the other mode's flag is not quietly ignored
        traj, drift = sim_files
        with pytest.raises(SystemExit) as exc:
            run(["diagnostics", *(a.format(traj=traj, drift=drift) for a in argv), "--out", tmp_path / "x.json"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


MALFORMED_DRIFTS = {
    "no dim": '{"entries": [1, 0, 0, 1]}',
    "JSON list": "[2, [1, 0, 0, 1]]",
    "dim x": '{"dim": "x", "entries": [1, 0, 0, 1]}',
    "old CSV": "2\n1.0,0.0\n0.0,1.0\n",
    "non-finite": '{"dim": 2, "entries": [1, 0, 0, NaN]}',
}
DRIFT_READERS = {
    "fit --truth": ["fit", "--traj", "{traj}", "--lambda", "cv", "--grid-size", 3, "--truth"],
    "deviation-bounds --drift": ["diagnostics", "deviation-bounds", "--drift"],
}


@pytest.mark.parametrize("reader", DRIFT_READERS.values(), ids=DRIFT_READERS.keys())
@pytest.mark.parametrize("text", MALFORMED_DRIFTS.values(), ids=MALFORMED_DRIFTS.keys())
def test_malformed_drift_is_runtime_error(sim_files, tmp_path, capsys, reader, text):
    # the one drift reader names the file, and fit reads it before it writes its CV sidecar
    traj, _ = sim_files
    drift = tmp_path / "drift.txt"
    drift.write_text(text)
    argv = [str(a).format(traj=traj) for a in reader]
    assert run([*argv, drift, "--out", tmp_path / "out.json"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {drift} is not a drift JSON file")
    assert "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["drift.txt"]


MALFORMED_TRAJECTORIES = {
    "ragged": "t,x0,x1\n0,1,2\n0.1,1\n0.2,1,2\n",
    "non-numeric": "t,x0,x1\n0,1,2\n0.1,x,2\n0.2,1,2\n",
    "non-uniform": "t,x0,x1\n0,1,2\n0.1,1,2\n0.3,1,2\n",
    "non-finite": "t,x0,x1\n0,1,2\n0.1,nan,2\n0.2,1,2\n",
}
TRAJECTORY_READERS = {
    "fit --traj": ["fit", "--lambda", "cv", "--grid-size", 3, "--traj"],
    "re-constant --traj": ["diagnostics", "re-constant", "--s", 1, "--traj"],
}


@pytest.mark.parametrize("reader", TRAJECTORY_READERS.values(), ids=TRAJECTORY_READERS.keys())
@pytest.mark.parametrize("text", MALFORMED_TRAJECTORIES.values(), ids=MALFORMED_TRAJECTORIES.keys())
def test_malformed_trajectory_is_runtime_error(tmp_path, capsys, reader, text):
    # the trajectory reader names the file whatever is wrong with it
    traj = tmp_path / "traj.csv"
    traj.write_text(text)
    assert run([*reader, traj, "--out", tmp_path / "out.json"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {traj} is not a trajectory CSV file")
    assert "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["traj.csv"]


BAD_FIT_FLAGS = [["--rel-tol", 0], ["--max-iters", 0], ["--grid-size", 0], ["--grid-min", -1],
                 ["--grid-min", "nan"], ["--grid-max", "inf"], ["--gamma", -1]]
FIT_COMMANDS = {
    "fit": ["fit", "--traj", "{traj}", "--method", "adalasso"],
    "finance": ["finance", "--prices", "{prices}"],
    "benchmark-jobs1": ["benchmark", "--kind", "sweep", "--d-values", 3, "--t-values", 1, "--reps", 1, "--jobs", 1],
    "benchmark-jobs2": ["benchmark", "--kind", "sweep", "--d-values", 3, "--t-values", 1, "--reps", 1, "--jobs", 2],
}
BAD_SETTINGS = [
    *[(argv + flags, f"{name} {flags[0]} {flags[1]}") for name, argv in FIT_COMMANDS.items() for flags in BAD_FIT_FLAGS],
    (["finance", "--prices", "{prices}", "--span", 0], "finance --span 0"),
    (["diagnostics", "re-constant", "--traj", "{traj}", "--s", 0], "re-constant --s 0"),
    (["diagnostics", "re-constant", "--traj", "{traj}", "--s", 7], "re-constant --s 7"),
    (["diagnostics", "deviation-bounds", "--drift", "{drift}", "--r-values", -1], "deviation-bounds --r-values -1"),
    (["diagnostics", "deviation-bounds", "--drift", "{drift}", "--u", "2,0"], "deviation-bounds --u 2,0"),
    (["diagnostics", "deviation-bounds", "--drift", "{drift}", "--u", "0.5,0"], "deviation-bounds --u of length 2"),
    (["simulate", "--d", 3, "--s", 0, "--T", 1], "simulate --s 0"),
    (["simulate", "--kind", "two-group", "--d", 3, "--T", 1], "simulate two-group --d 3"),
    (["simulate", "--kind", "shifted-antisym", "--d", 4, "--s", 1, "--w", "nan", "--T", 1], "simulate --w nan"),
    (["simulate", "--d", 3, "--T", 1, "--seed", -1], "simulate --seed -1"),
    ([*FIT_COMMANDS["benchmark-jobs1"], "--seed", -1], "benchmark --seed -1"),
    ([*FIT_COMMANDS["benchmark-jobs1"], "--jobs", -3], "benchmark --jobs -3"),
    ([*FIT_COMMANDS["benchmark-jobs1"], "--dt-values", "0.01,0.01"], "benchmark --dt-values 0.01,0.01"),
]


@pytest.fixture(scope="module")
def inputs(sim_files, tmp_path_factory):
    traj, drift = sim_files
    return {"traj": traj, "drift": drift, "prices": write_prices(tmp_path_factory.mktemp("prices") / "p.csv", 300, 3)}


@pytest.mark.parametrize("argv", [pytest.param(argv, id=name) for argv, name in BAD_SETTINGS])
def test_bad_setting_is_usage_error(inputs, tmp_path, capsys, argv):
    # each setting is rejected by the code that uses it, before any output is written
    argv = [str(a).format(**inputs) for a in argv]
    assert run([*argv, "--out", tmp_path / "out"]) == 2
    assert capsys.readouterr().err.startswith("usage error: ")
    assert list(tmp_path.iterdir()) == []


ABBREVIATED_FLAGS = {
    "simulate --drift": ["simulate", "--d", 3, "--T", 1, "--drift", "{mine}"],
    "fit --cv": ["fit", "--traj", "{traj}", "--cv", "{dir}/x.json"],
    "benchmark --rep": ["benchmark", "--kind", "sweep", "--d-values", 3, "--t-values", 1, "--rep", 1],
    "finance --sp": ["finance", "--prices", "{prices}", "--sp", 10],
    "diagnostics --dr": ["diagnostics", "deviation-bounds", "--drift", "{mine}", "--dr", "{mine}"],
}


@pytest.mark.parametrize("argv", ABBREVIATED_FLAGS.values(), ids=ABBREVIATED_FLAGS.keys())
def test_abbreviated_flag_is_rejected_by_the_parser(inputs, tmp_path, capsys, argv):
    # a flag is read only by its full name: simulate --drift is not --drift-out, so it leaves an existing file alone
    mine = tmp_path / "mine.json"
    mine.write_bytes(inputs["drift"].read_bytes())
    argv = [str(a).format(**inputs, mine=mine, dir=tmp_path) for a in argv]
    with pytest.raises(SystemExit) as exc:
        run([*argv, "--out", tmp_path / "out"])
    assert exc.value.code == 2
    assert "unrecognized arguments: " in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [mine]
    assert mine.read_bytes() == inputs["drift"].read_bytes()


def _subparsers(parser, dest):
    return next(a for a in parser._actions if a.dest == dest).choices


def test_every_subcommand_reads_full_flag_names_only():
    subparsers = _subparsers(build_parser(), "command")
    modes = _subparsers(subparsers["diagnostics"], "which")
    assert len(subparsers) == 5 and list(modes) == ["re-constant", "deviation-bounds"]
    assert [name for name, p in {**subparsers, **modes}.items() if p.allow_abbrev] == []


def _flag_default(*argv, dest):
    return getattr(build_parser().parse_args(argv), dest)


def _library_default(function, name):
    return inspect.signature(function).parameters[name].default


# each default the CLI declares a second time, against the library's own declaration
SECOND_DEFAULTS = {
    "finance --span": (_flag_default("finance", "--prices", "p", "--out", "o", dest="span"),
                       _library_default(ema_log_returns, "span")),
    "fit --gamma": (_flag_default("fit", "--traj", "t", "--out", "o", dest="gamma"),
                    _library_default(cross_validate, "gamma")),
    "simulate --dt": (_flag_default("simulate", "--d", "3", "--T", "1", "--out", "o", dest="dt"),
                      DEFAULT_DT),
    "ExperimentConfig grid": (fit_settings(ExperimentConfig(kind="sweep"))[0].tolist(), default_lambda_grid().tolist()),
    "ExperimentConfig dt_values": (ExperimentConfig(kind="sweep").dt_values,
                                   [DEFAULT_DT]),
}


@pytest.mark.parametrize("flag, library", SECOND_DEFAULTS.values(), ids=SECOND_DEFAULTS.keys())
def test_cli_default_is_the_library_default(flag, library):
    assert flag == library
