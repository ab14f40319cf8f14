"""The public surface: each module's ``__all__`` and what ``sparse_ou`` re-exports."""

import importlib
import inspect
import os
import re
import subprocess
import sys
import types
from dataclasses import fields
from pathlib import Path

import pytest

import sparse_ou

MODULES = ["errors", "estimators", "finance", "linops", "metrics", "model", "modelsel", "sim", "stats"]


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_exist(name):
    module = importlib.import_module(f"sparse_ou.{name}")
    assert module.__all__
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_reexports_are_declared():
    exported = {
        n: obj for n, obj in vars(sparse_ou).items()
        if not n.startswith("_") and not isinstance(obj, types.ModuleType)
    }
    assert exported
    for name, obj in exported.items():
        module = importlib.import_module(obj.__module__)
        assert name in module.__all__, f"sparse_ou.{name} is not in {obj.__module__}.__all__"


def test_removed_surface_is_gone():
    from sparse_ou import cli, estimators, experiments, finance, linops, metrics, model, modelsel, sim, stats

    gone = ("SparsityPattern", "EmaConfig", "matrix_exponential", "soft_threshold", "fit_sigma_model", "theta",
            "re_constant", "save_drift_csv", "load_drift_csv", "load_estimate_json")
    for name in gone:
        assert not hasattr(sparse_ou, name)
    assert not hasattr(linops, "matrix_exponential")
    assert not hasattr(model, "SparsityPattern")
    assert not hasattr(model, "save_drift_csv") and not hasattr(model, "load_drift_csv")
    assert not hasattr(finance, "EmaConfig")
    assert not hasattr(model.DriftMatrix, "support")
    estimate_fields = {f.name for f in fields(sparse_ou.Estimate)}
    assert not {"support", "weights"} & (estimate_fields | set(dir(sparse_ou.Estimate)))
    assert "tau" not in {f.name for f in fields(sparse_ou.LambdaConfig)}
    assert "acceleration" not in {f.name for f in fields(sparse_ou.SolverOptions)}
    assert not hasattr(metrics.ErrorReport, "to_json")
    assert not hasattr(metrics.SupportReport, "to_json")
    assert not hasattr(sparse_ou, "oracle_coverage") and not hasattr(metrics, "oracle_coverage")
    assert "cfg" not in inspect.signature(metrics._oracle_step).parameters
    assert list(inspect.signature(sparse_ou.ema_log_returns).parameters) == ["panel", "span"]
    assert not hasattr(estimators, "soft_threshold") and not hasattr(estimators, "fit_sigma_model")
    assert not hasattr(stats, "theta")
    assert not hasattr(metrics, "re_constant") and not hasattr(metrics, "_cone_probe")
    assert "lq" not in {f.name for f in fields(metrics.ErrorReport)}
    assert "qs" not in inspect.signature(metrics.error_report).parameters
    assert not hasattr(estimators, "load_estimate_json")
    assert not {"init", "callback"} & set(inspect.signature(sparse_ou.lasso).parameters)
    assert not hasattr(sparse_ou, "adaptive_lasso") and not hasattr(estimators, "adaptive_lasso")
    assert list(inspect.signature(sparse_ou.lasso).parameters) == ["stats", "lam", "gamma", "opts"]
    assert not hasattr(estimators, "_validated_weights")
    assert "callback" not in inspect.signature(estimators._Problem.fit).parameters
    assert "init" not in inspect.signature(sparse_ou.sample_trajectory).parameters
    assert "noise_cov" not in {f.name for f in fields(sim.TransitionKernel)}
    assert not hasattr(cli, "_resolve_seed") and "SPARSE_OU_SEED" not in inspect.getsource(cli)
    assert "benchmark needs --kind" not in inspect.getsource(cli)
    assert "zero_tol" not in inspect.signature(metrics.support_report).parameters
    assert not hasattr(metrics, "DEFAULT_ZERO_TOL") and metrics.ZERO_TOL == 1e-10
    assert not hasattr(experiments, "_steps") and "dt" not in {f.name for f in fields(experiments.ExperimentConfig)}
    # cli builds and writes every report; estimators fits given statistics and modelsel holds the Sigma set-up
    assert not hasattr(estimators, "save_estimate_json") and not hasattr(modelsel, "save_cv_json")
    assert not hasattr(finance, "save_finance_model_json")
    assert not any(hasattr(module, "json") for module in (estimators, modelsel, finance))
    assert not hasattr(estimators, "_precision") and not hasattr(estimators, "_centered")
    assert not hasattr(estimators, "Trajectory")
    # the dense estimator's F1 is support_report(np.ones((d, d)), truth).f1; the kernel stays in sim for bench/
    assert not hasattr(metrics, "dense_baseline_f1") and not hasattr(sparse_ou, "dense_baseline_f1")
    assert not hasattr(sparse_ou, "transition_kernel") and not hasattr(sparse_ou, "TransitionKernel")
    assert hasattr(sim, "transition_kernel") and hasattr(sim, "TransitionKernel")
    # each fit holds its penalty, and each diagnostics mode is a sub-command of its own
    assert [f.name for f in fields(sparse_ou.CvResult)] == ["validation_scores", "best_estimate", "fits"]
    assert list(inspect.signature(modelsel._select).parameters) == ["fits", "scores", "stacklevel"]
    parsers, todo = [], [cli.build_parser()]
    while todo:
        parsers.append(todo.pop())
        todo += [p for a in parsers[-1]._actions if a.choices and a.option_strings == [] for p in a.choices.values()]
    assert len(parsers) == 8
    assert not any("--which" in p._option_string_actions for p in parsers)
    # every DriftMatrix gets its C from the Lyapunov solve
    assert list(inspect.signature(model.make_drift).parameters) == ["matrix"]
    assert list(inspect.signature(linops.as_square_matrix).parameters) == ["a"]


@pytest.mark.parametrize("name", ["oracle_bound", "_oracle_step"])
def test_oracle_functions_read_s_from_the_truth(name):
    from sparse_ou import metrics

    assert "s" not in inspect.signature(getattr(metrics, name)).parameters


def test_package_never_imports_scipy():
    # the library needs only numpy; scipy stays a test dependency
    src = str(Path(__file__).parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, sparse_ou, sparse_ou.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_readme_python_blocks_run():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
