"""The public surface: each module's ``__all__`` and what ``sparse_ou`` re-exports."""

import importlib
import inspect
import types
from dataclasses import fields

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
    from sparse_ou import cli, estimators, experiments, finance, linops, metrics, model, sim, stats

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
    assert "d" not in inspect.signature(metrics.oracle_coverage).parameters
    assert list(inspect.signature(sparse_ou.ema_log_returns).parameters) == ["panel", "span"]
    assert not hasattr(estimators, "soft_threshold") and not hasattr(estimators, "fit_sigma_model")
    assert not hasattr(stats, "theta")
    assert not hasattr(metrics, "re_constant") and not hasattr(metrics, "_cone_probe")
    assert "lq" not in {f.name for f in fields(metrics.ErrorReport)}
    assert "qs" not in inspect.signature(metrics.error_report).parameters
    assert not hasattr(estimators, "load_estimate_json")
    assert not {"init", "callback"} & set(inspect.signature(sparse_ou.lasso).parameters)
    assert "callback" not in inspect.signature(estimators._Problem.fit).parameters
    assert "init" not in inspect.signature(sparse_ou.sample_trajectory).parameters
    assert "noise_cov" not in {f.name for f in fields(sim.TransitionKernel)}
    assert not hasattr(cli, "_resolve_seed") and "SPARSE_OU_SEED" not in inspect.getsource(cli)
    assert "zero_tol" not in inspect.signature(metrics.support_report).parameters
    assert not hasattr(metrics, "DEFAULT_ZERO_TOL") and metrics.ZERO_TOL == 1e-10
    assert not hasattr(experiments, "_steps") and "dt" not in {f.name for f in fields(experiments.ExperimentConfig)}


@pytest.mark.parametrize("name", ["oracle_bound", "_oracle_step", "oracle_coverage"])
def test_oracle_functions_read_s_from_the_truth(name):
    from sparse_ou import metrics

    assert "s" not in inspect.signature(getattr(metrics, name)).parameters
