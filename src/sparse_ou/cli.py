"""Command-line interface: simulate, fit (``--lambda cv``, the default, also writes
the CV curve to ``--cv-out``), benchmark sweeps (the oracle bound's coverage is the
``oracle_coverage`` kind), the finance pipeline and theory diagnostics (the
restricted-eigenvalue bracket and the deviation exponents).

Outputs are data files (tidy CSV + JSON summaries), never plots.  The JSON
reports are built here and written by :func:`_write_json`; the drift JSON and
trajectory CSV, which are read back, keep their reader and writer in ``model``
and ``sim``.  Every run is reproducible from its flags: replication seeds derive
deterministically from the base seed, so results do not depend on how
work is scheduled across processes.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import MISSING

import numpy as np

from . import metrics, model, modelsel, sim
from .errors import GenerationError, IngestionError, NumericError, StabilityError, UsageError
from .estimators import Estimate, lasso, mle
from .experiments import CV_METHODS, ExperimentConfig, fit_settings, row_sparsity, run_benchmark
from .finance import ema_log_returns, estimate_mean_sigma, load_prices
from .stats import LambdaConfig, sufficient_stats, theoretical_lambda


FIT_FIELDS = ("gamma", "grid_min", "grid_max", "grid_size", "max_iters", "rel_tol")  # what fit_settings reads


def _add_config_flags(p: argparse.ArgumentParser, names) -> None:
    """One flag per named ExperimentConfig field (``grid_min`` is ``--grid-min``), with its default or else required."""
    for name in names:
        f = ExperimentConfig.__dataclass_fields__[name]
        default = f.default if f.default_factory is MISSING else f.default_factory()
        p.add_argument("--" + name.replace("_", "-"), dest=name, type=_flag_type(f.type), default=default,
                       required=default is MISSING, **f.metadata)


def penalty(text: str):
    """The --lambda value, 'theory', 'cv' or a float; argparse reports any other text as an invalid penalty value."""
    return text if text in ("theory", "cv") else float(text)


def _flag_type(type_name: str):
    """The parser of the flag for an ExperimentConfig annotation as ``_typed`` reads it; list[...] splits at commas."""
    if type_name.startswith("list["):
        item = _flag_type(type_name[5:-1])
        def parse(text):
            return [item(x) for x in text.split(",")]
        parse.__name__ = f"comma-separated {item.__name__}"  # argparse reports "invalid <__name__> value"
        return parse
    return {"int": int, "float": float, "str": str}[type_name]


def _write_json(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)


def _make_drift(kind: str, d: int, s: int, alpha: float, w: float, seed: int) -> model.DriftMatrix:
    if kind == "sparse":
        return model.generate_sparse_drift(d, s, seed)
    if kind == "two-group":
        return model.generate_two_group(d)
    return model.generate_shifted_antisymmetric(d, alpha, w, s, seed)


# -- simulate ----------------------------------------------------------------


def cmd_simulate(args) -> int:
    if args.d < 1:
        raise UsageError(f"--d must be >= 1, got {args.d}")
    if args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    s = args.s if args.s is not None else row_sparsity(args.d)
    # the benchmark's streams: point d's truth and the path of its first replication
    drift = _make_drift(args.kind, args.d, s, args.alpha, args.w, sim.derive_seed(args.seed, 900000 + args.d))
    traj = sim.sample_trajectory(drift, args.T, args.dt, sim.derive_seed(args.seed, 0))
    sim.save_trajectory_csv(args.out, traj)
    drift_out = args.drift_out or (str(args.out) + ".drift.json")
    model.save_drift_json(drift_out, drift)
    print(f"wrote {traj.states.shape[0]} states to {args.out}, drift to {drift_out}")
    return 0


# -- fit ---------------------------------------------------------------------


def _estimate_payload(fit: Estimate) -> dict:
    """The estimate JSON's base keys: the row-major matrix, the solver's diagnostics and the nonzero entries."""
    return {
        "dim": fit.matrix.shape[0],
        "matrix": fit.matrix.ravel().tolist(),
        "lambda": fit.lam,
        "gamma": fit.gamma,
        "iterations": fit.iterations,
        "final_objective": fit.final_objective,
        "kkt_residual": fit.kkt_residual,
        "converged": fit.converged,
        "support": np.argwhere(np.abs(fit.matrix) > 0).tolist(),
    }


def _cv_payload(cv: modelsel.CvResult) -> dict:
    """The grid, scores, selected penalty and whether its fit is zero, with each fit's solver trace in grid order."""
    return {
        "lambda_grid": [f.lam for f in cv.fits],
        "validation_scores": cv.validation_scores.tolist(),
        "best_lambda": cv.best_estimate.lam,
        "selected_zero": not cv.best_estimate.matrix.any(),
        "iterations": [f.iterations for f in cv.fits],
        "restarts": [f.restarts for f in cv.fits],
        "kkt_residual": [f.kkt_residual for f in cv.fits],
        "converged": [f.converged for f in cv.fits],
    }


def cmd_fit(args) -> int:
    grid, opts, gamma = fit_settings(args)
    if args.method == "mle" and args.lam != "cv":  # "cv" is the default, so an explicit --lambda cv passes
        raise UsageError(f"--method mle takes no --lambda, got {args.lam}")
    if args.cv_out is not None and (args.method == "mle" or args.lam != "cv"):
        raise UsageError("--cv-out needs a cross-validated fit: --lambda cv with --method lasso or adalasso")
    traj = sim.load_trajectory_csv(args.traj)
    truth = model.load_drift_json(args.truth) if args.truth else None  # read before any output is written
    if truth is not None and truth.dim != traj.dim:
        raise ValueError(f"{args.truth} holds a {truth.dim}-dimensional drift, but {args.traj} is a "
                         f"{traj.dim}-dimensional path")
    stats = sufficient_stats(traj)
    run = {"method": args.method, "traj": str(args.traj)}  # the keys after the estimate's own

    if args.method == "mle":
        fit = mle(stats)
        run["lambda_rule"] = "none"
    elif args.lam == "cv":
        method = CV_METHODS[args.method]
        cv = modelsel.cross_validate(traj, method, gamma=gamma, grid=grid, opts=opts)
        fit = cv.best_estimate
        cv_out = args.cv_out or (str(args.out) + ".cv.json")
        _write_json(cv_out, _cv_payload(cv))
        run["lambda_rule"] = "cv"
        run["cv_out"] = str(cv_out)
    else:
        if args.lam == "theory":
            lam = theoretical_lambda(stats, LambdaConfig())
            run["lambda_rule"] = "theory"
        else:
            lam = args.lam
            run["lambda_rule"] = "fixed"
        fit = lasso(stats, lam, gamma=gamma if args.method == "adalasso" else None, opts=opts)

    if truth is not None:
        err = metrics.error_report(fit.matrix, truth, stats)
        supp = metrics.support_report(fit.matrix, truth)
        run["report"] = {
            "frobenius": err.frobenius,
            "l1": err.l1,
            "empirical": err.empirical,
            "f1": supp.f1,
            "precision": supp.precision,
            "recall": supp.recall,
        }
    _write_json(args.out, {**_estimate_payload(fit), **run})
    print(f"wrote estimate to {args.out}")
    return 0


# -- benchmark ---------------------------------------------------------------


def cmd_benchmark(args) -> int:
    cfg = ExperimentConfig(**{name: getattr(args, name) for name in ExperimentConfig.__dataclass_fields__})
    summary = run_benchmark(cfg)
    print(f"wrote {cfg.out} and {cfg.out}.summary.json ({len(summary['groups'])} groups)")
    return 0


# -- finance -----------------------------------------------------------------


def cmd_finance(args) -> int:
    grid, opts, gamma = fit_settings(args)
    panel = load_prices(args.prices)
    traj = ema_log_returns(panel, span=args.span)
    m_hat, sigma_hat = estimate_mean_sigma(traj)
    cv = modelsel.cross_validate_sigma(traj, m_hat, sigma_hat, gamma=gamma, grid=grid, opts=opts)
    _write_json(args.out, {
        "tickers": panel.tickers,
        "m": m_hat.tolist(),
        "sigma": sigma_hat.ravel().tolist(),
        "A": cv.best_estimate.matrix.ravel().tolist(),
        "lambda": cv.best_estimate.lam,
    })
    print(f"fitted {len(panel.tickers)} tickers, lambda {cv.best_estimate.lam:.6g} -> {args.out}")
    return 0


# -- diagnostics -------------------------------------------------------------


def cmd_diagnostics(args) -> int:
    payload = {"which": args.which}
    if args.which == "re-constant":
        stats = sufficient_stats(sim.load_trajectory_csv(args.traj))
        model._check_sparsity(args.s, stats.dim)
        payload.update({"s": args.s, "eigen_floor": metrics.eigen_floor(stats)})
        if stats.dim <= metrics.MAX_ENUMERATION_DIM:
            payload["restricted_sparse_min"] = metrics.restricted_sparse_min(stats, args.s)
    else:  # deviation-bounds
        drift = model.load_drift_json(args.drift)
        u = np.zeros(drift.dim)
        u[0] = 1.0
        if args.u:
            u = np.asarray(args.u)
        payload["curves"] = [
            dict(zip(("R", "h1", "h2"), (r, *metrics.deviation_bounds(r, u, drift.stationary_cov))))
            for r in args.r_values
        ]
    _write_json(args.out, payload)
    print(f"wrote {args.out}")
    return 0


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparse-ou",
        description="Simulation and sparse drift estimation for mean-reverting diffusions.",
    )
    # a flag is read only by its full name: simulate --drift is not --drift-out, benchmark --dt is not --dt-values
    full_names = functools.partial(argparse.ArgumentParser, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=full_names)

    p = sub.add_parser("simulate", help="generate a drift and sample a trajectory")
    p.add_argument("--kind", choices=["sparse", "two-group", "shifted-antisym"], default="sparse")
    p.add_argument("--d", type=int, required=True, help="process dimension")
    p.add_argument("--s", type=int, default=None,
                   help=f"entries per row of the random pattern, before the diagonal is added "
                        f"(default {ExperimentConfig.s_rule:g} d)")
    p.add_argument("--alpha", type=float, default=0.5, help="diagonal level for shifted-antisym")
    p.add_argument("--w", type=float, default=1.0, help="coupling weight for shifted-antisym")
    p.add_argument("--T", type=float, required=True, help="horizon")
    p.add_argument("--dt", type=float, default=sim.DEFAULT_DT, help="sampling step")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="trajectory CSV path")
    p.add_argument("--drift-out", default=None, help="drift JSON path (default <out>.drift.json)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="fit a drift estimate from a trajectory CSV")
    p.add_argument("--traj", required=True)
    p.add_argument("--method", choices=["mle", *CV_METHODS], default="lasso")
    p.add_argument("--lambda", dest="lam", type=penalty, default="cv", help="penalty: number, 'theory' or 'cv'")
    p.add_argument("--truth", default=None, help="optional drift JSON; adds an error/support report")
    p.add_argument("--out", required=True, help="estimate JSON path")
    p.add_argument("--cv-out", default=None, help="CV curve JSON path (with --lambda cv; default <out>.cv.json)")
    _add_config_flags(p, FIT_FIELDS)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("benchmark", help="run a replicated sweep, emit tidy CSV + summary JSON")
    _add_config_flags(p, ExperimentConfig.__dataclass_fields__)
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("finance", help="price CSV -> EMA log-returns -> sigma-aware sparse fit")
    p.add_argument("--prices", required=True, help="CSV with header date,ticker1,...")
    p.add_argument("--span", type=int, default=10, help="EMA span in days")
    p.add_argument("--out", required=True, help="fitted model JSON")
    _add_config_flags(p, FIT_FIELDS)
    p.set_defaults(func=cmd_finance)

    p = sub.add_parser("diagnostics", help="theory diagnostics: RE bracket, deviation exponents")
    p.set_defaults(func=cmd_diagnostics)
    modes = p.add_subparsers(dest="which", required=True, parser_class=full_names)
    p = modes.add_parser("re-constant", help="restricted-eigenvalue bracket of a trajectory")
    p.add_argument("--traj", required=True, help="trajectory CSV")
    p.add_argument("--s", type=int, default=2, help="support size of the s-sparse minimum")
    p.add_argument("--out", required=True)
    p = modes.add_parser("deviation-bounds", help="deviation exponents of a drift's stationary law")
    p.add_argument("--drift", required=True, help="drift JSON")
    p.add_argument("--u", type=_flag_type("list[float]"), default=None,
                   help="comma-separated direction vector; write --u=-0.6,0.8 when the first entry is negative")
    p.add_argument("--r-values", type=_flag_type("list[float]"), default=[0.1, 0.2, 0.5, 1.0],
                   help="comma-separated deviation levels")
    p.add_argument("--out", required=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, MemoryError, GenerationError, IngestionError, NumericError, StabilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
