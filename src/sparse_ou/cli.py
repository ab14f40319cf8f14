"""Command-line interface: simulate, fit, cross-validate, benchmark sweeps,
the finance pipeline and theory diagnostics.

Outputs are data files (tidy CSV + JSON summaries), never plots.  Every
run is reproducible from its flags: replication seeds derive
deterministically from the base seed, so results do not depend on how
work is scheduled across processes.  The environment variable
SPARSE_OU_SEED provides the base seed when --seed is omitted.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

import numpy as np

from . import metrics, model, modelsel, sim
from .errors import GenerationError, IngestionError, NumericError, StabilityError, UsageError
from .estimators import adaptive_lasso, lasso, mle, save_estimate_json
from .experiments import CV_METHODS, ExperimentConfig, _typed, fit_settings, row_sparsity, run_benchmark
from .finance import (
    ema_log_returns,
    estimate_mean_sigma,
    load_prices,
    save_finance_model_json,
)
from .stats import LambdaConfig, sufficient_stats, theoretical_lambda


def _resolve_seed(seed) -> int:
    """The base seed: ``seed`` if given, else SPARSE_OU_SEED, else 0; UsageError unless it is an integer >= 0."""
    if seed is None:
        seed = os.environ.get("SPARSE_OU_SEED", "0")
        seed = int(seed) if seed.strip().isdecimal() else seed
    if not _typed(seed, "int") or seed < 0:
        raise UsageError(f"the seed (--seed, 'seed' or SPARSE_OU_SEED) must be an integer >= 0, got {seed!r}")
    return seed


def _lambda_config(args) -> LambdaConfig:
    return LambdaConfig(gamma=args.theory_gamma, epsilon0=args.theory_eps0)


def _add_fit_flags(p: argparse.ArgumentParser) -> None:
    """The adaptive exponent, the CV grid and the solver budget, with the defaults of a benchmark sweep."""
    p.add_argument("--gamma", type=float, default=ExperimentConfig.gamma, help="adaptive weight exponent")
    p.add_argument("--grid-min", type=float, default=ExperimentConfig.grid_min, help="smallest penalty on the grid")
    p.add_argument("--grid-max", type=float, default=ExperimentConfig.grid_max, help="largest penalty on the grid")
    p.add_argument("--grid-size", type=int, default=ExperimentConfig.grid_size, help="number of log-spaced penalties")
    p.add_argument("--max-iters", type=int, default=ExperimentConfig.max_iters, help="solver iteration cap")
    p.add_argument("--rel-tol", type=float, default=ExperimentConfig.rel_tol, help="stop at KKT residual 10*rel_tol*max|PG|")


def _add_theory_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--theory-gamma", type=float, default=LambdaConfig.gamma, help="gamma of the theory penalty")
    p.add_argument("--theory-eps0", type=float, default=LambdaConfig.epsilon0, help="epsilon0 of the theory penalty")


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
    seed = _resolve_seed(args.seed)
    s = args.s if args.s is not None else row_sparsity(args.d)
    drift = _make_drift(args.kind, args.d, s, args.alpha, args.w, seed)
    traj = sim.sample_trajectory(drift, args.T, args.dt, seed)
    sim.save_trajectory_csv(args.out, traj)
    drift_out = args.drift_out or (str(args.out) + ".drift.json")
    model.save_drift_json(drift_out, drift)
    print(f"wrote {traj.states.shape[0]} states to {args.out}, drift to {drift_out}")
    return 0


# -- fit ---------------------------------------------------------------------


def cmd_fit(args) -> int:
    grid, opts, gamma = fit_settings(args)
    traj = sim.load_trajectory_csv(args.traj)
    truth = model.load_drift_json(args.truth) if args.truth else None  # read before any output is written
    stats = sufficient_stats(traj)
    seed = _resolve_seed(args.seed)
    extra = {"method": args.method, "traj": str(args.traj), "seed": seed}

    if args.method == "mle":
        fit = mle(stats)
        extra["lambda_rule"] = "none"
    elif args.lam == "cv":
        method = CV_METHODS[args.method]
        cv = modelsel.cross_validate(traj, method, gamma=gamma, grid=grid, opts=opts)
        fit = cv.best_estimate
        cv_out = args.cv_out or (str(args.out) + ".cv.json")
        modelsel.save_cv_json(cv_out, cv)
        extra["lambda_rule"] = "cv"
        extra["cv_out"] = str(cv_out)
    else:
        if args.lam == "theory":
            lam = theoretical_lambda(stats, _lambda_config(args))
            extra["lambda_rule"] = "theory"
        else:
            lam = args.lam
            extra["lambda_rule"] = "fixed"
        if args.method == "adalasso":
            fit = adaptive_lasso(stats, lam, gamma=gamma, opts=opts)
        else:
            fit = lasso(stats, lam, opts=opts)

    if truth is not None:
        err = metrics.error_report(fit.matrix, truth, stats)
        supp = metrics.support_report(fit.matrix, truth, zero_tol=args.zero_tol)
        extra["report"] = {
            "frobenius": err.frobenius,
            "l1": err.l1,
            "empirical": err.empirical,
            "f1": supp.f1,
            "precision": supp.precision,
            "recall": supp.recall,
        }
    save_estimate_json(args.out, fit, extra=extra)
    print(f"wrote estimate to {args.out}")
    return 0


# -- cv ----------------------------------------------------------------------


def cmd_cv(args) -> int:
    grid, opts, gamma = fit_settings(args)
    traj = sim.load_trajectory_csv(args.traj)
    cv = modelsel.cross_validate(traj, CV_METHODS[args.method], gamma=gamma, grid=grid, opts=opts)
    modelsel.save_cv_json(args.out, cv)
    print(f"best lambda {cv.best_lambda:.6g} -> {args.out}")
    return 0


# -- benchmark ---------------------------------------------------------------


def cmd_benchmark(args) -> int:
    file_cfg = {}
    if args.config:
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise UsageError("--config must hold a JSON object")
        unknown = sorted(set(file_cfg) - set(ExperimentConfig.__dataclass_fields__))
        if unknown:
            raise UsageError(f"unknown --config keys {unknown}; the keys are the ExperimentConfig fields")
    flags = {k: v for k, v in vars(args).items() if k in ExperimentConfig.__dataclass_fields__ and v is not None}
    merged = {**file_cfg, **flags}
    if "kind" not in merged:
        raise UsageError("benchmark needs --kind (or 'kind' in --config)")
    merged["seed"] = _resolve_seed(merged.get("seed"))
    merged.setdefault("jobs", 0)
    cfg = ExperimentConfig(**merged)
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
    save_finance_model_json(args.out, panel.tickers, m_hat, sigma_hat, cv.best_estimate.matrix, cv.best_lambda)
    print(f"fitted {len(panel.tickers)} tickers, lambda {cv.best_lambda:.6g} -> {args.out}")
    return 0


# -- diagnostics -------------------------------------------------------------


def cmd_diagnostics(args) -> int:
    seed = _resolve_seed(args.seed)
    payload = {"which": args.which, "seed": seed}
    needed = {"re-constant": "traj", "deviation-bounds": "drift"}.get(args.which)
    if needed and getattr(args, needed) is None:
        raise UsageError(f"--which {args.which} needs --{needed}")
    if args.which == "re-constant":
        stats = sufficient_stats(sim.load_trajectory_csv(args.traj))
        model._check_sparsity(args.s, stats.dim)
        payload.update({"s": args.s, "eigen_floor": metrics.eigen_floor(stats)})
        if stats.dim <= metrics.MAX_ENUMERATION_DIM:
            payload["restricted_sparse_min"] = metrics.restricted_sparse_min(stats, args.s)
    elif args.which == "deviation-bounds":
        drift = model.load_drift_json(args.drift)
        u = np.zeros(drift.dim)
        u[0] = 1.0
        if args.u:
            u = np.asarray(args.u)
        payload["curves"] = [
            dict(zip(("R", "h1", "h2"), (r, *metrics.deviation_bounds(r, u, drift.stationary_cov))))
            for r in args.r_values
        ]
    else:  # oracle-coverage
        if args.drift:
            truth = model.load_drift_json(args.drift)
        else:
            truth = model.symmetrized_drift(model.generate_sparse_drift(args.d, args.s, seed))
        cov = metrics.oracle_coverage(truth, args.T, args.reps, _lambda_config(args), seed, dt=args.dt)
        payload.update({"coverage": cov, "T": args.T, "reps": args.reps})
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2)
    print(f"wrote {args.out}")
    return 0


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparse-ou",
        description="Simulation and sparse drift estimation for mean-reverting diffusions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a drift and sample a trajectory")
    p.add_argument("--kind", choices=["sparse", "two-group", "shifted-antisym"], default="sparse")
    p.add_argument("--d", type=int, required=True, help="process dimension")
    p.add_argument("--s", type=int, default=None, help=f"row sparsity (default {ExperimentConfig.s_rule:g} d)")
    p.add_argument("--alpha", type=float, default=0.5, help="diagonal level for shifted-antisym")
    p.add_argument("--w", type=float, default=1.0, help="coupling weight for shifted-antisym")
    p.add_argument("--T", type=float, required=True, help="horizon")
    p.add_argument("--dt", type=float, default=ExperimentConfig.dt, help="sampling step")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="trajectory CSV path")
    p.add_argument("--drift-out", default=None, help="drift JSON path (default <out>.drift.json)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="fit a drift estimate from a trajectory CSV")
    p.add_argument("--traj", required=True)
    p.add_argument("--method", choices=["mle", *CV_METHODS], default="lasso")
    p.add_argument("--lambda", dest="lam", type=penalty, default="cv", help="penalty: number, 'theory' or 'cv'")
    p.add_argument("--truth", default=None, help="optional drift JSON; adds an error/support report")
    p.add_argument("--zero-tol", type=float, default=metrics.DEFAULT_ZERO_TOL)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="estimate JSON path")
    p.add_argument("--cv-out", default=None, help="CV result JSON path (with --lambda cv)")
    _add_fit_flags(p)
    _add_theory_flags(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("cv", help="cross-validate the penalty level")
    p.add_argument("--traj", required=True)
    p.add_argument("--method", choices=list(CV_METHODS), default="lasso")
    p.add_argument("--out", required=True)
    _add_fit_flags(p)
    p.set_defaults(func=cmd_cv)

    p = sub.add_parser("benchmark", help="run a replicated sweep, emit tidy CSV + summary JSON")
    p.add_argument("--config", default=None, help="JSON config file; flags override its keys")
    for f in fields(ExperimentConfig):
        flag = "--" + f.name.replace("_", "-")
        p.add_argument(flag, dest=f.name, type=_flag_type(f.type), default=None, **f.metadata)
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("finance", help="price CSV -> EMA log-returns -> sigma-aware sparse fit")
    p.add_argument("--prices", required=True, help="CSV with header date,ticker1,...")
    p.add_argument("--span", type=int, default=10, help="EMA span in days")
    p.add_argument("--out", required=True, help="fitted model JSON")
    _add_fit_flags(p)
    p.set_defaults(func=cmd_finance)

    p = sub.add_parser("diagnostics", help="theory diagnostics: RE bracket, deviation exponents, bound coverage")
    p.add_argument("--which", choices=["re-constant", "deviation-bounds", "oracle-coverage"], required=True)
    p.add_argument("--traj", default=None, help="trajectory CSV (re-constant)")
    p.add_argument("--drift", default=None, help="drift JSON (deviation-bounds, oracle-coverage)")
    p.add_argument("--d", type=int, default=8)
    p.add_argument("--s", type=int, default=2, help="re-constant's support size; the generated truth's row sparsity")
    p.add_argument("--u", type=_flag_type("list[float]"), default=None,
                   help="comma-separated direction vector; write --u=-0.6,0.8 when the first entry is negative")
    p.add_argument("--r-values", type=_flag_type("list[float]"), default=[0.1, 0.2, 0.5, 1.0],
                   help="comma-separated deviation levels")
    p.add_argument("--T", type=float, default=200.0)
    p.add_argument("--dt", type=float, default=ExperimentConfig.dt)
    p.add_argument("--reps", type=int, default=20)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    _add_theory_flags(p)
    p.set_defaults(func=cmd_diagnostics)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, GenerationError, IngestionError, NumericError, StabilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
