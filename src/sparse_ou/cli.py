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
import csv
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import metrics, model, modelsel, sim
from .errors import GenerationError, IngestionError, NumericError, StabilityError
from .estimators import (
    SolverOptions,
    adaptive_lasso,
    lasso,
    mle,
    save_estimate_json,
)
from .finance import (
    EmaConfig,
    ema_log_returns,
    estimate_mean_sigma,
    load_prices,
    sample_sigma_trajectory,
    save_finance_model_json,
)
from .stats import LambdaConfig, sufficient_stats, theoretical_lambda

BENCHMARK_COLUMNS = ["method", "d", "T", "dt", "rep", "frobenius", "l1", "f1", "wall_time"]
BENCHMARK_KINDS = ("d_sweep", "t_sweep", "f1_study", "dt_study", "oracle_coverage", "finance")


class UsageError(Exception):
    """Bad flag combination detected after parsing; exits with code 2."""


def _resolve_seed(seed) -> int:
    if seed is not None:
        return int(seed)
    return int(os.environ.get("SPARSE_OU_SEED", "0"))


def _solver_options(args) -> SolverOptions:
    return SolverOptions(
        max_iters=args.max_iters,
        rel_tol=args.rel_tol,
        acceleration=not args.no_acceleration,
    )


def _lambda_grid(args) -> np.ndarray:
    return modelsel.default_lambda_grid(args.grid_size, args.grid_min, args.grid_max)


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-iters", type=int, default=10000, help="solver iteration cap")
    p.add_argument("--rel-tol", type=float, default=1e-7, help="relative objective tolerance")
    p.add_argument("--no-acceleration", action="store_true", help="disable FISTA momentum")


def _add_grid_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--grid-min", type=float, default=1e-2, help="smallest penalty on the grid")
    p.add_argument("--grid-max", type=float, default=1e3, help="largest penalty on the grid")
    p.add_argument("--grid-size", type=int, default=40, help="number of log-spaced grid points")


def _make_drift(kind: str, d: int, s: int, alpha: float, w: float, seed: int) -> model.DriftMatrix:
    if kind == "sparse":
        return model.generate_sparse_drift(d, s, seed)
    if kind == "two-group":
        return model.generate_two_group(d)
    if kind == "shifted-antisym":
        return model.generate_shifted_antisymmetric(d, alpha, w, s, seed)
    raise UsageError(f"unknown drift kind {kind!r}")


def _load_drift(path) -> model.DriftMatrix:
    if str(path).endswith(".json"):
        return model.load_drift_json(path)
    return model.load_drift_csv(path)


# -- simulate ----------------------------------------------------------------


def cmd_simulate(args) -> int:
    if args.d < 1:
        raise UsageError(f"--d must be >= 1, got {args.d}")
    if args.T < args.dt:
        raise UsageError("--T must be at least --dt")
    seed = _resolve_seed(args.seed)
    s = args.s if args.s is not None else max(1, round(0.2 * args.d))
    drift = _make_drift(args.kind, args.d, s, args.alpha, args.w, seed)
    traj = sim.sample_trajectory(drift, args.T, args.dt, seed)
    sim.save_trajectory_csv(args.out, traj)
    drift_out = args.drift_out or (str(args.out) + ".drift.json")
    if str(drift_out).endswith(".csv"):
        model.save_drift_csv(drift_out, drift)
    else:
        model.save_drift_json(drift_out, drift)
    print(f"wrote {traj.states.shape[0]} states to {args.out}, drift to {drift_out}")
    return 0


# -- fit ---------------------------------------------------------------------


def _fit_one(method, stats, lam, gamma, opts):
    if method == "mle":
        return mle(stats)
    if method == "lasso":
        return lasso(stats, lam, opts=opts)
    if method == "adalasso":
        return adaptive_lasso(stats, lam, gamma=gamma, opts=opts)
    raise UsageError(f"unknown method {method!r}")


def cmd_fit(args) -> int:
    traj = sim.load_trajectory_csv(args.traj)
    stats = sufficient_stats(traj)
    opts = _solver_options(args)
    seed = _resolve_seed(args.seed)
    extra = {"method": args.method, "traj": str(args.traj), "seed": seed}

    if args.method == "mle":
        fit = mle(stats)
        extra["lambda_rule"] = "none"
    elif args.lam == "cv":
        method = "adaptive_lasso" if args.method == "adalasso" else "lasso"
        cv = modelsel.cross_validate(traj, method, gamma=args.gamma, grid=_lambda_grid(args), opts=opts)
        fit = cv.best_estimate
        cv_out = args.cv_out or (str(args.out) + ".cv.json")
        modelsel.save_cv_json(cv_out, cv)
        extra["lambda_rule"] = "cv"
        extra["cv_out"] = str(cv_out)
    else:
        if args.lam == "theory":
            cfg = LambdaConfig(gamma=args.theory_gamma, epsilon0=args.theory_eps0)
            lam = theoretical_lambda(stats, cfg)
            extra["lambda_rule"] = "theory"
        else:
            try:
                lam = float(args.lam)
            except ValueError:
                raise UsageError(f"--lambda must be a number, 'theory' or 'cv', got {args.lam!r}")
            extra["lambda_rule"] = "fixed"
        fit = _fit_one(args.method, stats, lam, args.gamma, opts)

    if args.truth:
        truth = _load_drift(args.truth)
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
    traj = sim.load_trajectory_csv(args.traj)
    method = "adaptive_lasso" if args.method == "adalasso" else "lasso"
    cv = modelsel.cross_validate(
        traj, method, gamma=args.gamma, grid=_lambda_grid(args), opts=_solver_options(args)
    )
    modelsel.save_cv_json(args.out, cv)
    print(f"best lambda {cv.best_lambda:.6g} -> {args.out}")
    return 0


# -- benchmark ---------------------------------------------------------------


@dataclass
class ExperimentConfig:
    kind: str
    d_values: list = field(default_factory=lambda: [10])
    t_values: list = field(default_factory=lambda: [10.0])
    dt_values: list = field(default_factory=lambda: [1.0, 0.1, 0.01, 0.001])
    dt: float = 0.01
    s_rule: float = 0.2
    reps: int = 20
    seed: int = 0
    gamma: float = 1.0
    grid_min: float = 1e-2
    grid_max: float = 1e3
    grid_size: int = 40
    rel_tol: float = 1e-7
    max_iters: int = 10000
    jobs: int = 1
    out: str = "benchmark.csv"

    def grid(self) -> np.ndarray:
        return modelsel.default_lambda_grid(self.grid_size, self.grid_min, self.grid_max)

    def opts(self) -> SolverOptions:
        return SolverOptions(max_iters=self.max_iters, rel_tol=self.rel_tol, acceleration=True)

    def to_dict(self) -> dict:
        return {k: (list(v) if isinstance(v, (list, tuple)) else v) for k, v in self.__dict__.items()}


def _sparsity(cfg: ExperimentConfig, d: int) -> int:
    return max(1, round(cfg.s_rule * d))


def _fit_rows(cfg: ExperimentConfig, drift, traj, d, T, dt, rep) -> list:
    """Fit MLE / CV-Lasso / CV-Adaptive-Lasso and score one replication."""
    stats = sufficient_stats(traj)
    rows = []
    for method in ("mle", "lasso", "adalasso"):
        t0 = time.perf_counter()
        if method == "mle":
            fit = mle(stats)
        else:
            cv_method = "adaptive_lasso" if method == "adalasso" else "lasso"
            cv = modelsel.cross_validate(traj, cv_method, gamma=cfg.gamma, grid=cfg.grid(), opts=cfg.opts())
            fit = cv.best_estimate
        wall = time.perf_counter() - t0
        err = metrics.error_report(fit.matrix, drift, stats)
        supp = metrics.support_report(fit.matrix, drift)
        rows.append(
            {
                "method": method,
                "d": d,
                "T": T,
                "dt": dt,
                "rep": rep,
                "frobenius": err.frobenius,
                "l1": err.l1,
                "f1": supp.f1,
                "wall_time": wall,
            }
        )
    return rows


def _sweep_task(payload) -> list:
    """One (sweep point, replication) unit of work; must stay picklable."""
    cfg, drift, d, T, dt, rep, rep_seed = payload
    if cfg.kind == "dt_study":
        dt_fine = min(cfg.dt_values)
        fine = sim.sample_trajectory(drift, T, dt_fine, rep_seed)
        rows = []
        for dt_k in sorted(cfg.dt_values, reverse=True):
            sub = sim.subsample(fine, int(round(dt_k / dt_fine)))
            rows.extend(_fit_rows(cfg, drift, sub, d, T, dt_k, rep))
        return rows
    traj = sim.sample_trajectory(drift, T, dt, rep_seed)
    return _fit_rows(cfg, drift, traj, d, T, dt, rep)


def _oracle_task(payload) -> list:
    cfg, drift, d, T, rep, rep_seed = payload
    traj = sim.sample_trajectory(drift, T, cfg.dt, rep_seed)
    stats = sufficient_stats(traj)
    lam_cfg = LambdaConfig(gamma=2.0, epsilon0=0.1)
    lam = theoretical_lambda(stats, lam_cfg)
    t0 = time.perf_counter()
    fit = lasso(stats, lam, opts=cfg.opts())
    wall = time.perf_counter() - t0
    err = metrics.error_report(fit.matrix, drift, stats)
    supp = metrics.support_report(fit.matrix, drift)
    bound = metrics.oracle_bound(drift, lam, lam_cfg.gamma, _sparsity(cfg, d))
    return [
        {
            "method": "lasso_theory",
            "d": d,
            "T": T,
            "dt": cfg.dt,
            "rep": rep,
            "frobenius": err.frobenius,
            "l1": err.l1,
            "f1": supp.f1,
            "wall_time": wall,
            "_bound_holds": bool(err.empirical <= bound),
        }
    ]


def _finance_task(payload) -> list:
    cfg, a_true, m_true, sigma_true, truth, d, T, rep, rep_seed = payload
    traj = sample_sigma_trajectory(a_true, m_true, sigma_true, T, cfg.dt, rep_seed)
    m_hat, sigma_hat = estimate_mean_sigma(traj)
    t0 = time.perf_counter()
    cv = modelsel.cross_validate_sigma(traj, m_hat, sigma_hat, gamma=cfg.gamma, grid=cfg.grid(), opts=cfg.opts())
    wall = time.perf_counter() - t0
    stats = sufficient_stats(sim.Trajectory(dt=traj.dt, states=traj.states - m_hat))
    err = metrics.error_report(cv.best_estimate.matrix, truth, stats)
    supp = metrics.support_report(cv.best_estimate.matrix, truth)
    s_true = sigma_true @ sigma_true.T
    s_rel = float(np.linalg.norm(sigma_hat @ sigma_hat.T - s_true) / np.linalg.norm(s_true))
    return [
        {
            "method": "sigma_adalasso_cv",
            "d": d,
            "T": T,
            "dt": cfg.dt,
            "rep": rep,
            "frobenius": err.frobenius,
            "l1": err.l1,
            "f1": supp.f1,
            "wall_time": wall,
            "_m_err": float(np.linalg.norm(m_hat - m_true)),
            "_sigma_rel_err": s_rel,
        }
    ]


def _run_tasks(task_fn, payloads, jobs: int) -> list:
    if jobs <= 1:
        results = [task_fn(p) for p in payloads]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(task_fn, payloads))
    return [row for rows in results for row in rows]


def run_benchmark(cfg: ExperimentConfig) -> dict:
    """Execute the configured sweep; returns the summary dict it also writes."""
    if cfg.kind not in BENCHMARK_KINDS:
        raise UsageError(f"unknown benchmark kind {cfg.kind!r}")
    if cfg.reps < 1:
        raise UsageError("reps must be >= 1")
    payloads = []
    task_fn = _sweep_task
    index = 0

    if cfg.kind in ("d_sweep", "t_sweep", "f1_study", "dt_study"):
        if cfg.kind == "d_sweep":
            points = [(d, cfg.t_values[0]) for d in cfg.d_values]
        elif cfg.kind == "t_sweep":
            points = [(cfg.d_values[0], T) for T in cfg.t_values]
        else:
            points = [(cfg.d_values[0], cfg.t_values[0])]
        for d, T in points:
            drift = model.generate_sparse_drift(int(d), _sparsity(cfg, int(d)), sim.derive_seed(cfg.seed, 900000 + int(d)))
            for rep in range(cfg.reps):
                payloads.append((cfg, drift, int(d), float(T), cfg.dt, rep, sim.derive_seed(cfg.seed, index)))
                index += 1
    elif cfg.kind == "oracle_coverage":
        task_fn = _oracle_task
        d = int(cfg.d_values[0])
        T = float(cfg.t_values[0])
        base = model.generate_sparse_drift(d, _sparsity(cfg, d), sim.derive_seed(cfg.seed, 900000 + d))
        drift = model.symmetrized_drift(base)
        for rep in range(cfg.reps):
            payloads.append((cfg, drift, d, T, rep, sim.derive_seed(cfg.seed, index)))
            index += 1
    else:  # finance
        task_fn = _finance_task
        d = int(cfg.d_values[0])
        T = float(cfg.t_values[0])
        truth = model.generate_sparse_drift(d, _sparsity(cfg, d), sim.derive_seed(cfg.seed, 900000 + d))
        rng = np.random.default_rng(sim.derive_seed(cfg.seed, 900002))
        m_true = rng.normal(size=d) * 0.5
        w = rng.normal(size=(d, d))
        sigma_true = np.linalg.cholesky(0.02 * np.eye(d) + 0.01 * (w @ w.T) / d)
        for rep in range(cfg.reps):
            payloads.append((cfg, truth.matrix, m_true, sigma_true, truth, d, T, rep, sim.derive_seed(cfg.seed, index)))
            index += 1

    rows = _run_tasks(task_fn, payloads, cfg.jobs)

    extra_cols = sorted({k for row in rows for k in row if k.startswith("_")})
    with open(cfg.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=BENCHMARK_COLUMNS + extra_cols, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)

    summary = {"config": cfg.to_dict(), "groups": {}}
    keys = sorted({(r["method"], r["d"], r["T"], r["dt"]) for r in rows})
    for method, d, T, dt in keys:
        grp = [r for r in rows if (r["method"], r["d"], r["T"], r["dt"]) == (method, d, T, dt)]
        entry = {"n": len(grp)}
        for col in ("frobenius", "l1", "f1", "wall_time"):
            vals = np.array([r[col] for r in grp])
            entry[f"{col}_mean"] = float(vals.mean())
            entry[f"{col}_std"] = float(vals.std(ddof=1)) if len(vals) > 1 else 0.0
        for col in extra_cols:
            vals = np.array([float(r[col]) for r in grp])
            entry[f"{col.lstrip('_')}_mean"] = float(vals.mean())
        summary["groups"][f"{method}|d={d}|T={T}|dt={dt}"] = entry
    with open(str(cfg.out) + ".summary.json", "w") as fh:
        json.dump(summary, fh, indent=2)
    return summary


def cmd_benchmark(args) -> int:
    file_cfg = {}
    if args.config:
        with open(args.config) as fh:
            file_cfg = json.load(fh)
    merged = {}
    for key in ExperimentConfig.__dataclass_fields__:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
        elif key in file_cfg:
            merged[key] = file_cfg[key]
    if "kind" not in merged:
        raise UsageError("benchmark needs --kind (or 'kind' in --config)")
    merged["seed"] = _resolve_seed(merged.get("seed"))
    if merged.get("jobs") in (None, 0):
        merged["jobs"] = os.cpu_count() or 1
    cfg = ExperimentConfig(**merged)
    summary = run_benchmark(cfg)
    print(f"wrote {cfg.out} and {cfg.out}.summary.json ({len(summary['groups'])} groups)")
    return 0


# -- finance -----------------------------------------------------------------


def cmd_finance(args) -> int:
    panel = load_prices(args.prices)
    traj = ema_log_returns(panel, EmaConfig(span=args.span))
    m_hat, sigma_hat = estimate_mean_sigma(traj)
    cv = modelsel.cross_validate_sigma(
        traj, m_hat, sigma_hat, gamma=args.gamma, grid=_lambda_grid(args), opts=_solver_options(args)
    )
    save_finance_model_json(args.out, panel.tickers, m_hat, sigma_hat, cv.best_estimate.matrix, cv.best_lambda)
    print(f"fitted {len(panel.tickers)} tickers, lambda {cv.best_lambda:.6g} -> {args.out}")
    return 0


# -- diagnostics -------------------------------------------------------------


def cmd_diagnostics(args) -> int:
    seed = _resolve_seed(args.seed)
    payload = {"which": args.which, "seed": seed}
    if args.which == "re-constant":
        traj = sim.load_trajectory_csv(args.traj)
        stats = sufficient_stats(traj)
        value = metrics.re_constant(stats, args.s, args.c0, n_probes=args.probes, seed=seed)
        payload.update({"s": args.s, "c0": args.c0, "re_constant": value})
        if stats.dim <= 12:
            payload["restricted_sparse_min"] = metrics.restricted_sparse_min(stats, args.s)
    elif args.which == "deviation-bounds":
        drift = _load_drift(args.drift)
        u = np.zeros(drift.dim)
        u[0] = 1.0
        if args.u:
            u = np.asarray([float(x) for x in args.u.split(",")])
        r_values = [float(x) for x in args.r_values.split(",")]
        payload["curves"] = [
            dict(zip(("R", "h1", "h2"), (r, *metrics.deviation_bounds(r, u, drift.stationary_cov))))
            for r in r_values
        ]
    elif args.which == "oracle-coverage":
        if args.drift:
            truth = _load_drift(args.drift)
        else:
            truth = model.symmetrized_drift(model.generate_sparse_drift(args.d, args.s, seed))
        cfg = LambdaConfig(gamma=args.theory_gamma, epsilon0=args.theory_eps0)
        cov = metrics.oracle_coverage(truth, truth.dim, args.s, args.T, args.reps, cfg, seed, dt=args.dt)
        payload.update({"coverage": cov, "T": args.T, "reps": args.reps})
    else:
        raise UsageError(f"unknown diagnostic {args.which!r}")
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
    p.add_argument("--s", type=int, default=None, help="row sparsity (default: 0.2 d)")
    p.add_argument("--alpha", type=float, default=0.5, help="diagonal level for shifted-antisym")
    p.add_argument("--w", type=float, default=1.0, help="coupling weight for shifted-antisym")
    p.add_argument("--T", type=float, required=True, help="horizon")
    p.add_argument("--dt", type=float, default=0.01, help="sampling step")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="trajectory CSV path")
    p.add_argument("--drift-out", default=None, help="drift output path (.csv or .json)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="fit a drift estimate from a trajectory CSV")
    p.add_argument("--traj", required=True)
    p.add_argument("--method", choices=["mle", "lasso", "adalasso"], default="lasso")
    p.add_argument("--lambda", dest="lam", default="cv", help="penalty: number, 'theory' or 'cv'")
    p.add_argument("--gamma", type=float, default=1.0, help="adaptive weight exponent")
    p.add_argument("--theory-gamma", type=float, default=2.0, help="gamma in the theoretical penalty")
    p.add_argument("--theory-eps0", type=float, default=0.1, help="epsilon0 in the theoretical penalty")
    p.add_argument("--truth", default=None, help="optional drift file; adds an error/support report")
    p.add_argument("--zero-tol", type=float, default=1e-10)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="estimate JSON path")
    p.add_argument("--cv-out", default=None, help="CV result JSON path (with --lambda cv)")
    _add_grid_flags(p)
    _add_solver_flags(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("cv", help="cross-validate the penalty level")
    p.add_argument("--traj", required=True)
    p.add_argument("--method", choices=["lasso", "adalasso"], default="lasso")
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--out", required=True)
    _add_grid_flags(p)
    _add_solver_flags(p)
    p.set_defaults(func=cmd_cv)

    p = sub.add_parser("benchmark", help="run a replicated sweep, emit tidy CSV + summary JSON")
    p.add_argument("--config", default=None, help="JSON config file; flags override its keys")
    p.add_argument("--kind", choices=list(BENCHMARK_KINDS), default=None)
    p.add_argument("--d-values", dest="d_values", type=lambda s: [int(x) for x in s.split(",")], default=None)
    p.add_argument("--t-values", dest="t_values", type=lambda s: [float(x) for x in s.split(",")], default=None)
    p.add_argument("--dt-values", dest="dt_values", type=lambda s: [float(x) for x in s.split(",")], default=None)
    p.add_argument("--dt", type=float, default=None, help="observation step (default 0.01)")
    p.add_argument("--s-rule", dest="s_rule", type=float, default=None, help="row sparsity as a fraction of d")
    p.add_argument("--reps", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--grid-min", dest="grid_min", type=float, default=None)
    p.add_argument("--grid-max", dest="grid_max", type=float, default=None)
    p.add_argument("--grid-size", dest="grid_size", type=int, default=None)
    p.add_argument("--rel-tol", dest="rel_tol", type=float, default=None)
    p.add_argument("--max-iters", dest="max_iters", type=int, default=None)
    p.add_argument("--jobs", type=int, default=None, help="worker processes (0 = all cores)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("finance", help="price CSV -> EMA log-returns -> sigma-aware sparse fit")
    p.add_argument("--prices", required=True, help="CSV with header date,ticker1,...")
    p.add_argument("--span", type=int, default=10, help="EMA span in days")
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--out", required=True, help="fitted model JSON")
    _add_grid_flags(p)
    _add_solver_flags(p)
    p.set_defaults(func=cmd_finance)

    p = sub.add_parser("diagnostics", help="theory diagnostics: RE probe, deviation exponents, bound coverage")
    p.add_argument("--which", choices=["re-constant", "deviation-bounds", "oracle-coverage"], required=True)
    p.add_argument("--traj", default=None, help="trajectory CSV (re-constant)")
    p.add_argument("--drift", default=None, help="drift file (deviation-bounds, oracle-coverage)")
    p.add_argument("--d", type=int, default=8)
    p.add_argument("--s", type=int, default=2)
    p.add_argument("--c0", type=float, default=3.0)
    p.add_argument("--probes", type=int, default=200)
    p.add_argument("--u", default=None, help="comma-separated direction vector")
    p.add_argument("--r-values", default="0.1,0.2,0.5,1.0", help="comma-separated deviation levels")
    p.add_argument("--T", type=float, default=200.0)
    p.add_argument("--dt", type=float, default=0.01)
    p.add_argument("--reps", type=int, default=20)
    p.add_argument("--theory-gamma", type=float, default=2.0)
    p.add_argument("--theory-eps0", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
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
