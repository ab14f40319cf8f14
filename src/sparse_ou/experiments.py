"""Replicated Monte Carlo experiments behind ``sparse-ou benchmark``.

Every kind runs every point of ``d_values`` x ``t_values`` in d-major order, so
point i is ``(d_values[i // len(t_values)], t_values[i % len(t_values)])``.  A
replication samples one path at the smallest ``dt_values`` entry, subsamples it
to each entry, largest first, and fits each; the kind decides only what it fits.
Point i, of dimension d, draws its truth from ``derive_seed(seed, 900000 + d)``:
``generate_sparse_drift`` from a sign pattern of ``row_sparsity(d, s_rule)``
entries per row, whose stabilizing shift usually adds the diagonal,
symmetrized for ``oracle_coverage``; for ``finance``, m and Sigma come from
``derive_seed(seed, 900002)``.  Replication r of point i samples its path from
``derive_seed(seed, i * reps + r)``, so scheduling across processes changes no result.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import metrics, model, modelsel, sim
from .errors import UsageError
from .estimators import SolverOptions, _adaptive_gamma, mle
from .finance import estimate_mean_sigma, sample_sigma_trajectory
from .stats import sufficient_stats

BENCHMARK_COLUMNS = ["method", "d", "T", "dt", "rep", "frobenius", "l1", "f1", "wall_time"]
BENCHMARK_KINDS = ("sweep", "oracle_coverage", "finance")
CV_METHODS = {"lasso": "lasso", "adalasso": "adaptive_lasso"}


def _typed(value, type_name: str) -> bool:
    """Whether ``value`` fits a field annotation: str, int, float (any real) or a non-empty list[...]."""
    if type_name.startswith("list["):
        return isinstance(value, (list, tuple)) and len(value) > 0 and all(_typed(x, type_name[5:-1]) for x in value)
    if type_name == "str":
        return isinstance(value, str)
    return isinstance(value, numbers.Integral if type_name == "int" else numbers.Real) and not isinstance(value, bool)


@dataclass
class ExperimentConfig:
    """One sweep; every field is echoed in the summary JSON.  An ill-typed field raises UsageError.

    Each field is the ``sparse-ou benchmark`` flag of its name, and the fields ``fit_settings`` reads are also flags
    of ``fit`` and ``finance``, with the field's default; its ``metadata`` holds the flag's help and choices.
    """

    kind: str = field(metadata={"choices": BENCHMARK_KINDS})
    d_values: list[int] = field(default_factory=lambda: [10])
    t_values: list[float] = field(default_factory=lambda: [10.0])
    dt_values: list[float] = field(default_factory=lambda: [sim.DEFAULT_DT], metadata={"help": "observation steps"})
    s_rule: float = field(default=0.2, metadata={"help": "row sparsity as a fraction of d"})
    reps: int = 20
    seed: int = 0
    gamma: float = field(default=1.0, metadata={"help": "adaptive weight exponent"})
    grid_min: float = field(default=1e-2, metadata={"help": "smallest penalty on the grid"})
    grid_max: float = field(default=1e3, metadata={"help": "largest penalty on the grid"})
    grid_size: int = field(default=40, metadata={"help": "number of log-spaced penalties"})
    rel_tol: float = field(default=SolverOptions.rel_tol, metadata={"help": "stop at KKT residual 10*rel_tol*max|PG|"})
    max_iters: int = field(default=SolverOptions.max_iters, metadata={"help": "solver iteration cap"})
    jobs: int = field(default=0, metadata={"help": "worker processes, >= 0; 0 runs one per core"})
    out: str = "benchmark.csv"

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not _typed(value, f.type):
                raise UsageError(f"{f.name} must be {f.type.replace('list', 'a non-empty list')}, got {value!r}")
        if self.kind not in BENCHMARK_KINDS:
            raise UsageError(f"unknown benchmark kind {self.kind!r}; the kinds are {', '.join(BENCHMARK_KINDS)}")
        if self.reps < 1:
            raise UsageError("reps must be >= 1")
        if self.seed < 0:
            raise UsageError(f"seed must be >= 0, got {self.seed!r}")
        if not all(d >= 1 for d in self.d_values):
            raise UsageError(f"d_values entries must be >= 1, got {self.d_values!r}")
        for name in ("d_values", "t_values", "dt_values"):
            values = getattr(self, name)
            if len(set(values)) < len(values):
                raise UsageError(f"{name} entries must be distinct, got {values!r}")
        if not 0 < self.s_rule <= 1:
            raise UsageError(f"s_rule must be in (0, 1], got {self.s_rule!r}")
        if self.jobs < 0:
            raise UsageError(f"jobs must be >= 0, got {self.jobs!r}")
        self.jobs = self.jobs or os.cpu_count() or 1
        fit_settings(self)
        # _replicate samples one path of sim.step_count(T, step) steps at the smallest step and subsamples it
        step = min(self.dt_values)
        counts = [sim.step_count(T, step) for T in self.t_values]
        for dt in self.dt_values:
            ratio = dt / step
            if not (ratio < math.inf and abs(ratio - round(ratio)) <= 1e-9 * ratio):
                raise UsageError(f"dt_values must be integer multiples of the smallest, {step!r}; got {dt!r}")
            for T, n in zip(self.t_values, counts):
                if n % round(ratio):
                    raise UsageError(f"t_values entries must round to a positive whole number of steps of each of "
                                     f"{self.dt_values!r}; {T!r} is {n} steps of {step!r}")


def fit_settings(cfg) -> tuple[np.ndarray, SolverOptions, float]:
    """The CV grid, solver options and adaptive exponent that ``cfg``, a config or the parsed fit flags, names."""
    grid = modelsel.default_lambda_grid(cfg.grid_size, cfg.grid_min, cfg.grid_max)
    return grid, SolverOptions(max_iters=cfg.max_iters, rel_tol=cfg.rel_tol), _adaptive_gamma(cfg.gamma)


def row_sparsity(d: int, s_rule: float = ExperimentConfig.s_rule) -> int:
    """The +-1 entries per row of a truth's sign pattern at dimension d: ``max(1, round(s_rule * d))``.

    ``generate_sparse_drift``'s stabilizing shift usually adds the diagonal: a truth row then holds one more entry
    unless its pattern already has it.
    """
    return max(1, round(s_rule * d))


def _truth(cfg: ExperimentConfig, d: int):
    """The ground truth of sweep point d: a drift, or ``(drift, m, Sigma)`` for finance."""
    drift = model.generate_sparse_drift(d, row_sparsity(d, cfg.s_rule), sim.derive_seed(cfg.seed, 900000 + d))
    if cfg.kind == "oracle_coverage":
        # the coverage guarantee is proved for symmetric drifts
        return model.symmetrized_drift(drift)
    if cfg.kind == "finance":
        rng = np.random.default_rng(sim.derive_seed(cfg.seed, 900002))
        m = rng.normal(size=d) * 0.5
        w = rng.normal(size=(d, d))
        return drift, m, np.linalg.cholesky(0.02 * np.eye(d) + 0.01 * (w @ w.T) / d)
    return drift


def _row(method, truth, matrix, d, T, dt, rep, wall, **extra) -> dict:
    """Score ``matrix`` against the truth as one CSV row; ``extra`` adds the kind's ``_`` columns."""
    err = metrics.error_report(matrix, truth, None)
    f1 = metrics.support_report(matrix, truth).f1
    return dict(zip(BENCHMARK_COLUMNS, (method, d, T, dt, rep, err.frobenius, err.l1, f1, wall)), **extra)


def _replicate(payload) -> list:
    """One replication, a payload that must stay picklable: sample once, then fit and score each step."""
    cfg, truth, d, T, rep, rep_seed = payload
    grid, opts, gamma = fit_settings(cfg)
    steps = sorted(cfg.dt_values, reverse=True)
    if cfg.kind == "finance":
        drift, m_true, sigma_true = truth
        fine = sample_sigma_trajectory(drift.matrix, m_true, sigma_true, T, steps[-1], rep_seed)
    else:
        fine = sim.sample_trajectory(truth, T, steps[-1], rep_seed)
    rows = []
    for dt in steps:
        traj = sim.subsample(fine, round(dt / steps[-1]))
        if cfg.kind == "finance":
            m_hat, sigma_hat = estimate_mean_sigma(traj)
            t0 = time.perf_counter()
            cv = modelsel.cross_validate_sigma(traj, m_hat, sigma_hat, gamma=gamma, grid=grid, opts=opts)
            wall = time.perf_counter() - t0
            s_true = sigma_true @ sigma_true.T
            s_rel = float(np.linalg.norm(sigma_hat @ sigma_hat.T - s_true) / np.linalg.norm(s_true))
            rows.append(_row("sigma_adalasso_cv", drift, cv.best_estimate.matrix, d, T, dt, rep, wall,
                             _m_err=float(np.linalg.norm(m_hat - m_true)), _sigma_rel_err=s_rel))
        elif cfg.kind == "oracle_coverage":
            stats = sufficient_stats(traj)
            t0 = time.perf_counter()
            fit, holds, ratio = metrics._oracle_step(truth, stats, opts)
            rows.append(_row("lasso_theory", truth, fit.matrix, d, T, dt, rep, time.perf_counter() - t0,
                             _bound_holds=holds, _bound_ratio=ratio))
        else:
            stats = sufficient_stats(traj)
            t0 = time.perf_counter()
            fit = mle(stats)
            rows.append(_row("mle", truth, fit.matrix, d, T, dt, rep, time.perf_counter() - t0))
            # one split's statistics serve both CV methods; the rows' wall_time leaves them out
            split = [sufficient_stats(part) for part in modelsel.split_trajectory(traj)]
            for method, name in CV_METHODS.items():
                t0 = time.perf_counter()
                cv = modelsel._hold_out(grid, *split, None, gamma if name == "adaptive_lasso" else None, opts, stacklevel=3)
                rows.append(_row(method, truth, cv.best_estimate.matrix, d, T, dt, rep, time.perf_counter() - t0))
    return rows


def run_benchmark(cfg: ExperimentConfig) -> dict:
    """Execute the configured sweep; returns the summary dict it also writes."""
    points = [(d, T) for d in cfg.d_values for T in cfg.t_values]
    payloads = []
    for i, (d, T) in enumerate(points):
        truth = _truth(cfg, int(d))
        for rep in range(cfg.reps):
            rep_seed = sim.derive_seed(cfg.seed, i * cfg.reps + rep)
            payloads.append((cfg, truth, int(d), float(T), rep, rep_seed))

    if cfg.jobs <= 1:
        results = [_replicate(p) for p in payloads]
    else:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            results = list(pool.map(_replicate, payloads))
    rows = [row for rows in results for row in rows]

    extra_cols = sorted({k for row in rows for k in row if k.startswith("_")})
    with open(cfg.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=BENCHMARK_COLUMNS + extra_cols, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)

    groups = {}
    for r in rows:
        groups.setdefault((r["method"], r["d"], r["T"], r["dt"]), []).append(r)
    summary = {"config": asdict(cfg), "groups": {}}
    for (method, d, T, dt), grp in sorted(groups.items()):
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
