"""Replication benchmark for sparse-ou: workloads, tracing, checks and metrics.

One operation is one Monte Carlo replication of a ``sparse-ou benchmark``
kind, assembled from the package's public functions the way
``cli._fit_rows`` (``d_sweep``/``t_sweep``), ``cli._oracle_task``
(``oracle_coverage``) and ``cli._finance_task`` (``finance``) assemble it.
The CLI's process pool and CSV writing are deliberately left out, so
moving the runner out of ``cli.py`` does not change what is measured.

A run either measures end-to-end figures with tracing off, or runs each
replication twice -- untraced, then traced -- and derives per-layer
self-time shares and counts from spans recorded around every call the
benchmark makes into a package layer.  ``run.py`` is the command-line entry point;
``README.md`` records why each workload exists.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import sparse_ou
from sparse_ou import estimators, finance, linops, metrics, model, modelsel, sim, stats

DEFAULT_SEED = 0
# Per-replication tolerance against the stored default-seed reference.  The
# solver stops at rel_tol 1e-7 with a KKT certificate, so a correct change
# of solver moves the Frobenius error by far less than FROB_RTOL; F1 moves
# only when a support entry flips.
F1_ATOL = 0.02
FROB_RTOL = 1e-3
SETUP_REPEATS = 3
IMPORT_REPEATS = 5
TAIL_BEYOND = 10  # rep_s_tail is the highest percentile with this many samples above it

# CLI defaults: --grid-min 1e-2 --grid-max 1e3 --grid-size 40, --rel-tol 1e-7,
# --max-iters 10000, FISTA on, --gamma 1.
GRID = np.logspace(-2.0, 3.0, 40)
OPTS = estimators.SolverOptions(max_iters=10000, rel_tol=1e-7, acceleration=True)
CV_GAMMA = 1.0
THEORY = stats.LambdaConfig(gamma=2.0, epsilon0=0.1)  # as cli._oracle_task

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


@dataclass(frozen=True)
class Params:
    """Problem size of a workload.

    Set-up draws ``truths`` drifts, truth k being the one ``cli.run_benchmark``
    draws for base seed k.  They are part of the workload and do not depend
    on the run's seed, which sets the replication paths: replication r uses
    truth r mod ``truths`` and path seed ``derive_seed(seed, r)``.  Averaging
    over fixed truths keeps a run's figures from hinging on one truth's
    conditioning, and keeps them comparable from seed to seed.
    """

    d: int
    s: int
    T: float
    dt: float = 0.01
    truths: int = 8

    @property
    def steps(self) -> int:
        return int(round(self.T / self.dt))


# -- tracing -------------------------------------------------------------------


class Span:
    __slots__ = ("name", "start", "end", "parent", "rep", "counts")

    def __init__(self, name, start, parent, rep):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.rep = rep
        self.counts = {}

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "rep": self.rep,
            "counts": self.counts,
        }


class _OpenSpan:
    __slots__ = ("tracer", "name")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> dict:
        tr = self.tracer
        parent = tr.stack[-1] if tr.stack else None
        span = Span(self.name, time.perf_counter(), parent, tr.rep)
        tr.stack.append(len(tr.spans))
        tr.spans.append(span)
        return span.counts

    def __exit__(self, *exc) -> bool:
        tr = self.tracer
        tr.spans[tr.stack.pop()].end = time.perf_counter()
        return False


class Tracer:
    """Keeps spans (name, start, end, parent index, replication id) in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.rep: int | None = None

    def span(self, name: str) -> _OpenSpan:
        """Context manager timing one call; yields a dict for the call's counts."""
        return _OpenSpan(self, name)


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> dict:
        return {}

    def __exit__(self, *exc) -> bool:
        return False


class NullTracer:
    """Tracing off: the same call sites, nothing recorded."""

    _span = _NullSpan()

    def span(self, name: str) -> _NullSpan:
        return self._span


def _sampler_cost(n: int, d: int) -> tuple[int, int]:
    """Flops and bytes of ``sample_trajectory``, computed from array sizes.

    Noise: an (n, d) by (d, d) product.  Recursion: n steps of a d x d
    matrix-vector product plus a vector add, reading phi, the state and the
    noise row and writing the next state.  Cache effects are ignored.
    """
    flops = 2 * n * d * d + n * (2 * d * d + d)
    nbytes = 8 * (2 * n * d + d * d) + 8 * n * (d * d + 3 * d)
    return flops, nbytes


def _stats_cost(n: int, d: int) -> tuple[int, int]:
    """Flops and bytes of ``sufficient_stats``: one diff and two d x n by n x d products."""
    flops = n * d + 4 * n * d * d
    nbytes = 8 * (5 * n * d + d)
    return flops, nbytes


# -- replication outcome and checks -------------------------------------------


class ReplicationFailure(Exception):
    """A replication ran but produced an output the benchmark rejects."""


@dataclass
class Outcome:
    scores: dict  # estimator name -> (f1, frobenius)
    main: str  # the workload's headline estimator
    bound_holds: bool
    selected: list  # Estimates whose convergence and finiteness are checked
    probe: dict  # inputs the traced run's probes reuse

    @property
    def f1(self) -> float:
        return self.scores[self.main][0]

    @property
    def frob(self) -> float:
        return self.scores[self.main][1]


def check_outcome(out: Outcome, ref: dict | None) -> None:
    """Raise ReplicationFailure unless the outputs are finite, converged and,
    where a reference exists, within tolerance of it."""
    for fit in out.selected:
        if not np.all(np.isfinite(fit.matrix)):
            raise ReplicationFailure(f"non-finite estimate at lambda {fit.lam:.6g}")
        if not fit.converged:
            raise ReplicationFailure(
                f"selected fit at lambda {fit.lam:.6g} did not converge "
                f"({fit.iterations} iterations, KKT residual {fit.kkt_residual:.3g})"
            )
    if ref is None:
        return
    for name, (f1, frob) in out.scores.items():
        f1_ref, frob_ref = ref[name]
        if abs(f1 - f1_ref) > F1_ATOL:
            raise ReplicationFailure(f"{name} F1 {f1!r} differs from reference {f1_ref!r}")
        if abs(frob - frob_ref) > FROB_RTOL * abs(frob_ref):
            raise ReplicationFailure(f"{name} Frobenius error {frob!r} differs from reference {frob_ref!r}")


def _oracle_rhs(lam: float, kappa: float, d: int, s: int) -> float:
    """Empirical-norm oracle bound (1 + gamma) / (gamma kappa) * lambda * sqrt(d s)."""
    return (1.0 + THEORY.gamma) / (THEORY.gamma * kappa) * lam * math.sqrt(d * s)


def _kappa(truth: model.DriftMatrix) -> float:
    return math.sqrt(float(np.linalg.eigvalsh(truth.stationary_cov)[0]) / 2.0)


def _theory_lambda(tr, st) -> float:
    with tr.span("stats.theoretical_lambda"):
        return stats.theoretical_lambda(st, THEORY)


def _score(tr, fits: dict, truth, st, main: str, lam_theory: float, kappa: float, d: int, s: int):
    """Score every fit; test the oracle bound on the main one at the theory penalty."""
    with tr.span("metrics.score"):
        scores = {}
        for name, fit in fits.items():
            err = metrics.error_report(fit.matrix, truth, st)
            supp = metrics.support_report(fit.matrix, truth)
            scores[name] = (supp.f1, err.frobenius)
            if name == main:
                holds = err.empirical <= _oracle_rhs(lam_theory, kappa, d, s)
    return scores, bool(holds)


def _zero_frac(grad: np.ndarray, weights: np.ndarray | None) -> float:
    """Share of GRID where A = 0 already meets KKT: |grad| <= lambda * W entrywise."""
    w = 1.0 if weights is None else weights
    return float(np.mean([np.all(np.abs(grad) <= lam * w) for lam in GRID]))


def _adaptive_weights(mle_matrix: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.minimum(np.abs(mle_matrix) ** (-CV_GAMMA), estimators.WEIGHT_CAP)


# -- workloads ------------------------------------------------------------------


def _cli_sparse_truth(p: Params, base_seed: int) -> model.DriftMatrix:
    """The truth ``cli.run_benchmark`` draws for this base seed."""
    return model.generate_sparse_drift(p.d, p.s, sim.derive_seed(base_seed, 900000 + p.d))


class CvPath:
    """d_sweep / t_sweep replication: sample, stats, MLE, CV Lasso, CV Adaptive Lasso, score."""

    name = "cv_path"
    params = Params(d=40, s=8, T=100.0)
    tiny = Params(d=6, s=2, T=5.0, truths=2)

    def setup(self, p: Params, tr) -> dict:
        with tr.span("model.generate"):
            truths = [_cli_sparse_truth(p, k) for k in range(p.truths)]
        with tr.span("sim.transition_kernel"):
            kernels = [sim.transition_kernel(t, p.dt) for t in truths]
        return {"truths": truths, "kernels": kernels, "kappas": [_kappa(t) for t in truths]}

    def replicate(self, p: Params, state: dict, seed: int, r: int, tr) -> Outcome:
        k = r % p.truths
        truth = state["truths"][k]
        with tr.span("sim.sample_trajectory") as c:
            traj = sim.sample_trajectory(truth, p.T, p.dt, sim.derive_seed(seed, r), kernel=state["kernels"][k])
            c["steps"] = p.steps
            c["flops_computed"], c["bytes_computed"] = _sampler_cost(p.steps, p.d)
        with tr.span("stats.sufficient_stats") as c:
            st = stats.sufficient_stats(traj)
            c["flops_computed"], c["bytes_computed"] = _stats_cost(p.steps, p.d)
        with tr.span("estimators.mle"):
            fit_mle = estimators.mle(st)
        with tr.span("modelsel.cross_validate.lasso"):
            cv_lasso = modelsel.cross_validate(traj, "lasso", gamma=CV_GAMMA, grid=GRID, opts=OPTS)
        with tr.span("modelsel.cross_validate.adaptive_lasso"):
            cv_ada = modelsel.cross_validate(traj, "adaptive_lasso", gamma=CV_GAMMA, grid=GRID, opts=OPTS)
        fits = {"mle": fit_mle, "lasso": cv_lasso.best_estimate, "adalasso": cv_ada.best_estimate}
        lam_theory = _theory_lambda(tr, st)
        scores, holds = _score(tr, fits, truth, st, "adalasso", lam_theory, state["kappas"][k], p.d, p.s)
        return Outcome(
            scores=scores,
            main="adalasso",
            bound_holds=holds,
            selected=list(fits.values()),
            probe={"traj": traj, "best": [cv_lasso.best_estimate, cv_ada.best_estimate]},
        )

    def probe(self, p: Params, out: Outcome, tr) -> None:
        train, _ = modelsel.split_trajectory(out.probe["traj"])
        train_st = stats.sufficient_stats(train)
        best_lasso = out.probe["best"][0]
        with tr.span("estimators.lasso_cold") as c:
            cold = estimators.lasso(train_st, best_lasso.lam, opts=OPTS)
            c["iterations"] = cold.iterations
            c["kkt_residual"] = cold.kkt_residual
        with tr.span("modelsel.grid_zero") as c:
            weights = _adaptive_weights(estimators.mle(train_st).matrix)
            c["zero_frac"] = 0.5 * (_zero_frac(train_st.g_hat, None) + _zero_frac(train_st.g_hat, weights))


class LongPath:
    """oracle_coverage replication: long path, one FISTA Lasso at the theory penalty."""

    name = "long_path"
    params = Params(d=10, s=2, T=1000.0)
    tiny = Params(d=4, s=1, T=100.0, truths=2)

    def setup(self, p: Params, tr) -> dict:
        truths = []
        with tr.span("model.generate"):
            for k in range(p.truths):
                # symmetrized as cli.run_benchmark: the coverage guarantee is proved for symmetric drifts
                base = _cli_sparse_truth(p, k)
                sym = 0.5 * (base.matrix + base.matrix.T)
                shift = max(0.0, -float(np.linalg.eigvalsh(sym)[0])) + 0.5
                truths.append(model.make_drift(sym + shift * np.eye(p.d)))
        with tr.span("sim.transition_kernel"):
            kernels = [sim.transition_kernel(t, p.dt) for t in truths]
        return {"truths": truths, "kernels": kernels, "kappas": [_kappa(t) for t in truths]}

    def replicate(self, p: Params, state: dict, seed: int, r: int, tr) -> Outcome:
        k = r % p.truths
        truth = state["truths"][k]
        with tr.span("sim.sample_trajectory") as c:
            traj = sim.sample_trajectory(truth, p.T, p.dt, sim.derive_seed(seed, r), kernel=state["kernels"][k])
            c["steps"] = p.steps
            c["flops_computed"], c["bytes_computed"] = _sampler_cost(p.steps, p.d)
        with tr.span("stats.sufficient_stats") as c:
            st = stats.sufficient_stats(traj)
            c["flops_computed"], c["bytes_computed"] = _stats_cost(p.steps, p.d)
        lam = _theory_lambda(tr, st)
        with tr.span("estimators.lasso") as c:
            fit = estimators.lasso(st, lam, opts=OPTS)
            c["iterations"] = fit.iterations
        scores, holds = _score(tr, {"lasso_theory": fit}, truth, st, "lasso_theory", lam, state["kappas"][k], p.d, p.s)
        return Outcome(scores=scores, main="lasso_theory", bound_holds=holds, selected=[fit], probe={})

    def probe(self, p: Params, out: Outcome, tr) -> None:
        pass


class FinanceSigma:
    """finance replication: Sigma-model path, (m, Sigma) estimate, Sigma-aware CV, score."""

    name = "finance_sigma"
    params = Params(d=40, s=8, T=100.0)
    tiny = Params(d=6, s=2, T=5.0, truths=2)

    def setup(self, p: Params, tr) -> dict:
        truths, ms, sigmas = [], [], []
        for k in range(p.truths):
            with tr.span("model.generate"):
                truths.append(_cli_sparse_truth(p, k))
            rng = np.random.default_rng(sim.derive_seed(k, 900002))  # as cli.run_benchmark
            ms.append(rng.normal(size=p.d) * 0.5)
            w = rng.normal(size=(p.d, p.d))
            sigmas.append(np.linalg.cholesky(0.02 * np.eye(p.d) + 0.01 * (w @ w.T) / p.d))
        return {"truths": truths, "m": ms, "sigma": sigmas, "kappas": [_kappa(t) for t in truths]}

    def replicate(self, p: Params, state: dict, seed: int, r: int, tr) -> Outcome:
        k = r % p.truths
        truth = state["truths"][k]
        with tr.span("finance.sample_sigma_trajectory"):
            traj = finance.sample_sigma_trajectory(
                truth.matrix, state["m"][k], state["sigma"][k], p.T, p.dt, sim.derive_seed(seed, r)
            )
        with tr.span("finance.estimate_mean_sigma"):
            m_hat, sigma_hat = finance.estimate_mean_sigma(traj)
        with tr.span("modelsel.cross_validate_sigma"):
            cv = modelsel.cross_validate_sigma(traj, m_hat, sigma_hat, gamma=CV_GAMMA, grid=GRID, opts=OPTS)
        with tr.span("stats.sufficient_stats") as c:
            st = stats.sufficient_stats(sim.Trajectory(dt=traj.dt, states=traj.states - m_hat))
            c["flops_computed"], c["bytes_computed"] = _stats_cost(p.steps, p.d)
        fit = cv.best_estimate
        lam_theory = _theory_lambda(tr, st)
        scores, holds = _score(
            tr, {"sigma_adalasso_cv": fit}, truth, st, "sigma_adalasso_cv", lam_theory, state["kappas"][k], p.d, p.s
        )
        return Outcome(
            scores=scores,
            main="sigma_adalasso_cv",
            bound_holds=holds,
            selected=[fit],
            probe={"traj": traj, "m": m_hat, "sigma": sigma_hat, "best": [fit]},
        )

    def probe(self, p: Params, out: Outcome, tr) -> None:
        train, _ = modelsel.split_trajectory(out.probe["traj"])
        sigma = out.probe["sigma"]
        with tr.span("modelsel.grid_zero") as c:
            # as cross_validate_sigma: P = (Sigma Sigma^T)^-1, centered training stats, MLE weights
            p_mat = np.linalg.solve(sigma @ sigma.T, np.eye(p.d))
            train_st = stats.sufficient_stats(sim.Trajectory(dt=train.dt, states=train.states - out.probe["m"]))
            weights = _adaptive_weights(estimators.mle(train_st).matrix)
            c["zero_frac"] = _zero_frac(p_mat @ train_st.g_hat, weights)


WORKLOADS = {w.name: w for w in (CvPath(), LongPath(), FinanceSigma())}


# -- reference ------------------------------------------------------------------


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str, p: Params, seed: int) -> list | None:
    """Per-replication scores stored for the default seed, or None when they do not apply."""
    path = reference_path(workload)
    if seed != DEFAULT_SEED or not path.is_file():
        return None
    with open(path) as fh:
        payload = json.load(fh)
    if payload["seed"] != seed or payload["params"] != p.__dict__:
        return None
    return payload["reps"]


def write_reference(workload: str, reps: int) -> Path:
    """Store the default seed's per-replication scores from the current code."""
    wl = WORKLOADS[workload]
    p = wl.params
    state = wl.setup(p, NullTracer())
    rows = []
    for r in range(reps):
        out = wl.replicate(p, state, DEFAULT_SEED, r, NullTracer())
        check_outcome(out, None)
        rows.append({name: list(v) for name, v in out.scores.items()})
    path = reference_path(workload)
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"seed": DEFAULT_SEED, "params": p.__dict__, "reps": rows}, fh)
        fh.write("\n")
    return path


# -- measurement ------------------------------------------------------------------


def measure_import(repeats: int) -> list:
    """Seconds to import sparse_ou (numpy and scipy included) in fresh interpreters."""
    src = str(Path(sparse_ou.__file__).resolve().parent.parent)
    code = "import time; t = time.perf_counter(); import sparse_ou; print(time.perf_counter() - t)"
    times = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def tail(values: list) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile with
    TAIL_BEYOND samples above it; the maximum when there are too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    i = n - TAIL_BEYOND - 1
    return ordered[i], 100.0 * (i + 1) / n, n - i - 1


@dataclass
class Run:
    """Everything one invocation measured; ``result()`` gives the printed JSON."""

    workload: str
    seed: int
    params: Params
    trace: bool
    tracer: Tracer | None = None
    reference_checked: bool = False
    attempted: int = 0
    loop_seconds: float = 0.0
    failures: list = field(default_factory=list)
    rep_times: list = field(default_factory=list)  # untraced, good replications
    traced_times: list = field(default_factory=list)
    setup_times: list = field(default_factory=list)
    import_times: list = field(default_factory=list)
    scores: list = field(default_factory=list)  # (f1, frob, bound_holds) of good replications

    @property
    def failed(self) -> int:
        return len(self.failures)

    def result(self) -> dict:
        metrics_ = self.per_layer() if self.trace else self.end_to_end()
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics_.items()},
        }

    def info(self) -> dict:
        info = {
            "workload": self.workload,
            "seed": self.seed,
            "params": self.params.__dict__,
            "trace": int(self.trace),
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.failures[:10],
            "reference_checked": self.reference_checked,
            "import_s": self.import_times,
            "setup_repeat_s": self.setup_times,
        }
        if self.rep_times:
            _, pct, beyond = tail(self.rep_times)
            info.update(rep_s_tail_percentile=pct, rep_s_tail_beyond=beyond, rep_samples=len(self.rep_times))
        return info

    def end_to_end(self) -> dict:
        good = max(len(self.scores), 1)
        return {
            "setup_s": (statistics.median(self.import_times) + statistics.median(self.setup_times), "s"),
            "reps_per_s": (len(self.scores) / self.loop_seconds, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "f1_mean": (sum(f1 for f1, _, _ in self.scores) / good, "ratio"),
            "err_frob_mean": (sum(fr for _, fr, _ in self.scores) / good, "norm"),
            "bound_holds_frac": (sum(h for _, _, h in self.scores) / good, "ratio"),
            "ops_ok_frac": ((self.attempted - self.failed) / max(self.attempted, 1), "ratio"),
        }

    def per_layer(self) -> dict:
        # On a shared host the median and tail of single replications drift
        # too much from run to run to carry an end-to-end bound; throughput
        # (reps_per_s) averages over the run and does.
        times = self.rep_times or [0.0]
        return {
            "rep_s_p50": (statistics.median(times), "s"),
            "rep_s_tail": (tail(times)[0], "s"),
            **layer_metrics(self.tracer, self.rep_times, self.traced_times),
        }


REP_LAYERS = (
    "sim.sample_trajectory",
    "stats.sufficient_stats",
    "stats.theoretical_lambda",
    "estimators.mle",
    "estimators.lasso",
    "modelsel.cross_validate.lasso",
    "modelsel.cross_validate.adaptive_lasso",
    "modelsel.cross_validate_sigma",
    "finance.sample_sigma_trajectory",
    "finance.estimate_mean_sigma",
    "metrics.score",
)
SETUP_LAYERS = ("model.generate", "sim.transition_kernel")


def _self_times(spans: list) -> list:
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def layer_metrics(tr: Tracer, untraced: list, traced: list) -> dict:
    """Per-layer figures from the spans.

    Layer self times are reported as shares of their base: replication
    layers of the summed replication time, so that they and
    ``driver.self.share`` add up to 1, and set-up layers of the summed set-up
    time.  ``trace.rep_s_mean`` and ``trace.setup_s`` give the bases in
    seconds.  A layer the workload never calls has share 0; a time that
    reads 0 on every run would look like a value not measured.
    """
    spans = tr.spans
    own = _self_times(spans)
    root = []
    for s in spans:
        root.append(root[s.parent] if s.parent is not None else len(root))

    def duration(s):
        return s.end - s.start

    def under(base):
        return [i for i in range(len(spans)) if spans[root[i]].name == base]

    in_reps, in_setup = under("replication"), under("setup")
    reps = [s for s in spans if s.name == "replication"]
    setups = [s for s in spans if s.name == "setup"]
    rep_total = sum(map(duration, reps))
    setup_total = sum(map(duration, setups))
    n = max(len(reps), 1)

    def self_share(name, among, total):
        return sum(own[i] for i in among if spans[i].name == name) / total if total > 0 else 0.0

    def rep_count(name, key):
        return sum(spans[i].counts[key] for i in in_reps if spans[i].name == name)

    def values(name, key):
        return [s.counts[key] for s in spans if s.name == name]

    def mean(xs):
        return sum(xs) / len(xs) if xs else 0.0

    out = {
        "trace.rep_s_mean": (rep_total / n, "s"),
        "trace.setup_s": (statistics.median(map(duration, setups)) if setups else 0.0, "s"),
        "linops.solve_lyapunov.s": (
            statistics.median(duration(s) for s in spans if s.name == "linops.solve_lyapunov"),
            "s",
        ),
    }
    for name in SETUP_LAYERS:
        out[f"{name}.share"] = (self_share(name, in_setup, setup_total), "ratio")
    for name in REP_LAYERS:
        out[f"{name}.share"] = (self_share(name, in_reps, rep_total), "ratio")
    out["driver.self.share"] = (self_share("replication", in_reps, rep_total), "ratio")

    sampler_s = sum(own[i] for i in in_reps if spans[i].name == "sim.sample_trajectory")
    steps = rep_count("sim.sample_trajectory", "steps")
    out["sim.steps"] = (steps / n, "count")
    out["sim.steps_per_s"] = (steps / sampler_s if sampler_s > 0 else 0.0, "1/s")
    for name in ("sim.sample_trajectory", "stats.sufficient_stats"):
        out[f"{name}.flops_computed"] = (rep_count(name, "flops_computed") / n, "flop")
        out[f"{name}.bytes_computed"] = (rep_count(name, "bytes_computed") / n, "B")
    out["estimators.lasso.iterations"] = (mean(values("estimators.lasso", "iterations")), "count")

    best = [fit for s in reps for fit in s.counts.get("best", [])]
    out["modelsel.best.iterations"] = (mean([it for it, _, _ in best]), "count")
    out["modelsel.best.converged_frac"] = (mean([float(ok) for _, ok, _ in best]), "ratio")
    out["modelsel.best.kkt_residual_max"] = (max((kkt for _, _, kkt in best), default=0.0), "1")

    cold = [s for s in spans if s.name == "estimators.lasso_cold"]
    out["estimators.lasso_cold.share"] = (sum(map(duration, cold)) / rep_total if rep_total > 0 else 0.0, "ratio")
    out["estimators.lasso_cold.iterations"] = (mean(values("estimators.lasso_cold", "iterations")), "count")
    out["estimators.lasso_cold.kkt_residual"] = (max(values("estimators.lasso_cold", "kkt_residual"), default=0.0), "1")
    out["modelsel.grid_zero_frac"] = (mean(values("modelsel.grid_zero", "zero_frac")), "ratio")
    p50_untraced = statistics.median(untraced) if untraced else 0.0
    p50_traced = statistics.median(traced) if traced else 0.0
    out["trace.overhead_frac"] = (p50_traced / p50_untraced - 1.0 if p50_untraced > 0 else 0.0, "ratio")
    return out


def _attempt(run: Run, wl, state: dict, r: int, tr, reference: list | None):
    """One replication under the failure policy; returns (seconds, Outcome) or None."""
    t0 = time.perf_counter()
    try:
        out = wl.replicate(run.params, state, run.seed, r, tr)
        elapsed = time.perf_counter() - t0
        check_outcome(out, reference[r] if reference is not None and r < len(reference) else None)
    except Exception as exc:  # a failed replication is counted, never dropped
        run.failures.append(f"rep {r}: {type(exc).__name__}: {exc}")
        print(f"replication {r} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return None
    return elapsed, out


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    params: Params | None = None,
    max_reps: int | None = None,
    reference: list | None = None,
) -> Run:
    """Set up, then run replications 0, 1, ... until ``seconds`` have passed.

    With ``trace`` each replication runs untraced (timed, checked), then
    traced inside a ``replication`` span, then the probes run outside that
    span so they never enter replication times.
    """
    wl = WORKLOADS[workload]
    p = params or wl.params
    tr = Tracer() if trace else NullTracer()
    run = Run(workload, seed, p, trace, tracer=tr if trace else None, reference_checked=reference is not None)

    if not trace:
        run.import_times = measure_import(IMPORT_REPEATS)
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with tr.span("setup"):
            state = wl.setup(p, tr)
        run.setup_times.append(time.perf_counter() - t0)
        if trace:
            with tr.span("linops.solve_lyapunov"):
                for truth in state["truths"]:
                    linops.solve_lyapunov(truth.matrix)

    # warm-up: first calls pay lazy initialisation; its result is not used
    try:
        wl.replicate(p, state, seed, -1, NullTracer())
    except Exception:  # the measured replications report any failure
        pass

    start = time.perf_counter()
    r = 0
    while (max_reps is None or r < max_reps) and (r == 0 or time.perf_counter() - start < seconds):
        run.attempted += 1
        done = _attempt(run, wl, state, r, NullTracer(), reference)
        if done is not None:
            elapsed, out = done
            run.rep_times.append(elapsed)
            run.scores.append((out.f1, out.frob, out.bound_holds))
            if trace:
                _traced_replication(run, wl, state, r, tr)
        r += 1
    run.loop_seconds = time.perf_counter() - start
    return run


def _traced_replication(run: Run, wl, state: dict, r: int, tr: Tracer) -> None:
    tr.rep = r
    t0 = time.perf_counter()
    try:
        with tr.span("replication") as c:
            out = wl.replicate(run.params, state, run.seed, r, tr)
            c["best"] = [[fit.iterations, fit.converged, fit.kkt_residual] for fit in out.probe.get("best", [])]
        run.traced_times.append(time.perf_counter() - t0)
        wl.probe(run.params, out, tr)
    except Exception as exc:  # the untraced pass of this replication succeeded
        run.failures.append(f"rep {r} (traced): {type(exc).__name__}: {exc}")
        print(f"traced replication {r} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
    finally:
        tr.rep = None
