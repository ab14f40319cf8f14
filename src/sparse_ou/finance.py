"""Financial data pipeline: prices -> EMA of log-returns -> model inputs.

The exponential moving average of log-returns is mean-reverting by
construction, which makes it a natural target for the drift model
dR = -A (R - m) dt + Sigma dW.  The location m is estimated by the time
average and Sigma Sigma^T by the realized quadratic variation of the
path.
"""

from __future__ import annotations

import csv
import datetime
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import IngestionError, NumericError, UsageError
from .model import make_drift
from .sim import Trajectory, sample_trajectory

__all__ = [
    "PricePanel",
    "load_prices",
    "ema_log_returns",
    "estimate_mean_sigma",
    "sample_sigma_trajectory",
]


@dataclass(frozen=True)
class PricePanel:
    """Date-aligned strictly positive close prices, one column per ticker."""

    tickers: list
    dates: list
    prices: np.ndarray  # shape (n_dates, n_tickers)


def load_prices(path) -> PricePanel:
    """Parse a `date,ticker1,...,tickerN` CSV, dates as YYYY-MM-DD, into a clean panel.

    Rows containing a blank, unparseable or non-positive cell, or a date not
    in YYYY-MM-DD form, are dropped (a warning reports how many); remaining
    rows are sorted by date.  A date kept twice raises IngestionError.
    """
    try:
        with open(path) as fh:
            reader = csv.reader(fh)
            rows = [row for row in reader if row and any(cell.strip() for cell in row)]
    except OSError as exc:
        raise IngestionError(f"cannot read {path}: {exc}") from exc
    if len(rows) < 2:
        raise IngestionError(f"no data rows in {path}")
    header = [cell.strip() for cell in rows[0]]
    if len(header) < 2 or header[0].lower() != "date":
        raise IngestionError(f"expected header 'date,ticker1,...', got {header}")
    tickers = header[1:]
    kept = []
    dropped = 0
    for row in rows[1:]:
        if len(row) != len(header):
            dropped += 1
            continue
        date = row[0].strip()
        try:
            day = datetime.date.fromisoformat(date)
            values = [float(cell) for cell in row[1:]]
        except ValueError:
            dropped += 1
            continue
        # from Python 3.11 fromisoformat also reads 20200108 and 2020-W02-3; keep only the form it writes back
        if day.isoformat() != date or any(not np.isfinite(v) or v <= 0 for v in values):
            dropped += 1
            continue
        kept.append((day, date, values))
    if dropped:
        warnings.warn(f"dropped {dropped} malformed or non-positive price rows")
    if not kept:
        raise IngestionError(f"no valid price rows in {path}")
    kept.sort(key=lambda item: item[0])
    for (day, _, _), (later, date, _) in zip(kept, kept[1:]):
        if day == later:
            raise IngestionError(f"date {date} appears twice in {path}")
    dates = [date for _, date, _ in kept]
    prices = np.asarray([values for _, _, values in kept])
    return PricePanel(tickers=tickers, dates=dates, prices=prices)


def ema_log_returns(panel: PricePanel, span: int = 10) -> Trajectory:
    """Log-returns smoothed by an EMA seeded at the first return; dt = 1 day.

    ``span`` is the smoothing span in days; the EMA weight is 2 / (span + 1).
    """
    if span < 1:
        raise UsageError(f"span must be >= 1, got {span}")
    if panel.prices.shape[0] < 3:
        raise ValueError("panel needs at least 3 dates")
    returns = np.diff(np.log(panel.prices), axis=0)
    ema = np.empty_like(returns)
    ema[0] = returns[0]
    a = 2.0 / (span + 1.0)
    for k in range(1, returns.shape[0]):
        ema[k] = a * returns[k] + (1.0 - a) * ema[k - 1]
    return Trajectory(dt=1.0, states=ema)


def estimate_mean_sigma(traj: Trajectory) -> tuple[np.ndarray, np.ndarray]:
    """Location and noise scale: time average and realized quadratic variation.

    Sigma is the lower Cholesky factor of (1/T) sum dR dR^T after
    symmetrization and a trace-scaled jitter.
    """
    m = traj.states.mean(axis=0)
    dr = np.diff(traj.states, axis=0)
    qv = (dr.T @ dr) / traj.horizon
    qv = 0.5 * (qv + qv.T)
    d = traj.dim
    qv += 1e-10 * (np.trace(qv) / d) * np.eye(d)
    try:
        sigma = np.linalg.cholesky(qv)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"quadratic variation is not positive definite: {exc}") from exc
    return m, sigma


def sample_sigma_trajectory(
    a, m, sigma, T: float, dt: float, seed: int
) -> Trajectory:
    """Exactly sample dR = -A (R - m) dt + Sigma dW from its stationary law.

    Writing R = m + Sigma Z maps the model to dZ = -(Sigma^{-1} A Sigma) Z dt + dW,
    which the identity-noise sampler handles exactly.
    """
    a = np.asarray(a, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    m = np.asarray(m, dtype=float)
    sigma_inv = np.linalg.inv(sigma)
    drift_z = make_drift(sigma_inv @ a @ sigma)
    z = sample_trajectory(drift_z, T, dt, seed)
    states = z.states @ sigma.T
    states += m
    return Trajectory(dt=z.dt, states=states)
