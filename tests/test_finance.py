import json

import numpy as np
import pytest

from sparse_ou import (
    ema_log_returns,
    estimate_mean_sigma,
    generate_shifted_antisymmetric,
    load_prices,
    make_drift,
    sample_sigma_trajectory,
    sample_trajectory,
)
from sparse_ou.errors import IngestionError
from sparse_ou.finance import save_finance_model_json
from sparse_ou.sim import derive_seed


def write_csv(path, text):
    path.write_text(text)
    return path


class TestLoadPrices:
    def test_well_formed(self, tmp_path):
        path = write_csv(
            tmp_path / "p.csv",
            "date,AAA,BBB\n2020-01-01,10.0,20.0\n2020-01-02,10.5,19.5\n2020-01-03,10.2,19.8\n",
        )
        panel = load_prices(path)
        assert panel.tickers == ["AAA", "BBB"]
        assert panel.prices.shape == (3, 2)
        assert panel.dates == ["2020-01-01", "2020-01-02", "2020-01-03"]

    def test_blank_cell_dropped_with_warning(self, tmp_path):
        path = write_csv(
            tmp_path / "p.csv",
            "date,AAA,BBB\n2020-01-01,10.0,20.0\n2020-01-02,,19.5\n2020-01-03,10.2,19.8\n",
        )
        with pytest.warns(UserWarning, match="dropped 1"):
            panel = load_prices(path)
        assert panel.prices.shape == (2, 2)

    def test_short_row_dropped_with_warning(self, tmp_path):
        path = write_csv(tmp_path / "p.csv", "date,AAA,BBB\n2020-01-01,10.0,20.0\n2020-01-02,10.5\n2020-01-03,10.2,19.8\n")
        with pytest.warns(UserWarning, match="dropped 1"):
            panel = load_prices(path)
        assert panel.dates == ["2020-01-01", "2020-01-03"]
        assert panel.prices.tolist() == [[10.0, 20.0], [10.2, 19.8]]

    def test_nonpositive_price_dropped(self, tmp_path):
        path = write_csv(
            tmp_path / "p.csv",
            "date,AAA\n2020-01-01,10.0\n2020-01-02,-3.0\n2020-01-03,10.2\n",
        )
        with pytest.warns(UserWarning):
            panel = load_prices(path)
        assert panel.prices.shape == (2, 1)

    def test_unsorted_dates_sorted(self, tmp_path):
        path = write_csv(
            tmp_path / "p.csv",
            "date,AAA\n2020-01-03,3.0\n2020-01-01,1.0\n2020-01-02,2.0\n",
        )
        panel = load_prices(path)
        assert panel.dates == ["2020-01-01", "2020-01-02", "2020-01-03"]
        assert panel.prices[:, 0].tolist() == [1.0, 2.0, 3.0]

    def test_date_not_in_yyyy_mm_dd_form_dropped_with_warning(self, tmp_path):
        path = write_csv(tmp_path / "p.csv", "date,AAA\n2020-01-09,9.0\n2020-1-10,10.0\nday3,3.0\n2020-01-11,11.0\n")
        with pytest.warns(UserWarning, match="dropped 2"):
            panel = load_prices(path)
        assert panel.dates == ["2020-01-09", "2020-01-11"]
        assert panel.prices[:, 0].tolist() == [9.0, 11.0]

    def test_other_iso_date_forms_dropped_with_warning(self, tmp_path):
        path = write_csv(tmp_path / "p.csv", "date,AAA\n2020-01-09,9.0\n20200108,8.0\n2020-W02-5,10.0\n")
        with pytest.warns(UserWarning, match="dropped 2"):
            panel = load_prices(path)
        assert panel.dates == ["2020-01-09"]

    def test_repeated_date_rejected(self, tmp_path):
        path = write_csv(tmp_path / "p.csv", "date,AAA\n2020-01-09,9.0\n2020-01-08,8.0\n2020-01-10,10.0\n2020-01-08,8.5\n")
        with pytest.raises(IngestionError, match="date 2020-01-08 appears twice"):
            load_prices(path)

    def test_empty_or_garbage(self, tmp_path):
        with pytest.raises(IngestionError):
            load_prices(write_csv(tmp_path / "e.csv", "date,AAA\n"))
        with pytest.raises(IngestionError):
            load_prices(write_csv(tmp_path / "g.csv", "no,header,here\n1,2,3\n"))
        with pytest.raises(IngestionError):
            load_prices(tmp_path / "missing.csv")


class TestEmaLogReturns:
    def test_constant_prices_give_zero(self, tmp_path):
        path = write_csv(
            tmp_path / "p.csv",
            "date,AAA\n" + "".join(f"2020-01-{d:02d},7.5\n" for d in range(1, 11)),
        )
        traj = ema_log_returns(load_prices(path))
        assert np.allclose(traj.states, 0.0, atol=1e-15)
        assert traj.dt == 1.0

    def test_span_one_is_raw_returns(self, tmp_path):
        path = write_csv(
            tmp_path / "p.csv",
            "date,AAA\n2020-01-01,1.0\n2020-01-02,2.0\n2020-01-03,1.0\n2020-01-04,4.0\n",
        )
        traj = ema_log_returns(load_prices(path), span=1)
        expected = np.diff(np.log([1.0, 2.0, 1.0, 4.0]))
        assert np.allclose(traj.states[:, 0], expected, atol=1e-15)
        with pytest.raises(ValueError, match="span must be >= 1"):
            ema_log_returns(load_prices(path), span=0)

    def test_geometric_prices_constant_after_seed(self, tmp_path):
        g = 0.03
        prices = [np.exp(g * k) for k in range(12)]
        path = write_csv(
            tmp_path / "p.csv",
            "date,AAA\n" + "".join(f"2020-01-{k+1:02d},{p}\n" for k, p in enumerate(prices)),
        )
        traj = ema_log_returns(load_prices(path), span=5)
        assert np.allclose(traj.states[:, 0], g, atol=1e-12)

    def test_pipeline_deterministic(self, tmp_path):
        text = "date,AAA,BBB\n" + "".join(
            f"2020-01-{d:02d},{10 + 0.3 * d},{20 - 0.2 * d}\n" for d in range(1, 21)
        )
        a = ema_log_returns(load_prices(write_csv(tmp_path / "a.csv", text)))
        b = ema_log_returns(load_prices(write_csv(tmp_path / "b.csv", text)))
        assert np.array_equal(a.states, b.states)


class TestEstimateMeanSigma:
    def test_recovers_known_model(self):
        a_true = generate_shifted_antisymmetric(4, alpha=1.0, w=1.0, s=2, seed=3).matrix
        rng = np.random.default_rng(1)
        m_true = rng.normal(size=4) * 0.3
        sigma_true = np.linalg.cholesky(0.04 * np.eye(4) + 0.005 * np.ones((4, 4)))
        errs_m, errs_s = [], []
        for rep in range(5):
            traj = sample_sigma_trajectory(a_true, m_true, sigma_true, 500.0, 0.01, derive_seed(2, rep))
            m_hat, sigma_hat = estimate_mean_sigma(traj)
            errs_m.append(np.linalg.norm(m_hat - m_true))
            s_true = sigma_true @ sigma_true.T
            errs_s.append(np.linalg.norm(sigma_hat @ sigma_hat.T - s_true) / np.linalg.norm(s_true))
        assert np.mean(errs_m) <= 0.05 * np.linalg.norm(m_true) + 0.05
        assert np.mean(errs_s) <= 0.1

    def test_sigma_trajectory_matches_out_of_place_mapping(self):
        # R = m + Sigma Z, with the shift added in place, is bit-identical to the
        # out-of-place expression
        a = generate_shifted_antisymmetric(4, alpha=1.0, w=1.0, s=2, seed=3).matrix
        rng = np.random.default_rng(8)
        m = rng.normal(size=4)
        sigma = np.linalg.cholesky(0.04 * np.eye(4) + 0.005 * np.ones((4, 4)))
        traj = sample_sigma_trajectory(a, m, sigma, 20.0, 0.01, seed=6)
        z = sample_trajectory(make_drift(np.linalg.inv(sigma) @ a @ sigma), 20.0, 0.01, 6)
        assert np.array_equal(traj.states, m + z.states @ sigma.T)

    def test_identity_noise_quadratic_variation(self):
        drift = generate_shifted_antisymmetric(3, alpha=0.5, w=1.0, s=2, seed=5)
        from sparse_ou import sample_trajectory

        traj = sample_trajectory(drift, 100.0, 0.01, seed=4)
        _, sigma_hat = estimate_mean_sigma(traj)
        qv = sigma_hat @ sigma_hat.T
        assert np.linalg.norm(qv - np.eye(3)) / np.linalg.norm(np.eye(3)) <= 0.1

    def test_smooth_path_has_tiny_quadratic_variation(self):
        t = np.linspace(0.0, 10.0, 1001)
        states = np.stack([np.sin(t), np.cos(t)], axis=1)
        from sparse_ou import Trajectory

        _, sigma_hat = estimate_mean_sigma(Trajectory(dt=0.01, states=states))
        assert np.linalg.norm(sigma_hat @ sigma_hat.T) <= 0.05  # O(dt)

    def test_psd_by_construction(self):
        drift = generate_shifted_antisymmetric(3, alpha=0.5, w=1.0, s=2, seed=5)
        from sparse_ou import sample_trajectory

        traj = sample_trajectory(drift, 10.0, 0.01, seed=4)
        _, sigma_hat = estimate_mean_sigma(traj)
        assert np.all(np.isfinite(sigma_hat))
        assert np.allclose(sigma_hat, np.tril(sigma_hat))


class TestFinanceModelJson:
    def test_payload(self, tmp_path):
        path = tmp_path / "model.json"
        save_finance_model_json(path, ["A", "B"], np.zeros(2), np.eye(2), np.eye(2), 0.5)
        payload = json.loads(path.read_text())
        assert payload["tickers"] == ["A", "B"]
        assert payload["lambda"] == 0.5
        assert len(payload["A"]) == 4 and len(payload["sigma"]) == 4
