import numpy as np
import pytest

from sparse_ou import (
    GenerationError,
    StabilityError,
    generate_shifted_antisymmetric,
    generate_sparse_drift,
    generate_two_group,
    solve_lyapunov,
)
from sparse_ou import model
from sparse_ou.model import (
    STABILITY_MARGIN,
    load_drift_csv,
    load_drift_json,
    make_drift,
    random_sign_pattern,
    save_drift_csv,
    save_drift_json,
    symmetrized_drift,
)


class TestGenerateSparseDrift:
    def test_scalar_is_positive(self):
        for seed in range(5):
            drift = generate_sparse_drift(1, 1, seed=seed)
            assert drift.matrix[0, 0] > 0

    def test_row_sparsity_pre_stabilization(self):
        for d, s, seed in [(8, 2, 0), (20, 4, 1), (15, 15, 2)]:
            pattern = random_sign_pattern(d, s, seed)
            assert np.all(np.count_nonzero(pattern, axis=1) == s)
            assert set(np.unique(pattern)) <= {-1.0, 0.0, 1.0}

    def test_shift_only_touches_diagonal(self):
        pattern = random_sign_pattern(8, 2, seed=0)
        drift = generate_sparse_drift(8, 2, seed=0)
        off_mask = ~np.eye(8, dtype=bool)
        assert np.array_equal(drift.matrix[off_mask], pattern[off_mask])

    def test_stability(self):
        for d, s, seed in [(8, 2, 0), (20, 4, 1), (40, 8, 2)]:
            drift = generate_sparse_drift(d, s, seed=seed)
            assert np.linalg.eigvals(drift.matrix).real.min() > 0

    def test_margin_at_least_half(self):
        drift = generate_sparse_drift(20, 4, seed=1)
        assert np.linalg.eigvals(drift.matrix).real.min() >= STABILITY_MARGIN - 1e-9

    def test_shift_from_pattern_eigenvalues(self):
        for d, s, seed in [(1, 1, 0), (8, 2, 0), (20, 4, 1), (40, 8, 2)]:
            pattern = random_sign_pattern(d, s, seed)
            delta = max(0.0, -float(np.linalg.eigvals(pattern).real.min()) + STABILITY_MARGIN)
            assert np.array_equal(generate_sparse_drift(d, s, seed).matrix, pattern + delta * np.eye(d))

    def test_unstabilized_shift_is_generation_error(self, monkeypatch):
        def unstable(matrix):
            raise StabilityError("matrix is not stable")

        monkeypatch.setattr(model, "solve_lyapunov", unstable)
        with pytest.raises(GenerationError, match="failed to stabilize a 8x8 pattern"):
            generate_sparse_drift(8, 2, seed=0)

    def test_determinism(self):
        a = generate_sparse_drift(12, 3, seed=42)
        b = generate_sparse_drift(12, 3, seed=42)
        assert np.array_equal(a.matrix, b.matrix)
        assert not np.array_equal(a.matrix, generate_sparse_drift(12, 3, seed=43).matrix)

    def test_lyapunov_residual(self):
        drift = generate_sparse_drift(10, 2, seed=5)
        res = drift.matrix @ drift.stationary_cov + drift.stationary_cov @ drift.matrix.T
        assert np.linalg.norm(res - np.eye(10)) <= 1e-10 * 10

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            generate_sparse_drift(5, 0, seed=0)
        with pytest.raises(ValueError):
            generate_sparse_drift(5, 6, seed=0)


class TestGenerateTwoGroup:
    def test_d2_is_two_singleton_blocks(self):
        drift = generate_two_group(2)
        assert np.allclose(drift.matrix, np.eye(2))
        assert np.linalg.eigvals(drift.matrix).real.min() > 0

    def test_support_confined_to_blocks(self):
        drift = generate_two_group(8)
        m = drift.matrix
        assert np.all(m[:4, 4:] == 0.0)
        assert np.all(m[4:, :4] == 0.0)
        assert np.all(m[:4, :4] != 0.0)

    def test_stable(self):
        assert np.linalg.eigvals(generate_two_group(8).matrix).real.min() > 0

    def test_odd_d_rejected(self):
        with pytest.raises(ValueError):
            generate_two_group(7)


class TestGenerateShiftedAntisymmetric:
    def test_d2_closed_form(self):
        drift = generate_shifted_antisymmetric(2, alpha=0.5, w=1.0, s=1, seed=0)
        assert np.allclose(drift.matrix, [[0.5, 1.0], [-1.0, 0.5]])
        assert np.allclose(drift.stationary_cov, np.eye(2))

    def test_w_zero_gives_diagonal(self):
        alpha = 0.7
        drift = generate_shifted_antisymmetric(5, alpha=alpha, w=0.0, s=2, seed=3)
        assert np.allclose(drift.matrix, alpha * np.eye(5))
        assert np.allclose(drift.stationary_cov, np.eye(5) / (2 * alpha))

    def test_antisymmetric_part(self):
        drift = generate_shifted_antisymmetric(9, alpha=1.2, w=0.8, s=3, seed=11)
        b = (drift.matrix - 1.2 * np.eye(9)) / 0.8
        assert np.array_equal(b.T, -b)
        assert set(np.round(np.unique(b), 12)) <= {-1.0, 0.0, 1.0}
        assert np.max(np.count_nonzero(b, axis=1)) <= 3

    def test_stationary_cov_is_exact(self):
        drift = generate_shifted_antisymmetric(6, alpha=0.9, w=1.5, s=2, seed=7)
        c = solve_lyapunov(drift.matrix)
        assert np.linalg.norm(c - np.eye(6) / 1.8) <= 1e-10


class TestSymmetrizedDrift:
    def test_symmetric_with_margin(self):
        for d, s, seed in [(6, 2, 0), (10, 2, 3), (12, 3, 5)]:
            sym = symmetrized_drift(generate_sparse_drift(d, s, seed))
            assert np.array_equal(sym.matrix, sym.matrix.T)
            assert np.linalg.eigvalsh(sym.matrix)[0] >= STABILITY_MARGIN - 1e-12

    def test_indefinite_part_is_lifted_to_the_margin(self):
        base = make_drift(np.array([[1.0, 4.0], [0.0, 1.0]]))  # symmetric part has eigenvalues -1 and 3
        sym = symmetrized_drift(base)
        assert np.allclose(np.linalg.eigvalsh(sym.matrix), [STABILITY_MARGIN, 4.0 + STABILITY_MARGIN])

    def test_definite_part_is_shifted_by_the_margin(self):
        sym = symmetrized_drift(make_drift(np.diag([2.0, 3.0])))
        assert np.array_equal(sym.matrix, np.diag([2.0, 3.0]) + STABILITY_MARGIN * np.eye(2))


class TestSerialization:
    def test_csv_roundtrip(self, tmp_path):
        drift = generate_sparse_drift(6, 2, seed=9)
        path = tmp_path / "drift.csv"
        save_drift_csv(path, drift)
        loaded = load_drift_csv(path)
        assert np.array_equal(loaded.matrix, drift.matrix)

    def test_json_roundtrip(self, tmp_path):
        drift = generate_two_group(6)
        path = tmp_path / "drift.json"
        save_drift_json(path, drift)
        loaded = load_drift_json(path)
        assert np.array_equal(loaded.matrix, drift.matrix)
