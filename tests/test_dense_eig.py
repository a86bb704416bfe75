"""Jacobi and power-iteration eigensolvers against Sturm bisection and numpy."""

import numpy as np
import pytest

from imhyp import dense_eig
from imhyp.dense_eig import (
    _eig2x2_float,
    edge_norms,
    jacobi_eigenvalues,
    power_spectral_norm,
    spectral_norm,
    spectral_norms,
)
from imhyp.errors import ConfigError, NumericalFailure
from oracles import sturm_eigenvalues


def random_symmetric(rng, n, scale=1.0):
    A = rng.normal(size=(n, n)) * scale
    return (A + A.T) / 2.0


class TestJacobi:
    def test_matches_numpy(self):
        rng = np.random.default_rng(41)
        for _ in range(60):
            n = int(rng.integers(1, 13))
            A = random_symmetric(rng, n, scale=float(rng.uniform(0.1, 50)))
            got = jacobi_eigenvalues(A)
            want = np.linalg.eigvalsh(A)
            assert np.abs(got - want).max() < 1e-12 * max(1.0, np.abs(want).max())

    def test_matches_sturm_bisection(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            n = int(rng.integers(2, 13))
            A = random_symmetric(rng, n)
            got = jacobi_eigenvalues(A)
            want = sturm_eigenvalues(A)
            assert np.abs(got - want).max() < 1e-10

    def test_ascending_order(self):
        rng = np.random.default_rng(43)
        vals = jacobi_eigenvalues(random_symmetric(rng, 9))
        assert np.all(np.diff(vals) >= 0.0)

    def test_diagonal_matrix_exact(self):
        D = np.diag([3.0, -1.0, 2.0])
        assert np.array_equal(jacobi_eigenvalues(D), np.array([-1.0, 2.0, 3.0]))

    def test_rejects_bad_input(self):
        with pytest.raises(ConfigError):
            jacobi_eigenvalues(np.ones((2, 3)))
        with pytest.raises(ConfigError):
            jacobi_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ConfigError):
            jacobi_eigenvalues(np.ones((2, 2, 2, 2)))
        stack = np.zeros((3, 2, 2))
        stack[1, 0, 1] = 1.0  # one asymmetric matrix in the stack
        with pytest.raises(ConfigError):
            jacobi_eigenvalues(stack)

    def test_stack_matches_single_matrices_bitwise(self):
        rng = np.random.default_rng(46)
        for n in (1, 2, 3, 5, 8, 17, 30):
            stack = np.array([random_symmetric(rng, n) for _ in range(40)])
            got = jacobi_eigenvalues(stack)
            assert got.shape == (40, n)
            for A, eigs in zip(stack, got):
                assert np.array_equal(jacobi_eigenvalues(A), eigs)

    def test_eigenvalues_independent_of_stack_company(self):
        rng = np.random.default_rng(47)
        for n in (1, 2, 3, 5, 8, 17, 30):
            A = random_symmetric(rng, n, scale=3.0)
            solo = jacobi_eigenvalues(A)
            stack = np.array([random_symmetric(rng, n) for _ in range(40)])
            stack[int(rng.integers(40))] = A
            at = int(np.flatnonzero((stack == A).all(axis=(1, 2)))[0])
            assert np.array_equal(jacobi_eigenvalues(stack)[at], solo)
            # company that converges at once: diagonal matrices
            calm = np.array([np.diag(rng.normal(size=n)) for _ in range(39)] + [A])
            assert np.array_equal(jacobi_eigenvalues(calm)[-1], solo)

    def test_converged_matrix_stops_rotating(self):
        # converged on entry (off-norm below 1e-12) but nearly degenerate, so
        # one more rotation would move its eigenvalues by ~1e-13
        rng = np.random.default_rng(52)
        for n in (2, 3, 5, 8):
            A = np.eye(n) + 1e-13 * random_symmetric(rng, n) * (1 - np.eye(n))
            assert np.array_equal(jacobi_eigenvalues(A), np.ones(n))
            stack = np.array([random_symmetric(rng, n) for _ in range(5)] + [A])
            assert np.array_equal(jacobi_eigenvalues(stack)[-1], np.ones(n))

    def test_non_convergence_raises_with_residual(self, monkeypatch):
        rng = np.random.default_rng(48)
        A = random_symmetric(rng, 30)
        monkeypatch.setattr(dense_eig, "JACOBI_MAX_SWEEPS", 1)
        with pytest.raises(NumericalFailure, match=r"in 1 sweeps \(residual "):
            jacobi_eigenvalues(A)
        with pytest.raises(NumericalFailure):
            jacobi_eigenvalues(np.array([A, np.eye(30)]))

    def test_empty_stack(self):
        assert jacobi_eigenvalues(np.zeros((0, 4, 4))).shape == (0, 4)


class TestSpectralNorm:
    def test_empty_matrix(self):
        assert spectral_norm(np.zeros((0, 0))) == 0.0

    def test_small_matrix_uses_jacobi(self):
        rng = np.random.default_rng(44)
        A = random_symmetric(rng, 8)
        want = float(np.abs(np.linalg.eigvalsh(A)).max())
        assert spectral_norm(A) == pytest.approx(want, rel=1e-12)

    def test_large_matrix_power_iteration(self):
        rng = np.random.default_rng(45)
        A = random_symmetric(rng, 600)
        want = float(np.abs(np.linalg.eigvalsh(A)).max())
        assert power_spectral_norm(A) == pytest.approx(want, rel=1e-9)
        assert spectral_norm(A) == pytest.approx(want, rel=1e-9)

    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((700, 700))) == 0.0
        assert spectral_norm(np.zeros((3, 3))) == 0.0

    def test_block_split_is_exact(self):
        # block-diagonal matrices hidden by a permutation
        rng = np.random.default_rng(49)
        for _ in range(20):
            blocks = [random_symmetric(rng, n) for n in (1, 4, 2, 4, 7)]
            n = sum(len(b) for b in blocks)
            A = np.zeros((n, n))
            at = 0
            for b in blocks:
                A[at : at + len(b), at : at + len(b)] = b
                at += len(b)
            perm = rng.permutation(n)
            A = A[np.ix_(perm, perm)]
            want = max(float(np.abs(np.linalg.eigvalsh(b)).max()) for b in blocks)
            assert spectral_norm(A) == pytest.approx(want, rel=1e-13)
            # each block is solved, with its indices in ascending order, as
            # jacobi_eigenvalues solves it alone, and a 2x2 block bitwise by
            # the closed form of _eig2x2_float
            where = np.argsort(perm)
            at, parts = 0, []
            for b in blocks:
                idx = np.sort(where[at : at + len(b)])
                block = A[np.ix_(idx, idx)]
                if len(b) == 2:
                    (a, c), (_, d) = block
                    eigs = _eig2x2_float(a, c, c, d)[:2]
                else:
                    eigs = jacobi_eigenvalues(block)
                parts.append(float(np.abs(eigs).max()))
                at += len(b)
            assert spectral_norm(A) == max(parts)

    def test_norms_of_many_match_one_at_a_time(self):
        rng = np.random.default_rng(50)
        mats = []
        for _ in range(30):
            n = int(rng.integers(0, 25))
            A = random_symmetric(rng, n)
            A[np.abs(A) < 0.8] = 0.0  # sparse patterns split into blocks
            mats.append(A)
        got = spectral_norms(iter(mats))
        assert got.shape == (30,)
        assert [float(x) for x in got] == [spectral_norm(A) for A in mats]
        assert spectral_norms([]).shape == (0,)

    def test_edge_norms_take_entries_in_any_order(self):
        rng = np.random.default_rng(52)
        for _ in range(20):
            n = int(rng.integers(1, 20))
            A = random_symmetric(rng, n)
            A[np.abs(A) < 0.8] = 0.0
            rows, cols = np.nonzero(A)
            p = rng.permutation(rows.size)
            got = edge_norms([(n, rows[p], cols[p], A[rows, cols][p])])
            assert float(got[0]) == spectral_norm(A)
        # 1x1 blocks skip Jacobi and give what it gives, |entry|
        d = rng.normal(size=7)
        d[2] = 0.0
        idx = np.flatnonzero(d)
        got = edge_norms([(7, idx, idx, d[idx])] + [(1, idx[:0], idx[:0], d[:0])])
        assert float(got[0]) == float(np.abs(jacobi_eigenvalues(np.diag(d))).max())
        assert got[1] == 0.0

    def test_stacking_cap_does_not_change_norms(self, monkeypatch):
        import imhyp.dense_eig as dense_eig

        rng = np.random.default_rng(51)
        mats = [random_symmetric(rng, int(rng.integers(1, 12))) for _ in range(25)]
        full = spectral_norms(mats)
        monkeypatch.setattr(dense_eig, "STACK_ENTRIES", 16)
        assert np.array_equal(spectral_norms(mats), full)

    def test_rejects_bad_input(self):
        with pytest.raises(ConfigError):
            spectral_norm(np.ones((2, 3)))
        with pytest.raises(ConfigError):
            spectral_norm(np.zeros((2, 3, 3)))
        with pytest.raises(ConfigError):
            spectral_norms([np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])])
