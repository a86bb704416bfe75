"""edge_norms (Householder reduction plus Sturm bisection, closed forms for
1x1 and 2x2 blocks) against Sturm bisection, numpy and closed forms."""

import tracemalloc
import warnings

import numpy as np
import pytest

from imhyp import dense_eig, spatial_averaging
from imhyp.dense_eig import edge_norms
from imhyp.errors import ConfigError
from imhyp.lattice_spectrum import BoxDomain
from imhyp.reaction_field import _eig2x2
from oracles import entries, sturm_eigenvalues


def random_symmetric(rng, n, scale=1.0):
    A = rng.normal(size=(n, n)) * scale
    return (A + A.T) / 2.0


def block_diagonal(*blocks):
    n = sum(len(b) for b in blocks)
    A = np.zeros((n, n))
    at = 0
    for b in blocks:
        A[at : at + len(b), at : at + len(b)] = b
        at += len(b)
    return A


# (multiplier, k, rho, lambda_max) of the sap-scan-cos-x1 and
# sap-scan-file-csv golden configs
GOLDEN_SCANS = (
    (spatial_averaging.Multiplier(BoxDomain(dim=3), {(1, 0, 0): 1.0}), 3.0, 1.0, 20.0),
    (spatial_averaging.Multiplier(BoxDomain(dim=2, bc="periodic"),
                                  {(1, 0): 0.5, (1, 1): -0.25, (0, 2): 0.75}),
     3.0, 1.0, 30.0),
)


def batch_ends(matrices, cap):
    """The ends of the batches edge_norms closes under STACK_ENTRIES = cap:
    each once its matrices hold cap of n plus entries."""
    ends, held = [], 0
    for i, (n, _, _, values) in enumerate(matrices, 1):
        held += n + len(values)
        if held >= cap:
            ends.append(i)
            held = 0
    return ends


def norm(A):
    """edge_norms of one dense array."""
    return float(edge_norms([entries(A)])[0])


class TestJacobi:
    """Checks first written for the Jacobi solver that once took blocks of 3
    to 512 modes; edge_norms now answers those blocks by Householder
    reduction and Sturm bisection, and must still pass them."""

    def test_matches_numpy(self):
        rng = np.random.default_rng(41)
        for _ in range(60):
            n = int(rng.integers(1, 13))
            A = random_symmetric(rng, n, scale=float(rng.uniform(0.1, 50)))
            want = float(np.abs(np.linalg.eigvalsh(A)).max())
            assert abs(norm(A) - want) <= 1e-13 * want

    def test_matches_sturm_bisection(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            n = int(rng.integers(3, 40))
            A = random_symmetric(rng, n)
            want = float(np.abs(sturm_eigenvalues(A, tol=1e-15)).max())
            assert abs(norm(A) - want) <= 1e-13 * want

    def test_diagonal_matrix_exact(self):
        D = np.diag([3.0, -1.0, 2.0])
        assert norm(D) == 3.0
        assert edge_norms([entries(D), entries(-2.0 * D)]).tolist() == [3.0, 6.0]

    def test_rejects_bad_input(self):
        with pytest.raises(ConfigError, match="symmetric"):
            edge_norms([entries(np.array([[0.0, 1.0], [0.0, 0.0]]))])
        # one asymmetric matrix among symmetric ones fails the call
        rng = np.random.default_rng(48)
        for n in (2, 3, 8):
            stack = [random_symmetric(rng, n) for _ in range(3)]
            stack[1][0, 1] += 1.0
            with pytest.raises(ConfigError, match="symmetric"):
                edge_norms(map(entries, stack))

    def test_stack_matches_single_matrices_bitwise(self):
        rng = np.random.default_rng(46)
        for n in (1, 2, 3, 5, 8, 17, 30):
            stack = [random_symmetric(rng, n) for _ in range(40)]
            got = edge_norms(map(entries, stack))
            assert got.shape == (40,)
            assert [float(x) for x in got] == [norm(A) for A in stack]

    def test_eigenvalues_independent_of_stack_company(self):
        # a block's norm is bitwise the same alone, in a stack of 40 blocks of
        # its size and among blocks of other sizes, in its own matrix or not
        rng = np.random.default_rng(47)
        for n in (3, 17, 130):
            A = random_symmetric(rng, n, scale=3.0)
            solo = norm(A)
            stack = [random_symmetric(rng, n) for _ in range(40)]
            at = int(rng.integers(40))
            stack[at] = A
            assert edge_norms(map(entries, stack))[at] == solo
            others = [random_symmetric(rng, m) for m in (2, 3, 5, 17, 31)]
            got = edge_norms(map(entries, others[:2] + [A] + others[2:]))
            assert got[2] == solo
            # the other blocks of its matrix are far smaller, so the norm is A's
            assert norm(block_diagonal(*(1e-3 * b for b in others), A)) == solo
            # company of diagonal matrices, whose blocks are all 1x1
            calm = [np.diag(rng.normal(size=n)) for _ in range(39)] + [A]
            assert edge_norms(map(entries, calm))[-1] == solo

    def test_empty_stack(self):
        assert edge_norms([]).shape == (0,)
        got = edge_norms([entries(np.zeros((4, 4)))] * 3)
        assert got.tolist() == [0.0, 0.0, 0.0]


class TestSpectralNorm:
    def test_empty_matrix(self):
        assert norm(np.zeros((0, 0))) == 0.0

    def test_small_matrix_uses_jacobi(self):
        # 8 modes, a size the Jacobi solver once took: now one Householder
        # block, as every block of 3 or more modes
        rng = np.random.default_rng(44)
        A = random_symmetric(rng, 8)
        want = float(np.abs(np.linalg.eigvalsh(A)).max())
        assert norm(A) == pytest.approx(want, rel=1e-12)

    def test_power_of_two_scaling_is_exact(self):
        # every block is solved scaled to largest |entry| in [1/2, 1), so a
        # power-of-two multiple of a matrix far from 1 loses nothing and
        # overflows nothing; blocks of sizes 1, 2, 3 and 17
        rng = np.random.default_rng(54)
        blocks = [random_symmetric(rng, n) for n in (1, 2, 3, 17)]
        mats = [block_diagonal(*blocks)] + blocks
        base = edge_norms(map(entries, mats))
        for k in (-600, 600):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = edge_norms(entries(np.ldexp(A, k)) for A in mats)
            assert np.array_equal(got, np.ldexp(base, k))

    def test_large_block_path_laplacian(self):
        # tridiag(-1, 2, -1) has eigenvalues 2 - 2cos(j pi/(n+1)), j = 1..n;
        # 600 modes in one block, already tridiagonal
        n = 600
        A = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
        want = 2.0 + 2.0 * np.cos(np.pi / (n + 1))
        assert abs(norm(A) - want) <= 4 * np.spacing(want)

    def test_large_block_with_close_top_eigenvalues(self):
        # Q diag(1, 1 - 1e-4, ...) Q^T: the top gap is 1e-4 and the norm 1;
        # building the block rounds at the order of 1e-15
        rng = np.random.default_rng(45)
        d = np.concatenate(([1.0, 1.0 - 1e-4], np.linspace(0.9, -0.9, 598)))
        Q = np.linalg.qr(rng.normal(size=(600, 600)))[0]
        A = (Q * d) @ Q.T
        A = (A + A.T) / 2.0
        assert abs(norm(A) - 1.0) <= 1e-14

    def test_large_blocks_of_many_matrices(self):
        # two equal-size path blocks under a permutation, in one matrix among
        # others: each matrix gets the norm of its own largest block
        rng = np.random.default_rng(53)
        n = 520
        P = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
        A = np.zeros((2 * n, 2 * n))
        A[:n, :n], A[n:, n:] = P, 0.5 * P
        perm = rng.permutation(2 * n)
        small = random_symmetric(rng, 5)
        got = edge_norms([entries(small), entries(A[np.ix_(perm, perm)]),
                          entries(0.25 * P)])
        want = 2.0 + 2.0 * np.cos(np.pi / (n + 1))
        assert got[0] == norm(small)
        assert abs(got[1] - want) <= 4 * np.spacing(want)
        assert abs(got[2] - want / 4.0) <= 4 * np.spacing(want / 4.0)

    def test_large_block_must_be_symmetric(self):
        n, rows, cols, values = entries(2.0 * np.eye(600) - np.eye(600, k=1))
        with pytest.raises(ConfigError, match="symmetric"):
            edge_norms([(n, np.append(rows, 1), np.append(cols, 0),
                         np.append(values, 1.0))])

    @pytest.mark.parametrize("A", [
        [[1.0, 2.0, 0.0], [0.0, 1.0, 3.0], [0.0, 3.0, 1.0]],  # Householder block
        [[1.0, 2.0], [0.5, 1.0]],  # closed-form block, once read from one side
        [[1.0, 2.0], [2.0 + 1e-9, 1.0]],
        [[0.0, 1.0], [0.0, 0.0]],
        # off by 1e-9, where a tolerance taken over its company, 1e-12 (1 +
        # 1e6), would pass it
        [[1e-3, 2e-3], [2e-3 + 1e-9, 1e-3]],
    ], ids=["3x3", "2x2", "2x2-near", "2x2-one-sided", "2x2-small-near"])
    def test_every_block_must_be_symmetric(self, A):
        with pytest.raises(ConfigError, match="symmetric"):
            edge_norms([entries(np.array(A))])
        # one asymmetric matrix among symmetric ones fails the call, each
        # checked against its own largest entry
        with pytest.raises(ConfigError, match="symmetric"):
            edge_norms([entries(1e6 * np.eye(2)), entries(np.array(A))])

    def test_symmetry_check_ignores_explicit_zeros(self):
        # an explicit zero entry needs no transpose
        got = edge_norms([(2, np.array([0, 1, 1]), np.array([0, 1, 0]),
                           np.array([1.0, 3.0, 0.0]))])
        assert got.tolist() == [3.0]

    def test_zero_matrix(self):
        for n in (3, 700):
            assert norm(np.zeros((n, n))) == 0.0

    def test_block_split_is_exact(self):
        # block-diagonal matrices hidden by a permutation
        rng = np.random.default_rng(49)
        for _ in range(20):
            blocks = [random_symmetric(rng, n) for n in (1, 4, 2, 4, 7)]
            A = block_diagonal(*blocks)
            perm = rng.permutation(len(A))
            A = A[np.ix_(perm, perm)]
            want = max(float(np.abs(np.linalg.eigvalsh(b)).max()) for b in blocks)
            assert norm(A) == pytest.approx(want, rel=1e-13)
            # each block is solved, with its indices in ascending order, as
            # edge_norms solves it alone, and a 2x2 block bitwise by the
            # closed form of _eig2x2
            where = np.argsort(perm)
            at, parts = 0, []
            for b in blocks:
                idx = np.sort(where[at : at + len(b)])
                block = A[np.ix_(idx, idx)]
                if len(b) == 2:
                    (a, c), (_, d) = block
                    parts.append(max(map(abs, _eig2x2(((a, c), (c, d)))[:2])))
                else:
                    parts.append(norm(block))
                at += len(b)
            assert norm(A) == max(parts)

    def test_norms_of_many_match_one_at_a_time(self):
        rng = np.random.default_rng(50)
        mats = []
        for _ in range(30):
            n = int(rng.integers(0, 25))
            A = random_symmetric(rng, n)
            A[np.abs(A) < 0.8] = 0.0  # sparse patterns split into blocks
            mats.append(A)
        got = edge_norms(map(entries, mats))
        assert got.shape == (30,)
        assert [float(x) for x in got] == [norm(A) for A in mats]
        assert edge_norms([]).shape == (0,)

    def test_edge_norms_take_entries_in_any_order(self):
        rng = np.random.default_rng(52)
        for _ in range(20):
            n = int(rng.integers(1, 20))
            A = random_symmetric(rng, n)
            A[np.abs(A) < 0.8] = 0.0
            rows, cols = np.nonzero(A)
            p = rng.permutation(rows.size)
            got = edge_norms([(n, rows[p], cols[p], A[rows, cols][p])])
            assert float(got[0]) == norm(A)
        # 1x1 blocks give |entry|
        d = rng.normal(size=7)
        d[2] = 0.0
        idx = np.flatnonzero(d)
        got = edge_norms([(7, idx, idx, d[idx])] + [(1, idx[:0], idx[:0], d[:0])])
        assert float(got[0]) == float(np.abs(d).max())
        assert got[1] == 0.0

    def test_stacking_cap_does_not_change_norms(self, monkeypatch):
        # random matrices and the windows of the two sap-scan golden configs,
        # with a cap that closes a batch mid-list and leaves the list ending
        # mid-batch
        rng = np.random.default_rng(51)
        lists = [[entries(random_symmetric(rng, int(rng.integers(1, 12))))
                  for _ in range(25)]]

        def record(matrices):
            lists.append(list(matrices))
            return edge_norms(lists[-1])

        monkeypatch.setattr(spatial_averaging, "edge_norms", record)
        for h, k, rho, lambda_max in GOLDEN_SCANS:
            spatial_averaging.sap_scan(h, k, rho, lambda_max)
        monkeypatch.undo()
        assert [len(mats) for mats in lists] == [25, 19, 16]
        for mats in lists:
            full = edge_norms(mats)
            cap = sum(n + len(values) for n, _, _, values in mats) * 2 // 5
            ends = batch_ends(mats, cap)
            assert 1 < ends[0] and ends[-1] < len(mats)
            monkeypatch.setattr(dense_eig, "STACK_ENTRIES", cap)
            assert np.array_equal(edge_norms(mats), full)
            monkeypatch.undo()

    def test_lazy_iterable_keeps_memory_bounded(self, monkeypatch):
        # a batch holds about 57 8x8 matrices; those a generator builds are
        # dropped once their batch is solved, so the peak stays far below
        # what the whole list takes
        def matrices():
            rng = np.random.default_rng(55)
            return (entries(random_symmetric(rng, 8)) for _ in range(1000))

        monkeypatch.setattr(dense_eig, "STACK_ENTRIES", 1 << 12)
        tracemalloc.start()
        try:
            size = tracemalloc.get_traced_memory()[0]
            listed = list(matrices())
            size = tracemalloc.get_traced_memory()[0] - size
            del listed
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            got = edge_norms(matrices())
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < size / 4
        last = list(matrices())[-1]
        assert got.shape == (1000,) and got[-1] == edge_norms([last])[0]
