"""Compressed multiplier windows: closed-form entries vs quadrature, norms, scans."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from imhyp.driver import run
from imhyp.errors import ConfigError, PreconditionError, ResourceBudgetError
from imhyp.lattice_spectrum import BoxDomain, enumerate_spectrum
from imhyp.spatial_averaging import (
    Multiplier,
    h2_norm,
    mean,
    multiplier_from_json_dict,
    multiplier_to_json_dict,
    sap_scan,
    window_modes,
    windowed_matrix,
    windowed_norm,
)
import imhyp.dense_eig as dense_eig
import imhyp.lattice_spectrum as lattice_spectrum
import imhyp.spatial_averaging as spatial_averaging
from oracles import quadrature_windowed_matrix, sturm_eigenvalues

CUBE = BoxDomain(dim=3)
TORUS2 = BoxDomain(dim=2, bc="periodic")
# windowed-matrix inputs beyond the pi-cube and pi-torus: one axis, non-pi
# sides and a 3-D torus
NEUMANN_BOXES = (CUBE, BoxDomain(dim=1), BoxDomain(dim=2, sides=(2.3, 3.7)))
PERIODIC_BOXES = (
    TORUS2,
    BoxDomain(dim=3, bc="periodic"),
    BoxDomain(dim=2, sides=(2.5, 3.3), bc="periodic"),
)

COS_X1 = Multiplier(CUBE, {(1, 0, 0): 1.0})


def random_multiplier(rng, domain, max_freq=4, terms=4):
    coeffs = {}
    for _ in range(terms):
        f = tuple(int(x) for x in rng.integers(0, max_freq + 1, size=domain.dim))
        coeffs[f] = coeffs.get(f, 0.0) + float(rng.normal())
    return Multiplier(domain, coeffs)


def sample_grid(h, points):
    """Values of h on a dense product grid covering the box."""
    dim = h.domain.dim
    span = math.pi if h.domain.bc == "neumann" else 2.0 * math.pi
    axes = [
        np.linspace(0.0, span * a, points, endpoint=h.domain.bc == "neumann")
        for a in h.domain.axis_scales
    ]
    vals = np.zeros((points,) * dim)
    for f, c in h.coeffs.items():
        term = np.array(c)
        for t in range(dim):
            shape = [1] * dim
            shape[t] = points
            factor = np.cos(f[t] * axes[t] / h.domain.axis_scales[t])
            term = term * factor.reshape(shape)
        vals = vals + term
    return vals


def quad_mean(h, points=129):
    """Trapezoid (Neumann) or uniform-torus (periodic) average of h."""
    vals = sample_grid(h, points)
    if h.domain.bc == "neumann":
        for t in range(h.domain.dim):
            w = np.ones(points)
            w[0] = w[-1] = 0.5
            shape = [1] * h.domain.dim
            shape[t] = points
            vals = (vals * w.reshape(shape)).sum(axis=t, keepdims=True) / (points - 1)
        return float(vals.squeeze())
    return float(vals.mean())


class TestMultiplier:
    def test_rejects_dirichlet_domain(self):
        with pytest.raises(ConfigError):
            Multiplier(BoxDomain(dim=2, bc="dirichlet"), {(1, 1): 1.0})

    def test_rejects_bad_frequencies(self):
        with pytest.raises(ConfigError):
            Multiplier(CUBE, {(-1, 0, 0): 1.0})
        with pytest.raises(ConfigError):
            Multiplier(CUBE, {(0.5, 0, 0): 1.0})
        with pytest.raises(ConfigError):
            Multiplier(CUBE, {(1, 0): 1.0})

    def test_rejects_nonfinite_value(self):
        with pytest.raises(ConfigError):
            Multiplier(CUBE, {(1, 0, 0): math.inf})

    def test_duplicates_sum_and_zeros_drop(self):
        h = Multiplier(
            CUBE,
            [((1, 0, 0), 0.5), ((1, 0, 0), -0.5), ((2, 0, 0), 1.0)],
        )
        assert h.coeffs == {(2, 0, 0): 1.0}

    def test_row_form_matches_dict_form(self):
        rows = Multiplier(CUBE, [[1, 0, 0, 2.0], [0, 2, 1, -0.25]])
        table = Multiplier(CUBE, {(1, 0, 0): 2.0, (0, 2, 1): -0.25})
        assert rows.coeffs == table.coeffs
        assert rows.max_frequency == 2


class TestMean:
    def test_shifted_cosine(self):
        h = Multiplier(CUBE, {(0, 0, 0): 2.0, (1, 0, 0): 1.0})
        assert mean(h) == 2.0

    def test_pure_cosine(self):
        assert mean(COS_X1) == 0.0

    def test_matches_quadrature(self):
        rng = np.random.default_rng(11)
        for domain in (CUBE, TORUS2):
            for _ in range(5):
                h = random_multiplier(rng, domain)
                assert mean(h) == pytest.approx(quad_mean(h), abs=1e-12)


class TestH2Norm:
    def test_constant(self):
        h = Multiplier(CUBE, {(0, 0, 0): 3.0})
        assert h2_norm(h) == pytest.approx(3.0 * math.pi**1.5, rel=1e-15)

    def test_single_cosine(self):
        # orthonormal coefficient sqrt(pi^3/2) at eigenvalue 1, weight (1+1)
        assert h2_norm(COS_X1) == pytest.approx(
            2.0 * math.sqrt(math.pi**3 / 2.0), rel=1e-15
        )

    def test_dominates_l2(self):
        rng = np.random.default_rng(12)
        for domain in (CUBE, TORUS2):
            vol = math.prod(
                (math.pi if domain.bc == "neumann" else 2.0 * math.pi) * a
                for a in domain.axis_scales
            )
            for _ in range(6):
                h = random_multiplier(rng, domain)
                l2_sq = sum(
                    c * c * vol * 0.5 ** sum(1 for x in f if x)
                    for f, c in h.coeffs.items()
                )
                assert h2_norm(h) >= math.sqrt(l2_sq) - 1e-12

    def test_scaling_linearity(self):
        rng = np.random.default_rng(13)
        h = random_multiplier(rng, CUBE)
        scaled = Multiplier(CUBE, {f: -3.7 * c for f, c in h.coeffs.items()})
        assert h2_norm(scaled) == pytest.approx(3.7 * h2_norm(h), rel=1e-12)


class TestWindowModes:
    def test_frozen_window_and_ordering(self):
        # eigenvalues 4 and 5 lie in (3.5, 5.5]; sorted by eigenvalue then lex
        assert window_modes(CUBE, 4.5, 1.0) == [
            (0, 0, 2),
            (0, 2, 0),
            (2, 0, 0),
            (0, 1, 2),
            (0, 2, 1),
            (1, 0, 2),
            (1, 2, 0),
            (2, 0, 1),
            (2, 1, 0),
        ]

    def test_count_is_multiplicity_weighted(self):
        spec = enumerate_spectrum(CUBE, cutoff=40.0)
        for lam, k in [(4.5, 1.0), (12.5, 4.0), (20.0, 2.5)]:
            n = len(window_modes(CUBE, lam, k))
            assert n == spec.count_leq(lam + k) - spec.count_leq(lam - k)

    def test_periodic_signed_modes(self):
        assert set(window_modes(TORUS2, 1.0, 0.5)) == {
            (-1, 0),
            (0, -1),
            (0, 1),
            (1, 0),
        }

    def test_validation(self):
        with pytest.raises(ConfigError):
            window_modes(CUBE, 4.5, 0.0)
        with pytest.raises(ConfigError):
            window_modes(BoxDomain(dim=3, bc="dirichlet"), 4.5, 1.0)

    def test_budget_guard(self):
        with pytest.raises(ResourceBudgetError):
            window_modes(CUBE, 1.0e13, 1.0)

    def test_axis_over_the_budget_refused_before_allocating(self):
        # about 1e300 frequencies on the axis: no arange of them can exist
        with pytest.raises(ResourceBudgetError,
                           match="frequencies on axis 1, over the budget"):
            window_modes(BoxDomain(1, sides=(1e300,)), 5.0, 1.0)

    @pytest.mark.parametrize("domain, cells", [(CUBE, 15**3), (TORUS2, 29**2)])
    def test_grid_sized_against_the_lattice_budget(self, monkeypatch, domain,
                                                   cells):
        # frequencies 0..14 per Neumann axis, -14..14 per periodic one
        monkeypatch.setattr(lattice_spectrum, "DEFAULT_BUDGET", cells)
        assert window_modes(domain, 200.0, 1.0)
        monkeypatch.setattr(lattice_spectrum, "DEFAULT_BUDGET", cells - 1)
        with pytest.raises(ResourceBudgetError, match=(
                f"^window enumeration needs {cells} lattice cells, "
                f"over the budget of {cells - 1} lattice cells$")):
            window_modes(domain, 200.0, 1.0)


class TestWindowedMatrix:
    def test_cosine_coupling_and_zero_diagonal(self):
        modes = window_modes(CUBE, 12.5, 4.0)
        E = windowed_matrix(COS_X1, 12.5, 4.0)
        i = modes.index((3, 0, 0))
        j = modes.index((4, 0, 0))
        assert E[i, j] == pytest.approx(0.5, abs=1e-12)
        assert np.all(np.diag(E) == 0.0)

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(21)
        for domain in NEUMANN_BOXES + PERIODIC_BOXES:
            for _ in range(8):
                h = random_multiplier(rng, domain)
                lam = float(rng.uniform(4, 40))
                if not window_modes(domain, lam, 2.0):
                    continue
                E = windowed_matrix(h, lam, 2.0)
                assert np.array_equal(E, E.T)

    def test_matches_quadrature_neumann(self):
        rng = np.random.default_rng(22)
        for domain in NEUMANN_BOXES:
            for _ in range(20):
                h = random_multiplier(rng, domain)
                lam = float(rng.uniform(3, 50))
                k = float(rng.uniform(0.5, 3.5))
                if not window_modes(domain, lam, k):
                    continue
                E = windowed_matrix(h, lam, k)
                Q = quadrature_windowed_matrix(h, lam, k)
                assert np.abs(E - Q).max() < 1e-10

    def test_matches_quadrature_periodic(self):
        rng = np.random.default_rng(23)
        for domain in PERIODIC_BOXES:
            for _ in range(10):
                h = random_multiplier(rng, domain, max_freq=3)
                lam = float(rng.uniform(2, 30))
                k = float(rng.uniform(0.5, 2.5))
                if not window_modes(domain, lam, k):
                    continue
                E = windowed_matrix(h, lam, k)
                Q = quadrature_windowed_matrix(h, lam, k)
                assert np.abs(E - Q).max() < 1e-10

    def test_constant_gives_zero_matrix(self):
        h = Multiplier(CUBE, {(0, 0, 0): 5.0})
        assert np.all(windowed_matrix(h, 12.5, 4.0) == 0.0)

    def test_empty_window_rejected(self):
        # no cube eigenvalue lies in (6.2, 6.8]
        with pytest.raises(PreconditionError):
            windowed_matrix(COS_X1, 6.5, 0.3)

    def test_cancelled_entry_is_no_entry(self):
        # h = cos x - cos 3x on (0, pi): <e_1, h e_2> = 1/2 - 1/2 is exactly 0,
        # and like np.nonzero on the dense matrix, the entry list skips it
        h = Multiplier(BoxDomain(dim=1), {(1,): 1.0, (3,): -1.0})
        rows, _, values = spatial_averaging._edges(h, [(1,), (2,)])
        assert rows.size == 0 and values.size == 0
        assert np.array_equal(windowed_matrix(h, 2.5, 2.0), np.zeros((2, 2)))
        assert windowed_norm(h, 2.5, 2.0) == 0.0
        modes = [(0,), (1,), (2,), (3,), (4,)]
        rows, cols, values = spatial_averaging._edges(h, modes)
        E = np.zeros((5, 5))
        E[rows, cols] = values
        assert np.all(values != 0.0) and E[1, 2] == E[2, 1] == 0.0
        assert np.array_equal(np.argwhere(E), np.stack([rows, cols], axis=1))
        assert E[0, 1] == math.sqrt(2.0) / 2.0 and E[0, 3] == -math.sqrt(2.0) / 2.0

    def test_mean_shift_is_exact(self):
        rng = np.random.default_rng(24)
        h = random_multiplier(rng, CUBE)
        shifted_coeffs = dict(h.coeffs)
        zero = (0, 0, 0)
        shifted_coeffs[zero] = shifted_coeffs.get(zero, 0.0) + 4.25
        shifted = Multiplier(CUBE, shifted_coeffs)
        assert np.array_equal(
            windowed_matrix(h, 15.0, 3.0), windowed_matrix(shifted, 15.0, 3.0)
        )


class TestWindowedNorm:
    def test_frozen_cosine_window(self):
        val = windowed_norm(COS_X1, 50.0, 5.0)
        assert 0.0 < val <= 1.0
        assert val == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-12)
        brute = float(np.abs(np.linalg.eigvalsh(windowed_matrix(COS_X1, 50.0, 5.0))).max())
        assert val == pytest.approx(brute, rel=1e-12)

    def test_monotone_in_window_width(self):
        norms = [windowed_norm(COS_X1, 30.0, k) for k in (2.0, 5.0, 8.0)]
        assert norms[0] <= norms[1] + 1e-12
        assert norms[1] <= norms[2] + 1e-12

    def test_scaling_linearity(self):
        rng = np.random.default_rng(31)
        h = random_multiplier(rng, CUBE)
        scaled = Multiplier(CUBE, {f: -3.7 * c for f, c in h.coeffs.items()})
        assert windowed_norm(scaled, 18.0, 3.0) == pytest.approx(
            3.7 * windowed_norm(h, 18.0, 3.0), rel=1e-10
        )

    def test_block_split_norm_matches_sturm(self):
        rng = np.random.default_rng(33)
        cases = []
        for domain in NEUMANN_BOXES + PERIODIC_BOXES:
            for _ in range(3):
                cases.append((random_multiplier(rng, domain, max_freq=3),
                              float(rng.uniform(4, 25)), 2.0))
        dense = random_multiplier(rng, CUBE, terms=int(rng.integers(8, 21)))
        assert len(dense.coeffs) >= 8
        cases += [(dense, 14.0, 3.0), (dense, 22.0, 2.0)]
        checked = 0
        for h, lam, k in cases:
            if not window_modes(h.domain, lam, k):
                continue
            E = windowed_matrix(h, lam, k)
            want = float(np.abs(sturm_eigenvalues(E, tol=1e-15)).max())
            assert windowed_norm(h, lam, k) == pytest.approx(want, rel=1e-12, abs=1e-14)
            checked += 1
        assert checked >= 15

    def test_compression_bound(self):
        rng = np.random.default_rng(32)
        for _ in range(6):
            h = random_multiplier(rng, CUBE)
            sup_dev = float(np.abs(sample_grid(h, 64) - mean(h)).max())
            assert windowed_norm(h, 20.0, 3.0) <= sup_dev + 1e-8


class TestSapScan:
    def test_validation(self):
        with pytest.raises(ConfigError):
            sap_scan(COS_X1, 0.0, 1.0, 100.0)
        with pytest.raises(ConfigError):
            sap_scan(COS_X1, 1.0, 0.0, 100.0)
        with pytest.raises(ConfigError):
            sap_scan(COS_X1, 1.0, 1.0, -5.0)

    def test_basic_scan_shape(self):
        reports = sap_scan(COS_X1, 1.0, 1.0, 60.0)
        assert reports
        for r in reports:
            assert r.k == 1.0
            assert r.gap >= 1.0
            assert r.rho_ok
            assert r.h2_norm == pytest.approx(h2_norm(COS_X1), rel=1e-15)
            assert r.eps_eff == pytest.approx(
                r.op_norm / r.h2_norm if r.h2_norm else 0.0, rel=1e-15
            )
        keys = [(r.eps_eff, r.lam) for r in reports]
        assert keys == sorted(keys)

    def test_window_counts_match_spectrum(self):
        spec = enumerate_spectrum(CUBE, cutoff=80.0)
        for r in sap_scan(COS_X1, 1.0, 1.0, 60.0):
            assert r.window_modes == spec.count_leq(r.lam + r.k) - spec.count_leq(
                r.lam - r.k
            )

    def test_wide_rho_gives_empty_scan(self):
        # integer cube gaps never exceed 3
        assert sap_scan(COS_X1, 1.0, 10.0, 500.0) == []

    def test_cutoff_doubles_until_a_mode_exceeds_lambda_max(self, monkeypatch):
        # on (0, 0.3) the eigenvalues are (n pi / 0.3)^2 = 0, 109.66, ...: the
        # first cutoff, 50 + 6 = 56, holds none above lambda_max = 50
        h = Multiplier(BoxDomain(1, sides=(0.3,)), {(1,): 1.0})
        cutoffs = []
        enumerate_spectrum = spatial_averaging.enumerate_spectrum

        def record(domain, cutoff, **kwargs):
            cutoffs.append(cutoff)
            return enumerate_spectrum(domain, cutoff, **kwargs)

        monkeypatch.setattr(spatial_averaging, "enumerate_spectrum", record)
        reports = sap_scan(h, 20, 1, 50)
        assert cutoffs == [56.0, 112.0]
        assert len(reports) == 1
        r = reports[0]
        assert (r.gap, r.lam) == (109.6622711232151, 109.6622711232151 / 2)
        assert (r.window_modes, r.op_norm, r.eps_eff) == (0, 0.0, 0.0)

    def test_constant_multiplier_all_zero(self):
        h = Multiplier(CUBE, {(0, 0, 0): 2.0})
        reports = sap_scan(h, 1.0, 1.0, 60.0)
        assert reports
        assert all(r.op_norm == 0.0 and r.eps_eff == 0.0 for r in reports)

    def test_min_eps_monotone_under_scan_inclusion(self):
        small = sap_scan(COS_X1, 1.0, 1.0, 200.0)
        large = sap_scan(COS_X1, 1.0, 1.0, 1000.0)
        assert {r.lam for r in small} <= {r.lam for r in large}
        assert min(r.eps_eff for r in large) <= min(r.eps_eff for r in small)

    def test_wider_window_min_eps_strictly_improves(self):
        # with k=5 no window decouples completely, so the minimum moves
        small = sap_scan(COS_X1, 5.0, 1.0, 200.0)
        large = sap_scan(COS_X1, 5.0, 1.0, 1000.0)
        m_small = min(r.eps_eff for r in small)
        m_large = min(r.eps_eff for r in large)
        assert m_small == pytest.approx(0.0897935610625833, rel=1e-12)
        assert m_large == pytest.approx(0.06349363593424097, rel=1e-12)
        assert m_large < m_small


SCANS = (
    (COS_X1, 5.0, 1.0, 100.0),
    (random_multiplier(np.random.default_rng(61), CUBE, terms=12), 3.0, 1.0, 20.0),
    (random_multiplier(np.random.default_rng(62), TORUS2, max_freq=3, terms=8),
     3.0, 1.0, 40.0),
)


class TestSapScanWindows:
    """sap_scan enumerates modes once and solves all windows together; each
    row must equal the single-window routines bit for bit."""

    @pytest.mark.parametrize("scan", range(len(SCANS)))
    def test_rows_match_single_window_routines(self, scan):
        h, k, rho, lambda_max = SCANS[scan]
        reports = sap_scan(h, k, rho, lambda_max)
        assert reports
        for r in reports:
            assert r.window_modes == len(window_modes(h.domain, r.lam, r.k))
            if r.window_modes:
                assert r.op_norm == windowed_norm(h, r.lam, r.k)
            else:
                assert r.op_norm == 0.0

    @pytest.mark.parametrize("scan", range(len(SCANS)))
    def test_window_slices_equal_window_modes(self, scan, monkeypatch):
        # each window the scan solves has as many modes as window_modes and,
        # scattered, is windowed_matrix at its midpoint bit for bit
        h, k, rho, lambda_max = SCANS[scan]
        seen = []
        edge_norms = spatial_averaging.edge_norms

        def record(matrices):
            matrices = list(matrices)
            seen.extend(matrices)
            return edge_norms(matrices)

        monkeypatch.setattr(spatial_averaging, "edge_norms", record)
        reports = sap_scan(h, k, rho, lambda_max)
        monkeypatch.undo()
        mids = sorted(r.lam for r in reports)
        assert len(seen) == len(mids)
        for mid, (n, rows, cols, values) in zip(mids, seen):
            assert n == len(window_modes(h.domain, mid, k))
            if n:
                E = np.zeros((n, n))
                E[rows, cols] = values
                assert np.array_equal(E, windowed_matrix(h, mid, k))
                assert np.all(values != 0.0)

    def test_scan_peak_memory_below_one_dense_window(self):
        # the k=40 window at lambda 111.5 has n=762 modes and 1,258 entries; a
        # dense n x n float array alone would take 8 n^2 bytes (4.43 MiB)
        tracemalloc.start()
        try:
            reports = sap_scan(COS_X1, 40.0, 3.0, 120.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n = reports[0].window_modes
        assert len(reports) == 1 and n == 762
        assert peak < 8 * n * n

    def test_stacking_cap_does_not_change_scan(self, monkeypatch):
        h, k, rho, lambda_max = SCANS[0]
        full = sap_scan(h, k, rho, lambda_max)
        monkeypatch.setattr(dense_eig, "STACK_ENTRIES", 64)
        assert sap_scan(h, k, rho, lambda_max) == full


class TestSerialization:
    def test_json_round_trip(self):
        h = Multiplier(CUBE, {(1, 0, 0): 1.0, (0, 2, 1): -0.25})
        data = multiplier_to_json_dict(h)
        assert data["coeffs"] == [[0, 2, 1, -0.25], [1, 0, 0, 1.0]]
        back = multiplier_from_json_dict(json.loads(json.dumps(data)))
        assert back.coeffs == h.coeffs
        assert back.domain.bc == "neumann" and back.domain.dim == 3

    def test_json_missing_keys(self):
        with pytest.raises(ConfigError):
            multiplier_from_json_dict({"coeffs": []})
        with pytest.raises(ConfigError):
            multiplier_from_json_dict({"domain": {"dim": 3, "bc": "neumann"}})

    def test_csv_round_trip(self, tmp_path):
        # the driver writes the scan table: one row per window, in scan order
        path = tmp_path / "sap.csv"
        run({"command": "sap-scan", "h": "cos-x1", "k": 1, "rho": 1,
             "lambda-max": 30, "csv": str(path)})
        reports = sap_scan(COS_X1, 1.0, 1.0, 30.0)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "lambda,k,window_modes,op_norm,h2_norm,eps_eff,gap,rho_ok"
        assert len(lines) == len(reports) + 1
        for line, r in zip(lines[1:], reports):
            cells = line.split(",")
            assert [float(c) for c in cells[:2]] == [r.lam, r.k]
            assert int(cells[2]) == r.window_modes
            assert [float(c) for c in cells[3:7]] == [
                r.op_norm, r.h2_norm, r.eps_eff, r.gap]
            assert cells[7] == ("true" if r.rho_ok else "false")
