"""Tests for box Laplacian enumeration, gaps, jump scans, and the
three-squares audit."""

import math

import numpy as np
import pytest

from imhyp import (
    BoxDomain,
    ConfigError,
    JumpQuery,
    PreconditionError,
    ResourceBudgetError,
    Spectrum,
    enumerate_spectrum,
    gap_stats,
    jump_condition_scan,
    three_square_gap_audit,
    weyl_fit,
)
import imhyp.lattice_spectrum as lattice_spectrum
from imhyp.driver import run
from imhyp.lattice_spectrum import _excluded_closed_form

from oracles import brute_lattice_entries, three_squares_by_enumeration


def entries_dict(spec):
    return {lam: m for lam, m in spec.entries()}


class TestEnumerateSpectrum:
    def test_1d_dirichlet_small(self):
        spec = enumerate_spectrum(BoxDomain(1, bc="dirichlet"), 10)
        assert entries_dict(spec) == {1.0: 1, 4.0: 1, 9.0: 1}
        assert spec.exact

    def test_3d_neumann_small(self):
        spec = enumerate_spectrum(BoxDomain(3, bc="neumann"), 5)
        assert entries_dict(spec) == {0.0: 1, 1.0: 3, 2.0: 3, 3.0: 1, 4.0: 3, 5.0: 6}

    def test_2d_neumann_small(self):
        spec = enumerate_spectrum(BoxDomain(2, bc="neumann"), 2)
        assert entries_dict(spec) == {0.0: 1, 1.0: 2, 2.0: 1}

    def test_periodic_default_scaling_3d(self):
        # signed frequencies: value 1 has 6 representations (+-1 on each axis)
        spec = enumerate_spectrum(BoxDomain(3, bc="periodic"), 2)
        assert entries_dict(spec) == {0.0: 1, 1.0: 6, 2.0: 12}

    def test_periodic_standard_scaling(self):
        # "standard" torus eigenvalues are 4x the default-scaling ones
        default = enumerate_spectrum(BoxDomain(1, bc="periodic"), 16)
        std = enumerate_spectrum(BoxDomain(1, bc="periodic"), 16, periodic_scaling="standard")
        assert entries_dict(default) == {0.0: 1, 1.0: 2, 4.0: 2, 9.0: 2, 16.0: 2}
        assert entries_dict(std) == {0.0: 1, 4.0: 2, 16.0: 2}

    @pytest.mark.parametrize("bc, dim, scaling", [
        pytest.param(bc, dim, scaling,
                     id=f"{bc}-{dim}" + ("" if scaling == "paper" else "-standard"))
        for scaling in ("paper", "standard")
        for bc in ("dirichlet", "neumann", "periodic")
        for dim in (1, 2, 3)
    ])
    def test_brute_force_oracle_pi_box(self, bc, dim, scaling):
        cutoff = 60 if dim == 3 else 500
        dom = BoxDomain(dim, bc=bc)
        spec = enumerate_spectrum(dom, cutoff, periodic_scaling=scaling)
        oracle = brute_lattice_entries(dom, cutoff, periodic_scaling=scaling)
        assert {int(lam): m for lam, m in spec.entries()} == oracle
        assert spec.total_count == sum(oracle.values())

    @pytest.mark.parametrize("bc", ["dirichlet", "neumann", "periodic"])
    def test_brute_force_oracle_general_sides(self, bc):
        dom = BoxDomain(2, sides=(math.pi, math.pi / math.sqrt(2)), bc=bc)
        spec = enumerate_spectrum(dom, 300)
        oracle = brute_lattice_entries(dom, 300)
        assert spec.total_count == sum(oracle.values())
        got = {round(lam, 9): m for lam, m in spec.entries()}
        want = {round(v, 9): m for v, m in oracle.items()}
        assert got == want

    def test_brute_force_oracle_3d_rational_sides(self):
        dom = BoxDomain(3, sides=(math.pi, 2 * math.pi, math.pi / 2), bc="neumann")
        spec = enumerate_spectrum(dom, 40)
        oracle = brute_lattice_entries(dom, 40)
        assert spec.total_count == sum(oracle.values())

    def test_monotonicity_under_cutoff(self):
        dom = BoxDomain(3, bc="neumann")
        small = enumerate_spectrum(dom, 100)
        large = enumerate_spectrum(dom, 400)
        n = len(small)
        assert np.array_equal(large.eigenvalues[:n], small.eigenvalues)
        assert np.array_equal(large.multiplicities[:n], small.multiplicities)

    def test_monotonicity_float_path(self):
        dom = BoxDomain(2, sides=(math.pi, math.pi / math.sqrt(3)), bc="dirichlet")
        small = enumerate_spectrum(dom, 200)
        large = enumerate_spectrum(dom, 900)
        n = len(small)
        assert np.allclose(large.eigenvalues[:n], small.eigenvalues, rtol=0, atol=1e-12)
        assert np.array_equal(large.multiplicities[:n], small.multiplicities)

    def test_budget_error_names_budget(self, monkeypatch):
        # the budget is read when the walk is sized, not bound at import
        monkeypatch.setattr(lattice_spectrum, "DEFAULT_BUDGET", 1000)
        with pytest.raises(ResourceBudgetError, match="budget of 1000 "):
            enumerate_spectrum(BoxDomain(3, bc="neumann"), 10**6)
        dom = BoxDomain(2, sides=(math.pi, math.pi / math.sqrt(2)), bc="neumann")
        with pytest.raises(ResourceBudgetError,
                           match="visits 7171 lattice points, over the budget"):
            enumerate_spectrum(dom, 10**4)

    def test_axis_over_the_budget_refused_before_allocating(self):
        # about 1e300 frequencies on one axis: no array of them can exist
        with pytest.raises(ResourceBudgetError,
                           match="1.00658424e\\+300 frequencies on axis 1"):
            enumerate_spectrum(BoxDomain(1, sides=(1e300,)), 10.0)
        with pytest.raises(ResourceBudgetError, match="on axis 2"):
            enumerate_spectrum(BoxDomain(2, sides=(3.0, 1e300)), 10.0)

    @pytest.mark.parametrize("side", [math.inf, -math.inf, math.nan])
    def test_non_finite_side_refused(self, side):
        with pytest.raises(ConfigError,
                           match="side lengths must be positive and finite"):
            BoxDomain(3, sides=(3.0, side, 3.0))

    def test_domain_validation(self):
        with pytest.raises(ConfigError):
            BoxDomain(4)
        with pytest.raises(ConfigError):
            BoxDomain(2, bc="robin")
        with pytest.raises(ConfigError):
            BoxDomain(2, sides=(1.0,))
        with pytest.raises(ConfigError):
            BoxDomain(1, sides=(-1.0,))
        with pytest.raises(ConfigError):
            enumerate_spectrum(BoxDomain(1), -1.0)

    def test_csv_round_trip(self, tmp_path):
        # spectrum --csv writes every entry at 17 digits, so the rows read
        # back to the spectrum; the exact pi-cube at 103.5 ends at 102
        path = tmp_path / "spec.csv"
        for domain, cutoff in ((BoxDomain(3), 103.5),
                               (BoxDomain(2, sides=(2.0, 2.7)), 60.0)):
            run({"command": "spectrum", "dim": domain.dim,
                 "sides": list(domain.sides), "cutoff": cutoff,
                 "csv": str(path)})
            header, *rows = path.read_text().splitlines()
            assert header == "lambda,multiplicity"
            back = [(float(lam), int(m))
                    for lam, m in (row.split(",") for row in rows)]
            assert back == enumerate_spectrum(domain, cutoff).entries()
            assert rows[-1].startswith("102,") == domain.is_pi_box


class TestGapStats:
    def test_single_gap(self):
        spec = Spectrum(np.array([0.0, 5.0]), np.array([1, 1]), cutoff=5.0)
        rep = gap_stats(spec)
        assert rep.max_gap == 5.0
        assert rep.witness == (0.0, 5.0)

    def test_needs_two_entries(self):
        spec = Spectrum(np.array([1.0]), np.array([4]), cutoff=1.0)
        with pytest.raises(PreconditionError):
            gap_stats(spec)

    def test_1d_dirichlet_first_1001(self):
        spec = enumerate_spectrum(BoxDomain(1, bc="dirichlet"), 1001**2)
        assert spec.total_count == 1001
        rep = gap_stats(spec)
        assert rep.max_gap == 2001.0
        assert rep.witness == (1000.0**2, 1001.0**2)

    def test_cube_gauss_bound_medium(self):
        spec = enumerate_spectrum(BoxDomain(3, bc="neumann"), 10**5)
        rep = gap_stats(spec)
        assert rep.max_gap == 3.0
        assert rep.witness == (110.0, 113.0)

    def test_cube_gauss_bound_periodic_default(self):
        spec = enumerate_spectrum(BoxDomain(3, bc="periodic"), 10**5)
        rep = gap_stats(spec)
        assert rep.max_gap == 3.0
        # periodic ("paper" scaling) and neumann share the same *set* of eigenvalues
        neu = enumerate_spectrum(BoxDomain(3, bc="neumann"), 10**5)
        assert np.array_equal(spec.eigenvalues, neu.eigenvalues)

    def test_histogram_counts_all_gaps(self):
        spec = enumerate_spectrum(BoxDomain(3, bc="neumann"), 1000)
        rep = gap_stats(spec)
        assert sum(c for _, c in rep.gap_histogram) == len(spec) - 1
        assert {g for g, _ in rep.gap_histogram} <= {1.0, 2.0, 3.0}

    def test_rectangle_trend_strictly_increases_each_decade(self):
        # rational squared side ratio: eigenvalues l1^2 + 2*l2^2
        dom = BoxDomain(2, sides=(math.pi, math.pi / math.sqrt(2)), bc="dirichlet")
        spec = enumerate_spectrum(dom, 10**5)
        eigs = spec.eigenvalues
        diffs = np.diff(eigs)
        runmax = np.maximum.accumulate(diffs)
        right = eigs[1:]

        def at(c):
            j = int(np.searchsorted(right, c, side="right")) - 1
            return runmax[j]

        checkpoints = [10.0**d for d in range(2, 6)]
        values = [at(c) for c in checkpoints]
        assert all(b > a for a, b in zip(values, values[1:]))
        # and the running max is nondecreasing by construction of the trend
        trend = gap_stats(spec).sup_trend
        tvals = [v for _, v in trend]
        assert all(b >= a for a, b in zip(tvals, tvals[1:]))


class TestJumpScan:
    def test_1d_theta0_satisfied(self):
        spec = enumerate_spectrum(BoxDomain(1, bc="dirichlet"), 200)
        res = jump_condition_scan(spec, JumpQuery(theta=0.0, lip=10.0, cconst=1.0, nu=1.0))
        assert res.satisfied
        assert res.best_n == 13  # left endpoint 169 = 13^2 of the widest gap
        assert res.best_ratio == pytest.approx(27.0 / 2.0)

    def test_theta0_reproduces_max_gap_up_to_denominator(self):
        # at theta=0 the denominator is mu^0 + mu^0 = 2 exactly
        spec = enumerate_spectrum(BoxDomain(3, bc="neumann"), 10**4)
        res = jump_condition_scan(spec, JumpQuery(theta=0.0, nu=1.0))
        rep = gap_stats(spec)
        assert 2.0 * res.best_ratio == rep.max_gap == 3.0
        assert not jump_condition_scan(
            spec, JumpQuery(theta=0.0, lip=4.0, cconst=1.0, nu=1.0)
        ).satisfied

    def test_theta0_witness_matches_gap_witness(self):
        spec = enumerate_spectrum(BoxDomain(3, bc="neumann"), 10**4)
        res = jump_condition_scan(spec, JumpQuery(theta=0.0, nu=1.0))
        rep = gap_stats(spec)
        lo, hi = res.best_pair
        assert (lo - 1.0, hi - 1.0) == rep.witness

    def test_1d_theta_half_saturates_at_one(self):
        spec = enumerate_spectrum(BoxDomain(1, bc="dirichlet"), 10**6)
        res = jump_condition_scan(spec, JumpQuery(theta=0.5, nu=1.0))
        assert res.best_n == 999
        assert abs(res.best_ratio - 1.0) < 1e-3
        # saturation: the running-max trend is nondecreasing and ends at the best
        tvals = [v for _, v in res.ratio_trend]
        assert all(b >= a for a, b in zip(tvals, tvals[1:]))
        assert tvals[-1] == pytest.approx(res.best_ratio)

    def test_query_validation(self):
        with pytest.raises(ConfigError):
            JumpQuery(theta=1.0)
        with pytest.raises(ConfigError):
            JumpQuery(nu=0.0)
        with pytest.raises(ConfigError):
            JumpQuery(lip=-1.0)


class TestThreeSquareAudit:
    def test_small_limit(self):
        audit = three_square_gap_audit(10)
        assert audit.excluded.tolist() == [7]
        assert audit.max_gap == 2

    def test_limit_120(self):
        audit = three_square_gap_audit(120)
        assert audit.max_gap == 3
        assert audit.gap_witness == (110, 113)
        assert 111 in audit.excluded and 112 in audit.excluded
        assert 111 == 8 * 13 + 7 and 112 == 4**2 * 7

    def test_excluded_run_up_to_1e4(self):
        audit = three_square_gap_audit(10**4)
        assert audit.max_excluded_run == 2

    def test_excluded_prefix(self):
        audit = three_square_gap_audit(120)
        assert audit.excluded.tolist()[:8] == [7, 15, 23, 28, 31, 39, 47, 55]

    def test_against_independent_enumeration(self):
        audit = three_square_gap_audit(2000)
        rep = three_squares_by_enumeration(2000)
        assert set(range(2001)) - set(audit.excluded.tolist()) == rep

    @pytest.mark.parametrize("limit", [8, 9, 10, 15, 16, 111, 112, 113, 120, 2000])
    def test_gaps_against_independent_enumeration(self, limit):
        # a trailing excluded run (limit 111, 112) has no representable end
        rep = sorted(three_squares_by_enumeration(limit))
        gaps = np.diff(rep)
        i = int(np.argmax(gaps))
        audit = three_square_gap_audit(limit)
        assert audit.max_gap == gaps[i]
        assert audit.gap_witness == (rep[i], rep[i + 1])

    def test_limit_precondition(self):
        with pytest.raises(PreconditionError):
            three_square_gap_audit(7)

    def test_table_over_the_budget_refused(self, monkeypatch):
        monkeypatch.setattr(lattice_spectrum, "DEFAULT_BUDGET", 1000)
        with pytest.raises(ResourceBudgetError, match="table of 10001 cells"):
            three_square_gap_audit(10**4)

    def test_closed_form_table(self):
        rep = three_squares_by_enumeration(3000)
        table = _excluded_closed_form(3000)
        assert table.dtype == bool
        assert table.tolist() == [n not in rep for n in range(3001)]

        def reduced_by_loop(limit):  # divide out 4 while it divides
            m = np.arange(limit + 1, dtype=np.int64)
            while True:
                div = (m > 0) & (m % 4 == 0)
                if not div.any():
                    return m % 8 == 7
                m = np.where(div, m // 4, m)

        # past 4^9, so every power of 4 up to 4^9 times 8b+7 occurs
        limit = 7 * 4**9 + 100
        assert np.array_equal(_excluded_closed_form(limit), reduced_by_loop(limit))


class TestWeylFit:
    def test_1d_exact_square_growth(self):
        spec = enumerate_spectrum(BoxDomain(1, bc="dirichlet"), 10**4)
        fit = weyl_fit(spec, 1)
        assert fit.exponent == pytest.approx(2.0, abs=1e-9)
        assert fit.residual < 1e-9

    def test_2d_and_3d_exponents(self):
        fit2 = weyl_fit(enumerate_spectrum(BoxDomain(2, bc="neumann"), 10**4), 2)
        assert fit2.exponent == pytest.approx(1.0, abs=0.05)
        fit3 = weyl_fit(enumerate_spectrum(BoxDomain(3, bc="neumann"), 10**4), 3)
        assert fit3.exponent == pytest.approx(2.0 / 3.0, abs=0.05)

    def test_needs_100_entries(self):
        spec = enumerate_spectrum(BoxDomain(1, bc="dirichlet"), 99**2)
        with pytest.raises(PreconditionError):
            weyl_fit(spec, 1)

