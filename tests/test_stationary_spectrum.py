import json
import math

import numpy as np
import pytest

from imhyp.driver import render_report, run
from imhyp.errors import ConfigError, HypothesisNotMet, PreconditionError
from imhyp import stationary_spectrum
from imhyp.lattice_spectrum import BoxDomain, enumerate_spectrum
from imhyp.reaction_field import lemma41_threshold
from imhyp.stationary_spectrum import (
    GAP_MIN,
    ZERO_TOL,
    Linearization,
    ModeCountProfile,
    ObstructionCertificate,
    Witness,
    anhim_common_gamma,
    count_profile,
    nhim_certificate,
    operator_spectrum,
    parity_report,
    unstable_index,
)

CUBE = BoxDomain(dim=3)


def scalar_lin(nu, slope, label=""):
    return Linearization(domain=CUBE, nu=nu, jac=[[slope]], label=label)


def bistable_family(nu):
    # slopes of u - u^3 at 0 and +-1
    return [
        scalar_lin(nu, 1.0, "0"),
        scalar_lin(nu, -2.0, "+1"),
        scalar_lin(nu, -2.0, "-1"),
    ]


def brute_parts(lin, cutoff):
    """Independent recount: jacobian eigenvalues via numpy, python loops."""
    spec = enumerate_spectrum(lin.domain, cutoff)
    eigs = np.linalg.eigvals(np.array(lin.jac, dtype=float))
    parts = []
    for lam, mult in spec.entries():
        for xi in eigs:
            parts.append((float(xi.real) - lin.nu * float(lam), int(mult)))
    merged = {}
    for r, m in parts:
        merged[round(r, 9)] = merged.get(round(r, 9), 0) + m
    return merged


class TestLinearization:
    def test_validation(self):
        with pytest.raises(ConfigError):
            Linearization(domain=CUBE, nu=0.0, jac=[[1.0]])
        with pytest.raises(ConfigError):
            Linearization(domain=CUBE, nu=1.0, jac=[[1.0, 0.0, 0.0]] * 3)
        with pytest.raises(ConfigError):
            Linearization(domain=CUBE, nu=1.0, jac=[[math.nan]])

    def test_jac_coercion(self):
        lin = Linearization(domain=CUBE, nu=1.0, jac=2.5)
        assert lin.jac == ((2.5,),)
        lin2 = Linearization(domain=CUBE, nu=1.0, jac=np.eye(2))
        assert lin2.jac == ((1.0, 0.0), (0.0, 1.0))

    def test_shifted(self):
        lin = Linearization(domain=CUBE, nu=1.0, jac=[[1.0, 2.0], [3.0, 4.0]])
        assert lin.shifted(-0.5).jac == ((0.5, 2.0), (3.0, 3.5))


class TestOperatorSpectrum:
    def test_scalar_slope_one_cutoff_four(self):
        lin = scalar_lin(1.0, 1.0)
        assert dict(operator_spectrum(lin, 4.0)) == {
            1.0: 1,
            0.0: 3,
            -1.0: 3,
            -2.0: 1,
            -3.0: 3,
        }

    def test_double_eigenvalue_top_part(self):
        s3 = math.sqrt(3.0)
        lin = Linearization(
            domain=CUBE, nu=1.0, jac=[[-2.0 * s3, 0.0], [0.0, -2.0 * s3]]
        )
        top, mult = operator_spectrum(lin, 4.0)[0]
        assert abs(top - (-2.0 * s3)) < 1e-15
        assert mult == 2

    def test_conjugate_pair_doubles_multiplicity(self):
        lin = Linearization(domain=CUBE, nu=1.0, jac=[[0.0, -1.0], [1.0, 0.0]])
        assert operator_spectrum(lin, 2.0) == [(0.0, 2), (-1.0, 6), (-2.0, 6)]

    def test_near_equal_parts_merge_on_either_side_of_zero(self):
        # eigenvalues 2e-6 apart, relative 4e-10 < 1e-9: one part of
        # multiplicity 2 at lambda = 0, kept at the larger value
        for xi in (5000.0, -5000.0):
            lin = Linearization(domain=CUBE, nu=1.0, jac=[[xi, 0.0], [0.0, xi - 2e-6]])
            assert operator_spectrum(lin, 1.0) == [(xi, 2), (xi - 1.0, 6)]

    def test_descending_order(self):
        lin = scalar_lin(0.7, -1.3)
        parts = [v for v, _ in operator_spectrum(lin, 30.0)]
        assert parts == sorted(parts, reverse=True)

    def test_matches_brute_recount(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            jac = rng.normal(size=(2, 2))
            lin = Linearization(domain=CUBE, nu=float(rng.uniform(0.3, 2.0)), jac=jac)
            got = {round(v, 9): m for v, m in operator_spectrum(lin, 20.0)}
            assert got == brute_parts(lin, 20.0)


class TestUnstableIndex:
    def test_bistable_cases(self):
        assert unstable_index(scalar_lin(1.5, 1.0), 100.0) == (1, True)
        assert unstable_index(scalar_lin(1.5, -2.0), 100.0) == (0, True)
        assert unstable_index(scalar_lin(0.2, 1.0), 100.0)[0] == 11

    def test_marginal_mode_flags_non_hyperbolic(self):
        l, hyp = unstable_index(scalar_lin(1.0, 1.0), 100.0)
        assert l == 1 and not hyp

    def test_cutoff_gate_names_requirement(self):
        lin = scalar_lin(0.1, 2.0)
        with pytest.raises(PreconditionError, match="need cutoff >"):
            unstable_index(lin, 15.0)
        # just above the gate it works
        l, _ = unstable_index(lin, 21.0)
        assert l == sum(m for v, m in operator_spectrum(lin, 21.0) if v > 1e-9)

    def test_matches_profile_above_zero_tol(self):
        rng = np.random.default_rng(9)
        for _ in range(15):
            lin = Linearization(
                domain=CUBE,
                nu=float(rng.uniform(0.4, 1.7)),
                jac=rng.normal(size=(2, 2)),
            )
            l, _ = unstable_index(lin, 50.0)
            prof = count_profile(lin, 50.0)
            assert l == prof.dim_at(float(np.nextafter(ZERO_TOL, np.inf)))


class TestParityReport:
    def test_bistable_parity(self):
        rep = parity_report(bistable_family(1.5), 100.0)
        assert [(e.label, e.index) for e in rep.entries] == [("0", 1), ("+1", 0), ("-1", 0)]
        table = {(p.label_a, p.label_b): (p.difference, p.even) for p in rep.pairs}
        assert table[("0", "+1")] == (1, False)
        assert table[("0", "-1")] == (1, False)
        assert table[("+1", "-1")] == (0, True)
        assert rep.excluded == ()

    def test_non_hyperbolic_excluded(self):
        rep = parity_report(bistable_family(1.0), 100.0)
        assert rep.excluded == ("0",)
        assert [(p.label_a, p.label_b) for p in rep.pairs] == [("+1", "-1")]

    def test_single_equilibrium_empty_pairs(self):
        rep = parity_report([scalar_lin(1.5, -2.0, "p")], 100.0)
        assert rep.pairs == ()

    def test_domain_mismatch(self):
        other = Linearization(domain=BoxDomain(dim=2), nu=1.5, jac=[[1.0]])
        with pytest.raises(ConfigError, match="share"):
            parity_report([scalar_lin(1.5, 1.0), other], 100.0)

    def test_no_equilibria_refused(self):
        with pytest.raises(ConfigError, match="need at least one linearization"):
            parity_report([], 100.0)


class TestCountProfile:
    def test_reference_counts(self):
        prof = count_profile(scalar_lin(1.0, 1.0), 50.0)
        assert prof.dim_at(-0.5) == 4
        assert prof.dim_at(2.0) == 0
        # closed cut: a breakpoint's own multiplicity is included
        assert prof.dim_at(1.0) == 1
        assert prof.dim_at(0.0) == 4

    def test_counts_nondecreasing_and_top_mult(self):
        prof = count_profile(Linearization(domain=CUBE, nu=0.8, jac=np.eye(2)), 40.0)
        assert np.all(np.diff(prof.counts) > 0)
        assert prof.counts[0] == 2  # double eigenvalue at lambda = 0

    def test_brute_recount_on_random_gammas(self):
        rng = np.random.default_rng(3)
        lin = Linearization(domain=CUBE, nu=0.6, jac=[[0.5, 1.0], [-0.3, -1.2]])
        prof = count_profile(lin, 40.0)
        merged = brute_parts(lin, 40.0)
        for gamma in rng.uniform(prof.valid_above, 2.0, size=40):
            want = sum(m for r, m in merged.items() if r >= round(float(gamma), 12))
            # avoid sampling exactly at a breakpoint: nudge off rounded values
            if any(abs(r - gamma) < 1e-7 for r in merged):
                continue
            assert prof.dim_at(float(gamma)) == want

    def test_gate_below_certified_range(self):
        prof = count_profile(scalar_lin(1.0, 1.0), 10.0)
        assert prof.valid_above == 1.0 - 10.0
        with pytest.raises(PreconditionError, match="cutoff"):
            prof.dim_at(prof.valid_above - 1.0)

    def test_shift_covariance(self):
        lin = Linearization(domain=CUBE, nu=0.9, jac=[[0.4, 0.2], [0.1, -0.8]])
        c = 0.37
        base = count_profile(lin, 30.0)
        shifted = count_profile(lin.shifted(c), 30.0)
        assert np.allclose(shifted.breakpoints, base.breakpoints + c, atol=1e-12)
        assert np.array_equal(shifted.counts, base.counts)


def gaps_below_zero_by_loop(prof, gap_min):
    """The per-breakpoint loop that ModeCountProfile.gaps_below_zero replaced."""
    out = []
    bp = prof.breakpoints
    if bp.size == 0:
        return out
    if bp[0] < 0.0:
        out.append(Witness(float(bp[0]), 0.0, 0))
    for i in range(bp.size - 1):
        hi, lo = float(bp[i]), float(bp[i + 1])
        certified_lo = max(lo, prof.valid_above)
        if hi - certified_lo < gap_min:
            continue
        cap = min(hi, 0.0)
        if cap > certified_lo:
            out.append(Witness(certified_lo, cap, int(prof.counts[i])))
    return out


class TestGapsBelowZero:
    def test_matches_the_loop_on_random_profiles(self, monkeypatch):
        rng = np.random.default_rng(11)
        seen_top = seen_clipped = 0
        for trial in range(300):
            size = int(rng.integers(0, 40))
            # integer grids make ties with 0, valid_above and gap_min common
            scale = (0.25, 1.0, 0.1)[trial % 3]
            vals = np.unique(rng.integers(-60, 20, size=size) * scale)[::-1]
            counts = np.cumsum(rng.integers(1, 5, size=vals.size)).astype(np.int64)
            valid_above = float(rng.integers(-70, 10) * scale)
            if trial % 5 == 0:  # signed zeros: max/min must keep the loop's pick
                vals = np.where(vals == 0.0, -0.0, vals)
                valid_above = -0.0 if valid_above == 0.0 else valid_above
            prof = ModeCountProfile(vals, counts, 100.0, valid_above)
            for gap_min in (GAP_MIN, scale, 2.5 * scale):
                want = gaps_below_zero_by_loop(prof, gap_min)
                monkeypatch.setattr(stationary_spectrum, "GAP_MIN", gap_min)
                # repr tells -0.0 from 0.0, 3 from 3.0 and numpy from Python types
                assert repr(prof.gaps_below_zero()) == repr(want)
            seen_top += bool(vals.size) and vals[0] < 0.0
            seen_clipped += any(w.gamma_lo == valid_above for w in want)
        assert seen_top > 10 and seen_clipped > 10


def feasible_dims(lin, cutoff):
    """Dimensions n cut off by some gamma < 0: the n of lin's gaps below zero."""
    return [w.n for w in count_profile(lin, cutoff).gaps_below_zero()]


class TestFeasibleDims:
    def test_stable_slope_contains_zero(self):
        assert 0 in feasible_dims(scalar_lin(0.5, -2.0), 60.0)

    def test_unstable_slope_dims(self):
        dims = feasible_dims(scalar_lin(0.5, 1.0), 60.0)
        assert dims[:5] == [7, 8, 11, 17, 20]
        assert 0 not in dims and 1 not in dims and 4 not in dims
        # one row per n, ascending: nhim-dims lists them in this order
        assert dims == sorted(set(dims))

    def test_huge_gap_min_empty(self, monkeypatch):
        monkeypatch.setattr(stationary_spectrum, "GAP_MIN", 1e9)
        assert feasible_dims(scalar_lin(0.5, 1.0), 60.0) == []


class TestAnhimCommonGamma:
    def test_small_nu_empty(self):
        cert = anhim_common_gamma(bistable_family(0.5), 1000.0)
        assert cert.empty
        assert cert.mode == "ANHIM"
        assert cert.caveat == "valid up to cutoff"

    def test_nu_two_headline_is_widest_cell(self):
        cert = anhim_common_gamma(bistable_family(2.0), 1000.0)
        assert not cert.empty
        assert cert.result == Witness(gamma_lo=-225.0, gamma_hi=-222.0, n=757)
        # 757 = modes with lambda <= 110 on the cube
        assert enumerate_spectrum(CUBE, 1000.0).count_leq(110.0) == 757

    def test_nu_two_witness_list(self):
        cert = anhim_common_gamma(bistable_family(2.0), 1000.0)
        assert cert.witnesses[0] == Witness(gamma_lo=-15.0, gamma_hi=-14.0, n=20)
        gammas = [w.gamma_hi for w in cert.witnesses]
        assert gammas == sorted(gammas, reverse=True)

    def test_every_witness_verifies(self):
        lins = bistable_family(2.0)
        cert = anhim_common_gamma(lins, 500.0)
        profiles = [count_profile(lin, 500.0) for lin in lins]
        for w in cert.witnesses:
            mid = 0.5 * (w.gamma_lo + w.gamma_hi)
            counts = [p.dim_at(mid) for p in profiles]
            assert counts == [w.n] * len(profiles)
            for p in profiles:
                assert not np.any(
                    (p.breakpoints > w.gamma_lo) & (p.breakpoints < w.gamma_hi)
                )

    def test_identical_pair_witnesses_every_gap(self, monkeypatch):
        lin = scalar_lin(1.0, -2.0, "p")
        cert = anhim_common_gamma([lin, lin], 30.0)
        prof = count_profile(lin, 30.0)
        assert not cert.empty
        monkeypatch.setattr(stationary_spectrum, "GAP_MIN", 0.0)
        assert len(cert.witnesses) == len(prof.gaps_below_zero())

    def test_small_shift_still_admits_witness(self):
        # a shift smaller than every gap leaves room for a common cut inside
        # any one gap, so the scan must find a witness (count profiles agree
        # on the overlap of the shifted gaps)
        lin = scalar_lin(1.0, -2.0, "p")
        cert = anhim_common_gamma([lin, lin.shifted(-0.5)], 30.0)
        assert not cert.empty
        assert cert.witnesses[0].n == 0

    def test_needs_two(self):
        with pytest.raises(ConfigError, match="two"):
            anhim_common_gamma([scalar_lin(1.0, 1.0)], 10.0)

    def test_json_shape(self):
        cert = anhim_common_gamma(bistable_family(2.0), 200.0)
        assert cert.mode == "ANHIM" and cert.cutoff == 200.0
        assert isinstance(cert.result, Witness)
        assert cert.equilibria == ("0", "+1", "-1")
        empty = anhim_common_gamma(bistable_family(0.5), 200.0)
        assert empty.empty and empty.result is None
        # the driver's certificate of the same family (u - u^3 on the cube)
        config = {"command": "anhim", "field": "cubic-scalar", "nu": 2,
                  "cutoff": 200}
        d = json.loads(render_report(run(config)))["result"]
        assert set(d) == {"mode", "cutoff", "result", "equilibria", "caveat"}
        assert d["mode"] == "ANHIM" and d["cutoff"] == 200.0
        assert d["result"] == {"gamma_lo": cert.result.gamma_lo,
                               "gamma_hi": cert.result.gamma_hi,
                               "n": cert.result.n}
        assert d["equilibria"] == ["0", "+1", "-1"]
        assert d["caveat"] == cert.caveat
        assert run({**config, "nu": 0.5})["result"]["result"] == "empty"


class TestNhimCertificate:
    def test_bistable_smallest_common_dim(self):
        cert = nhim_certificate(bistable_family(0.5), 60.0)
        assert cert.mode == "NHIM"
        assert not cert.empty
        assert cert.result.n == 7
        # per-equilibrium gamma intervals need not intersect; the reported
        # one must at least be a genuine gap of the first profile
        prof = count_profile(bistable_family(0.5)[0], 60.0)
        assert cert.result in prof.gaps_below_zero()

    def test_disjoint_dims_empty(self):
        # doubled multiplicities (double eigenvalue) miss the scalar
        # cumulative counts on this window (they collide at 78 later on)
        single = scalar_lin(0.5, 1.0, "a")
        double = Linearization(domain=CUBE, nu=0.5, jac=np.eye(2), label="b")
        fd_a = set(feasible_dims(single, 20.0))
        fd_b = set(feasible_dims(double, 20.0))
        assert not (fd_a & fd_b)
        cert = nhim_certificate([single, double], 20.0)
        assert cert.empty and cert.result is None
        report = run({"command": "nhim-dims", "jacs": "1;1,0,0,1",
                      "labels": "a,b", "nu": 0.5, "cutoff": 20})
        assert report["result"]["certificate"]["result"] == "empty"

    def test_carries_each_equilibriums_feasible_dims(self, monkeypatch):
        monkeypatch.setattr(stationary_spectrum, "GAP_MIN", 1e-3)
        lins = bistable_family(0.5)
        cert = nhim_certificate(lins, 60.0)
        assert len(cert.profiles) == len(cert.gaps) == len(lins)
        for lin, prof, rows in zip(lins, cert.profiles, cert.gaps):
            alone = count_profile(lin, 60.0)
            assert np.array_equal(prof.breakpoints, alone.breakpoints)
            assert np.array_equal(prof.counts, alone.counts)
            assert prof.valid_above == alone.valid_above
            assert prof.gaps_below_zero() == alone.gaps_below_zero()
            assert list(rows) == alone.gaps_below_zero()
        # every witness n is a feasible dimension of each equilibrium
        for w in cert.witnesses:
            for rows in cert.gaps:
                assert w.n in {g.n for g in rows}


@pytest.mark.parametrize("scan", [
    anhim_common_gamma,
    nhim_certificate,
    lambda lins, cutoff: nhim_certificate(lins[:1], cutoff),
])
def test_cutoff_certifying_nothing_below_zero_refused(scan):
    # xi_max = 1, nu = 2: every cutoff <= 0.5 leaves (-inf, 0) uncertified,
    # so an Empty result there would be vacuous
    for cutoff in (0.1, 0.5):
        with pytest.raises(PreconditionError, match=r"need cutoff > 0\.5"):
            scan(bistable_family(2.0), cutoff)
    assert scan(bistable_family(2.0), 0.6) is not None


class TestLemma41Threshold:
    def test_bistable_threshold_exact(self):
        assert lemma41_threshold([[1.0]], [[-2.0]], 3.0) == 1.0

    def test_generic_ratio(self):
        assert lemma41_threshold([[2.0]], [[-1.0]], 3.0) == 1.0
        assert lemma41_threshold([[0.5]], [[-0.5]], 4.0) == 0.25

    def test_nonpositive_drop_refused(self):
        with pytest.raises(HypothesisNotMet):
            lemma41_threshold([[1.0]], [[1.0]], 3.0)
        with pytest.raises(HypothesisNotMet):
            lemma41_threshold([[-2.0]], [[1.0]], 3.0)

    def test_scalar_only_and_positive_bound(self):
        with pytest.raises(ConfigError):
            lemma41_threshold(np.eye(2), [[0.0]], 3.0)
        with pytest.raises(ConfigError):
            lemma41_threshold([[1.0]], [[0.0]], 0.0)

    def test_consistent_with_common_gamma_scan(self):
        # below the threshold the scan stays empty at every tested cutoff
        nu_star = lemma41_threshold([[1.0]], [[-2.0]], 3.0)
        for cutoff in (200.0, 500.0, 1000.0):
            assert anhim_common_gamma(bistable_family(0.5 * nu_star), cutoff).empty
