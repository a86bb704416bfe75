"""Acceptance gate: one test per criterion, pass/fail visible per line.

Each test is self-contained: oracles are recomputed here (closed forms,
quadrature, Sturm bisection, brute recounts) rather than imported from the
library under test, except where the criterion explicitly measures agreement
between two library routes.
"""

import math
import time

import numpy as np
import sympy
import pytest

from imhyp.dense_eig import jacobi_eigenvalues
from imhyp.lattice_spectrum import (
    BoxDomain,
    enumerate_spectrum,
    three_square_gap_audit,
    weyl_fit,
)
from imhyp.reaction_field import (
    PROP34_BRACKET,
    middle_gap,
    solve_prop34,
    verify_prop35,
)
from imhyp.spatial_averaging import (
    Multiplier,
    h2_norm,
    mean,
    window_modes,
    windowed_matrix,
    windowed_norm,
)
from imhyp.stationary_spectrum import (
    ZERO_TOL,
    Linearization,
    anhim_common_gamma,
    count_profile,
    lemma41_threshold,
    operator_spectrum,
    unstable_index,
)
from oracles import quadrature_windowed_matrix, sturm_eigenvalues

CUBE = BoxDomain(dim=3)


def closed_form_non_representable(limit):
    """Integers <= limit of the form 4^a*(8b+7), computed directly."""
    m = np.arange(limit + 1, dtype=np.int64)
    reduced = m.copy()
    for _ in range(math.ceil(math.log(max(limit, 4), 4)) + 1):
        div = (reduced % 4 == 0) & (reduced > 0)
        reduced[div] //= 4
    return m[(reduced % 8) == 7]


def test_c1_gauss_gap_audit():
    started = time.perf_counter()
    audit = three_square_gap_audit(10**6)
    elapsed = time.perf_counter() - started
    assert audit.max_gap == 3
    assert tuple(audit.gap_witness) == (110, 113)
    expected = closed_form_non_representable(10**6)
    assert np.array_equal(np.sort(np.asarray(audit.excluded)), expected)
    assert elapsed <= 10.0, f"audit took {elapsed:.2f}s"


def test_c2_exact_delta_ladder_table():
    sqrt3 = sympy.sqrt(3)
    expected_diag = (
        (-2 * sqrt3, -2 * sqrt3),
        (2 * sqrt3 - 3, 2 * sqrt3 - 2),
        (2 * sqrt3 - 4, 2 * sqrt3 - 6),
        (2 * sqrt3 - 3, 2 * sqrt3 - 6),
    )
    exact = verify_prop35(exact=True)
    assert tuple(exact.deltas) == (0, 1, 2, 3)
    assert all(err == 0 for err in exact.delta_errors)
    for analysis, (d1, d2) in zip(exact.analyses, expected_diag):
        jac = analysis.jacobian
        assert sympy.simplify(jac[0][0] - d1) == 0
        assert sympy.simplify(jac[1][1] - d2) == 0
        assert sympy.simplify(jac[0][1]) == 0
        assert sympy.simplify(jac[1][0]) == 0

    approx = verify_prop35(exact=False)
    assert max(approx.delta_errors) <= 1e-12


def test_c3_tuned_parameter_pipeline():
    consts = solve_prop34()
    assert abs(middle_gap(consts.a_star) - 2.0) <= 1e-10
    assert 10.0 < consts.a_star < 10.5
    checklist = consts.checklist
    assert checklist.delta1_is_1
    assert checklist.delta3_is_3
    assert checklist.ordering
    assert checklist.r0sq_lt_12
    assert checklist.points_in_Dc
    assert checklist.points_norm_le_sqrt7
    lo, hi = PROP34_BRACKET  # the bisection needs a sign change on it
    assert middle_gap(lo) < 2.0 < middle_gap(hi)
    assert abs(middle_gap(1.0e6) - 4.0) < 0.01


def test_c4_bistable_certificates():
    # f(u) = u - u^3 on the cube: equilibria 0 (slope 1) and +-1 (slope -2)
    def family(nu):
        return [
            Linearization(CUBE, nu, np.array([[1.0]]), label="0"),
            Linearization(CUBE, nu, np.array([[-2.0]]), label="+1"),
            Linearization(CUBE, nu, np.array([[-2.0]]), label="-1"),
        ]

    for cutoff in (200.0, 500.0, 1000.0):
        cert = anhim_common_gamma(family(0.5), cutoff)
        assert cert.empty, f"expected empty certificate at cutoff {cutoff}"

    cert = anhim_common_gamma(family(2.0), 1000.0)
    assert not cert.empty
    witness = cert.result
    # the witness interval must map into the integer gap (110, 113) under
    # lambda = (xi - gamma) / nu for every equilibrium slope xi
    for xi in (1.0, -2.0):
        lam_lo = (xi - witness.gamma_hi) / 2.0
        lam_hi = (xi - witness.gamma_lo) / 2.0
        assert 110.0 - 1e-9 <= lam_lo < lam_hi <= 113.0 + 1e-9

    assert lemma41_threshold(1.0, -2.0, 3.0) == 1.0


def test_c5_spatial_averaging_soundness():
    rng = np.random.default_rng(2024)
    grid = [np.linspace(0.0, math.pi, 48) for _ in range(3)]

    def sup_deviation(h):
        vals = np.zeros((48, 48, 48))
        for f, c in h.coeffs.items():
            term = np.array(c)
            for axis in range(3):
                shape = [1, 1, 1]
                shape[axis] = 48
                term = term * np.cos(f[axis] * grid[axis]).reshape(shape)
            vals = vals + term
        return float(np.abs(vals - mean(h)).max())

    for _ in range(100):
        coeffs = {}
        for _ in range(int(rng.integers(2, 6))):
            f = tuple(int(x) for x in rng.integers(0, 5, size=3))
            coeffs[f] = coeffs.get(f, 0.0) + float(rng.normal())
        h = Multiplier(CUBE, coeffs)
        scaled = Multiplier(CUBE, {f: 1e3 * c for f, c in h.coeffs.items()})
        bound = sup_deviation(h) + 1e-8
        h2 = h2_norm(h)
        h2_scaled = h2_norm(scaled)
        done = 0
        while done < 20:
            lam = float(rng.uniform(3.0, 40.0))
            k = float(rng.uniform(0.5, 2.5))
            if not window_modes(CUBE, lam, k):
                continue
            norm = windowed_norm(h, lam, k)
            assert norm <= bound
            E = windowed_matrix(h, lam, k)
            Q = quadrature_windowed_matrix(h, lam, k)
            assert np.abs(E - Q).max() < 1e-10
            eps = norm / h2
            eps_scaled = windowed_norm(scaled, lam, k) / h2_scaled
            assert abs(eps - eps_scaled) <= 1e-10 * max(1.0, eps)
            done += 1


def test_c6_jacobi_against_sturm_bisection():
    rng = np.random.default_rng(6)
    for _ in range(1000):
        n = int(rng.integers(1, 13))
        A = rng.normal(size=(n, n)) * float(rng.uniform(0.2, 10.0))
        A = (A + A.T) / 2.0
        got = jacobi_eigenvalues(A)
        want = sturm_eigenvalues(A)
        assert np.abs(got - want).max() < 1e-10


def test_c7_growth_exponents():
    cases = [
        (BoxDomain(dim=1, bc="dirichlet"), 2.0, 0.01),
        (BoxDomain(dim=2, bc="neumann"), 1.0, 0.05),
        (BoxDomain(dim=3, bc="neumann"), 2.0 / 3.0, 0.05),
    ]
    for domain, expected, tol in cases:
        spec = enumerate_spectrum(domain, 1.0e4)
        fit = weyl_fit(spec, domain.dim)
        assert fit.expected == pytest.approx(expected, rel=1e-15)
        assert abs(fit.exponent - expected) <= tol, (
            f"dim {domain.dim} {domain.bc}: exponent {fit.exponent}"
        )


def test_c8_mode_count_consistency():
    rng = np.random.default_rng(8)
    gamma0 = math.nextafter(ZERO_TOL, math.inf)
    for _ in range(50):
        nu = float(rng.uniform(0.2, 3.0))
        if rng.integers(0, 2):
            jac = np.array([[float(rng.normal() * 3.0)]])
        else:
            jac = rng.normal(size=(2, 2)) * 2.0
        lin = Linearization(CUBE, nu, jac)
        cutoff = float((lin.xi_max + ZERO_TOL) / nu + rng.uniform(5.0, 40.0))

        index, _hyperbolic = unstable_index(lin, cutoff)
        profile = count_profile(lin, cutoff)
        assert index == profile.dim_at(gamma0)

        # brute recount: cumulative multiplicities of the descending spectrum
        parts = operator_spectrum(lin, cutoff)
        running = 0
        for (value, mult), count in zip(parts, profile.counts):
            running += mult
            assert count == running
            if value >= profile.valid_above:
                assert profile.dim_at(value) == running
