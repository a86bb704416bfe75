import json
import math
from fractions import Fraction

import numpy as np
import pytest
import sympy as sym

from imhyp.driver import run
from imhyp.errors import ConfigError, HypothesisNotMet
from imhyp.lattice_spectrum import BoxDomain
from imhyp.stationary_spectrum import Linearization
import imhyp.reaction_field as reaction_field
from imhyp.reaction_field import (
    CubicCoupled,
    CubicUncoupled,
    GeneralPoly,
    analyze_point,
    coupled_ladder_params,
    delta_of,
    dissipativity_radius,
    field_from_json_dict,
    fixed_points,
    invariant_region_check,
    lemma33_check,
    middle_gap,
    prop35_field,
    solve_prop34,
    verify_prop35,
)


def eigengap_oracle(J):
    """Real-part gap straight from numpy's eigensolver."""
    eigs = np.linalg.eigvals(np.array(J, dtype=float))
    re = np.sort(eigs.real)
    return float(re[1] - re[0])


def linear_field(m):
    """GeneralPoly wrapping the linear map v -> m @ v (fixed point at 0)."""
    (a00, a01), (a10, a11) = m
    return GeneralPoly(
        f1_coeffs=((1, 0, a00), (0, 1, a01)),
        f2_coeffs=((1, 0, a10), (0, 1, a11)),
    )


class TestFieldConstruction:
    def test_positive_parameters_required(self):
        with pytest.raises(ConfigError):
            CubicCoupled(k=0.0, a=1.0, b=1.0)
        with pytest.raises(ConfigError):
            CubicCoupled(k=1.0, a=-2.0, b=1.0)
        with pytest.raises(ConfigError):
            CubicUncoupled(a=1.0, b=1.0, c=0.0, d=1.0)

    def test_poly_degree_cap(self):
        with pytest.raises(ConfigError):
            GeneralPoly(f1_coeffs=((3, 3, 1.0),), f2_coeffs=((0, 1, 1.0),))
        with pytest.raises(ConfigError):
            GeneralPoly(f1_coeffs=((-1, 0, 1.0),), f2_coeffs=())

    def test_poly_coefficients_normalized(self):
        f = GeneralPoly(f1_coeffs=((1.0, 0, "2"),), f2_coeffs=((0, 1, 3),))
        assert f.f1_coeffs == ((1, 0, 2.0),)
        assert f.f2_coeffs == ((0, 1, 3.0),)


class TestFixedPoints:
    def test_coupled_closed_forms(self):
        # a=4, b=1: axis roots at 1/2 and 1, interior at (sqrt(2/5), sqrt(3/5))
        f = CubicCoupled(k=1.0, a=4.0, b=1.0)
        pts = [an.point_float for an in fixed_points(f)]
        x2, y2 = math.sqrt(2.0 / 5.0), math.sqrt(3.0 / 5.0)
        expected = sorted(
            [
                (0.0, 0.0),
                (0.5, 0.0),
                (-0.5, 0.0),
                (0.0, 1.0),
                (0.0, -1.0),
                (x2, y2),
                (x2, -y2),
                (-x2, y2),
                (-x2, -y2),
            ]
        )
        assert len(pts) == 9
        for got, want in zip(pts, expected):
            assert math.hypot(got[0] - want[0], got[1] - want[1]) < 1e-12

    def test_coupled_no_interior_branch_below_one(self):
        # a < 1 kills the interior quadruple: only origin and axis pairs
        f = CubicCoupled(k=1.0, a=0.5, b=2.0)
        assert len(fixed_points(f)) == 5

    def test_exact_a_just_below_one_has_no_interior_branch(self):
        # float(a) rounds to 1.0; the exact sign of a - 1 keeps the interior
        # roots, sqrt of a negative, out
        f = CubicCoupled(k=sym.Integer(1), a=1 - sym.Rational(1, 10**20),
                         b=sym.Integer(1))
        assert len(fixed_points(f)) == 5

    def test_uncoupled_grid_of_roots(self):
        f = CubicUncoupled(a=1.0, b=2.0, c=3.0, d=4.0)
        pts = {an.point_float for an in fixed_points(f, region=((-5, 5), (-5, 5)))}
        assert pts == {(x, y) for x in (0.0, 1.0, 2.0) for y in (0.0, 3.0, 4.0)}

    def test_region_filter(self):
        f = CubicUncoupled(a=1.0, b=2.0, c=3.0, d=4.0)
        pts = {an.point_float for an in fixed_points(f, region=((-0.5, 1.5), (-0.5, 3.5)))}
        assert pts == {(0.0, 0.0), (0.0, 3.0), (1.0, 0.0), (1.0, 3.0)}

    def test_sorted_lexicographically(self):
        f = prop35_field(exact=False)
        pts = [an.point_float for an in fixed_points(f)]
        assert pts == sorted(pts)

    def test_residual_invariant(self):
        for f in (CubicCoupled(k=0.7, a=3.3, b=0.9), prop35_field(exact=False)):
            for an in fixed_points(f):
                norm = math.hypot(*an.point_float)
                assert an.residual_float <= 1e-10 * (1.0 + norm**3)

    def test_newton_matches_closed_forms(self):
        a, b, c, d = 2.0, math.sqrt(3.0), math.sqrt(6.0), math.sqrt(2.0)
        poly = GeneralPoly(
            f1_coeffs=((3, 0, -1.0), (2, 0, a + b), (1, 0, -a * b)),
            f2_coeffs=((0, 3, -1.0), (0, 2, c + d), (0, 1, -c * d)),
        )
        ref = fixed_points(prop35_field(exact=False))
        got = fixed_points(poly)
        assert len(got) == len(ref) == 9
        for g, r in zip(got, ref):
            gx, gy = g.point_float
            rx, ry = r.point_float
            assert math.hypot(gx - rx, gy - ry) < 1e-10
            assert abs(g.delta_float - r.delta_float) < 1e-9

    def test_newton_with_an_empty_coefficient_table(self):
        # an empty table sums to the scalar 0; the fixed points of these
        # fields fill the plane or a line, so Newton admits none
        for f1, f2 in (((), ()), ((), ((1, 0, 1.0),))):
            assert fixed_points(GeneralPoly(f1_coeffs=f1, f2_coeffs=f2)) == []

    def test_degenerate_region_rejected(self):
        with pytest.raises(ConfigError):
            fixed_points(prop35_field(exact=False), region=((1.0, 1.0), (0.0, 1.0)))

    @pytest.mark.parametrize("field, region", [
        (CubicCoupled(k=1.0, a=7.0, b=0.5), ((0.0, math.inf), (0.0, 1.0))),
        (GeneralPoly(f1_coeffs=((1, 0, 1.0),), f2_coeffs=((0, 1, 1.0),)),
         ((-math.inf, 1.0), (0.0, 1.0))),
        (prop35_field(exact=False), ((0.0, 1.0), (0.0, math.inf))),
    ], ids=["closed-form", "newton", "y-bound"])
    def test_infinite_region_refused_before_any_search(self, monkeypatch,
                                                       field, region):
        def no_search(*args):
            raise AssertionError("searched an infinite region")

        monkeypatch.setattr(reaction_field, "_closed_form_candidates", no_search)
        monkeypatch.setattr(reaction_field, "_newton_candidates", no_search)
        with pytest.raises(ConfigError, match="nondegenerate finite box"):
            fixed_points(field, region=region)


class TestDelta:
    def test_matches_numpy_eigensolver(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            k, a, b = rng.uniform(0.5, 3.0, size=3)
            f = CubicCoupled(k=k, a=a, b=b)
            for an in fixed_points(f):
                assert abs(an.delta_float - eigengap_oracle(an.jacobian)) < 1e-12
        for _ in range(25):
            a, b, c, d = rng.uniform(0.5, 3.0, size=4)
            f = CubicUncoupled(a=a, b=b, c=c, d=d)
            for an in fixed_points(f, region=((-5, 5), (-5, 5))):
                assert abs(an.delta_float - eigengap_oracle(an.jacobian)) < 1e-12

    def test_complex_pair_gives_zero(self):
        # pure rotation: eigenvalues +-i
        an = analyze_point(linear_field(((0.0, -1.0), (1.0, 0.0))), (0.0, 0.0))
        assert an.delta_float == 0.0
        xi1, xi2 = an.eigenvalues
        assert xi1 == complex(0.0, 1.0) and xi2 == complex(0.0, -1.0)

    def test_exact_complex_pair_gives_zero(self):
        # Jacobian ((-7, 2), (-2, -6)) at (1, 1): discriminant 1 - 16 < 0
        one = sym.Integer(1)
        an = analyze_point(CubicCoupled(one, 3 * one, 2 * one), (one, one))
        xi1, xi2 = an.eigenvalues
        assert xi1 == sym.Rational(-13, 2) + sym.sqrt(15) * sym.I / 2
        assert xi2 == sym.Rational(-13, 2) - sym.sqrt(15) * sym.I / 2
        assert an.delta == 0 and isinstance(an.delta, sym.Integer)
        # the float branch gives the same pair
        fl = analyze_point(CubicCoupled(1.0, 3.0, 2.0), (1.0, 1.0))
        assert fl.delta == 0.0
        for exact, approx in zip(an.eigenvalues, fl.eigenvalues):
            assert abs(complex(exact) - approx) < 1e-15

    def test_invariant_under_identity_shift(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            m = rng.normal(size=(2, 2))
            c = rng.normal()
            base = analyze_point(linear_field(m.tolist()), (0.0, 0.0))
            shifted = analyze_point(
                linear_field((m + c * np.eye(2)).tolist()), (0.0, 0.0)
            )
            assert abs(base.delta_float - shifted.delta_float) < 1e-10

    def test_eigenvalues_ordered_by_real_part(self):
        an = analyze_point(linear_field(((2.0, 0.0), (0.0, 5.0))), (0.0, 0.0))
        assert an.eigenvalues == (5.0, 2.0)

    def test_close_real_eigenvalues_keep_their_gap(self):
        # tr^2 - 4det cancels to 0 here; (a-d)^2 + 4bc keeps the gap 2^-26
        m = ((1.0, 0.0), (0.0, 1.0 + 2.0**-26))
        an = analyze_point(linear_field(m), (0.0, 0.0))
        assert an.delta_float == 2.0**-26
        assert an.eigenvalues == (1.0 + 2.0**-26, 1.0)
        lin = Linearization(domain=BoxDomain(dim=1), nu=1.0, jac=m)
        assert lin.xi_parts == ((1.0 + 2.0**-26, 1), (1.0, 1))

    def test_rejects_non_fixed_point(self):
        with pytest.raises(HypothesisNotMet, match="not a fixed point"):
            delta_of(prop35_field(exact=False), (0.5, 0.5))

    def test_accepts_fixed_point_within_cap(self):
        an = delta_of(prop35_field(exact=False), (0.0, 0.0))
        assert an.delta_float == 0.0


class TestCoupledLadder:
    def test_parameter_relations(self):
        for a in (7.0, 9.25, 14.0):
            k, b = coupled_ladder_params(a)
            assert k == a / (3.0 * a - 1.0)
            assert b == a / (6.0 * a - 3.0)

    def test_outer_gaps_pinned(self):
        # with the (k, b) normalization the axis gaps are 1 and 3 for any a
        for a in (7.0, 8.3, 10.331851412425749, 19.0):
            k, b = coupled_ladder_params(a)
            f = CubicCoupled(k=k, a=a, b=b)
            d1 = delta_of(f, (1.0 / math.sqrt(a), 0.0)).delta_float
            d3 = delta_of(f, (0.0, 1.0 / math.sqrt(b))).delta_float
            assert abs(d1 - 1.0) < 1e-12
            assert abs(d3 - 3.0) < 1e-12

    def test_middle_gap_frozen_values(self):
        # a=7 is exactly rational: 2*(7/20)*(188/39)/(88/39) = 329/220
        assert abs(middle_gap(7.0) - float(Fraction(329, 220))) < 1e-15
        assert abs(middle_gap(10.0) - 1.959147814627718) < 1e-12
        assert abs(middle_gap(10.5) - 2.0200765508774463) < 1e-12
        assert abs(middle_gap(1e6) - 4.0) < 1e-4

    def test_middle_gap_strictly_increasing_near_root(self):
        grid = np.arange(10.0, 10.5 + 1e-9, 1e-3)
        vals = [middle_gap(float(a)) for a in grid]
        assert all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))

    def test_middle_gap_matches_interior_delta(self):
        for a in (7.5, 10.0, 12.0):
            k, b = coupled_ladder_params(a)
            f = CubicCoupled(k=k, a=a, b=b)
            p2 = (
                math.sqrt((b + 1.0) / (a * b + 1.0)),
                math.sqrt((a - 1.0) / (a * b + 1.0)),
            )
            assert abs(delta_of(f, p2).delta_float - middle_gap(a)) < 1e-12


class TestProp34:
    def test_solution_and_checklist(self):
        c = solve_prop34()
        assert 10.0 < c.a_star < 10.5
        assert c.phi_residual <= 1e-10
        assert c.checklist.all_pass()
        assert abs(c.deltas[0]) == 0.0
        assert abs(c.deltas[1] - 1.0) < 1e-9
        assert abs(c.deltas[2] - 2.0) < 1e-9
        assert abs(c.deltas[3] - 3.0) < 1e-9

    def test_solution_value_stable(self):
        c = solve_prop34()
        assert abs(c.a_star - 10.331851412425749) < 1e-6

    def test_checklist_geometry(self):
        c = solve_prop34()
        assert c.a_star >= 1.0 + 1.0 / c.b >= c.b
        assert 2.0 / c.b < 12.0
        root6 = math.sqrt(6.0)
        for x, y in c.points:
            assert 0.0 <= x <= 1.0 and 0.0 <= y <= root6
            assert math.hypot(x, y) <= math.sqrt(7.0)


class TestProp35:
    def test_exact_ladder(self):
        rep = verify_prop35(exact=True)
        assert rep.deltas == (0, 1, 2, 3)
        assert rep.delta_errors == (0.0, 0.0, 0.0, 0.0)
        assert rep.ladder_ok()

    def test_exact_points(self):
        rep = verify_prop35(exact=True)
        s3, s2, s6 = sym.sqrt(3), sym.sqrt(2), sym.sqrt(6)
        expected = ((0, 0), (s3, s2), (2, s6), (s3, s6))
        for an, want in zip(rep.analyses, expected):
            assert sym.simplify(an.point[0] - want[0]) == 0
            assert sym.simplify(an.point[1] - want[1]) == 0

    def test_exact_jacobians(self):
        rep = verify_prop35(exact=True)
        s3 = sym.sqrt(3)
        expected = (
            (-2 * s3, -2 * s3),
            (2 * s3 - 3, 2 * s3 - 2),
            (2 * s3 - 4, 2 * s3 - 6),
            (2 * s3 - 3, 2 * s3 - 6),
        )
        for an, (e00, e11) in zip(rep.analyses, expected):
            (j00, j01), (j10, j11) = an.jacobian
            assert sym.simplify(j00 - e00) == 0
            assert sym.simplify(j11 - e11) == 0
            assert sym.simplify(j01) == 0 and sym.simplify(j10) == 0

    def test_exact_fixed_points_simplify_at_most_once_per_point(self, monkeypatch):
        calls = []
        simplify = sym.simplify
        monkeypatch.setattr(sym, "simplify",
                            lambda *args, **kw: calls.append(1) or simplify(*args, **kw))
        assert len(fixed_points(prop35_field(exact=True))) == 9
        assert len(calls) <= 9

    def test_exact_coupled_eigenvalues_solve_the_characteristic_polynomial(self):
        # four of the nine points have a non-triangular Jacobian
        field = CubicCoupled(k=sym.Rational(1, 2), a=sym.Integer(3),
                             b=sym.sqrt(2) / 2)
        floats = fixed_points(CubicCoupled(k=0.5, a=3.0, b=math.sqrt(2) / 2))
        analyses = fixed_points(field)
        assert sum(an.jacobian[0][1] != 0 for an in analyses) == 4
        for an, fl in zip(analyses, floats):
            (a, b), (c, d) = an.jacobian
            assert isinstance(an.delta, sym.Basic)
            assert abs(an.delta_float - fl.delta_float) < 1e-12
            for xi in an.eigenvalues:
                char = xi**2 - (a + d) * xi + (a * d - b * c)
                assert abs(sym.N(char, 30)) < 1e-25

    def test_float_ladder_within_1e_12(self):
        rep = verify_prop35(exact=False)
        assert reaction_field.PROP35_LADDER_TOL == 1e-12
        assert rep.ladder_ok()

    def test_lemma33_on_both_constructions(self):
        assert lemma33_check(prop35_field(exact=False)).verdict
        c = solve_prop34()
        f = CubicCoupled(k=c.k, a=c.a_star, b=c.b)
        res = lemma33_check(f)
        assert res.verdict
        deltas = sorted(an.delta_float for an in res.matches.values())
        assert max(abs(d - i) for i, d in enumerate(deltas)) < 1e-6

    def test_lemma33_fails_without_ladder(self):
        assert not lemma33_check(CubicCoupled(k=1.0, a=4.0, b=1.0)).verdict


class TestDissipativityAndRegion:
    def test_coupled_radius(self):
        f = CubicCoupled(k=0.5, a=3.0, b=0.25)
        rep = dissipativity_radius(f, samples=2000, seed=3)
        assert rep.verified
        assert abs(rep.r0**2 - 2.0 / 0.25) < 1e-12
        assert rep.component_radii is None

    def test_uncoupled_radii(self):
        f = CubicUncoupled(a=1.0, b=2.0, c=3.0, d=0.5)
        rep = dissipativity_radius(f, samples=2000, seed=4)
        assert rep.verified
        assert rep.component_radii == (2.0, 3.0)
        assert rep.r0 == 3.0

    def test_poly_rejected(self):
        with pytest.raises(ConfigError):
            dissipativity_radius(linear_field(((1.0, 0.0), (0.0, 1.0))))

    def test_region_condition(self):
        assert invariant_region_check(CubicCoupled(k=1.0, a=2.0, b=1.0), 1.0)
        assert not invariant_region_check(CubicCoupled(k=1.0, a=2.0, b=1.0), 2.0)
        assert not invariant_region_check(CubicCoupled(k=1.0, a=2.0, b=0.2), 1.0)
        c = solve_prop34()
        f = CubicCoupled(k=c.k, a=c.a_star, b=c.b)
        assert invariant_region_check(f, math.sqrt(6.0))

    def test_exact_region_check_at_tight_bounds(self):
        # a=3, b=1/2, c=sqrt(2): c^2 = 1/b = a - 1, so both bounds are tight;
        # exactly the box is invariant, in floats c*c overshoots a - 1
        exact = CubicCoupled(k=1, a=sym.Integer(3), b=sym.Rational(1, 2))
        assert invariant_region_check(exact, sym.sqrt(2))
        assert not invariant_region_check(exact, sym.sqrt(3))
        assert not invariant_region_check(exact, sym.Rational(7, 5))
        assert not invariant_region_check(CubicCoupled(k=1.0, a=3.0, b=0.5),
                                          math.sqrt(2.0))

    def test_region_check_needs_coupled(self):
        with pytest.raises(ConfigError):
            invariant_region_check(prop35_field(exact=False), 1.0)


class TestSerialization:
    def test_round_trip_all_kinds(self):
        # JSON text of each kind reads back to the field it describes
        cases = [
            ({"kind": "cubic_coupled", "k": 0.25, "a": 7.0, "b": 0.5},
             CubicCoupled(k=0.25, a=7.0, b=0.5)),
            ({"kind": "cubic_uncoupled", "a": 2.0, "b": math.sqrt(3),
              "c": math.sqrt(6), "d": math.sqrt(2)},
             prop35_field(exact=False)),
            ({"kind": "cubic_uncoupled", "a": "2", "b": "sqrt(3)",
              "c": "sqrt(6)", "d": "sqrt(2)"},
             prop35_field(exact=True)),
            ({"kind": "poly", "f1": [[1, 0, 1.0], [3, 0, -1.0]],
              "f2": [[0, 1, -2.0]]},
             GeneralPoly(f1_coeffs=((1, 0, 1.0), (3, 0, -1.0)),
                         f2_coeffs=((0, 1, -2.0),))),
        ]
        for data, field in cases:
            assert field_from_json_dict(json.loads(json.dumps(data))) == field

    def test_symbolic_values_as_strings(self):
        f = field_from_json_dict({"kind": "cubic_uncoupled", "a": "2",
                                  "b": "sqrt(3)", "c": "sqrt(6)",
                                  "d": "sqrt(2)"})
        assert isinstance(f.b, sym.Basic)
        assert sym.simplify(f.b - sym.sqrt(3)) == 0

    def test_one_number_makes_a_float_field(self):
        f = field_from_json_dict({"kind": "cubic_uncoupled", "a": "2", "b": "sqrt(3)",
                                  "c": "sqrt(6)", "d": 1.5})
        params = (f.a, f.b, f.c, f.d)
        assert params == (2.0, math.sqrt(3), math.sqrt(6), 1.5)
        assert all(type(x) is float for x in params)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, "nan", "oo", "-1"])
    def test_non_finite_or_non_positive_parameter(self, value):
        # an all-string field is exact: "nan" and "oo" reach the check as sympy values
        other = "1" if isinstance(value, str) else 1.0
        with pytest.raises(ConfigError, match="b must be positive and finite"):
            field_from_json_dict(
                {"kind": "cubic_coupled", "k": other, "a": other, "b": value})

    def test_bad_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            field_from_json_dict({"kind": "quartic"})
        with pytest.raises(ConfigError, match="kind"):
            field_from_json_dict({})

    def test_delta_csv(self, tmp_path):
        # the driver writes the delta table: one row per reported point
        path = tmp_path / "fixed.csv"
        report = run({"command": "fixed-points", "field": "prop35-float",
                      "csv": str(path)})
        lines = path.read_text().splitlines()
        assert lines[0] == "i,px,py,xi1_re,xi1_im,xi2_re,xi2_im,delta"
        points = report["result"]["points"]
        assert len(lines) == len(points) + 1
        for i, (line, pt) in enumerate(zip(lines[1:], points)):
            index, *cells = line.split(",")
            assert index == str(i)
            xi1, xi2 = pt["eigenvalues"]
            assert [float(c) for c in cells] == [*pt["point"], *xi1, *xi2,
                                                 pt["delta"]]
        assert any(abs(pt["delta"] - 3.0) < 1e-12 for pt in points)
