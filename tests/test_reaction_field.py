import json
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
import sympy as sym

from imhyp.driver import run
from imhyp.errors import ConfigError, HypothesisNotMet, NumericalFailure
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
    Prop35Report,
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

    def test_parameter_types(self):
        # int, Fraction, str and exact values make an exact field, one float a
        # float field; any other type, sympy's included, is refused
        exact = CubicCoupled(k=1, a=Fraction(7, 2), b="sqrt(2)")
        assert exact == CubicCoupled(k="1", a="7/2", b=exact_real("sqrt(2)"))
        assert not any(isinstance(x, float) for x in (exact.k, exact.a, exact.b))
        floats = CubicCoupled(k=1, a=Fraction(7, 2), b=np.float64(0.5))
        assert (floats.k, floats.a, floats.b) == (1.0, 3.5, 0.5)
        assert all(type(x) is float for x in (floats.k, floats.a, floats.b))
        for bad in (sym.Integer(2), sym.sqrt(2), None, 1j, [2]):
            with pytest.raises(ConfigError, match="^b must be an int, Fraction, float"):
                CubicCoupled(k=1, a=2, b=bad)

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
        pts = [tuple(map(float, an.point)) for an in fixed_points(f)]
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
        f = CubicCoupled(k=1, a=1 - Fraction(1, 10**20), b=1)
        assert len(fixed_points(f)) == 5

    def test_uncoupled_grid_of_roots(self):
        f = CubicUncoupled(a=1.0, b=2.0, c=3.0, d=4.0)
        pts = {tuple(map(float, an.point)) for an in fixed_points(f, region=((-5, 5), (-5, 5)))}
        assert pts == {(x, y) for x in (0.0, 1.0, 2.0) for y in (0.0, 3.0, 4.0)}

    def test_region_filter(self):
        f = CubicUncoupled(a=1.0, b=2.0, c=3.0, d=4.0)
        pts = {tuple(map(float, an.point)) for an in fixed_points(f, region=((-0.5, 1.5), (-0.5, 3.5)))}
        assert pts == {(0.0, 0.0), (0.0, 3.0), (1.0, 0.0), (1.0, 3.0)}

    @pytest.mark.parametrize("b, count", [("1.000000005", 9), (1.000000005, 6)],
                             ids=["exact", "float"])
    def test_points_5e_9_apart(self, b, count):
        # v1 = 1 and v1 = b: exact points are one only when equal, float
        # points within DEDUPE_TOL
        f = field_from_json_dict({"kind": "cubic_uncoupled", "a": "1", "b": b,
                                  "c": "2", "d": "3"})
        assert len(fixed_points(f)) == count

    def test_exact_origin_beside_a_point_1e_10_away(self):
        # the origin, ladder target 0, and the axis root (-1e-10, 0)
        f = field_from_json_dict({"kind": "cubic_coupled", "k": "1", "a": "1e20",
                                  "b": "1"})
        assert len(fixed_points(f)) == 9
        assert list(lemma33_check(f).matches) == [0]

    def test_sorted_lexicographically(self):
        f = prop35_field(exact=False)
        pts = [tuple(map(float, an.point)) for an in fixed_points(f)]
        assert pts == sorted(pts)

    def test_residual_invariant(self):
        for f in (CubicCoupled(k=0.7, a=3.3, b=0.9), prop35_field(exact=False)):
            for an in fixed_points(f):
                norm = math.hypot(*map(float, an.point))
                assert float(an.residual) <= 1e-10 * (1.0 + norm**3)

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
            gx, gy = tuple(map(float, g.point))
            rx, ry = tuple(map(float, r.point))
            assert math.hypot(gx - rx, gy - ry) < 1e-10
            assert abs(float(g.delta) - float(r.delta)) < 1e-9

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
                assert abs(float(an.delta) - eigengap_oracle(an.jacobian)) < 1e-12
        for _ in range(25):
            a, b, c, d = rng.uniform(0.5, 3.0, size=4)
            f = CubicUncoupled(a=a, b=b, c=c, d=d)
            for an in fixed_points(f, region=((-5, 5), (-5, 5))):
                assert abs(float(an.delta) - eigengap_oracle(an.jacobian)) < 1e-12

    def test_complex_pair_gives_zero(self):
        # pure rotation: eigenvalues +-i
        an = analyze_point(linear_field(((0.0, -1.0), (1.0, 0.0))), (0.0, 0.0))
        assert float(an.delta) == 0.0
        xi1, xi2 = an.eigenvalues
        assert xi1 == complex(0.0, 1.0) and xi2 == complex(0.0, -1.0)

    def test_exact_complex_pair_gives_zero(self):
        # Jacobian ((-7, 2), (-2, -6)) at (1, 1): discriminant 1 - 16 < 0;
        # the pair is correctly rounded, the gap an exact 0
        one = Fraction(1)
        an = analyze_point(CubicCoupled(one, 3 * one, 2 * one), (one, one))
        xi1, xi2 = an.eigenvalues
        assert xi1 == complex(-6.5, math.sqrt(15) / 2)
        assert xi2 == complex(-6.5, -math.sqrt(15) / 2)
        assert an.delta == 0 and float(an.delta) == 0.0
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
            assert abs(float(base.delta) - float(shifted.delta)) < 1e-10

    def test_eigenvalues_ordered_by_real_part(self):
        an = analyze_point(linear_field(((2.0, 0.0), (0.0, 5.0))), (0.0, 0.0))
        assert an.eigenvalues == (5.0, 2.0)

    def test_close_real_eigenvalues_keep_their_gap(self):
        # tr^2 - 4det cancels to 0 here; (a-d)^2 + 4bc keeps the gap 2^-26
        m = ((1.0, 0.0), (0.0, 1.0 + 2.0**-26))
        an = analyze_point(linear_field(m), (0.0, 0.0))
        assert float(an.delta) == 2.0**-26
        assert an.eigenvalues == (1.0 + 2.0**-26, 1.0)
        lin = Linearization(domain=BoxDomain(dim=1), nu=1.0, jac=m)
        assert lin.xi_parts == ((1.0 + 2.0**-26, 1), (1.0, 1))

    def test_rejects_non_fixed_point(self):
        with pytest.raises(HypothesisNotMet, match="not a fixed point"):
            delta_of(prop35_field(exact=False), (0.5, 0.5))

    def test_accepts_fixed_point_within_cap(self):
        an = delta_of(prop35_field(exact=False), (0.0, 0.0))
        assert float(an.delta) == 0.0


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
            d1 = float(delta_of(f, (1.0 / math.sqrt(a), 0.0)).delta)
            d3 = float(delta_of(f, (0.0, 1.0 / math.sqrt(b))).delta)
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
            assert abs(float(delta_of(f, p2).delta) - middle_gap(a)) < 1e-12


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
            assert sym.simplify(oracle(an.point[0]) - want[0]) == 0
            assert sym.simplify(oracle(an.point[1]) - want[1]) == 0

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
            (j00, j01), (j10, j11) = [[oracle(v) for v in row] for row in an.jacobian]
            assert sym.simplify(j00 - e00) == 0
            assert sym.simplify(j11 - e11) == 0
            assert sym.simplify(j01) == 0 and sym.simplify(j10) == 0

    def test_exact_coupled_eigenvalues_solve_the_characteristic_polynomial(self):
        # four of the nine points have a non-triangular Jacobian
        field = CubicCoupled(k=Fraction(1, 2), a=3, b="sqrt(2)/2")
        floats = fixed_points(CubicCoupled(k=0.5, a=3.0, b=math.sqrt(2) / 2))
        analyses = fixed_points(field)
        assert sum(an.jacobian[0][1] != 0 for an in analyses) == 4
        for an, fl in zip(analyses, floats):
            (a, b), (c, d) = [[oracle(v) for v in row] for row in an.jacobian]
            assert abs(float(an.delta) - float(fl.delta)) < 1e-12
            for xi in map(oracle, an.eigenvalues):
                char = xi**2 - (a + d) * xi + (a * d - b * c)
                assert abs(sym.N(char, 30)) < 1e-25

    def test_exact_ladder_is_matched_exactly(self):
        # a = 2 + 1e-8 moves the gaps by about 1e-8: inside LADDER_TOL, so
        # only the float field matches the ladder
        strings = ("2 + 1/100000000", "sqrt(3)", "sqrt(6)", "sqrt(2)")
        exact = CubicUncoupled(*strings)
        assert lemma33_check(CubicUncoupled(float(exact.a), *strings[1:])).verdict
        assert not lemma33_check(exact).verdict
        # 3 + 1e-20 rounds to 3.0: the float errors are 0, the exact gap is not 3
        deltas = tuple(map(exact_real, ("0", "1", "2", "3 + 1/10**20")))
        errors = tuple(abs(float(d) - i) for i, d in enumerate(deltas))
        assert errors == (0.0,) * 4
        assert not Prop35Report(True, (), deltas, errors).ladder_ok()
        assert Prop35Report(False, (), tuple(map(float, deltas)), errors).ladder_ok()

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
        deltas = sorted(float(an.delta) for an in res.matches.values())
        assert max(abs(d - i) for i, d in enumerate(deltas)) < 1e-6

    def test_lemma33_fails_without_ladder(self):
        assert not lemma33_check(CubicCoupled(k=1.0, a=4.0, b=1.0)).verdict


def exact_real(text):
    """An exact value, read by the grammar of field strings."""
    return reaction_field._parse(text)


def oracle(x):
    """sympy's reading of a value through its repr, which is in the grammar."""
    return sym.sympify(repr(x))


def rounded(x):
    """The double nearest the exact value x, from 40 significant digits."""
    return float(sym.N(oracle(x), 40))


class TestSurd:
    """The exact real type of exact fields (the test names keep those of
    the sum-of-surds type it replaced)."""

    @staticmethod
    def root(n):
        return exact_real(f"sqrt({n})")

    def test_floats_at_the_nine_fixed_points_are_correctly_rounded(self):
        analyses = [an for field in (prop35_field(exact=True),
                                     CubicCoupled(k="1/2", a="3", b="sqrt(2)/2"))
                    for an in fixed_points(field)]
        assert len(analyses) == 18
        for an in analyses:
            (j00, j01), (j10, j11) = an.jacobian
            values = (*an.point, j00, j01, j10, j11, *an.eigenvalues, an.delta)
            assert [float(v) for v in values] == [rounded(v) for v in values]
            assert an.residual == 0 and float(an.residual) == 0.0

    def test_sign_of_values_near_zero(self):
        s2 = self.root(2)
        near = 1393 * s2 - 1970  # 2 * 1393**2 = 1970**2 - 2
        assert near.is_negative and not (-near).is_negative
        assert float(near) == rounded(near)
        # (1 - sqrt 2)**61 is about -4e-24: float arithmetic on its two
        # terms, each about 2e23, cannot even tell its sign
        tiny = (1 - s2) ** 61
        assert tiny.is_negative and not (tiny * tiny).is_negative
        assert float(tiny) == rounded(tiny) < 0
        assert not exact_real("0").is_negative

    def test_zero_is_canonical(self):
        # zeros that no enclosure can show: the separation bound decides them
        s2, s3, s6 = self.root(2), self.root(3), self.root(6)
        assert (s2 + s3) ** 2 - 5 - 2 * s6 == 0
        assert s6 - s2 * s3 == 0 and float(s6 - s2 * s3) == 0.0
        assert s2 * s2 == 2 and s2 * s6 == 2 * s3 and s6 * s6 * s3 == 6 * s3
        assert hash(s2 * s2) == hash(2) and hash(s2 * s6) == hash(2 * s3)
        assert s2 + s3 != self.root(5) and s2 != 1.4142135623730951
        # a float operand is taken exactly: the double nearest sqrt 2 is above it
        gap = s2 - 1.4142135623730951
        assert gap.is_negative and float(gap) == rounded(gap) != 0.0
        assert s2 * 0.0 == 0 and type(s2 * 0.0) is reaction_field._Real

    def test_non_finite_floats_and_overflow(self):
        s2 = self.root(2)
        assert s2 + math.inf == math.inf and type(s2 - math.inf) is float
        assert math.isnan(s2 * math.nan) and math.isnan(math.nan - s2)
        huge = s2 * 1e300 * 1e300
        assert float(huge) == math.inf and float(-huge) == -math.inf
        assert not huge.is_negative
        # a rounding tie is decided exactly: 1 + 2**-53 is halfway to the next double
        tie = (s2 + 2.0**-53) - s2 + 1
        assert float(tie) == 1.0 and float(tie + 2.0**-60) == 1.0 + 2.0**-52

    def test_tie_on_a_negative_value_rounds_half_to_even(self):
        s2 = self.root(2)
        tie = (s2 + (1 + Fraction(1, 2**53))) - s2  # 1 + 2**-53, not a leaf
        assert float(-tie) == -1.0 and float(tie) == 1.0

    def test_divisor_whose_first_enclosure_holds_zero(self):
        # sqrt(2) - q is about 1e-31, so its 64-bit enclosure holds 0 and the
        # quotient, and a sum over it, wait for a finer one
        q = Fraction(math.isqrt(2 * 10**62), 10**31)
        x = 1 / (self.root(2) - q)
        with localcontext() as ctx:
            ctx.prec = 80  # an 80-digit oracle
            want = float(1 / (Decimal(2).sqrt() - Decimal(q.numerator) / q.denominator))
        assert want == 1.0195907254209846e+31
        assert float(x) == want and float(x + 1) == want

    def test_sign_past_the_precision_cap(self):
        # sqrt(2) - q is about 1e-20000: no enclosure up to 65536 bits decides it
        q = Fraction(math.isqrt(2 * 10**40000), 10**20000)
        with pytest.raises(NumericalFailure,
                           match="^an exact sign needs more than 65536 bits$"):
            (self.root(2) - q).is_negative

    def test_division_by_an_exact_zero(self):
        s2 = self.root(2)
        with pytest.raises(ZeroDivisionError, match="division by an exact 0"):
            s2 / (s2 - s2)
        with pytest.raises(ConfigError, match="^k is not an exact number: "):
            field_from_json_dict({"kind": "cubic_coupled", "a": "3", "b": "1",
                                  "k": "sqrt(2)/(sqrt(2)-sqrt(2))"})

    def test_repr_and_sympy(self):
        s3 = self.root(3)
        values = [2 * s3 - 3, -s3 * self.root(2) + 1, s3 * Fraction(3, 4) - Fraction(1, 2),
                  -s3 - self.root(2), exact_real("0"), (1 - s3) ** 3 / (s3 + 7),
                  exact_real("sqrt(sqrt(2) + 1/3)") - 1.25]
        for x in values:
            assert exact_real(repr(x)) == x
            assert float(x) == rounded(x)
        assert repr(exact_real("1/2")) == "1/2"
        assert sym.simplify(oracle(2 * s3 - 3) - (2 * sym.sqrt(3) - 3)) == 0
        assert complex(2 * s3 - 3) == complex(rounded(2 * s3 - 3))


# (k, a, b) of coupled fields, a = b among them, as exact rationals
COUPLED_PARAMS = [(Fraction(1, 2), Fraction(3), Fraction(1, 4)),
                  (Fraction(1), Fraction(2), Fraction(2)),
                  (Fraction(3), Fraction(1, 3), Fraction(1, 3)),
                  (Fraction(7, 5), Fraction(5), Fraction(9, 2))]


def coupled_inner_product(k, a, b, s, u):
    """v.f(v) of the coupled cubic at v1^2 = s, v2^2 = u, term by term from
    f1 = k v1 (1 - a v1^2 + v2^2), f2 = k v2 (1 - b v2^2 - v1^2)."""
    return k * s * (1 - a * s + u) + k * u * (1 - b * u - s)


class TestDissipativityAndRegion:
    @pytest.mark.parametrize("k, a, b", COUPLED_PARAMS)
    def test_coupled_inequality_exactly(self, k, a, b):
        r0sq = 2 / min(a, b)
        for scale in (1, Fraction(8, 7), 2, 10):
            for j in range(9):
                s = scale * r0sq * Fraction(j, 8)
                assert coupled_inner_product(k, a, b, s, scale * r0sq - s) <= 0
        if a == b:
            # sharp on the diagonal: 0 on the circle, outward just inside it
            edge = 1 / a
            assert coupled_inner_product(k, a, b, edge, edge) == 0
            inside = edge - Fraction(1, 10**6)
            assert coupled_inner_product(k, a, b, inside, inside) > 0

    @pytest.mark.parametrize("p, q", [(Fraction(1), Fraction(2)),
                                      (Fraction(5, 2), Fraction(5, 2)),
                                      (Fraction(7, 3), Fraction(1, 9))])
    def test_componentwise_inequality_exactly(self, p, q):
        # t*f(t) with f(t) = t (p - t)(t - q), each component's definition
        def tf(t):
            return t * (t * (p - t) * (t - q))
        r = max(p, q)
        for t in (r, r + Fraction(1, 10**6), Fraction(6, 5) * r, 2 * r, 10 * r):
            assert tf(t) <= 0 and tf(-t) <= 0
        assert tf(r) == 0
        if p != q:
            assert tf(r - Fraction(1, 10**6)) > 0

    def test_coupled_radius(self):
        f = CubicCoupled(k=0.5, a=3.0, b=0.25)
        rep = dissipativity_radius(f)
        assert rep.verified
        assert rep.r0 == math.sqrt(2.0 / 0.25)
        assert rep.component_radii is None

    def test_uncoupled_radii(self):
        f = CubicUncoupled(a=1.0, b=2.0, c=3.0, d=0.5)
        rep = dissipativity_radius(f)
        assert rep.verified
        assert rep.component_radii == (2.0, 3.0)
        assert rep.r0 == 3.0

    def test_radii_are_the_float_formulas_bitwise(self):
        coupled = [CubicCoupled(*map(float, params)) for params in COUPLED_PARAMS]
        coupled.append(CubicCoupled("1/2", "3", "sqrt(2)/2"))
        consts = solve_prop34()
        coupled.append(CubicCoupled(k=consts.k, a=consts.a_star, b=consts.b))
        for f in coupled:
            a, b = float(f.a), float(f.b)
            assert dissipativity_radius(f).r0 == math.sqrt(2.0 / min(a, b))
        for f in (prop35_field(exact=True), prop35_field(exact=False),
                  CubicUncoupled(a=0.1, b=0.3, c=7.0, d=1e-3)):
            a, b, c, d = map(float, (f.a, f.b, f.c, f.d))
            rep = dissipativity_radius(f)
            assert rep.component_radii == (max(a, b), max(c, d))
            assert rep.r0 == max(a, b, c, d)

    def test_exact_radius_below_the_smallest_float(self):
        # a rounds to 0.0, but 2/a roots exactly to sqrt(2) 10**200
        f = CubicCoupled(k="1", a="1/10**400", b="1")
        assert dissipativity_radius(f).r0 == 1.414213562373095e200
        assert dissipativity_radius(CubicCoupled(1, 1, Fraction(1, 10**400))).r0 == (
            1.414213562373095e200)

    def test_poly_rejected(self):
        with pytest.raises(ConfigError):
            dissipativity_radius(linear_field(((1.0, 0.0), (0.0, 1.0))))

    def test_region_condition(self):
        assert invariant_region_check(CubicCoupled(k=1.0, a=2.0, b=1.0), 1.0)
        assert not invariant_region_check(CubicCoupled(k=1.0, a=2.0, b=1.0), 2.0)
        assert not invariant_region_check(CubicCoupled(k=1.0, a=2.0, b=0.2), 1.0)
        # NaN is inside no box: neither difference is negative, still not invariant
        assert not invariant_region_check(CubicCoupled(k=1.0, a=2.0, b=1.0), math.nan)
        c = solve_prop34()
        f = CubicCoupled(k=c.k, a=c.a_star, b=c.b)
        assert invariant_region_check(f, math.sqrt(6.0))

    def test_exact_region_check_at_tight_bounds(self):
        # a=3, b=1/2, c=sqrt(2): c^2 = 1/b = a - 1, so both bounds are tight;
        # exactly the box is invariant, in floats c*c overshoots a - 1
        exact = CubicCoupled(k=1, a=3, b=Fraction(1, 2))
        assert invariant_region_check(exact, exact_real("sqrt(2)"))
        assert not invariant_region_check(exact, exact_real("sqrt(3)"))
        assert not invariant_region_check(exact, Fraction(7, 5))
        assert not invariant_region_check(exact, math.nan)
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
        assert sym.simplify(oracle(f.b) - sym.sqrt(3)) == 0
        assert f.b == exact_real("sqrt(3)") != 1.7320508075688772

    def test_one_number_makes_a_float_field(self):
        f = field_from_json_dict({"kind": "cubic_uncoupled", "a": "2", "b": "sqrt(3)",
                                  "c": "sqrt(6)", "d": 1.5})
        params = (f.a, f.b, f.c, f.d)
        assert params == (2.0, math.sqrt(3), math.sqrt(6), 1.5)
        assert all(type(x) is float for x in params)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, "nan", "oo", "-1"])
    def test_non_finite_or_non_positive_parameter(self, value):
        # an all-string field is exact: "nan" and "oo" are outside its grammar
        other = "1" if isinstance(value, str) else 1.0
        refusal = ("b is not an exact number" if value in ("nan", "oo")
                   else "b must be positive and finite")
        with pytest.raises(ConfigError, match=refusal):
            field_from_json_dict(
                {"kind": "cubic_coupled", "k": other, "a": other, "b": value})

    @pytest.mark.parametrize("text, value", [
        ("3", 3), ("-0.25", sym.Rational(-1, 4)), ("1/2", sym.Rational(1, 2)),
        ("sqrt(2)/2", sym.sqrt(2) / 2), ("(1+sqrt(5))/2", (1 + sym.sqrt(5)) / 2),
        ("2**3", 8), ("nan", None), ("oo", None), ("x", None), ("sin(1)", None),
        ("2**0.5", None), ("sqrt(-1)", None), ("1/0", None),
        ("__import__('os')", None),
    ])
    def test_field_string_grammar(self, text, value):
        if value is None:
            with pytest.raises(ConfigError, match="^k is not an exact number: "):
                field_from_json_dict({"kind": "cubic_coupled", "k": text,
                                      "a": "1", "b": "1"})
            return
        x = exact_real(text)
        assert sym.simplify(oracle(x) - value) == 0
        assert exact_real(repr(x)) == x

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
