"""Planar reaction fields and their spectral-gap ladders.

Each hyperbolic zero of a planar field gets a gap ratio delta.  The two
cubic families below realize the ladder 0, 1, 2, 3 exactly, one by
construction and one after tuning a single parameter.
"""

from imhyp import verify_prop35

# the uncoupled family carries the ladder with exact arithmetic
report = verify_prop35(exact=True)
print("uncoupled family, exact mode")
print("deltas:", [float(d) for d in report.deltas])
print("each delta equals its target exactly:",
      all(d == i for i, d in enumerate(report.deltas)))
print("errors:", report.delta_errors)
for fp in report.analyses:
    print(f"  zero {fp.point}  delta {float(fp.delta):g}")

# the coupled family has one shape parameter a; its interior gap ratio
# phi(a) climbs from 1 toward 4 and crosses 2 shortly after a = 10
from imhyp import middle_gap

print("\nmiddle-gap tuning curve")
for a in [7.0, 9.0, 10.0, 10.5, 12.0, 100.0]:
    print(f"  phi({a:6g}) = {middle_gap(a):.10f}")

# solve phi(a) = 2 and assemble the tuned field
from imhyp import CubicCoupled, coupled_ladder_params, solve_prop34

consts = solve_prop34()
print("\ntuned coupled family")
print(f"a* = {consts.a_star!r}")
print(f"k  = {consts.k!r}")
print(f"b  = {consts.b!r}")
print(f"phi(a*) - 2 residual: {consts.phi_residual:.3e}")
print("checklist:", consts.checklist)
print("deltas:", consts.deltas)

k, b = coupled_ladder_params(consts.a_star)
print(f"recomputed (k, b) = ({k!r}, {b!r})")
field = CubicCoupled(k=consts.k, a=consts.a_star, b=consts.b)

# every zero in the search region, found numerically from a sign-change grid
from imhyp import fixed_points

print("\nzeros of the tuned field")
for fp in fixed_points(field):
    print(
        f"  ({fp.point[0]: .6f}, {fp.point[1]: .6f})  "
        f"delta {fp.delta:.6f}  residual {fp.residual:.2e}"
    )

# the ladder check: one zero per target delta, nothing spurious
from imhyp import lemma33_check

res = lemma33_check(field)
print("\nladder verdict:", res.verdict)
for want, fp in sorted(res.matches.items()):
    print(f"  wanted delta {want}, found {fp.delta:.8f} at ({fp.point[0]:.4f}, {fp.point[1]:.4f})")

# dissipativity: trajectories enter a ball of this radius, and the square
# region |u_i| <= 3 is forward invariant for the cubic coupling
from imhyp import dissipativity_radius, invariant_region_check

diss = dissipativity_radius(field)
print(f"\nabsorbing radius r0 = {diss.r0:.6f}, verified: {diss.verified}")
if diss.component_radii is not None:
    print(f"per-component radii: {diss.component_radii}")
c = 3
print(f"square region |u_i| <= {c} forward invariant: {invariant_region_check(field, c)}")
