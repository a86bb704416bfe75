"""
Certificates against common invariant-manifold dimensions
=========================================================

Linearize the bistable reaction u - u^3 on the cube at its three constant
equilibria.  A manifold containing all equilibria needs one dimension that
works for every linearization; whether such a dimension exists below a
cutoff depends on the diffusion strength, and both answers come with a
checkable witness.
"""

from imhyp import BoxDomain, Linearization

CUBE = BoxDomain(dim=3)


def bistable(nu):
    # slopes of u - u^3 at u = 0 and u = +-1
    return [
        Linearization(CUBE, nu, (1.0,), "0"),
        Linearization(CUBE, nu, (-2.0,), "+1"),
        Linearization(CUBE, nu, (-2.0,), "-1"),
    ]


from imhyp import operator_spectrum, unstable_index

print("linearized operators at nu = 0.5")
for lin in bistable(0.5):
    spec = operator_spectrum(lin, 10.0)
    idx, hyp = unstable_index(lin, 10.0)
    head = ", ".join(f"{x:g} (x{m})" for x, m in spec[:4])
    print(f"  at {lin.label:2s}: head {head}; unstable index {idx}, hyperbolic {hyp}")

# indices of hyperbolic equilibria connected by a heteroclinic orbit must
# differ by an even number on an orientable manifold; the report pairs
# them up and flags the non-hyperbolic ones
from imhyp import parity_report

rep = parity_report(bistable(0.5), 60.0)
print("\nparity of index differences")
for e in rep.entries:
    print(f"  {e.label:2s}: index {e.index}, hyperbolic {e.hyperbolic}")
for p in rep.pairs:
    print(f"  {p.label_a} vs {p.label_b}: difference {p.difference}, even {p.even}")
print(f"  excluded from pairing: {rep.excluded}")

# mode counts below a decay rate gamma, certified down to a floor
from imhyp import count_profile

prof = count_profile(bistable(0.5)[0], 60.0)
print("\nmode-count profile at the unstable equilibrium")
print(f"  counts certified above gamma = {prof.valid_above}")
for g in (-0.25, -1.5, -5.0):
    print(f"  dim_at({g}) = {prof.dim_at(g)}")

# a dimension n is feasible at an equilibrium when some gamma < 0 in a
# spectral gap has exactly n modes above it: the n of its gaps below zero
print("\nper-equilibrium feasible dimensions, cutoff 60")
for lin in bistable(0.5):
    prof = count_profile(lin, 60.0)
    dims = [w.n for w in prof.gaps_below_zero()]
    print(f"  at {lin.label:2s}: first dims {dims[:6]} (truncation bound {prof.valid_above:g})")

# intersecting the three feasible sets gives the strict-gap certificate
from imhyp import nhim_certificate

cert = nhim_certificate(bistable(0.5), 60.0)
w = cert.result
print("\nstrict-gap certificate, nu = 0.5, cutoff 60")
print(f"  smallest common dimension n = {w.n}, rate window ({w.gamma_lo:g}, {w.gamma_hi:g})")
print(f"  caveat: {cert.caveat}")

# the stronger requirement of one shared decay rate: empty under weak
# diffusion no matter how far we look
from imhyp import anhim_common_gamma

print("\ncommon-rate certificate, nu = 0.5")
for cutoff in (200.0, 500.0, 1000.0):
    cert = anhim_common_gamma(bistable(0.5), cutoff)
    print(f"  cutoff {cutoff:6g}: empty = {cert.empty}")

print("\nsame field, strong diffusion nu = 2")
cert = anhim_common_gamma(bistable(2.0), 1000.0)
w = cert.result
print(f"  witness: n = {w.n}, common rate window ({w.gamma_lo:g}, {w.gamma_hi:g})")
print(f"  {len(cert.witnesses)} admissible windows below the cutoff; first {cert.witnesses[0]}")

# the witness window tiles the box-spectrum gap (110, 113) after the
# affine rescaling lambda = (slope - gamma) / nu
for slope in (1.0, -2.0):
    lo = (slope - w.gamma_hi) / 2.0
    hi = (slope - w.gamma_lo) / 2.0
    print(f"  slope {slope:+g}: rescaled interval ({lo:g}, {hi:g})")

# the flip between the two regimes happens at an explicit threshold
from imhyp import lemma41_threshold

nu_star = lemma41_threshold(1.0, -2.0, 3.0)
print(f"\nnu* = {nu_star:g}; empty certificates below, witnesses above")
