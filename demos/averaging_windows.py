"""Windowed compressions of a multiplication operator on the cube.

A smooth coefficient h acts on functions by pointwise multiplication.
Compressed to the modes near a spectral level, with the average split off,
the operator can be tiny even when h is far from constant.  The scan at
the end looks for levels where the normalized coupling is small.
"""

import pathlib
import tempfile

from imhyp import BoxDomain, Multiplier, h2_norm, mean

CUBE = BoxDomain(dim=3)

# cos(x1), plus a shifted copy; the compression subtracts the average,
# so the constant offset must change nothing downstream
h = Multiplier(CUBE, {(1, 0, 0): 1.0})
h_shifted = Multiplier(CUBE, {(0, 0, 0): 2.5, (1, 0, 0): 1.0})
print(f"mean(h) = {mean(h):g}, mean(h + 2.5) = {mean(h_shifted):g}")
print(f"h2_norm(h) = {h2_norm(h):.12f}")

# which modes a window at level 4.5 with half-width 1 captures
from imhyp import window_modes

modes = window_modes(CUBE, 4.5, 1.0)
print(f"\nwindow at 4.5, half-width 1: {len(modes)} modes")
print(modes)

# the compressed matrix on that window: its nonzero entries, in closed form
from imhyp import window_entries, windowed_norm

n, rows, cols, values = window_entries(h, 4.5, 1.0)
entries = list(zip(rows.tolist(), cols.tolist(), values.tolist()))
print(f"\ncompressed {n}x{n} matrix, {len(entries)} nonzero entries:")
for i, j, v in entries:
    print(f"  {modes[i]} -> {modes[j]}: {v:.3f}")
print(f"symmetric: {sorted(entries) == sorted((j, i, v) for i, j, v in entries)}")
print(f"operator norm: {windowed_norm(h, 4.5, 1.0):.12f}")
print(f"norm after the constant shift: {windowed_norm(h_shifted, 4.5, 1.0):.12f}")

# the norm is nearly level-independent for a fixed half-width
print("\nnorms across levels (half-width 5):")
for lam in (10.0, 50.0, 111.5, 200.0):
    print(f"  level {lam:6g}: norm {windowed_norm(h, lam, 5.0):.6f}")

# scan all gap-centered windows below a cutoff; the report is sorted by
# eps_eff = op_norm / h2_norm so the quietest windows come first
from imhyp import sap_scan

reports = sap_scan(h, k=1.0, rho=2.0, lambda_max=300.0)
print(f"\nscan, half-width 1: {len(reports)} gap-centered windows")
print("lam      gap  modes  op_norm    eps_eff")
for r in reports[:6]:
    print(
        f"{r.lam:7.1f}  {r.gap:3g}  {r.window_modes:5d}  "
        f"{r.op_norm:.3e}  {r.eps_eff:.3e}"
    )

# the library returns reports and writes no files; the driver's sap-scan
# command runs the same scan (its builtin cos-x1 is h) and writes the table
from imhyp.driver import run

csv_path = pathlib.Path(tempfile.gettempdir()) / "sap_scan_demo.csv"
report = run({"command": "sap-scan", "h": "cos-x1", "k": 1.0, "rho": 2.0,
              "lambda-max": 300.0, "csv": str(csv_path)})
print(f"full table of {report['result']['windows']} windows written to {csv_path}")

# more frequencies couple more mode pairs, but zero-coupling windows
# below 300 survive
g = Multiplier(CUBE, {(1, 0, 0): 0.7, (0, 2, 1): -0.4})
reports = sap_scan(g, k=1.0, rho=2.0, lambda_max=300.0)
best = reports[0]
print(f"\ntwo-frequency multiplier, best window: level {best.lam:g}, eps_eff {best.eps_eff:.3e}")
