"""
Reproducible JSON reports through the command driver
====================================================

Every computation in the package is reachable through a flat config dict:
validate it, run it, render the result to a byte-stable report.  The same
configs work from the shell via python3 -m imhyp.driver.
"""

import json
import subprocess
import sys

from imhyp.driver import render_report, run, validate

# validation catches mistakes before anything runs, with suggestions
bad = {"command": "gaps", "dim": 3, "cutof": 500.0}
for msg in validate(bad):
    print(msg)
bad = {"command": "anhim", "nu": -1.0, "jacs": [1.0, -2.0]}
for msg in validate(bad):
    print(msg)

# run() returns the library's own objects; the rendered text read back is
# the report as plain JSON
report = json.loads(render_report(run({"command": "gaps", "dim": 3, "cutoff": 500.0})))
print(f"\nverdict: {report['verdict']}")
print(f"result keys: {sorted(report['result'])}")

# rendering is deterministic down to the byte: sorted keys, fixed float
# format, no timing fields unless asked for
text_a = render_report(run({"command": "prop34"}))
text_b = render_report(run({"command": "prop34"}))
print(f"\ntwo runs render identically: {text_a == text_b}")
print("first lines of the report:")
for line in text_a.splitlines()[:6]:
    print(f"  {line}")

# certificate configs mirror the library calls
report = run({"command": "anhim", "field": "cubic-scalar", "nu": 2.0, "cutoff": 1000.0})
print(f"\n{report['verdict']}")
report = run({"command": "nhim-dims", "field": "cubic-scalar", "nu": 0.5, "cutoff": 60.0})
print(report["verdict"])

# an empty certificate is still a valid report with exit code 0; the
# caveat travels with it
report = run({"command": "anhim", "field": "cubic-scalar", "nu": 0.5, "cutoff": 200.0})
print(report["verdict"])

# the same thing from the shell
proc = subprocess.run(
    [sys.executable, "-m", "imhyp.driver", "spectrum", "--dim", "2", "--cutoff", "40"],
    capture_output=True,
    text=True,
)
print(f"\nshell run exits {proc.returncode}; last lines:")
for line in proc.stdout.splitlines()[-5:]:
    print(f"  {line}")

# failed hypotheses exit with 2 so shell pipelines can branch on them
proc = subprocess.run(
    [sys.executable, "-m", "imhyp.driver", "gaps", "--dim", "1", "--cutoff", "0.5"],
    capture_output=True,
    text=True,
)
print(f"\ndegenerate spectrum exits with code {proc.returncode}:")
print(f"  {proc.stderr.strip()}")
