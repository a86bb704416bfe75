"""Job lists of the three benchmark workloads and their seeded inputs.

A job is one `imhyp` CLI invocation.  Every random input (box sides,
Jacobian sets, multiplier files) is generated here from the seed; the
program only ever receives the generated flags and files.  Jobs marked
``seeded`` have seed-dependent answers, so their references apply to the
default seed only; all other jobs are checked against the references on
every seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Job:
    id: str
    argv: tuple
    expect_exit: int = 0
    seeded: bool = False
    inputs: dict = field(default_factory=dict)  # file name -> text


@dataclass(frozen=True)
class Sweep:
    """A size sweep inside a workload, fitted as log(layer self time)
    against log(size); the metric is named <layer>.<exponent>."""

    metric: str
    points: tuple  # (job id, size)


def _rng(workload: str, seed: int) -> random.Random:
    # a string seed is hashed with sha512, so it does not depend on PYTHONHASHSEED
    return random.Random(f"imhyp-bench:{workload}:{seed}")


def _sides(rng, centre) -> str:
    return ",".join(f"{c + rng.uniform(-0.04, 0.04):.6f}" for c in centre)


def _jac2(rng) -> str:
    # diagonal entries mostly stable, so several equilibria stay hyperbolic
    a, d = rng.uniform(-3.0, 1.0), rng.uniform(-3.0, 1.0)
    b, c = rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)
    return ",".join(f"{v:.3f}" for v in (a, b, c, d))


def _jacs(rng, n: int) -> str:
    return ";".join(_jac2(rng) for _ in range(n))


def _multiplier(rng, dim: int, bc: str, freqs) -> str:
    """A cosine multiplier table on the default (side pi) box.  The
    frequency set is fixed per workload so that the window sparsity, and
    with it the work, does not depend on the seed; the coefficients are
    seeded, bounded away from zero."""
    coeffs = [
        [*f, round(rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 1.0), 6)]
        for f in freqs
    ]
    return json.dumps({"domain": {"dim": dim, "bc": bc}, "coeffs": coeffs},
                      sort_keys=True) + "\n"


_DENSE_FREQS = (
    (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0),
    (0, 1, 1), (1, 0, 1), (2, 1, 0), (1, 1, 2),
)
_PERIODIC_FREQS = ((1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (3, 0))


def _split(cmdline: str) -> tuple:
    return tuple(cmdline.split())


def spectral(seed: int):
    rng = _rng("spectral", seed)
    # generic sides: almost every gap is distinct, so the gap histogram and
    # the report have the same size on every seed (rational sides such as
    # exactly (3, 3.1, 3.3) collapse the histogram, and the work with it)
    sides = _sides(rng, (3.0, 3.1, 3.3))
    jacs = _jacs(rng, 4)
    cube = "anhim --field cubic-scalar --nu 2 --cutoff"
    jobs = [
        Job("gaps-cube-1e4", _split("gaps --cutoff 10000")),
        Job("gaps-cube-1e5", _split("gaps --cutoff 100000")),
        Job("gaps-cube-4e5", _split("gaps --cutoff 400000")),
        Job("gauss-audit-1e6", _split("gauss-audit --limit 1000000")),
        Job("gaps-float-3e3", ("gaps", "--sides", sides, "--cutoff", "3000"),
            seeded=True),
        Job("spectrum-float-3e3",
            ("spectrum", "--sides", sides, "--cutoff", "3000",
             "--csv", "spectrum.csv"),
            seeded=True),
        Job("anhim-cube-2e3", _split(f"{cube} 2000")),
        Job("anhim-cube-6e3", _split(f"{cube} 6000")),
        Job("anhim-cube-1.5e4", _split(f"{cube} 15000")),
        Job("anhim-empty-nu0.5",
            _split("anhim --field cubic-scalar --nu 0.5 --cutoff 2000")),
        Job("nhim-dims-jacs", ("nhim-dims", "--jacs", jacs, "--nu", "1",
                               "--cutoff", "300"), seeded=True),
        Job("parity-prop35", _split("parity --field prop35 --nu 1 --cutoff 200")),
    ]
    sweeps = (
        Sweep("lattice_spectrum.cutoff_exponent",
              (("gaps-cube-1e4", 1e4), ("gaps-cube-1e5", 1e5),
               ("gaps-cube-4e5", 4e5))),
        Sweep("stationary_spectrum.cutoff_exponent",
              (("anhim-cube-2e3", 2e3), ("anhim-cube-6e3", 6e3),
               ("anhim-cube-1.5e4", 1.5e4))),
    )
    return jobs, sweeps


def averaging(seed: int):
    rng = _rng("averaging", seed)
    dense = _multiplier(rng, 3, "neumann", _DENSE_FREQS)
    periodic = _multiplier(rng, 2, "periodic", _PERIODIC_FREQS)
    scan = "sap-scan --h cos-x1 --k 5 --rho 1 --lambda-max"
    jobs = [
        Job("sap-cos-x1-50", _split(f"{scan} 50")),
        Job("sap-cos-x1-100", _split(f"{scan} 100")),
        Job("sap-cos-x1-200", _split(f"{scan} 200")),
        Job("sap-dense-neumann",
            _split("sap-scan --h dense.json --k 3 --rho 1 --lambda-max 20"),
            seeded=True, inputs={"dense.json": dense}),
        Job("sap-periodic-2d",
            _split("sap-scan --h periodic.json --k 3 --rho 1 --lambda-max 100"),
            seeded=True, inputs={"periodic.json": periodic}),
        # rho 3 keeps only the width-3 gap of the cube at 110, whose k=40
        # window has 571 modes and takes the power-iteration path
        Job("sap-cos-x1-power",
            _split("sap-scan --h cos-x1 --k 40 --rho 3 --lambda-max 120")),
    ]
    sweeps = (
        Sweep("spatial_averaging.lambda_exponent",
              (("sap-cos-x1-50", 50.0), ("sap-cos-x1-100", 100.0),
               ("sap-cos-x1-200", 200.0))),
    )
    return jobs, sweeps


def cli(seed: int):
    rng = _rng("cli", seed)
    sides2 = _sides(rng, (2.0, 2.7))
    jac = _jac2(rng)
    jacs = _jacs(rng, 3)
    jobs = [
        Job("spectrum-csv", ("spectrum", "--dim", "2", "--sides", sides2,
                             "--cutoff", "300", "--csv", "spectrum.csv"),
            seeded=True),
        Job("gaps-out", _split("gaps --cutoff 500 --out gaps.json")),
        Job("jump", _split("jump --cutoff 300")),
        Job("gauss-audit", _split("gauss-audit --limit 10000")),
        Job("weyl", _split("weyl --cutoff 500")),
        Job("fixed-points-csv",
            _split("fixed-points --field prop34 --csv fixed.csv")),
        Job("delta", _split("delta --field prop35 --at 0,0")),
        Job("lemma33", _split("lemma33 --field prop35")),
        Job("prop34", _split("prop34")),
        Job("prop35-verify", _split("prop35-verify --exact false")),
        Job("dissipativity",
            _split("dissipativity --field prop34 --samples 2000")),
        Job("region", _split("region --field prop34 --c 2")),
        Job("index", ("index", "--nu", "1", "--jac", jac, "--cutoff", "50"),
            seeded=True),
        Job("parity", ("parity", "--jacs", jacs, "--nu", "1",
                       "--cutoff", "50"), seeded=True),
        Job("profile", ("profile", "--nu", "1", "--jac", jac,
                        "--cutoff", "50"), seeded=True),
        Job("nhim-dims-cert", ("nhim-dims", "--jacs", jacs, "--nu", "1",
                               "--cutoff", "100", "--cert", "nhim.json"),
            seeded=True),
        Job("anhim-cert",
            _split("anhim --field cubic-scalar --nu 2 --cutoff 500 "
                   "--cert anhim.json")),
        Job("lemma41", _split("lemma41 --jac0 1 --jac1 -2 --gap-bound 3")),
        Job("sap-scan-csv",
            _split("sap-scan --h cos-x1 --k 3 --rho 1 --lambda-max 20 "
                   "--csv sap.csv")),
        # documented non-zero exits
        Job("gaps-no-gaps", _split("gaps --cutoff 0.5"), expect_exit=2),
        Job("misspelt-key", _split("gaps --cutof 100"), expect_exit=1),
        Job("index-cutoff-too-small",
            _split("index --nu 1 --jac 1 --cutoff 0.5"), expect_exit=1),
    ]
    return jobs, ()


WORKLOADS = {"spectral": spectral, "averaging": averaging, "cli": cli}


def build(workload: str, seed: int):
    """(jobs, sweeps) of a workload for one seed."""
    return WORKLOADS[workload](seed)
