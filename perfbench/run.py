"""imhyp benchmark: CLI workloads end to end, traced layers in process.

Run from the root of a checkout (the directory holding ``src/imhyp``):

    python3 perfbench/run.py --workload spectral --seed 1 --seconds 35 --trace 0

``--trace 0`` runs the workload's jobs as ``python -m imhyp.driver``
subprocesses, one at a time (a closed loop with one client), round-robin
for ``--seconds``, and reports the end-to-end metrics.
``--trace 1`` runs the list once as subprocesses, then in process through
``imhyp.driver.main`` untraced and traced, and reports the per-layer
metrics.  Both print one JSON object as the last line of stdout and write
details (machine, problem sizes, per-job times, spans) under ``.perfbench/``.

``--write-refs`` regenerates ``perfbench/refs/<workload>.json`` from the
default seed.  See ``perfbench/README.md`` for the metric definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import io
import itertools
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import refcheck
import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
REFS_DIR = BENCH_DIR / "refs"
SETUP_EVERY = 4  # jobs per set-up launch
IMPORTTIME_LAUNCHES = 3
JOB_TIMEOUT_S = 60.0
LAYERS = tuple(spans.LAYERS)


# ---------------------------------------------------------------------------
# running jobs

def _reset(directory: Path, inputs: dict) -> None:
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    for name, text in inputs.items():
        (directory / name).write_text(text)


def _written(directory: Path, inputs: dict) -> dict:
    return {p.name: p.read_text() for p in sorted(directory.iterdir())
            if p.is_file() and p.name not in inputs}


def _launch(argv, cwd, env, stdout, stderr):
    """Run one child to completion; returns (exit code, wall s, peak RSS MiB).

    The peak RSS is the child's own (wait4), not the cumulative
    RUSAGE_CHILDREN maximum.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                            stdout=stdout, stderr=stderr)
    timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def run_cli(job, directory: Path, env) -> dict:
    _reset(directory, job.inputs)
    out_path = directory.parent / f"{job.id}.stdout"
    err_path = directory.parent / f"{job.id}.stderr"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        code, wall, rss = _launch(
            [sys.executable, "-m", "imhyp.driver", *job.argv],
            directory, env, out, err)
    return {"exit": code, "stdout": out_path.read_text(),
            "stderr": err_path.read_text(),
            "files": _written(directory, job.inputs),
            "wall_s": wall, "rss_mb": rss}


def run_inprocess(job, directory: Path, main) -> dict:
    _reset(directory, job.inputs)
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = main(list(job.argv))
            except Exception:  # an escaped exception exits 1 in the CLI too
                traceback.print_exc()
                code = 1
            wall = time.perf_counter() - t0
    finally:
        os.chdir(cwd)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "files": _written(directory, job.inputs), "wall_s": wall}


def _same_output(a: dict, b: dict) -> bool:
    return all(a[k] == b[k] for k in ("exit", "stdout", "stderr", "files"))


def check_outcome(job, outcome, refs, seed) -> list:
    problems = refcheck.check_consistency(job, outcome)
    if not job.seeded or seed == workloads.DEFAULT_SEED:
        ref = refs.get(job.id)
        if ref is None:
            problems.append(f"{job.id}: no committed reference")
        else:
            problems += refcheck.check_against(ref, job, outcome)
    return problems


# ---------------------------------------------------------------------------
# set-up time

def measure_setup_s(root: Path, env) -> float:
    """Wall time of one bare `--version` launch."""
    _, wall, _ = _launch([sys.executable, "-m", "imhyp.driver", "--version"],
                         root, env, subprocess.DEVNULL, subprocess.DEVNULL)
    return wall


_IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|( *)(\S+)")


def measure_setup_breakdown(root: Path, env) -> dict:
    """Medians over fresh `python -X importtime -c "import imhyp"` launches.

    The four parts add up to the launch's wall time: numpy and sympy are
    their cumulative import times, imhyp is the package's import minus
    those two, and the interpreter part is everything outside the imhyp
    import (start-up, site, shutdown).
    """
    parts = {k: [] for k in ("interpreter", "numpy_import", "sympy_import",
                             "imhyp_import")}
    for _ in range(IMPORTTIME_LAUNCHES):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import imhyp"],
            cwd=root, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=JOB_TIMEOUT_S, check=True)
        wall = time.perf_counter() - t0
        cumulative = {}
        for m in _IMPORT_LINE.finditer(proc.stderr):
            cumulative.setdefault(m.group(4), int(m.group(2)) * 1e-6)
        numpy_s = cumulative.get("numpy", 0.0)
        sympy_s = cumulative.get("sympy", 0.0)
        imhyp_s = cumulative["imhyp"]
        parts["interpreter"].append(wall - imhyp_s)
        parts["numpy_import"].append(numpy_s)
        parts["sympy_import"].append(sympy_s)
        parts["imhyp_import"].append(imhyp_s - numpy_s - sympy_s)
    return {f"setup.{k}_s": statistics.median(v) for k, v in parts.items()}


# ---------------------------------------------------------------------------
# end-to-end run (--trace 0)

def end_to_end(root, env, work, jobs, refs, seed, seconds):
    """Run the jobs round-robin, one at a time, until the next one would
    end past `seconds` (every job runs at least once); a job's time is the
    median of its runs."""
    runs = [[] for _ in jobs]
    setup = []
    started = time.perf_counter()
    for k in itertools.count():
        i = k % len(jobs)
        # set-up launches are spread through the run, so that their median
        # samples the same stretch of time as the jobs
        launch = k % SETUP_EVERY == 0
        if k >= len(jobs):
            due = statistics.median(o["wall_s"] for o in runs[i])
            due += statistics.median(setup) if launch else 0.0
            if time.perf_counter() - started + due > seconds:
                break
        if launch:
            setup.append(measure_setup_s(root, env))
        runs[i].append(run_cli(jobs[i], work / "cli" / jobs[i].id, env))
    failed_jobs = set()
    problems = []
    for job, outcomes in zip(jobs, runs):
        found = check_outcome(job, outcomes[0], refs, seed)
        found += [f"{job.id}: run {r} output differs from run 0"
                  for r, o in enumerate(outcomes[1:], 1)
                  if not _same_output(outcomes[0], o)]
        if found:
            failed_jobs.add(job.id)
            problems += found
    per_job = {
        job.id: {
            "runs": len(outcomes),
            "wall_s": statistics.median(o["wall_s"] for o in outcomes),
            "rss_mb": max(o["rss_mb"] for o in outcomes),
            "exit": outcomes[0]["exit"],
        }
        for job, outcomes in zip(jobs, runs)
    }
    metrics = {
        "wall_s": (sum(v["wall_s"] for v in per_job.values()), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (max(v["rss_mb"] for v in per_job.values()), "MiB"),
        # add-one smoothing keeps the ratio above zero; see README
        "fail_ratio": ((len(failed_jobs) + 1) / (len(jobs) + 1), "1"),
    }
    details = {"setup_launches_s": setup, "jobs": per_job,
               "failed_jobs": sorted(failed_jobs)}
    attempted = sum(len(o) for o in runs)
    failed = sum(len(o) for job, o in zip(jobs, runs) if job.id in failed_jobs)
    return metrics, problems, attempted, failed, details


# ---------------------------------------------------------------------------
# traced run (--trace 1)

def _fit_exponent(points) -> float:
    xs = [math.log(s) for s, t in points]
    ys = [math.log(t) for s, t in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def layer_metrics(tracer, jobs, sweeps, traced, untraced):
    all_spans = tracer.spans
    selfs = spans.self_times(all_spans)
    by_layer = {layer: [] for layer in LAYERS}
    for s, st in zip(all_spans, selfs):
        by_layer[s.layer].append((s, st))

    m = {}
    for layer, items in by_layer.items():
        m[f"{layer}.calls"] = (len(items), "count")
        m[f"{layer}.self_s"] = (math.fsum(st for _, st in items), "s")
        m[f"{layer}.raised"] = (sum(1 for s, _ in items if s.raised), "count")

    def total(layer, name, key):
        return sum(s.info.get(key, 0) for s, _ in by_layer[layer] if s.name == name)

    renders = [s for s, _ in by_layer["driver"] if s.name == "render_report"]
    m["driver.render_s"] = (math.fsum(s.duration for s in renders), "s")
    m["driver.report_bytes"] = (sum(s.info.get("bytes", 0) for s in renders), "bytes")
    m["driver.written_bytes"] = (
        sum(len(t) for o in traced.values() for t in o["files"].values()), "bytes")

    enums = [s for s, _ in by_layer["lattice_spectrum"]
             if s.name == "enumerate_spectrum" and not s.raised]
    seen, repeats = set(), 0
    for s in enums:
        key = (s.job, s.info["key"])
        repeats += key in seen
        seen.add(key)
    m["lattice_spectrum.distinct_eigs"] = (
        total("lattice_spectrum", "enumerate_spectrum", "distinct"), "count")
    m["lattice_spectrum.lattice_modes"] = (
        total("lattice_spectrum", "enumerate_spectrum", "modes"), "count")
    m["lattice_spectrum.repeat_ratio"] = (repeats / len(enums) if enums else 0.0, "1")

    m["stationary_spectrum.breakpoints"] = (
        total("stationary_spectrum", "count_profile", "breakpoints"), "count")
    m["stationary_spectrum.witnesses"] = (
        sum(s.info.get("witnesses", 0) for s, _ in by_layer["stationary_spectrum"]),
        "count")
    m["reaction_field.fixed_points"] = (
        total("reaction_field", "fixed_points", "fixed_points"), "count")

    m["spatial_averaging.windows"] = (
        total("spatial_averaging", "sap_scan", "windows"), "count")
    m["spatial_averaging.window_modes"] = (
        total("spatial_averaging", "window_modes", "window_modes"), "count")
    sa_enums = sum(1 for s in enums if s.parent is not None
                   and all_spans[s.parent].layer == "spatial_averaging")
    m["spatial_averaging.mode_enumerations"] = (
        sum(1 for s, _ in by_layer["spatial_averaging"] if s.name == "window_modes")
        + sa_enums, "count")

    # matrices: dense spans entered from outside the dense layer
    tops = [s for s, _ in by_layer["dense_eig"] if "n" in s.info and (
        s.parent is None or all_spans[s.parent].layer != "dense_eig")]
    m["dense_eig.matrices"] = (len(tops), "count")
    m["dense_eig.max_n"] = (max((s.info["n"] for s in tops), default=0), "count")
    m["dense_eig.power_calls"] = (
        sum(1 for s, _ in by_layer["dense_eig"] if s.name == "power_spectral_norm"),
        "count")
    m["dense_eig.sum_n3"] = (sum(s.info["n"] ** 3 for s in tops), "n3_computed")

    # scaling exponents: layer self time per sweep job against job size
    job_layer_self = {}
    for s, st in zip(all_spans, selfs):
        key = (s.job, s.layer)
        job_layer_self[key] = job_layer_self.get(key, 0.0) + st
    exponents = {}
    for metric in ("lattice_spectrum.cutoff_exponent",
                   "stationary_spectrum.cutoff_exponent",
                   "spatial_averaging.lambda_exponent"):
        sweep = next((w for w in sweeps if w.metric == metric), None)
        if sweep is None:
            m[metric] = (0.0, "1")  # no sweep in this workload: see README
            exponents[metric] = None
            continue
        layer = metric.split(".")[0]
        pts = [(size, job_layer_self[(job, layer)]) for job, size in sweep.points]
        m[metric] = (_fit_exponent(pts), "1")
        exponents[metric] = pts

    t_traced = math.fsum(o["wall_s"] for o in traced.values())
    t_untraced = math.fsum(o["wall_s"] for o in untraced.values())
    m["trace.overhead_ratio"] = (t_traced / t_untraced, "1")
    coverage = math.fsum(selfs) / t_traced
    return m, exponents, coverage


def job_sizes(tracer, jobs) -> dict:
    sizes = {j.id: {"cutoff": None, "distinct_eigs": 0, "window_modes": 0,
                    "max_window_modes": 0, "dense_max_n": 0} for j in jobs}
    for s in tracer.spans:
        z = sizes[s.job]
        if s.name == "enumerate_spectrum" and "cutoff" in s.info:
            z["cutoff"] = max(z["cutoff"] or 0.0, s.info["cutoff"])
            z["distinct_eigs"] += s.info["distinct"]
        elif s.name == "window_modes" and "window_modes" in s.info:
            z["window_modes"] += s.info["window_modes"]
            z["max_window_modes"] = max(z["max_window_modes"], s.info["window_modes"])
        elif "n" in s.info:
            z["dense_max_n"] = max(z["dense_max_n"], s.info["n"])
    return sizes


def _clear_caches() -> None:
    # sympy memoizes expressions; clearing keeps the traced pass from
    # reusing work of the untraced one
    sympy_cache = sys.modules.get("sympy.core.cache")
    if sympy_cache is not None:
        sympy_cache.clear_cache()


def layered(root, env, work, jobs, sweeps, refs, seed):
    setup = measure_setup_breakdown(root, env)
    t0 = time.perf_counter()
    cli = {j.id: run_cli(j, work / "cli" / j.id, env) for j in jobs}
    cli_wall = time.perf_counter() - t0
    problems, failed = [], 0
    for job in jobs:
        found = check_outcome(job, cli[job.id], refs, seed)
        failed += bool(found)
        problems += found

    sys.path.insert(0, str(root / "src"))
    import imhyp.driver  # noqa: E402  (imported from the checkout's src/)

    main = imhyp.driver.main
    # a first untimed pass pays one-off costs (lazy imports, first-call
    # set-up) that would otherwise fall on the untraced side only
    warm = {j.id: run_inprocess(j, work / "warm" / j.id, main) for j in jobs}
    # each job runs untraced and then traced back to back, so that both
    # sides of trace.overhead_ratio see the same machine load
    tracer = spans.Tracer()
    untraced, traced = {}, {}
    for j in jobs:
        _clear_caches()
        untraced[j.id] = run_inprocess(j, work / "untraced" / j.id, main)
        _clear_caches()
        tracer.job = j.id
        tracer.install()
        try:
            traced[j.id] = run_inprocess(j, work / "traced" / j.id, main)
        finally:
            tracer.uninstall()
    for job in jobs:
        for mode, outcome in (("warm-up", warm), ("untraced", untraced),
                              ("traced", traced)):
            if not _same_output(cli[job.id], outcome[job.id]):
                failed += 1
                problems.append(f"{job.id}: {mode} in-process output differs "
                                f"from the CLI output")

    metrics, exponents, coverage = layer_metrics(tracer, jobs, sweeps, traced, untraced)
    metrics.update({k: (v, "s") for k, v in setup.items()})
    setup_total = sum(setup.values())
    details = {
        "cli_pass_wall_s": cli_wall,
        "inprocess_untraced_s": math.fsum(o["wall_s"] for o in untraced.values()),
        "inprocess_traced_s": math.fsum(o["wall_s"] for o in traced.values()),
        "trace_coverage": coverage,
        "setup_total_s": setup_total,
        "setup_share_of_cli_wall": setup_total * len(jobs) / cli_wall,
        "layer_share_of_traced": {
            layer: metrics[f"{layer}.self_s"][0] / math.fsum(
                o["wall_s"] for o in traced.values()) for layer in LAYERS},
        "exponent_points": exponents,
        "job_sizes": job_sizes(tracer, jobs),
        "job_walls": {j.id: {"cli_s": cli[j.id]["wall_s"],
                             "untraced_s": untraced[j.id]["wall_s"],
                             "traced_s": traced[j.id]["wall_s"]} for j in jobs},
    }
    span_dump = [{"name": s.name, "layer": s.layer, "job": s.job, "start": s.start,
                  "end": s.end, "parent": s.parent, "raised": s.raised}
                 for s in tracer.spans]
    return metrics, problems, 4 * len(jobs), failed, details, span_dump


# ---------------------------------------------------------------------------
# metadata

def machine_block(root: Path) -> dict:
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((root / "src").rglob("*.py")))
    blas = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "sympy": version("sympy"),
        "blas_threads_env": {k: os.environ.get(k) for k in blas},
        "src_lines": src_lines,
    }


# ---------------------------------------------------------------------------

def _write_refs(root, env, work, workload) -> int:
    jobs, _ = workloads.build(workload, workloads.DEFAULT_SEED)
    refs, problems = {}, []
    for job in jobs:
        outcome = run_cli(job, work / "cli" / job.id, env)
        problems += refcheck.check_consistency(job, outcome)
        refs[job.id] = refcheck.reference_of(job, outcome)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    REFS_DIR.mkdir(exist_ok=True)
    path = REFS_DIR / f"{workload}.json"
    path.write_text(json.dumps({"seed": workloads.DEFAULT_SEED, "jobs": refs},
                               indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(root)} ({len(refs)} jobs)")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-refs", action="store_true")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "imhyp" / "driver.py").is_file():
        print("perfbench: run from the root of an imhyp checkout "
              "(src/imhyp/driver.py not found)", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
    out_dir = root / ".perfbench"
    work = out_dir / f"work-{os.getpid()}"
    try:
        if args.write_refs:
            return _write_refs(root, env, work, args.workload)

        jobs, sweeps = workloads.build(args.workload, args.seed)
        ref_path = REFS_DIR / f"{args.workload}.json"
        refs = json.loads(ref_path.read_text())["jobs"] if ref_path.is_file() else {}
        span_dump = None
        if args.trace:
            metrics, problems, attempted, failed, details, span_dump = layered(
                root, env, work, jobs, sweeps, refs, args.seed)
        else:
            metrics, problems, attempted, failed, details = end_to_end(
                root, env, work, jobs, refs, args.seed, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "machine": machine_block(root), "problems": problems,
              "metrics": {k: v for k, (v, _) in metrics.items()}, **details}
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if span_dump is not None:
        (out_dir / f"{tag}-spans.json").write_text(json.dumps(span_dump) + "\n")
    for p in problems[:20]:
        print(f"problem: {p}")
    print(f"details: .perfbench/{tag}.json")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
