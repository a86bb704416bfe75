"""Correctness gate: committed references plus seed-independent checks.

A job's outcome is its exit code, stdout, stderr and the files it wrote.
Against a reference, structure, integers, booleans and strings must match
exactly; floats (also the numbers inside verdict text) must match within
``RTOL`` relative, plus ``ATOL`` absolute.  The absolute term only matters
below 1e-5 and absorbs rounding residue such as fixed-point residuals and
imaginary parts of order 1e-16.  Two report parts are compared in a
canonical form because their raw order or bucketing is not stable under
last-bit changes:

* ``sap-scan`` reports are sorted by (eps_eff, lambda), and whole chains of
  windows share one eps_eff exactly, so rows are compared sorted by lambda
  and the headline by its eps_eff;
* a gap histogram with non-integer keys buckets gaps rounded to 1e-9, so
  an ulp change of an eigenvalue moves counts between neighbouring keys;
  it is compared by its total count and its count-weighted gap sum.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re

RTOL = 1e-9
ATOL = 1e-14
CSV_FULL_ROWS = 2000
CSV_SAMPLES = 400

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
_BEST_AT = re.compile(r"at lambda \S+")


def _num(text: str):
    try:
        return int(text)
    except ValueError:
        return float(text)


def _close(a, b) -> bool:
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    a, b = float(a), float(b)
    if a == b:
        return True
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= RTOL * max(abs(a), abs(b)) + ATOL


def _compare_text(ref: str, got: str, path: str, out: list) -> None:
    if _NUMBER.sub("#", ref) != _NUMBER.sub("#", got):
        out.append(f"{path}: {got!r} != {ref!r}")
        return
    for a, b in zip(_NUMBER.findall(ref), _NUMBER.findall(got)):
        if not _close(_num(a), _num(b)):
            out.append(f"{path}: {got!r} != {ref!r}")
            return


def compare(ref, got, path: str = "", out: list | None = None) -> list:
    """Mismatches between a reference value and an observed one."""
    out = [] if out is None else out
    if isinstance(ref, bool) or isinstance(got, bool) or ref is None or got is None:
        if type(ref) is not type(got) or ref != got:
            out.append(f"{path}: {got!r} != {ref!r}")
    elif isinstance(ref, (int, float)) and isinstance(got, (int, float)):
        if not _close(ref, got):
            out.append(f"{path}: {got!r} != {ref!r}")
    elif isinstance(ref, str) and isinstance(got, str):
        _compare_text(ref, got, path, out)
    elif isinstance(ref, dict) and isinstance(got, dict):
        if sorted(ref) != sorted(got):
            out.append(f"{path}: keys {sorted(got)} != {sorted(ref)}")
        for k in ref:
            if k in got:
                compare(ref[k], got[k], f"{path}.{k}", out)
    elif isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            out.append(f"{path}: length {len(got)} != {len(ref)}")
        else:
            for i, (a, b) in enumerate(zip(ref, got)):
                compare(a, b, f"{path}[{i}]", out)
    else:
        out.append(f"{path}: {got!r} != {ref!r}")
    return out


# ---------------------------------------------------------------------------
# canonical forms

def _histogram_summary(hist):
    if all(isinstance(k, int) for k, _ in hist):
        return hist
    return {"total": sum(c for _, c in hist),
            "weighted": math.fsum(k * c for k, c in hist)}


def canonical_report(command: str, report: dict) -> dict:
    """The parts of a report that are compared: result and verdict."""
    result = json.loads(json.dumps(report["result"]))
    verdict = report["verdict"]
    if isinstance(result, dict):
        if "gap_histogram" in result:
            result["gap_histogram"] = _histogram_summary(result["gap_histogram"])
        gap_report = result.get("gap_report")
        if isinstance(gap_report, dict):
            gap_report["gap_histogram"] = _histogram_summary(
                gap_report["gap_histogram"])
    if command == "sap-scan":
        result["reports"].sort(key=lambda r: r["lambda"])
        if result["headline"] is not None:
            result["headline"] = {"eps_eff": result["headline"]["eps_eff"]}
        verdict = _BEST_AT.sub("at lambda *", verdict)
    return {"result": result, "verdict": verdict}


def _csv_cell(text: str):
    try:
        return _num(text)
    except ValueError:
        return text


def canonical_csv(text: str):
    """Header, rows (sampled when long) and numeric column sums of a CSV."""
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], [[_csv_cell(c) for c in r] for r in rows[1:] if r]
    if header and header[0] == "lambda" and "eps_eff" in header:
        body.sort(key=lambda r: r[0])  # sap-scan rows: see module docstring
    if len(body) <= CSV_FULL_ROWS:
        return {"header": header, "rows": body}
    stride = -(-len(body) // CSV_SAMPLES)
    sums = []
    for j in range(len(header)):
        col = [r[j] for r in body]
        sums.append(math.fsum(col) if all(isinstance(v, (int, float)) for v in col)
                    else None)
    return {"header": header, "n_rows": len(body), "stride": stride,
            "sample": body[::stride] + [body[-1]], "column_sums": sums}


def canonical_file(name: str, text: str):
    if name.endswith(".csv"):
        return {"csv": canonical_csv(text)}
    return {"json": json.loads(text)}


# ---------------------------------------------------------------------------
# outcomes

def _flag(job, name: str):
    """The value given to --name on the job's command line, or None."""
    argv = list(job.argv)
    return argv[argv.index(name) + 1] if name in argv else None


def report_of(job, outcome) -> dict | None:
    """The JSON report of a successful job (stdout, or its --out file)."""
    if outcome["exit"] != 0:
        return None
    out = _flag(job, "--out")
    return json.loads(outcome["files"][out] if out else outcome["stdout"])


def reference_of(job, outcome) -> dict:
    """What is compared of one outcome; an --out file is the report itself."""
    report = report_of(job, outcome)
    out = _flag(job, "--out")
    return {
        "argv": list(job.argv),
        "seeded": job.seeded,
        "exit": outcome["exit"],
        "report": None if report is None else canonical_report(job.argv[0], report),
        "files": {n: canonical_file(n, t)
                  for n, t in sorted(outcome["files"].items()) if n != out},
    }


def check_against(ref: dict, job, outcome) -> list:
    got = reference_of(job, outcome)
    if ref["argv"] != got["argv"]:
        return [f"argv {got['argv']} differs from the reference's {ref['argv']}"]
    return compare({k: ref[k] for k in ("exit", "report", "files")},
                   {k: got[k] for k in ("exit", "report", "files")}, job.id)


def check_consistency(job, outcome) -> list:
    """Checks that hold on every seed: exit code, report shape, and that
    written files agree with the report that announced them."""
    problems = []
    if outcome["exit"] != job.expect_exit:
        return [f"{job.id}: exit {outcome['exit']} != {job.expect_exit}: "
                f"{outcome['stderr'].strip()[-300:]}"]
    if job.expect_exit != 0:
        if outcome["stdout"] or not outcome["stderr"].startswith("imhyp: "):
            problems.append(f"{job.id}: error exit must print one message only")
        return problems
    out, cert, csv_path = (_flag(job, f) for f in ("--out", "--cert", "--csv"))
    missing = [p for p in (out, cert, csv_path) if p and p not in outcome["files"]]
    if missing:
        return [f"{job.id}: did not write {missing}"]
    try:
        report = report_of(job, outcome)
    except ValueError as exc:
        return [f"{job.id}: unreadable report: {exc}"]
    if report.get("command") != job.argv[0] or "verdict" not in report:
        return [f"{job.id}: report is not a {job.argv[0]} report"]
    result = report["result"]
    if out and outcome["stdout"] != report["verdict"] + "\n":
        problems.append(f"{job.id}: stdout is not the verdict of the --out report")
    if cert and compare(result.get("certificate", result),
                        json.loads(outcome["files"][cert])):
        problems.append(f"{job.id}: --cert file differs from the report")
    if csv_path:
        rows = outcome["files"][csv_path].splitlines()[1:]
        if job.argv[0] == "spectrum":
            mult = sum(int(r.rsplit(",", 1)[1]) for r in rows)
            agree = len(rows) == result["distinct"] and mult == result["count"]
        else:
            agree = len(rows) == result["windows" if job.argv[0] == "sap-scan"
                                        else "count"]
        if not agree:
            problems.append(f"{job.id}: CSV rows disagree with the report")
    if job.argv[0] == "sap-scan" and result["reports"]:
        best = min(r["eps_eff"] for r in result["reports"])
        if result["headline"]["eps_eff"] != best:
            problems.append(f"{job.id}: headline is not the smallest eps_eff")
    return problems
