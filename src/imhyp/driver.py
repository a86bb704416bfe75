"""Command-line front end: config validation, dispatch, reproducible reports.

One subcommand per analysis operation.  Each subcommand is declared once, by
the @_command decorator on its runner: the decorator names the command, lists
its config keys and fills SCHEMAS and RUNNERS.  One scalar table renders
every value of a report, certificate or report CSV, a list at a time (floats
at 17 significant digits); reports are JSON with sorted keys, so identical
config and version produce identical bytes; a table's rows take one line
each.  This module does all of the package's file I/O: it reads config,
field and multiplier JSON and writes every report, certificate and CSV, each
through a temp-file-plus-rename.  It binds the five layer modules lazily and
imports no numpy itself, so --version, config errors and the planar-field
commands start without numpy; a command loads the layers it calls.
"""

from __future__ import annotations

import dataclasses
import difflib
import importlib.util
import json
import math
import os
import sys
import tempfile
import time
import warnings
from typing import NamedTuple

from . import __version__
from .errors import ConfigError, HypothesisNotMet, NumericalFailure
from .lattice_params import BOUNDARY_CONDITIONS, PERIODIC_SCALINGS, JumpQuery


def _lazy(name: str):
    """The module imhyp.<name>: in sys.modules at once, run on the first
    read of one of its attributes."""
    fullname = f"{__package__}.{name}"
    if fullname not in sys.modules:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        sys.modules[fullname] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[fullname])
    return sys.modules[fullname]


# the five layers; a command loads only those it calls, and numpy with them
lattice_spectrum, reaction_field, stationary_spectrum, spatial_averaging, dense_eig = (
    map(_lazy, ("lattice_spectrum", "reaction_field", "stationary_spectrum",
                "spatial_averaging", "dense_eig")))

# ---------------------------------------------------------------------------
# parameter schema

class Param(NamedTuple):
    """One config key: how to parse it and what values are legal."""

    key: str
    kind: str
    default: object = None
    required: bool = False
    positive: bool = False
    choices: tuple | None = None


def _parse_bool(raw):
    if isinstance(raw, bool):
        return raw
    text = str(raw).strip().lower()
    if text in ("true", "1", "yes"):
        return True
    if text in ("false", "0", "no"):
        return False
    raise ValueError(f"expected true or false, got {raw!r}")


def _parse_float(raw) -> float:
    # float() reads the JSON booleans true and false as 1.0 and 0.0
    if isinstance(raw, bool):
        raise ValueError(f"expected a number, got {raw!r}")
    return float(raw)


def _parse_str(raw) -> str:
    # str() would turn a JSON true or 7 into the name "True" or "7"
    if not isinstance(raw, str):
        raise ValueError(f"expected a string, got {raw!r}")
    return raw


def _parse_floats(raw, lengths=(), refusal=""):
    """Floats from a list or comma-separated text, refused unless their count
    is in lengths (when given); refusal's {} is the count."""
    if isinstance(raw, (list, tuple)):
        vals = tuple(_parse_float(x) for x in raw)
    else:
        vals = tuple(float(p) for p in str(raw).split(",") if p.strip())
    if lengths and len(vals) not in lengths:
        raise ValueError(refusal.format(len(vals)))
    return vals


# the float-list kinds: kind -> (entry counts allowed, refusal); () allows any
_FLOAT_LISTS = {
    "floats": ((), ""),
    "point": ((2,), "needs exactly 2 coordinates"),
    "rect": ((4,), "needs 4 numbers: x_lo,x_hi,y_lo,y_hi"),
    "jac": ((1, 4), "a Jacobian needs 1 or 4 comma-separated entries, got {}"),
}


def _parse_value(param: Param, raw):
    kind = param.kind
    if kind == "int":
        # floats and text such as "1e7" count when integral and at most 2**53
        val = raw
        if isinstance(raw, str):
            try:
                val = int(raw) if raw.strip().lstrip("+-").isdigit() else float(raw)
            except ValueError:  # refused below as not an integer
                pass
        if isinstance(val, float) and abs(val) <= 2**53 and val.is_integer():
            val = int(val)
        if isinstance(val, bool) or not isinstance(val, int):
            raise ValueError(f"expected an integer, got {raw!r}")
        return val
    if kind == "float":
        val = _parse_float(raw)
        if not math.isfinite(val):
            raise ValueError("expected a finite number")
        return val
    if kind == "bool":
        return _parse_bool(raw)
    if kind in ("str", "path"):
        return _parse_str(raw)
    if kind in _FLOAT_LISTS:
        return _parse_floats(raw, *_FLOAT_LISTS[kind])
    if kind == "strs":
        if isinstance(raw, (list, tuple)):
            return tuple(_parse_str(x) for x in raw)
        return tuple(p.strip() for p in _parse_str(raw).split(",") if p.strip())
    if kind == "jacs":
        if not isinstance(raw, (list, tuple)):
            raw = [block for block in str(raw).split(";") if block.strip()]
        return tuple(_parse_floats(block, *_FLOAT_LISTS["jac"]) for block in raw)
    raise ValueError(f"unhandled parameter kind {kind!r}")


# command name -> {config key: Param}, and command name -> runner; both are
# filled by @_command
SCHEMAS = {}
RUNNERS = {}


def _command(name: str, *params: Param):
    """Register the decorated runner as subcommand name, taking out and
    timing, which every command takes, then params."""
    common = (Param("out", "path"), Param("timing", "bool", default=False))

    def register(runner):
        SCHEMAS[name] = {p.key: p for p in (*common, *params)}
        RUNNERS[name] = runner
        return runner
    return register


_CSV = Param("csv", "path")
_CERT = Param("cert", "path")
_FIELD = Param("field", "str", required=True)
_NU = Param("nu", "float", required=True, positive=True)
_CUTOFF = Param("cutoff", "float", required=True, positive=True)
_DOMAIN = (
    Param("dim", "int", default=3, positive=True),
    Param("bc", "str", default="neumann", choices=BOUNDARY_CONDITIONS),
    Param("sides", "floats"),
)
# the box-spectrum commands, the only ones whose enumeration takes a scaling
_BOX_SPECTRUM = (
    *_DOMAIN,
    Param("periodic-scaling", "str", default="paper", choices=PERIODIC_SCALINGS),
    _CUTOFF,
)
# the keys of the commands that linearize equilibria (see _linearizations)
_EQUILIBRIA = (
    *_DOMAIN,
    _NU,
    Param("jacs", "jacs"),
    Param("field", "str"),
    Param("labels", "strs"),
    _CUTOFF,
)


def validate(config) -> list:
    """Diagnostics for a config mapping; empty list means the config runs."""
    return _parse_config(config)[0]


def _parse_config(config) -> tuple[list, dict]:
    """(diagnostics, params): each key parsed once; params holds the parsed
    value or the default of every schema key."""
    diags = []
    if not isinstance(config, dict):
        return ["config must be a JSON object"], {}
    cmd = config.get("command")
    if not isinstance(cmd, str) or cmd not in SCHEMAS:
        hint = ""
        if isinstance(cmd, str):
            close = difflib.get_close_matches(cmd, SCHEMAS, n=1)
            if close:
                hint = f" (did you mean '{close[0]}'?)"
        diags.append(f"unknown command {cmd!r}{hint}")
        return diags, {}
    schema = SCHEMAS[cmd]
    for key in sorted(config):
        if key == "command" or key in schema:
            continue
        close = difflib.get_close_matches(key, schema, n=1)
        hint = f" (did you mean '{close[0]}'?)" if close else ""
        diags.append(f"unknown key '{key}'{hint}")
    params = {}
    for key, param in schema.items():
        params[key] = param.default
        if key not in config or config[key] is None:
            if param.required:
                diags.append(f"missing required key '{key}'")
            continue
        try:
            val = _parse_value(param, config[key])
        except (ValueError, TypeError) as exc:
            diags.append(f"{key}: {exc}")
            continue
        params[key] = val
        if param.positive and not (
            isinstance(val, (int, float)) and val > 0
        ):
            diags.append(f"{key} must be positive")
        if param.choices is not None and val not in param.choices:
            allowed = ", ".join(str(c) for c in param.choices)
            diags.append(f"{key} must be one of: {allowed}")
    return diags, params


# ---------------------------------------------------------------------------
# report text: every scalar of a report, certificate or CSV becomes text in
# _texts, a list at a time, by _SCALARS

# JSON scalar type -> its text; _render turns every other leaf into one
_SCALARS = {
    float: "%.17g".__mod__,
    int: str,
    str: json.dumps,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def _texts(values):
    """The text of each JSON scalar in values, made as the caller iterates;
    every float is checked finite first, as JSON cannot hold inf or nan."""
    kinds = set(map(type, values))
    if float in kinds:
        floats = values if len(kinds) == 1 else [x for x in values if type(x) is float]
        if not all(map(math.isfinite, floats)):
            bad = next(x for x in floats if not math.isfinite(x))
            raise NumericalFailure(f"a report value is {bad}, which JSON cannot hold")
    if len(kinds) == 1:  # such as a CSV or table column
        return map(_SCALARS[kinds.pop()], values)
    return (_SCALARS[type(x)](x) for x in values)


def _is_table(obj) -> bool:
    """Whether obj is a list of non-empty, equal-length lists of scalars."""
    return (set(map(type, obj)) <= {list, tuple} and len(obj[0]) > 0
            and set(map(len, obj)) == {len(obj[0])}
            and _SCALARS.keys() >= {type(x) for row in obj for x in row})


def _render(obj, pad: str) -> str:
    """obj as JSON text, each node converted as it is written: numpy arrays
    and scalars by tolist() (a scalar's is its item()), a dataclass as its
    fields, dict keys as strings, sorted, and tuples as lists.  pad starts
    the closing line; each nested line is indented one space further, but a
    table row stays on one line."""
    if type(obj) in _SCALARS:
        return next(_texts((obj,)))
    np = sys.modules.get("numpy")  # no numpy value exists before its import
    if np is not None and isinstance(obj, (np.ndarray, np.generic)):
        return _render(obj.tolist(), pad)
    if dataclasses.is_dataclass(obj):
        obj = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    inner = pad + " "
    if isinstance(obj, dict):
        obj = {str(k): v for k, v in obj.items()}
        keys = sorted(obj)
        items = [f"{key}: {_render(obj[k], inner)}"
                 for k, key in zip(keys, _texts(keys))]
    elif not isinstance(obj, (list, tuple)):
        raise TypeError(f"cannot put {type(obj).__name__} in a report")
    elif _SCALARS.keys() >= set(map(type, obj)):
        items = _texts(obj)
    elif _is_table(obj):
        # such as a histogram of (gap, count) pairs: a column at a time
        items = ["[" + ", ".join(row) + "]" for row in zip(*map(_texts, zip(*obj)))]
    else:
        items = [_render(x, inner) for x in obj]
    body = inner + ("," + inner).join(items) + pad if obj else ""
    return ("{%s}" if isinstance(obj, dict) else "[%s]") % body


def render_report(report) -> str:
    """A report or certificate as deterministic text: the one walk from a
    result to text."""
    return _render(report, "\n") + "\n"


def _csv(header: str, columns) -> str:
    """CSV text: the header line, then one line per row of JSON-scalar columns."""
    lines = map(",".join, zip(*map(_texts, columns)))
    return "\n".join([header, *lines]) + "\n"


def _atomic_file(path, text: str) -> None:
    """Write text to a temp file beside path, then rename it onto path.

    A path that cannot be written is a ConfigError.
    """
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".imhyp.")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None


def _read_json(path, what: str) -> dict:
    """The JSON object in file path, else a ConfigError naming the what file."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        problem = exc.strerror or str(exc)
    except ValueError as exc:
        problem = f"not valid JSON: {exc}"
    else:
        if isinstance(data, dict):
            return data
        problem = "not a JSON object"
    raise ConfigError(f"cannot read {what} file {path}: {problem}")


# ---------------------------------------------------------------------------
# shared builders

def _build_domain(p) -> lattice_spectrum.BoxDomain:
    return lattice_spectrum.BoxDomain(dim=p["dim"], sides=p["sides"], bc=p["bc"])


def _spectrum(p):
    return lattice_spectrum.enumerate_spectrum(
        _build_domain(p), p["cutoff"], periodic_scaling=p["periodic-scaling"]
    )


def _scalar_field():
    raise ConfigError(
        "field 'cubic-scalar' is one-dimensional; this command needs a "
        "planar field"
    )


def _prop34_field():
    consts = reaction_field.solve_prop34()
    return reaction_field.CubicCoupled(k=consts.k, a=consts.a_star, b=consts.b)


# builtin name -> its planar field; cubic-scalar, f(u) = u - u^3, has none and
# serves only the equilibria commands (see _linearizations)
_BUILTIN_FIELDS = {
    "cubic-scalar": _scalar_field,
    "prop34": _prop34_field,
    "prop35": lambda: reaction_field.prop35_field(exact=True),
    "prop35-float": lambda: reaction_field.prop35_field(exact=False),
}
_BUILTIN_MULTIPLIERS = {
    "cos-x1": lambda: spatial_averaging.Multiplier(
        lattice_spectrum.BoxDomain(dim=3), {(1, 0, 0): 1.0}),
}


def _builtin_or_file(name: str, builtins: dict, what: str, from_json):
    """The builtin called name, else from_json of the JSON in file name."""
    if name in builtins:
        return builtins[name]()
    if os.path.exists(name):
        return from_json(_read_json(name, what))
    raise ConfigError(
        f"{what} {name!r} is neither a readable JSON file nor a builtin "
        f"({', '.join(builtins)})"
    )


def _planar_field(name: str):
    return _builtin_or_file(name, _BUILTIN_FIELDS, "field",
                            reaction_field.field_from_json_dict)


def _region(p):
    region = p["region"]
    return reaction_field.DEFAULT_REGION if region is None else (region[:2], region[2:])


def _jac_matrix(entries):
    """The 1x1 or 2x2 Jacobian of 1 or 4 parsed entries, as a tuple of rows."""
    n = math.isqrt(len(entries))
    return tuple(tuple(entries[i:i + n]) for i in range(0, n * n, n))


def _linearizations(p, domain) -> list:
    """Equilibrium linearizations from either --jacs or --field."""
    field_name = p.get("field")
    jacs = p.get("jacs")
    if (field_name is None) == (jacs is None):
        raise ConfigError("pass exactly one of 'field' or 'jacs'")
    if jacs is None and p.get("labels") is not None:
        raise ConfigError("labels name the jacs: pass them with 'jacs'")
    nu = p["nu"]
    if jacs is not None:
        labels = p.get("labels") or tuple(f"eq{i}" for i in range(len(jacs)))
        if len(labels) != len(jacs):
            raise ConfigError(
                f"{len(labels)} labels for {len(jacs)} Jacobians"
            )
        lins = [
            stationary_spectrum.Linearization(domain, nu, _jac_matrix(j), label=lab)
            for j, lab in zip(jacs, labels)
        ]
    elif field_name == "cubic-scalar":
        # f(u) = u - u^3: equilibria 0 and +-1 with f'(u) = 1 - 3u^2
        pairs = (("0", 1.0), ("+1", -2.0), ("-1", -2.0))
        lins = [
            stationary_spectrum.Linearization(domain, nu, ((d,),), label=lab)
            for lab, d in pairs
        ]
    else:
        lins = []
        for a in reaction_field.fixed_points(_planar_field(field_name)):
            x, y = a.point_float
            jac = tuple(tuple(map(float, row)) for row in a.jacobian)
            lins.append(stationary_spectrum.Linearization(
                domain, nu, jac, label=f"({x:.6g},{y:.6g})"))
    if not lins:
        source = "jacs" if jacs is not None else f"field {field_name!r}"
        raise ConfigError(f"no equilibria to linearize: {source} gives none")
    return lins


def _analysis_row(a) -> dict:
    """A fixed-point analysis with exact values as floats and complex
    eigenvalues as [re, im] pairs."""
    return {
        "point": a.point_float,
        "jacobian": [[float(v) for v in row] for row in a.jacobian],
        "eigenvalues": [[z.real, z.imag] for z in map(complex, a.eigenvalues)],
        "delta": a.delta_float,
        "residual": a.residual_float,
    }


def _certificate(cert, path) -> dict:
    """An obstruction certificate's five keys (its result a witness or
    "empty"), also written to path when one is given."""
    report = {"mode": cert.mode, "cutoff": cert.cutoff,
              "result": "empty" if cert.empty else cert.result,
              "equilibria": cert.equilibria, "caveat": cert.caveat}
    if path:
        _atomic_file(path, render_report(report))
    return report


# ---------------------------------------------------------------------------
# subcommand runners: each returns (result, verdict line); the result may hold
# library dataclasses and arrays, which render_report writes as JSON

@_command("spectrum", *_BOX_SPECTRUM, _CSV)
def _run_spectrum(p):
    spec = _spectrum(p)
    if p.get("csv"):
        _atomic_file(p["csv"], _csv("lambda,multiplicity", (
            spec.eigenvalues.tolist(), spec.multiplicities.tolist())))
    gaps = lattice_spectrum.gap_stats(spec) if len(spec) >= 2 else None
    result = {
        "count": spec.total_count,
        "distinct": len(spec),
        "lowest": spec.eigenvalues[0] if len(spec) else None,
        "highest": spec.eigenvalues[-1] if len(spec) else None,
        "csv": p.get("csv"),
        "gap_report": gaps,
    }
    verdict = f"{spec.total_count} modes up to cutoff {p['cutoff']:g}"
    if gaps is not None:
        verdict += f"; max gap {gaps.max_gap:g}"
    return result, verdict


@_command("gaps", *_BOX_SPECTRUM)
def _run_gaps(p):
    spec = _spectrum(p)
    if len(spec) < 2:
        raise HypothesisNotMet(
            f"only {len(spec)} distinct eigenvalues below {p['cutoff']:g}; "
            "no gaps to report"
        )
    report = lattice_spectrum.gap_stats(spec)
    lo, hi = report.witness
    return report, f"max gap {report.max_gap:g} at ({lo:g}, {hi:g})"


@_command("jump", *_BOX_SPECTRUM,
          Param("theta", "float", default=JumpQuery.theta),
          Param("lip", "float", default=JumpQuery.lip, positive=True),
          Param("cconst", "float", default=JumpQuery.cconst, positive=True),
          Param("nu", "float", default=JumpQuery.nu, positive=True))
def _run_jump(p):
    query = JumpQuery(theta=p["theta"], lip=p["lip"], cconst=p["cconst"],
                      nu=p["nu"])
    scan = lattice_spectrum.jump_condition_scan(_spectrum(p), query)
    verdict = (
        f"jump condition {'satisfied' if scan.satisfied else 'not satisfied'} "
        f"(best ratio {scan.best_ratio:g} at n={scan.best_n})"
    )
    return scan, verdict


@_command("gauss-audit", Param("limit", "int", default=1_000_000, positive=True))
def _run_gauss_audit(p):
    audit = lattice_spectrum.three_square_gap_audit(p["limit"])
    result = {
        "limit": p["limit"],
        "excluded_count": audit.excluded.size,
        "max_gap": audit.max_gap,
        "gap_witness": audit.gap_witness,
        "max_excluded_run": audit.max_excluded_run,
    }
    lo, hi = audit.gap_witness
    verdict = (
        f"max gap {audit.max_gap} at ({lo}, {hi}) "
        f"with {audit.excluded.size} excluded values"
    )
    return result, verdict


@_command("weyl", *_BOX_SPECTRUM)
def _run_weyl(p):
    fit = lattice_spectrum.weyl_fit(_spectrum(p), p["dim"])
    verdict = (
        f"growth exponent {fit.exponent:.4f} "
        f"(expected {fit.expected:.4f} in dim {p['dim']})"
    )
    return fit, verdict


@_command("fixed-points", _FIELD, Param("region", "rect"), _CSV)
def _run_fixed_points(p):
    analyses = reaction_field.fixed_points(_planar_field(p["field"]), region=_region(p))
    points = [_analysis_row(a) for a in analyses]
    if p.get("csv"):
        _atomic_file(p["csv"], _csv(
            "i,px,py,xi1_re,xi1_im,xi2_re,xi2_im,delta",
            zip(*[[i, *row["point"], *row["eigenvalues"][0],
                   *row["eigenvalues"][1], row["delta"]]
                  for i, row in enumerate(points)]),
        ))
    result = {"count": len(analyses), "points": points, "csv": p.get("csv")}
    verdict = f"{len(analyses)} hyperbolic-candidate fixed points found"
    return result, verdict


@_command("delta", _FIELD, Param("at", "point", required=True))
def _run_delta(p):
    field = _planar_field(p["field"])
    at = p["at"]
    analysis = reaction_field.delta_of(field, tuple(at))
    verdict = f"delta = {analysis.delta_float:.17g} at ({at[0]:g}, {at[1]:g})"
    return _analysis_row(analysis), verdict


@_command("lemma33", _FIELD, Param("region", "rect"))
def _run_lemma33(p):
    check = reaction_field.lemma33_check(_planar_field(p["field"]), region=_region(p))
    result = {
        "ladder_found": check.verdict,
        "matches": {t: _analysis_row(a) for t, a in check.matches.items()},
    }
    if check.verdict:
        verdict = "delta ladder 0,1,2,3 realized by distinct fixed points"
    else:
        missing = sorted(set(range(4)) - set(check.matches))
        verdict = f"no delta ladder: missing targets {missing}"
    return result, verdict


@_command("prop34")
def _run_prop34(p):
    consts = reaction_field.solve_prop34()
    ok = consts.checklist.all_pass()
    verdict = (
        f"{'PASS' if ok else 'FAIL'}: a* = {consts.a_star:.17g}, "
        f"middle-gap residual {consts.phi_residual:.3g}"
    )
    return consts, verdict


@_command("prop35-verify", Param("exact", "bool", default=True))
def _run_prop35_verify(p):
    report = reaction_field.verify_prop35(exact=p["exact"])
    ok = report.ladder_ok()
    result = {
        "exact": report.exact,
        "deltas": [float(d) for d in report.deltas],
        "delta_errors": report.delta_errors,
        "ladder_ok": ok,
        "points": [_analysis_row(a) for a in report.analyses],
    }
    worst = max(report.delta_errors, default=0.0)
    verdict = (
        f"{'PASS' if ok else 'FAIL'}: delta ladder error {worst:.3g} "
        f"({'exact' if report.exact else 'float'} mode)"
    )
    return result, verdict


@_command("dissipativity", _FIELD,
          Param("samples", "int", default=10_000, positive=True),
          Param("seed", "int", default=0))
def _run_dissipativity(p):
    field = _planar_field(p["field"])
    report = reaction_field.dissipativity_radius(
        field, samples=p["samples"], seed=p["seed"])
    # dissipativity_radius raises on a failing sample, so report.verified holds
    return report, f"sign condition verified outside radius {report.r0:.17g}"


@_command("region", _FIELD, Param("c", "float", required=True, positive=True))
def _run_region(p):
    field = _planar_field(p["field"])
    invariant = reaction_field.invariant_region_check(field, p["c"])
    result = {"c": p["c"], "invariant": bool(invariant)}
    verdict = (
        f"[0,1]x[0,{p['c']:g}] {'is' if invariant else 'is not'} invariant"
    )
    return result, verdict


@_command("index", *_DOMAIN, _NU, Param("jac", "jac", required=True), _CUTOFF)
def _run_index(p):
    lin = stationary_spectrum.Linearization(
        _build_domain(p), p["nu"], _jac_matrix(p["jac"]))
    index, hyperbolic = stationary_spectrum.unstable_index(lin, p["cutoff"])
    result = {"index": index, "hyperbolic": hyperbolic, "cutoff": p["cutoff"]}
    verdict = (
        f"unstable index {index} "
        f"({'hyperbolic' if hyperbolic else 'marginal spectrum present'})"
    )
    return result, verdict


@_command("parity", *_EQUILIBRIA)
def _run_parity(p):
    lins = _linearizations(p, _build_domain(p))
    report = stationary_spectrum.parity_report(lins, p["cutoff"])
    result = {
        "entries": report.entries,
        "pairs": [
            {"a": q.label_a, "b": q.label_b,
             "difference": q.difference, "even": q.even}
            for q in report.pairs
        ],
        "excluded": report.excluded,
    }
    odd = [q for q in report.pairs if not q.even]
    if not report.pairs:
        verdict = "no hyperbolic pairs to compare"
    elif odd:
        verdict = f"{len(odd)} index pair(s) with odd difference"
    else:
        verdict = "all unstable-index differences even"
    return result, verdict


@_command("profile", *_DOMAIN, _NU, Param("jac", "jac", required=True), _CUTOFF)
def _run_profile(p):
    lin = stationary_spectrum.Linearization(
        _build_domain(p), p["nu"], _jac_matrix(p["jac"]))
    profile = stationary_spectrum.count_profile(lin, p["cutoff"])
    gaps = profile.gaps_below_zero()
    verdict = (
        f"{len(profile.breakpoints)} breakpoints; "
        f"{len(gaps)} count plateaus below zero (certified above "
        f"{profile.valid_above:.17g})"
    )
    return {**vars(profile), "gaps_below_zero": gaps}, verdict


# nhim-dims lists at most this many feasible dimensions per equilibrium
_SHOWN_DIMS = 25


@_command("nhim-dims", *_EQUILIBRIA, _CERT)
def _run_nhim_dims(p):
    lins = _linearizations(p, _build_domain(p))
    if len(lins) == 1 and p.get("cert"):
        raise ConfigError("cert needs two or more equilibria")
    cert = stationary_spectrum.nhim_certificate(lins, p["cutoff"])
    # each equilibrium's feasible dimensions are the n of its gaps, ascending
    per = [{"label": lin.label, "dims": [w.n for w in gaps[:_SHOWN_DIMS]],
            "dim_count": len(gaps), "truncation_bound": profile.valid_above}
           for lin, profile, gaps in zip(lins, cert.profiles, cert.gaps)]
    result = {"equilibria": per, "gap_min": stationary_spectrum.GAP_MIN}
    if len(lins) == 1:
        shown = per[0]["dims"]
        verdict = (
            f"{per[0]['dim_count']} feasible dimensions; "
            f"first {len(shown)}: {shown}"
        )
        return result, verdict
    result["certificate"] = _certificate(cert, p.get("cert"))
    if cert.empty:
        verdict = f"no common feasible dimension up to cutoff {p['cutoff']:g}"
    else:
        verdict = (
            f"common feasible dimension n={cert.result.n} "
            f"on ({cert.result.gamma_lo:g}, {cert.result.gamma_hi:g})"
        )
    return result, verdict


@_command("anhim", *_EQUILIBRIA, _CERT)
def _run_anhim(p):
    lins = _linearizations(p, _build_domain(p))
    cert = stationary_spectrum.anhim_common_gamma(lins, p["cutoff"])
    result = _certificate(cert, p.get("cert"))
    if cert.empty:
        verdict = f"ANHIM obstruction: empty up to cutoff {p['cutoff']:g}"
    else:
        verdict = (
            f"ANHIM witness: n={cert.result.n} on "
            f"({cert.result.gamma_lo:g}, {cert.result.gamma_hi:g})"
        )
    return result, verdict


@_command("lemma41", Param("jac0", "float", required=True),
          Param("jac1", "float", required=True),
          Param("gap-bound", "float", required=True, positive=True))
def _run_lemma41(p):
    threshold = reaction_field.lemma41_threshold(
        p["jac0"], p["jac1"], p["gap-bound"])
    result = {
        "threshold": threshold,
        "jac0": p["jac0"],
        "jac1": p["jac1"],
        "gap_bound": p["gap-bound"],
    }
    verdict = f"obstruction active for nu below {threshold:.17g}"
    return result, verdict


@_command("sap-scan", Param("h", "str", required=True),
          Param("k", "float", required=True, positive=True),
          Param("rho", "float", required=True, positive=True),
          Param("lambda-max", "float", required=True, positive=True), _CSV)
def _run_sap_scan(p):
    h = _builtin_or_file(p["h"], _BUILTIN_MULTIPLIERS, "multiplier",
                         spatial_averaging.multiplier_from_json_dict)
    reports = spatial_averaging.sap_scan(h, p["k"], p["rho"], p["lambda-max"])
    rows = [{"lambda" if k == "lam" else k: v for k, v in vars(r).items()}
            for r in reports]
    if p.get("csv"):
        header = "lambda,k,window_modes,op_norm,h2_norm,eps_eff,gap,rho_ok"
        _atomic_file(p["csv"], _csv(
            header, [[row[c] for row in rows] for c in header.split(",")]
        ))
    result = {
        "windows": len(rows),
        "headline": rows[0] if rows else None,
        "reports": rows,
        "csv": p.get("csv"),
    }
    if rows:
        verdict = (
            f"best eps_eff {rows[0]['eps_eff']:.17g} at "
            f"lambda {rows[0]['lambda']:g} ({len(rows)} windows)"
        )
    else:
        verdict = "no spectral gap wide enough for the requested rho"
    return result, verdict


def run(config) -> dict:
    """Validate, dispatch, and wrap one subcommand into a report holding what
    its runner built (library dataclasses, numpy values, tuples); the plain
    JSON form of the report is json.loads(render_report(run(config)))."""
    diags, params = _parse_config(config)
    if diags:
        raise ConfigError("; ".join(diags))
    cmd = config["command"]
    started = time.perf_counter()
    result, verdict = RUNNERS[cmd](params)
    report = {
        "tool": "imhyp",
        "version": __version__,
        "command": cmd,
        "config": {k: v for k, v in params.items() if v is not None},
        "result": result,
        "verdict": verdict,
    }
    if params["timing"]:
        report["timing_seconds"] = time.perf_counter() - started
    return report


# ---------------------------------------------------------------------------
# command line

_USAGE = """usage: imhyp <subcommand> [--config FILE.json] [--key value]...

subcommands:
  spectrum gaps jump gauss-audit weyl
  fixed-points delta lemma33 prop34 prop35-verify dissipativity region
  index parity profile nhim-dims anhim lemma41
  sap-scan

Every config key doubles as a --key flag; command-line flags override the
config file.  Every command takes --out REPORT.json and --timing true;
spectrum, fixed-points and sap-scan take --csv FILE.csv, nhim-dims and
anhim take --cert FILE.json.
Exit codes: 0 ok, 1 config error (including an unreadable input or an
unwritable output file), 2 hypothesis not met, 3 numerical failure
(including a non-finite report value), 4 internal error.  Every error exit
prints one line to stderr.
"""


def _parse_cli(cmd: str, argv: list) -> dict:
    config = {}
    overrides = {}
    i = 0
    while i < len(argv):
        tok = argv[i]
        if not tok.startswith("--"):
            raise ConfigError(f"expected --key, got {tok!r}")
        key = tok[2:]
        if "=" in key:
            key, value = key.split("=", 1)
        else:
            if i + 1 >= len(argv):
                raise ConfigError(f"flag --{key} needs a value")
            i += 1
            value = argv[i]
        if key == "config":
            loaded = _read_json(value, "config")
            file_cmd = loaded.pop("command", None)
            if file_cmd is not None and file_cmd != cmd:
                raise ConfigError(
                    f"config file is for command {file_cmd!r}, not {cmd!r}"
                )
            config.update(loaded)
        else:
            overrides[key] = value
        i += 1
    config.update(overrides)
    config["command"] = cmd
    return config


def main(argv=None) -> int:
    args = list(sys.argv[1:]) if argv is None else list(argv)
    if not args or args[0] in ("-h", "--help", "help"):
        print(_USAGE, end="")
        return 0
    if args[0] == "--version":
        print(f"imhyp {__version__}")
        return 0
    cmd = args[0]
    try:
        config = _parse_cli(cmd, args[1:])
        # overflow ends in a non-finite report value (exit 3), not warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            report = run(config)
            text = render_report(report)
        out = report["config"].get("out")
        if out:
            _atomic_file(out, text)
            print(report["verdict"])
        else:
            print(text, end="")
    except ConfigError as exc:
        return _fail("config error", exc, 1)
    except HypothesisNotMet as exc:
        return _fail("hypothesis not met", exc, 2)
    except NumericalFailure as exc:
        witness = "" if exc.witness is None else f" (witness: {exc.witness})"
        return _fail("numerical failure", f"{exc}{witness}", 3)
    except Exception as exc:  # the CLI boundary: no traceback escapes
        return _fail("internal error", f"{type(exc).__name__}: {exc}", 4)
    return 0


def _fail(kind: str, message, code: int) -> int:
    text = " ".join(str(message).splitlines())
    print(f"imhyp: {kind}: {text}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
