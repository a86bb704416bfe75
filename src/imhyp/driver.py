"""Command-line front end: config validation, dispatch, reproducible reports.

One subcommand per analysis operation.  Each subcommand is declared once, by
the @_command decorator on its runner: the decorator names the command, lists
its config keys and fills SCHEMAS and RUNNERS.  One scalar table renders
every value of a report, certificate or report CSV, a list at a time (floats
at 17 significant digits); reports are JSON with sorted keys, so identical
config and version produce identical bytes; a table's rows take one line
each.  This module does all of the package's file I/O: it reads config,
field and multiplier JSON and writes every report, certificate and CSV, each
through a temp-file-plus-rename.  It imports the layers it calls from the
package, which binds each one lazily, and imports no numpy itself, so
--version, config errors and the planar-field commands start without numpy;
a command runs the layers it calls.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
import sys
import tempfile
import time
import warnings
from typing import Callable, NamedTuple

from . import (__version__, lattice_spectrum, reaction_field, spatial_averaging,
               stationary_spectrum)
from .errors import ConfigError, HypothesisNotMet, NumericalFailure, _int, _number
from .lattice_params import BOUNDARY_CONDITIONS, PERIODIC_SCALINGS, JumpQuery


# ---------------------------------------------------------------------------
# parameter schema

class Param(NamedTuple):
    """One config key: how to parse it and what values are legal."""

    key: str
    parse: Callable  # raw value -> parsed value; ValueError or TypeError refuses it
    default: object = None
    required: bool = False
    positive: bool = False
    choices: tuple | None = None


def _bool(raw) -> bool:
    if isinstance(raw, bool):
        return raw
    text = str(raw).strip().lower()
    if text in ("true", "1", "yes"):
        return True
    if text in ("false", "0", "no"):
        return False
    raise ValueError(f"expected true or false, got {raw!r}")


def _float(raw) -> float:
    val = _number(raw)
    if not math.isfinite(val):
        raise ValueError("expected a finite number")
    return val


def _str(raw) -> str:
    # str() would turn a JSON true or 7 into the name "True" or "7"
    if not isinstance(raw, str):
        raise ValueError(f"expected a string, got {raw!r}")
    return raw


def _strs(raw) -> tuple:
    if isinstance(raw, (list, tuple)):
        return tuple(_str(x) for x in raw)
    return tuple(p.strip() for p in _str(raw).split(",") if p.strip())


def _floats(raw, lengths=(), refusal=""):
    """Floats from a list or comma-separated text, refused unless their count
    is in lengths (when given); refusal's {} is the count."""
    if isinstance(raw, (list, tuple)):
        vals = tuple(_number(x) for x in raw)
    else:
        vals = tuple(float(p) for p in str(raw).split(",") if p.strip())
    if lengths and len(vals) not in lengths:
        raise ValueError(refusal.format(len(vals)))
    return vals


_point = functools.partial(_floats, lengths=(2,), refusal="needs exactly 2 coordinates")
_rect = functools.partial(_floats, lengths=(4,),
                          refusal="needs 4 numbers: x_lo,x_hi,y_lo,y_hi")
_jac = functools.partial(_floats, lengths=(1, 4), refusal=(
    "a Jacobian needs 1 or 4 comma-separated entries, got {}"))


def _jacs(raw) -> tuple:
    if not isinstance(raw, (list, tuple)):
        raw = [block for block in str(raw).split(";") if block.strip()]
    return tuple(_jac(block) for block in raw)


# command name -> {config key: Param}, and command name -> runner; both are
# filled by @_command
SCHEMAS = {}
RUNNERS = {}


def _command(name: str, *params: Param):
    """Register the decorated runner as subcommand name, taking out and
    timing, which every command takes, then params."""
    common = (Param("out", _str), Param("timing", _bool, default=False))

    def register(runner):
        SCHEMAS[name] = {p.key: p for p in (*common, *params)}
        RUNNERS[name] = runner
        return runner
    return register


_CSV = Param("csv", _str)
_CERT = Param("cert", _str)
_FIELD = Param("field", _str, required=True)
_NU = Param("nu", _float, required=True, positive=True)
_CUTOFF = Param("cutoff", _float, required=True, positive=True)
_DOMAIN = (
    Param("dim", _int, default=3, positive=True),
    Param("bc", _str, default="neumann", choices=BOUNDARY_CONDITIONS),
    Param("sides", _floats),
)
# the box-spectrum commands, the only ones whose enumeration takes a scaling
_BOX_SPECTRUM = (
    *_DOMAIN,
    Param("periodic-scaling", _str, default="paper", choices=PERIODIC_SCALINGS),
    _CUTOFF,
)
# the keys of the commands that linearize equilibria (see _linearizations)
_EQUILIBRIA = (
    *_DOMAIN,
    _NU,
    Param("jacs", _jacs),
    Param("field", _str),
    Param("labels", _strs),
    _CUTOFF,
)


def _did_you_mean(word: str, names) -> str:
    """A hint naming the closest of names to a misspelt word, or ''."""
    import difflib  # only a misspelt name pays for it
    close = difflib.get_close_matches(word, names, n=1)
    return f" (did you mean '{close[0]}'?)" if close else ""


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
        hint = _did_you_mean(cmd, SCHEMAS) if isinstance(cmd, str) else ""
        diags.append(f"unknown command {cmd!r}{hint}")
        return diags, {}
    schema = SCHEMAS[cmd]
    for key in sorted(config):
        if key == "command" or key in schema:
            continue
        diags.append(f"unknown key '{key}'{_did_you_mean(key, schema)}")
    params = {}
    for key, param in schema.items():
        params[key] = param.default
        if key not in config or config[key] is None:
            if param.required:
                diags.append(f"missing required key '{key}'")
            continue
        try:
            val = param.parse(config[key])
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

    A path that cannot be written is a ConfigError, and so is an existing
    path that is not a regular file, which the rename would replace.
    """
    path = os.fspath(path)
    if os.path.exists(path) and not os.path.isfile(path):
        raise ConfigError(f"cannot write {path}: not a regular file")
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


def _linearization(p):
    """The one equilibrium of --jac."""
    return stationary_spectrum.Linearization(
        _build_domain(p), p["nu"], _jac_matrix(p["jac"]))


def _linearizations(p) -> list:
    """Equilibrium linearizations from either --jacs or --field: each source
    gives (Jacobian, label) pairs."""
    domain = _build_domain(p)
    field_name, jacs, labels = p.get("field"), p.get("jacs"), p.get("labels")
    if (field_name is None) == (jacs is None):
        raise ConfigError("pass exactly one of 'field' or 'jacs'")
    if jacs is None and labels is not None:
        raise ConfigError("labels name the jacs: pass them with 'jacs'")
    if jacs is not None:
        labels = labels or ("",) * len(jacs)  # stationary_spectrum numbers them
        if len(labels) != len(jacs):
            raise ConfigError(f"{len(labels)} labels for {len(jacs)} Jacobians")
        pairs = [(_jac_matrix(j), lab) for j, lab in zip(jacs, labels)]
    elif field_name == "cubic-scalar":
        # f(u) = u - u^3: equilibria 0 and +-1 with f'(u) = 1 - 3u^2
        pairs = [(((d,),), lab) for d, lab in ((1.0, "0"), (-2.0, "+1"), (-2.0, "-1"))]
    else:
        pairs = [(a.jacobian, "({:.6g},{:.6g})".format(*map(float, a.point)))
                 for a in reaction_field.fixed_points(_planar_field(field_name))]
    if not pairs:
        source = "jacs" if jacs is not None else f"field {field_name!r}"
        raise ConfigError(f"no equilibria to linearize: {source} gives none")
    return [stationary_spectrum.Linearization(domain, p["nu"], jac, label=lab)
            for jac, lab in pairs]


def _analysis_row(a) -> dict:
    """A fixed-point analysis with exact values as floats and complex
    eigenvalues as [re, im] pairs."""
    return {
        "point": tuple(map(float, a.point)),
        "jacobian": [[float(v) for v in row] for row in a.jacobian],
        "eigenvalues": [[z.real, z.imag] for z in map(complex, a.eigenvalues)],
        "delta": float(a.delta),
        "residual": float(a.residual),
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
          Param("theta", _float, default=JumpQuery.theta),
          Param("lip", _float, default=JumpQuery.lip, positive=True),
          Param("cconst", _float, default=JumpQuery.cconst, positive=True),
          Param("nu", _float, default=JumpQuery.nu, positive=True))
def _run_jump(p):
    query = JumpQuery(theta=p["theta"], lip=p["lip"], cconst=p["cconst"],
                      nu=p["nu"])
    scan = lattice_spectrum.jump_condition_scan(_spectrum(p), query)
    verdict = (
        f"jump condition {'satisfied' if scan.satisfied else 'not satisfied'} "
        f"(best ratio {scan.best_ratio:g} at n={scan.best_n})"
    )
    return scan, verdict


@_command("gauss-audit", Param("limit", _int, default=1_000_000, positive=True))
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


@_command("fixed-points", _FIELD, Param("region", _rect), _CSV)
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


@_command("delta", _FIELD, Param("at", _point, required=True))
def _run_delta(p):
    field = _planar_field(p["field"])
    at = p["at"]
    analysis = reaction_field.delta_of(field, tuple(at))
    verdict = f"delta = {float(analysis.delta):.17g} at ({at[0]:g}, {at[1]:g})"
    return _analysis_row(analysis), verdict


@_command("lemma33", _FIELD, Param("region", _rect))
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


@_command("prop35-verify", Param("exact", _bool, default=True))
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


# samples is parsed and ignored: the benchmark's cli job passes it until a
# declared benchmark change drops it
@_command("dissipativity", _FIELD,
          Param("samples", _int, default=10_000, positive=True))
def _run_dissipativity(p):
    report = reaction_field.dissipativity_radius(_planar_field(p["field"]))
    return report, f"sign condition verified outside radius {report.r0:.17g}"


@_command("region", _FIELD, Param("c", _float, required=True, positive=True))
def _run_region(p):
    field = _planar_field(p["field"])
    invariant = reaction_field.invariant_region_check(field, p["c"])
    result = {"c": p["c"], "invariant": bool(invariant)}
    verdict = (
        f"[0,1]x[0,{p['c']:g}] {'is' if invariant else 'is not'} invariant"
    )
    return result, verdict


@_command("index", *_DOMAIN, _NU, Param("jac", _jac, required=True), _CUTOFF)
def _run_index(p):
    lin = _linearization(p)
    index, hyperbolic = stationary_spectrum.unstable_index(lin, p["cutoff"])
    result = {"index": index, "hyperbolic": hyperbolic, "cutoff": p["cutoff"]}
    verdict = (
        f"unstable index {index} "
        f"({'hyperbolic' if hyperbolic else 'marginal spectrum present'})"
    )
    return result, verdict


@_command("parity", *_EQUILIBRIA)
def _run_parity(p):
    lins = _linearizations(p)
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


@_command("profile", *_DOMAIN, _NU, Param("jac", _jac, required=True), _CUTOFF)
def _run_profile(p):
    profile = stationary_spectrum.count_profile(_linearization(p), p["cutoff"])
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
    lins = _linearizations(p)
    if len(lins) == 1 and p.get("cert"):
        raise ConfigError("cert needs two or more equilibria")
    cert = stationary_spectrum.nhim_certificate(lins, p["cutoff"])
    # each equilibrium's feasible dimensions are the n of its gaps, ascending
    per = [{"label": label, "dims": [w.n for w in gaps[:_SHOWN_DIMS]],
            "dim_count": len(gaps), "truncation_bound": profile.valid_above}
           for label, profile, gaps in zip(cert.equilibria, cert.profiles, cert.gaps)]
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
    lins = _linearizations(p)
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


@_command("lemma41", Param("jac0", _float, required=True),
          Param("jac1", _float, required=True),
          Param("gap-bound", _float, required=True, positive=True))
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


@_command("sap-scan", Param("h", _str, required=True),
          Param("k", _float, required=True, positive=True),
          Param("rho", _float, required=True, positive=True),
          Param("lambda-max", _float, required=True, positive=True), _CSV)
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
unwritable output file or stdout), 2 hypothesis not met, 3 numerical failure
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
    cmd = args[0] if args else "--help"
    try:
        if cmd in ("-h", "--help", "help"):
            text = _USAGE
        elif cmd == "--version":
            text = f"imhyp {__version__}\n"
        else:
            config = _parse_cli(cmd, args[1:])
            # overflow ends in a non-finite report value (exit 3), not warnings
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                report = run(config)
                text = render_report(report)
            if out := report["config"].get("out"):
                _atomic_file(out, text)
                text = report["verdict"] + "\n"
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except OSError as exc:  # a closed pipe: the flush at exit goes to devnull
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise ConfigError(f"cannot write stdout: {exc.strerror or exc}") from None
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
