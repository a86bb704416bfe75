"""In-memory span tracer around the public functions of the imhyp modules.

The program's source is not touched: ``Tracer.install`` replaces each
public function by a timing wrapper in every ``imhyp.*`` namespace that
holds it (``spectral_norm`` is also bound in ``spatial_averaging``,
``enumerate_spectrum`` in ``stationary_spectrum`` and ``driver``, ...), and
``uninstall`` puts the originals back.  Calls between public functions go
through module globals, so nested calls become child spans.  A private
helper's time counts toward the layer of the public function that calls it.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass, field

# layer name -> public functions traced in it (None: every public function)
LAYERS = {
    "lattice_spectrum": None,
    "reaction_field": None,
    "stationary_spectrum": None,
    "spatial_averaging": None,
    "dense_eig": None,
    "driver": ("run", "render_report"),
}


@dataclass
class Span:
    name: str
    layer: str
    job: str
    start: float
    parent: int | None
    end: float = 0.0
    raised: bool = False
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _rows(x) -> int:
    shape = getattr(x, "shape", None)
    return int(shape[0]) if shape else len(x)


def _probe(name, args, kwargs, out) -> dict:
    """Sizes of one call, read from its arguments and result."""
    if name == "enumerate_spectrum":
        domain = args[0] if args else kwargs["domain"]
        cutoff = args[1] if len(args) > 1 else kwargs["cutoff"]
        return {"cutoff": float(cutoff), "key": (domain, float(cutoff)),
                "distinct": len(out), "modes": int(out.total_count)}
    if name == "count_profile":
        return {"breakpoints": int(out.breakpoints.size)}
    if name in ("anhim_common_gamma", "nhim_certificate"):
        return {"witnesses": len(out.witnesses)}
    if name == "fixed_points":
        return {"fixed_points": len(out)}
    if name == "window_modes":
        return {"window_modes": len(out)}
    if name == "sap_scan":
        return {"windows": len(out)}
    if name in ("spectral_norm", "jacobi_eigenvalues", "power_spectral_norm"):
        return {"n": _rows(args[0] if args else kwargs["A"])}
    if name == "render_report":
        return {"bytes": len(out)}
    return {}


class Tracer:
    """Records one span per traced call; spans stay in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.job = ""
        self._stack: list[int] = []
        self._patched: list[tuple] = []  # (module, attribute, original)

    def _wrap(self, fn, layer):
        name = fn.__name__

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = Span(name, layer, self.job, 0.0,
                        self._stack[-1] if self._stack else None)
            self.spans.append(span)
            self._stack.append(idx)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span.raised = True
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            span.info = _probe(name, args, kwargs, out)
            return out

        return traced

    def install(self) -> int:
        """Rebind every traced function; returns how many bindings changed."""
        wrappers = {}
        for layer, names in LAYERS.items():
            mod = sys.modules[f"imhyp.{layer}"]
            for attr, fn in inspect.getmembers(mod, inspect.isfunction):
                if fn.__module__ != mod.__name__ or attr.startswith("_"):
                    continue
                if names is not None and attr not in names:
                    continue
                wrappers[id(fn)] = (fn, self._wrap(fn, layer))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "imhyp" or modname.startswith("imhyp.")):
                continue
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, val))
        return len(self._patched)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, child)]
