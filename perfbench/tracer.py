"""Span tracer attached to an imported oscilab package from outside it.

`Tracer.install` wraps every public function of each layer module, and the
StateVector and WaveSample constructors. The package binds names with
`from .x import y`, so each wrapper replaces the function at every module
that holds it, not only where it is defined. Spans (name, start, end,
parent) stay in memory until `dump` writes them out after the timed call.

`summarize` turns spans into per-layer numbers. A span's self time is its
duration minus that of its direct child spans, so the self times of all
layers add up to the outermost span. A layer's busy time counts only its
spans that have no ancestor in the same layer, so nested calls within one
layer are not counted twice.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

LAYERS = ("fock", "coherent", "observables", "dynamics", "wavefunction", "verify", "cli")
CONSTRUCTORS = (("fock", "StateVector"), ("wavefunction", "WaveSample"))


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _matvec_bytes(args, kwargs):
    """8 dense complex (n+1)x(n+1) matrices read per averages_bruteforce call."""
    n = _arg(args, kwargs, 0, "state").n_max + 1
    return 8 * n * n * 16


def _table_cells(args, kwargs):
    """(n_max + 1) levels times the number of positions."""
    positions = _arg(args, kwargs, 1, "x")
    return (int(_arg(args, kwargs, 0, "n_max")) + 1) * int(getattr(positions, "size", 1))


def _rk4_steps(args, kwargs):
    return int(_arg(args, kwargs, 3, "steps"))


# Work counts computed from call arguments, not measured.
COMPUTED = {
    "observables.averages_bruteforce": ("observables.matvec_bytes", _matvec_bytes),
    "wavefunction.eigenfunction_table": ("wavefunction.table_cells", _table_cells),
    "verify.rk4_coefficients": ("verify.rk4_steps", _rk4_steps),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.work: dict[str, int] = {key: 0 for key, _ in COMPUTED.values()}
        self.wrapped: list[str] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock, work = self.spans, self._stack, time.perf_counter, self.work
        counter = COMPUTED.get(name)
        # A criterion's span takes the name of the criterion it reports.
        criterion = name.startswith("verify.check_")
        self.wrapped.append(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                work[counter[0]] += counter[1](args, kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if criterion:
                span[0] = "verify." + result.name
            return result

        return traced

    def install(self) -> None:
        """Wrap the layers of the already imported oscilab package."""
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "oscilab"]
        for layer in LAYERS:
            module = sys.modules["oscilab." + layer]
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                wrapper = self.wrap(f"{layer}.{attr}", fn)
                for site in modules:
                    for key, value in list(vars(site).items()):
                        if value is fn:
                            setattr(site, key, wrapper)
        for layer, cls_name in CONSTRUCTORS:
            cls = getattr(sys.modules["oscilab." + layer], cls_name)
            cls.__init__ = self.wrap(f"{layer}.{cls_name}", cls.__init__)

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "work": self.work, "wrapped": self.wrapped},
                      handle)


def summarize(trace: dict) -> dict[str, float]:
    """Per-layer and per-function calls, busy_s and self_s, plus work counts.

    Every layer and every wrapped function appears, with zeros when unused.
    """
    spans = trace["spans"]
    out: dict[str, float] = {}
    for name in list(LAYERS) + trace["wrapped"]:
        out.update({f"{name}.calls": 0, f"{name}.busy_s": 0.0, f"{name}.self_s": 0.0})
    out.update(trace["work"])
    bit = {layer: 1 << i for i, layer in enumerate(LAYERS)}
    layers = [name.split(".", 1)[0] for name, _, _, _ in spans]
    children = [0.0] * len(spans)
    enclosing = [0] * len(spans)  # bit set of the layers of all ancestors
    for i, (_, start, end, parent) in enumerate(spans):
        if parent >= 0:
            children[parent] += end - start
            enclosing[i] = enclosing[parent] | bit[layers[parent]]
    for i, (name, start, end, _) in enumerate(spans):
        duration, layer = end - start, layers[i]
        own = duration - children[i]
        for key in (layer, name):
            out[f"{key}.calls"] = out.get(f"{key}.calls", 0) + 1
            out[f"{key}.self_s"] = out.get(f"{key}.self_s", 0.0) + own
        if not enclosing[i] & bit[layer]:
            out[f"{layer}.busy_s"] += duration
        out[f"{name}.busy_s"] = out.get(f"{name}.busy_s", 0.0) + duration
    out["trace.spans"] = len(spans)
    return out
