"""Every package name that perfbench's traced run reads still exists.

`perfbench/run.py --trace 1` wraps each public function defined in a layer
module, and the constructors of `tracer.CONSTRUCTORS`, then reads each
per-function metric by name: once a named function is gone, it stops with
a KeyError. This test reads those names without running perfbench, with
`ast` and `json`, from:
- the `BENCHMARK.json` per-layer metrics `<layer>.<function>.calls` and
  `<layer>.<function>.self_s`;
- the keys of `tracer.COMPUTED` and the classes of `tracer.CONSTRUCTORS`;
- the targets of `run.py`'s `ALIASES`.
"""

import ast
import importlib
import inspect
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def assigned(path: Path, name: str) -> ast.expr:
    """The value of the module-level assignment `name = ...` in path."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name for target in node.targets
        ):
            return node.value
    raise LookupError(f"{path.name} assigns no {name}")


def read_names() -> tuple[tuple, tuple, dict[str, set[str]]]:
    """The tracer's LAYERS and CONSTRUCTORS, and per source the "layer.name"
    of every function or class it reads."""
    tracer = PERFBENCH / "tracer.py"
    layers = ast.literal_eval(assigned(tracer, "LAYERS"))
    constructors = ast.literal_eval(assigned(tracer, "CONSTRUCTORS"))
    metrics = set()
    for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]:
        parts = metric["name"].split(".")
        # a criterion's span is "verify.<criterion name>", never an identifier
        if (len(parts) == 3 and parts[0] in layers and parts[1].isidentifier()
                and parts[2] in ("calls", "self_s")):
            metrics.add(f"{parts[0]}.{parts[1]}")
    aliases = ast.literal_eval(assigned(PERFBENCH / "run.py", "ALIASES"))
    return layers, constructors, {
        "BENCHMARK.json per-layer metrics": metrics,
        "tracer.COMPUTED": {
            ast.literal_eval(key) for key in assigned(tracer, "COMPUTED").keys
        },
        "tracer.CONSTRUCTORS": {f"{layer}.{cls}" for layer, cls in constructors},
        "run.ALIASES targets": {target.rsplit(".", 1)[0] for target in aliases.values()},
    }


def wrapped_names(layers, constructors) -> set[str]:
    """What `Tracer.install` wraps: "layer.function" for each public function
    defined in a layer module, and "layer.Class" for each constructor class."""
    names = set()
    for layer in layers:
        module = importlib.import_module(f"oscilab.{layer}")
        names |= {
            f"{layer}.{attr}" for attr, value in vars(module).items()
            if not attr.startswith("_") and inspect.isfunction(value)
            and value.__module__ == module.__name__
        }
    for layer, cls in constructors:
        module = importlib.import_module(f"oscilab.{layer}")
        if inspect.isclass(getattr(module, cls, None)):
            names.add(f"{layer}.{cls}")
    return names


def test_every_name_perfbench_reads_is_one_its_tracer_wraps():
    layers, constructors, sources = read_names()
    assert all(sources.values()), sources  # each source names something
    wrapped = wrapped_names(layers, constructors)
    missing = [
        f"{source}: {name}"
        for source, names in sources.items() for name in sorted(names - wrapped)
    ]
    assert not missing, "\n".join(
        ["perfbench reads names the package no longer has:"] + missing
    )
