"""Record the benchmark into a BENCH_*.json file, or diff two such files.

    python tests/bench_record.py record BENCH_34.json
    python tests/bench_record.py diff BENCH_parent.json BENCH_34.json

`record` copies the tracked files, as the working tree holds them, to a
temporary directory, and there runs the command of BENCHMARK.json
(`perfbench/run.py`, unchanged) once per workload at `--trace 0` and once at
`--trace 1`, one run at a time, each for BENCHMARK.json's `run_seconds` at
seed 0, so that any two files are recorded alike, and from a tree like the
fresh checkout that the benchmark itself runs in: no caches or untracked
files beside it. It writes one JSON file. Each run keeps the two JSON lines
that run.py prints: the one with the argv, the machine, the tail
percentiles and the failures (the imported module's path made relative to
the copy), and the result line with the metrics. The file adds the
golden corpus fingerprint of `tests/golden/regenerate.py`, since the SIMD
level that moves output bytes can move times too.

`diff` prints, for each workload and metric of the change's file, the
parent's value, the change's and the relative change. An end-to-end metric
is printed next to its BENCHMARK.json bound, and marked "WORSE" when it is
worse than the parent's by more than that bound. Exit code 1 when any is.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 0


def fingerprint() -> str:
    sys.path.insert(0, str(ROOT / "src"))
    path = ROOT / "tests" / "golden" / "regenerate.py"
    spec = importlib.util.spec_from_file_location("golden_regenerate", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.fingerprint()


def copy_tracked(tree: Path) -> None:
    """Copy each file git tracks, as the working tree holds it, into tree."""
    listed = subprocess.run(["git", "ls-files", "-z"], cwd=ROOT, capture_output=True,
                            check=True).stdout
    for name in filter(None, listed.split(b"\0")):
        source, target = ROOT / os.fsdecode(name), tree / os.fsdecode(name)
        if source.is_file():  # a tracked file deleted in the working tree is left out
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


def run(tree: Path, workload: str, trace: int) -> dict:
    """One benchmark run in the copy `tree`: its two JSON lines, parsed."""
    argv = [*SPEC["command"], "--workload", workload, "--seed", str(SEED),
            "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    result = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if result.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {result.returncode}:\n{result.stderr}")
    info, metrics = map(json.loads, result.stdout.splitlines()[-2:])
    # the imported module relative to the copy, so files from two copies
    # differ only where their runs do
    machine = info["machine"]
    machine["module"] = Path(machine["module"]).relative_to(tree).as_posix()
    return {"workload": workload, "trace": trace, "info": info, "result": metrics}


def record(path: Path) -> int:
    runs = []
    with tempfile.TemporaryDirectory(prefix="oscilab-bench-") as tmp:
        tree = Path(tmp).resolve()
        copy_tracked(tree)
        for workload in SPEC["workloads"]:
            for trace in (0, 1):
                runs.append(run(tree, workload["name"], trace))
                print(f"{workload['name']} --trace {trace}: done", file=sys.stderr)
    document = {"fingerprint": fingerprint(), "seconds": SPEC["run_seconds"],
                "seed": SEED, "runs": runs}
    path.write_text(json.dumps(document, indent=1) + "\n")
    return 0


def diff(parent_path: Path, change_path: Path) -> int:
    bounds = {m["name"]: m for m in SPEC["end_to_end"]}
    parent = {(r["workload"], r["trace"]): r
              for r in json.loads(parent_path.read_text())["runs"]}
    worse = 0
    print(f"{'workload':15} {'metric':40} {'parent':>12} {'change':>12} "
          f"{'rel':>8} {'bound':>6}")
    for r in json.loads(change_path.read_text())["runs"]:
        before = parent.get((r["workload"], r["trace"]))
        if before is None:
            continue
        for name, metric in r["result"]["metrics"].items():
            old = before["result"]["metrics"][name]["value"]
            new = metric["value"]
            rel = (new - old) / old if old else 0.0
            line = f"{r['workload']:15} {name:40} {old:12.6g} {new:12.6g} {rel:+8.1%}"
            if name in bounds:
                sign = 1.0 if bounds[name]["better"] == "lower" else -1.0
                over = sign * rel > bounds[name]["bound"]
                worse += over
                line += f" {bounds[name]['bound']:6.0%}" + ("  WORSE" if over else "")
            print(line)
    return 1 if worse else 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    rec = sub.add_parser("record", help="run every workload and write the file")
    rec.add_argument("output", type=Path)
    dif = sub.add_parser("diff", help="parent -> change for each metric")
    dif.add_argument("parent", type=Path)
    dif.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    if args.mode == "record":
        return record(args.output)
    return diff(args.parent, args.change)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
