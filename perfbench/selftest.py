"""Self-test of the benchmark: its checks catch wrong outputs, its counts repeat.

    python3 perfbench/selftest.py

On every workload it checks that
- each kind of corrupted output file (a perturbed number, a dropped row, a
  cut file, a wrong footer or verdict) fails the output check;
- a run that corrupts its outputs reports failed > 0 and correct false;
- traced runs at two seeds both pass (each requires its traced calls to
  give identical counts), give the same work counts as each other, report
  every layer, and show verify.* time only on verify-default.
It prints one line per check and exits 1 if any fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
from checks import VERIFY_CRITERIA, OutputError, check_output

COUNT_UNITS = {"count", "B", "cells", "steps", "rows"}


def _drop_last_row(text: str) -> str:
    lines = text.splitlines()
    last = max(i for i, line in enumerate(lines) if not line.startswith("#"))
    return "\n".join(lines[:last] + lines[last + 1:]) + "\n"


def _cut(text: str) -> str:
    return text[: len(text) // 2]


def _perturb_first_brute(text: str) -> str:
    lines = text.splitlines()
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    column = lines[header].split(",").index("energy_brute")
    cells = lines[header + 1].split(",")
    cells[column] = repr(float(cells[column]) * (1 + 1e-6))
    lines[header + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _footer(key: str, value: str):
    def edit(text: str) -> str:
        lines = text.splitlines()
        i = next(i for i, line in enumerate(lines) if line.startswith("# footer: "))
        fields = [f"{key}={value}" if f.startswith(key + "=") else f
                  for f in lines[i].split(" ")]
        lines[i] = " ".join(fields)
        return "\n".join(lines) + "\n"

    return edit


CORRUPTIONS = {
    "trajectory": {"brute energy off by 1e-6": _perturb_first_brute},
    "wavefunction": {"footer norm 1.001": _footer("quadrature_norm", "1.001")},
    "verify": {"footer passed 9": _footer("passed", "9")},
}
GENERIC = {"last data row dropped": _drop_last_row, "file cut in half": _cut}


def corrupted_files_fail(workload: str, work: Path) -> list[str]:
    argv = run.WORKLOADS[workload](3)
    op = run.run_op(argv, work, traced=False, corrupt=False)
    if "error" in op:
        return [f"clean output failed: {op['error']}"]
    text = (work / "output.csv").read_text()
    problems = []
    target = work / "corrupted.csv"
    for label, edit in {**GENERIC, **CORRUPTIONS[argv[0]]}.items():
        target.write_text(edit(text))
        try:
            check_output(argv, target)
            problems.append(f"{label}: not caught")
        except OutputError:
            pass
    return problems


def bench(workload: str, seed: int, trace: int, *extra: str) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), *extra],
        capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"run.py exited {proc.returncode}: {proc.stderr[-500:]}")
    info, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(info), json.loads(result)


def corrupted_run_fails(workload: str) -> list[str]:
    _, result = bench(workload, 5, 0, "--corrupt")
    if result["failed"] > 0 and not result["correct"]:
        return []
    return [f"corrupted run reported failed={result['failed']} correct={result['correct']}"]


def traces_agree(workload: str, units: dict[str, str]) -> list[str]:
    problems = []
    (info, first), (_, second) = bench(workload, 2, 1), bench(workload, 7, 1)
    for result in (first, second):
        if not result["correct"] or result["failed"]:
            problems.append(f"traced run not correct: {result}")
    values = [{k: m["value"] for k, m in r["metrics"].items()} for r in (first, second)]
    # Output bytes follow the digits of the seed's label; run.py already
    # requires every count, bytes included, to repeat within one run.
    for name, unit in units.items():
        if name == "cli.output_bytes":
            continue
        if unit in COUNT_UNITS and values[0][name] != values[1][name]:
            problems.append(f"{name} differs: {values[0][name]} vs {values[1][name]}")
    for layer in run.LAYERS:
        if f"{layer}.calls" not in values[0]:
            problems.append(f"layer {layer} missing")
    verify_time = [values[0][f"verify.{c}.busy_s"] for c in VERIFY_CRITERIA]
    verify_time.append(values[0]["verify.busy_s"])
    if workload == "verify-default" and not all(v > 0 for v in verify_time):
        problems.append("a verify criterion shows no time on verify-default")
    if workload != "verify-default" and any(verify_time):
        problems.append("verify time outside verify-default")
    shares = {k: {s: round(v, 3) for s, v in share.items()}
              for k, share in info["layer_share_of_traced_run_s"].items()}
    print(f"  {workload} layer shares of traced run_s: {shares}")
    return problems


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    failures = 0
    work = Path(tempfile.mkdtemp(prefix="_work-", dir=run.BENCH))
    try:
        checks = (("corrupted files fail", lambda w: corrupted_files_fail(w, work)),
                  ("corrupted run fails", corrupted_run_fails),
                  ("traced runs agree", lambda w: traces_agree(w, units)))
        for workload in run.WORKLOADS:
            for label, check in checks:
                problems = check(workload)
                failures += bool(problems)
                print(f"{'FAIL' if problems else 'ok  '}  {workload}: {label}"
                      + (f": {'; '.join(problems)}" if problems else ""))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
