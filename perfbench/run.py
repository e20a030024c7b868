"""Benchmark of the oscilab command line: cold runs, checked outputs, layer trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each operation is a fresh `oscilab` process, because every CLI call pays for
the import and for rebuilding the operator cache, and users pay both on every
call. One operation runs at a time (a closed loop with a single client) until
S seconds have passed. The child process (child.py) times `import
oscilab.cli` and `oscilab.cli.main(argv)`, which writes a temporary file;
checks.py then checks that file, so a wrong answer counts as a failure and
never as a speed-up.

The benchmark and its children run on one CPU. Right before and right after
each operation the benchmark times a fixed reference computation on that
CPU, and end-to-end times are reported relative to it: seconds on a host as
fast as the one the benchmark was set up on (see reference() and
end_to_end()). A shared host's CPU speed drifts by tens of percent, and the
drift cancels in that ratio.

With --trace 0 the result holds the end-to-end metrics over the operations
that passed: medians, and the largest peak RSS. With --trace 1 traced and
untraced operations alternate; the result holds the per-layer metrics of
the traced ones (see tracer.py), the tracing overhead, and the import
breakdown from one `python -X importtime` run.

The last line of stdout is the result JSON named in BENCHMARK.json. The line
before it records the inputs, the machine, the per-metric sample counts and
tail percentiles, and the failure reasons.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from checks import VERIFY_CRITERIA, OutputError, check_output
from child import IMPORT_MARKER
from tracer import COMPUTED, LAYERS, summarize

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SOURCES = ROOT / "src"
CHILD = BENCH / "child.py"
CHILD_TIMEOUT_S = 120
# One BLAS thread: the benchmark and its children share one CPU (see main).
BLAS_THREADS = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                              "MKL_NUM_THREADS"), "1")
# Typical time of reference() on the host the benchmark was set up on, an
# Intel Xeon Sapphire Rapids KVM guest with 2 vCPUs, where its medians over
# 60 s runs ranged from 0.12 to 0.17 s. End-to-end times are seconds on a
# host as fast as that one (see end_to_end).
REFERENCE_S = 0.140

TWO_PI = 2.0 * math.pi
GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))
# |chi| = 20 resolves to n_max 551 (trajectory) and 589 (wavefunction).
CHI_MODULUS = 20.0


def _label_args(seed: int) -> list[str]:
    """chi = 20 e^(i theta) with theta = seed x golden angle (mod 2 pi).

    The seed sets only the phase, so |chi|, the truncation and the amount of
    work stay fixed; seed 0 gives theta = 0.
    """
    theta = (seed * GOLDEN_ANGLE) % TWO_PI
    return ["--chi-re", repr(CHI_MODULUS * math.cos(theta)),
            "--chi-im", repr(CHI_MODULUS * math.sin(theta))]


WORKLOADS = {
    # 629 samples, 8 dense matvecs each at n_max 551: brute-force expectations.
    "traj-large": lambda seed: ["trajectory", *_label_args(seed),
                                "--t-end", repr(TWO_PI), "--dt", "0.01"],
    # 9 slices x 2001 points at n_max 589: eigenfunction table and rendering.
    "packet-large": lambda seed: ["wavefunction", *_label_args(seed),
                                  "--t-end", repr(TWO_PI), "--dt", repr(math.pi / 4)],
    # The 10-criterion battery: ~19k small states plus the RK4 oracle.
    "verify-default": lambda seed: ["verify", "--seed", str(seed)],
}

# Per-layer metric names that differ from the span they are read from.
ALIASES = {
    "fock.statevector.count": "fock.StateVector.calls",
    "wavefunction.wavesample.count": "wavefunction.WaveSample.calls",
}


def reference() -> float:
    """Seconds this process takes for a fixed computation.

    The speed of a shared host's CPU drifts by tens of percent, both from
    second to second and over minutes. The benchmark runs this computation
    on the same CPU right before and right after each operation, and reports
    the operation's times relative to it (see end_to_end). It mixes what
    oscilab spends its time on, in four parts: small numpy calls, float
    formatting, complex matrix-vector products on a matrix larger than the
    L2 cache, and plain interpreter arithmetic. Per-call data showed each
    part tracking the host's speed, and the sum tracking it best. It depends
    on nothing in oscilab. numpy is imported here, after main() has limited
    BLAS to one thread.
    """
    import numpy

    start = time.perf_counter()
    small = numpy.arange(64.0)
    total = 0.0
    for i in range(8_000):
        total += float((small * i).sum())
    ",".join(repr(total * 1e-3 + i) for i in range(25_000))
    matrix = numpy.ones((552, 552), dtype=complex) / 552
    vector = numpy.ones(552, dtype=complex)
    for _ in range(300):
        vector = matrix @ vector
    count = 0
    for i in range(250_000):
        count += i * i % 7
    return time.perf_counter() - start


def child_env() -> dict[str, str]:
    """Child environment: the checkout's sources and one BLAS thread.

    Bytecode is written, as an installed package has it: the first child
    compiles the sources once and later children do not time the compiler.
    """
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SOURCES)
    env.update(BLAS_THREADS)
    return env


def _spawn(command: list[str], work: Path) -> subprocess.CompletedProcess:
    return subprocess.run(command, env=child_env(), cwd=work, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)


def _read_record(path: Path, proc: subprocess.CompletedProcess) -> dict:
    if not path.is_file():
        lines = proc.stderr.strip().splitlines() or ["no output"]
        raise OutputError(f"child exited {proc.returncode}: {lines[-1]}")
    record = json.loads(path.read_text())
    if not Path(record["module"]).resolve().is_relative_to(SOURCES):
        raise OutputError(f"imported oscilab from {record['module']}, not {SOURCES}")
    return record


def _corrupt(path: Path) -> None:
    """Alter the second cell of the middle data row, as a wrong answer would."""
    lines = path.read_text().split("\n")
    data = [i for i, line in enumerate(lines) if line and not line.startswith("#")][1:]
    i = data[len(data) // 2]
    cells = lines[i].split(",")
    cells[1] = "false" if cells[1] == "true" else repr(float(cells[1]) * 1.001 + 0.001)
    lines[i] = ",".join(cells)
    path.write_text("\n".join(lines))


def run_op(argv: list[str], work: Path, traced: bool, corrupt: bool) -> dict:
    """One cold oscilab call; its timings, output size and error if any."""
    output, result, spans = work / "output.csv", work / "result.json", work / "spans.json"
    for path in (output, result, spans):
        path.unlink(missing_ok=True)
    command = [sys.executable, str(CHILD), str(result), str(spans) if traced else "-",
               *argv, "--output", str(output)]
    op = {"traced": traced}
    try:
        proc = _spawn(command, work)
        record = _read_record(result, proc)
        op.update(setup_s=record["setup_s"], run_s=record["run_s"],
                  rss_mib=record["peak_rss_kib"] / 1024.0)
        if record["exit"] != 0:
            raise OutputError(f"oscilab exited {record['exit']}: {proc.stderr.strip()}")
        text = output.read_text()
        op["rows"] = sum(1 for line in text.splitlines()
                         if line and not line.startswith("#")) - 1
        op["bytes"] = len(text.encode())
        if corrupt:
            _corrupt(output)
        check_output(argv, output)
        if traced:
            op["layers"] = summarize(json.loads(spans.read_text()))
    except subprocess.TimeoutExpired:
        op["error"] = f"timed out after {CHILD_TIMEOUT_S} s"
    except (OSError, OutputError) as exc:
        op["error"] = str(exc)
    if "error" in op:
        sys.stderr.write(f"perfbench: operation failed: {op['error'][:500]}\n")
    return op


def import_breakdown(work: Path) -> tuple[dict[str, float], float]:
    """Self times of the modules `import oscilab.cli` loads, by top package.

    Returns the import.* metrics and the import time the same process
    measured around the import, which the rows should account for.
    """
    result = work / "imports.json"
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", str(CHILD), "--imports", str(result)],
        env=child_env(), cwd=work, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, timeout=CHILD_TIMEOUT_S,
    )
    record = _read_record(result, proc)
    totals = dict.fromkeys(("numpy", "scipy", "oscilab", "other"), 0.0)
    for line in proc.stderr.split(IMPORT_MARKER, 1)[1].splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        package = fields[2].strip().split(".")[0]
        totals[package if package in totals else "other"] += int(fields[0]) / 1e6
    metrics = {f"import.{name}_s": value for name, value in totals.items()}
    metrics["import.total_s"] = sum(totals.values())
    return metrics, record["setup_s"]


def environment(work: Path) -> dict:
    """Machine, versions and BLAS set-up.

    The child also imports oscilab once before any timed call, which writes
    its bytecode and warms the file cache.
    """
    info = {"nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
            "ram_gib": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30}
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            models = [line.split(":", 1)[1].strip() for line in cpuinfo
                      if line.startswith("model name")]
        info["cpu"] = models[0] if models else None
        caches = {}
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level, kind, size = ((index / f).read_text().strip()
                                 for f in ("level", "type", "size"))
            caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
        info["caches"] = caches
    except OSError as exc:
        info["cpu_info_error"] = str(exc)
    result = work / "env.json"
    try:
        proc = _spawn([sys.executable, str(CHILD), "--env", str(result)], work)
        info.update(_read_record(result, proc))
    except (OSError, OutputError, subprocess.TimeoutExpired) as exc:
        info["environment_error"] = str(exc)
    info["blas_threads_requested"] = child_env()["OPENBLAS_NUM_THREADS"]
    return info


def tail(values: list[float]) -> dict:
    """Minimum, median, and the highest percentile with at least ten samples
    beyond it."""
    ordered = sorted(values)
    summary = {"n": len(values), "min": ordered[0], "median": statistics.median(values)}
    if len(values) > 10:
        p = math.floor(100 * (len(values) - 10) / len(values))
        summary[f"p{p}"] = ordered[max(1, math.ceil(p * len(values) / 100)) - 1]
    return summary


def end_to_end(ops: list[dict]) -> dict[str, list[float]]:
    """Per-operation series. Times are in seconds at the reference speed.

    A call's import time is divided by the reference measured just before
    the call, its run time by the mean of the references just before and
    just after it, and both are multiplied by REFERENCE_S. The host's speed
    changes move the call and its neighbouring references alike, so the
    ratio varies far less from run to run than the wall time. The wall times
    and the references themselves are reported too (as wall_* and
    reference_s on the info line).
    """
    series = {name: [] for name in ("setup_s", "run_s", "total_s", "rows_per_s",
                                    "peak_rss_mb", "wall_setup_s", "wall_run_s",
                                    "reference_s")}
    for op in ops:
        setup = op["setup_s"] * REFERENCE_S / op["ref_before_s"]
        run = op["run_s"] * REFERENCE_S / ((op["ref_before_s"] + op["ref_after_s"]) / 2)
        series["setup_s"].append(setup)
        series["run_s"].append(run)
        series["total_s"].append(setup + run)
        if "rows" in op:
            series["rows_per_s"].append(op["rows"] / run)
        series["peak_rss_mb"].append(op["rss_mib"])
        series["wall_setup_s"].append(op["setup_s"])
        series["wall_run_s"].append(op["run_s"])
        series["reference_s"].append(op["ref_before_s"])
    return series


def _counts(op: dict) -> dict:
    layers = op["layers"]
    counts = {k: v for k, v in layers.items() if not k.endswith("_s")}
    counts.update({"cli.rows": op["rows"], "cli.output_bytes": op["bytes"]})
    return counts


def per_layer(ops: list[dict], work: Path) -> tuple[dict[str, float], dict]:
    traced = [op for op in ops if op["traced"]]
    plain = [op for op in ops if not op["traced"]]
    counts = [_counts(op) for op in traced]
    values = {f"verify.{name}.busy_s": 0.0 for name in VERIFY_CRITERIA}
    for key in traced[0]["layers"]:
        values[key] = statistics.median(op["layers"][key] for op in traced)
    values.update(counts[0])
    for name, source in ALIASES.items():
        values[name] = values[source]
    trace_run = statistics.median(op["run_s"] for op in traced)
    values["trace.run_s"] = trace_run
    values["trace.overhead_s"] = trace_run - statistics.median(op["run_s"] for op in plain)
    imports, import_setup = import_breakdown(work)
    values.update(imports)
    info = {
        "traced_operations": len(traced),
        "counts_repeat": all(c == counts[0] for c in counts),
        "computed_counts": [key for key, _ in COMPUTED.values()]
                           + ["cli.rows", "cli.output_bytes"],
        "layer_share_of_traced_run_s": {
            layer: {kind: values[f"{layer}.{kind}_s"] / trace_run
                    for kind in ("busy", "self")} for layer in LAYERS},
        "import_rows_over_import_time": imports["import.total_s"] / import_setup,
        "import_rows_over_median_setup_s":
            imports["import.total_s"] / statistics.median(op["setup_s"] for op in ops),
    }
    return values, info


def measure(argv: list[str], seconds: float, trace: bool, corrupt: bool,
            work: Path) -> list[dict]:
    """Closed loop, one client: the next call starts when the last has ended.

    reference() runs once before the first call and again after each call,
    so every call has one reference measured just before it and one just
    after. A call starts only if a call of median length still ends within
    `seconds`, so runs do not overshoot by a whole call. With tracing,
    traced and untraced calls alternate, at least two traced (to compare
    their counts) and one untraced (for the overhead).
    """
    ops: list[dict] = []
    lengths: list[float] = []
    before = reference()
    start = time.perf_counter()
    while (not ops or (trace and len(ops) < 3)
           or time.perf_counter() + statistics.median(lengths) <= start + seconds):
        began = time.perf_counter()
        ops.append(run_op(argv, work, trace and len(ops) % 2 == 0, corrupt))
        after = reference()
        ops[-1].update(ref_before_s=before, ref_after_s=after)
        before = after
        lengths.append(time.perf_counter() - began)
    return ops


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--corrupt", action="store_true",
                        help="alter every output before its check (self-test)")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SOURCES / "oscilab" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no oscilab sources under {SOURCES}\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    argv = WORKLOADS[args.workload](args.seed)
    work = Path(tempfile.mkdtemp(prefix="_work-", dir=BENCH))
    try:
        machine = environment(work)
        # One CPU for the benchmark and the children it starts, so that each
        # call and the reference computations around it run on the same CPU,
        # and one BLAS thread to match it.
        machine["pinned_cpu"] = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {machine["pinned_cpu"]})
        os.environ.update(BLAS_THREADS)
        reference()  # warm-up: numpy's import and first allocations
        ops = measure(argv, args.seconds, bool(args.trace), args.corrupt, work)
        passed = [op for op in ops if "error" not in op]
        timed = passed or [op for op in ops if "run_s" in op]
        if not timed:
            sys.stderr.write("perfbench: no operation produced timings\n")
            return 1
        info = {"workload": args.workload, "seed": args.seed, "argv": argv,
                "operations": len(ops), "failed_fraction": 1 - len(passed) / len(ops),
                "failures": [op["error"][:200] for op in ops if "error" in op][:3],
                "machine": machine, "reference_scale_s": REFERENCE_S}
        correct = len(passed) == len(ops)
        if args.trace:
            if {op["traced"] for op in passed} != {True, False}:
                sys.stderr.write("perfbench: too few passing operations to trace\n")
                return 1
            values, trace_info = per_layer(passed, work)
            info.update(trace_info)
            correct = correct and trace_info["counts_repeat"]
            wanted = spec["per_layer"]
        else:
            series = end_to_end(timed)
            info["timings"] = {name: tail(v) for name, v in series.items()}
            values = {name: statistics.median(v) for name, v in series.items()}
            # Peak RSS of one call is bimodal (e.g. 90 or 102 MiB on packet-large),
            # so a median flips between the modes from run to run; the largest
            # peak of the run is steady.
            values["peak_rss_mb"] = max(series["peak_rss_mb"])
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(info))
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": len(ops) - len(passed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
