"""One oscilab CLI call in a fresh process, timed from inside.

    python3 child.py RESULT SPANS|- ARGV...   time `import oscilab.cli` and main(ARGV)
    python3 child.py --env RESULT             record versions and the BLAS set-up
    python3 -X importtime child.py --imports RESULT
                                              import oscilab.cli after a marker line

RESULT receives one JSON object. With a SPANS path the call is traced (see
tracer.py) and the spans are written there after the timed call. Nothing
but `sys` and `time` is imported before the timed import.
"""

import sys
import time

IMPORT_MARKER = "perfbench: importing oscilab.cli"


def _write(path, record) -> None:
    import json

    with open(path, "w") as handle:
        json.dump(record, handle)


def timed_call(result_path, spans_path, argv) -> None:
    start = time.perf_counter()
    import oscilab.cli

    setup_s = time.perf_counter() - start
    tracer = None
    if spans_path != "-":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    code = oscilab.cli.main(argv)
    run_s = time.perf_counter() - start
    import resource

    if tracer is not None:
        tracer.dump(spans_path)
    _write(result_path, {
        "exit": code,
        "setup_s": setup_s,
        "run_s": run_s,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "module": oscilab.cli.__file__,
    })


def _blas_threads():
    """Threads of the BLAS library numpy loaded, asked through its own API."""
    import ctypes

    with open("/proc/self/maps") as maps:
        libraries = {line.split()[-1] for line in maps if "blas" in line.lower()}
    for path in sorted(libraries):
        library = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            if hasattr(library, symbol):
                getter = getattr(library, symbol)
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return path.rsplit("/", 1)[-1], getter()
    return None, None


def environment(result_path) -> None:
    import platform

    import numpy
    import scipy

    import oscilab.cli

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy before 1.26 prints its config instead
        blas_build = None
    library, threads = _blas_threads()
    _write(result_path, {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_build,
        "blas_library": library,
        "blas_threads": threads,
        "module": oscilab.cli.__file__,
    })


def imports(result_path) -> None:
    sys.stderr.write(IMPORT_MARKER + "\n")
    sys.stderr.flush()
    start = time.perf_counter()
    import oscilab.cli

    setup_s = time.perf_counter() - start
    _write(result_path, {"setup_s": setup_s, "module": oscilab.cli.__file__})


if __name__ == "__main__":
    if sys.argv[1] == "--env":
        environment(sys.argv[2])
    elif sys.argv[1] == "--imports":
        imports(sys.argv[2])
    else:
        timed_call(sys.argv[1], sys.argv[2], sys.argv[3:])
