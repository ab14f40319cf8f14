"""Run one workload of the sparse-ou replication benchmark.

    python3 bench/run.py --workload cv_path --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` beside this directory, never from an installed copy.  BLAS is
pinned to one thread before numpy loads.  The last line of standard
output is the result JSON (``correct``, ``attempted``, ``failed``,
``metrics``); the line before it records the machine and run details.
``--trace 1`` also writes every span to ``.bench_out/``.

    python3 bench/run.py --workload cv_path --write-reference 400

stores the default seed's per-replication scores from the current code in
``bench/reference/``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
WORKLOAD_NAMES = ("cv_path", "long_path", "finance_sigma")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0, help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from spans")
    p.add_argument("--write-reference", type=int, metavar="REPS", default=None,
                   help="store the default seed's scores for REPS replications and exit")
    return p.parse_args(argv)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas_threads(np) -> dict:
    """Ask numpy's bundled OpenBLAS how many threads it runs and how it was built."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is None:
                    continue
                get_threads.restype = ctypes.c_int
                out = {"library": Path(path).name, "threads": get_threads()}
                if get_config is not None:
                    get_config.restype = ctypes.c_char_p
                    out["config"] = get_config().decode()
                return out
    return {"library": "unknown", "threads": None}


def machine_record() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"), **_openblas_threads(np)},
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sparse_ou" / "__init__.py").is_file():
        print(f"error: no sparse_ou package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import sparse_ou

    if Path(sparse_ou.__file__).resolve().parent != SRC / "sparse_ou":
        print(f"error: imported sparse_ou from {sparse_ou.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import harness

    if args.write_reference is not None:
        path = harness.write_reference(args.workload, args.write_reference)
        print(f"wrote {args.write_reference} reference replications to {path}")
        return 0

    params = harness.WORKLOADS[args.workload].params
    reference = harness.load_reference(args.workload, params, args.seed)
    run = harness.run_workload(args.workload, args.seed, args.seconds, bool(args.trace), reference=reference)
    info = {"machine": machine_record(), **run.info()}
    result = run.result()
    if run.tracer is not None:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        with open(trace_path, "w") as fh:
            json.dump({"info": info, "result": result, "spans": [s.as_dict() for s in run.tracer.spans]}, fh)
        info["trace_file"] = str(trace_path.relative_to(ROOT))
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
