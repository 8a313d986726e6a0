"""Pipeline benchmark entry point.

Usage, from the repository root::

    python3 pipebench/run.py --workload qa-short --seed 1 --seconds 10 --trace 0

Runs one workload (``ingest-long``, ``qa-short`` or ``qa-long``) on inputs
made from ``--seed`` against the package in ``src/``. With ``--trace 0`` it
prints the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` it
wraps the program's layers and prints the per-layer metrics instead. The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
stamps the environment.
"""

from __future__ import annotations

import os

# Pin the BLAS and OpenMP pools before numpy is imported: one thread, one process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("ingest-long", "qa-short", "qa-long")


def import_program():
    """Import ``ravu`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "ravu" / "__init__.py").is_file():
        raise SystemExit(f"pipebench: no program sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ravu

    if Path(ravu.__file__).resolve().parent != SRC / "ravu":
        raise SystemExit(f"pipebench: imported ravu from {ravu.__file__}, not {SRC}")
    return ravu


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        sha, _, name = line.partition(" ")
        if name == ref:
            return sha
    return "unknown"


def environment() -> dict:
    import numpy

    from ravu import accel

    return {
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "use_numba": accel.USE_NUMBA,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    declared = declared_metrics(bool(args.trace))
    from workloads import Run

    workdir_root = ROOT / ".bench_work"
    workdir_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workdir_root) as workdir:
        run = Run(args.workload, args.seed, args.seconds, bool(args.trace), Path(workdir))
        run.run()
    try:
        workdir_root.rmdir()
    except OSError:
        pass  # another run shares the directory

    measured = run.per_layer() if args.trace else run.end_to_end()
    missing = sorted(set(declared) - set(measured))
    if missing:
        raise SystemExit(f"pipebench: declared metrics not measured: {missing}")
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "ill_posed_unchecked": run.ill_posed,
        "problems": run.problems,
        "failures": run.failures,
        "rounds": run.rounds,
        "passes": run.passes,
        "reference_scale": [min(run.scales), statistics.median(run.scales), max(run.scales)],
    }
    if not args.trace:
        summary["unscaled"] = run.end_to_end(raw=True)
    print("environment", json.dumps(environment(), sort_keys=True))
    print("summary", json.dumps(summary, sort_keys=True))
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": measured[name], "unit": unit} for name, unit in declared.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
