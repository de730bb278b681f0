"""epiflows benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the benchmark imports ``src/``).
Inputs come from the seed alone. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``, the
end-to-end metrics with ``--trace 0`` and the per-layer metrics with
``--trace 1``. The full result, with provenance, goes to
``bench/results/<workload>-seed<N>-trace<T>.json``. See bench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from procs import read_json, run_child  # noqa: E402

WORKLOADS = ("stability-mix", "cli-files", "county-1000")
SETUP_SAMPLES = 5
BUDGET_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def tail(per_pass: list[list[float]]) -> tuple[float, str]:
    """The slowest unit operation of each pass, median over passes, and its
    label. A pass here holds at most 16 unit operations, too few for the
    highest percentile with ten samples beyond it; pooled over a run, that
    percentile would move from one system size to another as the number of
    passes changes with the machine's speed."""
    worst = [max(u) for u in per_pass if u]
    return statistics.median(worst), f"max per pass, median of {len(worst)}"


def run_library(args, work: str, deadline: float) -> dict:
    worker = os.path.join(HERE, "worker.py")
    base = [sys.executable, worker, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        base.append("--tiny")
    setup = []
    for i in range(0 if args.trace else SETUP_SAMPLES - 1):
        out = os.path.join(work, f"setup{i}.json")
        rc, _, _ = run_child(base + ["--mode", "setup", "--out", out],
                             os.path.join(work, f"setup{i}.log"),
                             deadline - time.monotonic(), ROOT)
        if rc != 0:
            raise RuntimeError(f"set-up probe exited {rc}: {_tail_of(work, f'setup{i}.log')}")
        setup.append(read_json(out)["setup_s"])
    out = os.path.join(work, "pass.json")
    rc, _, rss = run_child(base + ["--mode", "pass", "--out", out],
                           os.path.join(work, "pass.log"), deadline - time.monotonic(), ROOT)
    if rc != 0:
        raise RuntimeError(f"worker exited {rc}: {_tail_of(work, 'pass.log')}")
    result = read_json(out)
    result["setup_samples"] = setup + [result["setup_s"]]
    result["peak_rss_mb"] = rss
    spans = os.path.splitext(out)[0] + ".spans.npz"
    if os.path.exists(spans):
        result["spans_file"] = spans
    return result


def run_cli(args, work: str, deadline: float) -> dict:
    from cli_files import CliFiles
    from worker import measure

    wl = CliFiles(args.seed, work, tiny=args.tiny)
    setup = [] if args.trace else [wl.setup_sample(deadline) for _ in range(SETUP_SAMPLES)]
    spans = os.path.join(work, "pass.spans.npz")
    result = measure(lambda p: wl.run_pass(p, deadline), args.seconds, bool(args.trace),
                     spans, install=False)
    result.update(sizes=wl.sizes(), setup_samples=setup)
    if args.trace:
        result["spans_file"] = spans
    return result


def _tail_of(work: str, log: str) -> str:
    with open(os.path.join(work, log), errors="replace") as fh:
        return fh.read()[-400:]


def provenance(args, result: dict) -> dict:
    import numpy as np
    import scipy

    def git(*cmd):
        try:
            done = subprocess.run(["git", "-C", ROOT, *cmd], capture_output=True,
                                  text=True, timeout=20)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    in_git = os.path.exists(os.path.join(ROOT, ".git"))
    sha = git("rev-parse", "HEAD") if in_git else None
    status = git("status", "--porcelain", "--untracked-files=no") if in_git else None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": sha,
        "git_dirty": (bool(status) if status is not None else None),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "config": blas.get("openblas configuration"),
            "threads": result.get("blas_threads"),
            "env": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        },
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": result.get("sizes"),
    }


def end_to_end(result: dict) -> dict:
    return {
        "setup_s": statistics.median(result["setup_samples"]),
        "wall_s": statistics.median(result["pass_s"]),
        "op_p50_ms": statistics.median(ms for u in result["unit_ms"] for ms in u),
        "op_tail_ms": tail(result["unit_ms"])[0],
        "peak_rss_mb": result["peak_rss_mb"],
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-tests")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "epiflows", "__init__.py")):
        print(f"error: no epiflows sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    work = os.path.join(HERE, ".work", f"{args.workload}-{args.seed}-{os.getpid()}")
    results_dir = os.path.join(HERE, "results")
    os.makedirs(work, exist_ok=True)
    os.makedirs(results_dir, exist_ok=True)
    stem = os.path.join(results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    try:
        if args.workload == "cli-files":
            result = run_cli(args, work, deadline)
        else:
            result = run_library(args, work, deadline)
        if "spans_file" in result:
            shutil.move(result.pop("spans_file"), stem + ".spans.npz")
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not any(result["unit_ms"]):
        print("error: no unit operation ran", file=sys.stderr)
        return 1
    notes = {"op_tail_percentile": tail(result["unit_ms"])[1],
             "op_samples": sum(len(u) for u in result["unit_ms"]),
             "passes": len(result["pass_s"]),
             "ops_failed_ratio": result["failed"] / result["attempted"],
             "setup_samples": len(result["setup_samples"])}
    if args.trace:
        import tracing

        units = {k: unit for k, (unit, _) in tracing.per_layer_spec().items()}
        values = result["per_layer"]
    else:
        units, values = END_TO_END, end_to_end(result)
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    line = {
        "correct": result["unexpected"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    record = {"provenance": provenance(args, result), "metrics": metrics, "notes": notes,
              **{k: result[k] for k in result if k not in ("sizes", "per_layer")}}
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(f"{args.workload} seed {args.seed}: {notes['passes']} pass(es), "
          f"{notes['op_samples']} unit operations, tail = {notes['op_tail_percentile']}, "
          f"{result['failed']}/{result['attempted']} operations failed")
    for key, count in sorted(result["errors"].items()):
        print(f"  failure x{count}: {key}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
