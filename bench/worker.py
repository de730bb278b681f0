"""One fresh process of a library workload: set-up, then passes.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                            --mode setup|pass --out RESULT.json [--tiny]

Set-up time runs from the first ``import epiflows`` to the end of one
warm-up call; numpy is already loaded, because the input generator needs
it. In ``pass`` mode the process then measures passes (see ``measure``).
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import gen  # noqa: E402,F401  (loads numpy before the set-up clock starts)
import tracing  # noqa: E402
import workloads  # noqa: E402


def blas_threads() -> int | None:
    """Threads of the OpenBLAS that numpy loaded, read through ctypes."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()
                           and line.split()[-1].startswith("/")})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def run_passes(run_pass, seconds: float, tracer=None) -> list[workloads.Pass]:
    """Passes until ``seconds`` are used up: another pass starts only if the
    last one would still end in time, and at least one runs."""
    passes = []
    t_start = time.perf_counter()
    while True:
        p = workloads.Pass(tracer)
        t0 = time.perf_counter()
        run_pass(p)
        passes.append(p)
        if time.perf_counter() - t_start + (time.perf_counter() - t0) > seconds:
            return passes


def measure(run_pass, seconds: float, trace: bool, spans_path: str,
            install: bool = True) -> dict:
    """Untraced passes; or, when tracing, one untraced reference pass and
    then traced passes, whose per-layer metrics and spans are kept. The
    tracing overhead is the traced median pass over the reference pass."""
    if not trace:
        return summarise(run_passes(run_pass, seconds))
    reference_s = run_passes(run_pass, 0.0)[0].program_s
    tracer = tracing.Tracer()
    if install:
        tracer.install()
    try:
        passes = run_passes(run_pass, seconds, tracer)
    finally:
        tracer.uninstall()
    result = summarise(passes)
    traced_s = statistics.median(p.program_s for p in passes)
    result["per_layer"] = tracing.layer_metrics(
        tracer, len(passes), traced_s / reference_s - 1.0, result["quality"])
    result["spans"] = len(tracer.start)
    tracer.save(spans_path)
    return result


def summarise(passes: list[workloads.Pass]) -> dict:
    errors: dict[str, int] = {}
    quality: dict[str, list[float]] = {}
    for p in passes:
        for key, count in p.errors.items():
            errors[key] = errors.get(key, 0) + count
        for key, values in p.quality.items():
            quality.setdefault(key, []).extend(values)
    return {
        "pass_s": [p.program_s for p in passes],
        "unit_ms": [p.unit_ms for p in passes],
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "unexpected": sum(p.unexpected for p in passes),
        "peak_rss_mb": max(p.peak_rss_mb for p in passes),
        "errors": errors,
        "quality": {k: sum(v) / len(v) for k, v in quality.items()},
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.LIBRARY))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("setup", "pass"), required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()

    workload = workloads.LIBRARY[args.workload](args.seed, tiny=args.tiny)
    t0 = time.perf_counter()
    import epiflows

    workload.setup(epiflows)
    result = {"setup_s": time.perf_counter() - t0, "blas_threads": blas_threads(),
              "sizes": workload.sizes()}
    if args.mode == "pass":
        result.update(measure(workload.run_pass, args.seconds, bool(args.trace),
                              os.path.splitext(args.out)[0] + ".spans.npz"))
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
