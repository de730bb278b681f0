"""Reproduce the committed baseline: every workload on ten seeds untraced,
plus one traced run each, summarised into bench/BASELINE.json.

    python3 bench/baseline.py [--out bench/BASELINE.json]

Run from the root of a source checkout, with nothing else running. Each
end-to-end metric is reported as the median over the seeds, its quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance between
the quartiles as a share of the median. Takes about 17 minutes on 2 cores.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200, check=True)
    line = json.loads(done.stdout.strip().splitlines()[-1])
    with open(os.path.join(HERE, "results", f"{workload}-seed{seed}-trace{trace}.json")) as fh:
        return line, json.load(fh)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=os.path.join(HERE, "BASELINE.json"))
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    summary = {"run_seconds": spec["run_seconds"], "seeds": list(SEEDS), "workloads": {}}
    for w in (x["name"] for x in spec["workloads"]):
        values: dict[str, list[float]] = {}
        failed = attempted = 0
        for seed in SEEDS:
            line, record = run_once(w, seed, spec["run_seconds"], 0)
            summary.setdefault("provenance", record["provenance"])
            failed += line["failed"]
            attempted += line["attempted"]
            for name, metric in line["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(w, seed, {k: round(v["value"], 4) for k, v in line["metrics"].items()},
                  f"failed {line['failed']}/{line['attempted']}", flush=True)
        end_to_end = {}
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, _, q3 = statistics.quantiles(v, n=4)
            median = statistics.median(v)
            end_to_end[m["name"]] = {"unit": m["unit"], "median": median, "q1": q1, "q3": q3,
                                     "spread": (q3 - q1) / median, "bound": m["bound"],
                                     "values": v}
            print(f"  {m['name']:12s} median {median:.4f} spread {(q3 - q1) / median:.4f}"
                  f" bound {m['bound']}", flush=True)
        line, record = run_once(w, SEEDS[0], spec["run_seconds"], 1)
        summary["workloads"][w] = {
            "end_to_end": end_to_end,
            "ops_failed": failed,
            "ops_attempted": attempted,
            "per_layer_seed": SEEDS[0],
            "per_layer": {k: v["value"] for k, v in line["metrics"].items()},
            "sizes": record["provenance"]["sizes"],
        }
    summary["provenance"] = {k: v for k, v in summary["provenance"].items()
                             if k not in ("seed", "trace", "sizes", "workload")}
    with open(args.out, "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
