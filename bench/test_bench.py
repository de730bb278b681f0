"""Self-tests of the benchmark: deterministic generators, balanced and
strongly connected inputs, every workload at a tiny size, every metric of
BENCHMARK.json emitted, and a refusal to run without the sources.

    python3 -m pytest -q bench/test_bench.py
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gen  # noqa: E402
import tracing  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int, cwd: str = ROOT, seed: int = 3):
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _strongly_connected(flows: np.ndarray) -> bool:
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    count, _ = connected_components(csr_matrix(flows > 0), directed=True, connection="strong")
    return count == 1


def test_generators_are_deterministic(tmp_path):
    for n in (5, 87):
        a, b = gen.gravity_county(n, 11), gen.gravity_county(n, 11)
        for key, value in a.items():
            assert np.array_equal(np.asarray(value), np.asarray(b[key])), key
    assert not np.array_equal(gen.gravity_county(20, 1)["flows"], gen.gravity_county(20, 2)["flows"])
    assert gen.sub_seeds(7, 4) == gen.sub_seeds(7, 4)
    assert np.array_equal(gen.period_scales(7, 12), gen.period_scales(7, 12))

    infos = []
    for name in ("one", "two"):
        os.makedirs(tmp_path / name)
        infos.append(gen.write_county_files(str(tmp_path / name), 5, n=12, weeks=4))
    for key in ("populations", "params", "trips", "cases"):
        one = (tmp_path / "one" / f"{key}.csv").read_bytes()
        assert one == (tmp_path / "two" / f"{key}.csv").read_bytes(), key
    assert infos[0]["trip_rows"] == infos[1]["trip_rows"] > 0


@pytest.mark.parametrize("arrays", [gen.five_node(), gen.gravity_county(87, 3),
                                    gen.gravity_county(1000, 3)],
                         ids=["five-node", "county-87", "county-1000"])
def test_networks_are_balanced_and_strongly_connected(arrays):
    flows = arrays["flows"]
    outflow, inflow = flows.sum(axis=0), flows.sum(axis=1)
    assert np.abs(outflow - inflow).max() <= 1e-12 * outflow.max()
    assert np.all(np.diag(flows) == 0) and np.all(flows >= 0)
    assert _strongly_connected(flows)
    for scale in gen.period_scales(3, 12):
        scaled = flows * scale
        assert np.abs(scaled.sum(axis=0) - scaled.sum(axis=1)).max() <= 1e-12 * scaled.max() * len(flows)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_runs_tiny_and_emits_every_metric(workload, trace):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr[-2000:]
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["attempted"] >= 1
    failures = [ln for ln in done.stdout.splitlines() if ln.startswith("  failure")]
    assert len(failures) == (1 if line["failed"] else 0), done.stdout
    if failures:  # only the known defect: file-based discrete simulate exits 1
        assert "c_simulate_files: exit 1" in failures[0] and "StateLeftSimplex" in failures[0]
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(line["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert np.isfinite(got["value"])
    if not trace:
        assert all(line["metrics"][m["name"]]["value"] > 0 for m in wanted)


def test_any_failure_but_the_known_defect_makes_the_run_incorrect():
    from cli_files import is_known_defect
    from workloads import OpFailed, Pass

    p = Pass()
    with pytest.raises(OpFailed):
        p.op("raises", lambda: 1 / 0)
    p.op("wrong", lambda: 1, lambda result: ["wrong answer"])
    p.op("right", lambda: 1, lambda result: [])
    assert (p.attempted, p.failed, p.unexpected) == (3, 2, 2)
    message = "error: StateLeftSimplex: state left the simplex"
    assert is_known_defect("c_simulate_files", 1, message)
    assert not is_known_defect("c_simulate_files", 2, message)
    assert not is_known_defect("c_simulate_files", 1, "error: ValueError")
    assert not is_known_defect("e_estimate_cases", 1, message)


def test_benchmark_json_matches_the_code():
    import run

    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    spec = tracing.per_layer_spec()
    assert [m["name"] for m in SPEC["per_layer"]] == list(spec)
    assert all((m["unit"], m["better"]) == spec[m["name"]] for m in SPEC["per_layer"])
    assert sorted(WORKLOADS) == sorted(run.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    done = _run(WORKLOADS[0], 0, cwd=str(tmp_path))
    assert done.returncode != 0
    assert "metrics" not in done.stdout
