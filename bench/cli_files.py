"""The ``cli-files`` workload: one fresh ``epiflows`` process per command,
run one at a time, on the README's demo and on generated 87-node files.

A pass is six commands: (a) the README's continuous five-node simulation,
(b) estimation from the trajectory CSV that (a) wrote, and on the generated
county files (c) a seeded discrete simulation, (d) stability with the
endemic solve, (e) estimation from cases and (f) arrival prediction from
cases. A command fails when it exits nonzero or its outputs do not parse
with the expected row counts. Every failure makes the run incorrect except
the known defect: (c) exits 1 with ``StateLeftSimplex`` at most seeds,
because ``balance_flows`` balances only to 1e-10 and the first Euler step
pushes a healthy node's s just past 1. It is counted, not hidden.
"""
from __future__ import annotations

import os
import shutil
import sys
import time

import gen
from procs import read_json, run_child
from tracing import count_lines as _lines
from workloads import SIMPLEX_TOL

HERE = os.path.dirname(os.path.abspath(__file__))
LAUNCHER = os.path.join(HERE, "cli_launcher.py")


def is_known_defect(label: str, rc: int, message: str) -> bool:
    """Whether a failed command is the known defect, (c) exiting 1 with
    ``StateLeftSimplex``, rather than a new failure."""
    return label == "c_simulate_files" and rc == 1 and "StateLeftSimplex" in message


class CliFiles:
    """Generated input files and the six commands of one pass."""

    def __init__(self, seed: int, work: str, tiny: bool = False):
        self.work = work
        self.inputs = os.path.join(work, "inputs")
        os.makedirs(self.inputs, exist_ok=True)
        n, weeks = (12, 6) if tiny else (87, 12)
        self.files = gen.write_county_files(self.inputs, seed, n=n, weeks=weeks)
        self.t_end, self.steps = (3.0, 30) if tiny else (300.0, 80)
        self.tau, self.ahead = (3, 2) if tiny else (20, 10)
        self.commands = self._commands()

    def sizes(self) -> dict:
        f = self.files
        return {"n": [5, f["n"]], "T": [int(round(self.t_end / 0.01)), self.steps],
                "P": f["windows"], "trip_rows": f["trip_rows"], "csv_bytes": f["csv_bytes"]}

    def _out(self, label: str) -> str:
        return os.path.join(self.work, f"out-{label}")

    def _commands(self):
        f, paths = self.files, self.files["paths"]
        n = f["n"]
        county = ["--populations", paths["populations"], "--flows", paths["trips"]]
        samples = int(round(self.t_end / 0.01)) + 1

        def simulated(out, rows, nodes):
            summary = read_json(os.path.join(out, "summary.json"))
            problems = []
            if summary["samples"] != rows:
                problems.append(f"{summary['samples']} samples, expected {rows}")
            if summary["max_sum_error"] > SIMPLEX_TOL:
                problems.append(f"node sums off by {summary['max_sum_error']:.3e}")
            if _lines(os.path.join(out, "trajectory.csv")) != rows * nodes + 1:
                problems.append("trajectory.csv row count")
            return problems

        def estimated(out, nodes):
            problems = []
            if len(read_json(os.path.join(out, "estimate.json"))["nodes"]) != nodes:
                problems.append("estimate.json node count")
            if _lines(os.path.join(out, "estimate.csv")) != nodes + 1:
                problems.append("estimate.csv row count")
            return problems

        def stability(out):
            report = read_json(os.path.join(out, "stability.json"))
            problems = []
            if report["classification"] not in ("Stable", "Unstable", "Marginal"):
                problems.append(f"classification {report['classification']!r}")
            if report["classification"] == "Unstable":
                endemic = read_json(os.path.join(out, "endemic.json"))
                if endemic["residual"] > 1e-10 or len(endemic["node_ids"]) != n:
                    problems.append(f"endemic residual {endemic['residual']:.3e}")
            return problems

        def predicted(out):
            forecast = read_json(os.path.join(out, "forecast.json"))
            problems = []
            if len(forecast["arrivals"]) != f["arrivals"]:
                problems.append(f"{len(forecast['arrivals'])} arrivals, expected {f['arrivals']}")
            if not forecast["window"]["runs"]:
                problems.append("no sliding-window runs")
            if _lines(os.path.join(out, "scatter.csv")) != f["arrivals"] + 1:
                problems.append("scatter.csv row count")
            return problems

        a, b = self._out("a"), self._out("b")
        return [
            ("a_simulate_demo",
             ["simulate", "--demo", "five-node", "--mode", "continuous",
              "--t-end", repr(self.t_end), "--step", "0.01", "--out-dir", a],
             lambda: simulated(a, samples, 5)),
            ("b_estimate_observations",
             ["estimate", "--demo", "five-node", "--observations",
              os.path.join(a, "trajectory.csv"), "--out-dir", b],
             lambda: estimated(b, 5)),
            ("c_simulate_files",
             ["simulate", *county, "--params", paths["params"], "--mode", "discrete",
              "--initial", "seeded", "--seed-node", f["origin_id"],
              "--steps", str(self.steps), "--out-dir", self._out("c")],
             lambda: simulated(self._out("c"), self.steps + 1, n)),
            ("d_stability_endemic",
             ["stability", *county, "--params", paths["params"], "--endemic",
              "--out-dir", self._out("d")],
             lambda: stability(self._out("d"))),
            ("e_estimate_cases",
             ["estimate", *county, "--cases", paths["cases"], "--out-dir", self._out("e")],
             lambda: estimated(self._out("e"), n)),
            ("f_predict_cases",
             ["predict", *county, "--cases", paths["cases"], "--tau", str(self.tau),
              "--ahead", str(self.ahead), "--out-dir", self._out("f")],
             lambda: predicted(self._out("f"))),
        ]

    def setup_sample(self, deadline: float) -> float:
        """Fresh-process import of ``epiflows.cli`` plus one warm-up command,
        ``stability`` on the generated county files: it loads and balances
        the trips, builds the schedule and makes the first dense
        eigensolve."""
        report = os.path.join(self.work, "setup.json")
        paths = self.files["paths"]
        argv = [sys.executable, LAUNCHER, "--setup", report, "--", "stability",
                "--populations", paths["populations"], "--flows", paths["trips"],
                "--params", paths["params"], "--out-dir", self._out("setup")]
        rc, _, _ = run_child(argv, os.path.join(self.work, "setup.log"),
                             deadline - time.monotonic(), self.work)
        if rc != 0:
            raise RuntimeError(f"CLI set-up probe exited {rc}")
        return read_json(report)["setup_s"]

    def run_pass(self, p, deadline: float) -> None:
        """One pass into ``p``, a workloads.Pass; its peak RSS is the largest
        of the commands'."""
        for label, _, _ in self.commands:
            shutil.rmtree(self._out(label[0]), ignore_errors=True)
        for label, argv, check in self.commands:
            p.attempted += 1
            tracer = p.tracer
            cmd = [sys.executable, LAUNCHER]
            if tracer is not None:
                spans = os.path.join(self.work, f"spans-{label}.npz")
                cmd += ["--spans", spans, "--op", str(p.attempted)]
                span = tracer.begin(f"bench.{label}")
            log = os.path.join(self.work, f"{label}.log")
            rc, wall, rss = run_child(cmd + ["--"] + argv, log,
                                      deadline - time.monotonic(), self.work)
            if tracer is not None:
                tracer.finish(span)
                if os.path.exists(spans):
                    tracer.merge(spans, span)
                    os.unlink(spans)
            p.program_s += wall
            p.unit_ms.append(wall * 1e3)
            p.peak_rss_mb = max(p.peak_rss_mb, rss)
            if rc != 0:
                message = _last_line(log)
                p.failed += 1
                p.unexpected += not is_known_defect(label, rc, message)
                p.errors[f"{label}: exit {rc}: {message[:200]}"] += 1
                continue
            try:
                problems = check()
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems = [f"outputs do not parse: {type(exc).__name__}: {exc}"]
            if problems:
                p.failed += 1
                p.unexpected += 1
                p.errors[f"{label}: gate: {problems[0][:160]}"] += 1
            elif label == "f_predict_cases":
                reduction = read_json(os.path.join(self._out("f"), "forecast.json"))["rms_reduction"]
                if reduction is not None:
                    p.note("forecast_rms_reduction", reduction)


def _last_line(path: str) -> str:
    with open(path, errors="replace") as fh:
        lines = [line.strip() for line in fh if line.strip()]
    return lines[-1] if lines else ""
