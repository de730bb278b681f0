"""Spans around calls into epiflows' public functions, and the per-layer
metrics derived from them.

The tracer wraps each function in ``WRAPPED`` in every ``epiflows`` module
namespace that holds it, so calls between modules (``sliding_window_predict``
calling ``group_effective_distance``) nest as parent and child spans. A span
is its name, start, end, parent span and operation id; spans stay in memory
and are written out when the run ends. Self time is a span's duration minus
the time its child spans cover.
"""
from __future__ import annotations

import inspect
import os
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

LAYERS = ("network", "dynamics", "stability", "estimation", "effdist", "ingest", "cli")

# (layer module, function) pairs: the public functions in ``epiflows.__all__``
# plus ``spectral_abscissa``, ``read_params_csv``, ``NetworkSchedule.network_at``
# and the CLI's ``cmd_*`` handlers. Fixed here, so the metric names do not
# change when the package's exports do.
WRAPPED = (
    ("network", "build_network"),
    ("network", "balance_flows"),
    ("network", "is_strongly_connected"),
    ("network", "check_k_strong"),
    ("network", "perturb_flows_balanced"),
    ("network", "NetworkSchedule.network_at"),
    ("dynamics", "derivative"),
    ("dynamics", "integrate"),
    ("dynamics", "step_euler"),
    ("dynamics", "simulate_discrete"),
    ("dynamics", "write_trajectory_csv"),
    ("dynamics", "read_trajectory_csv"),
    ("stability", "spectral_abscissa"),
    ("stability", "u_matrix"),
    ("stability", "healthy_jacobian"),
    ("stability", "classify_healthy"),
    ("stability", "spectral_abscissa_condition"),
    ("stability", "endemic_existence_indicator"),
    ("stability", "solve_endemic"),
    ("stability", "uniqueness_condition"),
    ("stability", "eigenvalue_drift_under_perturbation"),
    ("estimation", "build_regression"),
    ("estimation", "estimate_node"),
    ("estimation", "estimate_all"),
    ("estimation", "parameter_rmse"),
    ("estimation", "write_estimate_csv"),
    ("estimation", "read_params_csv"),
    ("effdist", "log_distance_graph"),
    ("effdist", "effective_distance_from"),
    ("effdist", "group_effective_distance"),
    ("effdist", "arrival_times"),
    ("effdist", "sliding_window_predict"),
    ("effdist", "prediction_rms"),
    ("effdist", "full_fit_baseline"),
    ("ingest", "load_populations"),
    ("ingest", "load_flows"),
    ("ingest", "load_cases"),
    ("ingest", "infer_states"),
    ("cli", "cmd_simulate"),
    ("cli", "cmd_stability"),
    ("cli", "cmd_estimate"),
    ("cli", "cmd_distance"),
    ("cli", "cmd_predict"),
    ("cli", "cmd_validate_data"),
)


def span_name(layer: str, qualname: str) -> str:
    return f"{layer}.{qualname.split('.')[-1]}"


# Derived per-layer metrics: name -> (unit, better). Every run reports each
# of them; a layer a workload does not exercise reports 0.
DERIVED = {
    "cli.import_s": ("s", "lower"),
    "dynamics.rk4_steps": ("count", "lower"),
    "dynamics.rk4_step_us": ("us", "lower"),
    "dynamics.euler_steps": ("count", "lower"),
    "dynamics.euler_step_us": ("us", "lower"),
    "dynamics.operator_gb_per_s": ("GB/s", "higher"),
    "dynamics.csv_write_mb_per_s": ("MB/s", "higher"),
    "dynamics.csv_read_mb_per_s": ("MB/s", "higher"),
    "stability.spectrum_ms_per_sample": ("ms", "lower"),
    "stability.endemic_iterations": ("count", "lower"),
    "estimation.ms_per_node": ("ms", "lower"),
    "estimation.unidentifiable_ratio": ("ratio", "lower"),
    "estimation.param_rmse_max": ("rate", "lower"),
    "effdist.ms_per_distance": ("ms", "lower"),
    "effdist.degenerate_ratio": ("ratio", "lower"),
    "effdist.forecast_rms_reduction": ("ratio", "higher"),
    "network.balance_ms_per_window": ("ms", "lower"),
    "ingest.flow_rows_per_s": ("1/s", "higher"),
    "trace.overhead_ratio": ("ratio", "lower"),
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
}


def per_layer_spec() -> dict:
    """Every per-layer metric name -> (unit, better), in report order."""
    spec = {}
    for layer, qualname in WRAPPED:
        name = span_name(layer, qualname)
        spec[f"{name}.calls"] = ("count", "lower")
        spec[f"{name}.self_s"] = ("s", "lower")
    spec.update(DERIVED)
    return spec


def _bound(fn, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def count_lines(path) -> int:
    with open(path, "rb") as fh:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))


# Counters taken from a call's arguments and result, after its span closes.
def _after_integrate(c, fn, args, kwargs, result):
    c["rk4_steps"] += len(result) - 1


def _after_simulate_discrete(c, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    n = a["state0"].n
    c["euler_steps"] += a["steps"]
    c["euler_operator_bytes"] += (4 * n) ** 2 * 8 * a["steps"]


def _after_write_csv(c, fn, args, kwargs, result):
    c["csv_write_bytes"] += os.path.getsize(_bound(fn, args, kwargs)["path"])


def _after_read_csv(c, fn, args, kwargs, result):
    c["csv_read_bytes"] += os.path.getsize(_bound(fn, args, kwargs)["path"])


def _after_indicator(c, fn, args, kwargs, result):
    c["spectrum_samples"] += len(_bound(fn, args, kwargs)["trajectory"])


def _after_solve_endemic(c, fn, args, kwargs, result):
    c["endemic_iterations"] += result.iterations


def _after_estimate_all(c, fn, args, kwargs, result):
    c["estimated_nodes"] += len(result.identifiable)
    c["unidentifiable_nodes"] += int(np.count_nonzero(~result.identifiable))


def _after_forecast(c, fn, args, kwargs, result):
    c["forecasts"] += 1
    c["degenerate_forecasts"] += int(result.degenerate)


def _after_load_flows(c, fn, args, kwargs, result):
    c["flow_rows"] += count_lines(_bound(fn, args, kwargs)["path"]) - 1


AFTER = {
    "dynamics.integrate": _after_integrate,
    "dynamics.simulate_discrete": _after_simulate_discrete,
    "dynamics.write_trajectory_csv": _after_write_csv,
    "dynamics.read_trajectory_csv": _after_read_csv,
    "stability.endemic_existence_indicator": _after_indicator,
    "stability.solve_endemic": _after_solve_endemic,
    "estimation.estimate_all": _after_estimate_all,
    "effdist.sliding_window_predict": _after_forecast,
    "ingest.load_flows": _after_load_flows,
}


class Tracer:
    """In-memory span recorder that patches epiflows' public functions."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.op_id = -1
        self.counters: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.start.append(0.0)
        self.end.append(0.0)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self._stack.append(idx)
        return idx

    def begin(self, name: str) -> int:
        """Open a span from the benchmark's own code; returns its index."""
        idx = self._open(self._name_id(name))
        self.start[idx] = time.perf_counter()
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        name_id = self._name_id(name)
        after = AFTER.get(name)
        counters = self.counters
        start, end, stack, perf = self.start, self.end, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = self._open(name_id)
            start[idx] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf()
                stack.pop()
            if after is not None:
                after(counters, fn, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        """Patch every loaded ``epiflows`` namespace that holds a wrapped name."""
        import epiflows  # noqa: F401  (loads the package's modules)
        import epiflows.cli  # noqa: F401

        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "epiflows" or k.startswith("epiflows."))]
        for layer, qualname in WRAPPED:
            home = sys.modules.get(f"epiflows.{layer}")
            if home is None:
                continue
            name = span_name(layer, qualname)
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(home, cls_name, None)
                original = getattr(cls, attr, None) if cls is not None else None
                if original is None:
                    continue
                self._patch(cls, attr, self.wrap(name, original))
                continue
            original = getattr(home, qualname, None)
            if original is None:
                continue
            wrapper = self.wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------ results

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names, dtype=object),
            "start": np.frombuffer(self.start, dtype=float).copy(),
            "end": np.frombuffer(self.end, dtype=float).copy(),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
        }

    def save(self, path: str) -> None:
        a = self.arrays()
        np.savez_compressed(path, names=np.array(self.names, dtype=str),
                            start=a["start"], end=a["end"], name=a["name"],
                            parent=a["parent"], op=a["op"],
                            counter_keys=np.array(list(self.counters), dtype=str),
                            counter_values=np.array(list(self.counters.values()), dtype=float))

    def merge(self, path: str, parent_span: int) -> None:
        """Append the spans and counters a child process saved; its root
        spans become children of ``parent_span``."""
        with np.load(path) as data:
            base = len(self.start)
            ids = [self._name_id(str(n)) for n in data["names"]]
            self.start.extend(data["start"].tolist())
            self.end.extend(data["end"].tolist())
            self.name.extend(int(ids[i]) for i in data["name"])
            self.parent.extend(int(p) + base if p >= 0 else parent_span for p in data["parent"])
            self.op.extend(data["op"].tolist())
            for key, value in zip(data["counter_keys"], data["counter_values"]):
                self.counters[str(key)] += float(value)


def span_times(arrays: dict) -> tuple[np.ndarray, np.ndarray]:
    """(inclusive, self) seconds per span."""
    dur = arrays["end"] - arrays["start"]
    child = np.zeros_like(dur)
    parent = arrays["parent"]
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    return dur, dur - child


def layer_metrics(tracer: Tracer, passes: int, overhead_ratio: float,
                  quality: dict) -> dict[str, float]:
    """Per-layer metrics per traced pass, in the order of ``per_layer_spec``."""
    a = tracer.arrays()
    inclusive, own = span_times(a)
    names = list(a["names"])
    calls = np.bincount(a["name"], minlength=len(names)).astype(float)
    total_in = np.bincount(a["name"], weights=inclusive, minlength=len(names))
    total_self = np.bincount(a["name"], weights=own, minlength=len(names))

    def lookup(table, name):
        return float(table[names.index(name)]) if name in names else 0.0

    def ratio(num, den, scale=1.0):
        return scale * num / den if den > 0 else 0.0

    c = tracer.counters
    per_pass = 1.0 / max(passes, 1)
    out = {}
    for layer, qualname in WRAPPED:
        name = span_name(layer, qualname)
        out[f"{name}.calls"] = lookup(calls, name) * per_pass
        out[f"{name}.self_s"] = lookup(total_self, name) * per_pass
    distance_calls = (lookup(calls, "effdist.effective_distance_from")
                      + lookup(calls, "effdist.group_effective_distance"))
    distance_s = (lookup(total_in, "effdist.effective_distance_from")
                  + lookup(total_in, "effdist.group_effective_distance"))
    euler_self = lookup(total_self, "dynamics.simulate_discrete")
    out.update({
        "cli.import_s": ratio(c.get("cli_import_s", 0.0), c.get("cli_processes", 0.0)),
        "dynamics.rk4_steps": c.get("rk4_steps", 0.0) * per_pass,
        "dynamics.rk4_step_us": ratio(lookup(total_self, "dynamics.integrate"),
                                      c.get("rk4_steps", 0.0), 1e6),
        "dynamics.euler_steps": c.get("euler_steps", 0.0) * per_pass,
        "dynamics.euler_step_us": ratio(euler_self, c.get("euler_steps", 0.0), 1e6),
        "dynamics.operator_gb_per_s": ratio(c.get("euler_operator_bytes", 0.0), euler_self, 1e-9),
        "dynamics.csv_write_mb_per_s": ratio(c.get("csv_write_bytes", 0.0),
                                             lookup(total_self, "dynamics.write_trajectory_csv"), 1e-6),
        "dynamics.csv_read_mb_per_s": ratio(c.get("csv_read_bytes", 0.0),
                                            lookup(total_self, "dynamics.read_trajectory_csv"), 1e-6),
        "stability.spectrum_ms_per_sample": ratio(
            lookup(total_in, "stability.endemic_existence_indicator"),
            c.get("spectrum_samples", 0.0), 1e3),
        "stability.endemic_iterations": c.get("endemic_iterations", 0.0) * per_pass,
        "estimation.ms_per_node": ratio(lookup(total_in, "estimation.estimate_all"),
                                        c.get("estimated_nodes", 0.0), 1e3),
        "estimation.unidentifiable_ratio": ratio(c.get("unidentifiable_nodes", 0.0),
                                                 c.get("estimated_nodes", 0.0)),
        "estimation.param_rmse_max": quality.get("param_rmse_max", 0.0),
        "effdist.ms_per_distance": ratio(distance_s, distance_calls, 1e3),
        "effdist.degenerate_ratio": ratio(c.get("degenerate_forecasts", 0.0),
                                          c.get("forecasts", 0.0)),
        "effdist.forecast_rms_reduction": quality.get("forecast_rms_reduction", 0.0),
        "network.balance_ms_per_window": ratio(lookup(total_in, "network.balance_flows"),
                                               lookup(calls, "network.balance_flows"), 1e3),
        "ingest.flow_rows_per_s": ratio(c.get("flow_rows", 0.0),
                                        lookup(total_in, "ingest.load_flows")),
        "trace.overhead_ratio": overhead_ratio,
    })
    for layer in LAYERS:
        out[f"{layer}.self_s"] = per_pass * sum(
            float(total_self[i]) for i, n in enumerate(names) if n.startswith(layer + "."))
    return out
