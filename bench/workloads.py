"""The library workloads: inputs, set-up, one pass and its correctness gates.

Each workload is a closed loop with one caller: the next operation starts
when the previous one returns. A pass is the workload's fixed operation
list; only calls into epiflows are timed, and the gates run outside the
timed region. An operation fails when it raises or fails its gate, and a
failure never stops the run: it is counted, and the steps of that system
that depend on it are skipped. Every failure makes the run incorrect; the
one exception is the known ``cli-files`` defect (see cli_files.py).
"""
from __future__ import annotations

import time
from collections import Counter

import numpy as np

import gen

SIMPLEX_TOL = 1e-9
PINV_TOL = 1e-8
DISTANCE_RTOL = 1e-12
ABSCISSA_TOL = 1e-9
ARRIVAL_THRESHOLD = 1e-3


class OpFailed(Exception):
    """An operation raised; the steps that depend on it are skipped."""


class Pass:
    """Counts, latencies, program time and (for child processes) peak
    resident memory of one pass. ``unexpected`` counts the failures other
    than the known defect."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.program_s = 0.0
        self.peak_rss_mb = 0.0
        self.unit_ms: list[float] = []
        self.errors: Counter = Counter()
        self.quality: dict[str, list[float]] = {}

    def op(self, label, call, check=None, unit=False):
        """Time ``call()``; then run ``check(result)``, which returns a list of
        gate failures. Raises OpFailed when the call raises."""
        self.attempted += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.op_id = self.attempted
            span = tracer.begin(f"bench.{label}")
        t0 = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # counted, never fatal
            if unit:
                self.unit_ms.append((time.perf_counter() - t0) * 1e3)
            self.failed += 1
            self.unexpected += 1
            self.errors[f"{label}: {type(exc).__name__}: {str(exc)[:160]}"] += 1
            raise OpFailed(label) from exc
        finally:
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.finish(span)
                tracer.op_id = -1
            self.program_s += elapsed
        if unit:
            self.unit_ms.append(elapsed * 1e3)
        if check is not None:
            try:
                problems = check(result)
            except Exception as exc:  # a gate that cannot run is a failed gate
                problems = [f"gate raised {type(exc).__name__}: {exc}"]
            if problems:
                self.failed += 1
                self.unexpected += 1
                self.errors[f"{label}: gate: {problems[0][:160]}"] += 1
        return result

    def note(self, key, value) -> None:
        self.quality.setdefault(key, []).append(float(value))


# ------------------------------------------------------------------ gates

def simplex_problems(data: np.ndarray) -> list[str]:
    """Trajectory data (T, 4, n) must stay in [0, 1] with node sums 1."""
    worst = float(np.abs(data.sum(axis=1) - 1.0).max())
    problems = []
    if data.min() < 0.0 or data.max() > 1.0:
        problems.append(f"entries in [{data.min():.3e}, {data.max():.3e}]")
    if worst > SIMPLEX_TOL:
        problems.append(f"node sums off by {worst:.3e}")
    return problems


def reference_distances(routing: np.ndarray, source: int) -> np.ndarray:
    """Single-source -log w distances by scipy's csgraph Dijkstra.

    Every edge goes in as an explicit sparse entry: a dense matrix would
    drop the zero-cost edges of routing weight 1.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    dst, src = np.nonzero(routing > 0)
    cost = -np.log(routing[dst, src])
    graph = csr_matrix((cost, (src, dst)), shape=routing.shape)
    return dijkstra(graph, directed=True, indices=source)


def distance_problems(got: np.ndarray, routing: np.ndarray, source: int) -> list[str]:
    want = reference_distances(routing, source)
    finite = np.isfinite(want)
    if not np.array_equal(finite, np.isfinite(got)):
        return ["reachability differs from the csgraph reference"]
    gap = np.abs(got[finite] - want[finite])
    if np.any(gap > DISTANCE_RTOL * np.maximum(1.0, np.abs(want[finite]))):
        return [f"distance off the csgraph reference by {gap.max():.3e}"]
    return []


def reference_u(arrays: dict, coupling: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """The 2n x 2n exposed/infected block of the healthy-state Jacobian,
    built from the network's public coupling and gamma."""
    b, s, d = arrays["beta"], arrays["sigma"], arrays["delta"]
    return np.block([
        [coupling - np.diag(s + gamma), np.diag(b)],
        [np.diag(s), coupling - np.diag(d + gamma)],
    ])


def forecast_problems(forecast, t_now: float) -> list[str]:
    times = np.array([t for _, t, _ in forecast.predictions])
    if times.size and not np.all(np.isfinite(times)):
        return ["non-finite forecast"]
    if times.size and times.min() <= t_now:
        return [f"forecast {times.min():g} not after T_k={t_now:g}"]
    return []


def max_param_rmse(true: dict, estimate) -> float:
    p = estimate.params
    return max(float(np.sqrt(np.mean((true[k] - getattr(p, k)) ** 2))) for k in gen.RATE_NAMES)


def pinv_problems(true: dict, estimate) -> list[str]:
    """Noiseless pseudo-inverse recovery must return the true rates."""
    p = estimate.params
    worst = max(float(np.abs(true[k] - getattr(p, k)).max()) for k in gen.RATE_NAMES)
    return [] if worst <= PINV_TOL else [f"noiseless recovery off by {worst:.3e}"]


def _params(ef, arrays: dict):
    return ef.EpidemicParams(**{k: arrays[k] for k in gen.RATE_NAMES})


def _network(ef, arrays: dict, flows=None):
    return ef.build_network(arrays["node_ids"], arrays["populations"],
                            arrays["flows"] if flows is None else flows)


def _warm_up(ef, arrays: dict) -> None:
    """One call that includes the process's first threaded dense eigensolve
    (87 nodes: 174 x 174 and 261 x 261), whose BLAS thread start-up would
    otherwise land in the first timed pass."""
    ef.classify_healthy(_params(ef, arrays), _network(ef, arrays))


def forecast_op(ef, p: Pass, arrivals, sched, k: int, tau: int, ahead: int) -> float:
    """One forecast update at the k-th arrival, scored on the next ``ahead``
    arrivals; returns its RMS."""
    targets = {a.node: a.arrival_time for a in arrivals[k + 1: k + 1 + ahead]}
    t_now = arrivals[k].arrival_time

    def update():
        forecast = ef.sliding_window_predict(arrivals, sched, tau, k)
        predicted = {i: t for i, t in forecast.predicted().items() if i in targets}
        return forecast, ef.prediction_rms(predicted, targets)

    _, rms = p.op("forecast", update, lambda r: forecast_problems(r[0], t_now), unit=True)
    return rms


def _note_quality(p: Pass, window_rms, full_rms, rmse) -> None:
    if window_rms and full_rms:
        p.note("forecast_rms_reduction", 1.0 - np.mean(window_rms) / np.mean(full_rms))
    if rmse:
        p.note("param_rmse_max", max(rmse))


# ------------------------------------------------------------- workloads

class County1000:
    """A 1000-node county on a 12-period schedule of 28-day periods."""

    def __init__(self, seed: int, tiny: bool = False):
        self.n, self.steps, self.periods = (40, 150, 3) if tiny else (1000, 320, 12)
        self.period_days = 60.0 if tiny else 28.0
        self.tau, self.ahead, self.forecasts = (5, 3, 2) if tiny else (20, 10, 16)
        self.arrays = gen.gravity_county(self.n, seed)
        self.scales = gen.period_scales(seed, self.periods)
        self.warm = gen.gravity_county(87, seed)
        self.seed = seed

    def sizes(self) -> dict:
        return {"n": self.n, "T": self.steps, "P": self.periods, "systems": 1}

    def _schedule(self, ef):
        nets = [_network(ef, self.arrays, self.arrays["flows"] * s) for s in self.scales]
        return nets, ef.NetworkSchedule(periods=tuple((self.period_days, net) for net in nets))

    def setup(self, ef) -> None:
        self.ef = ef
        self.params = _params(ef, self.arrays)
        self.state0 = ef.SystemState.from_matrix(gen.seeded_state(self.n, self.arrays["origin"]))
        self._schedule(ef)
        _warm_up(ef, self.warm)

    def run_pass(self, p: Pass) -> None:
        ef, arrays = self.ef, self.arrays
        window_rms, full_rms, rmse = [], [], []
        try:
            nets, sched = p.op("build_schedule", lambda: self._schedule(ef))
            p.op("strongly_connected", lambda: ef.is_strongly_connected(nets[0]),
                 lambda ok: [] if ok else ["generated network reported not strongly connected"])
            clean = p.op("simulate", lambda: ef.simulate_discrete(
                self.state0, self.params, sched, self.steps), lambda t: simplex_problems(t.data))
            noisy = p.op("simulate_noisy", lambda: ef.simulate_discrete(
                self.state0, self.params, sched, self.steps, noise_std=0.01, rng=self.seed),
                lambda t: simplex_problems(t.data))
            p.op("estimate_pinv", lambda: ef.estimate_all(
                ef.ObservationSeries.from_trajectory(clean), "pseudo_inverse"),
                lambda e: pinv_problems(arrays, e))
            est = p.op("estimate_nnls", lambda: ef.estimate_all(
                ef.ObservationSeries.from_trajectory(noisy), "nnls"))
            rmse.append(max_param_rmse(arrays, est))
            arrivals = p.op("arrival_times", lambda: ef.arrival_times(
                clean.times, clean.x, ARRIVAL_THRESHOLD))
            origin, net0 = arrays["origin"], sched.network_at(0.0)
            dist = p.op("effective_distance", lambda: ef.effective_distance_from(
                ef.log_distance_graph(net0), origin),
                lambda d: distance_problems(d, net0.routing, origin))
            full_rms.append(p.op("full_fit", lambda: ef.full_fit_baseline(arrivals, dist)).rms)
            last = len(arrivals) - self.ahead - 1
            for k in np.linspace(self.tau, last, self.forecasts).astype(int):
                window_rms.append(forecast_op(ef, p, arrivals, sched, int(k), self.tau, self.ahead))
        except OpFailed:
            pass
        _note_quality(p, window_rms, full_rms, rmse)


class StabilityMix:
    """The five-node demo plus counties of 5, 20 and 87 nodes; half of the
    counties have beta scaled down so that their healthy state is stable."""

    BETA_SCALES = (1.0, 0.3)

    def __init__(self, seed: int, tiny: bool = False):
        sizes = (5, 12) if tiny else (5, 20, 87)
        self.t_end, self.step, self.samples = (2.0, 0.01, 3) if tiny else (60.0, 0.01, 11)
        seeds = iter(gen.sub_seeds(seed, len(sizes) * len(self.BETA_SCALES)))
        self.inputs = [gen.five_node()] + [
            gen.gravity_county(n, next(seeds), beta_scale=scale)
            for n in sizes for scale in self.BETA_SCALES
        ]
        self.warm = gen.gravity_county(87, seed)

    def sizes(self) -> dict:
        return {"n": [len(a["node_ids"]) for a in self.inputs],
                "T": int(round(self.t_end / self.step)), "P": 1, "systems": len(self.inputs)}

    def setup(self, ef) -> None:
        self.ef = ef
        self.systems = []
        for arrays in self.inputs:
            n = len(arrays["node_ids"])
            net = _network(ef, arrays)
            start = (1.0 - 1e-3) * gen.seeded_state(n, 0, 0.0) + 1e-3 * 0.25
            self.systems.append((arrays, net, ef.NetworkSchedule.static(net),
                                 _params(ef, arrays), ef.SystemState.from_matrix(start)))
        _warm_up(ef, self.warm)

    def run_pass(self, p: Pass) -> None:
        for system in self.systems:
            try:
                p.op("analyse_system", lambda: self._analyse(*system),
                     lambda r: self._problems(system, r), unit=True)
            except OpFailed:
                continue

    def _analyse(self, arrays, net, sched, params, state0):
        ef = self.ef
        report = ef.classify_healthy(params, net)
        drift = ef.eigenvalue_drift_under_perturbation(params, net, 0.1 * net.gamma)
        traj = ef.integrate(state0, params, sched, t_end=self.t_end, step=self.step)
        picks = np.linspace(0, len(traj) - 1, self.samples).astype(int)
        indicator = ef.endemic_existence_indicator(
            ef.Trajectory(times=traj.times[picks], data=traj.data[picks], schedule=sched),
            params, net)
        endemic = ef.solve_endemic(params, net) if report.classification == "Unstable" else None
        return report, drift, traj, indicator, endemic

    def _problems(self, system, result) -> list[str]:
        arrays, net = system[0], system[1]
        report, drift, traj, indicator, endemic = result
        u = reference_u(arrays, net.coupling, net.gamma)
        evals, left = np.linalg.eig(u.T)
        top = int(np.argmax(evals.real))
        problems = []
        if abs(report.s_of_U - evals.real[top]) > ABSCISSA_TOL:
            problems.append(f"s(U) {report.s_of_U:.6e} vs dense {evals.real[top]:.6e}")
        if not (np.isfinite(drift) and drift >= 0.0 and np.isfinite(indicator)):
            problems.append("non-finite drift or existence indicator")
        problems += simplex_problems(traj.data)
        # The Perron-weighted infected mass v.(e, x) obeys d/dt <= s(U) * mass,
        # so it must fall when the healthy state is stable and grow from a
        # small seed when it is unstable.
        v = np.abs(np.real(left[:, top]))
        mass = traj.data[:, 1:3, :].reshape(len(traj), -1) @ v
        grew = mass[-1] > mass[0]
        if (report.classification == "Stable" and grew) or (
                report.classification == "Unstable" and not grew):
            problems.append(f"{report.classification} but infected mass went "
                            f"{mass[0]:.3e} -> {mass[-1]:.3e}")
        if endemic is not None:
            m = endemic.state.as_matrix()
            if endemic.residual > 1e-10 or m.min() <= 0.0 or \
                    np.abs(m.sum(axis=0) - 1.0).max() > SIMPLEX_TOL:
                problems.append(f"endemic state residual {endemic.residual:.3e} or off simplex")
        return problems


LIBRARY = {
    "stability-mix": StabilityMix,
    "county-1000": County1000,
}
