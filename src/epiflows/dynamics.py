"""Networked SEIRS-with-flows dynamics: continuous (RK4) and discrete (Euler).

States are per-node fractions (s, e, x, r) that stay on the unit simplex as
long as the network's flows are balanced. Every compartment travels through
the same coupling matrix Phi; the other terms are per-node rates around the
cycle s -> e -> x -> r -> s, of which the infection rate beta_i x_i is the
only nonlinearity. So the rates of the (4, n) state Z are
dZ = Z (Phi - diag(gamma))^T + C (R * Z): one n x n product per evaluation,
and O(n^2) memory.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from ._csvio import indices, numbers, read_columns
from .errors import (
    DimensionMismatch,
    InvalidState,
    StateLeftSimplex,
    StepTooLarge,
    ValidationError,
)
from .network import FlowNetwork, NetworkSchedule, as_schedule

SIMPLEX_SUM_TOL = 1e-9
CLAMP_EPS = 1e-12
BLOWUP_EPS = 1e-6


@dataclass(frozen=True)
class EpidemicParams:
    """Per-node rates: immunity loss, infection, incubation, healing.

    With ``strict`` (the default) every rate must be strictly positive;
    estimation results may carry zeros and use ``strict=False``.
    """

    alpha: np.ndarray
    beta: np.ndarray
    sigma: np.ndarray
    delta: np.ndarray
    strict: bool = True

    def __post_init__(self):
        for name in ("alpha", "beta", "sigma", "delta"):
            arr = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arr)
        shapes = {self.alpha.shape, self.beta.shape, self.sigma.shape, self.delta.shape}
        if len(shapes) != 1 or self.alpha.ndim != 1:
            raise DimensionMismatch(f"rate vectors must share one 1-d shape, got {shapes}")
        stacked = np.stack([self.alpha, self.beta, self.sigma, self.delta])
        if not np.isfinite(stacked).all():
            raise ValidationError("rates must be finite")
        if self.strict and np.any(stacked <= 0):
            raise ValidationError("rates must be strictly positive")
        if not self.strict and np.any(stacked < 0):
            raise ValidationError("rates must be nonnegative")

    @property
    def n(self) -> int:
        return self.alpha.shape[0]


@dataclass(frozen=True)
class SystemState:
    """Per-node compartment fractions; each node's four entries sum to 1."""

    s: np.ndarray
    e: np.ndarray
    x: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        for name in ("s", "e", "x", "r"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        shapes = {self.s.shape, self.e.shape, self.x.shape, self.r.shape}
        if len(shapes) != 1 or self.s.ndim != 1:
            raise DimensionMismatch(f"state vectors must share one 1-d shape, got {shapes}")
        m = self.as_matrix()
        if np.any(m < 0) or np.any(m > 1):
            raise InvalidState("state entries must lie in [0, 1]")
        sums = m.sum(axis=0)
        worst = float(np.abs(sums - 1).max(initial=0.0))
        if worst > SIMPLEX_SUM_TOL:
            raise InvalidState(f"per-node sums deviate from 1 by {worst:.3e}")

    @property
    def n(self) -> int:
        return self.s.shape[0]

    def as_matrix(self) -> np.ndarray:
        """Rows s, e, x, r; one column per node."""
        return np.stack([self.s, self.e, self.x, self.r])

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "SystemState":
        return cls(s=m[0], e=m[1], x=m[2], r=m[3])

    @classmethod
    def healthy(cls, n: int) -> "SystemState":
        return cls(s=np.ones(n), e=np.zeros(n), x=np.zeros(n), r=np.zeros(n))


@dataclass(frozen=True)
class Trajectory:
    """Time-stamped states; ``data[k]`` is the (4, n) state matrix at times[k]."""

    times: np.ndarray
    data: np.ndarray
    schedule: NetworkSchedule

    def __post_init__(self):
        if not (np.isfinite(self.times).all() and np.all(np.diff(self.times) > 0)):
            raise ValidationError("trajectory times must be finite and strictly increasing")
        if self.data.shape[:2] != (len(self.times), 4):
            raise DimensionMismatch(
                f"data shape {self.data.shape} does not match {len(self.times)} times"
            )

    def __len__(self) -> int:
        return len(self.times)

    def state_at(self, k: int) -> SystemState:
        return SystemState.from_matrix(self.data[k])

    @property
    def final_state(self) -> SystemState:
        return self.state_at(len(self) - 1)

    @property
    def x(self) -> np.ndarray:
        """Infection fractions, shape (T, n)."""
        return self.data[:, 2, :]


def _check_dims(state: SystemState, params: EpidemicParams, network: FlowNetwork):
    if not (state.n == params.n == network.n):
        raise DimensionMismatch(
            f"state ({state.n}), params ({params.n}) and network ({network.n}) "
            "must share one node count"
        )


def derivative(
    state: SystemState, params: EpidemicParams, network: FlowNetwork
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Continuous-time rates of change (ds, de, dx, dr).

    For balanced flows the four components sum to zero at every node.
    """
    _check_dims(state, params, network)
    ds, de, dx, dr = _Kernel(params, network)(state.as_matrix())
    return ds, de, dx, dr


# C: each compartment's exit flux enters the next one of s -> e -> x -> r -> s
_CYCLE = np.array(
    [[-1.0, 0.0, 0.0, 1.0], [1.0, -1.0, 0.0, 0.0], [0.0, 1.0, -1.0, 0.0], [0.0, 0.0, 1.0, -1.0]]
)


class _Kernel:
    """Rates of the (4, n) state Z = [s; e; x; r]: dZ = Z A^T + C (R * Z).

    A = Phi - diag(gamma) moves every compartment over the network. Row c
    of R holds compartment c's per-node exit rate (beta x, sigma, delta,
    alpha); row 0 is refreshed from the state on each call. C hands each
    exit flux on around the cycle, so the local terms cancel per node. Holds
    one n x n matrix and 4 x n rates, never a 4n x 4n operator.
    """

    def __init__(self, params: EpidemicParams, network: FlowNetwork):
        self.a_t = np.ascontiguousarray((network.coupling - np.diag(network.gamma)).T)
        self.beta = params.beta
        self.rates = np.stack([params.beta, params.sigma, params.delta, params.alpha])

    def __call__(self, z: np.ndarray) -> np.ndarray:
        self.rates[0] = self.beta * z[2]
        return z @ self.a_t + _CYCLE @ (self.rates * z)

    def left_product(self, w: np.ndarray, x: np.ndarray) -> np.ndarray:
        """w^T (M - Q) for a (4, n) weight w, with the rates frozen at each row
        of infection fractions x (T, n): W A + (C^T W) * R, shape (T, 4, n)."""
        rates = np.repeat(self.rates[None], len(x), axis=0)
        rates[:, 0] = self.beta * x
        return w @ self.a_t.T + (_CYCLE.T @ w) * rates


def _settle_onto_simplex(z: np.ndarray, t: float) -> np.ndarray:
    """Clamp rounding-scale boundary violations and renormalize node sums.

    Only excursions within CLAMP_EPS of the boundary are absorbed; entries
    below -BLOWUP_EPS raise StepTooLarge, and anything in between is left to
    trip the trajectory validation rather than being masked.
    """
    low, high = z.min(), z.max()
    if low < -BLOWUP_EPS:
        raise StepTooLarge(
            f"state entry {low:.3e} at t={t:g}; reduce the step size"
        )
    if (-CLAMP_EPS <= low < 0.0) or (1.0 < high <= 1.0 + CLAMP_EPS):
        z = np.clip(z, 0.0, 1.0)
        z = z / z.sum(axis=0)
    return z


def integrate(
    state0: SystemState,
    params: EpidemicParams,
    schedule,
    t_end: float,
    step: float = 0.01,
) -> Trajectory:
    """Classic fixed-step RK4 from t=0 to t_end.

    The network is piecewise constant per schedule period and steps are
    truncated at period boundaries, so no step straddles a network change.
    Stored states are clamped onto the simplex (see _settle_onto_simplex).
    """
    schedule = as_schedule(schedule)
    _check_dims(state0, params, schedule.periods[0][1])
    if not 0.0 < step < math.inf:
        raise ValidationError("step must be finite and positive")
    if not 0.0 <= t_end < math.inf:
        raise ValidationError("t_end must be finite and nonnegative")
    if t_end > schedule.total_duration:
        raise ValidationError(
            f"schedule covers [0, {schedule.total_duration}] but t_end={t_end}"
        )

    n = state0.n
    periods, start = [], 0.0  # (network, step end times, step sizes) per period
    for duration, net in schedule.periods:
        if start >= t_end:
            break
        end = min(start + duration, t_end)
        tol = 1e-12 * max(1.0, end)
        if start < end - tol:
            # times start + k*step, then a last step onto the period end exactly
            grid = start + step * np.arange(1, math.ceil((end - start) / step) + 1)
            grid = np.append(grid[grid < end - tol], end)
            sizes = np.diff(grid, prepend=start)
            sizes[:-1] = step
            periods.append((net, grid, sizes))
        start = end

    times = np.concatenate([[0.0], *(grid for _, grid, _ in periods)])
    data = np.empty((len(times), 4, n))
    data[0] = state0.as_matrix()
    z, k = data[0], 0
    for net, grid, sizes in periods:
        kernel = _Kernel(params, net)
        for t, h in zip(grid.tolist(), sizes.tolist()):
            k1 = kernel(z)
            k2 = kernel(z + 0.5 * h * k1)
            k3 = kernel(z + 0.5 * h * k2)
            k4 = kernel(z + h * k3)
            z = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            z = _settle_onto_simplex(z, t)
            k += 1
            data[k] = z

    _validate_trajectory_data(data)
    return Trajectory(times=times, data=data, schedule=schedule)


def _validate_trajectory_data(data: np.ndarray):
    if data.min() < 0 or data.max() > 1:
        raise InvalidState("trajectory left [0, 1]")
    worst = float(np.abs(data.sum(axis=1) - 1).max())
    if worst > SIMPLEX_SUM_TOL:
        raise InvalidState(f"trajectory per-node sums deviate from 1 by {worst:.3e}")


def _euler_step_raw(z: np.ndarray, kernel: _Kernel, h: float, t: float) -> np.ndarray:
    z = z + h * kernel(z)
    low, high = z.min(), z.max()
    if low < -CLAMP_EPS or high > 1.0 + CLAMP_EPS:
        raise StateLeftSimplex(
            f"Euler step at t={t:g} produced entries in [{low:.3e}, {high:.3e}]; "
            "h is too large for these rates"
        )
    return np.clip(z, 0.0, 1.0)


def step_euler(
    state: SystemState, params: EpidemicParams, network: FlowNetwork, h: float
) -> SystemState:
    """One explicit Euler update; per-node sums are preserved up to rounding."""
    _check_dims(state, params, network)
    if not 0.0 < h < math.inf:
        raise ValidationError("h must be finite and positive")
    return SystemState.from_matrix(
        _euler_step_raw(state.as_matrix(), _Kernel(params, network), h, 0.0)
    )


def simulate_discrete(
    state0: SystemState,
    params: EpidemicParams,
    schedule,
    steps: int,
    h: float = 1.0,
    noise_std: float = 0.0,
    rng=None,
) -> Trajectory:
    """Repeated Euler stepping with the network in force at each sample time.

    Gaussian observation noise (clamped to [0, 1], per-node renormalized) is
    applied to the recorded states only; the propagated state stays exact.
    """
    schedule = as_schedule(schedule)
    _check_dims(state0, params, schedule.periods[0][1])
    if steps < 0:
        raise ValidationError("steps must be nonnegative")
    if not 0.0 < h < math.inf:
        raise ValidationError("h must be finite and positive")
    if not 0.0 <= noise_std < math.inf:
        raise ValidationError("noise_std must be finite and nonnegative")

    n = state0.n
    truth = np.empty((steps + 1, 4, n))
    truth[0] = state0.as_matrix()
    z = truth[0]
    kernel = None
    current_net = None
    for k in range(steps):
        t = k * h
        net = schedule.network_at(t)
        if net is not current_net:
            kernel = _Kernel(params, net)
            current_net = net
        z = _euler_step_raw(z, kernel, h, t)
        truth[k + 1] = z

    if noise_std > 0.0:
        if rng is None or isinstance(rng, (int, np.integer)):
            rng = np.random.default_rng(rng)
        observed = np.clip(truth + rng.normal(0.0, noise_std, truth.shape), 0.0, 1.0)
        observed /= observed.sum(axis=1, keepdims=True)
    else:
        observed = truth

    times = np.arange(steps + 1, dtype=float) * h
    _validate_trajectory_data(observed)
    return Trajectory(times=times, data=observed, schedule=schedule)


def _csv_cell(text: str) -> str:
    """text as csv.writer writes it as one cell of a row of several."""
    buffer = io.StringIO()
    csv.writer(buffer).writerow([text, ""])
    return buffer.getvalue()[: -len(",\r\n")]


def write_trajectory_csv(path, trajectory: Trajectory) -> None:
    """CSV with columns time, node_id, s, e, x, r (one row per node and time).

    The bytes are those of csv.writer with a repr of every number (repr
    never needs quoting), built column-wise.
    """
    node_ids = [_csv_cell(nid) for nid in trajectory.schedule.node_ids]
    data = np.asarray(trajectory.data, dtype=float)
    times = map(repr, np.asarray(trajectory.times, dtype=float).tolist())
    columns = [chain.from_iterable(repeat(t, len(node_ids)) for t in times), node_ids * len(data)]
    columns += [map(repr, data[:, c, :].ravel().tolist()) for c in range(4)]
    with open(path, "w", newline="") as fh:
        fh.write("time,node_id,s,e,x,r\r\n")
        fh.writelines(map("{},{},{},{},{},{}\r\n".format, *columns))


def read_trajectory_csv(path) -> tuple[np.ndarray, tuple[str, ...], np.ndarray]:
    """Inverse of write_trajectory_csv: (times, node_ids, data (T, 4, n)).

    Raises ParseError naming ``path:line`` for a cell that is not a finite
    number.
    """
    names = ("time", "node_id", "s", "e", "x", "r")
    time_cells, node_cells, *value_cells = read_columns(
        path, names, ValidationError(f"trajectory CSV needs columns {sorted(names)}")
    )
    if not node_cells:
        raise ValidationError("trajectory CSV is empty")
    stamps, *values = numbers(path, [time_cells, *value_cells], ("time", "s", "e", "x", "r"))
    node_ids = tuple(dict.fromkeys(node_cells))
    node = indices(node_cells, {nid: i for i, nid in enumerate(node_ids)})
    times, slot = np.unique(stamps, return_inverse=True)
    data = np.full((len(times), 4, len(node_ids)), np.nan)
    data[slot, :, node] = np.stack(values, axis=1)
    if math.isnan(data.min()):  # a node/time pair with no row
        raise ValidationError("trajectory CSV is missing node/time rows")
    return times, node_ids, data
