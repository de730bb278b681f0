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

import math
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidState,
    ParseError,
    StateLeftSimplex,
    StepTooLarge,
    ValidationError,
)
from .network import FlowNetwork, NetworkSchedule, _transport_t, as_schedule

SIMPLEX_SUM_TOL = 1e-9
CLAMP_EPS = 1e-12
BLOWUP_EPS = 1e-6
_BLOCK = 64  # RK4 steps between simplex checks
_TWO = np.array(2.0)  # RK4 scalars are 0-d arrays: see integrate


def _coerce_vectors(obj, names: tuple[str, ...], what: str) -> np.ndarray:
    """Set the named fields of the frozen dataclass obj to float arrays, and
    return their stack once they share one 1-d shape."""
    arrays = [np.asarray(getattr(obj, name), dtype=float) for name in names]
    for name, arr in zip(names, arrays):
        object.__setattr__(obj, name, arr)
    shapes = {arr.shape for arr in arrays}
    if len(shapes) != 1 or arrays[0].ndim != 1:
        raise DimensionMismatch(f"{what} vectors must share one 1-d shape, got {shapes}")
    return np.stack(arrays)


def _check_simplex(data: np.ndarray, what: str) -> None:
    """Raise InvalidState unless each node's four fractions in data, shaped
    (..., 4, n), lie in [0, 1] and sum to 1 within SIMPLEX_SUM_TOL."""
    if not (data.min(initial=0.0) >= 0 and data.max(initial=1.0) <= 1):  # NaN fails both
        raise InvalidState(f"{what} entries must lie in [0, 1]")
    worst = float(np.abs(data.sum(axis=-2) - 1).max(initial=0.0))
    if worst > SIMPLEX_SUM_TOL:
        raise InvalidState(f"{what} per-node sums deviate from 1 by {worst:.3e}")


@dataclass(frozen=True)
class EpidemicParams:
    """Per-node rates: immunity loss, infection, incubation, healing.

    With ``strict`` (the default) every rate must be strictly positive.
    Estimation results use ``strict=False``, which takes any finite rates:
    an unconstrained fit may be zero or negative.
    """

    alpha: np.ndarray
    beta: np.ndarray
    sigma: np.ndarray
    delta: np.ndarray
    strict: bool = True

    def __post_init__(self):
        stacked = _coerce_vectors(self, ("alpha", "beta", "sigma", "delta"), "rate")
        if not np.isfinite(stacked).all():
            raise ValidationError("rates must be finite")
        if self.strict and np.any(stacked <= 0):
            raise ValidationError("rates must be strictly positive")

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
        _check_simplex(_coerce_vectors(self, ("s", "e", "x", "r"), "state"), "state")

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
    one n x n matrix and three 4 x n arrays, never a 4n x 4n operator; A^T
    is written into ``a_t`` when it is given, so that a run reuses one
    buffer across its periods.
    """

    def __init__(self, params: EpidemicParams, network: FlowNetwork,
                 a_t: np.ndarray | None = None):
        self.a_t = _transport_t(network, a_t)
        self.beta = params.beta
        self.rates = np.stack([params.beta, params.sigma, params.delta, params.alpha])
        self.infection, self.flux, self.cycled = self.rates[0], *np.empty((2, *self.rates.shape))

    def __call__(self, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Rates at z, written into ``out`` (4, n) when it is given."""
        np.multiply(self.beta, z[2], self.infection)
        out = np.empty_like(self.rates) if out is None else out
        # np.dot runs the gemm of @ with less overhead per call: stability-mix
        # took 12 % less wall time than with np.matmul, with the same bits
        np.dot(z, self.a_t, out)
        np.dot(_CYCLE, np.multiply(self.rates, z, self.flux), self.cycled)
        return np.add(out, self.cycled, out)


def _settle_onto_simplex(z: np.ndarray, t: float) -> np.ndarray:
    """Clamp rounding-scale boundary violations and renormalize node sums.

    Only excursions within CLAMP_EPS of the boundary are absorbed; a NaN
    entry raises StateLeftSimplex, entries below -BLOWUP_EPS raise
    StepTooLarge, and anything in between is left to trip the trajectory
    validation rather than being masked.
    """
    low, high = z.min(), z.max()
    if math.isnan(low):  # min and max carry any NaN
        raise StateLeftSimplex(f"RK4 step at t={t:g} produced NaN")
    if low < -BLOWUP_EPS:
        raise StepTooLarge(
            f"state entry {low:.3e} at t={t:g}; reduce the step size"
        )
    if (-CLAMP_EPS <= low < 0.0) or (1.0 < high <= 1.0 + CLAMP_EPS):
        z = np.clip(z, 0.0, 1.0)
        z = z / z.sum(axis=0)
    return z


def _rk4_step(kernel: _Kernel, z, out, half, h, sixth, k1, k2, k3, k4):
    """out = z + (h/6)(k1 + 2 k2 + 2 k3 + k4), operation by operation, with
    out as each stage's input and k1..k4 as the stage buffers; half, h and
    sixth are h/2, h and h/6 as 0-d arrays."""
    kernel(z, k1)
    kernel(np.add(z, np.multiply(k1, half, out), out), k2)
    kernel(np.add(z, np.multiply(k2, half, out), out), k3)
    kernel(np.add(z, np.multiply(k3, h, out), out), k4)
    np.add(k1, np.multiply(k2, _TWO, k2), k2)
    np.add(k2, np.multiply(k3, _TWO, k3), k2)
    np.add(z, np.multiply(np.add(k2, k4, k2), sixth, k2), out)


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
    Steps run in place, and states are clamped onto the simplex (see
    _settle_onto_simplex) by one check per _BLOCK steps run with warnings
    off. A block with an entry outside [0, 1] or NaN is replayed from its
    first state with a check per step, which gives the clamps, errors and
    warnings of a per-step loop.
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
    for (_, net), period_end in zip(schedule.periods, schedule._ends):
        if start >= t_end:
            break
        end = min(period_end, t_end)
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
    stages, k, a_t = tuple(np.empty((4, 4, n))), 0, np.empty((n, n))
    for net, grid, sizes in periods:
        kernel, sizes = _Kernel(params, net, a_t), sizes.tolist()
        # a ufunc converts a Python float scalar on every call; 0-d arrays
        # made stability-mix 8 % faster in wall time, with the same bits
        scales = {h: tuple(map(np.array, (0.5 * h, h, h / 6.0))) for h in set(sizes)}
        steps = [(t, scales[h]) for t, h in zip(grid.tolist(), sizes)]
        for first in range(0, len(steps), _BLOCK):
            block = steps[first : first + _BLOCK]
            with np.errstate(all="ignore"):
                for i, (_, scale) in enumerate(block, k):
                    _rk4_step(kernel, data[i], data[i + 1], *scale, *stages)
            stored = data[k + 1 : k + 1 + len(block)]
            if not (stored.min() >= 0.0 and stored.max() <= 1.0):
                for i, (t, scale) in enumerate(block, k):
                    _rk4_step(kernel, data[i], data[i + 1], *scale, *stages)
                    data[i + 1] = _settle_onto_simplex(data[i + 1], t)
            k += len(block)

    _check_simplex(data, "trajectory")
    return Trajectory(times=times, data=data, schedule=schedule)


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
    z, a_t = truth[0], np.empty((n, n))
    for start, stop, net in schedule._runs(np.arange(steps) * h):
        kernel = _Kernel(params, net, a_t)
        for k in range(start, stop):
            z = _euler_step_raw(z, kernel, h, k * h)
            truth[k + 1] = z

    if noise_std > 0.0:
        if rng is None or isinstance(rng, (int, np.integer)):
            rng = np.random.default_rng(rng)
        observed = rng.normal(0.0, noise_std, truth.shape)
        observed += truth
        np.clip(observed, 0.0, 1.0, out=observed)
        observed /= observed.sum(axis=1, keepdims=True)
    else:
        observed = truth

    times = np.arange(steps + 1, dtype=float) * h
    _check_simplex(observed, "trajectory")
    return Trajectory(times=times, data=observed, schedule=schedule)


def write_trajectory_csv(path, trajectory: Trajectory) -> None:
    """CSV with columns time, node_id, s, e, x, r (one row per node and time),
    built column-wise: each time's cell is formatted once for all nodes, and
    each compartment's cells a block of samples at a time."""
    from ._csvio import cell, reprs, write_columns

    node_ids = [cell(nid) for nid in trajectory.schedule.node_ids]
    data = np.asarray(trajectory.data, dtype=float)
    times = chain.from_iterable(repeat(t, len(node_ids)) for t in reprs(trajectory.times))
    write_columns(path, ("time", "node_id", "s", "e", "x", "r"),
                  [times, chain.from_iterable(repeat(node_ids, len(data))),
                   *(reprs(data[:, c, :]) for c in range(4))])


def read_trajectory_csv(path) -> tuple[np.ndarray, tuple[str, ...], np.ndarray]:
    """Inverse of write_trajectory_csv: (times, node_ids, data (T, 4, n)).

    Raises ParseError naming ``path:line`` for a cell that is not a finite
    number, or for a second row of one node and time.
    """
    from ._csvio import numbered, numbers, raise_first, read_columns, repeated

    names = ("time", "node_id", "s", "e", "x", "r")
    index = {}  # node ids in order of first appearance

    def rows(start, time_cells, node_cells, *value_cells):
        stamps, *values = numbers(path, [time_cells, *value_cells],
                                  ("time", "s", "e", "x", "r"), start)
        return stamps, numbered(node_cells, index), *values

    stamps, node, *values = read_columns(
        path, names, ValidationError(f"trajectory CSV needs columns {sorted(names)}"), rows
    )
    if not len(node):
        raise ValidationError("trajectory CSV is empty")
    node_ids = tuple(index)
    times, slot = np.unique(stamps, return_inverse=True)
    if len(node) > len(times) * len(node_ids):  # else a repeat leaves a pair missing
        raise_first(path, [(repeated(slot * len(node_ids) + node), lambda k, where: ParseError(
            f"{where}: duplicate entry for {node_ids[node[k]]!r} at time {float(stamps[k])!r}"))])
    data = np.full((len(times), 4, len(node_ids)), np.nan)
    for c, column in enumerate(values):
        data[slot, c, node] = column
    if math.isnan(data.min()):  # a node/time pair with no row
        raise ValidationError("trajectory CSV is missing node/time rows")
    return times, node_ids, data
