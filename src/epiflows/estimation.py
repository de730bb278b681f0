"""Spreading-parameter recovery from sampled states and known flows.

Each node decouples into a 4T x 4 linear system: stack the per-step state
increments with the flow terms moved to the left-hand side, and regress them
on the bilinear/linear state features multiplying (beta, sigma, delta, alpha).
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from ._csvio import numbers, read_columns
from .dynamics import EpidemicParams, SystemState, Trajectory
from .errors import DimensionMismatch, ScheduleMismatch, ValidationError
from .network import FlowNetwork, NetworkSchedule

RANK_RATIO_TOL = 1e-10

SOLVERS = ("pseudo_inverse", "nnls")


@dataclass(frozen=True)
class ObservationSeries:
    """Uniformly sampled state observations plus the flow schedule in force."""

    h: float
    times: np.ndarray
    data: np.ndarray
    schedule: NetworkSchedule | None = None

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        object.__setattr__(self, "times", times)
        if self.h <= 0:
            raise ValidationError("h must be positive")
        if len(times) < 1 or self.data.shape[:2] != (len(times), 4):
            raise DimensionMismatch(
                f"data shape {self.data.shape} does not match {len(times)} times"
            )
        if len(times) > 1 and np.abs(np.diff(times) - self.h).max() > 1e-9 * max(1.0, self.h):
            raise ValidationError("times must be uniformly spaced by h")
        if self.schedule is not None:
            needed = (len(times) - 1) * self.h
            if self.schedule.total_duration < needed - 1e-9:
                raise ScheduleMismatch(
                    f"schedule covers {self.schedule.total_duration} but the "
                    f"series spans {needed} time units"
                )

    @property
    def n(self) -> int:
        return self.data.shape[2]

    @property
    def steps(self) -> int:
        return len(self.times) - 1

    def state_at(self, k: int) -> SystemState:
        return SystemState.from_matrix(self.data[k])

    def with_schedule(self, schedule: NetworkSchedule) -> "ObservationSeries":
        return ObservationSeries(self.h, self.times, self.data, schedule)

    @classmethod
    def from_trajectory(cls, trajectory: Trajectory) -> "ObservationSeries":
        gaps = np.diff(trajectory.times)
        if len(gaps) == 0:
            raise ValidationError("need at least two samples")
        h = float(gaps[0])
        return cls(h=h, times=trajectory.times, data=trajectory.data,
                   schedule=trajectory.schedule)


@dataclass(frozen=True)
class NodeEstimate:
    node: int
    beta: float
    sigma: float
    delta: float
    alpha: float
    residual_norm: float
    identifiable: bool
    condition_number: float


@dataclass(frozen=True)
class ParameterEstimate:
    """Recovered rates plus per-node residual and identifiability diagnostics."""

    node_ids: tuple[str, ...]
    params: EpidemicParams
    residual_norm: np.ndarray
    identifiable: np.ndarray
    condition_number: np.ndarray

    def to_dict(self) -> dict:
        return {
            "nodes": [
                {
                    "node_id": nid,
                    "beta": float(self.params.beta[i]),
                    "sigma": float(self.params.sigma[i]),
                    "delta": float(self.params.delta[i]),
                    "alpha": float(self.params.alpha[i]),
                    "residual": float(self.residual_norm[i]),
                    "identifiable": bool(self.identifiable[i]),
                    "condition_number": float(self.condition_number[i]),
                }
                for i, nid in enumerate(self.node_ids)
            ]
        }


def _step_groups(series: ObservationSeries) -> list[tuple[int, int, FlowNetwork]]:
    """Consecutive step ranges sharing one network, as (start, stop, net)."""
    if series.schedule is None:
        raise ScheduleMismatch("observation series carries no flow schedule")
    t = series.steps
    nets = []
    for k in range(t):
        try:
            nets.append(series.schedule.network_at(series.times[k]))
        except ValidationError as exc:
            raise ScheduleMismatch(str(exc)) from exc
    groups, start = [], 0
    for k in range(1, t + 1):
        if k == t or nets[k] is not nets[start]:
            groups.append((start, k, nets[start]))
            start = k
    return groups


def build_regression(series: ObservationSeries, node: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-node regression system (Psi, delta) with Psi of shape (4T, 4).

    delta holds the state increments with the travel terms subtracted out;
    Psi holds the h-scaled features so that Psi @ (beta, sigma, delta, alpha)
    reproduces delta for data generated by the discrete model.
    """
    return _regression(series, node, _node_increments(series, node))


def _node_increments(series: ObservationSeries, node: int) -> np.ndarray:
    groups = _step_groups(series)
    if not 0 <= node < series.n:
        raise ValidationError(f"node index {node} out of range for n={series.n}")
    return _increments(series, [node], groups)[:, :, 0]


def _increments(series: ObservationSeries, nodes, groups) -> np.ndarray:
    """State increments minus travel terms, shape (T, 4, k), for the nodes
    that ``nodes`` selects (an index list, or ``slice(None)`` for all).

    The travel terms come from one product of each step group's (m, 4, n)
    state block with the selected rows of that group's coupling matrix.
    """
    if series.steps < 1:
        raise ValidationError("need at least one transition (T >= 1)")
    q = series.data  # (T+1, 4, n)
    increments = q[1:, :, nodes] - q[:-1, :, nodes]
    for start, stop, net in groups:
        if net.n != series.n:
            raise ScheduleMismatch("schedule node count does not match observations")
        own = q[start:stop, :, nodes]
        moved = q[start:stop].reshape(-1, series.n) @ net.coupling[nodes].T
        increments[start:stop] += series.h * (net.gamma[nodes] * own - moved.reshape(own.shape))
    return increments


def _regression(
    series: ObservationSeries, node: int, increments: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(Psi, delta) of one node from its (T, 4) travel-corrected increments."""
    s, e, x, r = (series.data[:-1, c, node] for c in range(4))
    sx = s * x
    zero = np.zeros(series.steps)
    psi = series.h * np.block(
        [
            [np.column_stack([-sx, zero, zero, r])],
            [np.column_stack([sx, -e, zero, zero])],
            [np.column_stack([zero, e, -x, zero])],
            [np.column_stack([zero, zero, x, -r])],
        ]
    )
    return psi, increments.T.reshape(-1)


def _solve(psi: np.ndarray, delta: np.ndarray, solver: str) -> np.ndarray:
    if solver == "pseudo_inverse":
        theta, *_ = np.linalg.lstsq(psi, delta, rcond=None)
        return theta
    if solver == "nnls":
        import scipy.optimize  # here, so that only NNLS estimation pays its import time

        theta, _ = scipy.optimize.nnls(psi, delta)
        return theta
    raise ValidationError(f"solver must be one of {SOLVERS}, got {solver!r}")


def estimate_node(series: ObservationSeries, node: int, solver: str = "nnls") -> NodeEstimate:
    """Recover (beta, sigma, delta, alpha) for one node.

    A rank-deficient system still returns the minimum-norm (or nonnegative)
    solution but is flagged unidentifiable.
    """
    return _fit(node, *_regression(series, node, _node_increments(series, node)), solver)


def _fit(node: int, psi: np.ndarray, delta: np.ndarray, solver: str) -> NodeEstimate:
    theta = _solve(psi, delta, solver)
    sv = np.linalg.svd(psi, compute_uv=False)
    if sv.max() == 0.0:
        identifiable, cond = False, np.inf
    else:
        ratio = sv.min() / sv.max()
        identifiable = bool(ratio >= RANK_RATIO_TOL)
        cond = float(sv.max() / sv.min()) if sv.min() > 0 else np.inf
    return NodeEstimate(
        node=node,
        beta=float(theta[0]),
        sigma=float(theta[1]),
        delta=float(theta[2]),
        alpha=float(theta[3]),
        residual_norm=float(np.linalg.norm(psi @ theta - delta)),
        identifiable=identifiable,
        condition_number=cond,
    )


def estimate_all(series: ObservationSeries, solver: str = "nnls") -> ParameterEstimate:
    """Per-node estimation across the network (the system decouples by node).

    The travel-corrected increments of all nodes come from one pass over the
    series; each node's column then gets its own least-squares fit.
    """
    increments = _increments(series, slice(None), _step_groups(series))
    nodes = [
        _fit(i, *_regression(series, i, increments[:, :, i]), solver) for i in range(series.n)
    ]
    params = EpidemicParams(
        alpha=np.array([v.alpha for v in nodes]),
        beta=np.array([v.beta for v in nodes]),
        sigma=np.array([v.sigma for v in nodes]),
        delta=np.array([v.delta for v in nodes]),
        strict=False,
    )
    node_ids = (
        series.schedule.node_ids
        if series.schedule is not None
        else tuple(str(i) for i in range(series.n))
    )
    return ParameterEstimate(
        node_ids=node_ids,
        params=params,
        residual_norm=np.array([v.residual_norm for v in nodes]),
        identifiable=np.array([v.identifiable for v in nodes]),
        condition_number=np.array([v.condition_number for v in nodes]),
    )


def _as_params(value) -> EpidemicParams:
    if isinstance(value, ParameterEstimate):
        return value.params
    if isinstance(value, EpidemicParams):
        return value
    raise ValidationError("expected EpidemicParams or ParameterEstimate")


def parameter_rmse(true_params, estimated) -> tuple[float, float, float, float]:
    """Per-parameter root-mean-square error across nodes: (beta, sigma, delta, alpha)."""
    a = _as_params(true_params)
    b = _as_params(estimated)
    if a.n != b.n:
        raise DimensionMismatch("parameter vectors have different node counts")
    return tuple(
        float(np.sqrt(np.mean((getattr(a, name) - getattr(b, name)) ** 2)))
        for name in ("beta", "sigma", "delta", "alpha")
    )


def write_estimate_csv(path, estimate: ParameterEstimate) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["node_id", "beta", "sigma", "delta", "alpha", "residual",
             "identifiable", "condition_number"]
        )
        for row in estimate.to_dict()["nodes"]:
            writer.writerow(
                [row["node_id"]]
                + [repr(row[k]) for k in ("beta", "sigma", "delta", "alpha", "residual")]
                + [str(row["identifiable"]).lower(), repr(row["condition_number"])]
            )


def read_params_csv(path) -> tuple[tuple[str, ...], EpidemicParams]:
    """Read per-node rates from a CSV with the write_estimate_csv column layout
    (extra columns are ignored); ParseError names ``path:line`` of a rate
    that is not a number."""
    rates = ("beta", "sigma", "delta", "alpha")
    node_ids, *cells = read_columns(
        path, ("node_id", *rates),
        ValidationError(f"params CSV needs columns {sorted(('node_id', *rates))}"),
    )
    beta, sigma, delta, alpha = numbers(path, cells, rates)
    if not node_ids:
        raise ValidationError("params CSV is empty")
    return tuple(node_ids), EpidemicParams(alpha=alpha, beta=beta, sigma=sigma, delta=delta)
