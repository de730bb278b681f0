"""Spreading-parameter recovery from sampled states and known flows.

Each node decouples into a 4T x 4 least-squares system Psi theta = delta for
theta = (beta, sigma, delta, alpha): delta stacks the state increments with the
travel terms moved to the left-hand side, and Psi is h times the SEIRS cycle
matrix C applied to the exit fluxes per unit rate (s x, e, x, r). Nodes are fitted
_CHUNK at a time from the triangular factors R of their stacked [Psi | delta];
nonnegative fits try every support of theta (Lawson & Hanson, Solving Least
Squares Problems, 1974, ch. 23), so no iterative solver is needed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._csvio import cell, numbers, raise_first, read_columns, repeated, reprs, text, write_columns
from .dynamics import _CYCLE, EpidemicParams, SystemState, Trajectory
from .errors import DimensionMismatch, ParseError, ScheduleMismatch, ValidationError
from .network import FlowNetwork, NetworkSchedule, _coupling_rows

RANK_RATIO_TOL = 1e-10

SOLVERS = ("pseudo_inverse", "nnls")

_CHUNK = 128  # nodes per travel-term product, so its (T, 4, k) result stays small at any n
_QR_BYTES = 8 << 20  # systems per stack built and factored: about 8 MB of them, and at least one


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
        if not 0.0 < self.h < np.inf:
            raise ValidationError("h must be finite and positive")
        if not np.isfinite(times).all():
            raise ValidationError("times must be finite")
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
    """Consecutive step ranges in one schedule period, as (start, stop, net)."""
    if series.schedule is None:
        raise ScheduleMismatch("observation series carries no flow schedule")
    try:
        return series.schedule._runs(series.times[:-1])
    except ValidationError as exc:
        raise ScheduleMismatch(str(exc)) from exc


def _increments(series: ObservationSeries, nodes: slice, groups) -> np.ndarray:
    """State increments minus travel terms, shape (T, 4, k), for the nodes
    in the slice ``nodes``.

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
        moved = q[start:stop].reshape(-1, series.n) @ _coupling_rows(net, nodes).T
        increments[start:stop] += series.h * (net.gamma[nodes] * own - moved.reshape(own.shape))
    return increments


def _systems(series: ObservationSeries, nodes: slice, groups):
    """The regression systems [Psi | delta] of the nodes in the slice
    ``nodes``, (4T, 5) each with rows in the order c*T + t, yielded in
    stacks (m, 4T, 5) of about _QR_BYTES and at least one system. A stack
    is a view of an (m, 5, 4T) array, so each system's columns are
    contiguous for QR; qr copies its input, so a long series is built and
    factored a few MB at a time."""
    increments = _increments(series, nodes, groups).T  # (k, 4, T)
    flux = series.data[:-1, :, nodes].copy()  # (T, 4, k): s x, e, x, r
    flux[:, 0] *= flux[:, 2]
    k, _, t = increments.shape
    step = max(1, _QR_BYTES // (5 * 4 * t * 8))
    for i in range(0, k, step):
        columns = np.empty((min(step, k - i), 5, 4, t))
        np.multiply((series.h * _CYCLE.T)[:, :, None], flux.T[i : i + step, :, None, :],
                    out=columns[:, :4])
        columns[:, 4] = increments[i : i + step]
        yield columns.reshape(-1, 5, 4 * t).transpose(0, 2, 1)


def _node_system(series: ObservationSeries, node: int) -> np.ndarray:
    groups = _step_groups(series)
    if not 0 <= node < series.n:
        raise ValidationError(f"node index {node} out of range for n={series.n}")
    return next(_systems(series, slice(node, node + 1), groups))


def build_regression(series: ObservationSeries, node: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-node regression system (Psi, delta) with Psi of shape (4T, 4).

    delta holds the state increments with the travel terms subtracted out;
    Psi holds the h-scaled features so that Psi @ (beta, sigma, delta, alpha)
    reproduces delta for data generated by the discrete model.
    """
    a = _node_system(series, node)[0]
    return a[:, :4], a[:, 4]


def _fit(a: np.ndarray, solver: str):
    """Fits of the stacked systems a = [Psi | delta], (k, 4T, 5): theta (k, 4)
    as (beta, sigma, delta, alpha), and per node the residual norm, the
    identifiability flag and the condition number of Psi.

    With a = Q R, Psi has the singular values of R4 = R[:4, :4], and
    |Psi theta - delta| = hypot(|R4 theta - c|, R[4, 4]) for c = R[:4, 4].
    A rank-deficient system still gets the minimum-norm (or nonnegative)
    solution but is flagged unidentifiable.
    """
    if solver not in SOLVERS:
        raise ValidationError(f"solver must be one of {SOLVERS}, got {solver!r}")
    r = np.linalg.qr(a, mode="r")  # (k, 5, 5), or (k, 4, 5) when T = 1
    r4, c = r[:, :4, :4], r[:, :4, 4]
    rcond = np.finfo(float).eps * a.shape[1]  # lstsq's cutoff for the rank
    if solver == "nnls":
        theta = np.zeros(c.shape)  # the support {}: theta = 0
        least = np.linalg.norm(c, axis=1)
        for support in ([j for j in range(4) if m >> j & 1] for m in range(1, 16)):
            fit = np.zeros(c.shape)
            fit[:, support] = np.einsum("kij,kj->ki", np.linalg.pinv(r4[:, :, support], rcond), c)
            residual = np.linalg.norm(np.einsum("kij,kj->ki", r4, fit) - c, axis=1)
            better = (fit >= 0).all(axis=1) & (residual < least)
            theta[better], least[better] = fit[better], residual[better]
    else:
        theta = np.einsum("kij,kj->ki", np.linalg.pinv(r4, rcond), c)
    residual = np.hypot(np.linalg.norm(np.einsum("kij,kj->ki", r4, theta) - c, axis=1),
                        np.linalg.norm(r[:, 4:, 4], axis=1))
    sv = np.linalg.svd(r4, compute_uv=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        identifiable = sv[:, -1] / sv[:, 0] >= RANK_RATIO_TOL
        cond = np.where(sv[:, -1] > 0, sv[:, 0] / sv[:, -1], np.inf)
    return theta, residual, identifiable, cond


def estimate_node(series: ObservationSeries, node: int, solver: str = "nnls") -> NodeEstimate:
    """Recover (beta, sigma, delta, alpha) for one node, by estimate_all's fit.

    A rank-deficient system still returns the minimum-norm (or nonnegative)
    solution but is flagged unidentifiable.
    """
    theta, residual, identifiable, cond = _fit(_node_system(series, node), solver)
    return NodeEstimate(node, *theta[0].tolist(), float(residual[0]), bool(identifiable[0]),
                        float(cond[0]))


def estimate_all(series: ObservationSeries, solver: str = "nnls") -> ParameterEstimate:
    """Per-node estimation across the network (the system decouples by node),
    fitted _CHUNK nodes at a time."""
    groups = _step_groups(series)
    fits = [_fit(a, solver) for i in range(0, series.n, _CHUNK)
            for a in _systems(series, slice(i, i + _CHUNK), groups)]
    theta, residual, identifiable, cond = map(np.concatenate, zip(*fits))
    beta, sigma, delta, alpha = theta.T
    params = EpidemicParams(alpha=alpha, beta=beta, sigma=sigma, delta=delta, strict=False)
    return ParameterEstimate(series.schedule.node_ids, params, residual, identifiable, cond)


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
    p = estimate.params
    write_columns(path, ("node_id", "beta", "sigma", "delta", "alpha", "residual",
                         "identifiable", "condition_number"), [
        map(cell, estimate.node_ids),
        *map(reprs, (p.beta, p.sigma, p.delta, p.alpha, estimate.residual_norm)),
        ["true" if ok else "false" for ok in np.asarray(estimate.identifiable, bool).tolist()],
        reprs(estimate.condition_number),
    ])


def read_params_csv(path) -> tuple[tuple[str, ...], EpidemicParams]:
    """Read per-node rates from a CSV with the write_estimate_csv column layout
    (extra columns are ignored); ParseError names ``path:line`` of a rate
    that is not a finite number, or of a node id given twice."""
    rates = ("beta", "sigma", "delta", "alpha")
    node_ids, beta, sigma, delta, alpha = read_columns(
        path, ("node_id", *rates),
        ValidationError(f"params CSV needs columns {sorted(('node_id', *rates))}"),
        lambda start, ids, *cells: (ids, *numbers(path, cells, rates, start)),
    )
    raise_first(path, [(repeated(node_ids), lambda k, where: ParseError(
        f"{where}: duplicate node_id {text(node_ids[k])!r}"))])
    if not len(node_ids):
        raise ValidationError("params CSV is empty")
    return (tuple(map(text, node_ids.tolist())),
            EpidemicParams(alpha=alpha, beta=beta, sigma=sigma, delta=delta))
