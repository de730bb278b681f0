"""Spreading-parameter recovery from sampled states and known flows.

Each node decouples into a 4T x 4 least-squares system Psi theta = delta for
theta = (beta, sigma, delta, alpha): delta stacks the state increments with the
travel terms moved to the left-hand side, and Psi is h times the SEIRS cycle
matrix C applied to the exit fluxes per unit rate (s x, e, x, r). The travel
terms of all nodes come from one product per schedule period with the stored
routing. Each system is reduced to its 5 x 5 triangular factor by a QR per
compartment, whose rows are zero but in three columns, and one QR of the
stacked triangles. Fits are read from the factors; the nonnegative fit
searches the supports of theta (Lawson & Hanson, Solving Least Squares
Problems, 1974, ch. 23) only where the unconstrained fit has a negative rate
or Psi is rank-deficient, so no iterative solver is needed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import _CYCLE, EpidemicParams, SystemState, Trajectory
from .errors import DimensionMismatch, ParseError, ScheduleMismatch, ValidationError
from .network import FlowNetwork, NetworkSchedule

RANK_RATIO_TOL = 1e-10

SOLVERS = ("pseudo_inverse", "nnls")

_QR_BYTES = 8 << 20  # compartment blocks built and factored at once: about 8 MB, at least one node


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
    """Recovered rates plus per-node residual and identifiability diagnostics.

    ``constrained`` marks the nodes whose unconstrained fit has a negative
    rate. The nnls solver searches the supports of the rates there and at
    unidentifiable nodes, and keeps the unconstrained fit elsewhere.
    """

    node_ids: tuple[str, ...]
    params: EpidemicParams
    residual_norm: np.ndarray
    identifiable: np.ndarray
    condition_number: np.ndarray
    constrained: np.ndarray

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
            ],
            "constrained_nodes": int(np.count_nonzero(self.constrained)),
        }


def _step_groups(series: ObservationSeries) -> list[tuple[int, int, FlowNetwork]]:
    """Consecutive step ranges in one schedule period, as (start, stop, net)."""
    if series.schedule is None:
        raise ScheduleMismatch("observation series carries no flow schedule")
    try:
        return series.schedule._runs(series.times[:-1])
    except ValidationError as exc:
        raise ScheduleMismatch(str(exc)) from exc


def _increments(series: ObservationSeries, groups, nodes: slice = slice(None)) -> np.ndarray:
    """State increments minus travel terms, shape (T, 4, k), for the nodes
    in the slice ``nodes``.

    The travel term of node i is h (gamma_i q_i - sum_j Phi_ij q_j), and
    sum_j Phi_ij q_j = (sum_j routing_ij gamma_j N_j q_j) / N_i: one product
    of each step group's (m, 4, n) state block, scaled by gamma N, with the
    routing, and no coupling matrix built.
    """
    if series.steps < 1:
        raise ValidationError("need at least one transition (T >= 1)")
    q = series.data  # (T+1, 4, n)
    increments = q[1:, :, nodes] - q[:-1, :, nodes]
    for start, stop, net in groups:
        if net.n != series.n:
            raise ScheduleMismatch("schedule node count does not match observations")
        pops, own = net.populations, q[start:stop, :, nodes]
        carried = (q[start:stop] * (net.gamma * pops)).reshape(-1, series.n)
        moved = (carried @ net.routing[nodes].T).reshape(own.shape) / pops[nodes]
        increments[start:stop] += series.h * (net.gamma[nodes] * own - moved)
    return increments


def _factors(states: np.ndarray, increments: np.ndarray, h: float) -> np.ndarray:
    """The triangular factors R of the k systems [Psi | delta] with the
    (T, 4, k) states at the start of each step and the (T, 4, k)
    _increments: (k, 5, 5), or (k, 4, 5) when T = 1, each up to the signs
    of its rows, which change no fit.

    Compartment c's T rows of a system are zero but in three columns: the
    inflow h f_{c-1} (column c - 1 mod 4), the outflow -h f_c (column c) and
    the increment, for the exit fluxes per unit rate f = (s x, e, x, r). So
    a batched T x 3 QR per compartment, then one QR of the four stacked
    triangles, factors each system (a TSQR) without multiplying its zeros.
    """
    t, _, k = states.shape
    rows = min(t, 3)
    stacked = np.zeros((k, 4, rows, 5))
    block = np.empty((k, 3, t))  # T x 3 systems with contiguous columns, as qr copies them
    for c in range(4):
        for column, j, scale in ((0, (c - 1) % 4, h), (1, c, -h)):
            np.multiply(states[:, j].T, scale, out=block[:, column])
            if j == 0:
                block[:, column] *= states[:, 2].T
        block[:, 2] = increments[:, c].T
        stacked[:, c][..., [(c - 1) % 4, c, 4]] = np.linalg.qr(block.transpose(0, 2, 1), mode="r")
    return np.linalg.qr(stacked.reshape(k, 4 * rows, 5), mode="r")


def _node_data(series: ObservationSeries, node: int) -> tuple[np.ndarray, np.ndarray]:
    """The states at the start of each step and the _increments of one node,
    (T, 4, 1) each."""
    groups = _step_groups(series)
    if not 0 <= node < series.n:
        raise ValidationError(f"node index {node} out of range for n={series.n}")
    nodes = slice(node, node + 1)
    return series.data[:-1, :, nodes], _increments(series, groups, nodes)


def build_regression(series: ObservationSeries, node: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-node regression system (Psi, delta) with Psi of shape (4T, 4).

    delta holds the state increments with the travel terms subtracted out;
    Psi holds the h-scaled features so that Psi @ (beta, sigma, delta, alpha)
    reproduces delta for data generated by the discrete model. Rows are in
    the order c*T + t.
    """
    states, increments = _node_data(series, node)
    flux = states[:, :, 0].copy()  # s x, e, x, r
    flux[:, 0] *= flux[:, 2]
    psi = (series.h * _CYCLE)[:, None, :] * flux
    return psi.reshape(-1, 4), increments[:, :, 0].T.reshape(-1)


def _nonnegative(r4: np.ndarray, c: np.ndarray, rcond: float) -> np.ndarray:
    """The nonnegative minimizers of |r4 theta - c|: over the 16 supports
    of theta, the feasible unconstrained fit with the least residual
    (Lawson & Hanson, Solving Least Squares Problems, 1974, ch. 23)."""
    theta = np.zeros(c.shape)  # the support {}: theta = 0
    least = np.linalg.norm(c, axis=1)
    for support in ([j for j in range(4) if m >> j & 1] for m in range(1, 16)):
        fit = np.zeros(c.shape)
        fit[:, support] = np.einsum("kij,kj->ki", np.linalg.pinv(r4[:, :, support], rcond), c)
        residual = np.linalg.norm(np.einsum("kij,kj->ki", r4, fit) - c, axis=1)
        better = (fit >= 0).all(axis=1) & (residual < least)
        theta[better], least[better] = fit[better], residual[better]
    return theta


def _fit(r: np.ndarray, rows: int, solver: str):
    """Fits of the systems a = [Psi | delta] with ``rows`` rows each, from
    their triangular factors r, (k, 5, 5) or (k, 4, 5): theta (k, 4) as
    (beta, sigma, delta, alpha), and per node the residual norm, the
    identifiability flag, the condition number of Psi and whether the
    unconstrained fit has a negative rate.

    With a = Q R, Psi has the singular values of R4 = R[:4, :4], and
    |Psi theta - delta| = hypot(|R4 theta - c|, R[4, 4]) for c = R[:4, 4].
    The unconstrained fit is the minimum-norm one, pinv(R4) c, from one SVD.
    Where it is nonnegative and Psi has full rank it is also the
    nonnegative optimum, so the nnls solver searches the supports of theta
    only at the other nodes. A rank-deficient system still gets the
    minimum-norm (or nonnegative) solution but is flagged unidentifiable.
    """
    if solver not in SOLVERS:
        raise ValidationError(f"solver must be one of {SOLVERS}, got {solver!r}")
    r4, c = r[:, :4, :4], r[:, :4, 4]
    u, sv, vt = np.linalg.svd(r4)
    rcond = np.finfo(float).eps * rows  # lstsq's cutoff for the rank
    with np.errstate(divide="ignore", invalid="ignore"):
        inverse = np.where(sv > rcond * sv[:, :1], 1.0 / sv, 0.0)
        identifiable = sv[:, -1] / sv[:, 0] >= RANK_RATIO_TOL
        cond = np.where(sv[:, -1] > 0, sv[:, 0] / sv[:, -1], np.inf)
    theta = np.einsum("kji,kj->ki", vt, inverse * np.einsum("kji,kj->ki", u, c))
    constrained = (theta < 0).any(axis=1)
    search = np.flatnonzero(constrained | ~identifiable)
    if solver == "nnls" and len(search):
        theta[search] = _nonnegative(r4[search], c[search], rcond)
    residual = np.hypot(np.linalg.norm(np.einsum("kij,kj->ki", r4, theta) - c, axis=1),
                        np.linalg.norm(r[:, 4:, 4], axis=1))
    return theta, residual, identifiable, cond, constrained


def estimate_node(series: ObservationSeries, node: int, solver: str = "nnls") -> NodeEstimate:
    """Recover (beta, sigma, delta, alpha) for one node, by estimate_all's fit.

    A rank-deficient system still returns the minimum-norm (or nonnegative)
    solution but is flagged unidentifiable.
    """
    states, increments = _node_data(series, node)
    theta, residual, identifiable, cond, _ = _fit(
        _factors(states, increments, series.h), 4 * series.steps, solver)
    return NodeEstimate(node, *theta[0].tolist(), float(residual[0]), bool(identifiable[0]),
                        float(cond[0]))


def estimate_all(series: ObservationSeries, solver: str = "nnls") -> ParameterEstimate:
    """Per-node estimation across the network (the system decouples by node).

    The travel terms of all nodes come from one product per schedule
    period; the systems are then built and factored about _QR_BYTES of
    compartment blocks at a time, and fitted together from their factors.
    """
    increments = _increments(series, _step_groups(series))
    states, step = series.data[:-1], max(1, _QR_BYTES // (3 * series.steps * 8))
    r = np.concatenate([_factors(states[:, :, i : i + step], increments[:, :, i : i + step],
                                 series.h) for i in range(0, series.n, step)])
    theta, residual, identifiable, cond, constrained = _fit(r, 4 * series.steps, solver)
    beta, sigma, delta, alpha = theta.T
    params = EpidemicParams(alpha=alpha, beta=beta, sigma=sigma, delta=delta, strict=False)
    return ParameterEstimate(series.schedule.node_ids, params, residual, identifiable, cond,
                             constrained)


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
    from ._csvio import cell, reprs, write_columns

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
    from ._csvio import numbers, raise_first, read_columns, repeated, text

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
