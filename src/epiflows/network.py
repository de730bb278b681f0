"""Travel-flow graphs: construction, balance enforcement, connectivity checks.

Conventions: ``flows[i, j]`` is the number of individuals moving from node j
to node i per unit time. Derived quantities are the outflow fractions
``gamma[j] = sum_i flows[i, j] / populations[j]``, the column-stochastic
routing matrix ``routing[i, j] = flows[i, j] / sum_l flows[l, j]``, and the
coupling matrix ``coupling[i, j] = (N_j / N_i) * routing[i, j] * gamma[j]``
that appears in every compartment's dynamics.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import (
    BalanceViolation,
    DimensionMismatch,
    NegativeEntry,
    NegativeRate,
    NoConvergence,
    PerturbationUnbalanced,
    ValidationError,
    WindowLargerThanSchedule,
)

SCALE_BALANCE_TOL = 1e-10
SCALE_MAX_ITERATIONS = 100  # Newton steps


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class FlowNetwork:
    """Immutable travel-flow graph with derived routing and coupling matrices."""

    node_ids: tuple[str, ...]
    populations: np.ndarray
    flows: np.ndarray
    gamma: np.ndarray
    routing: np.ndarray
    coupling: np.ndarray

    @property
    def n(self) -> int:
        return len(self.node_ids)

    def node_index(self, node_id: str) -> int:
        try:
            return self.node_ids.index(node_id)
        except ValueError:
            raise KeyError(f"unknown node id {node_id!r}") from None


@dataclass(frozen=True)
class NetworkSchedule:
    """Piecewise-constant sequence of networks: (duration, network) periods.

    All periods must share node ids and populations. ``window_bound`` is the
    K used by :func:`check_k_strong`.
    """

    periods: tuple[tuple[float, FlowNetwork], ...]
    window_bound: int | None = None

    def __post_init__(self):
        if not self.periods:
            raise ValidationError("schedule needs at least one period")
        first = self.periods[0][1]
        for duration, net in self.periods:
            if not duration > 0:
                raise ValidationError("period durations must be positive")
            if net.node_ids != first.node_ids:
                raise ValidationError("all periods must share node ids")
            if not np.array_equal(net.populations, first.populations):
                raise ValidationError("all periods must share populations")
        # period ends as the same left-to-right float sums a linear scan makes
        object.__setattr__(self, "_ends", tuple(accumulate(d for d, _ in self.periods)))

    @classmethod
    def static(cls, network: FlowNetwork) -> "NetworkSchedule":
        return cls(periods=((math.inf, network),), window_bound=1)

    @property
    def node_ids(self) -> tuple[str, ...]:
        return self.periods[0][1].node_ids

    @property
    def total_duration(self) -> float:
        return self._ends[-1]

    def network_at(self, t: float, clamp: bool = False) -> FlowNetwork:
        """Network in force at time t (period starts are inclusive).

        With ``clamp=True``, times past the end fall back to the last period.
        """
        if t < 0:
            raise ValidationError(f"time {t} is before the schedule start")
        k = bisect_right(self._ends, t)
        if k < len(self.periods):
            return self.periods[k][1]
        if clamp:
            return self.periods[-1][1]
        raise ValidationError(
            f"time {t} exceeds schedule coverage {self.total_duration}"
        )


def as_schedule(net_or_schedule) -> NetworkSchedule:
    if isinstance(net_or_schedule, NetworkSchedule):
        return net_or_schedule
    return NetworkSchedule.static(net_or_schedule)


def build_network(
    node_ids,
    populations,
    flows,
    balance_tolerance: float = 1e-6,
) -> FlowNetwork:
    """Validate raw flows and derive gamma, routing, and coupling.

    Per-node balance is enforced relative to outflow:
    ``|outflow_j - inflow_j| <= balance_tolerance * outflow_j``.
    Nodes with zero outflow get gamma 0 and an all-zero routing column.
    """
    node_ids = tuple(str(x) for x in node_ids)
    populations = np.asarray(populations, dtype=float)
    flows = np.asarray(flows, dtype=float)
    n = len(node_ids)
    if populations.shape != (n,) or flows.shape != (n, n):
        raise DimensionMismatch(
            f"expected populations ({n},) and flows ({n}, {n}); "
            f"got {populations.shape} and {flows.shape}"
        )
    if np.any(populations <= 0):
        raise NegativeEntry("populations must be strictly positive")
    if np.any(flows < 0):
        raise NegativeEntry("flows must be nonnegative")
    if np.any(np.diag(flows) != 0):
        raise ValidationError("flows must have a zero diagonal")

    outflow = flows.sum(axis=0)
    inflow = flows.sum(axis=1)
    gap = np.abs(outflow - inflow)
    if math.isfinite(balance_tolerance):
        bad = gap > balance_tolerance * outflow
    else:
        bad = np.zeros_like(gap, dtype=bool)
    if np.any(bad):
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = np.where(outflow > 0, gap / outflow, np.where(gap > 0, np.inf, 0.0))
        worst = int(np.argmax(rel))
        raise BalanceViolation(
            f"flow imbalance at node {node_ids[worst]!r}: relative imbalance "
            f"{rel[worst]:.3e} exceeds tolerance {balance_tolerance:.1e}"
        )

    gamma = outflow / populations
    routing = np.zeros_like(flows)
    active = outflow > 0
    routing[:, active] = flows[:, active] / outflow[active]
    coupling = (1.0 / populations)[:, None] * routing * (gamma * populations)[None, :]

    return FlowNetwork(
        node_ids=node_ids,
        populations=_freeze(populations.copy()),
        flows=_freeze(flows.copy()),
        gamma=_freeze(gamma),
        routing=_freeze(routing),
        coupling=_freeze(coupling),
    )


def balance_flows(flows, method: str = "scale") -> np.ndarray:
    """Return flows, one (n, n) matrix or a (P, n, n) stack, each satisfying
    per-node balance to rounding.

    ``symmetrize`` averages F with its transpose. ``scale`` rescales by a
    diagonal similarity D^-1 F D, D = diag(exp u), with damped Newton steps
    on f(u) = sum_ij F_ij exp(u_j - u_i) (Cohen, Madry, Tsipras and Vladu
    2017), one batched solve per step for a whole stack. The worst relative
    imbalance must drop below 1e-10 within ``SCALE_MAX_ITERATIONS`` steps;
    stepping goes on while it still falls, to the rounding floor.
    """
    flows = np.asarray(flows, dtype=float)
    if flows.ndim not in (2, 3) or flows.shape[-1] != flows.shape[-2]:
        raise DimensionMismatch(f"flows must be square, got {flows.shape}")
    if np.any(flows < 0):
        raise NegativeEntry("flows must be nonnegative")
    if np.any(np.diagonal(flows, axis1=-2, axis2=-1) != 0):
        raise ValidationError("flows must have a zero diagonal")

    if method == "symmetrize":
        return 0.5 * (flows + np.swapaxes(flows, -1, -2))
    if method != "scale":
        raise ValidationError(f"unknown balance method {method!r}")

    stack = flows.reshape(-1, *flows.shape[-2:])
    # similarity scaling preserves the zero pattern, so a node with outflow
    # but no inflow (or vice versa) can never be balanced
    has_out = stack.sum(axis=1) > 0
    has_in = stack.sum(axis=2) > 0
    if np.any(has_out != has_in):
        window, bad = np.argwhere(has_out != has_in)[0]
        raise NoConvergence(
            f"node index {bad} has {'outflow' if has_out[window, bad] else 'inflow'} "
            "only; scale balancing cannot converge"
        )
    return _newton(stack).reshape(flows.shape)


def _worst_imbalance(stack: np.ndarray) -> np.ndarray:
    """Largest relative imbalance |outflow - inflow| / outflow per matrix."""
    out = stack.sum(axis=-2)
    inn = stack.sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(out > 0, np.abs(out - inn) / out, 0.0)
    return rel.max(axis=-1, initial=0.0)


def _newton(stack: np.ndarray) -> np.ndarray:
    """D^-1 F D for each F of the stack by the steps of :func:`balance_flows`."""
    lowest, balanced = np.full(len(stack), np.inf), np.empty_like(stack)
    scaled, todo, diag = stack, np.arange(len(stack)), np.arange(stack.shape[-1])
    rounding = 4 * len(diag) * np.finfo(float).eps  # bounds a row sum's relative rounding
    for _ in range(SCALE_MAX_ITERATIONS):
        rel = _worst_imbalance(scaled)
        better = (rel < SCALE_BALANCE_TOL) & (rel < lowest[todo])
        lowest[todo[better]] = rel[better]
        balanced[todo[better]] = scaled[better]
        keep = better | (lowest[todo] == np.inf)  # done once it stops falling
        todo, scaled = todo[keep], scaled[keep]
        if not len(todo):
            return balanced
        # f = sum S has gradient outflow - inflow and Hessian the Laplacian of
        # S + S^T. A ridge of `rounding` times each degree keeps it strictly
        # diagonally dominant, so elimination meets no zero pivot however
        # graded the weights, and it turns the Laplacian's null vector on each
        # weak component into a constant shift of u there, which leaves S as is
        out, inn = scaled.sum(axis=-2), scaled.sum(axis=-1)
        grad, degree = out - inn, out + inn
        hess = -(scaled + np.swapaxes(scaled, -1, -2))
        hess[:, diag, diag] = degree * (1.0 + rounding) + (degree == 0)  # isolated: step 0
        step = -np.linalg.solve(hess, grad[..., None])[..., 0]
        # Armijo backtracking on f + rounding from the largest t <= 1 with exponents <= 30
        t = 30.0 / np.maximum(np.ptp(step, axis=-1), 30.0)
        f = out.sum(axis=-1) * (1.0 + rounding)
        for _ in range(60):
            e = np.exp(t[:, None] * step)  # |t step| <= 30 plus a shift below 1
            trial = scaled * (e[:, None, :] / e[:, :, None])
            fail = trial.sum(axis=(-2, -1)) > f + 1e-4 * t * np.einsum("pi,pi->p", grad, step)
            if not fail.any():
                break
            t = np.where(fail, 0.5 * t, t)
        scaled = trial
    if np.all(lowest < np.inf):
        return balanced
    raise NoConvergence(
        f"scale balancing did not reach {SCALE_BALANCE_TOL:.0e} within "
        f"{SCALE_MAX_ITERATIONS} steps"
    )


def _digraph_strongly_connected(adjacency: np.ndarray) -> bool:
    """adjacency[i, j] truthy means an edge j -> i exists."""
    if adjacency.shape[0] <= 1:
        return True
    # scipy.sparse loads here, so commands that build no graph skip its import
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    count, _ = connected_components(
        csr_matrix(adjacency), directed=True, connection="strong"
    )
    return count == 1


def _shortest_paths(hops: np.ndarray, costs: np.ndarray, source: int) -> np.ndarray:
    """Dijkstra distances from source (inf where unreachable) over the hops
    u -> v for which hops[u, v] is true; costs holds their nonnegative costs
    in the row-major order of hops.

    Every hop goes in as an explicit sparse entry: a dense matrix, or a
    csr_matrix made from one, would drop the zero-cost hops.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    size = hops.shape[0]
    indptr = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(hops.sum(axis=1), out=indptr[1:])
    heads = np.broadcast_to(np.arange(size), hops.shape)[hops]
    graph = csr_matrix((costs, heads, indptr), shape=hops.shape)
    return dijkstra(graph, directed=True, indices=source)


def is_strongly_connected(network: FlowNetwork) -> bool:
    """True iff the digraph of nonzero routing entries is strongly connected."""
    return _digraph_strongly_connected(network.routing > 0)


def check_k_strong(schedule: NetworkSchedule) -> bool:
    """True iff every window of K consecutive periods has a strongly
    connected edge union, where K is the schedule's window_bound."""
    k = schedule.window_bound
    if k is None or k < 1:
        raise ValidationError("schedule.window_bound must be a positive integer")
    m = len(schedule.periods)
    if k > m:
        raise WindowLargerThanSchedule(
            f"window K={k} exceeds the {m}-period schedule"
        )
    for start in range(m - k + 1):
        union = np.zeros_like(schedule.periods[0][1].routing, dtype=bool)
        for _, net in schedule.periods[start : start + k]:
            union |= net.routing > 0
        if not _digraph_strongly_connected(union):
            return False
    return True


def perturb_flows_balanced(
    network: FlowNetwork,
    theta,
    tol: float = 1e-10,
) -> FlowNetwork:
    """Shift outflow fractions by theta while keeping flows balanced.

    theta must keep gamma nonnegative and satisfy the balance identity
    ``theta_i = sum_j (N_j/N_i) routing[i, j] theta_j`` within tol; routing
    is kept as-is and flows and coupling are recomputed from gamma + theta.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape != network.gamma.shape:
        raise DimensionMismatch(
            f"theta must have shape {network.gamma.shape}, got {theta.shape}"
        )
    if not np.all(np.isfinite(theta)):
        raise ValidationError("theta must be finite")
    new_gamma = network.gamma + theta
    if np.any(new_gamma < 0):
        raise NegativeRate("gamma + theta must be nonnegative")
    pops = network.populations
    propagated = (1.0 / pops)[:, None] * network.routing * pops[None, :] @ theta
    residual = float(np.abs(theta - propagated).max())
    if residual > tol:
        raise PerturbationUnbalanced(
            f"theta violates the balance identity by {residual:.3e} (tol {tol:.0e})"
        )
    flows = network.routing * (new_gamma * pops)[None, :]
    coupling = (1.0 / pops)[:, None] * network.routing * (new_gamma * pops)[None, :]
    return FlowNetwork(
        node_ids=network.node_ids,
        populations=pops,
        flows=_freeze(flows),
        gamma=_freeze(new_gamma),
        routing=network.routing,
        coupling=_freeze(coupling),
    )
