"""Travel-flow graphs: construction, balance enforcement, connectivity checks.

Conventions: ``flows[i, j]`` is the number of individuals moving from node j
to node i per unit time. A network stores the outflow fractions
``gamma[j] = sum_i flows[i, j] / populations[j]`` and the column-stochastic
routing ``routing[i, j] = flows[i, j] / sum_l flows[l, j]``. It derives the
flows ``routing[i, j] * gamma[j] * N_j`` (the input's to rounding) and the
coupling ``(N_j / N_i) * routing[i, j] * gamma[j]`` when they are read; the
coupling conserves population wherever a routing column sums to 1.
"""
from __future__ import annotations

import math
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
    UnknownNode,
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
    """Immutable travel-flow graph; flows and coupling are derived when read."""

    node_ids: tuple[str, ...]
    populations: np.ndarray
    gamma: np.ndarray
    routing: np.ndarray

    @property
    def n(self) -> int:
        return len(self.node_ids)

    @property
    def flows(self) -> np.ndarray:
        """routing diag(gamma N), a new frozen array per read."""
        return _freeze(self.routing * (self.gamma * self.populations)[None, :])

    @property
    def coupling(self) -> np.ndarray:
        """Phi = diag(1/N) routing diag(gamma N), a new frozen array per read:
        _transport_t's A^T transposed, plus gamma on its (+0.0) diagonal."""
        return _freeze(_transport_t(self).T + np.diag(self.gamma))

    def node_index(self, node_id: str) -> int:
        try:
            return self.node_ids.index(node_id)
        except ValueError:
            raise UnknownNode(f"unknown node id {node_id!r}") from None


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
        return self._runs([t], clamp)[0][2]

    def _runs(self, times, clamp: bool = False) -> list[tuple[int, int, FlowNetwork]]:
        """The networks in force at the sorted times, as (start, stop, network)
        for each run times[start:stop] that falls in one period, found by one
        search of the period ends. ``clamp`` is as for :meth:`network_at`."""
        times = np.asarray(times, dtype=float)
        if len(times) and times[0] < 0:
            raise ValidationError(f"time {float(times[0])} is before the schedule start")
        k, last = np.searchsorted(self._ends, times, side="right"), len(self.periods) - 1
        if len(k) and k[-1] > last and not clamp:
            raise ValidationError(
                f"time {float(times[np.argmax(k > last)])} exceeds schedule coverage "
                f"{self.total_duration}"
            )
        k = np.minimum(k, last)
        cuts = [0, *(np.flatnonzero(k[1:] != k[:-1]) + 1).tolist(), len(k)]
        return [(a, b, self.periods[k[a]][1]) for a, b in zip(cuts, cuts[1:]) if a < b]


def as_schedule(net_or_schedule) -> NetworkSchedule:
    if isinstance(net_or_schedule, NetworkSchedule):
        return net_or_schedule
    return NetworkSchedule.static(net_or_schedule)


def build_network(node_ids, populations, flows, balance_tolerance: float = 1e-6) -> FlowNetwork:
    """Validate raw flows and derive gamma and routing.

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
    if len(set(node_ids)) < n:
        raise ValidationError("node ids must be distinct")
    if not np.isfinite(populations).all():
        raise ValidationError("populations must be finite")
    if np.any(populations <= 0):
        raise NegativeEntry("populations must be strictly positive")
    _check_flows(flows)
    outflow = flows.sum(axis=0)
    rel = _imbalance(outflow, flows.sum(axis=1))
    if np.any(rel > balance_tolerance):
        worst = int(np.argmax(rel))
        raise BalanceViolation(
            f"flow imbalance at node {node_ids[worst]!r}: relative imbalance "
            f"{rel[worst]:.3e} exceeds tolerance {balance_tolerance:.1e}"
        )

    # a column without outflow is all zeros, and divides to zeros
    routing = flows / np.where(outflow > 0, outflow, 1.0)
    return _network(node_ids, populations.copy(), outflow / populations, routing)


def _check_flows(flows: np.ndarray) -> None:
    """Reject an (n, n) flow matrix or a (P, n, n) stack with an entry that is
    not finite or is negative, or with a nonzero diagonal."""
    low, high = flows.min(initial=0.0), flows.max(initial=0.0)  # nan reaches both
    if not (math.isfinite(low) and math.isfinite(high)):
        raise ValidationError("flows must be finite")
    if low < 0:
        raise NegativeEntry("flows must be nonnegative")
    if np.any(np.diagonal(flows, axis1=-2, axis2=-1) != 0):
        raise ValidationError("flows must have a zero diagonal")


def _imbalance(out: np.ndarray, inn: np.ndarray) -> np.ndarray:
    """Relative imbalance |outflow - inflow| / outflow of each node, from the
    column sums ``out`` and row sums ``inn`` of flows: 0 at a node without
    travel, and inf at one with inflow but no outflow."""
    gap = np.abs(out - inn)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(out > 0, gap / out, np.where(gap > 0, np.inf, 0.0))


def _network(node_ids, populations, gamma, routing) -> FlowNetwork:
    """The network with every array frozen."""
    return FlowNetwork(node_ids, *map(_freeze, (populations, gamma, routing)))


def _transport_t(network: FlowNetwork, out: np.ndarray | None = None) -> np.ndarray:
    """A^T for A = Phi - diag(gamma), written into the C-contiguous (n, n)
    buffer ``out`` when it is given: (routing^T diag(1/N)) scaled by gamma N
    row by row, then gamma taken off Phi's zero diagonal. This is the one
    place Phi is formed: the coupling, the dynamics kernel, U, R and J and
    the existence indicator all take it from here. The estimator builds no
    Phi; it multiplies by the routing (estimation._increments)."""
    pops = network.populations
    out = np.empty((network.n, network.n)) if out is None else out
    np.multiply(network.routing.T, 1.0 / pops, out=out)
    out *= (network.gamma * pops)[:, None]
    out[np.diag_indices(network.n)] -= network.gamma
    return out


def balance_flows(flows, method: str = "scale") -> np.ndarray:
    """Return flows, one (n, n) matrix or a (P, n, n) stack, each satisfying
    per-node balance to rounding.

    ``symmetrize`` averages F with its transpose. ``scale`` rescales by a
    diagonal similarity D^-1 F D, D = diag(exp u), with damped Newton steps
    on f(u) = sum_ij F_ij exp(u_j - u_i) (Cohen, Madry, Tsipras and Vladu
    2017), one batched solve per step for a whole stack. The worst relative
    imbalance must drop below 1e-10 within ``SCALE_MAX_ITERATIONS`` steps;
    stepping goes on while it still falls, down to 4n eps. Flows with a weak
    component that is not strongly connected raise NoConvergence.
    """
    flows = np.asarray(flows, dtype=float)
    if flows.ndim not in (2, 3) or flows.shape[-1] != flows.shape[-2]:
        raise DimensionMismatch(f"flows must be square, got {flows.shape}")
    _check_flows(flows)

    if method == "symmetrize":
        return 0.5 * (flows + np.swapaxes(flows, -1, -2))
    if method != "scale":
        raise ValidationError(f"unknown balance method {method!r}")

    stack = flows.reshape(math.prod(flows.shape[:-2]), *flows.shape[-2:])
    # D^-1 F D keeps the zero pattern, and it balances exactly iff each weak
    # component of the pattern is strongly connected; where a root's forward
    # and backward reach agree, they are its whole weak component
    for pattern in stack > 0:
        unseen = np.ones(len(pattern), dtype=bool)
        while unseen.any():
            root = int(np.argmax(unseen))
            forward = _reach(pattern, root)
            one_way = forward ^ _reach(pattern.T, root)
            if one_way.any():
                raise NoConvergence(
                    f"node index {np.argmax(one_way)} and node index {root} are joined one "
                    "way only, so no diagonal scaling balances the flows"
                )
            unseen &= ~forward
    return _newton(stack).reshape(flows.shape)


def _worst_imbalance(stack: np.ndarray) -> np.ndarray:
    """Largest relative imbalance of :func:`_imbalance` per matrix."""
    return _imbalance(stack.sum(axis=-2), stack.sum(axis=-1)).max(axis=-1, initial=0.0)


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
        # done at the rounding floor, or once it stops falling
        keep = (better & (rel > rounding)) | (lowest[todo] == np.inf)
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


def _reach(adjacency: np.ndarray, start: int) -> np.ndarray:
    """Mask of the nodes reachable from start over the edges j -> i for which
    adjacency[i, j] is truthy, by a breadth-first frontier search."""
    seen = frontier = np.arange(len(adjacency)) == start
    while frontier.any():
        frontier = adjacency[:, frontier].any(axis=1) & ~seen
        seen |= frontier
    return seen


def _digraph_strongly_connected(adjacency: np.ndarray) -> bool:
    """adjacency[i, j] truthy means an edge j -> i exists."""
    return bool(_reach(adjacency, 0).all() and _reach(adjacency.T, 0).all())


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
        raise WindowLargerThanSchedule(f"window K={k} exceeds the {m}-period schedule")
    edges = [net.routing > 0 for _, net in schedule.periods]
    return all(_digraph_strongly_connected(np.logical_or.reduce(edges[start : start + k]))
               for start in range(m - k + 1))


def perturb_flows_balanced(network: FlowNetwork, theta, tol: float = 1e-10) -> FlowNetwork:
    """Shift outflow fractions by theta while keeping flows balanced.

    theta must keep gamma nonnegative, be 0 at every node whose routing
    column is all zero, and satisfy the balance identity
    ``theta_i = sum_j (N_j/N_i) routing[i, j] theta_j`` within
    ``tol * max(1, max|theta|)``, a bound relative to theta's size, so that
    theta = c * gamma passes at any scale c; routing is kept as-is, so the
    flows derived from it and gamma + theta stay balanced. The coupling is
    derived from the routing when it is read, so total population is
    conserved, as for every network from build_network.
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
    stranded = np.flatnonzero((theta != 0) & ~network.routing.any(axis=0))
    if len(stranded):
        raise PerturbationUnbalanced(
            f"theta must be 0 at node {network.node_ids[stranded[0]]!r}, which routes nowhere")
    pops = network.populations
    propagated = network.routing @ (pops * theta) / pops
    residual = float(np.abs(theta - propagated).max())
    bound = tol * max(1.0, float(np.abs(theta).max(initial=0.0)))
    if residual > bound:
        raise PerturbationUnbalanced(
            f"theta violates the balance identity by {residual:.3e} "
            f"(bound {bound:.3e}, tol {tol:.0e})"
        )
    return _network(network.node_ids, pops, new_gamma, network.routing)
