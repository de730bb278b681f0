"""Effective distance on mobility graphs and arrival-time forecasting.

A hop from node j to node i costs -log w_ij, so a path's length is the
negative log of its probability and the shortest path is the most probable
one. Arrival times grow close to linearly in this distance, which the
shifting-window predictor exploits by refitting the line on recent arrivals.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateFit,
    DimensionMismatch,
    EmptyInfectedSet,
    InsufficientArrivals,
    NoOverlap,
    ValidationError,
)
from .network import FlowNetwork, NetworkSchedule

EPS_SHIFT = 1.0  # one sampling interval of margin past the latest arrival


@dataclass(frozen=True)
class DistanceGraph:
    """Edge matrix d[i, j] = cost of the hop j -> i (inf where absent)."""

    d: np.ndarray

    @property
    def n(self) -> int:
        return self.d.shape[0]


@dataclass(frozen=True)
class InfectedSet:
    """Nodes whose infection signal exceeds the threshold.

    threshold is None when the set was reconstructed from arrival history
    rather than from an instantaneous state.
    """

    members: frozenset[int]
    threshold: float | None = None

    @classmethod
    def from_state(cls, state, threshold: float) -> "InfectedSet":
        members = frozenset(int(i) for i in np.nonzero(state.x > threshold)[0])
        return cls(members=members, threshold=threshold)


@dataclass(frozen=True, order=True)
class ArrivalRecord:
    arrival_time: float
    node: int


@dataclass(frozen=True)
class ArrivalForecast:
    """Predicted arrival times for the not-yet-infected nodes.

    predictions holds (node, predicted_time, effective_distance) triples;
    fit is (slope, intercept, shift); window is (tau, T_{k-tau}, T_k).
    degenerate marks a flat fallback fit (all training distances equal).
    """

    predictions: tuple[tuple[int, float, float], ...]
    fit: tuple[float, float, float]
    window: tuple[int, float, float]
    degenerate: bool = False

    def predicted(self) -> dict[int, float]:
        return {node: t for node, t, _ in self.predictions}

    def to_dict(self) -> dict:
        slope, intercept, shift = self.fit
        tau, t_base, t_now = self.window
        return {
            "predictions": [
                {"node": n, "predicted_time": t, "effective_distance": d}
                for n, t, d in self.predictions
            ],
            "fit": {"slope": slope, "intercept": intercept, "shift": shift},
            "window": {"tau": tau, "t_start": t_base, "t_now": t_now},
            "degenerate": self.degenerate,
        }


def _hop_costs(weights: np.ndarray) -> np.ndarray:
    """Overwrite a fresh square array of hop weights, a row per hop origin,
    with the hop costs: 0 on the diagonal, -log w where w > 0, inf otherwise."""
    with np.errstate(divide="ignore"):
        np.log(weights, out=weights)
    np.subtract(0.0, weights, out=weights)  # 0.0 - keeps -log 1 at +0.0
    np.fill_diagonal(weights, 0.0)
    return weights


def log_distance_graph(network: FlowNetwork) -> DistanceGraph:
    """One-step costs: 0 on the diagonal, -log w where w > 0, inf otherwise.

    d.T is C-contiguous, a row per hop origin, as the Dijkstra relaxes it."""
    return DistanceGraph(d=_hop_costs(network.routing.T.copy()).T)


def _shortest_paths(cost: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """Label-setting Dijkstra over the dense costs cost[u, v] >= 0 of the
    hops u -> v (inf where there is none), a C-contiguous row per hop origin.

    dist holds the start labels and is lowered in place to the distances.
    cost is the caller's own block: its diagonal is set to inf, since a node
    has no hop to itself, so the column minimum into[v] is the cheapest hop
    into v from another node.

    Each round settles every open label that no open node can still lower
    (Crauser, Mehlhorn, Meyer & Sanders, MFCS 1998). With low the smallest
    open label, every later offer to v is at least low + into[v], because
    IEEE addition is monotone. So a round settles each open v with
    dist[v] <= low + into[v], which an offer can at best tie, and relaxes
    their rows in a few numpy calls. Offers to settled nodes never undercut
    them either, and min is exact, so the distances keep the bits and the
    signs of zero of settling one label per step. A round settles at least
    the smallest open label, and the loop ends once that label is inf.
    """
    np.fill_diagonal(cost, np.inf)
    into = cost.min(axis=0, initial=np.inf)
    open_ = np.arange(len(dist))
    for _ in range(len(dist)):
        labels = dist[open_]
        low = labels.min(initial=np.inf)
        if low == np.inf:
            break
        done = labels <= low + into[open_]
        offers = cost[open_[done]]
        offers += labels[done, None]
        np.minimum(dist, offers.min(axis=0), out=dist)
        open_ = open_[~done]
    return dist


def effective_distance_from(graph: DistanceGraph, source: int) -> np.ndarray:
    """Distances D[i] of every node i from the source (edges run j -> i,
    so this follows travel direction; unreachable nodes get inf)."""
    if not 0 <= source < graph.n:
        raise ValidationError(f"source {source} out of range for n={graph.n}")
    dist = np.full(graph.n, np.inf)
    dist[source] = 0.0
    return _shortest_paths(graph.d.T.copy(), dist)  # a copy: graph.d stays as it is


def group_effective_distance(network: FlowNetwork, infected: InfectedSet) -> np.ndarray:
    """Distance of every node from the infected group as a whole.

    Hops out of the group use the population-weighted aggregate probability
    w~_i = sum_{j in group} N_j w_ij / sum_{j in group} N_j; hops landing in
    the group are free; hops between outside nodes keep their -log w cost.
    Group members report distance 0.

    A hop into the group cannot lower a label, so the search runs on the m
    outside nodes alone, O(m^2), starting from the labels -log w~_i.
    """
    if not infected.members:
        raise EmptyInfectedSet("infected set has no members")
    n = network.n
    for m in infected.members:
        if isinstance(m, bool) or not isinstance(m, (int, np.integer)):
            raise ValidationError(f"infected set member {m!r} is not a node index")
    members = sorted(infected.members)
    if members[0] < 0 or members[-1] >= n:
        raise ValidationError("infected set contains out-of-range nodes")
    mask = np.zeros(n, dtype=bool)
    mask[members] = True
    out = np.flatnonzero(~mask)

    rows = network.routing[out]  # a row per outside node, C-contiguous
    pops = network.populations[mask]
    # numpy sums each row of this Fortran-ordered block member after member,
    # in index order, whatever m is; a lone row is contiguous, which numpy
    # would sum pairwise, so it is accumulated in that order instead
    exits = rows[:, mask] * pops
    if len(out) == 1:
        exits = np.add.accumulate(exits, axis=1)[:, -1:]
    w_group = exits.sum(axis=1) / pops.sum()
    cost = _hop_costs(rows.T[out])  # a row per outside hop origin
    del rows, exits  # the search needs only the m x m block
    with np.errstate(divide="ignore"):
        start = 0.0 - np.log(w_group)  # 0.0 - keeps -log 1 at +0.0
    dist = np.zeros(n)
    dist[out] = _shortest_paths(cost, start)
    return dist


def arrival_times(times, signal, threshold: float) -> list[ArrivalRecord]:
    """First time each node's signal strictly exceeds the threshold.

    signal has shape (T, n). Nodes that never cross are omitted; results are
    sorted by arrival time with ties broken by node index. The threshold must
    be finite.
    """
    if not np.isfinite(threshold):
        raise ValidationError(f"threshold must be finite, got {threshold}")
    times = np.asarray(times, dtype=float)
    signal = np.asarray(signal, dtype=float)
    if signal.ndim != 2 or signal.shape[0] != len(times):
        raise DimensionMismatch(
            f"signal shape {signal.shape} does not match {len(times)} times"
        )
    crossed = signal > threshold
    nodes = np.flatnonzero(crossed.any(axis=0))
    if not len(nodes):
        return []
    first = times[crossed.argmax(axis=0)[nodes]]
    return sorted(map(ArrivalRecord, first.tolist(), nodes.tolist()))


def _ols_line(xs: np.ndarray, ys: np.ndarray) -> tuple[float, float]:
    a = np.column_stack([xs, np.ones_like(xs)])
    coef, *_ = np.linalg.lstsq(a, ys, rcond=None)
    return float(coef[0]), float(coef[1])


def sliding_window_predict(
    arrivals: list[ArrivalRecord],
    schedule: NetworkSchedule,
    tau: int,
    at_arrival_index: int,
) -> ArrivalForecast:
    """Forecast the remaining nodes' arrival times at the k-th arrival.

    Training pairs are the tau most recent arrivals with their distances to
    the infected group as it stood at T_{k-tau}; predictions use distances
    to the group at T_k plus a shift keeping every prediction past T_k.
    """
    return next(_forecast_sweep(arrivals, schedule, tau, [at_arrival_index]))


def _forecast_sweep(
    arrivals: list[ArrivalRecord], schedule: NetworkSchedule, tau: int, indices
):
    """Yield sliding_window_predict's forecast at each arrival index k in
    indices.

    The group at T_j is the arrival prefix arrivals[: j + 1], on the network
    in force at T_j, so the distances k trains on are those k - tau predicted
    from. Each prefix's distances are kept while a larger index can use
    them, at most tau + 1 vectors, so ascending indices compute each prefix
    once.
    """
    if tau < 2:
        raise ValidationError("tau must be at least 2 to fit a line")
    kept: dict[int, np.ndarray] = {}
    for k in indices:
        if k >= len(arrivals):
            raise InsufficientArrivals(
                f"arrival index {k} out of range for {len(arrivals)} arrivals"
            )
        if k < tau:
            raise InsufficientArrivals(
                f"need more than tau={tau} arrivals before predicting (index {k})"
            )
        for j in (k - tau, k):
            if j not in kept:
                group = InfectedSet(members=frozenset(a.node for a in arrivals[: j + 1]))
                net = schedule.network_at(arrivals[j].arrival_time, clamp=True)
                kept[j] = group_effective_distance(net, group)
        dist_then, dist_now = kept[k - tau], kept[k]
        t_base = arrivals[k - tau].arrival_time
        t_now = arrivals[k].arrival_time

        train = arrivals[k - tau + 1 : k + 1]
        xs = np.array([dist_then[a.node] for a in train])
        ys = np.array([a.arrival_time for a in train])
        usable = np.isfinite(xs)

        degenerate = bool(usable.sum() < 2 or xs[usable].std() < 1e-12)
        if degenerate:
            # flat fallback: every remaining node is due one mean arrival gap out
            mean_gap = float(np.mean(np.diff(ys)))
            slope, intercept = 0.0, t_now + mean_gap
        else:
            slope, intercept = _ols_line(xs[usable], ys[usable])

        reachable = np.isfinite(dist_now)
        reachable[[a.node for a in arrivals[: k + 1]]] = False
        nodes = np.flatnonzero(reachable)
        raw = slope * dist_now[nodes] + intercept
        shift = max(0.0, t_now + EPS_SHIFT - float(raw.min())) if len(nodes) else 0.0
        predictions = tuple(zip(nodes.tolist(), (raw + shift).tolist(), dist_now[nodes].tolist()))
        yield ArrivalForecast(
            predictions=predictions,
            fit=(slope, intercept, shift),
            window=(tau, t_base, t_now),
            degenerate=degenerate,
        )
        for j in [j for j in kept if j <= k - tau]:
            del kept[j]  # the next index trains on prefixes past k - tau


def prediction_rms(predicted, actual) -> float:
    """Root-mean-square gap between predicted and actual arrival times,
    taken over the nodes present in both mappings."""
    common = sorted(set(predicted) & set(actual))
    if not common:
        raise NoOverlap("no nodes are shared between predicted and actual")
    gaps = np.array([predicted[i] - actual[i] for i in common])
    return float(np.sqrt(np.mean(gaps**2)))


@dataclass(frozen=True)
class FullFitResult:
    slope: float
    intercept: float
    rms: float
    r_value: float

    def to_dict(self) -> dict:
        return {"slope": self.slope, "intercept": self.intercept,
                "rms": self.rms, "r_value": self.r_value}


def full_fit_baseline(arrivals: list[ArrivalRecord], origin_distances) -> FullFitResult:
    """Single line through every (distance-from-origin, arrival-time) pair.

    This is the after-the-fact baseline the shifting window is compared
    against; also reports the correlation coefficient R of the pairs.
    """
    origin_distances = np.asarray(origin_distances, dtype=float)
    pairs = [
        (float(origin_distances[a.node]), a.arrival_time)
        for a in arrivals
        if np.isfinite(origin_distances[a.node])
    ]
    if len(pairs) < 2:
        raise ValidationError("need at least two arrivals with finite distances")
    xs = np.array([p[0] for p in pairs])
    ys = np.array([p[1] for p in pairs])
    if xs.std() < 1e-12:
        raise DegenerateFit("all origin distances are equal; no line to fit")
    slope, intercept = _ols_line(xs, ys)
    resid = slope * xs + intercept - ys
    rms = float(np.sqrt(np.mean(resid**2)))
    if ys.std() < 1e-12:
        r = 0.0
    else:
        r = float(np.corrcoef(xs, ys)[0, 1])
    return FullFitResult(slope=slope, intercept=intercept, rms=rms, r_value=r)
