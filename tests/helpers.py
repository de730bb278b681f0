"""Shared generators and brute-force oracles for the test suite."""
from __future__ import annotations

import csv
import dataclasses
import datetime
import heapq
import inspect
import math
import tracemalloc
from bisect import bisect_right
from itertools import accumulate
from unittest import mock

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st

from epiflows import (
    EpidemicParams,
    SystemState,
    balance_flows,
    build_network,
    sliding_window_predict,
)
from epiflows._csvio import cell
from epiflows.dynamics import _check_simplex, _Kernel, _settle_onto_simplex
from epiflows.errors import (
    DimensionMismatch,
    EmptySchedule,
    NoConvergence,
    ParseError,
    UnknownNode,
    ValidationError,
)
from epiflows.estimation import RANK_RATIO_TOL
from epiflows.network import (
    SCALE_BALANCE_TOL,
    NetworkSchedule,
    _worst_imbalance,
    as_schedule,
)

# property tests draw the same examples on every run
PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


def random_balanced_network(rng, n, scale=50.0):
    """Dense symmetric flows: exactly balanced and strongly connected."""
    populations = rng.uniform(1e3, 1e5, n)
    flows = rng.uniform(0.1, 1.0, (n, n)) * scale
    flows = 0.5 * (flows + flows.T)
    np.fill_diagonal(flows, 0.0)
    return build_network([f"n{i}" for i in range(n)], populations, flows)


def random_params(rng, n, lo=0.05, hi=1.0):
    return EpidemicParams(
        alpha=rng.uniform(lo, hi, n),
        beta=rng.uniform(lo, hi, n),
        sigma=rng.uniform(lo, hi, n),
        delta=rng.uniform(lo, hi, n),
    )


def random_state(rng, n):
    return SystemState.from_matrix(rng.dirichlet(np.ones(4), size=n).T.copy())


def reachable_closure(adjacency):
    """Transitive closure by repeated boolean matrix powers."""
    n = adjacency.shape[0]
    reach = adjacency.copy()
    np.fill_diagonal(reach, True)
    for _ in range(n):
        new = reach | (reach @ reach)
        if np.array_equal(new, reach):
            break
        reach = new
    return reach


def strongly_connected_oracle(adjacency):
    reach = reachable_closure(adjacency.astype(bool))
    return bool(reach.all())


def shortest_paths_by_enumeration(d, source):
    """Min cost over all simple paths, edge j -> i costing d[i, j]."""
    n = d.shape[0]
    best = np.full(n, np.inf)
    best[source] = 0.0
    succ = [np.nonzero(np.isfinite(d[:, j]))[0].tolist() for j in range(n)]

    def walk(node, cost, visited):
        for nxt in succ[node]:
            if nxt == node or nxt in visited:
                continue
            c = cost + d[nxt, node]
            if c < best[nxt]:
                best[nxt] = c
            walk(nxt, c, visited | {nxt})

    walk(source, 0.0, {source})
    return best


def shortest_paths_by_heap(d, sources):
    """Label-setting Dijkstra over edge costs d[i, j] (hop j -> i), from
    sources given as (node, starting distance) pairs. Heap entries are
    (distance, node), so equal distances settle in node order."""
    n = d.shape[0]
    dist = np.full(n, np.inf)
    heap = []
    for node, d0 in sources:
        if d0 < dist[node]:
            dist[node] = d0
            heapq.heappush(heap, (d0, node))
    finite_cols = [np.nonzero(np.isfinite(d[:, j]))[0] for j in range(n)]
    while heap:
        du, u = heapq.heappop(heap)
        if du > dist[u]:
            continue
        for v in finite_cols[u]:
            if v == u:
                continue
            dv = du + d[v, u]
            if dv < dist[v]:
                dist[v] = dv
                heapq.heappush(heap, (dv, int(v)))
    return dist


def shortest_paths_one_at_a_time(cost, dist):
    """The dense Dijkstra as it ran before it settled labels in rounds:
    each step settles the smallest open label and relaxes its row of
    cost[u, v], the cost of the hop u -> v. dist is lowered in place."""
    closed = np.zeros_like(dist)
    pending = np.empty_like(dist)
    for _ in range(len(dist)):
        u = np.add(dist, closed, out=pending).argmin()
        if pending[u] == np.inf:
            break
        closed[u] = np.inf
        np.minimum(dist, dist[u] + cost[u], out=dist)
    return dist


def shortest_paths_by_csgraph(hops, costs, source):
    """scipy's csgraph Dijkstra from source (inf where unreachable) over the
    hops u -> v for which hops[u, v] is true; costs holds their nonnegative
    costs in the row-major order of hops.

    Every hop goes in as an explicit sparse entry: a csr_matrix made from a
    dense matrix would drop the zero-cost hops.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    size = hops.shape[0]
    indptr = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(hops.sum(axis=1), out=indptr[1:])
    heads = np.broadcast_to(np.arange(size), hops.shape)[hops]
    graph = csr_matrix((costs, heads, indptr), shape=hops.shape)
    return dijkstra(graph, directed=True, indices=source)


def distance_from_by_csgraph(d, source):
    """Single-source distances over edge costs d[i, j] (hop j -> i) by csgraph."""
    cost = d.T  # a row per hop origin
    hops = np.isfinite(cost)
    np.fill_diagonal(hops, False)
    return shortest_paths_by_csgraph(hops, cost[hops], source)


def group_distance_by_csgraph(network, members):
    """Group distances by csgraph, with a virtual super-source, node n, that
    stands for the group: it hops to each outside node i at cost -log w~_i,
    and the hops between outside nodes keep their -log w cost."""
    n = network.n
    mask = np.zeros(n, dtype=bool)
    mask[sorted(members)] = True
    pops = network.populations
    w_group = (network.routing[:, mask] * pops[mask]).sum(axis=1) / pops[mask].sum()
    outside = ~mask
    routing = network.routing.T  # a row per hop origin
    hops = np.zeros((n + 1, n + 1), dtype=bool)
    hops[:n, :n] = (routing > 0) & outside[:, None] & outside[None, :]
    np.fill_diagonal(hops, False)
    hops[n, :n] = outside & (w_group > 0)
    weights = np.concatenate([routing[hops[:n, :n]], w_group[hops[n, :n]]])
    dist = shortest_paths_by_csgraph(hops, -np.log(weights), n)[:n]
    dist[mask] = 0.0
    return dist


def group_distance_by_full_matrix(network, members):
    """The group distance the library computed before its search ran on the
    outside nodes alone: -log of the whole routing, and a Dijkstra over all
    n nodes with the members settled at 0 and never relaxed from."""
    n = network.n
    mask = np.zeros(n, dtype=bool)
    mask[sorted(members)] = True
    pops = network.populations
    w_group = (network.routing[:, mask] * pops[mask]).sum(axis=1) / pops[mask].sum()
    with np.errstate(divide="ignore"):
        dist = 0.0 - np.log(w_group)
        cost = 0.0 - np.log(network.routing.T, order="C")  # a row per hop origin
    np.fill_diagonal(cost, 0.0)
    dist[mask] = 0.0
    closed = np.where(mask, np.inf, 0.0)
    pending = np.empty_like(dist)
    for _ in range(n):
        u = np.add(dist, closed, out=pending).argmin()
        if pending[u] == np.inf:
            break
        closed[u] = np.inf
        np.minimum(dist, dist[u] + cost[u], out=dist)
    return dist


def forecasts_by_index(arrivals, schedule, tau, indices):
    """The forecasts cmd_predict made before the sweep: one
    sliding_window_predict call, with both of its group distances, per index."""
    return (sliding_window_predict(arrivals, schedule, tau, k) for k in indices)


def routing_by_masked_divide(flows):
    """Routing as zeros with each column that has outflow divided by it."""
    outflow = flows.sum(axis=0)
    routing = np.zeros_like(flows)
    active = outflow > 0
    routing[:, active] = flows[:, active] / outflow[active]
    return routing


def coupling_by_formula(populations, routing, gamma):
    """Phi[i, j] = routing[i, j] gamma_j N_j / N_i."""
    return (1.0 / populations)[:, None] * routing * (gamma * populations)[None, :]


def with_input_flows(module, make, *args):
    """make(*args)'s value and the flows given to the last build_network call
    it made through ``module``, as the float array build_network read."""
    with mock.patch.object(module, "build_network", wraps=build_network) as spy:
        made = make(*args)
    call = inspect.signature(build_network).bind(*spy.call_args.args, **spy.call_args.kwargs)
    return made, np.asarray(call.arguments["flows"], dtype=float)


def perturbed_by_formula(network, theta):
    """(flows, gamma, coupling) after shifting gamma by theta at fixed routing."""
    gamma = network.gamma + theta
    flows = network.routing * (gamma * network.populations)[None, :]
    return flows, gamma, coupling_by_formula(network.populations, network.routing, gamma)


def raw_flow_derivative(state, params, network):
    """Compartment rates computed per node straight from raw flows,
    independently of the coupling-matrix formulation."""
    n = network.n
    flows, pops = network.flows, network.populations
    out = np.zeros((4, n))
    m = state.as_matrix()
    for i in range(n):
        s, e, x, r = m[:, i]
        travel = np.zeros(4)
        for j in range(n):
            if j == i:
                continue
            travel += (flows[i, j] * m[:, j] - flows[j, i] * m[:, i]) / pops[i]
        out[0, i] = params.alpha[i] * r - params.beta[i] * x * s + travel[0]
        out[1, i] = params.beta[i] * x * s - params.sigma[i] * e + travel[1]
        out[2, i] = params.sigma[i] * e - params.delta[i] * x + travel[2]
        out[3, i] = params.delta[i] * x - params.alpha[i] * r + travel[3]
    return out


def dense_operator(params, network):
    """The 4n x 4n linear part of the dynamics on the stacked state
    [s; e; x; r], with Phi written out once per compartment."""
    n = network.n
    g = np.diag(network.gamma)
    phi = network.coupling
    a, sg, d = np.diag(params.alpha), np.diag(params.sigma), np.diag(params.delta)
    z = np.zeros((n, n))
    return np.block(
        [
            [phi - g, z, z, a],
            [z, phi - sg - g, z, z],
            [z, sg, phi - d - g, z],
            [z, z, d, phi - a - g],
        ]
    )


def dense_rates(params, network, m):
    """Rates of the (4, n) state m: dense_operator @ m plus the infection term."""
    out = (dense_operator(params, network) @ m.reshape(-1)).reshape(m.shape)
    infection = params.beta * m[2] * m[0]
    out[0] -= infection
    out[1] += infection
    return out


def u_matrix_by_blocks(params, network):
    """U assembled block by block, Phi written out per block."""
    phi = network.coupling
    g = np.diag(network.gamma)
    return np.block(
        [
            [phi - np.diag(params.sigma) - g, np.diag(params.beta)],
            [np.diag(params.sigma), phi - np.diag(params.delta) - g],
        ]
    )


def healthy_jacobian_by_blocks(params, network):
    """The (e, x, r) healthy-state Jacobian assembled block by block."""
    n = network.n
    phi = network.coupling
    g = np.diag(network.gamma)
    z = np.zeros((n, n))
    return np.block(
        [
            [phi - np.diag(params.sigma) - g, np.diag(params.beta), z],
            [np.diag(params.sigma), phi - np.diag(params.delta) - g, z],
            [z, np.diag(params.delta), phi - np.diag(params.alpha) - g],
        ]
    )


def q_and_m_by_blocks(state, params, network):
    """(Q, M) of the full 4n dynamics assembled block by block."""
    n = network.n
    bx = params.beta * state.x
    g = network.gamma
    Q = np.diag(
        np.concatenate([bx + g, params.sigma + g, params.delta + g, params.alpha + g])
    )
    phi = network.coupling
    z = np.zeros((n, n))
    M = np.block(
        [
            [phi, z, z, np.diag(params.alpha)],
            [np.diag(bx), phi, z, z],
            [z, np.diag(params.sigma), phi, z],
            [z, z, np.diag(params.delta), phi],
        ]
    )
    return Q, M


def network_by_bisect(schedule, t, clamp=False):
    """The network in force at time t by one bisect_right over the period
    ends: the per-time lookup NetworkSchedule made before it searched all
    times at once. Raises what NetworkSchedule._runs raises for t."""
    if t < 0:
        raise ValidationError(f"time {t} is before the schedule start")
    ends = list(accumulate(d for d, _ in schedule.periods))
    k = bisect_right(ends, t)
    if k < len(schedule.periods):
        return schedule.periods[k][1]
    if clamp:
        return schedule.periods[-1][1]
    raise ValidationError(f"time {t} exceeds schedule coverage {ends[-1]}")


def integrate_by_steps(state0, params, schedule, t_end, step=0.01):
    """The RK4 loop integrate ran before it stepped in place: a fresh array
    per operation and _settle_onto_simplex after every step. Returns
    (times, data) and raises what integrate raises."""
    schedule = as_schedule(schedule)
    if not (state0.n == params.n == schedule.periods[0][1].n):
        raise DimensionMismatch("state, params and network must share one node count")
    if not 0.0 < step < math.inf:
        raise ValidationError("step must be finite and positive")
    if not 0.0 <= t_end < math.inf:
        raise ValidationError("t_end must be finite and nonnegative")
    if t_end > schedule.total_duration:
        raise ValidationError(f"schedule covers [0, {schedule.total_duration}] but t_end={t_end}")
    periods, start = [], 0.0
    for duration, net in schedule.periods:
        if start >= t_end:
            break
        end = min(start + duration, t_end)
        tol = 1e-12 * max(1.0, end)
        if start < end - tol:
            grid = start + step * np.arange(1, math.ceil((end - start) / step) + 1)
            grid = np.append(grid[grid < end - tol], end)
            sizes = np.diff(grid, prepend=start)
            sizes[:-1] = step
            periods.append((net, grid, sizes))
        start = end
    times = np.concatenate([[0.0], *(grid for _, grid, _ in periods)])
    data = np.empty((len(times), 4, state0.n))
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
    _check_simplex(data, "trajectory")
    return times, data


def osborne_balance(stack, max_sweeps=10_000):
    """D^-1 F D for each matrix F of a (P, n, n) stack by Osborne's
    Gauss-Seidel node sweeps (Osborne 1960; Parlett and Reinsch 1969), the
    scaling balance_flows used before its Newton steps: the worst relative
    imbalance must drop below 1e-10 within max_sweeps, sweeping then goes on
    while it still falls, and the lowest one's scaling is returned."""
    d = np.ones(stack.shape[:2])
    lowest = np.full(len(d), np.inf)
    balanced = np.empty_like(stack)
    # a node without flows gets d = sqrt((0 + 1) / (0 + 1)); the others add 0
    isolated = (stack.sum(axis=1) == 0).astype(float)
    cols = np.ascontiguousarray(stack.transpose(0, 2, 1))  # cols[p, j] is column j
    todo = np.arange(len(d))
    for _ in range(max_sweeps):
        scaled = (1.0 / d[todo])[:, :, None] * stack[todo] * d[todo][:, None, :]
        rel = _worst_imbalance(scaled)
        better = (rel < SCALE_BALANCE_TOL) & (rel < lowest[todo])
        lowest[todo[better]] = rel[better]
        balanced[todo[better]] = scaled[better]
        todo = todo[better | (lowest[todo] == np.inf)]  # done once it stops falling
        if not len(todo):
            return balanced
        # rows and columns as (1, n) matrices against d and 1/d as (n, 1)
        rows, columns = stack[todo][:, :, None, :], cols[todo][:, :, None, :]
        dd, skip = d[todo], isolated[todo]
        inv_d = 1.0 / dd
        for j in range(dd.shape[1]):
            inflow = np.matmul(rows[:, j], dd[:, :, None])[:, 0, 0] + skip[:, j]
            outflow = np.matmul(columns[:, j], inv_d[:, :, None])[:, 0, 0] + skip[:, j]
            dd[:, j] = np.sqrt(inflow / outflow)
            inv_d[:, j] = 1.0 / dd[:, j]
        d[todo] = dd
    if np.all(lowest < np.inf):
        return balanced
    raise NoConvergence(f"Osborne sweeps did not reach 1e-10 within {max_sweeps} sweeps")


def loosely_balanced(network, rng, rel=1e-7):
    """The network with every flow scaled by an independent factor within
    1 +- rel, so node balance holds only to about rel (build_network accepts
    1e-6)."""
    flows = network.flows * (1.0 + rel * rng.uniform(-1.0, 1.0, network.flows.shape))
    return build_network(network.node_ids, network.populations, flows)


def leaky_outflows(network, column=0, rel=1e-7):
    """The network with one routing column scaled by 1 + rel, so the coupling
    derived from it carries (1 + rel) gamma_j N_j out of that node: total
    population is not conserved, and s(M - Q) moves off 0 by about
    rel * gamma_j. A network derives its coupling from routing and gamma,
    so a routing column off 1 is the only way it can leak."""
    routing = network.routing.copy()
    routing[:, column] *= 1.0 + rel
    return dataclasses.replace(network, routing=routing)


def matched_distance(a, b):
    """Largest distance between paired points of two equal-size complex sets,
    under the pairing that minimises the total distance."""
    from scipy.optimize import linear_sum_assignment

    gaps = np.abs(np.reshape(a, (-1, 1)) - np.reshape(b, (1, -1)))
    rows, cols = linear_sum_assignment(gaps)
    return float(gaps[rows, cols].max())


@st.composite
def balanced_systems(draw, periods=1, max_n=30):
    """(networks, params, state) on n from 1 to max_n nodes: ``periods``
    networks with random symmetric (so balanced) flows over shared ids and
    populations, in which a drawn set of nodes has no outflow at all."""
    n = draw(st.integers(1, max_n))
    silent = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    populations = rng.uniform(1e3, 1e5, n)
    networks = []
    for _ in range(periods):
        flows = rng.uniform(0.1, 1.0, (n, n)) * 50.0
        flows = 0.5 * (flows + flows.T)
        np.fill_diagonal(flows, 0.0)
        flows[silent] = 0.0
        flows[:, silent] = 0.0
        networks.append(build_network([f"n{i}" for i in range(n)], populations, flows))
    return networks, random_params(rng, n), random_state(rng, n)


@st.composite
def balanceable_stacks(draw, max_sigma=2.0):
    """(P, n, n) stacks of unbalanced flows that a diagonal similarity can
    balance. Each matrix leaves up to two nodes isolated and splits the rest
    into one to three weak components, in its own node order. A component is
    strongly connected by a cycle plus random chords; with two nodes it is
    the cycle a -> b -> a with unequal flows. Entries are log-normal."""
    sizes = draw(st.lists(st.integers(2, 5), min_size=1, max_size=3))
    isolated = draw(st.integers(0, 2))
    n, periods = sum(sizes) + isolated, draw(st.integers(1, 3))
    sigma = draw(st.floats(0.0, max_sigma))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = np.zeros((periods, n, n))
    for flows in stack:
        order = rng.permutation(n)
        for part in np.split(order[isolated:], np.cumsum(sizes)[:-1]):
            m = len(part)
            block = rng.lognormal(0.0, sigma, (m, m)) * (rng.random((m, m)) < 0.4)
            block[np.roll(np.arange(m), 1), np.arange(m)] = rng.lognormal(0.0, sigma, m)
            np.fill_diagonal(block, 0.0)
            flows[np.ix_(part, part)] = block
    return stack


def regression_by_phi_rows(series, node):
    """(Psi, delta) of one node, its travel terms taken as the node's row of
    Phi times the state, step by step."""
    h, q, t = series.h, series.data, series.steps
    delta = np.empty((4, t))
    for k in range(t):
        net = series.schedule.network_at(series.times[k])
        travel = h * (net.gamma[node] * q[k, :, node] - q[k] @ net.coupling[node])
        delta[:, k] = q[k + 1, :, node] - q[k, :, node] + travel
    s, e, x, r = (q[:-1, c, node] for c in range(4))
    sx = s * x
    zero = np.zeros(t)
    psi = h * np.block(
        [
            [np.column_stack([-sx, zero, zero, r])],
            [np.column_stack([sx, -e, zero, zero])],
            [np.column_stack([zero, e, -x, zero])],
            [np.column_stack([zero, zero, x, -r])],
        ]
    )
    return psi, delta.reshape(-1)


def fit_by_node(psi, delta, solver):
    """The per-node fit the stacked QR fit replaced: (theta, residual norm,
    identifiable, condition number) of one system, from lstsq or
    scipy.optimize.nnls and the singular values of Psi itself."""
    if solver == "pseudo_inverse":
        theta, *_ = np.linalg.lstsq(psi, delta, rcond=None)
    else:
        import scipy.optimize

        theta, _ = scipy.optimize.nnls(psi, delta)
    sv = np.linalg.svd(psi, compute_uv=False)
    if sv.max() == 0.0:
        identifiable, cond = False, np.inf
    else:
        identifiable = bool(sv.min() / sv.max() >= RANK_RATIO_TOL)
        cond = float(sv.max() / sv.min()) if sv.min() > 0 else np.inf
    return theta, float(np.linalg.norm(psi @ theta - delta)), identifiable, cond


def all_pairs_by_enumeration(d):
    return np.stack(
        [shortest_paths_by_enumeration(d, j) for j in range(d.shape[0])], axis=1
    )


def random_irreducible_nonneg(rng, n, density=0.4):
    """Nonnegative matrix whose digraph contains a spanning cycle."""
    m = rng.uniform(0.0, 2.0, (n, n)) * (rng.random((n, n)) < density)
    for j in range(n):
        m[(j + 1) % n, j] = rng.uniform(0.5, 2.0)
    return m


def window_sums_by_rows(path, node_ids, aggregation_days=7):
    """Flow-file window sums by the csv.DictReader row loop the column
    reader replaced: (sums (P, n, n), spans (P,)), with its errors and
    ``path:line`` messages."""
    index = {nid: i for i, nid in enumerate(node_ids)}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        required = {"date", "from_id", "to_id", "trips"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ParseError(f"{path}: expected header with columns {sorted(required)}")
        entries = []
        for lineno, row in enumerate(reader, start=2):
            where = f"{path}:{lineno}"
            try:
                date = datetime.date.fromisoformat(row["date"])
            except (TypeError, ValueError) as exc:
                raise ParseError(f"{where}: bad ISO date {row['date']!r}") from exc
            for key in ("from_id", "to_id"):
                if row[key] not in index:
                    raise UnknownNode(f"{where}: unknown node {row[key]!r}")
            try:
                trips = float(row["trips"])
            except (TypeError, ValueError) as exc:
                raise ParseError(f"{where}: bad trips value {row['trips']!r}") from exc
            if not math.isfinite(trips):
                raise ParseError(f"{where}: bad trips value {row['trips']!r}")
            if trips < 0:
                raise ParseError(f"{where}: trips must be nonnegative")
            src, dst = index[row["from_id"]], index[row["to_id"]]
            if src != dst:
                entries.append((date, src, dst, trips))
    if not entries:
        raise EmptySchedule(f"{path}: no usable flow rows")
    n = len(node_ids)
    first = min(e[0] for e in entries)
    last = max(e[0] for e in entries)
    n_windows = ((last - first).days // aggregation_days) + 1
    sums = np.zeros((n_windows, n, n))
    for date, src, dst, trips in entries:
        sums[(date - first).days // aggregation_days, dst, src] += trips
    total_days = (last - first).days + 1
    spans = np.array([min(aggregation_days, total_days - w * aggregation_days)
                      for w in range(n_windows)])
    return sums, spans


def load_flows_by_rows(path, node_ids, populations, aggregation_days=7):
    """load_flows on the row-loop window sums."""
    sums, spans = window_sums_by_rows(path, node_ids, aggregation_days)
    balanced = balance_flows(sums / spans[:, None, None], method="scale")
    return NetworkSchedule(periods=tuple(
        (float(span), build_network(node_ids, populations, flows))
        for span, flows in zip(spans, balanced)
    ))


def write_trajectory_by_rows(path, trajectory):
    """The csv.writer row loop write_trajectory_csv replaced."""
    node_ids = trajectory.schedule.node_ids
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "node_id", "s", "e", "x", "r"])
        for k, t in enumerate(trajectory.times):
            m = trajectory.data[k]
            for i, node in enumerate(node_ids):
                writer.writerow(
                    [repr(float(t)), node] + [repr(float(m[c, i])) for c in range(4)]
                )


def write_estimate_by_rows(path, estimate):
    """The csv.writer row loop over to_dict() write_estimate_csv replaced."""
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


def write_rows_by_csv_writer(path, header, rows):
    """The csv.writer row loop the CLI wrote distances.csv and scatter.csv with."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def distance_rows(node_ids, dist):
    """The rows of distances.csv as the CLI formatted them, "inf" spelled out."""
    return [
        [node_ids[i], repr(float(dist[i])) if np.isfinite(dist[i]) else "inf"]
        for i in range(len(node_ids))
    ]


def scatter_rows(node_ids, arrivals, origin_dist, fit):
    """The rows of scatter.csv as the CLI formatted them, one per arrival at
    a finite distance from the origin."""
    return [
        [
            node_ids[a.node],
            repr(float(origin_dist[a.node])),
            repr(a.arrival_time),
            repr(fit.slope * float(origin_dist[a.node]) + fit.intercept),
        ]
        for a in arrivals
        if np.isfinite(origin_dist[a.node])
    ]


def read_trajectory_by_rows(path):
    """The csv.DictReader reader read_trajectory_csv replaced."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"time", "node_id", "s", "e", "x", "r"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ValidationError(f"trajectory CSV needs columns {sorted(required)}")
        for row in reader:
            rows.append(row)
    if not rows:
        raise ValidationError("trajectory CSV is empty")
    node_ids = tuple(dict.fromkeys(row["node_id"] for row in rows))
    times = sorted({float(row["time"]) for row in rows})
    index = {(t, nid): None for t in times for nid in node_ids}
    data = np.full((len(times), 4, len(node_ids)), np.nan)
    t_pos = {t: k for k, t in enumerate(times)}
    n_pos = {nid: i for i, nid in enumerate(node_ids)}
    for row in rows:
        k, i = t_pos[float(row["time"])], n_pos[row["node_id"]]
        for c, name in enumerate(("s", "e", "x", "r")):
            data[k, c, i] = float(row[name])
        index.pop((float(row["time"]), row["node_id"]), None)
    if index or math.isnan(data.min()):
        raise ValidationError("trajectory CSV is missing node/time rows")
    return np.array(times), node_ids, data


def write_gravity_trips(path, network, seed, days=7, start="2021-01-04"):
    """Daily trip counts drawn Poisson around a network's flows, zero counts
    left out, as a flows CSV; the raw weekly sums are not balanced."""
    rng = np.random.default_rng(seed)
    ids = [cell(nid) for nid in network.node_ids]  # quoted where csv.writer would
    dst, src = np.nonzero(network.flows)
    first = datetime.date.fromisoformat(start)
    with open(path, "w") as fh:
        fh.write("date,from_id,to_id,trips\n")
        for k in range(days):
            day = (first + datetime.timedelta(days=k)).isoformat()
            counts = rng.poisson(network.flows[dst, src])
            fh.writelines(f"{day},{ids[src[j]]},{ids[dst[j]]},{counts[j]}\n"
                          for j in np.nonzero(counts)[0])


def traced_peak(call):
    """(call(), the most bytes that tracemalloc saw allocated during the
    call beyond those allocated when it began)."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
