"""Shared generators and brute-force oracles for the test suite."""
from __future__ import annotations

import heapq

import numpy as np
from hypothesis import settings

from epiflows import EpidemicParams, SystemState, build_network

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
