import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from epiflows import (
    ArrivalRecord,
    DistanceGraph,
    InfectedSet,
    SystemState,
    arrival_times,
    build_network,
    effective_distance_from,
    full_fit_baseline,
    group_effective_distance,
    log_distance_graph,
    prediction_rms,
    simulate_discrete,
    sliding_window_predict,
)
from epiflows import effdist
from epiflows.errors import (
    DegenerateFit,
    EmptyInfectedSet,
    InsufficientArrivals,
    NoOverlap,
    ValidationError,
)
from epiflows.demo import seeded_initial_state, synthetic_county_system
from epiflows.network import NetworkSchedule
from helpers import (
    PROPERTY_SETTINGS,
    distance_from_by_csgraph,
    forecasts_by_index,
    group_distance_by_csgraph,
    group_distance_by_full_matrix,
    random_balanced_network,
    shortest_paths_by_enumeration,
    shortest_paths_by_heap,
    shortest_paths_one_at_a_time,
)


def chain_network(weights):
    """Directed chain 0 -> 1 -> ... with given hop flows (not balanced)."""
    n = len(weights) + 1
    flows = np.zeros((n, n))
    for i, w in enumerate(weights):
        flows[i + 1, i] = w
    return build_network([str(i) for i in range(n)], np.full(n, 10.0), flows,
                         balance_tolerance=np.inf)


def random_sparse_graph(rng, n, density=0.35):
    mask = rng.random((n, n)) < density
    np.fill_diagonal(mask, False)
    flows = np.where(mask, rng.uniform(1.0, 9.0, (n, n)), 0.0)
    # every node needs some outflow so routing columns are defined
    for j in range(n):
        if flows[:, j].sum() == 0:
            flows[(j + 1) % n, j] = 1.0
    return build_network(
        [str(i) for i in range(n)], rng.uniform(10.0, 1e3, n), flows,
        balance_tolerance=np.inf,
    )


@st.composite
def graphs_with_sure_hops(draw, max_n=8):
    """Random flow graphs on at most max_n nodes, some of whose nodes send
    all their travel along one hop (routing weight 1, so cost 0)."""
    n = draw(st.integers(2, max_n))
    edges = draw(arrays(bool, (n, n)))
    weights = draw(arrays(float, (n, n), elements=st.sampled_from([0.5, 1.0, 2.0, 3.0, 7.0])))
    sure = draw(arrays(bool, n))
    sure[0] = True
    np.fill_diagonal(edges, False)
    flows = np.where(edges, weights, 0.0)
    for j in range(n):
        targets = np.nonzero(edges[:, j])[0]
        if sure[j] or not len(targets):
            keep = targets[0] if len(targets) else (j + 1) % n
            flows[:, j] = 0.0
            flows[keep, j] = weights[keep, j]
    pops = draw(arrays(float, n, elements=st.sampled_from([10.0, 30.0, 500.0])))
    return build_network([str(i) for i in range(n)], pops, flows, balance_tolerance=np.inf)


class TestInfectedSet:
    def test_from_state_keeps_nodes_strictly_above_threshold(self):
        state = SystemState(s=np.array([0.9, 0.5, 0.99]), e=np.array([0.05, 0.2, 0.0]),
                            x=np.array([0.05, 0.3, 0.01]), r=np.zeros(3))
        infected = InfectedSet.from_state(state, 0.01)
        assert infected.members == frozenset({0, 1})
        assert infected.threshold == 0.01


class TestLogDistanceGraph:
    def test_single_hop_values(self):
        net = chain_network([1.0, 3.0])
        # node 0 routes everything to node 1: w = 1 -> zero distance
        g = log_distance_graph(net)
        assert g.d[1, 0] == 0.0 and not np.signbit(g.d[1, 0])
        assert g.d[0, 1] == np.inf
        assert np.all(np.diag(g.d) == 0.0)

    def test_quarter_probability(self):
        flows = np.zeros((3, 3))
        flows[1, 0] = 1.0
        flows[2, 0] = 3.0
        flows[0, 1] = 1.0
        flows[0, 2] = 1.0
        net = build_network(["a", "b", "c"], [10.0, 10.0, 10.0], flows,
                            balance_tolerance=np.inf)
        g = log_distance_graph(net)
        assert g.d[1, 0] == pytest.approx(np.log(4.0), abs=1e-12)

    def test_benchmark_entry(self, five_node):
        net, _ = five_node
        g = log_distance_graph(net)
        assert g.d[1, 0] == pytest.approx(1.390326, abs=1e-4)


class TestEffectiveDistance:
    def test_symmetric_unit_hop(self):
        flows = np.array([[0.0, 5.0], [5.0, 0.0]])
        net = build_network(["a", "b"], [10.0, 10.0], flows)
        d = effective_distance_from(log_distance_graph(net), 0)
        assert np.array_equal(d, [0.0, 0.0])  # w = 1 both ways

    def test_chain_asymmetry(self):
        # each hop keeps probability 0.5 by splitting flow with a sink edge
        n = 3
        flows = np.zeros((4, 4))
        flows[1, 0] = 1.0
        flows[3, 0] = 1.0  # node 3 is a probability sink
        flows[2, 1] = 1.0
        flows[3, 1] = 1.0
        flows[3, 2] = 1.0
        net = build_network(["a", "b", "c", "sink"], np.full(4, 10.0), flows,
                            balance_tolerance=np.inf)
        d = effective_distance_from(log_distance_graph(net), 0)
        assert d[2] == pytest.approx(2.0 * np.log(2.0), abs=1e-12)
        back = effective_distance_from(log_distance_graph(net), 2)
        assert back[0] == np.inf

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            n = int(rng.integers(4, 9))
            net = random_sparse_graph(rng, n)
            g = log_distance_graph(net)
            src = int(rng.integers(0, n))
            got = effective_distance_from(g, src)
            want = shortest_paths_by_enumeration(g.d, src)
            assert np.array_equal(got, want)

    @PROPERTY_SETTINGS
    @given(graphs_with_sure_hops(), st.integers(0, 7))
    def test_matches_enumeration_with_zero_cost_hops(self, net, source):
        g = log_distance_graph(net)
        source %= net.n
        got = effective_distance_from(g, source)
        assert np.array_equal(got, shortest_paths_by_enumeration(g.d, source))

    def test_matches_heap_dijkstra_on_dense_gravity_graph(self):
        net = synthetic_county_system(n=300, seed=5)[0]
        g = log_distance_graph(net)
        for source in (0, 137, 299):
            want = shortest_paths_by_heap(g.d, [(source, 0.0)])
            assert np.array_equal(effective_distance_from(g, source), want)

    def test_path_probability_duality(self):
        rng = np.random.default_rng(29)
        net = random_sparse_graph(rng, 6)
        g = log_distance_graph(net)
        dist = np.stack([effective_distance_from(g, j) for j in range(6)], axis=1)
        # exp(-D) equals the best path's probability product
        for j in range(6):
            for i in range(6):
                if i != j and np.isfinite(dist[i, j]):
                    best = _best_product(net.routing, j, i)
                    assert np.exp(-dist[i, j]) == pytest.approx(best, rel=1e-9)

    def test_monotone_under_new_edges(self):
        rng = np.random.default_rng(31)
        net = random_sparse_graph(rng, 7)
        g = log_distance_graph(net)
        d2 = g.d.copy()
        missing = np.argwhere(np.isinf(d2))
        if len(missing):
            i, j = missing[rng.integers(0, len(missing))]
            d2[i, j] = 0.3
        richer = DistanceGraph(d=d2)
        for src in range(7):
            before = effective_distance_from(g, src)
            after = effective_distance_from(richer, src)
            assert np.all(after <= before + 1e-12)

    def test_source_validation(self):
        net = chain_network([1.0])
        with pytest.raises(ValidationError):
            effective_distance_from(log_distance_graph(net), 5)


def _best_product(routing, src, dst):
    n = routing.shape[0]
    best = 0.0

    def walk(node, prob, visited):
        nonlocal best
        if node == dst:
            best = max(best, prob)
            return
        for nxt in range(n):
            if routing[nxt, node] > 0 and nxt not in visited:
                walk(nxt, prob * routing[nxt, node], visited | {nxt})

    walk(src, 1.0, {src})
    return best


def _group_graph_oracle(net, members):
    """Edge matrix of the group-modified graph, built independently."""
    n = net.n
    inside = set(members)
    order = sorted(members)  # the library's summation order, to the last bit
    pops = net.populations
    total = pops[order].sum()
    d = np.full((n, n), np.inf)
    for i in range(n):
        for j in range(n):
            if i in inside or i == j:
                d[i, j] = 0.0
            elif j in inside:
                w = sum(pops[m] * net.routing[i, m] for m in order) / total
                if w > 0:
                    d[i, j] = -np.log(w)
            elif net.routing[i, j] > 0:
                d[i, j] = -np.log(net.routing[i, j])
    return d


class TestGroupDistance:
    def test_empty_set_rejected(self, five_node):
        net, _ = five_node
        with pytest.raises(EmptyInfectedSet):
            group_effective_distance(net, InfectedSet(members=frozenset()))

    @pytest.mark.parametrize("member", [1.5, True, "2"])
    def test_non_index_member_rejected(self, five_node, member):
        net, _ = five_node
        with pytest.raises(ValidationError, match="not a node index"):
            group_effective_distance(net, InfectedSet(members=frozenset({member})))

    def test_numpy_integer_members_accepted(self, five_node):
        net, _ = five_node
        got = group_effective_distance(net, InfectedSet(members=frozenset({np.int64(1)})))
        assert_same_bits(got, group_distance_by_full_matrix(net, [1]))

    def test_singleton_reduces_to_single_source(self):
        rng = np.random.default_rng(41)
        for _ in range(5):
            net = random_sparse_graph(rng, 7)
            j = int(rng.integers(0, 7))
            got = group_effective_distance(net, InfectedSet(members=frozenset({j})))
            want = effective_distance_from(log_distance_graph(net), j)
            assert np.allclose(got, want, atol=1e-12)

    def test_two_members_equal_population_average(self):
        rng = np.random.default_rng(43)
        flows = rng.uniform(0.5, 4.0, (6, 6))
        flows = 0.5 * (flows + flows.T)
        np.fill_diagonal(flows, 0.0)
        net = build_network([str(i) for i in range(6)], np.full(6, 500.0), flows)
        members = frozenset({1, 4})
        got = group_effective_distance(net, InfectedSet(members=members))
        averaged = 0.5 * (net.routing[:, 1] + net.routing[:, 4])
        d = _group_graph_oracle(net, members)
        # equal populations make the exit weights plain column means
        for i in range(6):
            if i not in members and averaged[i] > 0:
                assert d[i, 1] == pytest.approx(-np.log(averaged[i]), abs=1e-12)
        want = np.min(
            [shortest_paths_by_enumeration(d, m) for m in members], axis=0
        )
        assert np.allclose(got, want, atol=1e-12)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(47)
        for _ in range(6):
            n = 10
            net = random_sparse_graph(rng, n, density=0.25)
            k = int(rng.integers(1, 4))
            members = frozenset(int(v) for v in rng.choice(n, size=k, replace=False))
            got = group_effective_distance(net, InfectedSet(members=members))
            d = _group_graph_oracle(net, members)
            want = np.min(
                [shortest_paths_by_enumeration(d, m) for m in members], axis=0
            )
            assert np.array_equal(got, want)
            for m in members:
                assert got[m] == 0.0

    @PROPERTY_SETTINGS
    @given(graphs_with_sure_hops(), st.sets(st.integers(0, 7), min_size=1))
    def test_matches_enumeration_with_zero_cost_hops(self, net, members):
        members = frozenset(m % net.n for m in members)
        got = group_effective_distance(net, InfectedSet(members=members))
        d = _group_graph_oracle(net, members)
        want = np.min([shortest_paths_by_enumeration(d, m) for m in members], axis=0)
        assert np.array_equal(got, want)

    def test_matches_heap_dijkstra_on_dense_gravity_graph(self):
        net = synthetic_county_system(n=300, seed=5)[0]
        rng = np.random.default_rng(59)
        for k in (1, 10):
            members = frozenset(int(v) for v in rng.choice(300, size=k, replace=False))
            got = group_effective_distance(net, InfectedSet(members=members))
            d = _group_graph_oracle(net, members)
            want = shortest_paths_by_heap(d, [(m, 0.0) for m in members])
            assert np.array_equal(got, want)

    def test_sure_hop_out_of_the_group_costs_positive_zero(self):
        # node 0 sends all of its travel to node 1, so w~_1 = 1 and -log 1 = -0.0
        net = chain_network([5.0, 2.0])
        dist = group_effective_distance(net, InfectedSet(members=frozenset({0})))
        assert dist.tolist() == [0.0, 0.0, 0.0]  # node 1 sends all its travel on to 2
        assert not np.signbit(dist).any()

    def test_dominated_by_single_member_distances(self):
        rng = np.random.default_rng(53)
        net = random_sparse_graph(rng, 8)
        members = frozenset({0, 3, 5})
        got = group_effective_distance(net, InfectedSet(members=members))
        d = _group_graph_oracle(net, members)
        for m in members:
            single = shortest_paths_by_enumeration(d, m)
            assert np.all(got <= single + 1e-12)


def assert_same_bits(got, want):
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def assert_group_oracles(net, members):
    got = group_effective_distance(net, InfectedSet(members=frozenset(members)))
    assert_same_bits(got, group_distance_by_csgraph(net, members))
    assert_same_bits(got, group_distance_by_full_matrix(net, members))


class TestCsgraphOracle:
    """The dense Dijkstra against scipy's csgraph, bit for bit and sign for
    sign, and the group distance against its full-matrix form as well."""

    @pytest.mark.parametrize("n", [87, 1000])
    def test_gravity_counties(self, n):
        rng = np.random.default_rng(n)
        for seed in (1, 2):
            net = synthetic_county_system(n=n, seed=seed)[0]
            g = log_distance_graph(net)
            with np.errstate(divide="ignore"):
                costs = 0.0 - np.log(net.routing)
            np.fill_diagonal(costs, 0.0)
            assert_same_bits(g.d, costs)
            for source in rng.choice(n, 3, replace=False).tolist():
                assert_same_bits(effective_distance_from(g, source),
                                 distance_from_by_csgraph(g.d, source))
            # n - 1 members leave one outside node, whose exit weight numpy
            # would sum pairwise were it a lone contiguous row
            for k in (1, 5, 20, n // 2, n - 1, n):
                assert_group_oracles(net, rng.choice(n, k, replace=False).tolist())

    @pytest.mark.parametrize("n", [87, 1000])
    def test_arrival_prefixes_of_a_simulated_county(self, n):
        net, params, origin = synthetic_county_system(n=n, seed=3)
        traj = simulate_discrete(seeded_initial_state(n, origin), params, net, steps=320)
        arrivals = arrival_times(traj.times, traj.x, 1e-3)
        assert len(arrivals) > n // 2
        nodes = [a.node for a in arrivals]
        for size in sorted({1, 2, 8, 21, len(nodes) // 2, len(nodes) - 1, len(nodes)}):
            assert_group_oracles(net, nodes[:size])

    @PROPERTY_SETTINGS
    @given(st.integers(2, 24), st.integers(0, 2**32 - 1), st.data())
    def test_random_groups(self, n, seed, data):
        net = random_balanced_network(np.random.default_rng(seed), n)
        members = data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n))
        assert_same_bits(group_effective_distance(net, InfectedSet(members=frozenset(members))),
                         group_distance_by_csgraph(net, members))
        source = min(members)
        assert_same_bits(effective_distance_from(log_distance_graph(net), source),
                         distance_from_by_csgraph(log_distance_graph(net).d, source))


def assert_search_matches_one_at_a_time(cost, start):
    """The round search against the one-label-per-step loop it replaced,
    each from its own copy of the costs (row per hop origin) and labels."""
    got = effdist._shortest_paths(np.array(cost, order="C"), start.copy())
    assert_same_bits(got, shortest_paths_one_at_a_time(np.array(cost), start.copy()))


def ring_network(n):
    """Each node sends all of its travel to the next, so every hop has
    routing weight 1 and costs +0.0."""
    flows = np.roll(np.eye(n), 1, axis=0)
    return build_network([str(i) for i in range(n)], np.full(n, 10.0), flows)


class TestRoundSearch:
    """The Dijkstra settles labels in rounds; its distances are those of
    settling one label per step, bit for bit and sign for sign."""

    @pytest.fixture
    def rounds(self, monkeypatch):
        """Rounds of each search, counted as the reads of rows of its cost,
        which a round makes once for all the labels it settles."""
        counts, real = [], effdist._shortest_paths

        def search(cost, dist):
            reads = []

            class Rows(np.ndarray):
                def __getitem__(self, key):
                    if self.ndim == 2:
                        reads.append(key)
                    return super().__getitem__(key)

            out = real(cost.view(Rows), dist)
            counts.append(len(reads))
            return out

        monkeypatch.setattr(effdist, "_shortest_paths", search)
        return counts

    @pytest.mark.parametrize("n", [87, 1000])
    def test_gravity_counties(self, n):
        rng = np.random.default_rng(n + 1)
        for seed in (1, 2):
            g = log_distance_graph(synthetic_county_system(n=n, seed=seed)[0])
            for source in rng.choice(n, 3, replace=False).tolist():
                start = np.full(n, np.inf)
                start[source] = 0.0
                assert_same_bits(effective_distance_from(g, source),
                                 shortest_paths_one_at_a_time(g.d.T, start))
            # many finite start labels, as a group search has: the hops
            # out of k sources (the diagonal puts each source at 0)
            for k in (2, 20, n // 2):
                start = g.d[:, rng.choice(n, k, replace=False)].min(axis=1)
                assert_search_matches_one_at_a_time(g.d.T, start)

    @PROPERTY_SETTINGS
    @given(graphs_with_sure_hops(), st.sets(st.integers(0, 7), min_size=1))
    def test_zero_cost_hops(self, net, sources):
        g = log_distance_graph(net)
        start = g.d[:, sorted({s % net.n for s in sources})].min(axis=1)
        assert_search_matches_one_at_a_time(g.d.T, start)

    @pytest.mark.parametrize("n", [2, 7, 40])
    def test_all_ties(self, n):
        # on the ring every reachable label ties at +0.0 and no hop costs
        # more than 0, so only the labels equal to the smallest one settle
        ring = log_distance_graph(ring_network(n))
        for source in (0, n - 1):
            got = effective_distance_from(ring, source)
            assert_same_bits(got, np.zeros(n))
            start = np.full(n, np.inf)
            start[source] = 0.0
            assert_search_matches_one_at_a_time(ring.d.T, start)
        # equal routing weights on the complete graph: every hop costs log(n - 1)
        flows = np.ones((n, n)) - np.eye(n)
        uniform = log_distance_graph(build_network([str(i) for i in range(n)],
                                                   np.full(n, 10.0), flows))
        assert_search_matches_one_at_a_time(uniform.d.T, np.full(n, 0.5))
        assert_search_matches_one_at_a_time(uniform.d.T, uniform.d[:, 0].copy())

    @pytest.mark.parametrize("direct", [2.5, np.nextafter(2.0, 3.0)], ids=["wide", "one-ulp"])
    def test_a_label_lowered_after_its_first_offer(self, direct):
        # 0 -> 1 costs `direct` and 2 through node 2, and node 3 is one hop
        # past node 1: settling node 1 at its first offer would put 3 past 3.0
        cost = np.full((4, 4), np.inf)
        np.fill_diagonal(cost, 0.0)
        cost[0, 1], cost[0, 2], cost[2, 1], cost[1, 3] = direct, 1.0, 1.0, 1.0
        start = np.array([0.0, np.inf, np.inf, np.inf])
        assert effdist._shortest_paths(cost.copy(), start.copy()).tolist() == [0.0, 2.0, 1.0, 3.0]
        assert_search_matches_one_at_a_time(cost, start)

    @PROPERTY_SETTINGS
    @given(st.integers(1, 12).flatmap(lambda n: st.tuples(
        arrays(float, (n, n), elements=st.sampled_from([np.inf, np.inf, 0.0, 0.5, 1.0, 2.5])),
        arrays(float, n, elements=st.sampled_from([np.inf, 0.0, 1.0, 3.0])))))
    def test_sparse_costs_and_start_labels(self, case):
        assert_search_matches_one_at_a_time(*case)

    def test_a_county_of_1000_settles_in_few_rounds(self, rounds):
        net, params, origin = synthetic_county_system(n=1000, seed=3)
        g = log_distance_graph(net)
        for source in (0, origin, 999):
            effective_distance_from(g, source)
        traj = simulate_discrete(seeded_initial_state(1000, origin), params, net, steps=320)
        nodes = [a.node for a in arrival_times(traj.times, traj.x, 1e-3)]
        for size in (1, 2, 8, 50, len(nodes) // 2):
            group_effective_distance(net, InfectedSet(members=frozenset(nodes[:size])))
        assert len(rounds) == 8
        assert all(1 <= r <= 10 for r in rounds), rounds

    @pytest.mark.parametrize("layout", ["F", "C", "read-only"])
    def test_source_search_leaves_the_graph_as_it_was(self, layout):
        d = log_distance_graph(synthetic_county_system(n=87, seed=1)[0]).d
        if layout == "C":
            d = np.ascontiguousarray(d)
        elif layout == "read-only":
            d.flags.writeable = False
        before = d.copy()
        flags = {k: d.flags[k] for k in ("C_CONTIGUOUS", "F_CONTIGUOUS", "OWNDATA", "WRITEABLE")}
        effective_distance_from(DistanceGraph(d=d), 5)
        assert_same_bits(d, before)
        assert flags == {k: d.flags[k] for k in flags}


class TestDistanceCost:
    """The size of the cost block each search relaxes."""

    @pytest.fixture
    def searched(self, monkeypatch):
        shapes, real = [], effdist._shortest_paths

        def search(cost, dist):
            shapes.append(cost.shape)
            return real(cost, dist)

        monkeypatch.setattr(effdist, "_shortest_paths", search)
        return shapes

    @pytest.mark.parametrize("k", [1, 20, 43, 86, 87])
    def test_group_search_runs_on_the_outside_nodes(self, searched, k):
        net = synthetic_county_system(n=87, seed=1)[0]
        members = frozenset(np.random.default_rng(k).choice(87, k, replace=False).tolist())
        group_effective_distance(net, InfectedSet(members=members))
        assert searched == [(87 - k, 87 - k)]

    def test_source_search_runs_on_every_node(self, searched):
        net = synthetic_county_system(n=87, seed=1)[0]
        effective_distance_from(log_distance_graph(net), 5)
        assert searched == [(87, 87)]


class TestArrivalTimes:
    def test_flat_signal_never_arrives(self):
        times = np.arange(10.0)
        signal = np.zeros((10, 3))
        assert arrival_times(times, signal, 0.5) == []

    def test_single_crossing(self):
        times = np.arange(10.0)
        signal = np.zeros((10, 1))
        signal[7:, 0] = 0.9
        records = arrival_times(times, signal, 0.5)
        assert records == [ArrivalRecord(arrival_time=7.0, node=0)]

    def test_matches_manual_scan(self, five_node, five_node_start):
        net, params = five_node
        traj = simulate_discrete(five_node_start, params, net, steps=60, h=1.0)
        p = 0.01
        records = arrival_times(traj.times, traj.x, p)
        want = []
        for i in range(5):
            for k, t in enumerate(traj.times):
                if traj.x[k, i] > p:
                    want.append((t, i))
                    break
        want.sort()
        assert [(r.arrival_time, r.node) for r in records] == want

    def test_tie_break_by_node(self):
        times = np.arange(3.0)
        signal = np.zeros((3, 2))
        signal[1, :] = 1.0
        records = arrival_times(times, signal, 0.5)
        assert [r.node for r in records] == [0, 1]

    @pytest.mark.parametrize("threshold", [np.nan, np.inf, -np.inf])
    def test_non_finite_threshold_rejected(self, threshold):
        with pytest.raises(ValidationError, match="threshold must be finite"):
            arrival_times(np.arange(3.0), np.zeros((3, 2)), threshold)


def star_system(leaf_probs, arrival_slope=5.0, arrival_intercept=3.0):
    """Hub-and-spoke network whose exit probabilities are controlled.

    The hub population dwarfs the leaves, so group exit weights stay within
    1e-12 of the hub's routing column as leaves join the infected set. Leaf
    arrival times are placed exactly on a line in -log(prob).
    """
    m = len(leaf_probs)
    n = m + 1
    flows = np.zeros((n, n))
    for i, p in enumerate(leaf_probs):
        flows[1 + i, 0] = p
        flows[0, 1 + i] = p
    pops = np.concatenate([[1e9], np.full(m, 1e-3)])
    net = build_network(["hub"] + [f"leaf{i}" for i in range(m)], pops, flows)
    dist = -np.log(np.asarray(leaf_probs))
    arrivals = [ArrivalRecord(arrival_time=0.0, node=0)]
    for i in np.argsort(dist):
        arrivals.append(
            ArrivalRecord(
                arrival_time=float(arrival_slope * dist[i] + arrival_intercept),
                node=1 + int(i),
            )
        )
    return net, arrivals, dist


class TestSlidingWindow:
    def test_exact_line_recovered(self):
        probs = np.exp(-np.arange(1.0, 13.0) / 5.0)  # arrivals at 4, 5, ..., 15
        net, arrivals, dist = star_system(probs / probs.sum() * 0.9)
        schedule = NetworkSchedule.static(net)
        k = 8
        forecast = sliding_window_predict(arrivals, schedule, tau=4, at_arrival_index=k)
        assert not forecast.degenerate
        slope, intercept, shift = forecast.fit
        assert shift == 0.0
        predicted = forecast.predicted()
        actual = {a.node: a.arrival_time for a in arrivals[k + 1 :]}
        assert set(predicted) == set(actual)
        for node, t in actual.items():
            assert predicted[node] == pytest.approx(t, abs=1e-6)

    def test_insufficient_arrivals(self):
        net, arrivals, _ = star_system([0.5, 0.3, 0.2])
        schedule = NetworkSchedule.static(net)
        with pytest.raises(InsufficientArrivals):
            sliding_window_predict(arrivals, schedule, tau=3, at_arrival_index=2)
        with pytest.raises(InsufficientArrivals):
            sliding_window_predict(arrivals, schedule, tau=2, at_arrival_index=99)

    def test_degenerate_distances_fall_back_flat(self):
        # complete graph with uniform weights: every outside node sits at the
        # same distance from any group
        n = 6
        flows = np.full((n, n), 3.0)
        np.fill_diagonal(flows, 0.0)
        net = build_network([str(i) for i in range(n)], np.full(n, 100.0), flows)
        arrivals = [ArrivalRecord(arrival_time=2.0 * k, node=k) for k in range(4)]
        forecast = sliding_window_predict(
            arrivals, NetworkSchedule.static(net), tau=2, at_arrival_index=3
        )
        assert forecast.degenerate
        assert forecast.fit[0] == 0.0
        # flat prediction lands one mean gap past the latest arrival
        for _, t, _ in forecast.predictions:
            assert t == pytest.approx(6.0 + 2.0, abs=1e-12)

    def test_shift_keeps_predictions_in_the_future(self, five_node):
        rng = np.random.default_rng(3)
        # arrivals wildly out of line with distance force a real shift
        net = random_balanced_network(rng, 8)
        arrivals = [ArrivalRecord(arrival_time=float(20 + k), node=k) for k in range(6)]
        forecast = sliding_window_predict(
            arrivals, NetworkSchedule.static(net), tau=3, at_arrival_index=5
        )
        t_now = arrivals[5].arrival_time
        assert forecast.fit[2] >= 0.0
        for _, t, _ in forecast.predictions:
            assert t > t_now

    def test_sweep_equals_the_per_index_forecasts(self):
        # four periods, so the two distances of an update come from
        # different networks
        net, params, origin = synthetic_county_system(n=40, seed=6)
        periods = tuple((30.0, build_network(net.node_ids, net.populations, net.flows * s))
                        for s in (1.0, 0.5, 2.0, 1.3))
        schedule = NetworkSchedule(periods=periods)
        traj = simulate_discrete(seeded_initial_state(40, origin), params, schedule, steps=119)
        arrivals = arrival_times(traj.times, traj.x, 1e-3)
        indices = range(5, len(arrivals))
        assert len(indices) > 20
        got = list(effdist._forecast_sweep(arrivals, schedule, 5, indices))
        assert got == list(forecasts_by_index(arrivals, schedule, 5, indices))

    def test_forecast_serialization(self):
        net, arrivals, _ = star_system([0.4, 0.3, 0.2, 0.06, 0.04])
        forecast = sliding_window_predict(
            arrivals, NetworkSchedule.static(net), tau=2, at_arrival_index=3
        )
        payload = forecast.to_dict()
        assert payload["window"]["tau"] == 2
        assert {"slope", "intercept", "shift"} == set(payload["fit"])


class TestPredictionRms:
    def test_identical(self):
        assert prediction_rms({1: 2.0, 2: 3.0}, {1: 2.0, 2: 3.0}) == 0.0

    def test_single_offset(self):
        assert prediction_rms({5: 10.0}, {5: 7.0}) == pytest.approx(3.0)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(8)
        pred = {i: float(rng.uniform(0, 50)) for i in range(12)}
        act = {i: float(rng.uniform(0, 50)) for i in range(12)}
        want = np.sqrt(np.mean([(pred[i] - act[i]) ** 2 for i in range(12)]))
        assert prediction_rms(pred, act) == pytest.approx(want, rel=1e-12)

    def test_no_overlap(self):
        with pytest.raises(NoOverlap):
            prediction_rms({1: 2.0}, {2: 3.0})


class TestFullFitBaseline:
    def test_perfect_line(self):
        arrivals = [ArrivalRecord(arrival_time=2.0 * d + 1.0, node=i)
                    for i, d in enumerate([0.5, 1.0, 2.0, 4.0])]
        dist = np.array([0.5, 1.0, 2.0, 4.0])
        fit = full_fit_baseline(arrivals, dist)
        assert fit.rms == pytest.approx(0.0, abs=1e-12)
        assert fit.r_value == pytest.approx(1.0)
        assert fit.slope == pytest.approx(2.0)

    def test_two_points_interpolate(self):
        arrivals = [ArrivalRecord(arrival_time=1.0, node=0),
                    ArrivalRecord(arrival_time=9.0, node=1)]
        fit = full_fit_baseline(arrivals, np.array([1.0, 3.0]))
        assert fit.rms == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_distances(self):
        arrivals = [ArrivalRecord(arrival_time=float(k), node=k) for k in range(3)]
        with pytest.raises(DegenerateFit):
            full_fit_baseline(arrivals, np.ones(3))

    def test_needs_two_points(self):
        with pytest.raises(ValidationError):
            full_fit_baseline([ArrivalRecord(arrival_time=0.0, node=0)], np.ones(1))
