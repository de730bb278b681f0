import dataclasses
import math
import tracemalloc
import warnings
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from epiflows import (
    NetworkSchedule,
    balance_flows,
    build_network,
    check_k_strong,
    is_strongly_connected,
    perturb_flows_balanced,
)
from epiflows import network
from epiflows.network import FlowNetwork, _transport_t
from epiflows.errors import (
    BalanceViolation,
    DimensionMismatch,
    NegativeEntry,
    NegativeRate,
    NoConvergence,
    PerturbationUnbalanced,
    ValidationError,
    WindowLargerThanSchedule,
)
from epiflows import demo
import helpers
from helpers import (
    PROPERTY_SETTINGS,
    balanceable_stacks,
    balanced_systems,
    coupling_by_formula,
    network_by_bisect,
    osborne_balance,
    perturbed_by_formula,
    random_balanced_network,
    reachable_closure,
    routing_by_masked_divide,
    strongly_connected_oracle,
    with_input_flows,
)


def edge_network(mask):
    """Unbalanced network whose only content is its edge pattern."""
    n = mask.shape[0]
    return build_network(
        [str(i) for i in range(n)], np.full(n, 10.0), np.where(mask, 1.0, 0.0),
        balance_tolerance=np.inf,
    )


@st.composite
def edge_masks(draw, n):
    mask = draw(arrays(bool, (n, n)))
    np.fill_diagonal(mask, False)
    return mask


def two_node(f12=10.0, f21=10.0, pops=(100.0, 100.0)):
    return build_network(["a", "b"], pops, [[0.0, f12], [f21, 0.0]])


class TestBuildNetwork:
    def test_two_node_derived_matrices(self):
        net = two_node()
        assert np.allclose(net.gamma, [0.1, 0.1])
        assert np.allclose(net.routing, [[0, 1], [1, 0]])
        assert net.coupling[0, 1] == pytest.approx(0.1)
        assert net.coupling[1, 0] == pytest.approx(0.1)
        assert net.coupling[0, 0] == 0 and net.coupling[1, 1] == 0

    def test_five_node_benchmark_round_trip(self, five_node):
        net, _ = five_node
        # rebuilding from the raw flows must reproduce routing and gamma
        rebuilt = build_network(net.node_ids, net.populations, net.flows)
        assert np.abs(rebuilt.routing - net.routing).max() < 1e-12
        assert np.abs(rebuilt.gamma - net.gamma).max() < 1e-12
        assert np.allclose(net.gamma, [0.002, 0.002, 0.002, 0.002, 0.005], atol=1e-12)
        # published routing entries are 3-decimal rounded; stay within that
        published = np.array(
            [
                [0, 0.212, 0.275, 0.25, 0.212],
                [0.249, 0, 0.26, 0.299, 0.338],
                [0.246, 0.198, 0, 0.204, 0.178],
                [0.285, 0.29, 0.259, 0, 0.272],
                [0.22, 0.299, 0.206, 0.247, 0],
            ]
        )
        assert np.abs(net.routing - published).max() < 5e-3

    def test_gross_imbalance_rejected(self):
        flows = np.array([[0.0, 20.0], [10.0, 0.0]])
        with pytest.raises(BalanceViolation) as err:
            build_network(["a", "b"], [100.0, 100.0], flows, balance_tolerance=0.01)
        assert "imbalance" in str(err.value)

    def test_dimension_and_sign_errors(self):
        with pytest.raises(DimensionMismatch):
            build_network(["a"], [1.0, 2.0], np.zeros((1, 1)))
        with pytest.raises(NegativeEntry):
            build_network(["a", "b"], [1.0, 0.0], np.zeros((2, 2)))
        with pytest.raises(NegativeEntry):
            build_network(["a", "b"], [1.0, 1.0], [[0, -1], [1, 0]])
        with pytest.raises(ValidationError):
            build_network(["a", "b"], [1.0, 1.0], [[1, 1], [1, 0]])

    def test_repeated_node_id_rejected(self):
        with pytest.raises(ValidationError, match="distinct"):
            build_network(["a", "a"], [1.0, 1.0], np.zeros((2, 2)))

    @pytest.mark.parametrize("populations, flows", [
        ([np.nan, 10.0], [[0.0, 1.0], [1.0, 0.0]]),
        ([np.inf, 10.0], [[0.0, 1.0], [1.0, 0.0]]),
        ([10.0, 10.0], [[0.0, np.nan], [1.0, 0.0]]),
        ([10.0, 10.0], [[0.0, np.inf], [np.inf, 0.0]]),
    ])
    def test_non_finite_inputs_rejected(self, populations, flows):
        with pytest.raises(ValidationError, match="finite"):
            build_network(["a", "b"], populations, flows)

    def test_zero_outflow_node(self):
        flows = np.zeros((3, 3))
        flows[1, 0] = flows[0, 1] = 5.0
        net = build_network(["a", "b", "c"], [10.0, 10.0, 10.0], flows)
        assert net.gamma[2] == 0
        assert np.all(net.routing[:, 2] == 0)

    def test_definitional_identities(self):
        rng = np.random.default_rng(3)
        for n in (2, 5, 9):
            net = random_balanced_network(rng, n)
            out = net.flows.sum(axis=0)
            assert np.abs(net.routing.sum(axis=0) - 1).max() < 1e-12
            assert np.abs(net.gamma - out / net.populations).max() < 1e-15
            expected = (
                (net.populations[None, :] / net.populations[:, None])
                * net.routing
                * net.gamma[None, :]
            )
            assert np.abs(net.coupling - expected).max() < 1e-15
            # balance makes gamma_i equal the coupling row sums
            assert np.abs(net.coupling.sum(axis=1) - net.gamma).max() < 1e-12 * net.gamma.max()


def assert_matches_formulas(net, flows, c):
    """The arrays of the network built from ``flows``, and those of its
    perturbation by theta = c * gamma, equal the formulas written out, to the
    bit, as does the transport operator Phi - diag(gamma) of each; the
    derived flows are the input's within 4 eps relative, and 0 where it is;
    the arrays are frozen, and the perturbed coupling carries gamma_j N_j out
    of each node, so population is conserved."""
    assert np.array_equal(net.routing, routing_by_masked_divide(flows))
    assert np.array_equal(net.gamma, flows.sum(axis=0) / net.populations)
    assert np.all(np.abs(net.flows - flows) <= 4 * np.finfo(float).eps * flows)
    assert np.array_equal(net.coupling,
                          coupling_by_formula(net.populations, net.routing, net.gamma))
    out = perturb_flows_balanced(net, c * net.gamma)
    want = perturbed_by_formula(net, c * net.gamma)
    for got, expected in zip((out.flows, out.gamma, out.coupling), want):
        assert np.array_equal(got, expected)
    for a in (net, out):
        assert np.array_equal(_transport_t(a), (a.coupling - np.diag(a.gamma)).T)
        assert _transport_t(a).flags.c_contiguous
    gap = net.populations @ (out.coupling - np.diag(out.gamma))
    assert np.abs(gap).max() <= 1e-12 * max(1.0, (out.gamma * net.populations).max())
    assert out.routing is net.routing and out.populations is net.populations
    for a in (net.populations, net.flows, net.gamma, net.routing, net.coupling,
              out.flows, out.gamma, out.coupling):
        assert not a.flags.writeable


class TestConstructorOracle:
    def test_coupling_is_derived_not_stored(self):
        # and so are the flows: routing is the one square array kept
        fields = {f.name for f in dataclasses.fields(FlowNetwork)}
        assert fields == {"node_ids", "populations", "gamma", "routing"}

    def test_coupling_comes_from_the_transport_operator(self):
        # Phi has one formula: A^T from _transport_t, transposed, with gamma
        # put back on its diagonal, which leaves +0.0 there, also at a node
        # without travel
        flows = np.array([[0.0, 4.0, 0.0], [4.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        rng = np.random.default_rng(12)
        nets = [build_network(["a", "b", "c"], [100.0, 200.0, 50.0], flows),
                random_balanced_network(rng, 2), random_balanced_network(rng, 5),
                demo.synthetic_county_system(n=87, seed=1)[0]]
        assert nets[0].gamma[2] == 0
        for net in nets:
            phi = net.coupling
            assert np.array_equal(phi, _transport_t(net).T + np.diag(net.gamma))
            diagonal = np.diagonal(phi)
            assert np.all(diagonal == 0) and not np.signbit(diagonal).any()

    def test_network_retains_one_square_array(self):
        # routing; the flows and the coupling are not kept beside it
        n = 400
        rng = np.random.default_rng(8)
        flows = rng.uniform(0.1, 1.0, (n, n))
        flows += flows.T
        np.fill_diagonal(flows, 0.0)
        pops = rng.uniform(1e3, 1e5, n)
        tracemalloc.start()
        try:
            net = build_network([str(i) for i in range(n)], pops, flows)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert net.n == n
        assert retained < 1.5 * n * n * 8

    @PROPERTY_SETTINGS
    @given(st.data(), st.floats(-0.9, 1.0))
    def test_networks_with_silent_nodes(self, data, c):
        ((net,), _, _), flows = with_input_flows(helpers, data.draw, balanced_systems())
        assert_matches_formulas(net, flows, c)

    @pytest.mark.parametrize("n", [87, 1000])
    def test_gravity_counties(self, n):
        for seed in (1, 2, 3):
            (net, _, _), flows = with_input_flows(demo, demo.synthetic_county_system, n, seed)
            assert_matches_formulas(net, flows, 0.1)


@pytest.mark.filterwarnings("error")
class TestBalanceFlows:
    def test_symmetrize_mean(self):
        out = balance_flows([[0.0, 4.0], [2.0, 0.0]], method="symmetrize")
        assert np.array_equal(out, [[0.0, 3.0], [3.0, 0.0]])

    def test_balanced_input_unchanged(self):
        f = np.array([[0.0, 7.0], [7.0, 0.0]])
        assert np.array_equal(balance_flows(f, "symmetrize"), f)
        assert np.array_equal(balance_flows(f, "scale"), f)

    def test_scale_balances_random(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            f = rng.uniform(0.0, 5.0, (5, 5))
            np.fill_diagonal(f, 0.0)
            out = balance_flows(f, "scale")
            colsum, rowsum = out.sum(axis=0), out.sum(axis=1)
            assert np.abs(colsum - rowsum).max() < 1e-10 * colsum.max()
            # output always survives strict network construction
            build_network([str(i) for i in range(5)], np.full(5, 1e4), out,
                          balance_tolerance=1e-9)

    def test_stack_balances_each_matrix_as_alone(self):
        rng = np.random.default_rng(5)
        stack = rng.uniform(0.0, 5.0, (4, 6, 6))
        for f in stack:
            np.fill_diagonal(f, 0.0)
        stack[2, 3, :] = stack[2, :, 3] = 0.0  # a node without flows in one matrix
        out = balance_flows(stack, "scale")
        assert out.shape == stack.shape
        for f, o in zip(stack, out):
            # the same sweeps on one matrix; BLAS may sum in another order
            assert np.allclose(balance_flows(f, "scale"), o, rtol=1e-13, atol=0)
        assert np.array_equal(out[2, 3], np.zeros(6))

    def test_scale_runs_to_the_rounding_floor(self):
        rng = np.random.default_rng(3)
        stack = rng.uniform(0.0, 5.0, (3, 30, 30)) * (rng.random((3, 30, 30)) < 0.3)
        for f in stack:
            np.fill_diagonal(f, 0.0)
            f[np.arange(1, 31) % 30, np.arange(30)] += 1.0  # a spanning cycle
        for o in balance_flows(stack, "scale"):
            colsum, rowsum = o.sum(axis=0), o.sum(axis=1)
            assert np.abs(colsum - rowsum).max() < 1e-14 * colsum.max()

    def test_two_node_cycle_balances(self):
        # a simultaneous (Jacobi) update swaps the two flows on every sweep
        out = balance_flows(np.array([[[0.0, 1.0], [4.0, 0.0]]] * 2), "scale")
        assert np.allclose(out, [[[0.0, 2.0], [2.0, 0.0]]] * 2, rtol=1e-15, atol=0)

    def test_stacked_symmetrize(self):
        stack = np.array([[[0.0, 4.0], [2.0, 0.0]], [[0.0, 1.0], [3.0, 0.0]]])
        assert np.array_equal(balance_flows(stack, "symmetrize"),
                              [[[0.0, 3.0], [3.0, 0.0]], [[0.0, 2.0], [2.0, 0.0]]])

    def test_scale_detects_unbalanceable(self):
        with pytest.raises(NoConvergence):
            balance_flows([[0.0, 4.0], [0.0, 0.0]], "scale")

    def test_unknown_method(self):
        with pytest.raises(ValidationError):
            balance_flows(np.zeros((2, 2)), "midpoint")

    @pytest.mark.parametrize("method", ["scale", "symmetrize"])
    @pytest.mark.parametrize("shape", [(0, 0), (2, 0, 0), (0, 3, 3)])
    def test_empty_flows_balance_to_themselves(self, method, shape):
        # build_network accepts the empty network, so its flows balance too
        out = balance_flows(np.zeros(shape), method)
        assert out.shape == shape

    @pytest.mark.parametrize("method", ["scale", "symmetrize"])
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    @pytest.mark.parametrize("stacked", [False, True])
    def test_non_finite_flows_rejected(self, method, bad, stacked):
        f = np.array([[0.0, bad], [1.0, 0.0]])
        flows = np.stack([[[0.0, 1.0], [1.0, 0.0]], f]) if stacked else f
        with pytest.raises(ValidationError, match="flows must be finite"):
            balance_flows(flows, method)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_flows_are_named_before_negative_ones(self, bad):
        flows = [[0.0, -1.0, bad], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
        with pytest.raises(ValidationError, match="flows must be finite"):
            build_network(["a", "b", "c"], np.ones(3), flows)

    def test_balances_where_osborne_runs_out_of_sweeps(self):
        # two lopsided two-node cycles, joined one way by a flow of 3 and back
        # by one of 1e-3: each of the oracle's sweeps gains too little
        f = np.array([[0.0, 0.0, 0.0, 1.212],
                      [2.996, 0.0, 233.806, 0.0],
                      [0.0, 0.339, 0.0, 0.0],
                      [479.846, 0.0, 1e-3, 0.0]])
        with pytest.raises(NoConvergence):
            osborne_balance(f[None])
        out = balance_flows(f, "scale")
        colsum, rowsum = out.sum(axis=0), out.sum(axis=1)
        assert np.abs(colsum - rowsum).max() < 1e-10 * colsum.min()
        # a diagonal similarity keeps the zero pattern and every 2-cycle product
        assert np.array_equal(out > 0, f > 0)
        assert np.allclose(out * out.T, f * f.T, rtol=1e-12, atol=0)

    def test_graded_cycle_balances_to_its_geometric_mean(self):
        # flows over 22 orders of magnitude make the Newton system singular to
        # rounding unless a ridge keeps it strictly diagonally dominant
        f = np.zeros((5, 5))
        f[0, 3], f[1, 2], f[2, 4], f[3, 1], f[4, 0] = 9.2e14, 3.0e-8, 5.9e14, 17.0, 3.3e-4
        out = balance_flows(f, "scale")
        assert np.array_equal(out > 0, f > 0)
        mean = np.exp(np.log(f[f > 0]).mean())
        assert np.allclose(out[f > 0], mean, rtol=1e-14, atol=0)

    def test_heavy_tailed_stack_balances_without_warnings(self):
        # entries over 20 orders of magnitude reach the floor without a
        # floating-point warning (the class turns every warning into an error)
        rng = np.random.default_rng(4)
        stack = rng.lognormal(0.0, 6.0, (6, 20, 20)) * (rng.random((6, 20, 20)) < 0.3)
        stack[:, np.roll(np.arange(20), 1), np.arange(20)] = rng.lognormal(0.0, 6.0, (6, 20))
        stack[:, np.arange(20), np.arange(20)] = 0.0
        for o in balance_flows(stack, "scale"):
            colsum, rowsum = o.sum(axis=0), o.sum(axis=1)
            assert np.abs(colsum - rowsum).max() < 1e-14 * colsum.max()

    def test_step_cap_reported_in_steps(self, monkeypatch):
        monkeypatch.setattr(network, "SCALE_MAX_ITERATIONS", 1)
        with pytest.raises(NoConvergence, match="within 1 steps"):
            balance_flows([[0.0, 1.0], [4.0, 0.0]], "scale")

    def test_one_way_bridge_between_cycles_rejected(self):
        # two 2-cycles joined by the one-way bridge 1 -> 2: every node has
        # inflow and outflow, but only shrinking the bridge to 0 balances it
        f = np.zeros((4, 4))
        f[0, 1] = f[1, 0] = f[2, 3] = f[3, 2] = f[2, 1] = 1.0
        with pytest.raises(NoConvergence, match="node index 2 and node index 0"):
            balance_flows(f, "scale")
        with pytest.raises(NoConvergence, match="one way only"):
            balance_flows(np.stack([f.T + f, f]), "scale")

    def test_isolated_and_separate_parts_stay_apart(self):
        # node 2 has no flows; nodes {0, 1} and {3, 4} are two weak components
        f = np.zeros((5, 5))
        f[0, 1], f[1, 0], f[3, 4], f[4, 3] = 1.0, 9.0, 2.0, 8.0
        out = balance_flows(f, "scale")
        assert np.allclose(out[[0, 1, 3, 4], [1, 0, 4, 3]], [3.0, 3.0, 4.0, 4.0],
                           rtol=1e-15, atol=0)
        assert np.array_equal(out > 0, f > 0)


@PROPERTY_SETTINGS
@given(balanceable_stacks())
def test_scale_matches_osborne_oracle(stack):
    # outside TestBalanceFlows, whose "error" filter would also catch the
    # warnings of hypothesis's own failure report
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = balance_flows(stack, "scale")
    assert np.array_equal(out > 0, stack > 0)
    np.testing.assert_allclose(out, osborne_balance(stack), rtol=1e-13, atol=0)


@PROPERTY_SETTINGS
@given(st.integers(1, 7).flatmap(edge_masks), st.integers(0, 2**32 - 1))
def test_scale_balances_exactly_when_weak_components_are_strong(mask, seed):
    # a diagonal similarity balances F exactly iff every weak component of its
    # pattern is strongly connected; nodes i, j share a weak component iff the
    # closure of the symmetrised pattern joins them
    flows = np.where(mask, np.random.default_rng(seed).lognormal(0.0, 1.0, mask.shape), 0.0)
    weak, strong = reachable_closure(mask | mask.T), reachable_closure(mask)
    if np.array_equal(weak, strong & strong.T):
        out = balance_flows(flows, "scale")
        colsum, rowsum = out.sum(axis=0), out.sum(axis=1)
        assert np.abs(colsum - rowsum).max() <= 1e-10 * colsum.max(initial=0.0)
        assert np.array_equal(out > 0, mask)
    else:
        with pytest.raises(NoConvergence):
            balance_flows(flows, "scale")


class TestConnectivity:
    def test_complete_graph_connected(self):
        rng = np.random.default_rng(0)
        net = random_balanced_network(rng, 4)
        assert is_strongly_connected(net)

    def test_one_way_pair_not_connected(self):
        flows = np.zeros((2, 2))
        flows[0, 1] = 3.0  # b -> a only
        net = build_network(["a", "b"], [10.0, 10.0], flows, balance_tolerance=np.inf)
        assert not is_strongly_connected(net)

    def test_matches_transitive_closure_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = 20
            mask = rng.random((n, n)) < 0.08
            np.fill_diagonal(mask, False)
            flows = np.where(mask, 1.0, 0.0)
            net = build_network(
                [str(i) for i in range(n)], np.full(n, 100.0), flows,
                balance_tolerance=np.inf,
            )
            assert is_strongly_connected(net) == strongly_connected_oracle(mask)

    @PROPERTY_SETTINGS
    @given(st.integers(1, 9).flatmap(edge_masks))
    def test_matches_transitive_closure_oracle_property(self, mask):
        assert is_strongly_connected(edge_network(mask)) == strongly_connected_oracle(mask)


def _cycle_half_network(n, start, stop):
    """Edges i -> i+1 for i in [start, stop); unbalanced, used only for edges."""
    flows = np.zeros((n, n))
    for i in range(start, stop):
        flows[(i + 1) % n, i] = 1.0
    return build_network(
        [str(i) for i in range(n)], np.full(n, 10.0), flows, balance_tolerance=np.inf
    )


class TestKStrong:
    def test_single_connected_period(self):
        rng = np.random.default_rng(1)
        net = random_balanced_network(rng, 4)
        schedule = NetworkSchedule(periods=((1.0, net),), window_bound=1)
        assert check_k_strong(schedule)

    def test_union_of_half_cycles(self):
        n = 6
        first = _cycle_half_network(n, 0, 3)
        second = _cycle_half_network(n, 3, 6)
        schedule = NetworkSchedule(periods=((1.0, first), (1.0, second)), window_bound=2)
        assert check_k_strong(schedule)
        one = NetworkSchedule(periods=((1.0, first), (1.0, second)), window_bound=1)
        assert not check_k_strong(one)

    def test_matches_union_oracle(self):
        rng = np.random.default_rng(23)
        n = 8
        for k in (2, 3):
            nets = []
            for _ in range(10):
                mask = rng.random((n, n)) < 0.12
                np.fill_diagonal(mask, False)
                nets.append(
                    build_network(
                        [str(i) for i in range(n)], np.full(n, 10.0),
                        np.where(mask, 1.0, 0.0), balance_tolerance=np.inf,
                    )
                )
            schedule = NetworkSchedule(
                periods=tuple((1.0, net) for net in nets), window_bound=k
            )
            expected = all(
                strongly_connected_oracle(
                    np.any([nets[t + j].routing > 0 for j in range(k)], axis=0)
                )
                for t in range(10 - k + 1)
            )
            assert check_k_strong(schedule) == expected

    @PROPERTY_SETTINGS
    @given(st.lists(edge_masks(6), min_size=1, max_size=5), st.integers(1, 5))
    def test_matches_union_oracle_property(self, masks, k):
        k = min(k, len(masks))
        schedule = NetworkSchedule(
            periods=tuple((1.0, edge_network(m)) for m in masks), window_bound=k
        )
        expected = all(
            strongly_connected_oracle(np.any(masks[t : t + k], axis=0))
            for t in range(len(masks) - k + 1)
        )
        assert check_k_strong(schedule) == expected

    def test_window_larger_than_schedule(self):
        rng = np.random.default_rng(2)
        net = random_balanced_network(rng, 3)
        schedule = NetworkSchedule(periods=((1.0, net),), window_bound=2)
        with pytest.raises(WindowLargerThanSchedule):
            check_k_strong(schedule)


class TestPerturbFlows:
    def test_zero_theta_is_identity(self):
        rng = np.random.default_rng(5)
        net = random_balanced_network(rng, 4)
        out = perturb_flows_balanced(net, np.zeros(4))
        assert np.array_equal(out.gamma, net.gamma)
        assert np.abs(out.flows - net.flows).max() < 1e-12

    def test_uniform_scaling_on_doubly_balanced_network(self):
        # uniform populations with doubly stochastic routing accept theta = c*1
        n = 4
        flows = np.full((n, n), 2.0)
        np.fill_diagonal(flows, 0.0)
        net = build_network([str(i) for i in range(n)], np.full(n, 50.0), flows)
        out = perturb_flows_balanced(net, np.full(n, 0.05))
        assert np.allclose(out.gamma, net.gamma + 0.05)
        # perturbed flows still pass strict construction
        build_network(out.node_ids, out.populations, out.flows, balance_tolerance=1e-9)

    def test_scaled_gamma_always_permissible(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            net = random_balanced_network(rng, 5)
            theta = rng.uniform(-0.9, 1.5) * net.gamma
            out = perturb_flows_balanced(net, theta)
            build_network(out.node_ids, out.populations, out.flows,
                          balance_tolerance=1e-9)

    def test_unbalanced_theta_rejected(self):
        rng = np.random.default_rng(6)
        net = random_balanced_network(rng, 4)
        theta = 0.5 * net.gamma
        theta[0] += 1e-3
        with pytest.raises(PerturbationUnbalanced):
            perturb_flows_balanced(net, theta)

    def test_negative_rate_rejected(self):
        rng = np.random.default_rng(8)
        net = random_balanced_network(rng, 4)
        with pytest.raises(NegativeRate):
            perturb_flows_balanced(net, -1.5 * net.gamma)

    @pytest.mark.parametrize("c", [1e-3, 1.0, 1e6, 1e9, 1e12])
    def test_balance_bound_scales_with_theta(self, c):
        """theta = c * gamma satisfies the balance identity exactly and is
        accepted at every scale; one entry moved by 1e-6 of max(1, max|theta|)
        is rejected. Fails at the parent from c = 1e9, whose bound was 1e-10
        whatever the size of theta."""
        for net in (demo.five_node_system()[0], demo.synthetic_county_system(n=87, seed=1)[0]):
            theta = c * net.gamma
            assert np.array_equal(perturb_flows_balanced(net, theta).gamma, net.gamma + theta)
            moved = theta.copy()
            moved[1] += 1e-6 * max(1.0, np.abs(theta).max())
            with pytest.raises(PerturbationUnbalanced):
                perturb_flows_balanced(net, moved)

    def test_theta_at_node_without_outflow_rejected(self):
        # theta_c is within the balance tolerance, but c routes nowhere, so
        # gamma_c would carry people out over an all-zero routing column
        flows = np.array([[0.0, 4.0, 0.0], [4.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        net = build_network(["a", "b", "c"], [100.0, 200.0, 50.0], flows)
        with pytest.raises(PerturbationUnbalanced, match="'c'"):
            perturb_flows_balanced(net, [0.0, 0.0, 5e-11])


class TestSchedule:
    def test_network_lookup_and_clamp(self):
        rng = np.random.default_rng(4)
        a, b = random_balanced_network(rng, 3), random_balanced_network(rng, 3)
        b = build_network(a.node_ids, a.populations, b.flows)  # share ids/populations
        schedule = NetworkSchedule(periods=((2.0, a), (3.0, b)))
        assert schedule.network_at(0.0) is a
        assert schedule.network_at(1.999) is a
        assert schedule.network_at(2.0) is b
        with pytest.raises(ValidationError):
            schedule.network_at(5.0)
        assert schedule.network_at(99.0, clamp=True) is b

    @PROPERTY_SETTINGS
    @given(
        st.lists(st.sampled_from([0.1, 0.2, 0.3, 0.7, 1.0, 2.5]), min_size=1, max_size=8),
        st.lists(st.floats(0.0, 12.0), max_size=10),
    )
    def test_lookup_matches_linear_scan(self, durations, times):
        base = random_balanced_network(np.random.default_rng(6), 3)
        nets = [build_network(base.node_ids, base.populations, base.flows) for _ in durations]
        schedule = NetworkSchedule(periods=tuple(zip(durations, nets)))
        ends, elapsed = [], 0.0
        for duration in durations:
            elapsed += duration
            ends.append(elapsed)
        # period ends themselves, and the floats next to them, are the edge cases
        for t in times + ends + [float(np.nextafter(e, 0.0)) for e in ends]:
            k = next((i for i, end in enumerate(ends) if t < end), None)
            if k is None:
                with pytest.raises(ValidationError):
                    schedule.network_at(t)
                assert schedule.network_at(t, clamp=True) is nets[-1]
            else:
                assert schedule.network_at(t) is nets[k]

    @PROPERTY_SETTINGS
    @given(
        st.one_of(st.none(), st.lists(st.sampled_from([1e-9, 0.1, 0.3, 1.0, 2.5]),
                                      min_size=1, max_size=5)),
        st.lists(st.floats(-2.0, 12.0) | st.just(math.inf), max_size=10),
        st.booleans(),
    )
    def test_runs_match_per_time_lookup(self, durations, times, clamp):
        base = random_balanced_network(np.random.default_rng(6), 3)
        if durations is None:
            schedule = NetworkSchedule.static(base)
        else:
            nets = [build_network(base.node_ids, base.populations, base.flows)
                    for _ in durations]
            schedule = NetworkSchedule(periods=tuple(zip(durations, nets)))
        ends = [e for e in accumulate(d for d, _ in schedule.periods) if e < math.inf]
        # period ends themselves, and the floats next to them, are the edge cases
        edges = [float(np.nextafter(e, side)) for e in ends for side in (0, 99)]
        times = sorted(times + ends + edges)
        try:
            want = [network_by_bisect(schedule, t, clamp) for t in times]
        except ValidationError as exc:
            with pytest.raises(ValidationError) as raised:
                schedule._runs(times, clamp)
            assert str(raised.value) == str(exc)
            return
        runs = schedule._runs(times, clamp)
        assert [start for start, _, _ in runs] == [0, *(stop for _, stop, _ in runs)][:len(runs)]
        assert all(start < stop for start, stop, _ in runs)
        got = [net for start, stop, net in runs for _ in range(start, stop)]
        assert len(got) == len(want) and all(a is b for a, b in zip(got, want))

    def test_mismatched_periods_rejected(self):
        rng = np.random.default_rng(4)
        a = random_balanced_network(rng, 3)
        c = random_balanced_network(rng, 4)
        with pytest.raises(ValidationError):
            NetworkSchedule(periods=((1.0, a), (1.0, c)))
