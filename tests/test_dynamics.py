import csv
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import epiflows
from epiflows import (
    EpidemicParams,
    NetworkSchedule,
    ObservationSeries,
    SystemState,
    balance_flows,
    build_network,
    classify_healthy,
    derivative,
    eigenvalue_drift_under_perturbation,
    endemic_existence_indicator,
    estimate_all,
    integrate,
    read_trajectory_csv,
    simulate_discrete,
    solve_endemic,
    step_euler,
    write_trajectory_csv,
)
from epiflows import dynamics, estimation, stability
from epiflows.errors import (
    InvalidState,
    ParseError,
    StateLeftSimplex,
    StepTooLarge,
    ValidationError,
)
from epiflows.dynamics import _BLOCK, _CYCLE, Trajectory, _check_simplex, _Kernel
from epiflows.ingest import _window_sums
from helpers import (
    PROPERTY_SETTINGS,
    balanced_systems,
    coupling_by_formula,
    dense_rates,
    integrate_by_steps,
    random_balanced_network,
    random_irreducible_nonneg,
    random_params,
    random_state,
    raw_flow_derivative,
    window_sums_by_rows,
    write_gravity_trips,
)


def isolated_node(beta, sigma, delta, alpha):
    net = build_network(["solo"], [1000.0], np.zeros((1, 1)))
    params = EpidemicParams(
        alpha=np.array([alpha]), beta=np.array([beta]),
        sigma=np.array([sigma]), delta=np.array([delta]),
    )
    return net, params


class TestEpidemicParams:
    @pytest.mark.parametrize("strict", [True, False])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rate_rejected(self, strict, bad):
        rates = {name: np.full(3, 0.2) for name in ("alpha", "beta", "sigma", "delta")}
        rates["sigma"][1] = bad
        with pytest.raises(ValidationError, match="finite"):
            EpidemicParams(**rates, strict=strict)

    def test_zero_rate_only_outside_strict_mode(self):
        rates = {name: np.zeros(2) for name in ("alpha", "beta", "sigma", "delta")}
        with pytest.raises(ValidationError, match="strictly positive"):
            EpidemicParams(**rates)
        assert EpidemicParams(**rates, strict=False).n == 2


class TestSystemState:
    def test_rejects_off_simplex(self):
        with pytest.raises(InvalidState):
            SystemState(s=np.array([0.9]), e=np.array([0.2]),
                        x=np.array([0.0]), r=np.array([0.0]))
        with pytest.raises(InvalidState):
            SystemState(s=np.array([1.2]), e=np.array([-0.2]),
                        x=np.array([0.0]), r=np.array([0.0]))
        with pytest.raises(InvalidState):  # NaN fails every comparison
            SystemState(s=np.array([np.nan]), e=np.array([0.0]),
                        x=np.array([0.0]), r=np.array([0.0]))

    def test_matrix_round_trip(self):
        rng = np.random.default_rng(0)
        state = random_state(rng, 6)
        again = SystemState.from_matrix(state.as_matrix())
        assert np.array_equal(again.s, state.s)


class TestDerivative:
    def test_healthy_state_is_equilibrium(self, five_node):
        net, params = five_node
        ds, de, dx, dr = derivative(SystemState.healthy(5), params, net)
        # e, x, r rates vanish identically; the s rate is zero through the
        # balance identity, which floating point honors only to rounding
        assert np.array_equal(de, np.zeros(5))
        assert np.array_equal(dx, np.zeros(5))
        assert np.array_equal(dr, np.zeros(5))
        assert np.abs(ds).max() < 1e-15

    def test_healthy_state_exact_on_exact_flows(self):
        net = build_network(["a", "b"], [100.0, 100.0], [[0.0, 10.0], [10.0, 0.0]])
        params = EpidemicParams(*(np.array([0.3, 0.4]) for _ in range(4)))
        rates = derivative(SystemState.healthy(2), params, net)
        assert all(np.array_equal(v, np.zeros(2)) for v in rates)

    def test_isolated_node_hand_values(self):
        net, params = isolated_node(beta=1.0, sigma=1.0, delta=0.5, alpha=0.1)
        state = SystemState(s=np.array([0.9]), e=np.array([0.0]),
                            x=np.array([0.1]), r=np.array([0.0]))
        ds, de, dx, dr = derivative(state, params, net)
        assert ds[0] == pytest.approx(-0.09, abs=1e-15)
        assert de[0] == pytest.approx(0.09, abs=1e-15)
        assert dx[0] == pytest.approx(-0.05, abs=1e-15)
        assert dr[0] == pytest.approx(0.05, abs=1e-15)

    def test_matches_raw_flow_oracle(self, five_node):
        net, params = five_node
        rng = np.random.default_rng(42)
        for _ in range(10):
            state = random_state(rng, 5)
            got = np.stack(derivative(state, params, net))
            want = raw_flow_derivative(state, params, net)
            assert np.abs(got - want).max() < 1e-12

    def test_components_sum_to_zero(self):
        rng = np.random.default_rng(1)
        for n in (2, 5, 12):
            net = random_balanced_network(rng, n)
            params = random_params(rng, n)
            state = random_state(rng, n)
            total = np.stack(derivative(state, params, net)).sum(axis=0)
            assert np.abs(total).max() < 1e-12

    def test_no_spontaneous_infection(self):
        # e = x = 0 pins de = dx = 0 exactly, whatever s and r are
        rng = np.random.default_rng(2)
        net = random_balanced_network(rng, 4)
        params = random_params(rng, 4)
        s = rng.uniform(0.2, 0.8, 4)
        state = SystemState(s=s, e=np.zeros(4), x=np.zeros(4), r=1.0 - s)
        _, de, dx, _ = derivative(state, params, net)
        assert np.array_equal(de, np.zeros(4))
        assert np.array_equal(dx, np.zeros(4))


class TestKernel:
    @PROPERTY_SETTINGS
    @given(balanced_systems())
    def test_matches_dense_operator(self, system):
        (net,), params, state = system
        m = state.as_matrix()
        assert np.abs(_Kernel(params, net)(m) - dense_rates(params, net, m)).max() < 1e-13

    @PROPERTY_SETTINGS
    @given(balanced_systems())
    def test_buffered_products_equal_the_plain_expression(self, system):
        # the kernel takes its products by np.dot; integrate_by_steps calls
        # it too, so the oracle keeps the bits of a loop over the plain
        # expression only while these agree exactly
        (net,), params, state = system
        m, kernel = state.as_matrix(), _Kernel(params, net)
        rates = kernel.rates.copy()
        rates[0] = params.beta * m[2]
        plain = m @ kernel.a_t + _CYCLE @ (rates * m)
        out = np.empty_like(m)
        assert kernel(m, out) is out
        assert np.array_equal(out, plain) and np.array_equal(kernel(m), plain)

    @PROPERTY_SETTINGS
    @given(balanced_systems(periods=2))
    def test_transport_keeps_the_bits_of_the_transposed_coupling(self, system):
        # A^T is written straight into one C-contiguous buffer, with the bits
        # of the transposed copy of Phi - diag(gamma), so trajectories keep
        # theirs; a buffer reused for the next network holds only that one
        nets, params, _ = system
        buffer = np.empty((params.n, params.n))
        for net in nets:
            phi = coupling_by_formula(net.populations, net.routing, net.gamma)
            want = np.ascontiguousarray((phi - np.diag(net.gamma)).T)
            assert _Kernel(params, net, buffer).a_t is buffer
            assert np.array_equal(buffer, want)
            fresh = _Kernel(params, net).a_t
            assert np.array_equal(fresh, want) and fresh.flags.c_contiguous

    def test_holds_no_4n_operator(self):
        # a 4n x 4n operator at n = 400 is 16 n^2 entries (41 MB)
        n = 400
        rng = np.random.default_rng(8)
        kernel = _Kernel(random_params(rng, n), random_balanced_network(rng, n))
        arrays = [v for v in vars(kernel).values() if isinstance(v, np.ndarray)]
        arrays += [a.base for a in arrays if a.base is not None]
        assert arrays and max(a.size for a in arrays) <= n * n


def clamped_node():
    """One isolated node at s = 1 with r = 4e-12: a first RK4 step of size
    0.01 to 0.2 lifts s above 1 by less than CLAMP_EPS, so a clamp fires."""
    net = build_network(["solo"], [1000.0], np.zeros((1, 1)))
    params = EpidemicParams(alpha=np.array([0.9]), beta=np.array([0.5]),
                            sigma=np.array([0.4]), delta=np.array([0.3]))
    state = SystemState(s=np.array([1.0]), e=np.array([0.0]),
                        x=np.array([0.0]), r=np.array([4e-12]))
    return net, params, state


def too_large_step_node():
    """test_step_too_large_detected's system: rates of 30 at step 1."""
    net = build_network(["solo"], [1000.0], np.zeros((1, 1)))
    params = EpidemicParams(
        alpha=np.array([0.1]), beta=np.array([30.0]),
        sigma=np.array([30.0]), delta=np.array([30.0]),
    )
    state = SystemState(s=np.array([0.6]), e=np.array([0.1]),
                        x=np.array([0.3]), r=np.array([0.0]))
    return net, params, state


class TestIntegrateCost:
    """Kernel evaluations and simplex checks an RK4 run makes."""

    @pytest.fixture
    def counted(self, monkeypatch):
        counts = {"kernel": 0, "settle": 0}
        real_call, real_settle = _Kernel.__call__, dynamics._settle_onto_simplex

        def call(kernel, z, out=None):
            counts["kernel"] += 1
            return real_call(kernel, z, out)

        def settle(z, t):
            counts["settle"] += 1
            return real_settle(z, t)

        monkeypatch.setattr(_Kernel, "__call__", call)
        monkeypatch.setattr(dynamics, "_settle_onto_simplex", settle)
        return counts

    def test_in_range_run_evaluates_four_stages_and_settles_nothing(
        self, counted, five_node, five_node_start
    ):
        net, params = five_node
        steps = 2 * _BLOCK + 7
        integrate(five_node_start, params, net, t_end=steps * 0.25, step=0.25)
        assert counted == {"kernel": 4 * steps, "settle": 0}

    def test_clamped_block_is_replayed_with_a_settle_per_step(self, counted):
        # the first block clamps and is run twice; by the second, r has
        # flowed into s and the steps stay in range
        net, params, state = clamped_node()
        steps = _BLOCK + 10
        traj = integrate(state, params, net, t_end=steps * 0.1, step=0.1)
        assert counted == {"kernel": 4 * (steps + _BLOCK), "settle": _BLOCK}
        assert traj.data[:, 0].max() <= 1.0


class TestSpectrumCost:
    """Which dense eigenproblems the stability layer solves, by shape."""

    n = 40

    @pytest.fixture
    def solved(self, monkeypatch):
        shapes = []

        def eigvals(matrix):
            shapes.append(matrix.shape)
            return np.linalg.eigvals(matrix)

        monkeypatch.setattr(stability, "_eigvals", eigvals)
        return shapes

    @pytest.fixture
    def system(self):
        rng = np.random.default_rng(12)
        return random_params(rng, self.n), random_balanced_network(rng, self.n)

    def test_indicator_on_balanced_flows_solves_nothing(self, solved, system, five_node):
        params, net = system
        traj = integrate(random_state(np.random.default_rng(3), self.n), params, net,
                         t_end=1.0, step=0.1)
        endemic_existence_indicator(traj, params, net)
        demo_net, demo_params = five_node
        solve_endemic(demo_params, demo_net)
        assert solved == []

    def test_classification_solves_at_most_2n(self, solved, system):
        classify_healthy(*system)
        assert solved and max(max(shape) for shape in solved) <= 2 * self.n

    def test_drift_solves_at_most_2n(self, solved, system):
        params, net = system
        eigenvalue_drift_under_perturbation(params, net, 0.1 * net.gamma)
        assert solved and max(max(shape) for shape in solved) <= 2 * self.n


class TestEstimationCost:
    """What a fit of every node loads and holds."""

    def test_nnls_estimate_leaves_scipy_optimize_unloaded(self, five_node, five_node_start,
                                                          tmp_path):
        net, params = five_node
        observations = tmp_path / "obs.csv"
        write_trajectory_csv(observations, simulate_discrete(five_node_start, params, net,
                                                             steps=30, noise_std=0.01, rng=1))
        src = os.path.dirname(os.path.dirname(epiflows.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        argv = ["estimate", "--demo", "five-node", "--observations", str(observations),
                "--solver", "nnls", "--out-dir", str(tmp_path)]
        probe = ("import sys, epiflows.cli; code = epiflows.cli.main(sys.argv[1:]); "
                 "print(code, 'scipy.optimize' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", probe, *argv], env=env, check=True,
                             capture_output=True, text=True, timeout=120)
        assert out.stdout.split()[-2:] == ["0", "False"]

    def test_never_stacks_every_node_at_once(self):
        # one (n, 4T, 5) stack of all nodes' systems is 6.4 MB here; the
        # (T, 4, n) increments, the travel product and one compartment's
        # T x 3 blocks with their QR copy stay below it
        n, t = 400, 100
        rng = np.random.default_rng(6)
        data = rng.dirichlet(np.ones(4), size=(t + 1, n)).transpose(0, 2, 1).copy()
        series = ObservationSeries(h=1.0, times=np.arange(t + 1.0), data=data,
                                   schedule=NetworkSchedule.static(random_balanced_network(rng, n)))
        tracemalloc.start()
        try:
            estimate_all(series, "nnls")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * 4 * t * 5 * 8


class TestReadCost:
    """Which reader a trips file takes, and what its read holds."""

    @pytest.fixture
    def trips(self, tmp_path):
        # 60 nodes over four weeks: 99 118 rows, 2.1 MB
        network = random_balanced_network(np.random.default_rng(4), 60)
        path = tmp_path / "trips.csv"
        write_gravity_trips(path, network, seed=5, days=28)
        return path, network.node_ids

    def test_quote_free_file_reads_without_csv_reader(self, trips, monkeypatch):
        path, ids = trips
        want = window_sums_by_rows(path, ids)

        def refuse(*args, **kwargs):
            raise AssertionError("csv.reader called on a quote-free file")

        monkeypatch.setattr(csv, "reader", refuse)
        got = _window_sums(path, ids, 7)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    def test_one_quoted_cell_takes_csv_reader_with_same_result(self, trips, monkeypatch):
        path, ids = trips
        want = _window_sums(path, ids, 7)
        header, first, *rest = path.read_text().splitlines(keepends=True)
        date, origin, tail = first.split(",", 2)
        path.write_text("".join([header, f'{date},"{origin}",{tail}', *rest]))
        calls, reader = [], csv.reader
        monkeypatch.setattr(csv, "reader", lambda *a, **k: calls.append(1) or reader(*a, **k))
        got = _window_sums(path, ids, 7)
        assert calls
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    def test_read_peak_is_a_few_times_the_file(self, trips):
        # one str per cell made this 14x the file's bytes; numpy columns 6.6x
        path, ids = trips
        tracemalloc.start()
        try:
            _window_sums(path, ids, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * os.path.getsize(path)


class TestBalanceCost:
    """How many batched solves one trips load's balancing makes."""

    def test_twelve_county_windows_take_at_most_four_solves(self, monkeypatch):
        # 12 weekly windows of Poisson trip counts around one 87-node network
        rng = np.random.default_rng(1)
        base = random_irreducible_nonneg(rng, 87, density=0.3) * 40.0
        np.fill_diagonal(base, 0.0)
        stack = rng.poisson(7.0 * base, (12, 87, 87)) / 7.0
        real_solve, shapes = np.linalg.solve, []

        def solve(matrices, vectors):
            shapes.append(matrices.shape)
            return real_solve(matrices, vectors)

        monkeypatch.setattr(np.linalg, "solve", solve)
        out = balance_flows(stack, "scale")
        # every window is at the rounding floor after 4 steps; running on while
        # the rounding noise happened to fall took 8
        assert 0 < len(shapes) <= 4
        assert all(shape[0] <= 12 for shape in shapes)
        colsum, rowsum = out.sum(axis=1), out.sum(axis=2)
        assert np.abs(colsum - rowsum).max() < 1e-14 * colsum.max()
        # flows at the floor come back as they are, without a solve
        shapes.clear()
        assert np.array_equal(balance_flows(out, "scale"), out) and shapes == []


class TestIntegrate:
    def test_healthy_stays_constant(self, five_node):
        net, params = five_node
        traj = integrate(SystemState.healthy(5), params, net, t_end=5.0, step=0.05)
        assert np.array_equal(traj.data[-1], traj.data[0])

    def test_subcritical_node_decays(self):
        net, params = isolated_node(beta=0.5, sigma=1.0, delta=1.0, alpha=0.1)
        assert classify_healthy(params, net).s_of_U < 0
        state = SystemState(s=np.array([0.99]), e=np.array([0.0]),
                            x=np.array([0.01]), r=np.array([0.0]))
        traj = integrate(state, params, net, t_end=200.0, step=0.01)
        assert traj.final_state.x[0] < 1e-6

    def test_fourth_order_convergence(self):
        rng = np.random.default_rng(3)
        net = random_balanced_network(rng, 2)
        params = random_params(rng, 2, lo=0.2, hi=0.9)
        state = random_state(rng, 2)
        finals = {}
        for step in (0.2, 0.1, 0.05):
            finals[step] = integrate(state, params, net, t_end=4.0, step=step).data[-1]
        coarse = np.abs(finals[0.2] - finals[0.1]).max()
        fine = np.abs(finals[0.1] - finals[0.05]).max()
        assert fine > 1e-14, "errors too small to measure the order"
        assert 12.0 < coarse / fine < 20.0

    def test_step_too_large_detected(self):
        net, params, state = too_large_step_node()
        with pytest.raises(StepTooLarge):
            integrate(state, params, net, t_end=10.0, step=1.0)

    def test_period_boundary_truncation(self):
        rng = np.random.default_rng(4)
        a = random_balanced_network(rng, 3)
        b = build_network(a.node_ids, a.populations, 2.0 * a.flows)
        schedule = NetworkSchedule(periods=((0.55, a), (10.0, b)))
        params = random_params(rng, 3)
        traj = integrate(random_state(rng, 3), params, schedule, t_end=1.0, step=0.1)
        assert 0.55 in traj.times.tolist()
        # the step out of the boundary is a fresh full step
        k = traj.times.tolist().index(0.55)
        assert traj.times[k + 1] == pytest.approx(0.65)

    def test_simplex_preserved_from_random_starts(self):
        rng = np.random.default_rng(5)
        for n in (2, 6):
            net = random_balanced_network(rng, n)
            params = random_params(rng, n)
            traj = integrate(random_state(rng, n), params, net, t_end=10.0, step=0.02)
            assert traj.data.min() >= 0.0 and traj.data.max() <= 1.0
            assert np.abs(traj.data.sum(axis=1) - 1.0).max() < 1e-9

    def test_time_grid_is_start_plus_k_steps(self, five_node, five_node_start):
        net, params = five_node
        traj = integrate(five_node_start, params, net, t_end=300.0, step=0.01)
        assert len(traj) == 30_001
        assert traj.times[-1] == 300.0
        assert traj.times[100] == 1.0
        assert np.array_equal(traj.times, 0.01 * np.arange(30_001))

    def test_validates_horizon_and_step(self, five_node):
        net, params = five_node
        state = SystemState.healthy(5)
        for step in (0.0, np.nan, np.inf):
            with pytest.raises(ValidationError, match="step"):
                integrate(state, params, net, t_end=1.0, step=step)
        schedule = NetworkSchedule(periods=((1.0, net),))
        with pytest.raises(ValidationError):
            integrate(state, params, schedule, t_end=2.0)
        # a static network covers every horizon, but no step grid reaches inf
        for t_end in (np.inf, np.nan):
            with pytest.raises(ValidationError):
                integrate(state, params, net, t_end=t_end)


def assert_integrate_matches_oracle(state, params, schedule, t_end, step):
    """integrate and the per-step loop it replaced give array_equal times and
    states, or raise the same error with the same message; integrate's
    unchecked blocks let no floating-point warning escape."""
    args = (state, params, schedule, t_end, step)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            want = integrate_by_steps(*args)
        except (InvalidState, StepTooLarge) as exc:
            with pytest.raises(type(exc)) as got:
                integrate(*args)
            assert str(got.value) == str(exc)
            return exc
        traj = integrate(*args)
    assert np.array_equal(traj.times, want[0])
    assert np.array_equal(traj.data, want[1])
    return traj


class TestIntegrateOracle:
    """integrate is bit-identical to integrate_by_steps (tests/helpers.py)."""

    @PROPERTY_SETTINGS
    @given(
        st.integers(1, 3).flatmap(lambda p: balanced_systems(periods=p)),
        st.lists(st.floats(0.05, 1.5), min_size=3, max_size=3),
        st.floats(0.005, 0.2),
        st.floats(0.3, 1.0),
    )
    def test_matches_oracle_over_schedules(self, system, durations, step, horizon):
        networks, params, state = system
        schedule = NetworkSchedule(periods=tuple(zip(durations, networks)))
        assert_integrate_matches_oracle(state, params, schedule,
                                        horizon * schedule.total_duration, step)

    @PROPERTY_SETTINGS
    @given(balanced_systems(), st.floats(0.01, 0.2), st.floats(2e-12, 4e-12))
    def test_matches_oracle_where_clamps_fire(self, system, step, r):
        # every node at s = 1 with a sliver of r: steps lift s past 1 by less
        # than CLAMP_EPS, so blocks are replayed with their clamps
        (net,), params, _ = system
        ones, zeros = np.ones(net.n), np.zeros(net.n)
        state = SystemState(s=ones, e=zeros, x=zeros, r=np.full(net.n, r))
        assert_integrate_matches_oracle(state, params, net, (_BLOCK + 9) * step, step)

    def test_run_across_block_boundaries(self, five_node, five_node_start):
        net, params = five_node
        traj = assert_integrate_matches_oracle(five_node_start, params, net,
                                               2.5 * _BLOCK * 0.01, 0.01)
        assert len(traj) == int(2.5 * _BLOCK) + 1

    def test_replay_warns_as_the_per_step_loop(self):
        # rates of 1e308 overflow in the first step: the unchecked pass stays
        # silent, the replay warns as the oracle does, operation by operation,
        # and both stop at the NaN state that step makes
        net = build_network(["solo"], [1000.0], np.zeros((1, 1)))
        params = EpidemicParams(*(np.array([1e308]),) * 4)
        state = SystemState(s=np.array([0.5]), e=np.array([0.2]),
                            x=np.array([0.2]), r=np.array([0.1]))

        def warned(run):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with pytest.raises(StateLeftSimplex) as raised:
                    run(state, params, net, 0.03, 0.01)
            return [(w.category, str(w.message)) for w in caught], str(raised.value)

        got, want = warned(integrate), warned(integrate_by_steps)
        assert got == want and any("in dot" in message for _, message in want[0])
        assert "t=0.01" in want[1]

    def test_nan_trajectory_is_invalid(self):
        with pytest.raises(InvalidState):
            _check_simplex(np.full((2, 4, 1), np.nan), "trajectory")

    def test_step_too_large_same_time_and_message(self):
        net, params, state = too_large_step_node()
        exc = assert_integrate_matches_oracle(state, params, net, 10.0, 1.0)
        assert isinstance(exc, StepTooLarge) and "t=1;" in str(exc)


class TestStepEuler:
    def test_healthy_unchanged(self, five_node):
        net, params = five_node
        out = step_euler(SystemState.healthy(5), params, net, h=4.0)
        assert np.array_equal(out.as_matrix(), SystemState.healthy(5).as_matrix())

    def test_isolated_node_hand_values(self):
        net, params = isolated_node(beta=1.0, sigma=1.0, delta=0.5, alpha=0.1)
        state = SystemState(s=np.array([0.9]), e=np.array([0.0]),
                            x=np.array([0.1]), r=np.array([0.0]))
        out = step_euler(state, params, net, h=0.1)
        assert out.s[0] == pytest.approx(0.891, abs=1e-15)
        assert out.e[0] == pytest.approx(0.009, abs=1e-15)
        assert out.x[0] == pytest.approx(0.095, abs=1e-15)
        assert out.r[0] == pytest.approx(0.005, abs=1e-15)

    def test_matches_independent_recomputation(self, five_node, five_node_start):
        net, params = five_node
        out = step_euler(five_node_start, params, net, h=1.0)
        m = five_node_start.as_matrix()
        for i in range(5):
            s, e, x, r = (float(m[c, i]) for c in range(4))
            travel = [
                sum(
                    net.coupling[i, j] * float(m[c, j])
                    for j in range(5)
                    if j != i
                )
                for c in range(4)
            ]
            g = float(net.gamma[i])
            want_s = s + 1.0 * (params.alpha[i] * r - (params.beta[i] * x + g) * s + travel[0])
            want_e = e + 1.0 * (params.beta[i] * x * s - (params.sigma[i] + g) * e + travel[1])
            want_x = x + 1.0 * (params.sigma[i] * e - (params.delta[i] + g) * x + travel[2])
            want_r = r + 1.0 * (params.delta[i] * x - (params.alpha[i] + g) * r + travel[3])
            assert out.s[i] == pytest.approx(want_s, abs=1e-12)
            assert out.e[i] == pytest.approx(want_e, abs=1e-12)
            assert out.x[i] == pytest.approx(want_x, abs=1e-12)
            assert out.r[i] == pytest.approx(want_r, abs=1e-12)

    @pytest.mark.parametrize("h", [np.nan, np.inf])
    def test_rejects_non_finite_h(self, five_node, five_node_start, h):
        net, params = five_node
        with pytest.raises(ValidationError, match="h must be finite and positive"):
            step_euler(five_node_start, params, net, h=h)

    def test_leaving_simplex_detected(self):
        net, params = isolated_node(beta=1.0, sigma=2.0, delta=0.5, alpha=0.1)
        state = SystemState(s=np.array([0.5]), e=np.array([0.5]),
                            x=np.array([0.0]), r=np.array([0.0]))
        with pytest.raises(StateLeftSimplex):
            step_euler(state, params, net, h=2.0)


class TestSimulateDiscrete:
    def test_zero_steps(self, five_node, five_node_start):
        net, params = five_node
        traj = simulate_discrete(five_node_start, params, net, steps=0)
        assert len(traj) == 1
        assert np.array_equal(traj.data[0], five_node_start.as_matrix())

    def test_noiseless_equals_chained_euler(self, five_node, five_node_start):
        net, params = five_node
        traj = simulate_discrete(five_node_start, params, net, steps=20, h=1.0)
        state = five_node_start
        for k in range(1, 21):
            state = step_euler(state, params, net, h=1.0)
            assert np.array_equal(traj.data[k], state.as_matrix())

    @PROPERTY_SETTINGS
    @given(balanced_systems(periods=3))
    def test_matches_dense_euler_over_a_schedule(self, system):
        nets, params, state = system
        schedule = NetworkSchedule(periods=tuple((30.0, net) for net in nets))
        h = 0.25  # h (beta + gamma) < 1 keeps every Euler step on the simplex
        traj = simulate_discrete(state, params, schedule, steps=320, h=h)
        m = state.as_matrix()
        for k in range(320):
            net = schedule.network_at(k * h)
            m = np.clip(m + h * dense_rates(params, net, m), 0.0, 1.0)
            assert np.abs(traj.data[k + 1] - m).max() < 1e-12

    @PROPERTY_SETTINGS
    @given(balanced_systems(periods=3))
    def test_one_buffer_serves_every_period(self, system):
        # a run reuses one A^T buffer across its periods, and steps with the
        # bits of a fresh kernel per step
        nets, params, state = system
        schedule = NetworkSchedule(periods=tuple((1.0, net) for net in nets))
        h = 0.25  # h (beta + gamma) < 1 keeps every Euler step on the simplex
        traj = simulate_discrete(state, params, schedule, steps=12, h=h)
        m = state.as_matrix()
        for k in range(12):
            kernel = _Kernel(params, schedule.network_at(k * h))
            m = dynamics._euler_step_raw(m, kernel, h, k * h)
            assert np.array_equal(traj.data[k + 1], m)

    def test_noise_keeps_the_bits_of_a_clipped_noisy_copy(self, five_node, five_node_start):
        # noise is drawn, added to the truth, clipped and normalised in one
        # buffer, which changes no bit of the observations
        net, params = five_node
        clean = simulate_discrete(five_node_start, params, net, 60, 1.0)
        noisy = simulate_discrete(five_node_start, params, net, 60, 1.0, 0.05, rng=11)
        rng = np.random.default_rng(11)
        want = np.clip(clean.data + rng.normal(0.0, 0.05, clean.data.shape), 0.0, 1.0)
        want /= want.sum(axis=1, keepdims=True)
        assert np.array_equal(noisy.data, want)

    def test_noisy_run_holds_two_state_arrays(self):
        # the truth and the noisy observations, and no temporary copy of either
        n, steps = 200, 300
        rng = np.random.default_rng(3)
        net, params = random_balanced_network(rng, n), random_params(rng, n, lo=0.1, hi=0.5)
        state = random_state(rng, n)
        tracemalloc.start()
        try:
            simulate_discrete(state, params, net, steps, h=0.1, noise_std=0.01, rng=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        states = (steps + 1) * 4 * n * 8
        assert peak < 2.75 * states + n * n * 8  # 3 and more with a noisy copy

    def test_noise_statistics(self, five_node, five_node_start):
        net, params = five_node
        steps = 600  # 601 * 5 * 4 > 1e4 samples
        clean = simulate_discrete(five_node_start, params, net, steps=steps, h=1.0)
        noisy = simulate_discrete(
            five_node_start, params, net, steps=steps, h=1.0,
            noise_std=0.01, rng=123,
        )
        dev = (noisy.data - clean.data).std()
        assert 0.008 < dev < 0.012
        # observations renormalized onto the simplex
        assert np.abs(noisy.data.sum(axis=1) - 1.0).max() < 1e-12

    @pytest.mark.parametrize("h, noise_std, message", [
        (np.nan, 0.0, "h must be finite and positive"),
        (np.inf, 0.0, "h must be finite and positive"),
        (1.0, np.nan, "noise_std must be finite and nonnegative"),
        (1.0, np.inf, "noise_std must be finite and nonnegative"),
        (1.0, -0.01, "noise_std must be finite and nonnegative"),
    ])
    def test_rejects_non_finite_arguments(self, five_node, five_node_start, h, noise_std,
                                          message):
        net, params = five_node
        with pytest.raises(ValidationError, match=message):
            simulate_discrete(five_node_start, params, net, steps=5, h=h, noise_std=noise_std)

    def test_noise_is_reproducible(self, five_node, five_node_start):
        net, params = five_node
        a = simulate_discrete(five_node_start, params, net, 50, 1.0, 0.01, rng=7)
        b = simulate_discrete(five_node_start, params, net, 50, 1.0, 0.01, rng=7)
        assert np.array_equal(a.data, b.data)


class TestTrajectoryCsv:
    def test_round_trip_exact(self, five_node, five_node_start, tmp_path):
        net, params = five_node
        traj = simulate_discrete(five_node_start, params, net, steps=7, h=1.0,
                                 noise_std=0.005, rng=1)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, traj)
        times, node_ids, data = read_trajectory_csv(path)
        assert node_ids == net.node_ids
        assert np.array_equal(times, traj.times)
        assert np.array_equal(data, traj.data)

    @pytest.mark.parametrize("times", [[0.0, np.nan, 2.0], [0.0, 1.0, np.nan], [0.0, 1.0, np.inf]])
    def test_non_finite_times_rejected(self, five_node, times):
        net, _ = five_node
        data = np.tile(SystemState.healthy(5).as_matrix(), (3, 1, 1))
        with pytest.raises(ValidationError, match="finite"):
            Trajectory(times=np.array(times), data=data, schedule=NetworkSchedule.static(net))

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_time_cell_names_its_line(self, tmp_path, cell):
        path = tmp_path / "traj.csv"
        path.write_text(f"time,node_id,s,e,x,r\n0.0,a,1,0,0,0\n{cell},a,1,0,0,0\n2.0,a,1,0,0,0\n")
        with pytest.raises(ParseError, match=rf"traj\.csv:3: bad time value '{cell}'"):
            read_trajectory_csv(path)

    def test_missing_rows_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,node_id,s,e,x,r\n0.0,a,1.0,0.0,0.0,0.0\n1.0,b,1.0,0.0,0.0,0.0\n")
        with pytest.raises(ValidationError):
            read_trajectory_csv(path)
