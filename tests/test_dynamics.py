import os
import subprocess
import sys
import tracemalloc

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
from epiflows import estimation, stability
from epiflows.errors import (
    InvalidState,
    ParseError,
    StateLeftSimplex,
    StepTooLarge,
    ValidationError,
)
from epiflows.dynamics import Trajectory, _Kernel
from helpers import (
    PROPERTY_SETTINGS,
    balanced_systems,
    dense_rates,
    q_and_m_by_blocks,
    random_balanced_network,
    random_irreducible_nonneg,
    random_params,
    random_state,
    raw_flow_derivative,
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
    @given(balanced_systems(), st.integers(0, 2**32 - 1))
    def test_left_product_matches_dense_split(self, system, seed):
        (net,), params, state = system
        w = np.random.default_rng(seed).uniform(0.0, 1.0, (4, net.n))
        states = [state, SystemState.healthy(net.n)]
        got = _Kernel(params, net).left_product(w, np.stack([z.x for z in states]))
        assert got.shape == (2, 4, net.n)
        for row, z in zip(got, states):
            Q, M = q_and_m_by_blocks(z, params, net)
            want = (w.reshape(-1) @ (M - Q)).reshape(4, net.n)
            assert np.abs(row - want).max() < 1e-13

    def test_holds_no_4n_operator(self):
        # a 4n x 4n operator at n = 400 is 16 n^2 entries (41 MB)
        n = 400
        rng = np.random.default_rng(8)
        kernel = _Kernel(random_params(rng, n), random_balanced_network(rng, n))
        arrays = [v for v in vars(kernel).values() if isinstance(v, np.ndarray)]
        arrays += [a.base for a in arrays if a.base is not None]
        assert arrays and max(a.size for a in arrays) <= n * n


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
        # one (n, 4T, 5) stack of all nodes' systems is 6.4 MB here; a chunk
        # and its QR copy take about two thirds of that
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
        assert estimation._CHUNK < n
        assert peak < n * 4 * t * 5 * 8


class TestBalanceCost:
    """How many batched solves one trips load's balancing makes."""

    def test_twelve_county_windows_take_at_most_twelve_solves(self, monkeypatch):
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
        assert 0 < len(shapes) <= 12
        assert all(shape[0] <= 12 for shape in shapes)
        colsum, rowsum = out.sum(axis=1), out.sum(axis=2)
        assert np.abs(colsum - rowsum).max() < 1e-14 * colsum.max()


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
        net = build_network(["solo"], [1000.0], np.zeros((1, 1)))
        params = EpidemicParams(
            alpha=np.array([0.1]), beta=np.array([30.0]),
            sigma=np.array([30.0]), delta=np.array([30.0]),
        )
        state = SystemState(s=np.array([0.6]), e=np.array([0.1]),
                            x=np.array([0.3]), r=np.array([0.0]))
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
