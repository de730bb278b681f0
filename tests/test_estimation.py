import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import epiflows
from epiflows import (
    EpidemicParams,
    ObservationSeries,
    SystemState,
    build_network,
    build_regression,
    estimate_all,
    estimate_node,
    parameter_rmse,
    simulate_discrete,
    write_estimate_csv,
)
from epiflows import estimation
from epiflows.errors import DimensionMismatch, ScheduleMismatch, ValidationError
from epiflows.estimation import RANK_RATIO_TOL, read_params_csv
from epiflows.network import NetworkSchedule
from helpers import (
    PROPERTY_SETTINGS,
    balanced_systems,
    fit_by_node,
    random_balanced_network,
    random_params,
    random_state,
    regression_by_phi_rows,
    write_gravity_trips,
)


def isolated_system(beta=1.0, sigma=1.0, delta=0.5, alpha=0.1):
    net = build_network(["solo"], [1000.0], np.zeros((1, 1)))
    params = EpidemicParams(
        alpha=np.array([alpha]), beta=np.array([beta]),
        sigma=np.array([sigma]), delta=np.array([delta]),
    )
    return net, params


def series_from_sim(net, params, state0, steps, h, noise_std=0.0, rng=None):
    traj = simulate_discrete(state0, params, net, steps=steps, h=h,
                             noise_std=noise_std, rng=rng)
    return ObservationSeries.from_trajectory(traj)


class TestBuildRegression:
    def test_healthy_observation_is_degenerate(self, five_node):
        net, _ = five_node
        data = np.tile(SystemState.healthy(5).as_matrix(), (2, 1, 1))
        series = ObservationSeries(h=1.0, times=np.array([0.0, 1.0]), data=data,
                                   schedule=NetworkSchedule.static(net))
        psi, delta = build_regression(series, 0)
        assert psi.shape == (4, 4) and np.array_equal(psi, np.zeros((4, 4)))
        assert np.abs(delta).max() < 1e-15
        est = estimate_node(series, 0)
        assert not est.identifiable

    def test_flow_terms_match_direct_rearrangement(self):
        rng = np.random.default_rng(5)
        net = random_balanced_network(rng, 2)
        params = random_params(rng, 2, lo=0.1, hi=0.6)
        series = series_from_sim(net, params, random_state(rng, 2), steps=6, h=0.25)
        psi, delta = build_regression(series, 0)
        h, q = series.h, series.data
        for k in range(series.steps):
            for c in range(4):
                flow = h * (
                    net.gamma[0] * q[k, c, 0]
                    - sum(net.coupling[0, j] * q[k, c, j] for j in range(2))
                )
                want = q[k + 1, c, 0] - q[k, c, 0] + flow
                assert delta[c * series.steps + k] == pytest.approx(want, abs=1e-14)
        # exact data generated by the discrete model satisfies Psi theta = delta
        theta = np.array([params.beta[0], params.sigma[0], params.delta[0], params.alpha[0]])
        assert np.abs(psi @ theta - delta).max() < 1e-14

    def test_requires_schedule(self):
        rng = np.random.default_rng(0)
        data = np.stack([random_state(rng, 3).as_matrix() for _ in range(3)])
        series = ObservationSeries(h=1.0, times=np.arange(3.0), data=data)
        with pytest.raises(ScheduleMismatch):
            build_regression(series, 0)

    def test_short_schedule_rejected(self):
        rng = np.random.default_rng(1)
        net = random_balanced_network(rng, 3)
        data = np.stack([random_state(rng, 3).as_matrix() for _ in range(5)])
        schedule = NetworkSchedule(periods=((2.0, net),))
        with pytest.raises(ScheduleMismatch):
            ObservationSeries(h=1.0, times=np.arange(5.0), data=data, schedule=schedule)


    @pytest.mark.parametrize("h, times", [
        (np.nan, [0.0, 1.0, 2.0]),
        (np.inf, [0.0, 1.0, 2.0]),
        (1.0, [0.0, np.nan, 2.0]),
        (1.0, [0.0, 1.0, np.nan]),
        (1.0, [0.0, 1.0, np.inf]),
    ])
    def test_non_finite_series_rejected(self, five_node, h, times):
        net, _ = five_node
        data = np.tile(SystemState.healthy(5).as_matrix(), (3, 1, 1))
        with pytest.raises(ValidationError, match="must be finite"):
            ObservationSeries(h=h, times=np.array(times), data=data,
                              schedule=NetworkSchedule.static(net))


class TestEstimateNode:
    def test_isolated_node_round_trip(self):
        net, params = isolated_system()
        state0 = SystemState(s=np.array([0.9]), e=np.array([0.0]),
                             x=np.array([0.1]), r=np.array([0.0]))
        series = series_from_sim(net, params, state0, steps=40, h=0.1)
        est = estimate_node(series, 0, solver="pseudo_inverse")
        assert est.identifiable
        assert est.beta == pytest.approx(1.0, abs=1e-8)
        assert est.sigma == pytest.approx(1.0, abs=1e-8)
        assert est.delta == pytest.approx(0.5, abs=1e-8)
        assert est.alpha == pytest.approx(0.1, abs=1e-8)

    def test_nnls_matches_pinv_when_interior(self):
        net, params = isolated_system()
        state0 = SystemState(s=np.array([0.9]), e=np.array([0.0]),
                             x=np.array([0.1]), r=np.array([0.0]))
        series = series_from_sim(net, params, state0, steps=40, h=0.1)
        a = estimate_node(series, 0, solver="pseudo_inverse")
        b = estimate_node(series, 0, solver="nnls")
        for name in ("beta", "sigma", "delta", "alpha"):
            assert getattr(a, name) == pytest.approx(getattr(b, name), abs=1e-8)

    def test_nnls_clips_negative_healing_rate(self):
        # observations where x climbs while e stays tiny force the
        # unconstrained healing-rate estimate negative
        net, _ = isolated_system()
        steps = 12
        x = 0.10 + 0.02 * np.arange(steps + 1.0)
        e = np.full(steps + 1, 0.01)
        s = np.full(steps + 1, 0.50)
        r = 1.0 - s - e - x
        data = np.stack([s, e, x, r], axis=1)[:, :, None]
        series = ObservationSeries(h=1.0, times=np.arange(steps + 1.0), data=data,
                                   schedule=NetworkSchedule.static(net))
        pinv = estimate_node(series, 0, solver="pseudo_inverse")
        nnls = estimate_node(series, 0, solver="nnls")
        assert pinv.delta < 0
        assert nnls.delta == 0.0
        assert nnls.residual_norm >= pinv.residual_norm
        # KKT at the active constraint: gradient is nonnegative there and
        # vanishes on the free coordinates
        psi, delta = build_regression(series, 0)
        theta = np.array([nnls.beta, nnls.sigma, nnls.delta, nnls.alpha])
        grad = psi.T @ (psi @ theta - delta)
        for i in range(4):
            if theta[i] == 0.0:
                assert grad[i] >= -1e-10
            else:
                assert abs(grad[i]) < 1e-10

    def test_unknown_solver(self):
        net, params = isolated_system()
        series = series_from_sim(net, params, SystemState.healthy(1), steps=2, h=0.1)
        with pytest.raises(ValidationError):
            estimate_node(series, 0, solver="ridge")


class TestEstimateAll:
    def test_noiseless_benchmark_recovery(self, five_node, five_node_start):
        net, params = five_node
        series = series_from_sim(net, params, five_node_start, steps=300, h=1.0)
        est = estimate_all(series, solver="pseudo_inverse")
        rmse = parameter_rmse(params, est)
        assert max(rmse) < 1e-8
        assert est.identifiable.all()

    def test_all_healthy_series_unidentifiable(self, five_node):
        net, params = five_node
        series = series_from_sim(net, params, SystemState.healthy(5), steps=10, h=1.0)
        est = estimate_all(series)
        assert not est.identifiable.any()

    def test_nnls_default_is_nonnegative(self, five_node, five_node_start):
        net, params = five_node
        series = series_from_sim(net, params, five_node_start, steps=120, h=1.0,
                                 noise_std=0.02, rng=3)
        est = estimate_all(series)
        for name in ("alpha", "beta", "sigma", "delta"):
            assert getattr(est.params, name).min() >= 0.0

    def test_time_varying_schedule_round_trip(self):
        # per-step flows enter the regression, so recovery must stay exact
        # when the network switches mid-series
        rng = np.random.default_rng(13)
        a = random_balanced_network(rng, 3)
        b = build_network(a.node_ids, a.populations, 3.0 * a.flows)
        schedule = NetworkSchedule(periods=((10.0, a), (30.0, b)))
        params = random_params(rng, 3, lo=0.1, hi=0.5)
        traj = simulate_discrete(random_state(rng, 3), params, schedule,
                                 steps=30, h=1.0)
        est = estimate_all(ObservationSeries.from_trajectory(traj),
                           solver="pseudo_inverse")
        assert max(parameter_rmse(params, est)) < 1e-10
        # feeding the wrong period ordering must break the fit
        wrong = NetworkSchedule(periods=((10.0, b), (30.0, a)))
        series = ObservationSeries(h=1.0, times=traj.times, data=traj.data,
                                   schedule=wrong)
        bad = estimate_all(series, solver="pseudo_inverse")
        assert max(parameter_rmse(params, bad)) > 1e-4

    @PROPERTY_SETTINGS
    @given(balanced_systems(periods=3))
    def test_matches_per_node_phi_row_regressions(self, system):
        nets, params, state = system
        schedule = NetworkSchedule(periods=tuple((4.0, net) for net in nets))
        traj = simulate_discrete(state, params, schedule, steps=40, h=0.25)
        series = ObservationSeries.from_trajectory(traj)
        est = estimate_all(series, solver="pseudo_inverse")
        for i in range(series.n):
            psi, delta = regression_by_phi_rows(series, i)
            theta, *_ = np.linalg.lstsq(psi, delta, rcond=None)
            got = [getattr(est.params, name)[i] for name in ("beta", "sigma", "delta", "alpha")]
            assert np.abs(np.array(got) - theta).max() < 1e-12

    def test_permutation_equivariance(self, five_node, five_node_start):
        net, params = five_node
        series = series_from_sim(net, params, five_node_start, steps=60, h=1.0)
        base = estimate_all(series, solver="pseudo_inverse")

        perm = [3, 0, 4, 1, 2]
        pnet = build_network(
            [net.node_ids[i] for i in perm],
            net.populations[perm],
            net.flows[np.ix_(perm, perm)],
        )
        pparams = EpidemicParams(
            alpha=params.alpha[perm], beta=params.beta[perm],
            sigma=params.sigma[perm], delta=params.delta[perm],
        )
        pstart = SystemState.from_matrix(five_node_start.as_matrix()[:, perm])
        pseries = series_from_sim(pnet, pparams, pstart, steps=60, h=1.0)
        permuted = estimate_all(pseries, solver="pseudo_inverse")
        for name in ("alpha", "beta", "sigma", "delta"):
            assert np.abs(
                getattr(permuted.params, name) - getattr(base.params, name)[perm]
            ).max() < 1e-10


@st.composite
def stacked_systems(draw, max_k=8, max_t=6):
    """Stacks [Psi | delta] of shape (k, 4T, 5), T from 1: each node's Psi is
    full, has a zero column, has two collinear columns, or is 0."""
    k, t = draw(st.integers(1, max_k)), draw(st.integers(1, max_t))
    kinds = draw(st.lists(st.sampled_from(["full", "zero", "collinear", "empty"]),
                          min_size=k, max_size=k))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.normal(size=(k, 4 * t, 5)) * 10.0 ** rng.uniform(-3, 1, (k, 1, 1))
    for i, kind in enumerate(kinds):
        j, other = rng.choice(4, 2, replace=False)
        if kind == "zero":
            a[i, :, j] = 0.0
        elif kind == "collinear":
            a[i, :, j] = rng.uniform(-2.0, 2.0) * a[i, :, other]
        elif kind == "empty":
            a[i, :, :4] = 0.0
    return a


class TestStackedFit:
    """The stacked QR fit against lstsq / scipy.optimize.nnls / svd per node."""

    @PROPERTY_SETTINGS
    @given(stacked_systems(), st.sampled_from(estimation.SOLVERS))
    def test_matches_per_node_fit(self, a, solver):
        theta, residual, identifiable, cond = estimation._fit(a, solver)
        for i in range(len(a)):
            psi, delta = a[i, :, :4], a[i, :, 4]
            want, want_residual, want_identifiable, want_cond = fit_by_node(psi, delta, solver)
            assert identifiable[i] == want_identifiable
            slack = 1e-12 * (1.0 + np.linalg.norm(delta))
            if solver == "nnls":
                assert theta[i].min() >= 0.0
            assert abs(residual[i] - want_residual) <= slack
            assert abs(residual[i] - np.linalg.norm(psi @ theta[i] - delta)) <= slack
            if want_identifiable:
                tol = 1e-12 if solver == "pseudo_inverse" else 1e-10
                assert np.abs(theta[i] - want).max() <= tol * max(1.0, np.abs(want).max())
                assert cond[i] == pytest.approx(want_cond, rel=1e-10)
            else:
                assert min(cond[i], want_cond) > 1.0 / RANK_RATIO_TOL

    @PROPERTY_SETTINGS
    @given(balanced_systems(periods=2, max_n=12), st.sampled_from(estimation.SOLVERS))
    def test_chunks_match_one_stack(self, system, solver):
        nets, params, state = system
        schedule = NetworkSchedule(periods=tuple((5.0, net) for net in nets))
        traj = simulate_discrete(state, params, schedule, steps=10, h=0.5,
                                 noise_std=0.01 if solver == "nnls" else 0.0, rng=0)
        series = ObservationSeries.from_trajectory(traj)
        whole = estimate_all(series, solver)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(estimation, "_CHUNK", 3)
            chunked = estimate_all(series, solver)
        def results(e):
            return (e.params.beta, e.params.sigma, e.params.delta, e.params.alpha,
                    e.residual_norm, e.condition_number)

        # the chunks' travel products may round differently from the whole one's
        for got, want in zip(results(chunked), results(whole)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13)
        assert np.array_equal(chunked.identifiable, whole.identifiable)


class TestParameterRmse:
    def test_identical_inputs(self, five_node):
        _, params = five_node
        assert parameter_rmse(params, params) == (0.0, 0.0, 0.0, 0.0)

    def test_single_parameter_error(self):
        a = EpidemicParams(*(np.array([0.5]) for _ in range(4)))
        b = EpidemicParams(
            alpha=np.array([0.5]), beta=np.array([0.6]),
            sigma=np.array([0.5]), delta=np.array([0.5]),
        )
        assert parameter_rmse(a, b) == (pytest.approx(0.1), 0.0, 0.0, 0.0)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(9)
        a, b = random_params(rng, 7), random_params(rng, 7)
        got = parameter_rmse(a, b)
        for k, name in enumerate(("beta", "sigma", "delta", "alpha")):
            want = np.sqrt(np.mean((getattr(a, name) - getattr(b, name)) ** 2))
            assert got[k] == pytest.approx(want, rel=1e-12)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(2)
        with pytest.raises(DimensionMismatch):
            parameter_rmse(random_params(rng, 3), random_params(rng, 4))


class TestSerialization:
    def test_csv_round_trip(self, five_node, five_node_start, tmp_path):
        net, params = five_node
        series = series_from_sim(net, params, five_node_start, steps=50, h=1.0)
        est = estimate_all(series, solver="pseudo_inverse")
        path = tmp_path / "estimate.csv"
        write_estimate_csv(path, est)
        node_ids, loaded = read_params_csv(path)
        assert node_ids == net.node_ids
        for name in ("alpha", "beta", "sigma", "delta"):
            assert np.array_equal(getattr(loaded, name), getattr(est.params, name))

    def test_to_dict_fields(self, five_node, five_node_start):
        net, params = five_node
        series = series_from_sim(net, params, five_node_start, steps=20, h=1.0)
        payload = estimate_all(series).to_dict()
        row = payload["nodes"][0]
        assert set(row) == {
            "node_id", "beta", "sigma", "delta", "alpha",
            "residual", "identifiable", "condition_number",
        }


def test_import_leaves_scipy_optimize_unloaded():
    # only NNLS estimation needs scipy.optimize, the slowest import of the package
    src = os.path.dirname(os.path.dirname(epiflows.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = "import sys, epiflows; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "False"


def test_import_leaves_scipy_sparse_unloaded(tmp_path, five_node):
    # only graph algorithms need scipy.sparse; loading trips or simulating does not
    net, params = five_node
    ids, pops = net.node_ids, tmp_path / "pop.csv"
    pops.write_text("node_id,population\n" + "".join(
        f"{i},{p!r}\n" for i, p in zip(ids, net.populations.tolist())))
    write_gravity_trips(tmp_path / "trips.csv", net, seed=2)
    (tmp_path / "params.csv").write_text("node_id,beta,sigma,delta,alpha\n" + "".join(
        f"{i},{b!r},{s!r},{d!r},{a!r}\n" for i, b, s, d, a in zip(
            ids, params.beta.tolist(), params.sigma.tolist(), params.delta.tolist(),
            params.alpha.tolist())))
    src = os.path.dirname(os.path.dirname(epiflows.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = """import sys, epiflows, epiflows.cli
loaded = ['scipy.sparse' in sys.modules]
ids, pops = epiflows.load_populations('pop.csv')
epiflows.load_flows('trips.csv', ids, pops)
loaded.append('scipy.sparse' in sys.modules)
code = epiflows.cli.main(['simulate', '--populations', 'pop.csv', '--flows', 'trips.csv',
                          '--params', 'params.csv', '--initial', 'seeded',
                          '--seed-node', ids[0], '--steps', '5', '--out-dir', 'out'])
print(code, *loaded, 'scipy.sparse' in sys.modules)"""
    out = subprocess.run([sys.executable, "-c", probe], env=env, cwd=tmp_path, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.split()[-4:] == ["0", "False", "False", "False"]
