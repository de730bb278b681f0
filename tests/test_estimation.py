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
    coupling_by_formula,
    fit_by_node,
    random_balanced_network,
    random_params,
    random_state,
    regression_by_phi_rows,
    traced_peak,
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

    def test_long_series_fits_in_less_than_two_and_a_half_times_its_states(
            self, five_node, five_node_start):
        # the 30 001 samples of the README's continuous demo; forming the
        # travel terms of a whole period at once held four times the states
        net, params = five_node
        series = series_from_sim(net, params, five_node_start, steps=30_000, h=0.01)
        est, peak = traced_peak(lambda: estimate_all(series))
        assert est.identifiable.all()
        assert peak < 2.5 * series.data.nbytes

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

    def test_pseudo_inverse_keeps_each_nodes_unconstrained_fit(self):
        # Dirichlet-random states follow no SEIRS system, so some fits go
        # negative; every node still gets the fit estimate_node gives it
        n, t = 400, 100
        rng = np.random.default_rng(6)
        data = rng.dirichlet(np.ones(4), size=(t + 1, n)).transpose(0, 2, 1).copy()
        series = ObservationSeries(h=1.0, times=np.arange(t + 1.0), data=data,
                                   schedule=NetworkSchedule.static(random_balanced_network(rng, n)))
        est = estimate_all(series, solver="pseudo_inverse")
        nodes = [estimate_node(series, i, solver="pseudo_inverse") for i in range(n)]
        names = ("beta", "sigma", "delta", "alpha")
        got = np.stack([getattr(est.params, name) for name in names], axis=1)
        want = np.array([[getattr(node, name) for name in names] for node in nodes])
        assert got.min() < 0
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        assert np.allclose(est.residual_norm, [node.residual_norm for node in nodes],
                           rtol=1e-12, atol=0)

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

    def test_long_series_is_factored_a_slice_at_a_time(self):
        # 30 000 steps of 12 nodes make 8.6 MB of compartment blocks, more
        # than one slice of them; each node still gets its own fit
        n, t = 12, 30_000
        rng = np.random.default_rng(12)
        net, params = random_balanced_network(rng, n), random_params(rng, n, lo=0.1, hi=0.5)
        series = series_from_sim(net, params, random_state(rng, n), steps=t, h=0.01)
        assert estimation._QR_BYTES // (3 * t * 8) < n
        est = estimate_all(series, solver="pseudo_inverse")
        names = ("beta", "sigma", "delta", "alpha")
        got = np.stack([getattr(est.params, name) for name in names], axis=1)
        nodes = [estimate_node(series, i, solver="pseudo_inverse") for i in range(n)]
        want = np.array([[getattr(node, name) for name in names] for node in nodes])
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        assert max(parameter_rmse(params, est)) < 1e-8

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


def two_period_series(system, solver):
    """Observations of a drawn system over two periods, noisy for nnls."""
    nets, params, state = system
    schedule = NetworkSchedule(periods=tuple((5.0, net) for net in nets))
    traj = simulate_discrete(state, params, schedule, steps=10, h=0.5,
                             noise_std=0.01 if solver == "nnls" else 0.0, rng=0)
    return ObservationSeries.from_trajectory(traj)


def factors_of(series, nodes=slice(None)):
    """estimation._factors of the nodes in the slice ``nodes``."""
    increments = estimation._increments(series, estimation._step_groups(series))
    return estimation._factors(series.data[:-1, :, nodes], increments[:, :, nodes], series.h)


class TestStackedFit:
    """The stacked fit against lstsq / scipy.optimize.nnls / svd per node."""

    @PROPERTY_SETTINGS
    @given(stacked_systems(), st.sampled_from(estimation.SOLVERS))
    def test_matches_per_node_fit(self, a, solver):
        theta, residual, identifiable, cond, constrained = estimation._fit(
            np.linalg.qr(a, mode="r"), a.shape[1], solver)
        for i in range(len(a)):
            psi, delta = a[i, :, :4], a[i, :, 4]
            want, want_residual, want_identifiable, want_cond = fit_by_node(psi, delta, solver)
            assert identifiable[i] == want_identifiable
            slack = 1e-12 * (1.0 + np.linalg.norm(delta))
            if solver == "nnls":
                assert theta[i].min() >= 0.0
            elif want_identifiable:
                assert constrained[i] == (want.min() < 0)
            assert abs(residual[i] - want_residual) <= slack
            assert abs(residual[i] - np.linalg.norm(psi @ theta[i] - delta)) <= slack
            if want_identifiable:
                tol = 1e-12 if solver == "pseudo_inverse" else 1e-10
                assert np.abs(theta[i] - want).max() <= tol * max(1.0, np.abs(want).max())
                assert cond[i] == pytest.approx(want_cond, rel=1e-10)
            else:
                assert min(cond[i], want_cond) > 1.0 / RANK_RATIO_TOL

    @PROPERTY_SETTINGS
    @given(stacked_systems())
    def test_supports_are_searched_where_the_fit_is_negative_or_rank_deficient(self, a):
        # elsewhere the unconstrained fit is the nonnegative optimum, and kept
        r, rows = np.linalg.qr(a, mode="r"), a.shape[1]
        theta, _, identifiable, _, constrained = estimation._fit(r, rows, "nnls")
        unconstrained = estimation._fit(r, rows, "pseudo_inverse")[0]
        # the search takes contiguous copies of the factors of the nodes it needs
        searched = estimation._nonnegative(r[:, :4, :4].copy(), r[:, :4, 4].copy(),
                                           np.finfo(float).eps * rows)
        for i in range(len(a)):
            want = searched[i] if constrained[i] or not identifiable[i] else unconstrained[i]
            assert np.array_equal(theta[i], want)

    @PROPERTY_SETTINGS
    @given(balanced_systems(periods=2, max_n=12), st.sampled_from(estimation.SOLVERS),
           st.integers(1, 12))
    def test_qr_slices_match_one_call(self, system, solver, step):
        # each system is built and factored on its own, so factoring the
        # nodes a slice at a time changes no bit
        series = two_period_series(system, solver)
        whole = factors_of(series)
        sliced = np.concatenate([factors_of(series, slice(i, i + step))
                                 for i in range(0, series.n, step)])
        assert np.array_equal(sliced, whole)

    @PROPERTY_SETTINGS
    @given(stacked_systems(max_k=12), st.sampled_from(estimation.SOLVERS), st.integers(1, 5))
    def test_chunks_match_one_stack(self, a, solver, step):
        # each node is fitted on its own, the support search over the
        # nodes that need it too, so fitting chunks of nodes changes no bit
        r = np.linalg.qr(a, mode="r")
        whole = estimation._fit(r, a.shape[1], solver)
        for i in range(0, len(a), step):
            chunk = estimation._fit(r[i : i + step], a.shape[1], solver)
            for got, want in zip(chunk, whole):
                assert np.array_equal(got, want[i : i + step], equal_nan=True)

    @PROPERTY_SETTINGS
    @given(balanced_systems(periods=2, max_n=6), st.integers(0, 2**32 - 1))
    def test_compartment_factors_match_the_dense_qr(self, system, seed):
        # R^T R = A^T A for the dense system A = [Psi | delta] of
        # build_regression, at T = 1, T = 2 and longer, with all-zero flux
        # columns where a compartment is empty
        nets, _, _ = system
        n, rng = nets[0].n, np.random.default_rng(seed)
        schedule = NetworkSchedule(periods=tuple((5.0, net) for net in nets))
        for t in (1, 2, 7):
            data = rng.dirichlet(np.ones(4), size=(t + 1, n)).transpose(0, 2, 1)
            data[:, rng.random((4, n)) < 0.3] = 0.0  # compartments empty at every sample
            data[:, 0] += data.sum(axis=1) == 0  # a node with none left is all susceptible
            data /= data.sum(axis=1, keepdims=True)
            series = ObservationSeries(h=0.5, times=0.5 * np.arange(t + 1.0), data=data,
                                       schedule=schedule)
            r = factors_of(series)
            assert r.shape == (n, min(4 * t, 5), 5)
            for i in range(n):
                psi, delta = build_regression(series, i)
                gram = np.column_stack([psi, delta])
                gram = gram.T @ gram
                got = r[i].T @ r[i]
                assert np.abs(got - gram).max() <= 1e-12 * max(np.abs(gram).max(), 1e-300)

    def test_mixed_chunk_matches_per_node_fit(self):
        # one chunk holds nodes whose unconstrained fit is feasible, nodes
        # run backwards in time whose fit has negative rates, and empty
        # nodes whose systems are 0; the support search runs on a subset
        n, t = 12, 30
        rng = np.random.default_rng(4)
        net = build_network([f"n{i}" for i in range(n)], np.full(n, 1e4), np.zeros((n, n)))
        params = random_params(rng, n, lo=0.05, hi=0.5)
        traj = simulate_discrete(random_state(rng, n), params, net, steps=t, h=1.0)
        data = traj.data.copy()
        backwards, empty = np.arange(n) % 3 == 1, np.arange(n) % 3 == 2
        data[:, :, backwards] = data[::-1, :, backwards]
        data[:, :, empty] = SystemState.healthy(int(empty.sum())).as_matrix()
        series = ObservationSeries(h=1.0, times=traj.times, data=data,
                                   schedule=NetworkSchedule.static(net))
        names = ("beta", "sigma", "delta", "alpha")
        for solver in estimation.SOLVERS:
            est = estimate_all(series, solver)
            assert np.array_equal(est.identifiable, ~empty)
            assert est.constrained[backwards].all() and not est.constrained[~backwards].any()
            for i in range(n):
                psi, delta = build_regression(series, i)
                want, want_residual, _, want_cond = fit_by_node(psi, delta, solver)
                got = np.array([getattr(est.params, name)[i] for name in names])
                tol = 1e-12 if solver == "pseudo_inverse" else 1e-10
                assert np.abs(got - want).max() <= tol * max(1.0, np.abs(want).max())
                assert abs(est.residual_norm[i] - want_residual) <= 1e-12 * (
                    1.0 + np.linalg.norm(delta))
                if not empty[i]:
                    assert est.condition_number[i] == pytest.approx(want_cond, rel=1e-10)

    @pytest.mark.parametrize("solver", estimation.SOLVERS)
    def test_travel_terms_match_the_coupling_formula(self, solver):
        # one product per period with the routing, instead of one with the
        # coupling Phi: per entry, n + 8 roundings of the travel term h gamma_i
        # and two of the increment, against the formula; the fit stays within
        # the per-node oracle's tolerances
        n, rng = 150, np.random.default_rng(9)
        pops = rng.uniform(1e3, 1e5, n)
        nets = []
        for _ in range(3):
            flows = rng.uniform(0.1, 1.0, (n, n))
            flows += flows.T
            np.fill_diagonal(flows, 0.0)
            nets.append(build_network([f"n{i}" for i in range(n)], pops, flows))
        schedule = NetworkSchedule(periods=tuple((2.0, net) for net in nets))
        traj = simulate_discrete(random_state(rng, n), random_params(rng, n), schedule,
                                 steps=12, h=0.5, noise_std=0.01, rng=0)
        series = ObservationSeries.from_trajectory(traj)
        got = estimation._increments(series, estimation._step_groups(series))
        q, h, eps = series.data, series.h, np.finfo(float).eps
        for k in range(series.steps):
            net = schedule.network_at(series.times[k])
            phi = coupling_by_formula(net.populations, net.routing, net.gamma)
            want = q[k + 1] - q[k] + h * (net.gamma * q[k] - q[k] @ phi.T)
            bound = (n + 8) * eps * h * net.gamma + 2 * eps * np.abs(want)
            assert np.all(np.abs(got[k] - want) <= bound)
        est = estimate_all(series, solver)
        names = ("beta", "sigma", "delta", "alpha")
        for i in range(n):
            psi, delta = regression_by_phi_rows(series, i)
            want, want_residual, identifiable, _ = fit_by_node(psi, delta, solver)
            assert identifiable and est.identifiable[i]
            theta = np.array([getattr(est.params, name)[i] for name in names])
            tol = 1e-12 if solver == "pseudo_inverse" else 1e-10
            assert np.abs(theta - want).max() <= tol * max(1.0, np.abs(want).max())


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
        assert set(payload) == {"nodes", "constrained_nodes"}
        row = payload["nodes"][0]
        assert set(row) == {
            "node_id", "beta", "sigma", "delta", "alpha",
            "residual", "identifiable", "condition_number",
        }


def test_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize is the slowest scipy import; no part of the package needs it
    src = os.path.dirname(os.path.dirname(epiflows.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = "import sys, epiflows; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "False"


def test_import_leaves_scipy_sparse_unloaded(tmp_path, five_node):
    # no part of the package needs scipy.sparse: not loading trips, simulating,
    # the stability report or data validation
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
loaded.append('scipy.sparse' in sys.modules)
files = ['--populations', 'pop.csv', '--flows', 'trips.csv', '--out-dir', 'out']
code += epiflows.cli.main(['stability', '--params', 'params.csv', '--endemic', *files])
code += epiflows.cli.main(['validate-data', *files])
print(code, *loaded, 'scipy.sparse' in sys.modules)"""
    out = subprocess.run([sys.executable, "-c", probe], env=env, cwd=tmp_path, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.split()[-5:] == ["0", "False", "False", "False", "False"]
