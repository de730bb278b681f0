"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -rA`` to see every line.

Criterion 3 (eigenvalue drift under balanced flow perturbations) is
implemented exactly as stated and is expected to FAIL: the underlying
invariance claim holds for the stability classification but not for the
full spectrum, whose drift is of the same order as the perturbation. The
failing assertion is kept rather than loosened; see the test's docstring.
"""
import time

import numpy as np
import pytest

from epiflows import (
    InfectedSet,
    ObservationSeries,
    SystemState,
    arrival_times,
    classify_healthy,
    derivative,
    effective_distance_from,
    eigenvalue_drift_under_perturbation,
    estimate_all,
    full_fit_baseline,
    group_effective_distance,
    integrate,
    log_distance_graph,
    parameter_rmse,
    prediction_rms,
    simulate_discrete,
    sliding_window_predict,
    solve_endemic,
    spectral_abscissa_condition,
    uniqueness_condition,
)
from epiflows.demo import (
    five_node_initial_state,
    five_node_system,
    seeded_initial_state,
    synthetic_county_system,
)
from epiflows.network import NetworkSchedule
from helpers import (
    all_pairs_by_enumeration,
    random_balanced_network,
    random_irreducible_nonneg,
    random_params,
    random_state,
    shortest_paths_by_enumeration,
)
from test_effdist import _group_graph_oracle, random_sparse_graph


def _report(num: int, ok: bool, detail: str) -> str:
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    return line


def test_criterion_1_simplex_conservation():
    """100 random starts on random strongly connected networks stay on the
    simplex under both integrators; runtime < 1 min."""
    rng = np.random.default_rng(101)
    start = time.time()
    worst_sum = 0.0
    sizes = [2, 5, 20] * 34
    for n in sizes[:100]:
        net = random_balanced_network(rng, n)
        params = random_params(rng, n)
        state = random_state(rng, n)
        traj = integrate(state, params, net, t_end=100.0, step=0.01)
        assert traj.data.min() >= 0.0 and traj.data.max() <= 1.0
        worst_sum = max(worst_sum, np.abs(traj.data.sum(axis=1) - 1.0).max())
        euler = simulate_discrete(state, params, net, steps=500, h=0.1)
        assert euler.data.min() >= 0.0 and euler.data.max() <= 1.0
        worst_sum = max(worst_sum, np.abs(euler.data.sum(axis=1) - 1.0).max())
    elapsed = time.time() - start
    ok = worst_sum < 1e-9 and elapsed < 60.0
    _report(1, ok, f"worst per-node sum error {worst_sum:.2e}, {elapsed:.0f}s")
    assert worst_sum < 1e-9
    assert elapsed < 60.0


def test_criterion_2_classification_matches_simulation():
    """Stable systems damp a small seed below 1e-5 by t=200; unstable ones
    grow it tenfold. Systems with |s(U)| < 0.03 are resampled: the thresholds
    presume enough spectral margin to act within the t=200 horizon."""
    rng = np.random.default_rng(202)
    start = time.time()
    disagreements = 0
    checked = 0
    while checked < 20:
        net = random_balanced_network(rng, 5)
        params = random_params(rng, 5)
        report = classify_healthy(params, net)
        if abs(report.s_of_U) < 0.03:
            continue
        checked += 1
        seed = (1.0 - 1e-3) * SystemState.healthy(5).as_matrix() + 1e-3 * 0.25
        traj = integrate(SystemState.from_matrix(seed), params, net,
                         t_end=200.0, step=0.01)
        if report.classification == "Stable":
            agrees = traj.final_state.x.max() < 1e-5
        else:
            agrees = traj.x.max() > 10.0 * 2.5e-4
        disagreements += not agrees
    elapsed = time.time() - start
    ok = disagreements == 0 and elapsed < 120.0
    _report(2, ok, f"{disagreements} disagreements in 20 systems, {elapsed:.0f}s")
    assert disagreements == 0
    assert elapsed < 120.0


def test_criterion_3_flow_perturbation_eigenvalue_drift():
    """50 random balanced perturbations: Hausdorff drift of the healthy-state
    Jacobian spectrum below 1e-8 in every trial.

    EXPECTED TO FAIL. Balance makes the perturbation block's row sums zero,
    not the block itself, so only the dominant part of the spectrum is
    protected: the measured drift scales linearly with theta (median around
    1e-3 here). The classification does not flip in these 50 trials, but
    that is no law: test_stability.py's TestTravelScaling shows it exactly
    invariant for equal rates at every node and flipped for unequal rates.
    The bound is asserted as stated instead of being weakened to match
    observed behavior.
    """
    rng = np.random.default_rng(303)
    drifts = []
    flips = 0
    for _ in range(50):
        n = int(rng.integers(2, 7))
        net = random_balanced_network(rng, n)
        params = random_params(rng, n)
        theta = float(rng.uniform(-0.9, 1.0)) * net.gamma
        drifts.append(eigenvalue_drift_under_perturbation(params, net, theta))
        from epiflows import perturb_flows_balanced

        before = classify_healthy(params, net).classification
        after = classify_healthy(params, perturb_flows_balanced(net, theta)).classification
        flips += before != after
    worst = max(drifts)
    ok = worst < 1e-8
    _report(3, ok, f"max drift {worst:.3e} (bound 1e-8), classification flips: {flips}/50")
    assert worst < 1e-8, (
        f"spectrum drift {worst:.3e} exceeds 1e-8: balance does not fix the whole "
        f"spectrum ({flips} classification flips here; TestTravelScaling flips one)"
    )


def test_criterion_4_sign_equivalence_oracle():
    """200 random (positive-diagonal Q, irreducible nonnegative M) pairs up
    to 12x12: sign(s(-Q+M)) matches sign(rho(Q^-1 M) - 1)."""
    rng = np.random.default_rng(404)
    checked = 0
    mismatches = 0
    while checked < 200:
        n = int(rng.integers(2, 13))
        q = np.diag(rng.uniform(0.1, 4.0, n))
        m = random_irreducible_nonneg(rng, n) * rng.uniform(0.2, 2.0)
        s = spectral_abscissa_condition(q, m)
        if abs(s) <= 1e-10:
            continue
        checked += 1
        rho = np.abs(np.linalg.eigvals(np.linalg.inv(q) @ m)).max()
        mismatches += np.sign(s) != np.sign(rho - 1.0)
    ok = mismatches == 0
    _report(4, ok, f"{mismatches} sign mismatches in 200 pairs")
    assert mismatches == 0


def test_criterion_5_endemic_fixed_point():
    """Five-node benchmark: residual < 1e-10, derivative < 1e-9, and 20
    random strictly positive starts agree within 1e-8."""
    net, params = five_node_system()
    assert uniqueness_condition(params, net)
    sol = solve_endemic(params, net, tolerance=1e-10)
    drift = float(np.abs(np.stack(derivative(sol.state, params, net))).max())
    rng = np.random.default_rng(505)
    spread = 0.0
    reference = sol.state.as_matrix()
    for _ in range(20):
        raw = rng.uniform(0.01, 1.0, (4, 5))
        init = SystemState.from_matrix(raw / raw.sum(axis=0))
        other = solve_endemic(params, net, init=init, tolerance=1e-10)
        spread = max(spread, float(np.abs(other.state.as_matrix() - reference).max()))
    ok = sol.residual < 1e-10 and drift < 1e-9 and spread < 1e-8
    _report(
        5, ok,
        f"residual {sol.residual:.2e}, derivative {drift:.2e}, multistart spread {spread:.2e}",
    )
    assert sol.residual < 1e-10
    assert drift < 1e-9
    assert spread < 1e-8


def test_criterion_6_noiseless_parameter_recovery():
    """Round-trip error below 1e-8 per parameter on the benchmark (T=300, h=1)."""
    net, params = five_node_system()
    traj = simulate_discrete(five_node_initial_state(), params, net, steps=300, h=1.0)
    est = estimate_all(ObservationSeries.from_trajectory(traj), solver="pseudo_inverse")
    rmse = parameter_rmse(params, est)
    ok = max(rmse) < 1e-8
    _report(6, ok, f"worst per-parameter RMSE {max(rmse):.2e}")
    assert max(rmse) < 1e-8


def test_criterion_7_noisy_parameter_recovery():
    """With observation noise 0.01, mean per-parameter RMSE over 20 seeds sits
    within [0.5x, 2x] of the benchmark's published errors; runtime < 5 min."""
    net, params = five_node_system()
    start = time.time()
    state0 = five_node_initial_state()
    per_seed = []
    for seed in range(20):
        traj = simulate_discrete(state0, params, net, steps=300, h=1.0,
                                 noise_std=0.01, rng=seed)
        est = estimate_all(ObservationSeries.from_trajectory(traj))
        per_seed.append(parameter_rmse(params, est))
    mean_rmse = np.mean(per_seed, axis=0)
    target = np.array([0.03, 0.01, 0.002, 0.012])
    ratio = mean_rmse / target
    elapsed = time.time() - start
    ok = bool(np.all(ratio >= 0.5) and np.all(ratio <= 2.0)) and elapsed < 300.0
    _report(
        7, ok,
        "RMSE (beta, sigma, delta, alpha) = "
        + ", ".join(f"{v:.4f}" for v in mean_rmse)
        + f"; ratio to target {np.round(ratio, 2).tolist()}; {elapsed:.0f}s",
    )
    assert np.all(ratio >= 0.5) and np.all(ratio <= 2.0)
    assert elapsed < 300.0


def test_criterion_8_effective_distance_oracle():
    """30 random graphs (n <= 8): label-setting distances equal simple-path
    enumeration exactly, for single sources and random infected groups."""
    rng = np.random.default_rng(808)
    for trial in range(30):
        n = int(rng.integers(3, 9))
        net = random_sparse_graph(rng, n, density=0.35)
        graph = log_distance_graph(net)
        got = np.stack([effective_distance_from(graph, j) for j in range(n)], axis=1)
        want = all_pairs_by_enumeration(graph.d)
        assert np.array_equal(got, want), f"single-source mismatch on trial {trial}"
        k = int(rng.integers(1, n))
        members = frozenset(int(v) for v in rng.choice(n, size=k, replace=False))
        grp = group_effective_distance(net, InfectedSet(members=members))
        oracle_d = _group_graph_oracle(net, members)
        grp_want = np.min(
            [shortest_paths_by_enumeration(oracle_d, m) for m in members], axis=0
        )
        assert np.array_equal(grp, grp_want), f"group mismatch on trial {trial}"
    _report(8, True, "30 graphs, exact agreement for sources and groups")


@pytest.fixture(scope="module")
def county_experiments():
    """Ten seeded runs of the 87-node synthetic epidemic with both the
    full-fit baseline and the shifting-window forecaster evaluated."""
    tau, ahead, threshold = 20, 10, 1e-3
    results = []
    start = time.time()
    for seed in range(10):
        net, params, origin = synthetic_county_system(n=87, seed=seed)
        schedule = NetworkSchedule.static(net)
        state0 = seeded_initial_state(net.n, origin, exposed=2e-3)
        traj = simulate_discrete(state0, params, schedule, steps=320, h=1.0)
        arrivals = arrival_times(traj.times, traj.x, threshold)
        origin_dist = effective_distance_from(log_distance_graph(net), origin)
        fit = full_fit_baseline(arrivals, origin_dist)
        window_rms = []
        for k in range(tau, len(arrivals) - ahead):
            forecast = sliding_window_predict(arrivals, schedule, tau, k)
            targets = {a.node: a.arrival_time for a in arrivals[k + 1 : k + 1 + ahead]}
            predicted = {i: t for i, t in forecast.predicted().items() if i in targets}
            window_rms.append(prediction_rms(predicted, targets))
        results.append(
            {
                "full_rms": fit.rms,
                "r_value": fit.r_value,
                "window_rms": float(np.mean(window_rms)),
                "arrivals": len(arrivals),
            }
        )
    return results, time.time() - start


def test_criterion_9_window_beats_full_fit(county_experiments):
    """Mean sliding-window RMS at least 30% below the full-fit RMS across ten
    87-node runs; runtime < 5 min."""
    results, elapsed = county_experiments
    mean_full = float(np.mean([r["full_rms"] for r in results]))
    mean_window = float(np.mean([r["window_rms"] for r in results]))
    reduction = 1.0 - mean_window / mean_full
    ok = reduction >= 0.30 and elapsed < 300.0
    _report(
        9, ok,
        f"full-fit RMS {mean_full:.2f} vs window RMS {mean_window:.2f} "
        f"({100 * reduction:.0f}% reduction), {elapsed:.0f}s",
    )
    assert reduction >= 0.30
    assert elapsed < 300.0


def test_criterion_10_linear_arrival_distance_relation(county_experiments):
    """Arrival time correlates with origin effective distance (R > 0.8)."""
    results, _ = county_experiments
    worst_r = min(r["r_value"] for r in results)
    ok = worst_r > 0.8
    _report(10, ok, f"lowest full-fit R across seeds {worst_r:.3f}")
    assert worst_r > 0.8


def test_criterion_11_ingestion_round_trip():
    """State inference reproduces the hand-computed interval assignment and
    keeps random case fixtures on the simplex."""
    import datetime

    from epiflows import CaseSeries, infer_states

    days = 70
    dates = tuple(
        datetime.date(2020, 3, 1) + datetime.timedelta(days=k) for k in range(days)
    )
    cumulative = np.zeros((days, 1))
    cumulative[10:, 0] = 1.0
    obs = infer_states(
        CaseSeries(node_ids=("a",), dates=dates, cumulative=cumulative),
        np.array([100.0]),
    )
    exact = True
    for t in range(days):
        want_e = 0.01 if 3 <= t <= 9 else 0.0
        want_x = 0.01 if 10 <= t <= 16 else 0.0
        want_r = 0.01 if 17 <= t <= 58 else 0.0
        row = obs.data[t, :, 0]
        exact &= row[1] == want_e and row[2] == want_x and row[3] == want_r
        exact &= row[0] == 1.0 - want_e - want_x - want_r
    assert exact

    rng = np.random.default_rng(1111)
    n, span = 10, 90
    dates = tuple(
        datetime.date(2020, 3, 1) + datetime.timedelta(days=k) for k in range(span)
    )
    cumulative = np.cumsum(rng.poisson(2.0, size=(span, n)), axis=0).astype(float)
    series = CaseSeries(
        node_ids=tuple(f"c{i}" for i in range(n)), dates=dates, cumulative=cumulative
    )
    obs = infer_states(series, np.full(n, 5e3))
    sum_err = float(np.abs(obs.data.sum(axis=1) - 1.0).max())
    in_bounds = bool(obs.data.min() >= 0.0 and obs.data.max() <= 1.0)
    for k in range(span):
        obs.state_at(k)
    ok = exact and in_bounds and sum_err < 1e-9
    _report(11, ok, f"interval assignment exact; worst sum error {sum_err:.1e}")
    assert in_bounds and sum_err < 1e-9
