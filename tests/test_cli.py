import csv
import json
import os
import shlex
import stat
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import epiflows
from epiflows import (
    EpidemicParams,
    build_network,
    classify_healthy,
    cli,
    effdist,
    eigenvalue_drift_under_perturbation,
    perturb_flows_balanced,
    read_trajectory_csv,
    simulate_discrete,
    stability,
    write_trajectory_csv,
)
from epiflows.cli import main
from epiflows.network import _worst_imbalance
from epiflows.demo import (
    five_node_initial_state,
    five_node_system,
    seeded_initial_state,
    synthetic_county_system,
)
from helpers import forecasts_by_index, write_gravity_trips


def run(*argv):
    return main(list(argv))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def dump_system_csvs(tmp_path, net, params=None, date="2020-03-01"):
    """Write a network (and optional rates) in the CLI's file formats."""
    pop = tmp_path / "pop.csv"
    with open(pop, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["node_id", "population"])
        for nid, p in zip(net.node_ids, net.populations):
            w.writerow([nid, repr(float(p))])
    flows = tmp_path / "flows.csv"
    with open(flows, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["date", "from_id", "to_id", "trips"])
        for j, src in enumerate(net.node_ids):
            for i, dst in enumerate(net.node_ids):
                if i != j and net.flows[i, j] > 0:
                    w.writerow([date, src, dst, repr(float(net.flows[i, j]))])
    paths = {"populations": pop, "flows": flows}
    if params is not None:
        rates = tmp_path / "params.csv"
        with open(rates, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["node_id", "beta", "sigma", "delta", "alpha"])
            for i, nid in enumerate(net.node_ids):
                w.writerow([nid, repr(float(params.beta[i])), repr(float(params.sigma[i])),
                            repr(float(params.delta[i])), repr(float(params.alpha[i]))])
        paths["params"] = rates
    return paths


class TestSimulate:
    def test_demo_reaches_endemic_plateau(self, tmp_path):
        code = run("simulate", "--demo", "five-node", "--steps", "400",
                   "--out-dir", str(tmp_path))
        assert code == 0
        summary = read_json(tmp_path / "summary.json")
        assert summary["endemic_plateau"] is True
        assert min(summary["final_infected"]) > 1e-3
        assert (tmp_path / "trajectory.csv").exists()

    def test_healthy_start_is_constant(self, tmp_path):
        code = run("simulate", "--demo", "five-node", "--initial", "healthy",
                   "--steps", "50", "--out-dir", str(tmp_path))
        assert code == 0
        summary = read_json(tmp_path / "summary.json")
        assert summary["final_infected"] == [0.0] * 5
        assert summary["endemic_plateau"] is False

    def test_missing_file_exits_2_with_error_json(self, tmp_path, capsys):
        code = run("simulate", "--populations", str(tmp_path / "nope.csv"),
                   "--flows", str(tmp_path / "nope2.csv"),
                   "--params", str(tmp_path / "nope3.csv"),
                   "--out-dir", str(tmp_path))
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert "error" in err and err["error"]["message"]
        assert not (tmp_path / "trajectory.csv").exists()

    def test_byte_identical_given_seed(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            code = run("simulate", "--demo", "five-node", "--steps", "80",
                       "--noise-std", "0.01", "--seed", "11", "--out-dir", str(out))
            assert code == 0
        assert (a / "trajectory.csv").read_bytes() == (b / "trajectory.csv").read_bytes()
        assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()

    def test_continuous_mode(self, tmp_path):
        code = run("simulate", "--demo", "five-node", "--mode", "continuous",
                   "--t-end", "5", "--step", "0.05", "--out-dir", str(tmp_path))
        assert code == 0
        summary = read_json(tmp_path / "summary.json")
        assert summary["t_final"] == pytest.approx(5.0)

    @pytest.mark.parametrize("argv", [
        ["--mode", "continuous", "--step", "nan"],
        ["--mode", "continuous", "--step", "inf"],
        ["--h", "nan"],
        ["--h", "inf"],
        ["--noise-std", "nan"],
        ["--noise-std", "inf"],
        ["--noise-std", "-0.01"],
    ])
    def test_non_finite_argument_exits_2_with_json(self, tmp_path, capsys, argv):
        code = run("simulate", "--demo", "five-node", *argv, "--out-dir", str(tmp_path))
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ValidationError"
        assert "must be finite" in err["error"]["message"]
        assert not (tmp_path / "trajectory.csv").exists()

    def test_nan_seed_exposure_exits_2_before_any_step(self, tmp_path, capsys):
        with mock.patch.object(cli, "simulate_discrete", wraps=cli.simulate_discrete) as sim:
            code = run("simulate", "--demo", "five-node", "--initial", "seeded",
                       "--seed-node", "n1", "--seed-exposed", "nan", "--out-dir", str(tmp_path))
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "InvalidState"
        assert sim.call_count == 0
        assert os.listdir(tmp_path) == []

    def test_gnuplot_script_emitted(self, tmp_path):
        code = run("simulate", "--demo", "five-node", "--steps", "10",
                   "--gnuplot", "--out-dir", str(tmp_path))
        assert code == 0
        assert "trajectory.csv" in (tmp_path / "trajectory.gp").read_text()


class TestStability:
    def test_demo_unstable_with_endemic_solve(self, tmp_path):
        code = run("stability", "--demo", "five-node", "--endemic",
                   "--out-dir", str(tmp_path))
        assert code == 0
        report = read_json(tmp_path / "stability.json")
        assert report["classification"] == "Unstable"
        assert report["uniqueness_condition"] is True
        endemic = read_json(tmp_path / "endemic.json")
        assert endemic["residual"] < 1e-10
        assert min(endemic["state"]["x"]) > 0

    def test_scaled_down_infection_rate_goes_stable(self, tmp_path):
        # the healing rates are tiny, so the infection rates must drop by
        # around 100x (not 10x) before s(U) crosses zero
        net, params = five_node_system()
        from epiflows import EpidemicParams

        weak = EpidemicParams(alpha=params.alpha, beta=params.beta / 100.0,
                              sigma=params.sigma, delta=params.delta)
        paths = dump_system_csvs(tmp_path, net, weak)
        code = run("stability", "--populations", str(paths["populations"]),
                   "--flows", str(paths["flows"]), "--params", str(paths["params"]),
                   "--aggregation-days", "1", "--out-dir", str(tmp_path))
        assert code == 0
        assert read_json(tmp_path / "stability.json")["classification"] == "Stable"

    def test_perturbation_drift_reported(self, tmp_path):
        code = run("stability", "--demo", "five-node", "--perturb-scale", "0.1",
                   "--out-dir", str(tmp_path))
        assert code == 0
        report = read_json(tmp_path / "stability.json")
        assert report["perturbation"]["eigenvalue_drift"] >= 0.0

    @pytest.mark.parametrize("scale", ["1e9", "1e12"])
    def test_large_perturbation_scale_accepted(self, tmp_path, scale):
        """theta = scale * gamma is balanced at every scale. Fails at the
        parent, whose balance check used an absolute bound of 1e-10."""
        assert run("stability", "--demo", "five-node", "--perturb-scale", scale,
                   "--out-dir", str(tmp_path)) == 0
        assert read_json(tmp_path / "stability.json")["perturbation"]["theta_scale"] == float(scale)

    def test_perturbation_solves_each_network_once(self, tmp_path):
        # a 2n and an n eigensolve for the network, the same for its
        # perturbation: the drift reuses the command's own report
        with mock.patch.object(stability, "_eigvals", wraps=stability._eigvals) as eig:
            assert run("stability", "--demo", "five-node", "--perturb-scale", "0.1",
                       "--out-dir", str(tmp_path)) == 0
        assert [call.args[0].shape for call in eig.call_args_list] == [(10, 10), (5, 5)] * 2

    @pytest.mark.parametrize("system", ["demo", "county"])
    def test_perturbation_matches_the_library(self, tmp_path, system):
        if system == "demo":
            inputs = ["--demo", "five-node"]
        else:
            # a band wider than |s(U)| on both networks shows it reaches the
            # perturbed network's classification
            net, params, _ = synthetic_county_system(n=87, seed=1)
            paths = dump_system_csvs(tmp_path, net, params)
            inputs = ["--populations", str(paths["populations"]), "--flows",
                      str(paths["flows"]), "--params", str(paths["params"]),
                      "--aggregation-days", "1", "--marginal-band", "1"]
        argv = ["stability", *inputs, "--perturb-scale", "0.1", "--out-dir", str(tmp_path)]
        assert run(*argv) == 0
        args = cli.build_parser().parse_args(argv)
        schedule, params = cli._load_system(args)
        net = schedule.periods[0][1]
        theta = 0.1 * net.gamma
        after = classify_healthy(params, perturb_flows_balanced(net, theta), args.marginal_band)
        assert after.classification == ("Unstable" if system == "demo" else "Marginal")
        assert read_json(tmp_path / "stability.json")["perturbation"] == {
            "theta_scale": 0.1,
            "eigenvalue_drift": eigenvalue_drift_under_perturbation(params, net, theta),
            "classification_after": after.classification,
            "s_of_U_after": after.s_of_U,
        }

    @pytest.mark.parametrize("flow, scale, before, after", [
        (0.0398, 0.5, (0.010136, "Unstable"), (-0.003755, "Stable")),
        (0.1, -0.5, (-0.025951, "Stable"), (0.002745, "Unstable")),
    ])
    def test_classification_after_the_perturbation(self, tmp_path, flow, scale, before, after):
        # the two-node systems of test_stability's TestTravelScaling, whose
        # classification flips when all travel is scaled by 1 + scale
        net = build_network(["a", "b"], [1.0, 1.0], [[0.0, flow], [flow, 0.0]])
        params = EpidemicParams(alpha=np.full(2, 0.05), beta=np.array([0.3, 0.05]),
                                sigma=np.full(2, 0.2), delta=np.array([0.2, 1.0]))
        paths = dump_system_csvs(tmp_path, net, params)
        code = run("stability", "--populations", str(paths["populations"]),
                   "--flows", str(paths["flows"]), "--params", str(paths["params"]),
                   "--aggregation-days", "1", f"--perturb-scale={scale}",
                   "--out-dir", str(tmp_path))
        assert code == 0
        report = read_json(tmp_path / "stability.json")
        assert report["s_of_U"] == pytest.approx(before[0], abs=1e-6)
        assert report["classification"] == before[1]
        perturbation = report["perturbation"]
        assert set(perturbation) == {"theta_scale", "eigenvalue_drift",
                                     "classification_after", "s_of_U_after"}
        assert perturbation["s_of_U_after"] == pytest.approx(after[0], abs=1e-6)
        assert perturbation["classification_after"] == after[1]

    @pytest.mark.parametrize("flag", ["--marginal-band", "--perturb-scale"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_value_exits_2_with_json(self, tmp_path, capsys, flag, value):
        code = run("stability", "--demo", "five-node", flag, value,
                   "--out-dir", str(tmp_path))
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ValidationError"
        assert not (tmp_path / "stability.json").exists()

    @pytest.mark.parametrize("argv", [["--tolerance", "-1"], ["--tolerance", "nan"],
                                      ["--max-iterations", "0"]])
    def test_bad_endemic_option_exits_2(self, tmp_path, capsys, argv):
        code = run("stability", "--demo", "five-node", "--endemic", *argv,
                   "--out-dir", str(tmp_path))
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "ValidationError"
        assert os.listdir(tmp_path) == []

    def test_failed_endemic_solve_leaves_no_outputs(self, tmp_path, capsys):
        code = run("stability", "--demo", "five-node", "--endemic", "--max-iterations", "1",
                   "--out-dir", str(tmp_path))
        assert code == 1
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "NoConvergence"
        assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv", [
    ["--mode", "continuous", "--t-end", "1e13"],  # a 7.1 PiB step grid
    ["--steps", "1000000000000000"],  # a 142 PiB trajectory
])
def test_allocation_failure_exits_1_with_json(tmp_path, capsys, argv):
    # both requests exceed the 128 TiB of a 47-bit address space, so they
    # fail at allocation under any overcommit policy and touch no memory
    code = run("simulate", "--demo", "five-node", *argv, "--out-dir", str(tmp_path))
    assert code == 1
    captured = capsys.readouterr()
    err = json.loads(captured.err)["error"]
    assert err["type"] == "MemoryError" and "Unable to allocate" in err["message"]
    assert "Traceback" not in captured.err + captured.out
    assert os.listdir(tmp_path) == []


class TestEstimate:
    def test_noiseless_round_trip_through_files(self, tmp_path):
        net, params = five_node_system()
        traj = simulate_discrete(five_node_initial_state(), params, net,
                                 steps=300, h=1.0)
        obs = tmp_path / "obs.csv"
        write_trajectory_csv(obs, traj)
        paths = dump_system_csvs(tmp_path, net)
        code = run("estimate", "--observations", str(obs),
                   "--populations", str(paths["populations"]),
                   "--flows", str(paths["flows"]), "--aggregation-days", "1",
                   "--solver", "pseudo_inverse", "--out-dir", str(tmp_path))
        assert code == 0
        payload = read_json(tmp_path / "estimate.json")
        assert payload["constrained_nodes"] == 0
        rows = payload["nodes"]
        for i, row in enumerate(rows):
            assert row["identifiable"] is True
            assert abs(row["beta"] - params.beta[i]) < 1e-6
            assert abs(row["delta"] - params.delta[i]) < 1e-6

    def test_healthy_observations_flagged(self, tmp_path, capsys):
        net, params = five_node_system()
        from epiflows import SystemState

        traj = simulate_discrete(SystemState.healthy(5), params, net, steps=10, h=1.0)
        obs = tmp_path / "obs.csv"
        write_trajectory_csv(obs, traj)
        code = run("estimate", "--observations", str(obs), "--demo", "five-node",
                   "--out-dir", str(tmp_path))
        assert code == 0
        assert "not identifiable" in capsys.readouterr().out

    def test_pseudo_inverse_reports_negative_fits(self, tmp_path):
        # run backwards in time, the epidemic fits negative rates; the
        # unconstrained solver reports them rather than rejecting its own fit
        net, params = five_node_system()
        traj = simulate_discrete(five_node_initial_state(), params, net, steps=30, h=1.0)
        obs = tmp_path / "obs.csv"
        write_trajectory_csv(obs, type(traj)(times=traj.times, data=traj.data[::-1].copy(),
                                             schedule=traj.schedule))
        code = run("estimate", "--observations", str(obs), "--demo", "five-node",
                   "--solver", "pseudo_inverse", "--out-dir", str(tmp_path))
        assert code == 0
        payload = read_json(tmp_path / "estimate.json")
        negative = sum(min(row[name] for name in ("beta", "sigma", "delta", "alpha")) < 0
                       for row in payload["nodes"])
        assert min(row["beta"] for row in payload["nodes"]) < 0
        assert payload["constrained_nodes"] == negative > 0


@pytest.mark.parametrize("command", ["estimate", "predict"])
def test_non_finite_observation_time_exits_2(tmp_path, capsys, command):
    net, params = five_node_system()
    traj = simulate_discrete(five_node_initial_state(), params, net, steps=6, h=1.0)
    obs = tmp_path / "obs.csv"
    write_trajectory_csv(obs, traj)
    lines = obs.read_text().splitlines(keepends=True)
    lines[-1] = "nan" + lines[-1][lines[-1].index(","):]
    obs.write_text("".join(lines))
    code = run(command, "--demo", "five-node", "--observations", str(obs),
               "--out-dir", str(tmp_path / "out"))
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "ParseError"
    assert f"{obs}:{len(lines)}: bad time value 'nan'" in err["error"]["message"]
    assert not (tmp_path / "out").exists()


class TestReportWindow:
    """stability and distance report on the schedule's first window and say so."""

    def test_first_of_two_windows_is_named(self, tmp_path):
        net, params = five_node_system()
        paths = dump_system_csvs(tmp_path, net, params)
        text = paths["flows"].read_text()
        week_later = text.split("\n", 1)[1].replace("2020-03-01", "2020-03-08")
        paths["flows"].write_text(text + week_later)
        files = ["--populations", str(paths["populations"]), "--flows", str(paths["flows"])]
        assert run("stability", *files, "--params", str(paths["params"]), "--endemic",
                   "--out-dir", str(tmp_path)) == 0
        assert run("distance", *files, "--source", "n1", "--out-dir", str(tmp_path)) == 0
        window = {"index": 0, "start": 0.0, "end": 7.0, "of": 2}
        for report in ("stability.json", "endemic.json", "distances.json"):
            assert read_json(tmp_path / report)["window"] == window

    def test_static_network_window_is_unbounded(self, tmp_path):
        assert run("stability", "--demo", "five-node", "--out-dir", str(tmp_path)) == 0
        assert read_json(tmp_path / "stability.json")["window"] == {
            "index": 0, "start": 0.0, "end": None, "of": 1}


class TestDistance:
    def test_source_distances(self, tmp_path):
        code = run("distance", "--demo", "five-node", "--source", "n1",
                   "--out-dir", str(tmp_path))
        assert code == 0
        with open(tmp_path / "distances.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["node_id"] == "n1"
        assert float(rows[0]["effective_distance"]) == 0.0
        assert float(rows[1]["effective_distance"]) == pytest.approx(1.390326, abs=1e-4)

    def test_group_distances(self, tmp_path):
        code = run("distance", "--demo", "five-node", "--infected", "n1,n3",
                   "--out-dir", str(tmp_path))
        assert code == 0
        payload = read_json(tmp_path / "distances.json")
        assert payload["kind"] == "from_group"
        assert payload["distances"]["n1"] == 0.0

    def test_group_members_are_the_distinct_ids_used(self, tmp_path):
        code = run("distance", "--demo", "five-node", "--infected", "n3,n1,n1,n3",
                   "--out-dir", str(tmp_path))
        assert code == 0
        assert read_json(tmp_path / "distances.json")["members"] == ["n1", "n3"]

    @pytest.mark.parametrize("infected, members", [
        (["b,c"], ["b,c"]),
        (["b,c", "a"], ["a", "b,c"]),
        (["a,d", "b,c", "d"], ["a", "b,c", "d"]),
    ])
    def test_group_ids_with_commas(self, tmp_path, infected, members):
        # a value that names a node is taken whole; any other is split on ','
        flows = np.ones((4, 4)) - np.eye(4)
        net = build_network(["a", "b,c", "d", "e"], [10.0, 20.0, 30.0, 40.0], flows)
        paths = dump_system_csvs(tmp_path, net)
        argv = [f"--infected={v}" for v in infected]
        code = run("distance", "--populations", str(paths["populations"]),
                   "--flows", str(paths["flows"]), "--aggregation-days", "1", *argv,
                   "--out-dir", str(tmp_path))
        assert code == 0
        payload = read_json(tmp_path / "distances.json")
        assert payload["members"] == members
        assert {nid for nid, d in payload["distances"].items() if d == 0.0} == set(members)

    @pytest.mark.parametrize("config, argv, members", [
        ("n1,n3", [], ["n1", "n3"]),
        (["n3", "n1,n2"], [], ["n1", "n2", "n3"]),
        (["n3", "n1,n2"], ["--infected", "n4"], ["n4"]),
    ])
    def test_group_from_config(self, tmp_path, config, argv, members):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"infected": config}))
        code = run("distance", "--demo", "five-node", "--config", str(cfg), *argv,
                   "--out-dir", str(tmp_path))
        assert code == 0
        assert read_json(tmp_path / "distances.json")["members"] == members


@pytest.fixture(scope="module")
def county_run(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("county")
    net, params, origin = synthetic_county_system(n=30, seed=2)
    state0 = seeded_initial_state(net.n, origin)
    traj = simulate_discrete(state0, params, net, steps=250, h=1.0)
    obs = tmp_path / "obs.csv"
    write_trajectory_csv(obs, traj)
    paths = dump_system_csvs(tmp_path, net)
    return tmp_path, obs, paths, net


class TestPredict:

    def test_forecast_and_scatter(self, county_run, tmp_path):
        run_dir, obs, paths, net = county_run
        code = run("predict", "--observations", str(obs),
                   "--populations", str(paths["populations"]),
                   "--flows", str(paths["flows"]), "--aggregation-days", "1",
                   "--tau", "8", "--ahead", "5", "--out-dir", str(tmp_path))
        assert code == 0
        payload = read_json(tmp_path / "forecast.json")
        assert payload["full_fit"]["rms"] > 0
        assert payload["window"]["mean_rms"] > 0
        assert len(payload["arrivals"]) > 13
        with open(tmp_path / "scatter.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert set(rows[0]) == {"node_id", "effective_distance",
                                "actual_arrival", "predicted_arrival"}

    def test_cases_file_read_once(self, county_run, tmp_path):
        run_dir, obs, paths, net = county_run
        # everyone who ever left s counts as a reported case
        _, _, data = read_trajectory_csv(obs)
        cumulative = np.maximum.accumulate(np.floor(net.populations * (1.0 - data[:, 0])), axis=0)
        days = np.datetime64("2020-03-01") + np.arange(len(cumulative))
        cases = tmp_path / "cases.csv"
        cases.write_text("node_id,date,cumulative_cases\n" + "".join(
            f"{nid},{day},{int(c)}\n" for day, row in zip(days, cumulative)
            for nid, c in zip(net.node_ids, row)))
        with mock.patch.object(cli, "load_cases", wraps=cli.load_cases) as load:
            code = run("predict", "--cases", str(cases),
                       "--populations", str(paths["populations"]),
                       "--flows", str(paths["flows"]), "--aggregation-days", "1",
                       "--tau", "8", "--ahead", "5", "--out-dir", str(tmp_path))
        assert code == 0
        assert load.call_count == 1
        assert read_json(tmp_path / "forecast.json")["threshold"] == 0.0

    def test_oversized_window_exits_1(self, county_run, tmp_path, capsys):
        run_dir, obs, paths, net = county_run
        code = run("predict", "--observations", str(obs),
                   "--populations", str(paths["populations"]),
                   "--flows", str(paths["flows"]), "--aggregation-days", "1",
                   "--tau", "500", "--out-dir", str(tmp_path))
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "InsufficientArrivals"

    @pytest.mark.parametrize("window", [["--tau", "0"], ["--tau", "1"], ["--ahead", "0"],
                                        ["--ahead", "-3"]])
    def test_bad_window_exits_2(self, county_run, tmp_path, capsys, window):
        run_dir, obs, paths, net = county_run
        code = run("predict", "--observations", str(obs),
                   "--populations", str(paths["populations"]),
                   "--flows", str(paths["flows"]), "--aggregation-days", "1",
                   *window, "--out-dir", str(tmp_path))
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ValidationError"
        assert not (tmp_path / "forecast.json").exists()

    @pytest.mark.parametrize("threshold", ["nan", "inf"])
    def test_non_finite_threshold_exits_2(self, county_run, tmp_path, capsys, threshold):
        run_dir, obs, paths, net = county_run
        code = run("predict", "--observations", str(obs),
                   "--populations", str(paths["populations"]),
                   "--flows", str(paths["flows"]), "--aggregation-days", "1",
                   "--threshold", threshold, "--tau", "8", "--ahead", "5",
                   "--out-dir", str(tmp_path))
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ValidationError"
        assert not (tmp_path / "forecast.json").exists()

    def test_unknown_origin_exits_2(self, county_run, tmp_path, capsys):
        run_dir, obs, paths, net = county_run
        code = run("predict", "--observations", str(obs),
                   "--populations", str(paths["populations"]),
                   "--flows", str(paths["flows"]), "--aggregation-days", "1",
                   "--tau", "8", "--ahead", "5", "--origin", "BOGUS", "--out-dir", str(tmp_path))
        assert code == 2
        captured = capsys.readouterr()
        assert json.loads(captured.err)["error"]["type"] == "UnknownNode"
        assert "Traceback" not in captured.err + captured.out


@pytest.fixture(scope="module", params=["readme_demo", "county87"])
def predict_argv(request, tmp_path_factory):
    """predict's inputs: the README's five-node demo, or an 87-node county
    whose trips file holds eight weekly windows."""
    tmp_path = tmp_path_factory.mktemp(request.param)
    if request.param == "readme_demo":
        assert run("simulate", "--demo", "five-node", "--steps", "400",
                   "--out-dir", str(tmp_path)) == 0
        return ["--observations", str(tmp_path / "trajectory.csv"), "--demo", "five-node",
                "--threshold", "1e-3", "--tau", "2", "--ahead", "1"]
    net, params, origin = synthetic_county_system(n=87, seed=4)
    paths = dump_system_csvs(tmp_path, net)
    write_gravity_trips(paths["flows"], net, seed=4, days=56)
    obs = tmp_path / "obs.csv"
    write_trajectory_csv(obs, simulate_discrete(seeded_initial_state(net.n, origin), params,
                                                net, steps=56, h=1.0))
    return ["--observations", str(obs), "--populations", str(paths["populations"]),
            "--flows", str(paths["flows"]), "--threshold", "1e-5", "--tau", "8", "--ahead", "3"]


class TestPredictSweep:
    """cmd_predict's one pass over the forecast indices."""

    def test_outputs_match_the_per_index_loop(self, predict_argv, tmp_path, monkeypatch):
        assert run("predict", *predict_argv, "--out-dir", str(tmp_path / "sweep")) == 0
        monkeypatch.setattr(cli, "_forecast_sweep", forecasts_by_index)
        assert run("predict", *predict_argv, "--out-dir", str(tmp_path / "by_index")) == 0
        for name in ("forecast.json", "scatter.csv"):
            assert (tmp_path / "sweep" / name).read_bytes() == \
                (tmp_path / "by_index" / name).read_bytes()

    def test_one_group_distance_per_prefix(self, predict_argv, tmp_path, monkeypatch):
        sizes, real = [], effdist.group_effective_distance

        def counted(network, group):
            sizes.append(len(group.members))
            return real(network, group)

        monkeypatch.setattr(effdist, "group_effective_distance", counted)
        assert run("predict", *predict_argv, "--out-dir", str(tmp_path)) == 0
        forecast = read_json(tmp_path / "forecast.json")
        tau = forecast["tau"]
        indices = range(tau, len(forecast["arrivals"]) - forecast["ahead"])
        # the group at index j is the first j + 1 arrivals
        prefixes = set(indices) | {k - tau for k in indices}
        assert sorted(sizes) == sorted(j + 1 for j in prefixes)


@pytest.mark.parametrize("argv", [
    ["distance", "--source", "BOGUS"],
    ["distance", "--infected", "n1,BOGUS"],
    ["simulate", "--initial", "seeded", "--seed-node", "BOGUS", "--steps", "5"],
])
def test_unknown_node_id_exits_2_with_json(tmp_path, capsys, argv):
    code = run(*argv, "--demo", "five-node", "--out-dir", str(tmp_path))
    assert code == 2
    captured = capsys.readouterr()
    err = json.loads(captured.err)["error"]
    assert err["type"] == "UnknownNode" and "'BOGUS'" in err["message"]
    assert "Traceback" not in captured.err + captured.out


def test_no_command_loads_scipy(county_run, tmp_path):
    """Every command, run in one fresh process, leaves scipy unloaded."""
    run_dir, obs, paths, net = county_run
    demo = ["--demo", "five-node"]
    files = ["--populations", str(paths["populations"]), "--flows", str(paths["flows"]),
             "--aggregation-days", "1"]
    trajectory = str(tmp_path / "trajectory.csv")
    commands = [
        ["simulate", *demo, "--mode", "continuous", "--t-end", "5"],
        ["simulate", *demo, "--steps", "30", "--noise-std", "0.01"],
        ["stability", *demo, "--endemic", "--perturb-scale", "0.1"],
        ["estimate", *demo, "--observations", trajectory, "--solver", "nnls"],
        ["estimate", *demo, "--observations", trajectory, "--solver", "pseudo_inverse"],
        ["distance", *files, "--source", net.node_ids[0]],
        ["distance", *files, "--infected", ",".join(net.node_ids[:3])],
        ["predict", *files, "--observations", str(obs), "--tau", "8", "--ahead", "5"],
        ["validate-data", *files],
    ]
    probe = """import json, sys, epiflows.cli
codes = [epiflows.cli.main(argv + ['--out-dir', sys.argv[2]]) for argv in json.loads(sys.argv[1])]
print(json.dumps([codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))"""
    src = os.path.dirname(os.path.dirname(epiflows.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", probe, json.dumps(commands), str(tmp_path)],
                         env=env, check=True, capture_output=True, text=True, timeout=300)
    codes, loaded = json.loads(out.stdout.splitlines()[-1])
    assert codes == [0] * len(commands)
    assert loaded == []


def test_readme_demo_commands_exit_0(tmp_path, monkeypatch):
    """Every --demo five-node command in README's CLI block, run in order."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("epiflows ") and "--demo five-node" in line]
    assert len(commands) == 7
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert run(*argv[1:]) == 0, argv


class TestValidateData:
    def test_good_files(self, tmp_path):
        net, params = five_node_system()
        paths = dump_system_csvs(tmp_path, net)
        code = run("validate-data", "--populations", str(paths["populations"]),
                   "--flows", str(paths["flows"]), "--aggregation-days", "1",
                   "--out-dir", str(tmp_path))
        assert code == 0
        payload = read_json(tmp_path / "validation.json")
        assert payload["ok"] is True

    def test_weekly_windows_of_raw_trips_balance(self, tmp_path):
        # 12 weekly windows of Poisson trips; the check reads each window's flows
        net, _, _ = synthetic_county_system(n=87, seed=1)
        paths = dump_system_csvs(tmp_path, net)
        write_gravity_trips(paths["flows"], net, seed=1, days=84)
        code = run("validate-data", "--populations", str(paths["populations"]),
                   "--flows", str(paths["flows"]), "--out-dir", str(tmp_path))
        assert code == 0
        checks = {c["check"]: c for c in read_json(tmp_path / "validation.json")["checks"]}
        assert checks["flows_balance"]["ok"] and checks["flows_connectivity"]["ok"]

    def test_worst_imbalance_is_the_stacked_windows_max(self, tmp_path):
        # the check reads one window's flows at a time; the max over a stack
        # of all the windows is the same float, so the file is the same
        net, _, _ = synthetic_county_system(n=12, seed=3)
        paths = dump_system_csvs(tmp_path, net)
        write_gravity_trips(paths["flows"], net, seed=3, days=21)
        assert run("validate-data", "--populations", str(paths["populations"]),
                   "--flows", str(paths["flows"]), "--out-dir", str(tmp_path)) == 0
        schedule = epiflows.load_flows(paths["flows"], net.node_ids, net.populations)
        assert len(schedule.periods) == 3
        worst = float(_worst_imbalance(np.stack([n.flows for _, n in schedule.periods])).max())
        payload = read_json(tmp_path / "validation.json")
        for check in payload["checks"]:
            if check["check"] == "flows_balance":
                check.update(ok=worst < 1e-9, detail=f"worst relative imbalance {worst:.3e}")
        assert ((tmp_path / "validation.json").read_text()
                == json.dumps(payload, indent=2, sort_keys=True) + "\n")
        assert worst == max(float(_worst_imbalance(n.flows)) for _, n in schedule.periods)

    def test_unbalanceable_flows_exit_1(self, tmp_path, capsys):
        (tmp_path / "pop.csv").write_text("node_id,population\na,10\nb,10\n")
        (tmp_path / "flows.csv").write_text(
            "date,from_id,to_id,trips\n2020-03-01,a,b,5\n")
        code = run("validate-data", "--populations", str(tmp_path / "pop.csv"),
                   "--flows", str(tmp_path / "flows.csv"), "--out-dir", str(tmp_path))
        assert code == 1
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "NoConvergence"

    def test_mismatched_case_nodes_fail(self, tmp_path):
        net, _ = five_node_system()
        paths = dump_system_csvs(tmp_path, net)
        (tmp_path / "cases.csv").write_text(
            "node_id,date,cumulative_cases\nzzz,2020-03-01,0\n")
        code = run("validate-data", "--populations", str(paths["populations"]),
                   "--cases", str(tmp_path / "cases.csv"), "--out-dir", str(tmp_path))
        assert code == 2
        payload = read_json(tmp_path / "validation.json")
        assert payload["ok"] is False


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"steps": 25, "noise-std": 0.0}))
        code = run("simulate", "--demo", "five-node", "--config", str(config),
                   "--out-dir", str(tmp_path))
        assert code == 0
        assert read_json(tmp_path / "summary.json")["samples"] == 26
        code = run("simulate", "--demo", "five-node", "--config", str(config),
                   "--steps", "5", "--out-dir", str(tmp_path))
        assert code == 0
        assert read_json(tmp_path / "summary.json")["samples"] == 6

    def test_abbreviated_flag_beats_config(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"noise_std": 0.05}))
        plain, flagged = tmp_path / "plain", tmp_path / "flagged"
        assert run("simulate", "--demo", "five-node", "--steps", "20",
                   "--out-dir", str(plain)) == 0
        assert run("simulate", "--demo", "five-node", "--steps", "20", "--config", str(config),
                   "--noise", "0", "--out-dir", str(flagged)) == 0
        assert (flagged / "trajectory.csv").read_bytes() == (plain / "trajectory.csv").read_bytes()

    def test_config_strings_are_type_checked(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"steps": "7"}))
        assert run("simulate", "--demo", "five-node", "--config", str(config),
                   "--out-dir", str(tmp_path)) == 0
        assert read_json(tmp_path / "summary.json")["samples"] == 8
        capsys.readouterr()
        config.write_text(json.dumps({"steps": "seven"}))
        assert run("simulate", "--demo", "five-node", "--config", str(config),
                   "--out-dir", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert json.loads(err)["error"]["type"] == "ValidationError"
        assert "usage" not in err

    @pytest.mark.parametrize("overrides", [
        {"steps": 2.5}, {"steps": True}, {"steps": [3]}, {"steps": "2.5"},
        {"noise_std": "abc"}, {"mode": "sideways"}, {"gnuplot": "yes"}, {"initial": "bogus"},
    ])
    def test_config_value_invalid_for_its_flag_exits_2(self, tmp_path, capsys, overrides):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(overrides))
        code = run("simulate", "--demo", "five-node", "--config", str(config),
                   "--out-dir", str(tmp_path))
        assert code == 2
        captured = capsys.readouterr()
        error = json.loads(captured.err)["error"]
        assert error["type"] == "ValidationError"
        assert next(iter(overrides)).replace("_", "-") in error["message"]
        assert "usage" not in captured.err
        assert not (tmp_path / "trajectory.csv").exists()

    def test_config_null_keeps_an_optional_flag_unset(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"perturb_scale": None, "endemic": False}))
        assert run("stability", "--demo", "five-node", "--config", str(config),
                   "--out-dir", str(tmp_path)) == 0
        assert "perturbation" not in read_json(tmp_path / "stability.json")

    def test_config_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_bytes(b"\xff\xfe{}")
        code = run("stability", "--demo", "five-node", "--config", str(config),
                   "--out-dir", str(tmp_path))
        assert code == 2
        captured = capsys.readouterr()
        assert json.loads(captured.err)["error"]["type"] == "ValidationError"
        assert "Traceback" not in captured.err + captured.out
        assert not (tmp_path / "stability.json").exists()

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"stepz": 25}))
        code = run("simulate", "--demo", "five-node", "--config", str(config),
                   "--out-dir", str(tmp_path))
        assert code == 2
        assert "unknown keys" in json.loads(capsys.readouterr().err)["error"]["message"]


class TestCommandLine:
    @pytest.mark.parametrize("argv", [
        ["simulate", "--demo", "five-node", "--stepz", "3"],
        ["simulate", "--demo", "five-node", "--steps", "2.5"],
        ["simulate", "--mode", "sideways"],
        ["nonsense"],
        [],
        ["simulate", "--demo", "other"],
        ["simulate", "--demo", "five-node", "--initial", "bogus"],
    ])
    def test_bad_command_line_exits_2_with_json(self, capsys, argv):
        assert run(*argv) == 2
        captured = capsys.readouterr()
        assert "error" in json.loads(captured.err)
        assert "usage" not in captured.err + captured.out

    @pytest.mark.parametrize("flag", ["populations", "flows", "params"])
    def test_demo_beside_data_files_exits_2(self, tmp_path, capsys, flag):
        net, params = five_node_system()
        paths = dump_system_csvs(tmp_path, net, params)
        code = run("stability", "--demo", "five-node", f"--{flag}", str(paths[flag]),
                   "--out-dir", str(tmp_path))
        assert code == 2
        captured = capsys.readouterr()
        assert json.loads(captured.err)["error"]["type"] == "ValidationError"
        assert not (tmp_path / "stability.json").exists()

    def test_each_command_takes_only_options_it_reads(self):
        common = {"out_dir", "config"}
        system = common | {"demo", "populations", "flows", "aggregation_days"}
        want = {
            "simulate": system | {"params", "seed", "gnuplot", "mode", "t_end", "step",
                                  "steps", "h", "noise_std", "initial", "seed_node",
                                  "seed_exposed"},
            "stability": system | {"params", "marginal_band", "endemic", "tolerance",
                                   "max_iterations", "damping", "perturb_scale"},
            "estimate": system | {"observations", "cases", "solver"},
            "distance": system | {"source", "infected"},
            "predict": system | {"gnuplot", "observations", "cases", "threshold", "tau",
                                 "ahead", "origin"},
            "validate-data": common | {"populations", "flows", "cases", "aggregation_days"},
        }
        sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
        got = {name: {a.dest for a in p._actions} - {"help"} for name, p in sub.choices.items()}
        assert got == want

    def test_gnuplot_on_stability_exits_2(self, tmp_path, capsys):
        assert run("stability", "--demo", "five-node", "--gnuplot",
                   "--out-dir", str(tmp_path)) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "ValidationError"
        assert "--gnuplot" in error["message"]
        assert not (tmp_path / "stability.json").exists()

    def test_seed_in_config_of_stability_is_an_unknown_key(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"seed": 3}))
        assert run("stability", "--demo", "five-node", "--config", str(config),
                   "--out-dir", str(tmp_path)) == 2
        assert "unknown keys: ['seed']" in json.loads(capsys.readouterr().err)["error"]["message"]


class TestOutputFiles:
    def test_mode_follows_umask(self, tmp_path):
        previous = os.umask(0o027)
        try:
            code = run("simulate", "--demo", "five-node", "--steps", "5", "--gnuplot",
                       "--out-dir", str(tmp_path))
        finally:
            os.umask(previous)
        assert code == 0
        for name in ("trajectory.csv", "summary.json", "trajectory.gp"):
            assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == 0o640
