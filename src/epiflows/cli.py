"""Command-line interface: simulate | stability | estimate | distance | predict | validate-data.

Reports are JSON, bulk series are CSV, and every file is written atomically
(temp file + rename) so failed runs leave no partial outputs. Exit codes:
0 success, 1 computational failure, 2 input or validation error.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import demo
from ._csvio import cell, reprs, write_columns
from .dynamics import (
    SystemState,
    Trajectory,
    integrate,
    read_trajectory_csv,
    simulate_discrete,
    write_trajectory_csv,
)
from .effdist import (
    InfectedSet,
    _forecast_sweep,
    arrival_times,
    effective_distance_from,
    full_fit_baseline,
    group_effective_distance,
    log_distance_graph,
    prediction_rms,
)
from .errors import (
    ComputationError,
    EpiflowsError,
    InsufficientArrivals,
    ValidationError,
)
from .estimation import (
    ObservationSeries,
    estimate_all,
    read_params_csv,
    write_estimate_csv,
)
from .ingest import (
    CaseSeries,
    infer_states,
    load_cases,
    load_flows,
    load_populations,
)
from .network import (
    NetworkSchedule,
    is_strongly_connected,
    _worst_imbalance,
)
from .stability import (
    _classify_perturbed,
    classify_healthy,
    solve_endemic,
    uniqueness_condition,
)

EXIT_OK = 0
EXIT_COMPUTATION = 1
EXIT_VALIDATION = 2


def _atomic_write(path: str, write_to) -> None:
    """Call write_to(tmp_path), then rename the temp file over path.

    mkstemp creates the file 0600 and the rename keeps that mode, so the
    file first gets the mode a plain open() would give it, 0666 less the
    umask.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-epiflows-")
    os.close(fd)
    try:
        write_to(tmp)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_text(path: str, text: str) -> None:
    def body(tmp):
        with open(tmp, "w", newline="") as fh:
            fh.write(text)

    _atomic_write(path, body)


def _write_json(path: str, payload: dict) -> None:
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv(path: str, header, columns) -> None:
    _atomic_write(path, lambda tmp: write_columns(tmp, header, columns))


def _out(args, name: str) -> str:
    os.makedirs(args.out_dir, exist_ok=True)
    return os.path.join(args.out_dir, name)


# ---------------------------------------------------------------- inputs

def _load_system(args, need_params: bool = True):
    """Resolve the (schedule, params) pair from --demo or data files."""
    if args.demo:
        if args.populations or args.flows or getattr(args, "params", None):
            raise ValidationError("provide --demo five-node or data files, not both")
        network, params = demo.five_node_system()
        return NetworkSchedule.static(network), params
    if not args.populations or not args.flows:
        raise ValidationError("provide --demo five-node or both --populations and --flows")
    node_ids, populations = load_populations(args.populations)
    schedule = load_flows(args.flows, node_ids, populations, args.aggregation_days)
    if len(schedule.periods) == 1:
        # a single averaging window means the flows carry no time variation,
        # so treat the network as static rather than as a 1-window schedule
        schedule = NetworkSchedule.static(schedule.periods[0][1])
    params = None
    if need_params:
        if not args.params:
            raise ValidationError("this command needs --params (node_id,beta,sigma,delta,alpha)")
        param_ids, params = read_params_csv(args.params)
        if param_ids != node_ids:
            raise ValidationError("params CSV node order must match populations CSV")
    return schedule, params


def _report_window(schedule: NetworkSchedule) -> tuple:
    """The network in force at t = 0 and the ``"window"`` a report on it
    names: the schedule's first, of how many; an end of None is unbounded."""
    span, network = schedule.periods[0]
    return network, {"index": 0, "start": 0.0, "end": span if math.isfinite(span) else None,
                     "of": len(schedule.periods)}


def _initial_state(args, schedule: NetworkSchedule) -> SystemState:
    n = len(schedule.node_ids)
    if args.initial == "demo":
        if not args.demo:
            raise ValidationError("--initial demo requires --demo")
        return demo.five_node_initial_state()
    if args.initial == "healthy":
        return SystemState.healthy(n)
    if args.seed_node is None:
        raise ValidationError("--initial seeded requires --seed-node")
    origin = _report_window(schedule)[0].node_index(args.seed_node)
    return demo.seeded_initial_state(n, origin, args.seed_exposed)


def _load_observations(args) -> tuple[ObservationSeries, CaseSeries | None]:
    """Observation series from a trajectory CSV, or inferred from case counts
    and returned with them."""
    if bool(args.observations) == bool(args.cases):
        raise ValidationError("provide exactly one of --observations or --cases")
    schedule, _ = _load_system(args, need_params=False)
    if args.observations:
        times, node_ids, data = read_trajectory_csv(args.observations)
        if node_ids != schedule.node_ids:
            raise ValidationError("observation nodes do not match the network nodes")
        return ObservationSeries.from_trajectory(Trajectory(times, data, schedule)), None
    cases = load_cases(args.cases)
    if cases.node_ids != schedule.node_ids:
        raise ValidationError("case-series nodes do not match the network nodes")
    return infer_states(cases, _report_window(schedule)[0].populations, schedule=schedule), cases


# ---------------------------------------------------------------- commands

def cmd_simulate(args) -> int:
    schedule, params = _load_system(args)
    state0 = _initial_state(args, schedule)
    if args.mode == "continuous":
        trajectory = integrate(state0, params, schedule, t_end=args.t_end, step=args.step)
    else:
        trajectory = simulate_discrete(
            state0, params, schedule, steps=args.steps, h=args.h,
            noise_std=args.noise_std, rng=args.seed,
        )
    traj_path = _out(args, "trajectory.csv")
    _atomic_write(traj_path, lambda p: write_trajectory_csv(p, trajectory))
    final = trajectory.final_state
    summary = {
        "mode": args.mode,
        "samples": len(trajectory),
        "t_final": float(trajectory.times[-1]),
        "node_ids": list(schedule.node_ids),
        "final_infected": [float(v) for v in final.x],
        "endemic_plateau": bool(np.all(final.x > 1e-3)),
        "max_sum_error": float(np.abs(trajectory.data.sum(axis=1) - 1.0).max()),
    }
    _write_json(_out(args, "summary.json"), summary)
    if args.gnuplot:
        _emit_trajectory_gnuplot(args, schedule.node_ids)
    print(f"wrote {traj_path}")
    return EXIT_OK


def cmd_stability(args) -> int:
    schedule, params = _load_system(args)
    network, window = _report_window(schedule)
    report = classify_healthy(params, network, marginal_band=args.marginal_band)
    payload = report.to_dict() | {
        "uniqueness_condition": uniqueness_condition(params, network),
        "strongly_connected": is_strongly_connected(network), "window": window}
    if args.perturb_scale is not None:
        after, drift = _classify_perturbed(report, params, network,
                                           args.perturb_scale * network.gamma)
        payload["perturbation"] = {
            "theta_scale": args.perturb_scale,
            "eigenvalue_drift": drift,
            "classification_after": after.classification,
            "s_of_U_after": after.s_of_U,
        }
    reports = {"stability.json": payload}
    if args.endemic:
        solution = solve_endemic(
            params, network, tolerance=args.tolerance,
            max_iterations=args.max_iterations, damping=args.damping,
        )
        reports["endemic.json"] = solution.to_dict() | {"node_ids": list(network.node_ids),
                                                        "window": window}
    for name, body in reports.items():
        _write_json(_out(args, name), body)
    print(f"healthy state: {report.classification} (s(U) = {report.s_of_U:.6g})")
    return EXIT_OK


def cmd_estimate(args) -> int:
    series, _ = _load_observations(args)
    estimate = estimate_all(series, solver=args.solver)
    _write_json(_out(args, "estimate.json"), estimate.to_dict())
    csv_path = _out(args, "estimate.csv")
    _atomic_write(csv_path, lambda p: write_estimate_csv(p, estimate))
    bad = [nid for nid, ok in zip(estimate.node_ids, estimate.identifiable) if not ok]
    if bad:
        print(f"warning: {len(bad)} node(s) not identifiable: {', '.join(bad)}")
    print(f"wrote {csv_path}")
    return EXIT_OK


def cmd_distance(args) -> int:
    schedule, _ = _load_system(args, need_params=False)
    network, window = _report_window(schedule)
    node_ids = network.node_ids
    if bool(args.source) == bool(args.infected):
        raise ValidationError("provide exactly one of --source or --infected")
    if args.source:
        source = network.node_index(args.source)
        dist = effective_distance_from(log_distance_graph(network), source)
        label = {"kind": "from_source", "source": args.source}
    else:
        members = frozenset(network.node_index(x) for x in _group_ids(args.infected, node_ids))
        dist = group_effective_distance(network, InfectedSet(members=members))
        label = {"kind": "from_group", "members": sorted(node_ids[i] for i in members)}
    _write_csv(_out(args, "distances.csv"), ["node_id", "effective_distance"],
               [map(cell, node_ids), reprs(dist)])
    _write_json(_out(args, "distances.json"), label | {
        "distances": {node_ids[i]: (float(dist[i]) if np.isfinite(dist[i]) else None)
                      for i in range(network.n)},
        "window": window})
    print(f"wrote {_out(args, 'distances.csv')}")
    return EXIT_OK


def _group_ids(values, node_ids) -> list[str]:
    """Node ids named by the --infected values: a value that is a node id
    is taken whole, so an id may hold a comma; any other is split on ','."""
    return [x for v in values for x in ([v] if v in node_ids else v.split(","))]


def cmd_predict(args) -> int:
    if args.tau < 2 or args.ahead < 1:
        raise ValidationError("--tau must be at least 2 and --ahead at least 1")
    series, cases = _load_observations(args)
    schedule = series.schedule
    node_ids = schedule.node_ids
    if cases is not None:
        # arrival = first reported case, so threshold sits at zero counts
        signal = np.asarray(cases.cumulative, dtype=float)
        threshold = 0.0
    else:
        signal = series.data[:, 2, :]
        threshold = args.threshold
    arrivals = arrival_times(series.times, signal, threshold)
    if len(arrivals) < 2:
        raise InsufficientArrivals(f"only {len(arrivals)} node(s) ever crossed the threshold")

    if args.origin:
        origin = _report_window(schedule)[0].node_index(args.origin)
    else:
        origin = arrivals[0].node
    origin_net = schedule.network_at(arrivals[0].arrival_time, clamp=True)
    origin_dist = effective_distance_from(log_distance_graph(origin_net), origin)
    fit = full_fit_baseline(arrivals, origin_dist)

    window_runs = []
    indices = range(args.tau, len(arrivals) - args.ahead)
    for k, forecast in zip(indices, _forecast_sweep(arrivals, schedule, args.tau, indices)):
        targets = {a.node: a.arrival_time for a in arrivals[k + 1 : k + 1 + args.ahead]}
        predicted = {i: t for i, t in forecast.predicted().items() if i in targets}
        if not predicted:
            continue
        window_runs.append(
            {
                "arrival_index": k,
                "t_now": arrivals[k].arrival_time,
                "rms_next": prediction_rms(predicted, targets),
                "degenerate": forecast.degenerate,
            }
        )
    if not window_runs:
        raise InsufficientArrivals(
            f"no sliding-window evaluations possible with tau={args.tau}, "
            f"ahead={args.ahead} and {len(arrivals)} arrivals"
        )
    mean_window_rms = float(np.mean([w["rms_next"] for w in window_runs]))
    # a near-zero full-fit RMS leaves no error to reduce
    reduction = 1.0 - mean_window_rms / fit.rms if fit.rms > 1e-9 else None
    payload = {
        "origin": node_ids[origin],
        "threshold": threshold,
        "tau": args.tau,
        "ahead": args.ahead,
        "arrivals": [{"node_id": node_ids[a.node], "time": a.arrival_time} for a in arrivals],
        "full_fit": fit.to_dict(),
        "window": {"runs": window_runs, "mean_rms": mean_window_rms},
        "rms_reduction": reduction,
    }
    _write_json(_out(args, "forecast.json"), payload)
    shown = [a for a in arrivals if np.isfinite(origin_dist[a.node])]
    dist = origin_dist[[a.node for a in shown]]
    _write_csv(
        _out(args, "scatter.csv"),
        ["node_id", "effective_distance", "actual_arrival", "predicted_arrival"],
        [(cell(node_ids[a.node]) for a in shown), reprs(dist),
         reprs([a.arrival_time for a in shown]), reprs(fit.slope * dist + fit.intercept)],
    )
    if args.gnuplot:
        _emit_scatter_gnuplot(args)
    tail = f"({100 * reduction:.0f}% reduction)" if reduction is not None else "(baseline fits exactly)"
    print(f"full-fit RMS {fit.rms:.3f} vs window mean RMS {mean_window_rms:.3f} {tail}")
    return EXIT_OK


def cmd_validate_data(args) -> int:
    checks = []

    def record(name, ok, detail):
        checks.append({"check": name, "ok": bool(ok), "detail": detail})

    if not args.populations:
        raise ValidationError("validate-data requires --populations")
    node_ids, populations = load_populations(args.populations)
    record("populations", True, f"{len(node_ids)} nodes, all positive")

    if args.flows:
        schedule = load_flows(args.flows, node_ids, populations, args.aggregation_days)
        # one window's flows at a time: a stack of them is P n^2 doubles
        worst = max(float(_worst_imbalance(net.flows)) for _, net in schedule.periods)
        record("flows_balance", worst < 1e-9, f"worst relative imbalance {worst:.3e}")
        connected = all(is_strongly_connected(net) for _, net in schedule.periods)
        record("flows_connectivity", connected,
               "every period strongly connected" if connected
               else "some period is not strongly connected")

    if args.cases:
        cases = load_cases(args.cases)
        ok = cases.node_ids == tuple(node_ids)
        record("cases_nodes", ok, "case nodes match populations" if ok
               else "case nodes do not match populations file")
        record("cases_monotone", True, f"{cases.days} days, nondecreasing per node")

    all_ok = all(c["ok"] for c in checks)
    _write_json(_out(args, "validation.json"), {"ok": all_ok, "checks": checks})
    for c in checks:
        print(f"{'ok  ' if c['ok'] else 'FAIL'} {c['check']}: {c['detail']}")
    return EXIT_OK if all_ok else EXIT_VALIDATION


# ---------------------------------------------------------------- plumbing

def _emit_trajectory_gnuplot(args, node_ids) -> None:
    lines = [
        "set datafile separator ','",
        "set key outside",
        "set xlabel 'time'",
        "set ylabel 'infected fraction'",
        "plot \\",
    ]
    for i, nid in enumerate(node_ids):
        tail = ", \\" if i < len(node_ids) - 1 else ""
        lines.append(
            f"  '< grep -E \"^[^,]+,{nid},\" trajectory.csv' using 1:5 "
            f"with lines title '{nid}'{tail}"
        )
    _write_text(_out(args, "trajectory.gp"), "\n".join(lines) + "\n")


def _emit_scatter_gnuplot(args) -> None:
    script = "\n".join(
        [
            "set datafile separator ','",
            "set xlabel 'effective distance from origin'",
            "set ylabel 'arrival time'",
            "plot 'scatter.csv' every ::1 using 2:3 with points title 'actual', \\",
            "     'scatter.csv' every ::1 using 2:4 with lines title 'full fit'",
        ]
    )
    _write_text(_out(args, "scatter.gp"), script + "\n")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out-dir", default=".", help="directory for output files")
    parser.add_argument("--config", help="JSON file of default option values")


def _add_system_inputs(parser: argparse.ArgumentParser, with_params: bool = True) -> None:
    parser.add_argument("--demo", choices=["five-node"], help="use a bundled system")
    parser.add_argument("--populations", help="populations CSV (node_id,population)")
    parser.add_argument("--flows", help="flows CSV (date,from_id,to_id,trips)")
    parser.add_argument("--aggregation-days", type=int, default=7,
                        help="flow averaging window in days")
    if with_params:
        parser.add_argument("--params",
                            help="rates CSV (node_id,beta,sigma,delta,alpha)")


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as ValidationError, so it exits 2 with
    the JSON error object instead of usage text."""

    def error(self, message):
        raise ValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="epiflows",
        description="Networked SEIRS epidemics driven by travel flows",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="integrate the dynamics and write a trajectory")
    _add_common(p)
    _add_system_inputs(p)
    p.add_argument("--seed", type=int, default=0, help="random seed for the observation noise")
    p.add_argument("--gnuplot", action="store_true", help="also emit trajectory.gp")
    p.add_argument("--mode", choices=["continuous", "discrete"], default="discrete")
    p.add_argument("--t-end", type=float, default=300.0, help="continuous horizon")
    p.add_argument("--step", type=float, default=0.01, help="RK4 step size")
    p.add_argument("--steps", type=int, default=300, help="number of Euler steps")
    p.add_argument("--h", type=float, default=1.0, help="Euler sampling interval")
    p.add_argument("--noise-std", type=float, default=0.0,
                   help="observation noise standard deviation")
    p.add_argument("--initial", choices=["demo", "healthy", "seeded"], default="demo")
    p.add_argument("--seed-node", help="node receiving the initial exposure")
    p.add_argument("--seed-exposed", type=float, default=1e-3)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("stability", help="classify the healthy state, optionally solve endemic")
    _add_common(p)
    _add_system_inputs(p)
    p.add_argument("--marginal-band", type=float, default=1e-9)
    p.add_argument("--endemic", action="store_true", help="also solve for the endemic state")
    p.add_argument("--tolerance", type=float, default=1e-10)
    p.add_argument("--max-iterations", type=int, default=10_000)
    p.add_argument("--damping", type=float, default=0.5)
    p.add_argument("--perturb-scale", type=float, default=None,
                   help="report eigenvalue drift and the classification after "
                        "the perturbation theta = scale * gamma")
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("estimate", help="recover spread rates from observations")
    _add_common(p)
    _add_system_inputs(p, with_params=False)
    p.add_argument("--observations", help="trajectory CSV of state observations")
    p.add_argument("--cases", help="cumulative case CSV; states are inferred")
    p.add_argument("--solver", choices=["nnls", "pseudo_inverse"], default="nnls")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("distance", help="effective distances from a node or group")
    _add_common(p)
    _add_system_inputs(p, with_params=False)
    p.add_argument("--source", help="single source node id")
    p.add_argument("--infected", action="append",
                   help="node ids forming the group, comma-separated or one per flag")
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("predict", help="arrival times: full-fit baseline vs sliding window")
    _add_common(p)
    _add_system_inputs(p, with_params=False)
    p.add_argument("--gnuplot", action="store_true", help="also emit scatter.gp")
    p.add_argument("--observations", help="trajectory CSV carrying the infection signal")
    p.add_argument("--cases", help="cumulative case CSV (arrival = first reported case)")
    p.add_argument("--threshold", type=float, default=1e-3)
    p.add_argument("--tau", type=int, default=20, help="training window size in arrivals")
    p.add_argument("--ahead", type=int, default=10, help="arrivals predicted per window")
    p.add_argument("--origin", help="origin node id for the full-fit baseline")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("validate-data", help="check input files against model assumptions")
    _add_common(p)
    p.add_argument("--populations", help="populations CSV")
    p.add_argument("--flows", help="flows CSV")
    p.add_argument("--cases", help="cases CSV")
    p.add_argument("--aggregation-days", type=int, default=7)
    p.set_defaults(func=cmd_validate_data)

    return parser


def _apply_config(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """Parse argv, with the --config file's values as the command's defaults.

    Each value goes in as a flag placed before the command line's own, so
    argparse checks it against the flag's type and choices and every flag
    given on the command line wins, abbreviated or not. Values that are not
    strings go in as their JSON text, so 2.5 fails an int flag; null leaves
    a flag unset, and on/off flags take true or false. A repeatable flag
    takes a value or a list of them, and the command line's own values
    replace the config's.
    """
    args = parser.parse_args(argv)
    if not args.config:
        return args
    try:
        with open(args.config, encoding="utf-8") as fh:
            overrides = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read config: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValidationError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(overrides, dict):
        raise ValidationError("config must be a JSON object")
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {a.dest: a for a in subparsers.choices[args.command]._actions if a.dest != "help"}
    unknown = sorted(k for k in overrides if k.replace("-", "_") not in flags)
    if unknown:
        raise ValidationError(f"config has unknown keys: {unknown}")
    tokens = []
    for key, value in overrides.items():
        action = flags[key.replace("-", "_")]
        if action.nargs == 0:
            if not isinstance(value, bool):
                raise ValidationError(f"config value {value!r} for {key!r} must be true or false")
            if value:
                tokens.append(action.option_strings[0])
        elif value is not None:
            repeated = isinstance(action, argparse._AppendAction)
            if repeated and getattr(args, action.dest) is not None:
                continue  # the command line's own values replace the config's
            for item in value if repeated and isinstance(value, list) else [value]:
                text = item if isinstance(item, str) else json.dumps(item)
                tokens.append(f"{action.option_strings[0]}={text}")
    at = argv.index(args.command) + 1
    return parser.parse_args(argv[:at] + tokens + argv[at:])


def _fail(exc: Exception, code: int) -> int:
    payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = _apply_config(parser, sys.argv[1:] if argv is None else list(argv))
        return args.func(args)
    except ComputationError as exc:
        return _fail(exc, EXIT_COMPUTATION)
    except MemoryError as exc:
        # numpy raises a private subclass; report the builtin's name
        return _fail(MemoryError(str(exc)), EXIT_COMPUTATION)
    except (EpiflowsError, OSError) as exc:
        return _fail(exc, EXIT_VALIDATION)


if __name__ == "__main__":
    sys.exit(main())
