"""The column-wise CSV readers and the trajectory writer against the row-loop
versions they replaced (tests/helpers.py), on random and malformed files."""
import csv
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import epiflows
from epiflows import (
    Trajectory,
    build_network,
    load_flows,
    read_trajectory_csv,
    write_trajectory_csv,
)
from epiflows.errors import EpiflowsError, ParseError
from epiflows.estimation import read_params_csv
from epiflows.ingest import _window_sums
from epiflows.network import NetworkSchedule

from helpers import (
    PROPERTY_SETTINGS,
    load_flows_by_rows,
    read_trajectory_by_rows,
    window_sums_by_rows,
    write_trajectory_by_rows,
)

# ids that need quoting, or hold spaces, alongside plain ones
NODE_IDS = ("a", "b,c", 'd"e', " f", "g")
DATES = [f"2020-03-{d:02d}" for d in range(1, 20)]


def write_rows(path, header, rows, crlf, quote_all):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\r\n" if crlf else "\n",
                            quoting=csv.QUOTE_ALL if quote_all else csv.QUOTE_MINIMAL)
        writer.writerow(header)
        writer.writerows(rows)


@st.composite
def layouts(draw, columns):
    """A header order for the named columns plus optional extra ones, the
    line ending and the quoting style."""
    extras = draw(st.lists(st.sampled_from(["note", "source", "weight"]), unique=True, max_size=2))
    header = draw(st.permutations(list(columns) + extras))
    return header, draw(st.booleans()), draw(st.booleans())


def laid_out(record, header):
    """One row in header order; extra columns get filler text."""
    return [record.get(name, "x,y") for name in header]


trip_cells = st.one_of(
    st.integers(0, 500).map(str),
    st.floats(0.0, 1e4, allow_nan=False).map(repr),
    st.sampled_from(["0", "1e2", " 7 ", "3.5"]),
)


@st.composite
def flow_files(draw):
    records = draw(st.lists(
        st.fixed_dictionaries({
            "date": st.sampled_from(DATES),
            "from_id": st.sampled_from(NODE_IDS),
            "to_id": st.sampled_from(NODE_IDS),
            "trips": trip_cells,
        }),
        min_size=1, max_size=40,
    ))
    return records, draw(layouts(("date", "from_id", "to_id", "trips"))), draw(st.integers(1, 8))


def outcome(call):
    """(result, None) or (None, (error type, message))."""
    try:
        return call(), None
    except EpiflowsError as exc:
        return None, (type(exc).__name__, str(exc))


class TestFlowFiles:
    @PROPERTY_SETTINGS
    @given(flow_files())
    def test_window_sums_and_schedule_match_row_loop(self, tmp_path_factory, drawn):
        records, (header, crlf, quote_all), days = drawn
        path = tmp_path_factory.mktemp("flows") / "flows.csv"
        write_rows(path, header, [laid_out(r, header) for r in records], crlf, quote_all)
        got, got_error = outcome(lambda: _window_sums(path, NODE_IDS, days))
        want, want_error = outcome(lambda: window_sums_by_rows(path, NODE_IDS, days))
        assert got_error == want_error
        if want is None:
            return
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

        populations = np.full(len(NODE_IDS), 1e4)
        got, got_error = outcome(lambda: load_flows(path, NODE_IDS, populations, days))
        want, want_error = outcome(lambda: load_flows_by_rows(path, NODE_IDS, populations, days))
        assert got_error == want_error
        if want is not None:
            assert [d for d, _ in got.periods] == [d for d, _ in want.periods]
            for (_, a), (_, b) in zip(got.periods, want.periods):
                assert np.array_equal(a.flows, b.flows)

    @PROPERTY_SETTINGS
    @given(flow_files(), st.data())
    def test_malformed_rows_fail_like_row_loop(self, tmp_path_factory, drawn, data):
        records, (header, crlf, quote_all), days = drawn
        rows = [laid_out(r, header) for r in records]
        for _ in range(data.draw(st.integers(1, 3))):
            k = data.draw(st.integers(0, len(rows) - 1))
            fault = data.draw(st.sampled_from(["short", "date", "number", "negative", "node"]))
            if fault == "short":
                rows[k] = rows[k][: data.draw(st.integers(1, len(header) - 1))]
                continue
            column = header.index({"date": "date", "number": "trips", "negative": "trips"}.get(
                fault, data.draw(st.sampled_from(["from_id", "to_id"]))))
            if column < len(rows[k]):  # not cut off by an earlier fault
                rows[k][column] = {
                    "date": data.draw(st.sampled_from(["2020-02-30", "03/01/2020", "", "x"])),
                    "number": data.draw(st.sampled_from(["abc", "", "1,5", "--1"])),
                    "negative": "-3",
                    "node": header[column] + "?",
                }[fault]
        path = tmp_path_factory.mktemp("flows") / "flows.csv"
        write_rows(path, header, rows, crlf, quote_all)
        _, got_error = outcome(lambda: _window_sums(path, NODE_IDS, days))
        _, want_error = outcome(lambda: window_sums_by_rows(path, NODE_IDS, days))
        assert got_error == want_error

    def test_repeated_column_name_reads_its_last_column(self, tmp_path):
        path = tmp_path / "flows.csv"
        path.write_text("trips,date,from_id,to_id,trips\nx,2020-03-01,a,g,4\n")
        assert _window_sums(path, NODE_IDS, 7)[0][0, 4, 0] == 4.0
        assert window_sums_by_rows(path, NODE_IDS, 7)[0][0, 4, 0] == 4.0

    def test_blank_lines_do_not_count_as_lines(self, tmp_path):
        path = tmp_path / "flows.csv"
        path.write_text("date,from_id,to_id,trips\n\n2020-03-01,a,g,1\n\n2020-03-01,a,g,x\n")
        with pytest.raises(ParseError, match=r"flows\.csv:3: bad trips value 'x'"):
            _window_sums(path, NODE_IDS, 7)
        with pytest.raises(ParseError, match=r"flows\.csv:3: bad trips value 'x'"):
            window_sums_by_rows(path, NODE_IDS, 7)


def trajectories(max_times=6, max_nodes=4):
    @st.composite
    def build(draw):
        n = draw(st.integers(1, max_nodes))
        ids = draw(st.lists(st.sampled_from(NODE_IDS + ("", "h\nnewline", "i'j")),
                            min_size=n, max_size=n, unique=True))
        steps = draw(st.lists(st.floats(1e-6, 50.0), min_size=1, max_size=max_times))
        times = np.cumsum(steps) - steps[0] * draw(st.sampled_from([0.0, 1.0]))
        data = draw(st.lists(st.floats(0.0, 1.0), min_size=4 * n * len(times),
                             max_size=4 * n * len(times)))
        data = np.array(data).reshape(len(times), 4, n)
        network = build_network(ids, np.ones(n), np.zeros((n, n)))
        return Trajectory(times=times, data=data, schedule=NetworkSchedule.static(network))

    return build()


class TestTrajectoryFiles:
    @PROPERTY_SETTINGS
    @given(trajectories())
    def test_bytes_match_row_loop_and_read_back(self, tmp_path_factory, trajectory):
        folder = tmp_path_factory.mktemp("traj")
        write_trajectory_csv(folder / "new.csv", trajectory)
        write_trajectory_by_rows(folder / "old.csv", trajectory)
        assert (folder / "new.csv").read_bytes() == (folder / "old.csv").read_bytes()
        times, node_ids, data = read_trajectory_csv(folder / "new.csv")
        assert node_ids == trajectory.schedule.node_ids
        assert np.array_equal(times, trajectory.times)
        assert np.array_equal(data, trajectory.data)

    @PROPERTY_SETTINGS
    @given(trajectories(), layouts(("time", "node_id", "s", "e", "x", "r")), st.randoms())
    def test_read_matches_row_loop(self, tmp_path_factory, trajectory, layout, shuffler):
        header, crlf, quote_all = layout
        records = [
            {"time": repr(float(t)), "node_id": nid,
             **{name: repr(float(trajectory.data[k, c, i])) for c, name in enumerate("sexr")}}
            for k, t in enumerate(trajectory.times)
            for i, nid in enumerate(trajectory.schedule.node_ids)
        ]
        shuffler.shuffle(records)
        path = tmp_path_factory.mktemp("traj") / "traj.csv"
        write_rows(path, header, [laid_out(r, header) for r in records], crlf, quote_all)
        got = read_trajectory_csv(path)
        want = read_trajectory_by_rows(path)
        assert got[1] == want[1]
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[2], want[2])

    def test_bad_cell_names_its_line(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text("time,node_id,s,e,x,r\n0.0,a,1,0,0,0\n1.0,a,1,0,zz,0\n")
        with pytest.raises(ParseError, match=r"traj\.csv:3: bad x value 'zz'"):
            read_trajectory_csv(path)


def test_bad_rate_names_its_line(tmp_path):
    path = tmp_path / "params.csv"
    path.write_text("node_id,beta,sigma,delta,alpha\na,0.1,0.1,0.1,0.1\nb,0.1,abc,0.1\n")
    with pytest.raises(ParseError, match=r"params\.csv:3: bad sigma value 'abc'"):
        read_params_csv(path)


@pytest.mark.parametrize("cell", ["nan", "inf"])
def test_non_finite_rate_names_its_line(tmp_path, cell):
    path = tmp_path / "params.csv"
    path.write_text(f"node_id,beta,sigma,delta,alpha\na,0.1,0.1,0.1,0.1\nb,0.1,0.1,{cell},0.1\n")
    with pytest.raises(ParseError, match=rf"params\.csv:3: bad delta value '{cell}'"):
        read_params_csv(path)


# ---------------------------------------------------------------- CLI fuzz

POPULATIONS = "node_id,population\n" + "".join(f"{n},1000\n" for n in "abc")
GOOD_FLOWS = ["date,from_id,to_id,trips"] + [
    f"2020-03-0{d},{s},{t},5" for d in (1, 2) for s, t in ("ab", "bc", "ca", "ba")
]
FLOW_FAULTS = {
    "short row": (4, "2020-03-01,a"),
    "bad date": (6, "2020-03-32,a,b,5"),
    "bad number": (3, "2020-03-01,b,c,five"),
    "negative trips": (8, "2020-03-02,c,a,-5"),
    "unknown id": (5, "2020-03-01,a,zzz,5"),
    "nan trips": (7, "2020-03-02,b,c,nan"),
    "infinite trips": (9, "2020-03-02,b,a,inf"),
}


def run_cli(tmp_path, *argv):
    src = os.path.dirname(os.path.dirname(epiflows.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-m", "epiflows.cli", *argv, "--out-dir", str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)


def assert_json_error_at(result, path, line):
    assert result.returncode == 2, result.stderr
    assert "Traceback" not in result.stderr
    error = json.loads(result.stderr.strip().splitlines()[-1])["error"]
    assert re.search(rf"{re.escape(str(path))}:(\d+):", error["message"]).group(1) == str(line)


@pytest.mark.parametrize("fault", sorted(FLOW_FAULTS))
def test_malformed_flow_file_exits_2_at_oracle_line(tmp_path, fault):
    line, text = FLOW_FAULTS[fault]
    rows = list(GOOD_FLOWS)
    rows[line - 1] = text
    flows = tmp_path / "flows.csv"
    flows.write_text("\n".join(rows) + "\n")
    (tmp_path / "pop.csv").write_text(POPULATIONS)
    with pytest.raises(EpiflowsError) as oracle:
        window_sums_by_rows(flows, ("a", "b", "c"))
    assert f"{flows}:{line}:" in str(oracle.value)
    result = run_cli(tmp_path, "validate-data", "--populations", str(tmp_path / "pop.csv"),
                     "--flows", str(flows))
    assert_json_error_at(result, flows, line)


@pytest.mark.parametrize("cell", ["nan", "inf"])
def test_non_finite_population_exits_2(tmp_path, cell):
    populations = tmp_path / "pop.csv"
    populations.write_text(POPULATIONS.replace("b,1000", f"b,{cell}"))
    (tmp_path / "flows.csv").write_text("\n".join(GOOD_FLOWS) + "\n")
    result = run_cli(tmp_path, "validate-data", "--populations", str(populations),
                     "--flows", str(tmp_path / "flows.csv"))
    assert_json_error_at(result, populations, 3)


def test_malformed_rates_file_exits_2(tmp_path):
    (tmp_path / "pop.csv").write_text(POPULATIONS)
    (tmp_path / "flows.csv").write_text("\n".join(GOOD_FLOWS) + "\n")
    params = tmp_path / "params.csv"
    params.write_text("node_id,beta,sigma,delta,alpha\na,0.1,0.1,0.1,0.1\n"
                      "b,0.1,0.1,abc,0.1\nc,0.1,0.1,0.1,0.1\n")
    result = run_cli(tmp_path, "stability", "--populations", str(tmp_path / "pop.csv"),
                     "--flows", str(tmp_path / "flows.csv"), "--params", str(params))
    assert_json_error_at(result, params, 3)


def test_malformed_trajectory_file_exits_2(tmp_path):
    observations = tmp_path / "obs.csv"
    rows = ["time,node_id,s,e,x,r"] + [
        f"{t}.0,n{i},1.0,0.0,0.0,0.0" for t in range(3) for i in range(1, 6)
    ]
    rows[9] = "1.0,n4,1.0,0.0,zz,0.0"
    observations.write_text("\n".join(rows) + "\n")
    result = run_cli(tmp_path, "estimate", "--demo", "five-node",
                     "--observations", str(observations))
    assert_json_error_at(result, observations, 10)
