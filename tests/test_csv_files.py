"""The column-wise CSV readers and writers against the row-loop versions
they replaced (tests/helpers.py), on random and malformed files."""
import codecs
import csv
import json
import os
import re
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import epiflows
from epiflows import _csvio
from epiflows import (
    EpidemicParams,
    ParameterEstimate,
    Trajectory,
    arrival_times,
    build_network,
    effective_distance_from,
    full_fit_baseline,
    load_cases,
    load_flows,
    load_populations,
    log_distance_graph,
    read_trajectory_csv,
    simulate_discrete,
    write_estimate_csv,
    write_trajectory_csv,
)
from epiflows.cli import main
from epiflows.demo import (five_node_initial_state, five_node_system, seeded_initial_state,
                           synthetic_county_system)
from epiflows.errors import EpiflowsError, ParseError
from epiflows.estimation import read_params_csv
from epiflows.ingest import _window_sums
from epiflows.network import NetworkSchedule

from helpers import (
    PROPERTY_SETTINGS,
    distance_rows,
    load_flows_by_rows,
    read_trajectory_by_rows,
    scatter_rows,
    traced_peak,
    window_sums_by_rows,
    write_estimate_by_rows,
    write_gravity_trips,
    write_rows_by_csv_writer,
    write_trajectory_by_rows,
)

# ids that need quoting, or hold spaces, alongside plain ones
NODE_IDS = ("a", "b,c", 'd"e', " f", "g")
# and an empty id, a line break and a single quote
WRITTEN_IDS = NODE_IDS + ("", "h\nnewline", "i'j")
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


def flow_file_matches_row_loop(tmp_path_factory, drawn):
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


def malformed_rows_fail_like_row_loop(tmp_path_factory, drawn, data):
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


class TestFlowFiles:
    @PROPERTY_SETTINGS
    @given(flow_files())
    def test_window_sums_and_schedule_match_row_loop(self, tmp_path_factory, drawn):
        flow_file_matches_row_loop(tmp_path_factory, drawn)

    @PROPERTY_SETTINGS
    @given(flow_files(), st.data())
    def test_malformed_rows_fail_like_row_loop(self, tmp_path_factory, drawn, data):
        malformed_rows_fail_like_row_loop(tmp_path_factory, drawn, data)

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


# ---------------------------------------------- quote-free files, numpy path

PLAIN_IDS = ("a", "b c", " f", "g", "\u00e9", "h.i")  # no cell here needs quoting


@st.composite
def plain_files(draw, header, records, faults):
    """The bytes of a quote-free CSV: header and records in a drawn column
    order with extra and repeated columns, LF or CRLF, blank lines, a
    missing final newline, and up to two rows spoiled by the named faults
    (each maps a row and the column order to a strategy for the spoiled row)."""
    extras = draw(st.lists(st.sampled_from(["note", "source", header[0]]), max_size=2))
    columns = draw(st.permutations(list(header) + extras))
    rows = [[record.get(name, "x y") for name in columns] for record in records]
    # a repeated name reads its last column, so earlier copies get filler
    last = {name: k for k, name in enumerate(columns)}
    rows = [[cell if last[name] == k else "z" for k, (name, cell) in enumerate(zip(columns, row))]
            for row in rows]
    for _ in range(draw(st.integers(0, 2)) if faults else 0):
        k, name = draw(st.integers(0, len(rows) - 1)), draw(st.sampled_from(sorted(faults)))
        rows[k] = draw(faults[name](rows[k], columns))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [",".join(columns)] + [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 3))):
        blank = st.sampled_from(["", "\r"] if newline == "\n" else [""])  # "\r" + "\n" is blank too
        lines.insert(draw(st.integers(1, len(lines))), draw(blank))
    text = newline.join(lines) + draw(st.sampled_from([newline, ""]))
    return text.encode()


# a row that an earlier fault cut to one cell has no field break left to
# cut at or to turn into a lone CR, so those faults leave it as it is

def cut_row(row, columns):
    if len(row) < 2:
        return st.just(row)
    return st.integers(1, len(row) - 1).map(lambda k: row[:k])


def long_row(row, columns):
    return st.just(row + ["extra"])


def lone_cr(row, columns):
    if len(row) < 2:
        return st.just(row)
    return st.integers(1, len(row) - 1).map(
        lambda k: row[:k - 1] + [row[k - 1] + "\r" + row[k]] + row[k + 1:])


def bad_cell(name, cells):
    def fault(row, columns):
        k = max(i for i, column in enumerate(columns) if column == name)
        return st.sampled_from(cells).map(lambda cell: row[:k] + [cell] + row[k + 1:])
    return fault


plain_trips = st.one_of(
    st.integers(0, 500).map(str),
    st.floats(0.0, 1e4, allow_nan=False).map(repr),
    st.sampled_from(["0", "1e2", " 7 ", "3.5", "\u00a07", "1_0"]),
)
FLOW_CELL_FAULTS = {
    "short": cut_row, "long": long_row, "cr": lone_cr,
    "date": bad_cell("date", ["2020-02-30", "03/01/2020", "", "x"]),
    "number": bad_cell("trips", ["abc", "", "--1", "nan", "inf"]),
    "negative": bad_cell("trips", ["-3"]),
    "node": bad_cell("from_id", ["zz", ""]),
}


def flow_records(ids):
    return st.lists(st.fixed_dictionaries({
        "date": st.sampled_from(DATES), "from_id": st.sampled_from(ids),
        "to_id": st.sampled_from(ids), "trips": plain_trips,
    }), min_size=1, max_size=40)


def both_paths(data, names):
    """read_columns' two paths on one file's bytes, as one block: (numpy,
    csv.reader's batches joined)."""
    data += bytes(_csvio._PAD)
    batches = _csvio._read_rows("file", data, iter(()), names, ParseError("header"), 0)
    return (_csvio._split(data, names),
            [np.concatenate(cells) for cells in zip(*batches)])


def plain_flow_file_matches_row_loop(tmp_path_factory, data, days):
    header = ("date", "from_id", "to_id", "trips")
    raw = data.draw(plain_files(header, data.draw(flow_records(PLAIN_IDS)), {}))
    path = tmp_path_factory.mktemp("flows") / "flows.csv"
    path.write_bytes(raw)
    fast, slow = both_paths(raw, header)
    assert fast is not None
    assert all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(fast, slow))
    got, got_error = outcome(lambda: _window_sums(path, PLAIN_IDS, days))
    want, want_error = outcome(lambda: window_sums_by_rows(path, PLAIN_IDS, days))
    assert got_error == want_error
    if want is not None:
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    populations = np.full(len(PLAIN_IDS), 1e4)
    got, got_error = outcome(lambda: load_flows(path, PLAIN_IDS, populations, days))
    want, want_error = outcome(lambda: load_flows_by_rows(path, PLAIN_IDS, populations, days))
    assert got_error == want_error
    if want is not None:
        assert [d for d, _ in got.periods] == [d for d, _ in want.periods]
        for (_, a), (_, b) in zip(got.periods, want.periods):
            assert np.array_equal(a.flows, b.flows)


def plain_faults_fail_like_row_loop(tmp_path_factory, data):
    header = ("date", "from_id", "to_id", "trips")
    faults = data.draw(st.sets(st.sampled_from(sorted(FLOW_CELL_FAULTS)), min_size=1))
    raw = data.draw(plain_files(header, data.draw(flow_records(PLAIN_IDS)),
                                {name: FLOW_CELL_FAULTS[name] for name in faults}))
    path = tmp_path_factory.mktemp("flows") / "flows.csv"
    path.write_bytes(raw)
    fast, slow = both_paths(raw, header)
    if fast is not None:
        assert all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(fast, slow))
    _, got_error = outcome(lambda: _window_sums(path, PLAIN_IDS, 7))
    _, want_error = outcome(lambda: window_sums_by_rows(path, PLAIN_IDS, 7))
    assert got_error == want_error


def plain_trajectory_matches_row_loop(tmp_path_factory, data):
    header = ("time", "node_id", "s", "e", "x", "r")
    ids = data.draw(st.lists(st.sampled_from(PLAIN_IDS), min_size=1, max_size=4, unique=True))
    times = data.draw(st.lists(st.floats(0.0, 50.0).map(repr), min_size=1, max_size=5,
                               unique=True))
    values = st.one_of(st.floats(0.0, 1.0).map(repr), st.sampled_from([" 0.5 ", "1e-1"]))
    records = [{"time": t, "node_id": nid, **{c: data.draw(values) for c in "sexr"}}
               for t in times for nid in ids]
    records = data.draw(st.permutations(records))
    raw = data.draw(plain_files(header, records, {}))
    path = tmp_path_factory.mktemp("traj") / "traj.csv"
    path.write_bytes(raw)
    fast, slow = both_paths(raw, header)
    assert fast is not None
    assert all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(fast, slow))
    got, want = read_trajectory_csv(path), read_trajectory_by_rows(path)
    assert got[1] == want[1]
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[2], want[2])


class TestQuoteFreeFiles:
    """Files the numpy path reads: the same arrays and errors as the row
    loops, and the same columns as csv.reader."""

    @PROPERTY_SETTINGS
    @given(st.data(), st.integers(1, 8))
    def test_window_sums_and_schedule_match_row_loop(self, tmp_path_factory, data, days):
        plain_flow_file_matches_row_loop(tmp_path_factory, data, days)

    @PROPERTY_SETTINGS
    @given(st.data())
    def test_faults_fail_like_row_loop(self, tmp_path_factory, data):
        plain_faults_fail_like_row_loop(tmp_path_factory, data)

    @PROPERTY_SETTINGS
    @given(st.data())
    def test_trajectory_matches_row_loop(self, tmp_path_factory, data):
        plain_trajectory_matches_row_loop(tmp_path_factory, data)

    def test_ragged_and_lone_cr_files_take_csv_reader(self):
        header = ("date", "from_id", "to_id", "trips")
        for raw in (b"date,from_id,to_id,trips\n2020-03-01,a,g\n",
                    b"date,from_id,to_id,trips\n2020-03-01,a,g,1,2\n",
                    # one row long and one short: the comma count still fits
                    b"date,from_id,to_id,trips\n2020-03-01,a,g,1,2\n2020-03-01,a,g\n",
                    b"date,from_id,to_id,trips\r2020-03-01,a,g,1\r"):
            assert both_paths(raw, header)[0] is None

    def test_one_long_cell_is_not_padded_into_every_row(self):
        # a 4 kB cell in a 1000-row column: an S array would hold 4 MB
        raw = b"node_id,population\n" + b"".join(b"n%d,1\n" % k for k in range(999))
        raw += b"x" * 4096 + b",1\n"
        fast, slow = both_paths(raw, ("node_id", "population"))
        assert fast is None and slow[0].dtype == object
        assert slow[0][-1] == b"x" * 4096 and slow[1].dtype == "S8"


def trajectories(max_times=6, max_nodes=4):
    @st.composite
    def build(draw):
        n = draw(st.integers(1, max_nodes))
        ids = draw(st.lists(st.sampled_from(WRITTEN_IDS), min_size=n, max_size=n, unique=True))
        steps = draw(st.lists(st.floats(1e-6, 50.0), min_size=1, max_size=max_times))
        times = np.cumsum(steps) - steps[0] * draw(st.sampled_from([0.0, 1.0]))
        data = draw(st.lists(st.floats(0.0, 1.0), min_size=4 * n * len(times),
                             max_size=4 * n * len(times)))
        data = np.array(data).reshape(len(times), 4, n)
        network = build_network(ids, np.ones(n), np.zeros((n, n)))
        return Trajectory(times=times, data=data, schedule=NetworkSchedule.static(network))

    return build()


def trajectory_bytes_match_row_loop(tmp_path_factory, trajectory):
    folder = tmp_path_factory.mktemp("traj")
    write_trajectory_csv(folder / "new.csv", trajectory)
    write_trajectory_by_rows(folder / "old.csv", trajectory)
    assert (folder / "new.csv").read_bytes() == (folder / "old.csv").read_bytes()
    times, node_ids, data = read_trajectory_csv(folder / "new.csv")
    assert node_ids == trajectory.schedule.node_ids
    assert np.array_equal(times, trajectory.times)
    assert np.array_equal(data, trajectory.data)


def trajectory_read_matches_row_loop(tmp_path_factory, trajectory, layout, shuffler):
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


class TestTrajectoryFiles:
    @PROPERTY_SETTINGS
    @given(trajectories())
    def test_bytes_match_row_loop_and_read_back(self, tmp_path_factory, trajectory):
        trajectory_bytes_match_row_loop(tmp_path_factory, trajectory)

    @PROPERTY_SETTINGS
    @given(trajectories(), layouts(("time", "node_id", "s", "e", "x", "r")), st.randoms())
    def test_read_matches_row_loop(self, tmp_path_factory, trajectory, layout, shuffler):
        trajectory_read_matches_row_loop(tmp_path_factory, trajectory, layout, shuffler)

    def test_bad_cell_names_its_line(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text("time,node_id,s,e,x,r\n0.0,a,1,0,0,0\n1.0,a,1,0,zz,0\n")
        with pytest.raises(ParseError, match=r"traj\.csv:3: bad x value 'zz'"):
            read_trajectory_csv(path)

    @pytest.mark.parametrize("rows, line", [
        (["1.0,a,0.9,0.1,0,0", "1.0,a,0.5,0.5,0,0"], 3),
        (["0,a,1,0,0,0", "0,b,1,0,0,0", "1,a,1,0,0,0", "1.0,a,0.5,0.5,0,0", "1,b,1,0,0,0"], 5),
    ])
    def test_repeated_row_names_its_line(self, tmp_path, rows, line):
        path = tmp_path / "traj.csv"
        path.write_text("time,node_id,s,e,x,r\n" + "\n".join(rows) + "\n")
        message = rf"traj\.csv:{line}: duplicate entry for 'a' at time 1\.0"
        with pytest.raises(ParseError, match=message):
            read_trajectory_csv(path)


@st.composite
def estimates(draw):
    n = draw(st.integers(1, len(WRITTEN_IDS)))
    ids = draw(st.lists(st.sampled_from(WRITTEN_IDS), min_size=n, max_size=n, unique=True))

    def column(values):
        return np.array(draw(st.lists(values, min_size=n, max_size=n)))

    rates = st.floats(allow_nan=False, allow_infinity=False)
    alpha, beta, sigma, delta = (column(rates) for _ in range(4))
    params = EpidemicParams(alpha=alpha, beta=beta, sigma=sigma, delta=delta, strict=False)
    return ParameterEstimate(tuple(ids), params, column(st.floats()), column(st.booleans()),
                             column(st.floats()), column(st.booleans()))


@PROPERTY_SETTINGS
@given(estimates())
def test_estimate_bytes_match_row_loop(tmp_path_factory, estimate):
    folder = tmp_path_factory.mktemp("estimate")
    write_estimate_csv(folder / "new.csv", estimate)
    write_estimate_by_rows(folder / "old.csv", estimate)
    assert (folder / "new.csv").read_bytes() == (folder / "old.csv").read_bytes()


@pytest.fixture(scope="module")
def written_ids_run(tmp_path_factory):
    """Populations, flows and an observed epidemic for a network named by
    WRITTEN_IDS. Its last two nodes trade only with each other, so no path
    reaches them from the rest and they never get infected."""
    folder = tmp_path_factory.mktemp("written-ids")
    rng = np.random.default_rng(5)
    n = len(WRITTEN_IDS)
    flows = np.zeros((n, n))
    for part in (slice(0, n - 2), slice(n - 2, n)):
        block = rng.uniform(5.0, 50.0, (part.stop - part.start,) * 2)
        flows[part, part] = block + block.T
    np.fill_diagonal(flows, 0.0)
    paths = {name: folder / f"{name}.csv" for name in ("populations", "flows", "observations")}
    write_rows(paths["populations"], ["node_id", "population"],
               [[nid, repr(p)] for nid, p in zip(WRITTEN_IDS, rng.uniform(1e3, 1e4, n).tolist())],
               True, False)
    write_rows(paths["flows"], ["date", "from_id", "to_id", "trips"],
               [["2020-03-01", WRITTEN_IDS[j], WRITTEN_IDS[i], repr(float(flows[i, j]))]
                for i, j in zip(*np.nonzero(flows))], True, False)
    network = load_flows(paths["flows"], *load_populations(paths["populations"]), 1).periods[0][1]
    params = EpidemicParams(alpha=np.full(n, 0.02), beta=np.full(n, 0.6),
                            sigma=np.full(n, 0.3), delta=np.full(n, 0.1))
    trajectory = simulate_discrete(seeded_initial_state(n, 0, 1e-3), params, network, steps=150)
    write_trajectory_csv(paths["observations"], trajectory)
    files = ["--populations", str(paths["populations"]), "--flows", str(paths["flows"]),
             "--aggregation-days", "1"]
    return files, paths, network, trajectory


def test_distances_bytes_match_row_loop(written_ids_run, tmp_path):
    files, _, network, _ = written_ids_run
    assert main(["distance", *files, "--source", WRITTEN_IDS[0], "--out-dir", str(tmp_path)]) == 0
    dist = effective_distance_from(log_distance_graph(network), 0)
    assert np.isinf(dist).sum() == 2
    write_rows_by_csv_writer(tmp_path / "old.csv", ["node_id", "effective_distance"],
                             distance_rows(network.node_ids, dist))
    assert (tmp_path / "distances.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_scatter_bytes_match_row_loop(written_ids_run, tmp_path):
    files, paths, network, trajectory = written_ids_run
    assert main(["predict", *files, "--observations", str(paths["observations"]),
                 "--tau", "2", "--ahead", "1", "--out-dir", str(tmp_path)]) == 0
    arrivals = arrival_times(trajectory.times, trajectory.data[:, 2, :], 1e-3)
    assert len(arrivals) == len(WRITTEN_IDS) - 2
    origin_dist = effective_distance_from(log_distance_graph(network), arrivals[0].node)
    write_rows_by_csv_writer(
        tmp_path / "old.csv",
        ["node_id", "effective_distance", "actual_arrival", "predicted_arrival"],
        scatter_rows(network.node_ids, arrivals, origin_dist,
                     full_fit_baseline(arrivals, origin_dist)),
    )
    assert (tmp_path / "scatter.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_bad_rate_names_its_line(tmp_path):
    path = tmp_path / "params.csv"
    path.write_text("node_id,beta,sigma,delta,alpha\na,0.1,0.1,0.1,0.1\nb,0.1,abc,0.1\n")
    with pytest.raises(ParseError, match=r"params\.csv:3: bad sigma value 'abc'"):
        read_params_csv(path)


def test_duplicate_rate_id_names_its_line(tmp_path):
    path = tmp_path / "params.csv"
    path.write_text("node_id,beta,sigma,delta,alpha\na,0.1,0.1,0.1,0.1\n"
                    "b,0.1,0.1,0.1,0.1\na,0.2,0.2,0.2,0.2\n")
    with pytest.raises(ParseError, match=r"params\.csv:4: duplicate node_id 'a'"):
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


def write_populations(path, prefix, quoted):
    """POPULATIONS behind ``prefix`` bytes; a quoted id sends the file
    through csv.reader."""
    text = POPULATIONS.replace("a,", '"a",') if quoted else POPULATIONS
    path.write_bytes(prefix + text.encode())


@pytest.mark.parametrize("quoted", [False, True])
def test_invalid_utf8_exits_2_at_its_line(tmp_path, quoted):
    populations = tmp_path / "pop.csv"
    write_populations(populations, b"", quoted)
    populations.write_bytes(populations.read_bytes().replace(b"c,", b"c\xff,"))
    (tmp_path / "flows.csv").write_text("\n".join(GOOD_FLOWS) + "\n")
    result = run_cli(tmp_path, "validate-data", "--populations", str(populations),
                     "--flows", str(tmp_path / "flows.csv"))
    assert_json_error_at(result, populations, 4)
    assert "byte 0xff is not UTF-8 text" in result.stderr


@pytest.mark.parametrize("quoted", [False, True])
def test_nul_byte_is_not_text(tmp_path, quoted):
    # a trailing NUL would vanish from a numpy bytes cell, so NUL is refused
    populations = tmp_path / "pop.csv"
    write_populations(populations, b"", quoted)
    populations.write_bytes(populations.read_bytes().replace(b"b,", b"b\0,"))
    with pytest.raises(ParseError, match=r"pop\.csv:3: byte 0x00 is not UTF-8 text"):
        load_populations(populations)


@pytest.mark.parametrize("quoted", [False, True])
def test_cell_over_csv_field_limit_names_its_line(tmp_path, quoted):
    # csv.reader refuses it, so the numpy path leaves such a file to csv.reader
    populations = tmp_path / "pop.csv"
    write_populations(populations, b"", quoted)
    populations.write_bytes(populations.read_bytes().replace(b"b,", b"b" * 200_000 + b","))
    with pytest.raises(ParseError, match=r"pop\.csv:3: field larger than field limit"):
        load_populations(populations)


def test_header_cell_over_the_field_limit_is_a_bad_header(tmp_path):
    populations = tmp_path / "pop.csv"
    populations.write_bytes(b'"' + b"n" * 200_000 + b'",population\n' + POPULATIONS.encode())
    with pytest.raises(ParseError, match=r"pop\.csv: expected header with columns"):
        load_populations(populations)


@pytest.mark.parametrize("quoted", [False, True])
def test_bad_byte_after_a_cell_over_the_field_limit_exits_2(tmp_path, quoted):
    # csv.reader goes on after refusing the long cell, so the byte is found
    long = b"a" * 200_000
    populations = tmp_path / "pop.csv"
    populations.write_bytes(b"node_id,population\n" + (b'"%s"' % long if quoted else long)
                            + b",1000\nb\xff,1000\nc,1000\n")
    (tmp_path / "flows.csv").write_text("\n".join(GOOD_FLOWS) + "\n")
    result = run_cli(tmp_path, "validate-data", "--populations", str(populations),
                     "--flows", str(tmp_path / "flows.csv"))
    assert_json_error_at(result, populations, 3)
    error = json.loads(result.stderr.strip().splitlines()[-1])["error"]
    assert error == {"type": "ParseError",
                     "message": f"{populations}:3: byte 0xff is not UTF-8 text"}


@pytest.mark.parametrize("quoted", [False, True])
def test_utf8_byte_order_mark_is_skipped(tmp_path, quoted):
    populations = tmp_path / "pop.csv"
    write_populations(populations, codecs.BOM_UTF8, quoted)
    (tmp_path / "flows.csv").write_text("\n".join(GOOD_FLOWS) + "\n")
    result = run_cli(tmp_path, "validate-data", "--populations", str(populations),
                     "--flows", str(tmp_path / "flows.csv"))
    assert result.returncode == 0, result.stderr


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


# ------------------------------------------------ files in many small blocks

@pytest.fixture(scope="class")
def tiny_blocks():
    """Files read in blocks of 40 bytes and numbers written 3 at a time, so
    that every file of the tests spans many blocks."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_csvio, "_BLOCK", 40)
        patch.setattr(_csvio, "_ROWS", 3)
        yield


@pytest.mark.usefixtures("tiny_blocks")
class TestTinyBlocks:
    """The row-loop oracle tests above, on files that span many blocks."""

    @PROPERTY_SETTINGS
    @given(flow_files())
    def test_flow_files_match_row_loop(self, tmp_path_factory, drawn):
        flow_file_matches_row_loop(tmp_path_factory, drawn)

    @PROPERTY_SETTINGS
    @given(flow_files(), st.data())
    def test_malformed_rows_fail_like_row_loop(self, tmp_path_factory, drawn, data):
        malformed_rows_fail_like_row_loop(tmp_path_factory, drawn, data)

    @PROPERTY_SETTINGS
    @given(st.data(), st.integers(1, 8))
    def test_plain_flow_files_match_row_loop(self, tmp_path_factory, data, days):
        plain_flow_file_matches_row_loop(tmp_path_factory, data, days)

    @PROPERTY_SETTINGS
    @given(st.data())
    def test_plain_faults_fail_like_row_loop(self, tmp_path_factory, data):
        plain_faults_fail_like_row_loop(tmp_path_factory, data)

    @PROPERTY_SETTINGS
    @given(st.data())
    def test_plain_trajectory_matches_row_loop(self, tmp_path_factory, data):
        plain_trajectory_matches_row_loop(tmp_path_factory, data)

    @PROPERTY_SETTINGS
    @given(trajectories())
    def test_trajectory_bytes_match_row_loop(self, tmp_path_factory, trajectory):
        trajectory_bytes_match_row_loop(tmp_path_factory, trajectory)

    @PROPERTY_SETTINGS
    @given(trajectories(), layouts(("time", "node_id", "s", "e", "x", "r")), st.randoms())
    def test_trajectory_read_matches_row_loop(self, tmp_path_factory, trajectory, layout,
                                              shuffler):
        trajectory_read_matches_row_loop(tmp_path_factory, trajectory, layout, shuffler)


def flow_text(edits=None, rows=30):
    """A flows file of ``rows`` rows, with the rows (by 0-based data index)
    in ``edits`` replaced."""
    lines = [f"2020-03-{1 + k % 19:02d},a,g,{k}" for k in range(rows)]
    for k, line in (edits or {}).items():
        lines[k] = line
    return "date,from_id,to_id,trips\n" + "\n".join(lines) + "\n"


def trajectory_text(extra=()):
    rows = [f"{t}.0,{nid},0.5,0.25,0.125,0.125" for t in range(10) for nid in "ab"]
    return "time,node_id,s,e,x,r\n" + "\n".join([*rows, *extra]) + "\n"


def window_sums(path):
    return _window_sums(path, PLAIN_IDS, 7)


def cases(path):
    series = load_cases(path)
    return series.node_ids, series.dates, series.cumulative


def rates(path):
    ids, params = read_params_csv(path)
    return ids, params.beta, params.sigma, params.delta, params.alpha


CASE_ROWS = [f"{nid},2020-03-{d:02d},{d}" for d in range(1, 9) for nid in "ab"]
STRADDLES = {
    # name: (reader, file bytes, expected error message or None)
    "byte-order mark": (window_sums, codecs.BOM_UTF8 + flow_text().encode(), None),
    "CRLF ends": (window_sums, flow_text().replace("\n", "\r\n").encode(), None),
    "blank lines": (window_sums, flow_text().replace("\n2020-03-05", "\n\n\r\n2020-03-05")
                    .encode(), None),
    "no final newline": (window_sums, flow_text().rstrip("\n").encode(), None),
    "quoted row late": (window_sums, flow_text({25: '2020-03-07,a,"g",25'}).encode(), None),
    "short row late": (window_sums, flow_text({25: "2020-03-07,a,g"}).encode(),
                       "flows.csv:27: bad trips value None"),
    "long row late": (window_sums, flow_text({25: "2020-03-07,a,g,25,9"}).encode(), None),
    "lone CR late": (window_sums, flow_text({25: "2020-03-07,a,g\r,25"}).encode(),
                     "flows.csv:27: bad trips value None"),
    "bad cell late": (window_sums, flow_text({25: "2020-03-07,a,g,x"}).encode(),
                      "flows.csv:27: bad trips value 'x'"),
    "bad cell, then a quote": (window_sums, flow_text({2: "2020-03-03,a,g,x",
                                                       25: '2020-03-07,a,"g",25'}).encode(),
                               "flows.csv:4: bad trips value 'x'"),
    "bad cell, then a bad byte": (window_sums, flow_text({2: "2020-03-03,a,g,x"}).encode()
                                  .replace(b",a,g,25", b",a,g\xff,25"),
                                  "flows.csv:27: byte 0xff is not UTF-8 text"),
    "bad header, then a bad byte": (window_sums, flow_text().replace("from_id", "from", 1)
                                    .encode().replace(b",a,g,25", b",a,g\xff,25"),
                                    "flows.csv:27: byte 0xff is not UTF-8 text"),
    "cell over the field limit late": (
        window_sums, flow_text({25: "2020-03-07,a,g," + "1" * 200_000}).encode(),
        "flows.csv:27: field larger than field limit"),
    "duplicate population late": (
        lambda path: load_populations(path),
        ("node_id,population\n" + "".join(f"n{k},{k + 1}\n" for k in range(20)) + "n3,x\n"
         + "n4,-1\n").encode(), "pop.csv:22: duplicate node_id 'n3'"),
    "bad population late": (
        lambda path: load_populations(path),
        ("node_id,population\n" + "".join(f"n{k},{k + 1}\n" for k in range(20)) + "n30,x\n"
         + "n3,1\n").encode(), "pop.csv:22: bad population 'x'"),
    "duplicate case late": (cases, ("node_id,date,cumulative_cases\n" + "\n".join(
        CASE_ROWS + ["b,2020-03-02,5"]) + "\n").encode(),
        "cases.csv:18: duplicate entry for 'b' on 2020-03-02"),
    "cases across blocks": (cases, ("node_id,date,cumulative_cases\n" + "\n".join(CASE_ROWS)
                                    + "\n").encode(), None),
    "duplicate rate late": (rates, ("node_id,beta,sigma,delta,alpha\n" + "".join(
        f"n{k},0.1,0.1,0.1,0.1\n" for k in range(12)) + "n5,0.2,0.2,0.2,0.2\n").encode(),
        "rates.csv:14: duplicate node_id 'n5'"),
    "duplicate trajectory row late": (read_trajectory_csv, trajectory_text(
        ["1.0,b,0.5,0.5,0,0", "1.0,b,0.5,0.5,0,0"]).encode(),
        "traj.csv:22: duplicate entry for 'b' at time 1.0"),
    "bad trajectory cell late": (read_trajectory_csv, trajectory_text(
        ["10.0,a,0.5,0.5,zz,0"]).encode(), "traj.csv:22: bad x value 'zz'"),
}


def assert_same(got, want):
    """Two readers' outcomes: the same error, or equal values."""
    assert got[1] == want[1]
    for a, b in zip(got[0] or (), want[0] or ()):
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        else:
            assert a == b


@pytest.mark.parametrize("name", sorted(STRADDLES))
def test_block_boundaries_change_nothing(tmp_path, monkeypatch, name):
    reader, raw, error = STRADDLES[name]
    path = tmp_path / {window_sums: "flows.csv", cases: "cases.csv", rates: "rates.csv",
                       read_trajectory_csv: "traj.csv"}.get(reader, "pop.csv")
    path.write_bytes(raw)
    want = outcome(lambda: reader(path))  # a single block
    if error is None:
        assert want[1] is None
    else:
        assert want[1] is not None and f"{tmp_path}/{error}" in want[1][1]
    for size in (16, 40, 100):
        monkeypatch.setattr(_csvio, "_BLOCK", size)
        assert_same(outcome(lambda: reader(path)), want)


def spied_rows(path, names):
    """read_columns with a ``rows`` that returns its cells unchanged: (the
    (start, row count) of every call, the joined columns)."""
    calls = []

    def rows(start, *cells):
        calls.append((start, len(cells[0])))
        return cells

    return calls, _csvio.read_columns(path, names, ParseError("header"), rows)


@pytest.mark.parametrize("block, count", [(None, 60_000), (40, 60)])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_rows_sees_each_row_once_in_order(tmp_path, monkeypatch, block, count, where):
    # one quoted cell hands that block and the rest of the file to csv.reader
    if block is not None:
        monkeypatch.setattr(_csvio, "_BLOCK", block)
    quoted = {"first": 0, "middle": count // 2, "last": count - 1}[where]
    lines = [f"2020-03-{1 + k % 19:02d},a,g,{k}" for k in range(count)]
    lines[quoted] = lines[quoted].replace(",g,", ',"g",')
    path = tmp_path / "flows.csv"
    path.write_text("date,from_id,to_id,trips\n" + "\n".join(lines) + "\n")
    assert path.stat().st_size > 2 * _csvio._BLOCK  # three blocks or more
    names = ("trips", "to_id")
    calls, columns = spied_rows(path, names)
    starts = [start for start, _ in calls]
    assert starts == sorted(set(starts)) and all(size for _, size in calls)
    assert starts == [sum(size for _, size in calls[:k]) for k in range(len(calls))]
    assert [[_csvio.text(cell) for cell in column.tolist()] for column in columns] == [
        [str(k) for k in range(count)], ["g"] * count]


def test_long_cell_alone_in_the_last_batch_is_not_padded_into_every_row(tmp_path):
    # csv.reader takes 8192 cells, so 4096 two-cell rows, a batch: the last
    # batch holds only the long cell, which is judged over every row read
    path = tmp_path / "pop.csv"
    path.write_bytes(b"node_id,population\n" + b"".join(
        b'"n%d",1\n' % k for k in range(_csvio._ROWS // 2)) + b"y" * 4096 + b",1\n")
    calls, (ids, _) = spied_rows(path, ("node_id", "population"))
    assert [size for _, size in calls] == [_csvio._ROWS // 2, 1]
    assert ids.dtype == object and ids[-1] == b"y" * 4096


def test_wide_cells_convert_once_per_distinct_cell():
    # ISO dates (10 bytes) of a node-major cases file: no two neighbours equal
    dates = [f"2020-03-{d:02d}" for d in range(1, 8)]
    column = np.array([d.encode() for _ in range(5) for d in dates])
    calls = []

    def ordinal(text):
        calls.append(text)
        return int(text[-2:])

    values, bad = _csvio.decode(column, ordinal, np.int64)
    assert sorted(calls) == dates
    assert values.tolist() == list(range(1, 8)) * 5 and not bad.any()


number_texts = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["nan", "-inf", "Infinity", "1e500", " 2.5", "1_0", "٣", "0x1", ""]),
    st.from_regex(r"[0-9eE+.-]{1,20}", fullmatch=True),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\0"),
            max_size=12),
    st.none(),  # a short row's missing cell
)


@PROPERTY_SETTINGS
@given(st.lists(st.tuples(number_texts, st.integers(1, 3)), max_size=30))
def test_float_cells_decode_as_float_of_each_cell(runs):
    # one-word columns fold through an integer sort, wider ones are cast run by run
    texts = [t for t, count in runs for _ in range(count)]
    cells = [_csvio._MISSING if t is None else t.encode() for t in texts]
    column = np.array(cells, f"S{8 * _csvio._words(max(map(len, cells), default=0))}")
    expected, invalid = np.zeros(len(texts)), np.ones(len(texts), dtype=bool)
    for k, t in enumerate(texts):
        try:
            expected[k] = float(t)
            invalid[k] = not np.isfinite(expected[k])
        except (TypeError, ValueError):
            pass
    values, bad = _csvio.decode(column)
    np.testing.assert_array_equal(values, expected)
    np.testing.assert_array_equal(bad, invalid)


# ids that share their first 4, 6 or 8 bytes, some of them non-ASCII
shared_prefix = st.builds(str.__add__, st.sampled_from(["c000", "c0000012", "日本"]),
                          st.text(st.sampled_from("01é"), max_size=2))
# and any text, the empty id among them; None is a short row's missing cell
id_texts = st.one_of(
    st.none(), shared_prefix,
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\0"), max_size=10),
)
# keys that hold NUL, and keys wider than an S8 cell that share its first 8 bytes
NO_CELL_KEYS = ["a\0", "c0000012\0", "c00000123", "c0000012é"]


def cell_column(texts, kind):
    """The texts as cells of an S8, wider S or object column, as read_columns gives them."""
    cells = [_csvio._MISSING if t is None else t.encode() for t in texts]
    words = max(2, _csvio._words(max(map(len, cells), default=0)))
    return np.array(cells, {"S8": "S8", "wide": f"S{8 * words}", "object": object}[kind])


@st.composite
def key_blocks(draw):
    """(blocks, index keys): 1-4 blocks of (texts, column), every block's
    texts drawn from one small pool so that blocks repeat each other's
    cells, as ids or as int64 keys."""
    if draw(st.booleans()):
        pool = draw(st.lists(st.sampled_from([-1, 0, 1, 2, 2**62, -2**63, 2**63 - 1]),
                             min_size=1, unique=True))
        return [(v, np.array(v, np.int64)) for v in draw(st.lists(
            st.lists(st.sampled_from(pool), max_size=25), min_size=1, max_size=4))], []
    pool = draw(st.lists(shared_prefix, min_size=2, max_size=4, unique=True))
    pool += draw(st.lists(id_texts.filter(lambda t: t not in pool), max_size=4, unique=True))
    blocks = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["S8", "wide", "object"]))
        fits = [t for t in pool if kind != "S8" or t is None or len(t.encode()) <= 8]
        texts = draw(st.lists(st.sampled_from(fits), max_size=25)) if fits else []
        blocks.append((texts, cell_column(texts, kind)))
    keys = st.one_of(st.sampled_from(pool), st.sampled_from(NO_CELL_KEYS), id_texts)
    return blocks, draw(st.lists(keys, unique=True, max_size=8))


def running(items, seen: set) -> list:
    """For each item, whether ``seen`` or an earlier item holds it; ``seen`` gains them."""
    out = []
    for item in items:
        out.append(item in seen)
        seen.add(item)
    return out


@PROPERTY_SETTINGS
@given(key_blocks())
def test_key_operations_match_plain_python_over_texts(drawn):
    # every key operation finds exactly the cells whose text (or int) it is
    # given, whatever the column's width and however many bytes cells share
    blocks, keys = drawn
    index = {key: 5 * k + 2 for k, key in enumerate(keys)}
    numbering, seen, earlier = {key: k for k, key in enumerate(keys)}, [], set()
    for texts, column in blocks:
        if column.dtype != np.int64:  # ids: looked up and numbered by their text
            assert _csvio.indices(column, index).tolist() == [index.get(t, -1) for t in texts]
            want = dict(numbering)
            for t in texts:
                want.setdefault(t, len(want))
            assert _csvio.numbered(column, numbering).tolist() == [want[t] for t in texts]
            assert list(numbering.items()) == list(want.items())
        assert _csvio.repeated(column).tolist() == running(texts, set())
        assert _csvio.repeated_across(column, seen).tolist() == running(texts, earlier)


def test_one_long_id_in_the_last_block_widens_no_earlier_row(tmp_path):
    # the last block holds only a 2000-byte id: judged alone it fits an S2000
    # array, which widened every earlier id to 2000 bytes (33 times the peak)
    head = b"node_id,population\n"
    rows = [b"c%06d,%06d\n" % (k, k + 1) for k in range((_csvio._BLOCK - len(head)) // 15)]
    long_row = b"y" * 2000 + b",1\n"
    ids = tuple(row[:7].decode() for row in rows) + ("y" * 2000,)
    peaks = {}
    for name, data in (("plain", head + b"".join(rows)), ("long", head + b"".join(rows) + long_row),
                       ("quoted", head + b'"' + rows[0][:7] + b'"' + b"".join(rows)[7:] + long_row)):
        (tmp_path / name).write_bytes(data)
        (got, _), peaks[name] = traced_peak(lambda: load_populations(tmp_path / name))
        assert got == (ids[:-1] if name == "plain" else ids)
    assert peaks["long"] <= 1.5 * peaks["plain"]


def test_one_long_id_in_the_first_block_keeps_the_duplicate_check_n_log_n(tmp_path):
    # the 2000-byte id makes every id cell an object; a duplicate check by
    # np.isin compares every pair of object ids, 16 s here against 0.1 s
    head = b"node_id,population\n"
    rows = [b"c%06d,%06d\n" % (k, k + 1) for k in range((_csvio._BLOCK - len(head)) // 15)]
    ids = tuple(row[:7].decode() for row in rows)
    seconds = {}
    for name, data in (("plain", head + b"".join(rows)),
                       ("long", head + b"y" * 2000 + b",1\n" + b"".join(rows))):
        (tmp_path / name).write_bytes(data)
        times = []
        for _ in range(3):
            start = time.perf_counter()
            got, _ = load_populations(tmp_path / name)
            times.append(time.perf_counter() - start)
        seconds[name] = min(times)
        assert got == (ids if name == "plain" else ("y" * 2000, *ids))
    assert seconds["long"] <= 20 * seconds["plain"] + 0.5


# ----------------------------------------------------------- traced memory

@pytest.fixture(scope="module")
def long_trajectory(tmp_path_factory):
    """A 30 001 x 5 trajectory, as the README's continuous demo writes, and
    its CSV file."""
    rng = np.random.default_rng(0)
    data = rng.dirichlet(np.ones(4), size=(30_001, 5)).transpose(0, 2, 1)
    network = build_network([f"n{i}" for i in range(1, 6)], np.ones(5),
                            np.ones((5, 5)) - np.eye(5))
    trajectory = Trajectory(np.arange(30_001) * 0.01, data, NetworkSchedule.static(network))
    path = tmp_path_factory.mktemp("long") / "trajectory.csv"
    write_trajectory_csv(path, trajectory)
    return trajectory, path


def test_county_flows_load_in_less_than_four_times_the_file(tmp_path):
    # 87 nodes and 12 weeks of daily trips, as the cli-files workload; a
    # whole-file read held about 6.6 times the file at once
    network, _, _ = synthetic_county_system(n=87, seed=1)
    path = tmp_path / "trips.csv"
    write_gravity_trips(path, network, seed=1, days=84)
    schedule, peak = traced_peak(lambda: load_flows(path, network.node_ids, network.populations))
    assert len(schedule.periods) == 12
    assert peak < 4.0 * os.path.getsize(path)


def test_trajectory_reads_in_less_than_twice_the_file(long_trajectory):
    # a whole-file read held about 3.5 times the file at once
    trajectory, path = long_trajectory
    (times, _, data), peak = traced_peak(lambda: read_trajectory_csv(path))
    assert np.array_equal(times, trajectory.times) and np.array_equal(data, trajectory.data)
    assert peak < 2.0 * os.path.getsize(path)


def test_county_flows_load_in_less_than_one_and_a_half_times_the_file(tmp_path):
    # the columns are sized from the file's length, one grows at a time, and
    # a kept row is one key and one count: growing every column by doubling
    # held 3.7 times the file
    network, _, _ = synthetic_county_system(n=87, seed=1)
    path = tmp_path / "trips.csv"
    write_gravity_trips(path, network, seed=1, days=84)
    schedule, peak = traced_peak(lambda: load_flows(path, network.node_ids, network.populations))
    assert len(schedule.periods) == 12
    assert peak < 1.5 * os.path.getsize(path)


def test_trajectory_reads_in_less_than_a_fifth_more_than_the_file(long_trajectory):
    # growing the columns by doubling held 1.5 times the file
    trajectory, path = long_trajectory
    (times, _, data), peak = traced_peak(lambda: read_trajectory_csv(path))
    assert np.array_equal(times, trajectory.times) and np.array_equal(data, trajectory.data)
    assert peak < 1.2 * os.path.getsize(path)


def test_quoted_county_flows_load_in_the_memory_of_plain_ones(tmp_path):
    # one id holds a comma, so the writer quotes it and csv.reader reads
    # every block; reading the file again whole held 6.6 times the plain peak
    network, _, _ = synthetic_county_system(n=87, seed=1)
    twin = build_network(("c,0000", *network.node_ids[1:]), network.populations,
                         network.flows)
    peaks, schedules = [], []
    for name, system in (("plain.csv", network), ("quoted.csv", twin)):
        write_gravity_trips(tmp_path / name, system, seed=1, days=84)
        schedule, peak = traced_peak(lambda: load_flows(tmp_path / name, system.node_ids,
                                                        system.populations))
        peaks.append(peak)
        schedules.append(schedule)
    assert b'"c,0000"' in (tmp_path / "quoted.csv").read_bytes()[:100]
    assert all(np.array_equal(a.flows, b.flows)
               for (_, a), (_, b) in zip(*(s.periods for s in schedules)))
    assert peaks[1] <= 1.25 * peaks[0]


def test_quoted_trajectory_reads_in_the_memory_of_a_plain_one(long_trajectory, tmp_path):
    # every fifth row quotes its id; a whole-file reread held 10.8 times
    trajectory, path = long_trajectory
    ids = ("n,1", *trajectory.schedule.node_ids[1:])
    network = build_network(ids, np.ones(5), np.ones((5, 5)) - np.eye(5))
    quoted = tmp_path / "quoted.csv"
    write_trajectory_csv(quoted, Trajectory(trajectory.times, trajectory.data,
                                            NetworkSchedule.static(network)))
    _, plain = traced_peak(lambda: read_trajectory_csv(path))
    (times, got_ids, data), peak = traced_peak(lambda: read_trajectory_csv(quoted))
    assert got_ids == ids and np.array_equal(times, trajectory.times)
    assert np.array_equal(data, trajectory.data)
    assert peak <= 1.25 * plain


def test_trajectory_writes_in_less_than_its_data(long_trajectory, tmp_path):
    # formatting whole columns held about 4.7 times the data's bytes
    trajectory, path = long_trajectory
    _, peak = traced_peak(lambda: write_trajectory_csv(tmp_path / "again.csv", trajectory))
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()
    assert peak < trajectory.data.nbytes


# ------------------------------------------------------------- named pipes

def fed_pipe(path, data: bytes):
    """A named pipe at ``path`` that a thread fills with ``data`` once a
    reader opens it; returns the thread."""
    os.mkfifo(path)

    def feed():
        try:
            with open(path, "wb") as fh:
                fh.write(data)
        except BrokenPipeError:  # the reader stopped early; the test says so
            pass

    thread = threading.Thread(target=feed, daemon=True)
    thread.start()
    return thread


def drained(thread, path):
    """Whether the feeding thread finished; if not, release it."""
    thread.join(timeout=30)
    if thread.is_alive():  # nobody opened the pipe: open it to free the writer
        os.close(os.open(path, os.O_RDONLY | os.O_NONBLOCK))
        thread.join(timeout=30)
        return False
    return True


@pytest.mark.parametrize("quoted", [False, True])
def test_flows_read_from_a_pipe(tmp_path, quoted):
    # a quoted file goes through csv.reader, which reads on from where numpy stopped
    (tmp_path / "pop.csv").write_text(POPULATIONS)
    text = "\n".join(GOOD_FLOWS) + "\n"
    flows = (text.replace(",b,", ',"b",') if quoted else text).encode()
    (tmp_path / "flows.csv").write_bytes(flows)
    pipe = tmp_path / "flows.pipe"
    thread = fed_pipe(pipe, flows)
    for name, source in (("file", tmp_path / "flows.csv"), ("pipe", pipe)):
        assert main(["validate-data", "--populations", str(tmp_path / "pop.csv"),
                     "--flows", str(source), "--out-dir", str(tmp_path / name)]) == 0
    assert drained(thread, pipe)
    assert ((tmp_path / "pipe" / "validation.json").read_bytes()
            == (tmp_path / "file" / "validation.json").read_bytes())


def test_observations_read_from_a_pipe(tmp_path):
    network, params = five_node_system()
    trajectory = simulate_discrete(five_node_initial_state(), params, network, steps=200)
    observations = tmp_path / "obs.csv"
    write_trajectory_csv(observations, trajectory)
    pipe = tmp_path / "obs.pipe"
    thread = fed_pipe(pipe, observations.read_bytes())
    for name, source in (("file", observations), ("pipe", pipe)):
        assert main(["estimate", "--demo", "five-node", "--observations", str(source),
                     "--out-dir", str(tmp_path / name)]) == 0
    assert drained(thread, pipe)
    for output in ("estimate.json", "estimate.csv"):
        assert ((tmp_path / "pipe" / output).read_bytes()
                == (tmp_path / "file" / output).read_bytes())


# ------------------------------------------------------ trips over blocks

@pytest.fixture(scope="module")
def block_trips(tmp_path_factory):
    """A plain trips file of more than three blocks among a, b and c over
    30 days in random order, self-trips included, where every 97th row is a
    non-integer count from b to a: each window's sum for that cell adds
    rows from both sides of every block boundary."""
    rng = np.random.default_rng(7)
    count = 4 * _csvio._BLOCK // 18
    days, src, dst = rng.integers(0, 30, count), *rng.integers(0, 3, (2, count))
    trips = [str(t) for t in rng.integers(0, 50, count).tolist()]
    for k in range(0, count, 97):
        src[k], dst[k], trips[k] = 1, 0, repr(k / 7)
    dates = [f"2020-03-{d:02d}" for d in range(1, 31)]
    path = tmp_path_factory.mktemp("blocks") / "trips.csv"
    path.write_text("date,from_id,to_id,trips\n" + "".join(
        f"{dates[d]},{'abc'[s]},{'abc'[t]},{n}\n"
        for d, s, t, n in zip(days.tolist(), src.tolist(), dst.tolist(), trips)))
    assert path.stat().st_size > 3 * _csvio._BLOCK
    return path


def test_window_sums_over_blocks_match_the_row_loop_bit_for_bit(block_trips):
    # non-integer counts round in the order they are added: file order
    sums, spans = _window_sums(block_trips, ("a", "b", "c"), 7)
    want_sums, want_spans = window_sums_by_rows(block_trips, ("a", "b", "c"), 7)
    assert len(spans) == 5 and sums[:, 0, 1].all()
    assert np.array_equal(sums, want_sums) and np.array_equal(spans, want_spans)


def test_trips_over_blocks_read_from_a_pipe(block_trips, tmp_path):
    # a pipe's length reads 0, so its columns grow by doubling instead
    pipe, populations = tmp_path / "trips.pipe", np.full(3, 1e4)
    thread = fed_pipe(pipe, block_trips.read_bytes())
    got = load_flows(pipe, ("a", "b", "c"), populations)
    assert drained(thread, pipe)
    want = load_flows(block_trips, ("a", "b", "c"), populations)
    assert [span for span, _ in got.periods] == [span for span, _ in want.periods]
    for (_, a), (_, b) in zip(got.periods, want.periods):
        assert np.array_equal(a.routing, b.routing) and np.array_equal(a.gamma, b.gamma)
