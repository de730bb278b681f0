import datetime

import numpy as np
import pytest

from epiflows import (
    CaseSeries,
    StateInferenceConfig,
    infer_states,
    load_cases,
    load_flows,
    load_populations,
    simulate_discrete,
)
from epiflows.demo import seeded_initial_state, synthetic_county_system
from epiflows.errors import (
    CasesExceedPopulation,
    EmptySchedule,
    NoConvergence,
    NonPositivePopulation,
    ParseError,
    UnknownNode,
    ValidationError,
)

from helpers import write_gravity_trips


def write(path, text):
    path.write_text(text)
    return path


def date_range(start, days):
    d0 = datetime.date.fromisoformat(start)
    return [d0 + datetime.timedelta(days=k) for k in range(days)]


class TestLoadPopulations:
    def test_two_rows(self, tmp_path):
        p = write(tmp_path / "pop.csv", "node_id,population\na,100\nb,250\n")
        node_ids, pops = load_populations(p)
        assert node_ids == ("a", "b")
        assert np.array_equal(pops, [100.0, 250.0])

    def test_zero_population(self, tmp_path):
        p = write(tmp_path / "pop.csv", "node_id,population\na,0\n")
        with pytest.raises(NonPositivePopulation):
            load_populations(p)

    def test_duplicate_node(self, tmp_path):
        p = write(tmp_path / "pop.csv", "node_id,population\na,10\na,20\n")
        with pytest.raises(ParseError):
            load_populations(p)

    def test_duplicate_reported_at_second_line(self, tmp_path):
        p = write(tmp_path / "pop.csv", "node_id,population\na,10\nb,-1\na,20\n")
        with pytest.raises(NonPositivePopulation, match=r"pop\.csv:3: population must be positive"):
            load_populations(p)
        p = write(tmp_path / "pop.csv", "node_id,population\na,10\nb,x\nb,20\n")
        with pytest.raises(ParseError, match=r"pop\.csv:3: bad population 'x'"):
            load_populations(p)
        p = write(tmp_path / "pop.csv", "node_id,population\na,10\nb,1\na,x\n")
        with pytest.raises(ParseError, match=r"pop\.csv:4: duplicate node_id 'a'"):
            load_populations(p)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_population_names_its_line(self, tmp_path, cell):
        p = write(tmp_path / "pop.csv", f"node_id,population\na,10\nb,{cell}\n")
        with pytest.raises(ParseError, match=rf"pop\.csv:3: bad population '{cell}'"):
            load_populations(p)

    def test_missing_header(self, tmp_path):
        p = write(tmp_path / "pop.csv", "a,10\nb,20\n")
        with pytest.raises(ParseError):
            load_populations(p)


class TestLoadFlows:
    def test_constant_week_averages_to_daily(self, tmp_path):
        rows = ["date,from_id,to_id,trips"]
        for day in date_range("2020-03-01", 7):
            rows.append(f"{day},a,b,30")
            rows.append(f"{day},b,a,30")
        p = write(tmp_path / "flows.csv", "\n".join(rows) + "\n")
        schedule = load_flows(p, ("a", "b"), np.array([100.0, 100.0]), aggregation_days=7)
        assert len(schedule.periods) == 1
        duration, net = schedule.periods[0]
        assert duration == 7.0
        assert net.flows[1, 0] == pytest.approx(30.0)
        assert net.flows[0, 1] == pytest.approx(30.0)

    def test_one_way_cycle_gets_balanced(self, tmp_path):
        rows = ["date,from_id,to_id,trips",
                "2020-03-01,a,b,10",
                "2020-03-01,b,c,20",
                "2020-03-01,c,a,30"]
        p = write(tmp_path / "flows.csv", "\n".join(rows) + "\n")
        schedule = load_flows(p, ("a", "b", "c"), np.full(3, 100.0), aggregation_days=1)
        _, net = schedule.periods[0]
        out = net.flows.sum(axis=0)
        assert np.abs(out - net.flows.sum(axis=1)).max() < 1e-9 * out.max()

    def test_empty_file(self, tmp_path):
        p = write(tmp_path / "flows.csv", "date,from_id,to_id,trips\n")
        with pytest.raises(EmptySchedule):
            load_flows(p, ("a",), np.array([10.0]))

    def test_self_trips_skipped(self, tmp_path):
        rows = ["date,from_id,to_id,trips",
                "2020-03-01,a,a,9999",
                "2020-03-01,a,b,5",
                "2020-03-01,b,a,5"]
        p = write(tmp_path / "flows.csv", "\n".join(rows) + "\n")
        schedule = load_flows(p, ("a", "b"), np.array([50.0, 50.0]), aggregation_days=1)
        _, net = schedule.periods[0]
        assert net.flows[0, 0] == 0.0
        assert net.flows[1, 0] == pytest.approx(5.0)

    def test_unknown_node(self, tmp_path):
        p = write(tmp_path / "flows.csv",
                  "date,from_id,to_id,trips\n2020-03-01,a,zzz,5\n")
        with pytest.raises(UnknownNode):
            load_flows(p, ("a", "b"), np.array([10.0, 10.0]))

    def test_unknown_from_id_reported_before_to_id(self, tmp_path):
        p = write(tmp_path / "flows.csv",
                  "date,from_id,to_id,trips\n2020-03-01,a,b,5\n2020-03-01,yyy,zzz,5\n")
        with pytest.raises(UnknownNode, match=r"flows\.csv:3: unknown node 'yyy'"):
            load_flows(p, ("a", "b"), np.array([10.0, 10.0]))

    def test_unbalanceable_flows_fail_loudly(self, tmp_path):
        p = write(tmp_path / "flows.csv",
                  "date,from_id,to_id,trips\n2020-03-01,a,b,5\n")
        with pytest.raises(NoConvergence):
            load_flows(p, ("a", "b"), np.array([10.0, 10.0]), aggregation_days=1)

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_trips_name_their_line(self, tmp_path, cell):
        # nan passes the sign check, and balancing would see a one-way node
        p = write(tmp_path / "flows.csv", "date,from_id,to_id,trips\n"
                  f"2020-03-01,a,b,5\n2020-03-01,b,a,{cell}\n")
        with pytest.raises(ParseError, match=rf"flows\.csv:3: bad trips value '{cell}'"):
            load_flows(p, ("a", "b"), np.array([100.0, 100.0]))

    def test_partial_final_window(self, tmp_path):
        rows = ["date,from_id,to_id,trips"]
        for day in date_range("2020-03-01", 10):  # 7-day window + 3-day tail
            rows.append(f"{day},a,b,70")
            rows.append(f"{day},b,a,70")
        p = write(tmp_path / "flows.csv", "\n".join(rows) + "\n")
        schedule = load_flows(p, ("a", "b"), np.array([1e3, 1e3]), aggregation_days=7)
        assert [d for d, _ in schedule.periods] == [7.0, 3.0]
        for _, net in schedule.periods:
            assert net.flows[1, 0] == pytest.approx(70.0)


    @pytest.mark.parametrize("seed", [0, 1, 3])
    def test_seeded_county_survives_first_euler_step(self, tmp_path, seed):
        # balancing that stopped at a relative imbalance of 1e-10 left a
        # healthy node's s at 1 + 2e-12 after one step
        network, params, origin = synthetic_county_system(87, seed)
        write_gravity_trips(tmp_path / "trips.csv", network, seed)
        schedule = load_flows(tmp_path / "trips.csv", network.node_ids, network.populations)
        trajectory = simulate_discrete(seeded_initial_state(87, origin), params, schedule, steps=2)
        assert trajectory.data[1].max() <= 1.0

    def test_later_bad_row_reported_at_its_line(self, tmp_path):
        rows = ["date,from_id,to_id,trips",
                "2020-03-01,a,b,5",
                "2020-03-01,b,a,-1",
                "not-a-date,b,a,5"]
        p = write(tmp_path / "flows.csv", "\n".join(rows) + "\n")
        with pytest.raises(ParseError, match=r"flows\.csv:3: trips must be nonnegative"):
            load_flows(p, ("a", "b"), np.array([10.0, 10.0]))

    def test_columns_found_by_name(self, tmp_path):
        rows = ["trips,note,to_id,date,from_id",
                '5,"x, y",b,2020-03-01,a',
                "5,,a,2020-03-01,b"]
        p = write(tmp_path / "flows.csv", "\r\n".join(rows) + "\r\n")
        schedule = load_flows(p, ("a", "b"), np.array([50.0, 50.0]), aggregation_days=1)
        assert schedule.periods[0][1].flows[1, 0] == 5.0


class TestCaseSeries:
    def test_decreasing_rejected(self):
        with pytest.raises(ParseError):
            CaseSeries(
                node_ids=("a",),
                dates=tuple(date_range("2020-03-01", 3)),
                cumulative=np.array([[5.0], [4.0], [6.0]]),
            )

    def test_gap_in_dates_rejected(self):
        dates = date_range("2020-03-01", 3)
        dates[2] = dates[2] + datetime.timedelta(days=5)
        with pytest.raises(ParseError):
            CaseSeries(node_ids=("a",), dates=tuple(dates),
                       cumulative=np.zeros((3, 1)))

    def test_load_cases_round_trip(self, tmp_path):
        rows = ["node_id,date,cumulative_cases"]
        for k, day in enumerate(date_range("2020-03-01", 4)):
            rows.append(f"a,{day},{k}")
            rows.append(f"b,{day},{2 * k}")
        p = write(tmp_path / "cases.csv", "\n".join(rows) + "\n")
        cases = load_cases(p)
        assert cases.node_ids == ("a", "b")
        assert np.array_equal(cases.cumulative[:, 1], [0.0, 2.0, 4.0, 6.0])

    def test_duplicate_entry_reported_at_its_line(self, tmp_path):
        rows = ["node_id,date,cumulative_cases",
                "a,2020-03-01,1", "a,2020-03-02,2", "a,2020-03-01,3"]
        p = write(tmp_path / "cases.csv", "\n".join(rows) + "\n")
        with pytest.raises(ParseError, match=r"cases\.csv:4: duplicate entry for 'a' on 2020-03-01"):
            load_cases(p)

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_count_names_its_line(self, tmp_path, cell):
        rows = ["node_id,date,cumulative_cases", "a,2020-03-01,0", f"a,2020-03-02,{cell}"]
        p = write(tmp_path / "cases.csv", "\n".join(rows) + "\n")
        with pytest.raises(ParseError, match=rf"cases\.csv:3: bad case count '{cell}'"):
            load_cases(p)

    def test_missing_day_named(self, tmp_path):
        rows = ["node_id,date,cumulative_cases",
                "a,2020-03-01,1", "b,2020-03-02,2", "a,2020-03-02,3"]
        p = write(tmp_path / "cases.csv", "\n".join(rows) + "\n")
        with pytest.raises(ParseError, match=r"node 'b' is missing 2020-03-01"):
            load_cases(p)

    def test_increments_include_day_zero(self):
        series = CaseSeries(
            node_ids=("a",),
            dates=tuple(date_range("2020-03-01", 3)),
            cumulative=np.array([[3.0], [3.0], [7.0]]),
        )
        assert np.array_equal(series.daily_increments()[:, 0], [3.0, 0.0, 4.0])


class TestInferStates:
    def test_zero_cases_stay_healthy(self):
        series = CaseSeries(
            node_ids=("a", "b"),
            dates=tuple(date_range("2020-03-01", 30)),
            cumulative=np.zeros((30, 2)),
        )
        obs = infer_states(series, np.array([100.0, 200.0]))
        assert np.array_equal(obs.data[:, 0, :], np.ones((30, 2)))
        assert np.array_equal(obs.data[:, 1:, :], np.zeros((30, 3, 2)))

    def test_single_case_interval_assignment(self):
        days = 70
        cumulative = np.zeros((days, 1))
        cumulative[10:, 0] = 1.0  # one confirmation on day 10
        series = CaseSeries(node_ids=("a",),
                            dates=tuple(date_range("2020-03-01", days)),
                            cumulative=cumulative)
        obs = infer_states(series, np.array([100.0]))
        s, e, x, r = (obs.data[:, c, 0] for c in range(4))
        for t in range(days):
            want_e = 0.01 if 3 <= t <= 9 else 0.0
            want_x = 0.01 if 10 <= t <= 16 else 0.0
            want_r = 0.01 if 17 <= t <= 58 else 0.0
            assert e[t] == want_e, f"day {t}"
            assert x[t] == want_x, f"day {t}"
            assert r[t] == want_r, f"day {t}"
            assert s[t] == 1.0 - want_e - want_x - want_r

    def test_custom_config_shifts_intervals(self):
        days = 40
        cumulative = np.zeros((days, 1))
        cumulative[10:, 0] = 1.0
        series = CaseSeries(node_ids=("a",),
                            dates=tuple(date_range("2020-03-01", days)),
                            cumulative=cumulative)
        config = StateInferenceConfig(exposure_lead=3, infectious_duration=5,
                                      immunity_duration=10)
        obs = infer_states(series, np.array([50.0]), config)
        e, x, r = (obs.data[:, c, 0] for c in (1, 2, 3))
        assert np.nonzero(e)[0].tolist() == [7, 8, 9]
        assert np.nonzero(x)[0].tolist() == list(range(10, 15))
        assert np.nonzero(r)[0].tolist() == list(range(15, 25))

    def test_cases_exceeding_population(self):
        days = 10
        cumulative = np.zeros((days, 1))
        cumulative[5:, 0] = 50.0
        series = CaseSeries(node_ids=("a",),
                            dates=tuple(date_range("2020-03-01", days)),
                            cumulative=cumulative)
        with pytest.raises(CasesExceedPopulation):
            infer_states(series, np.array([10.0]))

    def test_states_stay_on_simplex_random(self):
        rng = np.random.default_rng(7)
        days, n = 90, 10
        increments = rng.poisson(2.0, size=(days, n))
        cumulative = np.cumsum(increments, axis=0).astype(float)
        series = CaseSeries(node_ids=tuple(f"c{i}" for i in range(n)),
                            dates=tuple(date_range("2020-03-01", days)),
                            cumulative=cumulative)
        obs = infer_states(series, np.full(n, 5e3))
        assert obs.data.min() >= 0.0 and obs.data.max() <= 1.0
        assert np.abs(obs.data.sum(axis=1) - 1.0).max() < 1e-12
        for k in range(days):
            obs.state_at(k)  # constructor revalidates

    def test_compartment_window_conservation(self):
        # occupied compartments must hold exactly the confirmations from the
        # trailing immunity+infectious window through the leading exposure one
        rng = np.random.default_rng(11)
        days, n = 80, 4
        increments = rng.poisson(1.5, size=(days, n))
        cumulative = np.cumsum(increments, axis=0).astype(float)
        series = CaseSeries(node_ids=tuple(f"c{i}" for i in range(n)),
                            dates=tuple(date_range("2020-03-01", days)),
                            cumulative=cumulative)
        pops = np.full(n, 1e4)
        config = StateInferenceConfig()
        obs = infer_states(series, pops, config)
        active = (obs.data[:, 1, :] + obs.data[:, 2, :] + obs.data[:, 3, :]) * pops
        new = series.daily_increments()
        lead, dur, imm = config.exposure_lead, config.infectious_duration, config.immunity_duration
        for t in range(days):
            lo = max(0, t - dur - imm + 1)
            hi = min(days - 1, t + lead)
            want = new[lo : hi + 1].sum(axis=0)
            assert np.allclose(active[t], want, atol=1e-9)

    def test_rejects_bad_config(self):
        with pytest.raises(ValidationError):
            StateInferenceConfig(exposure_lead=0)
        with pytest.raises(ValidationError):
            StateInferenceConfig(immunity_duration=-3)
