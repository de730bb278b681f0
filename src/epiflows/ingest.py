"""File ingestion and SEIRS state inference from cumulative case counts.

CSV schemas (UTF-8, header row, ISO-8601 dates; files are read column-wise,
so extra columns and any column order are accepted):
  populations: node_id, population
  flows:       date, from_id, to_id, trips
  cases:       node_id, date, cumulative_cases

State inference assigns each confirmed case to a contiguous run of
compartments: exposed for ``exposure_lead`` days before confirmation,
infectious for ``infectious_duration`` days starting at confirmation, then
recovered for ``immunity_duration`` days, after which the individual returns
to susceptible.
"""
from __future__ import annotations

import datetime
from dataclasses import dataclass

import numpy as np

from ._csvio import (decode, indices, numbered, raise_first, read_columns,
                     repeated_across, text)
from .errors import (
    CasesExceedPopulation,
    EmptySchedule,
    NonPositivePopulation,
    ParseError,
    UnknownNode,
    ValidationError,
)
from .estimation import ObservationSeries
from .network import NetworkSchedule, balance_flows, build_network


@dataclass(frozen=True)
class CaseSeries:
    """Daily cumulative confirmed cases per node."""

    node_ids: tuple[str, ...]
    dates: tuple[datetime.date, ...]
    cumulative: np.ndarray  # (days, n)

    def __post_init__(self):
        if self.cumulative.shape != (len(self.dates), len(self.node_ids)):
            raise ParseError(
                f"cumulative shape {self.cumulative.shape} does not match "
                f"{len(self.dates)} dates x {len(self.node_ids)} nodes"
            )
        for a, b in zip(self.dates, self.dates[1:]):
            if (b - a).days != 1:
                raise ParseError(f"dates must be consecutive days; gap at {a} -> {b}")
        if np.any(self.cumulative < 0):
            raise ParseError("cumulative cases must be nonnegative")
        if np.any(np.diff(self.cumulative, axis=0) < 0):
            raise ParseError("cumulative cases must be nondecreasing per node")

    @property
    def days(self) -> int:
        return len(self.dates)

    def daily_increments(self) -> np.ndarray:
        """New confirmations per day; cases already present on the first day
        count as confirmed on that day."""
        out = np.empty_like(self.cumulative)
        out[0] = self.cumulative[0]
        out[1:] = np.diff(self.cumulative, axis=0)
        return out


@dataclass(frozen=True)
class StateInferenceConfig:
    exposure_lead: int = 7
    infectious_duration: int = 7
    immunity_duration: int = 42

    def __post_init__(self):
        for name in ("exposure_lead", "infectious_duration", "immunity_duration"):
            value = getattr(self, name)
            if not isinstance(value, int) or value <= 0:
                raise ValidationError(f"{name} must be a positive integer")


_DAYS = datetime.date.max.toordinal() + 1  # above every ordinal _ordinal gives


def _ordinal(text: str) -> int:
    return datetime.date.fromisoformat(text).toordinal()


def _header_error(path, names) -> ParseError:
    return ParseError(f"{path}: expected header with columns {sorted(names)}")


def load_populations(path) -> tuple[tuple[str, ...], np.ndarray]:
    names = ("node_id", "population")
    seen = []  # the id cells of the blocks read so far

    def rows(start, ids, cells):
        pops, bad = decode(cells)
        raise_first(path, [
            (repeated_across(ids, seen), lambda k, where: ParseError(
                f"{where}: duplicate node_id {text(ids[k])!r}")),
            (bad, lambda k, where: ParseError(f"{where}: bad population {text(cells[k])!r}")),
            (pops <= 0, lambda k, where: NonPositivePopulation(
                f"{where}: population must be positive")),
        ], start)
        return ids, pops

    ids, pops = read_columns(path, names, _header_error(path, names), rows)
    seen.clear()  # a sorted copy of the ids, kept only for the duplicate checks
    if not len(ids):
        raise ParseError(f"{path}: no data rows")
    return tuple(map(text, ids)), pops  # repeated_across: the ids are distinct


def _window_sums(path, node_ids, aggregation_days: int) -> tuple[np.ndarray, np.ndarray]:
    """Trips summed per (window, to, from) cell in file order, self-trips
    skipped, and the length of each window in days."""
    index = {nid: i for i, nid in enumerate(node_ids)}
    names = ("date", "from_id", "to_id", "trips")
    n = len(node_ids)

    def rows(start, dates, froms, tos, cells):
        day, bad_date = decode(dates, _ordinal, np.int64)
        src, dst = indices(froms, index), indices(tos, index)
        trips, bad_trips = decode(cells)
        raise_first(path, [
            (bad_date, lambda k, where: ParseError(f"{where}: bad ISO date {text(dates[k])!r}")),
            (src < 0, lambda k, where: UnknownNode(f"{where}: unknown node {text(froms[k])!r}")),
            (dst < 0, lambda k, where: UnknownNode(f"{where}: unknown node {text(tos[k])!r}")),
            (bad_trips, lambda k, where: ParseError(
                f"{where}: bad trips value {text(cells[k])!r}")),
            (trips < 0, lambda k, where: ParseError(f"{where}: trips must be nonnegative")),
        ], start)
        travel = src != dst
        return ((day * n + dst) * n + src)[travel], trips[travel]  # one key per kept row

    key, trips = read_columns(path, names, _header_error(path, names), rows)
    if not len(key):
        raise EmptySchedule(f"{path}: no usable flow rows")
    day, cell = np.divmod(key, n * n, out=(np.empty_like(key), key))
    first, last = day.min(), day.max()
    n_windows = (last - first) // aggregation_days + 1
    day -= first
    day //= aggregation_days
    day *= n * n
    cell += day  # (window * n + dst) * n + src
    del day  # 8 bytes a row, gone before the sums are made
    # bincount adds each cell's trips in file order, as a row loop would
    sums = np.bincount(cell, weights=trips, minlength=n_windows * n * n).reshape(n_windows, n, n)
    spans = np.minimum(aggregation_days, last - first + 1 - aggregation_days * np.arange(n_windows))
    return sums, spans


def load_flows(
    path,
    node_ids,
    populations,
    aggregation_days: int = 7,
) -> NetworkSchedule:
    """Aggregate daily trip counts into a schedule of balanced flow networks.

    Trips are summed over consecutive windows of ``aggregation_days`` and
    divided by the window length to yield daily flows, which are then
    scale-balanced (all windows in one call) before network construction.
    Rows with from_id == to_id (intra-node trips) do not enter the model and
    are skipped.
    """
    if aggregation_days < 1:
        raise ValidationError("aggregation_days must be >= 1")
    node_ids = tuple(node_ids)
    sums, spans = _window_sums(path, node_ids, aggregation_days)
    sums /= spans[:, None, None]  # daily flows
    balanced = balance_flows(sums, method="scale")
    return NetworkSchedule(periods=tuple(
        (float(span), build_network(node_ids, populations, flows))
        for span, flows in zip(spans, balanced)
    ))


def load_cases(path) -> CaseSeries:
    names = ("node_id", "date", "cumulative_cases")
    index, seen = {}, []  # node ids, and the (node, day) keys of the blocks so far

    def rows(start, ids, dates, cells):
        day, bad_date = decode(dates, _ordinal, np.int64)
        counts, bad_count = decode(cells)
        node = numbered(ids, index)
        raise_first(path, [
            (bad_date, lambda k, where: ParseError(f"{where}: bad ISO date {text(dates[k])!r}")),
            (bad_count, lambda k, where: ParseError(
                f"{where}: bad case count {text(cells[k])!r}")),
            # one integer per (node, day) pair
            (repeated_across(node * _DAYS + day, seen), lambda k, where: ParseError(
                f"{where}: duplicate entry for {text(ids[k])!r} on "
                f"{datetime.date.fromordinal(int(day[k]))}")),
        ], start)
        return node, day, counts

    node, day, counts = read_columns(path, names, _header_error(path, names), rows)
    node_ids = tuple(index)
    if not len(node):
        raise ParseError(f"{path}: no data rows")
    days, slot = np.unique(day, return_inverse=True)
    present = np.zeros((len(node_ids), len(days)), dtype=bool)
    present[node, slot] = True
    if not present.all():
        i, k = np.unravel_index(np.argmin(present), present.shape)
        raise ParseError(
            f"{path}: node {node_ids[i]!r} is missing {datetime.date.fromordinal(int(days[k]))}"
        )
    data = np.zeros((len(days), len(node_ids)))
    data[slot, node] = counts
    dates = tuple(datetime.date.fromordinal(int(d)) for d in days)
    return CaseSeries(node_ids=node_ids, dates=dates, cumulative=data)


def infer_states(
    cases: CaseSeries,
    populations,
    config: StateInferenceConfig | None = None,
    schedule: NetworkSchedule | None = None,
) -> ObservationSeries:
    """Turn cumulative confirmed cases into daily SEIRS fraction observations.

    A case confirmed on day c occupies E on [c - lead, c - 1], I on
    [c, c + dur - 1] and R on [c + dur, c + dur + imm - 1]; everyone else is
    susceptible. Confirmations after the end of the series are unknown, so
    exposed counts taper near the final days.
    """
    config = config or StateInferenceConfig()
    populations = np.asarray(populations, dtype=float)
    if populations.shape != (len(cases.node_ids),):
        raise ParseError("populations length does not match case series nodes")

    lead = config.exposure_lead
    dur = config.infectious_duration
    imm = config.immunity_duration
    days = cases.days
    new = cases.daily_increments()
    # csum[t] = cases confirmed on days [0, t); clamp handles both ends
    csum = np.zeros((days + 1, len(cases.node_ids)))
    np.cumsum(new, axis=0, out=csum[1:])

    def confirmed_between(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Cases confirmed on days [lo, hi] (inclusive), clamped to the series."""
        lo = np.clip(lo, 0, days)
        hi = np.clip(hi + 1, 0, days)
        return csum[np.maximum(hi, lo)] - csum[lo]

    t = np.arange(days)
    e_count = confirmed_between(t + 1, t + lead)
    i_count = confirmed_between(t - dur + 1, t)
    r_count = confirmed_between(t - dur - imm + 1, t - dur)

    active = e_count + i_count + r_count
    over = active.max(axis=0) - populations
    if np.any(over > 0):
        worst = int(np.argmax(over))
        raise CasesExceedPopulation(
            f"node {cases.node_ids[worst]!r} has {active[:, worst].max():.0f} "
            f"active cases but population {populations[worst]:.0f}"
        )

    e = e_count / populations
    x = i_count / populations
    r = r_count / populations
    s = 1.0 - e - x - r
    data = np.stack([s, e, x, r], axis=1)  # (days, 4, n)
    return ObservationSeries(
        h=1.0,
        times=np.arange(days, dtype=float),
        data=data,
        schedule=schedule,
    )
