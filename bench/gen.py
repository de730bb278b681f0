"""Input generators owned by the benchmark.

Everything the program under test receives is built here from the workload
seed, with numpy only, so a change to the program cannot change its inputs.
The county recipe is a gravity model on random planar coordinates: flows
decay exponentially with distance and are symmetrised, which balances them
by construction.
"""
from __future__ import annotations

import datetime
import os

import numpy as np

# The five-node endemic benchmark of the paper, as published: a
# column-stochastic routing matrix, per-node rates, outflow fractions and
# initial susceptible fractions.
FIVE_NODE_ROUTING = np.array(
    [
        [0.0,   0.212, 0.275, 0.25,  0.212],
        [0.249, 0.0,   0.26,  0.299, 0.338],
        [0.246, 0.198, 0.0,   0.204, 0.178],
        [0.285, 0.29,  0.259, 0.0,   0.272],
        [0.22,  0.299, 0.206, 0.247, 0.0],
    ]
)
FIVE_NODE_RATES = {
    "alpha": np.array([0.01, 0.008, 0.005, 0.008, 0.001]),
    "beta": np.array([0.065, 0.044, 0.089, 0.096, 0.038]),
    "sigma": np.array([0.079, 0.053, 0.057, 0.093, 0.007]),
    "delta": np.array([0.001, 0.001, 0.008, 0.008, 0.009]),
}
FIVE_NODE_GAMMA = np.array([0.002, 0.002, 0.002, 0.002, 0.005])

RATE_NAMES = ("alpha", "beta", "sigma", "delta")


def sub_seeds(seed: int, count: int) -> list[int]:
    """Independent child seeds for the several systems one workload runs."""
    children = np.random.SeedSequence(seed).spawn(count)
    return [int(c.generate_state(1)[0]) for c in children]


def gravity_county(n: int, seed: int, beta_scale: float = 1.0) -> dict:
    """Arrays of one synthetic county: ids, populations, balanced flows, rates.

    ``beta_scale`` below 1 lowers the infection rates, which makes the
    healthy state stable at most seeds.
    """
    rng = np.random.default_rng(seed)
    points = rng.uniform(0.0, 1.0, size=(n, 2))
    populations = np.exp(rng.normal(10.5, 0.8, size=n))
    gaps = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=-1))
    flows = np.sqrt(populations[:, None] * populations[None, :]) * np.exp(-gaps / 0.09)
    np.fill_diagonal(flows, 0.0)
    flows = 0.5 * (flows + flows.T)
    flows *= 0.03 / (flows.sum(axis=0) / populations).mean()
    return {
        "node_ids": [f"c{i:04d}" for i in range(n)],
        "populations": populations,
        "flows": flows,
        "alpha": np.full(n, 1.0 / 60.0),
        "beta": beta_scale * rng.uniform(0.20, 0.34, n),
        "sigma": rng.uniform(0.16, 0.24, n),
        "delta": rng.uniform(0.11, 0.15, n),
        "origin": int(np.argmin(points.sum(axis=1))),
    }


def five_node() -> dict:
    """The paper's five-node benchmark as arrays (flows from the routing's
    Perron vector, so that they balance)."""
    w = FIVE_NODE_ROUTING / FIVE_NODE_ROUTING.sum(axis=0, keepdims=True)
    evals, evecs = np.linalg.eig(w)
    outflow = np.abs(np.real(evecs[:, np.argmin(np.abs(evals - 1.0))]))
    populations = outflow / FIVE_NODE_GAMMA
    populations *= 1e5 / populations.min()
    return {
        "node_ids": [f"n{i + 1}" for i in range(5)],
        "populations": populations,
        "flows": w * (FIVE_NODE_GAMMA * populations)[None, :],
        **{k: v.copy() for k, v in FIVE_NODE_RATES.items()},
        "origin": 0,
    }


def period_scales(seed: int, periods: int) -> np.ndarray:
    """Per-period multipliers of a symmetric flow matrix; each scaled matrix
    stays balanced."""
    return np.random.default_rng(seed).uniform(0.7, 1.3, size=periods)


def seeded_state(n: int, origin: int, exposed: float = 2e-3) -> np.ndarray:
    """(4, n) state: healthy except a small exposed fraction at the origin."""
    state = np.zeros((4, n))
    state[0] = 1.0
    state[0, origin] = 1.0 - exposed
    state[1, origin] = exposed
    return state


def reference_epidemic(county: dict, days: int, exposed: float = 2e-3) -> np.ndarray:
    """New confirmations per day and node, (days, n), from the benchmark's own
    daily Euler step of the SEIRS-with-flows model on the county's flows."""
    pops = county["populations"]
    flows = county["flows"]
    outflow = flows.sum(axis=0)
    gamma = outflow / pops
    coupling = flows * (1.0 / pops)[:, None]
    a, b, s_, d = (county[k] for k in RATE_NAMES)
    z = seeded_state(len(pops), county["origin"], exposed)
    new = np.empty((days, len(pops)))
    for k in range(days):
        s, e, x, r = z
        infection = b * x * s
        new[k] = s_ * e * pops
        z = z + np.stack(
            [
                a * r - infection - gamma * s + coupling @ s,
                infection - (s_ + gamma) * e + coupling @ e,
                s_ * e - (d + gamma) * x + coupling @ x,
                d * x - (a + gamma) * r + coupling @ r,
            ]
        )
    return new


def write_county_files(directory: str, seed: int, n: int = 87, weeks: int = 16) -> dict:
    """CSV inputs for the file-driven CLI commands.

    Writes populations, params, daily trips (Poisson counts around the
    county's flows with a per-week level, zero counts omitted) and
    cumulative confirmed cases from :func:`reference_epidemic`. Returns the
    origin id and the sizes the correctness gates need.
    """
    county = gravity_county(n, seed)
    rng = np.random.default_rng(seed + 1)
    ids = county["node_ids"]
    days = 7 * weeks
    start = datetime.date(2021, 1, 4)
    dates = [(start + datetime.timedelta(days=k)).isoformat() for k in range(days)]
    paths = {name: os.path.join(directory, f"{name}.csv")
             for name in ("populations", "params", "trips", "cases")}

    with open(paths["populations"], "w") as fh:
        fh.write("node_id,population\n")
        fh.writelines(f"{nid},{float(p)!r}\n" for nid, p in zip(ids, county["populations"]))
    with open(paths["params"], "w") as fh:
        fh.write("node_id,beta,sigma,delta,alpha\n")
        for i, nid in enumerate(ids):
            fh.write(",".join([nid] + [repr(float(county[k][i]))
                                       for k in ("beta", "sigma", "delta", "alpha")]) + "\n")

    week_level = rng.uniform(0.8, 1.2, size=weeks)
    dst, src = np.nonzero(county["flows"])
    trip_rows = 0
    with open(paths["trips"], "w") as fh:
        fh.write("date,from_id,to_id,trips\n")
        for k in range(days):
            counts = rng.poisson(county["flows"][dst, src] * week_level[k // 7])
            keep = np.nonzero(counts)[0]
            trip_rows += len(keep)
            fh.writelines(f"{dates[k]},{ids[src[j]]},{ids[dst[j]]},{counts[j]}\n" for j in keep)

    cumulative = np.floor(np.cumsum(reference_epidemic(county, days), axis=0))
    with open(paths["cases"], "w") as fh:
        fh.write("node_id,date,cumulative_cases\n")
        for i, nid in enumerate(ids):
            fh.writelines(f"{nid},{dates[k]},{int(cumulative[k, i])}\n" for k in range(days))

    return {
        "paths": paths,
        "origin_id": ids[county["origin"]],
        "n": n,
        "days": days,
        "windows": weeks,
        "trip_rows": trip_rows,
        "arrivals": int((cumulative[-1] > 0).sum()),
        "csv_bytes": sum(os.path.getsize(p) for p in paths.values()),
    }
