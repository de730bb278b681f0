"""Networked SEIRS epidemics with explicit travel flows.

Simulation (continuous RK4 and discrete Euler), healthy/endemic stability
analysis, spreading-parameter estimation from observed trajectories, and
effective-distance arrival-time prediction.

Importing the package loads only ``errors``. Each public name below is
imported from its home module on first access (PEP 562), so a caller pays
only for the modules it uses; ``from epiflows import *`` loads them all.
"""

import importlib

from . import errors

__version__ = "0.1.0"

_EXPORTS = {
    "dynamics": (
        "EpidemicParams", "SystemState", "Trajectory", "derivative", "integrate",
        "read_trajectory_csv", "simulate_discrete", "step_euler", "write_trajectory_csv",
    ),
    "effdist": (
        "ArrivalForecast", "ArrivalRecord", "DistanceGraph", "FullFitResult", "InfectedSet",
        "arrival_times", "effective_distance_from", "full_fit_baseline",
        "group_effective_distance", "log_distance_graph", "prediction_rms",
        "sliding_window_predict",
    ),
    "estimation": (
        "NodeEstimate", "ObservationSeries", "ParameterEstimate", "build_regression",
        "estimate_all", "estimate_node", "parameter_rmse", "write_estimate_csv",
    ),
    "ingest": (
        "CaseSeries", "StateInferenceConfig", "infer_states", "load_cases", "load_flows",
        "load_populations",
    ),
    "network": (
        "FlowNetwork", "NetworkSchedule", "balance_flows", "build_network", "check_k_strong",
        "is_strongly_connected", "perturb_flows_balanced",
    ),
    "stability": (
        "EndemicSolution", "StabilityReport", "classify_healthy",
        "eigenvalue_drift_under_perturbation", "endemic_existence_indicator",
        "healthy_jacobian", "solve_endemic", "spectral_abscissa_condition", "u_matrix",
        "uniqueness_condition",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["errors", *_HOME]


def __getattr__(name: str):
    """A public name, or a module of ``_EXPORTS``, imported on first access."""
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
