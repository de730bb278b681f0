"""Healthy-state classification, flow-perturbation drift, endemic solving.

The healthy state (s, e, x, r) = (1, 0, 0, 0) is always an equilibrium; its
local stability is decided by the spectral abscissa of the Metzler matrix U
built from the exposed/infected blocks of the healthy-state Jacobian. The
endemic equilibrium is found as a fixed point of the positive map
f(z) = Q*(z)^-1 M*(z) z with per-node simplex renormalization.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import EpidemicParams, SystemState, Trajectory, derivative
from .errors import (
    DegenerateSpectrum,
    DimensionMismatch,
    EigensolverFailure,
    InvalidState,
    NegativeEntryInM,
    NoConvergence,
    NotDiagonal,
    NotIrreducible,
    ValidationError,
)
from .network import (
    FlowNetwork,
    _digraph_strongly_connected,
    is_strongly_connected,
    perturb_flows_balanced,
)

STABLE = "Stable"
UNSTABLE = "Unstable"
MARGINAL = "Marginal"

DEFAULT_MARGINAL_BAND = 1e-9


@dataclass(frozen=True)
class StabilityReport:
    s_of_U: float
    classification: str
    jacobian_spectrum: np.ndarray
    marginal_band: float

    def to_dict(self) -> dict:
        return {
            "s_of_U": self.s_of_U,
            "classification": self.classification,
            "jacobian_spectrum": [
                [float(v.real), float(v.imag)] for v in self.jacobian_spectrum
            ],
            "marginal_band": self.marginal_band,
        }


@dataclass(frozen=True)
class EndemicSolution:
    state: SystemState
    residual: float
    iterations: int
    existence_indicator: float

    def to_dict(self) -> dict:
        m = self.state.as_matrix()
        return {
            "state": {name: m[c].tolist() for c, name in enumerate("sexr")},
            "residual": self.residual,
            "iterations": self.iterations,
            "existence_indicator": self.existence_indicator,
        }


def _eigvals(matrix: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.eigvals(matrix)
    except np.linalg.LinAlgError as exc:
        raise EigensolverFailure(str(exc)) from exc


def spectral_abscissa(matrix: np.ndarray) -> float:
    return float(_eigvals(matrix).real.max())


def u_matrix(params: EpidemicParams, network: FlowNetwork) -> np.ndarray:
    """2n x 2n Metzler block [[-Sigma-Gamma+Phi, B], [Sigma, -D-Gamma+Phi]]."""
    if params.n != network.n:
        raise DimensionMismatch("params and network node counts differ")
    phi = network.coupling
    g = np.diag(network.gamma)
    return np.block(
        [
            [phi - np.diag(params.sigma) - g, np.diag(params.beta)],
            [np.diag(params.sigma), phi - np.diag(params.delta) - g],
        ]
    )


def healthy_jacobian(params: EpidemicParams, network: FlowNetwork) -> np.ndarray:
    """3n x 3n Jacobian of the (e, x, r) dynamics at the healthy state."""
    if params.n != network.n:
        raise DimensionMismatch("params and network node counts differ")
    n = network.n
    phi = network.coupling
    g = np.diag(network.gamma)
    z = np.zeros((n, n))
    return np.block(
        [
            [phi - np.diag(params.sigma) - g, np.diag(params.beta), z],
            [np.diag(params.sigma), phi - np.diag(params.delta) - g, z],
            [z, np.diag(params.delta), phi - np.diag(params.alpha) - g],
        ]
    )


def classify_healthy(
    params: EpidemicParams,
    network: FlowNetwork,
    marginal_band: float = DEFAULT_MARGINAL_BAND,
) -> StabilityReport:
    """Classify the healthy state from the sign of s(U).

    The stability conditions are strict inequalities, so a band around
    s(U) = 0 makes the boundary testable: anything inside it is Marginal.
    """
    if marginal_band < 0:
        raise ValidationError("marginal_band must be nonnegative")
    s_u = spectral_abscissa(u_matrix(params, network))
    if s_u < -marginal_band:
        label = STABLE
    elif s_u > marginal_band:
        label = UNSTABLE
    else:
        label = MARGINAL
    spectrum = _eigvals(healthy_jacobian(params, network))
    return StabilityReport(
        s_of_U=s_u,
        classification=label,
        jacobian_spectrum=spectrum,
        marginal_band=marginal_band,
    )


def spectral_abscissa_condition(Q: np.ndarray, M: np.ndarray) -> float:
    """s(-Q+M) for positive-diagonal Q and nonnegative M.

    When M is irreducible the sign must agree with rho(Q^-1 M) - 1; the
    cross-check runs on every call and a disagreement beyond eigensolver
    noise is reported as a failure.
    """
    Q = np.asarray(Q, dtype=float)
    M = np.asarray(M, dtype=float)
    if Q.shape != M.shape or Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise DimensionMismatch("Q and M must be square matrices of equal size")
    if np.any(Q - np.diag(np.diag(Q)) != 0) or np.any(np.diag(Q) <= 0):
        raise NotDiagonal("Q must be diagonal with strictly positive diagonal")
    if np.any(M < 0):
        raise NegativeEntryInM("M must be nonnegative")
    s = spectral_abscissa(M - Q)
    if abs(s) > 1e-10 and _digraph_strongly_connected(M > 0):
        rho = float(np.abs(_eigvals(M / np.diag(Q)[:, None])).max())
        if np.sign(s) != np.sign(rho - 1.0):
            raise EigensolverFailure(
                f"sign(s(-Q+M))={np.sign(s):.0f} disagrees with "
                f"sign(rho(Q^-1 M)-1)={np.sign(rho - 1.0):.0f}"
            )
    return s


def q_and_m_matrices(
    state: SystemState, params: EpidemicParams, network: FlowNetwork
) -> tuple[np.ndarray, np.ndarray]:
    """State-dependent split of the full 4n dynamics, dz = (-Q + M) z."""
    n = network.n
    bx = params.beta * state.x
    g = network.gamma
    Q = np.diag(
        np.concatenate([bx + g, params.sigma + g, params.delta + g, params.alpha + g])
    )
    phi = network.coupling
    z = np.zeros((n, n))
    M = np.block(
        [
            [phi, z, z, np.diag(params.alpha)],
            [np.diag(bx), phi, z, z],
            [z, np.diag(params.sigma), phi, z],
            [z, z, np.diag(params.delta), phi],
        ]
    )
    return Q, M


def endemic_existence_indicator(
    trajectory: Trajectory, params: EpidemicParams, network: FlowNetwork
) -> float:
    """min over sampled states of s(-Q(state) + M(state)).

    A strictly positive value certifies the endemic-existence hypothesis
    along the sampled trajectory only, not globally.
    """
    if len(trajectory) == 0:
        raise ValidationError("trajectory is empty")
    best = np.inf
    for k in range(len(trajectory)):
        Q, M = q_and_m_matrices(trajectory.state_at(k), params, network)
        best = min(best, spectral_abscissa(M - Q))
    return float(best)


def _endemic_map(z: np.ndarray, params: EpidemicParams, phi: np.ndarray, g: np.ndarray):
    """Inflow over outflow rate per compartment and node: travel in through
    Phi plus the previous compartment's exit flux around s -> e -> x -> r -> s."""
    rates = np.stack([params.beta * z[2], params.sigma, params.delta, params.alpha])
    return (np.roll(rates * z, 1, axis=0) + z @ phi.T) / (rates + g)


def solve_endemic(
    params: EpidemicParams,
    network: FlowNetwork,
    init: SystemState | None = None,
    tolerance: float = 1e-10,
    max_iterations: int = 10_000,
    damping: float = 0.5,
) -> EndemicSolution:
    """Damped fixed-point iteration for the strictly positive equilibrium.

    Iterates z <- (1-damping) z + damping * normalize(f(z)), where normalize
    rescales each node's four fractions to sum to 1, until the fixed-point
    residual max|f(z) - z| drops below tolerance. The returned state is
    verified to zero the continuous-time derivative within 10x tolerance.
    """
    if params.n != network.n:
        raise DimensionMismatch("params and network node counts differ")
    if not 0 < damping <= 1:
        raise ValidationError("damping must lie in (0, 1]")
    if not is_strongly_connected(network):
        raise NotIrreducible("endemic solving requires a strongly connected network")
    if init is None:
        init = SystemState.from_matrix(np.full((4, network.n), 0.25))
    if init.n != network.n:
        raise DimensionMismatch("init and network node counts differ")
    z = init.as_matrix().copy()
    if np.any(z <= 0):
        raise InvalidState("init must be strictly positive in every compartment")

    phi, g = network.coupling, network.gamma
    residual = np.inf
    for iteration in range(1, max_iterations + 1):
        fz = _endemic_map(z, params, phi, g)
        residual = float(np.abs(fz - z).max())
        if residual <= tolerance:
            state = SystemState.from_matrix(z / z.sum(axis=0))
            drift = float(np.abs(np.stack(derivative(state, params, network))).max())
            if drift > 10.0 * tolerance:
                raise NoConvergence(
                    f"fixed point found but derivative max-norm {drift:.3e} "
                    f"exceeds {10 * tolerance:.1e}",
                    best=state,
                    residual=residual,
                )
            Q, M = q_and_m_matrices(state, params, network)
            return EndemicSolution(
                state=state,
                residual=residual,
                iterations=iteration,
                existence_indicator=spectral_abscissa(M - Q),
            )
        z = (1.0 - damping) * z + damping * (fz / fz.sum(axis=0))
    raise NoConvergence(
        f"no fixed point within {max_iterations} iterations (residual {residual:.3e})",
        best=SystemState.from_matrix(z / z.sum(axis=0)),
        residual=residual,
    )


def uniqueness_condition(params: EpidemicParams, network: FlowNetwork) -> bool:
    """True iff beta_i >= gamma_i at every node (sufficient, not necessary)."""
    if params.n != network.n:
        raise DimensionMismatch("params and network node counts differ")
    return bool(np.all(params.beta >= network.gamma))


def hausdorff_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Hausdorff distance between two finite point sets in the complex plane."""
    a = np.asarray(a).reshape(-1, 1)
    b = np.asarray(b).reshape(1, -1)
    gaps = np.abs(a - b)
    return float(max(gaps.min(axis=1).max(), gaps.min(axis=0).max()))


def eigenvalue_drift_under_perturbation(
    params: EpidemicParams, network: FlowNetwork, theta
) -> float:
    """Hausdorff distance between healthy-state Jacobian spectra before and
    after a balance-preserving perturbation of the outflow fractions.

    Requires the unperturbed Jacobian to have distinct eigenvalues
    (pairwise gap > 1e-8).
    """
    j0 = healthy_jacobian(params, network)
    eig0 = _eigvals(j0)
    gaps = np.abs(eig0.reshape(-1, 1) - eig0.reshape(1, -1))
    np.fill_diagonal(gaps, np.inf)
    if gaps.min() <= 1e-8:
        raise DegenerateSpectrum(
            f"healthy-state Jacobian has eigenvalues closer than 1e-8 "
            f"(min gap {gaps.min():.3e})"
        )
    perturbed = perturb_flows_balanced(network, theta)
    eig1 = _eigvals(healthy_jacobian(params, perturbed))
    return hausdorff_distance(eig0, eig1)
