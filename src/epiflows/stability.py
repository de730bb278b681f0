"""Healthy-state classification, flow-perturbation drift, endemic solving.

The healthy state (s, e, x, r) = (1, 0, 0, 0) is always an equilibrium; its
local stability is decided by the spectral abscissa of the Metzler matrix U
built from the exposed/infected blocks of the healthy-state Jacobian J. U,
the r block R = A - diag(alpha) and J are written in the paper's block form
from one A = Phi - diag(gamma), and J is block lower-triangular, so its
spectrum is spec U plus spec R. The endemic equilibrium is found as a fixed
point of the positive map f(z) = Q*(z)^-1 M*(z) z with per-node simplex
renormalization.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import (EpidemicParams, SystemState, Trajectory, _check_dims, _check_simplex,
                       _Kernel)
from .errors import (
    BalanceViolation,
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
from .network import (FlowNetwork, _digraph_strongly_connected, _transport_t,
                      is_strongly_connected, perturb_flows_balanced)

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
    """The equilibrium, its fixed-point residual and iterations, and s(-Q + M)
    there, which is 0 up to rounding (see endemic_existence_indicator)."""

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


def _healthy_part(params: EpidemicParams, network: FlowNetwork) -> tuple[np.ndarray, np.ndarray]:
    """(U, R) of the (e, x, r) Jacobian at the healthy state, from one A^T."""
    if params.n != network.n:
        raise DimensionMismatch("params and network node counts differ")
    a = _transport_t(network).T
    u = np.block([[a - np.diag(params.sigma), np.diag(params.beta)],
                  [np.diag(params.sigma), a - np.diag(params.delta)]])
    return u, a - np.diag(params.alpha)


def u_matrix(params: EpidemicParams, network: FlowNetwork) -> np.ndarray:
    """2n x 2n Metzler block [[-Sigma-Gamma+Phi, B], [Sigma, -D-Gamma+Phi]]."""
    return _healthy_part(params, network)[0]


def healthy_jacobian(params: EpidemicParams, network: FlowNetwork) -> np.ndarray:
    """3n x 3n Jacobian [[U, 0], [0, D, R]] of the (e, x, r) dynamics at the
    healthy state, with R = Phi - diag(alpha + gamma)."""
    u, r = _healthy_part(params, network)
    n = network.n
    return np.block([[u, np.zeros((2 * n, n))],
                     [np.zeros((n, n)), np.diag(params.delta), r]])


def classify_healthy(
    params: EpidemicParams,
    network: FlowNetwork,
    marginal_band: float = DEFAULT_MARGINAL_BAND,
) -> StabilityReport:
    """Classify the healthy state from the sign of s(U).

    The stability conditions are strict inequalities, so a band around
    s(U) = 0 makes the boundary testable: anything inside it is Marginal.
    No other function eigensolves a network.
    """
    if not (np.isfinite(marginal_band) and marginal_band >= 0):
        raise ValidationError("marginal_band must be finite and nonnegative")
    u, r = _healthy_part(params, network)
    eig_u, eig_r = _eigvals(u), _eigvals(r)
    s_u = float(eig_u.real.max())
    if s_u < -marginal_band:
        label = STABLE
    elif s_u > marginal_band:
        label = UNSTABLE
    else:
        label = MARGINAL
    return StabilityReport(
        s_of_U=s_u,
        classification=label,
        jacobian_spectrum=np.sort_complex(np.concatenate([eig_u, eig_r])),
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


def _existence_indicator(params: EpidemicParams, network: FlowNetwork) -> float:
    """s(-Q + M) at every state, by Collatz-Wielandt enclosures: s(B) lies in
    [min r, max r], r = (v^T B) / v, for Metzler B and v > 0. The cycle
    matrix's columns sum to 0, so for the stacked populations v the rates
    drop out and r_j = (N^T A)_j / N_j, A = Phi - diag(gamma): one enclosure
    for all states and rates, which closes up to rounding, and its midpoint
    is taken. One wider than 1e-12 of the largest rate means a routing column
    does not sum to 1 and population leaks, which raises BalanceViolation."""
    v = np.broadcast_to(network.populations, (4, network.n))
    ratios = v @ _transport_t(network).T / v
    low, high = ratios.min(), ratios.max()
    scale = np.max([params.alpha, params.beta, params.sigma, params.delta, network.gamma])
    if high - low > 1e-12 * scale:
        raise BalanceViolation(
            f"the network does not conserve population: outflow gaps span "
            f"[{low:.3e}, {high:.3e}], wider than 1e-12 of the largest rate {scale:.3e}"
        )
    return float(0.5 * (low + high))


def endemic_existence_indicator(
    trajectory: Trajectory, params: EpidemicParams, network: FlowNetwork
) -> float:
    """min over sampled states of s(-Q(state) + M(state)).

    Total population is conserved, so the stacked populations are a positive
    left null vector of -Q + M at every state and the value is 0 up to
    rounding (Perron-Frobenius): it cannot certify endemic existence. A
    network in which a routing column does not sum to 1, which only a
    hand-built one can have, raises BalanceViolation.
    """
    if len(trajectory) == 0:
        raise ValidationError("trajectory is empty")
    _check_dims(trajectory.final_state, params, network)
    _check_simplex(trajectory.data, "trajectory")
    return _existence_indicator(params, network)


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
    if not 0 < damping <= 1:
        raise ValidationError("damping must lie in (0, 1]")
    if not (0 < tolerance < np.inf and max_iterations >= 1):
        raise ValidationError("tolerance must be finite and positive, max_iterations at least 1")
    if not is_strongly_connected(network):
        raise NotIrreducible("endemic solving requires a strongly connected network")
    if init is None:
        init = SystemState.from_matrix(np.full((4, network.n), 0.25))
    _check_dims(init, params, network)
    z = init.as_matrix().copy()
    if np.any(z <= 0):
        raise InvalidState("init must be strictly positive in every compartment")

    kernel = _Kernel(params, network)
    residual = np.inf
    for iteration in range(1, max_iterations + 1):
        # f(z) = inflow / outflow rate per compartment and node; the kernel's
        # rates are inflow - (R + gamma) z, and its call refreshes R from z
        fz = z + kernel(z) / (kernel.rates + network.gamma)
        residual = float(np.abs(fz - z).max())
        if residual <= tolerance:
            state = SystemState.from_matrix(z / z.sum(axis=0))
            drift = float(np.abs(kernel(state.as_matrix())).max())
            if drift > 10.0 * tolerance:
                raise NoConvergence(
                    f"fixed point found but derivative max-norm {drift:.3e} "
                    f"exceeds {10 * tolerance:.1e}",
                    best=state,
                    residual=residual,
                )
            return EndemicSolution(
                state=state,
                residual=residual,
                iterations=iteration,
                existence_indicator=_existence_indicator(params, network),
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


_GAP_BLOCK_BYTES = 2 << 20


def _nearest_gaps(a: np.ndarray, b: np.ndarray, skip_self: bool = False) -> np.ndarray:
    """Distance from each point of a to the nearest point of b, over blocks of
    rows of a whose gaps to b take about 2 MB; with skip_self, b is a and each
    point's gap to itself is left out. An empty b raises ValueError."""
    a, b = np.ravel(a), np.ravel(b)
    rows = max(1, _GAP_BLOCK_BYTES // (16 * max(len(b), 1)))
    out = np.empty(len(a))
    for start in range(0, len(a), rows):
        gaps = np.abs(a[start : start + rows, None] - b[None, :])
        if skip_self:
            k = np.arange(len(gaps))
            gaps[k, start + k] = np.inf
        out[start : start + rows] = gaps.min(axis=1)
    return out


def hausdorff_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Hausdorff distance between two finite point sets in the complex plane."""
    return float(max(_nearest_gaps(a, b).max(), _nearest_gaps(b, a).max()))


def _classify_perturbed(report: StabilityReport, params: EpidemicParams, network: FlowNetwork,
                        theta) -> tuple[StabilityReport, float]:
    """(report on network after the balance-preserving perturbation theta, in
    report's band; Hausdorff drift between the two Jacobian spectra). report is
    classify_healthy's on network, with distinct eigenvalues (gap > 1e-8)."""
    eig0 = report.jacobian_spectrum
    closest = _nearest_gaps(eig0, eig0, skip_self=True).min()
    if closest <= 1e-8:
        raise DegenerateSpectrum(
            f"healthy-state Jacobian has eigenvalues closer than 1e-8 "
            f"(min gap {closest:.3e})"
        )
    after = classify_healthy(params, perturb_flows_balanced(network, theta), report.marginal_band)
    return after, hausdorff_distance(eig0, after.jacobian_spectrum)


def eigenvalue_drift_under_perturbation(
    params: EpidemicParams, network: FlowNetwork, theta
) -> float:
    """Hausdorff distance between healthy-state Jacobian spectra before and
    after a balance-preserving perturbation of the outflow fractions.

    Requires the unperturbed Jacobian to have distinct eigenvalues
    (pairwise gap > 1e-8).
    """
    return _classify_perturbed(classify_healthy(params, network), params, network, theta)[1]
