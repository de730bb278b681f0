from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from epiflows import (
    EpidemicParams,
    SystemState,
    Trajectory,
    build_network,
    classify_healthy,
    derivative,
    eigenvalue_drift_under_perturbation,
    endemic_existence_indicator,
    healthy_jacobian,
    integrate,
    perturb_flows_balanced,
    solve_endemic,
    spectral_abscissa_condition,
    u_matrix,
    uniqueness_condition,
)
from epiflows import stability
from epiflows.errors import (
    BalanceViolation,
    DegenerateSpectrum,
    DimensionMismatch,
    InvalidState,
    NegativeEntryInM,
    NotDiagonal,
    NotIrreducible,
    PerturbationUnbalanced,
    ValidationError,
)
from epiflows.network import NetworkSchedule
from epiflows.demo import five_node_system, seeded_initial_state, synthetic_county_system
from epiflows.stability import hausdorff_distance
from helpers import (
    PROPERTY_SETTINGS,
    balanced_systems,
    healthy_jacobian_by_blocks,
    leaky_outflows,
    loosely_balanced,
    matched_distance,
    q_and_m_by_blocks,
    random_balanced_network,
    random_irreducible_nonneg,
    random_params,
    random_state,
    traced_peak,
    u_matrix_by_blocks,
)


def isolated_params(beta, sigma, delta, alpha=0.1):
    net = build_network(["solo"], [1000.0], np.zeros((1, 1)))
    params = EpidemicParams(
        alpha=np.array([alpha]), beta=np.array([beta]),
        sigma=np.array([sigma]), delta=np.array([delta]),
    )
    return net, params


class TestUMatrix:
    def test_isolated_node_values(self):
        net, params = isolated_params(beta=0.5, sigma=1.0, delta=1.0)
        assert np.array_equal(u_matrix(params, net), [[-1.0, 0.5], [1.0, -1.0]])

    def test_metzler(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            u = u_matrix(random_params(rng, n), random_balanced_network(rng, n))
            off = u - np.diag(np.diag(u))
            assert off.min() >= 0

    def test_block_assembly_oracle(self, five_node):
        net, params = five_node
        u = u_matrix(params, net)
        n = 5
        for i in range(2 * n):
            for j in range(2 * n):
                bi, bj = divmod(i, n)[0], divmod(j, n)[0]
                ii, jj = i % n, j % n
                if bi == 0 and bj == 0:
                    want = net.coupling[ii, jj] - (
                        (params.sigma[ii] + net.gamma[ii]) if ii == jj else 0.0
                    )
                elif bi == 0 and bj == 1:
                    want = params.beta[ii] if ii == jj else 0.0
                elif bi == 1 and bj == 0:
                    want = params.sigma[ii] if ii == jj else 0.0
                else:
                    want = net.coupling[ii, jj] - (
                        (params.delta[ii] + net.gamma[ii]) if ii == jj else 0.0
                    )
                assert u[i, j] == pytest.approx(want, abs=1e-15)


def block_systems():
    """Random systems of 1, 2 and 5 nodes, one with an isolated node, the
    five-node demo and an 87-node gravity county."""
    rng = np.random.default_rng(30)
    systems = [(random_balanced_network(rng, n), random_params(rng, n)) for n in (1, 2, 5)]
    flows = np.array([[0.0, 4.0, 0.0], [4.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    systems.append((build_network(["a", "b", "c"], [100.0, 200.0, 50.0], flows),
                    random_params(rng, 3)))
    net, params, _ = synthetic_county_system(n=87, seed=1)
    return systems + [five_node_system(), (net, params)]


class TestHealthyBlocks:
    """U, R and J are the paper's blocks, written from one A = Phi - diag(gamma)."""

    def test_jacobian_is_the_block_form(self):
        for net, params in block_systems():
            a, n = net.coupling - np.diag(net.gamma), net.n
            u = u_matrix(params, net)
            assert np.array_equal(u, np.block([
                [a - np.diag(params.sigma), np.diag(params.beta)],
                [np.diag(params.sigma), a - np.diag(params.delta)]]))
            assert np.array_equal(healthy_jacobian(params, net), np.block([
                [u, np.zeros((2 * n, n))],
                [np.zeros((n, n)), np.diag(params.delta), a - np.diag(params.alpha)]]))

    def test_spectrum_is_that_of_u_and_r(self):
        for net, params in block_systems():
            a = net.coupling - np.diag(net.gamma)
            eig_u = np.linalg.eigvals(u_matrix(params, net))
            report = classify_healthy(params, net)
            want = np.concatenate([eig_u, np.linalg.eigvals(a - np.diag(params.alpha))])
            assert np.array_equal(report.jacobian_spectrum, np.sort_complex(want))
            assert report.s_of_U == eig_u.real.max()

    def test_one_transport_product_per_classification(self, five_node):
        """Fails at the parent, which built A^T once for U and once for R."""
        net, params = five_node
        with mock.patch.object(stability, "_transport_t",
                               wraps=stability._transport_t) as spy:
            classify_healthy(params, net)
        assert spy.call_count == 1


class TestClassifyHealthy:
    def test_stable_isolated_node(self):
        net, params = isolated_params(beta=0.5, sigma=1.0, delta=1.0)
        report = classify_healthy(params, net)
        assert report.classification == "Stable"
        assert report.s_of_U == pytest.approx(-1.0 + np.sqrt(0.5), abs=1e-12)

    def test_unstable_isolated_node(self):
        net, params = isolated_params(beta=2.0, sigma=1.0, delta=1.0)
        report = classify_healthy(params, net)
        assert report.classification == "Unstable"
        assert report.s_of_U == pytest.approx(-1.0 + np.sqrt(2.0), abs=1e-12)

    def test_marginal_isolated_node(self):
        net, params = isolated_params(beta=1.0, sigma=1.0, delta=1.0)
        report = classify_healthy(params, net)
        assert report.classification == "Marginal"
        assert abs(report.s_of_U) <= report.marginal_band

    def test_spectrum_matches_jacobian(self, five_node):
        net, params = five_node
        report = classify_healthy(params, net)
        want = np.sort_complex(np.linalg.eigvals(healthy_jacobian(params, net)))
        assert np.allclose(np.sort_complex(report.jacobian_spectrum), want)

    def test_json_round_trip(self, five_node):
        net, params = five_node
        payload = classify_healthy(params, net).to_dict()
        assert payload["classification"] == "Unstable"
        assert all(len(pair) == 2 for pair in payload["jacobian_spectrum"])


class TestSpectralAbscissaCondition:
    def test_trivial_values(self):
        assert spectral_abscissa_condition(np.eye(3), np.zeros((3, 3))) == pytest.approx(-1.0)
        assert spectral_abscissa_condition(np.eye(1), 2.0 * np.eye(1)) == pytest.approx(1.0)

    def test_input_validation(self):
        with pytest.raises(NotDiagonal):
            spectral_abscissa_condition(np.ones((2, 2)), np.zeros((2, 2)))
        with pytest.raises(NotDiagonal):
            spectral_abscissa_condition(np.diag([1.0, 0.0]), np.zeros((2, 2)))
        with pytest.raises(NegativeEntryInM):
            spectral_abscissa_condition(np.eye(2), np.array([[0.0, -1.0], [1.0, 0.0]]))

    def test_sign_equivalence_on_random_instances(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            n = int(rng.integers(2, 11))
            q = np.diag(rng.uniform(0.2, 3.0, n))
            m = random_irreducible_nonneg(rng, n)
            s = spectral_abscissa_condition(q, m)  # internal check runs too
            rho = np.abs(np.linalg.eigvals(np.linalg.inv(q) @ m)).max()
            if abs(s) > 1e-10:
                assert np.sign(s) == np.sign(rho - 1.0)


class TestExistenceIndicator:
    def test_healthy_state_matches_direct_assembly(self, five_node):
        net, params = five_node
        healthy = SystemState.healthy(5)
        traj = integrate(healthy, params, net, t_end=0.0, step=0.1)
        got = endemic_existence_indicator(traj, params, net)
        Q, M = q_and_m_by_blocks(healthy, params, net)
        assert got == pytest.approx(np.linalg.eigvals(M - Q).real.max(), abs=1e-12)

    def test_constant_trajectory_equals_single_state(self, five_node):
        net, params = five_node
        traj = integrate(SystemState.healthy(5), params, net, t_end=1.0, step=0.5)
        single = integrate(SystemState.healthy(5), params, net, t_end=0.0, step=0.5)
        assert endemic_existence_indicator(traj, params, net) == pytest.approx(
            endemic_existence_indicator(single, params, net)
        )

    def test_indicator_pinned_at_zero_by_conservation(self, five_node, five_node_start):
        # the stacked population vector is a positive left null vector of
        # -Q(z)+M(z) at every state (total population is conserved), so the
        # abscissa is exactly zero everywhere; only eigensolver noise remains
        net, params = five_node
        traj = integrate(five_node_start, params, net, t_end=50.0, step=0.5)
        indicator = endemic_existence_indicator(traj, params, net)
        assert abs(indicator) < 1e-12
        v = np.tile(net.populations, 4)
        for k in (0, len(traj) // 2, len(traj) - 1):
            Q, M = q_and_m_by_blocks(traj.state_at(k), params, net)
            assert np.abs(v @ (M - Q)).max() < 1e-9 * v.max()

    def test_leaking_network_raises(self, five_node, five_node_start):
        # a routing column off 1 by 1e-7: only a hand-built network gets here
        net, params = five_node
        leaky = leaky_outflows(net)
        traj = two_state_trajectory(five_node_start, leaky)
        with mock.patch.object(stability, "_eigvals", wraps=stability._eigvals) as eig:
            with pytest.raises(BalanceViolation, match="does not conserve population"):
                endemic_existence_indicator(traj, params, leaky)
        assert eig.call_count == 0

    @pytest.mark.parametrize("n", [87, 1000])
    def test_gravity_counties_close_the_enclosure(self, n):
        # guards against a false raise on the largest networks the bench runs.
        # s(M - Q) lies in [low, high]: the dense spectrum's abscissa at n = 87;
        # at n = 1000, where a dense eigensolve takes over 20 s, the extreme
        # Collatz-Wielandt ratios of the dense matrix for the stacked populations
        net, params, origin = synthetic_county_system(n=n, seed=1)
        state = seeded_initial_state(n, origin, 1e-3)
        with mock.patch.object(stability, "_eigvals", wraps=stability._eigvals) as eig:
            got = endemic_existence_indicator(two_state_trajectory(state, net), params, net)
        assert eig.call_count == 0
        Q, M = q_and_m_by_blocks(state, params, net)
        M -= Q
        if n < 1000:
            low = high = np.linalg.eigvals(M).real.max()
        else:
            v = np.tile(net.populations, 4)
            ratios = v @ M / v
            low, high = ratios.min(), ratios.max()
        assert max(high - got, got - low) <= 1e-12


class TestSolveEndemic:
    def test_rejects_healthy_init(self, five_node):
        net, params = five_node
        with pytest.raises(InvalidState):
            solve_endemic(params, net, init=SystemState.healthy(5))

    def test_benchmark_fixed_point(self, five_node):
        net, params = five_node
        sol = solve_endemic(params, net, tolerance=1e-10)
        assert sol.residual < 1e-10
        m = sol.state.as_matrix()
        assert m.min() > 1e-12
        drift = np.abs(np.stack(derivative(sol.state, params, net))).max()
        assert drift < 1e-9
        # abscissa of -Q+M vanishes at the fixed point itself
        assert abs(sol.existence_indicator) < 1e-10

    def test_multistart_agreement(self, five_node):
        net, params = five_node
        assert uniqueness_condition(params, net)
        rng = np.random.default_rng(21)
        reference = solve_endemic(params, net, tolerance=1e-12).state.as_matrix()
        for _ in range(20):
            raw = rng.uniform(0.01, 1.0, (4, 5))
            init = SystemState.from_matrix(raw / raw.sum(axis=0))
            sol = solve_endemic(params, net, init=init, tolerance=1e-12)
            assert np.abs(sol.state.as_matrix() - reference).max() < 1e-8

    @pytest.mark.parametrize("options", [
        {"tolerance": -1.0}, {"tolerance": 0.0}, {"tolerance": np.nan},
        {"tolerance": np.inf}, {"max_iterations": 0}, {"max_iterations": -5},
    ])
    def test_bad_options_rejected(self, five_node, options):
        net, params = five_node
        with pytest.raises(ValidationError):
            solve_endemic(params, net, **options)

    def test_disconnected_network_rejected(self):
        flows = np.zeros((3, 3))
        flows[1, 0] = flows[0, 1] = 2.0
        net = build_network(["a", "b", "c"], [10.0, 10.0, 10.0], flows)
        rng = np.random.default_rng(1)
        with pytest.raises(NotIrreducible):
            solve_endemic(random_params(rng, 3), net)


class TestUniqueness:
    def test_boundary_included(self):
        rng = np.random.default_rng(2)
        net = random_balanced_network(rng, 3)
        params = EpidemicParams(
            alpha=np.full(3, 0.1), beta=net.gamma.copy(),
            sigma=np.full(3, 0.2), delta=np.full(3, 0.3),
        )
        assert uniqueness_condition(params, net)
        smaller = EpidemicParams(
            alpha=params.alpha, beta=params.beta * 0.99,
            sigma=params.sigma, delta=params.delta,
        )
        assert not uniqueness_condition(smaller, net)

    def test_benchmark_satisfies_condition(self, five_node):
        net, params = five_node
        assert uniqueness_condition(params, net)


class TestEigenvalueDrift:
    def test_zero_theta_zero_drift(self, five_node):
        net, params = five_node
        assert eigenvalue_drift_under_perturbation(params, net, np.zeros(5)) == 0.0

    def test_matches_independent_hausdorff(self, five_node):
        from epiflows import perturb_flows_balanced

        net, params = five_node
        theta = 0.25 * net.gamma
        drift = eigenvalue_drift_under_perturbation(params, net, theta)
        e0 = np.linalg.eigvals(healthy_jacobian(params, net))
        e1 = np.linalg.eigvals(
            healthy_jacobian(params, perturb_flows_balanced(net, theta))
        )
        want = max(
            max(min(abs(a - b) for b in e1) for a in e0),
            max(min(abs(a - b) for b in e0) for a in e1),
        )
        assert drift == pytest.approx(want, rel=1e-9)

    def test_unbalanced_theta_rejected(self, five_node):
        net, params = five_node
        theta = 0.1 * net.gamma
        theta[2] += 1e-3
        with pytest.raises(PerturbationUnbalanced):
            eigenvalue_drift_under_perturbation(params, net, theta)

    def test_degenerate_spectrum_rejected(self):
        # two identical isolated nodes: the Jacobian is two copies of one
        # block, so every eigenvalue is doubled
        net = build_network(["a", "b"], [100.0, 100.0], np.zeros((2, 2)))
        params = EpidemicParams(
            alpha=np.array([0.25, 0.25]), beta=np.array([0.4, 0.4]),
            sigma=np.array([0.2, 0.2]), delta=np.array([0.3, 0.3]),
        )
        with pytest.raises(DegenerateSpectrum):
            eigenvalue_drift_under_perturbation(params, net, np.zeros(2))
        # checked before theta, which perturb_flows_balanced would reject
        theta = np.array([np.nan, np.inf])
        with pytest.raises(ValidationError):
            perturb_flows_balanced(net, theta)
        with pytest.raises(DegenerateSpectrum):
            eigenvalue_drift_under_perturbation(params, net, theta)

    def test_classification_survives_permissible_perturbations(self):
        # the sign of s(U) does not flip in these trials, but that is no law:
        # TestTravelScaling shows it exactly invariant for equal rates and
        # flipped for unequal ones, which this generator does not reach (the
        # full spectrum does move; see the acceptance suite for the stricter,
        # currently unattainable drift bound)
        rng = np.random.default_rng(33)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            net = random_balanced_network(rng, n)
            params = random_params(rng, n)
            before = classify_healthy(params, net).classification
            theta = float(rng.uniform(-0.9, 1.0)) * net.gamma
            from epiflows import perturb_flows_balanced

            after = classify_healthy(params, perturb_flows_balanced(net, theta))
            if before != "Marginal" and after.classification != "Marginal":
                assert after.classification == before


class TestTravelScaling:
    """On a strongly connected network the balance identity allows only
    theta = c * gamma, which scales all travel by 1 + c."""

    def test_equal_rates_keep_s_of_u(self):
        # with the same rates at every node U = I_2 (x) (Phi - Gamma) + R (x) I,
        # and Phi - Gamma has abscissa 0 with left vector N, so s(U) = s(R)
        # for the 2 x 2 rate block R whatever c is; the same networks with
        # rates drawn per node do move it
        rng = np.random.default_rng(5)
        for _ in range(20):
            net = random_balanced_network(rng, 6)
            a, b, s, d = rng.uniform(0.05, 1.0, 4)
            equal = EpidemicParams(alpha=np.full(6, a), beta=np.full(6, b),
                                   sigma=np.full(6, s), delta=np.full(6, d))
            unequal = random_params(rng, 6)
            block = stability.spectral_abscissa(np.array([[-s, b], [s, -d]]))
            for c in (-0.9, 0.5, 5.0):
                scaled = perturb_flows_balanced(net, c * net.gamma)

                def move(params):
                    return abs(classify_healthy(params, scaled).s_of_U
                               - classify_healthy(params, net).s_of_U)

                assert abs(classify_healthy(equal, scaled).s_of_U - block) <= 1e-12
                assert move(equal) <= 1e-12
                assert move(unequal) > 1e-6

    @pytest.mark.parametrize("flow, c, before, after", [
        (0.0398, 0.5, (0.010136, "Unstable"), (-0.003755, "Stable")),
        (0.1, -0.5, (-0.025951, "Stable"), (0.002745, "Unstable")),
    ])
    def test_unequal_rates_can_flip_the_classification(self, flow, c, before, after):
        # more travel roughly averages the two nodes' growth rates, so
        # scaling it can move s(U) across zero
        net = build_network(["a", "b"], [1.0, 1.0], [[0.0, flow], [flow, 0.0]])
        params = EpidemicParams(alpha=np.full(2, 0.05), beta=np.array([0.3, 0.05]),
                                sigma=np.full(2, 0.2), delta=np.array([0.2, 1.0]))
        scaled = perturb_flows_balanced(net, c * net.gamma)
        for network, (s_of_u, label) in ((net, before), (scaled, after)):
            report = classify_healthy(params, network)
            assert report.s_of_U == pytest.approx(s_of_u, abs=1e-6)
            assert report.classification == label


def all_pairs_gaps(a, b):
    return np.abs(np.reshape(a, (-1, 1)) - np.reshape(b, (1, -1)))


class TestHausdorff:
    def test_symmetry_and_zero(self):
        a = np.array([1.0 + 1j, 2.0])
        assert hausdorff_distance(a, a) == 0.0
        b = np.array([1.0 + 1j, 2.5])
        assert hausdorff_distance(a, b) == pytest.approx(0.5)
        assert hausdorff_distance(b, a) == pytest.approx(0.5)

    @pytest.mark.parametrize("block_bytes", [1, 200, None])
    def test_blocks_match_all_pairs_bit_for_bit(self, monkeypatch, block_bytes):
        # one row per block, a few rows per block, and the default; rounded
        # points give ties, and sizes of 1 give single points. The parent
        # had no _nearest_gaps, so this fails there on the name alone
        if block_bytes is not None:
            monkeypatch.setattr(stability, "_GAP_BLOCK_BYTES", block_bytes)
        rng = np.random.default_rng(31)
        pairs = [tuple(np.round(rng.normal(size=k) + 1j * rng.normal(size=k), 1)
                       for k in rng.integers(1, 40, size=2)) for _ in range(60)]
        pairs += [(np.array([0.5j]), np.array([0.5j, 0.5j, 1.0])), (np.array([2.0]),) * 2]
        for a, b in pairs:
            gaps = all_pairs_gaps(a, b)
            want = max(gaps.min(axis=1).max(), gaps.min(axis=0).max())
            assert hausdorff_distance(a, b) == want
            gaps = all_pairs_gaps(a, a)
            np.fill_diagonal(gaps, np.inf)
            assert stability._nearest_gaps(a, a, skip_self=True).min() == gaps.min()

    def test_empty_sets_raise_as_numpy_does(self):
        for a, b in (([], [1.0]), ([1.0], []), ([], [])):
            with pytest.raises(ValueError):
                hausdorff_distance(np.array(a), np.array(b))

    def test_drift_holds_no_all_pairs_matrix(self):
        """The drift's traced peak is the classification's plus two gap
        blocks. Fails at the parent, whose 3n x 3n complex gap matrices took
        the peak at n = 300 to 25.9 MB against 3.6 MB for a classification."""
        net, params, _ = synthetic_county_system(n=300, seed=1)
        _, classify_peak = traced_peak(lambda: classify_healthy(params, net))
        _, drift_peak = traced_peak(
            lambda: eigenvalue_drift_under_perturbation(params, net, 0.1 * net.gamma))
        assert drift_peak < classify_peak + 2 * stability._GAP_BLOCK_BYTES


def two_state_trajectory(state, network):
    data = np.stack([state.as_matrix(), SystemState.healthy(network.n).as_matrix()])
    return Trajectory(times=np.arange(2.0), data=data, schedule=NetworkSchedule.static(network))


def dense_indicator(trajectory, params, network):
    return min(
        np.linalg.eigvals(M - Q).real.max()
        for Q, M in (q_and_m_by_blocks(trajectory.state_at(k), params, network)
                     for k in range(len(trajectory)))
    )


class TestDenseBuilders:
    @PROPERTY_SETTINGS
    @given(balanced_systems())
    def test_match_block_assemblies(self, system):
        (net,), params, _ = system
        pairs = [
            (u_matrix(params, net), u_matrix_by_blocks(params, net)),
            (healthy_jacobian(params, net), healthy_jacobian_by_blocks(params, net)),
        ]
        for got, want in pairs:
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-13


class TestSpectrumProperties:
    @PROPERTY_SETTINGS
    @given(balanced_systems(), st.floats(-0.9, 1.0, exclude_min=True, exclude_max=True))
    def test_shared_rates_keep_the_class_under_travel_scaling(self, system, c):
        # with one rate set at every node s(U) = s(R) whatever c is (see
        # TestTravelScaling::test_equal_rates_keep_s_of_u); with rates drawn
        # per node the class can flip (test_unequal_rates_can_flip_...)
        (net,), params, _ = system
        shared = EpidemicParams(**{name: np.full(net.n, getattr(params, name)[0])
                                   for name in ("alpha", "beta", "sigma", "delta")})
        before = classify_healthy(shared, net)
        after = classify_healthy(shared, perturb_flows_balanced(net, c * net.gamma))
        assert after.classification == before.classification
        assert abs(after.s_of_U - before.s_of_U) <= 1e-12

    @PROPERTY_SETTINGS
    @given(balanced_systems())
    def test_block_split_spectrum_matches_dense_jacobian(self, system):
        (net,), params, _ = system
        jacobian = healthy_jacobian_by_blocks(params, net)
        want = np.linalg.eigvals(jacobian)
        got = classify_healthy(params, net).jacobian_spectrum
        assert got.shape == want.shape
        assert np.array_equal(got, np.sort_complex(got))
        assert matched_distance(got, want) <= 1e-12 * max(1.0, np.abs(jacobian).max())

    @PROPERTY_SETTINGS
    @given(balanced_systems(), st.integers(0, 2**32 - 1))
    def test_indicator_is_the_networks_conservation_gap(self, system, seed):
        # the cycle matrix's columns sum to 0, so the rates drop out of
        # v^T (M - Q) for the stacked populations v: one closed enclosure
        # for every state and rate vector of a conserving network
        (net,), params, state = system
        rng = np.random.default_rng(seed)
        traj = two_state_trajectory(state, net)
        with mock.patch.object(stability, "_eigvals", wraps=stability._eigvals) as eig:
            got = endemic_existence_indicator(traj, params, net)
            other = endemic_existence_indicator(
                two_state_trajectory(random_state(rng, net.n), net), random_params(rng, net.n), net
            )
        assert eig.call_count == 0
        assert other == got
        assert abs(got - dense_indicator(traj, params, net)) <= 1e-12

    @PROPERTY_SETTINGS
    @given(balanced_systems(), st.integers(0, 2**32 - 1))
    def test_indicator_matches_dense_on_loosely_balanced_flows(self, system, seed):
        # build_network derives gamma and the coupling from the same flows,
        # so the stacked populations stay a left null vector of M - Q even
        # when node balance holds only to 1e-7: the enclosure closes
        (net,), params, state = system
        loose = loosely_balanced(net, np.random.default_rng(seed))
        traj = two_state_trajectory(state, loose)
        with mock.patch.object(stability, "_eigvals", wraps=stability._eigvals) as eig:
            got = endemic_existence_indicator(traj, params, loose)
        assert eig.call_count == 0
        assert abs(got - dense_indicator(traj, params, loose)) <= 1e-12


class TestStabilityInputs:
    @pytest.mark.parametrize("band", [np.nan, np.inf])
    def test_non_finite_marginal_band_rejected(self, five_node, band):
        net, params = five_node
        with pytest.raises(ValidationError):
            classify_healthy(params, net, marginal_band=band)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_theta_rejected(self, five_node, bad):
        net, params = five_node
        theta = 0.1 * net.gamma
        theta[1] = bad
        with pytest.raises(ValidationError):
            perturb_flows_balanced(net, theta)
        with pytest.raises(ValidationError):
            eigenvalue_drift_under_perturbation(params, net, theta)

    def test_indicator_rejects_trajectory_of_other_size(self, five_node):
        net, params = five_node
        rng = np.random.default_rng(4)
        other = random_balanced_network(rng, 4)
        traj = integrate(SystemState.healthy(4), random_params(rng, 4), other,
                         t_end=1.0, step=0.5)
        with pytest.raises(DimensionMismatch):
            endemic_existence_indicator(traj, params, net)

    def test_indicator_rejects_states_off_the_simplex(self, five_node, five_node_start):
        net, params = five_node
        traj = two_state_trajectory(five_node_start, net)
        traj.data[1, 2, 0] = -0.5
        with pytest.raises(InvalidState):
            endemic_existence_indicator(traj, params, net)
