import numpy as np
import pytest
import scipy.linalg

from lqmfg import (
    ModelParams,
    PolicyPair,
    exact_gradient,
    exact_utility,
    nash_policy,
    solve_dev_value,
    solve_riccati,
)
from lqmfg.errors import NonStabilizingSolution
from lqmfg.riccati import RiccatiSolution

from best_response_reference import (
    IndefiniteInnerProblem,
    best_response_K1,
    best_response_K2,
    best_response_L1,
    best_response_L2,
)
from conftest import (
    K1_ORACLE,
    K2_ORACLE,
    L1_ORACLE,
    L2_ORACLE,
    P_DEV_ORACLE,
    P_MEAN_ORACLE,
    benchmark_scalars,
    digest,
    game_are_oracle,
    perfbench_game,
    random_game,
)
from gradient_root_reference import DegenerateProblem, NoRoot, nash_via_gradient_root


def discounted_dare_oracle(A, B, Q, R, gamma):
    """One-player discounted LQ solution via the sqrt(gamma) rescaling of
    the standard discrete Riccati equation (independent solver path)."""
    s = np.sqrt(gamma)
    S = scipy.linalg.solve_discrete_are(s * A, s * B, Q, R)
    K = gamma * np.linalg.solve(R + gamma * B.T @ S @ B, B.T @ S @ A)
    return S, K


class TestSolveRiccati:
    def test_matches_quadratic_roots(self, model):
        sol = solve_riccati(model)
        assert sol.P_dev[0, 0] == pytest.approx(P_DEV_ORACLE, abs=1e-8)
        assert sol.P_mean[0, 0] == pytest.approx(P_MEAN_ORACLE, abs=1e-8)
        assert sol.residual_dev <= 1e-12
        assert sol.residual_mean <= 1e-12
        # Python floats, which benchmark.json writes as they are
        assert type(sol.residual_dev) is float and type(sol.residual_mean) is float

    def test_solution_is_a_dev_mean_stack(self, model_2d):
        """P and the residuals are (dev, mean) stacks; the named fields are
        read-only views of their slices."""
        sol = solve_riccati(model_2d)
        assert sol.P.shape == (2, 2, 2) and sol.residual.shape == (2,)
        assert np.shares_memory(sol.P_dev, sol.P) and np.shares_memory(sol.P_mean, sol.P)
        np.testing.assert_array_equal(sol.P_mean, sol.P[1])
        assert (sol.residual_dev, sol.residual_mean) == tuple(sol.residual)
        for name in ("P_dev", "P_mean", "residual_dev", "residual_mean"):
            with pytest.raises(AttributeError):
                setattr(sol, name, 0.0)

    def test_scalar_solution_to_rounding(self, model):
        """P and the gains within 1e-13 relative of the closed-form roots."""
        sol = solve_riccati(model)
        theta = nash_policy(model, sol)
        for got, want in ((sol.P_dev, P_DEV_ORACLE), (sol.P_mean, P_MEAN_ORACLE),
                          (theta.K1, K1_ORACLE), (theta.K2, K2_ORACLE),
                          (theta.L1, L1_ORACLE), (theta.L2, L2_ORACLE)):
            assert abs(got[0, 0] - want) <= 1e-13 * abs(want)

    @pytest.mark.parametrize("kind, d, ell", [
        ("conftest", 2, 1), ("conftest", 3, 2), ("conftest", 4, 2), ("conftest", 8, 3),
        ("perfbench", 16, 4), ("perfbench", 48, 4), ("perfbench", 64, 4)])
    def test_nash_gains_match_game_are(self, kind, d, ell):
        """Within 1e-12 on the conftest games (measured <= 4.7e-16), 1e-10 on
        the larger perfbench games."""
        m = random_game(d, ell) if kind == "conftest" else perfbench_game(d, ell)
        theta = nash_policy(m, solve_riccati(m))
        np.testing.assert_allclose(theta.stack, game_are_oracle(m), rtol=0.0,
                                   atol=1e-12 if kind == "conftest" else 1e-10)

    @pytest.mark.parametrize("d, ell", [(16, 4), (32, 4)])
    def test_no_stabilizing_solution_is_named(self, d, ell):
        """scipy finds no stabilizing solution of one block of these games."""
        with pytest.raises(NonStabilizingSolution):
            solve_riccati(random_game(d, ell))

    def test_zero_state_weight_gives_zero(self):
        m = ModelParams(**benchmark_scalars(Q=0.0, Q_bar=0.0))
        sol = solve_riccati(m)
        assert sol.P_dev[0, 0] == pytest.approx(0.0, abs=1e-13)
        assert sol.P_mean[0, 0] == pytest.approx(0.0, abs=1e-13)

    def test_single_controller_reduction_vs_dare(self):
        """Without the second player the deviation game is a plain
        discounted LQ problem; gains and value must match the independent
        discrete-Riccati solution."""
        m = ModelParams(**benchmark_scalars(B2=0.0, B2_bar=0.0))
        sol = solve_riccati(m)
        theta = nash_policy(m, sol)
        S, K = discounted_dare_oracle(m.A, m.B1, m.Q, m.R1, m.gamma)
        np.testing.assert_allclose(theta.K1, K, atol=1e-8)
        np.testing.assert_allclose(theta.K2, 0.0, atol=1e-12)
        # the induced policy-evaluation matrix is the one-player value
        np.testing.assert_allclose(solve_dev_value(m, theta.K1, theta.K2), S,
                                   atol=1e-8)

    def test_divergent_model_reports_no_convergence(self):
        m = ModelParams(**benchmark_scalars(
            A=2.0, A_bar=0.0, B1=0.01, B1_bar=0.0, B2=0.01, B2_bar=0.0,
            Q=1.0, Q_bar=0.0))
        with pytest.raises(NonStabilizingSolution):
            solve_riccati(m)


    @pytest.mark.parametrize("key, value", [
        ("Q", 1e308),      # X = Q is finite, P = 2 g X (A - B F) is not
        ("Q_bar", 1e308),  # the same in the mean block alone
        ("B1", 1e200),     # G = g B R^-1 B' overflows
        ("B2", 1e200),
    ])
    def test_overflowing_equilibrium_is_named(self, key, value):
        """The overflow is named before the residual's norm can fail on it,
        with no warning."""
        m = ModelParams(**benchmark_scalars(**{key: value}))
        with pytest.raises(NonStabilizingSolution, match="overflows the floating-point range"):
            solve_riccati(m)


class TestNashPolicy:
    def test_benchmark_gains(self, model):
        theta = nash_policy(model, solve_riccati(model))
        assert theta.K1[0, 0] == pytest.approx(K1_ORACLE, abs=1e-8)
        assert theta.K2[0, 0] == pytest.approx(K2_ORACLE, abs=1e-8)
        assert theta.L1[0, 0] == pytest.approx(L1_ORACLE, abs=1e-8)
        assert theta.L2[0, 0] == pytest.approx(L2_ORACLE, abs=1e-8)

    def test_zero_value_matrices(self, model):
        sol = RiccatiSolution(P=np.zeros((2, 1, 1)), residual=np.zeros(2), iterations=0)
        theta = nash_policy(model, sol)
        for name in ("K1", "L1", "K2", "L2"):
            assert getattr(theta, name)[0, 0] == 0.0

    def test_symmetric_players(self):
        m = ModelParams(**benchmark_scalars(B2=0.4, B2_bar=0.4))
        theta = nash_policy(m, solve_riccati(m))
        np.testing.assert_allclose(theta.K1, theta.K2, atol=1e-12)
        np.testing.assert_allclose(theta.L1, theta.L2, atol=1e-12)

    def test_stationarity(self, model):
        theta = nash_policy(model, solve_riccati(model))
        assert exact_gradient(model, theta).max_abs() <= 1e-6


NASH_DIGESTS = {
    ("conftest", 3, 2): "4c3a370e5450a17c550870dcde7f9584589f6cedd3c6d40bba2ac97a87800160",
    ("conftest", 8, 3): "1881576fba5013bd2c2b1a3b07ff604b1b365e1d30ed6ae569b6e73b344ba0c7",
    ("perfbench", 16, 4): "1e47ee9518c66f92acc6b459b5c56a30b36b65f95004b459afcd248900ddc49d",
}


class TestPinnedBits:
    """The equilibrium gains `nash_policy(m, solve_riccati(m)).stack` pinned
    bit for bit (sha256 of the float64 bytes) on three random games. Every
    run reports against these gains (`benchmark.json`, `summary.json`), so a
    change to how the gains are solved from P must leave these digests
    unchanged."""

    @pytest.mark.parametrize("case", sorted(NASH_DIGESTS), ids=str)
    def test_nash_gains(self, case):
        kind, d, ell = case
        m = random_game(d, ell) if kind == "conftest" else perfbench_game(d, ell)
        assert digest(nash_policy(m, solve_riccati(m)).stack) == NASH_DIGESTS[case]


class TestBestResponse:
    def test_equilibrium_is_fixed_point(self, model):
        theta = nash_policy(model, solve_riccati(model))
        np.testing.assert_allclose(best_response_K1(model, theta.K2), theta.K1,
                                   atol=1e-6)
        np.testing.assert_allclose(best_response_K2(model, theta.K1), theta.K2,
                                   atol=1e-6)
        np.testing.assert_allclose(best_response_L1(model, theta.L2), theta.L1,
                                   atol=1e-6)
        np.testing.assert_allclose(best_response_L2(model, theta.L1), theta.L2,
                                   atol=1e-6)

    @pytest.mark.parametrize("k2", [-0.3, 0.0, 0.2, 0.5])
    def test_zeroes_own_gradient_block(self, model, k2):
        K2 = np.array([[k2]])
        K1 = best_response_K1(model, K2)
        theta = PolicyPair(K1=K1, L1=np.zeros((1, 1)), K2=K2, L2=np.zeros((1, 1)))
        grad = exact_gradient(model, theta)
        assert abs(grad.dK1[0, 0]) <= 1e-8

    @pytest.mark.parametrize("delta", [1e-3, -1e-3])
    def test_perturbation_increases_cost(self, model, delta):
        K2 = np.array([[0.2]])
        K1 = best_response_K1(model, K2)
        base = PolicyPair(K1=K1, L1=np.zeros((1, 1)), K2=K2, L2=np.zeros((1, 1)))
        bumped = PolicyPair(K1=K1 + delta, L1=base.L1, K2=K2, L2=base.L2)
        assert exact_utility(model, bumped).cost_dev > \
            exact_utility(model, base).cost_dev

    def test_one_player_oracle_without_opponent_authority(self):
        """With B2 = 0 the response is the plain discounted LQ gain for the
        effective weight Q - K2'R2 K2 (the opponent still enters the cost,
        so the response is not literally K2-free)."""
        m = ModelParams(**benchmark_scalars(B2=0.0, B2_bar=0.0))
        for k2 in (0.0, 0.5):
            br = best_response_K1(m, np.array([[k2]]))
            Q_eff = m.Q - k2 * m.R2 * k2
            _, K = discounted_dare_oracle(m.A, m.B1, Q_eff, m.R1, m.gamma)
            np.testing.assert_allclose(br, K, atol=1e-8)

    def test_nothing_to_regulate(self):
        m = ModelParams(**benchmark_scalars(A=0.0, Q=0.0))
        K1 = best_response_K1(m, np.zeros((1, 1)))
        assert K1[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_indefinite_inner_problem(self, model):
        with pytest.raises(IndefiniteInnerProblem):
            best_response_K1(model, np.array([[5.0]]))

    @pytest.mark.parametrize("response, frozen", [
        ("L2", -6.0), ("L2", -2.0), ("L2", 0.0), ("K2", -2.0), ("K2", 0.0)])
    def test_maximizer_response_is_stationary_or_named(self, model, response, frozen):
        """The maximizer's response zeroes its own gradient block, or no
        stabilizing response with concave curvature exists."""
        best = best_response_L2 if response == "L2" else best_response_K2
        opponent = "L1" if response == "L2" else "K1"
        try:
            gain = best(model, np.array([[frozen]]))
        except IndefiniteInnerProblem:
            return
        gains = dict.fromkeys(("K1", "L1", "K2", "L2"), np.zeros((1, 1)))
        gains.update({response: gain, opponent: np.array([[frozen]])})
        grad = exact_gradient(model, PolicyPair(**gains))
        assert abs(getattr(grad, "d" + response)[0, 0]) <= 1e-8


class TestGradientRoot:
    def test_agrees_with_riccati_path(self, model):
        theta_root = nash_via_gradient_root(model)
        theta_ric = nash_policy(model, solve_riccati(model))
        for name in ("K1", "L1", "K2", "L2"):
            assert getattr(theta_root, name)[0, 0] == pytest.approx(
                getattr(theta_ric, name)[0, 0], abs=1e-6)

    def test_degenerate_second_player(self):
        m = ModelParams(**benchmark_scalars(B2=0.0, B2_bar=0.0))
        with pytest.raises(DegenerateProblem):
            nash_via_gradient_root(m)

    def test_symmetric_players(self):
        m = ModelParams(**benchmark_scalars(B2=0.4, B2_bar=0.4))
        theta_root = nash_via_gradient_root(m)
        theta_ric = nash_policy(m, solve_riccati(m))
        np.testing.assert_allclose(theta_root.K2, theta_ric.K2, atol=1e-6)
        np.testing.assert_allclose(theta_root.K1, theta_root.K2, atol=1e-6)

    def test_rejects_matrix_models(self, model_2d):
        with pytest.raises(NoRoot):
            nash_via_gradient_root(model_2d)


class TestMatrixCase:
    def test_2d_riccati_residual_and_stationarity(self, model_2d):
        sol = solve_riccati(model_2d)
        assert sol.residual_dev <= 1e-12
        assert sol.residual_mean <= 1e-12
        theta = nash_policy(model_2d, sol)
        assert exact_gradient(model_2d, theta).max_abs() <= 1e-6
