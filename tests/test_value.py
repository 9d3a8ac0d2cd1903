import numpy as np
import pytest

from lqmfg import (
    Distribution,
    ModelParams,
    NoiseSpec,
    PolicyPair,
    discounted_second_moment,
    exact_gradient,
    exact_utility,
    nash_policy,
    solve_dev_value,
    solve_mean_value,
    solve_riccati,
    validate,
)
from lqmfg.errors import NotStabilizing
from lqmfg.model import dev_closed_loop, mean_closed_loop

from conftest import benchmark_scalars


def series_value_oracle(M, S, gamma, T=500):
    """Brute-force truncation of sum_t gamma^t (M')^t S M^t."""
    total = np.zeros_like(S)
    term = S.copy()
    for _ in range(T):
        total = total + term
        term = gamma * M.T @ term @ M
    return total


def random_stabilizing_policy(model, rng, scale=0.35):
    """Rejection-sample a gain quadruple inside the stabilizing set."""
    from lqmfg import in_stabilizing_set

    ell, d = model.ell, model.d
    for _ in range(1000):
        theta = PolicyPair(*(rng.normal(0.0, scale, (ell, d)) for _ in range(4)))
        if in_stabilizing_set(model, theta):
            return theta
    raise AssertionError("could not sample a stabilizing policy")


class TestDevValue:
    def test_scalar_closed_form_at_zero(self, model):
        # geometric series: Q / (1 - gamma A^2) = 0.4 / 0.856
        P = solve_dev_value(model, np.zeros((1, 1)), np.zeros((1, 1)))
        assert P[0, 0] == pytest.approx(0.4 / 0.856, abs=1e-12)

    def test_zero_source(self, model):
        m = ModelParams.from_scalars(**benchmark_scalars(Q=0.0))
        P = solve_dev_value(m, np.zeros((1, 1)), np.zeros((1, 1)))
        assert P[0, 0] == pytest.approx(0.0, abs=1e-14)

    def test_matches_series_oracle_at_equilibrium(self, model):
        theta = nash_policy(model, solve_riccati(model))
        P = solve_dev_value(model, theta.K1, theta.K2)
        M = dev_closed_loop(model, theta.K1, theta.K2)
        S = (model.Q + theta.K1.T @ model.R1 @ theta.K1
             - theta.K2.T @ model.R2 @ theta.K2)
        np.testing.assert_allclose(P, series_value_oracle(M, S, model.gamma),
                                   atol=1e-9)

    def test_matches_series_oracle_2d(self, model_2d):
        rng = np.random.default_rng(3)
        theta = random_stabilizing_policy(model_2d, rng, scale=0.2)
        P = solve_dev_value(model_2d, theta.K1, theta.K2)
        M = dev_closed_loop(model_2d, theta.K1, theta.K2)
        S = (model_2d.Q + theta.K1.T @ model_2d.R1 @ theta.K1
             - theta.K2.T @ model_2d.R2 @ theta.K2)
        np.testing.assert_allclose(P, series_value_oracle(M, S, model_2d.gamma),
                                   atol=1e-9)

    def test_rejects_unstable_gains(self, model):
        with pytest.raises(NotStabilizing):
            solve_dev_value(model, np.zeros((1, 1)), np.array([[10.0]]))


class TestMeanValue:
    def test_scalar_closed_form_at_zero(self, model):
        P = solve_mean_value(model, np.zeros((1, 1)), np.zeros((1, 1)))
        assert P[0, 0] == pytest.approx(0.8 / 0.424, abs=1e-12)

    def test_zero_source(self):
        m = ModelParams.from_scalars(**benchmark_scalars(Q=0.0, Q_bar=0.0))
        P = solve_mean_value(m, np.zeros((1, 1)), np.zeros((1, 1)))
        assert P[0, 0] == pytest.approx(0.0, abs=1e-14)

    def test_matches_series_oracle_at_equilibrium(self, model):
        theta = nash_policy(model, solve_riccati(model))
        der = validate(model)
        P = solve_mean_value(model, theta.L1, theta.L2, der)
        M = mean_closed_loop(model, theta.L1, theta.L2, der)
        S = (der.Q_tilde + theta.L1.T @ der.R1_tilde @ theta.L1
             - theta.L2.T @ der.R2_tilde @ theta.L2)
        np.testing.assert_allclose(P, series_value_oracle(M, S, model.gamma),
                                   atol=1e-9)


class TestDiscountedSecondMoment:
    def test_one_step_decay(self):
        V0 = np.array([[2.0]])
        out = discounted_second_moment(np.zeros((1, 1)), V0, np.zeros((1, 1)), 0.9)
        np.testing.assert_allclose(out, V0, atol=1e-14)

    def test_iid_noise_accumulation(self):
        out = discounted_second_moment(np.zeros((1, 1)), np.zeros((1, 1)),
                                       np.array([[0.01]]), 0.9)
        assert out[0, 0] == pytest.approx(0.09, abs=1e-14)

    def test_scalar_closed_form(self):
        # (V0 + gamma W / (1-gamma)) / (1 - gamma M^2)
        out = discounted_second_moment(np.array([[0.4]]), np.array([[1 / 3]]),
                                       np.array([[0.01]]), 0.9)
        assert out[0, 0] == pytest.approx((1 / 3 + 0.09) / 0.856, abs=1e-12)

    def test_residual_identity_random(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            d = rng.integers(1, 4)
            M = rng.normal(0, 1, (d, d))
            M *= 0.9 / (np.sqrt(0.9) * np.linalg.norm(M, 2))  # gamma ||M||^2 < 1
            base = rng.normal(0, 1, (d, d))
            V0 = base @ base.T
            W = 0.05 * np.eye(d)
            S = discounted_second_moment(M, V0, W, 0.9)
            resid = S - V0 - 0.9 * M @ S @ M.T - 9.0 * W
            assert np.linalg.norm(resid) <= 1e-10 * (1 + np.linalg.norm(S))

    @pytest.mark.parametrize("d", [1, 2, 16, 33, 40, 64])
    def test_series_branch_matches_scipy(self, d):
        # the doubling kernel serves every dimension; scipy is the oracle
        from scipy.linalg import solve_discrete_lyapunov

        rng = np.random.default_rng(d)
        G = rng.standard_normal((d, d))
        M = 0.9 * G / np.linalg.norm(G, 2)
        base = rng.standard_normal((d, d))
        V0 = base @ base.T / d
        W = 0.01 * np.eye(d)
        got = discounted_second_moment(M, V0, W, 0.9)
        want = solve_discrete_lyapunov(np.sqrt(0.9) * M, V0 + 0.9 / (1 - 0.9) * W)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    def test_near_boundary_scalar(self):
        # gamma m^2 = 1 - 1e-9: about 36 doublings, and the closed form has
        # condition number 1e9, so agreement is limited to ~1e-7
        m = np.sqrt((1.0 - 1e-9) / 0.9)
        out = discounted_second_moment(np.array([[m]]), np.array([[2.0]]),
                                       np.zeros((1, 1)), 0.9)
        assert out[0, 0] == pytest.approx(2.0 / (1.0 - 0.9 * m * m), rel=1e-6)

    def test_rejects_unstable(self):
        with pytest.raises(NotStabilizing):
            discounted_second_moment(np.array([[1.2]]), np.eye(1), np.eye(1), 0.9)

    def test_rejects_non_finite(self):
        from lqmfg.value import _dlyap

        nan = np.array([[np.nan]])
        with pytest.raises(NotStabilizing):
            discounted_second_moment(nan, np.eye(1), np.eye(1), 0.9)
        with pytest.raises(NotStabilizing):  # the doubling cap, past the gate
            _dlyap(nan, np.eye(1), 0.9)


class TestExactUtility:
    def test_benchmark_at_zero_policy(self, model):
        sol = exact_utility(model, PolicyPair.zero())
        P_dev = 0.4 / 0.856
        P_mean = 0.8 / 0.424
        assert sol.cost_dev == pytest.approx(P_dev * (1 / 3 + 0.09), abs=1e-12)
        assert sol.cost_mean == pytest.approx(P_mean * (1 / 3 + 0.09), abs=1e-12)
        assert sol.cost == pytest.approx(0.99656, abs=5e-6)

    def test_zero_noise_zero_cost(self, zero_noise_model):
        theta = nash_policy(zero_noise_model, solve_riccati(zero_noise_model))
        assert exact_utility(zero_noise_model, theta).cost == pytest.approx(0.0, abs=1e-15)

    def test_decomposition_is_bitwise(self, model):
        rng = np.random.default_rng(5)
        for _ in range(10):
            theta = random_stabilizing_policy(model, rng)
            sol = exact_utility(model, theta)
            assert sol.cost == sol.cost_dev + sol.cost_mean

    def test_dev_cost_ignores_mean_gains(self, model):
        base = PolicyPair(K1=np.array([[0.2]]), L1=np.array([[0.1]]),
                          K2=np.array([[0.1]]), L2=np.array([[0.3]]))
        moved = PolicyPair(K1=base.K1, L1=np.array([[0.55]]),
                           K2=base.K2, L2=np.array([[-0.2]]))
        assert exact_utility(model, base).cost_dev == \
            exact_utility(model, moved).cost_dev

    def test_nonzero_mean_initial_draw(self):
        noise = NoiseSpec(init_common=Distribution.point(1.0),
                          init_idio=Distribution.uniform(-1.0, 1.0),
                          step_common=Distribution.point(0.0),
                          step_idio=Distribution.point(0.0))
        m = ModelParams.from_scalars(**benchmark_scalars(noise=noise))
        sol = exact_utility(m, PolicyPair.zero())
        # mean process starts at 1.0 (common draw), deviation at U[-1,1]
        assert sol.cost_dev == pytest.approx((0.4 / 0.856) / 3.0, abs=1e-12)
        assert sol.cost_mean == pytest.approx((0.8 / 0.424) * 1.0, abs=1e-12)


class TestExactGradient:
    def test_stationary_at_equilibrium(self, model):
        theta = nash_policy(model, solve_riccati(model))
        assert exact_gradient(model, theta).max_abs() <= 1e-6

    def test_matches_finite_differences(self, model):
        rng = np.random.default_rng(42)
        h = 1e-5
        for _ in range(8):
            theta = random_stabilizing_policy(model, rng)
            grad = exact_gradient(model, theta)
            for name, block in zip(("K1", "L1", "K2", "L2"), grad.blocks()):
                hi_t = _bump(theta, name, h)
                lo_t = _bump(theta, name, -h)
                fd = (exact_utility(model, hi_t).cost
                      - exact_utility(model, lo_t).cost) / (2 * h)
                assert abs(fd - block[0, 0]) <= 1e-5 * max(1e-8, abs(fd)), name

    def test_matches_finite_differences_2d(self, model_2d):
        rng = np.random.default_rng(9)
        theta = random_stabilizing_policy(model_2d, rng, scale=0.2)
        grad = exact_gradient(model_2d, theta)
        h = 1e-6
        for name, block in zip(("K1", "L1", "K2", "L2"), grad.blocks()):
            for j in range(model_2d.d):
                hi_t = _bump(theta, name, h, col=j)
                lo_t = _bump(theta, name, -h, col=j)
                fd = (exact_utility(model_2d, hi_t).cost
                      - exact_utility(model_2d, lo_t).cost) / (2 * h)
                assert fd == pytest.approx(block[0, j], rel=1e-4, abs=1e-8)

    def test_one_player_reduction(self):
        m = ModelParams.from_scalars(**benchmark_scalars(B2=0.0, B2_bar=0.0))
        K1 = np.array([[0.2]])
        L1 = np.array([[0.3]])
        theta = PolicyPair(K1=K1, L1=L1, K2=np.zeros((1, 1)), L2=np.zeros((1, 1)))
        grad = exact_gradient(m, theta)
        # single-controller form: 2[(R1 + g B1'PB1)K1 - g B1'P A] Sigma
        der = validate(m)
        P = solve_dev_value(m, K1, theta.K2)
        sol = exact_utility(m, theta)
        expect_K1 = 2.0 * ((m.R1 + 0.9 * m.B1.T @ P @ m.B1) @ K1
                           - 0.9 * m.B1.T @ P @ m.A) @ sol.Sigma_dev
        np.testing.assert_allclose(grad.dK1, expect_K1, atol=1e-12)
        Pz = solve_mean_value(m, L1, theta.L2, der)
        expect_L1 = 2.0 * ((der.R1_tilde + 0.9 * der.B1_tilde.T @ Pz @ der.B1_tilde) @ L1
                           - 0.9 * der.B1_tilde.T @ Pz @ der.A_tilde) @ sol.Sigma_mean
        np.testing.assert_allclose(grad.dL1, expect_L1, atol=1e-12)

    def test_player_two_block_antisymmetry(self):
        # with A = 0 and B1 = 0 the second player's deviation gradient
        # reduces to 2 (-R2 K2) Sigma
        m = ModelParams.from_scalars(**benchmark_scalars(A=0.0, B1=0.0))
        K2 = np.array([[0.4]])
        theta = PolicyPair(K1=np.zeros((1, 1)), L1=np.zeros((1, 1)),
                           K2=K2, L2=np.zeros((1, 1)))
        grad = exact_gradient(m, theta)
        sol = exact_utility(m, theta)
        P = solve_dev_value(m, theta.K1, K2)
        expect = 2.0 * (-m.R2 @ K2 + 0.9 * m.B2.T @ P @ m.B2 @ K2) @ sol.Sigma_dev
        np.testing.assert_allclose(grad.dK2, expect, atol=1e-12)

    def test_lyapunov_residuals(self, model):
        rng = np.random.default_rng(17)
        der = validate(model)
        for _ in range(10):
            theta = random_stabilizing_policy(model, rng)
            P = solve_dev_value(model, theta.K1, theta.K2)
            M = dev_closed_loop(model, theta.K1, theta.K2)
            S = (model.Q + theta.K1.T @ model.R1 @ theta.K1
                 - theta.K2.T @ model.R2 @ theta.K2)
            resid = P - S - model.gamma * M.T @ P @ M
            assert np.linalg.norm(resid) <= 1e-10 * (1 + np.linalg.norm(P))

    def test_gradient_outside_set_raises(self, model):
        theta = PolicyPair(K1=np.array([[10.0]]), L1=np.zeros((1, 1)),
                           K2=np.zeros((1, 1)), L2=np.zeros((1, 1)))
        with pytest.raises(NotStabilizing):
            exact_gradient(model, theta)


def _bump(theta: PolicyPair, name: str, delta: float, col: int = 0) -> PolicyPair:
    mats = {n: np.array(getattr(theta, n)) for n in ("K1", "L1", "K2", "L2")}
    mats[name] = mats[name].copy()
    mats[name][0, col] += delta
    return PolicyPair(**mats)
