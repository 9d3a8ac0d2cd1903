import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from lqmfg import (
    Distribution,
    ModelParams,
    NoiseSpec,
    PolicyPair,
    discounted_second_moment,
    exact_gradient,
    in_stabilizing_set,
    exact_utility,
    nash_policy,
    solve_dev_value,
    solve_mean_value,
    solve_riccati,
    validate,
)
import lqmfg.value
from lqmfg.errors import NotStabilizing
from lqmfg.model import loop_stable
from lqmfg.value import MAX_DOUBLINGS, _dlyap, _doubling, _smith

from conftest import (
    PIN_THETA,
    benchmark_noise,
    benchmark_scalars,
    digest,
    random_game,
    small_policy,
    stacked_oracle,
    zero_noise,
)


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
        m = ModelParams(**benchmark_scalars(Q=0.0))
        P = solve_dev_value(m, np.zeros((1, 1)), np.zeros((1, 1)))
        assert P[0, 0] == pytest.approx(0.0, abs=1e-14)

    def test_matches_series_oracle_at_equilibrium(self, model):
        theta = nash_policy(model, solve_riccati(model))
        P = solve_dev_value(model, theta.K1, theta.K2)
        M = validate(model).dev.closed_loop(theta.K1, theta.K2)
        S = (model.Q + theta.K1.T @ model.R1 @ theta.K1
             - theta.K2.T @ model.R2 @ theta.K2)
        np.testing.assert_allclose(P, series_value_oracle(M, S, model.gamma),
                                   atol=1e-9)

    def test_matches_series_oracle_2d(self, model_2d):
        rng = np.random.default_rng(3)
        theta = random_stabilizing_policy(model_2d, rng, scale=0.2)
        P = solve_dev_value(model_2d, theta.K1, theta.K2)
        M = validate(model_2d).dev.closed_loop(theta.K1, theta.K2)
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
        m = ModelParams(**benchmark_scalars(Q=0.0, Q_bar=0.0))
        P = solve_mean_value(m, np.zeros((1, 1)), np.zeros((1, 1)))
        assert P[0, 0] == pytest.approx(0.0, abs=1e-14)

    def test_matches_series_oracle_at_equilibrium(self, model):
        theta = nash_policy(model, solve_riccati(model))
        der = validate(model)
        P = solve_mean_value(model, theta.L1, theta.L2, der)
        M = der.mean.closed_loop(theta.L1, theta.L2)
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
        m = ModelParams(**benchmark_scalars(noise=noise))
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
            blocks = (grad.dK1, grad.dL1, grad.dK2, grad.dL2)
            for name, block in zip(("K1", "L1", "K2", "L2"), blocks):
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
        blocks = (grad.dK1, grad.dL1, grad.dK2, grad.dL2)
        for name, block in zip(("K1", "L1", "K2", "L2"), blocks):
            for j in range(model_2d.d):
                hi_t = _bump(theta, name, h, col=j)
                lo_t = _bump(theta, name, -h, col=j)
                fd = (exact_utility(model_2d, hi_t).cost
                      - exact_utility(model_2d, lo_t).cost) / (2 * h)
                assert fd == pytest.approx(block[0, j], rel=1e-4, abs=1e-8)

    def test_one_player_reduction(self):
        m = ModelParams(**benchmark_scalars(B2=0.0, B2_bar=0.0))
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
        m = ModelParams(**benchmark_scalars(A=0.0, B1=0.0))
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
            M = der.dev.closed_loop(theta.K1, theta.K2)
            S = (model.Q + theta.K1.T @ model.R1 @ theta.K1
                 - theta.K2.T @ model.R2 @ theta.K2)
            resid = P - S - model.gamma * M.T @ P @ M
            assert np.linalg.norm(resid) <= 1e-10 * (1 + np.linalg.norm(P))

    def test_gradient_outside_set_raises(self, model):
        theta = PolicyPair(K1=np.array([[10.0]]), L1=np.zeros((1, 1)),
                           K2=np.zeros((1, 1)), L2=np.zeros((1, 1)))
        with pytest.raises(NotStabilizing):
            exact_gradient(model, theta)


class TestGate:
    """Both closed loops are gated, not only the deviation one."""

    @pytest.mark.parametrize("gains", [
        {"L1": -5.0},             # mean loop 0.8 + 0.8 * 5; deviation loop 0.4
        {"L2": np.nan},
        {"K1": np.nan},
    ], ids=["mean_loop_only", "nan_mean_gain", "nan_dev_gain"])
    def test_rejects(self, model, gains):
        theta = PolicyPair(**{n: np.array([[gains.get(n, 0.0)]])
                              for n in ("K1", "L1", "K2", "L2")})
        if "L1" in gains:
            der = validate(model)
            assert loop_stable(der.dev.closed_loop(theta.K1, theta.K2), model.gamma)
            assert not loop_stable(der.mean.closed_loop(theta.L1, theta.L2), model.gamma)
        assert not in_stabilizing_set(model, theta)
        with pytest.raises(NotStabilizing):
            exact_utility(model, theta)
        with pytest.raises(NotStabilizing):
            exact_gradient(model, theta)


def _dlyap_alone(M, source, gamma):
    """The doubling loop on one matrix: the reference every slice of a
    stacked solve must match bit for bit. Returns (P, doublings)."""
    A = np.sqrt(gamma) * M
    P = source
    for step in range(MAX_DOUBLINGS):
        P_next = P + A.T @ P @ A
        if (P_next == P).all():
            return P, step
        P, A = P_next, A @ A
    raise AssertionError("no convergence")


class TestStackedDoubling:
    @pytest.mark.parametrize("d", [1, 3])
    def test_slices_stop_on_their_own_step(self, d):
        gamma = 0.9
        rng = np.random.default_rng(d)
        M, source = [], []
        for loop in (0.01, 0.99, 0.5, 0.9):   # gamma * ||M||^2 per slice
            G = rng.standard_normal((d, d))
            M.append(np.sqrt(loop / gamma) * G / np.linalg.norm(G, 2))
            S = rng.standard_normal((d, d))
            source.append(S @ S.T + np.eye(d))
        got = _dlyap(np.array(M), np.array(source), gamma)
        steps = set()
        for i in range(len(M)):
            want, step = _dlyap_alone(M[i], source[i], gamma)
            steps.add(step)
            assert got[i].tobytes() == want.tobytes()
        assert len(steps) > 1

    def test_transposed_slices_match_second_moment(self, model_2d):
        """P and Sigma of both blocks in one stack give the per-matrix bits."""
        theta = random_stabilizing_policy(model_2d, np.random.default_rng(3), 0.2)
        sol = exact_utility(model_2d, theta)
        der = validate(model_2d)
        tail = model_2d.gamma / (1.0 - model_2d.gamma)
        for block, (G1, G2), P, Sigma in (
                (der.dev, (theta.K1, theta.K2), sol.P_dev, sol.Sigma_dev),
                (der.mean, (theta.L1, theta.L2), sol.P_mean, sol.Sigma_mean)):
            M = block.closed_loop(G1, G2)
            src = block.Q + G1.T @ block.R1 @ G1 - G2.T @ block.R2 @ G2
            assert P.tobytes() == _dlyap_alone(M, src, model_2d.gamma)[0].tobytes()
            want = _dlyap_alone(M.T, block.V0 + tail * block.W, model_2d.gamma)[0]
            assert Sigma.tobytes() == want.tobytes()

    @pytest.mark.parametrize("gamma, M, source, steps", [
        # zero, negative and -0.0 loops, zero and -0.0 sources, a slow loop
        (0.9, [0.0, -0.7, -0.0, 0.3, -0.3, -0.0, 1.05],
         [1.5, 2.0, 3.0, 0.0, -0.0, -0.0, 1.0], [0, 6, 0, 0, 0, 0, 13]),
        # gamma m^2 = 1 - 2**-53 exactly: the docstring's 58 steps
        (1 - 2**-53, [1.0, -1.0], [1.0, 0.25], [58, 58]),
    ])
    def test_scalar_slices_keep_the_stacked_bits(self, gamma, M, source, steps):
        """1x1 slices of the stacked loop, and ``_smith`` on Python floats,
        give the bits of the per-matrix loop."""
        root = math.sqrt(gamma)
        got = _dlyap(np.reshape(M, (-1, 1, 1)), np.reshape(source, (-1, 1, 1)), gamma)
        for i in range(len(M)):
            want, step = _dlyap_alone(np.reshape(M[i], (1, 1)), np.reshape(source[i], (1, 1)),
                                      gamma)
            assert step == steps[i]
            assert got[i].tobytes() == want.tobytes()
            assert np.float64(_smith(root * M[i], source[i])).tobytes() == want.tobytes()

    @pytest.mark.parametrize("gamma, m", [(0.9, np.nan),
                                          (1.0, 1.0)])  # P doubles, finite at the cap
    def test_unconverged_slice_raises_at_the_cap(self, gamma, m):
        M = np.reshape([0.5, m], (2, 1, 1))
        with pytest.raises(NotStabilizing, match="did not converge"):
            _dlyap(M, np.ones((2, 1, 1)), gamma)
        assert math.isnan(_smith(math.sqrt(gamma) * m, 1.0))

    def test_overflowing_slice_warns(self):
        """An overflowing slice warns, returns inf, and leaves the other
        slice's usual bits."""
        M = np.reshape([0.5, 0.1], (2, 1, 1))
        source = np.reshape([1.5e308, 1.0], (2, 1, 1))
        with pytest.warns(RuntimeWarning, match="overflow encountered in add"):
            got = _dlyap(M, source, 0.9)
        assert got[0, 0, 0] == np.inf
        assert got[1].tobytes() == _dlyap_alone(M[1], source[1], 0.9)[0].tobytes()



def _doubling_stack(d, seed, loops=(0.01, 0.99, 0.5, 0.9)):
    """A stack of loops A with the given ||A||^2 per slice, so that the
    slices retire at different steps, and symmetric positive definite H."""
    rng = np.random.default_rng(seed)
    A, H = [], []
    for loop in loops:
        M = rng.standard_normal((d, d))
        A.append(np.sqrt(loop) * M / np.linalg.norm(M, 2))
        S = rng.standard_normal((d, d))
        H.append(S @ S.T + np.eye(d))
    return np.array(A), np.array(H)


class TestDoublingKernel:
    """``_doubling``'s two paths: the Lyapunov path (G = None) and the
    Riccati path with its solve."""

    @pytest.mark.parametrize("d", [1, 3, 16])
    @pytest.mark.parametrize("seed", range(5))
    def test_zero_G_gives_the_lyapunov_bits(self, d, seed):
        A, H = _doubling_stack(d, seed)
        X, steps = _doubling(A, H)
        X_zero, steps_zero = _doubling(A, H, np.zeros_like(H))
        assert X_zero.tobytes() == X.tobytes()
        assert steps_zero.tolist() == steps.tolist()
        assert len(set(steps.tolist())) > 1

    @pytest.mark.parametrize("d", [1, 3, 16])
    def test_stacked_riccati_slices_keep_their_bits(self, d):
        """Each slice of a stacked call has the bits and the steps of a call
        on it alone, though the slices retire at different steps."""
        A, H = _doubling_stack(d, d, loops=(0.01, 2.0, 0.5, 1.2))
        rng = np.random.default_rng(100 + d)
        B = rng.standard_normal((len(A), d, max(1, d // 2)))
        G = B @ B.swapaxes(-1, -2) * np.array([0.1, 1.0, 0.5, 2.0])[:, None, None]
        X, steps = _doubling(A, H, G)
        for i in range(len(A)):
            alone, step = _doubling(A[i:i + 1], H[i:i + 1], G[i:i + 1])
            assert X[i].tobytes() == alone[0].tobytes()
            assert steps[i] == step[0]
        assert len(set(steps.tolist())) > 1
        # the fixed point it names
        gap = H + A.swapaxes(-1, -2) @ X @ np.linalg.solve(np.eye(d) + G @ X, A) - X
        assert np.linalg.norm(gap) <= 1e-12 * np.linalg.norm(X)

    def test_singular_solve_and_cap_raise(self):
        """A singular I + G H and an unconverged slice raise LinAlgError, for
        the callers to name."""
        one = np.ones((1, 1, 1))
        with pytest.raises(np.linalg.LinAlgError):
            _doubling(one, one, -one)
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            _doubling(np.full((1, 1, 1), np.nan), one, np.zeros((1, 1, 1)))


def _oracle_outcome(model, theta):
    """What exact_utility and exact_gradient at theta give: the bytes of P,
    Sigma, the three costs and the gradient, or the exception each raised,
    with every warning each emitted."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            sol = exact_utility(model, theta)
        except NotStabilizing as exc:
            return [repr(exc), [(w.category, str(w.message)) for w in caught]]
        outcome = [sol.P.tobytes(), sol.Sigma.tobytes(),
                   np.array([sol.cost_dev, sol.cost_mean, sol.cost]).tobytes(),
                   [(w.category, str(w.message)) for w in caught]]
        caught.clear()
        outcome += [exact_gradient(model, theta, solution=sol).stack.tobytes(),
                    [(w.category, str(w.message)) for w in caught]]
    return outcome


def _scalar_game(rng) -> ModelParams:
    """A random 1x1 game whose entries are often 0.0, -0.0 or negative, with
    the shipped noise or noise of variance -0.0 (so V0 and W may be -0.0)."""
    def entry():
        return rng.choice([0.0, -0.0, -0.3, 0.5, float(rng.normal())])

    entries = {name: entry() for name in ("A", "A_bar", "B1", "B1_bar", "B2", "B2_bar",
                                          "Q", "Q_bar")}
    R1, R2 = (0.1 + abs(rng.normal()) for _ in range(2))
    R1_bar, R2_bar = (rng.choice([0.0, -0.0, -0.05, 0.2]) for _ in range(2))
    signed_zero = Distribution.gaussian(0.0, -0.0)
    noise = (benchmark_noise(), NoiseSpec(*[signed_zero] * 4))[rng.integers(2)]
    return ModelParams(**benchmark_scalars(R1=R1, R1_bar=R1_bar, R2=R2, R2_bar=R2_bar,
                                           gamma=rng.choice([0.5, 0.9, 0.99]), noise=noise,
                                           **entries))


class TestScalarPath:
    """At d = 1 the oracle runs on Python floats (``_scalar_utility``,
    ``_scalar_gradient``) with the bits, exceptions and warnings of its
    stacked numpy path."""

    @pytest.fixture(autouse=True)
    def scalar_calls(self, monkeypatch):
        """(name, took) of each call of the Python-float path; took is False
        where it declined and the stacked path ran."""
        calls = []
        for name in ("_scalar_utility", "_scalar_gradient"):
            def spy(*args, name=name, real=getattr(lqmfg.value, name)):
                out = real(*args)
                calls.append((name, out is not None))
                return out

            monkeypatch.setattr(lqmfg.value, name, spy)
        return calls

    def both_paths(self, model, theta, monkeypatch):
        scalar = _oracle_outcome(model, theta)
        with monkeypatch.context() as patch:
            stacked_oracle(patch)
            stacked = _oracle_outcome(model, theta)
        assert scalar == stacked
        return scalar

    @pytest.mark.parametrize("theta", ["zero", "pin", "nash"])
    def test_shipped_game(self, model, theta, monkeypatch, scalar_calls):
        theta = {"zero": PolicyPair.zero(), "pin": PIN_THETA,
                 "nash": nash_policy(model, solve_riccati(model))}[theta]
        outcome = self.both_paths(model, theta, monkeypatch)
        assert scalar_calls == [("_scalar_utility", True), ("_scalar_gradient", True)]
        assert outcome[3] == outcome[5] == []

    def test_signed_zeros_and_negative_entries(self, monkeypatch, scalar_calls):
        """Random 1x1 games and gains drawn from 0.0, -0.0, negative and
        Gaussian values: every entry or product that is -0.0 in Python is
        +0.0 after numpy's 1x1 matmul."""
        rng = np.random.default_rng(2024)
        for _ in range(300):
            model = _scalar_game(rng)
            theta = PolicyPair(*(rng.choice([0.0, -0.0, -0.2, 0.3, float(rng.normal(0, 0.5))])
                                 for _ in range(4)))
            self.both_paths(model, theta, monkeypatch)
        assert scalar_calls.count(("_scalar_gradient", True)) > 100

    @pytest.mark.parametrize("gamma", [0.9, 1 - 2**-53])
    def test_loop_at_the_gate(self, gamma, monkeypatch, scalar_calls):
        """gamma m^2 just below 1 on both loops: the slowest doublings."""
        m = math.sqrt(1.0 / gamma)
        while not gamma * m * m < 1.0:
            m = math.nextafter(m, 0.0)
        model = ModelParams(**benchmark_scalars(A=m, A_bar=0.0, gamma=gamma))
        for K2 in (0.0, -0.0):
            self.both_paths(model, PolicyPair(0.0, 0.0, K2, -K2), monkeypatch)
        assert all(took for _, took in scalar_calls)

    def test_loop_exactly_on_the_gate(self, monkeypatch):
        """gamma m^2 = 1 exactly, with zero sources: the doubling returns
        0 at once, yet the gate rejects the pair."""
        model = ModelParams(**benchmark_scalars(A=2.0, A_bar=0.0, Q=0.0, Q_bar=0.0,
                                                gamma=0.25, noise=zero_noise()))
        outcome = self.both_paths(model, PolicyPair.zero(), monkeypatch)
        assert outcome[0].startswith("NotStabilizing")

    def test_cost_overflow_falls_back(self, monkeypatch, scalar_calls):
        """P and Sigma finite, tr(P V0) overflows."""
        noise = replace(benchmark_noise(), init_idio=Distribution.uniform(-3.0, 3.0))
        model = ModelParams(**benchmark_scalars(B1=0.0, B1_bar=0.0, noise=noise))
        outcome = self.both_paths(model, PolicyPair(1.5e154, 0.0, 0.0, 0.0), monkeypatch)
        assert scalar_calls[0] == ("_scalar_utility", False)
        assert outcome[3] == [(RuntimeWarning, "overflow encountered in matmul")]

    @pytest.mark.parametrize("gains, B1, warns", [
        ((np.nan, 0.0, 0.0, 0.0), 0.4, False),   # NaN loop: fails the gate
        ((0.0, 0.0, 0.0, np.inf), 0.4, False),   # -inf mean loop
        ((np.inf, 0.0, 0.0, 0.0), 0.0, True),    # 0 * inf: NaN loop
        ((1e160, 0.0, 0.0, 0.0), 0.4, False),    # loop 4e159 fails the gate
        ((1e160, 0.0, 0.0, 0.0), 0.0, True),     # stable loop, source overflows
        ((1e154, 0.0, 0.0, 0.0), 0.0, True),     # finite value, gradient overflows
    ], ids=["nan", "inf", "inf_times_zero", "large_loop", "source_overflow",
            "gradient_overflow"])
    def test_non_finite_falls_back(self, gains, B1, warns, monkeypatch, scalar_calls):
        """Python floats overflow silently; the stacked rerun raises and
        warns as the stacked path alone does."""
        model = ModelParams(**benchmark_scalars(B1=B1, B1_bar=0.0, B2=1e5, B2_bar=0.0))
        outcome = self.both_paths(model, PolicyPair(*gains), monkeypatch)
        assert not all(took for _, took in scalar_calls)
        warned = [w for part in outcome if isinstance(part, list) for w in part]
        assert bool(warned) == warns
        assert {category for category, _ in warned} <= {RuntimeWarning}


def _bump(theta: PolicyPair, name: str, delta: float, col: int = 0) -> PolicyPair:
    mats = {n: np.array(getattr(theta, n)) for n in ("K1", "L1", "K2", "L2")}
    mats[name] = mats[name].copy()
    mats[name][0, col] += delta
    return PolicyPair(**mats)


def _oracle_case(name: str):
    """(model, policy pair) of one pinned exact-oracle case."""
    if name.startswith("scalar"):
        model = ModelParams(**benchmark_scalars())
        return model, PIN_THETA if name == "scalar_pin" else PolicyPair.zero()
    d, ell = {"d3": (3, 2), "d16": (16, 4)}[name]
    model = random_game(d, ell)
    return model, small_policy(model)


ORACLE_DIGESTS = {
    "scalar_pin": "772b4fcd859b000680f1976f5ea5fb36e12740928beed21a37a83e2462a080ee",
    "scalar_zero": "4dba3894be65c0b64f91bbe2e2bc9bd99c101187d11415ce1683a22f8c75e1f4",
    "d3": "16cd982b58487d4b0a685a2d7bedf5edc7628f3ecc906b27672133c0ec36aa43",
    "d16": "aa1225087a018cb58e1e9758ba798a466bca01841ace7a2b814812577ac26e5f",
}


class TestPinnedBits:
    """exact_utility (P, Sigma, costs) and exact_gradient pinned bit for bit
    (sha256 of the float64 bytes) on the scalar game and two random games.

    The shipped exact artifacts are built from exactly these numbers, so a
    change to how the blocks are multiplied, solved or summed must leave
    these digests unchanged.
    """

    @pytest.mark.parametrize("case", sorted(ORACLE_DIGESTS))
    def test_exact_oracle(self, case):
        model, theta = _oracle_case(case)
        sol = exact_utility(model, theta)
        grad = exact_gradient(model, theta, solution=sol)
        got = digest(sol.P_dev, sol.P_mean, sol.Sigma_dev, sol.Sigma_mean,
                     [sol.cost_dev, sol.cost_mean, sol.cost],
                     grad.dK1, grad.dL1, grad.dK2, grad.dL2)
        assert got == ORACLE_DIGESTS[case]

    @pytest.mark.parametrize("case", ["scalar_pin", "scalar_zero"])
    def test_exact_oracle_on_the_stacked_loop(self, case, monkeypatch):
        """The d = 1 digests also hold with the whole oracle on its stacked
        numpy path, the reference of the Python-float path."""
        stacked_oracle(monkeypatch)
        self.test_exact_oracle(case)
