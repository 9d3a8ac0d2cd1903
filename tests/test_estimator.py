import numpy as np
import pytest

from lqmfg import (
    EstimatorConfig,
    ModelParams,
    PolicyPair,
    estimate_gradient,
    exact_gradient,
)
from lqmfg.estimator import _sphere_stack

from conftest import PIN_THETA, benchmark_scalars, digest, random_game, small_policy, zero_noise


class TestSphereSample:
    @pytest.mark.parametrize("dim", [1, 2, 5, 17])
    def test_norm_is_radius(self, dim):
        rng = np.random.default_rng(0)
        for _ in range(50):
            v = _sphere_stack(1, dim, 0.1, rng)[0]
            assert np.linalg.norm(v) == pytest.approx(0.1, abs=1e-12)

    def test_dim_one_is_signed_radius(self):
        rng = np.random.default_rng(1)
        draws = np.array([_sphere_stack(1, 1, 0.5, rng)[0, 0] for _ in range(10_000)])
        assert set(np.round(np.abs(draws), 12)) == {0.5}
        # each sign with probability 1/2; empirical frequency within 3 sigma
        freq = (draws > 0).mean()
        assert abs(freq - 0.5) <= 3 * 0.5 / np.sqrt(10_000)

    def test_mean_zero_symmetry(self):
        rng = np.random.default_rng(2)
        draws = _sphere_stack(100_000, 3, 0.1, rng)
        np.testing.assert_allclose(np.linalg.norm(draws, axis=1), 0.1,
                                   atol=1e-12)
        assert np.max(np.abs(draws.mean(axis=0))) <= 0.002

    def test_stack_matches_distribution_of_single(self):
        rng = np.random.default_rng(3)
        stack = _sphere_stack(4, 6, 0.2, rng)
        assert stack.shape == (4, 6)
        np.testing.assert_allclose(np.linalg.norm(stack, axis=1), 0.2,
                                   atol=1e-12)


def quadratic_surrogate(a, b, player):
    """Deterministic utility a*sum(K^2) + b*sum(L^2) on the perturbed player's
    (player, G); the sphere-smoothed gradient of a quadratic has no
    smoothing bias."""

    def fn(per_path, seed_seq):
        moving, (K, L) = per_path
        assert moving == player
        return a * (K ** 2).sum(axis=(1, 2)) + b * (L ** 2).sum(axis=(1, 2))

    return fn


class TestEstimateGradient:
    def test_unbiased_on_quadratic_surrogate(self, model):
        theta = PolicyPair(K1=np.array([[0.7]]), L1=np.array([[0.4]]),
                           K2=np.array([[0.0]]), L2=np.array([[0.0]]))
        a, b = 0.8, 0.5
        cfg = EstimatorConfig(M=1_000_000, horizon=1, tau=0.1, seed=5)
        gK, gL = estimate_gradient(model, theta, 1, cfg,
                                   utility_fn=quadratic_surrogate(a, b, 1))
        assert gK[0, 0] == pytest.approx(2 * a * 0.7, rel=0.01)
        assert gL[0, 0] == pytest.approx(2 * b * 0.4, rel=0.01)

    def test_variance_scales_inversely_with_samples(self, model):
        theta = PolicyPair(K1=np.array([[0.7]]), L1=np.array([[0.4]]),
                           K2=np.array([[0.0]]), L2=np.array([[0.0]]))
        fn = quadratic_surrogate(1.0, 1.0, 1)

        def estimates(M, base_seed):
            out = np.empty(50)
            for r in range(50):
                cfg = EstimatorConfig(M=M, horizon=1, tau=0.1,
                                      seed=base_seed + r)
                gK, _ = estimate_gradient(model, theta, 1, cfg, utility_fn=fn)
                out[r] = gK[0, 0]
            return out

        var_small = estimates(500, 10_000).var(ddof=1)
        var_large = estimates(2000, 20_000).var(ddof=1)
        assert 0.15 <= var_large / var_small <= 0.4

    def test_opponent_never_perturbed(self, model):
        """The hook gets (player, G) for the moving player only, so the
        opponent keeps theta's gains: G is (2, M, ell, d), and each of its
        blocks lies at distance tau from that player's block of theta."""
        theta = PolicyPair(K1=np.array([[0.1]]), L1=np.array([[0.2]]),
                           K2=np.array([[0.3]]), L2=np.array([[0.4]]))
        seen = []

        def spy(per_path, seed_seq):
            seen.append(per_path)
            return np.zeros(per_path[1].shape[1])

        cfg = EstimatorConfig(M=64, horizon=1, tau=0.1, seed=9)
        for player in (1, 2):
            estimate_gradient(model, theta, player, cfg, utility_fn=spy)
            moving, G = seen[-1]
            assert moving == player
            assert G.shape == (2, 64, 1, 1)
            np.testing.assert_allclose(
                np.linalg.norm(G - theta.stack[player - 1][:, None], axis=(2, 3)),
                0.1, atol=1e-12)

    def test_zero_utility_surface_gives_zero(self):
        m = ModelParams(**benchmark_scalars(noise=zero_noise()))
        cfg = EstimatorConfig(M=100, horizon=10, tau=0.1, seed=3)
        gK, gL = estimate_gradient(m, PolicyPair.zero(), 1, cfg)
        assert gK[0, 0] == 0.0
        assert gL[0, 0] == 0.0

    def test_deterministic_given_seed(self, model):
        cfg = EstimatorConfig(M=200, horizon=20, tau=0.1, seed=77)
        a = estimate_gradient(model, PolicyPair.zero(), 1, cfg)
        b = estimate_gradient(model, PolicyPair.zero(), 1, cfg)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_points_along_exact_gradient(self, model):
        """Block-level direction agreement at the zero policy (the noise
        floor makes per-component signs of the small K-blocks unreliable at
        moderate M; direction of the stacked player block is robust)."""
        grad = exact_gradient(model, PolicyPair.zero())
        cfg = EstimatorConfig(M=4000, horizon=50, tau=0.1, seed=15)
        for player, exact_pair in ((1, (grad.dK1, grad.dL1)),
                                   (2, (grad.dK2, grad.dL2))):
            gK, gL = estimate_gradient(model, PolicyPair.zero(), player, cfg)
            dot = float(gK.ravel() @ exact_pair[0].ravel()
                        + gL.ravel() @ exact_pair[1].ravel())
            assert dot > 0.0

    def test_near_stationary_at_equilibrium(self, model):
        """At the equilibrium the exact gradient vanishes; the estimate's
        mean across seeds must stay within the smoothing-bias scale (0.05
        at this radius) plus its empirical noise band. A per-run magnitude
        bound would be a coin flip at this sample count (per-run std is
        about 0.08)."""
        from lqmfg import nash_policy, solve_riccati

        theta_star = nash_policy(model, solve_riccati(model))
        R = 8
        res = np.zeros((R, 4))
        for s in range(R):
            cfg1 = EstimatorConfig(M=10_000, horizon=50, tau=0.1, seed=5000 + s)
            cfg2 = EstimatorConfig(M=10_000, horizon=50, tau=0.1, seed=6000 + s)
            g1 = estimate_gradient(model, theta_star, 1, cfg1)
            g2 = estimate_gradient(model, theta_star, 2, cfg2)
            res[s] = [g1[0][0, 0], g1[1][0, 0], g2[0][0, 0], g2[1][0, 0]]
        band = 0.05 + 3.0 * res.std(axis=0, ddof=1) / np.sqrt(R)
        assert np.all(np.abs(res.mean(axis=0)) <= band)

    def test_degenerate_draw_redraws_then_raises(self):
        from lqmfg.errors import DegenerateDraw

        class ZeroThenValue:
            def __init__(self, zeros):
                self.zeros = zeros

            def standard_normal(self, shape):
                size = shape if isinstance(shape, int) else int(np.prod(shape))
                if self.zeros > 0:
                    self.zeros -= 1
                    return np.zeros(shape)
                return np.ones(shape)

        v = _sphere_stack(1, 3, 0.2, ZeroThenValue(zeros=5))[0]
        assert np.linalg.norm(v) == pytest.approx(0.2, abs=1e-12)
        with pytest.raises(DegenerateDraw):
            _sphere_stack(1, 3, 0.2, ZeroThenValue(zeros=10_000))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EstimatorConfig(M=0, horizon=10, tau=0.1, seed=0)
        with pytest.raises(ValueError):
            EstimatorConfig(M=10, horizon=0, tau=0.1, seed=0)
        with pytest.raises(ValueError):
            EstimatorConfig(M=10, horizon=10, tau=0.0, seed=0)
        with pytest.raises(ValueError):
            EstimatorConfig(M=10, horizon=10, tau=float("nan"), seed=0)
        with pytest.raises(ValueError):
            EstimatorConfig(M=10, horizon=10, tau=float("inf"), seed=0)
        with pytest.raises(ValueError):
            EstimatorConfig(M=10, horizon=10, tau=0.1, seed=-1)


ESTIMATE_DIGESTS = {
    ("scalar", 1): "e7d9fbcb514f38f435eeaef3577616ddd4c784825c2d236fe31256a83dd750d8",
    ("scalar", 2): "6dbb3730b61a71c9824ee98872a69950b0a893e3b91ae4c802ff7ba1e582df31",
    ("d3", 1): "846c0953aaee3332fe2cbfd3309e63d284585a54a157591877df174cabc3e8bb",
    ("d3", 2): "865f4c58b3cf2a7ec5e2c2fbf5c3c5222a2fa8f035b478868da34ad389a3cc44",
}


class TestPinnedBits:
    """`estimate_gradient` pinned bit for bit (sha256 of the float64 bytes of
    (grad_K, grad_L)) for both players: on the scalar game at M = 10^4, where
    the engine folds the per-path gains into per-path loops, and on a d=3,
    ell=2 random game, where the perturbed player acts in gain form.

    The shipped sampled artifacts are built from these estimates, so a
    change to how the perturbed gains reach the engine must leave these
    digests unchanged.
    """

    @pytest.mark.parametrize("case", sorted(ESTIMATE_DIGESTS), ids=str)
    def test_estimate(self, case):
        game, player = case
        if game == "scalar":
            model, theta, M, horizon = ModelParams(**benchmark_scalars()), PIN_THETA, 10_000, 50
        else:
            model = random_game(3, 2)
            theta, M, horizon = small_policy(model), 2000, 40
        cfg = EstimatorConfig(M=M, horizon=horizon, tau=0.1, seed=20261020)
        assert digest(*estimate_gradient(model, theta, player, cfg)) == ESTIMATE_DIGESTS[case]
