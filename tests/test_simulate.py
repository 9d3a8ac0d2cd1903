import threading

import numpy as np
import pytest

from lqmfg import (
    Distribution,
    ModelParams,
    NoiseSpec,
    PolicyPair,
    exact_utility,
    mkv_utility_batch,
    nagent_utility_batch,
    nash_policy,
    simulate_mkv,
    simulate_n_agent,
    solve_riccati,
    validate,
)
from lqmfg import simulate
from lqmfg.simulate import dump_trajectory_csv

from conftest import PIN_THETA, benchmark_scalars, digest, random_game, small_policy


def forced_start_noise(common: float, idio: float) -> NoiseSpec:
    return NoiseSpec(init_common=Distribution.point(common),
                     init_idio=Distribution.point(idio),
                     step_common=Distribution.point(0.0),
                     step_idio=Distribution.point(0.0))


def exact_truncated_mean(model, theta, horizon):
    """Closed-form mean of the truncated utility: propagate the second
    moments of both processes and sum the discounted quadratic costs."""
    der = validate(model)
    from lqmfg.model import dev_closed_loop, mean_closed_loop

    M_dev = dev_closed_loop(model, theta.K1, theta.K2)
    M_mean = mean_closed_loop(model, theta.L1, theta.L2, der)
    S_dev = (model.Q + theta.K1.T @ model.R1 @ theta.K1
             - theta.K2.T @ model.R2 @ theta.K2)
    S_mean = (der.Q_tilde + theta.L1.T @ der.R1_tilde @ theta.L1
              - theta.L2.T @ der.R2_tilde @ theta.L2)
    noise = model.noise
    d = model.d
    V_dev = noise.init_idio.cov(d)
    mu = noise.init_common.mean(d) + noise.init_idio.mean(d)
    V_mean = noise.init_common.cov(d) + np.outer(mu, mu)
    W_dev = noise.step_idio.cov(d)
    W_mean = noise.step_common.cov(d)
    total = 0.0
    for t in range(horizon):
        total += model.gamma ** t * (np.trace(S_dev @ V_dev)
                                     + np.trace(S_mean @ V_mean))
        V_dev = M_dev @ V_dev @ M_dev.T + W_dev
        V_mean = M_mean @ V_mean @ M_mean.T + W_mean
    return float(total)


class TestMkvSimulator:
    def test_zero_dynamics(self, zero_noise_model):
        traj = simulate_mkv(zero_noise_model, PolicyPair.zero(), 10, 0)
        np.testing.assert_array_equal(traj.states, 0.0)
        assert traj.utility == 0.0

    def test_two_step_hand_computation(self):
        m = ModelParams.from_scalars(**benchmark_scalars(
            noise=forced_start_noise(1.0, 0.0)))
        traj = simulate_mkv(m, PolicyPair.zero(), 2, 123)
        assert traj.states[0, 0] == pytest.approx(1.0, abs=1e-15)
        assert traj.means[0, 0] == pytest.approx(1.0, abs=1e-15)
        assert traj.costs[0] == pytest.approx(0.8, abs=1e-14)
        assert traj.states[1, 0] == pytest.approx(0.8, abs=1e-14)
        assert traj.costs[1] == pytest.approx(0.512, abs=1e-14)
        assert traj.utility == pytest.approx(0.8 + 0.9 * 0.512, abs=1e-13)

    def test_seed_determinism(self, model):
        theta = PolicyPair(K1=np.array([[0.2]]), L1=np.array([[0.4]]),
                           K2=np.array([[0.1]]), L2=np.array([[0.3]]))
        a = simulate_mkv(model, theta, 40, 7)
        b = simulate_mkv(model, theta, 40, 7)
        for field in ("states", "means", "u1", "u2", "costs"):
            np.testing.assert_array_equal(getattr(a, field), getattr(b, field))
        assert a.utility == b.utility

    def test_horizon_extension_preserves_prefix(self, model):
        """Named streams per noise source: extending the horizon must not
        reshuffle earlier draws."""
        short = simulate_mkv(model, PolicyPair.zero(), 15, 99)
        long = simulate_mkv(model, PolicyPair.zero(), 40, 99)
        np.testing.assert_array_equal(short.states, long.states[:15])
        np.testing.assert_array_equal(short.costs, long.costs[:15])

    def test_conditional_mean_consistency(self, model):
        """With no idiosyncratic randomness the state equals its mean."""
        noise = NoiseSpec(init_common=Distribution.uniform(-1, 1),
                          init_idio=Distribution.point(0.0),
                          step_common=Distribution.gaussian(0, 0.01),
                          step_idio=Distribution.point(0.0))
        m = ModelParams.from_scalars(**benchmark_scalars(noise=noise))
        theta = PolicyPair(K1=np.array([[0.2]]), L1=np.array([[0.4]]),
                           K2=np.array([[0.1]]), L2=np.array([[0.3]]))
        traj = simulate_mkv(m, theta, 30, 5)
        np.testing.assert_array_equal(traj.states, traj.means)

    def test_truncation_cauchy_bound(self, model):
        theta = PolicyPair.zero()
        base = simulate_mkv(model, theta, 30, 11)
        longer = simulate_mkv(model, theta, 45, 11)
        cmax = float(np.max(np.abs(longer.costs)))
        bound = 0.9 ** 30 * cmax / 0.1
        assert abs(longer.utility - base.utility) <= bound

    def test_batch_mean_matches_exact_truncation(self, model):
        theta = PolicyPair.zero()
        utilities = mkv_utility_batch(model, theta, 50, 20_000, 321)
        expected = exact_truncated_mean(model, theta, 50)
        se = utilities.std(ddof=1) / np.sqrt(len(utilities))
        assert abs(utilities.mean() - expected) <= 4 * se

    def test_batch_gain_stacks_respected(self, model):
        """Per-path gain stacks reproduce per-policy single evaluations."""
        k1s = np.array([0.0, 0.2, 0.4]).reshape(3, 1, 1)
        stacked = mkv_utility_batch(model, PolicyPair.zero(), 20, 3, 17,
                                    gain_stacks={"K1": k1s})
        assert np.all(np.isfinite(stacked))
        assert len(np.unique(stacked)) == 3

    def test_trajectory_csv_roundtrip(self, model, tmp_path):
        traj = simulate_mkv(model, PolicyPair.zero(), 12, 3)
        path = tmp_path / "traj.csv"
        dump_trajectory_csv(traj, path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "t,x0,xbar0,u1_0,u2_0,c"
        assert len(rows) == 13
        first = rows[1].split(",")
        assert float(first[1]) == traj.states[0, 0]
        assert float(first[5]) == traj.costs[0]


# scalar paths at which the mean-field engine draws its step noise four
# steps at a time (80 kB per step and stream)
CHUNKED_PATHS = 10_000
CHUNK_STEPS = simulate._DRAW_AHEAD_BYTES // (8 * CHUNKED_PATHS)


class TestMkvDrawAhead:
    """The step noise is drawn ahead in chunks on a helper thread that
    lives only as long as the call."""

    def test_chunk_is_four_steps(self):
        assert CHUNK_STEPS == 4

    @pytest.mark.parametrize("horizon", [1, 2, CHUNK_STEPS, CHUNK_STEPS + 1, 50])
    def test_no_thread_outlives_a_batch(self, model, horizon):
        before = threading.active_count()
        u = mkv_utility_batch(model, PIN_THETA, horizon, CHUNKED_PATHS, 3)
        assert u.shape == (CHUNKED_PATHS,)
        assert threading.active_count() == before

    @pytest.mark.parametrize("horizon", [1, 2, 50])
    def test_no_thread_outlives_a_trajectory(self, model, horizon):
        before = threading.active_count()
        traj = simulate_mkv(model, PIN_THETA, horizon, 3)
        assert traj.costs.shape == (horizon,)
        assert threading.active_count() == before

    @pytest.mark.parametrize("horizon", [CHUNK_STEPS + 1, 50])
    def test_chunks_hold_the_bits_of_step_draws(self, model, horizon):
        """Drawing the same streams one step at a time, across chunk
        boundaries and a partial last chunk, gives the same rollout bit
        for bit."""
        n = CHUNKED_PATHS
        rng_ci, rng_ii, rng_cs, rng_is = simulate._streams(5)
        noise = model.noise
        y = noise.init_idio.sample(rng_ii, (n, 1)) - noise.init_idio.mean(1)
        z = noise.init_common.sample(rng_ci, (n, 1)) + noise.init_idio.mean(1)
        der = validate(model)
        utility, discount = np.zeros(n), 1.0
        for t in range(horizon):
            u1_mean, u2_mean = -z @ PIN_THETA.L1.T, z @ PIN_THETA.L2.T
            du1, du2 = -y @ PIN_THETA.K1.T, y @ PIN_THETA.K2.T
            utility += discount * simulate.stage_cost(der, y, z, du1, u1_mean,
                                                      du2, u2_mean)
            discount *= model.gamma
            if t + 1 < horizon:
                w_common = noise.step_common.sample(rng_cs, (n, 1))
                w_idio = noise.step_idio.sample(rng_is, (n, 1))
                y = y @ model.A.T + du1 @ model.B1.T + du2 @ model.B2.T + w_idio
                z = (z @ der.A_tilde.T + u1_mean @ der.B1_tilde.T
                     + u2_mean @ der.B2_tilde.T + w_common)
        got = mkv_utility_batch(model, PIN_THETA, horizon, n, 5)
        np.testing.assert_array_equal(got, utility)

    @pytest.mark.parametrize("call", ["batch", "trajectory"])
    def test_no_thread_outlives_a_failed_step(self, model, monkeypatch, call):
        """A step that raises on the calling thread mid-horizon joins the
        helper thread before the error reaches the caller."""
        error = RuntimeError("step failed")
        calls = []
        stage_cost = simulate.stage_cost

        def failing_stage_cost(*args):
            calls.append(None)
            if len(calls) == 7:
                raise error
            return stage_cost(*args)

        monkeypatch.setattr(simulate, "stage_cost", failing_stage_cost)
        before = threading.active_count()
        with pytest.raises(RuntimeError) as info:
            if call == "batch":
                mkv_utility_batch(model, PIN_THETA, 50, CHUNKED_PATHS, 3)
            else:
                simulate_mkv(model, PIN_THETA, 50, 3)
        assert info.value is error
        assert threading.active_count() == before

    def test_failed_step_draw_reaches_caller(self, model, monkeypatch):
        """The first step draw raises on the helper thread: the caller gets
        that exception object, no further step draw is made, and no thread
        is left."""
        error = RuntimeError("draw failed")
        step_calls = []
        sample = Distribution.sample

        def failing_sample(dist, rng, shape):
            if len(shape) == 3:  # (k, n_paths, d): a chunk of step draws
                step_calls.append(shape)
                raise error
            return sample(dist, rng, shape)

        monkeypatch.setattr(Distribution, "sample", failing_sample)
        before = threading.active_count()
        with pytest.raises(RuntimeError) as info:
            mkv_utility_batch(model, PIN_THETA, 50, CHUNKED_PATHS, 3)
        assert info.value is error
        assert step_calls == [(CHUNK_STEPS, CHUNKED_PATHS, 1)]
        assert threading.active_count() == before


class TestNAgentSimulator:
    def test_single_agent_equals_own_mean(self, model):
        traj = simulate_n_agent(model, PolicyPair.zero(), 1, 20, 8)
        np.testing.assert_allclose(traj.states[:, 0, :], traj.means, atol=1e-15)

    def test_zero_noise_zero_utility(self, zero_noise_model):
        traj = simulate_n_agent(zero_noise_model, PolicyPair.zero(), 50, 20, 8)
        assert traj.utility == 0.0

    def test_empirical_means_recomputable(self, model):
        theta = PolicyPair(K1=np.array([[0.15]]), L1=np.array([[0.6]]),
                           K2=np.array([[0.1]]), L2=np.array([[0.5]]))
        traj = simulate_n_agent(model, theta, 64, 25, 13)
        np.testing.assert_allclose(traj.states.mean(axis=1), traj.means,
                                   atol=1e-12)
        # recompute the control means from the states
        for t in range(25):
            y = traj.states[t] - traj.means[t]
            u1 = -(y @ theta.K1.T) - traj.means[t] @ theta.L1.T
            np.testing.assert_allclose(u1.mean(axis=0), traj.u1_means[t],
                                       atol=1e-12)

    def test_mean_control_is_mean_gain_on_mean_state(self, model):
        # deviation parts average out exactly
        theta = PolicyPair(K1=np.array([[0.7]]), L1=np.array([[0.2]]),
                           K2=np.array([[0.3]]), L2=np.array([[0.1]]))
        traj = simulate_n_agent(model, theta, 32, 10, 21)
        np.testing.assert_allclose(traj.u1_means,
                                   -(traj.means @ theta.L1.T), atol=1e-12)
        np.testing.assert_allclose(traj.u2_means,
                                   traj.means @ theta.L2.T, atol=1e-12)

    def test_no_idiosyncratic_noise_matches_mkv_exactly(self, model):
        """Common-noise pairing: with the idiosyncratic sources switched
        off, a shared seed makes population and mean-field utilities agree
        path by path."""
        noise = NoiseSpec(init_common=Distribution.uniform(-1, 1),
                          init_idio=Distribution.point(0.0),
                          step_common=Distribution.gaussian(0, 0.01),
                          step_idio=Distribution.point(0.0))
        m = ModelParams.from_scalars(**benchmark_scalars(noise=noise))
        theta = PolicyPair(K1=np.array([[0.15]]), L1=np.array([[0.6]]),
                           K2=np.array([[0.1]]), L2=np.array([[0.5]]))
        pop = nagent_utility_batch(m, theta, 8, 30, 200, 4242)
        mkv = mkv_utility_batch(m, theta, 30, 200, 4242)
        np.testing.assert_allclose(pop, mkv, atol=1e-10)

    def test_population_mean_approaches_mkv(self, model):
        theta = nash_policy(model, solve_riccati(model))
        reps = 800
        mkv = mkv_utility_batch(model, theta, 40, reps, 777)
        gaps = []
        for N in (5, 500):
            pop = nagent_utility_batch(model, theta, N, 40, reps, 777)
            gaps.append(abs(pop.mean() - mkv.mean()) / abs(mkv.mean()))
        paired_se = 3 * (0.5 / np.sqrt(reps))  # generous error bar
        assert gaps[1] <= gaps[0] + paired_se

    @pytest.mark.parametrize("horizon", [1, 2, 10])
    def test_no_thread_outlives_the_call(self, model, horizon):
        before = threading.active_count()
        nagent_utility_batch(model, PIN_THETA, 20, horizon, 5, 3)
        assert threading.active_count() == before

    def test_failed_step_draw_reaches_caller(self, model, monkeypatch):
        """The third draw, the first step draw, raises on the helper
        thread: the caller gets that exception and no thread is left."""
        error = RuntimeError("draw failed")
        calls = []
        sample = Distribution.sample

        def failing_sample(dist, rng, shape):
            calls.append(shape)
            if len(calls) == 3:
                raise error
            return sample(dist, rng, shape)

        monkeypatch.setattr(Distribution, "sample", failing_sample)
        before = threading.active_count()
        with pytest.raises(RuntimeError) as info:
            nagent_utility_batch(model, PIN_THETA, 20, 10, 5, 3)
        assert info.value is error
        assert len(calls) == 3
        assert threading.active_count() == before


class TestBeyondScalar:
    """The batch engines on a d=3, ell=2 random game."""

    def test_single_path_batch_matches_simulator(self):
        model = random_game(3, 2)
        theta = small_policy(model)
        for seed in (1, 2024):
            batch = mkv_utility_batch(model, theta, 40, 1, seed)[0]
            single = simulate_mkv(model, theta, 40, seed).utility
            assert batch == pytest.approx(single, rel=1e-12, abs=0.0)

    def test_no_idiosyncratic_noise_matches_mkv_exactly(self):
        noise = NoiseSpec(init_common=Distribution.uniform(-1, 1),
                          init_idio=Distribution.point(0.0),
                          step_common=Distribution.gaussian(0, 0.01),
                          step_idio=Distribution.point(0.0))
        model = random_game(3, 2, noise=noise)
        theta = small_policy(model)
        pop = nagent_utility_batch(model, theta, 8, 30, 200, 4242)
        mkv = mkv_utility_batch(model, theta, 30, 200, 4242)
        np.testing.assert_allclose(pop, mkv, atol=1e-10)


class TestUtilityConsistency:
    def test_mkv_mean_within_truncation_bias_of_exact(self, model):
        """Sample mean vs the infinite-horizon closed form, allowing the
        analytic truncation bias."""
        theta = PolicyPair.zero()
        utilities = mkv_utility_batch(model, theta, 50, 30_000, 2718)
        exact = exact_utility(model, theta).cost
        trunc = exact_truncated_mean(model, theta, 50)
        bias = exact - trunc
        assert abs(bias) <= 0.005 * exact
        se = utilities.std(ddof=1) / np.sqrt(len(utilities))
        assert abs(utilities.mean() - exact) <= abs(bias) + 3 * se


def _trajectory_digest(traj) -> str:
    return digest(traj.states, traj.means, traj.u1, traj.u2, traj.costs,
                   [traj.utility])


MKV_SHARED_DIGEST = "7df89b7d965b5e897eb20ff846cc470b8d0778616959558636cbddfab87df661"
MKV_STACKS_DIGEST = "1c21b5d9963a930e8af97c8d08612719778a8ae90ba55bd60bdb24db8480aeba"
NAGENT_DIGEST = "839e93619db02a4bff3a642e809b19cac5056a7b31884c830d7e89d7a36b70a0"
TRAJECTORY_DIGEST = "9e794681e562ced791003630b02af14c9f3144a864961f83793f3b7821b0c625"
TRAJECTORY_D3_DIGEST = "564303dd1f10e6361387ef4ec5faf6cc27a17a2569b86c157545614ed271f5c6"
MKV_STACKS_D3_DIGEST = "5d7f0d65c6d78e27a29f40fcbcf1fa37f611c2dd4bd49e2946029d6158b9b183"
NAGENT_D3_DIGEST = "bf138044416126b9e0f76c213fbc5ec1c992b686d26967631d8b39c9d51b701e"
NAGENT_TRAJECTORY_DIGEST = "083077b82ace1284e0c857229f01a9237be6c630e69d75f491c6aef9061e0a12"


class TestPinnedBits:
    """Rollout outputs pinned bit for bit, on the scalar benchmark game and
    one d=3, ell=2 random game.

    A change to how the engines draw, multiply or sum must leave these
    digests (sha256 of the float64 bytes) unchanged: the shipped sampled,
    N-agent and trajectory artifacts are built from exactly these products.
    """

    def test_mkv_shared_gains(self, model):
        u = mkv_utility_batch(model, PIN_THETA, 50, 500, 20261018)
        assert digest(u) == MKV_SHARED_DIGEST

    def test_mkv_gain_stacks(self, model):
        rng = np.random.default_rng(5)
        stacks = {"K1": 0.2 + 0.05 * rng.standard_normal((500, 1, 1)),
                  "L1": 0.4 + 0.05 * rng.standard_normal((500, 1, 1))}
        u = mkv_utility_batch(model, PIN_THETA, 50, 500, 20261018,
                              gain_stacks=stacks)
        assert digest(u) == MKV_STACKS_DIGEST

    def test_mkv_gain_stacks_beyond_scalar(self):
        model = random_game(3, 2)
        theta = small_policy(model)
        rng = np.random.default_rng(5)
        stacks = {"K1": theta.K1 + 0.05 * rng.standard_normal((2000, 2, 3)),
                  "L1": theta.L1 + 0.05 * rng.standard_normal((2000, 2, 3))}
        u = mkv_utility_batch(model, theta, 40, 2000, 20261018,
                              gain_stacks=stacks)
        assert digest(u) == MKV_STACKS_D3_DIGEST

    def test_nagent(self, model):
        u = nagent_utility_batch(model, PIN_THETA, 50, 50, 20, 20261018)
        assert digest(u) == NAGENT_DIGEST

    def test_nagent_beyond_scalar(self):
        model = random_game(3, 2)
        u = nagent_utility_batch(model, small_policy(model), 20, 30, 10,
                                 20261018)
        assert digest(u) == NAGENT_D3_DIGEST

    def test_nagent_trajectory(self, model):
        """states, means, u1_means, u2_means and utility of
        `simulate_n_agent`."""
        traj = simulate_n_agent(model, PIN_THETA, 40, 50, 20261018)
        assert digest(traj.states, traj.means, traj.u1_means, traj.u2_means,
                       [traj.utility]) == NAGENT_TRAJECTORY_DIGEST

    def test_mkv_trajectory(self, model):
        """states, means, u1, u2, costs and utility of `simulate_mkv`; the
        `simulate` verb writes its CSV from exactly these arrays."""
        traj = simulate_mkv(model, PIN_THETA, 50, 20261018)
        assert _trajectory_digest(traj) == TRAJECTORY_DIGEST

    def test_mkv_trajectory_beyond_scalar(self):
        model = random_game(3, 2)
        traj = simulate_mkv(model, small_policy(model), 40, 20261018)
        assert _trajectory_digest(traj) == TRAJECTORY_D3_DIGEST
