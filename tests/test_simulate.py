import threading
import tracemalloc

import numpy as np
import pytest

from lqmfg import (
    Distribution,
    EstimatorConfig,
    ModelParams,
    NoiseSpec,
    PolicyPair,
    estimate_gradient,
    exact_utility,
    mkv_utility_batch,
    nagent_utility_batch,
    nash_policy,
    simulate_mkv,
    solve_riccati,
    validate,
)
from lqmfg import simulate
from lqmfg.errors import NonFiniteRollout

from conftest import (PIN_THETA, benchmark_scalars, digest, perfbench_game,
                      random_game, small_policy)
import mkv_reference
import nagent_reference
from nagent_reference import simulate_n_agent


def forced_start_noise(common: float, idio: float) -> NoiseSpec:
    return NoiseSpec(init_common=Distribution.point(common),
                     init_idio=Distribution.point(idio),
                     step_common=Distribution.point(0.0),
                     step_idio=Distribution.point(0.0))


def exact_truncated_mean(model, theta, horizon, N=None):
    """Closed-form mean of the truncated utility: propagate the second
    moments of both processes and sum the discounted quadratic costs.

    N = None gives the mean-field utility. For N agents with i.i.d.
    idiosyncratic noise it gives the population average of
    ``nagent_utility_batch``: the deviations from the empirical mean keep
    1 - 1/N of the idiosyncratic covariances V0_idio and W_idio, and the
    empirical mean adds the other 1/N to the mean block's own."""
    der = validate(model)
    M_dev = der.dev.closed_loop(theta.K1, theta.K2)
    M_mean = der.mean.closed_loop(theta.L1, theta.L2)
    S_dev = (model.Q + theta.K1.T @ model.R1 @ theta.K1
             - theta.K2.T @ model.R2 @ theta.K2)
    S_mean = (der.Q_tilde + theta.L1.T @ der.R1_tilde @ theta.L1
              - theta.L2.T @ der.R2_tilde @ theta.L2)
    noise = model.noise
    d = model.d
    share = 0.0 if N is None else 1.0 / N
    V_idio, W_idio = noise.init_idio.cov(d), noise.step_idio.cov(d)
    V_dev, W_dev = (1.0 - share) * V_idio, (1.0 - share) * W_idio
    mu = noise.init_common.mean(d) + noise.init_idio.mean(d)
    V_mean = noise.init_common.cov(d) + np.outer(mu, mu) + share * V_idio
    W_mean = noise.step_common.cov(d) + share * W_idio
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
        m = ModelParams(**benchmark_scalars(
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
        m = ModelParams(**benchmark_scalars(noise=noise))
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
        G = np.zeros((2, 3, 1, 1))
        G[0] = np.array([0.0, 0.2, 0.4]).reshape(3, 1, 1)  # K1 per path, L1 = 0
        stacked = mkv_utility_batch(model, PolicyPair.zero(), 20, 3, 17,
                                    per_path=(1, G))
        assert np.all(np.isfinite(stacked))
        assert len(np.unique(stacked)) == 3

    def test_gain_stacks_leave_theta_untouched(self, model):
        """The engine only reads the gains: neither a writeable theta stack
        nor a writeable per-path G is written, for one path (folded) or
        several."""
        theta = PolicyPair.from_stack(PIN_THETA.stack.copy())
        theta.stack.setflags(write=True)
        for n in (1, 3):
            G = np.full((2, n, 1, 1), 0.7)
            mkv_utility_batch(model, theta, 5, n, 3, per_path=(2, G))
            np.testing.assert_array_equal(theta.stack, PIN_THETA.stack)
            np.testing.assert_array_equal(G, 0.7)


# scalar paths at which the mean-field engine draws its step noise four
# steps at a time (80 kB per step and stream)
CHUNKED_PATHS = 10_000
CHUNK_STEPS = simulate._DRAW_AHEAD_BYTES // (8 * CHUNKED_PATHS)


class TestMkvDrawAhead:
    """The idio-step noise is drawn ahead in chunks on a helper thread that
    lives only as long as the call, the common-step noise inline."""

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

    @pytest.mark.parametrize("steps", [CHUNK_STEPS + 1, 49])
    @pytest.mark.parametrize("common_shape, idio_shape", [
        ((CHUNKED_PATHS, 1), (CHUNKED_PATHS, 1)),
        ((40, 1), (40, 500, 1)),  # N-agent shape, two steps to a chunk
    ], ids=["mkv", "nagent"])
    def test_pairs_hold_the_bits_of_step_draws(self, model, steps, common_shape,
                                               idio_shape):
        """The idio-step stream drawn ahead in chunks and the common-step one
        drawn inline give the bytes of one draw per step and stream, across
        chunk boundaries and a partial last chunk."""
        noise = model.noise
        _, _, rng_cs, rng_is = simulate._streams(5)
        with simulate._step_noise(noise, rng_cs, rng_is, steps, common_shape,
                                  idio_shape) as draws:
            got = [(c.tobytes(), i.tobytes()) for c, i in draws]
        _, _, rng_cs, rng_is = simulate._streams(5)
        want = [(noise.step_common.sample(rng_cs, common_shape).tobytes(),
                 noise.step_idio.sample(rng_is, idio_shape).tobytes())
                for _ in range(steps)]
        assert got == want

    @pytest.mark.parametrize("horizon", [CHUNK_STEPS + 1, 50])
    def test_rollout_matches_reference_across_chunks(self, model, horizon):
        got = mkv_utility_batch(model, PIN_THETA, horizon, CHUNKED_PATHS, 5)
        want, _ = mkv_reference._mkv_engine(model, PIN_THETA, horizon,
                                            CHUNKED_PATHS, 5, None, False)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("call", ["batch", "trajectory"])
    def test_no_thread_outlives_a_failed_step(self, model, monkeypatch, call):
        """A step that raises on the calling thread mid-horizon joins the
        helper thread before the error reaches the caller."""
        error = RuntimeError("step failed")
        calls = []
        stack_quad = simulate._stack_quad

        def failing_stack_quad(*args):
            calls.append(None)
            if len(calls) == 7:
                raise error
            return stack_quad(*args)

        monkeypatch.setattr(simulate, "_stack_quad", failing_stack_quad)
        before = threading.active_count()
        with pytest.raises(RuntimeError) as info:
            if call == "batch":
                mkv_utility_batch(model, PIN_THETA, 50, CHUNKED_PATHS, 3)
            else:
                simulate_mkv(model, PIN_THETA, 50, 3)
        assert info.value is error
        assert len(calls) == 7
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
        m = ModelParams(**benchmark_scalars(noise=noise))
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
        """The third draw, the first step draw, raises: the caller gets that
        exception, no further draw is made and no thread is left."""
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

    @pytest.mark.parametrize("call", ["batch", "trajectory"])
    def test_no_thread_outlives_a_failed_step(self, model, monkeypatch, call):
        """The third step's cost raises mid-horizon: the caller gets that
        exception and no thread is left."""
        error = RuntimeError("step failed")
        calls = []
        quad = simulate._quad

        def failing_quad(*args):
            calls.append(None)
            if len(calls) == 3:
                raise error
            return quad(*args)

        monkeypatch.setattr(simulate, "_quad", failing_quad)
        before = threading.active_count()
        with pytest.raises(RuntimeError) as info:
            if call == "batch":
                nagent_utility_batch(model, PIN_THETA, 1000, 50, 50, 3)
            else:
                simulate_n_agent(model, PIN_THETA, 1000, 50, 3)
        assert info.value is error
        assert len(calls) == 3
        assert threading.active_count() == before

    def test_peak_memory_within_one_population_array(self, model):
        """The engine steps its one (reps, N, d) array in place, block by
        block, and adds the step draw per block: the traced peak stays
        within one population array and two draw blocks (about 1.11 arrays
        read here)."""
        N, horizon, reps = 1000, 5, 400
        nagent_utility_batch(model, PIN_THETA, N, horizon, reps, 3)
        tracemalloc.start()
        try:
            nagent_utility_batch(model, PIN_THETA, N, horizon, reps, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= reps * N * model.d * 8 + 2 * simulate._DRAW_AHEAD_BYTES


def _steps(engine, model):
    """A step generator of the scalar game, or of a d=3, ell=2 game whose
    mean-field paths carry per-path gains of player 1 (in gain form)."""
    theta = PIN_THETA if model.d == 1 else small_policy(model)
    if engine == "nagent":
        return simulate._nagent_steps(model, theta, 20, 12, 3, 5)
    per_path = None if model.d == 1 else (1, _player_stack(model, theta, 1, 40))
    return simulate._mkv_steps(model, theta, 12, 40, 3, per_path)


class TestStepGenerators:
    """The engines are generators of steps. The mean-field engine's helper
    thread is joined when it is closed early, and it never writes into an
    array it has yielded. The population engine starts no thread; it steps
    y in place, so a yielded y holds until the next step is requested, and
    it never writes into a yielded x-bar or cost."""

    @pytest.mark.parametrize("engine", ["mkv", "nagent"])
    def test_close_after_first_step_joins_the_thread(self, model, engine):
        """For the population engine: it starts no thread at all."""
        before = threading.active_count()
        steps = _steps(engine, model)
        next(steps)
        assert threading.active_count() == before + (engine == "mkv")
        steps.close()
        assert threading.active_count() == before

    @pytest.mark.parametrize("game", ["scalar", "d3"])
    @pytest.mark.parametrize("engine", ["mkv", "nagent"])
    def test_yielded_arrays_are_not_written_afterwards(self, model, engine, game):
        """For the population engine: y until the next step is requested
        (its bytes at yield against its bytes just before `next()`), x-bar
        and the cost throughout."""
        game_model = model if game == "scalar" else random_game(3, 2)
        kept = []
        for step in _steps(engine, game_model):
            kept.append((step, [a.tobytes() for a in step]))
            if engine == "nagent":  # just before the next step is requested
                assert step[0].tobytes() == kept[-1][1][0]
        assert len(kept) == 12
        first = 1 if engine == "nagent" else 0  # y's buffer is reused
        for step, at_yield in kept:
            assert [a.tobytes() for a in step[first:]] == at_yield[first:]


class TestBatchArguments:
    """An empty batch and a per-path stack of no player or of the wrong
    shape are a ValueError that names the argument, not an error from deep
    inside the engine."""

    @pytest.mark.parametrize("engine", ["mkv", "nagent"])
    def test_empty_batch_rejected(self, model, engine):
        with pytest.raises(ValueError, match=r"^n_(paths|reps) must be >= 1$"):
            if engine == "mkv":
                mkv_utility_batch(model, PolicyPair.zero(), 10, 0, 1)
            else:
                nagent_utility_batch(model, PolicyPair.zero(), 5, 10, 0, 1)

    def test_unknown_gain_stack_named(self, model):
        with pytest.raises(ValueError, match=r"^per_path player must be 1 or 2, got 3$"):
            mkv_utility_batch(model, PolicyPair.zero(), 10, 3, 1,
                              per_path=(3, np.zeros((2, 3, 1, 1))))
        with pytest.raises(ValueError, match=r"^per_path gains must be .*got \(3, 1, 1\)$"):
            mkv_utility_batch(model, PolicyPair.zero(), 10, 3, 1,
                              per_path=(1, np.zeros((3, 1, 1))))


class TestNonFiniteRollouts:
    """A rollout utility that overflows is an error that says how many
    paths overflowed, never a silent inf or NaN. Player 1's K gain at
    scales 1e0 ... 1e6 on the scalar game and a d=3, ell=2 game: up to
    1e3 every utility is finite (the scalar game's reach about 2e258), from
    1e4 on every path overflows within the 50 steps."""

    @pytest.mark.parametrize("scale", [10.0 ** e for e in range(7)])
    @pytest.mark.parametrize("game", ["scalar", "d3"])
    @pytest.mark.parametrize("call", ["mkv", "nagent", "estimator"])
    def test_finite_or_named_error(self, model, call, game, scale):
        game_model = model if game == "scalar" else random_game(3, 2)
        stack = np.zeros((2, 2, game_model.ell, game_model.d))
        stack[0, 0, 0] = scale
        theta = PolicyPair.from_stack(stack)
        rollout = {
            "mkv": lambda: mkv_utility_batch(game_model, theta, 50, 40, 3),
            "nagent": lambda: nagent_utility_batch(game_model, theta, 20, 50, 40, 3),
            "estimator": lambda: np.stack(estimate_gradient(
                game_model, theta, 1, EstimatorConfig(M=40, horizon=50, tau=0.1, seed=3))),
        }[call]
        if scale <= 1e3:
            assert np.isfinite(rollout()).all()
        else:
            with pytest.raises(NonFiniteRollout,
                               match=r"^40 of 40 rollout utilities are not finite after 50 steps$"):
                rollout()

    def test_error_counts_the_overflowing_paths(self, model):
        """Per-path gains that overflow on 3 of 10 paths."""
        G = np.array([0.2, 0.4]).reshape(2, 1, 1, 1) + np.zeros((2, 10, 1, 1))
        G[0, :3] = 1e5
        with pytest.raises(NonFiniteRollout,
                           match=r"^3 of 10 rollout utilities are not finite after 50 steps$"):
            mkv_utility_batch(model, PIN_THETA, 50, 10, 3, per_path=(1, G))


def _reference_game(key, noise=None):
    if key == "scalar":
        extra = {} if noise is None else {"noise": noise}
        return ModelParams(**benchmark_scalars(**extra)), PIN_THETA
    model = random_game(*key, noise=noise)
    return model, small_policy(model)


class TestNAgentReference:
    """The N-agent engine steps the closed loops in (y, x-bar) coordinates;
    `nagent_reference` keeps the agent-by-agent engine it replaced. The two
    compute the same rollout and differ only in rounding."""

    @pytest.mark.parametrize("game", ["scalar", (2, 1), (3, 2), (8, 3)], ids=str)
    @pytest.mark.parametrize("N, horizon, reps",
                             [(1, 1, 3), (7, 2, 4), (50, 13, 9), (1000, 50, 40)])
    def test_matches_agent_by_agent_reference(self, game, N, horizon, reps):
        model, theta = _reference_game(game)
        got = nagent_utility_batch(model, theta, N, horizon, reps, 11)
        want, _ = nagent_reference._nagent_engine(model, theta, N, horizon, 11,
                                                  reps, False)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
        traj = simulate_n_agent(model, theta, N, horizon, 11)
        _, ref = nagent_reference._nagent_engine(model, theta, N, horizon, 11,
                                                 1, True)
        for field in ("states", "means", "u1_means", "u2_means", "utility"):
            a, b = np.asarray(getattr(traj, field)), np.asarray(getattr(ref, field))
            assert a.shape == b.shape, field
            assert np.max(np.abs(a - b)) <= 1e-14 * np.max(np.abs(b)), field

    @pytest.mark.parametrize("game", ["scalar", (3, 2)], ids=str)
    def test_identical_agents_give_the_same_bytes_for_any_N(self, game):
        """Without idiosyncratic noise every agent sits at the mean: the
        deviations stay exactly zero and the utilities do not depend on N.
        The reference fails this, since the mean of N equal entries need not
        round back to the entry."""
        noise = NoiseSpec(init_common=Distribution.uniform(-1, 1),
                          init_idio=Distribution.point(0.0),
                          step_common=Distribution.gaussian(0, 0.01),
                          step_idio=Distribution.point(0.0))
        model, theta = _reference_game(game, noise)
        got = {nagent_utility_batch(model, theta, N, 30, 200, 4242).tobytes()
               for N in (1, 7, 100)}
        assert len(got) == 1
        ref = {nagent_reference._nagent_engine(model, theta, N, 30, 4242, 200,
                                               False)[0].tobytes()
               for N in (1, 7, 100)}
        assert len(ref) > 1


def _gain_stacks(model, theta, names, n):
    """Name-keyed per-path gains, as `mkv_reference` takes them."""
    rng = np.random.default_rng(5)
    return {name: getattr(theta, name)
            + 0.05 * rng.standard_normal((n, model.ell, model.d))
            for name in names}


def _player_stack(model, theta, player, n):
    """The (2, n, ell, d) per-path gains of one player that
    `_gain_stacks` draws for both of its blocks, with the same bytes."""
    rng = np.random.default_rng(5)
    return (theta.stack[player - 1][:, None]
            + 0.05 * rng.standard_normal((2, n, model.ell, model.d)))


class TestMkvReference:
    """The mean-field engine steps (y, z) as one stacked state through closed
    loops, or through gains where per-path loops would outgrow them;
    `mkv_reference` keeps the engine it replaced, which writes the split out
    term by term and takes per-path gains by name. The two compute the same
    rollout and differ only in rounding."""

    @pytest.mark.parametrize("game", ["scalar", (3, 2), (8, 3)], ids=str)
    @pytest.mark.parametrize("names", [(), ("K1", "L1"), ("K2", "L2"), ("K1",)],
                             ids=str)
    @pytest.mark.parametrize("n, horizon", [(1, 1), (3, 2), (400, 40)])
    def test_batch_matches_reference(self, game, names, n, horizon):
        """The engine gets the named gains as one player's (player, G); a
        block not named (L1 of ("K1",)) is theta's, repeated per path."""
        model, theta = _reference_game(game)
        stacks = _gain_stacks(model, theta, names, n) or None
        per_path = None
        if stacks:
            player = int(names[0][1])
            per_path = (player, np.stack([
                stacks.get(f"{block}{player}", np.repeat(theta.stack[player - 1, i][None], n, 0))
                for i, block in enumerate("KL")]))
        got = mkv_utility_batch(model, theta, horizon, n, 11, per_path=per_path)
        want, _ = mkv_reference._mkv_engine(model, theta, horizon, n, 11, stacks,
                                            False)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("game", ["scalar", (3, 2), (8, 3)], ids=str)
    @pytest.mark.parametrize("horizon", [1, 2, 40])
    def test_trajectory_matches_reference(self, game, horizon):
        model, theta = _reference_game(game)
        traj = simulate_mkv(model, theta, horizon, 11)
        _, ref = mkv_reference._mkv_engine(model, theta, horizon, 1, 11, None,
                                           True)
        for field in ("states", "means", "u1", "u2", "costs", "utility"):
            a, b = np.asarray(getattr(traj, field)), np.asarray(getattr(ref, field))
            assert a.shape == b.shape, field
            assert np.max(np.abs(a - b)) <= 1e-14 * np.max(np.abs(b)), field

    def test_peak_memory_within_three_gain_stacks(self):
        """Per-path gains of one player on the perfbench game at d=16,
        ell=4 stay in gain form: the engine reads that player's (2, n, ell, d)
        G without copying it, and the traced peak stays within three
        (n, ell, d) stacks (1.93 here, 3.93 while the engine copied G;
        per-path (d, d) loops would take 26)."""
        d, ell, n = 16, 4, 2000
        model = perfbench_game(d, ell)
        theta = small_policy(model)
        per_path = (1, _player_stack(model, theta, 1, n))
        mkv_utility_batch(model, theta, 5, n, 3, per_path)
        tracemalloc.start()
        try:
            mkv_utility_batch(model, theta, 5, n, 3, per_path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * n * ell * d * 8


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


FINITE_N_REPS = {2: 4000, 10: 2000, 100: 500}  # repetitions per seed
FINITE_N_SEEDS = (1, 2, 3)
FINITE_N_HORIZON = 20
FINITE_N_MAX_Z = 4.0


class TestFinitePopulation:
    """The N-agent engine's mean utility against the finite-N closed form
    (``exact_truncated_mean`` with N): within FINITE_N_MAX_Z standard errors
    on each seed, on the scalar game and the (3, 2) and (8, 3) random games,
    at the Nash pair and ``small_policy``. The gap to the mean-field form is
    c/N."""

    @pytest.mark.parametrize("N", sorted(FINITE_N_REPS))
    @pytest.mark.parametrize("policy", ["nash", "small"])
    @pytest.mark.parametrize("dims", [(1, 1), (3, 2), (8, 3)], ids=["scalar", "d3", "d8"])
    def test_nagent_mean_matches_closed_form(self, dims, policy, N):
        model = ModelParams(**benchmark_scalars()) if dims == (1, 1) else random_game(*dims)
        theta = (nash_policy(model, solve_riccati(model)) if policy == "nash"
                 else small_policy(model))
        exact = exact_truncated_mean(model, theta, FINITE_N_HORIZON, N)
        for seed in FINITE_N_SEEDS:
            u = nagent_utility_batch(model, theta, N, FINITE_N_HORIZON, FINITE_N_REPS[N], seed)
            se = u.std(ddof=1) / np.sqrt(len(u))
            assert abs(u.mean() - exact) <= FINITE_N_MAX_Z * se


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


MKV_SHARED_DIGEST = "a7ec233314fe1adaa458e2cbfaa128010f4d89cd8443a4a443971df4a0357206"
MKV_STACKS_DIGEST = "56df6c3fab835a502fffa558a1505fcfc00aaca60aa127c84486207692f1a125"
NAGENT_DIGEST = "8214e9acddfe06fa074802d83cf6b0d5c7cf71c53b8ce76ce52f9333ca703206"
TRAJECTORY_DIGEST = "7e1daa9c34fe8225d1423e06c030f69af2099ed972e4bbd65d9ef4e5f1e237b2"
TRAJECTORY_D3_DIGEST = "dea928e299f0a0b09cedebc067cca8ac9137b923eab0cf3ea78ebd0928e62321"
MKV_STACKS_D3_DIGEST = "51c1fabc0aaf6ef0e6214dbf73a184e56d8292626ba113d5d2e2a357b34f4992"
NAGENT_D3_DIGEST = "1731e9f9d92b672e76044865a13485094e1e294555f2786cec84f472ab4ddac9"
NAGENT_TRAJECTORY_DIGEST = "7f822d2719ab3e787ba7e110e3bca47cd1a1a4c9406ffca6bd5b33fd04de2912"
NAGENT_BLOCKS_DIGEST = "931397915c685faa443a3e7548b92c0c8be69be0b62771e8d8bbfd276132061e"


class TestPinnedBits:
    """Rollout outputs pinned bit for bit, on the scalar benchmark game and
    one d=3, ell=2 random game.

    The shipped sampled, N-agent and trajectory artifacts are built from
    exactly these products. A change to how the engines draw must leave
    these digests (sha256 of the float64 bytes) unchanged. A change to how
    an engine multiplies or sums may replace its digests only together
    with a test-only reference engine (`mkv_reference`, `nagent_reference`)
    that keeps the old form and that the new outputs match to 1e-14
    relative.
    """

    def test_mkv_shared_gains(self, model):
        u = mkv_utility_batch(model, PIN_THETA, 50, 500, 20261018)
        assert digest(u) == MKV_SHARED_DIGEST

    def test_mkv_gain_stacks(self, model):
        rng = np.random.default_rng(5)
        G = np.array([0.2, 0.4]).reshape(2, 1, 1, 1) + 0.05 * rng.standard_normal((2, 500, 1, 1))
        u = mkv_utility_batch(model, PIN_THETA, 50, 500, 20261018, per_path=(1, G))
        assert digest(u) == MKV_STACKS_DIGEST

    def test_mkv_gain_stacks_beyond_scalar(self):
        model = random_game(3, 2)
        theta = small_policy(model)
        rng = np.random.default_rng(5)
        G = theta.stack[0][:, None] + 0.05 * rng.standard_normal((2, 2000, 2, 3))
        u = mkv_utility_batch(model, theta, 40, 2000, 20261018, per_path=(1, G))
        assert digest(u) == MKV_STACKS_D3_DIGEST

    def test_nagent(self, model):
        u = nagent_utility_batch(model, PIN_THETA, 50, 50, 20, 20261018)
        assert digest(u) == NAGENT_DIGEST

    def test_nagent_beyond_scalar(self):
        model = random_game(3, 2)
        u = nagent_utility_batch(model, small_policy(model), 20, 30, 10,
                                 20261018)
        assert digest(u) == NAGENT_D3_DIGEST

    def test_nagent_across_draw_blocks(self):
        """777 agents times 31 replications at d=3 are 24 087 agent rows:
        one full block of the idio-step draw and a partial one, so every
        step multiplies and draws across a block edge. The reference engine
        bounds the values on any BLAS kernel; the digest, like the other
        d=3 pins, holds on the kernel it was recorded on."""
        model = random_game(3, 2)
        theta = small_policy(model)
        N, reps = 777, 31
        assert simulate._DRAW_AHEAD_BYTES // (8 * model.d) < N * reps
        u = nagent_utility_batch(model, theta, N, 20, reps, 20261018)
        want, _ = nagent_reference._nagent_engine(model, theta, N, 20, 20261018,
                                                  reps, False)
        np.testing.assert_allclose(u, want, rtol=1e-14, atol=0.0)
        assert digest(u) == NAGENT_BLOCKS_DIGEST

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
