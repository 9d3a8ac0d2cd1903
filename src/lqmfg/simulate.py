"""Stochastic rollout engines.

Two views of the same game: the mean-field simulator propagates one state
together with its conditional mean (the mean follows its own autonomous
linear recursion given the common-noise path), while the finite-population
simulator propagates N coupled agents as their deviations y from the
empirical mean and that mean x-bar, each through its block's closed loop.
Every step recentres y on its mean (the step's mean idiosyncratic draw, up
to rounding), which then moves x-bar, so agents that start and stay alike
keep y exactly zero. Each view has one batched engine: `simulate_mkv` is
path 0 of a one-path `mkv_utility_batch` run, and `simulate_n_agent` is
replication 0 of a one-replication `nagent_utility_batch` run, each with
its trajectory kept.

Randomness discipline: every rollout derives four named streams from its
seed -- common-init, idio-init, common-step, idio-step, in that order -- so
extending the horizon never reshuffles earlier draws, and engines sharing a
seed share the common-noise path draw-for-draw.

Both engines draw their step noise ahead on one helper thread, opened and
joined within the call (`_step_noise`): the draws do not depend on the
state, so the single worker draws each step stream a chunk of k steps at a
time as one (k, ...) array, common-step then idio-step, and numpy fills the
arrays without the interpreter lock while the dynamics run on the other
core. A generator fills an array in order, so one (k, n, d) draw holds the
bits of k (n, d) draws, and every rollout keeps the bits of inline
per-step draws. k is as many steps as fit in `_DRAW_AHEAD_BYTES` per
stream, and at least one: 4 steps for the 10^4 scalar paths of a gradient
estimate, whose 80 kB step draws cost about as much as one handoff of the
interpreter lock, and one step for 800 replications of 100 agents or more.

Every product of a shared matrix with a batch of vectors -- gains,
dynamics and aggregated dynamics in the mean-field engine, closed loops in
the N-agent engine -- is one BLAS call on the batch's 2-D view
(`_batch_apply`); per-path gain stacks go through one `einsum`. On the thin
(n, 1) batches of the scalar game this is several times faster than
`v @ G.T`, and the bits are the same: at d=1 every entry is a single
product. State updates add their terms in place, one at a time in the
order of the written sum, which rounds exactly as the one-expression sum
does without a temporary array per term.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .model import DerivedParams, ModelParams, NoiseSpec, PolicyPair, validate

# bytes of step noise drawn at once per stream (4 steps of 10^4 scalar paths)
_DRAW_AHEAD_BYTES = 320_000


def derive_seed(master: int, *keys: int) -> int:
    """Deterministically derive a child seed from a master seed and keys."""
    ss = np.random.SeedSequence([int(master), *[int(k) for k in keys]])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _streams(seed) -> tuple[np.random.Generator, ...]:
    """The four named noise streams, spawn order fixed."""
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(int(seed))
    return tuple(np.random.default_rng(s) for s in seed.spawn(4))


@contextmanager
def _step_noise(noise: NoiseSpec, rng_cs, rng_is, steps: int,
                common_shape: tuple, idio_shape: tuple):
    """Iterator over `steps` step-noise pairs (w_common, w_idio), drawn
    ahead on one helper thread that lives as long as the `with` block.

    Each stream is drawn k steps at a time as one (k, *shape) array, the
    common-step one first; the first chunk is submitted on entry and each
    next one as soon as the current one is taken, and the iterator yields
    per-step views. Callers drop their views before taking the next pair,
    so that memory can go to the chunk after it. On an early exit the
    chunk in flight is waited for and dropped.
    """
    step_bytes = 8 * max(math.prod(common_shape), math.prod(idio_shape))
    k = max(1, _DRAW_AHEAD_BYTES // step_bytes)

    def draw(n):
        return (noise.step_common.sample(rng_cs, (n, *common_shape)),
                noise.step_idio.sample(rng_is, (n, *idio_shape)))

    with ThreadPoolExecutor(max_workers=1) as pool:
        pending = pool.submit(draw, min(k, steps)) if steps else None

        def views():
            nonlocal pending
            left = steps
            while left:
                w_common, w_idio = pending.result()
                left -= len(w_common)
                pending = pool.submit(draw, min(k, left)) if left else None
                for t in range(len(w_common)):
                    yield w_common[t], w_idio[t]

        yield views()


def _batch_apply(G: np.ndarray, v: np.ndarray) -> np.ndarray:
    """G v for every vector of the batch v (..., d), as one BLAS call on the
    batch's 2-D view (`np.dot` on a 3-D array is slower than `matmul`)."""
    flat = np.dot(v.reshape(-1, v.shape[-1]), G.T)
    return flat.reshape(v.shape[:-1] + (G.shape[0],))


def _quad(v, W):
    """v' W v for every vector of the batch v (..., d)."""
    return np.einsum("...i,ij,...j->...", v, W, v)


def stage_cost(der: DerivedParams, y, x_mean, du1, u1_mean, du2, u2_mean):
    """Instantaneous utility evaluated on recentred quantities.

    y is the state deviation from its mean, du_i the control deviations;
    deviation terms weigh with the `dev` block of `validate(params)`, mean
    terms with its `mean` block. Quadratic in all arguments; player 2's
    terms enter with a minus sign. Supports batched leading axes.
    """
    dev, mean = der.dev, der.mean
    return (_quad(y, dev.Q) + _quad(x_mean, mean.Q)
            + _quad(du1, dev.R1) + _quad(u1_mean, mean.R1)
            - _quad(du2, dev.R2) - _quad(u2_mean, mean.R2))


@dataclass(frozen=True)
class MkvTrajectory:
    """One mean-field rollout: states, propagated conditional means,
    controls, per-step costs, and the truncated discounted utility."""

    states: np.ndarray       # (T, d)
    means: np.ndarray        # (T, d)
    u1: np.ndarray           # (T, ell)
    u2: np.ndarray           # (T, ell)
    costs: np.ndarray        # (T,)
    utility: float


@dataclass(frozen=True)
class NAgentTrajectory:
    """One finite-population rollout with empirical means."""

    states: np.ndarray       # (T, N, d)
    means: np.ndarray        # (T, d)
    u1_means: np.ndarray     # (T, ell)
    u2_means: np.ndarray     # (T, ell)
    utility: float


def simulate_mkv(params: ModelParams, theta: PolicyPair, horizon: int,
                 seed: int) -> MkvTrajectory:
    """Roll out the mean-field dynamics for `horizon` steps.

    The rollout is path 0 of a one-path `mkv_utility_batch` run with its
    trajectory kept. The conditional mean starts at the common draw plus
    the idiosyncratic mean and follows the aggregated recursion driven by
    the common noise only. Identical seeds give bit-identical trajectories.
    """
    _, traj = _mkv_engine(params, theta, horizon, 1, seed, None,
                          keep_trajectory=True)
    return traj


def _gain_apply(G: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Apply a gain to a batch of vectors; G is (ell, d) or (n, ell, d)."""
    if G.ndim == 2:
        return _batch_apply(G, v)
    return np.einsum("nij,nj->ni", G, v)


def mkv_utility_batch(params: ModelParams, theta: PolicyPair, horizon: int,
                      n_paths: int, seed,
                      gain_stacks: dict[str, np.ndarray] | None = None) -> np.ndarray:
    """Utilities of `n_paths` independent mean-field rollouts (vectorized).

    `gain_stacks` may override individual gains with per-path stacks of
    shape (n_paths, ell, d); untouched gains are shared across paths. Draws
    come from the four named streams, one batched draw per step, so
    `nagent_utility_batch` given the same seed sees the same common-noise
    arrays.
    """
    utilities, _ = _mkv_engine(params, theta, horizon, n_paths, seed,
                               gain_stacks, keep_trajectory=False)
    return utilities


def _mkv_engine(params: ModelParams, theta: PolicyPair, horizon: int,
                n_paths: int, seed, stacks, keep_trajectory: bool):
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    der = validate(params)
    theta.check_dims(params)
    d, ell = params.d, params.ell
    g = params.gamma
    noise = params.noise
    gains = {"K1": theta.K1, "L1": theta.L1, "K2": theta.K2, "L2": theta.L2}
    for name, stack in (stacks or {}).items():
        stack = np.asarray(stack, dtype=float)
        if stack.shape != (n_paths, ell, d):
            raise ValueError(f"{name} stack must be (n_paths, ell, d)")
        gains[name] = stack
    K1, L1, K2, L2 = gains["K1"], gains["L1"], gains["K2"], gains["L2"]

    rng_ci, rng_ii, rng_cs, rng_is = _streams(seed)
    # the step streams are not the initial ones, so the first chunk is
    # drawn while the initial states are
    with _step_noise(noise, rng_cs, rng_is, horizon - 1,
                     (n_paths, d), (n_paths, d)) as draws:
        eps_common = noise.init_common.sample(rng_ci, (n_paths, d))
        eps_idio = noise.init_idio.sample(rng_ii, (n_paths, d))
        idio_mean = noise.init_idio.mean(d)
        # propagate the deviation and the mean separately (an exact regrouping
        # of the state recursion); the idiosyncratic-noise-free case then keeps
        # the state equal to its mean bit for bit
        y = eps_idio - idio_mean
        z = eps_common + idio_mean

        if keep_trajectory:
            states, means = np.empty((horizon, d)), np.empty((horizon, d))
            u1s, u2s = np.empty((horizon, ell)), np.empty((horizon, ell))
            costs = np.empty(horizon)
        utility = np.zeros(n_paths)
        discount = 1.0
        for t in range(horizon):
            u1_mean = -_gain_apply(L1, z)
            u2_mean = _gain_apply(L2, z)
            du1 = -_gain_apply(K1, y)
            du2 = _gain_apply(K2, y)
            cost = stage_cost(der, y, z, du1, u1_mean, du2, u2_mean)
            utility += discount * cost
            discount *= g
            if keep_trajectory:
                states[t] = y[0] + z[0]
                means[t] = z[0]
                u1s[t] = du1[0] + u1_mean[0]
                u2s[t] = du2[0] + u2_mean[0]
                costs[t] = cost[0]
            del cost  # free the (n_paths,) costs before the next step allocates
            if t + 1 < horizon:
                w_common, w_idio = next(draws)
                y = _batch_apply(params.A, y)
                y += _batch_apply(params.B1, du1)
                y += _batch_apply(params.B2, du2)
                y += w_idio
                z = _batch_apply(der.A_tilde, z)
                z += _batch_apply(der.B1_tilde, u1_mean)
                z += _batch_apply(der.B2_tilde, u2_mean)
                z += w_common
                del w_common, w_idio
    if keep_trajectory:
        traj = MkvTrajectory(states=states, means=means, u1=u1s, u2=u2s,
                             costs=costs, utility=float(utility[0]))
        return utility, traj
    return utility, None


def simulate_n_agent(params: ModelParams, theta: PolicyPair, N: int,
                     horizon: int, seed: int) -> NAgentTrajectory:
    """Roll out N coupled agents sharing the common noise path.

    Controls use the empirical state mean; the reported utility is the
    discounted sum of population-average stage costs.
    """
    _, traj = _nagent_engine(params, theta, N, horizon, seed,
                             n_reps=1, keep_trajectory=True)
    return traj


def nagent_utility_batch(params: ModelParams, theta: PolicyPair, N: int,
                         horizon: int, n_reps: int, seed) -> np.ndarray:
    """Utilities of `n_reps` independent N-agent rollouts.

    Common-noise draws have shape (n_reps, d) per step, matching
    `mkv_utility_batch` under the same seed, so population and mean-field
    samples can be paired path-by-path."""
    utilities, _ = _nagent_engine(params, theta, N, horizon, seed,
                                  n_reps=n_reps, keep_trajectory=False)
    return utilities


def _nagent_engine(params: ModelParams, theta: PolicyPair, N: int,
                   horizon: int, seed, n_reps: int, keep_trajectory: bool):
    if N < 1:
        raise ValueError("N must be >= 1")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    der = validate(params)
    theta.check_dims(params)
    d, ell = params.d, params.ell
    g = params.gamma
    noise = params.noise
    # closed loops and stage weights of both blocks, ungated: any gains roll out
    G1, G2 = der.gains(theta)
    M_dev, M_mean = der.stack.closed_loop(G1, G2)
    W_dev, W_mean = der.stack.stage_weights(G1, G2)
    rng_ci, rng_ii, rng_cs, rng_is = _streams(seed)

    eps_common = noise.init_common.sample(rng_ci, (n_reps, d))
    y = noise.init_idio.sample(rng_ii, (n_reps, N, d))  # recentred in place
    m = y.mean(axis=1)
    y -= m[:, None, :]
    x_bar = eps_common + m

    states = np.empty((horizon, N, d)) if keep_trajectory else None
    means = np.empty((horizon, d)) if keep_trajectory else None
    u1_means = np.empty((horizon, ell)) if keep_trajectory else None
    u2_means = np.empty((horizon, ell)) if keep_trajectory else None

    utility = np.zeros(n_reps)
    discount = 1.0
    with _step_noise(noise, rng_cs, rng_is, horizon - 1,
                     (n_reps, d), (n_reps, N, d)) as draws:
        for t in range(horizon):
            # population-average cost: deviation terms per agent, mean terms shared
            cost = np.einsum("rni,ij,rnj->r", y, W_dev, y) / N + _quad(x_bar, W_mean)
            utility += discount * cost
            discount *= g
            if keep_trajectory:
                states[t] = y[0] + x_bar[0]
                means[t] = x_bar[0]
                u1_means[t] = -theta.L1 @ x_bar[0]
                u2_means[t] = theta.L2 @ x_bar[0]
            if t + 1 < horizon:
                w_common, w_idio = next(draws)
                y = _batch_apply(M_dev, y)
                y += w_idio
                m = y.mean(axis=1)
                y -= m[:, None, :]
                x_bar = _batch_apply(M_mean, x_bar)
                x_bar += w_common
                x_bar += m
                del w_common, w_idio
    if keep_trajectory:
        traj = NAgentTrajectory(states=states, means=means, u1_means=u1_means,
                                u2_means=u2_means, utility=float(utility[0]))
        return utility, traj
    return utility, None


def dump_trajectory_csv(traj: MkvTrajectory, path) -> None:
    """Write a mean-field trajectory as CSV: t, state coords, mean coords,
    both controls, and the stage cost."""
    d = traj.states.shape[1]
    ell = traj.u1.shape[1]
    header = (["t"]
              + [f"x{i}" for i in range(d)]
              + [f"xbar{i}" for i in range(d)]
              + [f"u1_{i}" for i in range(ell)]
              + [f"u2_{i}" for i in range(ell)]
              + ["c"])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for t in range(traj.states.shape[0]):
            row = ([t]
                   + [repr(float(v)) for v in traj.states[t]]
                   + [repr(float(v)) for v in traj.means[t]]
                   + [repr(float(v)) for v in traj.u1[t]]
                   + [repr(float(v)) for v in traj.u2[t]]
                   + [repr(float(traj.costs[t]))])
            writer.writerow(row)
