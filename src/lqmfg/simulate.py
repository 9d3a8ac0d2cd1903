"""Stochastic rollout engines, which yield steps, and their reductions.

`_mkv_steps` and `_nagent_steps` yield each step's state and stage cost.
The utility batches are their discounted sums by `_discounted`, the one
place a rollout utility is summed and checked: a path whose sum overflowed
raises NonFiniteRollout; `simulate_mkv` collects path 0 of a one-path
mean-field run.

Both views of the game step through the closed loops M and score with the
stage weights W of its two blocks (`LQBlock.closed_loop`,
`LQBlock.stage_weights`). The mean-field engine steps a state's deviation
y from its conditional mean and that mean z as one (2, n, d) stack
s = (y, z): s <- M s + w, scored as the sum over blocks of s' W s. Shared
gains are always folded into M and W. One player's per-path gains, a
(2, n, ell, d) stack G laid out like its slice of `PolicyPair.stack`, are
folded only where per-path (2, n, d, d) loops are no larger than G
(d <= ell); otherwise that player acts through u = G s, with its signed
B u in the step and u' R u in the cost. The finite-population engine
steps N coupled agents as their deviations y from the empirical mean and
that mean x-bar.
Every step recentres y on its mean (the step's mean idiosyncratic draw, up
to rounding), which then moves x-bar, so agents that start and stay alike
keep y exactly zero.

Randomness discipline: every rollout derives four named streams from its
seed -- common-init, idio-init, common-step, idio-step, in that order -- so
extending the horizon never reshuffles earlier draws, and engines sharing a
seed share the common-noise path draw-for-draw.

The step draws do not depend on the state. The mean-field engine draws its
idio-step stream ahead (`_step_noise`): one helper thread, opened by the
engine's first step and joined when it ends or is closed, draws k steps at
a time as one (k, n_paths, d) array (k steps fit in `_DRAW_AHEAD_BYTES`, 4
of the 10^4 scalar paths of a gradient estimate), while the calling thread
draws the common step and runs the dynamics. The population engine starts
no thread and keeps one (n_reps, N, d) array of y: it steps y in place, in
blocks of at most `_DRAW_AHEAD_BYTES`, each multiplied through its closed
loop and then given its idio-step draw, so that two rollouts side by side
(the population sweep's) hold little more than their two states. A
generator fills an array in order, so every rollout keeps the bits of one
draw per step and stream. A product with a matrix shared over the batch is
one BLAS call (`_batch_apply`, one per block of y, or one per block in
`_stack_apply`); at d = 1 it is an elementwise product, and per-path
stacks use one `einsum`.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .errors import NonFiniteRollout
from .model import LQBlock, ModelParams, NoiseSpec, PolicyPair, validate

# bytes of idio-step noise drawn at once (4 steps of 10^4 scalar paths)
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
    """Iterator over `steps` step-noise pairs (w_common, w_idio) of the
    mean-field engine: the idio-step stream is drawn ahead on one helper
    thread that lives as long as the `with` block, the common-step one
    inline on the calling thread.

    The idio-step stream is drawn k steps at a time as one (k, *shape)
    array; the first chunk is submitted on entry and each next one as soon
    as the current one is taken. Each pair then draws its common step and
    yields it with a per-step view of the chunk. Callers drop their views
    before taking the next pair, so that memory can go to the chunk after
    it. On an early exit the chunk in flight is waited for and dropped.
    """
    k = max(1, _DRAW_AHEAD_BYTES // (8 * math.prod(idio_shape)))

    def draw(n):
        return noise.step_idio.sample(rng_is, (n, *idio_shape))

    from concurrent.futures import ThreadPoolExecutor  # on call: exact runs start no thread

    with ThreadPoolExecutor(max_workers=1) as pool:
        pending = pool.submit(draw, min(k, steps)) if steps else None

        def views():
            nonlocal pending
            left = steps
            while left:
                chunk = pending.result()
                left -= len(chunk)
                pending = pool.submit(draw, min(k, left)) if left else None
                for w_idio in chunk:
                    yield noise.step_common.sample(rng_cs, common_shape), w_idio

        yield views()


def _batch_apply(G: np.ndarray, v: np.ndarray) -> np.ndarray:
    """G v for every vector of the batch v (..., d), as one BLAS call on the
    batch's 2-D view (`np.dot` on a 3-D array is slower than `matmul`)."""
    flat = np.dot(v.reshape(-1, v.shape[-1]), G.T)
    return flat.reshape(v.shape[:-1] + (G.shape[0],))


def _quad(v, W):
    """v' W v for every vector of the batch v (..., d)."""
    return np.einsum("...i,ij,...j->...", v, W, v)


def _stack_apply(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """M v for every vector of the (2, n, c) block stack v, with M (2, 1, r, c)
    shared over the paths or (2, n, r, c) per path: a product at c = 1, one
    BLAS call per block for shared matrices, one `einsum` otherwise."""
    if M.shape[-1] == 1:
        return M[..., 0] * v
    if M.shape[1] == 1:
        return np.matmul(v, M[:, 0].swapaxes(-1, -2))
    return np.einsum("bnij,bnj->bni", M, v)


def _stack_quad(W: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Sum over both blocks of v' W v, per path, for a stack as in
    `_stack_apply`."""
    return np.einsum("bni,bni->n", _stack_apply(W, v), v)


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


def _discounted(gamma: float, costs) -> np.ndarray:
    """sum_t gamma^t c_t over a rollout's per-step stage costs, in step
    order from +0.0 (a rollout of -0.0 costs is worth +0.0).

    One `isfinite` pass over the sums raises NonFiniteRollout if any path
    overflowed: an overflowing step leaves its path's sum inf or NaN, and
    an overflow inside BLAS or `einsum` raises no floating-point warning."""
    utility, discount, steps = 0.0, 1.0, 0
    for steps, cost in enumerate(costs, 1):
        utility += discount * cost
        discount *= gamma
    bad = np.size(utility) - np.count_nonzero(np.isfinite(utility))
    if bad:
        raise NonFiniteRollout(f"{bad} of {np.size(utility)} rollout utilities "
                               f"are not finite after {steps} steps")
    return utility


def simulate_mkv(params: ModelParams, theta: PolicyPair, horizon: int,
                 seed: int) -> MkvTrajectory:
    """Roll out the mean-field dynamics for `horizon` steps.

    The rollout is path 0 of a one-path `mkv_utility_batch` run. The
    conditional mean starts at the common draw plus the idiosyncratic mean
    and follows the aggregated recursion driven by the common noise only.
    Identical seeds give bit-identical trajectories.
    """
    path0, costs = zip(*((s[:, 0], cost) for s, cost
                         in _mkv_steps(params, theta, horizon, 1, seed, None)))
    path0 = np.stack(path0)  # (T, 2, d): deviation and mean
    # the controls from the states: u_i = +-(G_i over both blocks)
    u = np.einsum("pbij,tbj->tpi", theta.stack, path0)
    return MkvTrajectory(states=path0[:, 0] + path0[:, 1], means=path0[:, 1].copy(),
                         u1=-u[:, 0], u2=u[:, 1], costs=np.concatenate(costs),
                         utility=float(_discounted(params.gamma, costs)[0]))


def mkv_utility_batch(params: ModelParams, theta: PolicyPair, horizon: int,
                      n_paths: int, seed, per_path=None) -> np.ndarray:
    """Utilities of `n_paths` independent mean-field rollouts (vectorized).

    `per_path = (player, G)` gives player 1 or 2 its own gains on every
    path: G is a (2, n_paths, ell, d) stack of its (K, L) blocks, laid out
    like `theta.stack[player - 1]` along a path axis, and is only read. The
    other player's gains, and both players' without `per_path`, are shared
    across paths. Draws come from the four named streams, one batched draw
    per step, so `nagent_utility_batch` given the same seed sees the same
    common-noise arrays.
    """
    steps = _mkv_steps(params, theta, horizon, n_paths, seed, per_path)
    # unlike a generator expression, map holds no state of a step while the
    # engine makes the next one
    return _discounted(params.gamma, map(itemgetter(-1), steps))


def _mkv_steps(params: ModelParams, theta: PolicyPair, horizon: int,
               n_paths: int, seed, per_path):
    """Yield (s, cost) at t = 0 ... horizon-1: the (2, n_paths, d) stack
    s = (y, z) and its (n_paths,) stage cost. No yielded array is written
    to afterwards; closing the generator early joins the helper thread."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    der = validate(params)
    theta.check_dims(params)
    d, ell = params.d, params.ell
    noise = params.noise
    # each player's gains stacked like `der.stack` along a path axis:
    # (2, 1, ell, d) when shared, (2, n_paths, ell, d) per path
    gains = [theta.stack[0][:, None], theta.stack[1][:, None]]
    if per_path is not None:
        player, G = per_path
        if player not in (1, 2):
            raise ValueError(f"per_path player must be 1 or 2, got {player!r}")
        G = np.asarray(G, dtype=float)
        if G.shape != (2, n_paths, ell, d):
            raise ValueError(f"per_path gains must be {(2, n_paths, ell, d)}, got {G.shape}")
        gains[player - 1] = G
    # fold each player's gains into the closed loops M and stage weights W,
    # unless per-path loops (2, n, d, d) would outgrow its gain stack; a
    # player in gain form acts through u = G s, weighed with signed B and R
    wide = LQBlock(*(m[:, None] for m in vars(der.stack).values()))
    gain_form = [G.shape[1] > 1 and d > ell for G in gains]
    G1, G2 = (np.zeros((2, 1, ell, d)) if g else G for G, g in zip(gains, gain_form))
    M, W = wide.closed_loop(G1, G2), wide.stage_weights(G1, G2)
    terms = [(G, B, R) for G, B, R, g in zip(gains, (-wide.B1, wide.B2),
                                             (wide.R1, -wide.R2), gain_form) if g]

    rng_ci, rng_ii, rng_cs, rng_is = _streams(seed)
    # the step streams are not the initial ones, so the first chunk is
    # drawn while the initial states are
    with _step_noise(noise, rng_cs, rng_is, horizon - 1,
                     (n_paths, d), (n_paths, d)) as draws:
        eps_common = noise.init_common.sample(rng_ci, (n_paths, d))
        eps_idio = noise.init_idio.sample(rng_ii, (n_paths, d))
        idio_mean = noise.init_idio.mean(d)
        # the deviation y and the mean z step as one state s = (y, z); the
        # idiosyncratic-noise-free case keeps y zero, so the state equals its
        # mean bit for bit
        s = np.stack((eps_idio - idio_mean, eps_common + idio_mean))
        del eps_common, eps_idio

        for t in range(horizon):
            us = [_stack_apply(G, s) for G, _, _ in terms]
            cost = _stack_quad(W, s)
            for u, (_, _, R) in zip(us, terms):
                cost += _stack_quad(R, u)
            yield s, cost
            if t + 1 < horizon:
                w_common, w_idio = next(draws)
                s = _stack_apply(M, s)
                for u, (_, B, _) in zip(us, terms):
                    s += _stack_apply(B, u)
                s[0] += w_idio
                s[1] += w_common
                del w_common, w_idio


def nagent_utility_batch(params: ModelParams, theta: PolicyPair, N: int,
                         horizon: int, n_reps: int, seed) -> np.ndarray:
    """Utilities of `n_reps` independent N-agent rollouts.

    Common-noise draws have shape (n_reps, d) per step, matching
    `mkv_utility_batch` under the same seed, so population and mean-field
    samples can be paired path-by-path."""
    steps = _nagent_steps(params, theta, N, horizon, seed, n_reps)
    return _discounted(params.gamma, map(itemgetter(-1), steps))


def _nagent_steps(params: ModelParams, theta: PolicyPair, N: int,
                  horizon: int, seed, n_reps: int):
    """Yield (y, x_bar, cost) at t = 0 ... horizon-1: the (n_reps, N, d)
    deviations, their (n_reps, d) mean and the (n_reps,) population-average
    stage cost. y is stepped in place, so a yielded y holds its values
    until the next step is requested; x_bar and the cost are never written
    to afterwards. The engine draws inline and starts no thread."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if n_reps < 1:
        raise ValueError("n_reps must be >= 1")
    der = validate(params)
    theta.check_dims(params)
    d = params.d
    noise = params.noise
    # closed loops and stage weights of both blocks, ungated: any gains roll out
    G1, G2 = theta.stack
    M_dev, M_mean = der.stack.closed_loop(G1, G2)
    W_dev, W_mean = der.stack.stage_weights(G1, G2)
    rng_ci, rng_ii, rng_cs, rng_is = _streams(seed)

    eps_common = noise.init_common.sample(rng_ci, (n_reps, d))
    y = noise.init_idio.sample(rng_ii, (n_reps, N, d))  # recentred in place
    m = y.mean(axis=1)
    y -= m[:, None, :]
    x_bar = eps_common + m

    rows = max(1, _DRAW_AHEAD_BYTES // (8 * d))  # agent rows per step draw
    for t in range(horizon):
        # population-average cost: deviation terms per agent, mean terms shared
        cost = np.einsum("rni,ij,rnj->r", y, W_dev, y) / N + _quad(x_bar, W_mean)
        yield y, x_bar, cost
        if t + 1 < horizon:
            w_common = noise.step_common.sample(rng_cs, (n_reps, d))
            # step y in place block by block, each block's product through
            # one block-sized temporary, and add the idio-step draw in the
            # order one (n_reps, N, d) draw fills
            flat = y.reshape(-1, d)
            for start in range(0, len(flat), rows):
                block = flat[start:start + rows]
                block[...] = np.dot(block, M_dev.T)
                block += noise.step_idio.sample(rng_is, block.shape)
            m = y.mean(axis=1)
            y -= m[:, None, :]
            x_bar = _batch_apply(M_mean, x_bar)
            x_bar += w_common
            x_bar += m
