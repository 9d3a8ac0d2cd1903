"""N-agent trajectories, kept as test-only references.

`simulate_n_agent` is replication 0 of a one-replication run of the
package's engine, `simulate._nagent_steps`, with the agents' states and
empirical means kept per step. `_nagent_engine` is the population engine
as it stood before it stepped the closed loops in (y, x-bar) coordinates:
each step forms every agent's controls, their empirical means and the
stage cost term by term, then the state x of every agent. The current
engine must reproduce it to rounding.
"""

from dataclasses import dataclass

import numpy as np

from lqmfg.model import ModelParams, PolicyPair, validate
from lqmfg.simulate import (_batch_apply, _discounted, _nagent_steps, _quad,
                            _step_noise, _streams)


@dataclass(frozen=True)
class NAgentTrajectory:
    """One finite-population rollout with empirical means."""

    states: np.ndarray       # (T, N, d)
    means: np.ndarray        # (T, d)
    u1_means: np.ndarray     # (T, ell)
    u2_means: np.ndarray     # (T, ell)
    utility: float


def simulate_n_agent(params: ModelParams, theta: PolicyPair, N: int,
                     horizon: int, seed: int) -> NAgentTrajectory:
    """Roll out N coupled agents sharing the common noise path.

    Controls use the empirical state mean; the reported utility is the
    discounted sum of population-average stage costs. The rollout is
    replication 0 of a one-replication `nagent_utility_batch` run. Each
    step's state y[0] + x_bar[0] is a new array formed as the step is
    yielded, because the engine steps y in place at the next step.
    """
    states, means, costs = zip(*((y[0] + x_bar[0], x_bar[0], cost) for y, x_bar, cost
                                 in _nagent_steps(params, theta, N, horizon, seed, 1)))
    return NAgentTrajectory(states=np.array(states), means=np.array(means),
                            u1_means=np.array([-theta.L1 @ m for m in means]),
                            u2_means=np.array([theta.L2 @ m for m in means]),
                            utility=float(_discounted(params.gamma, costs)[0]))


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
    rng_ci, rng_ii, rng_cs, rng_is = _streams(seed)

    eps_common = noise.init_common.sample(rng_ci, (n_reps, d))
    eps_idio = noise.init_idio.sample(rng_ii, (n_reps, N, d))
    x = eps_common[:, None, :] + eps_idio

    states = np.empty((horizon, N, d)) if keep_trajectory else None
    means = np.empty((horizon, d)) if keep_trajectory else None
    u1_means = np.empty((horizon, ell)) if keep_trajectory else None
    u2_means = np.empty((horizon, ell)) if keep_trajectory else None

    utility = np.zeros(n_reps)
    discount = 1.0
    with _step_noise(noise, rng_cs, rng_is, horizon - 1,
                     (n_reps, d), (n_reps, N, d)) as draws:
        for t in range(horizon):
            x_mean = x.mean(axis=1)                      # (reps, d)
            y = x - x_mean[:, None, :]                   # (reps, N, d)
            u1 = _batch_apply(-theta.K1, y) - _batch_apply(theta.L1, x_mean)[:, None, :]
            u2 = _batch_apply(theta.K2, y) + _batch_apply(theta.L2, x_mean)[:, None, :]
            u1_mean = u1.mean(axis=1)
            u2_mean = u2.mean(axis=1)
            du1 = u1 - u1_mean[:, None, :]
            du2 = u2 - u2_mean[:, None, :]
            # population-average cost: per-agent deviation terms + shared mean terms
            dev_part = (np.einsum("rni,ij,rnj->r", y, params.Q, y)
                        + np.einsum("rni,ij,rnj->r", du1, params.R1, du1)
                        - np.einsum("rni,ij,rnj->r", du2, params.R2, du2)) / N
            mean_part = (_quad(x_mean, der.mean.Q) + _quad(u1_mean, der.mean.R1)
                         - _quad(u2_mean, der.mean.R2))
            cbar = dev_part + mean_part
            utility += discount * cbar
            discount *= g
            if keep_trajectory:
                states[t] = x[0]
                means[t] = x_mean[0]
                u1_means[t] = u1_mean[0]
                u2_means[t] = u2_mean[0]
            if t + 1 < horizon:
                w_common, w_idio = next(draws)
                del y, du1, du2  # the in-flight draw takes their memory
                x = _batch_apply(params.A, x)
                x += _batch_apply(params.A_bar, x_mean)[:, None, :]
                x += _batch_apply(params.B1, u1)
                x += _batch_apply(params.B1_bar, u1_mean)[:, None, :]
                x += _batch_apply(params.B2, u2)
                x += _batch_apply(params.B2_bar, u2_mean)[:, None, :]
                x += w_common[:, None, :]
                x += w_idio
                del w_common, w_idio
    if keep_trajectory:
        traj = NAgentTrajectory(states=states, means=means, u1_means=u1_means,
                                u2_means=u2_means, utility=float(utility[0]))
        return utility, traj
    return utility, None
