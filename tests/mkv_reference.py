"""The mean-field engine as it stood before it stepped one stacked state,
kept as a test-only reference.

This engine propagates the deviation y and the conditional mean z as two
arrays and writes the split out term by term at every step: four gain
products, the six quadratic forms of `stage_cost` and six batch products
in the state update. The current engine must reproduce it to rounding.
"""

import numpy as np

from lqmfg.model import DerivedParams, ModelParams, PolicyPair, validate
from lqmfg.simulate import (MkvTrajectory, _batch_apply, _quad, _step_noise,
                            _streams)


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


def _gain_apply(G: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Apply a gain to a batch of vectors; G is (ell, d) or (n, ell, d)."""
    if G.ndim == 2:
        return _batch_apply(G, v)
    return np.einsum("nij,nj->ni", G, v)


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
