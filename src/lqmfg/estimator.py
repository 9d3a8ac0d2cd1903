"""Sample-based gradient estimation from black-box utility rollouts.

For one player at a time: draw M pairs of sphere perturbations for that
player's two gain blocks, score each jointly-perturbed policy with one
truncated mean-field rollout, and average utility-weighted perturbations.
The opponent's gains are never touched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateDraw
from .model import ModelParams, PolicyPair
from .simulate import mkv_utility_batch

_MAX_REDRAWS = 100


@dataclass(frozen=True)
class EstimatorConfig:
    """Perturbation count M, rollout truncation horizon, sphere radius tau,
    and the seed all randomness derives from."""

    M: int
    horizon: int
    tau: float
    seed: int

    def __post_init__(self):
        if self.M < 1:
            raise ValueError("M must be >= 1")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if not 0 < self.tau < np.inf:  # also rejects NaN
            raise ValueError("tau must be positive and finite")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def _sphere_stack(n: int, dim: int, tau: float, rng: np.random.Generator) -> np.ndarray:
    """n independent sphere draws, shape (n, dim)."""
    v = rng.standard_normal((n, dim))
    norms = np.linalg.norm(v, axis=1)
    for _ in range(_MAX_REDRAWS):
        bad = norms == 0.0
        if not bad.any():
            return tau * v / norms[:, None]
        v[bad] = rng.standard_normal((int(bad.sum()), dim))
        norms[bad] = np.linalg.norm(v[bad], axis=1)
    raise DegenerateDraw(f"all-zero Gaussian draws {_MAX_REDRAWS} times in a row")


# quoted: evaluating np.random here would load it in runs that draw nothing
UtilityFn = Callable[[tuple[int, np.ndarray], "np.random.SeedSequence"], np.ndarray]


def estimate_gradient(
    params: ModelParams,
    theta: PolicyPair,
    player: int,
    cfg: EstimatorConfig,
    utility_fn: UtilityFn | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Estimated utility gradient for one player's (K, L) blocks.

    Per perturbation i, both of the player's blocks get independent sphere
    perturbations v_i = (v_K_i, v_L_i), drawn into one (2, M, ell, d) stack,
    and one utility sample scores them jointly:
      grad_K ~= (D / tau^2) * mean_i(C_i * v_K_i),   D = ell * d entries.

    `utility_fn` defaults to batched mean-field rollouts; tests may inject
    a surrogate. Like `mkv_utility_batch`'s `per_path`, it receives
    (player, G) with the perturbed gains G = theta.stack[player - 1] + v
    (the opponent's gains are theta's), and a seed sequence for rollout noise.
    """
    if player not in (1, 2):
        raise ValueError("player must be 1 or 2")
    theta.check_dims(params)
    ell, d = params.ell, params.d
    block_dim = ell * d

    root = np.random.SeedSequence(int(cfg.seed))
    pert_ss, sim_ss = root.spawn(2)
    rng = np.random.default_rng(pert_ss)
    v = np.stack([_sphere_stack(cfg.M, block_dim, cfg.tau, rng).reshape(cfg.M, ell, d)
                  for _ in range(2)])
    per_path = (player, theta.stack[player - 1][:, None] + v)

    if utility_fn is None:
        utilities = mkv_utility_batch(params, theta, cfg.horizon, cfg.M, sim_ss, per_path)
    else:
        utilities = np.asarray(utility_fn(per_path, sim_ss), dtype=float)
    if utilities.shape != (cfg.M,):
        raise ValueError(f"utility samples must have shape ({cfg.M},)")

    scale = block_dim / cfg.tau**2
    grad_K, grad_L = (scale * np.einsum("m,mij->ij", utilities, v[b]) / cfg.M
                      for b in (0, 1))
    return grad_K, grad_L
