"""Closed-form evaluation of a stabilizing policy pair.

A policy pair is scored by two discounted Lyapunov-type matrices (one for
the deviation process, one for the mean process), the matching discounted
second-moment matrices, the exact utility, and the exact utility gradient
with respect to all four gain blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotStabilizing
from .model import (  # noqa: F401  (spectral_norm: looked up here by perfbench/spans.py)
    DerivedParams,
    LQBlock,
    ModelParams,
    PolicyPair,
    loop_stable,
    spectral_norm,
    validate,
)

MAX_DOUBLINGS = 64


def _dlyap(M: np.ndarray, source: np.ndarray, gamma: float) -> np.ndarray:
    """Solve P = source + gamma * M^T P M by Smith's doubling iteration.

    With A = sqrt(gamma) M, each step P <- P + A^T P A, A <- A A doubles the
    summed terms of sum_t (A^T)^t source A^t, until P stops changing in
    floating point: at most ~60 steps under the caller's gamma*||M||^2 < 1
    (57 for a scalar at 1 - 2**-53), so MAX_DOUBLINGS means non-finite input.
    """
    A = np.sqrt(gamma) * M
    P = source
    for _ in range(MAX_DOUBLINGS):
        P_next = P + A.T @ P @ A
        if (P_next == P).all():
            return P
        P, A = P_next, A @ A
    raise NotStabilizing("Lyapunov doubling did not converge")


def _require_stable(M: np.ndarray, gamma: float) -> None:
    if not loop_stable(M, gamma):
        raise NotStabilizing("closed loop fails gamma * ||M||^2 < 1")


def block_value(block: LQBlock, G1, G2, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """Closed loop M and value matrix P of one block under gains (G1, G2).

    P is the unique solution of P = Q + G1' R1 G1 - G2' R2 G2 + gamma M' P M
    with M = A - B1 G1 + B2 G2; M must pass the spectral-norm test.
    """
    G1 = np.atleast_2d(G1)
    G2 = np.atleast_2d(G2)
    M = block.closed_loop(G1, G2)
    _require_stable(M, gamma)
    source = block.Q + G1.T @ block.R1 @ G1 - G2.T @ block.R2 @ G2
    return M, _dlyap(M, source, gamma)


def solve_dev_value(params: ModelParams, K1, K2) -> np.ndarray:
    """Value matrix of the deviation process for gains (K1, K2).

    Unique solution of P = Q + K1' R1 K1 - K2' R2 K2 + gamma M' P M with
    M = A - B1 K1 + B2 K2.
    """
    return block_value(validate(params).dev, K1, K2, params.gamma)[1]


def solve_mean_value(params: ModelParams, L1, L2,
                     derived: DerivedParams | None = None) -> np.ndarray:
    """Value matrix of the mean process for gains (L1, L2); tilde variant."""
    der = derived if derived is not None else validate(params)
    return block_value(der.mean, L1, L2, params.gamma)[1]


def _second_moment(M: np.ndarray, V0: np.ndarray, W: np.ndarray,
                   gamma: float) -> np.ndarray:
    source = V0 + gamma / (1.0 - gamma) * W
    # Sigma = source + gamma M Sigma M'  ==  transposed-loop Lyapunov solve
    return _dlyap(M.T, source, gamma)


def discounted_second_moment(M: np.ndarray, V0: np.ndarray, W: np.ndarray,
                             gamma: float) -> np.ndarray:
    """Sum of gamma^t E[s_t s_t'] for s_{t+1} = M s_t + eps.

    E[s_0 s_0'] = V0 and Cov(eps) = W. Solves
    Sigma = V0 + gamma * M Sigma M' + gamma/(1-gamma) * W,
    which follows from summing the moment recursion V_{t+1} = M V_t M' + W.
    """
    M = np.atleast_2d(np.asarray(M, dtype=float))
    _require_stable(M, gamma)
    return _second_moment(M, np.atleast_2d(np.asarray(V0, dtype=float)),
                          np.atleast_2d(np.asarray(W, dtype=float)), gamma)


@dataclass(frozen=True)
class ValueSolution:
    """Closed-form evaluation of one policy pair.

    ``P_dev``/``P_mean`` are the Lyapunov-type value matrices,
    ``Sigma_dev``/``Sigma_mean`` the discounted second moments of the two
    processes, and ``cost = cost_dev + cost_mean`` is the exact utility.
    """

    P_dev: np.ndarray
    P_mean: np.ndarray
    Sigma_dev: np.ndarray
    Sigma_mean: np.ndarray
    cost_dev: float
    cost_mean: float
    cost: float


@dataclass(frozen=True)
class GradientPair:
    """Exact utility gradient, one block per gain matrix."""

    dK1: np.ndarray
    dL1: np.ndarray
    dK2: np.ndarray
    dL2: np.ndarray

    def blocks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return self.dK1, self.dL1, self.dK2, self.dL2

    def max_abs(self) -> float:
        return max(float(np.max(np.abs(b))) for b in self.blocks())


def exact_utility(params: ModelParams, theta: PolicyPair,
                  derived: DerivedParams | None = None) -> ValueSolution:
    """Exact discounted utility of a stabilizing policy pair.

    cost_dev = tr(P_dev V0_dev) + gamma/(1-gamma) tr(P_dev W_dev), and the
    mean part analogously; the total is their sum.
    """
    der = derived if derived is not None else validate(params)
    theta.check_dims(params)
    g = params.gamma
    tail = g / (1.0 - g)
    parts = []
    for block, G1, G2 in der.blocks(theta):
        M, P = block_value(block, G1, G2, g)
        cost = float(np.trace(P @ block.V0) + tail * np.trace(P @ block.W))
        parts.append((P, _second_moment(M, block.V0, block.W, g), cost))
    (P_dev, Sigma_dev, cost_dev), (P_mean, Sigma_mean, cost_mean) = parts
    return ValueSolution(
        P_dev=P_dev, P_mean=P_mean,
        Sigma_dev=Sigma_dev, Sigma_mean=Sigma_mean,
        cost_dev=cost_dev, cost_mean=cost_mean,
        cost=cost_dev + cost_mean,
    )


def gradient_coefs(block: LQBlock, P: np.ndarray, G1, G2,
                   gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """Left factors c1, c2 of the block utility gradient 2 c_i Sigma in G1, G2:

      c1 = (R1 + g B1'PB1) G1 - g B1'PB2 G2 - g B1'P A
      c2 = -g B2'PB1 G1 + (-R2 + g B2'PB2) G2 + g B2'P A
    """
    g = gamma
    B1, B2 = block.B1, block.B2
    B1PB1 = B1.T @ P @ B1
    B1PB2 = B1.T @ P @ B2
    B2PB1 = B2.T @ P @ B1
    B2PB2 = B2.T @ P @ B2
    B1PA = B1.T @ P @ block.A
    B2PA = B2.T @ P @ block.A
    coef_1 = (block.R1 + g * B1PB1) @ G1 - g * B1PB2 @ G2 - g * B1PA
    coef_2 = -g * B2PB1 @ G1 + (-block.R2 + g * B2PB2) @ G2 + g * B2PA
    return coef_1, coef_2


def exact_gradient(params: ModelParams, theta: PolicyPair,
                   derived: DerivedParams | None = None,
                   solution: ValueSolution | None = None) -> GradientPair:
    """Exact utility gradient with respect to (K1, L1, K2, L2).

    Each block is 2 c_i Sigma with the ``gradient_coefs`` of its part: the
    deviation part for K1, K2 and the tilde analogue for L1, L2.
    ``solution`` is ``exact_utility`` at theta when the caller already has it.
    """
    der = derived if derived is not None else validate(params)
    sol = solution if solution is not None else exact_utility(params, theta, der)
    parts = []
    for (block, G1, G2), P, Sigma in zip(der.blocks(theta), (sol.P_dev, sol.P_mean),
                                         (sol.Sigma_dev, sol.Sigma_mean)):
        coef_1, coef_2 = gradient_coefs(block, P, G1, G2, params.gamma)
        parts.append((2.0 * coef_1 @ Sigma, 2.0 * coef_2 @ Sigma))
    (dK1, dK2), (dL1, dL2) = parts
    return GradientPair(dK1=dK1, dL1=dL1, dK2=dK2, dL2=dL2)
