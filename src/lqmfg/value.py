"""Closed-form evaluation of a stabilizing policy pair.

A policy pair is scored by the value and discounted second-moment matrices
of the deviation and the mean process, the exact utility and its gradient in
all four gains. Both processes are evaluated at once, on arrays stacked
along a leading (dev, mean) axis: one stability gate, one doubling loop.

At d = ell = 1 the same formulas run on the eight entries of each block as
Python floats, with the bits of the stacked path: a 1x1 matmul or trace is
one rounded product that numpy sums onto +0.0, so each is written
``x * y + 0.0``, which turns -0.0 into +0.0 as numpy does. Python floats
overflow without a warning, so a pair whose loop fails the gate, or whose
value or gradient is not finite, reruns on the stacked path and raises or
warns there.
"""

from __future__ import annotations

import math
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


def _mT(x: np.ndarray) -> np.ndarray:
    return x.swapaxes(-1, -2)


def _smith(a: float, p: float) -> float:
    """``_dlyap``'s doubling steps on one scalar a = sqrt(gamma) m, on Python
    floats, bit for bit: a 1x1 matmul is one rounded product, Python has no
    fused multiply-add, and a signed zero cannot change a retired P. NaN at
    the cap."""
    for _ in range(MAX_DOUBLINGS):
        p_next = p + a * p * a
        if p_next == p:
            return p
        p, a = p_next, a * a
    return float("nan")


def _dlyap(M: np.ndarray, source: np.ndarray, gamma: float) -> np.ndarray:
    """Solve P = source + gamma * M^T P M for each slice of the stacks M and
    source (k, d, d) by Smith's doubling iteration.

    With A = sqrt(gamma) M, each step P <- P + A^T P A, A <- A A doubles the
    summed terms of sum_t (A^T)^t source A^t. A slice leaves the stack at the
    first step its P stops changing in floating point, with the bits of a loop
    over it alone: at most ~60 steps under gamma*||M||^2 < 1 (58 for a scalar
    at exactly 1 - 2**-53), so MAX_DOUBLINGS means non-finite input.
    """
    A = np.sqrt(gamma) * M
    P, out, rows = source, np.empty_like(source), np.arange(len(source))
    for _ in range(MAX_DOUBLINGS):
        P_next = P + _mT(A) @ P @ A
        eq = P_next == P
        if eq.any() and (done := eq.all(axis=(-2, -1))).any():
            out[rows[done]] = P[done]
            if done.all():
                return out
            rows, P_next, A = rows[~done], P_next[~done], A[~done]
        P, A = P_next, A @ A
    raise NotStabilizing("Lyapunov doubling did not converge")


def _require_stable(M: np.ndarray, gamma: float) -> None:
    if not loop_stable(M, gamma):
        raise NotStabilizing("closed loop fails gamma * ||M||^2 < 1")


def _gated_loop(block: LQBlock, G1, G2, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """Closed loops M = A - B1 G1 + B2 G2 and value sources
    Q + G1' R1 G1 - G2' R2 G2 of stacked gains (G1, G2) (k, ell, d), on the
    slices of stacked blocks or on one block broadcast. Raises NotStabilizing
    unless every M passes ``loop_stable``."""
    M = block.closed_loop(G1, G2)
    _require_stable(M, gamma)
    return M, block.stage_weights(G1, G2)


def block_value(block: LQBlock, G1, G2, gamma: float) -> np.ndarray:
    """Value matrices P = source + gamma M' P M of the ``_gated_loop`` stacks."""
    return _dlyap(*_gated_loop(block, G1, G2, gamma), gamma)


def _one(G) -> np.ndarray:
    """A gain matrix as a stack of one."""
    return np.atleast_2d(np.asarray(G, dtype=float))[None]


def solve_dev_value(params: ModelParams, K1, K2) -> np.ndarray:
    """Value matrix of the deviation process for gains (K1, K2).

    Unique solution of P = Q + K1' R1 K1 - K2' R2 K2 + gamma M' P M with
    M = A - B1 K1 + B2 K2.
    """
    return block_value(validate(params).dev, _one(K1), _one(K2), params.gamma)[0]


def solve_mean_value(params: ModelParams, L1, L2,
                     derived: DerivedParams | None = None) -> np.ndarray:
    """Value matrix of the mean process for gains (L1, L2); tilde variant."""
    der = derived if derived is not None else validate(params)
    return block_value(der.mean, _one(L1), _one(L2), params.gamma)[0]


def discounted_second_moment(M: np.ndarray, V0: np.ndarray, W: np.ndarray,
                             gamma: float) -> np.ndarray:
    """Sum of gamma^t E[s_t s_t'] for s_{t+1} = M s_t + eps.

    E[s_0 s_0'] = V0 and Cov(eps) = W. Solves
    Sigma = V0 + gamma * M Sigma M' + gamma/(1-gamma) * W,
    which follows from summing the moment recursion V_{t+1} = M V_t M' + W,
    as the Lyapunov solve of the transposed loop.
    """
    M, V0, W = (_one(x) for x in (M, V0, W))
    _require_stable(M, gamma)
    return _dlyap(_mT(M), V0 + gamma / (1.0 - gamma) * W, gamma)[0]


@dataclass(frozen=True)
class ValueSolution:
    """Closed-form evaluation of one policy pair.

    ``P``/``Sigma`` stack the value matrices and discounted second moments
    of the (dev, mean) processes as the doubling loop returned them, with
    slices ``P_dev`` ... ``Sigma_mean``. ``cost = cost_dev + cost_mean`` is
    the exact utility.
    """

    P: np.ndarray
    Sigma: np.ndarray
    cost_dev: float
    cost_mean: float
    cost: float

    P_dev = property(lambda self: self.P[0])
    P_mean = property(lambda self: self.P[1])
    Sigma_dev = property(lambda self: self.Sigma[0])
    Sigma_mean = property(lambda self: self.Sigma[1])


@dataclass(frozen=True)
class GradientPair:
    """Utility gradient in the four gains, one (2, 2, ell, d) array laid out
    like ``PolicyPair.stack``; ``dK1`` ... ``dL2`` are its slices."""

    stack: np.ndarray

    dK1 = property(lambda self: self.stack[0, 0])
    dL1 = property(lambda self: self.stack[0, 1])
    dK2 = property(lambda self: self.stack[1, 0])
    dL2 = property(lambda self: self.stack[1, 1])

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.stack)))


def exact_utility(params: ModelParams, theta: PolicyPair) -> ValueSolution:
    """Exact discounted utility of a stabilizing policy pair.

    cost_dev = tr(P_dev V0_dev) + gamma/(1-gamma) tr(P_dev W_dev), and the
    mean part analogously; the total is their sum. Both blocks are gated by
    one ``loop_stable`` call, and their four Lyapunov equations (P on M,
    Sigma on M') are solved in one doubling loop; at d = 1 on Python floats,
    with the same bits (module docstring).
    """
    der = validate(params)
    g = params.gamma
    tail = g / (1.0 - g)
    if _on_floats(params, theta):
        sol = _scalar_utility(der.scalars, theta.stack.ravel().tolist(), g, tail)
        if sol is not None:
            return sol
    S = der.stack
    M, source = _gated_loop(S, *theta.stack, g)
    solved = _dlyap(np.concatenate((M, _mT(M))),
                    np.concatenate((source, S.V0 + tail * S.W)), g)
    P = solved[:2]
    cost = ((P @ S.V0).trace(axis1=-2, axis2=-1)
            + tail * (P @ S.W).trace(axis1=-2, axis2=-1))
    cost_dev, cost_mean = float(cost[0]), float(cost[1])
    return ValueSolution(P, solved[2:], cost_dev, cost_mean, cost_dev + cost_mean)


def gradient_coefs(block: LQBlock, P: np.ndarray, G1, G2,
                   gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """Left factors c1, c2 of the block utility gradient 2 c_i Sigma in G1, G2,
    slice by slice on stacked blocks, P and gains:

      c1 = (R1 + g B1'PB1) G1 - g B1'PB2 G2 - g B1'P A
      c2 = -g B2'PB1 G1 + (-R2 + g B2'PB2) G2 + g B2'P A
    """
    g, B1, B2, A = gamma, block.B1, block.B2, block.A
    B1P, B2P = _mT(B1) @ P, _mT(B2) @ P
    coef_1 = (block.R1 + g * (B1P @ B1)) @ G1 - g * (B1P @ B2) @ G2 - g * (B1P @ A)
    coef_2 = -g * (B2P @ B1) @ G1 + (-block.R2 + g * (B2P @ B2)) @ G2 + g * (B2P @ A)
    return coef_1, coef_2


def exact_gradient(params: ModelParams, theta: PolicyPair,
                   solution: ValueSolution | None = None) -> GradientPair:
    """Exact utility gradient with respect to (K1, L1, K2, L2).

    Each block is 2 c_i Sigma with the ``gradient_coefs`` of its part: the
    deviation part for K1, K2 and the tilde analogue for L1, L2, both parts
    in one stacked pass.
    ``solution`` is ``exact_utility`` at theta when the caller already has it.
    """
    sol = solution if solution is not None else exact_utility(params, theta)
    der = validate(params)
    if _on_floats(params, theta):
        grad = _scalar_gradient(der.scalars, theta.stack.ravel().tolist(),
                                sol.P.ravel().tolist(), sol.Sigma.ravel().tolist(),
                                params.gamma)
        if grad is not None:
            return grad
    coefs = np.array(gradient_coefs(der.stack, sol.P, *theta.stack, params.gamma))
    return GradientPair(2.0 * coefs @ sol.Sigma)


def _on_floats(params: ModelParams, theta: PolicyPair) -> bool:
    """Whether theta is scored on Python floats (d = ell = 1, module
    docstring); raises DimensionMismatch unless theta fits params."""
    theta.check_dims(params)
    return params.d == params.ell == 1


def _scalar_utility(blocks, gains, g: float, tail: float) -> ValueSolution | None:
    """``exact_utility`` on the ``DerivedParams.scalars`` blocks and the
    gains [K1, L1, K2, L2] as Python floats; None where a loop fails the
    gate or a result is not finite."""
    root, loops = math.sqrt(g), []
    for blk, G1, G2 in zip(blocks, gains[:2], gains[2:]):
        m = blk.A - (blk.B1 * G1 + 0.0) + (blk.B2 * G2 + 0.0)
        if not g * abs(m) * abs(m) < 1.0:  # loop_stable at d = 1; fails NaN
            return None
        loops.append(root * m)  # _dlyap's A
    P, Sigma, costs = [], [], []
    for blk, G1, G2, root_m in zip(blocks, gains[:2], gains[2:], loops):
        p = _smith(root_m, blk.Q + ((G1 * blk.R1 + 0.0) * G1 + 0.0)
                   - ((G2 * blk.R2 + 0.0) * G2 + 0.0))
        P.append(p)
        Sigma.append(_smith(root_m, blk.V0 + tail * blk.W))
        costs.append((p * blk.V0 + 0.0) + tail * (p * blk.W + 0.0))
    if not all(map(math.isfinite, P + Sigma + costs)):
        return None
    solved = np.array(P + Sigma).reshape(4, 1, 1)
    return ValueSolution(solved[:2], solved[2:], *costs, costs[0] + costs[1])


def _scalar_gradient(blocks, gains, P, Sigma, g: float) -> GradientPair | None:
    """``exact_gradient``'s ``gradient_coefs`` formulas on Python floats, as
    in ``_scalar_utility``; None where an entry is not finite."""
    player_1, player_2 = [], []  # (dK1, dL1), (dK2, dL2)
    for blk, G1, G2, p, s in zip(blocks, gains[:2], gains[2:], P, Sigma):
        a, b1, b2, r1, r2 = blk.A, blk.B1, blk.B2, blk.R1, blk.R2
        b1p, b2p = b1 * p + 0.0, b2 * p + 0.0
        c1 = (((r1 + g * (b1p * b1 + 0.0)) * G1 + 0.0) - (g * (b1p * b2 + 0.0) * G2 + 0.0)
              - g * (b1p * a + 0.0))
        c2 = ((-g * (b2p * b1 + 0.0) * G1 + 0.0) + ((-r2 + g * (b2p * b2 + 0.0)) * G2 + 0.0)
              + g * (b2p * a + 0.0))
        player_1.append(2.0 * c1 * s + 0.0)
        player_2.append(2.0 * c2 * s + 0.0)
    grad = player_1 + player_2
    if not all(map(math.isfinite, grad)):
        return None
    return GradientPair(np.array(grad).reshape(2, 2, 1, 1))
