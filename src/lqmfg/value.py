"""Closed-form evaluation of a stabilizing policy pair.

A policy pair is scored by the value and discounted second-moment matrices
of the deviation and the mean process, the exact utility and its gradient in
all four gains. Both processes are evaluated at once, on arrays stacked
along a leading (dev, mean) axis: one stability gate, one doubling loop,
``_doubling``, which ``riccati.solve_riccati`` also runs for the equilibrium.

At d = ell = 1 the same block formulas (``LQBlock``, ``gradient_coefs``) run
on the eight entries of each block as Python floats, with the bits of the
stacked path: a 1x1 matmul or trace is one rounded product that numpy sums
onto +0.0, so the float product is ``x * y + 0.0`` (``_fmul``), which turns
-0.0 into +0.0 as numpy does, and the transpose and trace are ``float``.
Python floats overflow without a warning, so a pair whose loop fails the
gate, or whose value or gradient is not finite, reruns on the stacked path
and raises or warns there.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from operator import matmul

import numpy as np

from .errors import NotStabilizing
from .model import (  # noqa: F401  (spectral_norm: looked up here by perfbench/spans.py)
    DerivedParams,
    LQBlock,
    ModelParams,
    PolicyPair,
    _mT,
    loop_stable,
    spectral_norm,
    validate,
)

MAX_DOUBLINGS = 64


def _fmul(x: float, y: float) -> float:
    """numpy's 1x1 matmul on Python floats (module docstring)."""
    return x * y + 0.0


def _smith(a: float, p: float) -> float:
    """``_doubling``'s Lyapunov steps on one scalar a = sqrt(gamma) m in Python
    floats, bit for bit: a 1x1 matmul is one rounded product, Python has no
    fused multiply-add, a signed zero cannot change a retired P. NaN at the cap."""
    for _ in range(MAX_DOUBLINGS):
        p_next = p + a * p * a
        if p_next == p:
            return p
        p, a = p_next, a * a
    return float("nan")


def _doubling(A: np.ndarray, H: np.ndarray, G: np.ndarray | None = None):
    """Fixed points X = H + A'X (I + G X)^{-1} A of each slice of the stacks
    (k, d, d), and the doubling steps each slice took.

    With W = (I + G H)^{-1}, each step A <- A W A, G <- G + A W G A',
    H <- H + A'H W A doubles the horizon that H sums (Chu, Fan, Lin & Wang
    2004). G = None skips the solve: Smith's Lyapunov iteration, with the
    bits of G = 0. A slice leaves the stack, before the next products, at
    the first step its H stops changing, with the bits of a call on it alone.

    The cap: after k steps H lacks a tail r^(2^k) of its sum, r < 1 the
    loop's rate (gamma ||M||^2 for a value), below 2**-53 once 2^k (1 - r)
    > 53 ln 2: 59 steps at the slowest rate ``loop_stable`` admits, 1 - 2**-53.
    So MAX_DOUBLINGS steps mean non-finite input or no stabilizing solution;
    they and a singular I + G H raise LinAlgError. No step checks for inf or
    NaN or sets ``np.errstate``: callers read X.
    """
    X, steps, rows, d = np.empty_like(H), np.zeros(len(H), int), np.arange(len(H)), H.shape[-1]
    for step in range(1, MAX_DOUBLINGS + 1):
        if G is not None:
            W = np.linalg.solve(np.eye(d) + G @ H, np.concatenate((A, G), -1))
        H_next = H + _mT(A) @ H @ (A if G is None else W[..., :d])
        eq = H_next == H
        if eq.any() and (done := eq.all(axis=(-2, -1))).any():
            X[rows[done]], steps[rows[done]] = H[done], step
            if done.all():
                return X, steps
            rows, H_next, A = rows[~done], H_next[~done], A[~done]
            if G is not None:
                G, W = G[~done], W[~done]
        G = None if G is None else G + A @ W[..., d:] @ _mT(A)
        H, A = H_next, A @ (A if G is None else W[..., :d])
    raise np.linalg.LinAlgError("doubling did not converge")


def _dlyap(M: np.ndarray, source: np.ndarray, gamma: float) -> np.ndarray:
    """P = source + gamma M'PM for each slice of the stacks (k, d, d):
    ``_doubling`` on A = sqrt(gamma) M, NotStabilizing at its cap."""
    try:
        return _doubling(np.sqrt(gamma) * M, source)[0]
    except np.linalg.LinAlgError:
        raise NotStabilizing("Lyapunov doubling did not converge") from None


def _require_stable(M: np.ndarray, gamma: float) -> None:
    if not loop_stable(M, gamma):
        raise NotStabilizing("closed loop fails gamma * ||M||^2 < 1")


def _gated_loop(block: LQBlock, G1, G2, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """Closed loops M and value sources (``LQBlock.stage_weights``) of stacked
    gains (G1, G2) (k, ell, d), on the slices of stacked blocks or on one
    block broadcast. Raises NotStabilizing unless every M passes
    ``loop_stable``."""
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
    """Value matrix of the deviation process for gains (K1, K2): P =
    ``stage_weights`` + gamma M' P M on the ``closed_loop`` M."""
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
    """Exact discounted utility of a stabilizing policy pair, the sum of the
    blocks' ``LQBlock.cost``. Both blocks are gated by one ``loop_stable``
    call, and their four Lyapunov equations (P on M, Sigma on M') are solved
    in one doubling loop; at d = 1 on Python floats, with the same bits
    (module docstring).
    """
    S, g = validate(params).stack, params.gamma
    if _on_floats(params, theta) and (sol := _scalar_utility(params, theta.flat)):
        return ValueSolution(*(np.array(x).reshape(2, 1, 1) for x in sol[:2]), *sol[2:])
    tail = g / (1.0 - g)
    M, source = _gated_loop(S, *theta.stack, g)
    solved = _dlyap(np.concatenate((M, _mT(M))),
                    np.concatenate((source, S.V0 + tail * S.W)), g)
    P = solved[:2]
    cost_dev, cost_mean = S.cost(P, tail).tolist()
    return ValueSolution(P, solved[2:], cost_dev, cost_mean, cost_dev + cost_mean)


def gradient_coefs(block: LQBlock, P: np.ndarray, G1, G2, gamma: float,
                   mm=matmul, T=_mT) -> tuple[np.ndarray, np.ndarray]:
    """Left factors c1, c2 of the block utility gradient 2 c_i Sigma in G1, G2,
    over the product and transpose of ``LQBlock``:

      c1 = (R1 + g B1'PB1) G1 - g B1'PB2 G2 - g B1'P A
      c2 = -g B2'PB1 G1 + (-R2 + g B2'PB2) G2 + g B2'P A
    """
    g, B1, B2, A = gamma, block.B1, block.B2, block.A
    B1P, B2P = mm(T(B1), P), mm(T(B2), P)
    coef_1 = mm(block.R1 + g * mm(B1P, B1), G1) - mm(g * mm(B1P, B2), G2) - g * mm(B1P, A)
    coef_2 = mm(-g * mm(B2P, B1), G1) + mm(-block.R2 + g * mm(B2P, B2), G2) + g * mm(B2P, A)
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
    if _on_floats(params, theta) and (grad := _scalar_gradient(
            params, theta.flat, sol.P.ravel().tolist(), sol.Sigma.ravel().tolist())):
        return GradientPair(grad.stack)
    coefs = np.array(gradient_coefs(validate(params).stack, sol.P, *theta.stack, params.gamma))
    return GradientPair(2.0 * coefs @ sol.Sigma)


def _on_floats(params: ModelParams, theta: PolicyPair) -> bool:
    """Whether theta is scored on Python floats (d = ell = 1, module
    docstring); raises DimensionMismatch unless theta fits params."""
    theta.check_dims(params)
    return params.d == params.ell == 1


ScalarSolution = namedtuple("ScalarSolution", "P Sigma cost_dev cost_mean cost")


class ScalarGradient(tuple):
    """``_scalar_gradient``'s [dK1, dL1, dK2, dL2]; ``stack`` makes their array."""
    stack = property(lambda self: np.array(self).reshape(2, 2, 1, 1))


def _scalar_utility(params: ModelParams, gains) -> ScalarSolution | None:
    """``exact_utility`` on the ``DerivedParams.scalars`` blocks and the
    gains [K1, L1, K2, L2] as Python floats, P and Sigma as [dev, mean];
    None where a loop fails the gate or a result is not finite."""
    blocks, g = validate(params).scalars, params.gamma
    tail, root, loops = g / (1.0 - g), math.sqrt(g), []
    for blk, G1, G2 in zip(blocks, gains[:2], gains[2:]):
        m = blk.closed_loop(G1, G2, _fmul)
        if not g * abs(m) * abs(m) < 1.0:  # loop_stable at d = 1; fails NaN
            return None
        loops.append(root * m)  # _dlyap's A
    P, Sigma, costs = [], [], []
    for blk, G1, G2, a in zip(blocks, gains[:2], gains[2:], loops):
        P.append(_smith(a, blk.stage_weights(G1, G2, _fmul, float)))
        Sigma.append(_smith(a, blk.V0 + tail * blk.W))
        costs.append(blk.cost(P[-1], tail, _fmul, float))
    if not all(map(math.isfinite, P + Sigma + costs)):
        return None
    return ScalarSolution(P, Sigma, *costs, costs[0] + costs[1])


def _scalar_gradient(params: ModelParams, gains, P, Sigma) -> ScalarGradient | None:
    """``exact_gradient``'s ``gradient_coefs`` on Python floats, as in
    ``_scalar_utility``; None where an entry is not finite."""
    blocks, g = validate(params).scalars, params.gamma
    grad = [0.0] * 4  # [dK1, dL1, dK2, dL2]: block i of player 1, then of player 2
    for i, (blk, G1, G2, p, s) in enumerate(zip(blocks, gains[:2], gains[2:], P, Sigma)):
        c1, c2 = gradient_coefs(blk, p, G1, G2, g, _fmul, float)
        grad[i], grad[i + 2] = _fmul(2.0 * c1, s), _fmul(2.0 * c2, s)
    if not all(map(math.isfinite, grad)):
        return None
    return ScalarGradient(grad)
