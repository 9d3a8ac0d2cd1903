"""Equilibrium computation: the stabilizing solutions of the two Riccati-type
equations and the gains they induce.

The paper's equilibrium conditions are the fixed points of
P = g (A'P + 2Q)(A + (B1 c1 + B2 c2) P), one for the deviation block and its
tilde analogue for the mean block, with the signed feedback coefficients
c_i = -+1/2 R_i^{-1} B_i' (minus for the minimizing player 1, plus for the
maximizing player 2). In the symmetric X with P = 2 g X M, M the closed loop,
each is the game Riccati equation
  X = Q + g A'XA - g^2 A'XB (R + g B'XB)^{-1} B'XA,  B = [B1 B2], R = diag(R1, -R2),
solved for both blocks at once by structure-preserving doubling (Chu, Fan,
Lin & Wang 2004; Lin & Xu, SIAM J. Matrix Anal. Appl. 2006) in
``value._doubling``, the kernel that also solves the values' Lyapunov
equations. The tests reuse it for a player's best response against a frozen
opponent, as a test-only oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonStabilizingSolution
from .model import ModelParams, PolicyPair, in_stabilizing_set, validate
# solve_dev_value / solve_mean_value: looked up here by perfbench/spans.py
from .value import _doubling, _mT, solve_dev_value, solve_mean_value  # noqa: F401


@dataclass(frozen=True)
class RiccatiSolution:
    """Solutions ``P`` (2, d, d) of the (dev, mean) equilibrium equations,
    stacked like ``ValueSolution.P``, the ``residual`` (2,) norms of the
    paper's maps at them, and the doubling steps the two blocks took
    together. ``P_dev`` ... ``residual_mean`` are their slices, the
    residuals as Python floats."""

    P: np.ndarray
    residual: np.ndarray
    iterations: int

    P_dev = property(lambda self: self.P[0])
    P_mean = property(lambda self: self.P[1])
    residual_dev = property(lambda self: float(self.residual[0]))
    residual_mean = property(lambda self: float(self.residual[1]))


def _positive_definite(C: np.ndarray) -> bool:
    """Every slice of the stack C has a positive definite symmetric part."""
    return bool((np.linalg.eigvalsh(0.5 * (C + _mT(C))) > 0.0).all())


def solve_riccati(params: ModelParams) -> RiccatiSolution:
    """Solve both equilibrium equations in one stacked ``_doubling`` call.

    The stabilizing X of the game Riccati equation gives the Nash feedback
    F = (R + g B'XB)^{-1} g B'XA = [K1; -K2] and the paper's
    P = 2 g X (A - B F). NonStabilizingSolution is raised unless the
    doubling converges, X, F, P and the residual's gap are finite, the
    minimizer's curvature R1 + g B1'XB1 is positive definite, R + g B'XB is
    regular and the induced gains lie in the stabilizing set.
    """
    der = validate(params)
    g, S, ell = params.gamma, der.stack, params.ell
    B = np.concatenate((S.B1, S.B2), -1)
    R = np.zeros((2, 2 * ell, 2 * ell))
    R[:, :ell, :ell], R[:, ell:, ell:] = S.R1, -S.R2
    with np.errstate(all="ignore"):
        G = g * B @ np.linalg.solve(R, _mT(B))
        try:
            X, steps = _doubling(np.sqrt(g) * S.A, S.Q, G)
        except np.linalg.LinAlgError:
            raise NonStabilizingSolution("doubling found no stabilizing solution") from None
        _require_finite(X)
        curvature = R + g * _mT(B) @ X @ B
        if not _positive_definite(curvature[:, :ell, :ell]):
            raise NonStabilizingSolution("the minimizer's curvature is not positive definite")
        try:
            F = np.linalg.solve(curvature, g * _mT(B) @ X @ S.A)
        except np.linalg.LinAlgError:
            raise NonStabilizingSolution("the players' joint curvature is singular") from None
        P = 2.0 * g * X @ (S.A - B @ F)
        # P less the paper's map, with B1 c1 + B2 c2 = -G / (2 g)
        gap = P - g * (_mT(S.A) @ P + 2.0 * S.Q) @ (S.A - G @ P / (2.0 * g))
        _require_finite(F, P, gap)
        residual = np.linalg.norm(gap, ord=2, axis=(-2, -1))
        sol = RiccatiSolution(P, residual, int(steps.sum()))
        if not in_stabilizing_set(params, nash_policy(params, sol)):
            raise NonStabilizingSolution("the solution induces an unstable loop")
    return sol


def _require_finite(*arrays: np.ndarray) -> None:
    if not all(np.isfinite(a).all() for a in arrays):
        raise NonStabilizingSolution("the equilibrium overflows the floating-point range")


def nash_policy(params: ModelParams, sol: RiccatiSolution) -> PolicyPair:
    """Equilibrium gains from the Riccati fixed points, both blocks at once:
    G_i = 1/2 R_i^{-1} B_i' P on the (dev, mean) stacks, that is
    K_i = 1/2 R_i^{-1} B_i' P_dev and L_i = 1/2 R_tilde_i^{-1} B_tilde_i' P_mean.
    """
    S = validate(params).stack
    return PolicyPair.from_stack(np.stack([0.5 * np.linalg.solve(R, _mT(B) @ sol.P)
                                           for B, R in ((S.B1, S.R1), (S.B2, S.R2))]))
