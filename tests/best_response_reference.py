"""Best responses against a frozen opponent, kept as a test-only oracle.

A player's best response solves the one-player Riccati equation of its
block with the opponent's gain folded into the drift and the weight, by
the same doubling kernel as ``solve_riccati``. The Nash gains must be
mutual best responses wherever the stationary pair is a saddle, and
``gradient_root_reference`` plays the minimizer's best response while it
searches the maximizer's gain.
"""

import numpy as np

from lqmfg.errors import LqmfgError
from lqmfg.model import LQBlock, ModelParams, loop_stable, validate
from lqmfg.riccati import _positive_definite
from lqmfg.value import _doubling


class IndefiniteInnerProblem(LqmfgError):
    """The one-player problem against a frozen opponent has no best response:
    no stabilizing solution with positive definite curvature and a closed
    loop in the stabilizing set."""


def _best_response(block: LQBlock, player: int, G_opp, gamma: float) -> np.ndarray:
    """Optimal gain of `player` in one block against the opponent's frozen
    gain G_opp:
      G = g (R +- g B'XB)^{-1} B'X A_eff,
    X the stabilizing solution of the one-player equation
      X = Q_eff + g A_eff'X A_eff - g^2 A_eff'XB (+-R + g B'XB)^{-1} B'X A_eff
    for effective weight Q_eff = Q -+ G_opp' R_opp G_opp and drift
    A_eff = A +- B_opp G_opp (upper signs for the minimizing player 1, lower
    signs for the maximizing player 2). IndefiniteInnerProblem is raised
    unless the doubling converges to a finite X, R +- g B'XB is positive
    definite and the closed loop passes ``loop_stable``."""
    sgn = 1.0 if player == 1 else -1.0
    B, R, B_opp, R_opp = ((block.B1, block.R1, block.B2, block.R2) if player == 1
                          else (block.B2, block.R2, block.B1, block.R1))
    G_opp = np.atleast_2d(G_opp)
    A_eff = block.A + sgn * B_opp @ G_opp
    Q_eff = block.Q - sgn * G_opp.T @ R_opp @ G_opp
    with np.errstate(all="ignore"):
        try:
            X = _doubling(np.sqrt(gamma) * A_eff[None], Q_eff[None],
                          sgn * gamma * (B @ np.linalg.solve(R, B.T))[None])[0][0]
        except np.linalg.LinAlgError as exc:
            raise IndefiniteInnerProblem(str(exc)) from None
    if not np.isfinite(X).all():
        raise IndefiniteInnerProblem("the inner solution overflows")
    curvature = R + sgn * gamma * B.T @ X @ B
    if not _positive_definite(curvature):
        raise IndefiniteInnerProblem("inner curvature is not positive definite")
    G = gamma * np.linalg.solve(curvature, B.T @ X @ A_eff)
    if not loop_stable(A_eff - sgn * B @ G, gamma):
        raise IndefiniteInnerProblem("the response does not stabilize the loop")
    return G


def best_response_K1(params: ModelParams, K2) -> np.ndarray:
    """Optimal K1 against a frozen K2 (deviation block)."""
    return _best_response(validate(params).dev, 1, K2, params.gamma)


def best_response_K2(params: ModelParams, K1) -> np.ndarray:
    """Optimal K2 against a frozen K1 (maximizing player; sign-flipped R2)."""
    return _best_response(validate(params).dev, 2, K1, params.gamma)


def best_response_L1(params: ModelParams, L2) -> np.ndarray:
    """Optimal L1 against a frozen L2 (tilde quantities)."""
    return _best_response(validate(params).mean, 1, L2, params.gamma)


def best_response_L2(params: ModelParams, L1) -> np.ndarray:
    """Optimal L2 against a frozen L1 (tilde quantities, sign-flipped)."""
    return _best_response(validate(params).mean, 2, L1, params.gamma)
