"""The scalar gradient-root path to the equilibrium, kept as a test-only
oracle.

It reaches the Nash gains of a d = ell = 1 game without the game Riccati
equation: in each block it bisects for the maximizer's gain at which the
maximizer's utility slope vanishes while the minimizer plays its best
response. ``solve_riccati`` must land on the same gains.

On the symmetric-player game ``benchmark_scalars(B2=0.4, B2_bar=0.4)`` the
mean block has no saddle point: at the stabilizing solution the maximizer's
curvature R2~ - g B2~'X B2~ is -0.287, so ``best_response_L2`` against the
equilibrium L1 raises IndefiniteInnerProblem. There this path finds a
stationary point of the maximin, not a saddle (its L gains equal the
Riccati ones). So ``TestNashPolicy::test_symmetric_players`` checks only
that the stationary pair of the game Riccati equation is symmetric
(K1 = K2, L1 = L2), and ``TestGradientRoot::test_symmetric_players``
checks the deviation gains only, where the maximizer's curvature is +0.333
and the pair is a saddle.
"""

from functools import partial

import numpy as np

from lqmfg.errors import LqmfgError, NotStabilizing
from lqmfg.model import LQBlock, ModelParams, PolicyPair, validate
from lqmfg.value import block_value, gradient_coefs

from best_response_reference import IndefiniteInnerProblem, _best_response


class NoRoot(LqmfgError):
    """Root bracketing failed inside the stabilizing interval."""


class DegenerateProblem(NoRoot):
    """Every candidate is stationary (opponent has no control authority)."""


def _scalar_root(eval_slope, lo: float, hi: float, tol: float,
                 label: str) -> float:
    """Bisection on a scalar slope function over [lo, hi].

    Scans for a sign change on a grid first; points where the inner problem
    fails are skipped."""
    skippable = (IndefiniteInnerProblem, NotStabilizing)
    grid = np.linspace(lo, hi, 61)
    vals = np.full(grid.shape, np.nan)
    for idx, point in enumerate(grid):
        try:
            vals[idx] = eval_slope(point)
        except skippable:
            continue
    finite = np.isfinite(vals)
    if finite.any() and np.max(np.abs(vals[finite])) < 1e-12:
        raise DegenerateProblem(
            f"{label}: slope vanishes everywhere; opponent has no control authority")
    bracket = None
    prev = None
    for idx in range(len(grid)):
        if not finite[idx]:
            prev = None
            continue
        if prev is not None and np.sign(vals[prev]) != np.sign(vals[idx]):
            bracket = (grid[prev], grid[idx], vals[prev])
            break
        prev = idx
    if bracket is None:
        raise NoRoot(f"{label}: no sign change inside the stabilizing interval")
    lo, hi, f_lo = bracket
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        try:
            f_mid = eval_slope(mid)
        except skippable as exc:
            raise NoRoot(f"{label}: evaluation failed during bisection: {exc}") from None
        if abs(hi - lo) < tol:
            return mid
        if np.sign(f_mid) == np.sign(f_lo):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _slope(block: LQBlock, gamma: float, g2: float) -> float:
    """Player 2's utility slope in one scalar block at gain g2 against player
    1's best response (the second-moment factor > 0 is dropped)."""
    G2 = np.array([[[g2]]])
    G1 = _best_response(block, 1, G2[0], gamma)[None]
    P = block_value(block, G1, G2, gamma)
    return float(gradient_coefs(block, P, G1, G2, gamma)[1][0, 0, 0])


def nash_via_gradient_root(params: ModelParams, tol: float = 1e-10) -> PolicyPair:
    """Scalar benchmark path to the equilibrium: find the opponent gain whose
    utility slope vanishes under the first player's best response, for the
    deviation and the mean blocks separately. Only d = ell = 1."""
    if params.d != 1 or params.ell != 1:
        raise NoRoot("gradient-root benchmark is only defined for d = ell = 1")
    der = validate(params)
    g = params.gamma
    if any(abs(block.B2[0, 0]) < 1e-14 for block in (der.dev, der.mean)):
        raise DegenerateProblem("second player has no control authority")
    # scan where the uncompensated drift stays within twice the stability
    # bound; the other player's best response extends stability past the
    # naive interval, and non-evaluable points are skipped anyway
    bound = 2.0 / np.sqrt(g)
    gains = []
    for block, label in ((der.dev, "deviation block"), (der.mean, "mean block")):
        a, b2 = float(block.A[0, 0]), float(block.B2[0, 0])
        lo, hi = sorted(((-bound - a) / b2, (bound - a) / b2))
        G2 = np.array([[_scalar_root(partial(_slope, block, g), lo, hi, tol, label)]])
        gains.append((_best_response(block, 1, G2, g), G2))
    (K1, K2), (L1, L2) = gains
    return PolicyPair(K1=K1, L1=L1, K2=K2, L2=L2)
