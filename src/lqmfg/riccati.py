"""Equilibrium computation: fixed points of the two Riccati-type maps,
the gains they induce, best responses, and a scalar root-finding benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import (
    DegenerateProblem,
    IndefiniteInnerProblem,
    NoConvergence,
    NonStabilizingSolution,
    NoRoot,
    NotStabilizing,
    SingularR,
)
from .model import DerivedParams, LQBlock, ModelParams, PolicyPair, in_stabilizing_set, validate
# solve_dev_value / solve_mean_value: looked up here by perfbench/spans.py
from .value import block_value, gradient_coefs, solve_dev_value, solve_mean_value  # noqa: F401

DIVERGENCE_CAP = 1e8
DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 10_000


@dataclass(frozen=True)
class RiccatiSolution:
    """Fixed points of the deviation and mean equilibrium equations,
    with their residual norms and the total iteration count."""

    P_dev: np.ndarray
    P_mean: np.ndarray
    residual_dev: float
    residual_mean: float
    iterations: int


def _fixed_point(apply_map, P0: np.ndarray, tol: float, max_iter: int,
                 damping: float, label: str) -> tuple[np.ndarray, float, int]:
    """Damped iteration P <- (1-w) P + w map(P) until the residual
    ||P - map(P)|| drops below tol."""
    P = P0.copy()
    for k in range(1, max_iter + 1):
        mapped = apply_map(P)
        residual = float(np.linalg.norm(P - mapped, ord=2))
        if residual <= tol:
            return P, residual, k
        P = (1.0 - damping) * P + damping * mapped
        norm = float(np.linalg.norm(P, ord=2))
        if not np.isfinite(norm) or norm > DIVERGENCE_CAP:
            raise NoConvergence(f"{label}: iterates diverged (norm {norm:.3e})")
    raise NoConvergence(f"{label}: no fixed point after {max_iter} iterations")


def solve_riccati(params: ModelParams, tol: float = DEFAULT_TOL,
                  max_iter: int = DEFAULT_MAX_ITER,
                  damping: float = 1.0) -> RiccatiSolution:
    """Solve both equilibrium equations by damped fixed-point iteration.

    Deviation map:  P -> gamma [A'P + 2Q][A + (B1 c1 + B2 c2) P] with the
    signed feedback coefficients c_i; mean map is the tilde analogue.
    Initialization 2Q (resp. 2Q_tilde). The converged pair must induce
    stabilizing gains, otherwise NonStabilizingSolution is raised.
    """
    der = validate(params)
    g = params.gamma

    def fixed_point(block, c1, c2, label):
        gain = block.B1 @ c1 + block.B2 @ c2

        def riccati_map(P):
            return g * (block.A.T @ P + 2.0 * block.Q) @ (block.A + gain @ P)

        return _fixed_point(riccati_map, 2.0 * block.Q, tol, max_iter, damping, label)

    P_dev, res_dev, it_dev = fixed_point(
        der.dev, der.dev_coef_1, der.dev_coef_2, "deviation equation")
    P_mean, res_mean, it_mean = fixed_point(
        der.mean, der.mean_coef_1, der.mean_coef_2, "mean equation")

    sol = RiccatiSolution(P_dev=P_dev, P_mean=P_mean,
                          residual_dev=res_dev, residual_mean=res_mean,
                          iterations=it_dev + it_mean)
    theta = nash_policy(params, sol, derived=der)
    if not in_stabilizing_set(params, theta, der):
        raise NonStabilizingSolution("a fixed point induces an unstable loop")
    return sol


def _nash_gains(block: LQBlock, P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    try:
        return (0.5 * np.linalg.solve(block.R1, block.B1.T @ P),
                0.5 * np.linalg.solve(block.R2, block.B2.T @ P))
    except np.linalg.LinAlgError as exc:  # precluded by validation
        raise SingularR(str(exc)) from None


def nash_policy(params: ModelParams, sol: RiccatiSolution,
                derived: DerivedParams | None = None) -> PolicyPair:
    """Equilibrium gains from the Riccati fixed points:
    K_i = 1/2 R_i^{-1} B_i' P_dev and L_i = 1/2 R_tilde_i^{-1} B_tilde_i' P_mean.
    """
    der = derived if derived is not None else validate(params)
    K1, K2 = _nash_gains(der.dev, sol.P_dev)
    L1, L2 = _nash_gains(der.mean, sol.P_mean)
    return PolicyPair(K1=K1, L1=L1, K2=K2, L2=L2)


def _scalar_stabilizing_inner(Q_eff: np.ndarray, A_eff: np.ndarray,
                              B: np.ndarray, R: np.ndarray, gamma: float,
                              minimizer: bool) -> np.ndarray:
    """Exact stabilizing solution of the scalar one-player equation.

    The scalar fixed-point condition is a quadratic in P; keep the root
    whose closed loop a R / (R +- g b^2 P) passes the spectral test and
    whose control curvature R +- g b^2 P is positive. With an indefinite
    effective state weight the finite-horizon values can dive to -inf even
    though this stationary stabilizing solution exists, so iteration is not
    an option here."""
    sgn = 1.0 if minimizer else -1.0
    q = float(Q_eff[0, 0])
    a = float(A_eff[0, 0])
    b = float(B[0, 0])
    r = float(R[0, 0])
    gb2 = gamma * b * b
    if gb2 == 0.0:
        if gamma * a * a >= 1.0:
            raise IndefiniteInnerProblem(
                "uncontrollable inner problem with unstable drift")
        return np.array([[q / (1.0 - gamma * a * a)]])
    # sgn*gb2 P^2 + (r - sgn*g q b^2 - g a^2 r) P - sgn*q r = 0
    coeffs = [sgn * gb2, r - sgn * gamma * q * b * b - gamma * a * a * r,
              -sgn * q * r]
    disc = coeffs[1] ** 2 - 4.0 * coeffs[0] * coeffs[2]
    if disc < 0.0:
        raise IndefiniteInnerProblem(
            "no real stationary solution; effective state weight too negative")
    candidates = [(-coeffs[1] + s * np.sqrt(disc)) / (2.0 * coeffs[0])
                  for s in (+1.0, -1.0)]
    viable = []
    for p in candidates:
        curvature = r + sgn * gb2 * p
        if curvature <= 0.0:
            continue
        loop = a * r / curvature
        if gamma * loop * loop < 1.0:
            viable.append(p)
    if not viable:
        raise IndefiniteInnerProblem(
            "no stabilizing stationary solution with positive curvature")
    return np.array([[min(viable, key=abs)]])


def _inner_value(Q_eff: np.ndarray, A_eff: np.ndarray, B: np.ndarray,
                 R: np.ndarray, gamma: float, minimizer: bool,
                 tol: float, max_iter: int, damping: float) -> np.ndarray:
    """Value matrix of the one-player problem against a frozen opponent.

    Fixed point of
      P = Q_eff + g A'PA -+ g^2 A'PB (R +- g B'PB)^{-1} B'PA
    with the upper signs for the minimizing player and the lower signs for
    the maximizing one. Scalar problems fall back to the exact quadratic
    when the iteration fails (indefinite weights break value iteration but
    may still admit a stabilizing stationary solution)."""
    scalar = Q_eff.shape == (1, 1) and R.shape == (1, 1)
    try:
        return _inner_value_iterate(Q_eff, A_eff, B, R, gamma, minimizer,
                                    tol, max_iter, damping)
    except (NoConvergence, IndefiniteInnerProblem):
        if not scalar:
            raise
        return _scalar_stabilizing_inner(Q_eff, A_eff, B, R, gamma, minimizer)


def _inner_value_iterate(Q_eff, A_eff, B, R, gamma, minimizer,
                         tol, max_iter, damping) -> np.ndarray:
    sgn = 1.0 if minimizer else -1.0
    P = Q_eff.copy()
    prev_norm = float(np.linalg.norm(P, ord=2))
    growing = 0
    for _ in range(max_iter):
        BPB = B.T @ P @ B
        BPA = B.T @ P @ A_eff
        inner = R + sgn * gamma * BPB
        # losing curvature means the plain value recursion is unbounded
        if np.min(np.linalg.eigvalsh(0.5 * (inner + inner.T))) <= 0.0:
            raise IndefiniteInnerProblem(
                "inner curvature lost definiteness; effective state weight "
                "too negative")
        correction = BPA.T @ np.linalg.solve(inner, BPA)
        mapped = Q_eff + gamma * A_eff.T @ P @ A_eff - sgn * gamma**2 * correction
        residual = float(np.linalg.norm(P - mapped, ord=2))
        if residual <= tol:
            return P
        P = (1.0 - damping) * P + damping * mapped
        norm = float(np.linalg.norm(P, ord=2))
        growing = growing + 1 if norm > prev_norm else 0
        prev_norm = norm
        if not np.isfinite(norm) or norm > DIVERGENCE_CAP:
            if growing >= 10:
                raise IndefiniteInnerProblem(
                    "inner value diverges; effective state weight too negative")
            raise NoConvergence(f"inner equation diverged (norm {norm:.3e})")
    raise NoConvergence(f"inner equation: no fixed point after {max_iter} iterations")


def _best_response(block: LQBlock, player: int, G_opp, gamma: float,
                   tol: float, max_iter: int, damping: float) -> np.ndarray:
    """Optimal gain of `player` in one block against the opponent's frozen
    gain G_opp:
      G = g (R +- g B'PB)^{-1} B'P A_eff,
    P the inner value matrix for effective weight Q -+ G_opp' R_opp G_opp and
    drift A_eff = A +- B_opp G_opp (upper signs for the minimizing player 1,
    lower signs for the maximizing player 2)."""
    sgn = 1.0 if player == 1 else -1.0
    B, R, B_opp, R_opp = ((block.B1, block.R1, block.B2, block.R2) if player == 1
                          else (block.B2, block.R2, block.B1, block.R1))
    G_opp = np.atleast_2d(G_opp)
    A_eff = block.A + sgn * B_opp @ G_opp
    Q_eff = block.Q - sgn * G_opp.T @ R_opp @ G_opp
    P = _inner_value(Q_eff, A_eff, B, R, gamma, player == 1, tol, max_iter, damping)
    lhs = R + sgn * gamma * B.T @ P @ B
    return gamma * np.linalg.solve(lhs, B.T @ P @ A_eff)


def best_response_K1(params: ModelParams, K2, tol: float = DEFAULT_TOL,
                     max_iter: int = DEFAULT_MAX_ITER, damping: float = 1.0) -> np.ndarray:
    """Optimal K1 against a frozen K2 (deviation block)."""
    return _best_response(validate(params).dev, 1, K2, params.gamma, tol, max_iter, damping)


def best_response_K2(params: ModelParams, K1, tol: float = DEFAULT_TOL,
                     max_iter: int = DEFAULT_MAX_ITER, damping: float = 1.0) -> np.ndarray:
    """Optimal K2 against a frozen K1 (maximizing player; sign-flipped R2)."""
    return _best_response(validate(params).dev, 2, K1, params.gamma, tol, max_iter, damping)


def best_response_L1(params: ModelParams, L2, tol: float = DEFAULT_TOL,
                     max_iter: int = DEFAULT_MAX_ITER, damping: float = 1.0) -> np.ndarray:
    """Optimal L1 against a frozen L2 (tilde quantities)."""
    return _best_response(validate(params).mean, 1, L2, params.gamma, tol, max_iter, damping)


def best_response_L2(params: ModelParams, L1, tol: float = DEFAULT_TOL,
                     max_iter: int = DEFAULT_MAX_ITER, damping: float = 1.0) -> np.ndarray:
    """Optimal L2 against a frozen L1 (tilde quantities, sign-flipped)."""
    return _best_response(validate(params).mean, 2, L1, params.gamma, tol, max_iter, damping)


def _scalar_root(eval_slope, lo: float, hi: float, tol: float,
                 label: str) -> float:
    """Bisection on a scalar slope function over [lo, hi].

    Scans for a sign change on a grid first; points where the inner problem
    fails are skipped (with a reduced iteration budget, since failures far
    from the root are slow to diagnose)."""
    skippable = (NoConvergence, IndefiniteInnerProblem, NotStabilizing,
                 np.linalg.LinAlgError)
    grid = np.linspace(lo, hi, 61)
    vals = np.full(grid.shape, np.nan)
    for idx, point in enumerate(grid):
        try:
            vals[idx] = eval_slope(point, 1e-9, 1500)
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
    try:
        f_lo = eval_slope(lo, DEFAULT_TOL, DEFAULT_MAX_ITER)
    except skippable as exc:
        raise NoRoot(f"{label}: bracket endpoint failed at full precision: "
                     f"{exc}") from None
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        try:
            f_mid = eval_slope(mid, DEFAULT_TOL, DEFAULT_MAX_ITER)
        except skippable as exc:
            raise NoRoot(f"{label}: evaluation failed during bisection: {exc}") from None
        if abs(hi - lo) < tol:
            return mid
        if np.sign(f_mid) == np.sign(f_lo):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _slope(block: LQBlock, gamma: float, g2: float, tol_fp: float, max_iter: int) -> float:
    """Player 2's utility slope in one scalar block at gain g2 against player
    1's best response (the second-moment factor > 0 is dropped)."""
    G2 = np.array([[[g2]]])
    G1 = _best_response(block, 1, G2[0], gamma, tol_fp, max_iter, 1.0)[None]
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
        gains.append((_best_response(block, 1, G2, g, DEFAULT_TOL, DEFAULT_MAX_ITER, 1.0), G2))
    (K1, K2), (L1, L2) = gains
    return PolicyPair(K1=K1, L1=L1, K2=K2, L2=L2)
