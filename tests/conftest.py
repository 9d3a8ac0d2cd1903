import hashlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from lqmfg import Distribution, ModelParams, NoiseSpec, PolicyPair

# Positive roots of the scalar equilibrium quadratics
#   0.0315 P^2 + 0.919 P - 0.288 = 0   (deviation part)
#   0.126 Pb^2 + 0.676 Pb - 1.152 = 0  (mean part)
# computed by the quadratic formula, independent of the fixed-point solver.


def quadratic_positive_root(a: float, b: float, c: float) -> float:
    disc = np.sqrt(b * b - 4.0 * a * c)
    return (-b + disc) / (2.0 * a)


P_DEV_ORACLE = quadratic_positive_root(0.0315, 0.919, -0.288)
P_MEAN_ORACLE = quadratic_positive_root(0.126, 0.676, -1.152)

# equilibrium gains from the roots, scalar arithmetic:
# K1 = 0.5*(B1/R1)*P, K2 = 0.5*(B2/R2)*P, L1 = 0.5*(B1t/R1t)*Pb, L2 = 0.5*(B2t/R2t)*Pb
K1_ORACLE = 0.5 * (0.4 / 0.4) * P_DEV_ORACLE
K2_ORACLE = 0.5 * (0.3 / 0.4) * P_DEV_ORACLE
L1_ORACLE = 0.5 * (0.8 / 0.8) * P_MEAN_ORACLE
L2_ORACLE = 0.5 * (0.6 / 0.8) * P_MEAN_ORACLE


def zero_noise() -> NoiseSpec:
    """Point masses at zero for all four noise terms."""
    p = Distribution.point(0.0)
    return NoiseSpec(p, p, p, p)


def benchmark_noise() -> NoiseSpec:
    return NoiseSpec(
        init_common=Distribution.uniform(-1.0, 1.0),
        init_idio=Distribution.uniform(-1.0, 1.0),
        step_common=Distribution.gaussian(0.0, 0.01),
        step_idio=Distribution.gaussian(0.0, 0.01),
    )


def benchmark_scalars(**overrides) -> dict:
    base = dict(A=0.4, A_bar=0.4, B1=0.4, B1_bar=0.4, B2=0.3, B2_bar=0.3,
                Q=0.4, Q_bar=0.4, R1=0.4, R1_bar=0.4, R2=0.4, R2_bar=0.4,
                gamma=0.9, noise=benchmark_noise())
    base.update(overrides)
    return base


@pytest.fixture
def model() -> ModelParams:
    """The scalar benchmark game used throughout the experiments."""
    return ModelParams(**benchmark_scalars())


@pytest.fixture
def zero_noise_model() -> ModelParams:
    return ModelParams(**benchmark_scalars(noise=zero_noise()))


@pytest.fixture
def model_2d() -> ModelParams:
    """A small two-dimensional instance exercising the matrix paths."""
    A = np.array([[0.30, 0.10], [0.00, 0.25]])
    A_bar = np.array([[0.10, 0.00], [0.05, 0.10]])
    B1 = np.array([[0.40], [0.10]])
    B1_bar = np.array([[0.10], [0.00]])
    B2 = np.array([[0.20], [0.30]])
    B2_bar = np.array([[0.00], [0.10]])
    Q = np.array([[0.40, 0.05], [0.05, 0.30]])
    Q_bar = np.array([[0.20, 0.00], [0.00, 0.10]])
    return ModelParams(
        A=A, A_bar=A_bar, B1=B1, B1_bar=B1_bar, B2=B2, B2_bar=B2_bar,
        Q=Q, Q_bar=Q_bar,
        R1=np.array([[0.40]]), R1_bar=np.array([[0.10]]),
        R2=np.array([[0.50]]), R2_bar=np.array([[0.10]]),
        gamma=0.9, noise=benchmark_noise(), d=2, ell=1,
    )


def random_game(d: int, ell: int, noise: NoiseSpec | None = None) -> ModelParams:
    """Seeded random game beyond the scalar benchmark.

    Every drift and input matrix is an independent Gaussian draw G from
    ``default_rng(d)``: A = 0.5 G/||G||_2, A_bar = 0.1 G, B1 = 0.3 G,
    B1_bar = 0.05 G, B2 = 0.2 G, B2_bar = 0.05 G; Q = 0.4 I, Q_bar = 0.2 I,
    R1 = 0.4 I, R1_bar = 0.1 I, R2 = 0.5 I, R2_bar = 0.1 I, gamma = 0.9.
    """
    rng = np.random.default_rng(d)

    def draw(rows, cols):
        return rng.standard_normal((rows, cols))

    A = draw(d, d)
    eye_d, eye_l = np.eye(d), np.eye(ell)
    return ModelParams(
        A=0.5 * A / np.linalg.norm(A, 2), A_bar=0.1 * draw(d, d),
        B1=0.3 * draw(d, ell), B1_bar=0.05 * draw(d, ell),
        B2=0.2 * draw(d, ell), B2_bar=0.05 * draw(d, ell),
        Q=0.4 * eye_d, Q_bar=0.2 * eye_d,
        R1=0.4 * eye_l, R1_bar=0.1 * eye_l, R2=0.5 * eye_l, R2_bar=0.1 * eye_l,
        gamma=0.9, noise=noise or benchmark_noise(), d=d, ell=ell,
    )


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def perfbench_module(name: str):
    """``perfbench/<name>.py``, loaded from its file as it is."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def perfbench_game(d: int, ell: int) -> ModelParams:
    """``perfbench.workloads.random_game(1, d, ell)`` as a model."""
    return ModelParams(**perfbench_module("workloads").random_game(1, d, ell), gamma=0.9,
                       noise=benchmark_noise(), d=d, ell=ell)


def feedback_coefs(model: ModelParams) -> dict:
    """The paper's signed feedback coefficients of each player i, from the
    model matrices: (dev, mf, mean) with dev = -+1/2 R_i^-1 B_i',
    mean = -+1/2 R~_i^-1 B~_i' on the aggregated matrices, and the
    mean-field correction mf = -+1/2 R_i^-1 (B_bar_i' - R_bar_i R~_i^-1 B~_i'),
    minus for the minimizing player 1."""
    coefs = {}
    for i, sign in ((1, -0.5), (2, 0.5)):
        B, B_bar = getattr(model, f"B{i}"), getattr(model, f"B{i}_bar")
        R, R_bar = getattr(model, f"R{i}"), getattr(model, f"R{i}_bar")
        mean_part = np.linalg.solve(R + R_bar, (B + B_bar).T)
        coefs[i] = (sign * np.linalg.solve(R, B.T),
                    sign * np.linalg.solve(R, B_bar.T - R_bar @ mean_part),
                    sign * mean_part)
    return coefs


def coefficient_gap(model: ModelParams) -> float:
    """Largest entry of mean - dev - mf over both players: the identity
    mean = dev + mf of ``feedback_coefs``."""
    return max(float(np.max(np.abs(mean - dev - mf)))
               for dev, mf, mean in feedback_coefs(model).values())


def game_are_oracle(params: ModelParams) -> np.ndarray:
    """Nash gains (2 players, 2 blocks, ell, d) from scipy's game Riccati
    equation of each block: X = solve_discrete_are(sqrt(g) A, sqrt(g) [B1 B2],
    Q, diag(R1, -R2)), F = (R + g B'XB)^{-1} g B'XA, K1 = F[:ell],
    K2 = -F[ell:] (independent solver path)."""
    import scipy.linalg

    g, ell = params.gamma, params.ell
    A_bar, B1_bar, B2_bar = params.A_bar, params.B1_bar, params.B2_bar
    gains = []
    for A, B1, B2, Q, R1, R2 in (
            (params.A, params.B1, params.B2, params.Q, params.R1, params.R2),
            (params.A + A_bar, params.B1 + B1_bar, params.B2 + B2_bar,
             params.Q + params.Q_bar, params.R1 + params.R1_bar, params.R2 + params.R2_bar)):
        B = np.hstack((B1, B2))
        R = scipy.linalg.block_diag(R1, -R2)
        X = scipy.linalg.solve_discrete_are(np.sqrt(g) * A, np.sqrt(g) * B, Q, R)
        F = np.linalg.solve(R + g * B.T @ X @ B, g * B.T @ X @ A)
        gains.append((F[:ell], -F[ell:]))
    return np.array(gains).swapaxes(0, 1)


def small_policy(model, seed: int = 0) -> PolicyPair:
    rng = np.random.default_rng(seed)
    return PolicyPair(*(0.1 * rng.standard_normal((model.ell, model.d))
                        for _ in range(4)))


# the scalar policy pair the pinned digests are taken at
PIN_THETA = PolicyPair(K1=np.array([[0.2]]), L1=np.array([[0.4]]),
                       K2=np.array([[0.1]]), L2=np.array([[0.3]]))


def digest(*arrays) -> str:
    """sha256 of the float64 bytes of the arrays, in order."""
    h = hashlib.sha256()
    for values in arrays:
        h.update(np.ascontiguousarray(values, dtype=float).tobytes())
    return h.hexdigest()


def stacked_oracle(monkeypatch) -> None:
    """Send the whole exact oracle down its stacked numpy path: no 1x1 pair
    is scored on Python floats (``value._scalar_utility``,
    ``_scalar_gradient``). The reference of the d = 1 path's bits."""
    monkeypatch.setattr("lqmfg.value._scalar_utility", lambda *args: None)
    monkeypatch.setattr("lqmfg.value._scalar_gradient", lambda *args: None)


def array_step(monkeypatch) -> None:
    """Send every learning step of ``optim.run`` down its numpy array path:
    no 1x1 step runs on Python floats (``optim._float_step``). The
    reference of the d = 1 step's bits."""
    monkeypatch.setattr("lqmfg.optim._float_step", lambda *args: None)
