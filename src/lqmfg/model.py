"""Game definition: dynamics/utility matrices, noise menu, policies.

The state splits into a deviation part (state minus its conditional mean,
driven by the K gains and the plain matrices) and a mean part (the
conditional mean itself, driven by the L gains and the aggregated "tilde"
matrices A+A_bar, B_i+B_bar_i, ...). Everything downstream works on that
decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property, partial
from operator import matmul

import numpy as np

from .errors import (
    BadDiscount,
    DimensionMismatch,
    InvalidNoise,
    NonPositiveDefinite,
    NonSymmetric,
)

_PD_PIVOT_TOL = 1e-10
_SYM_TOL = 1e-9


def _as_matrix(value, rows: int, cols: int, name: str) -> np.ndarray:
    m = np.atleast_2d(np.asarray(value, dtype=float))
    if m.shape != (rows, cols):
        raise DimensionMismatch(f"{name}: expected shape {(rows, cols)}, got {m.shape}")
    m = m.copy()
    m.setflags(write=False)
    return m


def check_positive_definite(mat: np.ndarray, name: str) -> None:
    """Symmetric factorization check; smallest pivot must clear the tolerance."""
    if not np.allclose(mat, mat.T, atol=_SYM_TOL, rtol=0.0):
        raise NonSymmetric(f"{name} must be symmetric")
    try:
        chol = np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        raise NonPositiveDefinite(f"{name} is not positive definite") from None
    pivots = np.diag(chol) ** 2
    if np.min(pivots) <= _PD_PIVOT_TOL:
        raise NonPositiveDefinite(
            f"{name}: smallest pivot {np.min(pivots):.3e} below tolerance"
        )


@dataclass(frozen=True)
class Distribution:
    """Per-coordinate i.i.d. scalar distribution descriptor.

    Supported kinds: ``uniform`` on [p1, p2], ``gaussian`` with mean p1 and
    variance p2, ``point`` mass at p1. Construction raises InvalidNoise for
    any other kind, a non-finite parameter, p2 < p1 in ``uniform`` and a
    negative ``gaussian`` variance.
    """

    kind: str
    p1: float = 0.0
    p2: float = 0.0

    def __post_init__(self):
        if self.kind not in ("uniform", "gaussian", "point"):
            raise InvalidNoise(f"unknown distribution kind {self.kind!r}")
        if not (np.isfinite(self.p1) and np.isfinite(self.p2)):
            raise InvalidNoise(f"{self.kind}: non-finite parameter ({self.p1}, {self.p2})")
        if self.kind == "uniform" and self.p2 < self.p1:
            raise InvalidNoise(f"uniform: high {self.p2} < low {self.p1}")
        if self.kind == "gaussian" and self.p2 < 0:
            raise InvalidNoise(f"gaussian: negative variance {self.p2}")

    @classmethod
    def uniform(cls, low: float, high: float) -> "Distribution":
        return cls("uniform", float(low), float(high))

    @classmethod
    def gaussian(cls, mean: float, variance: float) -> "Distribution":
        return cls("gaussian", float(mean), float(variance))

    @classmethod
    def point(cls, value: float = 0.0) -> "Distribution":
        return cls("point", float(value))

    @property
    def mean_scalar(self) -> float:
        if self.kind == "uniform":
            return 0.5 * (self.p1 + self.p2)
        return self.p1

    @property
    def var_scalar(self) -> float:
        if self.kind == "uniform":
            return (self.p2 - self.p1) ** 2 / 12.0
        if self.kind == "gaussian":
            return self.p2
        return 0.0

    def mean(self, dim: int) -> np.ndarray:
        return np.full(dim, self.mean_scalar)

    def cov(self, dim: int) -> np.ndarray:
        return self.var_scalar * np.eye(dim)

    def sample(self, rng: np.random.Generator, shape) -> np.ndarray:
        """Draw an array of the given shape (last axis = coordinate)."""
        if self.kind == "uniform":
            return rng.uniform(self.p1, self.p2, shape)
        if self.kind == "gaussian":
            # in place, one array: IEEE * and + commute, so this rounds
            # exactly as p1 + sqrt(p2) * z
            z = rng.standard_normal(shape)
            z *= np.sqrt(self.p2)
            z += self.p1
            return z
        return np.full(shape, self.p1)


@dataclass(frozen=True)
class NoiseSpec:
    """The four noise sources: initial and per-step, common and idiosyncratic.

    Step noises must have mean zero; that is what makes the conditional-mean
    recursion autonomous.
    """

    init_common: Distribution
    init_idio: Distribution
    step_common: Distribution
    step_idio: Distribution

    def __post_init__(self):
        for name in ("step_common", "step_idio"):
            dist = getattr(self, name)
            if dist.mean_scalar != 0.0:
                raise InvalidNoise(f"{name} must have mean zero, got {dist.mean_scalar}")


@dataclass(frozen=True)
class ModelParams:
    """All matrices and scalars defining one game instance.

    A, A_bar are d x d; B1, B1_bar, B2, B2_bar are d x ell; Q, Q_bar are
    d x d symmetric; the R blocks are ell x ell symmetric with R_i and
    R_i + R_i_bar positive definite; gamma is the discount in (0, 1).
    Each matrix is coerced to its shape, so the scalar game (d = ell = 1,
    the default) takes plain numbers.
    """

    A: np.ndarray
    A_bar: np.ndarray
    B1: np.ndarray
    B1_bar: np.ndarray
    B2: np.ndarray
    B2_bar: np.ndarray
    Q: np.ndarray
    Q_bar: np.ndarray
    R1: np.ndarray
    R1_bar: np.ndarray
    R2: np.ndarray
    R2_bar: np.ndarray
    gamma: float
    noise: NoiseSpec
    d: int = 1
    ell: int = 1

    def __post_init__(self):
        d, ell = int(self.d), int(self.ell)
        if d < 1 or ell < 1:
            raise DimensionMismatch(f"dimensions must be positive, got d={d}, ell={ell}")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "ell", ell)
        for name in ("A", "A_bar", "Q", "Q_bar"):
            object.__setattr__(self, name, _as_matrix(getattr(self, name), d, d, name))
        for name in ("B1", "B1_bar", "B2", "B2_bar"):
            object.__setattr__(self, name, _as_matrix(getattr(self, name), d, ell, name))
        for name in ("R1", "R1_bar", "R2", "R2_bar"):
            object.__setattr__(self, name, _as_matrix(getattr(self, name), ell, ell, name))
        object.__setattr__(self, "gamma", float(self.gamma))

    @cached_property
    def derived(self) -> "DerivedParams":
        """``validate(self)``, computed on first access and kept: the instance
        is frozen and its arrays read-only. A validation that raises keeps
        nothing, so the next access raises again."""
        return _derive(self)

    def __reduce__(self):
        # through the constructor: the copy gets read-only matrices of its
        # own, and ``derived`` is recomputed on first access, not shipped
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


def _mT(x: np.ndarray) -> np.ndarray:
    return x.swapaxes(-1, -2)


_trace = partial(np.trace, axis1=-2, axis2=-1)


@dataclass(frozen=True)
class LQBlock:
    """One of the two LQ problems a linear policy pair splits the game into.

    The deviation block holds the plain matrices A, B1, B2, Q, R1, R2 and is
    driven by the K gains; the mean block holds their aggregated "tilde"
    counterparts and is driven by the L gains. ``V0`` is the initial second
    moment of the block's state and ``W`` the covariance of its step noise.
    Every formula that acts on one block is written once against this type,
    over a product ``mm``, transpose ``T`` and trace ``tr``: by default ``@``
    and the matrix ones, slice by slice on stacks (``DerivedParams.stack``);
    on the Python floats of ``DerivedParams.scalars``, numpy's 1x1 product
    ``x * y + 0.0`` and the identity, with the bits of the arrays (``value``).
    """

    A: np.ndarray
    B1: np.ndarray
    B2: np.ndarray
    Q: np.ndarray
    R1: np.ndarray
    R2: np.ndarray
    V0: np.ndarray
    W: np.ndarray

    def closed_loop(self, G1, G2, mm=matmul) -> np.ndarray:
        """Closed-loop matrix A - B1 G1 + B2 G2."""
        return self.A - mm(self.B1, G1) + mm(self.B2, G2)

    def stage_weights(self, G1, G2, mm=matmul, T=_mT) -> np.ndarray:
        """Stage-cost weights Q + G1' R1 G1 - G2' R2 G2 of the closed loop (the
        source of the block's value equation)."""
        return self.Q + mm(mm(T(G1), self.R1), G1) - mm(mm(T(G2), self.R2), G2)

    def cost(self, P, tail: float, mm=matmul, tr=_trace):
        """Utility tr(P V0) + tail tr(P W) of value P, tail = gamma/(1-gamma)."""
        return tr(mm(P, self.V0)) + tail * tr(mm(P, self.W))


@dataclass(frozen=True)
class DerivedParams:
    """The two blocks the game splits into.

    ``stack`` holds them as (2, ...) arrays, deviation first; ``dev``,
    ``mean`` and the tilde fields (the aggregated matrices) are views of its
    slices.
    """

    A_tilde: np.ndarray
    B1_tilde: np.ndarray
    B2_tilde: np.ndarray
    Q_tilde: np.ndarray
    R1_tilde: np.ndarray
    R2_tilde: np.ndarray
    stack: LQBlock
    dev: LQBlock
    mean: LQBlock

    @cached_property
    def scalars(self) -> tuple[LQBlock, LQBlock]:
        """At d = ell = 1, the blocks of ``stack`` with Python floats for
        fields, dev first, read on first access and kept."""
        columns = (m.ravel().tolist() for m in vars(self.stack).values())
        return tuple(LQBlock(*entries) for entries in zip(*columns))


@dataclass(frozen=True, init=False, eq=False)
class PolicyPair:
    """Linear feedback gains (K_i on the deviation, L_i on the mean).

    The pair holds one read-only array, ``stack`` (2 players, 2 blocks, ell,
    d) = [[K1, L1], [K2, L2]], each player's slice stacked like
    ``DerivedParams.stack``; ``K1`` ... ``L2`` are its views and ``flat`` its
    entries as a tuple of Python floats, each made and kept on first access.
    A learning step updates a player's rows of a copy of it.
    """

    stack: np.ndarray

    def __init__(self, K1, L1, K2, L2):
        mats = [np.atleast_2d(np.asarray(m, dtype=float)) for m in (K1, L1, K2, L2)]
        shape = mats[0].shape
        for name, m in zip(("K1", "L1", "K2", "L2"), mats):
            if m.shape != shape:
                raise DimensionMismatch(f"{name}: expected {shape}, got {m.shape}")
        stack = np.stack(mats).reshape(2, 2, *shape)
        stack.setflags(write=False)
        object.__setattr__(self, "stack", stack)

    K1 = cached_property(lambda self: self.stack[0, 0])
    L1 = cached_property(lambda self: self.stack[0, 1])
    K2 = cached_property(lambda self: self.stack[1, 0])
    L2 = cached_property(lambda self: self.stack[1, 1])
    flat = cached_property(lambda self: tuple(self.stack.ravel().tolist()))

    @classmethod
    def from_stack(cls, stack: np.ndarray) -> "PolicyPair":
        """The pair of a fresh (2, 2, ell, d) array, taken over read-only."""
        pair = object.__new__(cls)
        stack.setflags(write=False)
        object.__setattr__(pair, "stack", stack)
        return pair

    def __reduce__(self):
        # a pickled array comes back writeable; ``from_stack`` takes it over
        return type(self).from_stack, (self.stack,)

    @classmethod
    def zero(cls, d: int = 1, ell: int = 1) -> "PolicyPair":
        return cls.from_stack(np.zeros((2, 2, ell, d)))

    def check_dims(self, params: ModelParams) -> None:
        if self.stack.shape[2:] != (params.ell, params.d):
            raise DimensionMismatch(
                f"gains must be {(params.ell, params.d)}, got {self.stack.shape[2:]}"
            )


def validate(params: ModelParams) -> DerivedParams:
    """Check model invariants and compute the aggregated quantities.

    Rejects discounts outside (0, 1), non-PD control weights, asymmetric
    state weights, and nonzero step-noise means. The checks run once per
    model: the result is ``params.derived``, kept on the instance.
    """
    return params.derived


def _derive(params: ModelParams) -> DerivedParams:
    if not (0.0 < params.gamma < 1.0):
        raise BadDiscount(f"gamma must lie in (0, 1), got {params.gamma}")
    for name in ("Q", "Q_bar"):
        mat = getattr(params, name)
        if not np.allclose(mat, mat.T, atol=_SYM_TOL, rtol=0.0):
            raise NonSymmetric(f"{name} must be symmetric")

    A_tilde = params.A + params.A_bar
    B1_tilde = params.B1 + params.B1_bar
    B2_tilde = params.B2 + params.B2_bar
    Q_tilde = params.Q + params.Q_bar
    R1_tilde = params.R1 + params.R1_bar
    R2_tilde = params.R2 + params.R2_bar

    check_positive_definite(params.R1, "R1")
    check_positive_definite(params.R2, "R2")
    check_positive_definite(R1_tilde, "R1 + R1_bar")
    check_positive_definite(R2_tilde, "R2 + R2_bar")

    # The deviation process starts at the recentred idiosyncratic draw, so its
    # initial second moment is that draw's covariance; the mean process starts
    # at the common draw plus the idiosyncratic mean.
    d, noise = params.d, params.noise
    mu = noise.init_common.mean(d) + noise.init_idio.mean(d)
    pairs = ((params.A, A_tilde), (params.B1, B1_tilde), (params.B2, B2_tilde),
             (params.Q, Q_tilde), (params.R1, R1_tilde), (params.R2, R2_tilde),
             (noise.init_idio.cov(d), noise.init_common.cov(d) + np.outer(mu, mu)),
             (noise.step_idio.cov(d), noise.step_common.cov(d)))
    stacked = [np.stack(pair) for pair in pairs]
    for m in stacked:
        m.setflags(write=False)
    dev, mean = (LQBlock(*(m[i] for m in stacked)) for i in (0, 1))
    return DerivedParams(
        A_tilde=mean.A, B1_tilde=mean.B1, B2_tilde=mean.B2,
        Q_tilde=mean.Q, R1_tilde=mean.R1, R2_tilde=mean.R2,
        stack=LQBlock(*stacked), dev=dev, mean=mean,
    )


def spectral_norm(mat: np.ndarray) -> np.ndarray:
    """Operator 2-norm of each matrix in a stack (..., m, n), by one SVD call.

    The reference norm, not the gate: ``loop_stable`` decides
    gamma * ||M||^2 < 1 without it, and the tests check its decisions
    against this norm."""
    return np.linalg.svd(mat, compute_uv=False)[..., 0]


def loop_stable(M: np.ndarray, gamma: float) -> bool:
    """gamma * ||M||^2 < 1 (operator 2-norm) for every closed loop in the
    stack M (..., d, d): the one admissibility test for a closed loop,
    sufficient for its discounted sums to converge. NaN or inf fail.

    ||M|| >= |M_ij|, so gamma * max |M_ij|^2 < 1 is necessary; in Python
    floats it also fails NaN, inf and entries whose square overflows, and it
    bounds M'M. For d = 1 it is the whole test. Otherwise the test is
    I - gamma M'M positive definite, by one Cholesky call over the stack,
    which raises if any slice fails."""
    peak = float(np.abs(M).max())
    if not gamma * peak * peak < 1.0:
        return False
    d = M.shape[-1]
    if d == 1:
        return True
    try:
        np.linalg.cholesky(np.eye(d) - gamma * (M.swapaxes(-1, -2) @ M))
    except np.linalg.LinAlgError:
        return False
    return True


def in_stabilizing_set(params: ModelParams, theta: PolicyPair) -> bool:
    """Membership test for the set of policy pairs with summable discounted
    second moments: both closed loops must pass ``loop_stable``."""
    theta.check_dims(params)
    return loop_stable(validate(params).stack.closed_loop(*theta.stack), params.gamma)
