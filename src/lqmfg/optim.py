"""Competing-update schemes over a pluggable gradient oracle.

Alternating-gradient runs T1 descent steps on the minimizer per single
ascent step of the maximizer; gradient-descent-ascent updates both
simultaneously from the pre-update pair. The oracle is either the exact
closed-form gradient or the rollout-based estimator. Progress is tracked
against the Riccati benchmark.

The exact oracle evaluates each distinct iterate once (``_Oracle``), and a
GDA step is one expression on the (2 players, 2 blocks, ell, d) stacks of the
pair and its gradient.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import BenchmarkZero, NotStabilizing
from .estimator import EstimatorConfig, estimate_gradient
from .model import ModelParams, PolicyPair, in_stabilizing_set, validate
from .riccati import nash_policy, solve_riccati
from .simulate import derive_seed
from .value import GradientPair, exact_gradient, exact_utility

MAX_STEP_HALVINGS = 20


@dataclass(frozen=True)
class OptimizerConfig:
    """Everything one optimization run needs besides the model."""

    mode: str                       # "ag" | "gda"
    eta1: float = 0.1
    eta2: float = 0.1
    T1: int = 10                    # AG inner steps
    T2: int = 200                   # AG outer steps
    T: int = 2000                   # GDA steps
    theta0: PolicyPair | None = None
    oracle: str = "exact"           # "exact" | "sampled"
    estimator: EstimatorConfig | None = None
    log_every: int = 1
    shrink_on_exit: bool = False

    def __post_init__(self):
        if self.mode not in ("ag", "gda"):
            raise ValueError("mode must be 'ag' or 'gda'")
        if self.oracle not in ("exact", "sampled"):
            raise ValueError("oracle must be 'exact' or 'sampled'")
        if self.oracle == "sampled" and self.estimator is None:
            raise ValueError("sampled oracle requires an estimator config")
        if min(self.T1, self.T2, self.T, self.log_every) < 1:
            raise ValueError("iteration counts must be >= 1")
        if not (0.0 <= self.eta1 < np.inf and 0.0 <= self.eta2 < np.inf):
            raise ValueError("learning rates must be finite and nonnegative")


@dataclass
class RunRecord:
    """State of one global iteration, following the convention that the
    minimizer advances every iteration and, under AG, the maximizer
    advances every T1 iterations."""

    k: int
    theta: PolicyPair
    cost: float                     # exact utility when evaluable, else NaN
    grad_norms: tuple[float, float, float, float]
    rel_err: float


@dataclass
class RunLog:
    """Per-iteration records plus the run outcome."""

    records: list[RunRecord] = field(default_factory=list)
    final_theta: PolicyPair | None = None
    termination: str = "completed"
    benchmark_theta: PolicyPair | None = None
    benchmark_cost: float = float("nan")
    wall_time: float = 0.0

    def final_rel_err(self) -> float:
        if self.final_theta is None or not np.isfinite(self.benchmark_cost):
            return float("nan")
        return self.records[-1].rel_err if self.records else float("nan")

    def write_csv(self, path) -> None:
        """One row per logged global iteration, full-precision floats, in the
        bytes of csv.writer's dialect: no field holds a comma, quote or newline."""
        header = ["k", "K1", "L1", "K2", "L2", "C",
                  "gradnorm_K1", "gradnorm_L1", "gradnorm_K2", "gradnorm_L2",
                  "rel_err"]
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\r\n")
            for rec in self.records:
                row = [str(rec.k), *map(_fmt_gain, rec.theta.stack.reshape(4, -1)),
                       *(repr(float(v)) for v in (rec.cost, *rec.grad_norms, rec.rel_err))]
                fh.write(",".join(row) + "\r\n")


def _fmt_gain(flat: np.ndarray) -> str:
    return ";".join(map(repr, flat.tolist()))


def relative_error(current: float, benchmark: float) -> float:
    """|current - benchmark| / |benchmark|."""
    if benchmark == 0.0:
        raise BenchmarkZero("relative error undefined against a zero benchmark")
    return abs(current - benchmark) / abs(benchmark)


def compute_benchmark(params: ModelParams) -> tuple[PolicyPair, float]:
    """Equilibrium policy and utility from the Riccati path."""
    theta_star = nash_policy(params, solve_riccati(params))
    return theta_star, exact_utility(params, theta_star).cost


class _Oracle:
    """Gradient oracle with a monotone call counter for seed derivation.

    It keeps the last iterate that evaluated, with its solution and, once
    asked for, its gradient: an iterate with the same gains bit for bit
    (``_same_theta``), a new object or not, reuses them, and one that fails
    to evaluate is never stored, so a NaN iterate cannot match. ``calls``
    counts every gradient call, reused or not, as the seeds derive from it."""

    def __init__(self, params: ModelParams, cfg: OptimizerConfig):
        self.params = params
        self.cfg = cfg
        self.derived = validate(params)
        self.calls = 0
        self._theta = self._solution = self._grad = None

    def utility(self, theta: PolicyPair):
        """exact_utility at theta, reused while theta has the stored gains."""
        if self._theta is None or not _same_theta(self._theta, theta):
            solution = exact_utility(self.params, theta, self.derived)
            self._theta, self._solution, self._grad = theta, solution, None
        return self._solution

    def gradient(self, theta: PolicyPair, players) -> GradientPair:
        """Utility gradient at theta for `players`, a tuple of 1 and/or 2.

        Exact mode evaluates the closed form for both players (theta must be
        stabilizing, signalled via NotStabilizing). Sampled mode runs the
        estimator once per listed player, each call with its own derived
        seed; the blocks of a player not listed are NaN."""
        if self.cfg.oracle == "exact":
            self.calls += 1
            solution = self.utility(theta)
            if self._grad is None:
                self._grad = exact_gradient(self.params, theta, self.derived, solution)
            return self._grad
        est = self.cfg.estimator
        grad = np.full((2, 2, self.params.ell, self.params.d), np.nan)
        for player in players:
            self.calls += 1
            call_cfg = replace(est, seed=derive_seed(est.seed, self.calls, player))
            grad[player - 1] = estimate_gradient(self.params, theta, player, call_cfg)
        return GradientPair(grad)


def _theta_update(theta: PolicyPair, player: int, gK, gL, eta: float) -> PolicyPair:
    stack, rate = theta.stack.copy(), (-eta if player == 1 else eta)
    stack[player - 1, 0] += rate * gK
    stack[player - 1, 1] += rate * gL
    return PolicyPair.from_stack(stack)


def _is_finite(theta: PolicyPair) -> bool:
    return bool(np.isfinite(theta.stack).all())


def _same_theta(a: PolicyPair, b: PolicyPair) -> bool:
    """The same gains bit for bit (NaN payloads and signed zeros included)."""
    return a is b or a.stack.tobytes() == b.stack.tobytes()


class _Tracker:
    """Logging helper shared by both schemes."""

    def __init__(self, cfg, oracle, benchmark_theta, benchmark_cost):
        self.cfg = cfg
        self.oracle = oracle
        self.log = RunLog(benchmark_theta=benchmark_theta,
                          benchmark_cost=benchmark_cost)
        self.t0 = time.perf_counter()

    def exact_cost(self, theta: PolicyPair) -> float:
        try:
            return self.oracle.utility(theta).cost
        except NotStabilizing:
            return float("nan")

    def _append(self, k: int, theta: PolicyPair, grad_norms) -> None:
        cost = self.exact_cost(theta)
        rel = (relative_error(cost, self.log.benchmark_cost)
               if np.isfinite(cost) else float("nan"))
        self.log.records.append(RunRecord(
            k=k, theta=theta, cost=cost, grad_norms=tuple(grad_norms),
            rel_err=rel))

    def record(self, k: int, theta: PolicyPair, grad_norms) -> None:
        if k % self.cfg.log_every == 0 or k == 1:
            self._append(k, theta, grad_norms)

    def finish(self, theta: PolicyPair, termination: str) -> RunLog:
        self.log.final_theta = theta
        self.log.termination = termination
        self.log.wall_time = time.perf_counter() - self.t0
        if self.log.records and not _same_theta(self.log.records[-1].theta, theta):
            self._append(self.log.records[-1].k + 1, theta, (float("nan"),) * 4)
        return self.log


def _grad_norms(grad: GradientPair):
    """Frobenius norm of each block, as np.linalg.norm computes it."""
    return tuple(math.sqrt(v.dot(v)) for v in grad.stack.reshape(4, -1))


def _step_into_set(params, cfg, oracle, step):
    """step(1), or with shrink_on_exit under the exact oracle the first of
    step(1), step(1/2), ... inside the stabilizing set; None when
    MAX_STEP_HALVINGS halvings do not get there."""
    new_theta = step(1.0)
    if not (cfg.shrink_on_exit and cfg.oracle == "exact"):
        return new_theta
    scale = 1.0
    for _ in range(MAX_STEP_HALVINGS):
        if in_stabilizing_set(params, new_theta, oracle.derived):
            return new_theta
        scale *= 0.5
        new_theta = step(scale)
    return None


def _attempt_step(params, cfg, oracle, theta, player, eta):
    """One oracle call plus update; optionally halves the step while the
    tentative iterate exits the stabilizing set.

    Returns (new_theta, grad_norms, status) where status is one of
    "ok", "left_stabilizing_set", "non_finite"."""
    try:
        grad = oracle.gradient(theta, (player,))
    except NotStabilizing:
        return theta, (float("nan"),) * 4, "left_stabilizing_set"
    norms = _grad_norms(grad)
    gK, gL = grad.stack[player - 1]
    new_theta = _step_into_set(
        params, cfg, oracle, lambda s: _theta_update(theta, player, gK, gL, s * eta))
    if new_theta is None:
        return theta, norms, "left_stabilizing_set"
    if not _is_finite(new_theta):
        return theta, norms, "non_finite"
    return new_theta, norms, "ok"


def _prepare(params, cfg, benchmark):
    oracle = _Oracle(params, cfg)
    theta = cfg.theta0 if cfg.theta0 is not None else PolicyPair.zero(params.d, params.ell)
    theta.check_dims(params)
    if benchmark is None:
        bench_theta, bench_cost = compute_benchmark(params)
    else:
        bench_theta = benchmark
        bench_cost = exact_utility(params, benchmark, oracle.derived).cost
    tracker = _Tracker(cfg, oracle, bench_theta, bench_cost)
    return theta, oracle, tracker


def run_ag(params: ModelParams, cfg: OptimizerConfig,
           benchmark: PolicyPair | None = None) -> RunLog:
    """Alternating gradient: T1 minimizer steps per maximizer step, inner
    loop warm-started from the previous outer iterate.

    Global iteration k counts minimizer steps; the maximizer's update lands
    between iterations k = m*T1 and k = m*T1 + 1.
    """
    if cfg.mode != "ag":
        raise ValueError("config mode must be 'ag'")
    theta, oracle, tracker = _prepare(params, cfg, benchmark)
    k = 0
    for _ in range(1, cfg.T2 + 1):
        for _ in range(1, cfg.T1 + 1):
            k += 1
            theta, norms, status = _attempt_step(
                params, cfg, oracle, theta, player=1, eta=cfg.eta1)
            tracker.record(k, theta, norms)
            if status != "ok":
                return tracker.finish(theta, status)
        theta, norms, status = _attempt_step(
            params, cfg, oracle, theta, player=2, eta=cfg.eta2)
        if status != "ok":
            return tracker.finish(theta, status)
    return tracker.finish(theta, "completed")


def run_gda(params: ModelParams, cfg: OptimizerConfig,
            benchmark: PolicyPair | None = None) -> RunLog:
    """Gradient descent-ascent: both players step simultaneously from
    gradients evaluated at the pre-update pair."""
    if cfg.mode != "gda":
        raise ValueError("config mode must be 'gda'")
    theta, oracle, tracker = _prepare(params, cfg, benchmark)
    # theta + s*rates*g is theta.K1 - s*eta1*dK1, ..., theta.K2 + s*eta2*dK2,
    # ... bit for bit: a + (-b) is a - b, and (-x)*y is -(x*y)
    rates = np.array([-cfg.eta1, cfg.eta2]).reshape(2, 1, 1, 1)
    for k in range(1, cfg.T + 1):
        try:
            grad = oracle.gradient(theta, (1, 2))
        except NotStabilizing:
            tracker.record(k, theta, (float("nan"),) * 4)
            return tracker.finish(theta, "left_stabilizing_set")
        norms = _grad_norms(grad)
        tentative = _step_into_set(params, cfg, oracle, lambda s: PolicyPair.from_stack(
            theta.stack + s * rates * grad.stack))
        if tentative is None:
            tracker.record(k, theta, norms)
            return tracker.finish(theta, "left_stabilizing_set")
        theta = tentative
        if not _is_finite(theta):
            tracker.record(k, theta, norms)
            return tracker.finish(theta, "non_finite")
        tracker.record(k, theta, norms)
    return tracker.finish(theta, "completed")


def run(params: ModelParams, cfg: OptimizerConfig,
        benchmark: PolicyPair | None = None) -> RunLog:
    return run_ag(params, cfg, benchmark) if cfg.mode == "ag" \
        else run_gda(params, cfg, benchmark)
