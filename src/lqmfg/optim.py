"""Competing-update schemes over a pluggable gradient oracle.

Both schemes are one loop over a per-step schedule of (k, players):
gradient-descent-ascent steps both players at every global iteration k from
the same pre-step pair; alternating gradient steps the minimizer T1 times,
then the maximizer once, warm-started from the last minimizer iterate. Each
step is one oracle gradient at the pre-step pair and one update of the
players' rows of the (2 players, 2 blocks, ell, d) gain stack, with one
failure path. The oracle is either the exact closed-form gradient, which
evaluates each distinct iterate once (``_Oracle``), or the rollout-based
estimator. Progress is tracked against the Riccati benchmark.
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


def _same_theta(a: PolicyPair, b: PolicyPair) -> bool:
    """The same gains bit for bit (NaN payloads and signed zeros included)."""
    return a is b or a.stack.tobytes() == b.stack.tobytes()


class _Tracker:
    """Records and outcome of one run."""

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
    """Frobenius norm of each block, as np.linalg.norm computes it; a finite
    block whose sum of squares overflows is scaled by its largest entry."""
    blocks = grad.stack.reshape(4, -1)
    with np.errstate(over="ignore"):
        norms = [math.sqrt(v.dot(v)) for v in blocks]
    if math.inf in norms:
        norms = [_scaled_norm(v) if n == math.inf and np.isfinite(v).all() else n
                 for v, n in zip(blocks, norms)]
    return tuple(norms)


def _scaled_norm(v: np.ndarray) -> float:
    scale = float(np.abs(v).max())
    w = v / scale
    return scale * math.sqrt(w.dot(w))


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


def _schedule(cfg: OptimizerConfig):
    """(k, players) for each step in order. GDA steps both players at k = 1..T;
    AG steps the minimizer at k = m*T1 + 1 .. (m+1)*T1, then the maximizer at
    k None, which logs no record of its own."""
    if cfg.mode == "gda":
        return ((k, (1, 2)) for k in range(1, cfg.T + 1))
    return ((m * cfg.T1 + j, (1,)) if j <= cfg.T1 else (None, (2,))
            for m in range(cfg.T2) for j in range(1, cfg.T1 + 2))


def _moved(theta: PolicyPair, rows: slice, delta: np.ndarray) -> PolicyPair:
    stack = theta.stack.copy()
    stack[rows] += delta
    return PolicyPair.from_stack(stack)


def run(params: ModelParams, cfg: OptimizerConfig,
        benchmark: PolicyPair | None = None) -> RunLog:
    """Run the scheme of ``cfg.mode`` from ``cfg.theta0`` (zero gains if unset).

    Each step of ``_schedule`` takes one oracle gradient at the pre-step
    pair and moves the listed players' rows of the stack. A step that leaves
    the stabilizing set (at the gradient, or after MAX_STEP_HALVINGS under
    shrink_on_exit) ends the run at the pre-step pair; a step to a
    non-finite pair ends it at that pair. A step with a k is logged either
    way."""
    oracle = _Oracle(params, cfg)
    theta = cfg.theta0 if cfg.theta0 is not None else PolicyPair.zero(params.d, params.ell)
    theta.check_dims(params)
    if benchmark is None:
        bench_theta, bench_cost = compute_benchmark(params)
    else:
        bench_theta = benchmark
        bench_cost = exact_utility(params, benchmark, oracle.derived).cost
    tracker = _Tracker(cfg, oracle, bench_theta, bench_cost)
    # a row of theta + s*rates*g is K1 - s*eta1*dK1, ..., K2 + s*eta2*dK2
    # bit for bit: a + (-b) is a - b, and (-x)*y is -(x*y)
    rates = np.array([-cfg.eta1, cfg.eta2]).reshape(2, 1, 1, 1)
    for k, players in _schedule(cfg):
        rows = slice(players[0] - 1, players[-1])
        norms, status = (float("nan"),) * 4, "left_stabilizing_set"
        try:
            grad = oracle.gradient(theta, players)
        except NotStabilizing:
            grad = None
        if grad is not None:
            norms = _grad_norms(grad)
            tentative = _step_into_set(params, cfg, oracle, lambda s: _moved(
                theta, rows, s * rates[rows] * grad.stack[rows]))
            if tentative is not None:
                theta = tentative
                status = "ok" if np.isfinite(theta.stack).all() else "non_finite"
        if k is not None:
            tracker.record(k, theta, norms)
        if status != "ok":
            return tracker.finish(theta, status)
    return tracker.finish(theta, "completed")
