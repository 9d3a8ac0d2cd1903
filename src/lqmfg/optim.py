"""Competing-update schemes over a pluggable gradient oracle.

Both schemes are one loop over a per-step schedule of (k, players):
gradient-descent-ascent steps both players at every global iteration k from
the same pre-step pair; alternating gradient steps the minimizer T1 times,
then the maximizer once, warm-started from the last minimizer iterate. Each
step is one oracle gradient at the pre-step pair and one update of the
players' rows of the (2 players, 2 blocks, ell, d) gain stack, with one
failure path. At d = ell = 1 the step runs on Python floats with the array
step's bits, once per distinct pair, gradient and rows (``_float_step``); a
step to a gain that is not finite reruns on the arrays, which warn as numpy
does. The oracle is either the exact closed-form gradient, which evaluates
each distinct iterate once (``_Oracle``, in floats at d = 1), or the
rollout-based estimator. A run needs no equilibrium: it logs each iterate
with its exact utility, which the caller scores against its own benchmark.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import BenchmarkZero, NonFiniteRollout, NotStabilizing
from .estimator import EstimatorConfig, estimate_gradient
# in_stabilizing_set, validate, solve_riccati: looked up here by perfbench/spans.py
from .model import ModelParams, PolicyPair, in_stabilizing_set, validate  # noqa: F401
from .riccati import solve_riccati  # noqa: F401
from .simulate import derive_seed
from . import value
from .value import GradientPair, ValueSolution, _on_floats, exact_gradient, exact_utility


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
    estimator: EstimatorConfig | None = None    # set for the sampled oracle
    log_every: int = 1

    oracle = property(lambda self: "exact" if self.estimator is None else "sampled")

    def __post_init__(self):
        if self.mode not in ("ag", "gda"):
            raise ValueError("mode must be 'ag' or 'gda'")
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


@dataclass
class RunLog:
    """Per-iteration records plus the run outcome."""

    records: list[RunRecord] = field(default_factory=list)
    final_theta: PolicyPair | None = None
    termination: str = "completed"


def relative_error(current: float, benchmark: float) -> float:
    """|current - benchmark| / |benchmark|."""
    if benchmark == 0.0:
        raise BenchmarkZero("relative error undefined against a zero benchmark")
    return abs(current - benchmark) / abs(benchmark)


class _Oracle:
    """Gradient oracle with a monotone call counter for seed derivation.

    It keeps the last iterate that evaluated, with its solution and, once
    asked for, its gradient: an iterate with the same gains bit for bit
    (``_same_theta``), a new object or not, reuses them, and one that fails
    to evaluate is never stored, so a NaN iterate cannot match; at d = 1
    both are floats, where ``value._scalar_*`` take the pair. ``calls``
    counts every gradient call, reused or not, as the seeds derive from it."""

    def __init__(self, params: ModelParams, cfg: OptimizerConfig):
        self.params, self.cfg, self.calls = params, cfg, 0
        self._theta = self._solution = self._grad = None

    def utility(self, theta: PolicyPair):
        """The solution at theta, reused while theta has the stored gains."""
        if self._theta is None or not _same_theta(self._theta, theta):
            sol = _on_floats(self.params, theta) and value._scalar_utility(self.params, theta.flat)
            solution = sol or exact_utility(self.params, theta)
            self._theta, self._solution, self._grad = theta, solution, None
        return self._solution

    def gradient(self, theta: PolicyPair, players) -> GradientPair | value.ScalarGradient:
        """Utility gradient at theta for `players`, a tuple of 1 and/or 2.

        Exact mode evaluates the closed form for both players (theta must be
        stabilizing, signalled via NotStabilizing). Sampled mode runs the
        estimator once per listed player, each call with its own derived
        seed; the blocks of a player not listed are NaN."""
        if self.cfg.estimator is None:
            self.calls += 1
            sol = self.utility(theta)
            if self._grad is None:  # exact_gradient reruns a pair the floats decline
                floats = not isinstance(sol, ValueSolution)
                self._grad = (floats and value._scalar_gradient(self.params, theta.flat, *sol[:2])
                              or exact_gradient(self.params, theta, None if floats else sol))
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


def _float_step(theta: PolicyPair, rows: slice, rates, grad):
    """``run``'s step at d = ell = 1 on the floats of theta and grad, with the
    array step's bits: a norm is sqrt(g * g), or |g| where the square
    overflows (``_scaled_norm``), and a moved gain a + rate * g, each
    operation rounded. (norms, pair), the pair being theta itself where the
    gains kept their values and none is zero; None where a gain is not
    finite, so that the array step reruns and warns as numpy does."""
    old = theta.flat
    g = grad.stack.ravel().tolist() if isinstance(grad, GradientPair) else grad
    gains = list(old)
    for i in range(2 * rows.start, 2 * rows.stop):
        gains[i] += rates[i // 2] * g[i]
    if not all(map(math.isfinite, gains)):
        return None
    norms = tuple([math.sqrt(s) if (s := x * x) != math.inf else abs(x) for x in g])
    if (gains := tuple(gains)) == old and 0.0 not in old:  # bit for bit: no -0.0 turned +0.0
        return norms, theta
    pair = PolicyPair.from_stack(np.array(gains).reshape(2, 2, 1, 1))
    vars(pair)["flat"] = gains  # seeds the cached PolicyPair.flat
    return norms, pair


def run(params: ModelParams, cfg: OptimizerConfig) -> RunLog:
    """Run the scheme of ``cfg.mode`` from ``cfg.theta0`` (zero gains if unset).

    Each step of ``_schedule`` takes one oracle gradient at the pre-step
    pair and moves the listed players' rows of the stack at the fixed rates.
    A pre-step pair outside the stabilizing set, where the exact gradient
    raises NotStabilizing, ends the run there, and so does one whose
    sampled gradient's rollouts overflow (NonFiniteRollout, ending
    ``non_finite``); a step to a non-finite pair ends it at that pair. A
    step with a k is logged either way, every ``cfg.log_every`` steps and
    at k = 1, and a final pair that no record holds gets one more, with NaN
    gradient norms."""
    oracle = _Oracle(params, cfg)
    theta = cfg.theta0 if cfg.theta0 is not None else PolicyPair.zero(params.d, params.ell)
    floats = _on_floats(params, theta)
    log = RunLog()

    def record(k: int, pair: PolicyPair, grad_norms) -> None:
        try:
            cost = oracle.utility(pair).cost
        except NotStabilizing:
            cost = float("nan")
        log.records.append(RunRecord(k, pair, cost, grad_norms))

    # a row of theta + rates*g is K1 - eta1*dK1, ..., K2 + eta2*dK2
    # bit for bit: a + (-b) is a - b, and (-x)*y is -(x*y)
    rates = np.array([-cfg.eta1, cfg.eta2]).reshape(2, 1, 1, 1)
    float_rates = rates.ravel().tolist()
    last = (None,) * 4  # the last float step's pair, gradient, rows and result
    for k, players in _schedule(cfg):
        rows = slice(players[0] - 1, players[-1])
        try:
            grad = oracle.gradient(theta, players)
        except NotStabilizing:
            norms, status = (float("nan"),) * 4, "left_stabilizing_set"
        except NonFiniteRollout:
            norms, status = (float("nan"),) * 4, "non_finite"
        else:
            if floats and not (theta is last[0] and grad is last[1] and rows == last[2]):
                last = theta, grad, rows, _float_step(theta, rows, float_rates, grad)
            step = last[3] if floats else None
            if step is None:
                norms = _grad_norms(grad)
                theta = _moved(theta, rows, rates[rows] * grad.stack[rows])
                status = "ok" if np.isfinite(theta.stack).all() else "non_finite"
            else:
                (norms, theta), status = step, "ok"
        if k is not None and (k % cfg.log_every == 0 or k == 1):
            record(k, theta, norms)
        if status != "ok":
            break
    else:
        status = "completed"
    if not _same_theta(log.records[-1].theta, theta):  # k = 1 is always logged
        record(log.records[-1].k + 1, theta, (float("nan"),) * 4)
    log.final_theta, log.termination = theta, status
    return log
