"""Outside-in span recorder for the traced run, and the per-layer metrics.

The recorder replaces each public function at the module where its caller
looks it up (``lqmfg.optim.exact_gradient``, ``lqmfg.value.spectral_norm``,
...), so calls between modules are caught without touching the program.
Spans (name, start, end, parent) stay in memory and are written out once,
when the traced run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import time

# (module where the function is looked up, attribute, span name)
WRAPS = [
    ("lqmfg.cli", "load_config", "cli.load_config"),
    ("lqmfg.cli", "run_experiment", "cli.run_experiment"),
    ("lqmfg.cli", "run_nagent_validation", "cli.run_nagent_validation"),
    ("lqmfg.cli", "run", "optim.run"),
    ("lqmfg.cli", "solve_riccati", "riccati.solve_riccati"),
    ("lqmfg.optim", "solve_riccati", "riccati.solve_riccati"),
    ("lqmfg.cli", "exact_utility", "value.exact_utility"),
    ("lqmfg.optim", "exact_utility", "value.exact_utility"),
    ("lqmfg.value", "exact_utility", "value.exact_utility"),
    ("lqmfg.optim", "exact_gradient", "value.exact_gradient"),
    ("lqmfg.value", "solve_dev_value", "value.solve_dev_value"),
    ("lqmfg.riccati", "solve_dev_value", "value.solve_dev_value"),
    ("lqmfg.value", "solve_mean_value", "value.solve_mean_value"),
    ("lqmfg.riccati", "solve_mean_value", "value.solve_mean_value"),
    ("lqmfg.value", "discounted_second_moment", "value.discounted_second_moment"),
    ("lqmfg.model", "spectral_norm", "model.spectral_norm"),
    ("lqmfg.value", "spectral_norm", "model.spectral_norm"),
    ("lqmfg.optim", "in_stabilizing_set", "model.in_stabilizing_set"),
    ("lqmfg.cli", "validate_model", "model.validate"),
    ("lqmfg.model", "validate", "model.validate"),
    ("lqmfg.optim", "validate", "model.validate"),
    ("lqmfg.value", "validate", "model.validate"),
    ("lqmfg.riccati", "validate", "model.validate"),
    ("lqmfg.simulate", "validate", "model.validate"),
    ("lqmfg.optim", "estimate_gradient", "estimator.estimate_gradient"),
    ("lqmfg.estimator", "mkv_utility_batch", "simulate.mkv_utility_batch"),
    ("lqmfg.cli", "mkv_utility_batch", "simulate.mkv_utility_batch"),
    ("lqmfg.cli", "nagent_utility_batch", "simulate.nagent_utility_batch"),
]


def _arg(fn, name):
    sig = inspect.signature(fn)
    return lambda args, kwargs: sig.bind(*args, **kwargs).arguments[name]


def _work_fns():
    """Per span name: work units one call did, from its arguments or result."""
    from lqmfg import simulate

    horizon_m, paths = (_arg(simulate.mkv_utility_batch, n) for n in ("horizon", "n_paths"))
    horizon_n, agents, reps = (_arg(simulate.nagent_utility_batch, n)
                               for n in ("horizon", "N", "n_reps"))
    return {
        "riccati.solve_riccati": lambda a, k, result: result.iterations,
        "simulate.mkv_utility_batch": lambda a, k, result: horizon_m(a, k) * paths(a, k),
        "simulate.nagent_utility_batch":
            lambda a, k, result: horizon_n(a, k) * agents(a, k) * reps(a, k),
    }


class SpanRecorder:
    """Flat span table: parallel lists indexed by span id; parent -1 is a root."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.work: dict[str, float] = {}
        self._open: list[int] = []

    def wrap(self, fn, name: str, work=None):
        names, starts, ends, parents, open_ = (self.names, self.starts, self.ends,
                                               self.parents, self._open)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(open_[-1] if open_ else -1)
            ends.append(0.0)
            open_.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                open_.pop()
            if work is not None:
                self.work[name] = self.work.get(name, 0) + work(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every function in WRAPS at its lookup site."""
        work = _work_fns()
        for module_name, attr, name in WRAPS:
            module = importlib.import_module(module_name)
            setattr(module, attr, self.wrap(getattr(module, attr), name, work.get(name)))

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names, "starts": self.starts, "ends": self.ends,
                       "parents": self.parents, "work": self.work}, fh)


class _Stat:
    def __init__(self):
        self.calls = 0
        self.total = 0.0        # outermost spans of this name only
        self.self_total = 0.0
        self.durations: list[float] = []

    def pct_ms(self, q: float) -> float:
        """Nearest-rank percentile of the span durations, in ms."""
        if not self.durations:
            return 0.0
        ranked = sorted(self.durations)
        return 1e3 * ranked[max(0, math.ceil(q * len(ranked)) - 1)]


def span_stats(spans: dict) -> dict[str, _Stat]:
    """Calls, inclusive time, self time and durations per span name.

    Self time is a span's duration minus the durations of its direct
    children; inclusive time counts a span only when no ancestor has the
    same name, so recursion is not counted twice.
    """
    names, starts, ends, parents = (spans[k] for k in ("names", "starts", "ends", "parents"))
    child_time = [0.0] * len(names)
    for idx, parent in enumerate(parents):
        if parent >= 0:
            child_time[parent] += ends[idx] - starts[idx]
    stats: dict[str, _Stat] = {}
    for idx, name in enumerate(names):
        st = stats.setdefault(name, _Stat())
        dur = ends[idx] - starts[idx]
        st.calls += 1
        st.self_total += dur - child_time[idx]
        st.durations.append(dur)
        parent = parents[idx]
        while parent >= 0 and names[parent] != name:
            parent = parents[parent]
        if parent < 0:
            st.total += dur
    return stats


LYAP = ("value.solve_dev_value", "value.solve_mean_value", "value.discounted_second_moment")

# (metric, unit, better); BENCHMARK.json lists the same metrics.
LAYER_METRICS = [
    ("value.exact_gradient.calls", "count", "lower"),
    ("value.exact_gradient.s", "s", "lower"),
    ("value.exact_gradient.p50_ms", "ms", "lower"),
    ("value.exact_gradient.p99_ms", "ms", "lower"),
    ("value.exact_utility.calls", "count", "lower"),
    ("value.exact_utility.self_s", "s", "lower"),
    ("value.lyap_solves", "count", "lower"),
    ("value.lyap_solve.s", "s", "lower"),
    ("model.spectral_norm.calls", "count", "lower"),
    ("model.spectral_norm.s", "s", "lower"),
    ("model.in_stabilizing_set.calls", "count", "lower"),
    ("model.in_stabilizing_set.s", "s", "lower"),
    ("model.validate.calls", "count", "lower"),
    ("model.validate.s", "s", "lower"),
    ("riccati.solve_riccati.s", "s", "lower"),
    ("riccati.iterations", "count", "lower"),
    ("simulate.mkv_utility_batch.calls", "count", "lower"),
    ("simulate.mkv_utility_batch.s", "s", "lower"),
    ("simulate.mkv_utility_batch.path_steps_per_s", "1/s", "higher"),
    ("simulate.nagent_utility_batch.calls", "count", "lower"),
    ("simulate.nagent_utility_batch.s", "s", "lower"),
    ("simulate.nagent_utility_batch.agent_steps_per_s", "1/s", "higher"),
    ("estimator.estimate_gradient.calls", "count", "lower"),
    ("estimator.estimate_gradient.self_s", "s", "lower"),
    ("estimator.estimate_gradient.p50_ms", "ms", "lower"),
    ("optim.run.self_s", "s", "lower"),
    ("optim.oracle_calls", "count", "lower"),
    ("cli.run_experiment.self_s", "s", "lower"),
    ("cli.load_config.s", "s", "lower"),
    ("cli.bytes_written", "bytes", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def layer_metrics(spans: dict, bytes_written: int) -> dict[str, float]:
    """Every LAYER_METRICS value of one traced run except the overhead."""
    stats = span_stats(spans)
    work = spans["work"]
    empty = _Stat()

    def st(name):
        return stats.get(name, empty)

    def rate(name):
        return work.get(name, 0) / st(name).total if st(name).total else 0.0

    grad, est = st("value.exact_gradient"), st("estimator.estimate_gradient")
    return {
        "value.exact_gradient.calls": grad.calls,
        "value.exact_gradient.s": grad.total,
        "value.exact_gradient.p50_ms": grad.pct_ms(0.50),
        "value.exact_gradient.p99_ms": grad.pct_ms(0.99),
        "value.exact_utility.calls": st("value.exact_utility").calls,
        "value.exact_utility.self_s": st("value.exact_utility").self_total,
        "value.lyap_solves": sum(st(n).calls for n in LYAP),
        "value.lyap_solve.s": sum(st(n).total for n in LYAP),
        "model.spectral_norm.calls": st("model.spectral_norm").calls,
        "model.spectral_norm.s": st("model.spectral_norm").total,
        "model.in_stabilizing_set.calls": st("model.in_stabilizing_set").calls,
        "model.in_stabilizing_set.s": st("model.in_stabilizing_set").total,
        "model.validate.calls": st("model.validate").calls,
        "model.validate.s": st("model.validate").total,
        "riccati.solve_riccati.s": st("riccati.solve_riccati").total,
        "riccati.iterations": work.get("riccati.solve_riccati", 0),
        "simulate.mkv_utility_batch.calls": st("simulate.mkv_utility_batch").calls,
        "simulate.mkv_utility_batch.s": st("simulate.mkv_utility_batch").total,
        "simulate.mkv_utility_batch.path_steps_per_s": rate("simulate.mkv_utility_batch"),
        "simulate.nagent_utility_batch.calls": st("simulate.nagent_utility_batch").calls,
        "simulate.nagent_utility_batch.s": st("simulate.nagent_utility_batch").total,
        "simulate.nagent_utility_batch.agent_steps_per_s":
            rate("simulate.nagent_utility_batch"),
        "estimator.estimate_gradient.calls": est.calls,
        "estimator.estimate_gradient.self_s": est.self_total,
        "estimator.estimate_gradient.p50_ms": est.pct_ms(0.50),
        "optim.run.self_s": st("optim.run").self_total,
        "optim.oracle_calls": grad.calls + est.calls,
        "cli.run_experiment.self_s": st("cli.run_experiment").self_total,
        "cli.load_config.s": st("cli.load_config").total,
        "cli.bytes_written": bytes_written,
    }
