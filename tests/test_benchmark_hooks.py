"""The names the benchmark looks up in the program.

``perfbench/spans.py`` wraps functions at the modules where their callers
look them up and reads ``RiccatiSolution.iterations``; ``perfbench/workloads.py``
builds its jobs from the loaded configs and checks the Lyapunov residuals
through the value solves and the tilde fields. The benchmark's own smoke
test is not part of a plain ``pytest`` run, so a renamed or removed name
would first fail inside the benchmark. Both modules are loaded from their
files, as they are.
"""

import importlib

import pytest

import lqmfg.cli
import lqmfg.estimator
from lqmfg import EstimatorConfig, PolicyPair, estimate_gradient, nash_policy, solve_riccati

from conftest import PERFBENCH, perfbench_module


@pytest.fixture(scope="module")
def spans():
    return perfbench_module("spans")


@pytest.fixture(scope="module")
def workloads():
    return perfbench_module("workloads")


def test_every_wrapped_name_resolves_to_a_callable(spans):
    for module_name, attr, _ in spans.WRAPS:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), \
            f"{module_name}.{attr}"


def test_riccati_work_reads_the_doubling_steps(spans, model):
    sol = solve_riccati(model)
    assert isinstance(sol.iterations, int) and sol.iterations > 0
    work = spans._work_fns()["riccati.solve_riccati"]
    assert work((model,), {}, sol) == sol.iterations


def test_rollout_work_binds_the_estimator_call(spans, model, monkeypatch):
    """The estimator passes `per_path` by position; the rollout work of that
    very call still binds to horizon x n_paths, so `sample_based`'s rollout
    counters do not silently read zero."""
    calls = []
    batch = lqmfg.estimator.mkv_utility_batch

    def recorded(*args, **kwargs):
        calls.append((args, kwargs))
        return batch(*args, **kwargs)

    monkeypatch.setattr(lqmfg.estimator, "mkv_utility_batch", recorded)
    estimate_gradient(model, PolicyPair.zero(), 1,
                      EstimatorConfig(M=7, horizon=5, tau=0.1, seed=0))
    [(args, kwargs)] = calls
    assert len(args) == 6 and args[-1][0] == 1
    work = spans._work_fns()["simulate.mkv_utility_batch"]
    assert work(args, kwargs, None) == 5 * 7


def test_lyapunov_residuals_at_the_nash_gains(workloads, model_2d):
    theta = nash_policy(model_2d, solve_riccati(model_2d))
    gains = {name: getattr(theta, name).tolist() for name in ("K1", "L1", "K2", "L2")}
    assert all(r <= 1e-11 for r in workloads.lyapunov_residuals(model_2d, gains))


def test_jobs_build_from_the_loaded_configs(workloads, tmp_path):
    for workload in workloads.NAMES:
        workloads.write_inputs(workload, tmp_path, 1, "tiny")
        paths = workloads.config_paths(workload, PERFBENCH.parent, tmp_path, "tiny")
        cfgs = [lqmfg.cli.load_config(p) for p in paths]
        jobs = workloads.jobs(workload, cfgs, 1, "tiny", tmp_path / "out")
        assert jobs, workload
        for fn_name, _, _ in jobs:
            assert callable(getattr(lqmfg.cli, fn_name, None)), (workload, fn_name)
