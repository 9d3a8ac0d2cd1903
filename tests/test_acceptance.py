"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them). Criterion 7 runs a reduced
sample count by default; set LQMFG_ACCEPT_FULL=1 for the full setting.
"""

import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from lqmfg import (
    EstimatorConfig,
    OptimizerConfig,
    PolicyPair,
    estimate_gradient,
    exact_gradient,
    exact_utility,
    mkv_utility_batch,
    nagent_utility_batch,
    nash_policy,
    relative_error,
    run,
    solve_riccati,
    validate,
)
from lqmfg.simulate import derive_seed

from conftest import P_DEV_ORACLE, P_MEAN_ORACLE, coefficient_gap
from gradient_root_reference import nash_via_gradient_root
from test_simulate import exact_truncated_mean
from test_value import random_stabilizing_policy

FULL = os.environ.get("LQMFG_ACCEPT_FULL", "") == "1"


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}")


def theta_gap(a: PolicyPair, b: PolicyPair) -> float:
    return max(float(np.max(np.abs(getattr(a, n) - getattr(b, n))))
               for n in ("K1", "L1", "K2", "L2"))


def stack(pair) -> np.ndarray:
    return np.concatenate([pair[0].ravel(), pair[1].ravel()])


def test_c01_riccati_matches_quadratic_oracle(model):
    t0 = time.perf_counter()
    sol = solve_riccati(model)
    elapsed = time.perf_counter() - t0
    err_dev = abs(sol.P_dev[0, 0] - P_DEV_ORACLE)
    err_mean = abs(sol.P_mean[0, 0] - P_MEAN_ORACLE)
    ok = err_dev <= 1e-8 and err_mean <= 1e-8 and elapsed < 0.010
    report(1, ok, f"P errors ({err_dev:.2e}, {err_mean:.2e}) <= 1e-8, "
                  f"runtime {1e3 * elapsed:.2f} ms < 10 ms")
    assert err_dev <= 1e-8
    assert err_mean <= 1e-8
    assert elapsed < 0.010


def test_c02_gradient_matches_finite_differences(model):
    rng = np.random.default_rng(20240)
    h = 1e-5
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        theta = random_stabilizing_policy(model, rng)
        grad = exact_gradient(model, theta)
        for name, block in zip(("K1", "L1", "K2", "L2"), grad.blocks()):
            mats = {n: np.array(getattr(theta, n)) for n in ("K1", "L1", "K2", "L2")}
            hi = dict(mats); hi[name] = mats[name] + h
            lo = dict(mats); lo[name] = mats[name] - h
            fd = (exact_utility(model, PolicyPair(**hi)).cost
                  - exact_utility(model, PolicyPair(**lo)).cost) / (2 * h)
            worst = max(worst, abs(fd - block[0, 0]) / max(abs(fd), 1e-12))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-5 and elapsed < 1.0
    report(2, ok, f"max relative FD mismatch {worst:.2e} <= 1e-5 over 20 "
                  f"policies, runtime {elapsed:.2f} s < 1 s")
    assert worst <= 1e-5
    assert elapsed < 1.0


def test_c03_nash_stationarity_and_path_equivalence(model):
    theta_star = nash_policy(model, solve_riccati(model))
    grad_inf = exact_gradient(model, theta_star).max_abs()
    theta_root = nash_via_gradient_root(model)
    path_gap = theta_gap(theta_root, theta_star)
    ok = grad_inf <= 1e-6 and path_gap <= 1e-6
    report(3, ok, f"|grad(theta*)|_inf {grad_inf:.2e} <= 1e-6, "
                  f"root-path gap {path_gap:.2e} <= 1e-6")
    assert grad_inf <= 1e-6
    assert path_gap <= 1e-6


def test_c04_model_based_convergence(model):
    theta_star, cost_star = nash_policy(model, solve_riccati(model)), None
    cost_star = exact_utility(model, theta_star).cost

    t0 = time.perf_counter()
    gda = run(model, OptimizerConfig(mode="gda", T=2000))
    t_gda = time.perf_counter() - t0
    err_gda = relative_error(exact_utility(model, gda.final_theta).cost, cost_star)
    gap_gda = theta_gap(gda.final_theta, theta_star)

    t0 = time.perf_counter()
    ag = run(model, OptimizerConfig(mode="ag", T1=10, T2=200))
    t_ag = time.perf_counter() - t0
    err_ag = relative_error(exact_utility(model, ag.final_theta).cost, cost_star)
    gap_ag = theta_gap(ag.final_theta, theta_star)

    ok = (err_gda <= 1e-3 and err_ag <= 1e-3 and gap_gda <= 1e-2
          and gap_ag <= 1e-2 and t_gda < 5.0 and t_ag < 5.0)
    report(4, ok, f"GDA err {err_gda:.2e} / AG err {err_ag:.2e} <= 1e-3, "
                  f"param gaps ({gap_gda:.2e}, {gap_ag:.2e}) <= 1e-2, "
                  f"runtimes ({t_gda:.1f}s, {t_ag:.1f}s) < 5 s")
    assert err_gda <= 1e-3 and err_ag <= 1e-3
    assert gap_gda <= 1e-2 and gap_ag <= 1e-2
    assert t_gda < 5.0 and t_ag < 5.0


def test_c05_simulator_consistency(model):
    theta = PolicyPair.zero()
    exact = exact_utility(model, theta).cost
    truncated = exact_truncated_mean(model, theta, 50)
    bias = abs(exact - truncated)
    t0 = time.perf_counter()
    samples = mkv_utility_batch(model, theta, 50, 100_000, 12345)
    elapsed = time.perf_counter() - t0
    se = samples.std(ddof=1) / np.sqrt(len(samples))
    dev = abs(samples.mean() - exact)
    ok = bias <= 0.005 * exact and dev <= bias + 3 * se and elapsed < 30.0
    report(5, ok, f"mean {samples.mean():.5f} vs exact {exact:.5f}: "
                  f"|dev| {dev:.2e} <= bias {bias:.2e} + 3 SE {3 * se:.2e}, "
                  f"runtime {elapsed:.1f} s < 30 s")
    assert bias <= 0.005 * exact
    assert dev <= bias + 3 * se
    assert elapsed < 30.0


def test_c06_zo_estimator_fidelity(model):
    """Per-player block fidelity at the zero policy; per-component signs of
    the near-zero deviation blocks are noise-dominated at this sample count
    and are printed as diagnostics only."""
    theta = PolicyPair.zero()
    grad = exact_gradient(model, theta)
    exact_blocks = {1: stack((grad.dK1, grad.dL1)), 2: stack((grad.dK2, grad.dL2))}
    direction_hits = {1: 0, 2: 0}
    rel_errs = {1: [], 2: []}
    sign_hits = np.zeros(4)
    seeds = {1: [1000 + s for s in range(5)], 2: [2000 + s for s in range(5)]}
    for player in (1, 2):
        for seed in seeds[player]:
            cfg = EstimatorConfig(M=10_000, horizon=50, tau=0.1, seed=seed)
            est = stack(estimate_gradient(model, theta, player, cfg))
            exact = exact_blocks[player]
            if float(est @ exact) > 0.0:
                direction_hits[player] += 1
            rel_errs[player].append(
                float(np.linalg.norm(est - exact) / np.linalg.norm(exact)))
            offset = 0 if player == 1 else 2
            sign_hits[offset:offset + 2] += (np.sign(est) == np.sign(exact))
    avg_err = {p: float(np.mean(rel_errs[p])) for p in (1, 2)}
    ok = (direction_hits[1] >= 4 and direction_hits[2] >= 4
          and avg_err[1] <= 0.25 and avg_err[2] <= 0.25)
    report(6, ok, f"direction agreement {direction_hits[1]}/5 and "
                  f"{direction_hits[2]}/5 >= 4/5, block rel errors "
                  f"({avg_err[1]:.3f}, {avg_err[2]:.3f}) <= 0.25; "
                  f"per-component sign rates {sign_hits / 5}")
    assert direction_hits[1] >= 4 and direction_hits[2] >= 4
    assert avg_err[1] <= 0.25 and avg_err[2] <= 0.25


@pytest.mark.slow
def test_c07_sample_based_convergence(model):
    M, tol = (10_000, 5e-2) if FULL else (1_000, 1e-1)
    theta_star = nash_policy(model, solve_riccati(model))
    cost_star = exact_utility(model, theta_star).cost
    errs = []
    for rep in range(5):
        est = EstimatorConfig(M=M, horizon=50, tau=0.1,
                              seed=derive_seed(2024, rep))
        cfg = OptimizerConfig(mode="gda", T=2000, oracle="sampled",
                              estimator=est, log_every=500)
        log = run(model, cfg, benchmark=theta_star)
        errs.append(relative_error(exact_utility(model, log.final_theta).cost,
                                   cost_star))
    avg = float(np.mean(errs))
    ok = avg <= tol
    report(7, ok, f"sampled GDA (M={M}, 5 repeats) mean final error "
                  f"{avg:.4f} <= {tol} ({'full' if FULL else 'reduced CI'} mode)")
    assert avg <= tol


def test_c08_mean_field_limit(model):
    theta_star = nash_policy(model, solve_riccati(model))
    reps = 2500
    seed = 31415
    mkv = mkv_utility_batch(model, theta_star, 50, reps, seed)
    mkv_mean = mkv.mean()
    gaps, ses = [], []
    for N in (10, 100, 1000):
        pop = nagent_utility_batch(model, theta_star, N, 50, reps, seed)
        paired = pop - mkv  # same common-noise path per index
        gaps.append(abs(pop.mean() - mkv_mean) / abs(mkv_mean))
        ses.append(paired.std(ddof=1) / np.sqrt(reps) / abs(mkv_mean))
    decreasing = all(gaps[i + 1] <= gaps[i] + 2 * (ses[i] + ses[i + 1])
                     for i in range(2))
    ok = decreasing and gaps[-1] <= 0.02
    report(8, ok, f"gaps {[f'{g:.4f}' for g in gaps]} decreasing within "
                  f"error bars {[f'{s:.4f}' for s in ses]}, "
                  f"gap(N=1000) {gaps[-1]:.4f} <= 0.02")
    assert decreasing
    assert gaps[-1] <= 0.02


def test_c09_decomposition_and_identities(model):
    rng = np.random.default_rng(8)
    der = validate(model)
    coef_gap = coefficient_gap(model)
    worst_lyap = worst_sigma = 0.0
    bitwise = True
    for _ in range(20):
        theta = random_stabilizing_policy(model, rng)
        sol = exact_utility(model, theta)
        bitwise &= sol.cost == sol.cost_dev + sol.cost_mean
        M = der.dev.closed_loop(theta.K1, theta.K2)
        S = (model.Q + theta.K1.T @ model.R1 @ theta.K1
             - theta.K2.T @ model.R2 @ theta.K2)
        r = np.linalg.norm(sol.P_dev - S - 0.9 * M.T @ sol.P_dev @ M)
        worst_lyap = max(worst_lyap, r / (1 + np.linalg.norm(sol.P_dev)))
        Mm = der.mean.closed_loop(theta.L1, theta.L2)
        Sm = (der.Q_tilde + theta.L1.T @ der.R1_tilde @ theta.L1
              - theta.L2.T @ der.R2_tilde @ theta.L2)
        rm = np.linalg.norm(sol.P_mean - Sm - 0.9 * Mm.T @ sol.P_mean @ Mm)
        worst_lyap = max(worst_lyap, rm / (1 + np.linalg.norm(sol.P_mean)))
        noise = model.noise
        V0 = noise.init_idio.cov(1)
        W = noise.step_idio.cov(1)
        rs = np.linalg.norm(sol.Sigma_dev - V0 - 0.9 * M @ sol.Sigma_dev @ M.T
                            - 9.0 * W)
        worst_sigma = max(worst_sigma, rs / (1 + np.linalg.norm(sol.Sigma_dev)))
    ok = bitwise and coef_gap <= 1e-12 and worst_lyap <= 1e-10 and worst_sigma <= 1e-10
    report(9, ok, f"cost split bitwise {bitwise}, coefficient identity "
                  f"{coef_gap:.1e} <= 1e-12, residuals (lyap {worst_lyap:.1e}, "
                  f"sigma {worst_sigma:.1e}) <= 1e-10")
    assert bitwise
    assert coef_gap <= 1e-12
    assert worst_lyap <= 1e-10
    assert worst_sigma <= 1e-10


def test_c10_artifact_determinism(tmp_path):
    from lqmfg.cli import load_config, run_experiment, run_nagent_validation

    cfg_text = Path(__file__).resolve().parent.parent / "configs" / "table1_gda_sampled.cfg"
    base = load_config(cfg_text)
    small_opt = replace(base.optimizer, T=30,
                        estimator=replace(base.optimizer.estimator, M=50,
                                          horizon=10))
    small = replace(base, optimizer=small_opt,
                    estimator=small_opt.estimator, repeats=2)
    identical = True
    runs = []
    for tag in ("a", "b"):
        cfg = replace(small, output_dir=str(tmp_path / tag))
        run_experiment(cfg)
        run_nagent_validation(cfg, Ns=(3, 9), reps=40, horizon=10)
        runs.append(Path(cfg.output_dir))
    names = ["benchmark.json", "summary.json", "run_0.csv", "run_1.csv",
             "convergence.csv", "nagent_validation.csv", "nagent_summary.json"]
    for name in names:
        identical &= (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes()
    report(10, identical, f"{len(names)} artifact files byte-identical "
                          f"across two runs (timings excluded)")
    assert identical
