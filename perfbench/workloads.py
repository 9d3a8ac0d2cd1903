"""The benchmark's workloads: inputs, the jobs run on them, and output checks.

Every workload reaches the program through its public entry points
(``lqmfg.cli.load_config``, ``run_experiment``, ``run_nagent_validation``),
the same path as ``lqmfg optimize`` / ``validate-nagent`` and the
``scripts/run_*.py`` wrappers. Two sizes exist: ``full`` is what the
benchmark measures, ``tiny`` only exercises the harness in its smoke test.
"""

from __future__ import annotations

import math
from dataclasses import replace
from pathlib import Path

import numpy as np

NAMES = ("model_based", "sample_based", "nagent_sweep", "matrix_exact")

# Per workload and size: config overrides applied after load_config, and the
# thresholds the output checks use. Values absent from "full" keep the
# shipped configs unchanged.
SIZES = {
    "full": {
        "model_based": {"gda": {}, "ag": {}, "max_rel_err": {"gda": 1e-13, "ag": 1e-7}},
        "sample_based": {"gda": {"T": 40}, "ag": {"T2": 4}, "estimator": {},
                         "max_rel_err": {"gda": 0.01, "ag": 0.12}},
        "nagent_sweep": {"ns": (10, 100, 1000), "reps": 800, "horizon": 50},
        "matrix_exact": {"games": ((16, 4, 20), (48, 4, 300))},
    },
    "tiny": {
        "model_based": {"gda": {"T": 100}, "ag": {"T1": 5, "T2": 10},
                        "max_rel_err": {"gda": 0.5, "ag": 0.5}},
        "sample_based": {"gda": {"T": 2}, "ag": {"T1": 2, "T2": 1},
                         "estimator": {"M": 500, "horizon": 10},
                         "max_rel_err": {"gda": 1.0, "ag": 1.0}},
        "nagent_sweep": {"ns": (10, 100), "reps": 60, "horizon": 10},
        "matrix_exact": {"games": ((3, 2, 3), (34, 2, 2))},
    },
}

SHIPPED = {
    "model_based": ("table1_gda_exact", "table1_ag_exact"),
    "sample_based": ("table1_gda_sampled", "table1_ag_sampled"),
    "nagent_sweep": ("table1_gda_exact",),
}

# Relative Lyapunov residual accepted at the final gains of matrix_exact. The
# Kronecker branch (d <= 32) lands near 1e-16; the series branch stops at a
# term below 1e-12 of the source norm.
MAX_LYAP_RESIDUAL = 1e-11
# rel_gap may rise with N by at most this many paired standard errors.
GAP_SLACK_SE = 3.0

_NOISE = ("init_common = uniform(-1, 1)\n"
          "init_idio = uniform(-1, 1)\n"
          "step_common = gaussian(0, 0.01)\n"
          "step_idio = gaussian(0, 0.01)\n")


def random_game(seed: int, d: int, ell: int) -> dict[str, np.ndarray]:
    """Model matrices of a seeded random game.

    Each drift and input matrix is an independent Gaussian draw scaled to a
    fixed spectral norm, so the equilibrium iteration converges at every d;
    weights are fixed multiples of the identity.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, d, ell]))

    def normed(rows, cols, norm):
        g = rng.standard_normal((rows, cols))
        return norm * g / np.linalg.norm(g, 2)

    mats = {"A": normed(d, d, 0.5), "A_bar": normed(d, d, 0.2),
            "B1": normed(d, ell, 0.4), "B1_bar": normed(d, ell, 0.1),
            "B2": normed(d, ell, 0.3), "B2_bar": normed(d, ell, 0.1)}
    for name, scale, dim in (("Q", 0.4, d), ("Q_bar", 0.2, d),
                             ("R1", 0.4, ell), ("R1_bar", 0.1, ell),
                             ("R2", 0.5, ell), ("R2_bar", 0.1, ell)):
        mats[name] = scale * np.eye(dim)
    return mats


def _matrix_text(mat: np.ndarray) -> str:
    return ";".join(",".join(repr(float(v)) for v in row) for row in mat)


def matrix_game_config(seed: int, d: int, ell: int, T: int) -> str:
    """Config text for exact GDA from zero gains on `random_game`."""
    zero = _matrix_text(np.zeros((ell, d)))
    lines = ["[model]", f"d = {d}", f"ell = {ell}"]
    lines += [f"{k} = {_matrix_text(v)}" for k, v in random_game(seed, d, ell).items()]
    lines += ["gamma = 0.9", "", "[noise]", _NOISE, "[optimizer]", f"T = {T}",
              "eta1 = 0.1", "eta2 = 0.1"]
    lines += [f"{g}_0 = {zero}" for g in ("K1", "L1", "K2", "L2")]
    lines += ["", "[experiment]", "method = gda", "oracle = exact", "repeats = 1",
              f"output_dir = out/matrix_d{d}", f"master_seed = {seed}", ""]
    return "\n".join(lines)


def config_paths(workload: str, root: Path, tmp: Path, size: str) -> list[Path]:
    """Config files the workload loads during set-up."""
    if workload == "matrix_exact":
        return [tmp / f"matrix_d{d}.cfg" for d, _, _ in SIZES[size][workload]["games"]]
    return [root / "configs" / f"{name}.cfg" for name in SHIPPED[workload]]


def write_inputs(workload: str, tmp: Path, seed: int, size: str) -> None:
    """Generate the config files that are not shipped (outside set-up time)."""
    if workload != "matrix_exact":
        return
    for d, ell, T in SIZES[size][workload]["games"]:
        (tmp / f"matrix_d{d}.cfg").write_text(matrix_game_config(seed, d, ell, T))


def jobs(workload: str, cfgs: list, seed: int, size: str, out: Path) -> list:
    """(cli function name, config, keyword arguments) for each timed call."""
    spec = SIZES[size][workload]
    if workload == "nagent_sweep":
        cfg = replace(cfgs[0], output_dir=str(out / "nagent"), master_seed=seed)
        return [("run_nagent_validation", cfg,
                 {"Ns": spec["ns"], "reps": spec["reps"], "horizon": spec["horizon"]})]
    result = []
    for cfg in cfgs:
        changes = {"output_dir": str(out / f"{cfg.method}_{cfg.oracle}_d{cfg.model.d}"),
                   "repeats": 1}
        if workload in ("model_based", "sample_based"):
            opt = replace(cfg.optimizer, **spec[cfg.method])
            if cfg.estimator is not None:
                est = replace(cfg.estimator, **spec["estimator"])
                changes["estimator"] = est
                changes["master_seed"] = seed
                opt = replace(opt, estimator=est)
            changes["optimizer"] = opt
        result.append(("run_experiment", replace(cfg, **changes), {}))
    return result


# ---------------------------------------------------------------- checks


def _run_errors(summary: dict, label: str, max_rel_err: float | None) -> list[str]:
    errors = [f"{label}: termination {t}" for t in summary["termination_per_run"]
              if t != "completed"]
    for err in summary["final_rel_err_per_run"]:
        if not math.isfinite(err):
            errors.append(f"{label}: rel_err {err}")
        elif max_rel_err is not None and err > max_rel_err:
            errors.append(f"{label}: rel_err {err:.3e} above {max_rel_err:.1e}")
    return errors


def scalar_equilibrium_gains(model) -> dict[str, float]:
    """Nash gains of a scalar game from the closed-form stabilizing roots.

    The deviation fixed point P = g (aP + 2q)(a + cP), with the signed
    feedback c = -b1^2/(2 r1) + b2^2/(2 r2), is the quadratic
    g a c P^2 + (g (a^2 + 2 q c) - 1) P + 2 g q a = 0; the mean part is the
    same on the aggregated (tilde) scalars. The positive root is the
    stabilizing one; gains are K_i = b_i P / (2 r_i).
    """
    def s(name):
        return float(getattr(model, name)[0, 0])

    g = model.gamma

    def part(a, b1, b2, q, r1, r2):
        c = -b1 * b1 / (2 * r1) + b2 * b2 / (2 * r2)
        qa, qb, qc = g * a * c, g * (a * a + 2 * q * c) - 1.0, 2 * g * q * a
        disc = math.sqrt(qb * qb - 4 * qa * qc)
        P = max((-qb + disc) / (2 * qa), (-qb - disc) / (2 * qa))
        return b1 * P / (2 * r1), b2 * P / (2 * r2)

    K1, K2 = part(s("A"), s("B1"), s("B2"), s("Q"), s("R1"), s("R2"))
    L1, L2 = part(s("A") + s("A_bar"), s("B1") + s("B1_bar"), s("B2") + s("B2_bar"),
                  s("Q") + s("Q_bar"), s("R1") + s("R1_bar"), s("R2") + s("R2_bar"))
    return {"K1": K1, "L1": L1, "K2": K2, "L2": L2}


def _check_rel_err(jobs_run, results, limits):
    errors, values = [], {}
    for (_, cfg, _), summary in zip(jobs_run, results):
        errors += _run_errors(summary, cfg.method, limits[cfg.method])
        values[f"{cfg.method}_rel_err"] = summary["final_rel_err_mean"]
    return errors, values


def _check_model_based(jobs_run, results, size):
    errors, values = _check_rel_err(jobs_run, results, SIZES[size]["model_based"]["max_rel_err"])
    for (_, cfg, _), summary in zip(jobs_run, results):
        for name, value in scalar_equilibrium_gains(cfg.model).items():
            got = summary["benchmark_theta"][name][0][0]
            if abs(got - value) > 1e-10 * abs(value):
                errors.append(f"{cfg.method}: Riccati gain {name} {got!r} != closed form {value!r}")
    return errors, values


def _check_nagent(results):
    rows = results[0]["rows"]
    errors = [] if all(math.isfinite(r["rel_gap"]) for r in rows) else ["non-finite rel_gap"]
    for prev, row in zip(rows, rows[1:]):
        if row["rel_gap"] > prev["rel_gap"] + GAP_SLACK_SE * row["paired_gap_stderr"]:
            errors.append(f"rel_gap rises from N={prev['N']} ({prev['rel_gap']:.4g}) "
                          f"to N={row['N']} ({row['rel_gap']:.4g})")
    return errors, {f"rel_gap_N{r['N']}": r["rel_gap"] for r in rows}


def lyapunov_residuals(model, theta: dict) -> tuple[float, float]:
    """Relative residuals ||P - source - g M'PM|| / ||P|| of the value solves."""
    # lqmfg is importable only inside a worker, which puts src/ on the path.
    from lqmfg.model import validate
    from lqmfg.value import solve_dev_value, solve_mean_value

    K1, L1, K2, L2 = (np.array(theta[n], dtype=float) for n in ("K1", "L1", "K2", "L2"))
    der = validate(model)
    g = model.gamma
    out = []
    for P, M, source in (
        (solve_dev_value(model, K1, K2),
         model.A - model.B1 @ K1 + model.B2 @ K2,
         model.Q + K1.T @ model.R1 @ K1 - K2.T @ model.R2 @ K2),
        (solve_mean_value(model, L1, L2, der),
         der.A_tilde - der.B1_tilde @ L1 + der.B2_tilde @ L2,
         der.Q_tilde + L1.T @ der.R1_tilde @ L1 - L2.T @ der.R2_tilde @ L2),
    ):
        out.append(float(np.linalg.norm(P - source - g * M.T @ P @ M) / np.linalg.norm(P)))
    return out[0], out[1]


def _check_matrix(jobs_run, results, seed):
    errors, values = [], {}
    for (_, cfg, _), summary in zip(jobs_run, results):
        d, ell = cfg.model.d, cfg.model.ell
        for name, mat in random_game(seed, d, ell).items():
            if not np.array_equal(getattr(cfg.model, name), mat):
                errors.append(f"d={d}: config entry {name} did not read back bit for bit")
        errors += _run_errors(summary, f"d={d}", None)
        res = lyapunov_residuals(cfg.model, summary["final_theta_per_run"][0])
        for part, r in zip(("dev", "mean"), res):
            values[f"d{d}_lyap_residual_{part}"] = r
            if not r <= MAX_LYAP_RESIDUAL:
                errors.append(f"d={d}: {part} Lyapunov residual {r:.3e}")
        values[f"d{d}_rel_err"] = summary["final_rel_err_mean"]
    return errors, values


def check(workload: str, jobs_run: list, results: list, seed: int, size: str):
    """(errors, check values) for the outputs of one workload run."""
    if workload == "model_based":
        return _check_model_based(jobs_run, results, size)
    if workload == "sample_based":
        return _check_rel_err(jobs_run, results, SIZES[size]["sample_based"]["max_rel_err"])
    if workload == "nagent_sweep":
        return _check_nagent(results)
    return _check_matrix(jobs_run, results, seed)
