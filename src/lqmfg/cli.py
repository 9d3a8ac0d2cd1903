"""Experiment harness: declarative configs in, CSV/JSON artifacts out.

Config files are flat key-value text with four blocks mirroring the model /
noise / optimizer / estimator split, plus an [experiment] block naming the
method, the oracle, and the bookkeeping fields. All artifacts are
deterministic given the config and master seed; wall-clock timings go to a
separate timing file excluded from that guarantee.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    CrossFieldError,
    LqmfgError,
    ParseError,
    SchemaError,
)
from .estimator import EstimatorConfig
from .model import Distribution, ModelParams, NoiseSpec, PolicyPair
from .model import validate as validate_model
from .optim import OptimizerConfig, RunLog, compute_benchmark, run
from .riccati import nash_policy, solve_riccati
from .simulate import (
    derive_seed,
    dump_trajectory_csv,
    mkv_utility_batch,
    nagent_utility_batch,
    simulate_mkv,
)
from .value import exact_utility

_MODEL_KEYS = {"d", "ell", "A", "A_bar", "B1", "B1_bar", "B2", "B2_bar",
               "Q", "Q_bar", "R1", "R1_bar", "R2", "R2_bar", "gamma"}
_MODEL_REQUIRED = _MODEL_KEYS - {"d", "ell"}
_NOISE_KEYS = {"init_common", "init_idio", "step_common", "step_idio"}
_OPTIMIZER_KEYS = {"T1", "T2", "T", "eta1", "eta2", "K1_0", "L1_0", "K2_0",
                   "L2_0", "log_every", "shrink_on_exit"}
_ESTIMATOR_KEYS = {"M", "horizon", "tau", "smoothing_dim"}
_EXPERIMENT_KEYS = {"method", "oracle", "repeats", "output_dir", "master_seed"}
_EXPERIMENT_REQUIRED = _EXPERIMENT_KEYS
_VALIDATION_KEYS = {"ns", "reps", "horizon"}

# Optimizer and estimator hyperparameters default to the shipped benchmark
# configuration; model and noise fields are always explicit.
_OPTIMIZER_DEFAULTS = {"T1": "10", "T2": "200", "T": "2000", "eta1": "0.1",
                       "eta2": "0.1", "K1_0": "0.0", "L1_0": "0.0",
                       "K2_0": "0.0", "L2_0": "0.0", "log_every": "1",
                       "shrink_on_exit": "false"}
_ESTIMATOR_DEFAULTS = {"M": "10000", "horizon": "50", "tau": "0.1",
                       "smoothing_dim": "parameter"}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated, fully-resolved experiment description."""

    model: ModelParams
    method: str                     # "ag" | "gda"
    oracle: str                     # "exact" | "sampled"
    optimizer: OptimizerConfig
    estimator: EstimatorConfig | None
    repeats: int
    output_dir: str
    master_seed: int
    validation_ns: tuple[int, ...] = (10, 100, 1000)
    validation_reps: int = 2000
    validation_horizon: int = 50

    def __post_init__(self):
        if self.repeats < 1:
            raise SchemaError("repeats must be >= 1")
        if self.master_seed < 0:
            raise SchemaError("master_seed must be >= 0")
        if min(self.validation_ns) < 1 or self.validation_horizon < 1:
            raise SchemaError("validation sizes and horizon must be >= 1")
        if self.validation_reps < 2:
            raise SchemaError("validation reps must be >= 2 for a standard error")


def _parse_matrix(text: str, field: str) -> np.ndarray:
    try:
        rows = [[float(v) for v in row.split(",")] for row in text.split(";")]
        mat = np.array(rows, dtype=float)
    except ValueError:
        raise ParseError(f"field '{field}': cannot parse matrix from {text!r}") from None
    if not np.isfinite(mat).all():
        raise ParseError(f"field '{field}': non-finite entry in {text!r}")
    return mat


def _parse_float(text: str, field: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"field '{field}': cannot parse number from {text!r}") from None
    if not math.isfinite(value):
        raise ParseError(f"field '{field}': non-finite number {text!r}")
    return value


def _parse_int(text: str, field: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"field '{field}': cannot parse integer from {text!r}") from None


def _parse_ints(text: str, field: str) -> tuple[int, ...]:
    return tuple(_parse_int(v, field) for v in text.split(","))


def _parse_bool(text: str, field: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ParseError(f"field '{field}': cannot parse boolean from {text!r}")


def _parse_distribution(text: str, field: str) -> Distribution:
    text = text.strip()
    if not (text.endswith(")") and "(" in text):
        raise ParseError(f"field '{field}': expected kind(args), got {text!r}")
    kind, args_text = text[:-1].split("(", 1)
    kind = kind.strip().lower()
    args = [a for a in (s.strip() for s in args_text.split(",")) if a]
    vals = [_parse_float(a, field) for a in args]
    try:
        if kind == "uniform" and len(vals) == 2:
            return Distribution.uniform(*vals)
        if kind == "gaussian" and len(vals) == 2:
            return Distribution.gaussian(*vals)
        if kind in ("point", "point_mass") and len(vals) <= 1:
            return Distribution.point(vals[0] if vals else 0.0)
    except LqmfgError as exc:
        raise SchemaError(f"field '{field}': {exc}") from None
    raise ParseError(f"field '{field}': unknown distribution {text!r}")


def _check_section(parser: configparser.ConfigParser, name: str,
                   allowed: set[str], required: set[str]) -> dict[str, str]:
    if name not in parser:
        if required:
            raise SchemaError(f"missing section [{name}]")
        return {}
    items = dict(parser.items(name))
    unknown = set(items) - allowed
    if unknown:
        raise SchemaError(f"section [{name}]: unknown fields {sorted(unknown)}")
    missing = required - set(items)
    if missing:
        raise SchemaError(f"section [{name}]: missing fields {sorted(missing)}")
    return items


def load_config(path) -> ExperimentConfig:
    """Parse and validate an experiment config file."""
    path = Path(path)
    if not path.is_file():
        raise ParseError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ParseError(f"config syntax error: {exc}") from None

    known_sections = {"model", "noise", "optimizer", "estimator",
                      "experiment", "validation"}
    unknown_sections = set(parser.sections()) - known_sections
    if unknown_sections:
        raise SchemaError(f"unknown sections {sorted(unknown_sections)}")

    model_items = _check_section(parser, "model", _MODEL_KEYS, _MODEL_REQUIRED)
    noise_items = _check_section(parser, "noise", _NOISE_KEYS, _NOISE_KEYS)
    exp_items = _check_section(parser, "experiment", _EXPERIMENT_KEYS,
                               _EXPERIMENT_REQUIRED)
    opt_items = dict(_OPTIMIZER_DEFAULTS)
    opt_items.update(_check_section(parser, "optimizer", _OPTIMIZER_KEYS, set()))
    val_items = _check_section(parser, "validation", _VALIDATION_KEYS, set()) \
        if "validation" in parser else {}

    method = exp_items["method"].strip().lower()
    if method not in ("ag", "gda"):
        raise SchemaError(f"method must be 'ag' or 'gda', got {method!r}")
    oracle = exp_items["oracle"].strip().lower()
    if oracle not in ("exact", "sampled"):
        raise SchemaError(f"oracle must be 'exact' or 'sampled', got {oracle!r}")

    has_estimator = "estimator" in parser
    if oracle == "sampled" and not has_estimator:
        raise CrossFieldError("oracle=sampled requires an [estimator] section")
    if oracle == "exact" and has_estimator:
        raise CrossFieldError("[estimator] section requires oracle=sampled")

    d = _parse_int(model_items.get("d", "1"), "d")
    ell = _parse_int(model_items.get("ell", "1"), "ell")
    noise = NoiseSpec(
        init_common=_parse_distribution(noise_items["init_common"], "init_common"),
        init_idio=_parse_distribution(noise_items["init_idio"], "init_idio"),
        step_common=_parse_distribution(noise_items["step_common"], "step_common"),
        step_idio=_parse_distribution(noise_items["step_idio"], "step_idio"),
    )
    try:
        model = ModelParams(
            A=_parse_matrix(model_items["A"], "A"),
            A_bar=_parse_matrix(model_items["A_bar"], "A_bar"),
            B1=_parse_matrix(model_items["B1"], "B1"),
            B1_bar=_parse_matrix(model_items["B1_bar"], "B1_bar"),
            B2=_parse_matrix(model_items["B2"], "B2"),
            B2_bar=_parse_matrix(model_items["B2_bar"], "B2_bar"),
            Q=_parse_matrix(model_items["Q"], "Q"),
            Q_bar=_parse_matrix(model_items["Q_bar"], "Q_bar"),
            R1=_parse_matrix(model_items["R1"], "R1"),
            R1_bar=_parse_matrix(model_items["R1_bar"], "R1_bar"),
            R2=_parse_matrix(model_items["R2"], "R2"),
            R2_bar=_parse_matrix(model_items["R2_bar"], "R2_bar"),
            gamma=_parse_float(model_items["gamma"], "gamma"),
            noise=noise,
            d=d, ell=ell,
        )
        validate_model(model)
    except ParseError:
        raise
    except LqmfgError as exc:
        raise SchemaError(f"model validation failed: {exc}") from None

    theta0 = PolicyPair(
        K1=_parse_matrix(opt_items["K1_0"], "K1_0"),
        L1=_parse_matrix(opt_items["L1_0"], "L1_0"),
        K2=_parse_matrix(opt_items["K2_0"], "K2_0"),
        L2=_parse_matrix(opt_items["L2_0"], "L2_0"),
    )

    master_seed = _parse_int(exp_items["master_seed"], "master_seed")
    estimator = None
    if has_estimator:
        est_items = dict(_ESTIMATOR_DEFAULTS)
        est_items.update(_check_section(parser, "estimator", _ESTIMATOR_KEYS, set()))
        try:
            estimator = EstimatorConfig(
                M=_parse_int(est_items["M"], "M"),
                horizon=_parse_int(est_items["horizon"], "horizon"),
                tau=_parse_float(est_items["tau"], "tau"),
                seed=master_seed,
                smoothing_dim=est_items["smoothing_dim"].strip().lower(),
            )
        except ValueError as exc:
            raise SchemaError(f"estimator: {exc}") from None

    try:
        optimizer = OptimizerConfig(
            mode=method,
            eta1=_parse_float(opt_items["eta1"], "eta1"),
            eta2=_parse_float(opt_items["eta2"], "eta2"),
            T1=_parse_int(opt_items["T1"], "T1"),
            T2=_parse_int(opt_items["T2"], "T2"),
            T=_parse_int(opt_items["T"], "T"),
            theta0=theta0,
            oracle=oracle,
            estimator=estimator,
            log_every=_parse_int(opt_items["log_every"], "log_every"),
            shrink_on_exit=_parse_bool(opt_items["shrink_on_exit"], "shrink_on_exit"),
        )
    except ValueError as exc:
        raise SchemaError(f"optimizer: {exc}") from None

    return ExperimentConfig(
        model=model, method=method, oracle=oracle, optimizer=optimizer,
        estimator=estimator, repeats=_parse_int(exp_items["repeats"], "repeats"),
        output_dir=exp_items["output_dir"], master_seed=master_seed,
        validation_ns=_parse_ints(val_items.get("ns", "10,100,1000"), "ns"),
        validation_reps=_parse_int(val_items.get("reps", "2000"), "reps"),
        validation_horizon=_parse_int(val_items.get("horizon", "50"), "horizon"),
    )


def _theta_json(theta: PolicyPair) -> dict:
    return {name: getattr(theta, name).tolist() for name in ("K1", "L1", "K2", "L2")}


def write_benchmark(cfg: ExperimentConfig, out: Path) -> tuple[PolicyPair, float]:
    """Solve the equilibrium equations and record the benchmark artifact."""
    sol = solve_riccati(cfg.model)
    theta_star = nash_policy(cfg.model, sol)
    cost_star = exact_utility(cfg.model, theta_star).cost
    payload = {
        "P_dev": sol.P_dev.tolist(),
        "P_mean": sol.P_mean.tolist(),
        "residual_dev": sol.residual_dev,
        "residual_mean": sol.residual_mean,
        "iterations": sol.iterations,
        "theta_star": _theta_json(theta_star),
        "cost_star": cost_star,
    }
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "benchmark.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return theta_star, cost_star


def _repeat_config(cfg: ExperimentConfig, repeat: int) -> OptimizerConfig:
    if cfg.oracle != "sampled":
        return cfg.optimizer
    seeded = replace(cfg.estimator, seed=derive_seed(cfg.master_seed, repeat))
    return replace(cfg.optimizer, estimator=seeded)


def _run_one_repeat(args) -> RunLog:
    cfg, repeat, benchmark = args
    return run(cfg.model, _repeat_config(cfg, repeat), benchmark)


def run_experiment(cfg: ExperimentConfig, workers: int = 1) -> dict:
    """Benchmark, optimize `repeats` times, and write all artifacts."""
    out = Path(cfg.output_dir)
    theta_star, cost_star = write_benchmark(cfg, out)

    jobs = [(cfg, r, theta_star) for r in range(cfg.repeats)]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only --workers > 1 needs it

        with ProcessPoolExecutor(max_workers=workers) as pool:
            logs = list(pool.map(_run_one_repeat, jobs))
    else:
        logs = [_run_one_repeat(job) for job in jobs]

    for r, log in enumerate(logs):
        log.write_csv(out / f"run_{r}.csv")
    _write_convergence(logs, out / "convergence.csv")

    final_errs = [log.final_rel_err() for log in logs]
    summary = {
        "method": cfg.method,
        "oracle": cfg.oracle,
        "repeats": cfg.repeats,
        "master_seed": cfg.master_seed,
        "benchmark_theta": _theta_json(theta_star),
        "benchmark_cost": cost_star,
        "final_theta_per_run": [_theta_json(log.final_theta) for log in logs],
        "final_rel_err_per_run": final_errs,
        "final_rel_err_mean": float(np.mean(final_errs)),
        "iterations_per_run": [log.records[-1].k if log.records else 0 for log in logs],
        "termination_per_run": [log.termination for log in logs],
    }
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    timing = {"wall_time_per_run": [log.wall_time for log in logs],
              "wall_time_total": float(sum(log.wall_time for log in logs))}
    with open(out / "timing.json", "w") as fh:
        json.dump(timing, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary


def _write_convergence(logs: list[RunLog], path: Path) -> None:
    """Mean and min/max envelope of the relative error per iteration."""
    by_k: dict[int, list[float]] = {}
    for log in logs:
        for rec in log.records:
            if np.isfinite(rec.rel_err):
                by_k.setdefault(rec.k, []).append(rec.rel_err)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "rel_err_mean", "rel_err_min", "rel_err_max"])
        for k in sorted(by_k):
            vals = by_k[k]
            writer.writerow([k, repr(float(np.mean(vals))),
                             repr(float(min(vals))), repr(float(max(vals)))])


def run_nagent_validation(cfg: ExperimentConfig, Ns=None, reps: int | None = None,
                          horizon: int | None = None) -> dict:
    """Monte-Carlo gap between population and mean-field utilities at the
    benchmark policy, paired on the common-noise draws.

    Writes one CSV row per population size: mean, standard error, and the
    relative gap against the mean-field reference sample mean."""
    Ns = tuple(Ns) if Ns is not None else cfg.validation_ns
    reps = reps if reps is not None else cfg.validation_reps
    horizon = horizon if horizon is not None else cfg.validation_horizon
    out = Path(cfg.output_dir)
    theta_star, cost_star = write_benchmark(cfg, out)

    mkv_samples = []
    pop_samples = {N: [] for N in Ns}
    max_N = max(Ns)
    chunk = max(1, min(reps, 400_000 // max_N))
    done = 0
    idx = 0
    while done < reps:
        n = min(chunk, reps - done)
        seed = derive_seed(cfg.master_seed, 101, idx)
        mkv_samples.append(mkv_utility_batch(cfg.model, theta_star, horizon, n, seed))
        for N in Ns:
            pop_samples[N].append(
                nagent_utility_batch(cfg.model, theta_star, N, horizon, n, seed))
        done += n
        idx += 1

    mkv = np.concatenate(mkv_samples)
    mkv_mean = float(mkv.mean())
    mkv_se = float(mkv.std(ddof=1) / np.sqrt(len(mkv)))
    scale = abs(mkv_mean)
    rows = []
    for N in Ns:
        u = np.concatenate(pop_samples[N])
        mean = float(u.mean())
        se = float(u.std(ddof=1) / np.sqrt(len(u)))
        paired = u - mkv
        paired_se = float(paired.std(ddof=1) / np.sqrt(len(paired)))
        # degenerate zero-noise runs have both means exactly zero
        gap = 0.0 if mean == mkv_mean else abs(mean - mkv_mean) / scale
        rows.append({"N": N, "mean": mean, "stderr": se, "rel_gap": gap,
                     "paired_gap_stderr": paired_se / scale if scale else 0.0})

    with open(out / "nagent_validation.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["N", "mean", "stderr", "rel_gap"])
        for row in rows:
            writer.writerow([row["N"], repr(row["mean"]), repr(row["stderr"]),
                             repr(row["rel_gap"])])
    payload = {"mkv_mean": mkv_mean, "mkv_stderr": mkv_se, "reps": reps,
               "horizon": horizon, "exact_cost": cost_star, "rows": rows}
    with open(out / "nagent_summary.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return payload


def run_simulate(cfg: ExperimentConfig, paths: int, horizon: int) -> list[Path]:
    """Dump one mean-field trajectory CSV per derived seed."""
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    theta_star, _ = compute_benchmark(cfg.model)
    written = []
    for p in range(paths):
        seed = derive_seed(cfg.master_seed, 201, p)
        traj = simulate_mkv(cfg.model, theta_star, horizon, seed)
        dest = out / f"trajectory_{p}.csv"
        dump_trajectory_csv(traj, dest)
        written.append(dest)
    return written


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    changes = {}
    if getattr(args, "out", None):
        changes["output_dir"] = args.out
    if getattr(args, "seed", None) is not None:
        changes["master_seed"] = args.seed
    if getattr(args, "repeats", None) is not None:
        changes["repeats"] = args.repeats
    oracle = getattr(args, "oracle", None)
    if oracle and oracle != cfg.oracle:
        if oracle == "sampled" and cfg.estimator is None:
            raise CrossFieldError("--oracle sampled requires an [estimator] section")
        changes["oracle"] = oracle
        changes["optimizer"] = replace(
            cfg.optimizer, oracle=oracle,
            estimator=cfg.estimator if oracle == "sampled" else None)
    if not changes:
        return cfg
    return replace(cfg, **changes)


class _ArgumentParser(argparse.ArgumentParser):
    """Turns a bad command line into a ParseError, reported by main as JSON."""

    def error(self, message):
        raise ParseError(f"{self.prog}: {message}")


def main(argv=None) -> int:
    parser = _ArgumentParser(
        prog="lqmfg",
        description="Zero-sum linear-quadratic mean-field game experiments")
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--seed", type=int, help="master seed (overrides config)")

    p_bench = sub.add_parser("benchmark", help="solve the equilibrium and write benchmark.json")
    common(p_bench)

    p_opt = sub.add_parser("optimize", help="run the configured optimization experiment")
    common(p_opt)
    p_opt.add_argument("--repeats", type=int, help="number of repeats (overrides config)")
    p_opt.add_argument("--oracle", choices=["exact", "sampled"],
                       help="gradient oracle (overrides config)")
    p_opt.add_argument("--workers", type=int, default=1,
                       help="parallel workers across repeats")

    p_val = sub.add_parser("validate-nagent", help="population-size sweep against the mean-field utility")
    common(p_val)
    p_val.add_argument("--ns", help="comma-separated population sizes")
    p_val.add_argument("--reps", type=int, help="Monte-Carlo repetitions per size")
    p_val.add_argument("--horizon", type=int, help="rollout truncation horizon")

    p_sim = sub.add_parser("simulate", help="dump mean-field trajectories at the benchmark policy")
    common(p_sim)
    p_sim.add_argument("--paths", type=int, default=1, help="number of trajectories")
    p_sim.add_argument("--horizon", type=int, default=50, help="steps per trajectory")

    try:
        args = parser.parse_args(argv)
        cfg = _apply_overrides(load_config(args.config), args)
        if args.verb == "benchmark":
            theta_star, cost_star = write_benchmark(cfg, Path(cfg.output_dir))
            print(json.dumps({"theta_star": _theta_json(theta_star),
                              "cost_star": cost_star}, sort_keys=True))
        elif args.verb == "optimize":
            summary = run_experiment(cfg, workers=args.workers)
            print(json.dumps({"final_rel_err_mean": summary["final_rel_err_mean"],
                              "termination": summary["termination_per_run"]},
                             sort_keys=True))
        elif args.verb == "validate-nagent":
            flags = {"validation_ns": _parse_ints(args.ns, "--ns") if args.ns else None,
                     "validation_reps": args.reps, "validation_horizon": args.horizon}
            cfg = replace(cfg, **{k: v for k, v in flags.items() if v is not None})
            payload = run_nagent_validation(cfg)
            print(json.dumps({"mkv_mean": payload["mkv_mean"],
                              "gaps": {str(r["N"]): r["rel_gap"] for r in payload["rows"]}},
                             sort_keys=True))
        else:
            if args.horizon < 1:
                raise SchemaError("--horizon must be >= 1")
            written = run_simulate(cfg, args.paths, args.horizon)
            print(json.dumps({"files": [str(p) for p in written]}))
    except ConfigError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}))
        return 2
    except LqmfgError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}))
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
