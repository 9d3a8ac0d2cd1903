"""Experiment harness: declarative configs in, CSV/JSON artifacts out.

A config file is flat key-value text: [model] and [noise] define the game,
[optimizer] and [estimator] the learning run, [experiment] the method, the
oracle and the bookkeeping fields, and [validation] the N-agent sweep. The
table _SCHEMA names every key once, with its parser and default. All
artifacts are deterministic given the config and master seed; wall-clock
timings go to a separate timing file excluded from that guarantee.
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


def _parse_word(text: str, field: str) -> str:
    return text.strip().lower()


def _parse_choice(first: str, second: str):
    def parse(text: str, field: str) -> str:
        value = _parse_word(text, field)
        if value not in (first, second):
            raise SchemaError(f"{field} must be {first!r} or {second!r}, got {value!r}")
        return value
    return parse


def _parse_dir(text: str, field: str) -> str:
    if not text:  # else the artifacts would land in the working directory
        raise SchemaError(f"field '{field}': must not be empty")
    return text


_REQUIRED = object()
_GAINS = ("K1", "L1", "K2", "L2")

# Every config key in parse order: (section, key) -> (parser, default). A
# required key must be present. An omitted key with default None is not
# passed on, so the default of the dataclass it feeds applies; an omitted
# initial gain is zero. A present key is parsed even when it is empty.
_SCHEMA = {
    ("experiment", "method"): (_parse_choice("ag", "gda"), _REQUIRED),
    ("experiment", "oracle"): (_parse_choice("exact", "sampled"), _REQUIRED),
    ("model", "d"): (_parse_int, None),
    ("model", "ell"): (_parse_int, None),
    **{("noise", key): (_parse_distribution, _REQUIRED)
       for key in ("init_common", "init_idio", "step_common", "step_idio")},
    **{("model", key): (_parse_matrix, _REQUIRED)
       for key in ("A", "A_bar", "B1", "B1_bar", "B2", "B2_bar", "Q", "Q_bar",
                   "R1", "R1_bar", "R2", "R2_bar")},
    ("model", "gamma"): (_parse_float, _REQUIRED),
    **{("optimizer", f"{name}_0"): (_parse_matrix, None) for name in _GAINS},
    ("experiment", "master_seed"): (_parse_int, _REQUIRED),
    ("estimator", "M"): (_parse_int, 10000),
    ("estimator", "horizon"): (_parse_int, 50),
    ("estimator", "tau"): (_parse_float, 0.1),
    ("estimator", "smoothing_dim"): (_parse_word, None),
    **{("optimizer", key): (_parse_float, None) for key in ("eta1", "eta2")},
    **{("optimizer", key): (_parse_int, None) for key in ("T1", "T2", "T", "log_every")},
    ("optimizer", "shrink_on_exit"): (_parse_bool, None),
    ("experiment", "repeats"): (_parse_int, _REQUIRED),
    ("experiment", "output_dir"): (_parse_dir, _REQUIRED),
    ("validation", "ns"): (_parse_ints, None),
    ("validation", "reps"): (_parse_int, None),
    ("validation", "horizon"): (_parse_int, None),
}
# the order in which the sections are checked for unknown and missing fields
_SECTIONS = ("model", "noise", "experiment", "optimizer", "validation", "estimator")


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

    unknown_sections = set(parser.sections()) - set(_SECTIONS)
    if unknown_sections:
        raise SchemaError(f"unknown sections {sorted(unknown_sections)}")
    texts = {}
    for name in _SECTIONS:
        fields = {key: default for (section, key), (_, default) in _SCHEMA.items()
                  if section == name}
        required = {key for key, default in fields.items() if default is _REQUIRED}
        if name not in parser:
            if required:
                raise SchemaError(f"missing section [{name}]")
            continue
        texts[name] = dict(parser.items(name))
        unknown = set(texts[name]) - set(fields)
        if unknown:
            raise SchemaError(f"section [{name}]: unknown fields {sorted(unknown)}")
        missing = required - set(texts[name])
        if missing:
            raise SchemaError(f"section [{name}]: missing fields {sorted(missing)}")

    values = {name: {} for name in _SECTIONS}
    for (section, key), (parse, default) in _SCHEMA.items():
        if key in texts.get(section, {}):
            values[section][key] = parse(texts[section][key], key)
        elif section in texts and default is not None:
            values[section][key] = default
    exp, opt = values["experiment"], values["optimizer"]

    has_estimator = "estimator" in texts
    if exp["oracle"] == "sampled" and not has_estimator:
        raise CrossFieldError("oracle=sampled requires an [estimator] section")
    if exp["oracle"] == "exact" and has_estimator:
        raise CrossFieldError("[estimator] section requires oracle=sampled")

    try:
        model = ModelParams(noise=NoiseSpec(**values["noise"]), **values["model"])
        validate_model(model)
    except LqmfgError as exc:
        raise SchemaError(f"model validation failed: {exc}") from None

    shape = (model.ell, model.d)
    gains = {name: opt.pop(f"{name}_0", np.zeros(shape)) for name in _GAINS}
    for name, gain in gains.items():
        if gain.shape != shape:
            raise SchemaError(f"field '{name}_0': gain must be {shape}, got {gain.shape}")

    estimator = None
    if has_estimator:
        try:
            estimator = EstimatorConfig(seed=exp["master_seed"], **values["estimator"])
        except ValueError as exc:
            raise SchemaError(f"estimator: {exc}") from None
    try:
        optimizer = OptimizerConfig(mode=exp["method"], oracle=exp["oracle"],
                                    theta0=PolicyPair(**gains), estimator=estimator,
                                    **opt)
    except ValueError as exc:
        raise SchemaError(f"optimizer: {exc}") from None

    return ExperimentConfig(
        model=model, optimizer=optimizer, estimator=estimator, **exp,
        **{f"validation_{key}": value for key, value in values["validation"].items()})


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


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
    _write_json(out / "benchmark.json", payload)
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
    _write_json(out / "summary.json", summary)
    timing = {"wall_time_per_run": [log.wall_time for log in logs],
              "wall_time_total": float(sum(log.wall_time for log in logs))}
    _write_json(out / "timing.json", timing)
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
    for idx, done in enumerate(range(0, reps, chunk)):
        n = min(chunk, reps - done)
        seed = derive_seed(cfg.master_seed, 101, idx)
        mkv_samples.append(mkv_utility_batch(cfg.model, theta_star, horizon, n, seed))
        for N in Ns:
            pop_samples[N].append(
                nagent_utility_batch(cfg.model, theta_star, N, horizon, n, seed))

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
    _write_json(out / "nagent_summary.json", payload)
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
            if args.workers < 1:
                raise SchemaError("--workers must be >= 1")
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
            if args.paths < 1:
                raise SchemaError("--paths must be >= 1")
            if args.horizon < 1:
                raise SchemaError("--horizon must be >= 1")
            written = run_simulate(cfg, args.paths, args.horizon)
            print(json.dumps({"files": [str(p) for p in written]}))
    except LqmfgError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}))
        return 2 if isinstance(exc, ConfigError) else 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
