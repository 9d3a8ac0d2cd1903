"""Experiment harness: declarative configs in, CSV/JSON artifacts out.

A config file is flat key-value UTF-8 text: [model] and [noise] define the
game, [optimizer] and [estimator] the learning run, and [experiment] the
method, the oracle and the bookkeeping fields. The table _SCHEMA names every
key once, with its parser and default. All artifacts are deterministic given
the config and master seed; wall-clock timings go to a separate timing file
excluded from that guarantee.

This module is the only one that touches files: `_output_dir` makes the
output directory, `_write_json` and `_write_csv` write every artifact, and
the other modules only compute.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import re
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
from .optim import OptimizerConfig, RunLog, relative_error, run
from .riccati import nash_policy, solve_riccati
from .simulate import derive_seed, mkv_utility_batch, nagent_utility_batch, simulate_mkv
from .value import exact_utility


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated, fully-resolved experiment description."""

    model: ModelParams
    optimizer: OptimizerConfig
    estimator: EstimatorConfig | None
    repeats: int
    output_dir: str
    master_seed: int

    method = property(lambda self: self.optimizer.mode)      # "ag" | "gda"
    oracle = property(lambda self: self.optimizer.oracle)    # "exact" | "sampled"

    def __post_init__(self):
        if self.repeats < 1:
            raise SchemaError("repeats must be >= 1")
        if self.master_seed < 0:
            raise SchemaError("master_seed must be >= 0")
        if not self.output_dir:  # else the artifacts would land in the working directory
            raise SchemaError("output_dir must not be empty")


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


def _parse_choice(first: str, second: str):
    def parse(text: str, field: str) -> str:
        value = text.strip().lower()
        if value not in (first, second):
            raise SchemaError(f"{field} must be {first!r} or {second!r}, got {value!r}")
        return value
    return parse


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
    **{("optimizer", key): (_parse_float, None) for key in ("eta1", "eta2")},
    **{("optimizer", key): (_parse_int, None) for key in ("T1", "T2", "T", "log_every")},
    ("experiment", "repeats"): (_parse_int, _REQUIRED),
    ("experiment", "output_dir"): (lambda text, field: text, _REQUIRED),
}
# the order in which the sections are checked for unknown and missing fields
_SECTIONS = ("model", "noise", "experiment", "optimizer", "estimator")


def load_config(path) -> ExperimentConfig:
    """Parse and validate an experiment config file."""
    path = Path(path)
    if not path.is_file():
        raise ParseError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ParseError(f"config syntax error: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"config file is not UTF-8: {exc}") from None

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
    method, oracle = exp.pop("method"), exp.pop("oracle")

    has_estimator = "estimator" in texts
    if oracle == "sampled" and not has_estimator:
        raise CrossFieldError("oracle=sampled requires an [estimator] section")
    if oracle == "exact" and has_estimator:
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
        optimizer = OptimizerConfig(mode=method, theta0=PolicyPair(**gains),
                                    estimator=estimator, **opt)
    except ValueError as exc:
        raise SchemaError(f"optimizer: {exc}") from None

    return ExperimentConfig(model=model, optimizer=optimizer, estimator=estimator, **exp)


def _output_dir(cfg: ExperimentConfig) -> Path:
    """The config's output directory, made with its parents if missing."""
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: Path, header, rows) -> None:
    """Each row's fields joined by "," and ended by "\\r\\n", written as the
    rows come: the bytes of csv.writer's default dialect, since no field
    (a number, ";"-joined numbers or a header name) holds a comma, quote or
    newline."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for row in rows:
            fh.write(",".join(row) + "\r\n")


def _remove_stale(out: Path, stem: str, count: int) -> None:
    """Delete the files `<stem>_<n>.csv` with n >= count that an earlier
    run with a larger count left in `out`; nothing else is touched."""
    for path in out.iterdir():
        match = re.fullmatch(rf"{stem}_(0|[1-9][0-9]*)\.csv", path.name)
        if match and int(match[1]) >= count and path.is_file():
            path.unlink()


def _theta_json(theta: PolicyPair) -> dict:
    return {name: getattr(theta, name).tolist() for name in ("K1", "L1", "K2", "L2")}


def write_benchmark(cfg: ExperimentConfig) -> tuple[PolicyPair, float]:
    """Solve the equilibrium equations, then record the benchmark artifact."""
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
    _write_json(_output_dir(cfg) / "benchmark.json", payload)
    return theta_star, cost_star


def _repeat_config(cfg: ExperimentConfig, repeat: int) -> OptimizerConfig:
    if cfg.oracle != "sampled":
        return cfg.optimizer
    seeded = replace(cfg.optimizer.estimator, seed=derive_seed(cfg.master_seed, repeat))
    return replace(cfg.optimizer, estimator=seeded)


def _run_one_repeat(cfg: ExperimentConfig, repeat: int) -> RunLog:
    return run(cfg.model, _repeat_config(cfg, repeat))


def run_experiment(cfg: ExperimentConfig, workers: int = 1) -> dict:
    """Benchmark, optimize `repeats` times, score each logged iterate's
    exact utility against the benchmark's, and write all artifacts."""
    if workers < 1:
        raise SchemaError("workers must be >= 1")
    theta_star, cost_star = write_benchmark(cfg)
    out = Path(cfg.output_dir)

    repeats = range(cfg.repeats)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only --workers > 1 needs it

        with ProcessPoolExecutor(max_workers=workers) as pool:
            logs = list(pool.map(_run_one_repeat, [cfg] * cfg.repeats, repeats))
    else:
        logs = [_run_one_repeat(cfg, r) for r in repeats]
    # scored before any run file is written: a zero benchmark writes none
    errs = [[relative_error(rec.cost, cost_star) if math.isfinite(rec.cost) else math.nan
             for rec in log.records] for log in logs]

    for r, (log, log_errs) in enumerate(zip(logs, errs)):
        _write_csv(out / f"run_{r}.csv", _RUN_HEADER, _run_rows(log, log_errs))
    _write_csv(out / "convergence.csv", ("k", "rel_err_mean", "rel_err_min", "rel_err_max"),
               _convergence_rows(logs, errs))

    final_errs = [log_errs[-1] for log_errs in errs]
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
        "iterations_per_run": [log.records[-1].k for log in logs],
        "termination_per_run": [log.termination for log in logs],
    }
    _write_json(out / "summary.json", summary)
    timing = {"wall_time_per_run": [log.wall_time for log in logs],
              "wall_time_total": float(sum(log.wall_time for log in logs))}
    _write_json(out / "timing.json", timing)
    _remove_stale(out, "run", cfg.repeats)
    return summary


_RUN_HEADER = ("k", "K1", "L1", "K2", "L2", "C",
               "gradnorm_K1", "gradnorm_L1", "gradnorm_K2", "gradnorm_L2", "rel_err")


def _run_rows(log: RunLog, errs: list[float]):
    """One row per logged global iteration, with its relative error from
    `errs`, full-precision floats; a gain is its entries joined by ";", a
    1x1 gain its one entry. The gains are read with one tolist() of the
    flat stack; the cost, the norms and `errs` are Python floats already."""
    for rec, err in zip(log.records, errs):
        flat = rec.theta.stack.ravel().tolist()
        n = len(flat) // 4
        gains = (map(repr, flat) if n == 1
                 else (";".join(map(repr, flat[i:i + n])) for i in range(0, 4 * n, n)))
        yield [str(rec.k), *gains, *map(repr, (rec.cost, *rec.grad_norms, err))]


def _convergence_rows(logs: list[RunLog], errs: list[list[float]]):
    """Mean and min/max envelope of the finite relative errors per iteration."""
    by_k: dict[int, list[float]] = {}
    for log, log_errs in zip(logs, errs):
        for rec, err in zip(log.records, log_errs):
            if math.isfinite(err):
                by_k.setdefault(rec.k, []).append(err)
    for k in sorted(by_k):
        vals = by_k[k]
        if len(vals) == 1:  # mean, min and max are the one value
            text = repr(vals[0])
            yield [str(k), text, text, text]
        else:
            yield [str(k), repr(float(np.mean(vals))), repr(min(vals)), repr(max(vals))]


def run_nagent_validation(cfg: ExperimentConfig, Ns=(10, 100, 1000), reps: int = 2000,
                          horizon: int = 50) -> dict:
    """Monte-Carlo gap between population and mean-field utilities at the
    benchmark policy, paired on the common-noise draws.

    Writes one CSV row per population size: mean, standard error, and the
    relative gap against the mean-field reference sample mean. ``Ns``,
    ``reps`` and ``horizon`` are checked before anything is written.

    The replications come in seed chunks of at most 400 000 agents of the
    largest population. Each chunk's rollouts, the mean-field reference and
    one population per N, are independent and run on two worker threads;
    the samples are collected in chunk order, so the artifacts do not
    depend on the scheduling. In flight are two rollouts' states, two
    (chunk, N, d) arrays at most, plus their draw blocks. A failed
    rollout's exception is raised and the queued rollouts are cancelled."""
    Ns = tuple(Ns)
    if min(Ns, default=0) < 1 or horizon < 1:
        raise SchemaError("validation sizes and horizon must be >= 1")
    if len(set(Ns)) < len(Ns):  # samples are kept per size
        raise SchemaError("validation sizes must be distinct")
    if reps < 2:
        raise SchemaError("validation reps must be >= 2 for a standard error")
    theta_star, cost_star = write_benchmark(cfg)

    chunk = max(1, min(reps, 400_000 // max(Ns)))
    chunks = [(min(chunk, reps - done), derive_seed(cfg.master_seed, 101, idx))
              for idx, done in enumerate(range(0, reps, chunk))]
    from concurrent.futures import ThreadPoolExecutor  # on call: the other verbs skip the import

    # the rollouts are independent: two run at a time, the largest
    # populations first so that both workers finish together
    pool = ThreadPoolExecutor(max_workers=2)
    try:
        pop_runs = {N: [pool.submit(nagent_utility_batch, cfg.model, theta_star, N,
                                    horizon, n, seed) for n, seed in chunks]
                    for N in sorted(Ns, reverse=True)}
        mkv_runs = [pool.submit(mkv_utility_batch, cfg.model, theta_star, horizon, n, seed)
                    for n, seed in chunks]
        # read in submission order, so a failed rollout surfaces early
        pop_samples = {N: np.concatenate([run.result() for run in runs])
                       for N, runs in pop_runs.items()}
        mkv = np.concatenate([run.result() for run in mkv_runs])
    finally:
        pool.shutdown(cancel_futures=True)

    mkv_mean = float(mkv.mean())
    mkv_se = float(mkv.std(ddof=1) / np.sqrt(len(mkv)))
    scale = abs(mkv_mean)
    rows = []
    for N in Ns:
        u = pop_samples[N]
        mean = float(u.mean())
        se = float(u.std(ddof=1) / np.sqrt(len(u)))
        paired = u - mkv
        paired_se = float(paired.std(ddof=1) / np.sqrt(len(paired)))
        # degenerate zero-noise runs have both means exactly zero
        gap = 0.0 if mean == mkv_mean else relative_error(mean, mkv_mean)
        rows.append({"N": N, "mean": mean, "stderr": se, "rel_gap": gap,
                     "paired_gap_stderr": paired_se / scale if scale else 0.0})

    out = Path(cfg.output_dir)
    _write_csv(out / "nagent_validation.csv", ("N", "mean", "stderr", "rel_gap"),
               ([str(row["N"]), repr(row["mean"]), repr(row["stderr"]), repr(row["rel_gap"])]
                for row in rows))
    payload = {"mkv_mean": mkv_mean, "mkv_stderr": mkv_se, "reps": reps,
               "horizon": horizon, "exact_cost": cost_star, "rows": rows}
    _write_json(out / "nagent_summary.json", payload)
    return payload


def run_simulate(cfg: ExperimentConfig, paths: int, horizon: int) -> list[Path]:
    """Write one mean-field trajectory CSV per derived seed: t, state
    coords, mean coords, both controls, and the stage cost."""
    if paths < 1 or horizon < 1:
        raise SchemaError("paths and horizon must be >= 1")
    theta_star = nash_policy(cfg.model, solve_riccati(cfg.model))
    out = _output_dir(cfg)
    d, ell = cfg.model.d, cfg.model.ell
    header = ["t", *(f"x{i}" for i in range(d)), *(f"xbar{i}" for i in range(d)),
              *(f"u1_{i}" for i in range(ell)), *(f"u2_{i}" for i in range(ell)), "c"]
    written = []
    for p in range(paths):
        seed = derive_seed(cfg.master_seed, 201, p)
        traj = simulate_mkv(cfg.model, theta_star, horizon, seed)
        table = np.column_stack([traj.states, traj.means, traj.u1, traj.u2, traj.costs])
        dest = out / f"trajectory_{p}.csv"
        _write_csv(dest, header, ([str(t), *map(repr, row.tolist())]
                                  for t, row in enumerate(table)))
        written.append(dest)
    _remove_stale(out, "trajectory", paths)
    return written


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    changes = {}
    if getattr(args, "out", None) is not None:
        changes["output_dir"] = args.out
    if getattr(args, "seed", None) is not None:
        changes["master_seed"] = args.seed
    if getattr(args, "repeats", None) is not None:
        changes["repeats"] = args.repeats
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
    p_opt.add_argument("--workers", type=int, default=1,
                       help="parallel workers across repeats")

    p_val = sub.add_parser("validate-nagent", help="population-size sweep against the mean-field utility")
    common(p_val)
    p_val.add_argument("--ns", help="comma-separated population sizes (default 10,100,1000)")
    p_val.add_argument("--reps", type=int, help="Monte-Carlo repetitions per size (default 2000)")
    p_val.add_argument("--horizon", type=int, help="rollout truncation horizon (default 50)")

    p_sim = sub.add_parser("simulate", help="dump mean-field trajectories at the benchmark policy")
    common(p_sim)
    p_sim.add_argument("--paths", type=int, default=1, help="number of trajectories")
    p_sim.add_argument("--horizon", type=int, default=50, help="steps per trajectory")

    try:
        args = parser.parse_args(argv)
        cfg = _apply_overrides(load_config(args.config), args)
        if args.verb == "benchmark":
            theta_star, cost_star = write_benchmark(cfg)
            print(json.dumps({"theta_star": _theta_json(theta_star),
                              "cost_star": cost_star}, sort_keys=True))
        elif args.verb == "optimize":
            summary = run_experiment(cfg, workers=args.workers)
            print(json.dumps({"final_rel_err_mean": summary["final_rel_err_mean"],
                              "termination": summary["termination_per_run"]},
                             sort_keys=True))
        elif args.verb == "validate-nagent":
            given = {"Ns": _parse_ints(args.ns, "--ns") if args.ns is not None else None,
                     "reps": args.reps, "horizon": args.horizon}
            payload = run_nagent_validation(
                cfg, **{key: value for key, value in given.items() if value is not None})
            print(json.dumps({"mkv_mean": payload["mkv_mean"],
                              "gaps": {str(r["N"]): r["rel_gap"] for r in payload["rows"]}},
                             sort_keys=True))
        else:
            written = run_simulate(cfg, args.paths, args.horizon)
            print(json.dumps({"files": [str(p) for p in written]}))
    except (LqmfgError, OSError) as exc:
        # a file that cannot be read or written is a bad setting, as is a bad value
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}))
        return 2 if isinstance(exc, (ConfigError, OSError)) else 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
