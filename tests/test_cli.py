import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from concurrent import futures
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lqmfg import OptimizerConfig, PolicyPair, cli
from lqmfg.cli import (
    _SCHEMA,
    ExperimentConfig,
    load_config,
    main,
    run_experiment,
    run_nagent_validation,
    run_simulate,
)
from lqmfg.errors import CrossFieldError, ParseError, SchemaError
from lqmfg.optim import RunRecord
from lqmfg.riccati import nash_policy, solve_riccati
from lqmfg.simulate import derive_seed, simulate_mkv

from conftest import perfbench_module, random_game, stacked_oracle

REPO_CONFIGS = Path(__file__).resolve().parent.parent / "configs"

BASE = """\
[model]
A = 0.4
A_bar = 0.4
B1 = 0.4
B1_bar = 0.4
B2 = 0.3
B2_bar = 0.3
Q = 0.4
Q_bar = 0.4
R1 = 0.4
R1_bar = 0.4
R2 = 0.4
R2_bar = 0.4
gamma = {gamma}

[noise]
init_common = uniform(-1, 1)
init_idio = uniform(-1, 1)
step_common = gaussian(0, 0.01)
step_idio = gaussian(0, 0.01)

[optimizer]
T = {T}

{extra}
[experiment]
method = {method}
oracle = {oracle}
repeats = {repeats}
output_dir = {outdir}
master_seed = {seed}
"""


def write_config(tmp_path, *, gamma=0.9, T=20, method="gda", oracle="exact",
                 repeats=1, seed=7, extra="", name="exp.cfg"):
    path = tmp_path / name
    path.write_text(BASE.format(gamma=gamma, T=T, method=method,
                                oracle=oracle, repeats=repeats,
                                outdir=tmp_path / "out", seed=seed,
                                extra=extra))
    return path


def write_matrix_config(tmp_path):
    """A d = 2, ell = 1 game without initial gains."""
    path = write_config(tmp_path)
    text = path.read_text().replace("[model]", "[model]\nd = 2")
    for key, value in [("A", "0.3,0.0;0.0,0.2"), ("A_bar", "0.1,0.0;0.0,0.1"),
                       ("Q", "0.4,0.0;0.0,0.4"), ("Q_bar", "0.1,0.0;0.0,0.1"),
                       ("B1", "0.4;0.1"), ("B1_bar", "0.0;0.0"),
                       ("B2", "0.3;0.0"), ("B2_bar", "0.0;0.0")]:
        text = re.sub(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
    path.write_text(text)
    return path


class TestLoadConfig:
    def test_shipped_gda_exact_defaults(self):
        cfg = load_config(REPO_CONFIGS / "table1_gda_exact.cfg")
        assert cfg.method == "gda"
        assert cfg.oracle == "exact"
        assert cfg.optimizer.T == 2000
        assert cfg.optimizer.eta1 == 0.1
        assert cfg.optimizer.eta2 == 0.1
        theta0 = cfg.optimizer.theta0
        for name in ("K1", "L1", "K2", "L2"):
            assert getattr(theta0, name)[0, 0] == 0.0

    def test_shipped_sampled_config(self):
        cfg = load_config(REPO_CONFIGS / "table1_gda_sampled.cfg")
        assert cfg.oracle == "sampled"
        assert cfg.estimator.M == 10000
        assert cfg.estimator.horizon == 50
        assert cfg.estimator.tau == 0.1
        assert cfg.repeats == 5

    @pytest.mark.parametrize("name", sorted(p.stem for p in REPO_CONFIGS.glob("*.cfg")))
    def test_scheme_and_oracle_have_one_owner(self, name):
        """method and oracle are read from the optimizer, whose oracle is
        whether an estimator is set; neither is a field of its own."""
        cfg = load_config(REPO_CONFIGS / f"{name}.cfg")
        assert (cfg.method, cfg.oracle) == tuple(name.split("_")[1:3])
        assert cfg.method == cfg.optimizer.mode
        assert cfg.oracle == cfg.optimizer.oracle
        assert replace(cfg.optimizer, estimator=None).oracle == "exact"
        assert {"method", "oracle"}.isdisjoint(f.name for f in fields(ExperimentConfig))
        assert "oracle" not in {f.name for f in fields(OptimizerConfig)}

    def test_readme_defaults_match_schema(self):
        """The optimizer and estimator defaults README "Config format" states
        are the ones a config without those keys gets, and it states them
        all."""
        readme = (REPO_CONFIGS.parent / "README.md").read_text()
        text = " ".join(readme.split("\n### Config format\n", 1)[1]
                        .split("\n### ", 1)[0].split())
        optimizer = re.search(r"`OptimizerConfig` \(([^)]*)\)", text).group(1)
        estimator = re.search(r"Estimator fields default to (.*?)(?:, and `|\. )",
                              text).group(1)
        stated = {section: dict(re.findall(r"(\w+)=([\w.]*\w)", sentence))
                  for section, sentence in (("optimizer", optimizer),
                                            ("estimator", estimator))}
        eta = stated["optimizer"].pop("eta")
        stated["optimizer"].update(eta1=eta, eta2=eta)
        defaults = {f.name: f.default for f in fields(OptimizerConfig)}
        for section, values in stated.items():
            schema = {key: (parse, default) for (name, key), (parse, default)
                      in _SCHEMA.items() if name == section and not key.endswith("_0")}
            assert set(values) == set(schema), section
            for key, value in values.items():
                parse, default = schema[key]
                want = defaults[key] if section == "optimizer" else default
                assert parse(value, key) == want, (section, key)

    def test_sampled_without_estimator_section(self, tmp_path):
        path = write_config(tmp_path, oracle="sampled")
        with pytest.raises(CrossFieldError):
            load_config(path)

    def test_estimator_with_exact_oracle(self, tmp_path):
        path = write_config(tmp_path, extra="[estimator]\nM = 100\n")
        with pytest.raises(CrossFieldError):
            load_config(path)

    def test_unit_discount_rejected_via_model_validation(self, tmp_path):
        path = write_config(tmp_path, gamma=1.0)
        with pytest.raises(SchemaError):
            load_config(path)

    def test_unknown_field(self, tmp_path):
        path = write_config(tmp_path, extra="bogus = 1\n")  # lands in [optimizer]
        with pytest.raises(SchemaError,
                           match=r"section \[optimizer\]: unknown fields \['bogus'\]"):
            load_config(path)

    def test_removed_validation_section_is_named(self, tmp_path):
        """The N-agent sweep sizes are arguments of the verb, not config."""
        path = write_config(tmp_path, extra="[validation]\nreps = 10\n")
        with pytest.raises(SchemaError, match=r"unknown sections \['validation'\]"):
            load_config(path)

    def test_missing_model_field(self, tmp_path):
        path = write_config(tmp_path)
        text = path.read_text().replace("Q_bar = 0.4\n", "")
        path.write_text(text)
        with pytest.raises(SchemaError):
            load_config(path)

    def test_unparseable_number(self, tmp_path):
        path = write_config(tmp_path, gamma="zero.9")
        with pytest.raises(ParseError):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_config(tmp_path / "absent.cfg")

    def test_syntax_error(self, tmp_path):
        path = tmp_path / "broken.cfg"
        path.write_text("not a section header\n[model]\n")
        with pytest.raises(ParseError):
            load_config(path)

    def test_matrix_syntax(self, tmp_path):
        path = write_config(tmp_path)
        text = path.read_text().replace("A = 0.4", "A = 0.3,0.0;0.0,0.2")
        text = text.replace("A_bar = 0.4", "A_bar = 0.1,0.0;0.0,0.1")
        text = text.replace("Q = 0.4\n", "Q = 0.4,0.0;0.0,0.4\n")
        text = text.replace("Q_bar = 0.4\n", "Q_bar = 0.1,0.0;0.0,0.1\n")
        text = text.replace("B1 = 0.4\n", "B1 = 0.4;0.1\n")
        text = text.replace("B1_bar = 0.4\n", "B1_bar = 0.0;0.0\n")
        text = text.replace("B2 = 0.3\n", "B2 = 0.3;0.0\n")
        text = text.replace("B2_bar = 0.3\n", "B2_bar = 0.0;0.0\n")
        text = text.replace("[model]", "[model]\nd = 2")
        path.write_text(text)
        cfg = load_config(path)
        assert cfg.model.d == 2
        assert cfg.model.A.shape == (2, 2)
        assert cfg.model.B1.shape == (2, 1)

    def test_omitted_gains_are_zero_at_model_shape(self, tmp_path):
        path = write_matrix_config(tmp_path)
        path.write_text(path.read_text().replace("T = 20", "T = 20\nK1_0 = 0.1,0.2"))
        theta0 = load_config(path).optimizer.theta0
        np.testing.assert_array_equal(theta0.K1, [[0.1, 0.2]])
        for name in ("L1", "K2", "L2"):
            np.testing.assert_array_equal(getattr(theta0, name), np.zeros((1, 2)))

    def test_distribution_variants(self, tmp_path):
        path = write_config(tmp_path)
        text = path.read_text().replace("init_common = uniform(-1, 1)",
                                        "init_common = point_mass(0.5)")
        text = text.replace("step_common = gaussian(0, 0.01)",
                            "step_common = point(0)")
        path.write_text(text)
        cfg = load_config(path)
        assert cfg.model.noise.init_common.kind == "point"
        assert cfg.model.noise.init_common.p1 == 0.5


class TestRunExperiment:
    def test_artifacts_written(self, tmp_path):
        cfg = load_config(write_config(tmp_path, T=10))
        summary = run_experiment(cfg)
        out = Path(cfg.output_dir)
        for name in ("benchmark.json", "run_0.csv", "convergence.csv",
                     "summary.json", "timing.json"):
            assert (out / name).is_file(), name
        assert summary["termination_per_run"] == ["completed"]
        bench = json.loads((out / "benchmark.json").read_text())
        assert bench["cost_star"] == pytest.approx(0.76448, abs=5e-5)

    def test_constant_curve_with_zero_rate(self, tmp_path):
        extra = ""
        path = write_config(tmp_path, T=8)
        text = path.read_text().replace("T = 8", "T = 8\neta1 = 0.0\neta2 = 0.0")
        path.write_text(text)
        cfg = load_config(path)
        run_experiment(cfg)
        with open(Path(cfg.output_dir) / "convergence.csv") as fh:
            rows = list(csv.reader(fh))[1:]
        means = {row[1] for row in rows}
        assert len(means) == 1

    def test_parallel_workers_match_sequential(self, tmp_path):
        est = "[estimator]\nM = 40\nhorizon = 10\n"
        cfg_a = load_config(write_config(tmp_path, T=6, oracle="sampled",
                                         repeats=2, extra=est, name="a.cfg"))
        run_experiment(cfg_a, workers=1)
        cfg_b = replace(cfg_a, output_dir=str(tmp_path / "out_b"))
        run_experiment(cfg_b, workers=2)
        seq, par = Path(cfg_a.output_dir), Path(cfg_b.output_dir)
        names = sorted(p.name for p in seq.iterdir() if p.name != "timing.json")
        assert names == sorted(p.name for p in par.iterdir() if p.name != "timing.json")
        assert len(names) == 5  # benchmark, summary, convergence, two runs
        for name in names:
            assert (seq / name).read_bytes() == (par / name).read_bytes(), name
        for out in (seq, par):  # the CLI times each repeat, in the worker or not
            timing = json.loads((out / "timing.json").read_text())
            assert len(timing["wall_time_per_run"]) == 2
            assert min(timing["wall_time_per_run"]) > 0.0
            assert timing["wall_time_total"] == sum(timing["wall_time_per_run"])

    def test_sampled_run_reads_the_optimizer_estimator(self, tmp_path):
        """Each repeat seeds the optimizer's estimator: a sampled config
        without the duplicate `ExperimentConfig.estimator` writes the same
        artifacts."""
        est = "[estimator]\nM = 40\nhorizon = 10\n"
        cfg_a = load_config(write_config(tmp_path, T=4, oracle="sampled",
                                         repeats=2, extra=est))
        run_experiment(cfg_a)
        cfg_b = replace(cfg_a, estimator=None, output_dir=str(tmp_path / "out_b"))
        run_experiment(cfg_b)
        seq, alone = Path(cfg_a.output_dir), Path(cfg_b.output_dir)
        names = sorted(p.name for p in seq.iterdir() if p.name != "timing.json")
        assert names == sorted(p.name for p in alone.iterdir() if p.name != "timing.json")
        for name in names:
            assert (seq / name).read_bytes() == (alone / name).read_bytes(), name

    def test_exact_run_loads_no_random_or_pool(self, tmp_path):
        """An exact run draws nothing and starts no thread, so it imports
        neither numpy.random (which pulls in hashlib and OpenSSL) nor
        concurrent.futures."""
        script = f"""
import sys
from dataclasses import replace
from lqmfg.cli import load_config, run_experiment
cfg = load_config({str(REPO_CONFIGS / "table1_gda_exact.cfg")!r})
run_experiment(replace(cfg, output_dir={str(tmp_path)!r},
                       optimizer=replace(cfg.optimizer, T=20)))
print([m for m in ("numpy.random", "concurrent.futures") if m in sys.modules])
"""
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"
        assert (tmp_path / "summary.json").is_file()


class TestNAgentValidation:
    def test_zero_noise_gaps_are_zero(self, tmp_path):
        path = write_config(tmp_path)
        text = path.read_text()
        for key in ("init_common", "init_idio"):
            text = text.replace(f"{key} = uniform(-1, 1)", f"{key} = point(0)")
        for key in ("step_common", "step_idio"):
            text = text.replace(f"{key} = gaussian(0, 0.01)", f"{key} = point(0)")
        path.write_text(text)
        cfg = load_config(path)
        payload = run_nagent_validation(cfg, Ns=(2, 5), reps=20, horizon=10)
        assert all(row["rel_gap"] == 0.0 for row in payload["rows"])

    def test_csv_schema(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        run_nagent_validation(cfg, Ns=(3, 9), reps=50, horizon=10)
        with open(Path(cfg.output_dir) / "nagent_validation.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["N", "mean", "stderr", "rel_gap"]
        assert [row[0] for row in rows[1:]] == ["3", "9"]
        for row in rows[1:]:
            assert np.isfinite(float(row[1]))

    # 400_000 // 100_000 = 4 replications per seed chunk: chunks of 4, 4 and 2
    SWEEP = {"Ns": (3, 100_000, 17), "reps": 10, "horizon": 5}
    SWEEP_DIGESTS = {
        "nagent_validation.csv":
            "197feecf54d538047fefcd910f28c3f814b8c9ebe31405678a4a2f75e76d3b16",
        "nagent_summary.json":
            "c6d3e2f902a72505f56f191dfbcc6d4c62c78f099fda497ab36626e03404fbfa",
    }

    def test_side_by_side_sweep_matches_a_serial_loop(self, tmp_path, monkeypatch):
        """The rollouts run two at a time write the bytes of the same
        rollouts run one after another on the calling thread."""
        cfg = load_config(write_config(tmp_path))
        run_nagent_validation(cfg, **self.SWEEP)
        rollouts = []

        class SerialLoop(futures.ThreadPoolExecutor):
            """Runs each call as it is submitted; it starts no thread."""

            def submit(self, fn, *args):
                rollouts.append((fn.__name__, args[2:]))
                done = futures.Future()
                done.set_result(fn(*args))
                return done

        monkeypatch.setattr(futures, "ThreadPoolExecutor", SerialLoop)
        serial = replace(cfg, output_dir=str(tmp_path / "serial"))
        run_nagent_validation(serial, **self.SWEEP)
        for name, want in self.SWEEP_DIGESTS.items():
            side_by_side = (Path(cfg.output_dir) / name).read_bytes()
            assert side_by_side == (Path(serial.output_dir) / name).read_bytes()
            assert hashlib.sha256(side_by_side).hexdigest() == want
        # one mean-field reference and one population per N for each chunk
        chunks = [(n, derive_seed(cfg.master_seed, 101, idx))
                  for idx, n in enumerate((4, 4, 2))]
        # (the mean-field engine's step draws run through the same pool class)
        assert sorted(r for r in rollouts if r[0] != "draw") == sorted(
            [("mkv_utility_batch", (5, n, seed)) for n, seed in chunks]
            + [("nagent_utility_batch", (N, 5, n, seed))
               for n, seed in chunks for N in self.SWEEP["Ns"]])

    def test_failed_rollout_reaches_caller(self, tmp_path, monkeypatch):
        """The third population rollout raises while others are queued: the
        caller gets that exception object, the queued rollouts never start
        and no thread is left."""
        error = RuntimeError("rollout failed")
        started = []
        lock = threading.Lock()
        rollout = cli.nagent_utility_batch

        def failing_rollout(*args):
            with lock:
                started.append(None)
                nth = len(started)
            if nth == 3:
                raise error
            time.sleep(0.05)  # the failure is read with rollouts still queued
            return rollout(*args)

        monkeypatch.setattr(cli, "nagent_utility_batch", failing_rollout)
        cfg = load_config(write_config(tmp_path))
        before = threading.active_count()
        with pytest.raises(RuntimeError) as info:
            run_nagent_validation(cfg, **self.SWEEP)
        assert info.value is error
        assert 3 <= len(started) < 9
        assert threading.active_count() == before
        assert not (Path(cfg.output_dir) / "nagent_validation.csv").exists()

    def test_peak_memory_of_two_rollouts_in_flight(self, tmp_path):
        """The two seed chunks of the largest population are submitted first
        and run side by side, and stay within three (chunk, max_N, d) arrays:
        one per rollout, plus draw blocks and temporaries (about 2.2 read
        here)."""
        cfg = load_config(write_config(tmp_path))
        sweep = {"Ns": (10, 1000), "reps": 800, "horizon": 5}  # chunks of 400
        run_nagent_validation(cfg, **sweep)
        tracemalloc.start()
        try:
            run_nagent_validation(cfg, **sweep)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 400 * 1000 * 8


@pytest.mark.parametrize("call", [
    lambda cfg: run_nagent_validation(cfg, reps=1),
    lambda cfg: run_nagent_validation(cfg, Ns=(0,)),
    lambda cfg: run_nagent_validation(cfg, Ns=()),
    lambda cfg: run_nagent_validation(cfg, Ns=(3, 3)),
    lambda cfg: run_nagent_validation(cfg, horizon=0),
    lambda cfg: run_experiment(cfg, workers=0),
    lambda cfg: run_simulate(cfg, 0, 5),
    lambda cfg: run_simulate(cfg, 5, 0),
], ids=["nagent-reps-1", "nagent-ns-0", "nagent-ns-empty", "nagent-ns-duplicate",
         "nagent-horizon-0",
        "experiment-workers-0", "simulate-paths-0", "simulate-horizon-0"])
def test_library_entry_rejects_bad_setting(tmp_path, call):
    """The library entry points check what main checks, before any artifact."""
    cfg = load_config(write_config(tmp_path))
    with pytest.raises(SchemaError):
        call(cfg)
    assert not Path(cfg.output_dir).exists()


class TestMainEntry:
    def test_benchmark_verb(self, tmp_path, capsys):
        path = write_config(tmp_path)
        rc = main(["benchmark", "--config", str(path)])
        assert rc == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["cost_star"] == pytest.approx(0.76448, abs=5e-5)

    def test_optimize_verb_with_overrides(self, tmp_path, capsys):
        path = write_config(tmp_path, T=5)
        out = tmp_path / "cli_out"
        rc = main(["optimize", "--config", str(path), "--out", str(out),
                   "--seed", "123"])
        assert rc == 0
        assert (out / "summary.json").is_file()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["master_seed"] == 123

    @pytest.mark.parametrize("verb", ["benchmark", "optimize", "validate-nagent",
                                      "simulate"])
    def test_readme_synopsis_lists_every_flag(self, capsys, verb):
        """The verb's synopsis line in README "CLI" names exactly the flags
        its --help prints, --help aside."""
        readme = (REPO_CONFIGS.parent / "README.md").read_text()
        cli = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
        synopsis = re.findall(rf"^lqmfg {verb} .*$", cli, flags=re.M)
        assert len(synopsis) == 1
        with pytest.raises(SystemExit) as exc:
            main([verb, "--help"])
        assert exc.value.code == 0
        accepted = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
        assert accepted == set(re.findall(r"--[a-z][a-z-]*", synopsis[0])) | {"--help"}

    def test_config_error_exit_code(self, tmp_path, capsys):
        rc = main(["optimize", "--config", str(tmp_path / "nope.cfg")])
        assert rc == 2
        printed = json.loads(capsys.readouterr().out)
        assert printed["error"] == "ParseError"

    @pytest.mark.parametrize("verb, flags, oracle, extra, edit", [
        ("optimize", [], "sampled", "[estimator]\nM = 0\n", None),
        ("validate-nagent", ["--ns", "10,abc"], "exact", "", None),
        ("validate-nagent", ["--ns", "0"], "exact", "", None),
        ("validate-nagent", ["--reps", "1"], "exact", "", None),
        ("simulate", ["--horizon", "0"], "exact", "", None),
        ("simulate", ["--paths", "0"], "exact", "", None),
        ("optimize", [], "exact", "", ("\nA = 0.4\n", "\nA = nan\n")),
        ("optimize", [], "exact", "",
         ("init_common = uniform(-1, 1)", "init_common = uniform(nan, 1)")),
        ("optimize", [], "exact", "eta1 = nan\n", None),
        ("optimize", ["--seed", "abc"], "exact", "", None),
        ("optimize", ["--repeats", "x"], "exact", "", None),
        ("optimize", ["--workers", "x"], "exact", "", None),
        ("validate-nagent", ["--reps", "x"], "exact", "", None),
        ("simulate", ["--paths", "x"], "exact", "", None),
        ("simulate", ["--horizon", "x"], "exact", "", None),
        ("simulate", ["--seed", "-1"], "exact", "", None),
        ("optimize", [], "exact", "", ("master_seed = 7", "master_seed = -1")),
        ("optimize", ["--workers", "0"], "exact", "", None),
        ("optimize", ["--workers", "-2"], "exact", "", None),
        ("benchmark", ["--out", ""], "exact", "", None),
        ("validate-nagent", ["--ns", ""], "exact", "", None),
        ("validate-nagent", ["--ns", "3,3"], "exact", "", None),
        ("optimize", ["--oracle", "exact"], "exact", "", None),
    ], ids=["estimator-M-0", "flag-ns-abc", "flag-ns-0",
            "flag-reps-1", "simulate-horizon-0", "simulate-paths-0", "model-A-nan",
            "noise-uniform-nan", "optimizer-eta1-nan", "flag-seed-abc",
            "flag-repeats-x", "flag-workers-x", "flag-reps-x", "flag-paths-x",
            "flag-horizon-x", "flag-seed-negative", "experiment-seed-negative",
            "flag-workers-0", "flag-workers-negative", "flag-out-empty",
            "flag-ns-empty", "flag-ns-duplicate", "flag-oracle"])
    def test_bad_setting_exit_code(self, tmp_path, capsys, verb, flags, oracle,
                                   extra, edit):
        path = write_config(tmp_path, oracle=oracle, extra=extra)
        if edit is not None:
            path.write_text(path.read_text().replace(*edit))
        rc = main([verb, "--config", str(path)] + flags)
        lines = capsys.readouterr().out.splitlines()
        assert rc == 2
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] in ("ParseError", "SchemaError")

    def test_numerical_error_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path)
        text = path.read_text().replace("A = 0.4", "A = 2.0")
        text = text.replace("B1 = 0.4\n", "B1 = 0.01\n")
        text = text.replace("B1_bar = 0.4\n", "B1_bar = 0.0\n")
        text = text.replace("B2 = 0.3\n", "B2 = 0.01\n")
        text = text.replace("B2_bar = 0.3\n", "B2_bar = 0.0\n")
        path.write_text(text)
        rc = main(["benchmark", "--config", str(path)])
        assert rc == 3
        printed = json.loads(capsys.readouterr().out)
        assert "error" in printed

    def test_overflowing_rollouts_end_the_run(self, tmp_path, capsys):
        """A sampled run from K1 = 1e5, whose rollouts overflow, exits 0 and
        reports `non_finite` in one JSON line."""
        est = "[estimator]\nM = 20\nhorizon = 50\n"
        path = write_config(tmp_path, T=5, oracle="sampled", extra=est)
        path.write_text(path.read_text().replace("T = 5", "T = 5\nK1_0 = 1e5"))
        rc = main(["optimize", "--config", str(path)])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["termination"] == ["non_finite"]

    def test_optimize_without_gains_at_d2(self, tmp_path, capsys):
        rc = main(["optimize", "--config", str(write_matrix_config(tmp_path))])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["termination"] == ["completed"]
        assert (tmp_path / "out" / "run_0.csv").is_file()

    def test_misshaped_gain_exits_before_any_artifact(self, tmp_path, capsys):
        path = write_config(tmp_path)
        path.write_text(path.read_text().replace("T = 20", "T = 20\nK1_0 = 0,0"))
        rc = main(["optimize", "--config", str(path)])
        assert rc == 2
        assert json.loads(capsys.readouterr().out) == {
            "error": "SchemaError",
            "message": "field 'K1_0': gain must be (1, 1), got (1, 2)"}
        assert not (tmp_path / "out" / "benchmark.json").exists()

    def test_empty_output_dir_writes_nothing(self, tmp_path, capsys, monkeypatch):
        path = write_config(tmp_path)
        path.write_text(re.sub(r"^output_dir = .*$", "output_dir =", path.read_text(),
                               flags=re.M))
        monkeypatch.chdir(tmp_path)
        rc = main(["benchmark", "--config", str(path)])
        assert rc == 2
        assert json.loads(capsys.readouterr().out)["error"] == "SchemaError"
        assert not (tmp_path / "benchmark.json").exists()

    def test_simulate_verb(self, tmp_path, capsys):
        path = write_config(tmp_path)
        out = tmp_path / "sim_out"
        rc = main(["simulate", "--config", str(path), "--out", str(out),
                   "--paths", "2", "--horizon", "6"])
        assert rc == 0
        files = sorted(out.glob("trajectory_*.csv"))
        assert len(files) == 2
        rows = files[0].read_text().strip().splitlines()
        assert len(rows) == 7

    def test_zero_mean_field_mean_exit_code(self, tmp_path, capsys):
        """A population mean against a mean-field mean of exactly zero has no
        relative gap: validate-nagent exits 3 with one JSON line."""
        text = (REPO_CONFIGS / "table1_gda_exact.cfg").read_text()
        for key, value in [("Q", "0.0"), ("init_common", "point(0)"),
                           ("step_common", "point(0)"), ("output_dir", tmp_path / "out")]:
            text, found = re.subn(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
            assert found == 1
        path = tmp_path / "zero.cfg"
        path.write_text(text)
        rc = main(["validate-nagent", "--config", str(path), "--reps", "20",
                   "--ns", "10,100"])
        lines = capsys.readouterr().out.splitlines()
        assert rc == 3
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "BenchmarkZero"

    def test_zero_benchmark_exit_code(self, tmp_path, capsys):
        """A zero equilibrium utility cannot score a run: optimize exits 3
        with one JSON line, after benchmark.json and before any run file."""
        text = (REPO_CONFIGS / "table1_gda_exact.cfg").read_text()
        for key, value in [("Q", "0.0"), ("Q_bar", "0.0"), ("output_dir", tmp_path / "out")]:
            text, found = re.subn(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
            assert found == 1
        path = tmp_path / "zero.cfg"
        path.write_text(text)
        rc = main(["optimize", "--config", str(path)])
        lines = capsys.readouterr().out.splitlines()
        assert rc == 3
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "BenchmarkZero"
        assert [p.name for p in (tmp_path / "out").iterdir()] == ["benchmark.json"]

    def test_validate_nagent_verb(self, tmp_path, capsys):
        path = write_config(tmp_path)
        rc = main(["validate-nagent", "--config", str(path), "--ns", "2,4",
                   "--reps", "30", "--horizon", "8"])
        assert rc == 0
        printed = json.loads(capsys.readouterr().out)
        assert set(printed["gaps"]) == {"2", "4"}


class TestRerun:
    """A rerun into the same directory with fewer repeats or paths removes
    the numbered files of the earlier run beyond the new count, and nothing
    else."""

    BYSTANDERS = ("notes.txt", "run_x.csv", "run_01.csv", "trajectory_x.csv",
                  "trajectory_01.csv")

    def _rerun(self, tmp_path, capsys, verb, flag, counts):
        out = tmp_path / "out"
        for count in counts:
            rc = main([verb, "--config", str(write_config(tmp_path, T=5)), flag, str(count)])
            assert rc == 0
            capsys.readouterr()
            if count == counts[0]:
                for name in self.BYSTANDERS:
                    (out / name).write_text("keep\n")
        for name in self.BYSTANDERS:
            assert (out / name).read_text() == "keep\n"
        return sorted(p.name for p in out.iterdir() if p.name not in self.BYSTANDERS)

    def test_optimize_fewer_repeats(self, tmp_path, capsys):
        names = self._rerun(tmp_path, capsys, "optimize", "--repeats", (3, 1))
        assert names == ["benchmark.json", "convergence.csv", "run_0.csv", "summary.json",
                         "timing.json"]

    def test_simulate_fewer_paths(self, tmp_path, capsys):
        names = self._rerun(tmp_path, capsys, "simulate", "--paths", (3, 2))
        assert names == ["trajectory_0.csv", "trajectory_1.csv"]


class TestRunSimulate:
    def test_trajectory_csv_roundtrip(self, tmp_path):
        """Each trajectory_<p>.csv holds, row for row, the rollout of its
        derived seed at the benchmark policy."""
        cfg = load_config(write_config(tmp_path))
        written = run_simulate(cfg, 2, 12)
        theta_star = nash_policy(cfg.model, solve_riccati(cfg.model))
        assert written == [Path(cfg.output_dir) / f"trajectory_{p}.csv" for p in range(2)]
        for p, path in enumerate(written):
            traj = simulate_mkv(cfg.model, theta_star, 12, derive_seed(cfg.master_seed, 201, p))
            rows = path.read_text().strip().splitlines()
            assert rows[0] == "t,x0,xbar0,u1_0,u2_0,c"
            assert len(rows) == 13
            for t, row in enumerate(rows[1:]):
                assert [float(v) for v in row.split(",")] == [
                    t, traj.states[t, 0], traj.means[t, 0], traj.u1[t, 0],
                    traj.u2[t, 0], traj.costs[t]]


# the verbs with small sizes, so that an accepted run is cheap
VERB_FLAGS = {
    "benchmark": [],
    "optimize": [],
    "validate-nagent": ["--ns", "2", "--reps", "4", "--horizon", "3"],
    "simulate": ["--horizon", "3"],
}


def _one_error_line(capsys, rc) -> str:
    """The error name of main's single JSON line; exit code 2, no traceback."""
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert rc == 2
    assert len(lines) == 1
    assert "Traceback" not in captured.err
    return json.loads(lines[0])["error"]


class TestFileFaults:
    """An output path that cannot be made or written, or a config that
    cannot be read, is a configuration error: exit 2 and one JSON line."""

    @pytest.mark.parametrize("verb", sorted(VERB_FLAGS))
    def test_out_is_an_existing_file(self, tmp_path, capsys, verb):
        target = tmp_path / "taken"
        target.write_bytes(b"keep me\n")
        rc = main([verb, "--config", str(write_config(tmp_path)), "--out", str(target),
                   *VERB_FLAGS[verb]])
        assert _one_error_line(capsys, rc) == "FileExistsError"
        assert target.read_bytes() == b"keep me\n"

    def test_out_under_a_file(self, tmp_path, capsys):
        (tmp_path / "taken").write_bytes(b"")
        rc = main(["benchmark", "--config", str(write_config(tmp_path)),
                   "--out", str(tmp_path / "taken" / "out")])
        assert _one_error_line(capsys, rc) == "NotADirectoryError"

    @pytest.mark.parametrize("verb", ["benchmark", "optimize", "validate-nagent"])
    def test_artifact_name_taken_by_a_directory(self, tmp_path, capsys, verb):
        (tmp_path / "out" / "benchmark.json").mkdir(parents=True)
        rc = main([verb, "--config", str(write_config(tmp_path)), *VERB_FLAGS[verb]])
        assert _one_error_line(capsys, rc) == "IsADirectoryError"
        assert [p.name for p in (tmp_path / "out").iterdir()] == ["benchmark.json"]

    def test_config_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "exp.cfg"
        path.write_bytes(b"\xff\xfe" + write_config(tmp_path).read_bytes())
        with pytest.raises(ParseError, match="not UTF-8"):
            load_config(path)
        rc = main(["benchmark", "--config", str(path)])
        assert _one_error_line(capsys, rc) == "ParseError"
        assert not (tmp_path / "out").exists()


def _split_every_run_log(monkeypatch) -> list:
    """Make every run log split, as on a host with two CPUs; returns the
    list of `_fork_rows` results, one per log."""
    if not hasattr(os, "fork"):
        pytest.skip("the split writer needs os.fork")
    monkeypatch.setattr(cli, "_SPLIT_TEXTS", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    forks = []
    fork_rows = cli._fork_rows
    monkeypatch.setattr(cli, "_fork_rows",
                        lambda *args: forks.append(fork_rows(*args)) or forks[-1])
    return forks


def _no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _serial_bytes(records, errs, path) -> bytes:
    cli._write_csv(path, cli._RUN_HEADER, cli._run_rows(records, errs))
    return path.read_bytes()


class TestSplitRunLog:
    """A run log formatted on two cores, its second half by a forked child,
    has the serial writer's bytes, and leaves no child behind."""

    @pytest.fixture
    def logged(self, monkeypatch):
        """The (path, records, errs) of each run log `run_experiment` writes."""
        logged = []
        write = cli._write_run_csv
        monkeypatch.setattr(cli, "_write_run_csv", lambda *args: (logged.append(args),
                                                                  write(*args)))
        return logged

    @pytest.fixture
    def parent_rows(self, monkeypatch):
        """The number of records of each `_run_rows` call in this process."""
        counts, parent, run_rows = [], os.getpid(), cli._run_rows

        def counted(records, errs):
            if os.getpid() == parent:
                counts.append(len(records))
            return run_rows(records, errs)

        monkeypatch.setattr(cli, "_run_rows", counted)
        return counts

    @pytest.mark.parametrize("case", ["table1_gda_exact", "random_game_3_2_gda"])
    def test_experiment_log_matches_serial(self, case, tmp_path, monkeypatch, logged,
                                           parent_rows):
        """The shipped exact GDA log reaches its fixed point before its middle
        row, so reused rows cross the split; the d = 3 log has 3 x 2 gains.
        The parent formats the first half only."""
        forks = _split_every_run_log(monkeypatch)
        run_experiment(_exact_run_config(case, tmp_path / "out"))
        (path, records, errs), = logged
        half = len(records) // 2
        assert forks[0] is not None
        assert parent_rows == [half]
        _no_child_left()
        assert path.read_bytes() == _serial_bytes(records, errs, tmp_path / "serial.csv")
        assert hashlib.sha256(path.read_bytes()).hexdigest() == EXACT_RUN_DIGESTS[case][0]
        if case == "table1_gda_exact":
            assert records[half].theta is records[half - 1].theta
            assert errs[half] is errs[half - 1]

    @pytest.mark.parametrize("rows", [1, 2, 7])
    def test_short_logs_match_serial(self, rows, tmp_path, monkeypatch, logged, parent_rows):
        run_experiment(_exact_run_config("random_game_3_2_gda", tmp_path / "out"))
        (_, records, errs), = logged
        forks = _split_every_run_log(monkeypatch)
        path = tmp_path / "split.csv"
        parent_rows.clear()
        cli._write_run_csv(path, records[:rows], errs[:rows])
        assert forks[0] is not None
        assert parent_rows == [rows // 2]
        _no_child_left()
        assert path.read_bytes() == _serial_bytes(records[:rows], errs[:rows],
                                                  tmp_path / "serial.csv")

    def test_fork_failure_writes_serially(self, tmp_path, monkeypatch, logged):
        forks = _split_every_run_log(monkeypatch)

        def no_fork():
            raise OSError("no fork")

        monkeypatch.setattr(os, "fork", no_fork)
        run_experiment(_exact_run_config("random_game_3_2_gda", tmp_path / "out"))
        (path, records, errs), = logged
        assert forks == [None]
        _no_child_left()
        assert path.read_bytes() == _serial_bytes(records, errs, tmp_path / "serial.csv")

    def test_failing_child_leaves_the_half_to_the_parent(self, tmp_path, monkeypatch,
                                                          capfd, logged):
        """A child whose formatting raises exits without a word; the parent
        formats the second half itself."""
        forks = _split_every_run_log(monkeypatch)
        parent, run_rows = os.getpid(), cli._run_rows

        def rows_only_in_parent(records, errs):
            if os.getpid() != parent:
                raise RuntimeError("formatting failed in the child")
            return run_rows(records, errs)

        monkeypatch.setattr(cli, "_run_rows", rows_only_in_parent)
        run_experiment(_exact_run_config("random_game_3_2_gda", tmp_path / "out"))
        (path, records, errs), = logged
        assert forks[0] is not None
        _no_child_left()
        assert capfd.readouterr() == ("", "")
        assert path.read_bytes() == _serial_bytes(records, errs, tmp_path / "serial.csv")

    def test_child_failing_after_its_bytes_is_overwritten(self, tmp_path, monkeypatch,
                                                          logged, parent_rows):
        """A child that sends its whole half and then exits 1: the parent
        drops the copied bytes and formats the second half itself."""
        forks = _split_every_run_log(monkeypatch)
        exit_ = os._exit
        monkeypatch.setattr(os, "_exit", lambda status: exit_(1))
        run_experiment(_exact_run_config("random_game_3_2_gda", tmp_path / "out"))
        (path, records, errs), = logged
        assert forks[0] is not None
        half = len(records) // 2
        assert parent_rows == [half, len(records) - half]
        _no_child_left()
        assert path.read_bytes() == _serial_bytes(records, errs, tmp_path / "serial.csv")

    def test_other_thread_keeps_the_log_serial(self, tmp_path, monkeypatch, logged):
        """A fork copies only the calling thread, so while another thread
        runs the log is written serially."""
        forks = _split_every_run_log(monkeypatch)
        release = threading.Event()
        waiter = threading.Thread(target=release.wait)
        waiter.start()
        try:
            run_experiment(_exact_run_config("random_game_3_2_gda", tmp_path / "out"))
        finally:
            release.set()
            waiter.join(timeout=10)
        assert not waiter.is_alive()
        (path, records, errs), = logged
        assert forks == [None]
        assert path.read_bytes() == _serial_bytes(records, errs, tmp_path / "serial.csv")

    def test_failing_parent_reaps_the_child(self, tmp_path, monkeypatch, capfd):
        """A run log that cannot be written fails the CLI with one JSON line,
        and the child formatting its second half is reaped."""
        forks = _split_every_run_log(monkeypatch)
        (tmp_path / "out" / "run_0.csv").mkdir(parents=True)
        rc = main(["optimize", "--config", str(write_config(tmp_path))])
        assert forks[0] is not None
        _no_child_left()
        captured = capfd.readouterr()
        assert rc == 2
        assert json.loads(captured.out)["error"] == "IsADirectoryError"
        assert captured.err == ""

    def test_cli_prints_one_line(self, tmp_path, monkeypatch, capfd):
        forks = _split_every_run_log(monkeypatch)
        assert main(["optimize", "--config", str(write_config(tmp_path))]) == 0
        assert forks[0] is not None
        captured = capfd.readouterr()
        assert len(captured.out.splitlines()) == 1
        assert json.loads(captured.out)["termination"] == ["completed"]
        assert captured.err == ""

    @pytest.mark.parametrize("d, ell, rows, splits", [(1, 1, 2001, False), (16, 4, 21, False),
                                                      (48, 4, 301, True)])
    def test_long_logs_split(self, d, ell, rows, splits, tmp_path, monkeypatch):
        """perfbench's d = 48 log (T = 300) splits; its d = 16 log (T = 20)
        and the shipped d = 1 logs (T = 2000) stay serial."""
        calls = []
        fork_rows = cli._fork_rows
        monkeypatch.setattr(cli, "_fork_rows",
                            lambda *args: calls.append(args) or fork_rows(*args))
        rec = RunRecord(k=0, theta=PolicyPair.zero(d, ell), cost=1.0, grad_norms=(0.0,) * 4)
        cli._write_run_csv(tmp_path / "run.csv", [rec] * rows, [0.5] * rows)
        assert len(calls) == splits
        _no_child_left()
        assert (tmp_path / "run.csv").read_bytes() == _serial_bytes(
            [rec] * rows, [0.5] * rows, tmp_path / "serial.csv")


def _cannot_parse(kind):
    return "ParseError", "field '{key}': cannot parse %s from {value!r}" % kind


# One key of the shipped sampled config set to `abc` or left empty: the
# exact error main prints for it, as (error, message with {value!r}).
PINNED_FAULTS = {
    **{("model", key): _cannot_parse("integer") for key in ("d", "ell")},
    **{("model", key): _cannot_parse("matrix")
       for key in ("A", "A_bar", "B1", "B1_bar", "B2", "B2_bar", "Q", "Q_bar",
                   "R1", "R1_bar", "R2", "R2_bar")},
    ("model", "gamma"): _cannot_parse("number"),
    **{("noise", key): ("ParseError", "field '{key}': expected kind(args), got {value!r}")
       for key in ("init_common", "init_idio", "step_common", "step_idio")},
    ("optimizer", "T"): _cannot_parse("integer"),
    **{("optimizer", key): _cannot_parse("number") for key in ("eta1", "eta2")},
    **{("optimizer", key): _cannot_parse("matrix")
       for key in ("K1_0", "L1_0", "K2_0", "L2_0")},
    ("optimizer", "log_every"): _cannot_parse("integer"),
    # removed keys: named, not ignored
    ("optimizer", "shrink_on_exit"): (
        "SchemaError", "section [optimizer]: unknown fields ['shrink_on_exit']"),
    **{("estimator", key): _cannot_parse("integer") for key in ("M", "horizon")},
    ("estimator", "tau"): _cannot_parse("number"),
    ("estimator", "smoothing_dim"): (
        "SchemaError", "section [estimator]: unknown fields ['smoothing_dim']"),
    ("experiment", "method"): ("SchemaError", "method must be 'ag' or 'gda', got {value!r}"),
    ("experiment", "oracle"): (
        "SchemaError", "oracle must be 'exact' or 'sampled', got {value!r}"),
    **{("experiment", key): _cannot_parse("integer")
       for key in ("repeats", "master_seed")},
}


class TestPinnedFaults:
    @pytest.mark.parametrize("value", ["abc", ""], ids=["abc", "empty"])
    @pytest.mark.parametrize("section, key", sorted(PINNED_FAULTS))
    def test_one_bad_key(self, tmp_path, capsys, section, key, value):
        """main prints the same error line and exits 2 before writing any
        artifact, whether the key is in the shipped file or added to it."""
        text = (REPO_CONFIGS / "table1_gda_sampled.cfg").read_text()
        text = text.replace("output_dir = out/table1_gda_sampled",
                            f"output_dir = {tmp_path / 'out'}")
        line = f"{key} = {value}"
        text, found = re.subn(rf"^{key} = .*$", line, text, flags=re.M)
        if not found:
            text = text.replace(f"[{section}]\n", f"[{section}]\n{line}\n")
        path = tmp_path / "fault.cfg"
        path.write_text(text)
        rc = main(["benchmark", "--config", str(path)])
        error, message = PINNED_FAULTS[section, key]
        expected = {"error": error, "message": message.format(key=key, value=value)}
        assert capsys.readouterr().out.splitlines() == [json.dumps(expected)]
        assert rc == 2
        assert not (tmp_path / "out").exists()



# One model key of the shipped exact config set so far that the equilibrium
# overflows: main prints the same error line for each.
OVERFLOWING_EQUILIBRIA = {"Q": "1e308", "Q_bar": "1e308", "B2": "1e200"}


class TestOverflowingEquilibrium:
    @pytest.mark.parametrize("key", sorted(OVERFLOWING_EQUILIBRIA))
    def test_one_error_line(self, tmp_path, capsys, key):
        """main exits 3 with one JSON line, no traceback and no warning,
        before writing any artifact."""
        text = (REPO_CONFIGS / "table1_gda_exact.cfg").read_text()
        for name, value in [(key, OVERFLOWING_EQUILIBRIA[key]), ("output_dir", tmp_path / "out")]:
            text, found = re.subn(rf"^{name} = .*$", f"{name} = {value}", text, flags=re.M)
            assert found == 1
        path = tmp_path / "overflow.cfg"
        path.write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["benchmark", "--config", str(path)])
        captured = capsys.readouterr()
        expected = {"error": "NonStabilizingSolution",
                    "message": "the equilibrium overflows the floating-point range"}
        assert captured.out.splitlines() == [json.dumps(expected)]
        assert rc == 3
        assert "Traceback" not in captured.err
        assert [str(w.message) for w in caught] == []
        assert not (tmp_path / "out").exists()


class TestNonzeroStepMean:
    @pytest.mark.parametrize("key", ["step_common", "step_idio"])
    def test_config_error(self, tmp_path, capsys, key):
        """A step noise with nonzero mean is a config error: main exits 2
        with one JSON line, before writing any artifact."""
        text = (REPO_CONFIGS / "table1_gda_sampled.cfg").read_text()
        text = text.replace("output_dir = out/table1_gda_sampled",
                            f"output_dir = {tmp_path / 'out'}")
        text, found = re.subn(rf"^{key} = .*$", f"{key} = gaussian(0.5, 0.01)",
                              text, flags=re.M)
        assert found == 1
        path = tmp_path / "fault.cfg"
        path.write_text(text)
        rc = main(["benchmark", "--config", str(path)])
        expected = {"error": "SchemaError", "message":
                    f"model validation failed: {key} must have mean zero, got 0.5"}
        assert capsys.readouterr().out.splitlines() == [json.dumps(expected)]
        assert rc == 2
        assert not (tmp_path / "out").exists()


class TestDeterminism:
    def test_benchmark_rerun_bit_identical(self, tmp_path):
        """Re-running only the benchmark step reproduces the benchmark
        artifact of a full experiment bit for bit."""
        from lqmfg.cli import write_benchmark

        cfg = load_config(write_config(tmp_path, T=5))
        run_experiment(cfg)
        full = (Path(cfg.output_dir) / "benchmark.json").read_bytes()
        solo_dir = tmp_path / "solo"
        write_benchmark(replace(cfg, output_dir=str(solo_dir)))
        assert (solo_dir / "benchmark.json").read_bytes() == full

    def test_artifacts_byte_identical(self, tmp_path):
        est = "[estimator]\nM = 30\nhorizon = 10\n"
        path = write_config(tmp_path, T=6, oracle="sampled", repeats=2,
                            extra=est)
        cfg = load_config(path)
        cfg_a = replace(cfg, output_dir=str(tmp_path / "a"))
        cfg_b = replace(cfg, output_dir=str(tmp_path / "b"))
        run_experiment(cfg_a)
        run_experiment(cfg_b)
        for name in ("benchmark.json", "summary.json", "run_0.csv",
                     "run_1.csv", "convergence.csv"):
            a = (Path(cfg_a.output_dir) / name).read_bytes()
            b = (Path(cfg_b.output_dir) / name).read_bytes()
            assert a == b, name


# sha256 of the deterministic artifacts (all but timing.json) of three exact
# runs: the shipped GDA and AG configs at full length, and GDA on a d=3,
# ell=2 random game, which covers the matrix update and the gain formatting
EXACT_ARTIFACTS = ("run_0.csv", "convergence.csv", "summary.json", "benchmark.json")
EXACT_RUN_DIGESTS = {
    "random_game_3_2_gda": (
        "c4d1e26c27b4b9671befbddad66c4ccfa426f0eb22251138e1fa7d0ece94d339",
        "4a5fe0a7e083456ddacc241dd7fe0a0f907c1268d924970c94e13aff8fdcd741",
        "bf996a9ac17d3177494f48cf27ba66873fa2f049fa0c74f2ee7ae741cd3e4d90",
        "b4c7da90242f274194e029dd37044b2fc229dd311efc7ed19c2855a53f3d9b93"),
    "table1_ag_exact": (
        "fbddb0ef2704f7eb4847341854f0566ac006884943937697bddc91589cf1da65",
        "16e5604fc8a2382b7a4a14b8c5c073e6cb8ec4131f080de5f02640f24eebcc11",
        "ec2ece1b74b45a239e9a4a07fad8050cb0ced8ff6c46f35e9e236978028f6ab1",
        "db3b2e9caa7d61bb42d4844a0b7edc92740a6099b5235910987eb865099cda25"),
    "table1_gda_exact": (
        "81137c5ce8a7bb11f9c4076387c83589a4982f41f6f99ce4aaea8ee8bf8eae7a",
        "98f3ba31c7373573fa6df47d5727e99db43bd03fe2d19fcc855e70ff0037d058",
        "93941d0cf7a51c77bf78aac640cfabf56efb67a6c0c6914ef52cf36502bf02cc",
        "db3b2e9caa7d61bb42d4844a0b7edc92740a6099b5235910987eb865099cda25"),
}


def _exact_run_config(case: str, out: Path) -> ExperimentConfig:
    if case.startswith("table1_"):
        return replace(load_config(REPO_CONFIGS / f"{case}.cfg"), output_dir=str(out))
    optimizer = OptimizerConfig(mode="gda", T=40, theta0=PolicyPair.zero(3, 2))
    return ExperimentConfig(model=random_game(3, 2), optimizer=optimizer,
                            estimator=None, repeats=1, output_dir=str(out),
                            master_seed=0)


# the same four artifacts of two sampled runs on the shipped scalar game,
# M = 2000 rollouts of horizon 50: GDA at T = 3 and AG at T1 = T2 = 2
SAMPLED_RUN_DIGESTS = {
    "table1_ag_sampled": (
        "bc4f3a9c8bf3ee6b7a66512a5064f5e6a9b13a32bc1327fb4d4200cd1ab4ea32",
        "eb9003bb34b2d2b045c426adda95b22dbeca9a9d97b73812cb8d1145b70e71e1",
        "bdc67a9eda5c1aa169127510087da5c16309c0963342130e939ae87e3d973c06",
        "db3b2e9caa7d61bb42d4844a0b7edc92740a6099b5235910987eb865099cda25"),
    "table1_gda_sampled": (
        "96acf54696fcab94a525346cf6ccc3b67aa0e550b7a55e1aee894f51daa9eeea",
        "ac01c701389ceb7204b77486d18484ed66282716b478af7693f76813d5849eb8",
        "e0a77383d719821935db92939fceccf273d2c1a1a18d834aa40426fe597c8da7",
        "db3b2e9caa7d61bb42d4844a0b7edc92740a6099b5235910987eb865099cda25"),
}
SAMPLED_RUN_STEPS = {"table1_ag_sampled": {"T1": 2, "T2": 2},
                     "table1_gda_sampled": {"T": 3}}

# sha256 of run_0.csv without its rel_err column, for the five runs above
ITERATE_COLUMN_DIGESTS = {
    "random_game_3_2_gda":
        "2f72f58b5e9492877a0e5ebf2c2b3e0178da96fea8a75e1c8d91c31f7881880f",
    "table1_ag_exact":
        "bfbc28fe1e0ff764d905ab5f174baa288ab29c4603ed7c55571d7adc876adaa2",
    "table1_gda_exact":
        "9dc838cac82691074d16c414008dacc34894cf8d20df70c73d412731e1c9ed16",
    "table1_ag_sampled":
        "b39df75517b525d3b22d83d5f3f2920d2e04b7cd57221ce90679414c80a7a259",
    "table1_gda_sampled":
        "3be61a73b00c92b540962d6e2da839289646181a2351eadad7946698a0984953",
}


def _sampled_run_config(case: str, out: Path) -> ExperimentConfig:
    cfg = load_config(REPO_CONFIGS / f"{case}.cfg")
    estimator = replace(cfg.optimizer.estimator, M=2000, horizon=50)
    optimizer = replace(cfg.optimizer, estimator=estimator, **SAMPLED_RUN_STEPS[case])
    return replace(cfg, output_dir=str(out), optimizer=optimizer, estimator=estimator)


class TestPinnedArtifacts:
    """The artifacts of exact and sampled runs pinned bit for bit: how an
    iterate is evaluated, updated or written, or how the rollout noise is
    drawn, may change, the bytes may not. The sampled digests move only with
    a named rounding change of the mean-field engine, checked against its
    test-only reference (`mkv_reference`)."""

    @pytest.mark.parametrize("case", sorted(EXACT_RUN_DIGESTS))
    def test_exact_run(self, case, tmp_path):
        run_experiment(_exact_run_config(case, tmp_path))
        got = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                    for name in EXACT_ARTIFACTS)
        assert dict(zip(EXACT_ARTIFACTS, got)) == dict(
            zip(EXACT_ARTIFACTS, EXACT_RUN_DIGESTS[case]))

    @pytest.mark.parametrize("case", ["table1_ag_exact", "table1_gda_exact"])
    def test_exact_run_on_the_stacked_path(self, case, tmp_path, monkeypatch):
        """The shipped exact runs keep their bytes with the whole oracle on
        its stacked numpy path, the reference of the d = 1 Python-float path."""
        stacked_oracle(monkeypatch)
        self.test_exact_run(case, tmp_path)

    @pytest.mark.parametrize("case", sorted(SAMPLED_RUN_DIGESTS))
    def test_sampled_run(self, case, tmp_path):
        run_experiment(_sampled_run_config(case, tmp_path))
        got = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                    for name in EXACT_ARTIFACTS)
        assert dict(zip(EXACT_ARTIFACTS, got)) == dict(
            zip(EXACT_ARTIFACTS, SAMPLED_RUN_DIGESTS[case]))

    @pytest.mark.parametrize("case", sorted(ITERATE_COLUMN_DIGESTS))
    def test_iterates_do_not_read_the_benchmark(self, case, tmp_path):
        """Gains, C and gradient norms of run_0.csv, all but its last
        (rel_err) column, pinned apart from the benchmark they are scored
        against: a change of the equilibrium solver must keep these bytes."""
        config = _exact_run_config if case in EXACT_RUN_DIGESTS else _sampled_run_config
        run_experiment(config(case, tmp_path))
        rows = (tmp_path / "run_0.csv").read_bytes().split(b"\r\n")
        kept = b"\r\n".join(row.rpartition(b",")[0] for row in rows)
        assert hashlib.sha256(kept).hexdigest() == ITERATE_COLUMN_DIGESTS[case]


# sha256 of each trajectory_<p>.csv of `lqmfg simulate --paths 2 --horizon 20`
# on the shipped scalar game and on perfbench's d = 3, ell = 2 matrix game
SIMULATE_DIGESTS = {
    "table1_gda_exact": (
        "e29c084d48c9b3b7fff83255324450aae65aab84c40ece0c5cb1e2e6960d4c75",
        "04789e423070beee62a415ad9327457828ff8119d3f2c71f32624ae758f3198a"),
    "matrix_d3": (
        "db1fd86aaa85cf9fd97a47af6a93423652331c6c092991bbd76e8030752fde79",
        "aafa21fa0d9e166006d7cfe7b0081f916c70a414f2add9aa46db5e9137bcc813"),
}
# sha256 of nagent_validation.csv and nagent_summary.json of a small
# `lqmfg validate-nagent` run on the test game
NAGENT_DIGESTS = (
    "4cff87af7968df71c6b920c6515d313e96223e6ecb6e9be683e54c72a016ad27",
    "91c91505ce4a60d49497384392b70068f17912fa1a6d621d975c48db371ce904")


class TestPinnedVerbOutputs:
    """The CSV artifacts of the simulate and validate-nagent verbs, pinned
    bit for bit through main."""

    @pytest.mark.parametrize("case", sorted(SIMULATE_DIGESTS))
    def test_simulate(self, case, tmp_path, capsys):
        if case == "matrix_d3":
            path = tmp_path / "matrix_d3.cfg"
            path.write_text(perfbench_module("workloads").matrix_game_config(1, 3, 2, 20))
        else:
            path = REPO_CONFIGS / f"{case}.cfg"
        rc = main(["simulate", "--config", str(path), "--out", str(tmp_path / "out"),
                   "--paths", "2", "--horizon", "20"])
        assert rc == 0
        got = tuple(hashlib.sha256((tmp_path / "out" / f"trajectory_{p}.csv")
                                   .read_bytes()).hexdigest() for p in range(2))
        assert got == SIMULATE_DIGESTS[case]

    def test_validate_nagent(self, tmp_path, capsys):
        path = write_config(tmp_path)
        rc = main(["validate-nagent", "--config", str(path), "--ns", "3,9",
                   "--reps", "50", "--horizon", "10"])
        assert rc == 0
        got = tuple(hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
                    for name in ("nagent_validation.csv", "nagent_summary.json"))
        assert got == NAGENT_DIGESTS


FUZZ_SECTIONS = {
    "model": {"A": "0.4", "A_bar": "0.4", "B1": "0.4", "B1_bar": "0.4",
              "B2": "0.3", "B2_bar": "0.3", "Q": "0.4", "Q_bar": "0.4",
              "R1": "0.4", "R1_bar": "0.4", "R2": "0.4", "R2_bar": "0.4",
              "gamma": "0.9"},
    "noise": {"init_common": "uniform(-1, 1)", "init_idio": "uniform(-1, 1)",
              "step_common": "gaussian(0, 0.01)", "step_idio": "gaussian(0, 0.01)"},
    "optimizer": {"T": "3", "T1": "2", "T2": "3", "eta1": "0.1", "eta2": "0.1",
                  "K1_0": "0.0", "L1_0": "0.0", "K2_0": "0.0", "L2_0": "0.0"},
    "experiment": {"method": "gda", "oracle": "exact", "repeats": "1",
                   "master_seed": "7"},
}
FUZZ_KEYS = [(section, key) for section, items in FUZZ_SECTIONS.items()
             for key in items]
# small integers keep every accepted run cheap (T, repeats, horizon, paths)
FUZZ_VALUES = st.one_of(
    st.floats(-2.0, 2.0).map(repr),
    st.integers(-3, 6).map(str),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "", "abc", "0.4, 0.1",
                     "0.4; 0.1", "uniform(-1, 1)", "uniform(1, -1)",
                     "gaussian(0, -1)", "gaussian(0.5, 0.01)", "point(0.3)",
                     "gda", "ag", "exact", "sampled", "true"]))
FUZZ_FLAG = st.sampled_from(["0", "1", "2", "-1", "x", "", "2,3", "2,2", "2,x",
                             "1.5", "1e3"])
FUZZ_VERB_FLAGS = {
    "benchmark": [],
    "simulate": ["--paths", "--horizon"],
    "validate-nagent": ["--ns", "--reps", "--horizon"],
    "optimize": ["--repeats", "--workers"],
}


@st.composite
def fuzz_invocation(draw):
    edits = draw(st.dictionaries(st.sampled_from(FUZZ_KEYS), FUZZ_VALUES,
                                 max_size=3))
    verb = draw(st.sampled_from(sorted(FUZZ_VERB_FLAGS)))
    flags = []
    for flag in ["--seed"] + FUZZ_VERB_FLAGS[verb]:
        if flag == "--workers":
            # never more than one worker: no process pool in a fuzz test
            value = draw(st.sampled_from(["1", "0", "-2", "x", ""]))
        else:
            value = draw(FUZZ_FLAG)
        # the population sweep always gets its small flags, so the config's
        # large default sweep never runs
        if (verb == "validate-nagent" and flag != "--seed") or draw(st.booleans()):
            flags += [flag, value]
    # None keeps the config's output_dir, a fresh directory
    out = draw(st.sampled_from([None, "fresh", "file", "file/out"]))
    return edits, verb, flags, out


class TestMainFuzz:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(fuzz_invocation())
    def test_exit_code_and_one_json_line(self, tmp_path_factory, invocation):
        """Whatever the config values, the command line and the output path
        (fresh, an existing file or under one), main exits 0, 2 or 3 and
        prints exactly one JSON line, never a traceback, and a file in the
        way is left as it was."""
        edits, verb, flags, out_name = invocation
        tmp = tmp_path_factory.mktemp("fuzz")
        (tmp / "file").write_bytes(b"keep me\n")
        if out_name is not None:
            flags = flags + ["--out", str(tmp / out_name)]
        lines = []
        for section, items in FUZZ_SECTIONS.items():
            lines.append(f"[{section}]")
            for key, value in items.items():
                lines.append(f"{key} = {edits.get((section, key), value)}")
            if section == "experiment":
                lines.append(f"output_dir = {tmp / 'out'}")
            lines.append("")
        path = tmp / "fuzz.cfg"
        path.write_text("\n".join(lines))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = main([verb, "--config", str(path)] + flags)
        assert rc in (0, 2, 3)
        printed = out.getvalue().splitlines()
        assert len(printed) == 1
        json.loads(printed[0])
        assert "Traceback" not in err.getvalue()
        assert (tmp / "file").read_bytes() == b"keep me\n"
