#!/usr/bin/env python3
"""The repository benchmark: one workload, measured in fresh processes.

    python3 perfbench/run.py --workload model_based --seed 1 --seconds 26 --trace 0

Runs the workload closed-loop, one client: one fresh worker process at a
time, each timing set-up, the run calls and the calibration work of
``calibration.py`` right before and after the calls, and checking the
outputs, until ``--seconds`` have passed (and at least three samples). Each
worker's set-up and run times are scaled to a nominal host speed by its own
calibration times. With ``--trace 0`` it reports the end-to-end metrics
(median scaled wall time and set-up time, peak memory); with ``--trace 1``
it alternates untraced and traced workers and reports the per-layer
metrics from the spans plus the tracing overhead.
Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See README.md in this directory for the workloads and metrics.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import workloads  # noqa: E402

MIN_SAMPLES = 3         # workload runs (untraced), or traced/untraced pairs
MIN_SETUP_SAMPLES = 9   # set-up timings; extra set-up-only workers fill up
RUN_LIMIT_S = 170       # whole run, so that it ends within 180 s
BLAS_THREADS = "1"

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "blas_threads": int(BLAS_THREADS)}


class Runner:
    """Starts workers one at a time and keeps what they report."""

    def __init__(self, args, tmp: Path, deadline: float):
        self.args = args
        self.tmp = tmp
        self.deadline = deadline
        self.env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS,
                        OMP_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS,
                        PYTHONHASHSEED="0")
        self.samples: list[dict] = []
        self.setup_s: list[float] = []
        self.setup_raw_s: list[float] = []
        self.loads: list[float] = []

    def worker(self, trace=False, setup_only=False) -> None:
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--tmp", str(self.tmp),
               "--size", self.args.size]
        cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
        self.loads.append(os.getloadavg()[0])
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, env=self.env,
                                  timeout=max(1.0, self.deadline - time.monotonic()))
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            failure = None if result else f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        except subprocess.TimeoutExpired:
            result, failure = None, "timed out"
        self.loads.append(os.getloadavg()[0])
        if result is not None:
            # Seconds at the nominal host speed, by the calibration times of
            # the same process taken next to them: they follow the host's
            # shifts and the process's own speed.
            cal_s = result["calibration_s"]
            result["setup_raw_s"] = result["setup_s"]
            result["setup_s"] *= calibration.NOMINAL_S / cal_s[0]
            if "wall_s" in result:
                result["wall_raw_s"] = result["wall_s"]
                result["wall_s"] *= calibration.NOMINAL_S / statistics.mean(cal_s)
            self.setup_s.append(result["setup_s"])
            self.setup_raw_s.append(result["setup_raw_s"])
        if setup_only:
            if result is None:
                raise RuntimeError(f"set-up-only worker failed: {failure}")
            return
        sample = result or {"errors": [failure]}
        sample["traced"] = trace
        self.samples.append(sample)

    def fill_setup(self) -> None:
        while len(self.setup_s) < MIN_SETUP_SAMPLES and time.monotonic() < self.deadline:
            self.worker(setup_only=True)

    def time_left(self, start: float, seconds: float, durations: list[float]) -> bool:
        """Start another sample while it is expected to end no later than
        half a sample past `seconds`, so a run lasts about `seconds`."""
        now = time.monotonic()
        if now >= self.deadline:
            return False
        if len(durations) < MIN_SAMPLES:
            return True
        return now - start + statistics.median(durations) / 2 < seconds


def fmt(values) -> str:
    return (f"median {statistics.median(values):.6g} (n={len(values)}, "
            f"min {min(values):.6g}, max {max(values):.6g})")


def summarize_failures(samples: list[dict]) -> int:
    """Failed runs: errors reported, or an artifact digest that differs
    from the first run's (the same inputs must give the same artifacts)."""
    digests = [s.get("digest") for s in samples if "digest" in s]
    failed = 0
    for i, s in enumerate(samples):
        if s["errors"]:
            print(f"FAILED run {i + 1}: " + "; ".join(s["errors"]))
            failed += 1
        elif digests and s["digest"] != digests[0]:
            print(f"FAILED run {i + 1}: artifact digest {s['digest']} != {digests[0]}")
            failed += 1
    return failed


def end_to_end(runner: Runner) -> dict:
    ok = [s for s in runner.samples if "wall_s" in s]
    if not ok:
        raise RuntimeError("no run produced a result")
    values = {"wall_s": [s["wall_s"] for s in ok], "setup_s": runner.setup_s,
              "peak_rss_mb": [s["peak_rss_mb"] for s in ok]}
    metrics = {}
    for name, unit in END_TO_END:
        print(f"{name} {fmt(values[name])} {unit}")
        metrics[name] = {"value": statistics.median(values[name]), "unit": unit}
    print(f"wall_s unscaled {fmt([s['wall_raw_s'] for s in ok])} s")
    print(f"setup_s unscaled {fmt(runner.setup_raw_s)} s")
    print(f"calibration work {fmt([t for s in ok for t in s['calibration_s']])} s, "
          f"nominal {calibration.NOMINAL_S} s")
    for i, s in enumerate(ok):
        print(f"run {i + 1}: run calls " + ", ".join(f"{t:.4f}" for t in s["run_s"])
              + " s, calibration work before/after "
              + ", ".join(f"{t:.4f}" for t in s["calibration_s"]) + " s")
    return metrics


def per_layer(runner: Runner) -> dict:
    import spans
    traced = [s for s in runner.samples if s["traced"] and "wall_s" in s]
    plain = [s for s in runner.samples if not s["traced"] and "wall_s" in s]
    if not traced or not plain:
        raise RuntimeError("need at least one traced and one untraced result")
    per_run = []
    for s in traced:
        with open(s["spans"]) as fh:
            per_run.append(spans.layer_metrics(json.load(fh), s["bytes_written"]))
    wall_traced = statistics.median(s["wall_s"] for s in traced)
    wall_plain = statistics.median(s["wall_s"] for s in plain)
    print(f"wall_s untraced {fmt([s['wall_s'] for s in plain])} s")
    print(f"wall_s traced {fmt([s['wall_s'] for s in traced])} s")
    print(f"tracing overhead {wall_traced - wall_plain:.4f} s "
          f"({100 * (wall_traced / wall_plain - 1):.1f} % of untraced wall_s)")
    metrics = {}
    for name, unit, _ in spans.LAYER_METRICS:
        if name == "trace.overhead_s":
            value = wall_traced - wall_plain
        else:
            values = [m[name] for m in per_run]
            value = statistics.median(values)
            if unit == "count" and len(set(values)) > 1:
                for s in traced:
                    s["errors"].append(f"count {name} differs between traced runs: {values}")
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name} {value:.6g} {unit}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: harness smoke test only")
    args = parser.parse_args(argv)

    needed = [ROOT / "src" / "lqmfg" / "__init__.py"]
    if args.workload in workloads.SHIPPED:
        needed += workloads.config_paths(args.workload, ROOT, ROOT, args.size)
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"cannot benchmark: missing {', '.join(missing)}", file=sys.stderr)
        return 2

    start = time.monotonic()
    tmp = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        workloads.write_inputs(args.workload, tmp, args.seed, args.size)
        runner = Runner(args, tmp, start + RUN_LIMIT_S)
        info = machine()
        print("machine " + " ".join(f"{k}={v}" for k, v in info.items()))
        durations = []
        while runner.time_left(start, args.seconds, durations):
            t = time.monotonic()
            runner.worker()
            if args.trace:
                runner.worker(trace=True)
            durations.append(time.monotonic() - t)
        runner.fill_setup()
        print("load average (1 min) before/after each worker: " + ", ".join(
            f"{a:.2f}/{b:.2f}" for a, b in zip(runner.loads[::2], runner.loads[1::2])))
        metrics = per_layer(runner) if args.trace else end_to_end(runner)
        failed = summarize_failures(runner.samples)
        first = next((s for s in runner.samples if "digest" in s), {})
        print(f"artifact digest {first.get('digest')}")
        print("checks " + json.dumps(first.get("checks", {}), sort_keys=True))
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass
    attempted = len(runner.samples)
    print(f"error_rate {failed / attempted:.6g} ({failed}/{attempted} runs failed)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
