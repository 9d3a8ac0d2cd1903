#!/usr/bin/env python3
"""One benchmark sample in a fresh process.

Times set-up (``import lqmfg`` plus ``load_config`` of the workload's
configs), then the calibration work of ``calibration.py``, the workload's
run calls and the calibration work again; checks the outputs and prints one
JSON line. ``run.py`` starts this script once per sample; it is not meant
to be run by hand, except to debug one sample:

    python3 perfbench/worker.py --workload model_based --seed 1 --tmp DIR
"""

import argparse
import hashlib
import json
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _artifact_digest(out: Path) -> tuple[str, int]:
    """sha256 over every artifact but timing.json, and the bytes written."""
    digest = hashlib.sha256()
    written = 0
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        written += len(data)
        if path.name != "timing.json":
            digest.update(str(path.relative_to(out)).encode() + b"\0" + data)
    return digest.hexdigest(), written


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tmp", required=True, help="scratch directory inside the checkout")
    parser.add_argument("--size", default="full", choices=("full", "tiny"))
    parser.add_argument("--trace", action="store_true", help="record spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    tmp = Path(args.tmp)

    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import lqmfg.cli
    import_s = time.perf_counter() - t0
    if Path(lqmfg.__file__).resolve().parent != ROOT / "src" / "lqmfg":
        raise SystemExit(f"imported lqmfg from {lqmfg.__file__}, not from this checkout")

    import calibration
    import workloads
    recorder = None
    if args.trace:
        import spans
        recorder = spans.SpanRecorder()
        recorder.install()
    paths = workloads.config_paths(args.workload, ROOT, tmp, args.size)
    t1 = time.perf_counter()
    cfgs = [lqmfg.cli.load_config(p) for p in paths]
    result = {"setup_s": import_s + time.perf_counter() - t1,
              "calibration_s": [calibration.calibration_s()]}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    out = tmp / f"out-{args.workload}-{time.time_ns()}"
    jobs = workloads.jobs(args.workload, cfgs, args.seed, args.size, out)
    results, run_s = [], []
    t_run = time.perf_counter()
    for fn_name, cfg, kwargs in jobs:
        t = time.perf_counter()
        results.append(getattr(lqmfg.cli, fn_name)(cfg, **kwargs))
        run_s.append(time.perf_counter() - t)
    wall_s = time.perf_counter() - t_run
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["calibration_s"].append(calibration.calibration_s())  # after peak memory is read

    if recorder is not None:  # before the checks, which call the program too
        result["spans"] = str(tmp / f"spans-{out.name}.json")
        recorder.dump(result["spans"])
    errors, values = workloads.check(args.workload, jobs, results, args.seed, args.size)
    digest, written = _artifact_digest(out)
    shutil.rmtree(out)
    result.update(wall_s=wall_s, run_s=run_s, peak_rss_mb=peak_rss_mb, errors=errors,
                  checks=values, digest=digest, bytes_written=written)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
