"""Benchmark of the msimg package: one command, three workloads.

    python3 bench/run.py --workload cli_pipeline|grid_sweep|point_queries|all
                         --seed N --seconds S --trace 0|1

Run from the root of a source tree (src/msimg and configs/ must exist).
Every workload runs in its own child process with PYTHONPATH=src and the
BLAS pools pinned to BLAS_THREADS.  Set-up (interpreter start, imports,
input generation, precomputed spectra) is timed SETUP_REPEATS times, in
separate processes before and after the measured run, and reported as the
median.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
of a traced run (see layers.py).  Human-readable lines come first; the
last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  Trace dumps and result records go to .bench_out/.
See bench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
OUT = ROOT / ".bench_out"
WORKLOADS = ("cli_pipeline", "grid_sweep", "point_queries")
SETUP_REPEATS = 7
# One BLAS thread everywhere: the same on every commit, below nproc = 2,
# and --threads 2 in the probe then uses exactly two threads.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Every run must end within 180 s; children get what is left of this.
RUN_BUDGET_S = 175

# What the gated metrics and the ungated figures stand for, per workload.
MEANING = {
    "cli_pipeline": {"pass_best_s": "pipeline_s: one pass of 31 CLI commands",
                     "image_best_s": "image_s: the 8 image commands of a pass",
                     "op_p50_ms": "short_cmd_p50 (synth/classify/compare)",
                     "op_p90_ms": "short_cmd_p90 (synth/classify/compare)"},
    "grid_sweep": {"pass_best_s": "one sweep of 5 orbit sets x 4 directions",
                   "image_best_s": "filtered_field_values part of a sweep",
                   "op_p50_ms": "one orbit set, p50",
                   "op_p90_ms": "one orbit set, p90",
                   "sweep_points_per_s": "direction x lattice points per s "
                                         "of filtered_field_values, 601^2"},
    "point_queries": {"pass_best_s": "one round of 30 queries",
                      "image_best_s": "the 10 indicator queries of a round",
                      "op_p50_ms": "query_p50", "op_p90_ms": "query_p90",
                      "op_p99_ms": "query_p99",
                      "queries_per_s": "queries_per_s (closed loop, 1 client)"},
}


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for var in BLAS_VARS:
        env[var] = BLAS_THREADS
    return env


def run_child(args, workload, extra, deadline) -> tuple[dict, float]:
    """Run workloads.py; returns its JSON result and its set-up time.

    A child still running at `deadline` gets SIGTERM, which makes it stop
    its own CLI child and exit, and SIGKILL 10 s later.
    """
    cmd = [sys.executable, str(BENCH / "workloads.py"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(OUT), *extra]
    spawned = monotonic()
    with subprocess.Popen(cmd, env=child_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as p:
        try:
            out, err = p.communicate(timeout=max(1.0, deadline - spawned))
        except subprocess.TimeoutExpired:
            p.terminate()
            try:
                p.communicate(timeout=10)
            except subprocess.TimeoutExpired:
                p.kill()
                p.communicate()
            raise
    if p.returncode != 0:
        sys.stderr.write(err)
        raise RuntimeError(f"workload process exited with {p.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    return result, result["first_op"] - spawned


def run_record() -> dict:
    """Machine, toolchain and source description stored with each result."""
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    caches = {}
    for d in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((d / f).read_text().strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    digest = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        digest.update(p.relative_to(ROOT).as_posix().encode())
        digest.update(p.read_bytes())
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.exists():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.exists() else ref
        else:
            commit = ref
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "caches": caches,
            "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"),
            "blas_threads": {v: BLAS_THREADS for v in BLAS_VARS},
            "git_commit": commit, "src_sha256": digest.hexdigest()}


def run_workload(args, workload, record, deadline) -> dict:
    """Run once, print the human-readable block and store the result
    record; returns the result-line object.

    An untraced run also sets up SETUP_REPEATS - 1 more times, half before
    the measured run and half after it, so the set-ups sample the machine
    over the whole run rather than over a few seconds of it.
    """
    def set_up():
        return run_child(args, workload, ["--setup-only"], deadline)[1]

    extra = SETUP_REPEATS - 1 if not args.trace else 0
    setups = [set_up() for _ in range(extra // 2)]
    result, setup = run_child(args, workload, [], deadline)
    setups += [setup] + [set_up() for _ in range(extra - extra // 2)]
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}

    attempted, failed = result["attempted"], result["failed"]
    meaning = MEANING[workload] if not args.trace else {}
    print(f"workload {workload}  seed {args.seed}  seconds {args.seconds:g}"
          f"  trace {args.trace}")
    for name in sorted(metrics):
        v = metrics[name]
        note = f"  {meaning[name]}" if name in meaning else ""
        print(f"  {name:<42} {v['value']:>14.6g} {v['unit']}{note}")
    for name, v in result["samples"].items():
        note = f"  {meaning[name]}" if name in meaning else ""
        print(f"  (ungated) {name:<32} {v:>14.6g}{note}")
    print(f"  {'error_rate':<42} {failed / max(attempted, 1):>14.6g} "
          f"failed/attempted ({failed}/{attempted})")
    nc = result["negative_controls"]
    print(f"  negative controls: {nc['rejected']}/{nc['run']} perturbed "
          f"outputs rejected")
    for msg in result["messages"]:
        print(f"  problem: {msg}")
    final = {"correct": bool(result["correct"]), "attempted": attempted,
             "failed": failed, "metrics": metrics}
    with open(OUT / f"result-{workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as f:
        json.dump({**final, "setups_s": setups, "samples": result["samples"],
                   "negative_controls": nc, "messages": result["messages"],
                   "record": record}, f, indent=1)
    return final


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "msimg" / "__init__.py").is_file() or \
            not list((ROOT / "configs").glob("*.json")):
        print(f"error: {ROOT} holds no msimg source tree (src/msimg, configs/)",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    record = run_record()
    print("run record " + json.dumps(record))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        finals = {w: run_workload(args, w, record,
                                  monotonic() + RUN_BUDGET_S)
                  for w in names}
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(finals if args.workload == "all" else finals[names[0]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
