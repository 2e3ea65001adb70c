#!/usr/bin/env python3
"""Wall-clock save/restore benchmark of MoC-System (see perfbench/README.md).

    python3 perfbench/run.py --workload engine_pec --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Builds the program from this checkout (CMake, Release) into
$CARGO_TARGET_DIR (default .bench_build), runs one workload through
perfbench_runner, forwards its human-readable metric table, and prints as
the last line one JSON object {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are BENCHMARK.json's end_to_end set, with
--trace 1 its per_layer set; a per-layer metric of a layer the workload does
not touch is reported as 0. Exits nonzero when the build fails, the runner
fails, or an output check fails. `--workload all` runs every workload in
turn, each printing its own table and result line.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("train_facade", "engine_pec", "engine_hot_delta")
TARGETS = ("perfbench_runner", "cluster_procs", "moc_launcher")
# Deadline of one workload run; the whole command must end within 180 s.
RUN_TIMEOUT_S = 170


def build(build_dir: Path) -> Path:
    """Configures and builds the runner and fleet binaries (incremental)."""
    cmake_dir = build_dir / "cmake"
    log_path = build_dir / "build.log"
    build_dir.mkdir(parents=True, exist_ok=True)
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = [["cmake", "-S", str(ROOT / "perfbench"), "-B", str(cmake_dir),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(cmake_dir), "-j", jobs, "--target", *TARGETS]]
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                sys.stderr.write(f"perfbench: build failed, see {log_path}\n")
                sys.stderr.write(log_path.read_text()[-4000:])
                sys.exit(3)
    return cmake_dir


def normalize(result: dict, spec: list, trace: bool) -> dict:
    """Checks the runner's metrics against BENCHMARK.json's set for the mode."""
    expected = {m["name"]: m["unit"] for m in spec}
    metrics = result["metrics"]
    for name, metric in metrics.items():
        if name not in expected:
            raise ValueError(f"runner reported unknown metric {name}")
        if metric["unit"] != expected[name]:
            raise ValueError(f"{name}: unit {metric['unit']} != {expected[name]}")
    out = {}
    for name, unit in expected.items():
        if name in metrics:
            out[name] = metrics[name]
        elif trace:
            out[name] = {"value": 0.0, "unit": unit}  # layer not on this path
        else:
            raise ValueError(f"runner did not report {name}")
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": out}


def run_workload(workload: str, args, bench: dict, build_dir: Path,
                 cmake_dir: Path) -> int:
    """Runs one workload; prints its table and, last, its result line."""
    command = [str(cmake_dir / "perfbench_runner"),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", str(build_dir / "work"), "--bin-dir", str(cmake_dir)]
    start = time.monotonic()
    # Its own process group, so a timeout can stop the fleet it spawned.
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.stderr.write(f"perfbench: runner exceeded {RUN_TIMEOUT_S}s\n")
        return 4
    lines = stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]))
    print(f"run wall time: {time.monotonic() - start:.1f} s")
    try:
        result = json.loads(lines[-1])
        spec = bench["per_layer"] if args.trace else bench["end_to_end"]
        result = normalize(result, spec, bool(args.trace))
    except (ValueError, KeyError, IndexError) as e:
        sys.stderr.write(f"perfbench: bad runner output ({e}); exit {proc.returncode}\n")
        return 5
    print(json.dumps(result))
    if proc.returncode != 0 or not result["correct"]:
        return 1
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    cmake_dir = build(build_dir)
    if args.workload != "all":
        return run_workload(args.workload, args, bench, build_dir, cmake_dir)
    worst = 0
    for workload in WORKLOADS:
        print(f"== {workload}")
        worst = max(worst, run_workload(workload, args, bench, build_dir, cmake_dir))
    return worst


if __name__ == "__main__":
    sys.exit(main())
