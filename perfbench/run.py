#!/usr/bin/env python3
"""Repository benchmark: build, run one workload, check it, print its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. The first run configures and builds
perfbench/ (and through it the program under test) into .bench_build/; later
runs only re-check the build. Every run first records a host probe, then runs
the workload binary, which prints one JSON record. This script checks the
record against BENCHMARK.json, prints every metric by name with its unit,
any output mismatch by name, and as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics, with
--trace 1 its per_layer metrics. The exit code is non-zero when an output
check fails, the run is invalid, or anything cannot be built or run.
Full records and span traces are kept under .bench_build/.
"""

import argparse
import fcntl
import json
import math
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "mozart_perfbench"
WORKLOADS = ("bulk_vecmath", "iterative_nbody", "pandas_mix", "served_mixed")

CONFIGURE_TIMEOUT_S = 300
BUILD_TIMEOUT_S = 840
PROBE_TIMEOUT_S = 60
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def run(cmd, timeout, log=None):
    """Runs cmd in its own process group; kills the whole group on timeout."""
    out = open(log, "ab") if log else subprocess.PIPE
    try:
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=out,
                                stderr=subprocess.STDOUT if log else subprocess.PIPE,
                                start_new_session=True)
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise BenchError(f"timed out after {timeout} s: {' '.join(map(str, cmd))}")
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
    finally:
        if log:
            out.close()
    return proc.returncode, stdout, stderr


def build():
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        if not (BUILD / "CMakeCache.txt").exists():
            code, _, _ = run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                              "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                              "-DFETCHCONTENT_FULLY_DISCONNECTED=ON"], CONFIGURE_TIMEOUT_S, log)
            if code != 0:
                (BUILD / "CMakeCache.txt").unlink(missing_ok=True)
                raise BenchError(f"cmake configure failed (see {log})")
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        code, _, _ = run(["cmake", "--build", str(BUILD), "--target", "mozart_perfbench",
                          "-j", jobs], BUILD_TIMEOUT_S, log)
        if code != 0:
            raise BenchError(f"build failed (see {log})")


def run_binary(args, timeout):
    code, stdout, stderr = run([str(BINARY)] + args, timeout)
    if code != 0:
        detail = stderr.decode(errors="replace")[-2000:]
        raise BenchError(f"mozart_perfbench {' '.join(args)} exited {code}: {detail}")
    lines = stdout.decode().strip().splitlines()
    if not lines:
        raise BenchError("mozart_perfbench printed no record")
    return json.loads(lines[-1])


def fmt(value):
    return f"{value:.6g}" if isinstance(value, (int, float)) else str(value)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 0 < args.seconds <= 600 or args.seed < 0:
        parser.error("--seconds must be in (0, 600] and --seed non-negative")

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        raise BenchError(f"{spec_path.name} not found at the checkout root")
    spec = json.loads(spec_path.read_text())
    wanted = {m["name"]: m for m in spec["per_layer" if args.trace else "end_to_end"]}

    build()
    host = run_binary(["--host-probe"], PROBE_TIMEOUT_S)
    out_dir = ROOT / ".bench_build" / "records"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", str(out_dir / f"{stem}.spans.json")]
    record = run_binary(cmd, RUN_TIMEOUT_S)
    record["host"] = host
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    metrics = dict(record["metrics"])
    metrics.update(host["metrics"])
    notes = dict(host["notes"], **record["notes"])

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"seconds {fmt(args.seconds)}")
    for name, m in host["metrics"].items():
        print(f"  {name:36s} {fmt(m['value']):>14s} {m['unit']}")
    for name, m in record["metrics"].items():
        print(f"  {name:36s} {fmt(m['value']):>14s} {m['unit']}")
    for key, value in notes.items():
        print(f"  note {key}: {value}")
    print(f"  attempted {record['attempted']}  failed {record['failed']}")

    problems = []
    for reason in record["invalid"]:
        problems.append(f"invalid run: {reason}")
    if record["mismatch_count"]:
        problems.append(f"{record['mismatch_count']} output check(s) failed")
        problems += [f"mismatch: {m}" for m in record["mismatches"]]
    result = {}
    for name, m in wanted.items():
        got = metrics.get(name)
        if got is None or got["value"] is None or not math.isfinite(got["value"]):
            problems.append(f"metric {name} missing or not finite")
            continue
        if got["unit"] != m["unit"]:
            problems.append(f"metric {name} has unit {got['unit']}, "
                            f"BENCHMARK.json says {m['unit']}")
        result[name] = {"value": got["value"], "unit": m["unit"]}
    for p in problems:
        print(f"  FAIL {p}")
    correct = not problems and record["attempted"] >= 1
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": result}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(2)
