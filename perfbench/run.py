#!/usr/bin/env python3
"""Build and run the RFH simulator benchmark.

One workload, one process (the form the benchmark contract uses):

    python3 perfbench/run.py --workload steady_100k --seed 1 --seconds 20 --trace 0

Every workload, timed and traced, each in its own process, with the
timed/traced digest cross-check:

    python3 perfbench/run.py --all [--seed N] [--seconds S]

The benchmark's self-tests:

    python3 perfbench/run.py --selftest

The driver is built from source into .bench_build/perfbench under the
checkout root (CMake, Release). A single-workload run prints a readable
report and, as its last line, one JSON object with the keys correct,
attempted, failed and metrics; --trace 0 gives the end-to-end metrics and
--trace 1 the per-layer ones, as listed in BENCHMARK.json. The exit code is
0 only when every correctness check passed.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("steady_100k", "churn_stream_10k", "paper_sweep")
DRIVER_TIMEOUT_S = 170


def jobs():
    return max(1, min(4, os.cpu_count() or 1))


def fail(message, code=3):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(target):
    """Configure (once) and build `target`; returns the binary's path."""
    if shutil.which("cmake") is None:
        fail("cmake not found")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log_path = BUILD_DIR / "build.log"
    with open(BUILD_DIR / "build.lock", "w") as lock, open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD_DIR / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD_DIR), "-j", str(jobs()),
                      "--target", target])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-20:]
                print("\n".join(tail), file=sys.stderr)
                if step[1] == "-S":
                    # A failed configure leaves a cache that would skip it
                    # next time; drop it so the next run configures again.
                    (BUILD_DIR / "CMakeCache.txt").unlink(missing_ok=True)
                fail(f"building {target} failed (log: {log_path})")
    return BUILD_DIR / target


def source_digest():
    """sha256 over the simulator and benchmark sources, for the manifest."""
    h = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "unavailable (not a git checkout)"
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    sha = out.stdout.strip() or "unavailable"
    dirty = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain",
                            "--", "src", "perfbench"],
                           capture_output=True, text=True).stdout.strip()
    return sha + ("+dirty" if dirty else "")


def declared_metrics():
    """Metric names BENCHMARK.json declares for each trace mode."""
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return None
    spec = json.loads(path.read_text())
    return {0: [m["name"] for m in spec["end_to_end"]],
            1: [m["name"] for m in spec["per_layer"]]}


def default_seconds():
    path = ROOT / "BENCHMARK.json"
    if path.exists():
        return json.loads(path.read_text()).get("run_seconds", 20)
    return 20


def run_driver(driver, workload, seed, seconds, trace):
    """Run one workload in its own process; returns its result object."""
    logs = BUILD_DIR / "logs"
    logs.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}"
    cmd = [str(driver), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--trace-out", str(logs / f"{stem}.spans.json")]
    with open(logs / f"{stem}.stderr", "w") as err:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=err,
                                  text=True, timeout=DRIVER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"{workload} did not finish within {DRIVER_TIMEOUT_S} s", 1)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"{workload}: driver printed nothing (exit {proc.returncode})", 1)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{workload}: unreadable driver output", 1)
    stderr = (logs / f"{stem}.stderr").read_text(errors="replace").splitlines()
    result["warnings"] = sum("WARN" in line for line in stderr)
    result["layer_table"] = [l for l in stderr if "WARN" not in l]
    result["manifest"]["git_sha"] = git_sha()
    result["manifest"]["source_digest"] = source_digest()
    result["manifest"]["seconds"] = seconds
    (logs / f"{stem}.json").write_text(json.dumps(result, indent=1))
    return result, proc.returncode


def report(result):
    """The readable part of a run's output."""
    print(f"perfbench {result['workload']} seed={result['seed']} "
          f"trace={int(result['trace'])}")
    print("manifest " + json.dumps(result["manifest"], sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}")
    for name, m in result["info"].items():
        print(f"  ({name:30s} {m['value']:>16.6g} {m['unit']})")
    for line in result["layer_table"]:
        print("  " + line)
    print(f"checks: {result['attempted']} ops attempted, {result['failed']} "
          f"failed; digest prefix {result['digest_prefix']}; "
          f"{result['warnings']} engine warnings on stderr")
    for line in result["failures"]:
        print("  FAILED: " + line)
    coverage = result["metrics"].get("obs.span_coverage")
    if coverage is not None and coverage["value"] < 0.9:
        print(f"  note: layer self times cover only {coverage['value']:.0%} "
              "of the measured time; the per-layer breakdown is incomplete")


def check_declared(result, trace):
    declared = declared_metrics()
    if declared is None:
        return True
    if list(result["metrics"]) != declared[trace]:
        print("perfbench: metrics differ from BENCHMARK.json", file=sys.stderr)
        return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=WORKLOADS)
    mode.add_argument("--all", action="store_true")
    mode.add_argument("--selftest", action="store_true")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    seconds = args.seconds if args.seconds is not None else default_seconds()
    if not 0 < seconds <= 600:
        parser.error("--seconds must be in (0, 600]")

    if args.selftest:
        sys.exit(subprocess.run([str(build("perfbench_selftest"))]).returncode)

    driver = build("perfbench_driver")
    if args.workload:
        result, code = run_driver(driver, args.workload, args.seed, seconds,
                                  args.trace)
        report(result)
        ok = check_declared(result, args.trace) and code == 0 and result["correct"]
        metrics = {k: {"value": v["value"], "unit": v["unit"]}
                   for k, v in result["metrics"].items()}
        print(json.dumps({"correct": bool(ok), "attempted": result["attempted"],
                          "failed": result["failed"], "metrics": metrics}))
        sys.exit(0 if ok else 1)

    ok = True
    for workload in WORKLOADS:
        timed, code0 = run_driver(driver, workload, args.seed, seconds, 0)
        report(timed)
        traced, code1 = run_driver(driver, workload, args.seed, seconds, 1)
        report(traced)
        same = timed["digest_prefix"] == traced["digest_prefix"]
        print(f"digest check {workload}: timed {timed['digest_prefix']} "
              f"traced {traced['digest_prefix']} -> {'equal' if same else 'DIFFERENT'}")
        print()
        ok &= (same and code0 == 0 and code1 == 0 and timed["correct"]
               and traced["correct"] and check_declared(timed, 0)
               and check_declared(traced, 1))
    print("perfbench: all checks passed" if ok else "perfbench: CHECKS FAILED")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
