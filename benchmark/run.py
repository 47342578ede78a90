#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a repository checkout:

  python3 benchmark/run.py --workload round_mlp --seed 7 --seconds 12 --trace 0
  python3 benchmark/run.py                # every workload, end-to-end metrics
  python3 benchmark/run.py --trace 1      # every workload, per-layer metrics
  python3 benchmark/run.py --smoke        # tiny workloads, both trace modes

The first call configures and builds benchmark/build (CMake, the library at
the repository root plus the binary in benchmark/src). Each workload runs in
its own binary process. Per-run result files (context, correctness and
metrics with sample counts; never overwritten) and the traced runs' Chrome
trace files land in benchmark/results/ or --out-dir, which compare.py
reads. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"} for one workload, or
{"correct", "attempted", "failed", "workloads"} for several. Every emitted
metric name and unit is checked against BENCHMARK.json. The exit status is 0
only when every check passed.
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = BENCH / "build"
RESULTS = BENCH / "results"
RUN_TIMEOUT_S = 170


def die(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        die(f"cannot read BENCHMARK.json: {e}")
    return spec


def check_checkout():
    if not (ROOT / "CMakeLists.txt").is_file() or not (
            ROOT / "src" / "core" / "trainer.hpp").is_file():
        die(f"{ROOT} is not a repository checkout (no CMakeLists.txt or "
            "src/); the benchmark builds the library from source")


def build():
    """Configures (once) and builds the binary; returns its path."""
    check_checkout()
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    with open(BUILD / ".lock", "w") as lock, open(log, "w") as out:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs share one build
        steps = []
        if not (BUILD / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(BENCH), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", str(BUILD), "--target",
                      "groupfel_benchmark", "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail = log.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                die(f"build failed: {' '.join(cmd)} (log: {log})")
    return BUILD / "groupfel_benchmark"


def git_commit():
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def expected_metrics(spec, trace):
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def run_workload(binary, spec, workload, seed, seconds, trace, smoke,
                 commit, out_dir):
    """Runs one binary process; returns (parsed last line, problems)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{'smoke-' if smoke else ''}{workload}-seed{seed}"
    run = 0  # result files are never overwritten: the next free run index
    while (out_dir / f"{stem}-trace{trace}-{run:03d}.json").exists():
        run += 1
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", str(out_dir / f"{stem}-trace{trace}-{run:03d}.json"),
           "--commit", commit]
    if trace:
        cmd += ["--trace-file", str(out_dir / f"{stem}.trace.json")]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, [f"{workload}: binary exceeded {RUN_TIMEOUT_S} s"]
    lines = stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    problems = []
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None, [f"{workload}: binary exited {proc.returncode} without "
                      "a result line"]
    if proc.returncode != 0 or not result.get("correct"):
        problems.append(f"{workload}: binary reported failed checks "
                        f"(exit {proc.returncode})")
    want = expected_metrics(spec, trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        problems.append(f"{workload}: metrics differ from BENCHMARK.json "
                        f"(missing {missing}, extra {extra}, unit {units})")
    return result, problems


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=names,
                    help="one workload (default: all, in order)")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny workloads in both trace modes")
    ap.add_argument("--out-dir", default=str(RESULTS),
                    help="result directory (default benchmark/results)")
    ap.add_argument("--binary", help="prebuilt benchmark binary (skips build)")
    args = ap.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        die("need --seed >= 0 and --seconds > 0")

    binary = Path(args.binary) if args.binary else build()
    commit = git_commit()
    workloads = [args.workload] if args.workload else names
    modes = [0, 1] if args.smoke else [args.trace]
    seconds = 0.1 if args.smoke else args.seconds

    started = time.monotonic()
    results, problems = {}, []
    for workload in workloads:
        for trace in modes:
            res, bad = run_workload(binary, spec, workload, args.seed,
                                    seconds, trace, args.smoke, commit,
                                    Path(args.out_dir))
            problems += bad
            if res is not None:
                results[(workload, trace)] = res
    for p in problems:
        print(f"run.py: FAIL {p}", file=sys.stderr)
    correct = not problems
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())

    if len(workloads) == 1 and len(modes) == 1 and results:
        result = next(iter(results.values()))
        result["correct"] = correct
        print(json.dumps(result))
        return 0 if correct else 1
    print(f"run.py: {len(results)} runs in {time.monotonic() - started:.1f} s"
          f"{'' if correct else ', FAILED'}")
    summary = {w if len(modes) == 1 else f"{w}/trace{t}": r["metrics"]
               for (w, t), r in results.items()}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "workloads": summary}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
