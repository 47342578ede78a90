#!/usr/bin/env python3
"""clang-tidy ctest gate (label: lint).

Runs clang-tidy (config: the repo's .clang-tidy) over every translation unit
in compile_commands.json that lives under src/, bench/, or tests/, and fails
on any diagnostic. Registered by the top-level CMakeLists as the
`lint_clang_tidy` test with SKIP_RETURN_CODE 77: when no clang-tidy binary is
installed (e.g. a gcc-only container) the gate reports SKIP instead of
silently passing, and CI installs clang-tidy so the gate is enforced there.

The vector-extension kernel TUs are excluded (KERNEL_TU_EXCLUDES below):
they are compiled -O3 -march=native with GNU
vector extensions, which clang-tidy's clang frontend rejects under a gcc
compile command, and
their index arithmetic intentionally trips the swappable-parameter and
widening heuristics. Their correctness gate is the kernel-equivalence tests
plus the sanitizer presets, not clang-tidy.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

SKIP_EXIT = 77
LINT_DIRS = ("src", "bench", "tests")
KERNEL_TU_EXCLUDES = ("nn/gemm.cpp", "nn/im2col.cpp")
CANDIDATES = (
    "clang-tidy", "clang-tidy-19", "clang-tidy-18", "clang-tidy-17",
    "clang-tidy-16", "clang-tidy-15", "clang-tidy-14",
)


def find_clang_tidy() -> str | None:
    for name in CANDIDATES:
        path = shutil.which(name)
        if path:
            return path
    return None


def select_files(build_dir: Path, root: Path) -> list[Path]:
    db_path = build_dir / "compile_commands.json"
    if not db_path.exists():
        print(f"clang_tidy_gate: {db_path} not found; configure with "
              "CMAKE_EXPORT_COMPILE_COMMANDS=ON", file=sys.stderr)
        sys.exit(1)
    entries = json.loads(db_path.read_text())
    files: list[Path] = []
    for entry in entries:
        f = Path(entry["file"])
        try:
            rel = f.resolve().relative_to(root)
        except ValueError:
            continue
        rel_s = rel.as_posix()
        if not rel_s.startswith(tuple(d + "/" for d in LINT_DIRS)):
            continue
        if any(rel_s.endswith(k) for k in KERNEL_TU_EXCLUDES):
            continue
        files.append(f)
    return sorted(set(files))


def run_one(tidy: str, build_dir: Path, f: Path) -> tuple[Path, int, str]:
    proc = subprocess.run(
        [tidy, "--quiet", "-p", str(build_dir), str(f)],
        capture_output=True, text=True)
    interesting = "\n".join(
        line for line in (proc.stdout + proc.stderr).splitlines()
        if ("warning:" in line or "error:" in line)
        and "warnings generated" not in line)
    return f, proc.returncode, interesting


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--build-dir", type=Path, required=True,
                    help="build tree containing compile_commands.json")
    ap.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    ap.add_argument("--require", action="store_true",
                    help="fail (exit 1) when no clang-tidy binary is found "
                         "instead of reporting SKIP — CI sets this so a "
                         "missing toolchain can never read as a pass")
    args = ap.parse_args()

    tidy = find_clang_tidy()
    if tidy is None:
        if args.require:
            print("clang_tidy_gate: no clang-tidy binary found but "
                  "--require is set; failing (the CI image must install "
                  "clang-tidy)", file=sys.stderr)
            return 1
        print("clang_tidy_gate: no clang-tidy binary found; SKIP "
              "(install clang-tidy to enforce this gate locally)")
        return SKIP_EXIT

    root = Path(__file__).resolve().parents[1]
    files = select_files(args.build_dir.resolve(), root)
    if not files:
        print("clang_tidy_gate: no translation units selected", file=sys.stderr)
        return 1

    failed = 0
    with concurrent.futures.ThreadPoolExecutor(max_workers=args.jobs) as pool:
        futures = [pool.submit(run_one, tidy, args.build_dir, f) for f in files]
        for fut in concurrent.futures.as_completed(futures):
            f, code, output = fut.result()
            if code != 0 or output:
                failed += 1
                print(f"--- {f} ---")
                print(output or f"clang-tidy exited {code}")

    print(f"clang_tidy_gate: {len(files)} TUs, {failed} with findings "
          f"({len(KERNEL_TU_EXCLUDES)} kernel TUs excluded by policy)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
