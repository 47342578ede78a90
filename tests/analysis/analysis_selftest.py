#!/usr/bin/env python3
"""Self-test of the static-analysis tooling against known-bad fixtures.

Registered as the `analysis_selftest` ctest (label: analyze). The fixtures
under tests/analysis/fixtures/src/ contain deliberately broken code with a
known number of violations per rule, plus suppressed and clean cases. This
test pins the contract of scripts/lint.py and
scripts/determinism_analyzer.py:

  * exact active-finding counts per rule, per fixture set;
  * exact suppressed counts (the `lint:allow` accounting);
  * process exit codes (1 with findings, 0 clean, 77 = forced libclang
    without libclang);
  * the JSON findings schema CI consumes;
  * `--explain` coverage for every registered rule;
  * regex mode and, when libclang is importable, libclang mode — both must
    report the same counts on the fixtures (the structural pass is the
    floor; the AST pass may only add what dedup removes again here).

Run directly: `python3 tests/analysis/analysis_selftest.py [-v]`.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SCRIPTS = ROOT / "scripts"
FIXTURES = HERE / "fixtures" / "src"

ANALYZER_FIXTURES = [
    FIXTURES / "unordered_iteration.cpp",
    FIXTURES / "parallel_reduction.cpp",
    FIXTURES / "unguarded_field.cpp",
]
LINT_FIXTURES = [
    FIXTURES / "wallclock.cpp",
    FIXTURES / "unordered_iteration.cpp",
    FIXTURES / "half_bitcast.cpp",
    FIXTURES / "raw_process.cpp",
    FIXTURES / "fp_flag_scope.cmake",
]

EXPECTED_ANALYZER_ACTIVE = {
    "unordered-iteration": 2,
    "parallel-float-reduction": 3,
    "unguarded-field": 1,
    "missing-guard-annotation": 2,
}
EXPECTED_ANALYZER_SUPPRESSED = {
    "unordered-iteration": 1,
    "parallel-float-reduction": 1,
    "missing-guard-annotation": 1,
}
EXPECTED_LINT_ACTIVE = {
    "banned-wallclock": 2,
    "unordered-iteration": 2,
    "half-bitcast": 3,
    "raw-process-syscalls": 4,
    "fp-flag-scope": 6,
}
EXPECTED_LINT_SUPPRESSED = {
    "banned-wallclock": 1,
    "unordered-iteration": 1,
    "half-bitcast": 1,
    "raw-process-syscalls": 1,
}

ANALYZER_RULES = ("unordered-iteration", "parallel-float-reduction",
                  "unguarded-field", "missing-guard-annotation")
LINT_RULES = ("banned-rng", "banned-wallclock", "global-state", "naked-new",
              "const-cast", "include-guard", "unordered-iteration",
              "half-bitcast", "raw-process-syscalls", "fp-flag-scope")

failures: list[str] = []
verbose = "-v" in sys.argv


def check(cond: bool, what: str) -> None:
    status = "ok " if cond else "FAIL"
    if verbose or not cond:
        print(f"[{status}] {what}")
    if not cond:
        failures.append(what)


def run(cmd: list[str]) -> subprocess.CompletedProcess:
    if verbose:
        print("+", " ".join(str(c) for c in cmd))
    return subprocess.run([sys.executable, *cmd], capture_output=True,
                          text=True, cwd=ROOT)


def counts(entries: list[dict]) -> dict[str, int]:
    return dict(Counter(e["rule"] for e in entries))


def check_report(tag: str, payload: dict, active: dict, suppressed: dict):
    got_active = counts(payload["findings"])
    got_suppressed = counts(payload["suppressed"])
    check(got_active == active,
          f"{tag}: active counts {got_active} == {active}")
    check(got_suppressed == suppressed,
          f"{tag}: suppressed counts {got_suppressed} == {suppressed}")
    for entry in payload["findings"] + payload["suppressed"]:
        ok = {"file", "line", "rule", "message", "suppressed",
              "level"} <= set(entry) and isinstance(entry["line"], int)
        if not ok:
            check(False, f"{tag}: JSON schema of {entry}")
            break
    else:
        check(True, f"{tag}: JSON schema complete")


def analyzer_on_fixtures(mode: str) -> None:
    with tempfile.NamedTemporaryFile(suffix=".json", mode="r") as tmp:
        proc = run([SCRIPTS / "determinism_analyzer.py", "--mode", mode,
                    "--json", tmp.name, *ANALYZER_FIXTURES])
        check(proc.returncode == 1,
              f"analyzer[{mode}] exits 1 on fixtures (got {proc.returncode}: "
              f"{proc.stderr.strip()[:200]})")
        payload = json.load(open(tmp.name))
    check(payload["tool"] == "determinism_analyzer.py" and
          payload["mode"] == mode and payload["files_scanned"] == 3,
          f"analyzer[{mode}] report header")
    check_report(f"analyzer[{mode}]", payload,
                 EXPECTED_ANALYZER_ACTIVE, EXPECTED_ANALYZER_SUPPRESSED)


def libclang_available() -> bool:
    probe = run([SCRIPTS / "determinism_analyzer.py", "--mode", "libclang",
                 str(FIXTURES / "wallclock.cpp")])
    return probe.returncode != 77


def main() -> int:
    # --explain covers every registered rule and exits 0.
    for script, rules in ((SCRIPTS / "determinism_analyzer.py",
                           ANALYZER_RULES),
                          (SCRIPTS / "lint.py", LINT_RULES)):
        proc = run([script, "--explain", "all"])
        check(proc.returncode == 0, f"{script.name} --explain all exits 0")
        for rule in rules:
            check(f"== {rule} ==" in proc.stdout,
                  f"{script.name} --explain covers {rule}")
        proc = run([script, "--explain", "no-such-rule"])
        check(proc.returncode == 2,
              f"{script.name} --explain unknown rule exits 2")

    # Regex mode: exact counts, suppressions, exit code, JSON schema.
    analyzer_on_fixtures("regex")

    # libclang mode: same contract when available; forced mode must exit 77
    # (the ctest SKIP code) when it is not.
    if libclang_available():
        analyzer_on_fixtures("libclang")
    else:
        proc = run([SCRIPTS / "determinism_analyzer.py", "--mode", "libclang",
                    *ANALYZER_FIXTURES])
        check(proc.returncode == 77,
              "analyzer --mode libclang exits 77 without libclang")
        print("[note] libclang unavailable: AST half exercised the 77 path "
              "only (CI runs it for real)")

    # Clean fixture input → exit 0.
    proc = run([SCRIPTS / "determinism_analyzer.py", "--mode", "regex",
                str(FIXTURES / "wallclock.cpp")])
    check(proc.returncode == 0,
          "analyzer exits 0 on a fixture with no analyzer findings")

    # Lint fallback rules on fixtures.
    with tempfile.NamedTemporaryFile(suffix=".json", mode="r") as tmp:
        proc = run([SCRIPTS / "lint.py", "--json", tmp.name, *LINT_FIXTURES])
        check(proc.returncode == 1, "lint exits 1 on fixtures")
        payload = json.load(open(tmp.name))
    check_report("lint", payload, EXPECTED_LINT_ACTIVE,
                 EXPECTED_LINT_SUPPRESSED)

    if failures:
        print(f"analysis_selftest: {len(failures)} FAILURE(S)")
        return 1
    print("analysis_selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
