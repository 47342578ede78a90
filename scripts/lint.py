#!/usr/bin/env python3
"""Repo-specific invariant lint for the groupfel C++ tree.

Registered as the `lint_invariants` ctest (label: lint). Walks src/, bench/,
and tests/ and fails on violations of the repo's correctness rules, which no
generic tool checks. Rules are classes over `scripts/analysis_core.py` —
`--explain <rule>` prints the full rationale for any of them:

  banned-rng           rand()/mt19937/time()/random_device on simulation
                       paths (counter-based runtime::Rng only).
  banned-wallclock     std::chrono::system_clock / high_resolution_clock
                       under src/ (steady_clock via runtime::Timer only).
  global-state         Mutable namespace-scope state without a lock type,
                       std::atomic, or thread_local.
  naked-new            `new` outside a smart-pointer wrap; any `delete`.
  const-cast           const_cast under src/.
  include-guard        Headers without `#pragma once`.
  unordered-iteration  Iterating std::unordered_{map,set} under src/
                       (regex fallback of the determinism analyzer's rule,
                       so the invariant holds even where the analyzer is
                       skipped).
  half-bitcast         Raw float<->half conversions (F16C/AVX512 convert
                       intrinsics, __bf16/_Float16 builtin types, the RNE
                       bias constant) outside util/half.hpp, which owns the
                       rounding semantics.
  raw-process-syscalls fork()/exec*()/pipe()/waitpid() outside
                       src/runtime/proc/, which owns the fd-discipline and
                       fork-safety invariants of the process backend.
  fp-flag-scope        src/CMakeLists.txt gives -ffast-math to any TU, or a
                       bit-exact kernel TU lacks -ffp-contract=off. It
                       reads the CMake file, not C++: the walk checks
                       src/CMakeLists.txt, and explicit paths named
                       CMakeLists.txt or *.cmake.

Suppression: append `// lint:allow(<rule>)` to the offending line (or the
line directly above) with a justification nearby (policy in
docs/DEVELOPMENT.md). Zero findings is the merge bar; suppressed findings
are counted per file in the output so every allow is part of the diff
reviewers see. `--json <path>` emits a machine-readable report for CI.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from analysis_core import (  # noqa: E402
    FileContext,
    Finding,
    Rule,
    UnorderedIterationRule,
    add_common_args,
    collect_files,
    explain_rules,
    report,
)

LINT_DIRS = ("src", "bench", "tests")


class BannedRngRule(Rule):
    name = "banned-rng"
    explain = """
Wall-clock or stateful-global randomness on simulation paths: rand()/srand(),
std::mt19937*, time(), std::random_device, std::default_random_engine.
Simulation code must derive all randomness from counter-based runtime::Rng
streams (xoshiro256++ seeded via splitmix64) keyed by logical index — client
id, cell index, round number — or results stop being reproducible
bit-for-bit across pool sizes and reruns (see src/runtime/rng.hpp).
"""

    PATTERNS = [
        (re.compile(r"(?<![\w:])s?rand\s*\("), "rand()/srand()"),
        (re.compile(r"std::mt19937"), "std::mt19937"),
        (re.compile(r"(?<![\w.])time\s*\("), "time()"),
        (re.compile(r"std::random_device"), "std::random_device"),
        (re.compile(r"std::default_random_engine"),
         "std::default_random_engine"),
    ]

    def check(self, ctx: FileContext) -> list[Finding]:
        out = []
        for lineno, text in enumerate(ctx.clean_lines, start=1):
            for pat, label in self.PATTERNS:
                if pat.search(text):
                    out.append(self.finding(
                        ctx, lineno,
                        f"{label} on a simulation path; use runtime::Rng "
                        "(counter-based xoshiro/splitmix) keyed by logical "
                        "index"))
        return out


class BannedWallclockRule(Rule):
    name = "banned-wallclock"
    explain = """
std::chrono::system_clock or std::chrono::high_resolution_clock under src/.
system_clock is wall time: it jumps under NTP adjustment, so durations
derived from it are not monotonic, and any value that reaches results or
seeds makes runs irreproducible. high_resolution_clock is an alias for an
unspecified clock (often system_clock on libstdc++) — same hazard, less
visibly. Timing on simulation paths goes through runtime::Timer
(steady_clock, measurement-only); timestamps for logs/artifacts belong in
the CLI layer, not under src/. Suppress with
`// lint:allow(banned-wallclock)` only where wall time IS the datum (none
today).
"""

    PAT = re.compile(
        r"std::chrono::(system_clock|high_resolution_clock)")

    def check(self, ctx: FileContext) -> list[Finding]:
        if not ctx.in_src:
            return []
        out = []
        for lineno, text in enumerate(ctx.clean_lines, start=1):
            m = self.PAT.search(text)
            if m:
                out.append(self.finding(
                    ctx, lineno,
                    f"std::chrono::{m.group(1)} on a simulation path; use "
                    "runtime::Timer (steady_clock) for durations and keep "
                    "wall timestamps out of src/"))
        return out


class GlobalStateRule(Rule):
    name = "global-state"
    explain = """
Mutable namespace-scope state that is not const/constexpr, std::atomic, a
lock type (std::mutex family, util::Mutex/CondVar), or thread_local.
Namespace-scope mutables are invisible cross-thread coupling: the ThreadPool
fan-out turns them into data races, and even when benign they make results
depend on execution order. Prefer function-local statics behind an accessor
(see util/logging.cpp's Sink) or explicit parameters.
"""

    OK = re.compile(
        r"\b(const|constexpr|constinit|thread_local|std::atomic|std::mutex|"
        r"std::shared_mutex|std::recursive_mutex|std::once_flag|"
        r"std::condition_variable|util::Mutex|util::CondVar|Mutex|CondVar)\b")
    IGNORE_START = (
        "using", "typedef", "class", "struct", "enum", "template", "extern",
        "static_assert", "friend", "namespace", "inline namespace", "return",
        "public", "private", "protected",
    )
    DECL = re.compile(
        r"^(?:static\s+)?[\w:<>,*&\s]+?[\s*&](\w+)\s*(?:=[^;]*|\{[^;]*\})?$")

    def check(self, ctx: FileContext) -> list[Finding]:
        out = []
        statement: list[tuple[int, str]] = []
        for lineno, text in enumerate(ctx.clean_lines, start=1):
            if lineno not in ctx.ns_scope_lines:
                statement = []
                continue
            stripped = text.strip()
            if not stripped or stripped.startswith("#"):
                continue
            statement.append((lineno, stripped))
            if not stripped.endswith(";"):
                continue
            first_line = statement[0][0]
            joined = " ".join(s for _, s in statement)
            statement = []
            body = joined.rstrip(";").strip()
            if not body or body.startswith(self.IGNORE_START):
                continue
            if "(" in body.split("=")[0]:  # function decl / paren-init
                continue
            if self.OK.search(body):
                continue
            if self.DECL.match(body):
                out.append(self.finding(
                    ctx, first_line,
                    "mutable namespace-scope state without a lock, "
                    "std::atomic, or thread_local"))
        return out


class NakedNewRule(Rule):
    name = "naked-new"
    explain = """
`new` outside an immediate unique_ptr/shared_ptr/make_* wrap, or any
`delete` expression. Ownership in this repo flows through RAII (unique_ptr,
WorkspaceArena, std::vector); a naked new/delete reintroduces the leak and
double-free classes those conventions exist to make impossible.
"""

    SMART_WRAP = re.compile(r"(unique_ptr|shared_ptr|make_unique|make_shared)")
    DELETED_FN = re.compile(r"=\s*delete\b|operator\s+delete")

    def check(self, ctx: FileContext) -> list[Finding]:
        out = []
        for lineno, text in enumerate(ctx.clean_lines, start=1):
            if (re.search(r"(?<![\w.])new\b(?!\s*\()", text)
                    and not self.SMART_WRAP.search(text)):
                out.append(self.finding(
                    ctx, lineno,
                    "`new` outside an immediate unique_ptr/shared_ptr wrap"))
            if (re.search(r"(?<![\w.])delete\b", text)
                    and not self.DELETED_FN.search(text)):
                out.append(self.finding(
                    ctx, lineno,
                    "`delete` expression; use RAII ownership"))
        return out


class ConstCastRule(Rule):
    name = "const-cast"
    explain = """
const_cast anywhere under src/ (simulation paths). Model/Layer expose const
for_each_param overloads precisely so flat-parameter export never needs to
cast away constness; a const_cast on a hot path hides a mutation the
aliasing/threading analysis cannot see. tests/ may still use it for
argv-style fixtures.
"""

    def check(self, ctx: FileContext) -> list[Finding]:
        if not ctx.in_src:
            return []
        out = []
        for lineno, text in enumerate(ctx.clean_lines, start=1):
            if "const_cast" in text:
                out.append(self.finding(
                    ctx, lineno,
                    "const_cast on a simulation path; use the const "
                    "for_each_param overloads (see nn/layer.hpp) instead of "
                    "casting away constness"))
        return out


class IncludeGuardRule(Rule):
    name = "include-guard"
    explain = """
Headers must start with `#pragma once`. The build is unity-free but headers
are included across targets; a missing guard turns any diamond include into
an ODR violation.
"""

    def check(self, ctx: FileContext) -> list[Finding]:
        if ctx.path.suffix in {".hpp", ".h"} and "#pragma once" not in ctx.raw:
            return [self.finding(ctx, 1, "header lacks `#pragma once`")]
        return []


class HalfBitcastRule(Rule):
    name = "half-bitcast"
    explain = """
Raw float<->half-precision conversions outside util/half.hpp: the F16C /
AVX-512 convert intrinsics (_cvtss_sh, _cvtsh_ss, *cvtph_ps, *cvtps_ph,
*cvtneps_pbh and the 2-register form), the __bf16/_Float16/__fp16 builtin
types, and the bf16 RNE bias idiom (the 0x7fff carry constant). The
mixed-precision design puts ALL rounding semantics in util/half.hpp — RNE
ties-to-even, NaN quieting, fp16 saturation and subnormals — so every TU
produces identical bits whether or not it was compiled with -march=native.
A conversion hand-rolled elsewhere (or a builtin half type, whose implicit
conversions round invisibly) forks those semantics and silently breaks the
pool-size/TU bit-identity invariant the precision configs are gated on.
Compute intrinsics that CONSUME packed half data (_tile_dpbf16ps,
_mm512_dpbf16_ps) are fine — they do not convert. Suppress with
`// lint:allow(half-bitcast)` only where the raw conversion IS the point
(e.g. tests cross-checking the soft converters against hardware).
"""

    PATTERNS = [
        (re.compile(r"_cvtss_sh\b|_cvtsh_ss\b|\w*cvtph_ps\w*|\w*cvtps_ph\w*|"
                    r"\w*cvtne2?ps_pbh\w*"),
         "float<->half convert intrinsic"),
        (re.compile(r"\b(__bf16|_Float16|__fp16)\b"),
         "builtin half type (implicit rounding)"),
        (re.compile(r"0x7fff(?![0-9a-fA-F])", re.IGNORECASE),
         "bf16 RNE bias constant (hand-rolled rounding)"),
    ]

    def check(self, ctx: FileContext) -> list[Finding]:
        if ctx.path.name == "half.hpp" and "util" in ctx.path.parts:
            return []  # the one place allowed to own these semantics
        out = []
        for lineno, text in enumerate(ctx.clean_lines, start=1):
            for pat, label in self.PATTERNS:
                if pat.search(text):
                    out.append(self.finding(
                        ctx, lineno,
                        f"{label} outside util/half.hpp; use the "
                        "to/from_*_bits and round_* helpers so rounding "
                        "semantics stay in one file"))
        return out


class RawProcessSyscallsRule(Rule):
    name = "raw-process-syscalls"
    explain = """
Raw process-management syscalls — fork()/vfork(), the exec*() family,
pipe()/pipe2(), waitpid() — outside src/runtime/proc/. The process sweep
backend concentrates some easy-to-get-wrong invariants in runtime/proc:
fork-safety (a forked child of a multithreaded parent may only touch
async-signal-safe state, so workers must never inherit a live ThreadPool),
sibling-fd hygiene (each child closes the parent-side fds of previously
spawned workers, or parent death stops producing EOF on worker stdin),
EINTR retry loops, SIGPIPE suppression, and zombie reaping. A raw fork or
pipe elsewhere silently re-opens each of those holes. Use proc::Subprocess,
proc::wait_any_readable, and the runtime/proc wire helpers instead; if a
test must exercise the raw syscall itself, suppress with
`// lint:allow(raw-process-syscalls)` and a justification.
"""

    PATTERNS = [
        # POSIX fork takes no arguments; the empty-paren anchor keeps
        # runtime::Rng::fork(salt) — stream forking — out of scope.
        (re.compile(r"(?<![\w:.])v?fork\s*\(\s*\)"), "fork()"),
        (re.compile(r"(?<![\w:.])exec(?:[lv][pe]{0,2})\s*\("),
         "exec*()"),
        (re.compile(r"(?<![\w:.])pipe2?\s*\("), "pipe()"),
        (re.compile(r"(?<![\w:.])waitpid\s*\("), "waitpid()"),
    ]

    def check(self, ctx: FileContext) -> list[Finding]:
        if "proc" in ctx.path.parts and "runtime" in ctx.path.parts:
            return []  # the one place allowed to own process lifecycles
        out = []
        for lineno, text in enumerate(ctx.clean_lines, start=1):
            for pat, label in self.PATTERNS:
                if pat.search(text):
                    out.append(self.finding(
                        ctx, lineno,
                        f"raw {label} outside src/runtime/proc/; use "
                        "proc::Subprocess / proc::wait_any_readable so "
                        "fork-safety and fd discipline stay in one place"))
        return out


class FpFlagScopeRule(Rule):
    name = "fp-flag-scope"
    explain = """
Floating-point flag scope in src/CMakeLists.txt. Two rules the flag-set
comment there states:
  * No TU gets -ffast-math (-Ofast counts too). Fast math licenses
    reassociation, FMA contraction, flush-to-zero and NaN/inf assumptions,
    so a TU that gets it (per file, or through add_compile_options /
    target_compile_options / CMAKE_CXX_FLAGS) can silently move bits that
    the bit-identity gates pin — even through a change that keeps every
    kernel's order, when the compiler reassociates a reduction differently
    around it.
  * The declared bit-exact kernel TUs (BIT_EXACT_TUS below) build with
    -ffp-contract=off. GCC's C++ default is -ffp-contract=fast, which fuses
    a*b + c into an FMA once -march=native offers one, so a lane kernel
    that must reproduce a scalar reference's separately rounded product and
    sum changes its results on FMA hosts only.
The rule resolves set() / list(APPEND) variables and the last
set_source_files_properties(... COMPILE_OPTIONS ...) per file, as CMake
does. Fix the CMake file; there is no suppression for this rule.
"""

    BIT_EXACT_TUS = ("nn/conv.cpp", "nn/im2col.cpp",
                     "runtime/categorical_bulk.cpp", "grouping/cov_scan.cpp")
    FAST_MATH_FLAGS = ("-ffast-math", "-Ofast")
    COMMAND = re.compile(r"\b(\w+)\s*\(")
    VAR = re.compile(r"\$\{(\w+)\}")
    GLOBAL_FLAG_COMMANDS = ("add_compile_options", "target_compile_options")

    @staticmethod
    def applies_to(path: Path) -> bool:
        return path.name == "CMakeLists.txt" or path.suffix == ".cmake"

    @staticmethod
    def strip_comment(line: str) -> str:
        quoted = False
        for i, ch in enumerate(line):
            if ch == '"':
                quoted = not quoted
            elif ch == "#" and not quoted:
                return line[:i]
        return line

    def commands(self, ctx: FileContext):
        """Yields (line, name, args) per CMake command, args unexpanded."""
        text = "\n".join(self.strip_comment(l) for l in ctx.raw_lines)
        for m in self.COMMAND.finditer(text):
            depth, i = 1, m.end()
            while i < len(text) and depth:
                depth += {"(": 1, ")": -1}.get(text[i], 0)
                i += 1
            body = text[m.end():i - 1]
            args = re.findall(r'"[^"]*"|[^\s"]+', body)
            yield (text.count("\n", 0, m.start()) + 1, m.group(1).lower(),
                   [a.strip('"') for a in args])

    def expand(self, args: list[str], variables: dict[str, list[str]]):
        out: list[str] = []
        for arg in args:
            arg = self.VAR.sub(lambda v: ";".join(variables.get(v[1], [])),
                               arg)
            out.extend(a for a in re.split(r"[;\s]+", arg) if a)
        return out

    def check(self, ctx: FileContext) -> list[Finding]:
        if not self.applies_to(ctx.path):
            return []
        out: list[Finding] = []
        variables: dict[str, list[str]] = {}
        options: dict[str, tuple[int, list[str]]] = {}
        for line, name, args in self.commands(ctx):
            if name == "set" and args:
                variables[args[0]] = self.expand(args[1:], variables)
            elif name == "list" and len(args) >= 2 and args[0] == "APPEND":
                variables.setdefault(args[1], []).extend(
                    self.expand(args[2:], variables))
            elif name == "set_source_files_properties" and \
                    "PROPERTIES" in args:
                split = args.index("PROPERTIES")
                props = args[split + 1:]
                if "COMPILE_OPTIONS" in props[:-1:2]:
                    value = props[props.index("COMPILE_OPTIONS") + 1]
                    flags = self.expand([value], variables)
                    for tu in args[:split]:
                        options[tu] = (line, flags)
            if name in self.GLOBAL_FLAG_COMMANDS or (
                    name in ("set", "string") and
                    any("CMAKE_CXX_FLAGS" in a for a in args[:2])):
                if any(f in self.FAST_MATH_FLAGS
                       for f in self.expand(args, variables)):
                    out.append(self.finding(
                        ctx, line,
                        f"{name}() applies fast math; no TU may get "
                        "-ffast-math or -Ofast"))
        for tu, (line, flags) in sorted(options.items()):
            if any(f in self.FAST_MATH_FLAGS for f in flags):
                out.append(self.finding(
                    ctx, line,
                    f"{tu} gets fast math; no TU may get -ffast-math or "
                    "-Ofast"))
        for tu in self.BIT_EXACT_TUS:
            line, flags = options.get(tu, (1, []))
            if "-ffp-contract=off" not in flags:
                out.append(self.finding(
                    ctx, line,
                    f"bit-exact TU {tu} lacks -ffp-contract=off; without it "
                    "GCC may fuse a*b + c into an FMA under -march=native"))
        return out


RULES: list[Rule] = [
    BannedRngRule(),
    BannedWallclockRule(),
    GlobalStateRule(),
    NakedNewRule(),
    ConstCastRule(),
    IncludeGuardRule(),
    UnorderedIterationRule(),
    HalfBitcastRule(),
    RawProcessSyscallsRule(),
]

# Rules over CMake files rather than C++ sources.
CMAKE_RULES: list[Rule] = [FpFlagScopeRule()]


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    add_common_args(ap)
    args = ap.parse_args()

    if args.explain:
        return explain_rules(RULES + CMAKE_RULES, args.explain)

    files = collect_files(args.root, LINT_DIRS, args.paths)
    if args.paths:
        cmake_files = [p for p in args.paths
                       if FpFlagScopeRule.applies_to(p)]
    else:
        cmake_files = [args.root / "src" / "CMakeLists.txt"]
    findings: list[Finding] = []
    for path in files:
        ctx = FileContext(path)
        for rule in RULES:
            findings.extend(rule.check(ctx))
    for path in cmake_files:
        ctx = FileContext(path)
        for rule in CMAKE_RULES:
            findings.extend(rule.check(ctx))

    return report("lint.py", args.root, files + cmake_files,
                  RULES + CMAKE_RULES, findings, args.json)


if __name__ == "__main__":
    sys.exit(main())
