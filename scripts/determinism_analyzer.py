#!/usr/bin/env python3
"""AST-grade concurrency & determinism analyzer for the groupfel C++ tree.

Registered as the `analyze_determinism` ctest (label: analyze). Complements
the clang -Wthread-safety pass (see the groupfel_analyze CMake preset): the
compiler proves lock discipline for annotated fields; this tool checks the
properties the compiler cannot see — determinism invariants, and the
annotations themselves.

Rules (all share `scripts/analysis_core.py`; `--explain <rule>` for details):

  unordered-iteration       Range-for / .begin() over std::unordered_{map,
                            set} anywhere under src/: iteration order is
                            nondeterministic and must never reach results.
  parallel-float-reduction  float/double compound-assign accumulation (or
                            std::accumulate) inside a callable dispatched
                            via ThreadPool::parallel_for /
                            SweepScheduler::run that targets captured
                            state not indexed by the worker's own logical
                            index. Cross-worker float sums must go through
                            nn::weighted_average_into or a fixed-shape tree
                            reduction.
  unguarded-field           A field annotated GF_GUARDED_BY(mu) accessed on
                            a line where `mu` is not provably held
                            (RAII guard in scope, GF_REQUIRES on the
                            function, or ctor/dtor exemption).
  missing-guard-annotation  A mutable, non-atomic field of a mutex-owning
                            class that IS accessed under that class's mutex
                            but carries no GF_GUARDED_BY — the exact hole
                            left by deleting an annotation, which clang's
                            -Wthread-safety accepts silently. Also flags
                            GF_GUARDED_BY naming a mutex the class does not
                            own.

Modes (`--mode auto|libclang|regex`, default auto):
  libclang  Parses real ASTs via clang.cindex + compile_commands.json
            (--build-dir). unordered-iteration and parallel-float-reduction
            gain AST precision; results are unioned with the structural
            pass (the structural findings are the floor, AST adds recall).
  regex     Documented degraded mode: brace-aware structural scanning only.
            Always available; what CI falls back to is what developers run
            locally without clang.
In auto mode, libclang is used when importable, else regex with a notice.
`--mode libclang` on a machine without libclang exits 77 (ctest SKIP).

Suppression: `// lint:allow(<rule>)` on the offending line or the line
directly above (for missing-guard-annotation that is the member declaration
line). Zero findings on src/ is the merge bar.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from analysis_core import (  # noqa: E402
    ClassInfo,
    FileContext,
    Finding,
    Rule,
    UnorderedIterationRule,
    add_common_args,
    collect_files,
    explain_rules,
    report,
)

ANALYZE_DIRS = ("src",)
SKIP_EXIT = 77

# ---------------------------------------------------------------------------
# parallel-float-reduction (structural mode)
# ---------------------------------------------------------------------------

# Dispatch sites whose callable arguments execute concurrently. Qualified
# (`pool->parallel_for(`) or unqualified member calls (`run(n, body)` inside
# SweepScheduler). Declarations don't match the argument shapes below, so
# they fall out naturally.
_DISPATCH_RE = re.compile(
    r"(?:(?:->|\.)\s*)?\b(parallel_for|run|map)\s*(?:<[^;()<>]*>)?\s*\(")
_NAMED_LAMBDA_RE = r"(?:const\s+)?auto\s+{name}\s*=\s*\["


def _split_args(clean: str, open_idx: int) -> list[tuple[int, str]]:
    """Top-level (offset, text) arguments of the call at `open_idx` ('(')."""
    args: list[tuple[int, str]] = []
    depth = 0
    start = open_idx + 1
    i = open_idx
    while i < len(clean):
        c = clean[i]
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
            if depth == 0:
                if i > start:
                    args.append((start, clean[start:i]))
                return args
        elif c == "," and depth == 1:
            args.append((start, clean[start:i]))
            start = i + 1
        i += 1
    return args


_LOCAL_DECL_RE = re.compile(
    r"(?:^|[;{(\s])(?:const\s+)?[\w:]+(?:<[^<>;]*>)?(?:\s*[&*])?\s+"
    r"([A-Za-z_]\w*)\s*(?:=|\{|;)")
_FOR_DECL_RE = re.compile(
    r"\bfor\s*\(\s*(?:const\s+)?[\w:<>&*\s]+?\s([A-Za-z_]\w*)\s*[=:]")
_COMPOUND_RE = re.compile(
    r"([A-Za-z_][\w\[\]().>\-]*)\s*(\+=|-=|\*=|/=)(?!=)")


def _callable_locals(params: str, body: str) -> set[str]:
    names: set[str] = set()
    for p in params.split(","):
        m = re.search(r"([A-Za-z_]\w*)\s*$", p.strip())
        if m:
            names.add(m.group(1))
    for m in _LOCAL_DECL_RE.finditer(body):
        names.add(m.group(1))
    for m in _FOR_DECL_RE.finditer(body):
        names.add(m.group(1))
    return names


class ParallelFloatReductionRule(Rule):
    name = "parallel-float-reduction"
    explain = """
A compound assignment (+=, -=, *=, /=) or std::accumulate on captured state
inside a callable dispatched through ThreadPool::parallel_for or
SweepScheduler::run. Workers finish in nondeterministic order, so a
shared floating-point accumulation makes the sum depend on scheduling —
float addition is not associative — and results stop being bit-identical
across pool sizes. Writes to slots indexed by the worker's own logical
index (e.g. `out[i] += x` where `i` is the callable's parameter) are
disjoint and therefore exempt; locals declared inside the callable are
exempt. Route cross-worker sums through nn::weighted_average_into or the
fixed-shape block tree reduction (see src/nn/model.cpp), or stage
per-worker partials and fold them in index order.
"""

    def check(self, ctx: FileContext) -> list[Finding]:
        if not ctx.in_src:
            return []
        out: list[Finding] = []
        seen: set[tuple[int, str]] = set()
        clean = ctx.clean
        for dm in _DISPATCH_RE.finditer(clean):
            open_idx = dm.end() - 1
            for arg_off, arg in _split_args(clean, open_idx):
                arg_s = arg.strip()
                lam = None
                if arg_s.startswith("["):
                    abs_off = arg_off + (len(arg) - len(arg.lstrip()))
                    lam = next((l for l in ctx.lambdas
                                if l.offset == abs_off), None)
                elif re.fullmatch(r"[A-Za-z_]\w*", arg_s):
                    decl = re.search(
                        _NAMED_LAMBDA_RE.format(name=re.escape(arg_s)), clean)
                    if decl:
                        lam = next((l for l in ctx.lambdas
                                    if l.offset == decl.end() - 1), None)
                if lam is None:
                    continue  # not a lambda we can resolve — skip, documented
                out.extend(self._check_lambda(ctx, lam, seen))
        return out

    def _check_lambda(self, ctx, lam, seen) -> list[Finding]:
        out: list[Finding] = []
        locals_ = _callable_locals(lam.params, lam.body)

        def emit(lineno: int, msg: str) -> None:
            key = (lineno, msg[:40])
            if key not in seen:
                seen.add(key)
                out.append(self.finding(ctx, lineno, msg))

        for cm in _COMPOUND_RE.finditer(lam.body):
            lhs = cm.group(1)
            base = re.match(r"[A-Za-z_]\w*", lhs).group(0)
            if base == "this":
                lhs_rest = lhs[4:]
                bm = re.match(r"(?:->)?([A-Za-z_]\w*)", lhs_rest)
                base = bm.group(1) if bm else base
            if base in locals_:
                continue
            sub = re.search(r"\[([^\]]*)\]", lhs)
            if sub and any(re.search(rf"\b{re.escape(lv)}\b", sub.group(1))
                           for lv in locals_):
                continue  # disjoint slot indexed by the worker's own index
            lineno = lam.start_line + lam.body.count("\n", 0, cm.start())
            emit(lineno,
                 f"`{lhs} {cm.group(2)}` accumulates into captured state "
                 "inside a parallel callable; float reduction order becomes "
                 "schedule-dependent — use nn::weighted_average_into / a "
                 "tree reduction or per-worker staging")
        for am in re.finditer(r"\bstd::accumulate\s*\(", lam.body):
            lineno = lam.start_line + lam.body.count("\n", 0, am.start())
            emit(lineno,
                 "std::accumulate inside a parallel callable; chunk-local "
                 "left-folds change value with the partition — use the "
                 "fixed-shape tree reduction instead")
        return out


# ---------------------------------------------------------------------------
# Guarded-field cross-checks (structural, program-wide — both modes)
# ---------------------------------------------------------------------------


class GuardedFieldChecker:
    """Two-pass whole-program check of GF_GUARDED_BY annotations.

    Pass 1 collects every mutex-owning class (a class with a util::Mutex /
    std::mutex member) and its member table from all files. Pass 2 scans the
    declaring file plus every file defining `ClassName::` methods:

      * unguarded-field: an annotated member accessed where its mutex is not
        held (no RAII guard in scope, no GF_REQUIRES, not in a ctor/dtor).
      * missing-guard-annotation: a mutable non-exempt member accessed under
        one of the class's own mutexes without any GF_GUARDED_BY — exactly
        the state produced by deleting an annotation (which clang's
        -Wthread-safety accepts silently: no annotation means no checking).
    """

    def __init__(self, unguarded: Rule, missing: Rule):
        self.unguarded = unguarded
        self.missing = missing

    def run(self, ctxs: list[FileContext]) -> list[Finding]:
        out: list[Finding] = []
        for ctx in ctxs:
            for ci in ctx.classes:
                if ci.mutexes:
                    out.extend(self._check_class(ci, ctx, ctxs))
        return out

    def _check_class(self, ci: ClassInfo, decl_ctx: FileContext,
                     ctxs: list[FileContext]) -> list[Finding]:
        out: list[Finding] = []
        method_re = re.compile(rf"\b{re.escape(ci.name)}\s*::")
        related = [c for c in ctxs
                   if c is not decl_ctx and method_re.search(c.clean)]
        mutexes = set(ci.mutexes)

        for member in ci.members:
            if member.is_lock_type:
                continue
            if member.guarded_by is not None and \
                    member.guarded_by not in mutexes:
                out.append(self.missing.finding(
                    decl_ctx, member.line,
                    f"{ci.name}::{member.name} is GF_GUARDED_BY("
                    f"{member.guarded_by}) but the class owns no such mutex "
                    "(renamed or deleted?)"))
                continue
            uses = self._occurrences(member.name, member.line, ci, decl_ctx,
                                     related)
            if member.guarded_by is not None:
                for octx, line in uses:
                    held = octx.locks.get(line, frozenset())
                    if member.guarded_by not in held and "*" not in held:
                        out.append(self.unguarded.finding(
                            octx, line,
                            f"{ci.name}::{member.name} is GF_GUARDED_BY("
                            f"{member.guarded_by}) but accessed here without "
                            "it held (no guard in scope, no GF_REQUIRES, "
                            "not a ctor/dtor)"))
            elif not member.is_exempt:
                for octx, line in uses:
                    held = octx.locks.get(line, frozenset())
                    if "*" in held or not (held & mutexes):
                        continue
                    mu = sorted(held & mutexes)[0]
                    out.append(self.missing.finding(
                        decl_ctx, member.line,
                        f"{ci.name}::{member.name} is accessed under {mu} "
                        f"({octx.path.name}:{line}) but not GF_GUARDED_BY — "
                        "annotate it or document why it needs no guard"))
                    break  # one finding per member, anchored at the decl
        return out

    @staticmethod
    def _occurrences(name: str, decl_line: int, ci: ClassInfo,
                     decl_ctx: FileContext, related: list[FileContext]):
        """(ctx, line) uses of member `name`, skipping its declaration.

        In the declaring file, lines inside the class body match bare
        `name`; outside it (free functions using `obj->name`) only
        member-access spellings count, to avoid unrelated identifiers.
        """
        word = re.compile(rf"\b{re.escape(name)}\b")
        access = re.compile(rf"(?:->|\.)\s*{re.escape(name)}\b")
        uses: list[tuple[FileContext, int]] = []
        for lineno, text in enumerate(decl_ctx.clean_lines, start=1):
            if lineno == decl_line:
                continue
            pat = word if ci.line <= lineno <= ci.end_line else access
            if pat.search(text):
                uses.append((decl_ctx, lineno))
        for octx in related:
            for lineno, text in enumerate(octx.clean_lines, start=1):
                if word.search(text):
                    uses.append((octx, lineno))
        return uses


class UnguardedFieldRule(Rule):
    name = "unguarded-field"
    explain = """
A field annotated GF_GUARDED_BY(mu) is accessed on a line where `mu` is not
provably held: no util::MutexLock / std::lock_guard / unique_lock /
scoped_lock naming `mu` is in scope, the enclosing function has no
GF_REQUIRES(mu), and the access is not in a constructor/destructor (which
run single-threaded by construction). This is the structural twin of
clang's -Wthread-safety diagnostic, so the invariant also holds for
contributors building with GCC, where the GF_* macros expand to nothing.
Fix: take the lock, or move the access under an existing critical section.
"""

    def check(self, ctx: FileContext) -> list[Finding]:
        return []  # driven program-wide by GuardedFieldChecker


class MissingGuardAnnotationRule(Rule):
    name = "missing-guard-annotation"
    explain = """
A mutable, non-atomic, non-const member of a mutex-owning class is accessed
while one of the class's own mutexes is held, yet carries no GF_GUARDED_BY.
Clang's -Wthread-safety cannot flag this: deleting an annotation silently
deletes the checking. The lock-site is evidence the field is part of the
protected state, so either annotate it (preferred) or suppress with
`// lint:allow(missing-guard-annotation)` on/above the declaration with a
comment explaining the confinement argument (e.g. written only before
threads start). Also fires when GF_GUARDED_BY names a mutex the class does
not own — the residue of renaming or deleting the mutex member.
"""

    def check(self, ctx: FileContext) -> list[Finding]:
        return []  # driven program-wide by GuardedFieldChecker


# ---------------------------------------------------------------------------
# libclang backend
# ---------------------------------------------------------------------------


class LibclangUnavailable(RuntimeError):
    pass


def _load_cindex():
    try:
        from clang import cindex
    except ImportError as e:
        raise LibclangUnavailable(f"python clang bindings missing: {e}")
    try:  # default resolution (distro-patched bindings usually just work)
        cindex.Index.create()
        return cindex
    except Exception:
        pass
    import ctypes.util
    candidates = [ctypes.util.find_library("clang")]
    candidates += [f"libclang-{v}.so.1" for v in range(20, 11, -1)]
    candidates += [f"libclang.so.{v}" for v in range(20, 11, -1)]
    candidates += ["libclang.so.1", "libclang.so"]
    for cand in candidates:
        if not cand:
            continue
        try:
            cindex.Config.set_library_file(cand)
            cindex.Index.create()
            return cindex
        except Exception:
            continue
    raise LibclangUnavailable("no loadable libclang shared library")


class LibclangBackend:
    """AST upgrades for the two syntax-sensitive rules.

    Findings are unioned with the structural pass and deduplicated by
    (file, line, rule): the structural results are the portable floor, the
    AST pass adds precision/recall where real type information matters
    (e.g. an unordered_map hidden behind `auto&` or a typedef).
    """

    def __init__(self, root: Path, build_dir: Path):
        self.cindex = _load_cindex()
        self.index = self.cindex.Index.create()
        self.compdb: dict[str, list[str]] = {}
        cc = build_dir / "compile_commands.json"
        if cc.exists():
            for entry in json.loads(cc.read_text()):
                args = entry.get("arguments")
                if not args:
                    args = entry.get("command", "").split()
                cleaned, skip = [], True  # skip argv[0] (the compiler)
                it = iter(args)
                for a in it:
                    if skip:
                        skip = False
                        continue
                    if a in ("-c", "-o"):
                        if a == "-o":
                            next(it, None)
                        continue
                    cleaned.append(a)
                self.compdb[str(Path(entry["directory"]) / entry["file"])
                            if not Path(entry["file"]).is_absolute()
                            else entry["file"]] = cleaned
        self.default_args = ["-x", "c++", "-std=c++20",
                            f"-I{root / 'src'}"]

    def _args_for(self, path: Path) -> list[str]:
        args = self.compdb.get(str(path.resolve()))
        if args:
            # The file name itself is among the args; drop it.
            return [a for a in args if Path(a).name != path.name]
        return self.default_args

    def check_file(self, ctx: FileContext,
                   unordered: Rule, reduction: Rule) -> list[Finding]:
        ck = self.cindex.CursorKind
        tu = self.index.parse(str(ctx.path), args=self._args_for(ctx.path))
        out: list[Finding] = []

        def in_main_file(cur) -> bool:
            f = cur.location.file
            return f is not None and Path(f.name).resolve() == \
                ctx.path.resolve()

        def walk(cur):
            for child in cur.get_children():
                yield child
                yield from walk(child)

        def extent_contains(outer, cur) -> bool:
            try:
                return (outer.extent.start.offset <= cur.extent.start.offset
                        and cur.extent.end.offset <= outer.extent.end.offset)
            except Exception:
                return False

        root_cursor = tu.cursor
        for cur in walk(root_cursor):
            if not in_main_file(cur):
                continue
            if cur.kind == ck.CXX_FOR_RANGE_STMT:
                out.extend(self._check_range_for(ctx, cur, unordered, ck))
            elif cur.kind == ck.CALL_EXPR and cur.spelling in (
                    "parallel_for", "run", "map"):
                out.extend(self._check_dispatch(ctx, cur, reduction, ck))
        return out

    def _check_range_for(self, ctx, cur, rule: Rule, ck) -> list[Finding]:
        children = list(cur.get_children())
        if not children:
            return []
        body = children[-1] if children[-1].kind == ck.COMPOUND_STMT else None
        for child in children:
            if body is not None and child == body:
                continue
            for node in self._subtree(child):
                spelling = node.type.get_canonical().spelling or \
                    node.type.spelling
                if "unordered_map" in spelling or "unordered_set" in spelling:
                    return [rule.finding(
                        ctx, cur.location.line,
                        f"range-for over unordered container "
                        f"({node.type.spelling}): iteration order is "
                        "nondeterministic; iterate sorted keys or use an "
                        "ordered container")]
        return []

    def _check_dispatch(self, ctx, call, rule: Rule, ck) -> list[Finding]:
        out: list[Finding] = []
        for arg in call.get_arguments():
            lam = self._find_lambda(arg, ck)
            if lam is None:
                continue
            out.extend(self._check_lambda(ctx, lam, rule, ck))
        return out

    def _find_lambda(self, arg, ck):
        for node in [arg, *self._subtree(arg)]:
            if node.kind == ck.LAMBDA_EXPR:
                return node
            if node.kind == ck.DECL_REF_EXPR and node.referenced is not None:
                for sub in self._subtree(node.referenced):
                    if sub.kind == ck.LAMBDA_EXPR:
                        return sub
        return None

    def _check_lambda(self, ctx, lam, rule: Rule, ck) -> list[Finding]:
        out: list[Finding] = []
        start = lam.extent.start.offset
        end = lam.extent.end.offset

        def declared_inside(decl) -> bool:
            try:
                return (decl is not None and decl.location.file is not None
                        and start <= decl.location.offset <= end)
            except Exception:
                return False

        for node in self._subtree(lam):
            if node.kind != ck.COMPOUND_ASSIGNMENT_OPERATOR:
                continue
            t = node.type.get_canonical().spelling
            if "float" not in t and "double" not in t:
                continue
            kids = list(node.get_children())
            if not kids:
                continue
            lhs = kids[0]
            refs = [n for n in [lhs, *self._subtree(lhs)]
                    if n.kind in (ck.DECL_REF_EXPR, ck.MEMBER_REF_EXPR)]
            if refs and declared_inside(refs[0].referenced):
                continue  # accumulates into a lambda-local
            subscripted = any(
                n.kind == ck.ARRAY_SUBSCRIPT_EXPR or
                (n.kind == ck.CALL_EXPR and n.spelling == "operator[]")
                for n in [lhs, *self._subtree(lhs)])
            if subscripted:
                idx_local = any(
                    n.kind == ck.DECL_REF_EXPR
                    and declared_inside(n.referenced)
                    for n in self._subtree(lhs))
                if idx_local:
                    continue  # disjoint slot indexed by worker-local index
            out.append(rule.finding(
                ctx, node.location.line,
                "float compound-assign on captured state inside a parallel "
                "callable; reduction order becomes schedule-dependent — use "
                "nn::weighted_average_into / a tree reduction"))
        return out

    def _subtree(self, cur):
        for child in cur.get_children():
            yield child
            yield from self._subtree(child)


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

RULES: list[Rule] = [
    UnorderedIterationRule(),
    ParallelFloatReductionRule(),
    UnguardedFieldRule(),
    MissingGuardAnnotationRule(),
]


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    add_common_args(ap)
    ap.add_argument("--mode", choices=("auto", "libclang", "regex"),
                    default="auto",
                    help="analysis backend (default: auto — libclang when "
                         "importable, else the structural regex fallback)")
    ap.add_argument("--build-dir", type=Path, default=None,
                    help="build tree holding compile_commands.json for "
                         "libclang mode (default: <root>/build)")
    args = ap.parse_args()

    if args.explain:
        return explain_rules(RULES, args.explain)

    rules = {r.name: r for r in RULES}
    files = collect_files(args.root, ANALYZE_DIRS, args.paths)
    ctxs = [FileContext(p) for p in files]

    backend = None
    mode = args.mode
    if mode in ("auto", "libclang"):
        try:
            backend = LibclangBackend(
                args.root, args.build_dir or args.root / "build")
            mode = "libclang"
        except LibclangUnavailable as e:
            if args.mode == "libclang":
                print(f"determinism_analyzer: libclang unavailable: {e}",
                      file=sys.stderr)
                return SKIP_EXIT
            print(f"determinism_analyzer: {e}; degrading to regex mode",
                  file=sys.stderr)
            mode = "regex"

    findings: list[Finding] = []
    # Structural pass — always runs; it is the portable floor.
    for ctx in ctxs:
        findings.extend(rules["unordered-iteration"].check(ctx))
        findings.extend(rules["parallel-float-reduction"].check(ctx))
    findings.extend(
        GuardedFieldChecker(rules["unguarded-field"],
                            rules["missing-guard-annotation"]).run(ctxs))

    if backend is not None:
        for ctx in ctxs:
            try:
                findings.extend(backend.check_file(
                    ctx, rules["unordered-iteration"],
                    rules["parallel-float-reduction"]))
            except Exception as e:  # degrade per-file, never crash the lane
                print(f"determinism_analyzer: libclang pass failed on "
                      f"{ctx.path}: {e}", file=sys.stderr)

    # Union-dedupe: structural + AST passes often agree on a line.
    seen: set[tuple[str, int, str, bool]] = set()
    unique: list[Finding] = []
    for f in findings:
        key = (str(f.path), f.line, f.rule, f.suppressed)
        if key not in seen:
            seen.add(key)
            unique.append(f)

    return report("determinism_analyzer.py", args.root, files, RULES, unique,
                  args.json, extra={"mode": mode})


if __name__ == "__main__":
    sys.exit(main())
