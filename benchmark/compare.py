#!/usr/bin/env python3
"""Compare two sets of benchmark runs under BENCHMARK.json's bounds.

  python3 benchmark/compare.py PARENT CHANGE
  python3 benchmark/compare.py --write-baseline OUT.json SET [SET ...]
  python3 benchmark/compare.py --selftest

PARENT, CHANGE and SET are directories of run.py result files (run.py
--out-dir) or single result files; only end-to-end (--trace 0) results are
read. For every (workload, end-to-end metric) pair one row gives each side's
median with quartiles and run count, the median change and the verdict:

  better      at least 10 pairs, the change wins >= 9/10 of them (ties
              count for neither) and the medians differ by more than the
              parent's quartile spread
  unresolved  the parent's quartile spread, as a share of its median, is
              wider than the metric's bound, and not every change run beats
              every parent run
  worse       the change's median is worse than the parent's by more than
              the bound
  same        otherwise

Runs pair up in seed order, then in file-name (run) order. The exit status
is 1 when any row is worse, when the change fails a larger share of its ops
than the parent, or when a change run reported failed checks.
"""
import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(paths):
    """Result dicts of the end-to-end runs under `paths`, in run order."""
    runs = []
    for path in map(Path, paths):
        files = sorted(path.glob("*.json")) if path.is_dir() else [path]
        for f in files:
            try:
                run = json.loads(f.read_text())
            except (OSError, ValueError):
                continue
            if run.get("schema") == "groupfel-benchmark-result-v1" and \
                    run.get("trace") == 0:
                run["path"] = str(f)
                runs.append(run)
    runs.sort(key=lambda r: (r["seed"], r["path"]))
    return runs


def by_workload(runs):
    out = {}
    for run in runs:
        out.setdefault(run["workload"], []).append(run)
    return out


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(parent, change, better, bound):
    """Verdict for one metric; `parent`/`change` are values in pair order."""
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q1, p_q3 = quartiles(parent)
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if (len(pairs) >= 10 and wins >= 0.9 * len(pairs) and
            sign * (c_med - p_med) > p_q3 - p_q1):
        return "better", wins, len(pairs)
    spread = (p_q3 - p_q1) / abs(p_med) if p_med else float("inf")
    if spread > bound:
        if min(sign * c for c in change) > max(sign * p for p in parent):
            return "same", wins, len(pairs)
        return "unresolved", wins, len(pairs)
    worse_by = -sign * (c_med - p_med) / abs(p_med) if p_med else 0.0
    if worse_by > bound:
        return "worse", wins, len(pairs)
    return "same", wins, len(pairs)


def failed_share(runs):
    attempted = sum(r["correctness"]["ops_attempted"] for r in runs)
    failed = sum(r["correctness"]["ops_failed"] for r in runs)
    return failed / attempted if attempted else 0.0


def compare(parent_runs, change_runs, spec):
    """Returns (rows, problems): one row per (workload, metric)."""
    rows, problems = [], []
    parent, change = by_workload(parent_runs), by_workload(change_runs)
    for workload in [w["name"] for w in spec["workloads"]]:
        p_runs, c_runs = parent.get(workload, []), change.get(workload, [])
        if not p_runs or not c_runs:
            if p_runs or c_runs:
                problems.append(f"{workload}: runs on one side only")
            continue
        if failed_share(c_runs) > failed_share(p_runs):
            problems.append(f"{workload}: change fails "
                            f"{failed_share(c_runs):.3%} of ops, parent "
                            f"{failed_share(p_runs):.3%}")
        if not all(r["correctness"]["correct"] for r in c_runs):
            problems.append(f"{workload}: a change run reported failed "
                            "checks")
        for m in spec["end_to_end"]:
            p = [r["metrics"][m["name"]]["value"] for r in p_runs]
            c = [r["metrics"][m["name"]]["value"] for r in c_runs]
            v, wins, pairs = verdict(p, c, m["better"], m["bound"])
            rows.append({"workload": workload, "metric": m["name"],
                         "unit": m["unit"], "parent": p, "change": c,
                         "verdict": v, "wins": wins, "pairs": pairs})
            if v == "worse":
                problems.append(f"{workload} {m['name']}: worse by more "
                                f"than {m['bound']:.0%}")
    return rows, problems


def describe(values):
    q1, q3 = quartiles(values)
    return (f"{statistics.median(values):.5g} [{q1:.5g}, {q3:.5g}] "
            f"n={len(values)}")


def print_rows(rows):
    for r in rows:
        p_med = statistics.median(r["parent"])
        delta = (statistics.median(r["change"]) - p_med) / p_med if p_med \
            else 0.0
        print(f"{r['workload']:<17} {r['metric']:<13} "
              f"parent {describe(r['parent'])}  "
              f"change {describe(r['change'])}  {delta:+.2%}  "
              f"wins {r['wins']}/{r['pairs']}  {r['verdict']}")


def write_baseline(out, sets, spec):
    """Median and quartiles per (workload, metric) over every run of every
    set, plus each set's own median, and the context of the first run."""
    all_runs = [load_runs([s]) for s in sets]
    runs = [r for rs in all_runs for r in rs]
    if not runs:
        sys.exit("compare.py: no end-to-end result files")
    baseline = {"context": runs[0]["context"], "seconds": runs[0]["seconds"],
                "seeds": sorted({r["seed"] for r in runs}),
                "sets": [Path(s).name for s in sets], "metrics": {}}
    for workload, w_runs in by_workload(runs).items():
        entry = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in w_runs]
            q1, q3 = quartiles(values)
            entry[m["name"]] = {
                "unit": m["unit"], "median": statistics.median(values),
                "q1": q1, "q3": q3, "n": len(values),
                "set_medians": [
                    statistics.median(r["metrics"][m["name"]]["value"]
                                      for r in rs if r["workload"] == workload)
                    for rs in all_runs
                    if any(r["workload"] == workload for r in rs)]}
        baseline["metrics"][workload] = entry
    Path(out).write_text(json.dumps(baseline, indent=1) + "\n")


def selftest():
    spec = {"workloads": [{"name": "w"}],
            "end_to_end": [{"name": "t", "unit": "s", "better": "lower",
                            "bound": 0.1}]}

    def runs(values, failed=0):
        return [{"workload": "w", "seed": i, "trace": 0,
                 "metrics": {"t": {"value": v}},
                 "correctness": {"correct": failed == 0, "ops_attempted": 10,
                                 "ops_failed": failed}}
                for i, v in enumerate(values)]

    base = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.02]
    cases = [
        ("same", base, [v * 1.02 for v in base], False),
        ("worse", base, [v * 1.2 for v in base], True),
        ("better", base, [v * 0.8 for v in base], False),
        ("same", base[:5], [v * 0.8 for v in base[:5]], False),
        ("unresolved", [1.0, 1.5, 0.7, 1.3, 0.8], [1.2, 1.1, 1.4, 0.9, 1.3],
         False),
        ("same", [1.0, 1.5, 0.7, 1.3, 0.8], [0.5, 0.6, 0.55, 0.6, 0.5], False),
    ]
    for want, p, c, want_problem in cases:
        rows, problems = compare(runs(p), runs(c), spec)
        assert rows[0]["verdict"] == want, (want, rows[0]["verdict"], p, c)
        assert bool(problems) == want_problem, (want, problems)
    _, problems = compare(runs(base), runs(base, failed=1), spec)
    assert problems and "fails" in problems[0], problems
    # Higher is better flips every direction.
    spec["end_to_end"][0]["better"] = "higher"
    rows, _ = compare(runs(base), runs([v * 1.2 for v in base]), spec)
    assert rows[0]["verdict"] == "better", rows[0]["verdict"]
    rows, problems = compare(runs(base), runs([v * 0.8 for v in base]), spec)
    assert rows[0]["verdict"] == "worse" and problems
    print("compare.py --selftest: ok")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("sets", nargs="*", help="result directories or files")
    ap.add_argument("--spec", default=str(ROOT / "BENCHMARK.json"))
    ap.add_argument("--write-baseline", metavar="OUT")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    spec = json.loads(Path(args.spec).read_text())
    if args.write_baseline:
        if not args.sets:
            ap.error("--write-baseline needs at least one result set")
        write_baseline(args.write_baseline, args.sets, spec)
        return 0
    if len(args.sets) != 2:
        ap.error("need PARENT and CHANGE")
    rows, problems = compare(load_runs([args.sets[0]]),
                             load_runs([args.sets[1]]), spec)
    print_rows(rows)
    for p in problems:
        print(f"compare.py: FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
