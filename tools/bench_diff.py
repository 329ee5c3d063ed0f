#!/usr/bin/env python3
"""Compare two mst.bench JSON reports: fingerprints, p50 and p99 timings.

Usage: tools/bench_diff.py BASELINE.json NEW.json [options]

  --threshold X        regression ratio that fails the diff, applied to
                       p50 AND p99 alike (default 1.25; the tail gets
                       gated with the same teeth as the median). p95/p99
                       columns appear when both reports carry them
                       (schema v4+); diffing against an older v3
                       baseline gates p50 only.
  --advisory-timings   print timing deltas but never fail on them
                       (for shared CI runners whose clocks are noisy;
                       fingerprints stay strict — integer keys exact,
                       devices_per_hour within a small relative
                       tolerance for cross-toolchain libm drift)
  --markdown           render the per-scenario comparison as a GitHub
                       markdown table (p50s and speedup = base/new),
                       ready to paste into a PR description; exit-code
                       semantics are identical to the plain output
  --stats              also compare each scenario's optimizer_stats
                       counters exactly, every key except "threads"; a
                       drift fails like a fingerprint mismatch (exit 2).
                       For two runs of one build at different thread
                       counts, whose work counters must agree

Scenarios are matched by name; the comparison covers the intersection,
so a --quick run can be diffed against the committed full-suite
baseline — scenarios entirely absent from one report are listed but
not compared. A scenario present in BOTH reports that was ok in the
baseline but failed in the new run is a hard failure (exit 2): a
crash regression must not slip through as "not compared". Exit codes:
0 clean, 1 timing regression beyond the threshold, 2 fingerprint
mismatch, optimizer_stats drift (--stats), ok->failing regression, or
malformed input. A code-2 failure
always wins over a timing exit code: a fast wrong answer is the worst
outcome a perf PR can ship. Stdlib-only on purpose.
"""
import argparse
import json
import math
import sys

FINGERPRINT_KEYS = ("sites", "channels_per_site", "test_cycles", "devices_per_hour")
# devices_per_hour is the one float fingerprint key (libm-derived, %.6g
# serialized): compare it with a relative tolerance so toolchain
# floating-point drift between the baseline machine and a CI runner
# cannot hard-fail the gate. The integer keys stay exact — a real answer
# change moves test_cycles/sites long before it moves only the float.
FLOAT_KEYS = {"devices_per_hour"}
FLOAT_REL_TOL = 1e-4
# The certify suite's per-scenario "exact" block is part of the
# fingerprint family and is compared strictly, every key exact: a
# bnb_nodes drift means the B&B lost its thread-count determinism, a
# wires/gap drift means the certified answer changed. Either is a
# hard failure (exit 2), never a timing advisory.
EXACT_KEYS = ("exact_wires", "step1_wires", "binpack_wires",
              "lower_bound_wires", "exact_gap", "bnb_nodes", "certified")


def exact_blocks_match(old_case, new_case):
    """True when the scenarios' exact blocks agree (both absent counts)."""
    old_exact = old_case.get("exact")
    new_exact = new_case.get("exact")
    if (old_exact is None) != (new_exact is None):
        return False
    if old_exact is None:
        return True
    return all(old_exact.get(key) == new_exact.get(key) for key in EXACT_KEYS)


def stats_match(old_case, new_case):
    """True when the optimizer_stats counters agree, every key but threads."""
    old_stats = old_case.get("optimizer_stats") or {}
    new_stats = new_case.get("optimizer_stats") or {}
    keys = (set(old_stats) | set(new_stats)) - {"threads"}
    return all(old_stats.get(key) == new_stats.get(key) for key in keys)


def fingerprints_match(old_fp, new_fp):
    for key in FINGERPRINT_KEYS:
        if key in FLOAT_KEYS:
            if not math.isclose(old_fp[key], new_fp[key], rel_tol=FLOAT_REL_TOL):
                return False
        elif old_fp[key] != new_fp[key]:
            return False
    return True


def fail(message):
    print(f"bench_diff: {message}", file=sys.stderr)
    sys.exit(2)


def load_report(path):
    try:
        with open(path, encoding="utf-8") as handle:
            report = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        fail(f"cannot read {path}: {error}")
    if not isinstance(report, dict) or report.get("schema") != "mst.bench":
        fail(f"{path} is not an mst.bench report")
    scenarios = {}
    for scenario in report.get("scenarios", []):
        name = scenario.get("name") if isinstance(scenario, dict) else None
        if not isinstance(name, str) or not name:
            fail(f"{path} has a scenario entry without a name")
        scenarios[name] = scenario
    if not any(s.get("ok") for s in scenarios.values()):
        fail(f"{path} has no successful scenarios")
    return scenarios


def tail_value(case, key):
    """Optional timing key: None when the report predates schema v4."""
    timing = case.get("wall_seconds")
    value = timing.get(key) if isinstance(timing, dict) else None
    return value if isinstance(value, (int, float)) else None


def scenario_field(path, name, case, *keys):
    """Walk nested keys with a clean diagnostic instead of a KeyError."""
    value = case
    for key in keys:
        if not isinstance(value, dict) or key not in value:
            fail(f"{path}: scenario '{name}' lacks '{'.'.join(keys)}'")
        value = value[key]
    return value


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("baseline")
    parser.add_argument("new")
    parser.add_argument("--threshold", type=float, default=1.25)
    parser.add_argument("--advisory-timings", action="store_true")
    parser.add_argument("--markdown", action="store_true")
    parser.add_argument("--stats", action="store_true")
    args = parser.parse_args()
    if args.threshold <= 0:
        fail("--threshold must be positive")

    baseline = load_report(args.baseline)
    new = load_report(args.new)
    shared = [name for name in new if name in baseline]
    if not shared:
        fail("the reports share no scenario names")

    broken = []  # ok in the baseline, failing in the new report
    mismatches = []
    drifts = []  # optimizer_stats differ (--stats)
    regressions = []
    compared = 0
    width = max(len(name) for name in shared)
    if args.markdown:
        print("| scenario | base p50 | new p50 | speedup | base p99 | new p99 | "
              "p99 ratio | fingerprint |")
        print("|---|---:|---:|---:|---:|---:|---:|---|")
    else:
        print(f"{'scenario':{width}}  {'base p50':>10}  {'new p50':>10}  {'ratio':>7}  "
              f"{'base p99':>10}  {'new p99':>10}  {'p99 rat':>7}  fingerprint")
    for name in shared:
        old_case, new_case = baseline[name], new[name]
        if not old_case.get("ok"):
            error = old_case.get("error", "no error recorded")
            if args.markdown:
                print(f"| {name} | baseline failed ({error}) | — | — | not compared |")
            else:
                print(f"{name:{width}}  baseline run failed ({error}); not compared")
            continue
        if not new_case.get("ok"):
            broken.append(name)
            error = new_case.get("error", "no error recorded")
            if args.markdown:
                print(f"| {name} | ok | **FAILED**: {error} | — | — |")
            else:
                print(f"{name:{width}}  ok in baseline but FAILED in new report: {error}")
            continue
        compared += 1
        old_fp = {k: scenario_field(args.baseline, name, old_case, "fingerprint", k)
                  for k in FINGERPRINT_KEYS}
        new_fp = {k: scenario_field(args.new, name, new_case, "fingerprint", k)
                  for k in FINGERPRINT_KEYS}
        fp_ok = fingerprints_match(old_fp, new_fp) and exact_blocks_match(old_case, new_case)
        if not fp_ok:
            mismatches.append(name)
        stats_ok = not args.stats or stats_match(old_case, new_case)
        if not stats_ok:
            drifts.append(name)
        verdict = "ok" if fp_ok and stats_ok else ("MISMATCH" if not fp_ok else "STATS DRIFT")
        old_p50 = scenario_field(args.baseline, name, old_case, "wall_seconds", "p50_s")
        new_p50 = scenario_field(args.new, name, new_case, "wall_seconds", "p50_s")
        ratio = new_p50 / old_p50 if old_p50 > 0 else float("inf")
        if ratio > args.threshold:
            regressions.append((name, "p50", ratio))
        # Tail gate: same threshold and exit code as p50. Only when both
        # reports carry percentiles (a v3 baseline has none).
        old_p99, new_p99 = tail_value(old_case, "p99_s"), tail_value(new_case, "p99_s")
        p99_ratio = None
        if old_p99 is not None and new_p99 is not None:
            p99_ratio = new_p99 / old_p99 if old_p99 > 0 else float("inf")
            if p99_ratio > args.threshold:
                regressions.append((name, "p99", p99_ratio))
        if args.markdown:
            speedup = old_p50 / new_p50 if new_p50 > 0 else float("inf")
            if p99_ratio is None:
                p99_cells = "— | — | —"
            else:
                p99_cells = (f"{old_p99 * 1e3:.3f} ms | {new_p99 * 1e3:.3f} ms | "
                             f"{p99_ratio:.2f}x")
            print(f"| {name} | {old_p50 * 1e3:.3f} ms | {new_p50 * 1e3:.3f} ms | "
                  f"{speedup:.2f}x | {p99_cells} | "
                  f"{verdict if verdict == 'ok' else f'**{verdict}**'} |")
        else:
            if p99_ratio is None:
                p99_cells = f"{'—':>10}  {'—':>10}  {'—':>7}"
            else:
                p99_cells = (f"{old_p99 * 1e3:9.3f}ms  {new_p99 * 1e3:9.3f}ms  "
                             f"{p99_ratio:6.2f}x")
            print(f"{name:{width}}  {old_p50 * 1e3:9.3f}ms  {new_p50 * 1e3:9.3f}ms  "
                  f"{ratio:6.2f}x  {p99_cells}  {verdict}")

    only_old = sorted(set(baseline) - set(new))
    only_new = sorted(set(new) - set(baseline))
    if only_old:
        print(f"baseline-only scenarios (not compared): {', '.join(only_old)}")
    if only_new:
        print(f"new-only scenarios (not compared): {', '.join(only_new)}")

    if broken:
        print(f"FAIL: {len(broken)} scenario(s) ok in baseline but failing in the new "
              f"report: {', '.join(broken[:5])}", file=sys.stderr)
        sys.exit(2)
    if mismatches:
        print(f"FAIL: fingerprint mismatch in {len(mismatches)} scenario(s): "
              f"{', '.join(mismatches[:5])}", file=sys.stderr)
        sys.exit(2)
    if drifts:
        print(f"FAIL: optimizer_stats drift in {len(drifts)} scenario(s): "
              f"{', '.join(drifts[:5])}", file=sys.stderr)
        sys.exit(2)
    if regressions:
        worst = max(regressions, key=lambda r: r[2])
        message = (f"{len(regressions)} timing regression(s) beyond {args.threshold}x "
                   f"(worst: {worst[0]} {worst[1]} at {worst[2]:.2f}x)")
        if args.advisory_timings:
            print(f"ADVISORY: {message}")
        else:
            print(f"FAIL: {message}", file=sys.stderr)
            sys.exit(1)
    stats_note = ", optimizer_stats identical" if args.stats else ""
    print(f"OK: {compared} scenario(s) compared, fingerprints identical{stats_note}")


if __name__ == "__main__":
    main()
