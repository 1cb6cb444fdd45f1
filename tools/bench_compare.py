#!/usr/bin/env python3
"""Compare a bench observability document against a checked-in baseline.

Both inputs are dta-observability-v1 JSON documents (what bench_pipeline
writes and dta_cli --metrics-json exports). The comparison gates:

  counters   deterministic work counts (what-if calls per scenario). These
             are thread-count and machine invariant, so any growth beyond
             --tolerance-pct is a real regression (more optimizer calls for
             the same workload). Shrinkage is reported as an improvement and
             prompts a baseline refresh, but does not fail.
  gauges     *.wall_ms wall-clock gauges, gated at --wall-tolerance-pct
             (runner-dependent; use a wider tolerance in CI, or skip them
             entirely with --ignore-wall-clock for sanitizer/debug builds).
             bench.checkpoint_overhead_pct is gated against the absolute
             ceiling --max-checkpoint-overhead-pct (the ROADMAP target is
             < 1%; the default ceiling leaves headroom for runner noise).
             bench.shard_failover_overhead_pct (extra wall-clock of the
             sharded run with a fault-killed shard over the healthy sharded
             run) is gated against --max-shard-failover-overhead-pct.
             bench.failslow_isolation_overhead_pct (extra wall-clock of the
             sharded run with one fail-slow shard demoted by the slowness
             detector, over the healthy sharded run) is gated against
             --max-failslow-isolation-overhead-pct.
             bench.whatif_calls_saved_pct (real what-if calls the derived
             costing layer avoided, vs the derivation-off run) is
             counter-derived — machine invariant — and gated against the
             floor --min-whatif-calls-saved-pct even when wall-clock gates
             are skipped.
             bench.checkpoint.delta_bytes_per_round (average bytes the
             continuous-service scenario appends to its delta log per
             round) is byte-derived — machine invariant — and gated against
             the ceiling --max-delta-bytes-per-round: steady-state rounds
             must stay O(new work), never O(total state).
             Deterministic floor/ceiling gauges are gated off the *current*
             document, so they are enforced even before the baseline learns
             about a new scenario, and they survive --ignore-wall-clock.
             Other gauges (e.g. bench.fault_overhead_pct) are informational.

A baseline key missing from the current document fails (a scenario was
dropped); new keys in the current document warn (the baseline needs a
refresh). Exit codes: 0 ok, 1 regression, 2 bad invocation/input.

Regenerate the baseline with:  bench_pipeline bench/baseline.json
"""

import argparse
import json
import sys

WALL_SUFFIX = ".wall_ms"
CHECKPOINT_GAUGE = "bench.checkpoint_overhead_pct"
SHARD_FAILOVER_GAUGE = "bench.shard_failover_overhead_pct"
FAILSLOW_GAUGE = "bench.failslow_isolation_overhead_pct"
CALLS_SAVED_GAUGE = "bench.whatif_calls_saved_pct"
DELTA_BYTES_GAUGE = "bench.checkpoint.delta_bytes_per_round"


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        sys.stderr.write(f"bench_compare: cannot read {path}: {e}\n")
        sys.exit(2)
    if doc.get("schema") != "dta-observability-v1":
        sys.stderr.write(
            f"bench_compare: {path} is not a dta-observability-v1 document\n")
        sys.exit(2)
    return doc


def pct_change(baseline, current):
    if baseline == 0:
        return 0.0 if current == 0 else float("inf")
    return 100.0 * (current - baseline) / baseline


def main():
    parser = argparse.ArgumentParser(
        description="Gate bench metrics against a checked-in baseline.")
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--tolerance-pct", type=float, default=10.0,
                        help="max allowed counter growth (default 10)")
    parser.add_argument("--wall-tolerance-pct", type=float, default=10.0,
                        help="max allowed *.wall_ms growth (default 10)")
    parser.add_argument("--max-checkpoint-overhead-pct", type=float,
                        default=2.0,
                        help=f"absolute ceiling for {CHECKPOINT_GAUGE} "
                             "(default 2.0; target < 1)")
    parser.add_argument("--max-shard-failover-overhead-pct", type=float,
                        default=25.0,
                        help=f"absolute ceiling for {SHARD_FAILOVER_GAUGE} "
                             "(default 25.0)")
    parser.add_argument("--max-failslow-isolation-overhead-pct", type=float,
                        default=30.0,
                        help=f"absolute ceiling for {FAILSLOW_GAUGE} "
                             "(default 30.0)")
    parser.add_argument("--min-whatif-calls-saved-pct", type=float,
                        default=50.0,
                        help=f"absolute floor for {CALLS_SAVED_GAUGE} "
                             "(default 50.0)")
    parser.add_argument("--max-delta-bytes-per-round", type=float,
                        default=65536.0,
                        help=f"absolute ceiling for {DELTA_BYTES_GAUGE} "
                             "(default 65536)")
    parser.add_argument("--ignore-wall-clock", action="store_true",
                        help="skip every time-derived gate; only the "
                             "deterministic counters gate (for debug or "
                             "sanitizer builds)")
    args = parser.parse_args()

    baseline = load(args.baseline)
    current = load(args.current)
    failures = []

    base_counters = baseline.get("counters", {})
    cur_counters = current.get("counters", {})
    for name in sorted(base_counters):
        if name not in cur_counters:
            failures.append(f"counter {name} missing from current run")
            continue
        change = pct_change(base_counters[name], cur_counters[name])
        line = (f"counter {name}: {base_counters[name]} -> "
                f"{cur_counters[name]} ({change:+.1f}%)")
        if change > args.tolerance_pct:
            failures.append(f"{line} exceeds +{args.tolerance_pct:.0f}%")
        elif change < 0:
            print(f"IMPROVED {line} — consider refreshing the baseline")
        else:
            print(f"ok       {line}")
    for name in sorted(set(cur_counters) - set(base_counters)):
        print(f"NEW      counter {name} = {cur_counters[name]} "
              "(not in baseline)")

    base_gauges = baseline.get("gauges", {})
    cur_gauges = current.get("gauges", {})

    # Deterministic (count- or byte-derived) gauges with an absolute floor
    # or ceiling. Gated off the *current* document — a scenario the baseline
    # does not know about yet is still enforced — and before the wall-clock
    # skip, so debug/sanitizer builds enforce them too.
    floors = {CALLS_SAVED_GAUGE: args.min_whatif_calls_saved_pct}
    ceilings = {DELTA_BYTES_GAUGE: args.max_delta_bytes_per_round}
    # Wall-derived gauges with an absolute ceiling: gated only when the
    # baseline has them and wall-clock gates run.
    wall_ceilings = {
        CHECKPOINT_GAUGE: args.max_checkpoint_overhead_pct,
        SHARD_FAILOVER_GAUGE: args.max_shard_failover_overhead_pct,
        FAILSLOW_GAUGE: args.max_failslow_isolation_overhead_pct,
    }

    def gate_bound(name, value, floors, ceilings):
        """Applies a floor/ceiling gate; False when `name` has none."""
        line = f"gauge {name}: {value:.3f}"
        if name in floors:
            if value < floors[name]:
                failures.append(
                    f"{line} is below the floor {floors[name]:.1f}")
            else:
                print(f"ok       {line} (floor {floors[name]:.1f})")
            return True
        if name in ceilings:
            if value > ceilings[name]:
                failures.append(
                    f"{line} exceeds the absolute ceiling "
                    f"{ceilings[name]:.1f}")
            else:
                print(f"ok       {line} (ceiling {ceilings[name]:.1f})")
            return True
        return False

    for name in sorted(set(base_gauges) | set(cur_gauges)):
        if name not in cur_gauges:
            failures.append(f"gauge {name} missing from current run")
            continue
        if gate_bound(name, cur_gauges[name], floors, ceilings):
            continue
        if name not in base_gauges:
            print(f"NEW      gauge {name} = {cur_gauges[name]:.3f} "
                  "(not in baseline)")
            continue
        if args.ignore_wall_clock:
            continue
        if name.endswith(WALL_SUFFIX):
            change = pct_change(base_gauges[name], cur_gauges[name])
            line = (f"gauge {name}: {base_gauges[name]:.1f} -> "
                    f"{cur_gauges[name]:.1f} ({change:+.1f}%)")
            if change > args.wall_tolerance_pct:
                failures.append(
                    f"{line} exceeds +{args.wall_tolerance_pct:.0f}%")
            else:
                print(f"ok       {line}")
        elif not gate_bound(name, cur_gauges[name], {}, wall_ceilings):
            print(f"info     gauge {name}: {cur_gauges[name]:.3f}")

    if failures:
        for f in failures:
            sys.stderr.write(f"REGRESSION {f}\n")
        return 1
    print("bench_compare: no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
