#!/usr/bin/env python3
"""Compare two BENCH_scale.json files and fail on metric regressions.

Usage:
  tools/bench_compare.py BASELINE CURRENT [--metric bytes_per_round]
                         [--tolerance 0.10] [--peers 1000]
                         [--parallelism 1]

Configs are matched on (topology, peers, parallelism, value_budget) — the
budget defaults to 0 for pre-v5 baselines, so exact rows keep matching
across schema versions while quantized rows only ever compare against
quantized rows. Rows present in only one file are ignored (the CI smoke
run covers a subset of the checked-in sweep). For each matched pair the relative *regression* of `--metric` over
the baseline is computed — an increase for lower-is-better metrics
(bytes_per_round, value_bytes_per_round, ...), a decrease for
higher-is-better ones (rounds_per_sec, speedup_vs_serial) — and any
regression above `--tolerance` fails the run with a per-config report.

A zero baseline (a byte column the encoding has driven to nothing) is a
hard floor: any nonzero current value counts as an unbounded regression
rather than being silently skipped.

The Byzantine-resilience floors are additionally re-checked on the
CURRENT file regardless of the baseline: every `adversary_runs` row
(schema v6+) must keep demotion recall >= 0.95 and
honest_posterior_delta <= 0.25, and the clean guarded row must keep
false_positive_rate < 0.01. The fault sweep's error ceiling is enforced
by bench_scale_10k's own exit code, not here. A current file that
*dropped* (or emptied) `adversary_runs` or `fault_runs` while the
baseline has rows in it is an error — a sweep must not silently
disappear.
"""

import argparse
import json
import sys

# Metrics where bigger numbers are good; everything else is lower-is-better.
HIGHER_IS_BETTER = {"rounds_per_sec", "speedup_vs_serial"}


def load_configs(path, peers_filter, parallelism_filter):
    with open(path) as f:
        data = json.load(f)
    configs = {}
    for row in data.get("configs", []):
        if peers_filter is not None and row["peers"] != peers_filter:
            continue
        if (parallelism_filter is not None
                and row["parallelism"] != parallelism_filter):
            continue
        configs[(row["topology"], row["peers"], row["parallelism"],
                 row.get("value_budget", 0))] = row
    return data.get("schema_version"), configs, data


RECALL_FLOOR = 0.95
HONEST_DELTA_CEILING = 0.25
FALSE_POSITIVE_CEILING = 0.01


def section_rows(name, base_data, cur_data):
    """The CURRENT file's `name` rows, or None when the baseline has rows
    there that CURRENT dropped (reported as a failure)."""
    cur_runs = cur_data.get(name) or []
    if not cur_runs and base_data.get(name):
        print(f"[FAIL] baseline has {name} but current dropped the section")
        return None
    return cur_runs


def check_adversary_runs(base_data, cur_data):
    """Absolute Byzantine-resilience floors on the current file.

    Returns the number of failures.
    """
    cur_runs = section_rows("adversary_runs", base_data, cur_data)
    if cur_runs is None:
        return 1
    failures = 0
    for run in cur_runs:
        fraction = run.get("byzantine_fraction", 0.0)
        if run.get("adversary_count", 0) == 0:
            fp = run.get("false_positive_rate", 0.0)
            verdict = "FAIL" if fp >= FALSE_POSITIVE_CEILING else "ok"
            print(f"[{verdict}] adversary clean run: false positives "
                  f"{fp:.2%} (< {FALSE_POSITIVE_CEILING:.0%} required)")
            failures += verdict == "FAIL"
            continue
        recall = run.get("demotion_recall", 0.0)
        verdict = "FAIL" if recall < RECALL_FLOOR else "ok"
        print(f"[{verdict}] adversary {fraction:.0%} run: demotion recall "
              f"{recall:.2%} (>= {RECALL_FLOOR:.0%} required)")
        failures += verdict == "FAIL"
        delta = run.get("honest_posterior_delta", 0.0)
        verdict = "FAIL" if delta > HONEST_DELTA_CEILING else "ok"
        print(f"[{verdict}] adversary {fraction:.0%} run: honest posterior "
              f"drift {delta:.3f} (<= {HONEST_DELTA_CEILING} required)")
        failures += verdict == "FAIL"
    return failures


def regression(metric, base_value, cur_value):
    """Relative regression of `cur_value` vs `base_value` (positive = worse)."""
    if base_value == 0:
        # Lower-is-better from a zero baseline is a hard floor: any nonzero
        # value is an unbounded regression. Higher-is-better from zero can
        # only improve or stay put.
        if metric in HIGHER_IS_BETTER:
            return 0.0
        return float("inf") if cur_value > 0 else 0.0
    if metric in HIGHER_IS_BETTER:
        return (base_value - cur_value) / base_value
    return (cur_value - base_value) / base_value


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--metric", default="bytes_per_round")
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="max allowed relative regression (0.10 = 10%%)")
    parser.add_argument("--peers", type=int, default=None,
                        help="only compare configs with this peer count")
    parser.add_argument("--parallelism", type=int, default=None,
                        help="only compare configs with this parallelism")
    args = parser.parse_args()

    base_version, baseline, base_data = load_configs(args.baseline, args.peers,
                                                     args.parallelism)
    cur_version, current, cur_data = load_configs(args.current, args.peers,
                                                  args.parallelism)
    if base_version != cur_version:
        print(f"note: schema_version differs (baseline v{base_version}, "
              f"current v{cur_version}); comparing shared fields")

    matched = sorted(set(baseline) & set(current))
    if not matched:
        print("error: no matching (topology, peers, parallelism) configs")
        return 2

    direction = "higher" if args.metric in HIGHER_IS_BETTER else "lower"
    failures = 0
    for key in matched:
        base_row, cur_row = baseline[key], current[key]
        if args.metric not in base_row or args.metric not in cur_row:
            print(f"error: metric '{args.metric}' missing for {key}")
            return 2
        base_value, cur_value = base_row[args.metric], cur_row[args.metric]
        delta = regression(args.metric, base_value, cur_value)
        verdict = "FAIL" if delta > args.tolerance else "ok"
        if verdict == "FAIL":
            failures += 1
        topology, peers, parallelism, value_budget = key
        budget_tag = f" eps={value_budget:.0e}" if value_budget else ""
        print(f"[{verdict}] {topology} n={peers} p={parallelism}{budget_tag} "
              f"{args.metric} ({direction} is better): "
              f"{base_value:.1f} -> {cur_value:.1f} "
              f"(regression {delta:+.1%}, tolerance +{args.tolerance:.0%})")

    adversary_failures = check_adversary_runs(base_data, cur_data)
    fault_sweep_dropped = section_rows("fault_runs", base_data,
                                       cur_data) is None
    if failures or adversary_failures or fault_sweep_dropped:
        if failures:
            print(f"{failures}/{len(matched)} configs regressed on "
                  f"'{args.metric}'")
        if adversary_failures:
            print(f"{adversary_failures} Byzantine-resilience floors broken")
        return 1
    print(f"all {len(matched)} matched configs within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
