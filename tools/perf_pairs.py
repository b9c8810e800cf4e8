#!/usr/bin/env python3
"""Compare serial round time between two checkouts on the same machine.

Usage:

    tools/perf_pairs.py BASE_DIR HEAD_DIR

Runs ten alternating pairs of `perfbench/run.py --seconds 4` in each
directory (each with its own build dir, `<dir>/.bench_build`) on the two
serial-round workloads, `er4k-cyc4-solve` (exact values) and
`ba10k-quant-steady` (quantized values), and compares their `round_ms_p50`.
Which side runs first alternates from pair to pair.

A workload fails when the head's median is more than 10% above the base's
and the base's own interquartile range is within 10% of its median. It
also fails, whatever the base's spread, when the median of the ten
head/base ratios is above 1.10 and the head is the slower side in at least
9 of the 10 pairs: pairing cancels the host drift that widens the base's
spread and blurs the two medians. Otherwise, when the base spreads wider
than 10%, the verdict is "unresolved", which still fails if every head run
is slower than every base run. Any run that ends without a correct result
line fails too. Exits 1 on any failure.
"""

import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ("er4k-cyc4-solve", "ba10k-quant-steady")
PAIRS = 10
SECONDS = 4
BOUND = 0.10
METRIC = "round_ms_p50"


def run_once(tree, workload):
    """One timed run in `tree`; returns its round_ms_p50, or None."""
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(tree, ".bench_build"))
    command = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
               "--workload", workload, "--seconds", str(SECONDS),
               "--trace", "0"]
    run = subprocess.run(command, cwd=tree, env=env, capture_output=True,
                         text=True)
    try:
        result = json.loads(run.stdout.splitlines()[-1])
        if run.returncode == 0 and result["correct"] is True:
            return float(result["metrics"][METRIC]["value"])
    except (IndexError, ValueError, KeyError, TypeError):
        pass
    sys.stderr.write(run.stdout + run.stderr)
    print(f"FAIL: {workload} in {tree} gave no correct result line "
          f"(exit {run.returncode})", file=sys.stderr)
    return None


def verdict(base, head):
    """(failed, text) for one workload's paired samples."""
    q1, median, q3 = statistics.quantiles(base, n=4, method="inclusive")
    spread = (q3 - q1) / median
    ratio = statistics.median(head) / median
    paired = statistics.median(h / b for b, h in zip(base, head))
    slower = sum(h > b for b, h in zip(base, head))
    text = (f"base median {median:.3f} ms (IQR {q1:.3f}-{q3:.3f}, "
            f"{spread:.1%}), head median {statistics.median(head):.3f} ms, "
            f"head/base {ratio:.3f}, per pair {paired:.3f}, head slower in "
            f"{slower}/{len(base)} pairs")
    if spread <= BOUND and ratio > 1 + BOUND:
        return True, f"FAIL: {text}: more than {BOUND:.0%} slower"
    if paired > 1 + BOUND and slower >= len(base) - 1:
        return True, f"FAIL: {text}: more than {BOUND:.0%} slower pair by pair"
    if spread <= BOUND:
        return False, f"ok: {text}"
    if min(head) > max(base):
        return True, f"FAIL (unresolved spread): {text}: every head run slower"
    return False, f"unresolved: {text}: base spreads more than {BOUND:.0%}"


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    trees = [os.path.abspath(argv[1]), os.path.abspath(argv[2])]
    failed = False
    for workload in WORKLOADS:
        samples = ([], [])
        for pair in range(PAIRS):
            order = (0, 1) if pair % 2 == 0 else (1, 0)
            for side in order:
                value = run_once(trees[side], workload)
                if value is None:
                    return 1
                samples[side].append(value)
            print(f"{workload} pair {pair + 1}: base {samples[0][-1]:.3f} ms, "
                  f"head {samples[1][-1]:.3f} ms", flush=True)
        workload_failed, text = verdict(*samples)
        print(f"{workload} {METRIC}: {text}", flush=True)
        failed = failed or workload_failed
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
