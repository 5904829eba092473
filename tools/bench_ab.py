#!/usr/bin/env python3
"""bench_ab: A/B two builds of a google-benchmark binary on one host.

One run of a micro benchmark cannot tell a code change from host drift:
the same binary can read 20-40 % apart from one minute to the next on a
shared machine.  This script runs a base binary and a changed binary
alternately, N rounds (default 9) of 3 repetitions, flipping which goes
first each round, and reports per round the median of each side's
repetitions and which side won, then how many rounds each side won and
the median over rounds of new / base.  A change is faster only if it
wins most rounds, not if one run happens to read lower.

    tools/bench_ab.py BASE_BINARY NEW_BINARY \\
        --benchmark_filter='CascadeTrackerReplay/100000' \\
        [--rounds 9] [--metric cpu_time|real_time|COUNTER]

`--metric` names a field of google-benchmark's JSON output: a time
(`cpu_time`, the default, or `real_time`, in the benchmark's unit) or a
user counter such as `ns_per_event`; lower is better.  `--self-test`
checks the JSON parsing and the round tally on canned output and exits.
"""

import argparse
import json
import statistics
import subprocess
import sys

REPETITIONS = 3


def medians(report, metric):
    """Per benchmark name, the median of `metric` over its repetitions."""
    values = {}
    for bench in report.get("benchmarks", []):
        if bench.get("run_type", "iteration") != "iteration":
            continue  # mean/median/stddev/cv aggregates
        name = bench.get("run_name", bench["name"])
        if metric not in bench:
            raise KeyError(f"{name} reports no '{metric}'")
        values.setdefault(name, []).append(float(bench[metric]))
    return {name: statistics.median(v) for name, v in values.items()}


def run(binary, flt):
    cmd = [binary, f"--benchmark_filter={flt}", "--benchmark_format=json",
           f"--benchmark_repetitions={REPETITIONS}"]
    out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True).stdout
    return json.loads(out)


def tally(rounds):
    """rounds: list of (base_medians, new_medians).  Per benchmark name:
    (base median over rounds, new median over rounds, median over rounds
    of new / base, rounds new won, rounds base won).  The ratio pairs the
    two sides of one round, so drift between rounds cancels."""
    summary = {}
    names = sorted(set().union(*(set(b) & set(n) for b, n in rounds)))
    for name in names:
        pairs = [(b[name], n[name]) for b, n in rounds if name in b and name in n]
        new_wins = sum(n < b for b, n in pairs)
        base_wins = sum(b < n for b, n in pairs)
        summary[name] = (statistics.median(b for b, _ in pairs),
                         statistics.median(n for _, n in pairs),
                         statistics.median(n / b for b, n in pairs), new_wins, base_wins)
    return summary


def self_test():
    def report(name, values):
        return {"benchmarks": [
            {"name": name, "run_name": name, "run_type": "iteration", "cpu_time": v,
             "ns_per_event": v / 10} for v in values] + [
            {"name": name + "_median", "run_name": name, "run_type": "aggregate",
             "cpu_time": -1.0}]}
    base = medians(report("BM_A/1", [5.0, 9.0, 7.0]), "cpu_time")
    assert base == {"BM_A/1": 7.0}, base
    assert medians(report("BM_A/1", [5.0, 9.0, 7.0]), "ns_per_event") == {"BM_A/1": 0.7}
    rounds = [({"BM_A/1": 8.0}, {"BM_A/1": 6.0}),
              ({"BM_A/1": 4.0}, {"BM_A/1": 5.0}),
              ({"BM_A/1": 10.0}, {"BM_A/1": 5.0})]
    assert tally(rounds) == {"BM_A/1": (8.0, 5.0, 0.75, 2, 1)}, tally(rounds)
    try:
        medians(report("BM_A/1", [1.0]), "bytes")
    except KeyError:
        pass
    else:
        raise AssertionError("a missing metric must fail")
    print("bench_ab self-test: ok")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", nargs="?")
    parser.add_argument("new", nargs="?")
    parser.add_argument("--benchmark_filter", default=".")
    parser.add_argument("--rounds", type=int, default=9)
    parser.add_argument("--metric", default="cpu_time")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        self_test()
        return 0
    if not args.base or not args.new or args.rounds < 1:
        parser.error("need BASE and NEW binaries and --rounds >= 1")

    rounds = []
    for r in range(args.rounds):
        order = [("base", args.base), ("new", args.new)]
        if r % 2 == 1:
            order.reverse()
        result = {}
        for side, binary in order:
            result[side] = medians(run(binary, args.benchmark_filter), args.metric)
        rounds.append((result["base"], result["new"]))
        for name in sorted(result["base"].keys() & result["new"].keys()):
            b, n = result["base"][name], result["new"][name]
            winner = "new" if n < b else "base" if b < n else "tie"
            print(f"round {r + 1} ({order[0][0]} first) {name} {args.metric}: "
                  f"base {b:.4g}  new {n:.4g}  -> {winner}", flush=True)

    print(f"\n{args.rounds} rounds of {REPETITIONS} repetitions, "
          f"{args.metric}, lower is better")
    for name, (b, n, ratio, new_wins, base_wins) in tally(rounds).items():
        print(f"{name}: median base {b:.4g}, new {n:.4g}; per round, new/base "
              f"median {(ratio - 1) * 100:+.1f} %; "
              f"new won {new_wins}, base won {base_wins} of {args.rounds} rounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
