#!/usr/bin/env python3
"""bench_ab: A/B two builds on one host, a micro benchmark or bench_e2e.

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
user counter such as `ns_per_event`; lower is better.

The end-to-end mode A/Bs two checkouts (a parent and a change) with
bench_e2e:

    tools/bench_ab.py --e2e PARENT_DIR CHANGE_DIR --first-seed S \\
        [--pairs 10] [--workloads ingest_replay,...]

Per workload it runs N pairs, seeds S, S + 1, ..., both sides on one seed
and the side that goes first alternating, each run `python3
bench_e2e/run.py --workload W --seed SEED --seconds T --trace 0` from the
checkout's root, T being BENCHMARK.json's run_seconds (run.py builds
under the directory it runs from, so the two builds stay apart).  Pick
seeds not used while the change was written.  Per workload and end-to-end metric of
PARENT_DIR/BENCHMARK.json it prints both medians, the parent's quartiles,
the pairs the change won, the failed operations of each side, whether the
change is worse than the metric's bound, and whether it is a clear gain:
at least 10 pairs, better in at least 9 of 10, no more failed operations
than the parent, and medians further apart than the parent's
interquartile range.  Under that table, a second one shows every metric
of the report line's `end_to_end` that BENCHMARK.json does not declare
(such as `scan_p50_ms`, `batch_query_p50_us`, `checkpoint_s`): both
medians, the parent's quartiles and the pairs the change won, lower
being better unless the name ends in `_per_s`; reported, not gated, so
with no bound or gain verdict.  A run that prints no result line stops
the A/B with the checkout, workload and seed, and the tail of its
stderr.

The record mode runs every workload of one checkout N times and writes
the trajectory file:

    tools/bench_ab.py --record BENCH_e2e.json --runs N [--first-seed S] \\
        [--workloads ...] [CHECKOUT]

Each run is `bench_e2e/run.py --trace 0` at BENCHMARK.json's
run_seconds, seeds S.. (default 1), from CHECKOUT (default the current
directory).  Per workload and end-to-end metric the file holds every
run's value, the median and the CV (interquartile range / median), the
seeds and each run's failed operations, and the machine: nproc, CPU
model and compiler (as bench_e2e reports them) and the checkout's `git
describe --always --dirty`.  That names only the commit below an
uncommitted change, so the file also holds the git tree id of the
measured code, `src` and `bench_e2e`, as the checkout held it: once that
state is committed, `git rev-parse COMMIT:src` gives the same id.

`--self-test` checks the JSON parsing, the round tally, the end-to-end
tally and verdicts, the reported-only table, and the record's
aggregation on canned output, and the message of a run that prints no
result line, and exits.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

REPETITIONS = 3
GAIN_WIN_SHARE = 0.9
GAIN_MIN_PAIRS = 10
STDERR_TAIL_LINES = 20


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


def parse_result(stdout):
    """The result object bench_e2e prints as its last line of stdout."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("bench_e2e printed nothing")
    result = json.loads(lines[-1])
    if "metrics" not in result or "failed" not in result:
        raise ValueError(f"not a bench_e2e result line: {lines[-1][:200]}")
    return result


def parse_report(stdout):
    """bench_e2e's report line, the one that carries a `context` (machine
    and settings), or {} when no line does."""
    for line in stdout.splitlines():
        if line.startswith("{") and '"context"' in line:
            return json.loads(line)
    return {}


def run_e2e(checkout, workload, seed, seconds):
    """The run's result line, with its report line's context under
    "context" and its finite end_to_end values under "reported"."""
    cmd = [sys.executable, "bench_e2e/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    try:
        result = parse_result(proc.stdout)
        report = parse_report(proc.stdout)
        result["context"] = report.get("context", {})
        result["reported"] = {name: m["value"]
                              for name, m in report.get("end_to_end", {}).items()
                              if m["value"] is not None}
        return result
    except ValueError as err:
        tail = "\n".join(proc.stderr.splitlines()[-STDERR_TAIL_LINES:])
        raise SystemExit(f"bench_ab: {workload} seed {seed} in {checkout} "
                         f"(exit status {proc.returncode}): {err}\n{tail}")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def compare(values, higher):
    """values: (parent, change) pairs of one metric.  Both medians, the
    parent's quartiles, the pairs the change won and the pairs counted."""
    parent = [p for p, _ in values]
    q1, q3 = quartiles(parent)
    return {"parent": statistics.median(parent),
            "change": statistics.median(c for _, c in values), "q1": q1, "q3": q3,
            "wins": sum((c > p) if higher else (c < p) for p, c in values),
            "n": len(values)}


def e2e_tally(pairs, metrics):
    """pairs: list of (parent_result, change_result) of one workload, as
    parse_result returns them; metrics: BENCHMARK.json's end_to_end list.
    Per metric both sides report: compare()'s row, each side's failed
    operations, `worse` (the change's median is worse than the parent's
    by more than the metric's relative bound) and `gain` (at least
    GAIN_MIN_PAIRS pairs, the change won at least GAIN_WIN_SHARE of them
    and failed no more operations than the parent, and the medians differ
    in its favour by more than the parent's interquartile range)."""
    failed = (sum(p["failed"] for p, _ in pairs), sum(c["failed"] for _, c in pairs))
    rows = {}
    for metric in metrics:
        name = metric["name"]
        higher = metric["better"] == "higher"
        values = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                  for p, c in pairs if name in p["metrics"] and name in c["metrics"]]
        if not values:
            continue
        row = compare(values, higher)
        # How much worse the change's median is, relative to the parent's.
        p_med, c_med = row["parent"], row["change"]
        loss = (p_med - c_med) if higher else (c_med - p_med)
        rel_loss = loss / abs(p_med) if p_med != 0 else (math.inf if loss > 0 else 0.0)
        rows[name] = dict(
            row, failed=failed, worse=rel_loss > metric["bound"],
            gain=(len(values) >= GAIN_MIN_PAIRS and failed[1] <= failed[0]
                  and row["wins"] >= math.ceil(GAIN_WIN_SHARE * len(values))
                  and -loss > row["q3"] - row["q1"]))
    return rows


def reported_tally(pairs, metrics):
    """pairs as for e2e_tally, each result with its report line's values
    under "reported" (run_e2e).  Per report-line metric that `metrics`
    (BENCHMARK.json's end_to_end list) does not declare, compare()'s row,
    lower being better unless the name ends in `_per_s`."""
    gated = {m["name"] for m in metrics}
    names = set().union(*(p.get("reported", {}).keys() & c.get("reported", {}).keys()
                          for p, c in pairs)) - gated
    return {name: compare([(p["reported"][name], c["reported"][name]) for p, c in pairs
                           if name in p.get("reported", {})
                           and name in c.get("reported", {})],
                          name.endswith("_per_s"))
            for name in sorted(names)}


def format_rows(workload, rows):
    lines = []
    for name, r in rows.items():
        delta = (r["change"] / r["parent"] - 1) * 100 if r["parent"] != 0 else math.nan
        line = (f"| {workload} | {name} | {r['parent']:.4g} | {r['change']:.4g} | "
                f"{delta:+.1f} % | {r['q1']:.4g}-{r['q3']:.4g} | {r['wins']}/{r['n']} |")
        if "failed" in r:
            line += (f" {r['failed'][0]}/{r['failed'][1]} | "
                     f"{'WORSE' if r['worse'] else 'ok'} | {'yes' if r['gain'] else 'no'} |")
        lines.append(line)
    return lines


TABLE_HEADER = [
    "| workload | metric | parent median | change median | change | parent Q1-Q3 "
    "| change won | failed ops parent/change | bound | clear gain |",
    "|---|---|---|---|---|---|---|---|---|---|",
]

REPORTED_HEADER = [
    "| workload | metric | parent median | change median | change | parent Q1-Q3 "
    "| change won |",
    "|---|---|---|---|---|---|---|",
]


def run_e2e_ab(args):
    with open(os.path.join(args.base, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    metrics = benchmark["end_to_end"]
    seconds = benchmark["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in benchmark["workloads"]])
    table = []
    reported = []
    for workload in workloads:
        pairs = []
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = [("parent", args.base), ("change", args.new)]
            if i % 2 == 1:
                order.reverse()
            result = {side: run_e2e(checkout, workload, seed, seconds)
                      for side, checkout in order}
            pairs.append((result["parent"], result["change"]))
            summary = "  ".join(
                f"{name} {result['parent']['metrics'][name]['value']:.4g}/"
                f"{result['change']['metrics'][name]['value']:.4g}"
                for name in sorted(result["parent"]["metrics"])
                if name in result["change"]["metrics"])
            print(f"{workload} seed {seed} ({order[0][0]} first) parent/change: {summary}"
                  f"  failed {result['parent']['failed']}/{result['change']['failed']}",
                  flush=True)
        table += format_rows(workload, e2e_tally(pairs, metrics))
        reported += format_rows(workload, reported_tally(pairs, metrics))
    print(f"\n{args.pairs} pairs per workload, seeds {args.first_seed}-"
          f"{args.first_seed + args.pairs - 1}, {seconds} s runs")
    print("\n".join(TABLE_HEADER + table))
    print("\nReported, not gated (BENCHMARK.json declares no bound for these; "
          "lower is better unless the name ends in _per_s):")
    print("\n".join(REPORTED_HEADER + reported))
    return 0


def record_summary(results, metrics):
    """results: one workload's runs, as run_e2e returns them; metrics:
    BENCHMARK.json's end_to_end list.  Per metric the runs report: the
    unit, which way is better, every run's value, the median and the CV
    (interquartile range / median)."""
    summary = {}
    for metric in metrics:
        name = metric["name"]
        runs = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
        if not runs:
            continue
        median = statistics.median(runs)
        q1, q3 = quartiles(runs)
        summary[name] = {"unit": metric["unit"], "better": metric["better"],
                         "runs": runs, "median": median,
                         "cv": (q3 - q1) / abs(median) if median != 0 else 0.0}
    return summary


def git_describe(checkout):
    proc = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=checkout,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


MEASURED_DIRS = ("src", "bench_e2e")


def git_trees(checkout, dirs=MEASURED_DIRS):
    """Each directory's git tree id as the checkout holds it, uncommitted
    and untracked (not ignored) files included: the id `git rev-parse
    COMMIT:DIR` gives for a commit of that state.  Staged in an index of
    its own, so the checkout's index is not touched.  {} unless CHECKOUT
    is the root of a git work tree with a commit."""
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, GIT_INDEX_FILE=os.path.join(tmp, "index"))

        def git(*argv):
            proc = subprocess.run(["git", *argv], cwd=checkout, env=env, text=True,
                                  stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
            return proc.stdout.strip() if proc.returncode == 0 else None

        if (git("rev-parse", "--show-prefix") != "" or git("read-tree", "HEAD") is None
                or git("add", "-A", "--", *dirs) is None):
            return {}
        return {d: git("write-tree", f"--prefix={d}/") for d in dirs}


def run_record(args):
    checkout = args.base or "."
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    metrics = benchmark["end_to_end"]
    seconds = benchmark["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in benchmark["workloads"]])
    first_seed = 1 if args.first_seed is None else args.first_seed
    seeds = list(range(first_seed, first_seed + args.runs))
    record = {"benchmark": "bench_e2e", "commit": git_describe(checkout),
              "trees": git_trees(checkout), "machine": {}, "run_seconds": seconds,
              "seeds": seeds, "workloads": {}}
    for workload in workloads:
        results = []
        for seed in seeds:
            result = run_e2e(checkout, workload, seed, seconds)
            results.append(result)
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{name} {m['value']:.4g}" for name, m in sorted(result["metrics"].items()))
                + f"  failed {result['failed']}", flush=True)
        context = results[-1]["context"]
        for key in ("nproc", "cpu_model", "compiler"):
            record["machine"].setdefault(key, context.get(key, "unknown"))
        record["workloads"][workload] = {
            "failed": [r["failed"] for r in results],
            "correct": [r["correct"] for r in results],
            "metrics": record_summary(results, metrics)}
    with open(args.record, "w") as f:
        json.dump(record, f, indent=2)
        f.write("\n")
    print(f"wrote {args.record}: {len(workloads)} workloads x {args.runs} runs")
    return 0


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

    def line(failed, **values):
        metrics = {k: {"value": v, "unit": ""} for k, v in values.items()}
        return json.dumps({"correct": failed == 0, "attempted": 10, "failed": failed,
                           "metrics": metrics})
    assert parse_result("build noise\n{\"report\": 1}\n" + line(0, setup_s=1.0) + "\n") == {
        "correct": True, "attempted": 10, "failed": 0,
        "metrics": {"setup_s": {"value": 1.0, "unit": ""}}}
    for bad in ("", "{\"report\": \"bench_e2e\"}"):
        try:
            parse_result(bad)
        except ValueError:
            pass
        else:
            raise AssertionError(f"{bad!r} must not parse as a result line")
    metrics = [{"name": "rate", "better": "higher", "bound": 0.25},
               {"name": "lat", "better": "lower", "bound": 0.1},
               {"name": "ape", "better": "lower", "bound": 0.25}]
    # rate: the change wins 9 of 10 pairs, its median 13 against 10, the
    # parent's quartiles 9.875-10.125: a clear gain, unless the change
    # fails more operations than the parent.  lat: the change loses every
    # pair, its median 12 % above the parent's: worse than 10 %.  ape:
    # identical on every seed.
    rates = [(10.0, 13.0), (9.0, 12.0), (11.0, 14.0), (10.0, 13.0), (10.5, 13.5),
             (9.5, 12.5), (10.0, 9.0), (10.0, 13.0), (10.0, 13.0), (10.0, 13.0)]

    def rate_pairs(parent_failed, change_failed):
        return [(parse_result(line(parent_failed if i == 0 else 0, rate=p, lat=1.0,
                                   ape=0.5)),
                 parse_result(line(change_failed if i == 0 else 0, rate=c, lat=1.12,
                                   ape=0.5)))
                for i, (p, c) in enumerate(rates)]
    rows = e2e_tally(rate_pairs(0, 0), metrics)
    assert rows["rate"] == {"parent": 10.0, "change": 13.0, "q1": 9.875, "q3": 10.125,
                            "wins": 9, "n": 10, "failed": (0, 0),
                            "worse": False, "gain": True}, rows["rate"]
    assert rows["lat"]["wins"] == 0 and rows["lat"]["worse"] and not rows["lat"]["gain"]
    assert rows["ape"]["wins"] == 0 and not rows["ape"]["worse"] and not rows["ape"]["gain"]
    for parent_failed, change_failed, gain in ((0, 1, False), (2, 1, True), (1, 1, True)):
        rows = e2e_tally(rate_pairs(parent_failed, change_failed), metrics)
        assert rows["rate"]["failed"] == (parent_failed, change_failed), rows["rate"]
        assert rows["rate"]["gain"] == gain, (parent_failed, change_failed, rows["rate"])
    # Fewer than 10 pairs is no clear gain, however one-sided: 9 of 9, or
    # the one pair of --pairs 1 (whose quartiles are both its value).
    for n in (9, 1):
        rows = e2e_tally([(parse_result(line(0, rate=10.0)),
                           parse_result(line(0, rate=13.0)))] * n, metrics)
        assert rows["rate"]["wins"] == n and not rows["rate"]["gain"], rows["rate"]
    # 8 wins of 10 is no clear gain, however far apart the medians; a drop
    # of 20 % in a rate is within a 25 % bound, one of 30 % is not.
    rows = e2e_tally([(parse_result(line(0, rate=10.0)), parse_result(line(0, rate=c)))
                      for c in [20.0] * 8 + [5.0] * 2], metrics)
    assert rows["rate"]["wins"] == 8 and not rows["rate"]["gain"], rows["rate"]
    for change, worse in ((8.0, False), (7.0, True)):
        rows = e2e_tally([(parse_result(line(0, rate=10.0)),
                           parse_result(line(0, rate=change)))], metrics)
        assert rows["rate"]["worse"] == worse, (change, rows["rate"])
    assert list(rows) == ["rate"]  # a metric neither side reports has no row
    # The record: every run in order, the median, and the IQR over the
    # median (quartiles 9.5 and 12.5 of 9, 10, 11, 12, 13: CV 3/11).
    runs = [parse_result(line(0, rate=v, lat=1.0)) for v in (11.0, 9.0, 13.0, 10.0, 12.0)]
    summary = record_summary(runs, [dict(m, unit="u") for m in metrics])
    assert summary["rate"] == {"unit": "u", "better": "higher",
                               "runs": [11.0, 9.0, 13.0, 10.0, 12.0],
                               "median": 11.0, "cv": 3.0 / 11.0}, summary["rate"]
    assert summary["lat"]["cv"] == 0.0 and list(summary) == ["rate", "lat"], summary
    assert parse_report('noise\n{"report": "bench_e2e", "context": {"nproc": "4"}}\n'
                        + line(0, rate=1.0)) == {"report": "bench_e2e",
                                                 "context": {"nproc": "4"}}
    assert parse_report(line(0, rate=1.0)) == {}
    # The reported-only table: the report line's metrics BENCHMARK.json
    # does not declare (not `rate`), lower better but for `_per_s`, a
    # metric one side of a pair lacks counted in the other pairs only.
    # scan_ms: parent 2.25-3 (quartiles 2.3125 and 2.9375 of four), the
    # change lower in 3 of 4; ops_per_s: the change lower, so it wins none.
    def reported(rate, **values):
        result = parse_result(line(0, rate=rate))
        result["reported"] = dict(values, rate=rate)
        return result
    scans = [(2.5, 2.0), (2.75, 2.5), (2.25, 2.5), (3.0, 2.25)]
    pairs = [(reported(10.0, scan_ms=p, ops_per_s=900.0 + i, tail_ms=5.0),
              reported(10.0, scan_ms=c, ops_per_s=900.0 - i,
                       **({"tail_ms": 4.0} if i > 0 else {})))
             for i, (p, c) in enumerate(scans)]
    rows = reported_tally(pairs, metrics)
    assert list(rows) == ["ops_per_s", "scan_ms", "tail_ms"], rows
    assert rows["scan_ms"] == {"parent": 2.625, "change": 2.375, "q1": 2.3125,
                               "q3": 2.9375, "wins": 3, "n": 4}, rows["scan_ms"]
    assert rows["ops_per_s"]["wins"] == 0 and rows["ops_per_s"]["parent"] == 901.5
    assert rows["tail_ms"]["n"] == 3 and rows["tail_ms"]["wins"] == 3, rows["tail_ms"]
    assert format_rows("live_mix", {"scan_ms": rows["scan_ms"]}) == [
        "| live_mix | scan_ms | 2.625 | 2.375 | -9.5 % | 2.312-2.938 | 3/4 |"]
    # The record's tree ids survive committing the uncommitted state they
    # were taken from, and leave the checkout's index as it was.
    if shutil.which("git"):
        with tempfile.TemporaryDirectory() as repo:
            def git(*argv):
                return subprocess.run(
                    ["git", "-c", "user.name=t", "-c", "user.email=t@t", *argv], cwd=repo,
                    check=True, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                    text=True).stdout.strip()

            def put(path, text):
                os.makedirs(os.path.dirname(os.path.join(repo, path)), exist_ok=True)
                with open(os.path.join(repo, path), "w") as f:
                    f.write(text)

            git("init", "-q")
            put("src/a.cc", "1\n")
            put("bench_e2e/run.py", "2\n")
            git("add", "-A")
            git("commit", "-q", "-m", "base")
            assert git_trees(os.path.join(repo, "src")) == {}  # not the root
            put("src/a.cc", "3\n")
            put("src/new.cc", "4\n")
            trees = git_trees(repo)
            assert git("diff", "--cached", "--name-only") == "", "index touched"
            assert trees["src"] != git("rev-parse", "HEAD:src"), trees
            git("add", "-A")
            git("commit", "-q", "-m", "change")
            assert trees == {d: git("rev-parse", f"HEAD:{d}") for d in MEASURED_DIRS}, trees
    # A run keeps its report line's context and finite end_to_end values.
    with tempfile.TemporaryDirectory() as checkout:
        os.mkdir(os.path.join(checkout, "bench_e2e"))
        report_line = json.dumps({
            "report": "bench_e2e", "context": {"gbdt_kernel": "avx2"}, "details": {},
            "end_to_end": {"scan_p50_ms": {"value": 2.5, "unit": "ms"},
                           "setup_s": {"value": 1.0, "unit": "s"},
                           "scan_tail_ms": {"value": None, "unit": "ms"}}})
        with open(os.path.join(checkout, "bench_e2e", "run.py"), "w") as f:
            f.write(f"print({report_line!r})\nprint({line(0, setup_s=1.0)!r})\n")
        result = run_e2e(checkout, "live_mix", 7, 1)
        assert result["context"] == {"gbdt_kernel": "avx2"}, result
        assert result["reported"] == {"scan_p50_ms": 2.5, "setup_s": 1.0}, result
    # A run that prints no result line names its checkout and seed, and
    # shows its stderr.
    with tempfile.TemporaryDirectory() as checkout:
        os.mkdir(os.path.join(checkout, "bench_e2e"))
        with open(os.path.join(checkout, "bench_e2e", "run.py"), "w") as f:
            f.write("import sys\nsys.stderr.write('build step failed\\n')\nsys.exit(3)\n")
        try:
            run_e2e(checkout, "ingest_replay", 7, 1)
        except SystemExit as err:
            message = str(err)
            assert checkout in message and "seed 7" in message, message
            assert "exit status 3" in message and "build step failed" in message, message
        else:
            raise AssertionError("a run without a result line must stop the A/B")
    print("bench_ab self-test: ok")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", nargs="?")
    parser.add_argument("new", nargs="?")
    parser.add_argument("--benchmark_filter", default=".")
    parser.add_argument("--rounds", type=int, default=9)
    parser.add_argument("--metric", default="cpu_time")
    parser.add_argument("--e2e", action="store_true",
                        help="BASE and NEW are checkouts to A/B with bench_e2e")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int)
    parser.add_argument("--workloads", default="",
                        help="comma-separated; default every BENCHMARK.json workload")
    parser.add_argument("--record", metavar="OUT",
                        help="run each workload --runs times and write OUT")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        self_test()
        return 0
    if args.record:
        if args.new or args.runs < 1:
            parser.error("--record takes at most one CHECKOUT and --runs >= 1")
        return run_record(args)
    if args.e2e:
        if not args.base or not args.new or args.first_seed is None or args.pairs < 1:
            parser.error("need PARENT_DIR, CHANGE_DIR, --first-seed and --pairs >= 1")
        return run_e2e_ab(args)
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
