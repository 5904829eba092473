#!/usr/bin/env python3
"""horizon_analyzer -- cross-TU concurrency-protocol checks for horizon.

Three semantic rules, run over every file under src/ (the regex layer in
tools/horizon_lint.py handles single-line style; this layer checks the
*protocols* the style exists to serve):

  lock-order         Extracts the may-acquire-while-holding graph over
                     every horizon::Mutex domain across translation
                     units and fails on cycles (static deadlock
                     potential).  The blessed order is committed at
                     ci/lock_order.txt; --verify-lock-order fails CI
                     when the tree drifts from the committed order.
  atomic-order       Every explicit memory_order site needs an adjacent
                     `// order:` comment naming the pairing site;
                     defaulted (seq_cst) operations on hot-path atomics
                     are findings unless justified the same way.
  status-exhaustive  Every switch over StatusCode must handle all codes
                     explicitly; a `default:` label is itself a finding
                     because it hides newly added codes (the PR-7
                     kResourceExhausted retrofit is the bug class).

Suppressions: `// horizon-analyzer: allow(<rule>): <reason>` on the
finding's line or the line above.  A suppression without a reason is a
`bad-allow` finding -- unexplained baselining is the failure mode this
tool exists to prevent.

Backends: `--backend clang` uses libclang (python3-clang) for precise
function/lock/call extraction; `--backend tokenizer` is the bundled
fallback that needs nothing beyond the standard library; `auto`
prefers clang when importable and silently falls back.  Both lower to
the same IR (tools/analyzer/ir.py) and share one rule engine, so a
finding means the same thing under either.  `--self-test` always runs
the tokenizer backend: it is the hermetic CI gate.

Exit codes: 0 clean, 1 findings (or lock-order drift), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import backend_tokenizer as tok          # noqa: E402
import cpp_source as src                 # noqa: E402
from ir import Finding, ProgramIR        # noqa: E402

KNOWN_RULES = ("lock-order", "atomic-order", "status-exhaustive",
               "bad-allow")

# The primitive layer: the one file allowed to touch std:: sync types,
# and whose Lock()/Unlock() bodies would otherwise look like protocol.
EXCLUDED_FILES = frozenset({"src/common/annotations.h"})

STATUS_ENUM_RE = re.compile(
    r"enum\s+class\s+StatusCode[^{]*\{([^}]*)\}", re.S)


# --------------------------------------------------------------------------
# Program loading

def discover_sources(root: str) -> list:
    rels = []
    src_dir = os.path.join(root, "src")
    for base, dirs, names in os.walk(src_dir):
        dirs.sort()
        for n in sorted(names):
            if not n.endswith((".h", ".cc")):
                continue
            rel = os.path.relpath(os.path.join(base, n), root) \
                .replace(os.sep, "/")
            if rel not in EXCLUDED_FILES:
                rels.append(rel)
    return sorted(rels)


def parse_status_codes(root: str) -> list:
    path = os.path.join(root, "src", "common", "status.h")
    if not os.path.exists(path):
        return []
    sf = src.SourceFile.load(path, "src/common/status.h")
    m = STATUS_ENUM_RE.search(sf.code)
    if not m:
        return []
    return re.findall(r"\bk\w+", m.group(1))


def load_program(root: str, compdb: str, backend: str):
    """Returns (ProgramIR, sources dict, notes list)."""
    notes = []
    sources = {}
    for rel in discover_sources(root):
        sources[rel] = src.SourceFile.load(os.path.join(root, rel), rel)
    program = ProgramIR(status_codes=parse_status_codes(root))

    chosen = backend
    if backend == "auto":
        try:
            import backend_clang
            chosen = "clang" if (backend_clang.available() and
                                 os.path.exists(compdb)) else "tokenizer"
        except Exception:
            chosen = "tokenizer"
        if chosen == "tokenizer":
            notes.append("note: libclang unavailable or no compile_commands"
                         ".json; using the bundled tokenizer backend")

    if chosen == "clang":
        import backend_clang
        if not backend_clang.available():
            raise SystemExit("horizon_analyzer: --backend clang requested "
                             "but clang.cindex is not importable (install "
                             "python3-clang)")
        firs = backend_clang.lower_program(root, compdb, sources)
        for rel in sorted(firs):
            program.add_file(firs[rel])
    else:
        chosen = "tokenizer"
        mutex_members = tok.collect_mutex_members(list(sources.values()))
        requires_map = tok.collect_requires(list(sources.values()))
        for rel in sorted(sources):
            program.add_file(tok.lower_file(
                sources[rel], mutex_members, requires_map,
                rel in tok.HOT_ATOMIC_FILES))
    program.backend = chosen
    return program, sources, notes


# --------------------------------------------------------------------------
# Cross-TU call resolution and the lock-order rule

def resolve_call(call, caller, by_name) -> list:
    """Candidates a call site may dispatch to.  Deliberately
    conservative on ambiguity: with an untyped receiver and candidates
    spread across multiple classes we skip the call rather than invent
    edges (the libclang backend resolves these precisely)."""
    cands = [f for f in by_name.get(call.callee, ()) if f is not caller]
    if not cands:
        return []
    if call.receiver_type:
        return [f for f in cands
                if f.qualname.startswith(call.receiver_type + "::")]
    if call.has_receiver:
        owners = {f.qualname.split("::")[0] for f in cands
                  if "::" in f.qualname}
        if len(cands) == 1 or len(owners) <= 1:
            return cands
        return []
    caller_cls = caller.qualname.split("::")[0] \
        if "::" in caller.qualname else ""
    return [f for f in cands
            if "::" not in f.qualname or
            (caller_cls and f.qualname.startswith(caller_cls + "::"))]


def compute_may_acquire(program: ProgramIR) -> dict:
    """Fixpoint: qualname-keyed transitive set of domains each function
    may acquire (HORIZON_REQUIRES entries are the caller's locks, not
    acquisitions, and are excluded)."""
    fns = [fn for fir in program.files.values() for fn in fir.functions]
    ma = {id(f): {a.domain for a in f.acquires if not a.from_requires}
          for f in fns}
    changed = True
    while changed:
        changed = False
        for f in fns:
            mine = ma[id(f)]
            for call in f.calls:
                for g in resolve_call(call, f, program.by_name):
                    extra = ma[id(g)] - mine
                    if extra:
                        mine |= extra
                        changed = True
    return ma


def lock_edges(program: ProgramIR) -> dict:
    """(holder_domain, acquired_domain) -> sorted provenance list of
    (rel, lineno, description)."""
    ma = compute_may_acquire(program)
    edges = {}

    def add(a, b, rel, lineno, desc):
        edges.setdefault((a, b), set()).add((rel, lineno, desc))

    for fir in program.files.values():
        for f in fir.functions:
            for (outer, inner) in f.nested:
                add(outer, inner.domain, f.rel, inner.lineno,
                    f"{f.qualname} acquires {inner.domain} while holding "
                    f"{outer}")
            for (dom, call) in f.held_calls:
                for g in resolve_call(call, f, program.by_name):
                    for d in sorted(ma[id(g)]):
                        add(dom, d, f.rel, call.lineno,
                            f"{f.qualname} -> {g.qualname} (may acquire {d}) "
                            f"while holding {dom}")
    return {k: sorted(v) for k, v in sorted(edges.items())}


def cyclic_edges(edges: dict) -> set:
    """Edges that sit inside a strongly connected component (including
    self-loops) -- i.e. edges witnessing deadlock potential."""
    graph = {}
    for (a, b) in edges:
        graph.setdefault(a, set()).add(b)
        graph.setdefault(b, set())
    index = {}
    low = {}
    on_stack = set()
    stack = []
    sccs = {}
    counter = [0]

    def strongconnect(v):
        work = [(v, iter(sorted(graph[v])))]
        index[v] = low[v] = counter[0]
        counter[0] += 1
        stack.append(v)
        on_stack.add(v)
        while work:
            node, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(sorted(graph[w]))))
                    advanced = True
                    break
                if w in on_stack:
                    low[node] = min(low[node], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = set()
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.add(w)
                    if w == node:
                        break
                for w in comp:
                    sccs[w] = frozenset(comp)

    for v in sorted(graph):
        if v not in index:
            strongconnect(v)

    bad = set()
    for (a, b) in edges:
        if a == b:
            bad.add((a, b))
        elif sccs.get(a) == sccs.get(b) and len(sccs.get(a, frozenset())) > 1:
            bad.add((a, b))
    return bad


def render_lock_order(edges: dict, backend: str) -> str:
    lines = [
        "# Lock acquisition order -- generated, do not edit by hand.",
        "# Regenerate: python3 tools/analyzer/horizon_analyzer.py "
        "--emit-lock-order ci/lock_order.txt",
        "# An edge `A -> B` means some execution path acquires B while "
        "holding A.",
        "# CI verifies this file matches the tree "
        "(--verify-lock-order); cycles fail the lock-order rule.",
        "",
    ]
    if not edges:
        lines.append("# (no nested lock acquisitions found)")
    for (a, b), provs in edges.items():
        rel, lineno, desc = provs[0]
        lines.append(f"{a} -> {b}  # {desc} at {rel}:{lineno}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# Rule evaluation

def run_rules(program: ProgramIR, sources: dict):
    """Returns (findings, edges)."""
    findings = []

    def emit(rule, rel, lineno, message):
        sf = sources.get(rel)
        if sf is not None and sf.allowed(rule, lineno):
            return
        findings.append(Finding(rule=rule, rel=rel, lineno=lineno,
                                message=message))

    # -- lock-order --------------------------------------------------------
    edges = lock_edges(program)
    for (a, b) in sorted(cyclic_edges(edges)):
        for (rel, lineno, desc) in edges[(a, b)]:
            emit("lock-order", rel, lineno,
                 f"lock-order cycle: {desc}; acquiring {b} can wait on a "
                 f"thread holding {b} and acquiring {a}")

    # -- atomic-order ------------------------------------------------------
    for rel in sorted(program.files):
        sf = sources.get(rel)
        for site in program.files[rel].atomics:
            if sf is not None and sf.has_order_comment(site.lineno):
                continue
            if site.explicit:
                msg = (f"memory_order_{site.order} without an adjacent "
                       f"`// order:` comment naming the pairing site")
            else:
                msg = (f"defaulted (seq_cst) atomic `{site.op}` on a "
                       f"hot-path file without an adjacent `// order:` "
                       f"justification; spell the order and name the "
                       f"pairing site")
            emit("atomic-order", rel, site.lineno, msg)

    # -- status-exhaustive -------------------------------------------------
    codes = program.status_codes
    for rel in sorted(program.files):
        for sw in program.files[rel].switches:
            if codes:
                missing = [c for c in codes if c not in sw.cases]
                if missing:
                    emit("status-exhaustive", rel, sw.lineno,
                         f"switch over StatusCode does not handle: "
                         f"{', '.join(missing)}")
            if sw.has_default:
                emit("status-exhaustive", rel, sw.lineno,
                     "switch over StatusCode has a `default:` label; handle "
                     "every code explicitly so newly added codes surface "
                     "here instead of being silently absorbed")

    # -- bad-allow ---------------------------------------------------------
    for rel in sorted(sources):
        sf = sources[rel]
        for lineno, raw in enumerate(sf.raw_lines, start=1):
            m = src.ALLOW_RE.search(raw)
            if not m:
                continue
            rule, reason = m.group(1), m.group(2)
            if rule not in KNOWN_RULES:
                findings.append(Finding(
                    rule="bad-allow", rel=rel, lineno=lineno,
                    message=f"allow() names unknown rule `{rule}` (known: "
                            f"{', '.join(KNOWN_RULES)})"))
            elif not reason:
                findings.append(Finding(
                    rule="bad-allow", rel=rel, lineno=lineno,
                    message="allow() without a justification; write "
                            "`horizon-analyzer: allow(<rule>): <why this "
                            "is safe>`"))

    findings.sort(key=lambda f: (f.rel, f.lineno, f.rule, f.message))
    return findings, edges


def analyze(root: str, compdb: str, backend: str):
    program, sources, notes = load_program(root, compdb, backend)
    findings, edges = run_rules(program, sources)
    return program, findings, edges, notes


# --------------------------------------------------------------------------
# Self-test

FIXTURES = "tests/lint_fixtures/analyzer"

# (description, [(fixture, dest-rel)], rule expected to fire | None)
SELF_TEST_CASES = [
    ("cross-TU lock-order cycle is detected",
     [("bad_lock_cycle_a.cc", "src/serving/bad_lock_cycle_a.cc"),
      ("bad_lock_cycle_b.cc", "src/serving/bad_lock_cycle_b.cc")],
     "lock-order"),
    ("unjustified explicit memory orders are detected",
     [("bad_atomics.cc", "src/common/bad_atomics.cc")],
     "atomic-order"),
    ("defaulted seq_cst ops on hot-path files are detected",
     [("bad_atomics_hot.cc", "src/obs/metrics.cc")],
     "atomic-order"),
    ("non-exhaustive StatusCode switches are detected",
     [("bad_status_switch.cc", "src/obs/bad_status_switch.cc"),
      ("status_enum.h", "src/common/status.h")],
     "status-exhaustive"),
    ("justification-less suppressions are detected",
     [("bad_allow.cc", "src/common/bad_allow.cc")],
     "bad-allow"),
    ("clean code with justified suppressions produces zero findings",
     [("good_analyzer.cc", "src/serving/good_analyzer.cc"),
      ("good_analyzer.h", "src/serving/good_analyzer.h"),
      ("status_enum.h", "src/common/status.h")],
     None),
]


def self_test(repo_root: str) -> int:
    fixture_dir = os.path.join(repo_root, FIXTURES)
    failures = []
    for (desc, placements, rule) in SELF_TEST_CASES:
        tmp = tempfile.mkdtemp(prefix="horizon_analyzer_selftest_")
        try:
            for (fixture, dest) in placements:
                dst = os.path.join(tmp, dest)
                os.makedirs(os.path.dirname(dst), exist_ok=True)
                shutil.copyfile(os.path.join(fixture_dir, fixture), dst)
            _, findings, _, _ = analyze(tmp, os.path.join(tmp, "nope.json"),
                                        "tokenizer")
            fired = {f.rule for f in findings}
            if rule is None:
                ok = not findings
                detail = "; ".join(str(f) for f in findings)
            else:
                ok = rule in fired
                detail = f"fired: {sorted(fired)}"
            status = "PASS" if ok else "FAIL"
            print(f"[{status}] {desc}")
            if not ok:
                failures.append(desc)
                if detail:
                    print(f"       {detail}")
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    if failures:
        print(f"self-test: {len(failures)} case(s) FAILED")
        return 1
    print(f"self-test: all {len(SELF_TEST_CASES)} cases passed")
    return 0


# --------------------------------------------------------------------------
# CLI

def main(argv=None) -> int:
    default_root = os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    ap = argparse.ArgumentParser(
        prog="horizon_analyzer",
        description="cross-TU concurrency-protocol analyzer for horizon")
    ap.add_argument("--root", default=default_root,
                    help="repository root (default: repo containing this "
                         "script)")
    ap.add_argument("--compdb", default=None,
                    help="compile_commands.json (default: "
                         "<root>/build/compile_commands.json)")
    ap.add_argument("--backend", choices=("auto", "clang", "tokenizer"),
                    default="auto")
    ap.add_argument("--emit-lock-order", metavar="PATH",
                    help="write the extracted lock order to PATH and exit "
                         "with the rule results")
    ap.add_argument("--verify-lock-order", metavar="PATH",
                    help="fail if the extracted lock order differs from the "
                         "committed PATH")
    ap.add_argument("--json", action="store_true",
                    help="emit findings as JSON")
    ap.add_argument("--self-test", action="store_true",
                    help="run every rule against the bundled known-bad/"
                         "known-good fixtures (tokenizer backend)")
    args = ap.parse_args(argv)

    root = os.path.abspath(args.root)
    if args.self_test:
        return self_test(root)

    compdb = args.compdb or os.path.join(root, "build",
                                         "compile_commands.json")
    if not os.path.isdir(os.path.join(root, "src")):
        print(f"horizon_analyzer: no src/ under {root}", file=sys.stderr)
        return 2

    program, findings, edges, notes = analyze(root, compdb, args.backend)
    for note in notes:
        print(note, file=sys.stderr)

    rc = 0
    rendered = render_lock_order(edges, program.backend)
    if args.emit_lock_order:
        with open(args.emit_lock_order, "w", encoding="utf-8") as f:
            f.write(rendered)
        print(f"wrote {len(edges)} lock-order edge(s) to "
              f"{args.emit_lock_order}", file=sys.stderr)
    if args.verify_lock_order:
        try:
            with open(args.verify_lock_order, "r", encoding="utf-8") as f:
                committed = f.read()
        except OSError as e:
            print(f"horizon_analyzer: cannot read committed lock order: {e}",
                  file=sys.stderr)
            return 2
        if committed != rendered:
            print(f"horizon_analyzer: lock order drifted from "
                  f"{args.verify_lock_order}; regenerate with\n"
                  f"  python3 tools/analyzer/horizon_analyzer.py "
                  f"--emit-lock-order {args.verify_lock_order}",
                  file=sys.stderr)
            rc = 1

    if args.json:
        print(json.dumps(
            [{"rule": f.rule, "file": f.rel, "line": f.lineno,
              "message": f.message} for f in findings],
            indent=2, sort_keys=True))
    else:
        for f in findings:
            print(f)
        if findings:
            print(f"horizon_analyzer: {len(findings)} finding(s) "
                  f"[backend={program.backend}]", file=sys.stderr)
    return 1 if findings else rc


if __name__ == "__main__":
    sys.exit(main())
