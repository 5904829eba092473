#!/usr/bin/env python3
"""horizon_lint: project-invariant linter for the horizon repository.

Enforces repo-specific rules that generic tools (clang-tidy, TSA) cannot
express.  Runs in CI and as a `ctest -L lint` test; zero findings is the
only passing state.

Rules
-----
determinism   src/sim and src/datagen must stay deterministic: a single
              seed must reproduce bit-identically on every machine (the
              DST harness and the nightly seed sweeps depend on it), so
              rand()/srand(), std::random_device, and every wall/steady
              clock source (time(), clock(), gettimeofday,
              std::chrono::*_clock) are banned there.  Simulation time is
              the virtual clock; randomness comes from horizon::Rng
              seeded by the schedule.
naked-new     No naked `new` / `delete` expressions anywhere in src/.
              Ownership goes through std::unique_ptr / containers.  The
              three intentionally leaked process-wide singletons carry an
              allow-comment with a justification.
raw-mutex     No std::mutex / std::lock_guard / std::unique_lock /
              std::scoped_lock / std::shared_mutex / std::condition_variable
              in src/ outside common/annotations.h: every lock must be a
              horizon::Mutex acquired via horizon::MutexLock so clang's
              Thread-Safety Analysis sees it.  (Tests and benches are
              exempt; they are not part of the annotated serving stack.)
serving-status  Public *mutating* member functions declared in
              src/serving/*.h must return Status or StatusOr<T>: every
              serving entry point that can fail must say how.  Const
              accessors are exempt (they cannot fail by contract);
              count-returning batch helpers carry an allow-comment
              justifying the exception.
forest-traversal  Outside src/gbdt/, no direct indexing into a compiled
              forest's node arrays (the raw_features / raw_thresholds /
              raw_left / raw_values / raw_roots / raw_leaves
              accessors): call sites must go through the traversal API
              (GbdtRegressor::Predict, or PredictStrided on BlockForest
              and GbdtRegressor alike), which is what keeps the node
              layout free to change without breaking callers.  The raw
              spans exist for the gbdt kernels, serialization, and tests.
atomic-order  Every `memory_order_*` use carries an `// order:` comment
              naming the site it pairs with, so a reader can check the
              synchronizes-with edge without reconstructing it.  The
              comment sits on a line of the statement, or in the
              contiguous `//` block directly above the statement's first
              line; one comment covers one statement.  In
              src/obs/metrics.{h,cc}, the hot-path instruments, an atomic
              member op whose statement names no memory_order (an
              implicit seq_cst) needs the same comment.

Suppression
-----------
A finding is suppressed by an allow-comment on the same line or the line
directly above the offending one:

    // horizon-lint: allow(<rule>) -- <justification>

The justification is mandatory; an allow-comment without one is itself a
finding (rule `bad-allow`).

Self-test
---------
`horizon_lint.py --self-test` copies the known-bad fixture files from
tests/lint_fixtures/ into a synthetic tree and asserts that every rule
fires on its bad fixture (at exactly the pinned lines, for atomic-order)
and that the clean fixtures give exactly their one pinned finding.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import sys
import tempfile

# --------------------------------------------------------------------------
# Source preprocessing

ALLOW_RE = re.compile(
    r"//\s*horizon-lint:\s*allow\(([a-z-]+)\)(?:\s*(?:--|:)\s*(.*\S))?")


def strip_comments_and_strings(text: str) -> str:
    """Blanks out comments and string/char literals, preserving newlines
    (and the horizon-lint allow markers, which live in comments but are
    parsed separately from the raw text)."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            if j == -1:
                j = n
            out.append(" " * (j - i))
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            out.append("".join(ch if ch == "\n" else " " for ch in text[i:j]))
            i = j
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == quote:
                    j += 1
                    break
                if text[j] == "\n":  # unterminated; bail at line end
                    break
                j += 1
            out.append(quote + " " * max(0, j - i - 2) + (quote if j <= n and j - i >= 2 else ""))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


class File:
    def __init__(self, path: str, rel: str):
        self.path = path
        self.rel = rel
        with open(path, "r", encoding="utf-8", errors="replace") as f:
            self.raw = f.read()
        self.raw_lines = self.raw.splitlines()
        self.code_lines = strip_comments_and_strings(self.raw).splitlines()
        # An allow-comment covers its own line and the next line that
        # carries code, skipping blank lines and the rest of its own
        # (possibly multi-line) comment.  allows maps covered line ->
        # (rule, justification or None).
        self.allows = {}
        for lineno, line in enumerate(self.raw_lines, start=1):
            m = ALLOW_RE.search(line)
            if not m:
                continue
            entry = (m.group(1), m.group(2))
            self.allows.setdefault(lineno, entry)
            target = lineno + 1
            while target <= len(self.code_lines) and \
                    not self.code_lines[target - 1].strip():
                target += 1
            if target <= len(self.code_lines):
                self.allows.setdefault(target, entry)

    def allowed(self, rule: str, lineno: int):
        """Returns the allow entry covering `lineno` for `rule`, if any."""
        entry = self.allows.get(lineno)
        if entry and entry[0] == rule:
            return lineno, entry
        return None


class Finding:
    def __init__(self, rule: str, rel: str, lineno: int, message: str):
        self.rule = rule
        self.rel = rel
        self.lineno = lineno
        self.message = message

    def __str__(self):
        return f"{self.rel}:{self.lineno}: [{self.rule}] {self.message}"


# --------------------------------------------------------------------------
# Rules

DETERMINISM_PATTERNS = [
    (re.compile(r"(?<![\w])(?:std\s*::\s*)?s?rand\s*\(|(?<![\w:])s?rand\s*\("),
     "rand()/srand()"),
    (re.compile(r"std\s*::\s*random_device"), "std::random_device"),
    (re.compile(r"(?<![\w:])time\s*\(\s*(?:NULL|nullptr|0|\))"), "time()"),
    (re.compile(r"(?<![\w:])clock\s*\(\s*\)"), "clock()"),
    (re.compile(r"gettimeofday|clock_gettime"), "wall-clock syscall"),
    (re.compile(r"(?:system|steady|high_resolution)_clock"),
     "std::chrono clock"),
]

DETERMINISM_DIRS = ("src/sim/", "src/datagen/")


def check_determinism(f: File, findings):
    if not f.rel.startswith(DETERMINISM_DIRS):
        return
    for lineno, line in enumerate(f.code_lines, start=1):
        for pat, what in DETERMINISM_PATTERNS:
            if pat.search(line):
                emit(findings, f, "determinism", lineno,
                     f"{what} breaks seed-reproducibility; use the virtual "
                     "clock / horizon::Rng")


NEW_RE = re.compile(r"(?<![\w_])new\s+(?:\(|[\w:<])")
DELETE_RE = re.compile(r"(?<![\w_])delete(?:\s*\[\s*\])?\s+[\w(*]")


def check_naked_new(f: File, findings):
    for lineno, line in enumerate(f.code_lines, start=1):
        if NEW_RE.search(line):
            emit(findings, f, "naked-new", lineno,
                 "naked `new`; use std::make_unique or a container")
        if DELETE_RE.search(line):
            emit(findings, f, "naked-new", lineno,
                 "naked `delete`; ownership must be RAII-managed")


RAW_MUTEX_RE = re.compile(
    r"std\s*::\s*(mutex|shared_mutex|recursive_mutex|timed_mutex|"
    r"lock_guard|unique_lock|scoped_lock|shared_lock|condition_variable)")


def check_raw_mutex(f: File, findings):
    if f.rel == "src/common/annotations.h":
        return  # the one place allowed to touch the raw primitives
    for lineno, line in enumerate(f.code_lines, start=1):
        m = RAW_MUTEX_RE.search(line)
        if m:
            emit(findings, f, "raw-mutex", lineno,
                 f"std::{m.group(1)} bypasses the annotated horizon::Mutex/"
                 "MutexLock wrapper (common/annotations.h)")


# Matches a member-function declaration line and captures the return type
# and name.  Heuristic by design: good enough for this codebase's style
# (one declaration per line, return type first, no trailing return types).
MEMBER_FN_RE = re.compile(
    r"^\s*(?:virtual\s+|static\s+|explicit\s+|inline\s+)*"
    r"(?P<ret>[A-Za-z_][\w:<>,*& ]*?)\s+"
    r"(?P<name>[A-Za-z_]\w*)\s*\(")
STATUS_RET_RE = re.compile(r"^(?:horizon\s*::\s*)?(?:Status|StatusOr\s*<)")


def check_serving_status(f: File, findings):
    if not (f.rel.startswith("src/serving/") and f.rel.endswith(".h")):
        return
    access = None  # None until inside a class; then 'public'/'protected'/...
    depth = 0
    class_depth = None
    # Join declarations that span lines so the "const" qualifier and the
    # closing ')' are visible on the matched line.
    joined = {}
    lines = f.code_lines
    for lineno, line in enumerate(lines, start=1):
        stmt = line
        k = lineno
        while (stmt.count("(") > stmt.count(")")) and k < len(lines):
            stmt += " " + lines[k].strip()
            k += 1
        joined[lineno] = stmt
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if class_depth is None and re.match(r"(class|struct)\s+\w+", stripped) \
                and ";" not in stripped:
            class_depth = depth
            # struct members are public by default; class members private.
            access = "public" if stripped.startswith("struct") else "private"
        if re.match(r"public\s*:", stripped):
            access = "public"
        elif re.match(r"(private|protected)\s*:", stripped):
            access = stripped.split(":")[0].strip()
        depth += line.count("{") - line.count("}")
        if class_depth is not None and depth <= class_depth:
            class_depth, access = None, None
        if access != "public":
            continue
        stmt = joined[lineno]
        m = MEMBER_FN_RE.match(stmt)
        if not m:
            continue
        ret, name = m.group("ret").strip(), m.group("name")
        if ret in ("return", "else", "new", "case", "using", "typedef"):
            continue
        if name in ("operator", "if", "for", "while", "switch"):
            continue
        if STATUS_RET_RE.match(ret):
            continue
        # Const accessors cannot fail by contract; constructors have no
        # return type (the regex then mis-captures, but their "name" equals
        # the class name which never matches a verb-like method -- filter
        # by requiring the captured return type to be a known non-type is
        # not tractable; instead skip decls whose statement ends in
        # "= delete;" / "= default;" and decls that are const).
        after_paren = stmt[stmt.index("("):]
        if re.search(r"\)\s*(const|=\s*(delete|default))", after_paren):
            continue
        if "HORIZON_" in ret:  # annotation macro line, not a declaration
            continue
        emit(findings, f, "serving-status", lineno,
             f"public mutating serving entry point `{name}` returns "
             f"`{ret}`; fallible serving APIs must return Status/StatusOr")


FOREST_RAW_RE = re.compile(
    r"(?<![\w])raw_(features|thresholds|left|values|roots|leaves)\s*\(")


def check_forest_traversal(f: File, findings):
    if f.rel.startswith("src/gbdt/"):
        return  # the kernels and compilers own the node layout
    for lineno, line in enumerate(f.code_lines, start=1):
        m = FOREST_RAW_RE.search(line)
        if m:
            emit(findings, f, "forest-traversal", lineno,
                 f"raw_{m.group(1)}() indexes forest node arrays directly; "
                 "use the traversal API (Predict*/PredictStrided) so the "
                 "node layout stays private to src/gbdt/")


MEMORY_ORDER_RE = re.compile(r"\bmemory_order_\w+")
ORDER_COMMENT_RE = re.compile(r"//.*\border:\s*\S")
HOT_ATOMIC_FILES = ("src/obs/metrics.h", "src/obs/metrics.cc")
ATOMIC_OP_RE = re.compile(
    r"(?:\.|->)\s*(?:load|store|exchange|fetch_\w+|compare_exchange_\w+|"
    r"test_and_set)\s*\(")


def statement_span(f: File, lineno: int):
    """[start, end] lines of the statement containing `lineno`: up while
    the previous code line is non-blank and ends no statement, then down
    to the first line that ends one."""
    lines = f.code_lines
    start = lineno
    while start > 1:
        prev = lines[start - 2].rstrip()
        if not prev or prev.endswith((";", "{", "}", ":", ">")):
            break
        start -= 1
    end = lineno
    while end < len(lines) and \
            not lines[end - 1].rstrip().endswith((";", "{", "}")):
        end += 1
    return start, end


def has_order_comment(f: File, start: int, end: int) -> bool:
    if any(ORDER_COMMENT_RE.search(line)
           for line in f.raw_lines[start - 1:end]):
        return True
    above = start - 1
    while above >= 1 and f.raw_lines[above - 1].lstrip().startswith("//"):
        if ORDER_COMMENT_RE.search(f.raw_lines[above - 1]):
            return True
        above -= 1
    return False


def check_atomic_order(f: File, findings):
    hot = f.rel in HOT_ATOMIC_FILES
    for lineno, line in enumerate(f.code_lines, start=1):
        explicit = MEMORY_ORDER_RE.search(line)
        if not explicit and not (hot and ATOMIC_OP_RE.search(line)):
            continue
        start, end = statement_span(f, lineno)
        if not explicit and any(MEMORY_ORDER_RE.search(code)
                                for code in f.code_lines[start - 1:end]):
            continue  # the statement spells its order on another line
        if has_order_comment(f, start, end):
            continue
        what = (explicit.group(0) if explicit
                else "an implicit seq_cst atomic op on a hot-path file")
        emit(findings, f, "atomic-order", lineno,
             f"{what} needs an `// order:` comment naming the site it "
             "pairs with, on the statement or directly above it")


def emit(findings, f: File, rule: str, lineno: int, message: str):
    hit = f.allowed(rule, lineno)
    if hit:
        _, (rule_name, justification) = hit
        if not justification:
            findings.append(Finding(
                "bad-allow", f.rel, lineno,
                f"allow({rule_name}) without a justification"))
        return
    findings.append(Finding(rule, f.rel, lineno, message))


CHECKS = [check_determinism, check_naked_new, check_raw_mutex,
          check_serving_status, check_forest_traversal, check_atomic_order]


# --------------------------------------------------------------------------
# Driver

def lint_tree(root: str):
    findings = []
    files = []
    src = os.path.join(root, "src")
    for dirpath, dirs, names in os.walk(src):
        dirs.sort()  # findings print in the same order on every machine
        for name in sorted(names):
            if not name.endswith((".h", ".cc", ".cpp")):
                continue
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            files.append(File(path, rel))
    for f in files:
        for check in CHECKS:
            check(f, findings)
    return findings


def lint_fixtures(fixtures: str, placements):
    """Lints a synthetic tree holding each (fixture, dest_rel) placement."""
    with tempfile.TemporaryDirectory(prefix="horizon_lint_") as tree:
        for fixture, dest_rel in placements:
            dest = os.path.join(tree, dest_rel)
            os.makedirs(os.path.dirname(dest), exist_ok=True)
            shutil.copyfile(os.path.join(fixtures, fixture), dest)
        return lint_tree(tree)


def run_self_test(repo_root: str) -> int:
    """Copies each bad fixture into the src/ position its rule watches and
    asserts the rule fires -- at exactly the pinned lines, where a case
    pins them; then asserts the clean fixtures give exactly their one
    pinned finding."""
    fixtures = os.path.join(repo_root, "tests", "lint_fixtures")
    cases = [
        ("bad_determinism.cc", "src/sim/bad_determinism.cc", "determinism",
         None),
        ("bad_determinism.cc", "src/datagen/bad_determinism.cc",
         "determinism", None),
        ("bad_naked_new.cc", "src/core/bad_naked_new.cc", "naked-new", None),
        ("bad_raw_mutex.cc", "src/stream/bad_raw_mutex.cc", "raw-mutex",
         None),
        ("bad_serving_status.h", "src/serving/bad_serving_status.h",
         "serving-status", None),
        ("bad_allow_no_reason.cc", "src/common/bad_allow_no_reason.cc",
         "bad-allow", None),
        ("bad_forest_index.cc", "src/core/bad_forest_index.cc",
         "forest-traversal", None),
        ("bad_forest_index.cc", "src/serving/bad_forest_index.cc",
         "forest-traversal", None),
        ("bad_atomics.cc", "src/common/bad_atomics.cc", "atomic-order",
         {13, 17, 21, 24}),
        ("bad_atomics_hot.cc", "src/obs/metrics.cc", "atomic-order",
         {15, 19}),
    ]
    failures = []
    for fixture, dest_rel, rule, lines in cases:
        found = lint_fixtures(fixtures, [(fixture, dest_rel)])
        if lines is None:
            found = [fi for fi in found if fi.rule == rule]
            ok = bool(found)
        else:
            ok = {(fi.rule, fi.lineno) for fi in found} == \
                {(rule, line) for line in lines}
        if not ok:
            failures.append(f"rule `{rule}` on {fixture}: got "
                            + ("; ".join(str(fi) for fi in found) or "nothing")
                            + ("" if lines is None
                               else f"; want lines {sorted(lines)}"))
        else:
            print(f"self-test ok: {rule:>16} fired on {fixture} "
                  f"({len(found)} finding(s))")
    # The forest-traversal rule is scoped: the identical raw-accessor
    # fixture under src/gbdt/ is the kernels' own territory and must stay
    # silent there.
    noise = [fi for fi in lint_fixtures(
                 fixtures, [("bad_forest_index.cc",
                             "src/gbdt/bad_forest_index.cc")])
             if fi.rule == "forest-traversal"]
    if noise:
        failures.append("forest-traversal fired inside src/gbdt/: "
                        + "; ".join(str(n) for n in noise))
    else:
        print("self-test ok: forest-traversal is silent inside src/gbdt/")
    # The clean fixtures exercise every allow-comment escape, the
    # deterministic idioms and justified atomics.  Their one finding is an
    # atomic op whose neighbour's comment must not cover it.
    found = lint_fixtures(fixtures, [("good_fixture.cc.txt", "src/sim/good.cc"),
                                     ("good_fixture.h.txt",
                                      "src/serving/good.h")])
    want = [("atomic-order", "src/sim/good.cc", 51)]
    if [(fi.rule, fi.rel, fi.lineno) for fi in found] != want:
        failures.append(f"clean fixtures: want {want}, got: "
                        + ("; ".join(str(n) for n in found) or "nothing"))
    else:
        print("self-test ok: clean fixtures give only their pinned finding")
    if failures:
        for msg in failures:
            print(f"self-test FAILED: {msg}", file=sys.stderr)
        return 1
    print("horizon_lint self-test: all rules fire on their bad fixtures")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None,
                        help="repository root (default: this script's repo)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify every rule fires on its bad fixture")
    args = parser.parse_args()
    repo_root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    if args.self_test:
        return run_self_test(repo_root)
    findings = lint_tree(repo_root)
    for finding in findings:
        print(finding)
    if findings:
        print(f"\nhorizon_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("horizon_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
