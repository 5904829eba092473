#!/usr/bin/env python3
"""Byte-for-byte regression tests for tools/analyzer/horizon_analyzer.py.

The self-test (`--self-test`) proves each rule *fires*; this suite pins
the exact findings -- (rule, file, line) and message -- on a composed
known-bad tree, proves the known-good tree is byte-for-byte empty,
checks determinism (two runs produce identical stdout), and round-trips
the lock-order emit/verify pair.  Run via ctest (label `lint`) or
directly: python3 tests/analyzer_test.py
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ANALYZER = os.path.join(REPO, "tools", "analyzer", "horizon_analyzer.py")
FIXTURES = os.path.join(REPO, "tests", "lint_fixtures", "analyzer")

BAD_PLACEMENTS = [
    ("bad_lock_cycle_a.cc", "src/serving/bad_lock_cycle_a.cc"),
    ("bad_lock_cycle_b.cc", "src/serving/bad_lock_cycle_b.cc"),
    ("bad_atomics.cc", "src/common/bad_atomics.cc"),
    ("bad_atomics_hot.cc", "src/obs/metrics.cc"),
    ("bad_status_switch.cc", "src/obs/bad_status_switch.cc"),
    ("bad_allow.cc", "src/common/bad_allow.cc"),
    ("status_enum.h", "src/common/status.h"),
]

GOOD_PLACEMENTS = [
    ("good_analyzer.cc", "src/serving/good_analyzer.cc"),
    ("good_analyzer.h", "src/serving/good_analyzer.h"),
    ("status_enum.h", "src/common/status.h"),
]

# The full expected finding list for the composed bad tree, sorted the
# way the analyzer sorts (file, line, rule, message).  Any analyzer
# change that moves, adds, or drops a finding must update this table --
# that is the point.
EXPECTED_BAD = [
    ("bad-allow", "src/common/bad_allow.cc", 13),
    ("bad-allow", "src/common/bad_allow.cc", 18),
    ("atomic-order", "src/common/bad_allow.cc", 19),
    ("atomic-order", "src/common/bad_atomics.cc", 13),
    ("atomic-order", "src/common/bad_atomics.cc", 17),
    ("atomic-order", "src/common/bad_atomics.cc", 21),
    ("atomic-order", "src/common/bad_atomics.cc", 24),
    ("status-exhaustive", "src/obs/bad_status_switch.cc", 10),
    ("status-exhaustive", "src/obs/bad_status_switch.cc", 10),
    ("atomic-order", "src/obs/metrics.cc", 15),
    ("atomic-order", "src/obs/metrics.cc", 19),
    ("lock-order", "src/serving/bad_lock_cycle_a.cc", 19),
    ("lock-order", "src/serving/bad_lock_cycle_a.cc", 19),
    ("lock-order", "src/serving/bad_lock_cycle_b.cc", 20),
    ("lock-order", "src/serving/bad_lock_cycle_b.cc", 20),
]

EXPECTED_BAD_MESSAGES = {
    ("src/obs/bad_status_switch.cc", 10):
        "switch over StatusCode does not handle: kNotFound, kNotYetLive, "
        "kInvalidArgument, kIoError, kCorruption, kConfigMismatch, "
        "kAlreadyExists, kInternal",
    ("src/obs/metrics.cc", 15):
        "defaulted (seq_cst) atomic `load` on a hot-path file without an "
        "adjacent `// order:` justification; spell the order and name "
        "the pairing site",
}


def make_tree(placements):
    tmp = tempfile.mkdtemp(prefix="horizon_analyzer_test_")
    for fixture, dest in placements:
        dst = os.path.join(tmp, dest)
        os.makedirs(os.path.dirname(dst), exist_ok=True)
        shutil.copyfile(os.path.join(FIXTURES, fixture), dst)
    return tmp


def run_analyzer(root, *extra):
    return subprocess.run(
        [sys.executable, ANALYZER, "--root", root, "--backend", "tokenizer",
         *extra],
        capture_output=True, text=True)


class BadTreeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tree = make_tree(BAD_PLACEMENTS)
        cls.result = run_analyzer(cls.tree, "--json")
        cls.findings = json.loads(cls.result.stdout)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tree, ignore_errors=True)

    def test_exit_code_signals_findings(self):
        self.assertEqual(self.result.returncode, 1)

    def test_findings_byte_for_byte(self):
        got = [(f["rule"], f["file"], f["line"]) for f in self.findings]
        self.assertEqual(got, EXPECTED_BAD)

    def test_selected_messages_exact(self):
        by_loc = {}
        for f in self.findings:
            by_loc.setdefault((f["file"], f["line"]), []).append(f["message"])
        for loc, expected in EXPECTED_BAD_MESSAGES.items():
            self.assertIn(expected, by_loc.get(loc, []),
                          f"missing expected message at {loc}")

    def test_every_rule_fires(self):
        fired = {f["rule"] for f in self.findings}
        self.assertEqual(fired, {"lock-order", "atomic-order",
                                 "status-exhaustive", "bad-allow"})

    def test_determinism_two_runs_identical(self):
        again = run_analyzer(self.tree, "--json")
        self.assertEqual(self.result.stdout, again.stdout)
        self.assertEqual(self.result.returncode, again.returncode)


class GoodTreeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tree = make_tree(GOOD_PLACEMENTS)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tree, ignore_errors=True)

    def test_zero_findings_and_clean_exit(self):
        result = run_analyzer(self.tree, "--json")
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertEqual(json.loads(result.stdout), [])

    def test_lock_order_emit_verify_roundtrip(self):
        path = os.path.join(self.tree, "lock_order.txt")
        emit = run_analyzer(self.tree, "--emit-lock-order", path)
        self.assertEqual(emit.returncode, 0, emit.stderr)
        with open(path, "r", encoding="utf-8") as f:
            content = f.read()
        # The good fixture nests GoodJournal::mu_ under service_mu_.
        self.assertIn("GoodService::service_mu_ -> GoodJournal::mu_",
                      content)
        verify = run_analyzer(self.tree, "--verify-lock-order", path)
        self.assertEqual(verify.returncode, 0, verify.stderr)
        # Drift must be detected: perturb the committed file.
        with open(path, "a", encoding="utf-8") as f:
            f.write("Bogus::mu -> Other::mu  # hand-edited\n")
        drifted = run_analyzer(self.tree, "--verify-lock-order", path)
        self.assertEqual(drifted.returncode, 1)
        self.assertIn("drifted", drifted.stderr)


class RepoTreeTest(unittest.TestCase):
    """The real tree must stay clean and its committed lock order fresh."""

    def test_repo_is_clean(self):
        result = run_analyzer(REPO, "--json")
        self.assertEqual(result.returncode, 0,
                         result.stdout + result.stderr)
        self.assertEqual(json.loads(result.stdout), [])

    def test_committed_lock_order_is_fresh(self):
        committed = os.path.join(REPO, "ci", "lock_order.txt")
        result = run_analyzer(REPO, "--verify-lock-order", committed)
        self.assertEqual(result.returncode, 0, result.stderr)

    def test_self_test_passes(self):
        result = subprocess.run(
            [sys.executable, ANALYZER, "--self-test"],
            capture_output=True, text=True, cwd=REPO)
        self.assertEqual(result.returncode, 0,
                         result.stdout + result.stderr)


if __name__ == "__main__":
    unittest.main(verbosity=2)
