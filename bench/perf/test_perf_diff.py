"""Unit tests of perf_diff.py on synthetic pddl-perf-v1 documents.

    python3 -m unittest test_perf_diff     (from bench/perf)
"""

import contextlib
import io
import json
import os
import statistics
import tempfile
import unittest

import perf_diff

BENCHMARK = {
    "end_to_end": [
        {"name": "accesses_per_s", "unit": "1/s", "better": "higher",
         "bound": 0.10},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "allocs_per_access", "unit": "count", "better": "lower",
         "bound": 0.05},
    ],
}
ENV = {"git_sha": "abc", "compiler": "GNU 12.2.0", "build_type": "Release",
       "pddl_obs": True, "nproc": 4}


def document(rates, allocs=2.0, setup=0.01, seed=42, digest="d1",
             env=None, failed_reps=0):
    """One e2e document with one workload and one value per rep."""
    reps = [{"rep": i, "ok": i >= failed_reps} for i in range(len(rates))]
    metrics = {
        "accesses_per_s": {"values": list(rates), "unit": "1/s"},
        "setup_s": {"values": [setup] * len(rates), "unit": "s"},
        "allocs_per_access": {"values": [allocs] * len(rates),
                              "unit": "count"},
    }
    return {
        "schema": "pddl-perf-v1", "env": dict(env or ENV), "seed": seed,
        "mode": "e2e",
        "workloads": [{"name": "paper_rmw", "digest": digest,
                       "repetitions": reps, "metrics": metrics}],
    }


def steady(base, n=5, wobble=0.01, offset=0):
    """n values within +-wobble of base, in a fixed interleaved order."""
    pattern = [0.0, 1.0, -1.0, 0.5, -0.5, 0.25, -0.25, 0.75, -0.75, 0.1]
    return [base * (1.0 + wobble * pattern[(i + offset) % len(pattern)])
            for i in range(n)]


def verdicts(parents, changes):
    rows, notes = perf_diff.compare(parents, changes, BENCHMARK)
    return {row["metric"]: row["status"] for row in rows}, notes


class SummaryTest(unittest.TestCase):
    def test_matches_statistics_module(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
        median, q1, q3 = perf_diff.summary(values)
        self.assertEqual(median, statistics.median(values))
        self.assertEqual([q1, q3],
                         [statistics.quantiles(values, n=4)[0],
                          statistics.quantiles(values, n=4)[2]])


class CompareTest(unittest.TestCase):
    def test_same_code_is_unchanged(self):
        parents = [document(steady(1e6, offset=0)),
                   document(steady(1e6, offset=5))]
        changes = [document(steady(1e6, offset=2)),
                   document(steady(1e6, offset=7))]
        status, notes = verdicts(parents, changes)
        self.assertEqual(status["accesses_per_s"], "unchanged")
        self.assertEqual(status["setup_s"], "unchanged")
        self.assertEqual(status["allocs_per_access"], "equal")
        self.assertEqual(notes, [])

    def test_consistent_speedup_is_improved(self):
        parents = [document(steady(1e6)), document(steady(1e6, offset=5))]
        changes = [document(steady(1.2e6)),
                   document(steady(1.2e6, offset=5))]
        status, _ = verdicts(parents, changes)
        self.assertEqual(status["accesses_per_s"], "improved")

    def test_small_gain_inside_parent_spread_is_not_improved(self):
        parents = [document(steady(1e6, wobble=0.05)),
                   document(steady(1e6, wobble=0.05, offset=5))]
        changes = [document(steady(1.01e6, wobble=0.05)),
                   document(steady(1.01e6, wobble=0.05, offset=5))]
        status, _ = verdicts(parents, changes)
        self.assertEqual(status["accesses_per_s"], "unchanged")

    def test_slowdown_beyond_bound_is_regressed(self):
        parents = [document(steady(1e6)), document(steady(1e6, offset=5))]
        changes = [document(steady(0.8e6)),
                   document(steady(0.8e6, offset=5))]
        status, _ = verdicts(parents, changes)
        self.assertEqual(status["accesses_per_s"], "regressed")

    def test_slowdown_within_bound_is_unchanged(self):
        parents = [document(steady(1e6)), document(steady(1e6, offset=5))]
        changes = [document(steady(0.95e6)),
                   document(steady(0.95e6, offset=5))]
        status, _ = verdicts(parents, changes)
        self.assertEqual(status["accesses_per_s"], "unchanged")

    def test_spread_wider_than_bound_is_unresolved(self):
        noisy = [1e6, 0.7e6, 1.3e6, 0.8e6, 1.2e6]
        parents = [document(noisy), document(list(reversed(noisy)))]
        changes = [document(noisy[1:] + noisy[:1]),
                   document(noisy[2:] + noisy[:2])]
        status, _ = verdicts(parents, changes)
        self.assertEqual(status["accesses_per_s"], "unresolved")

    def test_wide_spread_but_every_change_run_better_is_resolved(self):
        parents = [document([1e6, 0.7e6, 1.3e6, 0.8e6, 1.2e6]),
                   document([1.1e6, 0.75e6, 1.25e6, 0.9e6, 1.0e6])]
        changes = [document([2e6, 2.1e6, 2.2e6, 2.05e6, 2.15e6]),
                   document([2e6, 2.1e6, 2.2e6, 2.05e6, 2.15e6])]
        status, _ = verdicts(parents, changes)
        self.assertNotIn(status["accesses_per_s"], ("unresolved",
                                                      "regressed"))

    def test_wide_spread_but_every_change_run_worse_is_regressed(self):
        parents = [document([1e6, 0.7e6, 1.3e6, 0.8e6, 1.2e6]),
                   document([1.1e6, 0.75e6, 1.25e6, 0.9e6, 1.0e6])]
        changes = [document([0.5e6, 0.55e6, 0.6e6, 0.52e6, 0.58e6]),
                   document([0.5e6, 0.55e6, 0.6e6, 0.52e6, 0.58e6])]
        status, _ = verdicts(parents, changes)
        self.assertEqual(status["accesses_per_s"], "regressed")

    def test_exact_count_moves_are_flagged(self):
        parents = [document(steady(1e6)), document(steady(1e6, offset=5))]
        fewer = [document(steady(1e6), allocs=1.5),
                 document(steady(1e6, offset=5), allocs=1.5)]
        more = [document(steady(1e6), allocs=2.5),
                document(steady(1e6, offset=5), allocs=2.5)]
        self.assertEqual(verdicts(parents, fewer)[0]["allocs_per_access"],
                         "improved")
        self.assertEqual(verdicts(parents, more)[0]["allocs_per_access"],
                         "regressed")

    def test_exact_count_increase_within_bound_is_regressed(self):
        # The bound (0.05 here) does not apply to a same-seed count.
        parents = [document(steady(1e6)), document(steady(1e6, offset=5))]
        slightly_more = [document(steady(1e6), allocs=2.001),
                         document(steady(1e6, offset=5))]
        self.assertEqual(
            verdicts(parents, slightly_more)[0]["allocs_per_access"],
            "regressed")

    def test_digest_change_is_noted(self):
        parents = [document(steady(1e6)), document(steady(1e6, offset=5))]
        changes = [document(steady(1e6), digest="d2"),
                   document(steady(1e6, offset=5), digest="d2")]
        _, notes = verdicts(parents, changes)
        self.assertTrue(any("digest" in note for note in notes))

    def test_failed_repetitions_are_noted(self):
        parents = [document(steady(1e6)), document(steady(1e6, offset=5))]
        changes = [document(steady(1e6), failed_reps=1),
                   document(steady(1e6, offset=5))]
        _, notes = verdicts(parents, changes)
        self.assertTrue(any("failed" in note for note in notes))


class RefusalTest(unittest.TestCase):
    def test_fewer_than_ten_pairs(self):
        with self.assertRaises(perf_diff.Refused):
            verdicts([document(steady(1e6))], [document(steady(1e6))])

    def test_environment_differs(self):
        other = dict(ENV, build_type="Debug")
        with self.assertRaises(perf_diff.Refused):
            verdicts([document(steady(1e6)), document(steady(1e6))],
                     [document(steady(1e6), env=other),
                      document(steady(1e6), env=other)])

    def test_git_sha_may_differ(self):
        other = dict(ENV, git_sha="def")
        status, _ = verdicts(
            [document(steady(1e6)), document(steady(1e6, offset=5))],
            [document(steady(1e6), env=other),
             document(steady(1e6, offset=5), env=other)])
        self.assertEqual(status["accesses_per_s"], "unchanged")

    def test_seeds_differ(self):
        with self.assertRaises(perf_diff.Refused):
            verdicts([document(steady(1e6)), document(steady(1e6))],
                     [document(steady(1e6), seed=7),
                      document(steady(1e6), seed=7)])


class MainTest(unittest.TestCase):
    def run_main(self, parents, changes):
        with tempfile.TemporaryDirectory() as tmp:
            def dump(name, doc):
                path = os.path.join(tmp, name)
                with open(path, "w") as f:
                    json.dump(doc, f)
                return path

            bench = dump("BENCHMARK.json", BENCHMARK)
            p = [dump("p%d.json" % i, d) for i, d in enumerate(parents)]
            c = [dump("c%d.json" % i, d) for i, d in enumerate(changes)]
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = perf_diff.main(["--parent"] + p + ["--change"] + c +
                                      ["--benchmark", bench])
            return code, out.getvalue()

    def test_exit_codes(self):
        parents = [document(steady(1e6)), document(steady(1e6, offset=5))]
        same = [document(steady(1e6, offset=1)),
                document(steady(1e6, offset=6))]
        slower = [document(steady(0.5e6)), document(steady(0.5e6))]
        noisy = [1e6, 0.7e6, 1.3e6, 0.8e6, 1.2e6]
        code, out = self.run_main(parents, same)
        self.assertEqual(code, 0)
        self.assertIn("accesses_per_s", out)
        self.assertEqual(self.run_main(parents, slower)[0], 1)
        self.assertEqual(self.run_main(parents[:1], same[:1])[0], 2)
        self.assertEqual(
            self.run_main([document(noisy), document(noisy[::-1])],
                          [document(noisy[1:] + noisy[:1]),
                           document(noisy[2:] + noisy[:2])])[0], 3)


if __name__ == "__main__":
    unittest.main()
