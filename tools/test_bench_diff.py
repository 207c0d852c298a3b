#!/usr/bin/env python3
"""Self-test for bench_diff.py (run by ctest as bench_diff_selftest).

Uses only the standard library's unittest so it runs anywhere a Python
interpreter exists. Covers the strip/describe helpers directly and the
main() entry point end-to-end through temp files.
"""

import io
import json
import os
import sys
import tempfile
import unittest
from contextlib import redirect_stderr, redirect_stdout

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bench_diff


def write_json(directory, name, value):
    path = os.path.join(directory, name)
    with open(path, "w") as f:
        json.dump(value, f)
    return path


REPORT = {
    "schema": 1,
    "hostSeconds": 12.5,
    "jobs": 8,
    "rows": [
        {"app": "barnes", "protocol": "hlrc", "cycles": 123456},
        {"app": "radix", "protocol": "sc", "cycles": 654321},
    ],
}


class StripTest(unittest.TestCase):
    def test_drops_ignored_keys_at_top_level(self):
        stripped = bench_diff.strip(REPORT)
        self.assertNotIn("hostSeconds", stripped)
        self.assertNotIn("jobs", stripped)
        self.assertIn("rows", stripped)

    def test_drops_ignored_keys_nested_in_lists(self):
        value = {"rows": [{"cycles": 1, "hostSeconds": 9.0}]}
        self.assertEqual(
            bench_diff.strip(value), {"rows": [{"cycles": 1}]}
        )

    def test_drops_fastpath_effectiveness_counters(self):
        value = {
            "counters": {
                "machine.fastpath_hits": 100,
                "machine.fastpath_misses": 5,
                "proto.diffs_created": 2,
            }
        }
        self.assertEqual(
            bench_diff.strip(value),
            {"counters": {"proto.diffs_created": 2}},
        )

    def test_keeps_every_event_kernel_counter(self):
        # Every run is serial, so the kernel's counters, the pending-
        # event high-water mark included, are simulated results.
        value = {
            "counters": {
                "sim.max_pending_events": 4096,
                "sim.events_run": 1000,
                "sim.events_scheduled": 1000,
            },
        }
        self.assertEqual(bench_diff.strip(value), value)

    def test_max_pending_events_difference_is_reported(self):
        a = {"counters": {"sim.max_pending_events": 85}}
        b = {"counters": {"sim.max_pending_events": 86}}
        lines = list(bench_diff.describe(bench_diff.strip(a),
                                         bench_diff.strip(b)))
        self.assertEqual(
            lines, ["$.counters.sim.max_pending_events: 85 != 86"])

    def test_leaves_scalars_alone(self):
        self.assertEqual(bench_diff.strip(42), 42)
        self.assertEqual(bench_diff.strip("jobs"), "jobs")


class DescribeTest(unittest.TestCase):
    def test_equal_values_yield_nothing(self):
        self.assertEqual(list(bench_diff.describe(REPORT, REPORT)), [])

    def test_scalar_mismatch_names_the_path(self):
        a = {"rows": [{"cycles": 1}]}
        b = {"rows": [{"cycles": 2}]}
        lines = list(bench_diff.describe(a, b))
        self.assertEqual(lines, ["$.rows[0].cycles: 1 != 2"])

    def test_missing_key_is_reported_for_both_sides(self):
        lines = list(bench_diff.describe({"a": 1}, {"b": 1}))
        self.assertIn("$.a: only in first file", lines)
        self.assertIn("$.b: only in second file", lines)

    def test_type_mismatch_stops_recursion(self):
        lines = list(bench_diff.describe({"a": 1}, {"a": "1"}))
        self.assertEqual(lines, ["$.a: type int != str"])

    def test_list_length_mismatch(self):
        lines = list(bench_diff.describe([1], [1, 2]))
        self.assertEqual(lines, ["$: length 1 != 2"])


class MainTest(unittest.TestCase):
    def run_main(self, *argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            status = bench_diff.main(["bench_diff.py", *argv])
        return status, out.getvalue(), err.getvalue()

    def test_equivalent_reports_exit_zero(self):
        with tempfile.TemporaryDirectory() as d:
            serial = dict(REPORT)
            parallel = dict(REPORT, hostSeconds=3.1, jobs=1)
            a = write_json(d, "a.json", serial)
            b = write_json(d, "b.json", parallel)
            status, out, _ = self.run_main(a, b)
        self.assertEqual(status, 0)
        self.assertIn("equivalent", out)

    def test_differing_metrics_exit_one_with_report(self):
        with tempfile.TemporaryDirectory() as d:
            changed = json.loads(json.dumps(REPORT))
            changed["rows"][0]["cycles"] += 1
            a = write_json(d, "a.json", REPORT)
            b = write_json(d, "b.json", changed)
            status, _, err = self.run_main(a, b)
        self.assertEqual(status, 1)
        self.assertIn("$.rows[0].cycles", err)

    def test_bad_usage_exits_two(self):
        status, _, err = self.run_main("only-one-file.json")
        self.assertEqual(status, 2)
        self.assertIn("Usage", err)

    def test_host_seconds_mode_reports_and_exits_zero(self):
        with tempfile.TemporaryDirectory() as d:
            slow = dict(REPORT, hostSeconds=10.0)
            fast = dict(REPORT, hostSeconds=4.0)
            a = write_json(d, "a.json", slow)
            b = write_json(d, "b.json", fast)
            status, out, _ = self.run_main("--host-seconds", a, b)
        self.assertEqual(status, 0)
        self.assertIn("10.000 host seconds", out)
        self.assertIn("4.000 host seconds", out)
        self.assertIn("2.50x", out)

    def test_peak_rss_is_ignored_for_equality_and_shown(self):
        with tempfile.TemporaryDirectory() as d:
            small = dict(REPORT, peakRssMb=25.7)
            large = dict(REPORT, peakRssMb=547.0)
            a = write_json(d, "a.json", small)
            b = write_json(d, "b.json", large)
            status, out, _ = self.run_main(a, b)
            self.assertEqual(status, 0)
            self.assertIn("equivalent", out)
            status, out, _ = self.run_main("--host-seconds", a, b)
        self.assertEqual(status, 0)
        self.assertIn("12.500 host seconds, peak RSS 25.7 MiB", out)
        self.assertIn("peak RSS 547.0 MiB", out)

    def test_host_seconds_mode_sums_nested_fields(self):
        value = {
            "hostSeconds": 1.0,
            "rows": [{"hostSeconds": 2.0}, {"hostSeconds": 3.5}],
        }
        self.assertEqual(bench_diff.host_seconds(value), 6.5)

    def test_host_seconds_sums_min_of_repeated_measurements(self):
        value = {
            "hostSeconds": {"min": 2.0, "median": 3.0},
            "runs": [{"hostSeconds": {"min": 0.5, "median": 0.75}}],
        }
        self.assertEqual(bench_diff.host_seconds(value), 2.5)

    def test_host_seconds_ignores_malformed_dicts(self):
        value = {"hostSeconds": {"median": 3.0}}
        self.assertEqual(bench_diff.host_seconds(value), 0.0)

    def test_host_seconds_sums_schema3_sections(self):
        value = {
            "hostSeconds": {
                "access": {"min": 1.0, "median": 1.5},
                "diff_scan": {"min": 0.25, "median": 0.5},
                "events": {"min": 2.0, "median": 2.0},
            }
        }
        self.assertEqual(bench_diff.host_seconds(value), 3.25)

    def test_strip_keeps_simd_data_path_telemetry(self):
        # Every diff scans its whole page, so the mem.simd_* data-path
        # counters are the same in every host mode and must match.
        value = {
            "counters": {
                "mem.simd_apply_words": 9,
                "mem.simd_diff_scan_bytes": 4096,
                "mem.simd_twin_copy_calls": 7,
                "proto.twins_created": 7,
                "proto.diffs_created": 2,
            }
        }
        self.assertEqual(bench_diff.strip(value), value)

    def test_equivalence_ignores_dict_host_seconds(self):
        with tempfile.TemporaryDirectory() as d:
            serial = dict(REPORT,
                          hostSeconds={"min": 9.0, "median": 9.5},
                          jobs=1)
            parallel = dict(REPORT,
                            hostSeconds={"min": 3.0, "median": 3.2},
                            jobs=4)
            a = write_json(d, "a.json", serial)
            b = write_json(d, "b.json", parallel)
            status, out, _ = self.run_main(a, b)
        self.assertEqual(status, 0)
        self.assertIn("equivalent", out)

    def test_host_seconds_mode_handles_missing_fields(self):
        with tempfile.TemporaryDirectory() as d:
            a = write_json(d, "a.json", {"rows": []})
            b = write_json(d, "b.json", {"rows": []})
            status, out, _ = self.run_main("--host-seconds", a, b)
        self.assertEqual(status, 0)
        self.assertIn("n/a", out)


class HostSectionTest(unittest.TestCase):
    """Schema-3 sections present in only one report are incomparable
    and must be excluded from the ratio, not silently summed (the old
    behavior raised KeyError-shaped surprises or skewed the ratio)."""

    A = {
        "hostSeconds": {
            "access": {"min": 1.0, "median": 1.5},
            "events": {"min": 2.0, "median": 2.5},
        }
    }
    B = {"hostSeconds": {"access": {"min": 0.5, "median": 0.75}}}

    def test_compare_splits_incomparable_sections(self):
        ca, cb, only = bench_diff.compare_host_sections(self.A, self.B)
        self.assertEqual(only, ["events"])
        self.assertEqual(ca, 1.0)  # comparable side only
        self.assertEqual(cb, 0.5)

    def test_identical_section_sets_have_nothing_incomparable(self):
        ca, cb, only = bench_diff.compare_host_sections(self.A, self.A)
        self.assertEqual(only, [])
        self.assertEqual(ca, cb)

    def test_host_seconds_mode_reports_excluded_sections(self):
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as d:
            a = write_json(d, "a.json", self.A)
            b = write_json(d, "b.json", self.B)
            with redirect_stdout(out), redirect_stderr(err):
                status = bench_diff.main(
                    ["bench_diff.py", "--host-seconds", a, b]
                )
        self.assertEqual(status, 0)
        self.assertIn("excluded from the ratio", out.getvalue())
        self.assertIn("'events'", out.getvalue())
        # The ratio uses only the comparable sections: 1.0 / 0.5.
        self.assertIn("2.00x", out.getvalue())


class SelftestTest(unittest.TestCase):
    def test_builtin_selftest_passes(self):
        """Runs the host-section and ignored-key checks."""
        out = io.StringIO()
        with redirect_stdout(out):
            status = bench_diff.main(["bench_diff.py", "--selftest"])
        self.assertEqual(status, 0)
        self.assertIn("selftest ok", out.getvalue())


if __name__ == "__main__":
    unittest.main()
