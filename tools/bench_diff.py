#!/usr/bin/env python3
"""Compare two BENCH_*.json reports for semantic equality.

Everything must match except host-timing fields (hostSeconds), the
process's peak RSS (peakRssMb), the sweep's worker count (jobs) and
the two fast-path effectiveness counters, machine.fastpath_hits and
machine.fastpath_misses, which legitimately differ between runs of the
same sweep (the fast path changes how the simulation executes on the
host, never what anything costs in the simulation). The event kernel's counters, sim.max_pending_events
included, must match: every run is serial, so they are the same at
any --jobs and with the fast path off. Used by CI to check that a
parallel sweep (--jobs=N), a SWSM_FASTPATH=0 run or a --memo replay
produces exactly the metrics of the serial/default one.

hostSeconds fields may be plain numbers, {"min": ..., "median": ...}
objects from repeated measurements, or (schema 3) an object of named
sections each carrying {"min", "median"}; --host-seconds sums the
minima. Schema-3 sections present in only one report are incomparable:
they are excluded from the ratio and listed, never a failure.

Usage: bench_diff.py A.json B.json
       bench_diff.py --host-seconds A.json B.json
       bench_diff.py --selftest
Exit status: 0 when equivalent, 1 with a difference report otherwise.
With --host-seconds, prints a host-time comparison of the two reports,
with each report's peakRssMb where it has one, and always exits 0
(wall-clock ratios are machine-dependent and must never gate CI).
"""

import json
import sys

IGNORED_KEYS = {
    "hostSeconds",
    "peakRssMb",
    "jobs",
    "machine.fastpath_hits",
    "machine.fastpath_misses",
}


def strip(value):
    """Recursively drop ignored keys from dicts."""
    if isinstance(value, dict):
        return {k: strip(v) for k, v in value.items()
                if k not in IGNORED_KEYS}
    if isinstance(value, list):
        return [strip(v) for v in value]
    return value


def describe(a, b, path="$"):
    """Yield human-readable difference lines between two values."""
    if type(a) is not type(b):
        yield f"{path}: type {type(a).__name__} != {type(b).__name__}"
        return
    if isinstance(a, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a:
                yield f"{path}.{key}: only in second file"
            elif key not in b:
                yield f"{path}.{key}: only in first file"
            else:
                yield from describe(a[key], b[key], f"{path}.{key}")
    elif isinstance(a, list):
        if len(a) != len(b):
            yield f"{path}: length {len(a)} != {len(b)}"
        for i, (x, y) in enumerate(zip(a, b)):
            yield from describe(x, y, f"{path}[{i}]")
    elif a != b:
        yield f"{path}: {a!r} != {b!r}"


def host_seconds_value(v):
    """One hostSeconds value: a number, a {"min", "median"} object, or
    (schema 3) an object of named sections each shaped like the
    above. Returns the sum of the minima."""
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        return v
    if isinstance(v, dict):
        if isinstance(v.get("min"), (int, float)):
            return v["min"]
        return sum(host_seconds_value(s)
                   for s in v.values() if isinstance(s, dict))
    return 0.0


def host_seconds_sections(value, sections=None):
    """Per-section host seconds of a report: schema-3 named sections
    accumulate under their names, every other hostSeconds shape under
    "" (the unsectioned total)."""
    if sections is None:
        sections = {}
    if isinstance(value, dict):
        for k, v in value.items():
            if k != "hostSeconds":
                host_seconds_sections(v, sections)
                continue
            if isinstance(v, dict) and not isinstance(
                    v.get("min"), (int, float)):
                for name, s in v.items():
                    if isinstance(s, dict):
                        sections[name] = (sections.get(name, 0.0) +
                                          host_seconds_value(s))
            else:
                sections[""] = sections.get("", 0.0) + \
                    host_seconds_value(v)
    elif isinstance(value, list):
        for v in value:
            host_seconds_sections(v, sections)
    return sections


def host_seconds(value):
    """Sum every hostSeconds field in a report, recursively."""
    return sum(host_seconds_sections(value).values())


def compare_host_sections(a, b):
    """Split two section maps into (comparable total a, total b,
    incomparable section names). A section present in only one report
    cannot contribute to a ratio and must be reported, not summed."""
    sa = host_seconds_sections(a)
    sb = host_seconds_sections(b)
    common = set(sa) & set(sb)
    only = sorted((set(sa) ^ set(sb)) - common)
    return (sum(sa[k] for k in common), sum(sb[k] for k in common), only)


def report_host_seconds(path_a, path_b):
    """Print a host-time comparison of two reports (informational)."""
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    ca, cb, incomparable = compare_host_sections(a, b)
    for path, report in ((path_a, a), (path_b, b)):
        line = f"{path}: {host_seconds(report):.3f} host seconds"
        rss = report.get("peakRssMb") if isinstance(report, dict) else None
        if isinstance(rss, (int, float)) and not isinstance(rss, bool):
            line += f", peak RSS {rss:.1f} MiB"
        print(line)
    for name in incomparable:
        label = name or "(unsectioned)"
        print(f"section {label!r}: present in only one report; "
              "excluded from the ratio")
    if ca > 0 and cb > 0:
        print(f"ratio (first/second, comparable sections): "
              f"{ca / cb:.2f}x")
    else:
        print("ratio: n/a (no comparable host time)")
    return 0


# ---------------------------------------------------------------------------
# Selftest (run by CI; no simulator binaries needed).

def _selftest_sections():
    a = {"hostSeconds": {"build": {"min": 1.0, "median": 2.0},
                         "run": {"min": 3.0, "median": 4.0}}}
    b = {"hostSeconds": {"build": {"min": 2.0, "median": 2.5}}}
    ca, cb, only = compare_host_sections(a, b)
    assert ca == 1.0 and cb == 2.0, (ca, cb)
    assert only == ["run"], only
    # Identical section sets: nothing incomparable, everything summed.
    ca, cb, only = compare_host_sections(a, a)
    assert ca == cb == 4.0 and only == [], (ca, cb, only)
    # Mixed schemas: plain numbers live in the unsectioned bucket and
    # never collide with schema-3 sections.
    c = {"hostSeconds": 5.0}
    ca, cb, only = compare_host_sections(a, c)
    assert ca == 0.0 and cb == 0.0, (ca, cb)
    assert only == ["", "build", "run"], only
    assert host_seconds(a) == 4.0 and host_seconds(c) == 5.0


def _selftest_ignored():
    """strip() must drop exactly the host-execution telemetry and keep
    the deterministic fields it sits next to."""
    entry = {"machine.fastpath_hits": 9, "sim.max_pending_events": 10,
             "sim.events_run": 12, "net.bytes": 77, "hostSeconds": 1.5,
             "peakRssMb": 25.5}
    stripped = strip(entry)
    assert stripped == {"sim.max_pending_events": 10, "sim.events_run": 12,
                        "net.bytes": 77}, stripped


def selftest():
    _selftest_sections()
    _selftest_ignored()
    print("bench_diff selftest ok")
    return 0


def main(argv):
    if len(argv) == 2 and argv[1] == "--selftest":
        return selftest()
    if len(argv) == 4 and argv[1] == "--host-seconds":
        return report_host_seconds(argv[2], argv[3])
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        a = strip(json.load(f))
    with open(argv[2]) as f:
        b = strip(json.load(f))
    if a == b:
        print(f"{argv[1]} and {argv[2]} are equivalent")
        return 0
    print(f"{argv[1]} and {argv[2]} differ:", file=sys.stderr)
    for i, line in enumerate(describe(a, b)):
        if i >= 50:
            print("  ... (truncated)", file=sys.stderr)
            break
        print(f"  {line}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
