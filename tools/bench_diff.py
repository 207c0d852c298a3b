#!/usr/bin/env python3
"""Compare two BENCH_*.json reports for semantic equality.

Everything must match except host-timing fields (hostSeconds), the
worker counts (jobs, simThreads), the machine.fastpath_* effectiveness
counters, the mem.simd_* kernel telemetry, the parallel event kernel's
sim.pdes_* bookkeeping (plus the pending-event high-water mark) and
BENCH_pdes.json's host speedup ratio (speedupVsSerial, derived from
hostSeconds), which legitimately differ between runs of the same sweep
(the fast path, the SIMD dispatch level and the parallel kernel change
how the simulation executes on the host, never what anything costs in
the simulation). BENCH_pdes.json's deterministic window-shape fields
(pdesWindows, pdesWindowWidened) stay compared: per cell they depend
only on simulation state, so two runs of the same sweep must
reproduce them exactly. Used by CI to check that a parallel sweep (--jobs=N), a
partitioned run (--sim-threads=N), a SWSM_FASTPATH=0 run, a
SWSM_SIMD=0 run or a sweep-server replay produces exactly the metrics
of the serial/default one.

hostSeconds fields may be plain numbers, {"min": ..., "median": ...}
objects from repeated measurements, or (schema 3) an object of named
sections each carrying {"min", "median"}; --host-seconds sums the
minima. Schema-3 sections present in only one report are incomparable:
they are excluded from the ratio and listed, never a failure.

Usage: bench_diff.py A.json B.json
       bench_diff.py --host-seconds A.json B.json
       bench_diff.py --from-shm NAME --size SIZE --procs N
                     [--bench NAME] [--dir DIR] [--out FILE]
       bench_diff.py --selftest
Exit status: 0 when equivalent, 1 with a difference report otherwise.
With --host-seconds, prints a host-time comparison of the two reports
and always exits 0 (wall-clock ratios are machine-dependent and must
never gate CI).

--from-shm renders the sweep server's shared-memory memo segment
(src/serve/shm_cache.hh; the byte layout is mirrored below and guarded
by a C++ static_assert) as a BENCH-schema JSON document, filtered to
one size/procs tier, so a segment left behind by swsm_serve can be
compared against a batch or server report with the normal mode.
"""

import json
import os
import struct
import sys

IGNORED_KEYS = {
    "hostSeconds",
    "jobs",
    "simThreads",
    "machine.fastpath_hits",
    "machine.fastpath_misses",
    "machine.fastpath_installs",
    "machine.fastpath_invalidations",
    "sim.max_pending_events",
    # Derived from hostSeconds (wall-clock ratio vs the serial cell),
    # so just as host-dependent as hostSeconds itself.
    "speedupVsSerial",
}

IGNORED_PREFIXES = ("sim.pdes_", "mem.simd_")


def ignored(key):
    return key in IGNORED_KEYS or key.startswith(IGNORED_PREFIXES)


def strip(value):
    """Recursively drop ignored keys from dicts."""
    if isinstance(value, dict):
        return {k: strip(v) for k, v in value.items() if not ignored(k)}
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
    print(f"{path_a}: {host_seconds(a):.3f} host seconds")
    print(f"{path_b}: {host_seconds(b):.3f} host seconds")
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
# Shared-memory memo segment reader (mirrors src/serve/shm_cache.hh and
# src/serve/result_codec.hh; those headers are the layout of record).

SEGMENT_MAGIC = b"SWSMMEMO"
HEADER_BYTES = 128
SLOT_BYTES = 64
HEADER_FMT = "<8sIIIIQQQQQQQ"  # magic, layout, schema, slots, rsvd,
#                                arenaBytes, arenaUsed, seq, hits,
#                                misses, inserts, evictions
SLOT_FMT = "<IIQQQIIQQQ"  # state, keyLen, keyHash, keyOff, valOff,
#                           valLen, pad, checksum, seq, pad2
RESULT_MAGIC = b"SWR1"
BASELINE_MAGIC = b"SWB1"


def fnv1a64(data, seed=0xcbf29ce484222325):
    h = seed
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def shm_dir():
    env = os.environ.get("SWSM_SHM_DIR")
    if env:
        return env
    if os.path.isdir("/dev/shm") and os.access("/dev/shm", os.W_OK):
        return "/dev/shm"
    return "/tmp"


def g10(x):
    """Round-trip a float through the %.10g rendering the C++ JSON
    writer uses, so decoded values compare equal to emitted ones."""
    return float("%.10g" % x)


class BlobReader:
    def __init__(self, blob):
        self.blob = blob
        self.off = 0

    def take(self, fmt):
        vals = struct.unpack_from(fmt, self.blob, self.off)
        self.off += struct.calcsize(fmt)
        return vals if len(vals) > 1 else vals[0]

    def string(self):
        n = self.take("<I")
        s = self.blob[self.off:self.off + n].decode()
        self.off += n
        return s


def decode_result(blob):
    """Decode a result blob into a BENCH experiment entry skeleton."""
    if blob[:4] != RESULT_MAGIC:
        return None
    r = BlobReader(blob)
    r.off = 4
    out = {}
    out["workload"] = r.string()
    out["config"] = r.string()
    out["protocol"] = r.string()
    out["simCycles"] = r.take("<Q")
    out["seqCycles"] = r.take("<Q")
    out["verified"] = r.take("<B") != 0
    out["hostSeconds"] = g10(r.take("<d"))
    counters = {}
    for _ in range(r.take("<I")):
        name = r.string()
        counters[name] = r.take("<Q")
    gauges = {}
    for _ in range(r.take("<I")):
        name = r.string()
        gauges[name] = g10(r.take("<d"))
    histograms = {}
    for _ in range(r.take("<I")):
        name = r.string()
        total = r.take("<Q")
        buckets = [r.take("<Q") for _ in range(r.take("<I"))]
        histograms[name] = {"total": total, "buckets": buckets}
    if counters or gauges or histograms:
        out["metrics"] = {"counters": counters, "gauges": gauges,
                          "histograms": histograms}
    return out


def decode_baseline(blob):
    if blob[:4] != BASELINE_MAGIC or len(blob) != 12:
        return None
    return struct.unpack_from("<Q", blob, 4)[0]


def read_segment(path):
    """Yield (key, value) pairs of every checksum-valid entry."""
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < HEADER_BYTES:
        raise SystemExit(f"{path}: too short for a memo segment")
    (magic, layout, _schema, slots, _rsvd, _arena_bytes, _used, _seq,
     _hits, _misses, _inserts, _evictions) = struct.unpack_from(
         HEADER_FMT, data, 0)
    if magic != SEGMENT_MAGIC:
        raise SystemExit(f"{path}: bad segment magic")
    if layout != 1:
        raise SystemExit(f"{path}: unknown segment layout {layout}")
    for i in range(slots):
        (state, key_len, _hash, key_off, val_off, val_len, _pad,
         checksum, _slot_seq, _pad2) = struct.unpack_from(
             SLOT_FMT, data, HEADER_BYTES + i * SLOT_BYTES)
        if state != 2:
            continue
        if key_off + key_len > len(data) or val_off + val_len > len(data):
            continue
        key = data[key_off:key_off + key_len]
        value = data[val_off:val_off + val_len]
        if fnv1a64(value, fnv1a64(key)) != checksum:
            continue
        yield key.decode(), value


def render_from_shm(name, size, procs, bench, directory):
    """Render one size/procs tier of a memo segment as a BENCH doc."""
    path = os.path.join(directory or shm_dir(), name)
    result_prefix = f"{size}/p{procs}/"
    baseline_prefix = f"{size}/baseline/"
    baselines = {}
    experiments = {}
    for key, value in read_segment(path):
        if key.startswith(baseline_prefix):
            seq = decode_baseline(value)
            if seq is not None:
                baselines[key[len(baseline_prefix):]] = seq
        elif key.startswith(result_prefix):
            entry = decode_result(value)
            if entry is not None:
                experiments[key[len(result_prefix):]] = entry
    doc = {
        "bench": bench,
        "numProcs": procs,
        "size": size,
        "hostSeconds": g10(sum(e["hostSeconds"]
                               for e in experiments.values())),
        "baselines": [{"app": app, "simCycles": cycles}
                      for app, cycles in sorted(baselines.items())],
        "experiments": [],
    }
    for key, entry in sorted(experiments.items()):
        sim = entry["simCycles"]
        speedup = entry["seqCycles"] / sim if sim else 0.0
        ordered = {"key": key,
                   "workload": entry["workload"],
                   "protocol": entry["protocol"],
                   "config": entry["config"],
                   "simCycles": sim,
                   "seqCycles": entry["seqCycles"],
                   "speedup": g10(speedup),
                   "verified": entry["verified"],
                   "hostSeconds": entry["hostSeconds"]}
        if "metrics" in entry:
            ordered["metrics"] = entry["metrics"]
        doc["experiments"].append(ordered)
    return doc


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


def _selftest_segment(tmpdir):
    """Build a synthetic segment byte-for-byte and decode it back."""
    def enc_str(s):
        return struct.pack("<I", len(s)) + s.encode()

    result = (RESULT_MAGIC + enc_str("fft") + enc_str("AO") +
              enc_str("hlrc") + struct.pack("<QQBd", 1000, 4000, 1, 0.5) +
              struct.pack("<I", 1) + enc_str("net.bytes") +
              struct.pack("<Q", 77) +
              struct.pack("<I", 0) +
              struct.pack("<I", 1) + enc_str("net.lat") +
              struct.pack("<QI", 3, 2) + struct.pack("<QQ", 1, 2))
    baseline = BASELINE_MAGIC + struct.pack("<Q", 4000)

    slots = 4
    arena = b""
    entries = []
    for key, value in [("tiny/p8/fft/hlrc/AO", result),
                       ("tiny/baseline/fft", baseline)]:
        key_b = key.encode()
        key_off = HEADER_BYTES + slots * SLOT_BYTES + len(arena)
        arena += key_b + value
        entries.append((key_b, value, key_off))

    header = struct.pack(HEADER_FMT, SEGMENT_MAGIC, 1, 1, slots, 0,
                         1 << 16, len(arena), len(entries), 0, 0,
                         len(entries), 0)
    header += b"\0" * (HEADER_BYTES - len(header))
    slot_bytes = b""
    for i, (key_b, value, key_off) in enumerate(entries):
        slot_bytes += struct.pack(
            SLOT_FMT, 2, len(key_b), fnv1a64(key_b), key_off,
            key_off + len(key_b), len(value), 0,
            fnv1a64(value, fnv1a64(key_b)), i + 1, 0)
    slot_bytes += b"\0" * ((slots - len(entries)) * SLOT_BYTES)

    path = os.path.join(tmpdir, "selftest_segment")
    with open(path, "wb") as f:
        f.write(header + slot_bytes + arena)

    doc = render_from_shm("selftest_segment", "tiny", 8, "fig3", tmpdir)
    assert doc["baselines"] == [{"app": "fft", "simCycles": 4000}], doc
    assert len(doc["experiments"]) == 1, doc
    e = doc["experiments"][0]
    assert e["key"] == "fft/hlrc/AO" and e["simCycles"] == 1000
    assert e["speedup"] == 4.0 and e["verified"] is True
    assert e["metrics"]["counters"] == {"net.bytes": 77}
    assert e["metrics"]["histograms"] == {
        "net.lat": {"total": 3, "buckets": [1, 2]}}

    # A flipped value byte must fail the checksum and drop the entry.
    blob = bytearray(open(path, "rb").read())
    blob[-1] ^= 0xFF
    with open(path, "wb") as f:
        f.write(blob)
    doc = render_from_shm("selftest_segment", "tiny", 8, "fig3", tmpdir)
    assert doc["baselines"] == [], doc


def _selftest_ignored():
    """strip() must drop exactly the host-execution telemetry and keep
    the deterministic fields it sits next to."""
    entry = {"pdesWindows": 10, "pdesWindowWidened": 2,
             "machine.fastpath_hits": 9, "sim.pdes_windows": 10,
             "net.bytes": 77, "hostSeconds": 1.5,
             "speedupVsSerial": 0.83}
    stripped = strip(entry)
    assert stripped == {"pdesWindows": 10, "pdesWindowWidened": 2,
                        "net.bytes": 77}, stripped


def selftest():
    import tempfile
    _selftest_sections()
    _selftest_ignored()
    with tempfile.TemporaryDirectory() as tmpdir:
        _selftest_segment(tmpdir)
    print("bench_diff selftest ok")
    return 0


def main(argv):
    if len(argv) == 2 and argv[1] == "--selftest":
        return selftest()
    if len(argv) == 4 and argv[1] == "--host-seconds":
        return report_host_seconds(argv[2], argv[3])
    if len(argv) >= 2 and argv[1] == "--from-shm":
        args = {"--size": "small", "--procs": "16", "--bench": "fig3",
                "--dir": "", "--out": ""}
        rest = argv[2:]
        if not rest or rest[0].startswith("--"):
            print("--from-shm needs a segment name", file=sys.stderr)
            return 2
        name = rest[0]
        i = 1
        while i < len(rest):
            if rest[i] in args and i + 1 < len(rest):
                args[rest[i]] = rest[i + 1]
                i += 2
            else:
                print(f"bad --from-shm argument {rest[i]!r}",
                      file=sys.stderr)
                return 2
        doc = render_from_shm(name, args["--size"], int(args["--procs"]),
                              args["--bench"], args["--dir"])
        text = json.dumps(doc, indent=2) + "\n"
        if args["--out"]:
            with open(args["--out"], "w") as f:
                f.write(text)
        else:
            sys.stdout.write(text)
        return 0
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
