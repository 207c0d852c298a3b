/**
 * @file
 * Checks of the benchmark's own arithmetic and output check: the
 * percentile, idle-fraction and span self-time arithmetic, which
 * metrics a fingerprint covers, and that a perturbed recorded
 * fingerprint fails its task. Prints every failed check and exits 1 if
 * there was one.
 */

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench.hh"

namespace
{

using namespace swsmbench;

int failures = 0;

void
expect(bool ok, const std::string &what)
{
    if (!ok) {
        std::fprintf(stderr, "FAIL: %s\n", what.c_str());
        ++failures;
    }
}

bool
approx(double a, double b)
{
    return std::fabs(a - b) < 1e-9;
}

void
testPercentile()
{
    expect(approx(percentile({}, 50), 0.0), "no samples give 0");
    expect(approx(percentile({7.0}, 90), 7.0),
           "one sample is every percentile");
    expect(approx(percentile({4.0, 1.0, 3.0, 2.0}, 50), 2.5),
           "the median of an even count interpolates");
    std::vector<double> ten;
    for (int i = 10; i >= 1; --i)
        ten.push_back(i);
    expect(approx(percentile(ten, 90), 9.1), "p90 of 1..10 is 9.1");
    expect(approx(percentile(ten, 0), 1.0) &&
               approx(percentile(ten, 100), 10.0),
           "p0 and p100 are the extremes");
}

void
testIdleFraction()
{
    expect(approx(idleFraction(30.0, 4, 10.0), 0.25),
           "4 workers busy 30 of 40 worker-seconds are 25% idle");
    expect(approx(idleFraction(10.0, 1, 10.0), 0.0),
           "one worker busy the whole pass is never idle");
    expect(approx(idleFraction(0.0, 4, 0.0), 0.0),
           "an empty pass is not idle");
}

Span
span(std::uint32_t id, std::uint32_t parent, double start, double end)
{
    Span s;
    s.id = id;
    s.parent = parent;
    s.start = start;
    s.end = end;
    return s;
}

void
testSelfTimes()
{
    // A task [0, 10] whose calls overlap ([1, 3], [2, 5]) or overrun it
    // ([9, 12]); the call [2, 5] has a child of its own, [3, 4].
    const std::vector<Span> spans = {
        span(0, Span::noParent, 0, 10), span(1, 0, 1, 3),
        span(2, 0, 2, 5), span(3, 0, 9, 12), span(4, 2, 3, 4)};
    const std::vector<double> self = selfTimes(spans);
    expect(approx(self[0], 5.0),
           "a span loses the union of its children, clipped to it");
    expect(approx(self[1], 2.0) && approx(self[3], 3.0) &&
               approx(self[4], 1.0),
           "a leaf keeps its duration");
    expect(approx(self[2], 2.0), "a child loses only its own children");
}

void
testFingerprintFilter()
{
    for (const char *m :
         {"time.compute", "time.total", "proto.page_fetches", "proto.msgs",
          "net.messages", "net.iobus.queue_delay", "comm.data",
          "sim.total_cycles"}) {
        expect(fingerprinted(m), std::string(m) + " is fingerprinted");
    }
    for (const char *m :
         {"proto.pool_page_allocs", "sim.events_run", "sim.events_scheduled",
          "sim.max_pending_events", "sim.pdes_windows",
          "machine.fastpath_hits", "machine.saver_saves",
          "mem.simd_twin_copy_bytes", "mem.simd_level"}) {
        expect(!fingerprinted(m), std::string(m) + " is left out");
    }
}

void
testFingerprints()
{
    swsm::RunStats a;
    a.totalCycles = 100;
    a.finishTimes = {90, 100};
    a.metrics.counters = {{"net.messages", 5}, {"sim.events_run", 1000}};
    const std::string fp = experimentFingerprint(a, true);

    swsm::RunStats b = a;
    b.metrics.counters[1].second = 2000;
    expect(experimentFingerprint(b, true) == fp,
           "host-only counters leave the fingerprint alone");
    b.metrics.counters[0].second = 6;
    expect(experimentFingerprint(b, true) != fp,
           "simulated counters change the fingerprint");
    b = a;
    b.finishTimes[0] = 91;
    expect(experimentFingerprint(b, true) != fp,
           "per-processor cycles change the fingerprint");
    expect(experimentFingerprint(a, false) != fp,
           "the verify flag changes the fingerprint");

    Task experiment;
    experiment.key = "app/hlrc/AO";
    Task baseline;
    baseline.key = "app/baseline";
    baseline.baseline = true;
    std::vector<TaskResult> results(2);
    results[0].task = &experiment;
    results[0].fingerprint = fp;
    results[1].task = &baseline;
    results[1].fingerprint = baselineFingerprint(42);
    FingerprintTable recorded = {{experiment.key, results[0].fingerprint},
                                 {baseline.key, results[1].fingerprint}};
    expect(checkFingerprints(results, recorded) == 0 &&
               !results[0].failed() && !results[1].failed(),
           "matching records pass");

    std::string &perturbed = recorded[experiment.key];
    perturbed.back() = perturbed.back() == '0' ? '1' : '0';
    expect(checkFingerprints(results, recorded) == 1 &&
               results[0].failed() && !results[1].failed(),
           "a perturbed record fails its task and no other");
    recorded.erase(baseline.key);
    expect(checkFingerprints(results, recorded) == 2 && results[1].failed(),
           "a missing record fails its task");
}

} // namespace

int
main()
{
    testPercentile();
    testIdleFraction();
    testSelfTimes();
    testFingerprintFilter();
    testFingerprints();
    if (failures) {
        std::fprintf(stderr, "swsm_bench_selftest: %d check(s) failed\n",
                     failures);
        return 1;
    }
    std::printf("swsm_bench_selftest: all checks passed\n");
    return 0;
}
