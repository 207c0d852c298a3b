#include "worker.hh"

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "harness/experiment.hh"
#include "serve/result_codec.hh"
#include "serve/shm_queue.hh"
#include "sim/log.hh"

namespace swsm
{

namespace
{

std::vector<std::string>
splitKey(const std::string &key)
{
    std::vector<std::string> parts;
    std::size_t pos = 0;
    while (pos <= key.size()) {
        const std::size_t slash = key.find('/', pos);
        if (slash == std::string::npos) {
            parts.push_back(key.substr(pos));
            break;
        }
        parts.push_back(key.substr(pos, slash - pos));
        pos = slash + 1;
    }
    return parts;
}

} // namespace

bool
parseJobKey(const std::string &key, JobSpec &out, std::string &err)
{
    JobSpec job;
    job.key = key;
    const std::vector<std::string> parts = splitKey(key);
    if (parts.size() < 3) {
        err = "job key too short: " + key;
        return false;
    }
    if (!parseSizeClass(parts[0], job.size)) {
        err = "bad size class in job key: " + key;
        return false;
    }

    if (parts[1] == "baseline") {
        if (parts.size() != 3) {
            err = "malformed baseline job key: " + key;
            return false;
        }
        const AppInfo *app = lookupApp(parts[2]);
        if (!app) {
            err = "unknown app in job key: " + key;
            return false;
        }
        job.baseline = true;
        job.item.app = *app;
        out = std::move(job);
        return true;
    }

    if (parts[1].size() < 2 || parts[1][0] != 'p' ||
        !parseBoundedInt(std::string_view(parts[1]).substr(1), 1,
                         maxProcs, job.numProcs)) {
        err = "bad procs in job key: " + key;
        return false;
    }
    const AppInfo *app = lookupApp(parts[2]);
    if (!app) {
        err = "unknown app in job key: " + key;
        return false;
    }
    job.item.app = *app;

    if (parts.size() == 4 && parts[3] == "ideal") {
        job.item.ideal = true;
        job.item.kind = ProtocolKind::Ideal;
        out = std::move(job);
        return true;
    }
    if (parts.size() != 5) {
        err = "malformed result job key: " + key;
        return false;
    }
    if (parts[3] == "hlrc") {
        job.item.kind = ProtocolKind::Hlrc;
    } else if (parts[3] == "sc") {
        job.item.kind = ProtocolKind::Sc;
    } else {
        err = "bad protocol in job key: " + key;
        return false;
    }
    if (parts[4].size() != 2 ||
        std::string("AHBWX").find(parts[4][0]) == std::string::npos ||
        std::string("OHB").find(parts[4][1]) == std::string::npos) {
        err = "bad config sets in job key: " + key;
        return false;
    }
    job.item.commSet = parts[4][0];
    job.item.protoSet = parts[4][1];
    out = std::move(job);
    return true;
}

std::string
runJob(const JobSpec &job, ShmCache &cache, int sim_threads)
{
    const AppInfo &app = job.item.app;
    if (job.baseline) {
        const std::string blob = codec::encodeBaseline(
            runSequentialBaseline(app.factory, job.size));
        if (!cache.put(job.key, blob))
            SWSM_WARN("shm cache: cannot store %s (segment full)",
                      job.key.c_str());
        return blob;
    }

    // Result jobs need the app's sequential baseline; the server
    // queues baselines first, so this is normally a cache hit.
    const std::string baselineKey = std::string(sizeClassName(job.size)) +
        "/baseline/" + app.name;
    Cycles seq = 0;
    std::string seqBlob;
    if (!cache.get(baselineKey, seqBlob) ||
        !codec::decodeBaseline(seqBlob, seq)) {
        seq = runSequentialBaseline(app.factory, job.size);
        cache.put(baselineKey, codec::encodeBaseline(seq));
    }

    ExperimentConfig cfg;
    cfg.protocol = job.item.kind;
    cfg.numProcs = job.numProcs;
    cfg.trace = false;
    cfg.simThreads = sim_threads;
    if (!job.item.ideal) {
        cfg.commSet = job.item.commSet;
        cfg.protoSet = job.item.kind == ProtocolKind::Sc
            ? 'O'
            : job.item.protoSet;
        cfg.blockBytes = app.scBlockBytes;
    }
    const std::string blob = codec::encodeResult(
        runExperiment(app.factory, job.size, cfg, seq));
    if (!cache.put(job.key, blob))
        SWSM_WARN("shm cache: cannot store %s (segment full)",
                  job.key.c_str());
    return blob;
}

void
runWorkerLoop(const WorkerOptions &opts)
{
    ShmCache::Options co;
    co.name = opts.segment;
    co.keySchema = codec::schemaVersion;
    co.slotCount = opts.cacheSlotCount;
    co.arenaBytes = opts.arenaBytes;
    ShmCache cache(co);

    ShmQueue::Options qo;
    qo.name = opts.queueName;
    qo.slotCount = opts.queueSlotCount;
    ShmQueue queue(qo);

    for (;;) {
        ShmQueue::Lease lease;
        if (!queue.tryPop(lease)) {
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            continue;
        }

        // Keep the lease warm while the simulation runs; a silent stop
        // of this heartbeat is exactly what the server's reclaim pass
        // watches for.
        std::atomic<bool> jobDone{false};
        std::thread beat([&] {
            while (!jobDone.load(std::memory_order_relaxed)) {
                queue.heartbeat(lease);
                for (std::uint64_t slept = 0;
                     slept < opts.heartbeatMs &&
                     !jobDone.load(std::memory_order_relaxed);
                     slept += 10)
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(10));
            }
        });

        std::string error;
        try {
            JobSpec job;
            if (!parseJobKey(lease.key, job, error)) {
                // fall through to fail() below
            } else {
                runJob(job, cache, opts.simThreads);
            }
        } catch (const std::exception &e) {
            error = e.what();
        }

        jobDone.store(true, std::memory_order_relaxed);
        beat.join();
        if (error.empty())
            queue.complete(lease);
        else
            queue.fail(lease, error);
    }
}

} // namespace swsm
