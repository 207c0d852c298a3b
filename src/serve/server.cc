#include "server.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <functional>
#include <set>
#include <thread>

#include <sys/socket.h>
#include <unistd.h>

#include "harness/bench_report.hh"
#include "obs/json_writer.hh"
#include "serve/result_codec.hh"
#include "sim/log.hh"

namespace swsm
{

namespace
{

bool
sendEvent(int fd, const std::function<void(JsonWriter &)> &fill)
{
    JsonWriter w(0);
    w.beginObject();
    fill(w);
    w.endObject();
    return wire::writeAll(fd, w.str() + "\n");
}

bool
sendError(int fd, const std::string &message)
{
    return sendEvent(fd, [&](JsonWriter &w) {
        w.member("event", "error");
        w.member("message", message);
    });
}

void
writeSnapshot(JsonWriter &w, const MetricsSnapshot &m)
{
    w.key("counters");
    w.beginObject();
    for (const auto &[name, v] : m.counters)
        w.member(name, v);
    w.endObject();
    w.key("gauges");
    w.beginObject();
    for (const auto &[name, v] : m.gauges)
        w.member(name, v);
    w.endObject();
    w.key("histograms");
    w.beginObject();
    for (const auto &[name, h] : m.histograms) {
        w.key(name);
        w.beginObject();
        w.member("total", h.total);
        w.key("buckets");
        w.beginArray();
        for (const std::uint64_t count : h.buckets)
            w.value(count);
        w.endArray();
        w.endObject();
    }
    w.endObject();
}

/**
 * Build the request's sweep options from its parameters. The server's
 * jobs/simThreads settings ride along so every request renders the
 * same report header (results are bit-identical across both anyway).
 */
bool
buildSweep(const wire::Request &req, const ServerOptions &server,
           SweepOptions &out, std::string &err)
{
    SweepOptions sweep;
    if (!parseSizeClass(req.get("size", "small"), sweep.size)) {
        err = "bad size (want tiny|small|medium|paper)";
        return false;
    }
    if (!parseBoundedInt(req.get("procs", "16"), 1, maxProcs,
                         sweep.numProcs)) {
        err = "bad procs";
        return false;
    }
    const std::string full = req.get("full", "0");
    if (full != "0" && full != "1") {
        err = "bad full (want 0 or 1)";
        return false;
    }
    sweep.full = full == "1";
    // No apps parameter means the whole registry; an explicit list
    // must name registered apps only, as --apps must.
    if (req.params.count("apps") &&
        !parseAppList(req.get("apps"), sweep.apps, err))
        return false;
    sweep.jobs = server.jobs;
    sweep.simThreads = server.simThreads;
    out = std::move(sweep);
    return true;
}

/** Items of a "run" request: the one configuration it names. */
bool
buildRunItem(const wire::Request &req, GridItem &out, std::string &err)
{
    const AppInfo *app = lookupApp(req.get("app"));
    if (!app) {
        err = "unknown app \"" + req.get("app") + "\"";
        return false;
    }
    GridItem item;
    item.app = *app;
    if (!parseProtocol(req.get("proto", "hlrc"), item.kind)) {
        err = "bad proto (want hlrc|sc|ideal)";
        return false;
    }
    item.ideal = item.kind == ProtocolKind::Ideal;
    const std::string comm = req.get("comm", "A");
    const std::string cost = req.get("cost", "O");
    if (!validCommSet(comm)) {
        err = "bad comm set (want one of A H B W X)";
        return false;
    }
    if (!validProtoSet(cost)) {
        err = "bad cost set (want one of O H B)";
        return false;
    }
    item.commSet = comm[0];
    item.protoSet = cost[0];
    out = std::move(item);
    return true;
}

/** RAII socket close. */
struct FdCloser
{
    int fd;
    ~FdCloser()
    {
        if (fd >= 0)
            ::close(fd);
    }
};

/**
 * Dedupe a grid by canonical cache key, keeping first-occurrence order
 * (the SC cost variants collapse onto 'O' exactly like the batch
 * runner's plan phase); fills the parallel key vectors.
 */
void
dedupeGrid(const SweepOptions &sweep, std::vector<GridItem> &items,
           std::vector<std::string> &keys,
           std::vector<std::string> &report_keys)
{
    std::vector<GridItem> unique;
    std::set<std::string> seen;
    for (GridItem &item : items) {
        std::string key = cacheKeyResult(sweep, item);
        if (!seen.insert(key).second)
            continue;
        report_keys.push_back(
            item.ideal ? SweepRunner::idealKey(item.app)
                       : SweepRunner::resultKey(item.app, item.kind,
                                                item.commSet,
                                                item.protoSet));
        unique.push_back(std::move(item));
        keys.push_back(std::move(key));
    }
    items = std::move(unique);
}

} // namespace

std::string
cacheKeyResult(const SweepOptions &sweep, const GridItem &item)
{
    const std::string suffix = item.ideal
        ? SweepRunner::idealKey(item.app)
        : SweepRunner::resultKey(item.app, item.kind, item.commSet,
                                 item.protoSet);
    return std::string(sizeClassName(sweep.size)) + "/p" +
        std::to_string(sweep.numProcs) + "/" + suffix;
}

std::string
cacheKeyBaseline(const SweepOptions &sweep, const std::string &app)
{
    // No procs component: the baseline is a sequential run.
    return std::string(sizeClassName(sweep.size)) + "/baseline/" + app;
}

Server::Server(const ServerOptions &opts)
    : opts_(opts),
      cache_([&] {
          if (opts.reset)
              ShmCache::remove(opts.segment);
          ShmCache::Options co;
          co.name = opts.segment;
          co.keySchema = codec::schemaVersion;
          co.slotCount = opts.slotCount;
          co.arenaBytes = opts.arenaBytes;
          return co;
      }())
{
    listenFd_ = wire::listenUnix(opts_.sockPath);
    if (listenFd_ < 0)
        SWSM_FATAL("sweep server: cannot listen on %s",
                   opts_.sockPath.c_str());

    registry_.addCounter("serve.requests", [this] {
        return requests_.load(std::memory_order_relaxed);
    });
    registry_.addCounter("serve.sim_runs", [this] {
        return simRuns_.load(std::memory_order_relaxed);
    });
    registry_.addCounter("serve.hits", [this] {
        return reqHits_.load(std::memory_order_relaxed);
    });
    registry_.addCounter("serve.misses", [this] {
        return reqMisses_.load(std::memory_order_relaxed);
    });
    registry_.addCounter("serve.cache_inserts",
                         [this] { return cache_.stats().inserts; });
    registry_.addCounter("serve.cache_evictions",
                         [this] { return cache_.stats().evictions; });
    registry_.addCounter("serve.cache_slots_used",
                         [this] { return cache_.stats().slotsUsed; });
    registry_.addCounter("serve.cache_arena_used",
                         [this] { return cache_.stats().arenaUsed; });
    registry_.addGauge("serve.queue_depth", [this] {
        return static_cast<double>(
            queueDepth_.load(std::memory_order_relaxed));
    });
    registry_.addHistogram("serve.request_latency_us", [this] {
        std::lock_guard<std::mutex> lock(latencyMu_);
        return latencyUs_;
    });
}

Server::~Server()
{
    stop();
    if (listenFd_ >= 0)
        ::close(listenFd_);
    ::unlink(opts_.sockPath.c_str());
}

void
Server::stop()
{
    stopping_.store(true, std::memory_order_relaxed);
    if (listenFd_ >= 0)
        ::shutdown(listenFd_, SHUT_RDWR);
}

void
Server::recordLatency(double seconds)
{
    std::uint64_t us = static_cast<std::uint64_t>(seconds * 1e6);
    std::size_t bucket = 0;
    while (us >>= 1)
        ++bucket;
    std::lock_guard<std::mutex> lock(latencyMu_);
    if (latencyUs_.buckets.size() <= bucket)
        latencyUs_.buckets.resize(bucket + 1);
    ++latencyUs_.buckets[bucket];
    ++latencyUs_.total;
}

void
Server::run()
{
    std::vector<std::thread> connections;
    while (!stopping_.load(std::memory_order_relaxed)) {
        const int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        connections.emplace_back(&Server::handleConnection, this, fd);
    }
    for (std::thread &t : connections)
        t.join();
}

std::string
Server::obtain(const std::string &key, bool &cached,
               const std::function<std::string()> &compute)
{
    std::string blob;
    if (cache_.get(key, blob)) {
        cached = true;
        return blob;
    }
    cached = false;

    std::shared_ptr<Inflight> fl;
    bool owner = false;
    {
        std::lock_guard<std::mutex> lock(inflightMu_);
        auto it = inflight_.find(key);
        if (it == inflight_.end()) {
            fl = std::make_shared<Inflight>();
            inflight_.emplace(key, fl);
            owner = true;
        } else {
            fl = it->second;
        }
    }

    if (!owner) {
        std::unique_lock<std::mutex> lk(fl->mu);
        fl->cv.wait(lk, [&] { return fl->done; });
        if (fl->failed)
            fatal(fl->error);
        return fl->blob;
    }

    std::string result;
    std::string err;
    try {
        // Another process (or a request that slipped between our miss
        // and the inflight claim) may have stored it meanwhile.
        if (cache_.get(key, result)) {
            cached = true;
        } else {
            simRuns_.fetch_add(1, std::memory_order_relaxed);
            result = compute();
            if (!cache_.put(key, result))
                SWSM_WARN("shm cache: cannot store %s (segment full)",
                          key.c_str());
        }
    } catch (const std::exception &e) {
        err = e.what();
    }

    {
        std::lock_guard<std::mutex> lock(inflightMu_);
        inflight_.erase(key);
    }
    {
        std::lock_guard<std::mutex> lk(fl->mu);
        fl->done = true;
        fl->failed = !err.empty();
        fl->error = err;
        fl->blob = result;
    }
    fl->cv.notify_all();
    if (!err.empty())
        fatal(err);
    return result;
}

Cycles
Server::obtainBaseline(const AppInfo &app, const SweepOptions &sweep,
                       bool &cached)
{
    const std::string blob =
        obtain(cacheKeyBaseline(sweep, app.name), cached, [&] {
            return codec::encodeBaseline(
                runSequentialBaseline(app.factory, sweep.size));
        });
    Cycles seq = 0;
    if (!codec::decodeBaseline(blob, seq))
        fatal("shm cache: undecodable baseline blob for " + app.name);
    return seq;
}

ExperimentResult
Server::obtainResult(const GridItem &item, const SweepOptions &sweep,
                     const std::function<Cycles()> &baseline,
                     bool &cached)
{
    const std::string blob =
        obtain(cacheKeyResult(sweep, item), cached, [&] {
            ExperimentResult r = runExperiment(
                item.app.factory, sweep.size, gridConfig(item, sweep), 0);
            r.sequentialCycles = baseline();
            return codec::encodeResult(r);
        });
    // Fresh computes decode their own encoding too, so hit and miss
    // paths render byte-identically.
    ExperimentResult r;
    if (!codec::decodeResult(blob, r))
        fatal("shm cache: undecodable result blob");
    return r;
}

bool
Server::executeGrid(const SweepOptions &sweep,
                    std::vector<GridItem> items, GridRun &run,
                    const std::function<bool(std::size_t)> &onResult,
                    std::string &failure)
{
    dedupeGrid(sweep, items, run.keys, run.reportKeys);
    if (items.empty()) {
        failure = "empty grid";
        return false;
    }

    // One flat task list: each distinct app's baseline, then every
    // item. An item needs its baseline only for the seqCycles its memo
    // blob stores, so a computed item waits for that slot just before
    // encoding. That cannot deadlock: parallelFor claims indices in
    // order, so every baseline has started, and baselines wait on no
    // slot, before any item can wait.
    std::vector<const AppInfo *> apps;
    std::vector<std::size_t> baselineOf(items.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
        const auto it =
            std::find_if(apps.begin(), apps.end(), [&](const AppInfo *a) {
                return a->name == items[i].app.name;
            });
        baselineOf[i] = static_cast<std::size_t>(it - apps.begin());
        if (it == apps.end())
            apps.push_back(&items[i].app);
    }

    struct Slot
    {
        bool done = false;
        bool cached = false;
        std::string error;
    };
    const std::size_t nb = apps.size();
    std::vector<Slot> slots(nb + items.size());
    std::vector<Cycles> seqs(nb);
    run.results.resize(items.size());
    run.cached.resize(items.size());
    std::mutex mu;
    std::condition_variable cv;
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};

    // A finished slot is never written again, so it may be read after
    // the wait without the lock.
    const auto await = [&](std::size_t s) -> const Slot & {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return slots[s].done; });
        return slots[s];
    };
    const auto task = [&](std::size_t s) {
        Slot out;
        try {
            if (s < nb) {
                seqs[s] = obtainBaseline(*apps[s], sweep, out.cached);
            } else {
                const std::size_t b = baselineOf[s - nb];
                run.results[s - nb] = obtainResult(
                    items[s - nb], sweep,
                    [&] {
                        const Slot &base = await(b);
                        if (!base.error.empty())
                            fatal(base.error);
                        return seqs[b];
                    },
                    out.cached);
            }
            (out.cached ? hits : misses)
                .fetch_add(1, std::memory_order_relaxed);
            (out.cached ? reqHits_ : reqMisses_)
                .fetch_add(1, std::memory_order_relaxed);
        } catch (const std::exception &e) {
            out.error = e.what();
        }
        out.done = true;
        {
            std::lock_guard<std::mutex> lock(mu);
            slots[s] = std::move(out);
        }
        cv.notify_all();
    };

    // Hand items over in grid order while the tasks run; a completed
    // item is reported as soon as every earlier one is.
    std::jthread worker([&] { parallelFor(sweep.jobs, slots.size(), task); });
    bool keepReporting = true;
    for (std::size_t i = 0; i < items.size(); ++i) {
        const Slot &st = await(nb + i);
        if (!st.error.empty()) {
            failure = st.error;
            break;
        }
        run.cached[i] = st.cached;
        if (keepReporting)
            keepReporting = onResult(i);
    }
    worker.join();
    // An item served from the memo never waits for its baseline, so a
    // failed baseline must fail the request here.
    for (std::size_t s = 0; failure.empty() && s < nb; ++s)
        failure = slots[s].error;
    if (!failure.empty())
        return false;

    for (std::size_t s = 0; s < nb; ++s)
        run.baselines[apps[s]->name] = seqs[s];
    run.hits = hits.load(std::memory_order_relaxed);
    run.misses = misses.load(std::memory_order_relaxed);
    return true;
}

bool
Server::handleRunOrGrid(int fd, const wire::Request &req)
{
    SweepOptions sweep;
    std::string err;
    if (!buildSweep(req, opts_, sweep, err))
        return sendError(fd, err);

    std::string benchName;
    std::vector<GridItem> items;
    if (req.verb == "grid") {
        benchName = req.get("bench", "fig3");
        if (benchName != "fig3")
            return sendError(fd, "unknown bench \"" + benchName + "\"");
        items = figure3Grid(sweep);
    } else {
        benchName = "run";
        GridItem item;
        if (!buildRunItem(req, item, err))
            return sendError(fd, err);
        items.push_back(std::move(item));
    }

    GridRun run;
    std::string failure;
    bool clientGone = false;
    const bool ok = executeGrid(
        sweep, std::move(items), run,
        [&](std::size_t i) {
            const ExperimentResult &r = run.results[i];
            const bool sent = sendEvent(fd, [&](JsonWriter &w) {
                w.member("event", "result");
                w.member("key", run.keys[i]);
                w.member("cached", static_cast<bool>(run.cached[i]));
                w.member("workload", r.workload);
                w.member("protocol", r.protocol);
                w.member("config", r.config);
                w.member("simCycles",
                         static_cast<std::uint64_t>(r.parallelCycles));
                w.member("seqCycles",
                         static_cast<std::uint64_t>(
                             r.sequentialCycles));
                w.member("speedup", r.speedup());
                w.member("verified", r.verified);
            });
            if (!sent)
                clientGone = true; // keep simulating; results cache
            return !clientGone;
        },
        failure);
    if (!ok)
        return sendError(fd, failure);
    if (clientGone)
        return false;

    // Assemble the BENCH document: baselines in app order, entries in
    // key order, exactly like BenchReport::addAll on the batch path.
    // The top-level hostSeconds is the (deterministic) sum over the
    // entries' stored values, not wall-clock — see the class comment.
    BenchReport report(benchName, &sweep);
    for (const auto &[app, seq] : run.baselines)
        report.addBaseline(app, seq);
    // Entries carry the bare runner key so the document matches the
    // batch binaries' BENCH output (the size/procs context lives in
    // the report header, as it does there).
    std::map<std::string, const ExperimentResult *> byKey;
    for (std::size_t i = 0; i < run.results.size(); ++i)
        byKey[run.reportKeys[i]] = &run.results[i];
    double hostSum = 0.0;
    for (const auto &[key, r] : byKey) {
        report.add(key, *r);
        hostSum += r->hostSeconds;
    }
    const std::string doc = report.render(hostSum);

    if (!sendEvent(fd, [&](JsonWriter &w) {
            w.member("event", "report");
            w.member("bytes",
                     static_cast<std::uint64_t>(doc.size()));
        }))
        return false;
    if (!wire::writeAll(fd, doc))
        return false;
    return sendEvent(fd, [&](JsonWriter &w) {
        w.member("event", "done");
        w.member("hits", run.hits);
        w.member("misses", run.misses);
        w.member("simRunsTotal",
                 simRuns_.load(std::memory_order_relaxed));
    });
}

void
Server::handleConnection(int fd)
{
    FdCloser closer{fd};
    wire::LineReader reader(fd);
    std::string line;
    if (!reader.readLine(line))
        return;
    wire::Request req;
    if (!wire::parseRequest(line, req)) {
        sendError(fd, "malformed request line");
        return;
    }

    requests_.fetch_add(1, std::memory_order_relaxed);
    queueDepth_.fetch_add(1, std::memory_order_relaxed);
    const auto t0 = std::chrono::steady_clock::now();

    if (req.verb == "ping") {
        sendEvent(fd,
                  [](JsonWriter &w) { w.member("event", "pong"); });
    } else if (req.verb == "stats") {
        const MetricsSnapshot m = registry_.snapshot();
        const ShmCache::Stats cs = cache_.stats();
        sendEvent(fd, [&](JsonWriter &w) {
            w.member("event", "stats");
            w.member("segmentHits", cs.hits);
            w.member("segmentMisses", cs.misses);
            writeSnapshot(w, m);
        });
    } else if (req.verb == "shutdown") {
        sendEvent(fd, [](JsonWriter &w) { w.member("event", "bye"); });
        stop();
    } else if (req.verb == "run" || req.verb == "grid") {
        try {
            handleRunOrGrid(fd, req);
        } catch (const std::exception &e) {
            sendError(fd, e.what());
        }
    } else {
        sendError(fd, "unknown verb \"" + req.verb + "\"");
    }

    recordLatency(std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count());
    queueDepth_.fetch_sub(1, std::memory_order_relaxed);
}

} // namespace swsm
