#include "server.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <functional>
#include <set>

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#ifdef __linux__
#include <sys/prctl.h>
#endif

#include "harness/bench_report.hh"
#include "harness/task_pool.hh"
#include "obs/json_writer.hh"
#include "serve/result_codec.hh"
#include "serve/shard.hh"
#include "serve/worker.hh"
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
    sweep.full = req.get("full", "0") == "1";
    const std::string apps = req.get("apps");
    std::size_t pos = 0;
    while (pos < apps.size()) {
        std::size_t comma = apps.find(',', pos);
        if (comma == std::string::npos)
            comma = apps.size();
        const std::string name = apps.substr(pos, comma - pos);
        pos = comma + 1;
        if (name.empty())
            continue;
        if (!lookupApp(name)) {
            err = "unknown app \"" + name + "\"";
            return false;
        }
        sweep.apps.push_back(name);
    }
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
    const std::string proto = req.get("proto", "hlrc");
    if (proto == "ideal") {
        item.ideal = true;
        item.kind = ProtocolKind::Ideal;
    } else if (proto == "hlrc") {
        item.kind = ProtocolKind::Hlrc;
    } else if (proto == "sc") {
        item.kind = ProtocolKind::Sc;
    } else {
        err = "bad proto (want hlrc|sc|ideal)";
        return false;
    }
    const std::string comm = req.get("comm", "A");
    const std::string cost = req.get("cost", "O");
    if (comm.size() != 1 ||
        std::string("AHBWX").find(comm[0]) == std::string::npos) {
        err = "bad comm set (want one of A H B W X)";
        return false;
    }
    if (cost.size() != 1 ||
        std::string("OHB").find(cost[0]) == std::string::npos) {
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

/** Job-queue segment name: rides beside the memo segment. */
std::string
queueNameFor(const std::string &segment)
{
    return segment + ".jobq";
}

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

    if (opts_.tcpPort > 0) {
        tcpListenFd_ = wire::listenTcp(opts_.tcpPort);
        if (tcpListenFd_ < 0)
            SWSM_FATAL("sweep server: cannot listen on tcp port %d",
                       opts_.tcpPort);
    }

    if (opts_.workers > 0) {
        // The queue is transient coordination state (unlike the memo
        // cache): always start fresh so stale jobs or failure records
        // from a crashed server cannot leak into new requests.
        ShmQueue::remove(queueNameFor(opts_.segment));
        ShmQueue::Options qo;
        qo.name = queueNameFor(opts_.segment);
        queue_ = std::make_unique<ShmQueue>(qo);
        // Forking here, before run() spawns any threads, keeps the
        // children single-threaded at birth; later respawns fork from
        // the supervisor thread and immediately confine themselves to
        // runWorkerLoop.
        for (int i = 0; i < opts_.workers; ++i)
            workerPids_.push_back(spawnWorkerProcess());
        supervisor_ = std::thread(&Server::superviseWorkers, this);
    }
}

Server::~Server()
{
    stop();
    if (supervisor_.joinable())
        supervisor_.join();

    std::vector<pid_t> pids;
    {
        std::lock_guard<std::mutex> lock(workerMu_);
        pids.swap(workerPids_);
    }
    for (const pid_t pid : pids)
        ::kill(pid, SIGTERM);
    for (const pid_t pid : pids) {
        bool reaped = false;
        for (int i = 0; i < 200 && !reaped; ++i) {
            if (::waitpid(pid, nullptr, WNOHANG) == pid)
                reaped = true;
            else
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(10));
        }
        if (!reaped) {
            ::kill(pid, SIGKILL);
            ::waitpid(pid, nullptr, 0);
        }
    }
    if (queue_)
        ShmQueue::remove(queueNameFor(opts_.segment));

    if (listenFd_ >= 0)
        ::close(listenFd_);
    if (tcpListenFd_ >= 0)
        ::close(tcpListenFd_);
    ::unlink(opts_.sockPath.c_str());
}

void
Server::stop()
{
    stopping_.store(true, std::memory_order_relaxed);
    if (listenFd_ >= 0)
        ::shutdown(listenFd_, SHUT_RDWR);
    if (tcpListenFd_ >= 0)
        ::shutdown(tcpListenFd_, SHUT_RDWR);
}

std::vector<pid_t>
Server::workerPids() const
{
    std::lock_guard<std::mutex> lock(workerMu_);
    return workerPids_;
}

pid_t
Server::spawnWorkerProcess()
{
    const pid_t pid = ::fork();
    if (pid < 0)
        SWSM_FATAL("sweep server: cannot fork worker");
    if (pid != 0)
        return pid;

    // Worker child: drop the listening sockets, die with the server,
    // and never return into the parent's control flow.
#ifdef __linux__
    ::prctl(PR_SET_PDEATHSIG, SIGTERM);
#endif
    if (listenFd_ >= 0)
        ::close(listenFd_);
    if (tcpListenFd_ >= 0)
        ::close(tcpListenFd_);
    WorkerOptions wo;
    wo.segment = opts_.segment;
    wo.cacheSlotCount = opts_.slotCount;
    wo.arenaBytes = opts_.arenaBytes;
    wo.queueName = queueNameFor(opts_.segment);
    wo.simThreads = opts_.simThreads;
    wo.heartbeatMs = opts_.workerHeartbeatMs;
    try {
        runWorkerLoop(wo);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "swsm worker: %s\n", e.what());
        ::_exit(1);
    }
    ::_exit(0);
}

void
Server::superviseWorkers()
{
    while (!stopping_.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        queue_->reclaimExpired(opts_.leaseTimeoutMs);

        std::lock_guard<std::mutex> lock(workerMu_);
        for (pid_t &pid : workerPids_) {
            if (::waitpid(pid, nullptr, WNOHANG) != pid)
                continue;
            SWSM_WARN("sweep server: worker %d died, respawning",
                      static_cast<int>(pid));
            pid = spawnWorkerProcess();
        }
    }
}

std::string
Server::computeViaQueue(const std::string &key)
{
    if (!queue_->push(key))
        fatal("job queue full: cannot enqueue " + key);
    // The submitter polls: the worker publishes the blob to the memo
    // cache *before* retiring its lease, so "not in the queue and not
    // in the cache" means the job was truly lost (bounded re-push).
    int repushes = 0;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::minutes(10);
    for (;;) {
        std::string blob;
        if (cache_.get(key, blob))
            return blob;
        std::string err;
        if (queue_->takeFailure(key, err))
            fatal("worker failed on " + key + ": " + err);
        if (!queue_->contains(key)) {
            if (cache_.get(key, blob))
                return blob;
            if (++repushes > 3 || !queue_->push(key))
                fatal("job repeatedly lost: " + key);
        }
        if (std::chrono::steady_clock::now() > deadline)
            fatal("timed out waiting for a worker on " + key);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
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
    std::mutex connMu;
    const auto acceptLoop = [&](int listen_fd) {
        while (!stopping_.load(std::memory_order_relaxed)) {
            const int fd = ::accept(listen_fd, nullptr, nullptr);
            if (fd < 0) {
                if (errno == EINTR)
                    continue;
                break;
            }
            std::lock_guard<std::mutex> lock(connMu);
            connections.emplace_back(&Server::handleConnection, this,
                                     fd);
        }
    };

    std::thread tcpAccept;
    if (tcpListenFd_ >= 0)
        tcpAccept = std::thread(acceptLoop, tcpListenFd_);
    acceptLoop(listenFd_);
    if (tcpAccept.joinable())
        tcpAccept.join();
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
        } else if (queue_) {
            // Worker fan-out: dispatch instead of simulating here; the
            // worker publishes into the cache itself.
            simRuns_.fetch_add(1, std::memory_order_relaxed);
            result = computeViaQueue(key);
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
                       bool &cached, std::string *blob_out)
{
    const std::string blob =
        obtain(cacheKeyBaseline(sweep, app.name), cached, [&] {
            return codec::encodeBaseline(
                runSequentialBaseline(app.factory, sweep.size));
        });
    Cycles seq = 0;
    if (!codec::decodeBaseline(blob, seq))
        fatal("shm cache: undecodable baseline blob for " + app.name);
    if (blob_out)
        *blob_out = blob;
    return seq;
}

ExperimentResult
Server::obtainResult(const GridItem &item, const SweepOptions &sweep,
                     Cycles seq, bool &cached, std::string *blob_out)
{
    const std::string blob =
        obtain(cacheKeyResult(sweep, item), cached, [&] {
            ExperimentConfig cfg;
            cfg.protocol = item.kind;
            cfg.numProcs = sweep.numProcs;
            cfg.trace = false;
            cfg.simThreads = sweep.effectiveSimThreads();
            if (!item.ideal) {
                cfg.commSet = item.commSet;
                cfg.protoSet =
                    item.kind == ProtocolKind::Sc ? 'O' : item.protoSet;
                cfg.blockBytes = item.app.scBlockBytes;
            }
            return codec::encodeResult(
                runExperiment(item.app.factory, sweep.size, cfg, seq));
        });
    // Fresh computes decode their own encoding too, so hit and miss
    // paths render byte-identically.
    ExperimentResult r;
    if (!codec::decodeResult(blob, r))
        fatal("shm cache: undecodable result blob");
    if (blob_out)
        *blob_out = blob;
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

    struct ItemState
    {
        bool done = false;
        bool cached = false;
        ExperimentResult result;
        std::string blob;
        std::string error;
    };
    struct BaselineState
    {
        Cycles seq = 0;
        bool cached = false;
        std::string blob;
        std::string error;
    };

    std::vector<ItemState> states(items.size());
    std::map<std::string, BaselineState> baselines;
    std::mutex mu;
    std::condition_variable cv;
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
    const auto countLookup = [&](bool cached) {
        (cached ? hits : misses).fetch_add(1, std::memory_order_relaxed);
        (cached ? reqHits_ : reqMisses_)
            .fetch_add(1, std::memory_order_relaxed);
    };

    // Pre-insert every app's baseline node so worker threads only ever
    // assign through stable references.
    for (const GridItem &item : items)
        baselines[item.app.name];

    TaskPool pool(std::max(1, sweep.jobs));
    std::map<std::string, TaskPool::TaskId> baselineTask;
    for (std::size_t i = 0; i < items.size(); ++i) {
        const AppInfo &app = items[i].app;
        if (baselineTask.count(app.name))
            continue;
        BaselineState &bs = baselines[app.name];
        baselineTask[app.name] = pool.submit([this, &app, &sweep, &bs,
                                              &countLookup] {
            try {
                bool cached = false;
                const Cycles seq =
                    obtainBaseline(app, sweep, cached, &bs.blob);
                countLookup(cached);
                bs.seq = seq;
                bs.cached = cached;
            } catch (const std::exception &e) {
                bs.error = e.what();
            }
        });
    }
    for (std::size_t i = 0; i < items.size(); ++i) {
        const GridItem &item = items[i];
        ItemState &st = states[i];
        const BaselineState &bs = baselines[item.app.name];
        pool.submit(
            [this, &item, &sweep, &st, &bs, &mu, &cv, &countLookup] {
                try {
                    if (!bs.error.empty())
                        fatal(bs.error);
                    bool cached = false;
                    std::string blob;
                    ExperimentResult r = obtainResult(item, sweep,
                                                      bs.seq, cached,
                                                      &blob);
                    countLookup(cached);
                    std::lock_guard<std::mutex> lock(mu);
                    st.result = std::move(r);
                    st.blob = std::move(blob);
                    st.cached = cached;
                    st.done = true;
                } catch (const std::exception &e) {
                    std::lock_guard<std::mutex> lock(mu);
                    st.error = e.what();
                    st.done = true;
                }
                cv.notify_all();
            },
            {baselineTask[item.app.name]});
    }

    // Hand items over in grid order while the pool executes; a
    // completed item is reported as soon as every earlier one is.
    std::thread runner([&] { pool.run(); });
    run.results.resize(items.size());
    run.blobs.resize(items.size());
    run.cached.resize(items.size());
    bool keepReporting = true;
    for (std::size_t i = 0; i < items.size(); ++i) {
        {
            std::unique_lock<std::mutex> lock(mu);
            cv.wait(lock, [&] { return states[i].done; });
        }
        ItemState &st = states[i];
        if (!st.error.empty()) {
            failure = st.error;
            break;
        }
        // The pool task is finished with this state; move it out.
        run.results[i] = std::move(st.result);
        run.blobs[i] = std::move(st.blob);
        run.cached[i] = st.cached;
        if (keepReporting && onResult)
            keepReporting = onResult(i);
    }
    runner.join();
    if (!failure.empty())
        return false;

    for (auto &[app, bs] : baselines)
        run.baselines[app] = {bs.seq, std::move(bs.blob)};
    run.items = std::move(items);
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
    for (const auto &[app, bs] : run.baselines)
        report.addBaseline(app, bs.first);
    // Entries carry the bare runner key so the document matches the
    // batch binaries' BENCH output (the size/procs context lives in
    // the report header, as it does there).
    std::map<std::string, const ExperimentResult *> byKey;
    for (std::size_t i = 0; i < run.items.size(); ++i)
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

bool
Server::handleShardWork(int fd, const wire::Request &req)
{
    SweepOptions sweep;
    std::string err;
    if (!buildSweep(req, opts_, sweep, err))
        return sendError(fd, err);
    const std::string benchName = req.get("bench", "fig3");
    if (benchName != "fig3")
        return sendError(fd, "unknown bench \"" + benchName + "\"");
    int shards = 0;
    int index = 0;
    if (!parseBoundedInt(req.get("shards", "1"), 1,
                         static_cast<int>(shard::maxShards), shards))
        return sendError(fd, "bad shards");
    if (!parseBoundedInt(req.get("index", "0"), 0, shards - 1, index))
        return sendError(fd, "bad shard index");

    std::vector<GridItem> mine;
    for (GridItem &item : figure3Grid(sweep)) {
        const std::string rk = item.ideal
            ? SweepRunner::idealKey(item.app)
            : SweepRunner::resultKey(item.app, item.kind, item.commSet,
                                     item.protoSet);
        if (shard::selects(rk, static_cast<std::uint32_t>(shards),
                           static_cast<std::uint32_t>(index)))
            mine.push_back(std::move(item));
    }

    GridRun run;
    std::string failure;
    if (!mine.empty() &&
        !executeGrid(sweep, std::move(mine), run, nullptr, failure))
        return sendError(fd, failure);

    const auto sendBlob = [&](const std::string &key,
                              const std::string &blob) {
        return sendEvent(fd,
                         [&](JsonWriter &w) {
                             w.member("event", "blob");
                             w.member("key", key);
                             w.member("bytes",
                                      static_cast<std::uint64_t>(
                                          blob.size()));
                         }) &&
            wire::writeAll(fd, blob);
    };
    std::uint64_t count = 0;
    for (const auto &[app, bs] : run.baselines) {
        if (!sendBlob(cacheKeyBaseline(sweep, app), bs.second))
            return false;
        ++count;
    }
    for (std::size_t i = 0; i < run.items.size(); ++i) {
        if (!sendBlob(run.keys[i], run.blobs[i]))
            return false;
        ++count;
    }
    return sendEvent(fd, [&](JsonWriter &w) {
        w.member("event", "done");
        w.member("blobs", count);
        w.member("hits", run.hits);
        w.member("misses", run.misses);
    });
}

bool
Server::handleShard(int fd, const wire::Request &req)
{
    SweepOptions sweep;
    std::string err;
    if (!buildSweep(req, opts_, sweep, err))
        return sendError(fd, err);
    const std::string benchName = req.get("bench", "fig3");
    if (benchName != "fig3")
        return sendError(fd, "unknown bench \"" + benchName + "\"");
    std::vector<shard::Peer> peers;
    if (!shard::parsePeers(req.get("peers"), peers, err))
        return sendError(fd, err);
    const std::uint32_t n = static_cast<std::uint32_t>(peers.size());

    // Fan the slices out to every peer concurrently; each peer derives
    // the same partition from (shards, index) alone.
    std::vector<std::map<std::string, std::string>> shardBlobs(n);
    std::vector<std::string> shardErr(n);
    {
        std::vector<std::thread> fetchers;
        for (std::uint32_t i = 0; i < n; ++i) {
            fetchers.emplace_back([&, i] {
                wire::Request work;
                work.verb = "shardwork";
                work.params = req.params;
                work.params.erase("peers");
                work.params["shards"] = std::to_string(n);
                work.params["index"] = std::to_string(i);
                shard::fetchShard(peers[i], work, shardBlobs[i],
                                  shardErr[i]);
            });
        }
        for (std::thread &t : fetchers)
            t.join();
    }
    for (std::uint32_t i = 0; i < n; ++i) {
        if (!shardErr[i].empty())
            return sendError(fd, "shard " + std::to_string(i) + ": " +
                                 shardErr[i]);
    }

    // Merge. Baselines land in every shard whose slice needs them, so
    // overlapping keys must carry byte-identical blobs — anything else
    // means the hosts disagree on a deterministic result.
    std::map<std::string, std::string> blobs;
    for (std::uint32_t i = 0; i < n; ++i) {
        for (auto &[key, blob] : shardBlobs[i]) {
            const auto [it, fresh] = blobs.emplace(key, blob);
            if (!fresh && it->second != blob)
                return sendError(fd, "shards disagree on " + key);
        }
    }

    std::vector<GridItem> items = figure3Grid(sweep);
    std::vector<std::string> keys;
    std::vector<std::string> reportKeys;
    dedupeGrid(sweep, items, keys, reportKeys);
    if (items.empty())
        return sendError(fd, "empty grid");

    // Canonical header: the merged report must not depend on shard
    // count, arrival order, or this host's parallelism settings
    // (results are bit-identical across jobs/simThreads anyway).
    SweepOptions headerSweep = sweep;
    headerSweep.jobs = 1;
    headerSweep.simThreads = 1;
    BenchReport report(benchName, &headerSweep);

    std::set<std::string> apps;
    for (const GridItem &item : items)
        apps.insert(item.app.name);
    for (const std::string &app : apps) {
        const std::string key = cacheKeyBaseline(sweep, app);
        const auto it = blobs.find(key);
        Cycles seq = 0;
        if (it == blobs.end() || !codec::decodeBaseline(it->second, seq))
            return sendError(fd, "missing baseline blob " + key);
        report.addBaseline(app, seq);
    }

    std::map<std::string, std::string> keyByReportKey;
    for (std::size_t i = 0; i < items.size(); ++i)
        keyByReportKey[reportKeys[i]] = keys[i];
    for (const auto &[rk, key] : keyByReportKey) {
        const auto it = blobs.find(key);
        ExperimentResult r;
        if (it == blobs.end() || !codec::decodeResult(it->second, r))
            return sendError(fd, "missing result blob " + key);
        // Host timing is a per-host measurement: which peer computed a
        // key changes with the shard count and peer order, so any
        // nonzero value here would break the merged report's
        // byte-identity guarantee. Zero it out — every other field is
        // bit-identical across hosts by construction, and per-host
        // timing stays available from each peer's own grid reports.
        r.hostSeconds = 0.0;
        report.add(rk, r);
    }
    const std::string doc = report.render(0.0);

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
        w.member("shards", static_cast<std::uint64_t>(n));
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
            if (queue_) {
                const ShmQueue::Stats qs = queue_->stats();
                w.member("workers",
                         static_cast<std::uint64_t>(
                             workerPids().size()));
                w.member("queuePushed", qs.pushed);
                w.member("queueCompleted", qs.completed);
                w.member("queueFailed", qs.failed);
                w.member("queueReclaimed", qs.reclaimed);
                w.member("jobsQueued", qs.queued);
                w.member("jobsLeased", qs.leased);
            }
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
    } else if (req.verb == "shardwork") {
        try {
            handleShardWork(fd, req);
        } catch (const std::exception &e) {
            sendError(fd, e.what());
        }
    } else if (req.verb == "shard") {
        try {
            handleShard(fd, req);
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
