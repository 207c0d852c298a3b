/**
 * @file
 * Persistent sweep server: accepts run/grid requests over a local unix
 * socket, runs the underlying simulations as one flat parallelFor task
 * list (baselines first, exactly like the batch SweepRunner), and
 * streams BENCH-schema results back incrementally.
 *
 * Completed experiments are memoized in a named shared-memory segment
 * (serve/shm_cache.hh) keyed by the canonical parameter tuple
 *
 *   <size>/p<procs>/<SweepRunner::resultKey>      results
 *   <size>/baseline/<app>                         sequential baselines
 *
 * so repeated grids skip already-simulated configurations, the cache
 * survives server restarts, and offline tools can read it zero-copy
 * (tools/bench_diff.py --from-shm). Keys deliberately exclude
 * jobs/simThreads — results are bit-identical across both by
 * construction — and baselines exclude procs (a sequential run).
 *
 * Concurrent clients requesting the same uncached configuration are
 * deduplicated in-flight: the first request simulates, the rest block
 * on its completion, and serve.sim_runs counts each simulation once.
 * Every simulation runs in this process, on the grid's parallelFor
 * threads.
 *
 * Replay determinism: the cached blob stores the host seconds measured
 * when the experiment originally ran, and the report's top-level
 * hostSeconds is the sum over its entries rather than wall-clock, so a
 * cache-hit replay of a request is byte-identical to the pass that
 * populated it. (Batch BENCH files measure wall-clock there — compare
 * server output against them with tools/bench_diff.py, which ignores
 * host timing, not with cmp.)
 */

#ifndef SWSM_SERVE_SERVER_HH
#define SWSM_SERVE_SERVER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "harness/sweep.hh"
#include "obs/metrics.hh"
#include "serve/shm_cache.hh"
#include "serve/wire.hh"

namespace swsm
{

struct ServerOptions
{
    /** Listening socket path. */
    std::string sockPath = wire::defaultSockPath();
    /** Memo segment name (inside ShmCache::defaultDir()). */
    std::string segment = "swsm_memo";
    std::uint32_t slotCount = 4096;
    std::uint64_t arenaBytes = 64ull << 20;
    /** Simulation threads per grid request (parallelFor jobs). */
    int jobs = defaultJobs();
    /** Threads inside each simulation (parallel event kernel). */
    int simThreads = defaultSimThreads();
    /** Wipe the segment before serving. */
    bool reset = false;
};

/** The sweep server; construct, then run() until a shutdown request. */
class Server
{
  public:
    explicit Server(const ServerOptions &opts);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Accept requests until a shutdown verb arrives. */
    void run();

    /** Ask a running run() to stop (unblocks the accept loop). */
    void stop();

    const std::string &sockPath() const { return opts_.sockPath; }
    ShmCache &cache() { return cache_; }

    /** Simulations actually executed (cache misses computed here). */
    std::uint64_t simRuns() const
    {
        return simRuns_.load(std::memory_order_relaxed);
    }

    /** Frozen serve.* metrics (requests, hits, queue depth, latency). */
    MetricsSnapshot metrics() const { return registry_.snapshot(); }

  private:
    struct Inflight
    {
        std::mutex mu;
        std::condition_variable cv;
        bool done = false;
        bool failed = false;
        std::string blob;
        std::string error;
    };

    /**
     * One executed grid: the deduped items' cache keys and decoded
     * results, in grid order — enough to render a BENCH report.
     */
    struct GridRun
    {
        /** Memo-cache keys, grid order. */
        std::vector<std::string> keys;
        /** Bare batch-runner keys (reports key on these). */
        std::vector<std::string> reportKeys;
        std::vector<ExperimentResult> results;
        std::vector<bool> cached;
        /** app -> sequential baseline cycles. */
        std::map<std::string, Cycles> baselines;
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
    };

    void handleConnection(int fd);
    bool handleRunOrGrid(int fd, const wire::Request &req);

    /**
     * Dedupe @p items and run them all (baselines first, on
     * parallelFor, memo-cached). @p onResult sees each item in
     * grid order as it completes; a false return stops further calls
     * (client gone) without aborting the grid. @return false with
     * @p failure set when any item failed.
     */
    bool executeGrid(const SweepOptions &sweep,
                     std::vector<GridItem> items, GridRun &run,
                     const std::function<bool(std::size_t)> &onResult,
                     std::string &failure);

    /**
     * Cache lookup with in-flight dedup; on miss @p compute runs (once
     * across all concurrent requesters) and the blob is stored.
     * @param cached set true on a shared-memory hit
     * @throws FatalError when compute failed (in any requester)
     */
    std::string obtain(const std::string &key, bool &cached,
                       const std::function<std::string()> &compute);

    Cycles obtainBaseline(const AppInfo &app, const SweepOptions &sweep,
                          bool &cached);
    /**
     * @param baseline yields the app's sequential baseline cycles; a
     *        fresh compute calls it, after simulating, to stamp them
     *        into the blob it stores
     */
    ExperimentResult obtainResult(const GridItem &item,
                                  const SweepOptions &sweep,
                                  const std::function<Cycles()> &baseline,
                                  bool &cached);

    void recordLatency(double seconds);

    ServerOptions opts_;
    ShmCache cache_;
    int listenFd_ = -1;
    std::atomic<bool> stopping_{false};

    std::mutex inflightMu_;
    std::map<std::string, std::shared_ptr<Inflight>> inflight_;

    std::atomic<std::uint64_t> requests_{0};
    std::atomic<std::uint64_t> simRuns_{0};
    std::atomic<std::uint64_t> reqHits_{0};
    std::atomic<std::uint64_t> reqMisses_{0};
    std::atomic<int> queueDepth_{0};
    mutable std::mutex latencyMu_;
    HistogramData latencyUs_;
    MetricsRegistry registry_;
};

/** Canonical memo-cache key for one grid item under @p sweep. */
std::string cacheKeyResult(const SweepOptions &sweep,
                           const GridItem &item);
/** Canonical memo-cache key for @p app's sequential baseline. */
std::string cacheKeyBaseline(const SweepOptions &sweep,
                             const std::string &app);

} // namespace swsm

#endif // SWSM_SERVE_SERVER_HH
