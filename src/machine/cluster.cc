#include "cluster.hh"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <sstream>

#include "check/check.hh"
#include "machine/thread.hh"
#include "proto/hlrc/hlrc.hh"
#include "proto/ideal.hh"
#include "proto/sc/sc.hh"
#include "sim/env.hh"
#include "sim/log.hh"

namespace swsm
{

const char *
protocolKindName(ProtocolKind kind)
{
    switch (kind) {
      case ProtocolKind::Hlrc:
        return "hlrc";
      case ProtocolKind::Sc:
        return "sc";
      case ProtocolKind::Ideal:
        return "ideal";
      default:
        return "unknown";
    }
}

bool
defaultFastPath()
{
    // Validated flag parse: "SWSM_FASTPATH=off" disables the fast path
    // (it used to silently *enable* it — only the literal "0" was
    // recognized) and garbage values warn and keep the default.
    return envFlag("SWSM_FASTPATH", true);
}

Cluster::Cluster(const MachineParams &params) : params_(params)
{
    if (params.numProcs <= 0)
        SWSM_FATAL("cluster needs at least one processor");
    // The access-check charge models SC's software access control;
    // HLRC's page protection and Ideal have no per-reference check.
    if (params.accessCheckCycles > 0 && params.protocol != ProtocolKind::Sc)
        SWSM_FATAL("a %llu-cycle access check applies to SC only, not %s",
                   static_cast<unsigned long long>(params.accessCheckCycles),
                   protocolKindName(params.protocol));

    // One execution slot per node: every event carries the slot of the
    // node whose state it touches, and simultaneous events tie-break on
    // the slot that scheduled them (sim/event_queue.hh).
    eq.setNumSlots(static_cast<std::uint32_t>(params.numProcs));

    network_ = std::make_unique<Network>(eq, params.numProcs, params.comm);
    msg = std::make_unique<MsgLayer>(*network_);
    space_ = std::make_unique<AddressSpace>(
        params.numProcs, params.pageBytes, params.blockBytes);

    nodes.reserve(params.numProcs);
    std::vector<ProcEnv *> envs;
    for (NodeId n = 0; n < params.numProcs; ++n) {
        nodes.push_back(std::make_unique<Node>(
            n, eq, *msg, params.mem, params.quantum, params.stackBytes,
            params.seed * 0x9e3779b97f4a7c15ULL + n));
        msg->attachSink(n, nodes.back().get());
        envs.push_back(nodes.back().get());
    }

    switch (params.protocol) {
      case ProtocolKind::Hlrc:
        protocol_ = std::make_unique<HlrcProtocol>(*space_, params.proto,
                                                   envs);
        break;
      case ProtocolKind::Sc:
        protocol_ = std::make_unique<ScProtocol>(*space_, params.proto,
                                                 envs);
        break;
      case ProtocolKind::Ideal:
        protocol_ = std::make_unique<IdealProtocol>(*space_, envs);
        break;
      default:
        SWSM_FATAL("unknown protocol kind");
    }

    if (params.trace) {
        tracer_ = std::make_unique<Tracer>();
        network_->setTracer(tracer_.get());
        protocol_->setTracer(tracer_.get());
        for (auto &node : nodes)
            node->setTracer(tracer_.get());
    }

    eq.registerMetrics(registry_);
    network_->registerMetrics(registry_);
    msg->registerMetrics(registry_);
    protocol_->registerMetrics(registry_);
    for (int b = 0; b < numTimeBuckets; ++b) {
        const auto bucket = static_cast<TimeBucket>(b);
        registry_.addCounter(
            std::string("time.") + timeBucketName(bucket),
            [this, bucket] {
                std::uint64_t sum = 0;
                for (const auto &node : nodes)
                    sum += node->bucket(bucket);
                return sum;
            });
    }
    registry_.addCounter("time.total", [this] {
        std::uint64_t sum = 0;
        for (const auto &node : nodes)
            for (int b = 0; b < numTimeBuckets; ++b)
                sum += node->bucket(static_cast<TimeBucket>(b));
        return sum;
    });
    registry_.addCounter("sim.total_cycles", [this] {
        Cycles finish = 0;
        for (const auto &node : nodes)
            finish = std::max(finish, node->finishTime());
        return finish;
    });
    // Host-side effectiveness of Thread's inline access check. These
    // are the only counters that legitimately differ between fast-path
    // on and off runs of the same configuration (tools/bench_diff.py
    // ignores them).
    registry_.addCounter("machine.fastpath_hits", [this] {
        std::uint64_t sum = 0;
        for (NodeId n = 0; n < params_.numProcs; ++n)
            sum += protocol_->accessTable(n).hits();
        return sum;
    });
    registry_.addCounter("machine.fastpath_misses", [this] {
        std::uint64_t sum = 0;
        for (NodeId n = 0; n < params_.numProcs; ++n)
            sum += protocol_->accessTable(n).misses();
        return sum;
    });
}

Cluster::~Cluster() = default;

GlobalAddr
Cluster::alloc(std::uint64_t bytes, std::uint64_t align)
{
    if (ran)
        SWSM_FATAL("shared allocation after run() is not supported");
    return space_->alloc(bytes, align);
}

GlobalAddr
Cluster::allocAt(std::uint64_t bytes, NodeId home)
{
    if (ran)
        SWSM_FATAL("shared allocation after run() is not supported");
    return space_->allocAt(bytes, home);
}

LockId
Cluster::allocLock()
{
    if (ran)
        SWSM_FATAL("lock allocation after run() is not supported");
    return nextLock++;
}

BarrierId
Cluster::allocBarrier()
{
    if (ran)
        SWSM_FATAL("barrier allocation after run() is not supported");
    return nextBarrier++;
}

void
Cluster::checkUntimed(const char *what, GlobalAddr addr,
                      std::uint64_t bytes) const
{
    const std::uint64_t extent = space_->extent();
    if (bytes > extent || addr > extent - bytes)
        SWSM_FATAL("the %llu-byte %s at %#llx lies outside the shared "
                   "space, whose extent is %#llx bytes",
                   static_cast<unsigned long long>(bytes), what,
                   static_cast<unsigned long long>(addr),
                   static_cast<unsigned long long>(extent));
}

void
Cluster::initWrite(GlobalAddr addr, const void *src, std::uint64_t bytes)
{
    checkUntimed("initWrite", addr, bytes);
    if (bytes > 0)
        space_->initWrite(addr, src, bytes);
}

void
Cluster::debugRead(GlobalAddr addr, void *dst, std::uint64_t bytes)
{
    checkUntimed("debugRead", addr, bytes);
    if (bytes > 0)
        protocol_->debugRead(addr, dst, bytes);
}

void
Cluster::run(std::function<void(Thread &)> body)
{
    if (ran)
        SWSM_FATAL("a Cluster can run() only once; build a new one");
    ran = true;

    protocol_->prepareRun(nextLock, nextBarrier);

    // Exceptions cannot unwind across a fiber switch; capture them at
    // the fiber boundary, one slot per node, and rethrow the first by
    // node index.
    std::vector<std::exception_ptr> errors(params_.numProcs);
    for (NodeId n = 0; n < params_.numProcs; ++n) {
        Node *node_ptr = nodes[n].get();
        std::exception_ptr &err = errors[n];
        node_ptr->start([this, node_ptr, &body, &err] {
            try {
                Thread t(*this, *node_ptr);
                body(t);
            } catch (...) {
                if (!err)
                    err = std::current_exception();
            }
        });
    }

    eq.run();

    for (const std::exception_ptr &err : errors) {
        if (err)
            std::rethrow_exception(err);
    }

    for (NodeId n = 0; n < params_.numProcs; ++n) {
        if (!nodes[n]->done()) {
            std::ostringstream os;
            os << "deadlock: event queue drained with node states:";
            for (NodeId j = 0; j < params_.numProcs; ++j)
                os << " n" << j << "=" << nodes[j]->stateName();
            fatal(os.str());
        }
    }

    // End-of-run invariant sweep: the machine is quiescent, so every
    // message must be delivered and every protocol drained.
    if (check::enabled()) {
        network_->checkDrained();
        protocol_->checkQuiescent();
    }

    // Collect results: the registry is the single source of counts.
    stats_ = RunStats{};
    stats_.finishTimes.reserve(params_.numProcs);
    for (auto &node : nodes) {
        stats_.finishTimes.push_back(node->finishTime());
        stats_.totalCycles =
            std::max(stats_.totalCycles, node->finishTime());
    }
    stats_.metrics = registry_.snapshot();
}

std::shared_ptr<const TraceBuffer>
Cluster::takeTrace()
{
    if (!tracer_)
        return std::make_shared<const TraceBuffer>();
    return std::make_shared<const TraceBuffer>(tracer_->take());
}

} // namespace swsm
