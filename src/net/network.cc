#include "network.hh"

#include <algorithm>
#include <cmath>

#include "check/check.hh"
#include "sim/log.hh"

namespace swsm
{

Network::Network(EventQueue &eq, int num_nodes, const CommParams &params)
    : eq(eq), params_(params)
{
    if (num_nodes <= 0)
        SWSM_FATAL("network needs at least one node");
    if (params.ioBusBytesPerCycle <= 0 || params.linkBytesPerCycle <= 0)
        SWSM_FATAL("network bandwidths must be positive");
    if (params.maxPacketBytes == 0)
        SWSM_FATAL("maximum packet size must be positive");
    // The wire hop targets one execution slot per node; declare them so
    // standalone Network users get valid tie-break stamps without
    // having to know about the queue's slot machinery.
    if (eq.numSlots() < static_cast<std::uint32_t>(num_nodes))
        eq.setNumSlots(static_cast<std::uint32_t>(num_nodes));
    nics.reserve(num_nodes);
    for (NodeId n = 0; n < num_nodes; ++n)
        nics.push_back(std::make_unique<Nic>());
    channels.resize(static_cast<std::size_t>(num_nodes) * num_nodes);
}

void
Network::complete(Channel &ch, std::uint64_t seq, Cycles t, DeliverFn cb)
{
    ch.done.emplace(seq, std::make_pair(t, std::move(cb)));
    while (true) {
        auto it = ch.done.find(ch.nextDeliver);
        if (it == ch.done.end())
            break;
        const Cycles when = std::max(it->second.first, ch.lastTime);
        ch.lastTime = when;
        DeliverFn fn = std::move(it->second.second);
        ch.done.erase(it);
        ++ch.nextDeliver;
        eq.schedule(when, [this, when, fn = std::move(fn)] {
            delivered_.inc();
            fn(when);
        });
    }
}

void
Network::checkDrained() const
{
    SWSM_INVARIANT(messages.value() == delivered_.value(),
                   "network lost messages: %llu sent, %llu delivered",
                   static_cast<unsigned long long>(messages.value()),
                   static_cast<unsigned long long>(delivered_.value()));
    for (std::size_t c = 0; c < channels.size(); ++c) {
        const Channel &ch = channels[c];
        SWSM_INVARIANT(
            ch.done.empty(),
            "channel %d->%d ended with %zu undelivered messages",
            static_cast<int>(c / nics.size()),
            static_cast<int>(c % nics.size()), ch.done.size());
        SWSM_INVARIANT(
            ch.nextAssign == ch.nextDeliver,
            "channel %d->%d ended mid-stream: assigned %llu, "
            "delivered %llu",
            static_cast<int>(c / nics.size()),
            static_cast<int>(c % nics.size()),
            static_cast<unsigned long long>(ch.nextAssign),
            static_cast<unsigned long long>(ch.nextDeliver));
    }
}

Cycles
Network::transferCycles(std::uint32_t bytes, double bytes_per_cycle)
{
    return static_cast<Cycles>(
        std::ceil(static_cast<double>(bytes) / bytes_per_cycle));
}

void
Network::registerMetrics(MetricsRegistry &registry) const
{
    registry.addCounter("net.messages",
                        [this] { return messages.value(); });
    registry.addCounter("net.bytes", [this] { return bytes_.value(); });

    struct Kind
    {
        const char *prefix;
        const FcfsResource &(*pick)(const Nic &);
    };
    static constexpr Kind kinds[] = {
        {"net.iobus",
         [](const Nic &n) -> const FcfsResource & { return n.ioBus; }},
        {"net.ni",
         [](const Nic &n) -> const FcfsResource & { return n.niProc; }},
    };
    for (const Kind &kind : kinds) {
        const std::string prefix = kind.prefix;
        auto pick = kind.pick;
        registry.addCounter(prefix + ".busy_cycles", [this, pick] {
            std::uint64_t sum = 0;
            for (const auto &nic : nics)
                sum += pick(*nic).totalBusyCycles().value();
            return sum;
        });
        registry.addCounter(prefix + ".uses", [this, pick] {
            std::uint64_t sum = 0;
            for (const auto &nic : nics)
                sum += pick(*nic).totalUses().value();
            return sum;
        });
        registry.addGauge(prefix + ".queue_cycles", [this, pick] {
            double sum = 0.0;
            for (const auto &nic : nics)
                sum += pick(*nic).queueingDelay().sum();
            return sum;
        });
        registry.addHistogram(prefix + ".queue_delay", [this, pick] {
            HistogramData merged;
            for (const auto &nic : nics)
                merged.merge(FcfsResource::histogramData(
                    pick(*nic).queueDelayHist()));
            return merged;
        });
        registry.addHistogram(prefix + ".occupancy", [this, pick] {
            HistogramData merged;
            for (const auto &nic : nics)
                merged.merge(FcfsResource::histogramData(
                    pick(*nic).occupancyHist()));
            return merged;
        });
    }
}

void
Network::send(NodeId src, NodeId dst, std::uint32_t bytes,
              Cycles ready_time, DeliverFn on_delivered)
{
    if (src < 0 || src >= numNodes() || dst < 0 || dst >= numNodes())
        SWSM_PANIC("send between invalid nodes %d -> %d", src, dst);
    messages.inc();
    bytes_.inc(bytes);

    if (trace_) {
        // Wrap the delivery callback so the message shows up as a span
        // from injection to last-byte delivery on the sender's track.
        on_delivered = [this, src, dst, bytes, ready_time,
                        cb = std::move(on_delivered)](Cycles t) {
            trace_->complete("msg", "net", src, ready_time, t,
                             TraceArg{"dst",
                                      static_cast<std::uint64_t>(dst)},
                             TraceArg{"bytes", bytes});
            cb(t);
        };
    }

    Channel &channel =
        channels[static_cast<std::size_t>(src) * numNodes() + dst];
    const std::uint64_t seq = channel.nextAssign++;

    if (src == dst) {
        // Local dispatch: no NIC involvement, but keep FIFO order.
        auto local = [this, &channel, seq, ready_time,
                      cb = std::move(on_delivered)]() mutable {
            complete(channel, seq, ready_time, std::move(cb));
        };
        // This is the closure EventFn::inlineBytes is sized for; if it
        // grows past the inline store, every local message starts heap
        // allocating — resize one or shrink the other.
        static_assert(sizeof(local) <= EventFn::inlineBytes,
                      "local-dispatch closure no longer fits EventFn's "
                      "inline storage");
        eq.schedule(ready_time, std::move(local));
        return;
    }

    // Per-message completion tracker shared by the packet pipelines.
    struct Tracker
    {
        std::uint32_t remaining;
        Cycles latest = 0;
        DeliverFn cb;
    };
    const std::uint32_t num_packets =
        (bytes + params_.maxPacketBytes - 1) / params_.maxPacketBytes;
    auto tracker = std::make_shared<Tracker>();
    tracker->remaining = std::max(num_packets, 1u);
    tracker->cb = std::move(on_delivered);

    std::uint32_t remaining = bytes;
    for (std::uint32_t p = 0; p < tracker->remaining; ++p) {
        const std::uint32_t pkt =
            std::min(remaining, params_.maxPacketBytes);
        remaining -= pkt;

        // Stage 1 at ready_time: cross the sender's I/O bus. Scheduling
        // every packet's first stage at the same time preserves packet
        // order via FCFS acquisition and lets packets pipeline through
        // the later stages. Stages 1-2 execute in the sender's context;
        // stage 2's dispatch is the one cross-node hop (scheduleTo), so
        // stages 3-5 and the delivery execute in the receiver's context.
        auto stage1 = [this, src, dst, pkt, &channel, seq, tracker] {
            Nic &snic = *nics[src];
            const Cycles io_done = snic.ioBus.acquire(
                eq.now(), transferCycles(pkt, params_.ioBusBytesPerCycle));

            auto stage2 = [this, src, dst, pkt, &channel, seq, tracker] {
                Nic &snic = *nics[src];
                const Cycles ni_done = snic.niProc.acquire(
                    eq.now(), params_.niOccupancyPerPacket);
                const Cycles arrive = ni_done + params_.linkLatency +
                    transferCycles(pkt, params_.linkBytesPerCycle);

                auto stage3 = [this, dst, pkt, &channel, seq, tracker] {
                    Nic &dnic = *nics[dst];
                    const Cycles rni_done = dnic.niProc.acquire(
                        eq.now(), params_.niOccupancyPerPacket);

                    auto stage4 = [this, dst, pkt, &channel, seq,
                                   tracker] {
                        Nic &dnic = *nics[dst];
                        const Cycles rio_done = dnic.ioBus.acquire(
                            eq.now(),
                            transferCycles(pkt,
                                           params_.ioBusBytesPerCycle));

                        auto stage5 = [this, &channel, seq, tracker] {
                            tracker->latest =
                                std::max(tracker->latest, eq.now());
                            if (--tracker->remaining == 0) {
                                complete(channel, seq, tracker->latest,
                                         std::move(tracker->cb));
                            }
                        };
                        static_assert(sizeof(stage5) <=
                                          EventFn::inlineBytes,
                                      "packet stage closure outgrew "
                                      "EventFn's inline storage");
                        eq.schedule(rio_done, std::move(stage5));
                    };
                    static_assert(sizeof(stage4) <= EventFn::inlineBytes,
                                  "packet stage closure outgrew "
                                  "EventFn's inline storage");
                    eq.schedule(rni_done, std::move(stage4));
                };
                static_assert(sizeof(stage3) <= EventFn::inlineBytes,
                              "packet stage closure outgrew EventFn's "
                              "inline storage");
                // The wire hop: this is the only cross-node schedule in
                // the simulator.
                eq.scheduleTo(static_cast<std::uint32_t>(dst), arrive,
                              std::move(stage3));
            };
            static_assert(sizeof(stage2) <= EventFn::inlineBytes,
                          "packet stage closure outgrew EventFn's "
                          "inline storage");
            eq.schedule(io_done, std::move(stage2));
        };
        static_assert(sizeof(stage1) <= EventFn::inlineBytes,
                      "packet stage closure outgrew EventFn's inline "
                      "storage");
        eq.schedule(ready_time, std::move(stage1));
    }
}

} // namespace swsm
