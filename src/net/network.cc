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

std::uint32_t
Network::newMessage()
{
    if (freeMsgs_.empty()) {
        const auto m = static_cast<std::uint32_t>(msgs_.size());
        msgs_.emplace_back();
        freeMsgs_.reserve(msgs_.capacity());
        return m;
    }
    const std::uint32_t m = freeMsgs_.back();
    freeMsgs_.pop_back();
    return m;
}

void
Network::complete(std::uint32_t m, Cycles t)
{
    Message &msg = msgs_[m];
    msg.latest = t;
    Channel &ch = channel(msg.src, msg.dst);
    if (msg.seq != ch.nextDeliver) {
        ch.done.push_back(m); // a predecessor is still in flight
        return;
    }
    deliverNext(ch, m);
    // Deliver the overtakers this completion puts next in line.
    while (!ch.done.empty()) {
        const auto it = std::find_if(
            ch.done.begin(), ch.done.end(),
            [&](std::uint32_t o) { return msgs_[o].seq == ch.nextDeliver; });
        if (it == ch.done.end())
            return;
        const std::uint32_t o = *it;
        *it = ch.done.back();
        ch.done.pop_back();
        deliverNext(ch, o);
    }
}

void
Network::deliverNext(Channel &ch, std::uint32_t m)
{
    const Cycles when = std::max(msgs_[m].latest, ch.lastTime);
    ch.lastTime = when;
    ++ch.nextDeliver;
    auto delivery = [this, m, when] { deliver(m, when); };
    static_assert(EventFn::storesInline<decltype(delivery)>(),
                  "delivery closure outgrew EventFn's inline storage");
    eq.schedule(when, delivery);
}

void
Network::deliver(std::uint32_t m, Cycles when)
{
    delivered_.inc();
    Message &msg = msgs_[m];
    if (trace_) {
        // The message is a span from injection to last-byte delivery
        // on the sender's track.
        trace_->complete("msg", "net", msg.src, msg.ready, when,
                         TraceArg{"dst", static_cast<std::uint64_t>(msg.dst)},
                         TraceArg{"bytes", msg.bytes});
    }
    // The callback leaves the table before it runs: it may send
    // messages, and a send that grows the table moves every entry.
    DeliverFn cb = std::move(msg.cb);
    freeMsgs_.push_back(m);
    cb(when);
}

void
Network::checkDrained() const
{
    SWSM_INVARIANT(messages.value() == delivered_.value(),
                   "network lost messages: %llu sent, %llu delivered",
                   static_cast<unsigned long long>(messages.value()),
                   static_cast<unsigned long long>(delivered_.value()));
    SWSM_INVARIANT(freeMsgs_.size() == msgs_.size(),
                   "network ended with %zu of %zu message table entries "
                   "in use",
                   msgs_.size() - freeMsgs_.size(), msgs_.size());
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
              Cycles ready_time, DeliverFn &&on_delivered)
{
    if (src < 0 || src >= numNodes() || dst < 0 || dst >= numNodes())
        SWSM_PANIC("send between invalid nodes %d -> %d", src, dst);
    messages.inc();
    bytes_.inc(bytes);

    const std::uint32_t m = newMessage();
    Message &msg = msgs_[m];
    msg.cb = std::move(on_delivered);
    msg.ready = ready_time;
    msg.latest = 0;
    msg.seq = channel(src, dst).nextAssign++;
    msg.bytes = bytes;
    msg.src = src;
    msg.dst = dst;

    if (src == dst) {
        // Local dispatch: no NIC involvement, but keep FIFO order.
        auto local = [this, m] { complete(m, msgs_[m].ready); };
        static_assert(EventFn::storesInline<decltype(local)>(),
                      "local-dispatch closure outgrew EventFn's inline "
                      "storage");
        eq.schedule(ready_time, local);
        return;
    }

    const std::uint32_t num_packets =
        (bytes + params_.maxPacketBytes - 1) / params_.maxPacketBytes;
    msg.remaining = std::max(num_packets, 1u);
    std::uint32_t remaining = bytes;
    for (std::uint32_t p = 0, n = msg.remaining; p < n; ++p) {
        const std::uint32_t pkt =
            std::min(remaining, params_.maxPacketBytes);
        remaining -= pkt;
        injectPacket(m, pkt);
    }
}

void
Network::injectPacket(std::uint32_t m, std::uint32_t pkt)
{
    const NodeId src = msgs_[m].src;
    const NodeId dst = msgs_[m].dst;
    // Stage 1 at ready_time: cross the sender's I/O bus. Scheduling
    // every packet's first stage at the same time preserves packet
    // order via FCFS acquisition and lets packets pipeline through the
    // later stages. Stages 1-2 execute in the sender's context; stage
    // 2's dispatch is the one cross-node hop (scheduleTo), so stages
    // 3-5 and the delivery execute in the receiver's context. Every
    // stage captures the message's table index, the packet size and
    // one node.
    auto stage1 = [this, m, pkt, src, dst] {
        const Cycles io_done = nics[src]->ioBus.acquire(
            eq.now(), transferCycles(pkt, params_.ioBusBytesPerCycle));

        auto stage2 = [this, m, pkt, src, dst] {
            const Cycles ni_done = nics[src]->niProc.acquire(
                eq.now(), params_.niOccupancyPerPacket);
            const Cycles arrive = ni_done + params_.linkLatency +
                transferCycles(pkt, params_.linkBytesPerCycle);

            auto stage3 = [this, m, pkt, dst] {
                const Cycles rni_done = nics[dst]->niProc.acquire(
                    eq.now(), params_.niOccupancyPerPacket);

                auto stage4 = [this, m, pkt, dst] {
                    const Cycles rio_done = nics[dst]->ioBus.acquire(
                        eq.now(),
                        transferCycles(pkt, params_.ioBusBytesPerCycle));

                    auto stage5 = [this, m] {
                        Message &msg = msgs_[m];
                        msg.latest = std::max(msg.latest, eq.now());
                        if (--msg.remaining == 0)
                            complete(m, msg.latest);
                    };
                    static_assert(EventFn::storesInline<decltype(stage5)>(),
                                  "packet stage closure outgrew "
                                  "EventFn's inline storage");
                    eq.schedule(rio_done, stage5);
                };
                static_assert(EventFn::storesInline<decltype(stage4)>(),
                              "packet stage closure outgrew EventFn's "
                              "inline storage");
                eq.schedule(rni_done, stage4);
            };
            static_assert(EventFn::storesInline<decltype(stage3)>(),
                          "packet stage closure outgrew EventFn's inline "
                          "storage");
            // The wire hop: this is the only cross-node schedule in the
            // simulator.
            eq.scheduleTo(static_cast<std::uint32_t>(dst), arrive, stage3);
        };
        static_assert(EventFn::storesInline<decltype(stage2)>(),
                      "packet stage closure outgrew EventFn's inline "
                      "storage");
        eq.schedule(io_done, stage2);
    };
    static_assert(EventFn::storesInline<decltype(stage1)>(),
                  "packet stage closure outgrew EventFn's inline storage");
    eq.schedule(msgs_[m].ready, stage1);
}

} // namespace swsm
