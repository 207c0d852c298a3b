#include "msg_layer.hh"

#include "sim/log.hh"

namespace swsm
{

MsgLayer::MsgLayer(Network &net) : net(net)
{
    sinks.assign(net.numNodes(), nullptr);
}

void
MsgLayer::attachSink(NodeId n, HandlerSink *sink)
{
    sinks.at(n) = sink;
}

void
MsgLayer::registerMetrics(MetricsRegistry &registry) const
{
    registry.addCounter("comm.requests",
                        [this] { return requests.value(); });
    registry.addCounter("comm.data", [this] { return data.value(); });
}

void
MsgLayer::sendRequest(NodeId src, NodeId dst, std::uint32_t payload_bytes,
                      Cycles ready, HandlerFn &&fn)
{
    if (!sinks.at(dst))
        SWSM_PANIC("request sent to node %d with no handler sink", dst);
    requests.inc();
    const Cycles handling = net.params().handlingCost;
    HandlerSink *sink = sinks[dst];
    auto deliver = [sink, handling,
                    fn = std::move(fn)](Cycles delivered) mutable {
        sink->postHandler(delivered + handling, std::move(fn));
    };
    static_assert(DeliverFn::storesInline<decltype(deliver)>(),
                  "request delivery closure outgrew DeliverFn's inline "
                  "storage");
    net.send(src, dst, msgHeaderBytes + payload_bytes, ready,
             std::move(deliver));
}

void
MsgLayer::sendData(NodeId src, NodeId dst, std::uint32_t payload_bytes,
                   Cycles ready, DataFn &&fn)
{
    // The NI deposits straight into host memory: no sink, no
    // processor cost.
    data.inc();
    net.send(src, dst, msgHeaderBytes + payload_bytes, ready,
             std::move(fn));
}

} // namespace swsm
