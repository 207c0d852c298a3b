/**
 * @file
 * VMMC-like user-level messaging library.
 *
 * Two message classes, matching the paper's communication model:
 *
 *  - requests: carry protocol operations; on delivery they wait the
 *    parameterized "message handling cost" and then run a software
 *    handler on the destination's main processor (polling model);
 *  - data messages: deposited directly into destination host memory by
 *    the NI — no interrupt, no receive operation, no handler.
 *
 * Sends are asynchronous: the sender pays only the host overhead, which
 * is charged by the calling processor before the message enters the
 * network (the caller passes a ready time that includes it).
 */

#ifndef SWSM_COMM_MSG_LAYER_HH
#define SWSM_COMM_MSG_LAYER_HH

#include <cstdint>
#include <vector>

#include "comm/handler.hh"
#include "net/network.hh"
#include "sim/stats.hh"

namespace swsm
{

/** Fixed per-message header bytes (VMMC-like small header). */
constexpr std::uint32_t msgHeaderBytes = 16;

/** User-level messaging over the cluster network. */
class MsgLayer
{
  public:
    explicit MsgLayer(Network &net);

    /** Register node @p n's handler sink (machine layer Node). */
    void attachSink(NodeId n, HandlerSink *sink);

    /**
     * Send a request of @p payload_bytes; @p fn runs as a handler on
     * @p dst. @p ready must include the sender's host overhead.
     */
    void sendRequest(NodeId src, NodeId dst, std::uint32_t payload_bytes,
                     Cycles ready, HandlerFn fn);

    /**
     * Send a data message of @p payload_bytes; @p fn runs at delivery
     * with no destination processor cost.
     */
    void sendData(NodeId src, NodeId dst, std::uint32_t payload_bytes,
                  Cycles ready, DataFn fn);

    const CommParams &params() const { return net.params(); }

    const Counter &requestsSent() const { return requests; }
    const Counter &dataSent() const { return data; }

    /** Register message-class counters under "comm.*". */
    void registerMetrics(MetricsRegistry &registry) const;

  private:
    Network &net;
    std::vector<HandlerSink *> sinks;

    Counter requests;
    Counter data;
};

} // namespace swsm

#endif // SWSM_COMM_MSG_LAYER_HH
