/**
 * @file
 * Execution environment interfaces for protocol software.
 *
 * Protocol code runs in two situations: on the application fiber (the
 * fault/synchronization path of the local processor) and in request
 * handlers dispatched on a node's main processor (the paper assumes no
 * protocol co-processor). Both see the same NodeEnv services: the current
 * time, time charging into breakdown buckets, message sends (which charge
 * the host send overhead to the running processor), and cache-pollution
 * modeling for protocol data operations.
 *
 * Request messages invoke handlers after the parameterized message
 * handling cost; handlers never block. Data messages are deposited
 * directly into host memory with no processor involvement.
 */

#ifndef SWSM_COMM_HANDLER_HH
#define SWSM_COMM_HANDLER_HH

#include <cstdint>

#include "net/network.hh"
#include "sim/inline_fn.hh"
#include "sim/types.hh"

namespace swsm
{

class NodeEnv;

/**
 * A protocol request handler. Handlers never block. Its 56 inline
 * bytes hold every request closure a protocol builds (the largest, SC's
 * writeback, captures the protocol, a block, its base, a node, the
 * access kind and a snapshot vector); Protocol::sendReq static_asserts
 * that each one fits.
 */
using HandlerFn = InlineFn<void(NodeEnv &), 56>;
static_assert(sizeof(HandlerFn) == 64);

/**
 * Callback for a delivered data message (runs at delivery time). It is
 * the network's own delivery callback, so the message layer hands it
 * over as it is; Protocol::sendDat static_asserts that each protocol
 * closure fits inline.
 */
using DataFn = DeliverFn;

/**
 * Services available to protocol code executing on a node.
 *
 * Implemented by the machine layer, once for the application-fiber
 * context (where now() is the fiber's local clock) and once per handler
 * invocation (where now() advances as the handler charges time).
 */
class NodeEnv
{
  public:
    virtual ~NodeEnv() = default;

    /** Node this code executes on. */
    virtual NodeId node() const = 0;

    /** Current simulated time of this execution context. */
    virtual Cycles now() const = 0;

    /** Consume @p cycles of processor time, attributed to @p bucket. */
    virtual void charge(Cycles cycles, TimeBucket bucket) = 0;

    /**
     * Send a request; @p fn runs as a handler on @p dst. Charges the
     * host send overhead to this processor in @p bucket.
     */
    virtual void sendRequest(NodeId dst, std::uint32_t payload_bytes,
                             HandlerFn &&fn,
                             TimeBucket bucket = TimeBucket::ProtoOther)
        = 0;

    /** Send a data message; @p fn runs at delivery (no handler cost). */
    virtual void sendData(NodeId dst, std::uint32_t payload_bytes,
                          DataFn &&fn,
                          TimeBucket bucket = TimeBucket::ProtoOther)
        = 0;

    /**
     * Walk [addr, addr+bytes) through this node's cache (protocol data
     * operations pollute the cache); stall cycles are charged to
     * @p bucket.
     */
    virtual void chargeCacheRange(GlobalAddr addr, std::uint64_t bytes,
                                  bool write, TimeBucket bucket) = 0;

    /** Discard cached lines of [addr, addr+bytes) on this node. */
    virtual void invalidateCacheRange(GlobalAddr addr,
                                      std::uint64_t bytes) = 0;
};

/**
 * Destination-side dispatch interface, implemented by the machine
 * layer's Node. The message layer posts work here.
 */
class HandlerSink
{
  public:
    virtual ~HandlerSink() = default;

    /**
     * Queue a handler that became ready at @p ready (delivery time plus
     * the message handling cost). It runs on the node's main processor
     * at its next poll point.
     */
    virtual void postHandler(Cycles ready, HandlerFn &&fn) = 0;
};

} // namespace swsm

#endif // SWSM_COMM_HANDLER_HH
