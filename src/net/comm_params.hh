/**
 * @file
 * Communication layer cost parameters (the paper's Table 2).
 *
 * All values are in cycles of the modeled 1-IPC 200 MHz processor, or in
 * bytes/cycle for bandwidths. The named factory functions reproduce the
 * paper's parameter sets:
 *
 *   A = achievable   (PentiumPro + Myrinet + VMMC, the base system)
 *   H = halfway      (every cost halved, bandwidth doubled)
 *   B = best         (all parameterized costs zero; bandwidths finite)
 *   W = worse        (all costs doubled, bandwidth halved — a 2x-faster
 *                     processor with an unimproved network)
 *   X = better than best ("BB" in the paper's prose: link latency zero and
 *                     I/O bandwidth raised to twice the memory bus)
 *
 * The OCR of the paper text lost most digits of Table 2; the A values are
 * restored from the in-text units ("3 us, 1xx MB/s, x us and 1 us") and
 * the companion study (Bilas & Singh). See DESIGN.md §2.1/§4.
 */

#ifndef SWSM_NET_COMM_PARAMS_HH
#define SWSM_NET_COMM_PARAMS_HH

#include <cstdint>
#include <string>

#include "sim/types.hh"

namespace swsm
{

/** Tunable costs of the communication layer. */
struct CommParams
{
    /** Host processor busy time to start an asynchronous send. */
    Cycles hostOverhead = 600;
    /** Host-to-NI (and NI-to-host) I/O bus bandwidth, bytes/cycle. */
    double ioBusBytesPerCycle = 0.5;
    /** NI processor time per packet (prepare + enqueue / receive). */
    Cycles niOccupancyPerPacket = 1000;
    /**
     * Time from a request reaching the head of the NI incoming queue
     * until its handler may begin (the polling-based handling cost).
     */
    Cycles handlingCost = 200;
    /**
     * Per-request interrupt dispatch cost. 0 selects the paper's
     * polling model (handlers wait for the handling cost and run at
     * the node's next poll point). A non-zero value models
     * interrupt-driven message handling: each request charges this
     * additional processor cost before its handler (Node::runHandler,
     * to the ProtoHandler bucket) — the alternative
     * the paper rejected because "when interrupts are used their cost
     * is the most significant cost in the communication architecture".
     */
    Cycles interruptCost = 0;
    /** Fixed hardware link latency (small; paper keeps it constant). */
    Cycles linkLatency = 20;
    /** Link bandwidth, bytes/cycle (Myrinet-like byte-wide link). */
    double linkBytesPerCycle = 1.0;
    /** Maximum packet payload (Myrinet-like; a page fits one packet). */
    std::uint32_t maxPacketBytes = 4096;

    /** The base, currently-achievable system (set A). */
    static CommParams achievable();
    /** All parameterized costs halved / bandwidth doubled (set H). */
    static CommParams halfway();
    /** All parameterized costs zero (set B). */
    static CommParams best();
    /** All costs doubled / bandwidth halved (set W). */
    static CommParams worse();
    /** Better-than-best: B plus zero link latency, 4 B/cycle I/O (X). */
    static CommParams betterThanBest();

    /** Parameter set from its one-letter name (A/H/B/W/X). */
    static CommParams fromName(char name);

    /** Interpolate each cost between this and @p other (0 → this). */
    CommParams interpolate(const CommParams &other, double f) const;
};

} // namespace swsm

#endif // SWSM_NET_COMM_PARAMS_HH
