#include "comm_params.hh"

#include <cmath>

#include "sim/log.hh"

namespace swsm
{

CommParams
CommParams::achievable()
{
    return CommParams{};
}

CommParams
CommParams::halfway()
{
    return achievable().interpolate(best(), 0.5);
}

CommParams
CommParams::best()
{
    CommParams p;
    p.hostOverhead = 0;
    p.ioBusBytesPerCycle = 2.0; // memory-bus rate; still finite
    p.niOccupancyPerPacket = 0;
    p.handlingCost = 0;
    // Link latency stays at the small constant value, as in the paper.
    return p;
}

CommParams
CommParams::worse()
{
    CommParams p;
    p.hostOverhead = 1200;
    p.ioBusBytesPerCycle = 0.25;
    p.niOccupancyPerPacket = 2000;
    p.handlingCost = 400;
    return p;
}

CommParams
CommParams::betterThanBest()
{
    CommParams p = best();
    p.linkLatency = 0;
    p.ioBusBytesPerCycle = 4.0; // twice the memory bus bandwidth
    p.linkBytesPerCycle = 4.0;
    return p;
}

CommParams
CommParams::fromName(char name)
{
    switch (name) {
      case 'A':
        return achievable();
      case 'H':
        return halfway();
      case 'B':
        return best();
      case 'W':
        return worse();
      case 'X':
        return betterThanBest();
      default:
        SWSM_FATAL("unknown communication parameter set '%c'", name);
    }
}

CommParams
CommParams::interpolate(const CommParams &other, double f) const
{
    auto mixCycles = [f](Cycles a, Cycles b) {
        return static_cast<Cycles>(
            std::llround(static_cast<double>(a) * (1.0 - f) +
                         static_cast<double>(b) * f));
    };
    CommParams p;
    p.hostOverhead = mixCycles(hostOverhead, other.hostOverhead);
    p.ioBusBytesPerCycle = ioBusBytesPerCycle * (1.0 - f) +
                           other.ioBusBytesPerCycle * f;
    p.niOccupancyPerPacket =
        mixCycles(niOccupancyPerPacket, other.niOccupancyPerPacket);
    p.handlingCost = mixCycles(handlingCost, other.handlingCost);
    p.interruptCost = mixCycles(interruptCost, other.interruptCost);
    p.linkLatency = mixCycles(linkLatency, other.linkLatency);
    p.linkBytesPerCycle = linkBytesPerCycle * (1.0 - f) +
                          other.linkBytesPerCycle * f;
    p.maxPacketBytes = maxPacketBytes;
    return p;
}

} // namespace swsm
