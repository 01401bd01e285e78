#include "mem/dram.hh"

#include <cmath>

namespace eve
{

Dram::Dram(const DramParams& params)
    : params(params),
      latencyTicks(Tick(params.latency_ns * ticksPerNs)),
      lineOccupancyTicks(Tick(std::ceil(
          params.line_bytes / params.bandwidth_gbps * ticksPerNs))),
      channel(1),
      statGroup("dram")
{
    statReads = statGroup.id("reads");
    statWrites = statGroup.id("writes");
    statQueueTicks = statGroup.id("queue_ticks");
}

Tick
Dram::access(Addr addr, bool is_write, Tick t)
{
    (void)addr;
    Tick start = channel.acquire(t, lineOccupancyTicks);
    statGroup.add(is_write ? statWrites : statReads, 1);
    statGroup.add(statQueueTicks, double(start - t));
    // Stores complete when the channel accepts them; loads pay the
    // full access latency.
    return is_write ? start + lineOccupancyTicks : start + latencyTicks;
}

} // namespace eve
