/**
 * @file
 * Single-channel DRAM model in the spirit of DDR4-2400.
 *
 * The model charges a fixed access latency plus finite channel
 * bandwidth (one cacheline transfer occupies the channel for
 * line_bytes / bytes_per_ns). That is deliberately simpler than a
 * bank/row model but preserves the two effects the paper's results
 * depend on: a long memory latency that engines must hide with MLP,
 * and a hard bandwidth ceiling that memory-bound kernels saturate.
 */

#ifndef EVE_MEM_DRAM_HH
#define EVE_MEM_DRAM_HH

#include "mem/mem_object.hh"
#include "sim/resource.hh"

namespace eve
{

/** Configuration of the DRAM model. */
struct DramParams
{
    double latency_ns = 60.0;      ///< closed-page access latency
    double bandwidth_gbps = 19.2;  ///< DDR4-2400 x64 peak
    unsigned line_bytes = 64;
};

/** The DRAM channel. */
class Dram : public MemObject
{
  public:
    explicit Dram(const DramParams& params);

    Tick access(Addr addr, bool is_write, Tick t) override;

    StatGroup& stats() override { return statGroup; }

  private:
    DramParams params;
    Tick latencyTicks;
    Tick lineOccupancyTicks;
    PipelinedUnits channel;
    StatGroup statGroup;
    StatGroup::Id statReads, statWrites, statQueueTicks;
};

} // namespace eve

#endif // EVE_MEM_DRAM_HH
