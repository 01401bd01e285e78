/**
 * @file
 * The Table III memory hierarchy: L1I/L1D, private L2, shared LLC,
 * and a single DDR4-2400 channel.
 *
 * All levels share one clock (the paper's EVE-16/EVE-32 design points
 * degrade the whole chip's cycle time because the L2 SRAM sets it).
 * The L2 can be built in "vector mode" — 4-way, 256 KB — which is the
 * configuration left to the core after half the ways are carved out
 * as an EVE engine.
 */

#ifndef EVE_MEM_HIERARCHY_HH
#define EVE_MEM_HIERARCHY_HH

#include <memory>

#include "mem/cache.hh"
#include "mem/dram.hh"

namespace eve
{

/** Configuration of the full hierarchy. */
struct HierarchyParams
{
    double clock_ns = 1.025;  ///< baseline SRAM cycle time (Section VI)
    bool l2_vector_mode = false;
    unsigned l2_mshrs = 32;
    unsigned llc_mshrs = 32;
    unsigned llc_prefetch_lines = 0;  ///< LLC stream prefetcher depth
    DramParams dram;
};

/** The assembled hierarchy. */
class MemHierarchy
{
  public:
    explicit MemHierarchy(const HierarchyParams& params);

    /**
     * CMP form: build only the private levels (L1I/L1D/L2) on top of
     * an externally owned shared LLC (Section V's chip
     * multiprocessor setting: one private hierarchy per core).
     * @p llc_gate, when non-null, is interposed on every *timing*
     * path into the shared LLC (the L2's next level and the vector
     * engines' direct LLC port) — the threaded CMP driver passes its
     * BarrierClock gate here so one core's accesses serialize
     * deterministically against the other cores'.
     */
    MemHierarchy(const HierarchyParams& params, Cache& shared_llc,
                 Dram& shared_dram, MemObject* llc_gate = nullptr);

    Cache& l1i() { return *l1iCache; }
    Cache& l1d() { return *l1dCache; }
    Cache& l2() { return *l2Cache; }
    Cache& llc() { return *llcView; }
    Dram& dram() { return *dramView; }

    /**
     * The timing port engines use for direct LLC accesses: the LLC
     * itself, unless a CMP gate is interposed. Structural queries
     * (params, stats, touch) still go through llc().
     */
    MemObject& llcPort() { return *llcTimingPort; }

    const HierarchyParams& params() const { return hierParams; }

    /** Pre-fill every level with the address range (tests/warmup). */
    void warmRange(Addr begin, Addr end);

  private:
    void buildPrivateLevels();

    HierarchyParams hierParams;
    std::unique_ptr<Dram> dramChannel;  ///< null in CMP form
    std::unique_ptr<Cache> llcCache;    ///< null in CMP form
    Dram* dramView = nullptr;
    Cache* llcView = nullptr;
    MemObject* llcTimingPort = nullptr;  ///< llcView or the CMP gate
    std::unique_ptr<Cache> l2Cache;
    std::unique_ptr<Cache> l1dCache;
    std::unique_ptr<Cache> l1iCache;
};

/** The shared half of a CMP memory system: LLC + DRAM channel. */
class SharedUncore
{
  public:
    explicit SharedUncore(const HierarchyParams& params);

    Cache& llc() { return *llcCache; }
    Dram& dram() { return *dramChannel; }

  private:
    std::unique_ptr<Dram> dramChannel;
    std::unique_ptr<Cache> llcCache;
};

} // namespace eve

#endif // EVE_MEM_HIERARCHY_HH
