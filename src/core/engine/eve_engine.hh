/**
 * @file
 * O3+EVE: the ephemeral vector engine system (Section V).
 *
 * The control processor (O3Core) sends vector instructions to EVE at
 * commit. Inside the engine:
 *
 *  - the VCU routes each instruction to the VSU (compute), VMU
 *    (memory), and/or VRU (reductions and cross-element ops);
 *  - the VSU issues one micro-op tuple per cycle; an instruction's
 *    compute latency is the length of its real micro-program from the
 *    macro-op library, identical across all SRAM arrays (they run in
 *    lock step);
 *  - the VMU generates cache-line requests against the LLC (one per
 *    cycle, one-cycle translation), with the LLC's MSHR pool limiting
 *    miss parallelism — the mechanism behind Figure 8;
 *  - eight DTUs transpose loaded lines into the bit-sliced layout
 *    (and de-transpose stores); EVE-32 needs no transpose;
 *  - the VRU consumes streamed elements for reductions/cross-element
 *    ops (E = B/n elements per beat, Section V-D).
 *
 * Every cycle of the engine's critical path is attributed to one of
 * the Figure 7 execution-breakdown categories.
 *
 * The whole system — core, caches, engine — runs at the EVE-n cycle
 * time from the circuits model, which is how the EVE-16/EVE-32
 * cycle-time penalty degrades scalar performance exactly as the
 * paper describes.
 */

#ifndef EVE_CORE_ENGINE_EVE_ENGINE_HH
#define EVE_CORE_ENGINE_EVE_ENGINE_HH

#include <array>
#include <memory>
#include <vector>

#include "core/layout/layout.hh"
#include "core/uprog/macro_lib.hh"
#include "cpu/o3_core.hh"
#include "cpu/timing_model.hh"
#include "mem/hierarchy.hh"
#include "sim/resource.hh"

namespace eve
{

/** Configuration of the EVE engine. */
struct EveParams
{
    O3CoreParams core;           ///< clock_ns overridden by pf
    unsigned pf = 8;             ///< parallelization factor n
    unsigned arrays = 32;        ///< active EVE sub-arrays (half the L2)
    unsigned dtus = 8;           ///< data transpose units
    Cycles dtu_line_cycles = 8;  ///< per-cacheline transpose time
    unsigned vmu_queue = 4;      ///< outstanding memory macro-ops
    unsigned vmu_line_credits = 64;  ///< outstanding line requests
    unsigned vru_bandwidth_bits = 512;  ///< stream bits per cycle
    Tick spawn_ready = 0;        ///< tick the engine becomes usable
};

/** Execution-breakdown categories of Figure 7. */
struct EveBreakdown
{
    double busy = 0;
    double vru_stall = 0;
    double ld_mem_stall = 0;
    double st_mem_stall = 0;
    double ld_dt_stall = 0;
    double st_dt_stall = 0;
    double vmu_stall = 0;
    double empty_stall = 0;
    double dep_stall = 0;

    double total() const
    {
        return busy + vru_stall + ld_mem_stall + st_mem_stall +
               ld_dt_stall + st_dt_stall + vmu_stall + empty_stall +
               dep_stall;
    }

    bool operator==(const EveBreakdown&) const = default;
};

/** The O3+EVE system. */
class EveSystem : public TimingModel
{
  public:
    EveSystem(const EveParams& params, MemHierarchy& mem);

    void consume(const Instr& instr) override;
    void finish() override;
    Tick finalTick() const override;
    StatGroup& stats() override { return statGroup; }
    double clockNs() const override { return core.clockNs(); }

    unsigned hwVectorLength() const { return hwVl; }

    const EveBreakdown& breakdown() const { return bdown; }

    /**
     * Fraction of the VMU's request-issue time spent stalled on the
     * cache (LLC admission / MSHR back-pressure) — the Figure 8
     * metric.
     */
    double vmuCacheStallFraction() const;

    /** Absolute LLC admission stall time observed by the VMU. */
    double vmuCacheStallTicks() const;

    const Layout& layout() const { return dataLayout; }

  private:
    /** How a vector register was last produced (stall attribution). */
    struct Producer
    {
        enum class Kind : std::uint8_t { None, Compute, Load, Vru };

        Kind kind = Kind::None;
        Tick memDone = 0;  ///< load: last line from the LLC
        Tick dtDone = 0;   ///< load: last line out of the DTUs
    };

    void consumeVector(const Instr& instr);
    void execCompute(const Instr& instr, Tick commit);
    void execLoad(const Instr& instr, Tick commit);
    void execStore(const Instr& instr, Tick commit);
    void execVru(const Instr& instr, Tick commit);

    /** Attribute the VSU idle gap [from, start) to its causes. */
    void attributeGap(Tick from, Tick start, Tick commit,
                      const Instr& instr);

    Tick srcReady(const Instr& instr) const;

    EveParams params;
    MemHierarchy& mem;
    O3Core core;
    ClockDomain clock;
    Layout dataLayout;
    MacroLib macroLib;
    unsigned segs;
    unsigned hwVl;

    Tick vsuFree = 0;
    Tick vruFree = 0;
    Tick vmuGenFree = 0;
    std::vector<Addr> lineBuf;  ///< reused per-instruction request plan
    PipelinedUnits dtuUnits;
    TokenPool vmuQueue;
    TokenPool vmuCredits;  ///< outstanding-line back-pressure
    std::array<Tick, 32> vregReady{};
    std::array<Producer, 32> producer{};
    Tick memLast = 0;
    Tick engineLast = 0;

    EveBreakdown bdown;
    StatGroup statGroup;
    StatGroup::Id statVectorInstrs, statVsuUops, statVsuArrayUops;
    StatGroup::Id statVmuLines, statVmuCacheStall, statVmuIssue;
    StatGroup::Id statVruOps;
};

} // namespace eve

#endif // EVE_CORE_ENGINE_EVE_ENGINE_HH
