/**
 * @file
 * Set-associative write-back, write-allocate cache with banked access
 * and MSHR-limited miss parallelism.
 *
 * The tag array is functional (real tags, LRU replacement), while
 * timing comes from reservation resources: per-bank pipelined ports
 * and an MSHR token pool. Misses to a line that is already
 * outstanding merge into the in-flight MSHR (secondary misses),
 * which matters for unit-stride vector streams.
 *
 * Way masking supports the EVE reconfiguration story: the L2 can be
 * restricted to its "cache ways" while the "EVE ways" are carved out
 * as an ephemeral vector engine (Section V-E of the paper).
 *
 * Hot-path layout (see DESIGN.md "Hot-path invariants & timing
 * parity"): line size, set count and bank count are powers of two,
 * so a lookup splits an address into line, set, tag and bank with
 * shifts and masks, and victim, write-back and prefetch addresses are
 * rebuilt the same way; the tag array is one flat vector indexed
 * [set * assoc + way]; recency is order-encoded per set (a packed
 * nibble list, LRU -> MRU) next to a valid-way bitmask, so victim
 * selection reads two words instead of scanning per-line 64-bit
 * timestamps; and the in-flight-fill (MSHR) state lives *in the line
 * itself* — each tag entry carries the tick its fill completes. A
 * fill tick is only meaningful while it is in the future of the
 * line's bank clock, a line's bank never changes, and the line's
 * eviction overwrites the state, so the side table the fill ticks
 * used to live in (and the bounded-size prune that kept it from
 * growing without bound on decoupled-engine streams — the O3/DV
 * per-miss pathology) is gone entirely. None of this changes a
 * simulated cycle — the structures are behaviourally identical to
 * what they replaced.
 */

#ifndef EVE_MEM_CACHE_HH
#define EVE_MEM_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "mem/mem_object.hh"
#include "sim/resource.hh"

namespace eve
{

/** Configuration of one cache level. */
struct CacheParams
{
    std::string name = "cache";
    std::uint64_t size_bytes = 32 * 1024;
    unsigned assoc = 4;
    /** A power of two, as is the set count: lookups shift and mask. */
    unsigned line_bytes = 64;
    /** A nonzero power of two: a line's bank is its low line bits. */
    unsigned banks = 1;
    Cycles hit_latency = 1;   ///< in cycles of @ref clock
    unsigned mshrs = 16;
    double clock_ns = 1.0;    ///< cycle time of this level

    /**
     * Next-N-line stream prefetcher (0 = off). On a demand miss the
     * cache also fetches the following lines without holding the
     * requester — the paper's future-work lever for making better
     * use of memory bandwidth under limited MSHRs.
     */
    unsigned prefetch_lines = 0;
};

/** Result of invalidating a range of ways (EVE spawn cost input). */
struct InvalidateResult
{
    std::uint64_t valid_lines = 0;
    std::uint64_t dirty_lines = 0;
};

/** One cache level. */
class Cache : public MemObject
{
  public:
    Cache(const CacheParams& params, MemObject* next_level);

    Tick access(Addr addr, bool is_write, Tick t) override;

    StatGroup& stats() override { return statGroup; }

    /**
     * Restrict lookups and fills to ways [0, active_ways). Lines in
     * the masked-off ways become unreachable; callers wanting the
     * paper's spawn semantics invalidate them first.
     */
    void setActiveWays(unsigned active_ways);

    unsigned activeWays() const { return liveWays; }

    /**
     * Invalidate all lines in ways [way_begin, way_end), returning
     * how many lines were valid and dirty — the inputs to the spawn
     * cost model (each dirty line incurs a writeback to the LLC).
     */
    InvalidateResult invalidateWays(unsigned way_begin, unsigned way_end);

    /** Warm a line into the cache without timing side effects. */
    void touch(Addr addr, bool dirty = false);

    const CacheParams& params() const { return cacheParams; }

    /** Number of sets. */
    unsigned numSets() const { return sets; }

    /** True iff the line containing @p addr is present (tests). */
    bool isCached(Addr addr) const;

    /** Ticks spent waiting for a free MSHR (Figure 8 numerator). */
    double mshrWaitTicks() const { return statGroup.get("mshr_wait_ticks"); }

  private:
    struct Line
    {
        Addr tag = 0;
        /**
         * Tick the line's most recent fill completes. An access that
         * hits while this is still ahead of its own completion tick
         * waits for the fill (a secondary miss merging into the
         * in-flight MSHR). A line's accesses all go through one bank
         * whose start ticks never decrease, so once the fill tick
         * falls behind an access it can never affect a later one —
         * a stale value is exactly equivalent to the erased side-
         * table entry it replaces.
         */
        Tick fill = 0;
        bool valid = false;
        bool dirty = false;
    };

    Addr lineAddr(Addr addr) const { return addr >> lineShift; }
    unsigned setIndex(Addr line) const { return unsigned(line & setMask); }
    Addr tagOf(Addr line) const { return line >> setShift; }
    /** Byte address of line number @p line. */
    Addr lineBase(Addr line) const { return line << lineShift; }
    /** Byte address of the line holding @p tag in @p set. */
    Addr
    lineBase(Addr tag, unsigned set) const
    {
        return lineBase((tag << setShift) | set);
    }

    Line* setBase(unsigned set) { return &tagArray[std::size_t(set) * cacheParams.assoc]; }
    const Line* setBase(unsigned set) const { return &tagArray[std::size_t(set) * cacheParams.assoc]; }

    /** Find the way holding @p line in its set, or -1. */
    int findWay(unsigned set, Addr tag) const;

    /** Pick a victim way among active ways (invalid first, then LRU). */
    unsigned victimWay(unsigned set) const;

    /** Mark @p way most-recently used in its set's recency list. */
    void touchLru(unsigned set, unsigned way);

    /** Issue one stream-prefetch fill for @p line at tick @p t. */
    void prefetchLine(Addr line, Tick t);

    CacheParams cacheParams;
    MemObject* next;
    ClockDomain clock;

    unsigned sets;
    unsigned lineShift;   ///< log2(line_bytes)
    unsigned setShift;    ///< log2(sets)
    Addr setMask;         ///< sets - 1
    Addr bankMask;        ///< banks - 1
    unsigned liveWays;
    std::vector<Line> tagArray;          ///< flat, [set * assoc + way]

    /**
     * Per-set recency order, one nibble per position: nibble p holds
     * the way index at recency position p (0 = LRU end, assoc-1 =
     * MRU end). Exactly the order the per-line timestamps used to
     * encode, without per-line 64-bit state.
     */
    std::vector<std::uint64_t> lruOrder;
    std::vector<std::uint16_t> validMask; ///< per-set valid-way bits

    std::vector<PipelinedUnits> bankPorts;
    TokenPool mshrPool;

    StatGroup statGroup;
    StatGroup::Id statReads, statWrites, statHits, statMisses;
    StatGroup::Id statMshrWait, statMshrMerges, statWritebacks;
    StatGroup::Id statPrefetches;
};

} // namespace eve

#endif // EVE_MEM_CACHE_HH
