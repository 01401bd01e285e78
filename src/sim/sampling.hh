/**
 * @file
 * Interval sampling of the emitted instruction stream.
 *
 * Paper-scale inputs (mmult 1024^3, ~8.6 G dynamic instructions) are
 * too slow to push through the detailed timing model record by
 * record. The classic remedy (SMARTS / SimPoint-style systematic
 * sampling) fits the InstrSink interface exactly: the workload
 * generator keeps emitting its full dynamic trace, but only a
 * strided subset of *intervals* reaches the timing model, with a
 * short detailed warmup ahead of every measured interval. The rest
 * of the stream is fast-forwarded: it still drives the functional
 * VecMachine (architectural state must stay exact) and a lightweight
 * WarmupFilter that tracks the recently-touched cache lines, but
 * skips the timing model entirely — near-memcpy speed.
 *
 * Stream layout per period (period = interval * stride records):
 *
 *     [ measured ][ fast-forward (period - warmup - interval) ][ warmup ]
 *
 * Each period's tail warmup primes the *next* period's measured
 * window, and the first window measures from simulation start — so a
 * stream no longer than one interval is simulated in full detail and
 * the "extrapolation" is exact. A stream that ends after its first
 * interval but inside the first period is not: its first interval is
 * measured and scaled up like any other sample (under schedule
 * 100,20,4 the 150-record small pathfinder stream extrapolates one
 * 100-record window). At each fast-forward -> detailed
 * boundary the WarmupFilter's recency image is installed into the
 * cache hierarchy (coldest line first, so the final LRU order
 * matches recency), then the warmup records run through the timing
 * model un-measured, then the measured interval's cycles are taken
 * as the delta of the model's finalTick() frontier. Total time
 * extrapolates as
 *
 *     est_ticks = measured_ticks * (total_records / measured_records)
 *
 * Everything here is deterministic: the phase schedule depends only
 * on the record position and the filter is a plain recency list, so
 * the same SamplingConfig reproduces byte-identical results.
 */

#ifndef EVE_SIM_SAMPLING_HH
#define EVE_SIM_SAMPLING_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/flat_map.hh"
#include "isa/instr.hh"

namespace eve
{

class Cache;
class TimingModel;

/**
 * Sampling schedule. Disabled (exact simulation) when interval == 0;
 * an enabled config always satisfies stride >= 1 and
 * warmup + interval <= interval * stride (the period must fit its
 * warmup and measured windows).
 */
struct SamplingConfig
{
    std::uint64_t interval = 0; ///< measured records per period (0 = off)
    std::uint64_t warmup = 0;   ///< detailed-warmup records per period
    std::uint64_t stride = 1;   ///< period = interval * stride

    bool enabled() const { return interval != 0; }
    std::uint64_t period() const { return interval * stride; }
};

/** The defaults the --sample flag's "default" spelling selects. */
SamplingConfig defaultSampling();

/**
 * Canonical serialization ("interval=N;warmup=N;stride=N"), the
 * content-addressing identity of a sampling schedule: job keys,
 * checkpoint identities, and the distributed protocol all embed it.
 * A disabled config canonicalizes to "" so exact jobs keep their
 * historical keys.
 */
std::string samplingCanonical(const SamplingConfig& cfg);

/**
 * Strict inverse of samplingCanonical(): "" parses as disabled, and
 * any other text must round-trip exactly. Returns false (leaving
 * @p out untouched) on any deviation or on an invalid schedule.
 */
bool parseSamplingCanonical(const std::string& text,
                            SamplingConfig& out);

/**
 * Parse a user-facing --sample argument: "default", a canonical
 * "interval=N;warmup=N;stride=N" string, or the shorthand
 * "INTERVAL[,WARMUP[,STRIDE]]" (an omitted warmup is INTERVAL/5, an
 * omitted stride is the default schedule's; see parseSamplingFlag's
 * definition). Returns false on malformed or invalid input.
 */
bool parseSamplingFlag(const std::string& text, SamplingConfig& out);

/**
 * Recency image of the cache-line working set, maintained across
 * fast-forwarded regions so detailed intervals start from warm
 * caches instead of cold ones (the warmup fidelity lever the
 * sampling literature calls functional warming).
 *
 * A bounded LRU list of (line number, dirty) entries: observe()
 * folds one record's memory footprint in, applyTo() installs the
 * image into a cache level via Cache::touch(), coldest line first so
 * the cache's own recency order ends up matching the filter's. A
 * line's dirty bit is the OR of every store to it since it entered
 * the filter; at the bound the coldest line is evicted.
 *
 * Every strided or indexed element touches the filter, so the
 * per-touch path avoids hashing: the list's nodes live in one
 * vector linked by 32-bit indices, and a paged direct index maps a
 * line number to its node. Pages of kPageLines slots are found
 * through a FlatAddrMap with a last-page memo. An eviction hands the
 * coldest node to the new line without clearing the old line's
 * slot; a lookup instead checks that the node its slot names still
 * holds that line. Pages stay once made: 16 KiB of index per 256 KiB
 * of address space touched.
 */
class WarmupFilter
{
  public:
    explicit WarmupFilter(unsigned line_bytes = 64,
                          std::size_t max_lines = 65536);

    /** Fold @p instr's memory footprint into the recency image. */
    void observe(const Instr& instr);

    /**
     * Install the hottest lines that fit @p cache (capacity =
     * sets * assoc), coldest first. Lines beyond the capacity are
     * skipped — they would only evict hotter ones.
     */
    void applyTo(Cache& cache) const;

    /**
     * Visit the hottest min(@p n, lines()) entries coldest first, as
     * visit(line number, dirty): the order applyTo() installs them.
     */
    template <typename Visit>
    void
    forHottest(std::size_t n, Visit&& visit) const
    {
        if (n == 0 || head == kNone)
            return;
        // Find the n-th hottest node, then walk back towards the head.
        std::uint32_t at = tail;
        if (n < nodes.size()) {
            at = head;
            for (std::size_t k = 1; k < n; ++k)
                at = nodes[at].next;
        }
        for (; at != kNone; at = nodes[at].prev)
            visit(nodes[at].line, nodes[at].dirty);
    }

    std::size_t lines() const { return nodes.size(); }

  private:
    static constexpr std::uint32_t kNone = ~std::uint32_t{0};
    static constexpr unsigned kPageShift = 12;
    static constexpr std::uint32_t kPageLines = 1u << kPageShift;

    struct Node
    {
        Addr line;
        std::uint32_t prev; ///< hotter neighbour, kNone at the head
        std::uint32_t next; ///< colder neighbour, kNone at the tail
        bool dirty;
    };

    Addr lineOf(Addr addr) const
    {
        return lineShift >= 0 ? addr >> lineShift : addr / lineBytes;
    }

    std::uint32_t& slotFor(Addr line);
    void touchLine(Addr line, bool dirty);
    void linkAtHead(std::uint32_t idx);

    unsigned lineBytes;
    int lineShift;          ///< log2(lineBytes), -1 if not a power of 2
    std::size_t maxLines;

    std::vector<Node> nodes; ///< one per resident line
    std::uint32_t head = kNone; ///< hottest
    std::uint32_t tail = kNone; ///< coldest

    /** Line -> node index, page by page; may name a reused node. */
    std::vector<std::uint32_t> slots;
    FlatAddrMap pageIndex;   ///< page number -> first slot
    Addr memoKey = ~Addr{0}; ///< last page number looked up
    std::size_t memoBase = 0;
};

/** What a sampled run measured; extrapolation inputs. */
struct SampleStats
{
    std::uint64_t windows = 0;         ///< measured intervals closed
    std::uint64_t measured_instrs = 0; ///< records in measured windows
    std::uint64_t measured_ticks = 0;  ///< finalTick deltas over them
    std::uint64_t total_instrs = 0;    ///< full stream length
};

/**
 * est_total_ticks = measured_ticks * total / measured. Falls back to
 * @p exact_final_tick (the model's frontier after finish()) only when
 * nothing was measured: an empty stream, or measured windows that
 * advanced no ticks. Any non-empty stream measures its first
 * interval, so a stream shorter than one period is extrapolated too.
 */
double extrapolatedTicks(const SampleStats& stats,
                         double exact_final_tick);

/**
 * The sampling InstrSink: sits where the timing model's leg of the
 * emission tee would be, forwards only warmup + measured records to
 * the model, and accounts measured intervals by finalTick() deltas.
 *
 * The caller owns the phase side effects via on_detail_entry, fired
 * at every fast-forward -> detailed boundary *before* the boundary
 * record is consumed by any downstream sink: a sampled System::run
 * uses it to install the WarmupFilter image and to capture functional
 * checkpoints (so it must observe the state produced by records
 * [0, pos), exactly).
 */
class SamplingController : public InstrSink
{
  public:
    /**
     * @param cfg      enabled sampling schedule
     * @param model    the timing model; consume() forwards detailed
     *                 records to @p model_leg (the address-biased
     *                 view of the same model) and reads
     *                 model.finalTick() at window boundaries
     */
    SamplingController(const SamplingConfig& cfg, TimingModel& model,
                       InstrSink& model_leg);

    /** Fired at each fast-forward -> detailed boundary (pos > 0). */
    std::function<void(std::uint64_t pos)> on_detail_entry;

    void consume(const Instr& instr) override;

    /**
     * Close the stream: @p final_tick is the model frontier after
     * finish(), closing a measured window the stream ended inside.
     */
    void finalize(Tick final_tick);

    const SampleStats& stats() const { return sampleStats; }

  private:
    void closeWindow(Tick tick_now);

    SamplingConfig cfg;
    TimingModel& model;
    InstrSink& modelLeg;

    std::uint64_t pos = 0;       ///< records consumed so far
    bool inDetail = false;
    bool inMeasure = false;
    Tick windowTick0 = 0;
    std::uint64_t windowInstr0 = 0;
    SampleStats sampleStats;
};

} // namespace eve

#endif // EVE_SIM_SAMPLING_HH
