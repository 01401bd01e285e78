#include "mem/cache.hh"

#include <algorithm>
#include <bit>

#include "common/bits.hh"
#include "common/log.hh"

namespace eve
{

namespace
{

unsigned
setCount(const CacheParams& params)
{
    const std::uint64_t set_bytes =
        std::uint64_t(params.line_bytes) * params.assoc;
    return set_bytes ? unsigned(params.size_bytes / set_bytes) : 0;
}

} // namespace

Cache::Cache(const CacheParams& params, MemObject* next_level)
    : cacheParams(params),
      next(next_level),
      clock(params.clock_ns),
      sets(setCount(params)),
      lineShift(log2i(params.line_bytes)),
      setShift(log2i(sets)),
      setMask(Addr(sets) - 1),
      bankMask(Addr(params.banks) - 1),
      liveWays(params.assoc),
      tagArray(std::size_t(sets) * params.assoc),
      validMask(sets, 0),
      mshrPool(params.mshrs),
      statGroup(params.name)
{
    if (!next)
        panic("cache %s: next level is null", params.name.c_str());
    if (!isPow2(params.line_bytes))
        fatal("cache %s: line size %u bytes must be a power of two",
              params.name.c_str(), params.line_bytes);
    if (!isPow2(params.banks))
        fatal("cache %s: bank count %u must be a nonzero power of two",
              params.name.c_str(), params.banks);
    if (params.assoc == 0 || params.assoc > 16)
        fatal("cache %s: assoc %u outside [1, 16] supported by the "
              "order-encoded recency list",
              params.name.c_str(), params.assoc);
    if (!isPow2(sets))
        fatal("cache %s: set count %u must be a nonzero power of two",
              params.name.c_str(), sets);
    // Recency starts as way order: nibble p holds way p.
    std::uint64_t order = 0;
    for (unsigned w = 0; w < params.assoc; ++w)
        order |= std::uint64_t(w) << (4 * w);
    lruOrder.assign(sets, order);
    bankPorts.reserve(params.banks);
    for (unsigned i = 0; i < params.banks; ++i)
        bankPorts.emplace_back(1);

    statReads = statGroup.id("reads");
    statWrites = statGroup.id("writes");
    statHits = statGroup.id("hits");
    statMisses = statGroup.id("misses");
    statMshrWait = statGroup.id("mshr_wait_ticks");
    statMshrMerges = statGroup.id("mshr_merges");
    statWritebacks = statGroup.id("writebacks");
    statPrefetches = statGroup.id("prefetches");
}

int
Cache::findWay(unsigned set, Addr tag) const
{
    const Line* base = setBase(set);
    for (unsigned w = 0; w < liveWays; ++w) {
        if (base[w].valid && base[w].tag == tag)
            return int(w);
    }
    return -1;
}

unsigned
Cache::victimWay(unsigned set) const
{
    // Invalid ways first, lowest index — exactly the order the old
    // per-line scan returned them in.
    const auto active = std::uint16_t((1u << liveWays) - 1);
    const auto invalid = std::uint16_t(~validMask[set] & active);
    if (invalid)
        return unsigned(std::countr_zero(invalid));
    // All active ways valid: the least recently used active way is
    // the first nibble from the LRU end that names an active way
    // (masked-off ways keep their frozen positions in the list).
    const std::uint64_t order = lruOrder[set];
    for (unsigned p = 0; p < cacheParams.assoc; ++p) {
        const auto way = unsigned((order >> (4 * p)) & 0xF);
        if (way < liveWays)
            return way;
    }
    return 0; // unreachable: liveWays >= 1
}

void
Cache::touchLru(unsigned set, unsigned way)
{
    const unsigned assoc = cacheParams.assoc;
    std::uint64_t order = lruOrder[set];
    unsigned p = 0;
    while (((order >> (4 * p)) & 0xF) != way)
        ++p;
    if (p == assoc - 1)
        return; // already MRU
    // Splice the nibble out and append it at the MRU end.
    const std::uint64_t below =
        p ? order & ((std::uint64_t{1} << (4 * p)) - 1) : 0;
    const std::uint64_t shifted = (order >> (4 * (p + 1))) << (4 * p);
    lruOrder[set] =
        below | shifted | (std::uint64_t(way) << (4 * (assoc - 1)));
}

Tick
Cache::access(Addr addr, bool is_write, Tick t)
{
    const Addr line = lineAddr(addr);
    const unsigned set = setIndex(line);
    const Addr tag = tagOf(line);

    // Bank conflict: the bank serving this line is pipelined but can
    // start only one access per cycle.
    PipelinedUnits& bank = bankPorts[line & bankMask];
    const Tick start = bank.acquire(t, clock.period());
    const Tick hit_done = start + clock.toTicks(cacheParams.hit_latency);

    statGroup.add(is_write ? statWrites : statReads, 1);

    int way = findWay(set, tag);
    if (way >= 0) {
        // Hit — but if the line's fill is still in flight, the access
        // completes when the fill does.
        Line& entry = setBase(set)[unsigned(way)];
        touchLru(set, unsigned(way));
        if (is_write)
            entry.dirty = true;
        Tick done = hit_done;
        if (entry.fill > hit_done) {
            done = entry.fill;
            statGroup.add(statMshrMerges, 1);
        }
        statGroup.add(statHits, 1);
        return done;
    }

    // Miss: allocate an MSHR (stalling if none are free), fetch the
    // line from the next level, then fill.
    statGroup.add(statMisses, 1);
    Tick fill = 0;
    const Tick want = hit_done;  // miss detected after the lookup
    const Tick grant = mshrPool.acquire(want, [&](Tick g) {
        fill = next->access(addr, false, g) + clock.period();
        return fill;
    });
    statGroup.add(statMshrWait, double(grant - want));

    // Victim handling: write back dirty victims to the next level
    // (bandwidth is charged there; the fill does not wait for it).
    // The writeback leaves when the miss is sent — issuing it at the
    // fill time would park a future reservation on the next level's
    // channel and stall earlier arrivals behind it.
    const unsigned victim = victimWay(set);
    Line& entry = setBase(set)[victim];
    if (entry.valid && entry.dirty) {
        next->access(lineBase(entry.tag, set), true, grant);
        statGroup.add(statWritebacks, 1);
    }

    // The victim's in-flight fill state dies with the line (the
    // fill tick is overwritten below): a stale value would merge a
    // later re-fetch of the same line against the pre-eviction fill.
    entry.valid = true;
    entry.dirty = is_write;
    entry.tag = tag;
    entry.fill = fill;
    validMask[set] |= std::uint16_t(1u << victim);
    touchLru(set, victim);

    // Stream prefetch: pull the next lines in parallel with the
    // demand miss (launched at miss detection, not at fill, and not
    // holding demand MSHRs — a dedicated prefetch queue).
    for (unsigned i = 1; i <= cacheParams.prefetch_lines; ++i)
        prefetchLine(line + i, want);

    return fill;
}

void
Cache::prefetchLine(Addr line, Tick t)
{
    const unsigned set = setIndex(line);
    const Addr tag = tagOf(line);
    // A line's fill state lives in its tag entry, so "already cached"
    // covers "already in flight" — an uncached line cannot have an
    // outstanding fill.
    if (findWay(set, tag) >= 0)
        return;
    statGroup.add(statPrefetches, 1);
    const Tick fill = next->access(lineBase(line), false, t) +
                      clock.period();
    const unsigned victim = victimWay(set);
    Line& entry = setBase(set)[victim];
    if (entry.valid && entry.dirty) {
        next->access(lineBase(entry.tag, set), true, t);
        statGroup.add(statWritebacks, 1);
    }
    entry.valid = true;
    entry.dirty = false;
    entry.tag = tag;
    entry.fill = fill;
    validMask[set] |= std::uint16_t(1u << victim);
    touchLru(set, victim);
}

void
Cache::setActiveWays(unsigned active_ways)
{
    if (active_ways == 0 || active_ways > cacheParams.assoc)
        fatal("cache %s: cannot set %u active ways (assoc %u)",
              cacheParams.name.c_str(), active_ways, cacheParams.assoc);
    liveWays = active_ways;
}

InvalidateResult
Cache::invalidateWays(unsigned way_begin, unsigned way_end)
{
    if (way_end > cacheParams.assoc || way_begin > way_end)
        panic("cache %s: bad way range [%u, %u)",
              cacheParams.name.c_str(), way_begin, way_end);
    InvalidateResult result;
    for (unsigned s = 0; s < sets; ++s) {
        Line* base = setBase(s);
        for (unsigned w = way_begin; w < way_end; ++w) {
            Line& line = base[w];
            if (line.valid) {
                ++result.valid_lines;
                if (line.dirty)
                    ++result.dirty_lines;
            }
            // Line{} also drops the in-flight fill state with the
            // line, or a re-fetch after the carve-out would merge
            // against a pre-carve-out fill.
            line = Line{};
            validMask[s] &= std::uint16_t(~(1u << w));
        }
    }
    return result;
}

void
Cache::touch(Addr addr, bool dirty)
{
    const Addr line = lineAddr(addr);
    const unsigned set = setIndex(line);
    const Addr tag = tagOf(line);
    int way = findWay(set, tag);
    if (way < 0) {
        way = int(victimWay(set));
        Line& entry = setBase(set)[unsigned(way)];
        entry.valid = true;
        entry.dirty = false;
        entry.tag = tag;
        entry.fill = 0;  // warmed in without timing side effects
        validMask[set] |= std::uint16_t(1u << unsigned(way));
    }
    Line& entry = setBase(set)[unsigned(way)];
    touchLru(set, unsigned(way));
    entry.dirty = entry.dirty || dirty;
}

bool
Cache::isCached(Addr addr) const
{
    const Addr line = lineAddr(addr);
    return findWay(setIndex(line), tagOf(line)) >= 0;
}

} // namespace eve
