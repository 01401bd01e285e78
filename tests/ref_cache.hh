/**
 * @file
 * RefCache: the functional reference Cache is checked against.
 *
 * The tag state of one cache level written the plain way: each set's
 * recency order is a std::list of way indices (LRU first), and the
 * fill state is a std::map from (set, way) to the line it holds and
 * its dirty bit — a way absent from the map is invalid. Lookups,
 * victims, write-backs, stream prefetches, way masking, carve-outs
 * and functional warming follow Cache's rules; timing does not (it
 * stays with the parity digests), so next-level accesses are issued
 * at tick 0 in the order Cache issues them. Divisions and moduli
 * everywhere: keep it simple rather than fast.
 */

#ifndef EVE_TESTS_REF_CACHE_HH
#define EVE_TESTS_REF_CACHE_HH

#include <cstdint>
#include <list>
#include <map>
#include <utility>
#include <vector>

#include "mem/cache.hh"

namespace eve::test
{

/** Functional model of one Cache level. */
class RefCache
{
  public:
    RefCache(const CacheParams& params, MemObject& next_level)
        : lineBytes(params.line_bytes), assoc(params.assoc),
          sets(unsigned(params.size_bytes /
                        (std::uint64_t(params.line_bytes) * params.assoc))),
          prefetchLines(params.prefetch_lines), liveWays(params.assoc),
          next(next_level), recency(sets)
    {
        for (auto& order : recency)
            for (unsigned w = 0; w < assoc; ++w)
                order.push_back(w);
    }

    /** A timing access; true on a hit. */
    bool
    access(Addr addr, bool is_write)
    {
        evicted.clear();
        const Addr line = addr / lineBytes;
        const unsigned set = unsigned(line % sets);
        const int way = find(set, line);
        if (way >= 0) {
            use(set, unsigned(way));
            if (is_write)
                fills[{set, unsigned(way)}].dirty = true;
            ++hits;
            return true;
        }
        ++misses;
        next.access(addr, false, 0);
        install(set, line, is_write);
        for (unsigned i = 1; i <= prefetchLines; ++i)
            prefetch(line + i);
        return false;
    }

    void setActiveWays(unsigned active_ways) { liveWays = active_ways; }

    unsigned activeWays() const { return liveWays; }

    InvalidateResult
    invalidateWays(unsigned way_begin, unsigned way_end)
    {
        InvalidateResult result;
        for (unsigned s = 0; s < sets; ++s) {
            for (unsigned w = way_begin; w < way_end; ++w) {
                auto it = fills.find({s, w});
                if (it == fills.end())
                    continue;
                ++result.valid_lines;
                if (it->second.dirty)
                    ++result.dirty_lines;
                fills.erase(it);
            }
        }
        return result;
    }

    /** Functional warming: no next-level traffic, no write-back. */
    void
    touch(Addr addr, bool dirty)
    {
        evicted.clear();
        const Addr line = addr / lineBytes;
        const unsigned set = unsigned(line % sets);
        int way = find(set, line);
        if (way < 0) {
            way = int(victim(set));
            auto it = fills.find({set, unsigned(way)});
            if (it != fills.end())
                evicted.push_back(it->second.line);
            fills[{set, unsigned(way)}] = Fill{line, false};
        }
        use(set, unsigned(way));
        Fill& fill = fills[{set, unsigned(way)}];
        fill.dirty = fill.dirty || dirty;
    }

    bool
    isCached(Addr addr) const
    {
        const Addr line = addr / lineBytes;
        return find(unsigned(line % sets), line) >= 0;
    }

    /** Line numbers held by ways [0, activeWays()), in map order. */
    std::vector<Addr>
    reachableLines() const
    {
        std::vector<Addr> out;
        for (const auto& [where, fill] : fills)
            if (where.second < liveWays)
                out.push_back(fill.line);
        return out;
    }

    /** Lines the last access() or touch() evicted, in order. */
    std::vector<Addr> evicted;

    std::uint64_t hits = 0, misses = 0, writebacks = 0, prefetches = 0;

  private:
    struct Fill
    {
        Addr line = 0;
        bool dirty = false;
    };

    /** Lowest active way holding @p line, or -1. */
    int
    find(unsigned set, Addr line) const
    {
        for (unsigned w = 0; w < liveWays; ++w) {
            auto it = fills.find({set, w});
            if (it != fills.end() && it->second.line == line)
                return int(w);
        }
        return -1;
    }

    /** Lowest invalid active way, else the least recent active one. */
    unsigned
    victim(unsigned set) const
    {
        for (unsigned w = 0; w < liveWays; ++w)
            if (!fills.count({set, w}))
                return w;
        for (unsigned w : recency[set])
            if (w < liveWays)
                return w;
        return 0;
    }

    /** Move @p way to the most recent end of its set's order. */
    void
    use(unsigned set, unsigned way)
    {
        recency[set].remove(way);
        recency[set].push_back(way);
    }

    /** Fill @p line into its set's victim way, writing back dirt. */
    void
    install(unsigned set, Addr line, bool dirty)
    {
        const unsigned way = victim(set);
        auto it = fills.find({set, way});
        if (it != fills.end()) {
            evicted.push_back(it->second.line);
            if (it->second.dirty) {
                next.access(it->second.line * lineBytes, true, 0);
                ++writebacks;
            }
        }
        fills[{set, way}] = Fill{line, dirty};
        use(set, way);
    }

    void
    prefetch(Addr line)
    {
        const unsigned set = unsigned(line % sets);
        if (find(set, line) >= 0)
            return;
        ++prefetches;
        next.access(line * lineBytes, false, 0);
        install(set, line, false);
    }

    unsigned lineBytes;
    unsigned assoc;
    unsigned sets;
    unsigned prefetchLines;
    unsigned liveWays;
    MemObject& next;

    std::vector<std::list<unsigned>> recency; ///< per set, LRU first
    std::map<std::pair<unsigned, unsigned>, Fill> fills; ///< (set, way)
};

} // namespace eve::test

#endif // EVE_TESTS_REF_CACHE_HH
