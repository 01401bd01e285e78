/**
 * @file
 * RefWarmupFilter: the reference recency image of WarmupFilter.
 *
 * This is the filter as it was first written: a std::list of
 * (line, dirty) entries, hottest first, indexed by an unordered_map
 * from line number to list node, with a hashed lookup and a
 * division per touched line. It stays in the tests as the oracle the
 * directly indexed filter is compared against, so keep it simple
 * rather than fast.
 */

#ifndef EVE_TESTS_REF_WARMUP_FILTER_HH
#define EVE_TESTS_REF_WARMUP_FILTER_HH

#include <algorithm>
#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "isa/instr.hh"
#include "mem/cache.hh"

namespace eve::test
{

/** Bounded LRU of touched cache lines with WarmupFilter's semantics. */
class RefWarmupFilter
{
  public:
    explicit RefWarmupFilter(unsigned line_bytes = 64,
                             std::size_t max_lines = 65536)
        : lineBytes(line_bytes ? line_bytes : 64), maxLines(max_lines)
    {
    }

    void
    observe(const Instr& instr)
    {
        if (!isMemOp(instr.op))
            return;
        const bool store =
            instr.op == Op::SStore || isVecStore(instr.op);
        switch (instr.op) {
          case Op::SLoad:
          case Op::SStore:
            touchLine(instr.addr / lineBytes, store);
            return;
          case Op::VLoad:
          case Op::VStore: {
            // Contiguous: walk lines, not elements.
            const Addr first = instr.addr / lineBytes;
            const Addr last =
                instr.vl ? (instr.addr + Addr(instr.vl) * 4 - 1) /
                               lineBytes
                         : first;
            for (Addr line = first; line <= last; ++line)
                touchLine(line, store);
            return;
          }
          case Op::VLoadStrided:
          case Op::VStoreStrided:
            for (std::uint32_t i = 0; i < instr.vl; ++i)
                touchLine((instr.addr +
                           Addr(std::int64_t(i) * instr.stride)) /
                              lineBytes,
                          store);
            return;
          case Op::VLoadIndexed:
          case Op::VStoreIndexed:
            if (!instr.indices)
                return;
            for (std::uint32_t i = 0; i < instr.vl; ++i)
                touchLine((instr.addr + instr.indices[i]) / lineBytes,
                          store);
            return;
          default:
            return;
        }
    }

    /** The hottest min(n, lines()) entries, coldest first. */
    template <typename Visit>
    void
    forHottest(std::size_t n, Visit&& visit) const
    {
        std::vector<const Entry*> hot;
        for (const Entry& e : lru) {
            if (hot.size() == n)
                break;
            hot.push_back(&e);
        }
        for (auto it = hot.rbegin(); it != hot.rend(); ++it)
            visit((*it)->line, (*it)->dirty);
    }

    void
    applyTo(Cache& cache) const
    {
        const std::size_t capacity =
            std::size_t(cache.numSets()) * cache.params().assoc;
        const unsigned cache_line = cache.params().line_bytes;
        forHottest(capacity, [&](Addr line, bool dirty) {
            const Addr byte_addr = line * Addr(lineBytes);
            cache.touch((byte_addr / cache_line) * cache_line, dirty);
        });
    }

    std::size_t lines() const { return map.size(); }

  private:
    void
    touchLine(Addr line, bool dirty)
    {
        auto it = map.find(line);
        if (it != map.end()) {
            it->second->dirty |= dirty;
            lru.splice(lru.begin(), lru, it->second);
            return;
        }
        lru.push_front({line, dirty});
        map[line] = lru.begin();
        if (map.size() > maxLines) {
            map.erase(lru.back().line);
            lru.pop_back();
        }
    }

    struct Entry
    {
        Addr line;
        bool dirty;
    };

    unsigned lineBytes;
    std::size_t maxLines;
    std::list<Entry> lru; ///< front = hottest
    std::unordered_map<Addr, std::list<Entry>::iterator> map;
};

} // namespace eve::test

#endif // EVE_TESTS_REF_WARMUP_FILTER_HH
