/**
 * @file
 * A flat open-addressing Addr -> Tick table.
 *
 * One contiguous slot array, linear probing, backward-shift deletion
 * (no tombstones), multiplicative hashing: unlike an unordered_map,
 * no per-node allocation and no pointer chasing per lookup, and
 * behaviourally exactly a map. The sampling WarmupFilter uses it to
 * find the page of its direct line index for a page number; the
 * value is then a slot offset rather than a tick.
 *
 * The all-ones key is reserved as the empty-slot sentinel. Keys are
 * line or page numbers (a byte address shifted right), so the
 * sentinel is unreachable for any realistic address-space size.
 */

#ifndef EVE_COMMON_FLAT_MAP_HH
#define EVE_COMMON_FLAT_MAP_HH

#include <cstddef>
#include <vector>

#include "common/bits.hh"
#include "common/types.hh"

namespace eve
{

/** Flat Addr -> Tick hash table (linear probing, backshift erase). */
class FlatAddrMap
{
  public:
    /** Reserve capacity for about @p expected live entries. */
    explicit FlatAddrMap(std::size_t expected = 16)
    {
        std::size_t cap = 16;
        while (cap < 2 * expected)
            cap *= 2;
        slots.assign(cap, Slot{kEmpty, 0});
        mask = cap - 1;
    }

    /** Pointer to the value for @p key, or nullptr when absent. */
    Tick*
    find(Addr key)
    {
        std::size_t i = bucket(key);
        while (slots[i].key != kEmpty) {
            if (slots[i].key == key)
                return &slots[i].value;
            i = (i + 1) & mask;
        }
        return nullptr;
    }

    const Tick*
    find(Addr key) const
    {
        return const_cast<FlatAddrMap*>(this)->find(key);
    }

    bool contains(Addr key) const { return find(key) != nullptr; }

    /** Insert @p key or overwrite its existing value. */
    void
    insertOrAssign(Addr key, Tick value)
    {
        if (value < minVal)
            minVal = value;
        std::size_t i = bucket(key);
        while (slots[i].key != kEmpty) {
            if (slots[i].key == key) {
                slots[i].value = value;
                return;
            }
            i = (i + 1) & mask;
        }
        slots[i] = Slot{key, value};
        ++live;
        if (2 * live > slots.size())
            grow();
    }

    /** Remove @p key; returns whether it was present. */
    bool
    erase(Addr key)
    {
        std::size_t i = bucket(key);
        while (slots[i].key != kEmpty) {
            if (slots[i].key == key) {
                eraseSlot(i);
                return true;
            }
            i = (i + 1) & mask;
        }
        return false;
    }

    /** Drop every entry whose (key, value) satisfies @p pred. */
    template <typename Pred>
    void
    eraseIf(Pred pred)
    {
        // Rebuild: collect survivors, then reinsert. A scan-and-
        // backshift in a single pass would be wrong when a probe
        // chain wraps the array end (an entry can shift into an
        // already-visited slot), so keep the rebuild but reuse a
        // persistent scratch buffer — no allocation once warm.
        scratch.clear();
        scratch.reserve(live);
        for (const Slot& s : slots) {
            if (s.key != kEmpty && !pred(s.key, s.value))
                scratch.push_back(s);
        }
        std::fill(slots.begin(), slots.end(), Slot{kEmpty, 0});
        live = 0;
        minVal = kNoValue; // rebuild recomputes the exact minimum
        for (const Slot& s : scratch)
            insertOrAssign(s.key, s.value);
    }

    void
    clear()
    {
        std::fill(slots.begin(), slots.end(), Slot{kEmpty, 0});
        live = 0;
        minVal = kNoValue;
    }

    std::size_t size() const { return live; }

    /**
     * A lower bound on the smallest stored value (all-ones when
     * empty). Maintained on insert and recomputed exactly by
     * eraseIf(); erase() leaves it untouched, so it may lag low —
     * never high. Lets the cache skip a bounded-size prune outright
     * when no entry can match (bound > threshold implies true
     * minimum > threshold), which costs O(1) instead of a full
     * table rebuild and leaves the entry set untouched.
     */
    Tick minValueBound() const { return minVal; }

  private:
    struct Slot
    {
        Addr key;
        Tick value;
    };

    static constexpr Addr kEmpty = ~Addr{0};
    static constexpr Tick kNoValue = ~Tick{0};

    std::size_t
    bucket(Addr key) const
    {
        // Fibonacci multiplicative hash; low line-number bits alone
        // would cluster unit-stride streams into adjacent slots.
        return std::size_t((key * 0x9E3779B97F4A7C15ull) >> 32) & mask;
    }

    void
    eraseSlot(std::size_t i)
    {
        // Backward-shift deletion keeps probe chains intact without
        // tombstones: pull every displaced follower one slot back.
        --live;
        std::size_t j = i;
        for (;;) {
            j = (j + 1) & mask;
            if (slots[j].key == kEmpty)
                break;
            const std::size_t home = bucket(slots[j].key);
            // Move slot j into the hole at i unless its home lies
            // cyclically inside (i, j] — then the chain still works.
            const bool keep = (j > i) ? (home > i && home <= j)
                                      : (home > i || home <= j);
            if (!keep) {
                slots[i] = slots[j];
                i = j;
            }
        }
        slots[i] = Slot{kEmpty, 0};
    }

    void
    grow()
    {
        std::vector<Slot> old = std::move(slots);
        slots.assign(old.size() * 2, Slot{kEmpty, 0});
        mask = slots.size() - 1;
        live = 0;
        for (const Slot& s : old) {
            if (s.key != kEmpty)
                insertOrAssign(s.key, s.value);
        }
    }

    std::vector<Slot> slots;
    std::vector<Slot> scratch; ///< eraseIf survivor buffer, reused
    std::size_t mask = 0;
    std::size_t live = 0;
    Tick minVal = kNoValue; ///< lower bound; see minValueBound()
};

} // namespace eve

#endif // EVE_COMMON_FLAT_MAP_HH
