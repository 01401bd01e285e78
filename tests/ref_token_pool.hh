/**
 * @file
 * RefTokenPool: the reference token pool TokenPool is checked against.
 *
 * This is the pool as it was first written: the in-flight release
 * ticks in a binary min-heap (std::push_heap / std::pop_heap), each
 * acquire retiring every release at or before its grant. It stays in
 * the tests as the oracle of the sorted-array pool, so keep it simple
 * rather than fast.
 */

#ifndef EVE_TESTS_REF_TOKEN_POOL_HH
#define EVE_TESTS_REF_TOKEN_POOL_HH

#include <algorithm>
#include <functional>
#include <vector>

#include "common/types.hh"

namespace eve::test
{

/** A pool of @p count tokens with TokenPool's grant semantics. */
class RefTokenPool
{
  public:
    explicit RefTokenPool(unsigned count = 1)
        : capacity(std::max(count, 1u))
    {
    }

    template <typename ReleaseFn>
    Tick
    acquire(Tick t, ReleaseFn release_fn)
    {
        const Tick grant = grantTime(t);
        retire(grant);
        busy.push_back(release_fn(grant));
        std::push_heap(busy.begin(), busy.end(), std::greater<Tick>{});
        return grant;
    }

    Tick
    grantTime(Tick t) const
    {
        if (busy.size() < capacity)
            return t;
        return std::max(t, busy.front());
    }

    unsigned
    inFlight(Tick t)
    {
        retire(t);
        return unsigned(busy.size());
    }

    unsigned count() const { return capacity; }

  private:
    void
    retire(Tick t)
    {
        while (!busy.empty() && busy.front() <= t) {
            std::pop_heap(busy.begin(), busy.end(), std::greater<Tick>{});
            busy.pop_back();
        }
    }

    unsigned capacity;
    std::vector<Tick> busy; ///< min-heap of release ticks
};

} // namespace eve::test

#endif // EVE_TESTS_REF_TOKEN_POOL_HH
