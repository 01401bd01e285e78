/**
 * @file
 * Resource-reservation timing primitives.
 *
 * The memory system and engine models use reservation-style timing:
 * instead of an event-driven port protocol, each contended hardware
 * resource (cache bank, MSHR, DRAM channel, transpose unit) is
 * modelled by an object that answers "if a request arrives at tick T,
 * when can this resource actually serve it?" and records the
 * occupancy. This is the classic interval-simulation technique and it
 * preserves the two behaviours the paper's results hinge on: finite
 * bandwidth and finite miss-level parallelism.
 *
 * Both primitives keep their occupancy in small flat arrays that
 * never reallocate after construction, sorted ascending: PipelinedUnits
 * holds its per-unit free ticks (the earliest-free unit is always the
 * front, and the common single-unit case — every cache bank — is a
 * single compare), and TokenPool its in-flight release ticks, so a
 * grant inspects the front, a retire advances a head index and an
 * insert scans from the back, which is short when releases arrive
 * nearly in order. Grant ticks are identical to the originals — see
 * DESIGN.md "Hot-path invariants & timing parity".
 */

#ifndef EVE_SIM_RESOURCE_HH
#define EVE_SIM_RESOURCE_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace eve
{

/**
 * A pipelined resource with @p count identical units.
 *
 * Each acquisition occupies one unit for a caller-specified busy time.
 * Requests pick the earliest-free unit; if all units are busy past the
 * arrival tick the request is delayed. This models cache banks, issue
 * ports, DTUs, and the DRAM channel.
 */
class PipelinedUnits
{
  public:
    explicit PipelinedUnits(unsigned count = 1);

    /**
     * Reserve a unit for @p busy ticks starting no earlier than @p t.
     * @return the tick at which the unit actually starts serving.
     *
     * The units are interchangeable, so only the multiset of free
     * ticks matters: consume the front (minimum) slot and re-insert
     * its new free tick at the sorted position.
     */
    Tick
    acquire(Tick t, Tick busy)
    {
        const Tick start = std::max(t, freeAt.front());
        const Tick done = start + busy;
        std::size_t i = 0;
        const std::size_t last = freeAt.size() - 1;
        while (i < last && freeAt[i + 1] < done) {
            freeAt[i] = freeAt[i + 1];
            ++i;
        }
        freeAt[i] = done;
        return start;
    }

    /** Earliest tick at which some unit is free, given arrival @p t. */
    Tick earliestStart(Tick t) const { return std::max(t, freeAt.front()); }

    unsigned count() const { return unsigned(freeAt.size()); }

  private:
    std::vector<Tick> freeAt; ///< sorted ascending; front = earliest
};

/**
 * A pool of tokens held for caller-specified intervals (MSHRs, LSQ
 * entries, outstanding-request credits).
 *
 * Unlike PipelinedUnits, the caller does not know the busy time up
 * front relative to acquisition: it acquires at tick T and declares
 * the release tick explicitly (e.g. when the miss fills).
 */
class TokenPool
{
  public:
    explicit TokenPool(unsigned count = 1);

    /**
     * Acquire a token at or after @p t, releasing it at @p release_fn's
     * result. The functional form lets the caller compute the release
     * time from the actual grant time (e.g. miss latency starts when
     * the MSHR is granted, not when the request arrived).
     *
     * @return the tick at which the token was granted.
     */
    template <typename ReleaseFn>
    Tick
    acquire(Tick t, ReleaseFn release_fn)
    {
        const Tick grant = grantTime(t);
        retire(grant);
        insert(release_fn(grant));
        return grant;
    }

    /** Tick at which a token would be granted to an arrival at @p t. */
    Tick
    grantTime(Tick t) const
    {
        if (tail - head < capacity)
            return t;
        // All tokens busy: the request waits for the earliest release.
        return std::max(t, busy[head]);
    }

    /** Number of tokens in flight at tick @p t. */
    unsigned
    inFlight(Tick t)
    {
        retire(t);
        return unsigned(tail - head);
    }

    unsigned count() const { return capacity; }

  private:
    /** Drop all releases at or before @p t. */
    void
    retire(Tick t)
    {
        while (head != tail && busy[head] <= t)
            ++head;
    }

    /** Add @p release at its sorted position, scanning from the back. */
    void
    insert(Tick release)
    {
        if (tail == busy.size()) {
            std::copy(busy.begin() + std::ptrdiff_t(head),
                      busy.begin() + std::ptrdiff_t(tail), busy.begin());
            tail -= head;
            head = 0;
        }
        std::size_t i = tail++;
        for (; i != head && busy[i - 1] > release; --i)
            busy[i] = busy[i - 1];
        busy[i] = release;
    }

    unsigned capacity;
    /**
     * Release ticks of in-flight tokens in [head, tail), sorted
     * ascending (busy[head] = earliest release). Every acquire
     * retires all releases at or before its grant — when the pool is
     * full the grant is at least the earliest release, so at least
     * one entry drops — so at most capacity - 1 are live before an
     * insert. The array holds 2 * capacity ticks: when the tail
     * reaches the end, the live entries move back to the front, at
     * most once per capacity inserts.
     */
    std::vector<Tick> busy;
    std::size_t head = 0;
    std::size_t tail = 0;
};

} // namespace eve

#endif // EVE_SIM_RESOURCE_HH
