/**
 * @file
 * Deterministic barrier-synchronized clock for threaded CMP
 * simulation.
 *
 * Each core of a CMP simulation runs on its own thread; the only
 * state they share is the uncore (LLC + DRAM channel). The
 * BarrierClock serializes every uncore access into one global order
 * that depends on nothing but the simulated ticks themselves —
 * lexicographic (tick, core id) — so the simulated timing is
 * byte-identical at any thread count and under any OS scheduling.
 *
 * Protocol: before touching the uncore at simulated tick t, core i
 * calls enter(i, t). The clock clamps the tick monotone per core
 * (t' = max(t, the core's previous grant) — each core's uncore port
 * is in order), publishes t' as core i's clock frontier, and blocks
 * until every other live core j has either finished or published a
 * frontier strictly ahead of t' (ties broken by core id). Frontiers
 * only move forward and every future access of core j is granted at
 * or after frontier[j], so when enter() returns, no access with a
 * smaller (tick, id) can ever be granted — the caller holds the
 * global grant token and may touch the uncore without any further
 * locking. The token is implicitly returned by the core's next
 * enter() (which raises its frontier) or by finish().
 *
 * Deadlock-freedom: among cores blocked in enter(), the one with the
 * least (tick, id) waits only on cores that are still *computing*
 * (their stale frontiers are behind its tick). A computing core
 * eventually calls enter() — publishing a frontier at or above its
 * stale one — or finish(); either resolves the wait. Induction on
 * the least blocked (tick, id) gives global progress.
 *
 * A RunPermits semaphore caps how many core threads actually compute
 * concurrently (runCmpParallel's max_threads). A core blocked in enter() returns its
 * permit so a computing core can use the slot, and re-acquires it
 * once granted; the grant *order* never depends on permits, so the
 * permit count affects wall time only, never simulated timing.
 */

#ifndef EVE_SIM_BARRIER_CLOCK_HH
#define EVE_SIM_BARRIER_CLOCK_HH

#include <condition_variable>
#include <mutex>
#include <vector>

#include "common/types.hh"
#include "mem/mem_object.hh"

namespace eve
{

/** Counting semaphore bounding concurrently computing core threads. */
class RunPermits
{
  public:
    explicit RunPermits(unsigned count) : avail(count) {}

    void
    acquire()
    {
        std::unique_lock<std::mutex> lock(m);
        cv.wait(lock, [this] { return avail > 0; });
        --avail;
    }

    void
    release()
    {
        {
            std::lock_guard<std::mutex> lock(m);
            ++avail;
        }
        cv.notify_one();
    }

  private:
    std::mutex m;
    std::condition_variable cv;
    unsigned avail;
};

/** The deterministic CMP clock (see file comment for the protocol). */
class BarrierClock
{
  public:
    /**
     * @p cores participating cores; @p permits optional semaphore a
     * blocked core releases while waiting (may be null).
     */
    explicit BarrierClock(unsigned cores, RunPermits* permits = nullptr)
        : frontier(cores, 0), done(cores, false), permits(permits)
    {
    }

    /**
     * Block until core @p id holds the global grant token for its
     * next uncore access at simulated tick @p t; returns the granted
     * tick (clamped monotone per core).
     */
    Tick
    enter(unsigned id, Tick t)
    {
        std::unique_lock<std::mutex> lock(m);
        const Tick granted = t > frontier[id] ? t : frontier[id];
        frontier[id] = granted;
        cv.notify_all();
        if (!isLeast(id, granted)) {
            // Return the compute slot while blocked so a running
            // core can make the progress this wait depends on.
            if (permits) {
                lock.unlock();
                permits->release();
                lock.lock();
            }
            cv.wait(lock,
                    [this, id, granted] { return isLeast(id, granted); });
            if (permits) {
                lock.unlock();
                permits->acquire();
            }
        }
        return granted;
    }

    /** Core @p id will make no further uncore accesses. */
    void
    finish(unsigned id)
    {
        {
            std::lock_guard<std::mutex> lock(m);
            done[id] = true;
        }
        cv.notify_all();
    }

  private:
    /** True when (t, id) is least among live frontiers (m held). */
    bool
    isLeast(unsigned id, Tick t) const
    {
        for (unsigned j = 0; j < frontier.size(); ++j) {
            if (j == id || done[j])
                continue;
            if (frontier[j] < t || (frontier[j] == t && j < id))
                return false;
        }
        return true;
    }

    mutable std::mutex m;
    std::condition_variable cv;
    std::vector<Tick> frontier;
    std::vector<bool> done;
    RunPermits* permits;
};

/**
 * A core's private port onto the shared uncore: every access first
 * wins the BarrierClock grant for its (clamped) tick, so the wrapped
 * object sees one globally ordered, deterministic access sequence.
 */
class GatedUncorePort : public MemObject
{
  public:
    GatedUncorePort(MemObject& inner, BarrierClock& clock, unsigned id)
        : inner(inner), clock(clock), id(id)
    {
    }

    Tick
    access(Addr addr, bool is_write, Tick t) override
    {
        const Tick granted = clock.enter(id, t);
        return inner.access(addr, is_write, granted);
    }

    StatGroup& stats() override { return inner.stats(); }

  private:
    MemObject& inner;
    BarrierClock& clock;
    unsigned id;
};

} // namespace eve

#endif // EVE_SIM_BARRIER_CLOCK_HH
