/**
 * @file
 * Threaded CMP co-execution: every core of a chip multiprocessor
 * simulation runs on its own thread, sharing the uncore (LLC + DRAM
 * channel) behind a deterministic barrier-synchronized clock.
 *
 * This is a *co-execution* model, distinct from the sequential
 * runCmpPair() reservation approximation (driver/system.hh), which
 * runs core A to completion and then core B on the warmed uncore.
 * Here the cores' uncore accesses interleave, merged into one global
 * order by lexicographic (simulated tick, core id) — see
 * sim/barrier_clock.hh for the protocol and the determinism
 * argument. The simulated timing of a co-run is a pure function of
 * the configs and workloads: byte-identical at any core-thread cap
 * (asserted at 1, 2, and 8 threads by the parity tests).
 */

#ifndef EVE_DRIVER_CMP_HH
#define EVE_DRIVER_CMP_HH

#include <vector>

#include "driver/system.hh"

namespace eve
{

/** One core of a CMP co-run. */
struct CmpCore
{
    SystemConfig config;
    Workload* workload = nullptr;  ///< not owned; init() is called
};

/**
 * Co-execute @p cores on a shared uncore, each core's simulation on
 * its own thread, with at most @p max_threads of them computing
 * concurrently (0 = one thread per core). Core i's physical
 * footprint is biased by i << 32 so footprints stay disjoint in the
 * shared LLC. Returns per-core results in core order; every result
 * carries the *final* shared llc/dram statistics (identical across
 * cores, collected after all cores finished).
 */
std::vector<RunResult> runCmpParallel(const std::vector<CmpCore>& cores,
                                      unsigned max_threads = 0);

} // namespace eve

#endif // EVE_DRIVER_CMP_HH
