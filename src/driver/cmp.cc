#include "driver/cmp.hh"

#include <exception>
#include <memory>
#include <thread>

#include "common/log.hh"
#include "sim/barrier_clock.hh"

namespace eve
{

std::vector<RunResult>
runCmpParallel(const std::vector<CmpCore>& cores, unsigned max_threads)
{
    if (cores.empty())
        return {};
    const unsigned n = unsigned(cores.size());
    if (max_threads == 0 || max_threads > n)
        max_threads = n;

    // The uncore runs at the baseline clock whatever the cores'
    // design points (same convention as runCmpPair).
    HierarchyParams shared = System::hierarchyParams(cores[0].config);
    shared.clock_ns = 1.025;
    SharedUncore uncore(shared);

    RunPermits permits(max_threads);
    BarrierClock clock(n, &permits);

    // Build every system up front (single-threaded): construction
    // touches only private state plus the uncore's structural config.
    std::vector<std::unique_ptr<GatedUncorePort>> gates;
    std::vector<std::unique_ptr<System>> systems;
    gates.reserve(n);
    systems.reserve(n);
    for (unsigned i = 0; i < n; ++i) {
        gates.push_back(std::make_unique<GatedUncorePort>(
            uncore.llc(), clock, i));
        auto sys = std::make_unique<System>(cores[i].config, uncore,
                                            gates.back().get());
        // Disjoint physical footprints in the shared LLC.
        sys->setAddressBias(Addr{i} << 32);
        sys->deferSharedStats();
        systems.push_back(std::move(sys));
    }

    std::vector<RunResult> results(n);
    std::vector<std::exception_ptr> errors(n);
    std::vector<std::thread> threads;
    threads.reserve(n);
    for (unsigned i = 0; i < n; ++i) {
        threads.emplace_back([&, i] {
            permits.acquire();
            try {
                results[i] = systems[i]->run(*cores[i].workload);
            } catch (...) {
                errors[i] = std::current_exception();
            }
            // Even a failed core must retire from the clock, or the
            // others would wait on its frontier forever.
            clock.finish(i);
            permits.release();
        });
    }
    for (auto& t : threads)
        t.join();
    for (auto& e : errors)
        if (e)
            std::rethrow_exception(e);

    // Patch the shared-uncore statistics in after the join: final
    // values, identical in every core's result, deterministic.
    for (RunResult& r : results) {
        for (StatGroup* group :
             {&uncore.llc().stats(), &uncore.dram().stats()}) {
            for (const auto& [stat, value] : group->sorted())
                r.stats[group->name() + "." + stat] = value;
        }
    }
    return results;
}

} // namespace eve
