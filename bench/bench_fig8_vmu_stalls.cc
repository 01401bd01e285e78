/**
 * @file
 * Figure 8: cache-induced stalls in the VMU — the fraction of the
 * VMU's request-issue time spent stalled on LLC admission (MSHR
 * back-pressure), per workload per EVE design. These stalls do not
 * necessarily bubble execution; they can be hidden by outstanding
 * compute.
 *
 * The grid is a SweepSpec (EVE designs x paper workloads) executed
 * through the shared runSweep() plumbing. The table is
 * report::fig8VmuStalls of the results, which recomputes the stall
 * fraction from the flattened engine stats
 * (eve.vmu_cache_stall_ticks / eve.vmu_issue_ticks) each job
 * carries, so cached results and eve_report over the artifact
 * reproduce it exactly.
 */

#include <cstdio>

#include "bench_util.hh"
#include "common/log.hh"
#include "report/figures.hh"

using namespace eve;

int
main()
{
    setInformEnabled(false);
    const bool small = bench::smallRuns();
    std::printf("Figure 8 (%s inputs)\n\n",
                small ? "small smoke-test" : "full");

    exp::SweepSpec spec;
    spec.systems(bench::eveSystems());
    spec.workloads(exp::paperWorkloads(), small);

    bench::SweepOptions opts;
    opts.artifact = "fig8_vmu_stalls.jsonl";
    const auto results = bench::runSweep(spec, opts);
    std::printf("%s",
                report::figureText(report::fig8VmuStalls(results))
                    .c_str());
    std::printf("Expected shape: stalls fall as the parallelization "
                "factor grows (the hardware\nvector length halves "
                "from EVE-8 on, halving MSHR demand); backprop stays"
                "\nsaturated (large-stride accesses: one line per "
                "element).\n");
    return 0;
}
