/**
 * @file
 * Figure 7: execution breakdown of every EVE design on every
 * workload, normalized to EVE-1's execution time — busy vs. the
 * stall categories (VRU, load/store memory, load/store transpose,
 * VMU structural, empty, dependency).
 *
 * The grid is a SweepSpec (EVE designs x paper workloads) executed
 * through the shared runSweep() plumbing: thread-pool execution,
 * optional EVE_EXP_CACHE_DIR result cache, and a JSONL artifact with
 * the full per-job stats. The table is report::fig7Breakdown of the
 * results: the figure math eve_report applies to the artifact.
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
    std::printf("Figure 7 (%s inputs)\n\n",
                small ? "small smoke-test" : "full");

    exp::SweepSpec spec;
    spec.systems(bench::eveSystems());
    spec.workloads(exp::paperWorkloads(), small);

    bench::SweepOptions opts;
    opts.artifact = "fig7_breakdown.jsonl";
    const auto results = bench::runSweep(spec, opts);
    std::printf("%s",
                report::figureText(report::fig7Breakdown(results))
                    .c_str());
    return 0;
}
