/**
 * @file
 * Figure 6: performance of every simulated system on every workload,
 * normalized to the in-order core (IO), with the geometric mean over
 * the paper's geomean subset {k-means, pathfinder, jacobi-2d,
 * backprop, sw}.
 *
 * The grid runs through the shared runSweep() plumbing (thread pool,
 * optional result cache, and a JSON-lines artifact with the full
 * stats maps; EVE_EXP_OUT_DIR overrides its directory). The table is
 * report::fig6Performance of the results: the figure math eve_report
 * applies to the artifact.
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
    std::printf("Figure 6 (higher is better; %s inputs)\n\n",
                small ? "small smoke-test" : "full");

    bench::SweepOptions opts;
    opts.artifact = "fig6_performance.jsonl";
    const auto results = bench::runSweep(bench::fig6Sweep(small), opts);
    std::printf("%s",
                report::figureText(report::fig6Performance(results))
                    .c_str());
    return 0;
}
