/**
 * @file
 * eve_report — one command from a sweep directory to the paper's
 * figures, and the regression gate between two runs.
 *
 *   eve_report SWEEP_DIR [--out DIR] [--baseline DIR]
 *              [--max-regress PCT] [--quiet]
 *
 * SWEEP_DIR is any directory holding sweep JSONL artifacts (what
 * eve_sweep --json writes, or what the benches drop via
 * EVE_EXP_OUT_DIR). The report groups the records, prints
 * fig6/fig7/fig8/Table III/Table IV equivalents, and writes each as
 * CSV + gnuplot script + SVG under --out (default SWEEP_DIR/report).
 *
 * With --baseline PRIOR_DIR the simulated metrics of every cell are
 * diffed against the prior run and the per-cell deltas printed;
 * --max-regress PCT (default 0) turns that into an exit-status gate:
 * any cycles/seconds regression above the bound, any status
 * degradation, or any baseline cell missing from the current run
 * exits 1. Identical runs always report zero deltas — host wall time
 * is excluded from the comparison by design.
 *
 * Exit codes: 0 ok, 1 gate failed, 2 no records found / bad usage.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "report/figures.hh"
#include "report/report.hh"

using namespace eve;

namespace
{

void
usage()
{
    std::printf(
        "usage: eve_report SWEEP_DIR [options]\n"
        "\n"
        "Turn a directory of sweep JSONL artifacts into the paper's\n"
        "figure tables and (optionally) a regression report.\n"
        "\n"
        "options:\n"
        "  --out DIR          artifact directory "
        "(default SWEEP_DIR/report)\n"
        "  --baseline DIR     prior sweep directory to diff against\n"
        "  --max-regress PCT  fail (exit 1) on any cycles/seconds\n"
        "                     regression above PCT%% (default 0)\n"
        "  --quiet            suppress the figure tables on stdout\n"
        "  --help             this text\n"
        "\n"
        "figures written (per non-empty table, as .csv + .gp + .svg):\n"
        "  fig6_performance        speed-up over IO per workload\n"
        "  fig7_breakdown          EVE execution breakdown vs EVE-1\n"
        "  fig8_vmu_stalls         VMU cache-induced stall %%\n"
        "  table3_systems          per-system record inventory\n"
        "  table4_characterization per-workload instruction mix\n");
}

} // namespace

int
main(int argc, char** argv)
{
    std::string sweep_dir;
    std::string out_dir;
    std::string baseline_dir;
    double max_regress = 0;
    bool quiet = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "eve_report: %s needs a value\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (arg == "--out") {
            out_dir = value();
        } else if (arg == "--baseline") {
            baseline_dir = value();
        } else if (arg == "--max-regress") {
            max_regress = std::atof(value().c_str());
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "eve_report: unknown option %s\n",
                         arg.c_str());
            usage();
            return 2;
        } else if (sweep_dir.empty()) {
            sweep_dir = arg;
        } else {
            std::fprintf(stderr, "eve_report: extra argument %s\n",
                         arg.c_str());
            return 2;
        }
    }
    if (sweep_dir.empty()) {
        usage();
        return 2;
    }
    if (out_dir.empty())
        out_dir = sweep_dir + "/report";

    report::LoadStats stats;
    const auto records = report::loadSweepDir(sweep_dir, &stats);
    if (records.empty()) {
        std::fprintf(stderr,
                     "eve_report: no sweep records under %s "
                     "(%zu files scanned, %zu lines skipped)\n",
                     sweep_dir.c_str(), stats.files,
                     stats.skipped_lines);
        return 2;
    }
    std::fprintf(stderr,
                 "eve_report: %zu records from %zu files under %s\n",
                 stats.records, stats.files, sweep_dir.c_str());
    if (stats.skipped_lines)
        std::fprintf(stderr,
                     "eve_report: %zu malformed lines skipped\n",
                     stats.skipped_lines);

    const auto figures = report::buildAll(records);
    if (!quiet)
        for (const auto& fig : figures)
            std::printf("%s", report::figureText(fig).c_str());
    const auto written =
        report::writeFigureArtifacts(figures, out_dir);
    std::fprintf(stderr, "eve_report: %zu artifacts under %s\n",
                 written.size(), out_dir.c_str());

    if (baseline_dir.empty())
        return 0;

    report::LoadStats base_stats;
    const auto baseline =
        report::loadSweepDir(baseline_dir, &base_stats);
    if (baseline.empty()) {
        std::fprintf(stderr,
                     "eve_report: no baseline records under %s\n",
                     baseline_dir.c_str());
        return 2;
    }
    const auto delta = report::compareRuns(records, baseline);
    std::printf("regression report vs %s: %zu cells compared, "
                "%zu deltas, worst regression %.3f%%\n",
                baseline_dir.c_str(), delta.cells,
                delta.deltas.size(), delta.worst_regress_pct);
    for (const auto& line : report::renderDeltas(delta))
        std::printf("  %s\n", line.c_str());
    if (!report::gatePassed(delta, max_regress)) {
        std::printf("GATE FAILED (max-regress %.3f%%: worst %.3f%%, "
                    "%zu status degradations, %zu baseline cells "
                    "missing)\n",
                    max_regress, delta.worst_regress_pct,
                    delta.status_degradations,
                    delta.missing_in_current.size());
        return 1;
    }
    std::printf("gate passed (max-regress %.3f%%)\n", max_regress);
    return 0;
}
