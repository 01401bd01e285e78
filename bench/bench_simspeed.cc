/**
 * @file
 * Simulator-speed benchmark: how fast the timing core itself runs.
 *
 * Executes the Table III sweep (every simulated system crossed with
 * the paper's workloads) serially, measuring host jobs/sec and
 * host-ns per simulated cycle, overall and per system. The numbers
 * land in BENCH_simspeed.json, or BENCH_simspeed_smoke.json for a
 * small-input run, so a smoke run never replaces a full-grid capture
 * (EVE_EXP_OUT_DIR overrides the directory); perf regressions are
 * then diffable across commits.
 *
 * The same pass can drive the timing-parity guard: --golden checks
 * the run's stat fingerprints against a checked-in golden file and
 * fails if any simulated number moved (see src/exp/perf.hh), and
 * --update-golden regenerates that file after an *intentional*
 * timing change (which must also bump exp::kSimulatorSalt).
 *
 * Flags:
 *   --smoke               small inputs, one iteration (CI)
 *   --iters N             measurement iterations (default 1; 3 with
 *                         full inputs smooths host-timer noise)
 *   --json PATH           output path (default BENCH_simspeed.json,
 *                         BENCH_simspeed_smoke.json with small inputs)
 *   --golden PATH         run the timing-parity check against PATH
 *   --update-golden PATH  write fresh golden fingerprints to PATH
 *   --baseline-jps X      record speedup vs. a baseline jobs/sec
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "bench_util.hh"
#include "common/log.hh"
#include "driver/table.hh"
#include "exp/perf.hh"

using namespace eve;

int
main(int argc, char** argv)
{
    setInformEnabled(false);
    bool small = bench::smallRuns();
    unsigned iters = 1;
    std::string json_name;
    std::string golden;
    std::string update_golden;
    double baseline_jps = 0;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char* {
            if (i + 1 >= argc)
                fatal("%s needs a value", arg.c_str());
            return argv[++i];
        };
        if (arg == "--smoke")
            small = true;
        else if (arg == "--iters")
            iters = unsigned(std::strtoul(value(), nullptr, 10));
        else if (arg == "--json")
            json_name = value();
        else if (arg == "--golden")
            golden = value();
        else if (arg == "--update-golden")
            update_golden = value();
        else if (arg == "--baseline-jps")
            baseline_jps = std::strtod(value(), nullptr);
        else
            fatal("unknown flag '%s'", arg.c_str());
    }

    if (json_name.empty())
        json_name =
            small ? "BENCH_simspeed_smoke.json" : "BENCH_simspeed.json";
    const std::string scale = small ? "small" : "full";
    const exp::SweepSpec spec = exp::tableIIISweep(small);
    const auto jobs = spec.jobs();

    std::printf("Simulator speed: Table III sweep (%zu jobs, %s "
                "inputs, %u iteration%s)\n\n",
                jobs.size(), scale.c_str(), iters,
                iters == 1 ? "" : "s");

    const exp::SpeedReport report =
        exp::measureSimSpeed(jobs, iters);

    TextTable table({"system", "jobs", "wall_s", "jobs/s",
                     "Mcycles", "ns/cycle"});
    for (const auto& ss : report.per_system)
        table.addRow({ss.system, std::to_string(ss.jobs),
                      TextTable::num(ss.wall_seconds, 3),
                      TextTable::num(ss.jobs_per_sec, 2),
                      TextTable::num(ss.sim_cycles / 1e6, 2),
                      TextTable::num(ss.ns_per_sim_cycle, 1)});
    table.addRow({"total", std::to_string(report.jobs),
                  TextTable::num(report.wall_seconds, 3),
                  TextTable::num(report.jobs_per_sec, 2),
                  TextTable::num(report.sim_cycles / 1e6, 2),
                  TextTable::num(report.ns_per_sim_cycle, 1)});
    std::printf("%s\n", table.render().c_str());
    if (baseline_jps > 0)
        std::printf("speedup vs. baseline (%.2f jobs/s): %.2fx\n",
                    baseline_jps, report.jobs_per_sec / baseline_jps);

    const std::string json_path = exp::artifactPath(json_name);
    std::ofstream out(json_path);
    if (!out)
        fatal("cannot open '%s' for writing", json_path.c_str());
    out << exp::speedReportJson(report,
                                "table3x" + scale, baseline_jps)
        << '\n';
    if (!out)
        fatal("write to '%s' failed", json_path.c_str());
    std::fprintf(stderr, "results: %s\n", json_path.c_str());

    if (!update_golden.empty()) {
        exp::ParityFile::fromResults(report.results, scale)
            .save(update_golden);
        std::fprintf(stderr, "parity goldens: %s\n",
                     update_golden.c_str());
    }
    if (!golden.empty()) {
        const auto diffs = exp::ParityFile::load(golden).check(
            report.results, scale);
        if (!diffs.empty()) {
            for (const auto& d : diffs)
                std::fprintf(stderr, "parity: %s\n", d.c_str());
            fatal("timing parity violated: %zu grid points diverge "
                  "from %s (an intentional timing change must bump "
                  "exp::kSimulatorSalt and refresh the goldens with "
                  "--update-golden)",
                  diffs.size(), golden.c_str());
        }
        std::printf("timing parity: %zu grid points byte-identical "
                    "to %s\n",
                    report.results.size(), golden.c_str());
    }
    return 0;
}
