/**
 * @file
 * eve_perf — simulator-performance harness: sim-speed measurement
 * and the timing-parity guard, over an arbitrary slice of the
 * Table III grid.
 *
 *   eve_perf --small --check tests/golden/timing_parity_small.txt
 *   eve_perf --iters 3 --json speed.json --baseline-jps 12.5
 *   eve_perf --systems O3EVE --pf 8 --workloads vvadd --small
 *
 * Flags:
 *   --systems A,B     system kinds (default: all Table III kinds)
 *   --pf N,M          EVE parallelization factors: O3EVE becomes one
 *                     O3+EVE-N system per N (default 1..32)
 *   --workloads a,b   workload names (default: the paper's seven)
 *   --small           small smoke-test inputs
 *   --paper           paper-scale inputs (mmult 1024x1024x1024);
 *                     meant to be combined with --sample
 *   --sample SPEC     interval sampling (sim/sampling.hh): "default",
 *                     "INTERVAL[,WARMUP[,STRIDE]]", or the canonical
 *                     "interval=N;warmup=N;stride=N". Incompatible
 *                     with --parity/--check/--update: goldens record
 *                     exact timing.
 *   --checkpoint-dir PATH  save/restore functional fast-forward
 *                     checkpoints for sampled jobs under PATH
 *   --iters N         measurement iterations (default 1)
 *   --threads N       job-level worker threads (default 1). With
 *                     N > 1 the grid runs on a thread pool — right
 *                     for fast parity runs — and the speed table is
 *                     suppressed: per-job wall times overlap, so
 *                     jobs/s would be meaningless.
 *   --json PATH       write the speed report as JSON
 *   --baseline-jps X  record speedup vs. a baseline jobs/sec
 *   --parity PATH     timing-parity check against golden PATH
 *                     (exit 1 and list divergences on failure);
 *                     --check PATH is the historical spelling
 *   --update PATH     write fresh golden fingerprints to PATH
 *   --quiet           suppress the speed table
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/log.hh"
#include "driver/table.hh"
#include "exp/perf.hh"
#include "exp/runner.hh"

using namespace eve;

namespace
{

std::vector<std::string>
splitList(const std::string& arg)
{
    std::vector<std::string> out;
    std::string cur;
    for (const char c : arg) {
        if (c == ',') {
            if (!cur.empty())
                out.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    if (!cur.empty())
        out.push_back(cur);
    return out;
}

} // namespace

int
main(int argc, char** argv)
{
    setInformEnabled(false);

    std::vector<std::string> system_kinds = {"IO", "O3", "O3IV", "O3DV",
                                             "O3EVE"};
    std::vector<unsigned> pfs = {1, 2, 4, 8, 16, 32};
    std::vector<std::string> workloads = exp::paperWorkloads();
    bool small = false;
    bool paper = false;
    bool quiet = false;
    unsigned iters = 1;
    unsigned threads = 1;
    std::string json_path, check_path, update_path;
    std::string sample_spec, checkpoint_dir;
    double baseline_jps = 0;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("%s needs a value", arg.c_str());
            return argv[++i];
        };
        if (arg == "--systems")
            system_kinds = splitList(value());
        else if (arg == "--pf") {
            pfs.clear();
            for (const auto& tok : splitList(value()))
                pfs.push_back(
                    unsigned(std::strtoul(tok.c_str(), nullptr, 10)));
        } else if (arg == "--workloads")
            workloads = splitList(value());
        else if (arg == "--small")
            small = true;
        else if (arg == "--paper")
            paper = true;
        else if (arg == "--sample")
            sample_spec = value();
        else if (arg == "--checkpoint-dir")
            checkpoint_dir = value();
        else if (arg == "--iters")
            iters = unsigned(std::strtoul(value().c_str(), nullptr, 10));
        else if (arg == "--threads")
            threads =
                unsigned(std::strtoul(value().c_str(), nullptr, 10));
        else if (arg == "--json")
            json_path = value();
        else if (arg == "--baseline-jps")
            baseline_jps = std::strtod(value().c_str(), nullptr);
        else if (arg == "--check" || arg == "--parity")
            check_path = value();
        else if (arg == "--update")
            update_path = value();
        else if (arg == "--quiet")
            quiet = true;
        else if (arg == "--help" || arg == "-h") {
            std::printf(
                "usage: eve_perf [--systems LIST] [--pf LIST]\n"
                "  [--workloads LIST] [--small | --paper] [--iters N]\n"
                "  [--sample SPEC] [--checkpoint-dir PATH]\n"
                "  [--threads N] [--json PATH] [--baseline-jps X]\n"
                "  [--parity GOLDEN | --check GOLDEN |\n"
                "   --update GOLDEN] [--quiet]\n"
                "\n"
                "--threads N > 1 runs the grid on a job-level thread\n"
                "pool (fast parity runs); the speed table and --json\n"
                "are unavailable because per-job wall times overlap.\n");
            return 0;
        } else
            fatal("unknown flag '%s' (try --help)", arg.c_str());
    }

    std::vector<SystemConfig> systems;
    std::string unknown;
    if (!exp::namedSystems(system_kinds, pfs, systems, unknown))
        fatal("unknown system kind '%s' (want IO, O3, O3IV, O3DV, or "
              "O3EVE)", unknown.c_str());

    if (small && paper)
        fatal("--small and --paper are mutually exclusive");
    const std::string scale =
        paper ? "paper" : (small ? "small" : "full");

    SamplingConfig sampling;
    if (!sample_spec.empty() &&
        !parseSamplingFlag(sample_spec, sampling))
        fatal("--sample: bad spec '%s' (want \"default\", "
              "\"INTERVAL[,WARMUP[,STRIDE]]\", or "
              "\"interval=N;warmup=N;stride=N\")",
              sample_spec.c_str());
    if (sampling.enabled() &&
        (!check_path.empty() || !update_path.empty()))
        fatal("--sample cannot be combined with --parity/--check/"
              "--update: parity goldens record exact timing "
              "fingerprints");

    exp::SweepSpec spec;
    spec.systems(systems);
    spec.workloads(workloads, scale);
    spec.sampling(sampling);
    const auto jobs = spec.jobs();

    exp::SpeedReport report;
    if (threads > 1) {
        // Pooled execution overlaps per-job wall times, so speed
        // numbers would be meaningless — this mode exists for fast
        // parity runs over large grids.
        if (!json_path.empty())
            fatal("--json needs --threads 1 (speed numbers are only "
                  "meaningful when jobs run serially)");
        exp::RunnerOptions ropts;
        ropts.threads = threads;
        ropts.checkpoint_dir = checkpoint_dir;
        report.results = exp::Runner(ropts).run(jobs);
        for (const auto& r : report.results)
            if (r.status != exp::JobStatus::Ok)
                fatal("job '%s' %s%s%s", r.label.c_str(),
                      exp::jobStatusName(r.status),
                      r.error.empty() ? "" : ": ", r.error.c_str());
    } else {
        report = exp::measureSimSpeed(jobs, iters, checkpoint_dir);
    }

    if (!quiet && threads > 1) {
        std::fprintf(stderr,
                     "%zu jobs on %u threads (speed table suppressed; "
                     "use --threads 1 to measure)\n",
                     report.results.size(), threads);
    }
    if (!quiet && threads <= 1) {
        TextTable table({"system", "jobs", "wall_s", "jobs/s",
                         "ns/cycle"});
        for (const auto& ss : report.per_system)
            table.addRow({ss.system, std::to_string(ss.jobs),
                          TextTable::num(ss.wall_seconds, 3),
                          TextTable::num(ss.jobs_per_sec, 2),
                          TextTable::num(ss.ns_per_sim_cycle, 1)});
        table.addRow({"total", std::to_string(report.jobs),
                      TextTable::num(report.wall_seconds, 3),
                      TextTable::num(report.jobs_per_sec, 2),
                      TextTable::num(report.ns_per_sim_cycle, 1)});
        std::printf("%s\n", table.render().c_str());
        if (baseline_jps > 0)
            std::printf("speedup vs. baseline (%.2f jobs/s): %.2fx\n",
                        baseline_jps,
                        report.jobs_per_sec / baseline_jps);
    }

    if (!json_path.empty()) {
        std::ofstream out(json_path);
        if (!out)
            fatal("cannot open '%s' for writing", json_path.c_str());
        out << exp::speedReportJson(report, "custom", baseline_jps)
            << '\n';
        if (!out)
            fatal("write to '%s' failed", json_path.c_str());
    }

    if (!update_path.empty()) {
        exp::ParityFile::fromResults(report.results, scale)
            .save(update_path);
        std::fprintf(stderr, "parity goldens: %s\n",
                     update_path.c_str());
    }
    if (!check_path.empty()) {
        const auto diffs = exp::ParityFile::load(check_path).check(
            report.results, scale);
        if (!diffs.empty()) {
            for (const auto& d : diffs)
                std::fprintf(stderr, "parity: %s\n", d.c_str());
            fatal("timing parity violated: %zu grid points diverge "
                  "from %s",
                  diffs.size(), check_path.c_str());
        }
        std::printf("timing parity: %zu grid points byte-identical "
                    "to %s\n",
                    report.results.size(), check_path.c_str());
    }
    return 0;
}
