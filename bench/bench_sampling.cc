/**
 * @file
 * Interval-sampling benchmark: what sampled simulation costs and
 * what it gets wrong.
 *
 * For every workload the harness runs the same grid point twice —
 * exact, then sampled under the given schedule — and reports host
 * wall time for both, the sampling speedup, and the extrapolated-
 * cycle error against the exact run. With a checkpoint directory the
 * sampled run executes a second time to show the warm-restore cost
 * (the first sampled run saves the checkpoint the second restores).
 * The numbers land in BENCH_sampling.json (EVE_EXP_OUT_DIR overrides
 * the directory) so the sampling error bound is diffable across
 * commits.
 *
 * Flags:
 *   --smoke            small inputs (CI)
 *   --paper            paper-scale inputs (mmult 1024^3)
 *   --sample SPEC      schedule ("default" if omitted; see
 *                      sim/sampling.hh)
 *   --checkpoint-dir PATH  also measure a warm (checkpoint-restored)
 *                      sampled pass
 *   --workloads LIST   comma-separated names (default: the paper's)
 *   --json NAME        output name (default BENCH_sampling.json)
 *   --max-error PCT    fail when any workload's cycle error exceeds
 *                      PCT percent (default 3, the acceptance bound;
 *                      0 disables)
 */

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/log.hh"
#include "driver/table.hh"

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

struct Row
{
    std::string workload;
    double exact_wall_s = 0;
    double sampled_wall_s = 0;
    double warm_wall_s = -1; ///< <0 = not measured
    double exact_cycles = 0;
    double sampled_cycles = 0;
    double error_pct = 0;
    std::uint64_t windows = 0;
};

} // namespace

int
main(int argc, char** argv)
{
    setInformEnabled(false);
    bool small = bench::smallRuns();
    bool paper = bench::paperRuns();
    std::string sample_spec = "default";
    std::string checkpoint_dir;
    std::string json_name = "BENCH_sampling.json";
    std::vector<std::string> workloads = exp::paperWorkloads();
    double max_error_pct = 3;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char* {
            if (i + 1 >= argc)
                fatal("%s needs a value", arg.c_str());
            return argv[++i];
        };
        if (arg == "--smoke")
            small = true;
        else if (arg == "--paper")
            paper = true;
        else if (arg == "--sample")
            sample_spec = value();
        else if (arg == "--checkpoint-dir")
            checkpoint_dir = value();
        else if (arg == "--workloads")
            workloads = splitList(value());
        else if (arg == "--json")
            json_name = value();
        else if (arg == "--max-error")
            max_error_pct = std::strtod(value(), nullptr);
        else
            fatal("unknown flag '%s'", arg.c_str());
    }

    const std::string scale =
        paper ? "paper" : (small ? "small" : "full");
    SamplingConfig sampling;
    if (!parseSamplingFlag(sample_spec, sampling))
        fatal("--sample: bad spec '%s'", sample_spec.c_str());

    std::printf("Interval sampling: exact vs. sampled (%s inputs, "
                "schedule %s)\n\n",
                scale.c_str(), samplingCanonical(sampling).c_str());

    // One grid point per workload; the error bound is about the
    // extrapolation, not the system zoo, so the paper's default EVE
    // configuration stands in for all of them.
    exp::SweepSpec spec;
    spec.system(bench::makeConfig(SystemKind::O3EVE));
    spec.workloads(workloads, scale);

    std::vector<Row> rows;
    double exact_total = 0, sampled_total = 0;
    double max_err = 0;
    std::vector<exp::Job> jobs = spec.jobs();
    for (exp::Job& job : jobs) {
        Row row;
        row.workload = job.workload;

        exp::JobResult exact;
        exp::runJob(job, exact);
        if (exact.status != exp::JobStatus::Ok)
            fatal("exact job '%s' %s: %s", job.label.c_str(),
                  exp::jobStatusName(exact.status),
                  exact.error.c_str());
        row.exact_wall_s = exact.wall_seconds;
        row.exact_cycles = exact.result.cycles;

        job.sampling = sampling;
        exp::JobResult samp;
        exp::runJob(job, samp, checkpoint_dir);
        if (samp.status != exp::JobStatus::Ok)
            fatal("sampled job '%s' %s: %s", job.label.c_str(),
                  exp::jobStatusName(samp.status),
                  samp.error.c_str());
        row.sampled_wall_s = samp.wall_seconds;
        row.sampled_cycles = samp.result.cycles;
        row.windows = samp.result.sample_windows;
        row.error_pct = row.exact_cycles > 0
                            ? 100.0 *
                                  std::fabs(row.sampled_cycles -
                                            row.exact_cycles) /
                                  row.exact_cycles
                            : 0;

        if (!checkpoint_dir.empty()) {
            exp::JobResult warm;
            exp::runJob(job, warm, checkpoint_dir);
            row.warm_wall_s = warm.wall_seconds;
        }

        exact_total += row.exact_wall_s;
        sampled_total += row.sampled_wall_s;
        max_err = std::max(max_err, row.error_pct);
        rows.push_back(row);
    }

    TextTable table({"workload", "exact_s", "sampled_s", "warm_s",
                     "speedup", "windows", "err%"});
    for (const auto& r : rows)
        table.addRow(
            {r.workload, TextTable::num(r.exact_wall_s, 3),
             TextTable::num(r.sampled_wall_s, 3),
             r.warm_wall_s < 0 ? "-"
                               : TextTable::num(r.warm_wall_s, 3),
             TextTable::num(r.sampled_wall_s > 0
                                ? r.exact_wall_s / r.sampled_wall_s
                                : 0, 2),
             std::to_string(r.windows),
             TextTable::num(r.error_pct, 3)});
    std::printf("%s\n", table.render().c_str());
    std::printf("total: exact %.3fs, sampled %.3fs (%.2fx), max "
                "cycle error %.3f%%\n",
                exact_total, sampled_total,
                sampled_total > 0 ? exact_total / sampled_total : 0,
                max_err);

    std::string json = "{";
    json += "\"bench\":\"sampling\",\"grid\":\"" + scale + "\"";
    json += ",\"sampling\":\"" + samplingCanonical(sampling) + "\"";
    json += ",\"total_exact_wall_s\":" + std::to_string(exact_total);
    json += ",\"total_sampled_wall_s\":" +
            std::to_string(sampled_total);
    json += ",\"speedup\":" +
            std::to_string(sampled_total > 0
                               ? exact_total / sampled_total
                               : 0);
    json += ",\"max_error_pct\":" + std::to_string(max_err);
    json += ",\"workloads\":[";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row& r = rows[i];
        if (i)
            json += ",";
        json += "{\"workload\":\"" + r.workload + "\"";
        json += ",\"exact_wall_s\":" + std::to_string(r.exact_wall_s);
        json += ",\"sampled_wall_s\":" +
                std::to_string(r.sampled_wall_s);
        if (r.warm_wall_s >= 0)
            json += ",\"warm_wall_s\":" +
                    std::to_string(r.warm_wall_s);
        json += ",\"exact_cycles\":" + std::to_string(r.exact_cycles);
        json += ",\"sampled_cycles\":" +
                std::to_string(r.sampled_cycles);
        json += ",\"error_pct\":" + std::to_string(r.error_pct);
        json += ",\"sample_windows\":" + std::to_string(r.windows);
        json += "}";
    }
    json += "]}";

    const std::string json_path = exp::artifactPath(json_name);
    std::ofstream out(json_path);
    if (!out)
        fatal("cannot open '%s' for writing", json_path.c_str());
    out << json << '\n';
    if (!out)
        fatal("write to '%s' failed", json_path.c_str());
    std::fprintf(stderr, "results: %s\n", json_path.c_str());

    if (max_error_pct > 0 && max_err > max_error_pct)
        fatal("sampling error %.3f%% exceeds the %.2f%% bound",
              max_err, max_error_pct);
    return 0;
}
