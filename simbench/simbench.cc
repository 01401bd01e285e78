/**
 * @file
 * simbench: how long the simulator takes on the host to run a fixed
 * set of jobs, end to end and layer by layer.
 *
 * One process runs one workload (a fixed job set, see jobs.hh) as a
 * closed loop: a single thread runs one job at a time, inline. The
 * seed only permutes the job order, so the parity digest is the same
 * at any seed. Before any timing, every (system, kernel) pair is run
 * at small inputs and checked against the golden parity file.
 *
 *   --trace 0  untraced: set-up passes, then whole passes over the job
 *              set for about --seconds; prints the end-to-end metrics.
 *   --trace 1  one untraced pass, then one traced pass that peels each
 *              job (ledger.hh); prints the per-layer metrics.
 *   --smoke    only the small-input gate; exit 1 on any divergence.
 *
 * The last line of standard output is the JSON result; a record with
 * the host fingerprint, per-job results and (traced) spans is written
 * to --out-dir.
 *
 * Usage:
 *   simbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *            [--smoke] [--golden PATH] [--out-dir DIR]
 *            [--commit ID] [--source ID]
 */

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/log.hh"
#include "common/stats.hh"
#include "exp/cache.hh"
#include "jobs.hh"
#include "ledger.hh"

using namespace simbench;

namespace
{

/** Set-up passes per untraced run; set-up time is their median. */
constexpr int kSetupPasses = 11;

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10;
    bool trace = false;
    bool smoke = false;
    std::string golden = "tests/golden/timing_parity_small.txt";
    std::string out_dir = ".bench_out";
    std::string commit = "unknown";
    std::string source = "unknown";
};

[[noreturn]] void
usage(const char* why)
{
    std::fprintf(stderr,
                 "simbench: %s\n"
                 "usage: simbench --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--smoke]\n"
                 "                [--golden PATH] [--out-dir DIR] "
                 "[--commit ID] [--source ID]\n"
                 "workloads:",
                 why);
    for (const std::string& name : workloadNames())
        std::fprintf(stderr, " %s", name.c_str());
    std::fprintf(stderr, "\n");
    std::exit(2);
}

Args
parseArgs(int argc, char** argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--smoke") {
            a.smoke = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        char* end = nullptr;
        if (flag == "--workload") {
            a.workload = value;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(value.c_str(), &end);
            if (!(a.seconds > 0))
                usage("--seconds must be positive");
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
            a.trace = value == "1";
        } else if (flag == "--golden") {
            a.golden = value;
        } else if (flag == "--out-dir") {
            a.out_dir = value;
        } else if (flag == "--commit") {
            a.commit = value;
        } else if (flag == "--source") {
            a.source = value;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
        if (end && *end != '\0')
            usage(("malformed number for " + flag).c_str());
    }
    if (a.workload.empty())
        usage("--workload is required");
    return a;
}

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

std::string
quoted(const std::string& s)
{
    std::string out = "\"";
    out += eve::jsonEscape(s);
    out += '"';
    return out;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) != 0)
            continue;
        const std::size_t colon = line.find(':');
        if (colon != std::string::npos)
            return line.substr(line.find_first_not_of(" \t", colon + 1));
    }
    return "unknown";
}

unsigned
usableCpus()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return unsigned(CPU_COUNT(&set));
    return std::thread::hardware_concurrency();
}

/** Host fingerprint stamped on every record. */
std::string
hostJson(const Args& a)
{
    return "{\"cpu\":" + quoted(cpuModel()) +
           ",\"nproc\":" + std::to_string(usableCpus()) +
           ",\"compiler\":" + quoted(SIMBENCH_COMPILER) +
           ",\"build_type\":" + quoted(SIMBENCH_BUILD_TYPE) +
           ",\"commit\":" + quoted(a.commit) +
           ",\"source\":" + quoted(a.source) +
           ",\"simulator_salt\":" + quoted(eve::exp::kSimulatorSalt) + "}";
}

/**
 * Hand freed heap pages back to the kernel and restart its peak-RSS
 * count, so the next job's peak does not depend on what the jobs
 * before it left in the heap (that is, on the job order).
 */
void
resetPeakRss()
{
    malloc_trim(0);
    std::ofstream("/proc/self/clear_refs") << "5";
}

/** Peak resident memory since the last reset, in MiB. */
double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    struct rusage usage = {};
    getrusage(RUSAGE_SELF, &usage);
    return double(usage.ru_maxrss) / 1024.0;  // both are in KiB
}

/** Smallest of @p times (0 when empty). */
double
fastest(const std::vector<double>& times)
{
    return times.empty() ? 0 : *std::min_element(times.begin(), times.end());
}

/** What repeated passes over one job set measured. */
struct Passes
{
    explicit Passes(std::size_t n)
        : times(n), results(n), fingerprints(n), done(n, false)
    {
    }

    std::vector<std::vector<double>> times;  ///< host s, per job per pass
    std::vector<eve::RunResult> results;     ///< first result per job
    std::vector<std::uint64_t> fingerprints;
    std::vector<bool> done;
    double peak_rss_mb = 0;  ///< largest job peak
    std::size_t attempted = 0;
    std::vector<std::string> errors;

    /** Every job has a result, so the digest covers the whole set. */
    bool complete() const
    {
        return std::find(done.begin(), done.end(), false) == done.end();
    }

    /**
     * Record one job execution: a failure, or a result that must match
     * the job's first result byte for byte (the simulation is
     * deterministic, whatever the order or the tracing).
     */
    void
    record(const std::vector<BenchJob>& jobs, std::size_t i,
           const eve::RunResult& r, double wall_s)
    {
        std::string why = jobFailure(jobs[i], r);
        const std::uint64_t fp = jobFingerprint(jobs[i], r);
        if (why.empty() && done[i] && fp != fingerprints[i])
            why = "result differs from the job's first run";
        if (!why.empty()) {
            fail(jobs[i], why);
            return;
        }
        if (wall_s > 0)  // traced runs record results, not times
            times[i].push_back(wall_s);
        if (!done[i]) {
            done[i] = true;
            results[i] = r;
            fingerprints[i] = fp;
        }
    }

    void
    fail(const BenchJob& job, const std::string& why)
    {
        errors.push_back(job.key() + ": " + why);
        std::fprintf(stderr, "simbench: job %s failed: %s\n",
                     job.key().c_str(), why.c_str());
    }
};

/** One untraced pass: every job in @p order, each timed whole. */
double
runPass(const std::vector<BenchJob>& jobs,
        const std::vector<std::size_t>& order, Passes& passes)
{
    const auto pass_start = std::chrono::steady_clock::now();
    for (const std::size_t i : order) {
        ++passes.attempted;
        resetPeakRss();
        try {
            const auto t0 = std::chrono::steady_clock::now();
            const eve::RunResult r = runJob(jobs[i]);
            const double wall = secondsSince(t0);
            passes.peak_rss_mb = std::max(passes.peak_rss_mb, peakRssMb());
            passes.record(jobs, i, r, wall);
        } catch (const std::exception& e) {
            passes.fail(jobs[i], e.what());
        }
    }
    return secondsSince(pass_start);
}

/**
 * Host seconds one pass spends building every job's workload,
 * initializing it and constructing its System.
 */
double
setupPass(const std::vector<BenchJob>& jobs,
          const std::vector<std::size_t>& order)
{
    double total = 0;
    for (const std::size_t i : order) {
        const auto t0 = std::chrono::steady_clock::now();
        std::unique_ptr<eve::Workload> workload = makeJobWorkload(jobs[i]);
        workload->init();
        eve::System system(jobs[i].config);
        total += secondsSince(t0);
    }
    return total;
}

std::string
metricsJson(const std::vector<Metric>& metrics)
{
    std::string out = "{";
    for (const Metric& m : metrics) {
        if (out.size() > 1)
            out += ",";
        out += quoted(m.name) + ":{\"value\":" + eve::jsonNumber(m.value) +
               ",\"unit\":" + quoted(m.unit) + "}";
    }
    return out + "}";
}

/** @p parts joined by commas. */
std::string
joined(const std::vector<std::string>& parts)
{
    std::string out;
    for (std::size_t i = 0; i < parts.size(); ++i) {
        if (i)
            out += ',';
        out += parts[i];
    }
    return out;
}

std::string
stringsJson(const std::vector<std::string>& items)
{
    std::vector<std::string> q;
    for (const std::string& item : items)
        q.push_back(quoted(item));
    return "[" + joined(q) + "]";
}

/** The untraced run: set-up passes, then timed whole passes. */
std::vector<Metric>
untracedRun(const Args& a, const std::vector<BenchJob>& jobs,
            const std::vector<std::size_t>& order, Passes& passes,
            std::size_t& pass_count)
{
    std::vector<double> setups;
    for (int k = 0; k < kSetupPasses; ++k)
        setups.push_back(setupPass(jobs, order));

    // Whole passes while the next one, at the mean pass time so far,
    // still ends within the measuring time; at least one.
    const auto start = std::chrono::steady_clock::now();
    double elapsed = 0;
    do {
        runPass(jobs, order, passes);
        ++pass_count;
        elapsed = secondsSince(start);
    } while (elapsed + elapsed / double(pass_count) <= a.seconds);

    // A job's time is its fastest pass: other tenants of the host only
    // ever add time, and the memory-bound jobs swing by up to 30%
    // between passes of one run, so the fastest pass repeats across
    // runs far better than the median.
    double wall = 0, max_job = 0, cycles = 0;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const double t = fastest(passes.times[i]);
        wall += t;
        max_job = std::max(max_job, t);
        cycles += passes.results[i].cycles;
    }
    return {
        {"wall_s", wall, "s"},
        {"ns_per_sim_cycle", cycles > 0 ? wall * 1e9 / cycles : 0, "ns"},
        {"max_job_s", max_job, "s"},
        {"setup_s", median(setups), "s"},
        {"peak_rss_mb", passes.peak_rss_mb, "MB"},
    };
}

/** The traced run: one untraced pass, then one peeled pass. */
std::vector<Metric>
tracedRun(const std::vector<BenchJob>& jobs,
          const std::vector<std::size_t>& order, Passes& passes,
          Trace& trace)
{
    const double untraced = runPass(jobs, order, passes);

    std::vector<JobLedger> ledgers(jobs.size());
    const int pass_span = trace.begin("traced pass", -1);
    for (const std::size_t i : order) {
        ++passes.attempted;
        try {
            ledgers[i] = peelJob(jobs[i], trace, pass_span);
            passes.record(jobs, i, ledgers[i].result, 0);
        } catch (const std::exception& e) {
            passes.fail(jobs[i], e.what());
        }
    }
    const double traced = trace.end(pass_span);

    std::vector<Metric> metrics = layerMetrics(jobs, ledgers);
    metrics.push_back({"trace.overhead_s", traced - untraced, "s"});
    return metrics;
}

} // namespace

int
main(int argc, char** argv)
{
    eve::setInformEnabled(false);
    const Args a = parseArgs(argc, argv);
    const std::vector<BenchJob> jobs = workloadJobs(a.workload);
    if (jobs.empty())
        usage(("unknown workload " + a.workload).c_str());
    const std::vector<std::size_t> order = jobOrder(jobs.size(), a.seed);
    const std::string host = hostJson(a);

    std::printf("simbench %s: %zu jobs, seed %llu, %s\n",
                a.workload.c_str(), jobs.size(),
                static_cast<unsigned long long>(a.seed),
                a.smoke ? "smoke" : a.trace ? "traced" : "untraced");
    std::printf("host %s\n", host.c_str());

    const GateResult gate = checkGolden(jobs, a.golden);
    for (const std::string& diff : gate.diffs)
        std::printf("gate: %s\n", diff.c_str());
    std::printf("gate: %zu small-input points vs %s: %s (digest %s)\n",
                gate.points, a.golden.c_str(),
                gate.diffs.empty() ? "identical" : "DIVERGED",
                hex16(gate.digest).c_str());
    std::fflush(stdout);
    if (a.smoke)
        return gate.diffs.empty() ? 0 : 1;

    Passes passes(jobs.size());
    std::size_t pass_count = 0;
    Trace trace;
    const std::vector<Metric> metrics =
        a.trace ? tracedRun(jobs, order, passes, trace)
                : untracedRun(a, jobs, order, passes, pass_count);

    const bool complete = passes.complete();
    const std::string digest =
        complete ? hex16(parityDigest(jobs, passes.fingerprints)) : "none";
    const bool correct = gate.diffs.empty() && passes.errors.empty() &&
                         complete;
    std::printf("parity digest %s: %s\n", a.workload.c_str(),
                digest.c_str());

    std::vector<std::string> job_order, job_times, job_records;
    for (const std::size_t i : order) {
        job_order.push_back(jobs[i].key());
        std::vector<std::string> times;
        for (const double t : passes.times[i])
            times.push_back(eve::jsonNumber(t));
        job_times.push_back(quoted(jobs[i].key()) + ":[" + joined(times) +
                            "]");
    }
    for (std::size_t i = 0; i < jobs.size(); ++i)
        if (passes.done[i])
            job_records.push_back(jobJson(jobs[i], passes.results[i],
                                          fastest(passes.times[i])));

    std::string record = "{\"workload\":" + quoted(a.workload);
    record += ",\"seed\":" + std::to_string(a.seed);
    record += ",\"trace\":" + std::to_string(int(a.trace));
    record += ",\"seconds\":" + eve::jsonNumber(a.seconds);
    record += ",\"host\":" + host;
    record += ",\"gate\":{\"points\":" + std::to_string(gate.points);
    record += ",\"digest\":" + quoted(hex16(gate.digest));
    record += ",\"diffs\":" + stringsJson(gate.diffs) + "}";
    record += ",\"parity_digest\":" + quoted(digest);
    record += ",\"passes\":" + std::to_string(pass_count);
    record += ",\"job_order\":" + stringsJson(job_order);
    record += ",\"job_times_s\":{" + joined(job_times) + "}";
    record += ",\"errors\":" + stringsJson(passes.errors);
    record += ",\"metrics\":" + metricsJson(metrics);
    record += ",\"jobs\":[" + joined(job_records) + "]";
    record += ",\"spans\":" + trace.json() + "}\n";

    const std::string path = a.out_dir + "/" + a.workload + "-seed" +
                             std::to_string(a.seed) + "-trace" +
                             (a.trace ? "1" : "0") + ".json";
    std::error_code ec;
    std::filesystem::create_directories(a.out_dir, ec);
    std::ofstream out(path);
    out << record;
    if (!out)
        std::fprintf(stderr, "simbench: cannot write %s\n", path.c_str());
    else
        std::printf("record %s\n", path.c_str());

    std::printf("{\"correct\":%s,\"attempted\":%zu,\"failed\":%zu,"
                "\"metrics\":%s}\n",
                correct ? "true" : "false", passes.attempted,
                passes.errors.size(), metricsJson(metrics).c_str());
    return 0;
}
