#include "jobs.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <random>
#include <set>
#include <stdexcept>

#include "common/bits.hh"
#include "exp/perf.hh"
#include "exp/sink.hh"

namespace simbench
{

using namespace eve;

namespace
{

SystemConfig
config(SystemKind kind, unsigned pf = 8)
{
    SystemConfig cfg;
    cfg.kind = kind;
    cfg.eve_pf = pf;
    return cfg;
}

std::vector<BenchJob>
grid(const std::vector<SystemConfig>& systems)
{
    std::vector<BenchJob> jobs;
    for (const SystemConfig& cfg : systems)
        for (const std::string& kernel : exp::paperWorkloads())
            jobs.push_back({cfg, kernel, "full", {}});
    return jobs;
}

/**
 * defaultSampling() scaled down 100x: the same 10% measured and 2.5%
 * warmup per period, over a 20k-record period that the full-scale
 * vector streams (10k-1.4M records) cross up to 70 times.
 */
SamplingConfig
gridSampling()
{
    SamplingConfig cfg = defaultSampling();
    cfg.interval /= 100;
    cfg.warmup /= 100;
    return cfg;
}

exp::JobResult
asJobResult(const BenchJob& job, const RunResult& result)
{
    exp::JobResult r;
    r.workload = job.kernel;
    r.config = job.config;
    r.status = exp::JobStatus::Ok;
    r.result = result;
    return r;
}

/** FNV-1a over @p lines, sorted, one per line. */
std::uint64_t
digestOf(std::vector<std::string> lines)
{
    std::sort(lines.begin(), lines.end());
    std::string all;
    for (const std::string& line : lines)
        all += line + "\n";
    return fnv1a64(all);
}

} // namespace

std::string
BenchJob::key() const
{
    std::string k = exp::parityKey(config, kernel, scale);
    if (sampling.enabled()) {
        k += '|';
        k += samplingCanonical(sampling);
    }
    return k;
}

const std::vector<std::string>&
workloadNames()
{
    static const std::vector<std::string> names = {
        "scalar-grid", "vector-grid", "sampled-grid"};
    return names;
}

std::vector<BenchJob>
workloadJobs(const std::string& name)
{
    // Scalar cores only: the per-record sink chain, the IO/O3 models
    // and L1D-hit-dominated Cache::access; VecMachine never runs.
    if (name == "scalar-grid")
        return grid({config(SystemKind::IO), config(SystemKind::O3)});
    // The functional VecMachine, the IV/DV/EVE engines and line-burst
    // L2/LLC/DRAM traffic.
    if (name == "vector-grid")
        return grid({config(SystemKind::O3IV), config(SystemKind::O3DV),
                     config(SystemKind::O3EVE, 1),
                     config(SystemKind::O3EVE, 8),
                     config(SystemKind::O3EVE, 32)});
    // The DV and EVE-8 columns of vector-grid under a scaled-down
    // sampling schedule, cold and without checkpoints: ~87% of records
    // skip the timing model, so VecMachine and the WarmupFilter
    // fast-forward dominate.
    if (name == "sampled-grid") {
        std::vector<BenchJob> jobs =
            grid({config(SystemKind::O3DV), config(SystemKind::O3EVE, 8)});
        for (BenchJob& job : jobs)
            job.sampling = gridSampling();
        return jobs;
    }
    return {};
}

std::vector<std::size_t>
jobOrder(std::size_t n, std::uint64_t seed)
{
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = i;
    std::mt19937_64 rng(seed);
    for (std::size_t i = n; i > 1; --i)
        std::swap(order[i - 1], order[rng() % i]);
    return order;
}

std::unique_ptr<Workload>
makeJobWorkload(const BenchJob& job)
{
    std::unique_ptr<Workload> w = makeWorkloadScaled(job.kernel, job.scale);
    if (!w)
        throw std::runtime_error("unknown workload " + job.kernel + " at " +
                                 job.scale + " scale");
    return w;
}

SimOptions
jobOptions(const BenchJob& job)
{
    SimOptions opts;
    opts.sampling = job.sampling;
    return opts;
}

RunResult
runJob(const BenchJob& job)
{
    std::unique_ptr<Workload> workload = makeJobWorkload(job);
    System system(job.config);
    return system.run(*workload, jobOptions(job));
}

std::string
jobFailure(const BenchJob& job, const RunResult& result)
{
    if (result.mismatches)
        return std::to_string(result.mismatches) + " functional mismatches";
    if (!std::isfinite(result.cycles) || result.cycles <= 0)
        return "cycles not finite and positive";
    if (job.sampling.enabled() && result.sample_windows == 0)
        return "sampled run measured no window";
    return "";
}

std::uint64_t
jobFingerprint(const BenchJob& job, const RunResult& result)
{
    return exp::parityFingerprint(asJobResult(job, result));
}

std::string
jobJson(const BenchJob& job, const RunResult& result, double wall_s)
{
    exp::JobResult r = asJobResult(job, result);
    r.label = job.key();
    r.wall_seconds = wall_s;
    return exp::resultToJson(r);
}

std::uint64_t
parityDigest(const std::vector<BenchJob>& jobs,
             const std::vector<std::uint64_t>& fingerprints)
{
    std::vector<std::string> lines;
    for (std::size_t i = 0; i < jobs.size(); ++i)
        lines.push_back(jobs[i].key() + " " + hex16(fingerprints[i]));
    return digestOf(std::move(lines));
}

GateResult
checkGolden(const std::vector<BenchJob>& jobs,
            const std::string& golden_path)
{
    GateResult gate;
    // ParityFile::load ends the process on a missing file; the gate
    // reports it as a divergence instead.
    if (!std::ifstream(golden_path)) {
        gate.diffs.push_back("cannot read golden file '" + golden_path +
                             "'");
        return gate;
    }
    const exp::ParityFile golden = exp::ParityFile::load(golden_path);

    std::set<std::string> seen;
    std::vector<exp::JobResult> results;
    std::vector<std::string> lines;
    for (const BenchJob& job : jobs) {
        const std::string key =
            exp::parityKey(job.config, job.kernel, "small");
        if (!seen.insert(key).second)
            continue;
        std::unique_ptr<Workload> workload =
            makeWorkloadScaled(job.kernel, "small");
        if (!workload) {
            gate.diffs.push_back("unknown workload " + job.kernel);
            continue;
        }
        System system(job.config);
        exp::JobResult r =
            asJobResult(job, system.run(*workload, SimOptions{}));
        if (r.result.mismatches)
            r.status = exp::JobStatus::Mismatch;
        lines.push_back(key + " " + hex16(exp::parityFingerprint(r)));
        results.push_back(std::move(r));
    }
    const std::vector<std::string> diffs = golden.check(results, "small");
    gate.diffs.insert(gate.diffs.end(), diffs.begin(), diffs.end());
    gate.points = results.size();
    gate.digest = digestOf(std::move(lines));
    return gate;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t mid = v.size() / 2;
    return v.size() % 2 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

std::string
hex16(std::uint64_t value)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

} // namespace simbench
