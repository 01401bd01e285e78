#include "exp/perf.hh"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/bits.hh"
#include "common/log.hh"
#include "common/stats.hh"
#include "exp/cache.hh"
#include "exp/sink.hh"

namespace eve::exp
{

namespace
{

SystemConfig
kindConfig(SystemKind kind, unsigned pf = 8)
{
    SystemConfig cfg;
    cfg.kind = kind;
    cfg.eve_pf = pf;
    return cfg;
}

std::string
hex16(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

} // namespace

std::vector<SystemConfig>
tableIIISystems()
{
    std::vector<SystemConfig> systems;
    systems.push_back(kindConfig(SystemKind::IO));
    systems.push_back(kindConfig(SystemKind::O3));
    systems.push_back(kindConfig(SystemKind::O3IV));
    systems.push_back(kindConfig(SystemKind::O3DV));
    for (unsigned pf : {1u, 2u, 4u, 8u, 16u, 32u})
        systems.push_back(kindConfig(SystemKind::O3EVE, pf));
    return systems;
}

std::vector<SystemConfig>
eveDesignSystems()
{
    std::vector<SystemConfig> systems;
    for (unsigned pf : {1u, 2u, 4u, 8u, 16u, 32u})
        systems.push_back(kindConfig(SystemKind::O3EVE, pf));
    return systems;
}

bool
namedSystems(const std::vector<std::string>& kinds,
             const std::vector<unsigned>& pfs,
             std::vector<SystemConfig>& out, std::string& unknown)
{
    std::vector<SystemConfig> systems;
    for (const auto& name : kinds) {
        SystemConfig cfg;
        if (!parseSystemKind(name, cfg.kind)) {
            unknown = name;
            return false;
        }
        if (cfg.kind != SystemKind::O3EVE || pfs.empty()) {
            systems.push_back(cfg);
            continue;
        }
        for (unsigned pf : pfs) {
            cfg.eve_pf = pf;
            systems.push_back(cfg);
        }
    }
    out = std::move(systems);
    return true;
}

const std::vector<std::string>&
paperWorkloads()
{
    static const std::vector<std::string> names = {
        "vvadd", "mmult", "k-means", "pathfinder",
        "jacobi-2d", "backprop", "sw"};
    return names;
}

const std::vector<std::string>&
rivecWorkloads()
{
    static const std::vector<std::string> names = {
        "axpy", "blackscholes", "streamcluster", "particlefilter"};
    return names;
}

SweepSpec
tableIIISweep(bool small, bool include_rivec)
{
    SweepSpec spec;
    spec.systems(tableIIISystems());
    std::vector<std::string> names = paperWorkloads();
    if (include_rivec)
        names.insert(names.end(), rivecWorkloads().begin(),
                     rivecWorkloads().end());
    spec.workloads(names, small);
    return spec;
}

std::string
parityPayload(const JobResult& r)
{
    // Position-independent: the parity key already identifies the
    // grid point, so the payload must not depend on where in a sweep
    // the job sat (index, label) or which axes a particular spec
    // spelled out — otherwise a slice of the grid, or another tool's
    // sweep over the same points, would spuriously diverge.
    JobResult norm = r;
    norm.index = 0;
    norm.label.clear();
    norm.axes.clear();
    return resultToJson(norm, /*include_host_time=*/false);
}

std::uint64_t
parityFingerprint(const JobResult& r)
{
    return fnv1a64(parityPayload(r));
}

std::string
parityKey(const SystemConfig& config, const std::string& workload,
          const std::string& scale)
{
    return systemName(config) + "|" + workload + "|" + scale +
           "|cfg=" + hex16(configFingerprint(config));
}

std::string
parityKey(const JobResult& r, const std::string& scale)
{
    return parityKey(r.config, r.workload, scale);
}

ParityFile
ParityFile::fromResults(const std::vector<JobResult>& results,
                        const std::string& scale)
{
    ParityFile file;
    for (const auto& r : results) {
        if (r.status != JobStatus::Ok)
            continue;
        file.entries[parityKey(r, scale)] = parityFingerprint(r);
    }
    return file;
}

ParityFile
ParityFile::load(const std::string& path)
{
    std::ifstream in(path);
    if (!in)
        fatal("parity: cannot open golden file '%s'", path.c_str());
    ParityFile file;
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty() || line[0] == '#')
            continue;
        const std::size_t space = line.find(' ');
        if (space != 16 || line.size() < 18)
            fatal("parity: %s:%zu: malformed line '%s'", path.c_str(),
                  lineno, line.c_str());
        const std::uint64_t fp =
            std::stoull(line.substr(0, 16), nullptr, 16);
        file.entries[line.substr(17)] = fp;
    }
    return file;
}

void
ParityFile::save(const std::string& path) const
{
    std::ofstream out(path);
    if (!out)
        fatal("parity: cannot open '%s' for writing", path.c_str());
    out << "# eve timing-parity fingerprints (fnv1a64 of the\n"
           "# deterministic result payload; see src/exp/perf.hh)\n";
    for (const auto& [key, fp] : entries)
        out << hex16(fp) << ' ' << key << '\n';
    if (!out)
        fatal("parity: write to '%s' failed", path.c_str());
}

std::vector<std::string>
ParityFile::check(const std::vector<JobResult>& results,
                  const std::string& scale) const
{
    std::vector<std::string> diffs;
    for (const auto& r : results) {
        const std::string key = parityKey(r, scale);
        if (r.status != JobStatus::Ok) {
            diffs.push_back(key + ": job status '" +
                            jobStatusName(r.status) +
                            "' (parity needs a fresh Ok run)");
            continue;
        }
        auto it = entries.find(key);
        if (it == entries.end()) {
            diffs.push_back(key + ": no golden fingerprint");
            continue;
        }
        const std::uint64_t fp = parityFingerprint(r);
        if (fp != it->second)
            diffs.push_back(key + ": fingerprint " + hex16(fp) +
                            " != golden " + hex16(it->second));
    }
    return diffs;
}

SpeedReport
measureSimSpeed(const std::vector<Job>& jobs, unsigned iters,
                const std::string& checkpoint_dir)
{
    if (iters == 0)
        iters = 1;
    SpeedReport report;
    std::map<std::string, SystemSpeed> per_system;

    for (unsigned iter = 0; iter < iters; ++iter) {
        for (const Job& job : jobs) {
            JobResult r;
            r.index = job.index;
            r.label = job.label;
            r.workload = job.workload;
            r.config = job.config;
            r.axes = job.axes;

            std::unique_ptr<Workload> workload = job.make();
            if (!workload)
                fatal("simspeed: unknown workload '%s'",
                      job.workload.c_str());
            SimOptions sopts;
            sopts.sampling = job.sampling;
            sopts.checkpoint_dir = checkpoint_dir;
            sopts.scale_tag = job.scale;
            sopts.salt = kSimulatorSalt;
            const auto start = std::chrono::steady_clock::now();
            r.result = runWorkload(job.config, *workload, sopts);
            const double wall =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
            if (r.result.mismatches)
                fatal("simspeed: job '%s' failed functionally",
                      job.label.c_str());
            r.status = JobStatus::Ok;
            r.wall_seconds = wall;

            const double cycles = r.result.cycles;
            SystemSpeed& ss = per_system[r.result.system];
            ss.system = r.result.system;
            ss.jobs += 1;
            ss.wall_seconds += wall;
            ss.sim_cycles += cycles;
            report.jobs += 1;
            report.wall_seconds += wall;
            report.sim_cycles += cycles;

            if (iter == 0)
                report.results.push_back(std::move(r));
        }
    }

    auto finalize = [](double jobs, double wall, double cycles,
                       double& jps, double& nspc) {
        jps = wall > 0 ? jobs / wall : 0;
        nspc = cycles > 0 ? wall * 1e9 / cycles : 0;
    };
    finalize(double(report.jobs), report.wall_seconds,
             report.sim_cycles, report.jobs_per_sec,
             report.ns_per_sim_cycle);
    for (auto& [name, ss] : per_system) {
        finalize(double(ss.jobs), ss.wall_seconds, ss.sim_cycles,
                 ss.jobs_per_sec, ss.ns_per_sim_cycle);
        report.per_system.push_back(ss);
    }
    return report;
}

std::string
speedReportJson(const SpeedReport& report,
                const std::string& grid_label,
                double baseline_jobs_per_sec)
{
    std::ostringstream os;
    os << "{\"grid\":\"" << jsonEscape(grid_label) << "\""
       << ",\"jobs\":" << report.jobs
       << ",\"wall_seconds\":" << jsonNumber(report.wall_seconds)
       << ",\"jobs_per_sec\":" << jsonNumber(report.jobs_per_sec)
       << ",\"sim_cycles\":" << jsonNumber(report.sim_cycles)
       << ",\"ns_per_sim_cycle\":"
       << jsonNumber(report.ns_per_sim_cycle);
    if (baseline_jobs_per_sec > 0) {
        os << ",\"baseline_jobs_per_sec\":"
           << jsonNumber(baseline_jobs_per_sec)
           << ",\"speedup_vs_baseline\":"
           << jsonNumber(report.jobs_per_sec / baseline_jobs_per_sec);
    }
    os << ",\"per_system\":[";
    bool first = true;
    for (const auto& ss : report.per_system) {
        if (!first)
            os << ",";
        first = false;
        os << "{\"system\":\"" << jsonEscape(ss.system) << "\""
           << ",\"jobs\":" << ss.jobs
           << ",\"wall_seconds\":" << jsonNumber(ss.wall_seconds)
           << ",\"jobs_per_sec\":" << jsonNumber(ss.jobs_per_sec)
           << ",\"sim_cycles\":" << jsonNumber(ss.sim_cycles)
           << ",\"ns_per_sim_cycle\":"
           << jsonNumber(ss.ns_per_sim_cycle) << "}";
    }
    os << "]}";
    return os.str();
}

} // namespace eve::exp
