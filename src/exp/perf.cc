#include "exp/perf.hh"

#include <cstdio>
#include <fstream>

#include "common/bits.hh"
#include "common/log.hh"
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
        if (line.size() < 18 ||
            line.find_first_not_of("0123456789abcdefABCDEF") != 16 ||
            line[16] != ' ')
            fatal("parity: %s:%zu: malformed line '%s' (want 16 hex "
                  "digits, a space, and a key)",
                  path.c_str(), lineno, line.c_str());
        file.entries[line.substr(17)] =
            std::stoull(line.substr(0, 16), nullptr, 16);
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

} // namespace eve::exp
