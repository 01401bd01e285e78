#include "exp/sink.hh"

#include <map>
#include <set>
#include <sstream>

#include "common/fs.hh"
#include "common/log.hh"
#include "common/stats.hh"

namespace eve::exp
{

namespace
{

std::string
quoted(const std::string& s)
{
    std::string out = "\"";
    out += jsonEscape(s);
    out += '"';
    return out;
}

} // namespace

std::string
recordSystem(const JobResult& r)
{
    return r.result.system.empty() ? systemName(r.config)
                                   : r.result.system;
}

std::string
resultToJson(const JobResult& r, bool include_host_time)
{
    // A Cached result *is* the earlier Ok run, restored verbatim;
    // serializing it as "ok" is what makes a fully-cached rerun emit
    // JSONL byte-identical to the cold run that populated the cache.
    const bool cached = r.status == JobStatus::Cached;
    std::ostringstream os;
    os << "{\"index\":" << r.index
       << ",\"label\":" << quoted(r.label)
       << ",\"system\":" << quoted(recordSystem(r))
       << ",\"workload\":" << quoted(r.workload)
       << ",\"status\":"
       << quoted(cached ? "ok" : jobStatusName(r.status));
    if (!r.axes.empty()) {
        os << ",\"axes\":{";
        bool first = true;
        for (const auto& [name, value] : r.axes) {
            if (!first)
                os << ",";
            first = false;
            os << quoted(name) << ":" << quoted(value);
        }
        os << "}";
    }
    if (r.status == JobStatus::Failed)
        os << ",\"error\":" << quoted(r.error);
    if (include_host_time)
        os << ",\"wall_s\":" << jsonNumber(r.wall_seconds);
    if (r.status == JobStatus::Ok || r.status == JobStatus::Mismatch ||
        cached) {
        const RunResult& res = r.result;
        os << ",\"cycles\":" << jsonNumber(res.cycles)
           << ",\"seconds\":" << jsonNumber(res.seconds)
           << ",\"total_ticks\":" << jsonNumber(res.total_ticks)
           << ",\"instrs\":" << res.instrs
           << ",\"mismatches\":" << res.mismatches
           << ",\"vec_instrs\":" << res.vecInstrs
           << ",\"vec_elem_ops\":" << res.vecElemOps;
        // Sampled provenance is only present on sampled runs, so
        // exact records keep their historical bytes.
        if (res.sampled) {
            os << ",\"sampled\":true"
               << ",\"sample_windows\":" << res.sample_windows
               << ",\"sampled_measured_instrs\":"
               << res.sampled_measured_instrs
               << ",\"sampled_measured_ticks\":"
               << res.sampled_measured_ticks;
        }
        os << ",\"stats\":" << statsToJson(res.stats);
        if (res.has_breakdown) {
            const EveBreakdown& b = res.breakdown;
            os << ",\"breakdown\":{"
               << "\"busy\":" << jsonNumber(b.busy)
               << ",\"vru_stall\":" << jsonNumber(b.vru_stall)
               << ",\"ld_mem_stall\":" << jsonNumber(b.ld_mem_stall)
               << ",\"st_mem_stall\":" << jsonNumber(b.st_mem_stall)
               << ",\"ld_dt_stall\":" << jsonNumber(b.ld_dt_stall)
               << ",\"st_dt_stall\":" << jsonNumber(b.st_dt_stall)
               << ",\"vmu_stall\":" << jsonNumber(b.vmu_stall)
               << ",\"empty_stall\":" << jsonNumber(b.empty_stall)
               << ",\"dep_stall\":" << jsonNumber(b.dep_stall)
               << "},\"vmu_cache_stall_ticks\":"
               << jsonNumber(res.vmu_cache_stall_ticks);
        }
    }
    os << "}";
    return os.str();
}

namespace
{

std::string
csvField(const std::string& s)
{
    if (s.find_first_of(",\"\n") == std::string::npos)
        return s;
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += "\"";
    return out;
}

} // namespace

std::string
resultsToCsv(const std::vector<JobResult>& results)
{
    std::set<std::string> axis_names;
    std::set<std::string> stat_keys;
    for (const auto& r : results) {
        for (const auto& [name, value] : r.axes)
            axis_names.insert(name);
        for (const auto& [key, value] : r.result.stats)
            stat_keys.insert(key);
    }

    std::ostringstream os;
    os << "index,label,system,workload,status,error,wall_s,cycles,"
          "seconds,instrs,mismatches";
    for (const auto& name : axis_names)
        os << ',' << csvField(name);
    for (const auto& key : stat_keys)
        os << ',' << csvField(key);
    os << '\n';

    for (const auto& r : results) {
        os << r.index << ',' << csvField(r.label) << ','
           << csvField(systemName(r.config)) << ','
           << csvField(r.workload) << ',' << jobStatusName(r.status)
           << ',' << csvField(r.error) << ','
           << jsonNumber(r.wall_seconds) << ','
           << jsonNumber(r.result.cycles) << ','
           << jsonNumber(r.result.seconds) << ',' << r.result.instrs
           << ',' << r.result.mismatches;
        const std::map<std::string, std::string> axis_values(
            r.axes.begin(), r.axes.end());
        for (const auto& name : axis_names) {
            os << ',';
            auto it = axis_values.find(name);
            if (it != axis_values.end())
                os << csvField(it->second);
        }
        for (const auto& key : stat_keys) {
            os << ',';
            auto it = r.result.stats.find(key);
            if (it != r.result.stats.end())
                os << jsonNumber(it->second);
        }
        os << '\n';
    }
    return os.str();
}

void
writeJsonLines(const std::vector<JobResult>& results,
               const std::string& path, bool include_host_time)
{
    std::string content;
    for (const auto& r : results) {
        content += resultToJson(r, include_host_time);
        content += '\n';
    }
    atomicWriteFile(path, content);
}

void
writeCsv(const std::vector<JobResult>& results, const std::string& path)
{
    atomicWriteFile(path, resultsToCsv(results));
}

} // namespace eve::exp
