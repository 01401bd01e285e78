#include "exp/cache.hh"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <utility>
#include <vector>

#include "common/bits.hh"
#include "common/fs.hh"
#include "common/json.hh"
#include "common/log.hh"
#include "driver/system.hh"
#include "exp/sink.hh"

namespace eve::exp
{

std::string
jobKeyMaterial(const Job& job, const std::string& salt)
{
    std::string material = configCanonical(job.config) +
                           "|workload=" + job.workload +
                           "|scale=" + job.scale + "|salt=" + salt;
    // Non-standard executions (Job::exec) append their variant tag;
    // the default empty variant leaves the material — and therefore
    // every previously stored key — unchanged.
    if (!job.variant.empty())
        material += "|variant=" + job.variant;
    // Sampled jobs likewise append their schedule: a sampled result
    // must never be served for an exact job (or vice versa, or for a
    // differently-sampled one), while exact jobs keep their
    // historical keys.
    if (job.sampling.enabled())
        material += "|sampling=" + samplingCanonical(job.sampling);
    return material;
}

std::string
jobKey(const Job& job, const std::string& salt)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(
                      fnv1a64(jobKeyMaterial(job, salt))));
    return buf;
}

namespace
{

bool
statusFromName(const std::string& name, JobStatus& out)
{
    if (name == "ok") out = JobStatus::Ok;
    else if (name == "mismatch") out = JobStatus::Mismatch;
    else if (name == "failed") out = JobStatus::Failed;
    else if (name == "skipped") out = JobStatus::Skipped;
    else if (name == "cached") out = JobStatus::Cached;
    else return false;
    return true;
}

double
numberField(const JsonValue& obj, const char* key, double fallback = 0)
{
    return jsonNumberField(obj, key, fallback);
}

} // namespace

bool
parseResultJson(const std::string& json, JobResult& out)
{
    JsonValue root;
    if (!parseJson(json, root) || !root.isObject())
        return false;
    const JsonValue* status = root.find("status");
    if (!status || status->type != JsonValue::Type::String)
        return false;

    JobResult r;
    if (!statusFromName(status->text, r.status))
        return false;
    r.index = std::size_t(numberField(root, "index"));
    if (const JsonValue* v = root.find("label");
        v && v->type == JsonValue::Type::String)
        r.label = v->text;
    if (const JsonValue* v = root.find("system");
        v && v->type == JsonValue::Type::String)
        r.result.system = v->text;
    if (const JsonValue* v = root.find("workload");
        v && v->type == JsonValue::Type::String) {
        r.workload = v->text;
        r.result.workload = v->text;
    }
    if (const JsonValue* v = root.find("axes");
        v && v->type == JsonValue::Type::Object) {
        for (const auto& [name, value] : v->members) {
            if (value.type != JsonValue::Type::String)
                return false;
            r.axes.emplace_back(name, value.text);
        }
    }
    if (const JsonValue* v = root.find("error");
        v && v->type == JsonValue::Type::String)
        r.error = v->text;
    r.wall_seconds = numberField(root, "wall_s");

    RunResult& res = r.result;
    res.cycles = numberField(root, "cycles");
    res.seconds = numberField(root, "seconds");
    res.total_ticks = numberField(root, "total_ticks");
    res.instrs = std::uint64_t(numberField(root, "instrs"));
    res.mismatches = std::uint64_t(numberField(root, "mismatches"));
    res.vecInstrs = std::uint64_t(numberField(root, "vec_instrs"));
    res.vecElemOps =
        std::uint64_t(numberField(root, "vec_elem_ops"));
    if (const JsonValue* v = root.find("sampled");
        v && v->type == JsonValue::Type::Bool && v->boolean) {
        res.sampled = true;
        res.sample_windows =
            std::uint64_t(numberField(root, "sample_windows"));
        res.sampled_measured_instrs = std::uint64_t(
            numberField(root, "sampled_measured_instrs"));
        res.sampled_measured_ticks = std::uint64_t(
            numberField(root, "sampled_measured_ticks"));
    }
    if (const JsonValue* v = root.find("stats");
        v && v->type == JsonValue::Type::Object) {
        for (const auto& [name, value] : v->members) {
            if (value.type != JsonValue::Type::Number)
                return false;
            res.stats[name] = value.number;
        }
    }
    if (const JsonValue* v = root.find("breakdown");
        v && v->type == JsonValue::Type::Object) {
        res.has_breakdown = true;
        EveBreakdown& b = res.breakdown;
        b.busy = numberField(*v, "busy");
        b.vru_stall = numberField(*v, "vru_stall");
        b.ld_mem_stall = numberField(*v, "ld_mem_stall");
        b.st_mem_stall = numberField(*v, "st_mem_stall");
        b.ld_dt_stall = numberField(*v, "ld_dt_stall");
        b.st_dt_stall = numberField(*v, "st_dt_stall");
        b.vmu_stall = numberField(*v, "vmu_stall");
        b.empty_stall = numberField(*v, "empty_stall");
        b.dep_stall = numberField(*v, "dep_stall");
        res.vmu_cache_stall_ticks =
            numberField(root, "vmu_cache_stall_ticks");
    }
    out = std::move(r);
    return true;
}

ResultCache::ResultCache(std::string dir_path, std::string salt_tag)
    : dir(std::move(dir_path)), salt(std::move(salt_tag))
{
    if (dir.empty())
        fatal("result cache: empty directory path");
    while (dir.size() > 1 && dir.back() == '/')
        dir.pop_back();
}

std::string
ResultCache::filePath() const
{
    return dir + "/cache.jsonl";
}

std::size_t
ResultCache::load()
{
    std::ifstream in(filePath());
    if (!in)
        return 0; // no artifact yet: an empty cache
    std::string line;
    std::size_t line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        if (line.empty())
            continue;
        // {"key":"<16 hex>","record":{...}}
        static const std::string kKeyPrefix = "{\"key\":\"";
        static const std::string kRecordPrefix = "\",\"record\":";
        bool ok = line.rfind(kKeyPrefix, 0) == 0 && line.back() == '}';
        std::string key, record;
        if (ok) {
            const std::size_t key_end =
                line.find('"', kKeyPrefix.size());
            ok = key_end != std::string::npos &&
                 line.compare(key_end, kRecordPrefix.size(),
                              kRecordPrefix) == 0;
            if (ok) {
                key = line.substr(kKeyPrefix.size(),
                                  key_end - kKeyPrefix.size());
                const std::size_t rec_begin =
                    key_end + kRecordPrefix.size();
                record = line.substr(rec_begin,
                                     line.size() - rec_begin - 1);
                JobResult parsed;
                ok = key.size() == 16 &&
                     parseResultJson(record, parsed) &&
                     parsed.status == JobStatus::Ok;
            }
        }
        if (!ok) {
            warn("result cache %s:%zu: skipping unparseable entry",
                 filePath().c_str(), line_no);
            continue;
        }
        entries[key] = std::move(record); // later entries win
    }
    return entries.size();
}

bool
ResultCache::lookup(const Job& job, JobResult& out) const
{
    out.index = job.index;
    out.label = job.label;
    out.workload = job.workload;
    out.config = job.config;
    out.axes = job.axes;

    const auto it = entries.find(jobKey(job, salt));
    if (it == entries.end())
        return false;
    JobResult restored;
    if (!parseResultJson(it->second, restored) ||
        restored.status != JobStatus::Ok)
        return false; // treat a corrupt record as a miss
    // Payload from the record, identity from the live job (an edited
    // sweep may have shifted indices or renamed axis labels).
    adoptPayload(out, std::move(restored));
    out.status = JobStatus::Cached;
    out.error.clear();
    return true;
}

void
ResultCache::store(const Job& job, const JobResult& r)
{
    if (!eligible(r))
        return;
    const std::string key = jobKey(job, salt);
    if (entries.count(key))
        return;
    std::string record = resultToJson(r, /*include_host_time=*/true);

    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec)
        fatal("result cache: cannot create '%s': %s", dir.c_str(),
              ec.message().c_str());
    const std::string line =
        "{\"key\":\"" + key + "\",\"record\":" + record + "}\n";
    {
        // Serialize appends across processes (concurrent sweeps,
        // orchestrators and benches sharing one cache directory):
        // one flock'd single write per entry, so lines never
        // interleave.
        FileLock lock(dir + "/cache.lock");
        std::ofstream out(filePath(), std::ios::app);
        if (!out)
            fatal("result cache: cannot open '%s' for append",
                  filePath().c_str());
        out << line;
        out.flush();
        if (!out)
            fatal("result cache: write to '%s' failed",
                  filePath().c_str());
    }
    entries[key] = std::move(record);
    ++stored_count;
}

} // namespace eve::exp
