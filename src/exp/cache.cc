#include "exp/cache.hh"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <utility>

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

/**
 * Member @p key of @p obj as a finite number. Absent and null read 0
 * (jsonNumber writes null for NaN and Inf); any other type, or a
 * non-finite number, is malformed.
 */
bool
realField(const JsonValue& obj, const char* key, double& out)
{
    const JsonValue* v = obj.find(key);
    out = 0;
    if (!v || v->type == JsonValue::Type::Null)
        return true;
    if (!v->isNumber() || !std::isfinite(v->number))
        return false;
    out = v->number;
    return true;
}

/**
 * Member @p key of @p obj as a count. Absent reads 0; anything but an
 * integral number in [0, 2^64) is malformed, so the conversion below
 * is always defined.
 */
bool
countField(const JsonValue& obj, const char* key, std::uint64_t& out)
{
    const JsonValue* v = obj.find(key);
    out = 0;
    if (!v)
        return true;
    if (!v->isNumber() || !(v->number >= 0) ||
        !(v->number < 0x1p64) || v->number != std::floor(v->number))
        return false;
    out = std::uint64_t(v->number);
    return true;
}

bool
stringField(const JsonValue& obj, const char* key, std::string& out)
{
    const JsonValue* v = obj.find(key);
    if (!v || !v->isString())
        return false;
    out = v->text;
    return true;
}

} // namespace

bool
parseResultJson(const std::string& json, JobResult& out)
{
    JsonValue root;
    if (!parseJson(json, root) || !root.isObject())
        return false;
    JobResult r;
    RunResult& res = r.result;
    std::string status;
    if (!stringField(root, "system", res.system) ||
        !stringField(root, "workload", r.workload) ||
        !stringField(root, "status", status) ||
        !statusFromName(status, r.status))
        return false;
    res.workload = r.workload;
    stringField(root, "label", r.label);
    stringField(root, "error", r.error);

    std::uint64_t index = 0;
    bool ok = countField(root, "index", index) &&
              realField(root, "wall_s", r.wall_seconds) &&
              realField(root, "cycles", res.cycles) &&
              realField(root, "seconds", res.seconds) &&
              realField(root, "total_ticks", res.total_ticks) &&
              countField(root, "instrs", res.instrs) &&
              countField(root, "mismatches", res.mismatches) &&
              countField(root, "vec_instrs", res.vecInstrs) &&
              countField(root, "vec_elem_ops", res.vecElemOps);
    r.index = index;
    if (const JsonValue* v = root.find("axes"); v && v->isObject()) {
        for (const auto& [name, value] : v->members) {
            ok = ok && value.isString();
            r.axes.emplace_back(name, value.text);
        }
    }
    if (const JsonValue* v = root.find("sampled");
        v && v->type == JsonValue::Type::Bool && v->boolean) {
        res.sampled = true;
        ok = ok &&
             countField(root, "sample_windows", res.sample_windows) &&
             countField(root, "sampled_measured_instrs",
                        res.sampled_measured_instrs) &&
             countField(root, "sampled_measured_ticks",
                        res.sampled_measured_ticks);
    }
    if (const JsonValue* v = root.find("stats"); v && v->isObject()) {
        for (const auto& [name, value] : v->members) {
            ok = ok && value.isNumber() && std::isfinite(value.number);
            res.stats[name] = value.number;
        }
    }
    if (const JsonValue* v = root.find("breakdown"); v && v->isObject()) {
        res.has_breakdown = true;
        EveBreakdown& b = res.breakdown;
        ok = ok && realField(*v, "busy", b.busy) &&
             realField(*v, "vru_stall", b.vru_stall) &&
             realField(*v, "ld_mem_stall", b.ld_mem_stall) &&
             realField(*v, "st_mem_stall", b.st_mem_stall) &&
             realField(*v, "ld_dt_stall", b.ld_dt_stall) &&
             realField(*v, "st_dt_stall", b.st_dt_stall) &&
             realField(*v, "vmu_stall", b.vmu_stall) &&
             realField(*v, "empty_stall", b.empty_stall) &&
             realField(*v, "dep_stall", b.dep_stall) &&
             realField(root, "vmu_cache_stall_ticks",
                       res.vmu_cache_stall_ticks);
    }
    if (!ok)
        return false;
    out = std::move(r);
    return true;
}

void
writeRecordFile(const std::string& path, const JobResult& r)
{
    atomicWriteFile(path,
                    resultToJson(r, /*include_host_time=*/true) + "\n");
}

bool
readRecordFile(const std::string& path, JobResult& out)
{
    std::string text;
    return readFile(path, text) && parseResultJson(text, out);
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
ResultCache::recordPath(const Job& job) const
{
    return dir + "/" + jobKey(job, salt) + ".json";
}

bool
ResultCache::lookup(const Job& job, JobResult& out) const
{
    adoptIdentity(out, job);
    JobResult restored;
    if (!readRecordFile(recordPath(job), restored) ||
        restored.status != JobStatus::Ok)
        return false; // a missing or corrupt record is a miss
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
    const std::string path = recordPath(job);
    JobResult stored;
    if (readRecordFile(path, stored) && stored.status == JobStatus::Ok)
        return; // another run of the same key got there first
    makeDirs(dir);
    writeRecordFile(path, r);
    ++stored_count;
}

} // namespace eve::exp
