#include "exp/dist.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>

#include <unistd.h>

#include "common/bits.hh"
#include "common/fs.hh"
#include "common/log.hh"
#include "driver/system.hh"
#include "exp/cache.hh"
#include "exp/sink.hh"
#include "workloads/workload.hh"

namespace eve::exp
{

namespace
{

/** Sorted regular-file names in @p dir (missing dir = empty). */
std::vector<std::string>
listDir(const std::string& dir)
{
    std::vector<std::string> names;
    std::error_code ec;
    std::filesystem::directory_iterator it(dir, ec);
    if (ec)
        return names;
    for (const auto& entry : it) {
        std::error_code type_ec;
        if (entry.is_regular_file(type_ec))
            names.push_back(entry.path().filename().string());
    }
    std::sort(names.begin(), names.end());
    return names;
}

bool
isTmpName(const std::string& name)
{
    const std::string suffix = kTmpSuffix;
    return name.size() > suffix.size() &&
           name.compare(name.size() - suffix.size(), suffix.size(),
                        suffix) == 0;
}

/** Count non-tmp files (tmp files are in-flight writes, not state). */
std::size_t
countFinal(const std::string& dir)
{
    std::size_t n = 0;
    for (const auto& name : listDir(dir))
        n += !isTmpName(name);
    return n;
}

std::string
hostName()
{
    char buf[256] = {0};
    if (::gethostname(buf, sizeof(buf) - 1) != 0)
        return "host";
    return buf;
}

void
sleepFor(double seconds)
{
    std::this_thread::sleep_for(
        std::chrono::duration<double>(seconds));
}

/**
 * Order-independent fingerprint of the grid's job keys: workers use
 * it to refuse a directory built for a different sweep or by a
 * diverged binary.
 */
std::string
gridFingerprint(const std::vector<Job>& jobs)
{
    std::uint64_t acc = 0;
    for (const auto& job : jobs)
        acc ^= fnv1a64(jobKey(job) + "@" + std::to_string(job.index));
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(acc));
    return buf;
}

/** One "key=value" line; value may contain anything but newlines. */
bool
lineValue(const std::string& line, const char* key, std::string& out)
{
    const std::string prefix = std::string(key) + "=";
    if (line.rfind(prefix, 0) != 0)
        return false;
    out = line.substr(prefix.size());
    return true;
}

/** The manifest's identification fields. */
struct ManifestInfo
{
    std::string version; ///< protocol version the dir was built under
    std::string salt;    ///< simulator salt the dir was built under
    std::string grid;    ///< grid fingerprint
    std::size_t total = 0;
};

/** Parse the manifest at @p path; false when absent/unreadable. */
bool
readManifest(const std::string& path, ManifestInfo& out)
{
    std::string text;
    if (!readFile(path, text))
        return false;
    ManifestInfo info;
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line)) {
        std::string v;
        if (lineValue(line, "version", v)) info.version = v;
        else if (lineValue(line, "salt", v)) info.salt = v;
        else if (lineValue(line, "total", v))
            info.total = std::strtoull(v.c_str(), nullptr, 10);
        else if (lineValue(line, "grid", v)) info.grid = v;
    }
    out = std::move(info);
    return true;
}

/** Process-wide cooperative stop flag (set from signal handlers). */
std::atomic<bool> worker_stop{false};

} // namespace

void
requestWorkerStop()
{
    worker_stop.store(true, std::memory_order_relaxed);
}

bool
workerStopRequested()
{
    return worker_stop.load(std::memory_order_relaxed);
}

std::string
distJobText(const DistJob& job)
{
    std::string out;
    out += "index=" + std::to_string(job.index) + "\n";
    out += "key=" + job.key + "\n";
    out += "label=" + job.label + "\n";
    out += "workload=" + job.workload + "\n";
    out += "scale=" + job.scale + "\n";
    out += "config=" + job.config + "\n";
    out += "sampling=" + job.sampling + "\n";
    out += "attempts=" + std::to_string(job.attempts) + "\n";
    out += "remote=" + std::string(job.remote ? "1" : "0") + "\n";
    return out;
}

bool
parseDistJob(const std::string& text, DistJob& out)
{
    std::istringstream is(text);
    std::string line;
    std::vector<std::string> lines;
    while (std::getline(is, line))
        lines.push_back(line);
    if (lines.size() != 9)
        return false;

    DistJob job;
    std::string index_s, attempts_s, remote_s;
    if (!lineValue(lines[0], "index", index_s) ||
        !lineValue(lines[1], "key", job.key) ||
        !lineValue(lines[2], "label", job.label) ||
        !lineValue(lines[3], "workload", job.workload) ||
        !lineValue(lines[4], "scale", job.scale) ||
        !lineValue(lines[5], "config", job.config) ||
        !lineValue(lines[6], "sampling", job.sampling) ||
        !lineValue(lines[7], "attempts", attempts_s) ||
        !lineValue(lines[8], "remote", remote_s))
        return false;
    char* end = nullptr;
    job.index = std::strtoull(index_s.c_str(), &end, 10);
    if (!end || *end != '\0' || index_s.empty())
        return false;
    job.attempts =
        static_cast<unsigned>(std::strtoul(attempts_s.c_str(), &end, 10));
    if (!end || *end != '\0' || attempts_s.empty())
        return false;
    if (remote_s != "0" && remote_s != "1")
        return false;
    job.remote = remote_s == "1";
    if (job.key.size() != 16)
        return false;
    out = std::move(job);
    return true;
}

bool
rebuildJob(const DistJob& dist, Job& out)
{
    if (!dist.remote)
        return false;
    Job job;
    job.index = dist.index;
    job.label = dist.label;
    job.workload = dist.workload;
    job.scale = dist.scale;
    if (!parseConfigCanonical(dist.config, job.config))
        return false;
    // The strict inverse parse applies to the sampling schedule too:
    // text this binary cannot reproduce canonically is refused, not
    // half-applied.
    if (!parseSamplingCanonical(dist.sampling, job.sampling))
        return false;
    const std::string name = dist.workload;
    const std::string scale = dist.scale;
    if (!makeWorkloadScaled(name, scale))
        return false;
    job.make = [name, scale] {
        return makeWorkloadScaled(name, scale);
    };
    // The recomputed content key must equal the orchestrator's: a
    // mismatch means this binary's salt, SystemConfig layout, or key
    // scheme diverged, and running the job would publish
    // wrong-version numbers under a stale key.
    if (jobKey(job) != dist.key)
        return false;
    out = std::move(job);
    return true;
}

std::string
formatDistStatus(const DistStatus& s)
{
    std::ostringstream os;
    os << "total " << s.total << ": " << s.pending << " pending, "
       << s.claimed << " claimed, " << s.done << " done, " << s.failed
       << " failed, " << s.quarantined << " quarantined"
       << (s.complete() ? " [complete]" : "");
    return os.str();
}

// ---------------------------------------------------------------------
// JobsDir
// ---------------------------------------------------------------------

JobsDir::JobsDir(DistOptions options) : opts(std::move(options))
{
    if (opts.jobs_dir.empty())
        fatal("jobs dir: empty directory path");
    while (opts.jobs_dir.size() > 1 && opts.jobs_dir.back() == '/')
        opts.jobs_dir.pop_back();
    if (opts.max_attempts == 0)
        opts.max_attempts = 1;
    worker_id = opts.worker_id.empty()
                    ? hostName() + "-" + std::to_string(::getpid())
                    : opts.worker_id;
}

JobsDir::~JobsDir()
{
    {
        std::lock_guard<std::mutex> lock(hb_mutex);
        hb_stop = true;
    }
    hb_cv.notify_all();
    if (hb_thread.joinable())
        hb_thread.join();
}

std::string
JobsDir::jobName(std::size_t index)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "job-%06zu", index);
    return buf;
}

void
JobsDir::materialize(const std::vector<Job>& jobs)
{
    makeDirs(pendingDir());
    makeDirs(claimedDir());
    makeDirs(leaseDir());
    makeDirs(doneDir());
    makeDirs(failedDir());
    makeDirs(quarantineDir());

    // A manifest from another protocol version or simulator salt is
    // refused like a foreign grid: its done/ records would otherwise
    // be merged, and cached, as this binary's results.
    const std::string grid = gridFingerprint(jobs);
    ManifestInfo existing;
    if (readManifest(manifestPath(), existing)) {
        const char* skew =
            existing.version != kDistProtocolVersion ? "version"
            : existing.salt != kSimulatorSalt        ? "salt"
            : existing.grid != grid                  ? "grid"
                                                     : nullptr;
        if (skew)
            fatal("jobs dir '%s' holds a different sweep (manifest "
                  "%s mismatch); use a fresh directory per grid",
                  opts.jobs_dir.c_str(), skew);
    }

    std::size_t created = 0;
    for (const auto& job : jobs) {
        const std::string name = jobName(job.index);
        const std::string file = name + ".job";
        // Resume-safe: a job already in any state is left alone.
        if (fileExists(pendingDir() + "/" + file) ||
            fileExists(claimedDir() + "/" + file) ||
            fileExists(doneDir() + "/" + name + ".json") ||
            fileExists(failedDir() + "/" + name + ".json") ||
            fileExists(quarantineDir() + "/" + file))
            continue;
        DistJob dist;
        dist.index = job.index;
        dist.key = jobKey(job);
        dist.label = job.label;
        dist.workload = job.workload;
        dist.scale = job.scale;
        dist.config = configCanonical(job.config);
        dist.sampling = samplingCanonical(job.sampling);
        dist.attempts = 0;
        // Spec-less workers can only run jobs they can rebuild from
        // the file: standard-scale library workloads with no custom
        // executor. Everything else stays local to processes holding
        // the in-memory Job.
        dist.remote = !job.exec &&
                      makeWorkloadScaled(job.workload,
                                         job.scale) != nullptr;
        atomicWriteFile(pendingDir() + "/" + file, distJobText(dist));
        ++created;
    }

    // The manifest is written last: its presence tells workers the
    // pending/ population is complete and names the grid they must
    // match.
    std::string text;
    text += "version=" + std::string(kDistProtocolVersion) + "\n";
    text += "salt=" + std::string(kSimulatorSalt) + "\n";
    text += "total=" + std::to_string(jobs.size()) + "\n";
    text += "grid=" + grid + "\n";
    atomicWriteFile(manifestPath(), text);
    if (created > 0)
        inform("jobs dir %s: materialized %zu of %zu jobs",
               opts.jobs_dir.c_str(), created, jobs.size());
}

DistStatus
JobsDir::manifest() const
{
    DistStatus s;
    ManifestInfo info;
    if (!readManifest(manifestPath(), info))
        return s;
    if (info.version != kDistProtocolVersion) {
        if (!info.version.empty())
            warn("jobs dir %s: protocol '%s' != '%s'; ignoring "
                 "manifest", opts.jobs_dir.c_str(),
                 info.version.c_str(), kDistProtocolVersion);
        return s;
    }
    if (info.salt != kSimulatorSalt) {
        warn("jobs dir %s: simulator salt '%s' != this binary's "
             "'%s'; ignoring manifest", opts.jobs_dir.c_str(),
             info.salt.c_str(), kSimulatorSalt);
        return s;
    }
    s.total = info.total;
    return s;
}

DistStatus
JobsDir::status() const
{
    DistStatus s = manifest();
    s.pending = countFinal(pendingDir());
    s.claimed = countFinal(claimedDir());
    s.done = countFinal(doneDir());
    s.failed = countFinal(failedDir());
    s.quarantined = 0;
    for (const auto& name : listDir(quarantineDir()))
        s.quarantined += !isTmpName(name);
    return s;
}

bool
JobsDir::stopRequested() const
{
    return fileExists(stopPath());
}

void
JobsDir::requestStop()
{
    makeDirs(opts.jobs_dir);
    atomicWriteFile(stopPath(), "stop\n");
}

void
JobsDir::clearStop()
{
    removeFile(stopPath());
}

void
JobsDir::writeLease(const std::string& name)
{
    std::uint64_t seq = 0;
    {
        std::lock_guard<std::mutex> lock(hb_mutex);
        seq = held[name];
    }
    // A plain overwrite: lease readers only watch for *change*, so a
    // torn read at worst resets their staleness timer.
    std::ofstream out(leaseDir() + "/" + name + ".lease",
                      std::ios::trunc);
    out << worker_id << " " << seq << "\n";
}

void
JobsDir::startHeartbeat()
{
    if (hb_thread.joinable())
        return;
    hb_thread = std::thread([this] { heartbeatLoop(); });
}

void
JobsDir::heartbeatLoop()
{
    std::unique_lock<std::mutex> lock(hb_mutex);
    while (!hb_stop) {
        hb_cv.wait_for(
            lock, std::chrono::duration<double>(opts.heartbeat_s));
        if (hb_stop)
            return;
        std::vector<std::string> names;
        for (auto& [name, seq] : held) {
            ++seq;
            names.push_back(name);
        }
        lock.unlock();
        for (const auto& name : names)
            writeLease(name);
        lock.lock();
    }
}

bool
JobsDir::claimNext(DistJob& out, const std::vector<std::string>& skip)
{
    std::vector<std::string> names = listDir(pendingDir());
    // Start the scan at a per-worker offset so a fleet does not
    // stampede the same claim file.
    if (names.size() > 1) {
        const std::size_t offset =
            fnv1a64(worker_id) % names.size();
        std::rotate(names.begin(), names.begin() + offset,
                    names.end());
    }
    for (const auto& file : names) {
        if (isTmpName(file))
            continue;
        if (std::find(skip.begin(), skip.end(), file) != skip.end())
            continue;
        const std::string from = pendingDir() + "/" + file;
        const std::string to = claimedDir() + "/" + file;
        if (!renameFile(from, to))
            continue; // lost the race; try the next one
        std::string text;
        DistJob dist;
        if (!readFile(to, text) || !parseDistJob(text, dist)) {
            // Unreadable claim file: quarantine it rather than loop.
            warn("jobs dir: quarantining unparseable job file '%s'",
                 file.c_str());
            renameFile(to, quarantineDir() + "/" + file);
            continue;
        }
        const std::string name = jobName(dist.index);
        if (fileExists(doneDir() + "/" + name + ".json") ||
            fileExists(failedDir() + "/" + name + ".json")) {
            // A slow twin already published this job (reclaim race);
            // drop the duplicate claim.
            removeFile(to);
            continue;
        }
        {
            std::lock_guard<std::mutex> lock(hb_mutex);
            held[name] = 0;
        }
        writeLease(name);
        startHeartbeat();
        out = std::move(dist);
        return true;
    }
    return false;
}

void
JobsDir::releaseClaim(const std::string& name)
{
    {
        std::lock_guard<std::mutex> lock(hb_mutex);
        held.erase(name);
    }
    removeFile(leaseDir() + "/" + name + ".lease");
}

void
JobsDir::publishResult(const DistJob& job, const JobResult& r)
{
    const std::string name = jobName(job.index);
    const std::string dir =
        r.status == JobStatus::Ok ? doneDir() : failedDir();
    // Result first, release after: a crash in between leaves a
    // published result plus a stale claim, which reclaim recognizes
    // and cleans up without re-running the job.
    atomicWriteFile(dir + "/" + name + ".json",
                    resultToJson(r, /*include_host_time=*/true) + "\n");
    removeFile(claimedDir() + "/" + name + ".job");
    releaseClaim(name);
}

void
JobsDir::abandonClaim(const DistJob& job)
{
    const std::string name = jobName(job.index);
    renameFile(claimedDir() + "/" + name + ".job",
               pendingDir() + "/" + name + ".job");
    releaseClaim(name);
}

bool
JobsDir::observeStale(const std::string& path,
                      const std::string& content)
{
    const auto now = std::chrono::steady_clock::now();
    auto [it, inserted] = observed.try_emplace(
        path, Observation{content, now});
    if (inserted)
        return false; // first sighting starts the timer
    if (it->second.content != content) {
        it->second.content = content;
        it->second.first_seen = now;
        return false;
    }
    return std::chrono::duration<double>(now - it->second.first_seen)
               .count() >= opts.lease_timeout_s;
}

std::size_t
JobsDir::reclaimExpired()
{
    std::size_t transitions = 0;
    for (const auto& file : listDir(claimedDir())) {
        if (isTmpName(file))
            continue;
        const std::string claimed = claimedDir() + "/" + file;
        const std::string name =
            file.substr(0, file.find_last_of('.'));

        // A claim whose result is already on disk is just debris
        // from a worker that died after publishing.
        if (fileExists(doneDir() + "/" + name + ".json") ||
            fileExists(failedDir() + "/" + name + ".json")) {
            removeFile(claimed);
            removeFile(leaseDir() + "/" + name + ".lease");
            ++transitions;
            continue;
        }

        const std::string lease_path =
            leaseDir() + "/" + name + ".lease";
        std::string lease;
        readFile(lease_path, lease); // missing lease = "" content
        if (!observeStale(claimed, lease))
            continue;

        std::string text;
        DistJob dist;
        if (!readFile(claimed, text) || !parseDistJob(text, dist)) {
            warn("jobs dir: quarantining unparseable claimed job "
                 "'%s'", file.c_str());
            renameFile(claimed, quarantineDir() + "/" + file);
            removeFile(lease_path);
            observed.erase(claimed);
            ++transitions;
            continue;
        }
        dist.attempts += 1;
        // Rewrite-then-rename: if we die between the two, the bumped
        // claim file is still claimed and simply expires again.
        atomicWriteFile(claimed, distJobText(dist));
        if (dist.attempts >= opts.max_attempts) {
            if (renameFile(claimed, quarantineDir() + "/" + file)) {
                warn("jobs dir: quarantined %s after %u attempts "
                     "(last lease: %s)", name.c_str(), dist.attempts,
                     lease.empty() ? "<none>" : lease.c_str());
                ++transitions;
            }
        } else {
            if (renameFile(claimed, pendingDir() + "/" + file)) {
                inform("jobs dir: reclaimed %s (attempt %u, stale "
                       "lease: %s)", name.c_str(), dist.attempts,
                       lease.empty() ? "<none>" : lease.c_str());
                ++transitions;
            }
        }
        removeFile(lease_path);
        observed.erase(claimed);
    }
    return transitions;
}

std::size_t
JobsDir::quarantinePartials()
{
    std::size_t moved = 0;
    for (const std::string& dir : {doneDir(), failedDir()}) {
        for (const auto& file : listDir(dir)) {
            if (!isTmpName(file))
                continue;
            const std::string path = dir + "/" + file;
            std::error_code ec;
            const auto size = std::filesystem::file_size(path, ec);
            if (ec)
                continue; // completed (renamed away) under us
            if (!observeStale(path, "size=" + std::to_string(size)))
                continue;
            if (renameFile(path, quarantineDir() + "/" + file)) {
                warn("jobs dir: quarantined partial result file %s",
                     file.c_str());
                ++moved;
            }
            observed.erase(path);
        }
    }
    return moved;
}

std::vector<JobResult>
JobsDir::merge(const std::vector<Job>& jobs) const
{
    std::vector<JobResult> results(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const Job& job = jobs[i];
        JobResult& out = results[i];
        out.index = job.index;
        out.label = job.label;
        out.workload = job.workload;
        out.config = job.config;
        out.axes = job.axes;

        const std::string name = jobName(job.index);
        std::string text;
        if (readFile(doneDir() + "/" + name + ".json", text) ||
            readFile(failedDir() + "/" + name + ".json", text)) {
            JobResult parsed;
            if (parseResultJson(text, parsed)) {
                // Payload from the record, identity from the job —
                // the same split the result cache uses.
                adoptPayload(out, std::move(parsed));
                continue;
            }
            out.status = JobStatus::Failed;
            out.error = "unparseable result record for " + name;
            continue;
        }
        std::string quarantined;
        if (readFile(quarantineDir() + "/" + name + ".job",
                     quarantined)) {
            DistJob dist;
            const unsigned attempts =
                parseDistJob(quarantined, dist) ? dist.attempts : 0;
            out.status = JobStatus::Failed;
            out.error = "quarantined after " +
                        std::to_string(attempts) +
                        " attempts (crashed or hung workers)";
            continue;
        }
        // No terminal file: stays Skipped (identity only).
    }
    return results;
}

// ---------------------------------------------------------------------
// Worker loop
// ---------------------------------------------------------------------

WorkerReport
runDistWorker(const DistOptions& opts,
              const std::vector<Job>* local_jobs)
{
    JobsDir dir(opts);
    WorkerReport report;

    // Wait for the orchestrator's manifest (workers may be started
    // first, e.g. across a fleet of hosts).
    const auto join_start = std::chrono::steady_clock::now();
    while (dir.manifest().total == 0) {
        if (dir.stopRequested() || workerStopRequested()) {
            report.stopped = true;
            return report;
        }
        if (std::chrono::duration<double>(
                std::chrono::steady_clock::now() - join_start)
                .count() > dir.options().join_timeout_s) {
            warn("worker %s: no manifest in %s after %.0fs; giving "
                 "up", dir.workerId().c_str(),
                 dir.options().jobs_dir.c_str(),
                 dir.options().join_timeout_s);
            report.joined = false;
            return report;
        }
        sleepFor(dir.options().poll_s);
    }

    std::vector<std::string> unrebuildable;
    std::mutex progress_mutex;
    std::size_t local_done = 0;

    while (true) {
        if (dir.stopRequested() || workerStopRequested()) {
            report.stopped = true;
            return report;
        }
        report.reclaimed += dir.reclaimExpired();
        report.quarantined += dir.quarantinePartials();

        DistJob dist;
        if (!dir.claimNext(dist, unrebuildable)) {
            const DistStatus s = dir.status();
            if (s.complete())
                return report;
            if (s.claimed == 0 && !unrebuildable.empty() &&
                s.pending <= unrebuildable.size()) {
                // Everything left is refused by this worker; leave
                // it for a compatible one.
                warn("worker %s: %zu job(s) not rebuildable by this "
                     "binary; exiting",
                     dir.workerId().c_str(), unrebuildable.size());
                return report;
            }
            sleepFor(dir.options().poll_s);
            continue;
        }

        // Resolve the claim to a runnable Job: in-memory first
        // (orchestrator lanes and bench harnesses hold the real
        // factories), file-rebuilt otherwise.
        Job job;
        bool runnable = false;
        if (local_jobs && dist.index < local_jobs->size() &&
            jobKey((*local_jobs)[dist.index]) == dist.key) {
            job = (*local_jobs)[dist.index];
            runnable = true;
        } else if (rebuildJob(dist, job)) {
            runnable = true;
        }
        if (!runnable) {
            ++report.unrebuildable;
            unrebuildable.push_back(JobsDir::jobName(dist.index) +
                                    ".job");
            dir.abandonClaim(dist);
            continue;
        }

        JobResult r;
        runJob(job, r, dir.options().checkpoint_dir);
        ++report.executed;
        dir.publishResult(dist, r);
        if (dir.options().progress) {
            std::lock_guard<std::mutex> lock(progress_mutex);
            dir.options().progress(r, ++local_done, 0);
        }
    }
}

// ---------------------------------------------------------------------
// Orchestrator
// ---------------------------------------------------------------------

std::vector<JobResult>
runDistributed(const std::vector<Job>& jobs, const DistOptions& opts,
               ResultCache* cache)
{
    std::vector<JobResult> results(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        results[i].index = jobs[i].index;
        results[i].label = jobs[i].label;
        results[i].workload = jobs[i].workload;
        results[i].config = jobs[i].config;
        results[i].axes = jobs[i].axes;
    }
    if (jobs.empty())
        return results;

    // Cache pass first, exactly like the thread-pool Runner: only
    // misses are materialized into claim files.
    std::vector<std::size_t> pending;
    pending.reserve(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (cache && cache->lookup(jobs[i], results[i]))
            continue;
        pending.push_back(i);
    }
    if (pending.empty())
        return results; // fully cached: never touch the jobs dir
    std::vector<Job> work;
    work.reserve(pending.size());
    for (const std::size_t i : pending) {
        work.push_back(jobs[i]);
        work.back().index = work.size() - 1;
    }
    // Job files carry the *work-list* index so a resumed orchestrator
    // with the same cache state maps names identically.

    JobsDir coordinator(opts);
    coordinator.clearStop();
    coordinator.materialize(work);

    // In-process lanes: the orchestrator is itself a worker fleet of
    // size opts.lanes, so a run with no external workers degrades to
    // a plain multi-threaded sweep over the same protocol.
    std::vector<std::thread> lanes;
    for (unsigned lane = 0; lane < opts.lanes; ++lane) {
        DistOptions lane_opts = opts;
        lane_opts.worker_id = coordinator.workerId() + "-lane" +
                              std::to_string(lane);
        lanes.emplace_back([lane_opts, &work] {
            runDistWorker(lane_opts, &work);
        });
    }

    // Coordinator wait loop: reclaim expired leases and quarantine
    // partial files until every job is terminal. The lanes do the
    // same from inside their claim loops; this loop matters when
    // lanes == 0 or when external workers crash after the local
    // lanes have finished their share.
    while (!coordinator.status().complete()) {
        coordinator.reclaimExpired();
        coordinator.quarantinePartials();
        sleepFor(opts.poll_s);
    }
    coordinator.requestStop(); // let external workers exit promptly
    for (auto& lane : lanes)
        lane.join();

    // Merge the terminal records back into sweep order and persist
    // fresh verified-Ok results, so a later single-host run replays
    // the distributed results byte for byte from the cache.
    const std::vector<JobResult> merged = coordinator.merge(work);
    for (std::size_t w = 0; w < pending.size(); ++w) {
        const std::size_t i = pending[w];
        results[i] = merged[w];
        results[i].index = jobs[i].index;
        if (cache)
            cache->store(jobs[i], results[i]);
    }
    return results;
}

} // namespace eve::exp
