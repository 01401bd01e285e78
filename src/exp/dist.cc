#include "exp/dist.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include <unistd.h>

#include "common/bits.hh"
#include "common/fs.hh"
#include "common/log.hh"
#include "driver/system.hh"
#include "exp/cache.hh"
#include "workloads/workload.hh"

namespace eve::exp
{

namespace
{

/**
 * Sorted stems of the files in @p dir named `<stem><suffix>` (missing
 * dir = none). Temp files (`<name>.<pid>.<n>.tmp`) never match, so
 * in-flight and abandoned writes are invisible.
 */
std::set<std::string>
stems(const std::string& dir, const std::string& suffix)
{
    std::set<std::string> out;
    std::error_code ec;
    for (const auto& entry :
         std::filesystem::directory_iterator(dir, ec)) {
        const std::string name = entry.path().filename().string();
        if (name.size() > suffix.size() &&
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) == 0)
            out.insert(name.substr(0, name.size() - suffix.size()));
    }
    return out;
}

std::string
claimName(const std::string& key, unsigned n)
{
    return "claims/" + key + "." + std::to_string(n);
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

/** Idle rescan period: a tenth of the lease, at most 0.25 s. */
double
pollSeconds(const DistOptions& opts)
{
    return std::min(0.25, opts.lease_timeout_s / 10);
}

/**
 * Fingerprint of the grid's distinct job keys: an orchestrator uses
 * it to refuse a directory built for a different sweep.
 */
std::string
gridFingerprint(const std::map<std::string, const Job*>& by_key)
{
    std::string all;
    for (const auto& [key, job] : by_key)
        all += key + "\n";
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(fnv1a64(all)));
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

/** Actors created in this process; names them apart. */
std::atomic<unsigned> actors{0};

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
    out += "key=" + job.key + "\n";
    out += "label=" + job.label + "\n";
    out += "workload=" + job.workload + "\n";
    out += "scale=" + job.scale + "\n";
    out += "config=" + job.config + "\n";
    out += "sampling=" + job.sampling + "\n";
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
    if (lines.size() != 7)
        return false;

    DistJob job;
    std::string remote_s;
    if (!lineValue(lines[0], "key", job.key) ||
        !lineValue(lines[1], "label", job.label) ||
        !lineValue(lines[2], "workload", job.workload) ||
        !lineValue(lines[3], "scale", job.scale) ||
        !lineValue(lines[4], "config", job.config) ||
        !lineValue(lines[5], "sampling", job.sampling) ||
        !lineValue(lines[6], "remote", remote_s))
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
       << " failed" << (s.complete() ? " [complete]" : "");
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
    owner_name = hostName() + "-" + std::to_string(::getpid()) + "-" +
                 std::to_string(actors++);
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

void
JobsDir::materialize(const std::vector<Job>& jobs)
{
    for (const char* sub : {"jobs", "claims", "done", "failed"})
        makeDirs(at(sub));

    // Jobs of one grid that share a key share one job file and one
    // record; the first such job names it.
    std::map<std::string, const Job*> by_key;
    for (const auto& job : jobs)
        by_key.try_emplace(jobKey(job), &job);
    const std::string grid = gridFingerprint(by_key);

    // A manifest from another protocol version or simulator salt is
    // refused like a foreign grid: its done/ records would otherwise
    // be merged, and cached, as this binary's results.
    ManifestInfo existing;
    const bool resumed = readManifest(at("manifest.txt"), existing);
    if (resumed) {
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
    for (const auto& [key, job] : by_key) {
        const std::string path = at("jobs/" + key + ".job");
        if (fileExists(path))
            continue; // written once, never changed
        DistJob dist;
        dist.key = key;
        dist.label = job->label;
        dist.workload = job->workload;
        dist.scale = job->scale;
        dist.config = configCanonical(job->config);
        dist.sampling = samplingCanonical(job->sampling);
        // Spec-less workers can only run jobs they can rebuild from
        // the file: standard-scale library workloads with no custom
        // executor. Everything else stays local to processes holding
        // the in-memory Job.
        dist.remote = !job->exec &&
                      makeWorkloadScaled(job->workload,
                                         job->scale) != nullptr;
        atomicWriteFile(path, distJobText(dist));
        ++created;
    }

    // The manifest is written last: its presence tells workers that
    // every job file exists and names the grid they must match.
    if (!resumed) {
        std::string text;
        text += "version=" + std::string(kDistProtocolVersion) + "\n";
        text += "salt=" + std::string(kSimulatorSalt) + "\n";
        text += "total=" + std::to_string(by_key.size()) + "\n";
        text += "grid=" + grid + "\n";
        atomicWriteFile(at("manifest.txt"), text);
    }
    if (created > 0)
        inform("jobs dir %s: materialized %zu of %zu jobs",
               opts.jobs_dir.c_str(), created, by_key.size());
}

DistStatus
JobsDir::manifest() const
{
    DistStatus s;
    ManifestInfo info;
    if (!readManifest(at("manifest.txt"), info))
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
    for (const auto& key : stems(at("jobs"), ".job")) {
        if (fileExists(at("done/" + key + ".json")))
            ++s.done;
        else if (fileExists(at("failed/" + key + ".json")))
            ++s.failed;
        else if (fileExists(at(claimName(key, 0))))
            ++s.claimed;
        else
            ++s.pending;
    }
    return s;
}

bool
JobsDir::stopRequested() const
{
    return fileExists(at("stop"));
}

void
JobsDir::requestStop()
{
    makeDirs(opts.jobs_dir);
    atomicWriteFile(at("stop"), "stop\n");
}

void
JobsDir::clearStop()
{
    removeFile(at("stop"));
}

const std::vector<DistJob>&
JobsDir::jobFiles()
{
    if (!job_files.empty())
        return job_files;
    for (const auto& key : stems(at("jobs"), ".job")) {
        std::string text;
        DistJob dist;
        if (!readFile(at("jobs/" + key + ".job"), text) ||
            !parseDistJob(text, dist) || dist.key != key) {
            warn("jobs dir: ignoring malformed job file '%s.job'",
                 key.c_str());
            continue;
        }
        job_files.push_back(std::move(dist));
    }
    return job_files;
}

void
JobsDir::heartbeatLoop()
{
    const std::chrono::duration<double> period(opts.lease_timeout_s / 10);
    std::unique_lock<std::mutex> lock(hb_mutex);
    while (!hb_cv.wait_for(lock, period, [this] { return hb_stop; })) {
        std::vector<std::pair<std::string, std::uint64_t>> due;
        for (auto& [key, claim] : held)
            due.emplace_back(claim.path, ++claim.seq);
        lock.unlock();
        // Rewrite this actor's own file in place, without truncation:
        // the content only grows (seq counts up), so no reader sees
        // an empty claim, and a torn read at worst resets an
        // observer's staleness timer.
        for (const auto& [path, seq] : due)
            std::ofstream(path, std::ios::in | std::ios::out)
                << owner_name << " " << seq << "\n";
        lock.lock();
    }
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

void
JobsDir::abandon(const DistJob& job, const std::string& last_claim)
{
    const std::string path = at("failed/" + job.key + ".json");
    if (fileExists(path))
        return; // another observer got there first
    const std::string last_owner =
        last_claim.substr(0, last_claim.find_first_of(" \n"));
    JobResult r;
    r.label = job.label;
    r.workload = job.workload;
    parseConfigCanonical(job.config, r.config);
    r.status = JobStatus::Failed;
    r.error = "abandoned after " + std::to_string(kMaxClaims) +
              " claims (crashed or hung workers; last claim by " +
              (last_owner.empty() ? "<unknown>" : last_owner) + ")";
    writeRecordFile(path, r);
    warn("jobs dir: %s %s", job.key.c_str(), r.error.c_str());
}

bool
JobsDir::claimNext(DistJob& out, const CanRun& can_run)
{
    const std::vector<DistJob>& all = jobFiles();
    // Start the scan at a per-actor offset so a fleet does not
    // stampede the same job.
    const std::size_t start =
        all.empty() ? 0 : fnv1a64(owner_name) % all.size();
    for (std::size_t i = 0; i < all.size(); ++i) {
        const DistJob& job = all[(start + i) % all.size()];
        if (fileExists(at("done/" + job.key + ".json")) ||
            fileExists(at("failed/" + job.key + ".json")))
            continue;
        {
            std::lock_guard<std::mutex> lock(hb_mutex);
            if (held.count(job.key))
                continue;
        }
        // Claim N+1 is only ever created after claim N.
        unsigned claims = 0;
        while (claims < kMaxClaims &&
               fileExists(at(claimName(job.key, claims))))
            ++claims;
        bool claimable = claims == 0;
        if (claims > 0) {
            // Watch the newest claim even of jobs this actor cannot
            // run: abandoning needs no ability to run the job.
            const std::string newest = at(claimName(job.key, claims - 1));
            std::string content;
            readFile(newest, content); // unreadable = "" content
            claimable = observeStale(newest, content);
            if (claimable && claims == kMaxClaims) {
                abandon(job, content);
                continue;
            }
        }
        if (can_run && !can_run(job))
            continue;
        // Of the actors racing for claim N, exactly one create wins.
        const std::string path = at(claimName(job.key, claims));
        if (!claimable ||
            !createExclusive(path, owner_name + " 0\n"))
            continue;
        if (claims > 0)
            inform("jobs dir: %s claimed by %s after %u stale "
                   "claim(s)", job.key.c_str(), owner_name.c_str(),
                   claims);
        {
            std::lock_guard<std::mutex> lock(hb_mutex);
            held[job.key] = HeldClaim{path, 0};
            if (!hb_thread.joinable())
                hb_thread = std::thread([this] { heartbeatLoop(); });
        }
        out = job;
        return true;
    }
    return false;
}

void
JobsDir::publishResult(const DistJob& job, const JobResult& r)
{
    const std::string path =
        at((r.status == JobStatus::Ok ? "done/" : "failed/") + job.key +
           ".json");
    // A twin that ran the job after this actor's claim went stale may
    // have published already; its record carries the same payload.
    if (!fileExists(path))
        writeRecordFile(path, r);
    std::lock_guard<std::mutex> lock(hb_mutex);
    held.erase(job.key);
}

std::vector<JobResult>
JobsDir::merge(const std::vector<Job>& jobs) const
{
    std::vector<JobResult> results(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const Job& job = jobs[i];
        JobResult& out = results[i];
        adoptIdentity(out, job);

        const std::string key = jobKey(job);
        std::string path = at("done/" + key + ".json");
        if (!fileExists(path))
            path = at("failed/" + key + ".json");
        if (!fileExists(path))
            continue; // no record: stays Skipped (identity only)
        JobResult parsed;
        if (!readRecordFile(path, parsed)) {
            out.status = JobStatus::Failed;
            out.error = "unparseable result record for " + key;
            continue;
        }
        // Payload from the record, identity from the job — the same
        // split the result cache uses.
        adoptPayload(out, std::move(parsed));
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
    const double poll = pollSeconds(opts);

    // Wait for the orchestrator's manifest (workers may be started
    // first, e.g. across a fleet of hosts).
    const double join_timeout = 10 * opts.lease_timeout_s;
    const auto join_start = std::chrono::steady_clock::now();
    while (dir.manifest().total == 0) {
        if (dir.stopRequested() || workerStopRequested()) {
            report.stopped = true;
            return report;
        }
        if (std::chrono::duration<double>(
                std::chrono::steady_clock::now() - join_start)
                .count() > join_timeout) {
            warn("worker %s: no manifest in %s after %.0fs; giving "
                 "up", dir.owner().c_str(), opts.jobs_dir.c_str(),
                 join_timeout);
            report.joined = false;
            return report;
        }
        sleepFor(poll);
    }

    // Resolve each job once, before any claim: in-memory first
    // (orchestrator lanes and bench harnesses hold the real
    // factories), file-rebuilt otherwise.
    std::map<std::string, const Job*> local;
    if (local_jobs)
        for (const auto& job : *local_jobs)
            local.try_emplace(jobKey(job), &job);
    std::map<std::string, Job> runnable;
    std::set<std::string> refused;
    bool wanted = false; // an unfinished job this worker can run
    const auto can_run = [&](const DistJob& dist) {
        if (runnable.count(dist.key))
            return wanted = true;
        if (refused.count(dist.key))
            return false;
        Job job;
        const auto it = local.find(dist.key);
        if (it != local.end()) {
            job = *it->second;
        } else if (!rebuildJob(dist, job)) {
            refused.insert(dist.key);
            ++report.unrebuildable;
            return false;
        }
        runnable.emplace(dist.key, std::move(job));
        return wanted = true;
    };

    while (true) {
        if (dir.stopRequested() || workerStopRequested()) {
            report.stopped = true;
            return report;
        }
        wanted = false;
        DistJob dist;
        if (!dir.claimNext(dist, can_run)) {
            if (dir.status().complete())
                return report;
            if (!wanted) {
                // Everything left is refused by this worker; leave
                // it for a compatible one.
                warn("worker %s: %zu job(s) not rebuildable by this "
                     "binary; exiting", dir.owner().c_str(),
                     refused.size());
                return report;
            }
            sleepFor(poll);
            continue;
        }

        JobResult r;
        runJob(runnable.at(dist.key), r, opts.checkpoint_dir);
        ++report.executed;
        dir.publishResult(dist, r);
        if (opts.progress)
            opts.progress(r, report.executed, 0);
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
    for (std::size_t i = 0; i < jobs.size(); ++i)
        adoptIdentity(results[i], jobs[i]);
    if (jobs.empty())
        return results;

    // Cache pass first, exactly like the thread-pool Runner: only
    // misses are materialized into job files.
    std::vector<std::size_t> pending;
    std::vector<Job> work;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (cache && cache->lookup(jobs[i], results[i]))
            continue;
        pending.push_back(i);
        work.push_back(jobs[i]);
    }
    if (pending.empty())
        return results; // fully cached: never touch the jobs dir

    JobsDir coordinator(opts);
    coordinator.clearStop();
    coordinator.materialize(work);

    // In-process lanes: the orchestrator is itself a worker fleet of
    // size opts.lanes, so a run with no external workers degrades to
    // a plain multi-threaded sweep over the same protocol.
    std::mutex progress_mutex;
    std::size_t local_done = 0;
    DistOptions lane_opts = opts;
    if (opts.progress)
        lane_opts.progress = [&](const JobResult& r, std::size_t,
                                 std::size_t) {
            std::lock_guard<std::mutex> lock(progress_mutex);
            opts.progress(r, ++local_done, work.size());
        };
    std::vector<std::thread> lanes;
    for (unsigned lane = 0; lane < opts.lanes; ++lane)
        lanes.emplace_back(
            [&lane_opts, &work] { runDistWorker(lane_opts, &work); });

    // Coordinator wait loop. It claims nothing, but its passes
    // abandon jobs whose last claim went stale — which matters when
    // lanes == 0 or every worker that could observe them is gone.
    const auto observe_only = [](const DistJob&) { return false; };
    while (!coordinator.status().complete()) {
        DistJob unused;
        coordinator.claimNext(unused, observe_only);
        sleepFor(pollSeconds(opts));
    }
    coordinator.requestStop(); // let external workers exit promptly
    for (auto& lane : lanes)
        lane.join();

    // Merge the result records back into sweep order and persist
    // fresh verified-Ok results, so a later single-host run replays
    // the distributed results byte for byte from the cache.
    const std::vector<JobResult> merged = coordinator.merge(work);
    for (std::size_t w = 0; w < pending.size(); ++w) {
        const std::size_t i = pending[w];
        results[i] = merged[w];
        if (cache)
            cache->store(jobs[i], results[i]);
    }
    return results;
}

} // namespace eve::exp
