/**
 * @file
 * Distributed sweep execution over a shared-directory job-file
 * protocol.
 *
 * An orchestrator writes a sweep's jobs into a jobs directory (local
 * disk for multi-process runs, a shared NFS export for multi-host
 * runs). Worker processes — the same `eve_sweep` binary started with
 * `--worker --jobs-dir DIR` — claim a job by creating a claim file
 * with O_CREAT|O_EXCL, keep the claim alive by rewriting it while
 * they simulate, and publish the result through fsync-and-rename.
 * Each protocol file is written only by the actor that created it,
 * and each job's state is read off which files exist, so no two
 * actors ever race on one file.
 *
 * Directory layout (KEY is the job's content key, exp/cache.hh):
 *
 *   manifest.txt     protocol version, salt, distinct-key count and
 *                    grid hash; written last, so its presence means
 *                    every job file exists
 *   jobs/KEY.job     the job (key=value lines); written once, never
 *                    changed
 *   claims/KEY.N     claim N of the job, N < kMaxClaims; created with
 *                    O_CREAT|O_EXCL, holds "<owner> <seq>", rewritten
 *                    by its creator's heartbeat every lease/10, and
 *                    never renamed or removed
 *   done/KEY.json    verified-Ok result record (resultToJson)
 *   failed/KEY.json  deterministic failure (threw / mismatched), or
 *                    abandonment
 *   stop             drop this file to make every worker exit
 *
 * Job states, derived from those files:
 *
 *   finished   done/KEY.json or failed/KEY.json exists
 *   claimable  unfinished, and either unclaimed or its newest claim
 *              has not changed for the lease timeout; of the actors
 *              racing to create the next claim exactly one wins
 *   abandoned  claim kMaxClaims-1 went stale too: the observer writes
 *              failed/KEY.json, so a job that kills every worker that
 *              runs it ends the sweep instead of looping
 *   complete   every job of the manifest is finished
 *
 * Staleness is judged content-locally: each observer tracks a claim's
 * content against its own monotonic clock, so clock skew between NFS
 * clients cannot cause a false takeover. A hung worker whose claim
 * went stale may still publish after the job ran elsewhere; both runs
 * of a deterministic job carry the same payload, so execution is
 * at-least-once and the merged result set holds one record per key.
 * Temp files of writers that died mid-write (`*.tmp`) are ignored by
 * every reader.
 *
 * Every job file carries the job's content key. A spec-less worker
 * rebuilds the job from the file alone and recomputes the key; a
 * worker never claims a job it cannot run (diverged binary, another
 * simulator salt, a custom executor), so no claim is ever given back.
 *
 * The orchestrator degrades gracefully to a single-process run: by
 * default it executes jobs through its own in-process lanes (thread
 * count = --threads), so external workers are an accelerant, never a
 * requirement.
 */

#ifndef EVE_EXP_DIST_HH
#define EVE_EXP_DIST_HH

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "exp/runner.hh"
#include "exp/sweep.hh"

namespace eve::exp
{

/**
 * Bumped whenever the on-disk protocol changes incompatibly; the
 * manifest check then refuses directories of other versions.
 * v3: files are named by content key, claims are exclusive creates.
 */
inline constexpr const char* kDistProtocolVersion = "eve-dist-v3";

/** Claims a job may receive before it is abandoned. */
inline constexpr unsigned kMaxClaims = 3;

class ResultCache;

/** Settings shared by the orchestrator and worker entry points. */
struct DistOptions
{
    std::string jobs_dir;

    /**
     * Seconds a claim may stay unchanged before another actor takes
     * the job over. The other timings derive from it: heartbeat
     * lease/10, idle poll min(0.25 s, lease/10), and a worker waits
     * 10 x lease for the manifest.
     */
    double lease_timeout_s = 60;

    /**
     * Orchestrator-side in-process execution lanes. 0 = coordinate
     * only (wait, abandon, merge) and execute nothing locally.
     */
    unsigned lanes = 1;

    /**
     * Directory for functional-state checkpoints ("" = none),
     * used by locally-executed sampled jobs (see RunnerOptions).
     */
    std::string checkpoint_dir;

    /** Per locally-executed job; serialized across lanes. done counts
     *  *locally* executed jobs, total the jobs sent to the jobs dir. */
    ProgressFn progress;
};

/** One job file (the on-disk form of a claimable job). */
struct DistJob
{
    std::string key;      ///< jobKey under kSimulatorSalt
    std::string label;
    std::string workload; ///< workload name (makeWorkload)
    std::string scale;    ///< "small" / "full" / custom tag
    std::string config;   ///< configCanonical text

    /** samplingCanonical text; "" = exact simulation. */
    std::string sampling;

    bool remote = false;  ///< rebuildable by spec-less workers
};

/** Serialize @p job as key=value lines. */
std::string distJobText(const DistJob& job);

/** Parse distJobText() output; false on malformed input. */
bool parseDistJob(const std::string& text, DistJob& out);

/**
 * Rebuild a runnable Job from a job file alone: parse the canonical
 * config, recreate the workload factory via makeWorkload, and verify
 * that the rebuilt job's content key equals the recorded one (which
 * fails when the binary's simulator salt, SystemConfig layout, or
 * key scheme diverged from the orchestrator's). Returns false for
 * local-only jobs (@ref DistJob::remote unset) and on any mismatch.
 */
bool rebuildJob(const DistJob& dist, Job& out);

/** Aggregate state of a jobs directory, one state per job. */
struct DistStatus
{
    std::size_t total = 0;   ///< manifest job count (0 = none yet)
    std::size_t pending = 0; ///< unfinished, never claimed
    std::size_t claimed = 0; ///< unfinished, claimed (live or stale)
    std::size_t done = 0;
    std::size_t failed = 0;  ///< failed or abandoned

    bool
    complete() const
    {
        return total > 0 && done + failed >= total;
    }
};

/** One-line human-readable rendering of @p s. */
std::string formatDistStatus(const DistStatus& s);

/**
 * Cooperative process-wide stop for worker loops, settable from a
 * signal handler (a relaxed atomic store, async-signal-safe). A
 * worker that observes it finishes and publishes its in-flight job
 * and returns with stopped=true — Ctrl-C costs nothing instead of a
 * lease timeout.
 */
void requestWorkerStop();
bool workerStopRequested();

/**
 * Protocol handle over one jobs directory: one *actor*, named
 * `<host>-<pid>-<n>` where n counts the actors of this process. Each
 * concurrent actor (worker process, orchestrator lane) uses its own
 * JobsDir; one background heartbeat thread rewrites all of its
 * claims.
 */
class JobsDir
{
  public:
    /** Whether this actor can run a job (see claimNext()). */
    using CanRun = std::function<bool(const DistJob&)>;

    explicit JobsDir(DistOptions options);
    ~JobsDir();

    JobsDir(const JobsDir&) = delete;
    JobsDir& operator=(const JobsDir&) = delete;

    const std::string& owner() const { return owner_name; }

    /**
     * Orchestrator: create the directory tree, write the job file of
     * every distinct key that has none (so a re-run over a partially
     * completed directory resumes), then write the manifest if absent.
     * Fatal if the directory holds a different sweep: a manifest
     * whose grid, protocol version or simulator salt differs.
     */
    void materialize(const std::vector<Job>& jobs);

    /**
     * The manifest, parsed; total == 0 when absent, unreadable, or
     * written under another protocol version or simulator salt.
     */
    DistStatus manifest() const;

    /** Read every job's state off which files exist. */
    DistStatus status() const;

    /** True when the stop marker exists. */
    bool stopRequested() const;

    /** Drop / remove the stop marker telling workers to exit. */
    void requestStop();
    void clearStop();

    /**
     * One pass over the unfinished jobs. Each is offered to
     * @p can_run (empty = run anything); the first claimable one it
     * accepts is claimed by creating its next claim file, heartbeat
     * included, and returned in @p out. Jobs whose last claim went
     * stale are abandoned along the way. Returns false when nothing
     * was claimed.
     */
    bool claimNext(DistJob& out, const CanRun& can_run = {});

    /**
     * Publish the result of a claimed job — done/ for verified-Ok,
     * failed/ for deterministic Mismatch/Failed — unless that record
     * already exists, then stop heartbeating the claim.
     */
    void publishResult(const DistJob& job, const JobResult& r);

    /**
     * Assemble results for @p jobs from the result records: payload
     * from the record, identity from the in-memory job. Jobs with no
     * record stay Skipped.
     */
    std::vector<JobResult> merge(const std::vector<Job>& jobs) const;

  private:
    struct Observation
    {
        std::string content;
        std::chrono::steady_clock::time_point first_seen;
    };

    struct HeldClaim
    {
        std::string path;
        std::uint64_t seq = 0;
    };

    std::string at(const std::string& rel) const
    {
        return opts.jobs_dir + "/" + rel;
    }

    /** The job files, read once (they never change). */
    const std::vector<DistJob>& jobFiles();

    void abandon(const DistJob& job, const std::string& last_claim);
    void heartbeatLoop();

    /** Unchanged-for-the-lease check against this observer's clock. */
    bool observeStale(const std::string& path,
                      const std::string& content);

    DistOptions opts;
    std::string owner_name;
    std::vector<DistJob> job_files;

    std::mutex hb_mutex;
    std::condition_variable hb_cv;
    std::map<std::string, HeldClaim> held; ///< key -> live claim
    bool hb_stop = false;
    std::thread hb_thread;

    /** Claim content observations for staleness tracking. */
    std::map<std::string, Observation> observed;
};

/** What a worker loop did before returning. */
struct WorkerReport
{
    std::size_t executed = 0;     ///< jobs simulated locally
    std::size_t unrebuildable = 0;///< jobs refused (key mismatch…)
    bool stopped = false;         ///< exited on stop marker/flag
    bool joined = true;           ///< manifest appeared in time
};

/**
 * The worker claim loop: wait for the manifest, then claim and
 * execute jobs until the sweep is complete, nothing left is runnable
 * here, or stop is requested. @p local_jobs, when given, supplies
 * in-memory Jobs by content key (orchestrator lanes; required for
 * local-only jobs) — otherwise jobs are rebuilt from their files.
 */
WorkerReport runDistWorker(const DistOptions& opts,
                           const std::vector<Job>* local_jobs = nullptr);

/**
 * Orchestrate @p jobs through @p opts.jobs_dir: serve cache hits
 * first (exactly like the thread-pool Runner), materialize the
 * misses, execute through opts.lanes in-process lanes alongside any
 * external workers, wait for completion, merge, and store fresh
 * verified-Ok results into @p cache. Results are index-ordered and —
 * by the determinism of the simulator and the byte-exact record
 * round trip — carry payloads byte-identical to a single-host run of
 * the same sweep.
 */
std::vector<JobResult> runDistributed(const std::vector<Job>& jobs,
                                      const DistOptions& opts,
                                      ResultCache* cache = nullptr);

} // namespace eve::exp

#endif // EVE_EXP_DIST_HH
