/**
 * @file
 * Distributed sweep execution over a shared-directory job-file
 * protocol.
 *
 * An orchestrator materializes a sweep's jobs into one *claim file*
 * each under a jobs directory (local disk for multi-process runs, a
 * shared NFS export for multi-host runs). Worker processes — the
 * same `eve_sweep` binary started with `--worker --jobs-dir DIR` —
 * claim jobs by atomically rename(2)-ing the claim file, renew a
 * lease file while simulating, and publish results through
 * fsync-and-rename, so every protocol transition is a single atomic
 * filesystem operation and a reader can never observe a torn state.
 *
 * Directory layout (all under the jobs dir):
 *
 *   manifest.txt        protocol version, salt, job count, grid hash;
 *                       written last, so its presence means the
 *                       materialization is complete
 *   pending/job-N.job   unclaimed jobs (key=value lines)
 *   claimed/job-N.job   claimed jobs (renamed from pending/)
 *   leases/job-N.lease  heartbeat: "<worker-id> <seq>", rewritten
 *                       every heartbeat period while the job runs
 *   done/job-N.json     verified-Ok result records (resultToJson)
 *   failed/job-N.json   deterministic failures (threw / mismatched)
 *   quarantine/         jobs that exhausted their retry budget, and
 *                       partial `*.tmp` result files left by writers
 *                       that died mid-write
 *   stop                drop this file to make every worker exit
 *
 * Job state machine:
 *
 *   pending --claim (rename)--> claimed --lease renewed--> leased
 *   leased --Ok/Mismatch/Failed result--> done | failed   (terminal)
 *   leased --lease expires--> pending (attempts+1)
 *   leased --lease expires, attempts >= max--> quarantined (terminal)
 *
 * Crash safety and liveness:
 *
 *  - Claims are exclusive because rename(2) of one source succeeds in
 *    exactly one racing process (the loser sees ENOENT).
 *  - Lease freshness is judged *content-locally*: every observer
 *    tracks each lease's content and its own monotonic clock, and
 *    declares expiry only after the content has not changed for the
 *    lease timeout. No cross-host clock comparison is involved, so
 *    clock skew between NFS clients cannot cause false reclaims.
 *  - A worker that dies between publishing its result and releasing
 *    its claim is detected by reclaim (result file already present)
 *    and merely cleaned up, not re-run.
 *  - A hung worker whose job was reclaimed and re-run elsewhere may
 *    eventually publish a duplicate result; both records carry the
 *    identical deterministic payload and the terminal rename just
 *    replaces one with the other. Execution is at-least-once; the
 *    merged result set is exactly-once (one record per job index).
 *  - Every job file carries the job's content key (exp/cache.hh). A
 *    worker rebuilds the job from the file alone and recomputes the
 *    key; a mismatch (diverged binary, different simulator salt)
 *    makes the worker leave the job for someone else rather than
 *    publish wrong-version numbers.
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
 * Bumped whenever the on-disk protocol changes incompatibly.
 * v2: job files carry a sampling= line (interval-sampled sweeps) and
 * scale may be "paper" — v1 binaries would quarantine the job files
 * one by one, so the manifest version stops them up front instead.
 */
inline constexpr const char* kDistProtocolVersion = "eve-dist-v2";

class ResultCache;

/** Tunables shared by the orchestrator and worker entry points. */
struct DistOptions
{
    std::string jobs_dir;

    /** Stable identity written into leases ("" = "<host>-<pid>"). */
    std::string worker_id;

    /** Seconds a lease may stay unrenewed before reclaim. */
    double lease_timeout_s = 60;

    /** Lease renewal period while a job runs. */
    double heartbeat_s = 2;

    /** Idle rescan period (claim loop and orchestrator wait). */
    double poll_s = 0.25;

    /** Worker: seconds to wait for the manifest to appear. */
    double join_timeout_s = 600;

    /** Claims per job before it is quarantined (>= 1). */
    unsigned max_attempts = 3;

    /**
     * Orchestrator-side in-process execution lanes. 0 = coordinate
     * only (reclaim, wait, merge) and execute nothing locally.
     */
    unsigned lanes = 1;

    /**
     * Directory for functional-state checkpoints ("" = none),
     * used by locally-executed sampled jobs (see RunnerOptions).
     */
    std::string checkpoint_dir;

    /** Per locally-executed job; serialized. done/total are counts
     *  of *locally* executed jobs, not sweep-wide state. */
    ProgressFn progress;
};

/** One job-file record (the on-disk form of a claimable job). */
struct DistJob
{
    std::size_t index = 0;
    std::string key;      ///< jobKey under kSimulatorSalt
    std::string label;
    std::string workload; ///< workload name (makeWorkload)
    std::string scale;    ///< "small" / "full" / custom tag
    std::string config;   ///< configCanonical text

    /** samplingCanonical text; "" = exact simulation. */
    std::string sampling;

    unsigned attempts = 0;
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

/** Aggregate state of a jobs directory. */
struct DistStatus
{
    std::size_t total = 0;       ///< manifest job count (0 = none yet)
    std::size_t pending = 0;
    std::size_t claimed = 0;
    std::size_t done = 0;
    std::size_t failed = 0;
    std::size_t quarantined = 0; ///< quarantined jobs (not tmp files)

    bool
    complete() const
    {
        return total > 0 && done + failed + quarantined >= total;
    }
};

/** One-line human-readable rendering of @p s. */
std::string formatDistStatus(const DistStatus& s);

/**
 * Cooperative process-wide stop for worker loops, settable from a
 * signal handler (a relaxed atomic store, async-signal-safe). A
 * worker that observes it finishes and publishes its in-flight job,
 * releases nothing mid-protocol, and returns with stopped=true —
 * Ctrl-C costs nothing instead of a lease timeout.
 */
void requestWorkerStop();
bool workerStopRequested();

/**
 * Protocol handle over one jobs directory. Each concurrent actor
 * (worker process, orchestrator lane) uses its own JobsDir; a single
 * instance may hold several claims at once, and one background
 * heartbeat thread renews all of its leases.
 */
class JobsDir
{
  public:
    explicit JobsDir(DistOptions options);
    ~JobsDir();

    JobsDir(const JobsDir&) = delete;
    JobsDir& operator=(const JobsDir&) = delete;

    const DistOptions& options() const { return opts; }
    const std::string& workerId() const { return worker_id; }

    /**
     * Orchestrator: create the directory tree, write one pending
     * claim file per job not already present in any state (so a
     * re-run over a partially completed directory resumes instead of
     * duplicating), then write the manifest. Fatal if the directory
     * holds a different sweep: a manifest whose grid, protocol
     * version or simulator salt differs.
     */
    void materialize(const std::vector<Job>& jobs);

    /**
     * The manifest, parsed; total == 0 when absent, unreadable, or
     * written under another protocol version or simulator salt.
     */
    DistStatus manifest() const;

    /** Scan every state directory and count. */
    DistStatus status() const;

    /** True when the stop marker exists. */
    bool stopRequested() const;

    /** Drop / remove the stop marker telling workers to exit. */
    void requestStop();
    void clearStop();

    /**
     * Try to claim one pending job: atomically rename its claim file
     * into claimed/, write the first lease, and start heartbeating
     * it. Jobs named in @p skip are not attempted (a worker's own
     * unrebuildable set). Returns false when nothing was claimable.
     */
    bool claimNext(DistJob& out,
                   const std::vector<std::string>& skip = {});

    /**
     * Publish the result of a claimed job — done/ for verified-Ok,
     * failed/ for deterministic Mismatch/Failed — then release the
     * claim and stop its heartbeat.
     */
    void publishResult(const DistJob& job, const JobResult& r);

    /**
     * Give a claim back (rename claimed -> pending, without an
     * attempt bump) and stop its heartbeat. Used when a worker
     * cannot run a job it claimed (rebuild refused).
     */
    void abandonClaim(const DistJob& job);

    /**
     * Reclaim pass, callable from any process, any number of times:
     * claimed jobs whose lease content has not changed for the lease
     * timeout (on this observer's monotonic clock) go back to
     * pending with attempts+1, or to quarantine/ once attempts
     * reaches max_attempts; claims whose result was already
     * published are cleaned up. Returns the number of transitions.
     */
    std::size_t reclaimExpired();

    /**
     * Quarantine `*.tmp` result files that have not grown or changed
     * for the lease timeout — the leftovers of a result writer that
     * died mid-write. Returns the number quarantined.
     */
    std::size_t quarantinePartials();

    /**
     * Assemble index-ordered results for @p jobs from the terminal
     * directories: done/failed records are parsed back (payload from
     * the record, identity from the in-memory job), quarantined jobs
     * become Failed with a descriptive error, and jobs with no
     * terminal file stay Skipped.
     */
    std::vector<JobResult> merge(const std::vector<Job>& jobs) const;

    std::string pendingDir() const { return opts.jobs_dir + "/pending"; }
    std::string claimedDir() const { return opts.jobs_dir + "/claimed"; }
    std::string leaseDir() const { return opts.jobs_dir + "/leases"; }
    std::string doneDir() const { return opts.jobs_dir + "/done"; }
    std::string failedDir() const { return opts.jobs_dir + "/failed"; }
    std::string quarantineDir() const
    {
        return opts.jobs_dir + "/quarantine";
    }
    std::string manifestPath() const
    {
        return opts.jobs_dir + "/manifest.txt";
    }
    std::string stopPath() const { return opts.jobs_dir + "/stop"; }

    /** "job-000042" for index 42 (stable sort order to 10^6 jobs). */
    static std::string jobName(std::size_t index);

  private:
    struct Observation
    {
        std::string content;
        std::chrono::steady_clock::time_point first_seen;
    };

    void writeLease(const std::string& name);
    void releaseClaim(const std::string& name);
    void startHeartbeat();
    void heartbeatLoop();

    /** Stale-for-timeout check against this observer's clock. */
    bool observeStale(const std::string& path,
                      const std::string& content);

    DistOptions opts;
    std::string worker_id;

    std::mutex hb_mutex;
    std::condition_variable hb_cv;
    std::map<std::string, std::uint64_t> held; ///< lease name -> seq
    std::thread hb_thread;
    bool hb_stop = false;

    /** Lease/tmp-file content observations for staleness tracking. */
    std::map<std::string, Observation> observed;
};

/** What a worker loop did before returning. */
struct WorkerReport
{
    std::size_t executed = 0;     ///< jobs simulated locally
    std::size_t reclaimed = 0;    ///< lease-expiry transitions
    std::size_t quarantined = 0;  ///< partial files quarantined
    std::size_t unrebuildable = 0;///< claims refused (key mismatch…)
    bool stopped = false;         ///< exited on stop marker/flag
    bool joined = true;           ///< manifest appeared in time
};

/**
 * The worker claim loop: wait for the manifest, then claim and
 * execute jobs until the sweep is complete (every job terminal) or
 * stop is requested, reclaiming expired leases and quarantining
 * partial files along the way. @p local_jobs, when given, maps job
 * indices to in-memory Jobs (orchestrator lanes; required for
 * local-only jobs) — otherwise jobs are rebuilt from their files.
 */
WorkerReport runDistWorker(const DistOptions& opts,
                           const std::vector<Job>* local_jobs = nullptr);

/**
 * Orchestrate @p jobs through @p opts.jobs_dir: serve cache hits
 * first (exactly like the thread-pool Runner), materialize the
 * misses, execute through opts.lanes in-process lanes alongside any
 * external workers, wait for completion (reclaiming as needed),
 * merge, and store fresh verified-Ok results into @p cache. Results
 * are index-ordered and — by the determinism of the simulator and
 * the byte-exact record round trip — carry payloads byte-identical
 * to a single-host run of the same sweep.
 */
std::vector<JobResult> runDistributed(const std::vector<Job>& jobs,
                                      const DistOptions& opts,
                                      ResultCache* cache = nullptr);

} // namespace eve::exp

#endif // EVE_EXP_DIST_HH
