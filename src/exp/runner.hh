/**
 * @file
 * Thread-pool sweep execution.
 *
 * The Runner executes the independent (config, workload) jobs of a
 * SweepSpec on a pool of worker threads. Each job builds a private
 * System and Workload, so jobs share no mutable state and the
 * simulated results are identical whatever the thread count.
 *
 * Guarantees:
 *  - results are keyed by job index (deterministic ordering, never
 *    completion order);
 *  - a throwing or functionally mismatching job is recorded with a
 *    non-Ok status instead of aborting the sweep (policy Record);
 *    policy Abort stops scheduling new jobs after the first failure
 *    but still returns every result produced so far;
 *  - the progress callback is serialized (called under a mutex) and
 *    observes monotonically increasing completion counts.
 */

#ifndef EVE_EXP_RUNNER_HH
#define EVE_EXP_RUNNER_HH

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "driver/system.hh"
#include "exp/sweep.hh"

namespace eve::exp
{

/** Outcome of one job. */
enum class JobStatus
{
    Ok,       ///< simulation ran and the functional check passed
    Mismatch, ///< simulation ran but verify() found mismatches
    Failed,   ///< the job threw; RunResult is not meaningful
    Skipped,  ///< not executed (Abort policy stopped the sweep)
    Cached,   ///< restored from a ResultCache; payload was an Ok run
};

/**
 * Printable status name ("ok", "mismatch", "failed", "skipped",
 * "cached").
 */
const char* jobStatusName(JobStatus status);

/** One job together with its outcome. */
struct JobResult
{
    std::size_t index = 0;    ///< job index within the sweep
    std::string label;        ///< from Job::label
    std::string workload;     ///< from Job::workload
    SystemConfig config;      ///< from Job::config
    std::vector<std::pair<std::string, std::string>> axes;

    /**
     * Basename of the artifact a loaded record came from
     * (report::loadSweepFile); empty otherwise, and never serialized.
     */
    std::string source;

    JobStatus status = JobStatus::Skipped;
    std::string error;        ///< exception text when Failed
    double wall_seconds = 0;  ///< host wall-clock time of the job
    RunResult result;         ///< valid when status != Failed/Skipped
};

/** What to do when a job fails. */
enum class FailurePolicy
{
    Record, ///< mark the job failed, keep sweeping (default)
    Abort,  ///< stop handing out new jobs after the first failure
};

/** Called after each job completes; serialized across workers. */
using ProgressFn = std::function<void(
    const JobResult& r, std::size_t done, std::size_t total)>;

class ResultCache;

struct RunnerOptions
{
    /** Worker count; 0 means std::thread::hardware_concurrency(). */
    unsigned threads = 0;
    FailurePolicy on_failure = FailurePolicy::Record;
    ProgressFn progress;

    /**
     * Optional content-hash result cache (not owned). Jobs whose key
     * is present are marked Cached and not executed; fresh Ok results
     * are stored back after the run. See exp/cache.hh.
     */
    ResultCache* cache = nullptr;

    /**
     * Directory for functional-state checkpoints ("" = none); only
     * sampled jobs use it. Sweep jobs sharing a (workload, scale,
     * vector-length, schedule) prefix restore one snapshot instead
     * of each re-running the functional fast-forward. See
     * sim/checkpoint.hh.
     */
    std::string checkpoint_dir;
};

/** Executes sweep jobs on a thread pool. */
class Runner
{
  public:
    explicit Runner(RunnerOptions options = {});

    /** Expand @p spec and run every job; results ordered by index. */
    std::vector<JobResult> run(const SweepSpec& spec) const;

    /** Run an explicit job list; results ordered by index. */
    std::vector<JobResult> run(const std::vector<Job>& jobs) const;

    /** The worker count a run() call will use. */
    unsigned effectiveThreads(std::size_t job_count) const;

  private:
    RunnerOptions opts;
};

/** Count results with the given status. */
std::size_t countStatus(const std::vector<JobResult>& results,
                        JobStatus status);

/**
 * The job-execution core shared by the thread-pool Runner and the
 * distributed worker loop (exp/dist.hh): copy the job's identity
 * into @p out, build and run its workload (or its custom executor),
 * and fold every failure mode into JobStatus — a throwing job
 * becomes Failed with the exception text, never a crash.
 * @p checkpoint_dir, when non-empty, lets sampled jobs save/restore
 * functional checkpoints (exact jobs ignore it).
 */
void runJob(const Job& job, JobResult& out,
            const std::string& checkpoint_dir = "");

/**
 * Copy the *identity* half of @p job — index, label, workload,
 * config, axes — into @p out, leaving the payload untouched. Every
 * result starts here, whether it is then run, restored from the
 * cache or merged from a jobs directory.
 */
void adoptIdentity(JobResult& out, const Job& job);

/**
 * Copy the *payload* half of @p record — status, error text, host
 * wall clock, and the RunResult — into @p out, leaving the identity
 * half (index, label, workload, config, axes) untouched. This is the
 * one splice point shared by every result-replay path (cache lookup,
 * distributed merge): payload from the stored record, identity from
 * the live job, so replayed results re-serialize byte-identically
 * while following any relabelling of the sweep.
 */
void adoptPayload(JobResult& out, JobResult&& record);

} // namespace eve::exp

#endif // EVE_EXP_RUNNER_HH
