#include "exp/runner.hh"

#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "exp/cache.hh"

namespace eve::exp
{

const char*
jobStatusName(JobStatus status)
{
    switch (status) {
      case JobStatus::Ok: return "ok";
      case JobStatus::Mismatch: return "mismatch";
      case JobStatus::Failed: return "failed";
      case JobStatus::Skipped: return "skipped";
      case JobStatus::Cached: return "cached";
    }
    return "unknown";
}

Runner::Runner(RunnerOptions options) : opts(std::move(options)) {}

unsigned
Runner::effectiveThreads(std::size_t job_count) const
{
    unsigned n = opts.threads;
    if (n == 0)
        n = std::thread::hardware_concurrency();
    if (n == 0)
        n = 1;
    if (job_count > 0 && n > job_count)
        n = static_cast<unsigned>(job_count);
    return n;
}

std::vector<JobResult>
Runner::run(const SweepSpec& spec) const
{
    return run(spec.jobs());
}

void
runJob(const Job& job, JobResult& out,
       const std::string& checkpoint_dir)
{
    adoptIdentity(out, job);

    const auto start = std::chrono::steady_clock::now();
    try {
        if (job.exec) {
            out.result = job.exec(job.config);
        } else {
            std::unique_ptr<Workload> workload = job.make();
            if (!workload)
                throw std::runtime_error("unknown workload '" +
                                         job.workload + "'");
            SimOptions sopts;
            sopts.sampling = job.sampling;
            sopts.checkpoint_dir = checkpoint_dir;
            sopts.scale_tag = job.scale;
            sopts.salt = kSimulatorSalt;
            out.result = runWorkload(job.config, *workload, sopts);
        }
        out.status = out.result.mismatches ? JobStatus::Mismatch
                                           : JobStatus::Ok;
    } catch (const std::exception& e) {
        out.status = JobStatus::Failed;
        out.error = e.what();
    } catch (...) {
        out.status = JobStatus::Failed;
        out.error = "unknown exception";
    }
    out.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
}

std::vector<JobResult>
Runner::run(const std::vector<Job>& jobs) const
{
    std::vector<JobResult> results(jobs.size());
    // Pre-fill identity fields so Skipped entries are still labelled.
    for (std::size_t i = 0; i < jobs.size(); ++i)
        adoptIdentity(results[i], jobs[i]);
    if (jobs.empty())
        return results;

    // Progress state. The completion counter is incremented under the
    // same mutex that serializes the callback: bumping it outside the
    // lock lets two workers swap between increment and callback, so
    // observers would see done-counts out of order.
    std::mutex progress_mutex;
    std::size_t done = 0;  // guarded by progress_mutex
    auto report = [&](const JobResult& r) {
        std::lock_guard<std::mutex> lock(progress_mutex);
        const std::size_t n_done = ++done;
        if (opts.progress)
            opts.progress(r, n_done, jobs.size());
    };

    // Cache pass: satisfy every job whose content key has a stored
    // result, and execute only the remainder.
    std::vector<std::size_t> pending;
    pending.reserve(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (opts.cache && opts.cache->lookup(jobs[i], results[i]))
            report(results[i]);
        else
            pending.push_back(i);
    }

    if (!pending.empty()) {
        std::atomic<std::size_t> next{0};
        std::atomic<bool> stop{false};

        auto worker = [&]() {
            while (true) {
                if (stop.load(std::memory_order_acquire))
                    return;
                const std::size_t p =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (p >= pending.size())
                    return;
                const std::size_t i = pending[p];
                runJob(jobs[i], results[i], opts.checkpoint_dir);
                if (results[i].status == JobStatus::Failed &&
                    opts.on_failure == FailurePolicy::Abort) {
                    stop.store(true, std::memory_order_release);
                }
                report(results[i]);
            }
        };

        const unsigned n_threads = effectiveThreads(pending.size());
        if (n_threads <= 1) {
            worker();
        } else {
            std::vector<std::thread> pool;
            pool.reserve(n_threads);
            for (unsigned t = 0; t < n_threads; ++t)
                pool.emplace_back(worker);
            for (auto& t : pool)
                t.join();
        }
    }

    // Persist fresh, cache-eligible results in index order so the
    // cache file's contents do not depend on completion order.
    if (opts.cache) {
        for (const std::size_t i : pending)
            opts.cache->store(jobs[i], results[i]);
    }
    return results;
}

void
adoptIdentity(JobResult& out, const Job& job)
{
    out.index = job.index;
    out.label = job.label;
    out.workload = job.workload;
    out.config = job.config;
    out.axes = job.axes;
}

void
adoptPayload(JobResult& out, JobResult&& record)
{
    out.status = record.status;
    out.error = std::move(record.error);
    out.wall_seconds = record.wall_seconds;
    out.result = std::move(record.result);
}

std::size_t
countStatus(const std::vector<JobResult>& results, JobStatus status)
{
    std::size_t n = 0;
    for (const auto& r : results)
        n += r.status == status;
    return n;
}

} // namespace eve::exp
