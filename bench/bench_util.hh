/**
 * @file
 * Shared helpers for the bench harnesses: workload scale selection
 * and the standard set of simulated systems.
 */

#ifndef EVE_BENCH_BENCH_UTIL_HH
#define EVE_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/log.hh"
#include "driver/system.hh"
#include "exp/exp.hh"
#include "exp/perf.hh"

namespace eve::bench
{

/** Honour EVE_BENCH_SMALL=1 for quick smoke runs. */
inline bool
smallRuns()
{
    const char* env = std::getenv("EVE_BENCH_SMALL");
    return env && env[0] == '1';
}

/**
 * Honour EVE_BENCH_PAPER=1 for paper-scale inputs (mmult at
 * 1024x1024x1024). Meant to be combined with interval sampling
 * (EVE_EXP_SAMPLE) and checkpoints (EVE_EXP_CKPT_DIR) — see
 * EXPERIMENTS.md "Sampled simulation".
 */
inline bool
paperRuns()
{
    const char* env = std::getenv("EVE_BENCH_PAPER");
    return env && env[0] == '1';
}

/** The workload scale tag selected by the EVE_BENCH_* env vars. */
inline std::string
benchScale()
{
    if (smallRuns())
        return "small";
    return paperRuns() ? "paper" : "full";
}

/**
 * Honour EVE_BENCH_RIVEC=1: append the RiVEC-style extension
 * kernels (axpy, blackscholes, streamcluster, particlefilter) to
 * the Figure 6 / Table III workload axis. Off by default so the
 * grid stays the paper's.
 */
inline bool
rivecRuns()
{
    const char* env = std::getenv("EVE_BENCH_RIVEC");
    return env && env[0] == '1';
}

/** A Table III configuration of the given kind (defaults elsewhere). */
inline SystemConfig
makeConfig(SystemKind kind, unsigned pf = 8)
{
    SystemConfig cfg;
    cfg.kind = kind;
    cfg.eve_pf = pf;
    return cfg;
}

/**
 * The Figure 6 system list: scalar + vector baselines + EVE sweep.
 * One definition lives in exp::perf (the timing-parity goldens and
 * simbench cover the identical systems); these are the bench-facing
 * names.
 */
inline std::vector<SystemConfig>
fig6Systems()
{
    return exp::tableIIISystems();
}

/** The EVE-only sweep (Figures 7 and 8). */
inline std::vector<SystemConfig>
eveSystems()
{
    return exp::eveDesignSystems();
}

/**
 * The Figure 6 experiment grid as a sweep spec: every Table III
 * system crossed with the paper's workload list (plus the RiVEC
 * kernels under EVE_BENCH_RIVEC=1). Shared by the performance
 * figure (which runs it) and Table III (which only enumerates
 * expandedSystems()).
 */
inline exp::SweepSpec
fig6Sweep(bool small)
{
    return exp::tableIIISweep(small, rivecRuns());
}

/**
 * What a harness sets on a sweep. Everything else comes from the
 * environment: EVE_EXP_CACHE_DIR (result cache), EVE_EXP_JOBS_DIR
 * (distributed execution), EVE_EXP_THREADS (worker threads or lanes)
 * and EVE_EXP_CKPT_DIR (checkpoints).
 */
struct SweepOptions
{
    /** JSONL artifact name; empty writes no artifact. */
    std::string artifact;

    /**
     * Interval-sampling schedule applied to every job (see
     * sim/sampling.hh); disabled default defers to EVE_EXP_SAMPLE.
     * Sampled results carry their own cache/job keys, so a sampled
     * bench run never collides with exact records.
     */
    SamplingConfig sampling;
};

/**
 * Optional result cache from EVE_EXP_CACHE_DIR (nullptr when unset).
 * Rerunning a harness then re-simulates only grid points whose
 * content key changed.
 */
inline std::unique_ptr<exp::ResultCache>
envCache()
{
    const std::string dir = exp::envCacheDir();
    if (dir.empty())
        return nullptr;
    auto cache = std::make_unique<exp::ResultCache>(dir);
    const std::size_t loaded = cache->load();
    std::fprintf(stderr, "cache: %zu entries in %s\n", loaded,
                 cache->filePath().c_str());
    return cache;
}

/** Die if any job in @p results failed or mismatched. */
inline void
requireAllOk(const std::vector<exp::JobResult>& results)
{
    for (const auto& r : results) {
        if (r.status != exp::JobStatus::Ok &&
            r.status != exp::JobStatus::Cached)
            fatal("job '%s' %s%s%s", r.label.c_str(),
                  exp::jobStatusName(r.status),
                  r.error.empty() ? "" : ": ",
                  r.error.c_str());
    }
}

/** Write the JSONL artifact and tell the user where it went. */
inline void
writeArtifact(const std::vector<exp::JobResult>& results,
              const std::string& name)
{
    const std::string path = exp::artifactPath(name);
    exp::writeJsonLines(results, path);
    std::fprintf(stderr, "results: %s\n", path.c_str());
}

/**
 * The standard harness plumbing in one call, over an explicit job
 * list: reindex the jobs 0..N-1, wire up the optional result cache,
 * execute, die unless every job is Ok or Cached, write the JSONL
 * artifact (skipped when opts.artifact is empty), and hand back the
 * index-ordered results.
 *
 * When EVE_EXP_JOBS_DIR is set the jobs run over the distributed
 * job-file protocol (exp/dist.hh) under that directory — any
 * `eve_sweep --worker --jobs-dir DIR` processes sharing it take part
 * — otherwise on the in-process thread pool. Either way the results
 * (and the artifact) are byte-identical, so the choice is a pure
 * deployment decision.
 */
inline std::vector<exp::JobResult>
runSweep(std::vector<exp::Job> jobs, const SweepOptions& opts = {})
{
    SamplingConfig sampling = opts.sampling;
    if (!sampling.enabled()) {
        const std::string spec = exp::envSampling();
        if (!spec.empty() && !parseSamplingFlag(spec, sampling))
            fatal("EVE_EXP_SAMPLE: bad spec '%s'", spec.c_str());
    }
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        jobs[i].index = i;
        if (sampling.enabled())
            jobs[i].sampling = sampling;
    }
    const auto cache = envCache();
    std::vector<exp::JobResult> results;
    const std::string jobs_dir = exp::envJobsDir();
    if (!jobs_dir.empty()) {
        exp::DistOptions dist;
        dist.jobs_dir = jobs_dir;
        const unsigned lanes = exp::envThreads();
        dist.lanes =
            lanes ? lanes : std::thread::hardware_concurrency();
        dist.checkpoint_dir = exp::envCheckpointDir();
        results = exp::runDistributed(jobs, dist, cache.get());
    } else {
        exp::RunnerOptions ropts;
        ropts.threads = exp::envThreads();
        ropts.cache = cache.get();
        ropts.checkpoint_dir = exp::envCheckpointDir();
        results = exp::Runner(ropts).run(jobs);
    }
    requireAllOk(results);
    if (!opts.artifact.empty())
        writeArtifact(results, opts.artifact);
    return results;
}

/**
 * runSweep() over a SweepSpec's expansion. Every table/figure bench
 * goes through here so cache, artifact, and distributed behaviour
 * stay uniform.
 */
inline std::vector<exp::JobResult>
runSweep(const exp::SweepSpec& spec, const SweepOptions& opts = {})
{
    return runSweep(spec.jobs(), opts);
}

} // namespace eve::bench

#endif // EVE_BENCH_BENCH_UTIL_HH
