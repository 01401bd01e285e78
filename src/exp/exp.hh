/**
 * @file
 * Umbrella header for the experiment-runner subsystem, plus the
 * environment conventions shared by the bench harnesses and the
 * eve_sweep CLI:
 *
 *   EVE_EXP_THREADS    worker count (default: hardware concurrency)
 *   EVE_EXP_OUT_DIR    directory for JSONL/CSV artifacts (default ".")
 *   EVE_EXP_CACHE_DIR  result-cache directory (unset = caching off)
 *   EVE_EXP_JOBS_DIR   distributed-sweep jobs directory (unset =
 *                      in-process execution; see exp/dist.hh)
 *   EVE_EXP_SAMPLE     interval-sampling schedule for bench sweeps:
 *                      "default" or a --sample spec (unset = exact;
 *                      see sim/sampling.hh)
 *   EVE_EXP_CKPT_DIR   functional-checkpoint directory for sampled
 *                      runs (unset = no checkpoints)
 */

#ifndef EVE_EXP_EXP_HH
#define EVE_EXP_EXP_HH

#include <cstdlib>
#include <string>

#include "exp/cache.hh"
#include "exp/dist.hh"
#include "exp/runner.hh"
#include "exp/sink.hh"
#include "exp/sweep.hh"

namespace eve::exp
{

/** Worker count from EVE_EXP_THREADS (0 = hardware concurrency). */
inline unsigned
envThreads()
{
    const char* env = std::getenv("EVE_EXP_THREADS");
    if (!env || !env[0])
        return 0;
    const long n = std::strtol(env, nullptr, 10);
    return n > 0 ? static_cast<unsigned>(n) : 0;
}

/** Result-cache directory from EVE_EXP_CACHE_DIR ("" = off). */
inline std::string
envCacheDir()
{
    const char* env = std::getenv("EVE_EXP_CACHE_DIR");
    return (env && env[0]) ? env : "";
}

/** Distributed jobs directory from EVE_EXP_JOBS_DIR ("" = off). */
inline std::string
envJobsDir()
{
    const char* env = std::getenv("EVE_EXP_JOBS_DIR");
    return (env && env[0]) ? env : "";
}

/** Sampling spec text from EVE_EXP_SAMPLE ("" = exact). */
inline std::string
envSampling()
{
    const char* env = std::getenv("EVE_EXP_SAMPLE");
    return (env && env[0]) ? env : "";
}

/** Checkpoint directory from EVE_EXP_CKPT_DIR ("" = off). */
inline std::string
envCheckpointDir()
{
    const char* env = std::getenv("EVE_EXP_CKPT_DIR");
    return (env && env[0]) ? env : "";
}

/** Artifact directory from EVE_EXP_OUT_DIR ("." by default). */
inline std::string
artifactDir()
{
    const char* env = std::getenv("EVE_EXP_OUT_DIR");
    return (env && env[0]) ? env : ".";
}

/** "<EVE_EXP_OUT_DIR>/<name>" ("./<name>" by default). */
inline std::string
artifactPath(const std::string& name)
{
    std::string dir = artifactDir();
    if (dir.back() != '/')
        dir += '/';
    return dir + name;
}

} // namespace eve::exp

#endif // EVE_EXP_EXP_HH
