/**
 * @file
 * The benchmark's workloads: named, fixed job sets over the simulator's
 * public System API, plus the per-job correctness checks and the parity
 * digest that make simulated-timing drift visible.
 *
 * A job is one System::run(Workload&, const SimOptions&) call on a
 * fresh workload and a fresh System, exactly as an architect's sweep
 * runs it; nothing inside the simulator is instrumented.
 */

#ifndef SIMBENCH_JOBS_HH
#define SIMBENCH_JOBS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "driver/system.hh"

namespace simbench
{

/** One grid point of a benchmark workload. */
struct BenchJob
{
    eve::SystemConfig config;
    std::string kernel;            ///< workload name ("mmult", ...)
    std::string scale;             ///< "full" on every workload
    eve::SamplingConfig sampling;  ///< disabled = exact run

    /** Stable identity: parity key plus the sampling schedule. */
    std::string key() const;
};

/** Names of the benchmark workloads, in documentation order. */
const std::vector<std::string>& workloadNames();

/** The canonical job list of workload @p name (empty if unknown). */
std::vector<BenchJob> workloadJobs(const std::string& name);

/** A permutation of [0, @p n) drawn from @p seed (Fisher-Yates). */
std::vector<std::size_t> jobOrder(std::size_t n, std::uint64_t seed);

/** Build the job's workload at its scale; throws on an unknown name. */
std::unique_ptr<eve::Workload> makeJobWorkload(const BenchJob& job);

/** The run options every job uses: defaults plus its sampling. */
eve::SimOptions jobOptions(const BenchJob& job);

/**
 * Run one whole job: build the workload and the System, then
 * System::run. Exceptions propagate to the caller.
 */
eve::RunResult runJob(const BenchJob& job);

/**
 * Why @p result counts as a failed operation, or "" when it does not:
 * functional mismatches, non-finite or zero cycles, or a sampled run
 * that measured no window.
 */
std::string jobFailure(const BenchJob& job, const eve::RunResult& result);

/** exp::parityFingerprint of the job's result. */
std::uint64_t jobFingerprint(const BenchJob& job,
                             const eve::RunResult& result);

/** resultToJson of the job's result, host time included. */
std::string jobJson(const BenchJob& job, const eve::RunResult& result,
                    double wall_s);

/**
 * Order-independent digest of one result per job: FNV-1a over the
 * "<key> <fingerprint>" lines sorted by key, so any job order gives
 * the same digest.
 */
std::uint64_t parityDigest(const std::vector<BenchJob>& jobs,
                           const std::vector<std::uint64_t>& fingerprints);

/** Outcome of the small-input correctness gate. */
struct GateResult
{
    std::vector<std::string> diffs;  ///< empty = byte-identical timing
    std::size_t points = 0;          ///< (system, kernel) pairs run
    std::uint64_t digest = 0;        ///< parity digest of those runs
};

/**
 * Correctness gate: run every (system, kernel) pair of @p jobs exactly,
 * at small inputs, and compare the parity fingerprints with the golden
 * file at @p golden_path, one divergence line per mismatch.
 */
GateResult checkGolden(const std::vector<BenchJob>& jobs,
                       const std::string& golden_path);

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** 16 lowercase hex digits. */
std::string hex16(std::uint64_t value);

} // namespace simbench

#endif // SIMBENCH_JOBS_HH
