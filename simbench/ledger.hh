/**
 * @file
 * The traced run's per-layer host-time ledger.
 *
 * Each job is peeled rung by rung, re-emitting the same trace through
 * an ever larger slice of the simulator's public API, and every rung
 * is one span in the benchmark's own code (nothing inside the
 * simulator is timed):
 *
 *   1. emit        Workload::emit* into a CountingSink
 *   2. plumb       + TeeSink, CountingSink, Characterizer
 *   3. vecmachine  + VecMachine::consume (vector systems only)
 *   4. filter      + WarmupFilter::observe
 *   5. mem_replay  emission + the records the timing model sees, their
 *                  memory accesses replayed through a standalone
 *                  MemHierarchy (Cache::access)
 *   6. system_run  the whole System::run
 *   7. serialize   exp::resultToJson
 *
 * The workload is re-initialized, in an "init" span of its own, before
 * each of rungs 1-5; System::run initializes it itself. A layer's
 * host time is the difference between neighbouring rungs, and the
 * core or engine model is what remains of system_run after init,
 * emission, plumbing, the functional machine (and, on sampled runs,
 * the filter) and the memory replay.
 */

#ifndef SIMBENCH_LEDGER_HH
#define SIMBENCH_LEDGER_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "jobs.hh"

namespace simbench
{

/** One timed interval, kept in memory until the run ends. */
struct Span
{
    int id = 0;
    int parent = -1;     ///< -1 = root
    std::string name;
    double start_s = 0;  ///< seconds since the trace started
    double end_s = 0;
};

/** In-memory span recorder. */
class Trace
{
  public:
    /** Open a span under @p parent and return its id. */
    int begin(const std::string& name, int parent);

    /** Close span @p id; returns its duration in seconds. */
    double end(int id);

    /** The spans as a JSON array. */
    std::string json() const;

  private:
    double now() const;

    std::chrono::steady_clock::time_point origin =
        std::chrono::steady_clock::now();
    std::vector<Span> spans;
};

/** Rung times (host seconds) and exact counts of one peeled job. */
struct JobLedger
{
    double init_s = 0;        ///< median of the job's re-inits
    double emit_s = 0;
    double plumb_s = 0;
    double vecmachine_s = 0;  ///< 0 when the system has no vector unit
    double filter_s = 0;
    double replay_s = 0;
    double run_s = 0;
    double serialize_s = 0;

    std::uint64_t records = 0;          ///< emitted trace records
    std::uint64_t vec_elem_ops = 0;     ///< Characterizer::vecOps
    std::uint64_t detail_records = 0;   ///< records the timing model saw
    std::uint64_t replay_accesses = 0;  ///< Cache::access calls replayed
    std::size_t serialize_bytes = 0;    ///< resultToJson output length

    eve::RunResult result;  ///< of the system_run rung
};

/** Peel @p job under span @p parent. Exceptions propagate. */
JobLedger peelJob(const BenchJob& job, Trace& trace, int parent);

/** A named metric value with its unit. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/**
 * Every per-layer metric over one workload's peeled jobs. A host-time
 * metric whose layer the workload never runs (no job of that system,
 * no vector element operations) reads 0.
 */
std::vector<Metric> layerMetrics(const std::vector<BenchJob>& jobs,
                                 const std::vector<JobLedger>& ledgers);

} // namespace simbench

#endif // SIMBENCH_LEDGER_HH
