/**
 * @file
 * Machine-readable serialization of sweep results.
 *
 * Two formats are provided:
 *  - JSON lines (one self-describing object per job) for downstream
 *    tooling; includes the flattened stats map and the EVE execution
 *    breakdown. parseResultJson (exp/cache.hh) is its one reader;
 *  - CSV with one column per core field, axis, and stat key (the
 *    union over all rows), for spreadsheet-style analysis.
 *
 * resultToJson() is deliberately split into the full record and a
 * timing-free payload: the payload contains only simulated
 * quantities, so two runs of the same sweep — at any thread count —
 * must produce byte-identical payloads (the determinism tests rely
 * on this).
 */

#ifndef EVE_EXP_SINK_HH
#define EVE_EXP_SINK_HH

#include <string>
#include <vector>

#include "exp/runner.hh"

namespace eve::exp
{

/**
 * One JSON object for @p r: system, workload, label, axes, status,
 * cycles, seconds, instrs, mismatches, the stats map, and the EVE
 * breakdown when present. @p include_host_time adds the host
 * wall-clock field ("wall_s"), which is *not* deterministic.
 */
std::string resultToJson(const JobResult& r,
                         bool include_host_time = true);

/**
 * The system name @p r's record carries: the run's own name, or
 * systemName(config) for a job that never ran (failed or skipped).
 */
std::string recordSystem(const JobResult& r);

/**
 * CSV for @p results: a header, then one line per result. Axis and
 * stat columns are the sorted union over every row's keys, so
 * heterogeneous sweeps (e.g. EVE + scalar systems) line up.
 */
std::string resultsToCsv(const std::vector<JobResult>& results);

/**
 * Serialize @p results as JSON lines to @p path (fatal on I/O
 * error). The file is written whole via fsync-and-rename
 * (common/fs.hh), so a writer killed mid-flush leaves either the
 * previous artifact or the complete new one — never a torn final
 * line that could poison a resumed sweep. @p include_host_time=false
 * drops the nondeterministic "wall_s" field, making the artifact
 * byte-comparable across runs, thread counts, and hosts.
 */
void writeJsonLines(const std::vector<JobResult>& results,
                    const std::string& path,
                    bool include_host_time = true);

/**
 * Serialize @p results as CSV to @p path (fatal on I/O error).
 * Atomic like writeJsonLines().
 */
void writeCsv(const std::vector<JobResult>& results,
              const std::string& path);

} // namespace eve::exp

#endif // EVE_EXP_SINK_HH
