/**
 * @file
 * Sweep-result reporting: load the JSONL records a sweep directory
 * holds (the artifacts eve_sweep and the benches write),
 * group them into comparable cells, and diff two runs.
 *
 * A "cell" is one grid point of one artifact: source file + system +
 * workload + axes + sampled-or-exact. Within a file, a later record
 * for the same cell wins (re-runs append). Diffing compares only the
 * *simulated* metrics (cycles, simulated seconds, instruction and
 * element counts, mismatch counts, status) — these are byte-
 * deterministic across hosts and runs, so an identical re-run
 * produces exactly zero deltas and the --max-regress CI gate can be
 * as tight as 0%. Host wall time never participates.
 */

#ifndef EVE_REPORT_REPORT_HH
#define EVE_REPORT_REPORT_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace eve::report
{

/** One sweep-result record, parsed back from resultToJson() bytes. */
struct Record
{
    std::string source;   ///< basename of the .jsonl it came from
    std::uint64_t index = 0;
    std::string label;
    std::string system;
    std::string workload;
    std::string status;   ///< "ok" / "mismatch" / "failed" / "skipped"
    std::string error;
    std::map<std::string, std::string> axes;
    bool sampled = false;
    bool has_wall = false;
    double wall_s = 0;
    double cycles = 0;
    double seconds = 0;
    double total_ticks = 0;
    double instrs = 0;
    double mismatches = 0;
    double vec_instrs = 0;
    double vec_elem_ops = 0;
    std::map<std::string, double> stats;
    bool has_breakdown = false;
    std::map<std::string, double> breakdown;
    double vmu_cache_stall_ticks = 0;

    /** Cell identity: source|system|workload|axes|sampling. */
    std::string key() const;

    bool ok() const { return status == "ok"; }
};

/** Bookkeeping from a load pass. */
struct LoadStats
{
    std::size_t files = 0;
    std::size_t records = 0;
    std::size_t skipped_lines = 0; ///< malformed / non-record lines
};

/** Parse one JSONL line; false on malformed or non-record input. */
bool parseRecordLine(const std::string& line, Record& out);

/**
 * Load every record of one JSONL artifact. @p source names the
 * records' source (defaults to the path's basename).
 */
std::vector<Record> loadSweepFile(const std::string& path,
                                  LoadStats* stats = nullptr,
                                  const std::string& source = "");

/**
 * Load every *.jsonl artifact directly under @p dir (sorted by name,
 * so record order is stable across hosts). cache.jsonl is skipped:
 * the result cache stores its own key-prefixed lines, not sweep
 * output. Returns an empty vector if the directory has no artifacts.
 */
std::vector<Record> loadSweepDir(const std::string& dir,
                                 LoadStats* stats = nullptr);

/** Last-wins dedup of @p records by cell key, input order kept. */
std::vector<Record> dedupCells(const std::vector<Record>& records);

/** One changed metric of one cell. */
struct Delta
{
    std::string key;
    std::string metric;
    double base = 0;
    double current = 0;
    double pct = 0;  ///< 100 * (current - base) / base (0 if base==0)
    bool status_change = false;
};

/** Result of compareRuns(). */
struct DeltaReport
{
    std::size_t cells = 0;  ///< cells present in both runs
    std::vector<Delta> deltas;
    std::vector<std::string> missing_in_baseline;
    std::vector<std::string> missing_in_current;
    /** Worst positive cycles/seconds regression (percent). */
    double worst_regress_pct = 0;
    /** Cells whose status degraded from ok. */
    std::size_t status_degradations = 0;
};

/**
 * Diff @p current against @p baseline cell by cell over the
 * simulated metrics. Cells are matched by Record::key(); both sides
 * are deduped last-wins first.
 */
DeltaReport compareRuns(const std::vector<Record>& current,
                        const std::vector<Record>& baseline);

/**
 * The CI gate: passes iff no status degraded, no baseline cell is
 * missing from the current run, and the worst cycles/seconds
 * regression is <= @p max_regress_pct. Improvements and new cells
 * never fail the gate.
 */
bool gatePassed(const DeltaReport& report, double max_regress_pct);

/** Human-readable one-line-per-delta rendering of @p report. */
std::vector<std::string> renderDeltas(const DeltaReport& report);

} // namespace eve::report

#endif // EVE_REPORT_REPORT_HH
