/**
 * @file
 * Sweep-result reporting: load the JSONL records a sweep directory
 * holds (the artifacts eve_sweep and the benches write),
 * group them into comparable cells, and diff two runs.
 *
 * Records are parsed by exp::parseResultJson, the one reader of the
 * resultToJson format, into exp::JobResult, the one in-memory form of
 * a result: the figure builders (report/figures.hh) take the same
 * results whether a bench holds them in memory or eve_report loads
 * them from disk.
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

#include <cstddef>
#include <string>
#include <vector>

#include "exp/runner.hh"

namespace eve::report
{

/**
 * True for Ok and Cached records: a cached result is the earlier Ok
 * run restored verbatim, and serializes as "ok".
 */
bool recordOk(const exp::JobResult& r);

/** Cell identity: source|system|workload|axes|sampling. */
std::string cellKey(const exp::JobResult& r);

/** Bookkeeping from a load pass. */
struct LoadStats
{
    std::size_t files = 0;
    std::size_t records = 0;
    std::size_t skipped_lines = 0; ///< malformed / non-record lines
};

/**
 * Load every record of one JSONL artifact, tagging each with
 * @p source (defaults to the path's basename) as its
 * exp::JobResult::source. Lines parseResultJson rejects are skipped
 * and counted.
 */
std::vector<exp::JobResult> loadSweepFile(const std::string& path,
                                          LoadStats* stats = nullptr,
                                          const std::string& source = "");

/**
 * Load every *.jsonl artifact directly under @p dir (sorted by name,
 * so record order is stable across hosts). Anything else in the
 * directory — a result cache's KEY.json records, report output — is
 * ignored. Returns an empty vector if the directory has no artifacts.
 */
std::vector<exp::JobResult> loadSweepDir(const std::string& dir,
                                         LoadStats* stats = nullptr);

/** Last-wins dedup of @p records by cell key, input order kept. */
std::vector<exp::JobResult>
dedupCells(const std::vector<exp::JobResult>& records);

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
 * simulated metrics. Cells are matched by cellKey(); both sides are
 * deduped last-wins first.
 */
DeltaReport compareRuns(const std::vector<exp::JobResult>& current,
                        const std::vector<exp::JobResult>& baseline);

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
