/**
 * @file
 * Figure/table builders over sweep results, plus the renderers. Each
 * builder reduces a result set — a bench's in-memory results or the
 * records eve_report loads — to one FigureTable, the shape of one of
 * the paper's figures, and the renderers turn a FigureTable into an
 * aligned text table, CSV, a gnuplot script over that CSV, and a
 * self-contained SVG bar chart (no external tooling needed to get a
 * picture out of a sweep directory).
 *
 * A result's system is exp::recordSystem(), the name its record
 * carries; Cached results count as ok, since they serialize as "ok".
 *
 * Builders are total: they produce whatever subset of the figure the
 * records can support (missing cells stay NaN and render empty), so
 * a report over a partial sweep is a partial figure, not an error.
 */

#ifndef EVE_REPORT_FIGURES_HH
#define EVE_REPORT_FIGURES_HH

#include <string>
#include <vector>

#include "report/report.hh"

namespace eve::report
{

/** One figure/table: row labels x column labels -> value. */
struct FigureTable
{
    std::string name;   ///< artifact stem, e.g. "fig6_performance"
    std::string title;
    std::string row_header = "workload";
    std::vector<std::string> columns;
    std::vector<std::string> rows;
    /** rows x columns; NaN = missing cell. */
    std::vector<std::vector<double>> cells;
    std::string note;

    double at(std::size_t row, std::size_t col) const
    {
        return cells[row][col];
    }
    bool empty() const { return rows.empty() || columns.empty(); }
};

/**
 * Figure 6: per-workload speed-up of every system over IO
 * (io.seconds / sys.seconds), plus a geomean row over the paper's
 * subset when every member is present.
 */
FigureTable fig6Performance(const std::vector<exp::JobResult>& results);

/**
 * Figure 7: EVE execution breakdown — one row per workload/design,
 * each component normalized to that workload's EVE-1 total ticks
 * (falling back to the row's own total when EVE-1 is absent).
 */
FigureTable fig7Breakdown(const std::vector<exp::JobResult>& results);

/**
 * Figure 8: VMU cache-induced stall percentage per workload per EVE
 * design (eve.vmu_cache_stall_ticks / (stall + issue) * 100).
 */
FigureTable fig8VmuStalls(const std::vector<exp::JobResult>& results);

/**
 * Table III companion: per-system job inventory — jobs seen, ok /
 * mismatch / failed counts, distinct workloads covered.
 */
FigureTable table3Systems(const std::vector<exp::JobResult>& results);

/**
 * Table IV companion: per-workload characterization — dynamic
 * instructions, vector instructions, vector fraction, element ops
 * per vector instruction (avg vector length utilization proxy).
 */
FigureTable
table4Characterization(const std::vector<exp::JobResult>& results);

/** Every figure the results can support, in catalog order. */
std::vector<FigureTable>
buildAll(const std::vector<exp::JobResult>& results);

/**
 * Render @p fig as an aligned text table (3 decimals, missing cells
 * blank) under a "title (name)" line, with its note and a blank line
 * after it; "" for an empty figure.
 */
std::string figureText(const FigureTable& fig);

/** Render @p fig as CSV (header row + one line per row label). */
std::string figureCsv(const FigureTable& fig);

/** Render a gnuplot script plotting @p fig's CSV as grouped bars. */
std::string figureGnuplot(const FigureTable& fig,
                          const std::string& csv_name);

/** Render @p fig as a self-contained grouped-bar SVG. */
std::string figureSvg(const FigureTable& fig);

/**
 * Write <out_dir>/<name>.csv, .gp, and .svg for every non-empty
 * figure. Returns the paths written.
 */
std::vector<std::string>
writeFigureArtifacts(const std::vector<FigureTable>& figures,
                     const std::string& out_dir);

} // namespace eve::report

#endif // EVE_REPORT_FIGURES_HH
