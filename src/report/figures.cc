#include "report/figures.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <set>
#include <sstream>

#include "common/fs.hh"
#include "driver/table.hh"
#include "exp/sink.hh"

namespace eve::report
{

namespace
{

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/** Canonical Table III system ordering; unknowns go last, by name. */
int
systemRank(const std::string& system)
{
    if (system == "IO")
        return 0;
    if (system == "O3")
        return 1;
    if (system == "O3+IV")
        return 2;
    if (system == "O3+DV")
        return 3;
    if (system.rfind("O3+EVE-", 0) == 0) {
        const int pf = std::atoi(system.c_str() + 7);
        return 4 + pf;  // EVE-1..EVE-32 in pf order
    }
    return 1000;
}

bool
isEve(const std::string& system)
{
    return system.rfind("O3+EVE-", 0) == 0;
}

/** The chosen result of each (system, workload) cell. */
using Cells = std::map<std::pair<std::string, std::string>,
                       const exp::JobResult*>;

/**
 * Pick one result per (system, workload). Exact results rank above
 * sampled ones, then axis-free results above axis points (those
 * belong to ablation sweeps, not the headline figures); within the
 * same rank the last result wins (re-runs append). Exactness ranks
 * first because an ablation sweep (say --llc-mshrs) gives every
 * result, exact or sampled, an axis.
 */
Cells
selectCells(const std::vector<exp::JobResult>& results)
{
    Cells cells;
    std::map<std::pair<std::string, std::string>, int> pref;
    for (const auto& r : results) {
        if (!recordOk(r))
            continue;
        const auto key = std::make_pair(exp::recordSystem(r), r.workload);
        const int p =
            (r.result.sampled ? 0 : 2) + (r.axes.empty() ? 1 : 0);
        const auto it = pref.find(key);
        if (it != pref.end() && it->second > p)
            continue;
        pref[key] = p;
        cells[key] = &r;
    }
    return cells;
}

/** Workloads in first-appearance order, systems in canonical order. */
void
collectAxes(const Cells& cells, std::vector<std::string>& systems,
            std::vector<std::string>& workloads,
            const std::vector<exp::JobResult>& results)
{
    std::set<std::string> seen_w;
    for (const auto& r : results) {
        if (!cells.count(std::make_pair(exp::recordSystem(r), r.workload)))
            continue;
        if (seen_w.insert(r.workload).second)
            workloads.push_back(r.workload);
    }
    std::set<std::string> seen_s;
    for (const auto& [key, r] : cells)
        if (seen_s.insert(key.first).second)
            systems.push_back(key.first);
    std::sort(systems.begin(), systems.end(),
              [](const std::string& a, const std::string& b) {
                  const int ra = systemRank(a), rb = systemRank(b);
                  return ra != rb ? ra < rb : a < b;
              });
}

/** The chosen RunResult of cell (@p system, @p workload), or null. */
const RunResult*
cellAt(const Cells& cells, const std::string& system,
       const std::string& workload)
{
    const auto it = cells.find(std::make_pair(system, workload));
    return it != cells.end() ? &it->second->result : nullptr;
}

} // namespace

FigureTable
fig6Performance(const std::vector<exp::JobResult>& results)
{
    FigureTable fig;
    fig.name = "fig6_performance";
    fig.title = "Speed-up over the in-order core (IO)";
    const Cells cells = selectCells(results);
    std::vector<std::string> systems, workloads;
    collectAxes(cells, systems, workloads, results);
    if (!std::count(systems.begin(), systems.end(), "IO"))
        return fig;  // no baseline, no speedups
    fig.columns = systems;
    for (const auto& w : workloads) {
        const RunResult* io = cellAt(cells, "IO", w);
        if (!io || io->seconds <= 0)
            continue;
        std::vector<double> row;
        for (const auto& s : systems) {
            const RunResult* r = cellAt(cells, s, w);
            row.push_back(r && r->seconds > 0 ? io->seconds / r->seconds
                                              : kNaN);
        }
        fig.rows.push_back(w);
        fig.cells.push_back(std::move(row));
    }
    // The paper's geomean subset, when fully present.
    const std::vector<std::string> subset = {
        "k-means", "pathfinder", "jacobi-2d", "backprop", "sw"};
    std::vector<std::size_t> rows;
    for (const auto& w : subset) {
        const auto it = std::find(fig.rows.begin(), fig.rows.end(), w);
        if (it == fig.rows.end())
            break;
        rows.push_back(std::size_t(it - fig.rows.begin()));
    }
    if (rows.size() == subset.size()) {
        std::vector<double> geo;
        for (std::size_t c = 0; c < fig.columns.size(); ++c) {
            double acc = 0;
            bool complete = true;
            for (const std::size_t r : rows) {
                const double v = fig.cells[r][c];
                if (!(v > 0)) {
                    complete = false;
                    break;
                }
                acc += std::log(v);
            }
            geo.push_back(complete ? std::exp(acc / double(rows.size()))
                                   : kNaN);
        }
        fig.rows.push_back("geomean*");
        fig.cells.push_back(std::move(geo));
        fig.note = "geomean* over {k-means, pathfinder, jacobi-2d, "
                   "backprop, sw} (the paper's subset)";
    }
    return fig;
}

FigureTable
fig7Breakdown(const std::vector<exp::JobResult>& results)
{
    FigureTable fig;
    fig.name = "fig7_breakdown";
    fig.title = "EVE execution breakdown (normalized to EVE-1 total)";
    fig.row_header = "workload/design";
    const std::pair<const char*, double EveBreakdown::*> components[] = {
        {"busy", &EveBreakdown::busy},
        {"vru_stall", &EveBreakdown::vru_stall},
        {"ld_mem_stall", &EveBreakdown::ld_mem_stall},
        {"st_mem_stall", &EveBreakdown::st_mem_stall},
        {"ld_dt_stall", &EveBreakdown::ld_dt_stall},
        {"st_dt_stall", &EveBreakdown::st_dt_stall},
        {"vmu_stall", &EveBreakdown::vmu_stall},
        {"empty_stall", &EveBreakdown::empty_stall},
        {"dep_stall", &EveBreakdown::dep_stall}};
    fig.columns = {"total"};
    for (const auto& [name, member] : components)
        fig.columns.push_back(name);
    const Cells cells = selectCells(results);
    std::vector<std::string> systems, workloads;
    collectAxes(cells, systems, workloads, results);
    for (const auto& w : workloads) {
        const RunResult* eve1 = cellAt(cells, "O3+EVE-1", w);
        const double eve1_ticks = eve1 ? eve1->total_ticks : 0;
        for (const auto& s : systems) {
            if (!isEve(s))
                continue;
            const RunResult* r = cellAt(cells, s, w);
            if (!r || !r->has_breakdown)
                continue;
            const double denom =
                eve1_ticks > 0 ? eve1_ticks : r->total_ticks;
            std::vector<double> row;
            row.push_back(denom > 0 ? r->total_ticks / denom : kNaN);
            for (const auto& [name, member] : components)
                row.push_back(denom > 0 ? r->breakdown.*member / denom
                                        : kNaN);
            fig.rows.push_back(w + "/" + s);
            fig.cells.push_back(std::move(row));
        }
    }
    fig.note = "each value is a fraction of the workload's EVE-1 "
               "total execution time";
    return fig;
}

FigureTable
fig8VmuStalls(const std::vector<exp::JobResult>& results)
{
    FigureTable fig;
    fig.name = "fig8_vmu_stalls";
    fig.title = "VMU cache-induced stall % of request-issue time";
    const Cells cells = selectCells(results);
    std::vector<std::string> systems, workloads;
    collectAxes(cells, systems, workloads, results);
    for (const auto& s : systems)
        if (isEve(s))
            fig.columns.push_back(s);
    if (fig.columns.empty())
        return fig;
    for (const auto& w : workloads) {
        std::vector<double> row;
        bool any = false;
        for (const auto& s : fig.columns) {
            const RunResult* r = cellAt(cells, s, w);
            double v = kNaN;
            if (r) {
                const auto stall =
                    r->stats.find("eve.vmu_cache_stall_ticks");
                const auto issue = r->stats.find("eve.vmu_issue_ticks");
                if (stall != r->stats.end() && issue != r->stats.end()) {
                    const double denom =
                        stall->second + issue->second;
                    v = denom > 0 ? 100.0 * stall->second / denom
                                  : 0.0;
                    any = true;
                }
            }
            row.push_back(v);
        }
        if (any) {
            fig.rows.push_back(w);
            fig.cells.push_back(std::move(row));
        }
    }
    return fig;
}

FigureTable
table3Systems(const std::vector<exp::JobResult>& results)
{
    FigureTable fig;
    fig.name = "table3_systems";
    fig.title = "System inventory over the sweep records";
    fig.row_header = "system";
    fig.columns = {"records", "ok", "mismatch", "failed", "workloads"};
    struct Tally
    {
        double records = 0, ok = 0, mismatch = 0, failed = 0;
        std::set<std::string> workloads;
    };
    std::map<std::string, Tally> tallies;
    for (const auto& r : results) {
        Tally& t = tallies[exp::recordSystem(r)];
        t.records += 1;
        if (recordOk(r))
            t.ok += 1;
        else if (r.status == exp::JobStatus::Mismatch)
            t.mismatch += 1;
        else if (r.status == exp::JobStatus::Failed)
            t.failed += 1;
        t.workloads.insert(r.workload);
    }
    std::vector<std::string> systems;
    for (const auto& [s, t] : tallies)
        systems.push_back(s);
    std::sort(systems.begin(), systems.end(),
              [](const std::string& a, const std::string& b) {
                  const int ra = systemRank(a), rb = systemRank(b);
                  return ra != rb ? ra < rb : a < b;
              });
    for (const auto& s : systems) {
        const Tally& t = tallies[s];
        fig.rows.push_back(s);
        fig.cells.push_back({t.records, t.ok, t.mismatch, t.failed,
                             double(t.workloads.size())});
    }
    return fig;
}

FigureTable
table4Characterization(const std::vector<exp::JobResult>& results)
{
    FigureTable fig;
    fig.name = "table4_characterization";
    fig.title = "Workload characterization (vector version)";
    fig.columns = {"instrs", "vec_instrs", "vec_frac",
                   "vec_elem_ops", "ops_per_vinstr"};
    const Cells cells = selectCells(results);
    std::vector<std::string> systems, workloads;
    collectAxes(cells, systems, workloads, results);
    // Characterize on the widest vector system present (EVE first,
    // then DV/IV): scalar systems carry no vector stream.
    std::string chosen;
    for (const auto& s : systems)
        if (isEve(s) && (chosen.empty() ||
                         systemRank(s) > systemRank(chosen)))
            chosen = s;
    if (chosen.empty())
        for (const auto& s : {"O3+DV", "O3+IV"})
            if (std::count(systems.begin(), systems.end(), s)) {
                chosen = s;
                break;
            }
    if (chosen.empty())
        return fig;
    for (const auto& w : workloads) {
        const RunResult* r = cellAt(cells, chosen, w);
        if (!r)
            continue;
        const double instrs = double(r->instrs);
        const double vec_instrs = double(r->vecInstrs);
        const double vec_elem_ops = double(r->vecElemOps);
        fig.rows.push_back(w);
        fig.cells.push_back(
            {instrs, vec_instrs,
             instrs > 0 ? vec_instrs / instrs : kNaN, vec_elem_ops,
             vec_instrs > 0 ? vec_elem_ops / vec_instrs : kNaN});
    }
    fig.note = "characterized on " + chosen;
    return fig;
}

std::vector<FigureTable>
buildAll(const std::vector<exp::JobResult>& results)
{
    return {fig6Performance(results), fig7Breakdown(results),
            fig8VmuStalls(results), table3Systems(results),
            table4Characterization(results)};
}

namespace
{

std::string
csvField(const std::string& s)
{
    if (s.find_first_of(",\"\n") == std::string::npos)
        return s;
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += "\"";
    return out;
}

std::string
cellText(double v, int precision = 6)
{
    if (std::isnan(v))
        return "";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    return buf;
}

} // namespace

std::string
figureText(const FigureTable& fig)
{
    if (fig.empty())
        return "";
    std::vector<std::string> headers = {fig.row_header};
    headers.insert(headers.end(), fig.columns.begin(),
                   fig.columns.end());
    TextTable table(headers);
    for (std::size_t r = 0; r < fig.rows.size(); ++r) {
        std::vector<std::string> row = {fig.rows[r]};
        for (std::size_t c = 0; c < fig.columns.size(); ++c) {
            const double v = fig.at(r, c);
            row.push_back(std::isnan(v) ? "" : TextTable::num(v, 3));
        }
        table.addRow(row);
    }
    std::string out = fig.title + " (" + fig.name + ")\n" + table.render();
    if (!fig.note.empty())
        out += fig.note + "\n";
    return out + "\n";
}

std::string
figureCsv(const FigureTable& fig)
{
    std::ostringstream os;
    os << csvField(fig.row_header);
    for (const auto& c : fig.columns)
        os << ',' << csvField(c);
    os << '\n';
    for (std::size_t r = 0; r < fig.rows.size(); ++r) {
        os << csvField(fig.rows[r]);
        for (std::size_t c = 0; c < fig.columns.size(); ++c)
            os << ',' << cellText(fig.cells[r][c]);
        os << '\n';
    }
    return os.str();
}

std::string
figureGnuplot(const FigureTable& fig, const std::string& csv_name)
{
    std::ostringstream os;
    os << "# gnuplot script for " << fig.name << "\n"
       << "set datafile separator ','\n"
       << "set terminal svg size 960,540 dynamic\n"
       << "set output '" << fig.name << ".gnuplot.svg'\n"
       << "set title '" << fig.title << "'\n"
       << "set style data histograms\n"
       << "set style histogram clustered gap 1\n"
       << "set style fill solid 0.8 border -1\n"
       << "set boxwidth 0.9\n"
       << "set xtics rotate by -35 scale 0\n"
       << "set key outside right top\n"
       << "set grid ytics\n"
       << "plot for [col=2:" << fig.columns.size() + 1 << "] '"
       << csv_name << "' using col:xtic(1) title columnheader(col)\n";
    return os.str();
}

std::string
figureSvg(const FigureTable& fig)
{
    // A deliberately simple grouped-bar rendering: fixed canvas,
    // linear y from 0 to the max cell, one color per column cycled
    // from a small palette. Not a plotting library — just enough to
    // eyeball a sweep without leaving the terminal's file manager.
    static const char* palette[] = {"#4878d0", "#ee854a", "#6acc64",
                                    "#d65f5f", "#956cb4", "#8c613c",
                                    "#dc7ec0", "#797979", "#d5bb67",
                                    "#82c6e2"};
    const std::size_t ncolors = sizeof(palette) / sizeof(palette[0]);
    const double width = 960, height = 540;
    const double left = 70, right = 180, top = 50, bottom = 110;
    const double plot_w = width - left - right;
    const double plot_h = height - top - bottom;
    double vmax = 0;
    for (const auto& row : fig.cells)
        for (const double v : row)
            if (!std::isnan(v))
                vmax = std::max(vmax, v);
    if (vmax <= 0)
        vmax = 1;
    std::ostringstream os;
    os << "<svg xmlns='http://www.w3.org/2000/svg' width='" << width
       << "' height='" << height << "' viewBox='0 0 " << width << " "
       << height << "'>\n"
       << "<rect width='100%' height='100%' fill='white'/>\n"
       << "<text x='" << width / 2 << "' y='28' text-anchor='middle' "
       << "font-family='sans-serif' font-size='16'>" << fig.title
       << "</text>\n";
    // y axis + gridlines
    for (int g = 0; g <= 4; ++g) {
        const double frac = double(g) / 4;
        const double y = top + plot_h * (1 - frac);
        os << "<line x1='" << left << "' y1='" << y << "' x2='"
           << left + plot_w << "' y2='" << y
           << "' stroke='#dddddd'/>\n"
           << "<text x='" << left - 8 << "' y='" << y + 4
           << "' text-anchor='end' font-family='sans-serif' "
           << "font-size='11'>" << cellText(vmax * frac, 4)
           << "</text>\n";
    }
    const std::size_t nrows = fig.rows.size();
    const std::size_t ncols = fig.columns.size();
    const double group_w = plot_w / std::max<std::size_t>(nrows, 1);
    const double bar_w =
        group_w * 0.85 / std::max<std::size_t>(ncols, 1);
    for (std::size_t r = 0; r < nrows; ++r) {
        const double gx = left + group_w * double(r) + group_w * 0.075;
        for (std::size_t c = 0; c < ncols; ++c) {
            const double v = fig.cells[r][c];
            if (std::isnan(v))
                continue;
            const double h =
                plot_h * std::max(0.0, std::min(v / vmax, 1.0));
            os << "<rect x='" << gx + bar_w * double(c) << "' y='"
               << top + plot_h - h << "' width='" << bar_w * 0.92
               << "' height='" << h << "' fill='"
               << palette[c % ncolors] << "'/>\n";
        }
        const double lx = left + group_w * (double(r) + 0.5);
        os << "<text x='" << lx << "' y='" << top + plot_h + 14
           << "' text-anchor='end' font-family='sans-serif' "
           << "font-size='11' transform='rotate(-35 " << lx << " "
           << top + plot_h + 14 << ")'>" << fig.rows[r]
           << "</text>\n";
    }
    // legend
    for (std::size_t c = 0; c < ncols; ++c) {
        const double ly = top + 16.0 * double(c);
        os << "<rect x='" << left + plot_w + 16 << "' y='" << ly
           << "' width='12' height='12' fill='"
           << palette[c % ncolors] << "'/>\n"
           << "<text x='" << left + plot_w + 32 << "' y='" << ly + 10
           << "' font-family='sans-serif' font-size='11'>"
           << fig.columns[c] << "</text>\n";
    }
    if (!fig.note.empty())
        os << "<text x='" << left << "' y='" << height - 12
           << "' font-family='sans-serif' font-size='11' "
           << "fill='#555555'>" << fig.note << "</text>\n";
    os << "</svg>\n";
    return os.str();
}

std::vector<std::string>
writeFigureArtifacts(const std::vector<FigureTable>& figures,
                     const std::string& out_dir)
{
    std::vector<std::string> written;
    makeDirs(out_dir);
    for (const auto& fig : figures) {
        if (fig.empty())
            continue;
        const std::string base = out_dir + "/" + fig.name;
        atomicWriteFile(base + ".csv", figureCsv(fig));
        atomicWriteFile(base + ".gp",
                        figureGnuplot(fig, fig.name + ".csv"));
        atomicWriteFile(base + ".svg", figureSvg(fig));
        written.push_back(base + ".csv");
        written.push_back(base + ".gp");
        written.push_back(base + ".svg");
    }
    return written;
}

} // namespace eve::report
