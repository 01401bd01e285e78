/**
 * @file
 * Section VII area-efficiency analysis: system area relative to the
 * O3 core, and area-normalized performance (geomean speed-up over IO
 * divided by relative area). The paper's headline: EVE-8 achieves
 * DV-class performance at IV-class area — over 2x the
 * area-normalized performance of O3+DV.
 *
 * The speed-ups are the geomean* row of report::fig6Performance over
 * a runSweep() of the paper's geomean subset, so they are Figure 6's
 * numbers by construction.
 */

#include <algorithm>
#include <cstdio>

#include "analytic/circuits.hh"
#include "bench_util.hh"
#include "common/log.hh"
#include "driver/table.hh"
#include "report/figures.hh"

using namespace eve;

namespace
{

double
systemArea(const SystemConfig& cfg)
{
    switch (cfg.kind) {
      case SystemKind::IO:
      case SystemKind::O3:
        return SystemAreaModel::o3();
      case SystemKind::O3IV:
        return SystemAreaModel::o3iv();
      case SystemKind::O3DV:
        return SystemAreaModel::o3dv();
      case SystemKind::O3EVE:
        return SystemAreaModel::o3eve(cfg.eve_pf);
    }
    return 1.0;
}

} // namespace

int
main()
{
    setInformEnabled(false);
    const bool small = bench::smallRuns();
    std::printf("Area efficiency (Section VII)\n\n");

    exp::SweepSpec spec;
    spec.systems(bench::fig6Systems());
    spec.workloads({"k-means", "pathfinder", "jacobi-2d", "backprop",
                    "sw"},
                   small);
    const report::FigureTable fig6 =
        report::fig6Performance(bench::runSweep(spec));
    if (fig6.rows.empty() || fig6.rows.back() != "geomean*")
        fatal("area efficiency: Figure 6 has no geomean* row");
    const std::size_t geomean_row = fig6.rows.size() - 1;

    TextTable table({"system", "area vs O3", "geomean speedup vs IO",
                     "area-normalized"});
    double dv = 0, e8 = 0;
    for (const auto& cfg : bench::fig6Systems()) {
        const std::string name = systemName(cfg);
        const auto col =
            std::find(fig6.columns.begin(), fig6.columns.end(), name);
        const double geomean = fig6.at(
            geomean_row, std::size_t(col - fig6.columns.begin()));
        const double area = systemArea(cfg);
        table.addRow({name, TextTable::num(area, 2),
                      TextTable::num(geomean, 2),
                      TextTable::num(geomean / area, 2)});
        if (name == "O3+DV")
            dv = geomean / area;
        if (name == "O3+EVE-8")
            e8 = geomean / area;
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("EVE-8 area-normalized performance = %.2fx O3+DV "
                "(paper: over 2x)\n", e8 / dv);
    return 0;
}
