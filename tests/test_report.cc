/**
 * @file
 * Tests for the reporting subsystem (src/report): JSONL loading and
 * cell grouping over real resultToJson() bytes, figure math, delta /
 * gate math, and the artifact writers — all on synthetic records, no
 * simulation involved.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/fs.hh"
#include "exp/cache.hh"
#include "exp/runner.hh"
#include "exp/sink.hh"
#include "report/figures.hh"
#include "report/report.hh"

#include "test_util.hh"

namespace eve::report
{
namespace
{

using eve::test::freshDir;

exp::JobResult
makeResult(const std::string& system, const std::string& workload,
           double seconds, double cycles = 1000)
{
    exp::JobResult r;
    r.status = exp::JobStatus::Ok;
    r.workload = workload;
    r.result.system = system;
    r.result.workload = workload;
    r.result.seconds = seconds;
    r.result.cycles = cycles;
    r.result.total_ticks = cycles * 10;
    r.result.instrs = 5000;
    r.result.vecInstrs = 100;
    r.result.vecElemOps = 6400;
    r.label = system + "/" + workload;
    return r;
}

void
writeArtifact(const std::string& dir, const std::string& name,
              const std::vector<exp::JobResult>& results)
{
    exp::writeJsonLines(results, dir + "/" + name);
}

TEST(ReportLoad, RoundTripsSinkRecords)
{
    const std::string dir = freshDir("load");
    writeArtifact(dir, "sweep.jsonl",
                  {makeResult("IO", "vvadd", 100.0),
                   makeResult("O3+EVE-8", "vvadd", 25.0)});

    LoadStats stats;
    const auto records = loadSweepDir(dir, &stats);
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(stats.files, 1u);
    EXPECT_EQ(stats.records, 2u);
    EXPECT_EQ(stats.skipped_lines, 0u);
    EXPECT_EQ(exp::recordSystem(records[0]), "IO");
    EXPECT_EQ(records[0].workload, "vvadd");
    EXPECT_EQ(records[0].status, exp::JobStatus::Ok);
    EXPECT_EQ(records[0].source, "sweep.jsonl");
    EXPECT_DOUBLE_EQ(records[0].result.seconds, 100.0);
    EXPECT_EQ(exp::recordSystem(records[1]), "O3+EVE-8");
    EXPECT_DOUBLE_EQ(records[1].result.seconds, 25.0);
    EXPECT_NE(cellKey(records[0]), cellKey(records[1]));
}

TEST(ReportLoad, SkipsMalformedLinesAndCacheRecords)
{
    const std::string dir = freshDir("malformed");
    writeArtifact(dir, "sweep.jsonl", {makeResult("IO", "vvadd", 1.0)});
    {
        std::ofstream out(dir + "/sweep.jsonl", std::ios::app);
        out << "not json at all\n"
            << "{\"no\":\"record fields\"}\n"
            << "{\"status\":\"ok\"}\n";
    }
    // A result cache sharing the directory keeps one KEY.json record
    // per job; those are cached results, not sweep output.
    exp::writeRecordFile(dir + "/0123456789abcdef.json",
                         makeResult("O3", "vvadd", 0.5));

    LoadStats stats;
    const auto records = loadSweepDir(dir, &stats);
    EXPECT_EQ(records.size(), 1u);
    EXPECT_EQ(stats.files, 1u);
    EXPECT_EQ(stats.skipped_lines, 3u);
}

TEST(ReportLoad, DedupIsLastWinsPerCell)
{
    const std::string dir = freshDir("dedup");
    writeArtifact(dir, "sweep.jsonl",
                  {makeResult("IO", "vvadd", 100.0),
                   makeResult("IO", "vvadd", 50.0)});
    const auto deduped = dedupCells(loadSweepDir(dir));
    ASSERT_EQ(deduped.size(), 1u);
    EXPECT_DOUBLE_EQ(deduped[0].result.seconds, 50.0);
}

TEST(ReportFigures, Fig6SpeedupOverIo)
{
    const std::string dir = freshDir("fig6");
    writeArtifact(dir, "sweep.jsonl",
                  {makeResult("IO", "vvadd", 100.0),
                   makeResult("O3+EVE-8", "vvadd", 25.0),
                   makeResult("O3", "vvadd", 50.0)});
    const auto fig = fig6Performance(loadSweepDir(dir));
    ASSERT_FALSE(fig.empty());
    ASSERT_EQ(fig.rows.size(), 1u);
    EXPECT_EQ(fig.rows[0], "vvadd");
    // Columns are in canonical system order: IO, O3, then EVE.
    ASSERT_EQ(fig.columns.size(), 3u);
    EXPECT_EQ(fig.columns[0], "IO");
    EXPECT_EQ(fig.columns[1], "O3");
    EXPECT_EQ(fig.columns[2], "O3+EVE-8");
    EXPECT_DOUBLE_EQ(fig.at(0, 0), 1.0);
    EXPECT_DOUBLE_EQ(fig.at(0, 1), 2.0);
    EXPECT_DOUBLE_EQ(fig.at(0, 2), 4.0);
}

TEST(ReportFigures, InMemoryAndLoadedResultsGiveOneFigure)
{
    // A bench prints its figure from the results it holds; eve_report
    // prints it from the artifact those results were written to. Both
    // must be one figure, byte for byte: exact, sampled, axis-point,
    // cached and failed results, with breakdowns and VMU stats.
    std::vector<exp::JobResult> results;
    const std::vector<std::string> systems = {"IO", "O3+DV", "O3+EVE-1",
                                              "O3+EVE-8"};
    const std::vector<std::string> workloads = {
        "k-means", "pathfinder", "jacobi-2d", "backprop", "sw"};
    for (std::size_t s = 0; s < systems.size(); ++s) {
        for (std::size_t w = 0; w < workloads.size(); ++w) {
            auto r = makeResult(systems[s], workloads[w],
                                1e-3 / double(1 + s + 2 * w) + 1e-7 * w,
                                1000.0 + 37.0 * double(s * w));
            if (systems[s].rfind("O3+EVE-", 0) == 0) {
                r.result.has_breakdown = true;
                r.result.breakdown.busy = 0.4 * r.result.total_ticks;
                r.result.breakdown.ld_mem_stall =
                    0.35 * r.result.total_ticks;
                r.result.breakdown.dep_stall = 1.0 / 3.0;
                r.result.stats["eve.vmu_cache_stall_ticks"] =
                    double(100 * w + s);
                r.result.stats["eve.vmu_issue_ticks"] = 1000.0;
            }
            results.push_back(r);
        }
    }
    results[3].status = exp::JobStatus::Cached;
    auto sampled = makeResult("O3+EVE-8", "sw", 5e-5);
    sampled.result.sampled = true;
    results.push_back(sampled);
    auto axis_point = makeResult("O3+EVE-1", "backprop", 7e-5);
    axis_point.axes = {{"llc_mshrs", "16"}};
    results.push_back(axis_point);
    auto failed = makeResult("O3+EVE-8", "vvadd", 0);
    failed.result = RunResult();
    failed.config.kind = SystemKind::O3EVE;
    failed.config.eve_pf = 8;
    failed.status = exp::JobStatus::Failed;
    failed.error = "injected";
    results.push_back(failed);

    const std::string dir = freshDir("one_figure_path");
    writeArtifact(dir, "sweep.jsonl", results);
    const auto loaded = loadSweepDir(dir);
    ASSERT_EQ(loaded.size(), results.size());

    const auto in_memory = buildAll(results);
    const auto from_disk = buildAll(loaded);
    ASSERT_EQ(in_memory.size(), from_disk.size());
    for (std::size_t i = 0; i < in_memory.size(); ++i) {
        ASSERT_FALSE(in_memory[i].empty()) << in_memory[i].name;
        EXPECT_EQ(figureText(in_memory[i]), figureText(from_disk[i]))
            << in_memory[i].name;
        EXPECT_EQ(figureCsv(in_memory[i]), figureCsv(from_disk[i]))
            << in_memory[i].name;
    }
    // The cached IO result counts as ok; the failed one does not.
    const FigureTable& table3 = in_memory[3];
    ASSERT_EQ(table3.rows.front(), "IO");
    EXPECT_EQ(table3.at(0, 1), 5.0);
    ASSERT_EQ(table3.rows.back(), "O3+EVE-8");
    EXPECT_EQ(table3.at(table3.rows.size() - 1, 1), 6.0);
    EXPECT_EQ(table3.at(table3.rows.size() - 1, 3), 1.0);
    EXPECT_EQ(in_memory[0].rows.back(), "geomean*");
}

TEST(ReportFigures, ExactRecordBeatsSampledOnSharedAxis)
{
    // An ablation sweep (say --llc-mshrs) gives exact and sampled
    // records the same axis; the sampled file sorts last but must
    // not replace the exact cell.
    auto axed = [](exp::JobResult r, bool sampled) {
        r.axes = {{"llc_mshrs", "32"}};
        r.result.sampled = sampled;
        return r;
    };
    const std::string dir = freshDir("exact_vs_sampled");
    writeArtifact(dir, "a_exact.jsonl",
                  {axed(makeResult("IO", "vvadd", 100.0), false),
                   axed(makeResult("O3+EVE-8", "vvadd", 25.0), false)});
    writeArtifact(dir, "b_sampled.jsonl",
                  {axed(makeResult("O3+EVE-8", "vvadd", 50.0), true)});
    const auto fig = fig6Performance(loadSweepDir(dir));
    ASSERT_EQ(fig.rows.size(), 1u);
    ASSERT_EQ(fig.columns.size(), 2u);
    EXPECT_EQ(fig.columns[1], "O3+EVE-8");
    EXPECT_DOUBLE_EQ(fig.at(0, 1), 4.0);
}

TEST(ReportFigures, Table4PicksMostCapableVectorSystem)
{
    const std::string dir = freshDir("tab4");
    writeArtifact(dir, "sweep.jsonl",
                  {makeResult("O3+DV", "sw", 10.0),
                   makeResult("O3+EVE-8", "sw", 5.0)});
    const auto fig = table4Characterization(loadSweepDir(dir));
    ASSERT_FALSE(fig.empty());
    ASSERT_EQ(fig.rows.size(), 1u);
    // vec_elem_ops / vec_instrs = 6400 / 100.
    const auto it = std::find(fig.columns.begin(), fig.columns.end(),
                              "ops_per_vinstr");
    ASSERT_NE(it, fig.columns.end());
    EXPECT_DOUBLE_EQ(
        fig.at(0, std::size_t(it - fig.columns.begin())), 64.0);
}

TEST(ReportDeltas, IdenticalRunsHaveZeroDeltas)
{
    const std::string dir = freshDir("zero");
    writeArtifact(dir, "sweep.jsonl",
                  {makeResult("IO", "vvadd", 100.0),
                   makeResult("O3+EVE-8", "vvadd", 25.0)});
    const auto current = loadSweepDir(dir);
    const auto report = compareRuns(current, current);
    EXPECT_EQ(report.cells, 2u);
    EXPECT_TRUE(report.deltas.empty());
    EXPECT_DOUBLE_EQ(report.worst_regress_pct, 0.0);
    EXPECT_TRUE(gatePassed(report, 0.0));
}

TEST(ReportDeltas, RegressionGateMath)
{
    const std::string base_dir = freshDir("base");
    const std::string cur_dir = freshDir("cur");
    writeArtifact(base_dir, "sweep.jsonl",
                  {makeResult("IO", "vvadd", 100.0, 1000)});
    writeArtifact(cur_dir, "sweep.jsonl",
                  {makeResult("IO", "vvadd", 110.0, 1100)});
    const auto report = compareRuns(loadSweepDir(cur_dir),
                                    loadSweepDir(base_dir));
    EXPECT_EQ(report.cells, 1u);
    EXPECT_FALSE(report.deltas.empty());
    EXPECT_NEAR(report.worst_regress_pct, 10.0, 1e-9);
    EXPECT_FALSE(gatePassed(report, 5.0));
    EXPECT_TRUE(gatePassed(report, 15.0));
    EXPECT_FALSE(renderDeltas(report).empty());
}

TEST(ReportDeltas, StatusDegradationFailsGate)
{
    const std::string base_dir = freshDir("sbase");
    const std::string cur_dir = freshDir("scur");
    writeArtifact(base_dir, "sweep.jsonl",
                  {makeResult("IO", "vvadd", 100.0)});
    auto bad = makeResult("IO", "vvadd", 100.0);
    bad.status = exp::JobStatus::Mismatch;
    bad.result.mismatches = 7;
    writeArtifact(cur_dir, "sweep.jsonl", {bad});
    const auto report = compareRuns(loadSweepDir(cur_dir),
                                    loadSweepDir(base_dir));
    EXPECT_EQ(report.status_degradations, 1u);
    EXPECT_FALSE(gatePassed(report, 100.0));
}

TEST(ReportDeltas, MissingCellFailsGateNewCellDoesNot)
{
    const std::string base_dir = freshDir("mbase");
    const std::string cur_dir = freshDir("mcur");
    writeArtifact(base_dir, "sweep.jsonl",
                  {makeResult("IO", "vvadd", 100.0),
                   makeResult("O3", "vvadd", 50.0)});
    writeArtifact(cur_dir, "sweep.jsonl",
                  {makeResult("IO", "vvadd", 100.0),
                   makeResult("O3+EVE-8", "vvadd", 25.0)});
    const auto report = compareRuns(loadSweepDir(cur_dir),
                                    loadSweepDir(base_dir));
    ASSERT_EQ(report.missing_in_current.size(), 1u);
    EXPECT_EQ(report.missing_in_baseline.size(), 1u);
    EXPECT_FALSE(gatePassed(report, 0.0));
}

TEST(ReportArtifacts, WritesCsvGnuplotSvgPerFigure)
{
    const std::string dir = freshDir("art");
    writeArtifact(dir, "sweep.jsonl",
                  {makeResult("IO", "vvadd", 100.0),
                   makeResult("O3+EVE-8", "vvadd", 25.0)});
    const auto figures = buildAll(loadSweepDir(dir));
    ASSERT_FALSE(figures.empty());

    const std::string out = dir + "/report";
    const auto paths = writeFigureArtifacts(figures, out);
    ASSERT_FALSE(paths.empty());
    EXPECT_EQ(paths.size() % 3, 0u); // csv + gp + svg per figure
    for (const auto& p : paths) {
        EXPECT_TRUE(fileExists(p)) << p;
        std::string text;
        ASSERT_TRUE(readFile(p, text)) << p;
        EXPECT_FALSE(text.empty()) << p;
        if (p.size() > 4 && p.substr(p.size() - 4) == ".svg") {
            EXPECT_NE(text.find("<svg"), std::string::npos) << p;
        }
    }

    // The csv for fig6 carries the speedup value.
    std::string csv;
    ASSERT_TRUE(readFile(out + "/fig6_performance.csv", csv));
    EXPECT_NE(csv.find("vvadd"), std::string::npos);
}

} // namespace
} // namespace eve::report
