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
    EXPECT_EQ(records[0].system, "IO");
    EXPECT_EQ(records[0].workload, "vvadd");
    EXPECT_EQ(records[0].status, "ok");
    EXPECT_DOUBLE_EQ(records[0].seconds, 100.0);
    EXPECT_EQ(records[1].system, "O3+EVE-8");
    EXPECT_DOUBLE_EQ(records[1].seconds, 25.0);
    EXPECT_NE(records[0].key(), records[1].key());
}

TEST(ReportLoad, SkipsMalformedLinesAndCacheFile)
{
    const std::string dir = freshDir("malformed");
    writeArtifact(dir, "sweep.jsonl", {makeResult("IO", "vvadd", 1.0)});
    {
        std::ofstream out(dir + "/sweep.jsonl", std::ios::app);
        out << "not json at all\n"
            << "{\"no\":\"record fields\"}\n";
    }
    // cache.jsonl holds key-prefixed cache lines, not sweep records.
    {
        std::ofstream out(dir + "/cache.jsonl");
        out << "deadbeef {\"system\":\"IO\"}\n";
    }

    LoadStats stats;
    const auto records = loadSweepDir(dir, &stats);
    EXPECT_EQ(records.size(), 1u);
    EXPECT_EQ(stats.files, 1u);
    EXPECT_EQ(stats.skipped_lines, 2u);
}

TEST(ReportLoad, DedupIsLastWinsPerCell)
{
    const std::string dir = freshDir("dedup");
    writeArtifact(dir, "sweep.jsonl",
                  {makeResult("IO", "vvadd", 100.0),
                   makeResult("IO", "vvadd", 50.0)});
    const auto deduped = dedupCells(loadSweepDir(dir));
    ASSERT_EQ(deduped.size(), 1u);
    EXPECT_DOUBLE_EQ(deduped[0].seconds, 50.0);
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
