/**
 * @file
 * Interval-sampling and checkpoint tests: schedule canonicalization,
 * warmup-filter bookkeeping, sampled-run determinism, the
 * extrapolation error bound, sampled == exact when one window covers
 * the stream, checkpoint save/restore byte-identity, and salt-skew
 * quarantine.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>

#include "exp/exp.hh"
#include "sim/checkpoint.hh"
#include "sim/sampling.hh"
#include "workloads/workload.hh"

#include "test_util.hh"

using namespace eve;
using namespace eve::exp;
using eve::test::freshDir;

namespace
{

/** One job over @p workload at small scale (O3+EVE-8 by default). */
Job
smallJob(const std::string& workload, const SamplingConfig& sampling,
         SystemKind kind = SystemKind::O3EVE)
{
    SweepSpec spec;
    SystemConfig cfg;
    cfg.kind = kind;
    cfg.eve_pf = 8;
    spec.system(cfg);
    spec.workloads({workload}, std::string("small"));
    spec.sampling(sampling);
    return spec.jobs().front();
}

/**
 * A schedule whose 400-record period is shorter than the small-scale
 * streams (mmult: 796 records, k-means: 3034), so fast-forward
 * boundaries actually fire in unit tests.
 */
SamplingConfig
testSchedule()
{
    SamplingConfig cfg;
    cfg.interval = 100;
    cfg.warmup = 20;
    cfg.stride = 4;
    return cfg;
}

} // namespace

TEST(SamplingConfig, CanonicalRoundTrip)
{
    SamplingConfig cfg;
    EXPECT_FALSE(cfg.enabled());
    EXPECT_EQ(samplingCanonical(cfg), "");

    cfg = testSchedule();
    EXPECT_TRUE(cfg.enabled());
    EXPECT_EQ(cfg.period(), 400u);
    const std::string text = samplingCanonical(cfg);
    EXPECT_EQ(text, "interval=100;warmup=20;stride=4");

    SamplingConfig back;
    ASSERT_TRUE(parseSamplingCanonical(text, back));
    EXPECT_EQ(back.interval, cfg.interval);
    EXPECT_EQ(back.warmup, cfg.warmup);
    EXPECT_EQ(back.stride, cfg.stride);

    // "" is the canonical form of "disabled".
    SamplingConfig off;
    ASSERT_TRUE(parseSamplingCanonical("", off));
    EXPECT_FALSE(off.enabled());
}

TEST(SamplingConfig, CanonicalParseRejectsMalformedText)
{
    SamplingConfig out;
    // Wrong field order, missing fields, junk, and non-canonical
    // spellings (the canonical text is a cache-key component, so the
    // round trip must be exact).
    EXPECT_FALSE(parseSamplingCanonical("interval=100", out));
    EXPECT_FALSE(parseSamplingCanonical(
        "warmup=20;interval=100;stride=4", out));
    EXPECT_FALSE(parseSamplingCanonical(
        "interval=100;warmup=20;stride=4;", out));
    EXPECT_FALSE(parseSamplingCanonical(
        "interval=0100;warmup=20;stride=4", out));
    EXPECT_FALSE(parseSamplingCanonical(
        "interval=100;warmup=20;stride=bad", out));
    // Invalid schedule: warmup + interval exceed the period.
    EXPECT_FALSE(parseSamplingCanonical(
        "interval=100;warmup=20;stride=1", out));
}

TEST(SamplingConfig, FlagParsing)
{
    SamplingConfig out;
    ASSERT_TRUE(parseSamplingFlag("default", out));
    EXPECT_TRUE(out.enabled());
    EXPECT_EQ(samplingCanonical(out),
              samplingCanonical(defaultSampling()));

    ASSERT_TRUE(parseSamplingFlag("1000", out));
    EXPECT_EQ(out.interval, 1000u);
    EXPECT_EQ(out.warmup, 200u); // 1:5 of the interval
    EXPECT_EQ(out.stride, defaultSampling().stride);

    ASSERT_TRUE(parseSamplingFlag("1000,200,8", out));
    EXPECT_EQ(out.interval, 1000u);
    EXPECT_EQ(out.warmup, 200u);
    EXPECT_EQ(out.stride, 8u);

    ASSERT_TRUE(
        parseSamplingFlag("interval=100;warmup=20;stride=4", out));
    EXPECT_EQ(out.interval, 100u);

    EXPECT_FALSE(parseSamplingFlag("", out));
    EXPECT_FALSE(parseSamplingFlag("1000,200,8,9", out));
    EXPECT_FALSE(parseSamplingFlag("bogus", out));
    // Shorthand that violates the period invariant.
    EXPECT_FALSE(parseSamplingFlag("1000,200,1", out));
}

TEST(WarmupFilter, TracksDistinctLinesWithLruBound)
{
    WarmupFilter filter(/*line_bytes=*/64, /*max_lines=*/4);

    Instr load;
    load.op = Op::SLoad;
    for (std::uint64_t i = 0; i < 8; ++i) {
        load.addr = i * 64;
        filter.observe(load);
    }
    // Bounded: only the hottest 4 of the 8 lines survive.
    EXPECT_EQ(filter.lines(), 4u);

    // Re-touching a resident line must not grow the set.
    load.addr = 7 * 64;
    filter.observe(load);
    EXPECT_EQ(filter.lines(), 4u);

    // A contiguous vector load walks lines, not elements.
    WarmupFilter wide(64, 1024);
    Instr vload;
    vload.op = Op::VLoad;
    vload.addr = 0;
    vload.vl = 64; // 256 bytes = 4 lines
    wide.observe(vload);
    EXPECT_EQ(wide.lines(), 4u);

    // Non-memory records are ignored.
    Instr alu;
    alu.op = Op::VAdd;
    alu.vl = 64;
    wide.observe(alu);
    EXPECT_EQ(wide.lines(), 4u);
}

TEST(Sampling, SampledRunIsDeterministic)
{
    const Job job = smallJob("k-means", testSchedule());

    JobResult a, b;
    runJob(job, a);
    runJob(job, b);
    ASSERT_EQ(a.status, JobStatus::Ok);
    EXPECT_TRUE(a.result.sampled);
    EXPECT_GT(a.result.sample_windows, 1u);
    EXPECT_EQ(resultToJson(a, /*include_host_time=*/false),
              resultToJson(b, /*include_host_time=*/false));
}

TEST(Sampling, ExtrapolatedCyclesWithinErrorBound)
{
    // The 3% bound over every paper kernel whose small stream spans
    // more than one 400-record period. vvadd (40 records) and
    // pathfinder (150) are shorter: their cycles come from one
    // window, not from sampling.
    for (const char* name :
         {"mmult", "k-means", "jacobi-2d", "backprop", "sw"}) {
        Job exact_job = smallJob(name, SamplingConfig{});
        JobResult exact;
        runJob(exact_job, exact);
        ASSERT_EQ(exact.status, JobStatus::Ok);
        EXPECT_FALSE(exact.result.sampled);

        const Job sampled_job = smallJob(name, testSchedule());
        JobResult sampled;
        runJob(sampled_job, sampled);
        ASSERT_EQ(sampled.status, JobStatus::Ok);
        ASSERT_TRUE(sampled.result.sampled);
        EXPECT_LT(sampled.result.sampled_measured_instrs,
                  exact.result.instrs);

        const double err =
            std::fabs(sampled.result.cycles - exact.result.cycles) /
            exact.result.cycles;
        EXPECT_LT(err, 0.03) << name << ": sampled "
                             << sampled.result.cycles << " vs exact "
                             << exact.result.cycles;
    }
}

TEST(Sampling, ShortStreamIsFullyMeasured)
{
    // A schedule whose first measured window spans the whole stream
    // never fast-forwards and extrapolates by exactly 1, so the
    // sampled run must reproduce the exact one on every system.
    for (SystemKind kind :
         {SystemKind::IO, SystemKind::O3, SystemKind::O3IV,
          SystemKind::O3DV, SystemKind::O3EVE}) {
        SCOPED_TRACE(systemKindName(kind));
        JobResult exact;
        runJob(smallJob("vvadd", SamplingConfig{}, kind), exact);
        ASSERT_EQ(exact.status, JobStatus::Ok);

        SamplingConfig whole;
        whole.interval = exact.result.instrs;
        whole.warmup = exact.result.instrs / 5;
        whole.stride = 4;
        JobResult sampled;
        runJob(smallJob("vvadd", whole, kind), sampled);
        ASSERT_EQ(sampled.status, JobStatus::Ok);
        const RunResult& e = exact.result;
        const RunResult& s = sampled.result;
        ASSERT_TRUE(s.sampled);
        EXPECT_EQ(s.sample_windows, 1u);
        EXPECT_EQ(s.sampled_measured_instrs, e.instrs);

        EXPECT_EQ(s.instrs, e.instrs);
        EXPECT_EQ(s.vecInstrs, e.vecInstrs);
        EXPECT_EQ(s.vecElemOps, e.vecElemOps);
        EXPECT_EQ(s.total_ticks, e.total_ticks);
        EXPECT_EQ(s.cycles, e.cycles);
        EXPECT_EQ(s.stats, e.stats);
        EXPECT_EQ(s.has_breakdown, kind == SystemKind::O3EVE);
        EXPECT_EQ(s.has_breakdown, e.has_breakdown);
        EXPECT_EQ(s.breakdown, e.breakdown);
        EXPECT_EQ(s.vmu_cache_stall_ticks, e.vmu_cache_stall_ticks);
    }
}

TEST(Checkpoint, ColdRunSavesWarmRunRestoresByteIdentically)
{
    const std::string dir = freshDir("ckpt_roundtrip");
    const Job job = smallJob("k-means", testSchedule());

    JobResult cold;
    runJob(job, cold, dir);
    ASSERT_EQ(cold.status, JobStatus::Ok);
    EXPECT_EQ(cold.result.checkpoint, "saved");

    // Exactly one checkpoint file appears.
    std::size_t files = 0;
    for (const auto& e : std::filesystem::directory_iterator(dir))
        files += e.path().extension() == ".ckpt";
    EXPECT_EQ(files, 1u);

    JobResult warm;
    runJob(job, warm, dir);
    ASSERT_EQ(warm.status, JobStatus::Ok);
    EXPECT_EQ(warm.result.checkpoint, "restored");

    // The restored run replays the cold run exactly — including the
    // serialized record, because RunResult::checkpoint is never
    // serialized.
    EXPECT_EQ(resultToJson(cold, false), resultToJson(warm, false));
}

TEST(Checkpoint, ExactRunsIgnoreTheCheckpointDir)
{
    const std::string dir = freshDir("ckpt_exact");
    const Job job = smallJob("mmult", SamplingConfig{});
    JobResult r;
    runJob(job, r, dir);
    ASSERT_EQ(r.status, JobStatus::Ok);
    EXPECT_EQ(r.result.checkpoint, "");
    EXPECT_TRUE(std::filesystem::is_empty(dir));
}

TEST(Checkpoint, SaltSkewQuarantinesTheFile)
{
    const std::string dir = freshDir("ckpt_salt");
    const std::string material = "workload=x|scale=small|vl=8|"
                                 "mem=64|interval=100;warmup=20;"
                                 "stride=4";

    Checkpoint ck;
    ck.position = 400;
    ck.machine.vlmax = 8;
    ck.machine.vl = 8;
    ck.machine.scalarResult = 7;
    ck.machine.vregs.assign(4, std::vector<std::int32_t>(8, 3));
    ck.mem.assign(64, 0xab);

    CheckpointStore old_store(dir, "salt-old");
    old_store.save(material, ck);

    Checkpoint out;
    CheckpointStore new_store(dir, "salt-new");
    EXPECT_FALSE(new_store.load(material, out));

    // The stale file was renamed aside, not deleted and not left to
    // be mistaken for a valid checkpoint again.
    std::size_t ckpt = 0, quarantined = 0;
    for (const auto& e : std::filesystem::directory_iterator(dir)) {
        ckpt += e.path().extension() == ".ckpt";
        quarantined += e.path().extension() == ".quarantine";
    }
    EXPECT_EQ(ckpt, 0u);
    EXPECT_EQ(quarantined, 1u);

    // Same-salt round trip still works.
    CheckpointStore store(dir, "salt-old");
    store.save(material, ck);
    Checkpoint back;
    ASSERT_TRUE(store.load(material, back));
    EXPECT_EQ(back.position, ck.position);
    EXPECT_EQ(back.machine.vl, ck.machine.vl);
    EXPECT_EQ(back.machine.scalarResult, ck.machine.scalarResult);
    EXPECT_EQ(back.machine.vregs, ck.machine.vregs);
    EXPECT_EQ(back.mem, ck.mem);
}

TEST(Checkpoint, TruncatedFileIsQuarantinedNotFatal)
{
    const std::string dir = freshDir("ckpt_trunc");
    const std::string material = "workload=y|scale=small|vl=8|"
                                 "mem=16|interval=100;warmup=20;"
                                 "stride=4";
    Checkpoint ck;
    ck.position = 10;
    ck.machine.vlmax = 8;
    ck.machine.vl = 4;
    ck.machine.vregs.assign(2, std::vector<std::int32_t>(8, 1));
    ck.mem.assign(16, 0x5a);

    CheckpointStore store(dir, "salt");
    store.save(material, ck);

    // Truncate the payload.
    const std::string path = store.pathFor(material);
    std::error_code ec;
    std::filesystem::resize_file(path,
                                 std::filesystem::file_size(path) - 8,
                                 ec);
    ASSERT_FALSE(ec);

    Checkpoint out;
    EXPECT_FALSE(store.load(material, out));
    EXPECT_TRUE(
        std::filesystem::exists(path + ".quarantine"));
}
