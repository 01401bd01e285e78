/**
 * @file
 * Distributed sweep protocol tests: job-file round trips, claim
 * races, lease-expiry reclaim, retry exhaustion and quarantine,
 * partial-result handling, and the byte-identity of merged
 * distributed results with a single-threaded run.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <thread>

#include "common/fs.hh"
#include "exp/exp.hh"
#include "workloads/workload.hh"

#include "test_util.hh"

using namespace eve;
using namespace eve::exp;
using eve::test::freshDir;

namespace
{

/** The same 4-job grid the runner tests use. */
SweepSpec
smallGrid()
{
    SweepSpec spec;
    SystemConfig io;
    io.kind = SystemKind::IO;
    SystemConfig o3eve;
    o3eve.kind = SystemKind::O3EVE;
    o3eve.eve_pf = 8;
    spec.system(io).system(o3eve);
    spec.axis<unsigned>("llc_mshrs", {16, 32},
                        [](SystemConfig& c, unsigned m) {
                            c.llc_mshrs = m;
                        });
    spec.workloads({"vvadd"}, /*small=*/true);
    return spec;
}

/** Worker/reclaim options tuned for test speed. */
DistOptions
fastOpts(const std::string& dir)
{
    DistOptions opts;
    opts.jobs_dir = dir;
    opts.lease_timeout_s = 0.1;
    opts.heartbeat_s = 0.02;
    opts.poll_s = 0.01;
    opts.join_timeout_s = 5;
    return opts;
}

} // namespace

TEST(DistJob, TextRoundTripAndRejection)
{
    DistJob job;
    job.index = 42;
    job.key = "0123456789abcdef";
    job.label = "O3+EVE-8/llc_mshrs=32/vvadd";
    job.workload = "vvadd";
    job.scale = "small";
    job.config = "kind=4;eve_pf=8;llc_mshrs=32;l2_mshrs=32;"
                 "llc_prefetch_lines=0;dtus=8;spawn_ready=0";
    job.attempts = 2;
    job.remote = true;

    DistJob back;
    ASSERT_TRUE(parseDistJob(distJobText(job), back));
    EXPECT_EQ(back.index, 42u);
    EXPECT_EQ(back.key, job.key);
    EXPECT_EQ(back.label, job.label);
    EXPECT_EQ(back.workload, "vvadd");
    EXPECT_EQ(back.scale, "small");
    EXPECT_EQ(back.config, job.config);
    EXPECT_EQ(back.attempts, 2u);
    EXPECT_TRUE(back.remote);

    EXPECT_FALSE(parseDistJob("", back));
    EXPECT_FALSE(parseDistJob("index=1\n", back));
    EXPECT_FALSE(parseDistJob(distJobText(job) + "extra=1\n", back));
    DistJob bad_key = job;
    bad_key.key = "short";
    EXPECT_FALSE(parseDistJob(distJobText(bad_key), back));
}

TEST(DistJob, SamplingRidesTheJobFile)
{
    DistJob job;
    job.index = 7;
    job.key = "0123456789abcdef";
    job.label = "O3+EVE-8/mmult";
    job.workload = "mmult";
    job.scale = "paper";
    job.config = "kind=4;eve_pf=8;llc_mshrs=32;l2_mshrs=32;"
                 "llc_prefetch_lines=0;dtus=8;spawn_ready=0";
    job.sampling = "interval=1000;warmup=200;stride=8";
    job.remote = true;

    // The v2 job file is exactly 9 lines, sampling included — even
    // for exact jobs, whose sampling value is empty.
    const std::string text = distJobText(job);
    EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 9);
    EXPECT_NE(text.find("sampling=interval=1000;warmup=200;stride=8"),
              std::string::npos);

    DistJob back;
    ASSERT_TRUE(parseDistJob(text, back));
    EXPECT_EQ(back.sampling, job.sampling);
    EXPECT_EQ(back.scale, "paper");

    DistJob exact = job;
    exact.sampling.clear();
    const std::string exact_text = distJobText(exact);
    EXPECT_EQ(std::count(exact_text.begin(), exact_text.end(), '\n'),
              9);
    ASSERT_TRUE(parseDistJob(exact_text, back));
    EXPECT_EQ(back.sampling, "");
}

TEST(DistJob, ConfigCanonicalRoundTrip)
{
    for (const Job& job : smallGrid().jobs()) {
        SystemConfig back;
        ASSERT_TRUE(
            parseConfigCanonical(configCanonical(job.config), back));
        EXPECT_EQ(configCanonical(back), configCanonical(job.config));
    }
    SystemConfig out;
    EXPECT_FALSE(parseConfigCanonical("", out));
    EXPECT_FALSE(parseConfigCanonical("kind=4;eve_pf=8", out));
    EXPECT_FALSE(parseConfigCanonical(
        "kind=99;eve_pf=8;llc_mshrs=32;l2_mshrs=32;"
        "llc_prefetch_lines=0;dtus=8;spawn_ready=0", out));
}

TEST(Dist, MaterializeStatusAndRebuild)
{
    const std::string dir = freshDir("eve_dist_materialize");
    const auto jobs = smallGrid().jobs();

    JobsDir jd(fastOpts(dir));
    jd.materialize(jobs);

    DistStatus s = jd.status();
    EXPECT_EQ(s.total, 4u);
    EXPECT_EQ(s.pending, 4u);
    EXPECT_EQ(s.done, 0u);
    EXPECT_FALSE(s.complete());

    // Materializing again over the same directory is a no-op.
    jd.materialize(jobs);
    EXPECT_EQ(jd.status().pending, 4u);

    // Every pending file parses and rebuilds into a Job whose
    // recomputed content key matches the recorded one.
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        std::string text;
        ASSERT_TRUE(readFile(dir + "/pending/" + JobsDir::jobName(i) +
                                 ".job", text));
        DistJob dist;
        ASSERT_TRUE(parseDistJob(text, dist));
        EXPECT_TRUE(dist.remote);
        EXPECT_EQ(dist.key, jobKey(jobs[i]));
        Job rebuilt;
        ASSERT_TRUE(rebuildJob(dist, rebuilt));
        EXPECT_EQ(jobKey(rebuilt), jobKey(jobs[i]));
        EXPECT_EQ(configCanonical(rebuilt.config),
                  configCanonical(jobs[i].config));
    }

    EXPECT_FALSE(jd.stopRequested());
    jd.requestStop();
    EXPECT_TRUE(jd.stopRequested());
    jd.clearStop();
    EXPECT_FALSE(jd.stopRequested());
}

TEST(Dist, ClaimIsExclusiveAndSkipsTerminalJobs)
{
    const std::string dir = freshDir("eve_dist_claim");
    const auto jobs = smallGrid().jobs();
    JobsDir a(fastOpts(dir));
    JobsDir b(fastOpts(dir));
    a.materialize(jobs);

    // Four claims succeed across the two handles, the fifth fails.
    DistJob j;
    std::size_t claims = 0;
    while (a.claimNext(j))
        ++claims;
    while (b.claimNext(j))
        ++claims;
    EXPECT_EQ(claims, 4u);
    EXPECT_EQ(a.status().claimed, 4u);
    EXPECT_EQ(a.status().pending, 0u);
}

TEST(Dist, TwoWorkersRaceNoJobLostOrDuplicated)
{
    const std::string dir = freshDir("eve_dist_race");
    const auto jobs = smallGrid().jobs();
    JobsDir coordinator(fastOpts(dir));
    coordinator.materialize(jobs);

    WorkerReport r1, r2;
    std::thread t1([&] {
        DistOptions o = fastOpts(dir);
        o.worker_id = "w1";
        r1 = runDistWorker(o, &jobs);
    });
    std::thread t2([&] {
        DistOptions o = fastOpts(dir);
        o.worker_id = "w2";
        r2 = runDistWorker(o, &jobs);
    });
    t1.join();
    t2.join();

    // Every job executed exactly once across the pair.
    EXPECT_EQ(r1.executed + r2.executed, 4u);
    const DistStatus s = coordinator.status();
    EXPECT_TRUE(s.complete());
    EXPECT_EQ(s.done, 4u);
    EXPECT_EQ(s.failed, 0u);
    EXPECT_EQ(s.pending, 0u);
    EXPECT_EQ(s.claimed, 0u);

    const auto merged = coordinator.merge(jobs);
    for (const auto& r : merged)
        EXPECT_EQ(r.status, JobStatus::Ok) << r.label;
}

TEST(Dist, MergedTwoWorkerRunByteIdenticalToSingleThread)
{
    const std::string dir = freshDir("eve_dist_identical");
    const auto jobs = smallGrid().jobs();

    RunnerOptions serial;
    serial.threads = 1;
    const auto expected = Runner(serial).run(jobs);

    DistOptions opts = fastOpts(dir);
    opts.lanes = 2;
    const auto distributed = runDistributed(jobs, opts);

    ASSERT_EQ(distributed.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        // The timing-free payload must match byte for byte; wall
        // clock is host state and legitimately differs.
        EXPECT_EQ(
            resultToJson(distributed[i], /*include_host_time=*/false),
            resultToJson(expected[i], /*include_host_time=*/false));
    }
}

TEST(Dist, LeaseExpiryReclaimsFromDeadWorker)
{
    const std::string dir = freshDir("eve_dist_reclaim");
    const auto jobs = smallGrid().jobs();

    // A worker claims one job and dies without publishing: simulated
    // by destroying the JobsDir (stops its heartbeat; the claim and
    // lease files stay on disk).
    {
        JobsDir victim(fastOpts(dir));
        victim.materialize(jobs);
        DistJob j;
        ASSERT_TRUE(victim.claimNext(j));
    }

    JobsDir reaper(fastOpts(dir));
    EXPECT_EQ(reaper.status().claimed, 1u);
    // First pass only starts the staleness clock for the dead lease.
    EXPECT_EQ(reaper.reclaimExpired(), 0u);
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    EXPECT_EQ(reaper.reclaimExpired(), 1u);

    const DistStatus s = reaper.status();
    EXPECT_EQ(s.claimed, 0u);
    EXPECT_EQ(s.pending, 4u);

    // The reclaimed job carries the attempt bump.
    DistJob j;
    unsigned max_attempts_seen = 0;
    while (reaper.claimNext(j))
        max_attempts_seen = std::max(max_attempts_seen, j.attempts);
    EXPECT_EQ(max_attempts_seen, 1u);
}

TEST(Dist, RetryExhaustionQuarantinesAndMergeReportsIt)
{
    const std::string dir = freshDir("eve_dist_quarantine");
    const auto jobs = smallGrid().jobs();

    DistOptions opts = fastOpts(dir);
    opts.max_attempts = 1; // first expiry quarantines
    {
        JobsDir victim(opts);
        victim.materialize(jobs);
        DistJob j;
        ASSERT_TRUE(victim.claimNext(j));
    }

    JobsDir reaper(opts);
    EXPECT_EQ(reaper.reclaimExpired(), 0u);
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    EXPECT_EQ(reaper.reclaimExpired(), 1u);

    const DistStatus s = reaper.status();
    EXPECT_EQ(s.quarantined, 1u);
    EXPECT_EQ(s.claimed, 0u);
    EXPECT_EQ(s.pending, 3u);

    const auto merged = reaper.merge(jobs);
    std::size_t quarantined = 0;
    for (const auto& r : merged) {
        if (r.status == JobStatus::Failed) {
            ++quarantined;
            EXPECT_NE(r.error.find("quarantined"), std::string::npos)
                << r.error;
        }
    }
    EXPECT_EQ(quarantined, 1u);
}

TEST(Dist, PartialResultFilesAreQuarantined)
{
    const std::string dir = freshDir("eve_dist_partial");
    JobsDir jd(fastOpts(dir));
    jd.materialize(smallGrid().jobs());

    // A result writer died mid-write: its temp file sits in done/.
    const std::string partial =
        jd.doneDir() + "/job-000000.json.1234" + kTmpSuffix;
    {
        std::ofstream os(partial);
        os << "{\"index\":0,\"trunc";
    }
    // Temp files never count as results.
    EXPECT_EQ(jd.status().done, 0u);

    EXPECT_EQ(jd.quarantinePartials(), 0u); // starts the clock
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    EXPECT_EQ(jd.quarantinePartials(), 1u);
    EXPECT_FALSE(fileExists(partial));
    // Quarantined tmp files are debris, not failed jobs.
    EXPECT_EQ(jd.status().quarantined, 0u);
    EXPECT_EQ(jd.status().done, 0u);
}

TEST(Dist, KeyMismatchRefusedAndReturnedToPending)
{
    const std::string dir = freshDir("eve_dist_refuse");
    SweepSpec spec;
    SystemConfig io;
    io.kind = SystemKind::IO;
    spec.system(io).workloads({"vvadd"}, /*small=*/true);
    const auto jobs = spec.jobs();

    JobsDir jd(fastOpts(dir));
    jd.materialize(jobs);

    // Tamper with the recorded key: a worker from a diverged binary
    // would see exactly this (its recomputed key differs).
    const std::string path = dir + "/pending/job-000000.job";
    std::string text;
    ASSERT_TRUE(readFile(path, text));
    DistJob dist;
    ASSERT_TRUE(parseDistJob(text, dist));
    dist.key = "00000000deadbeef";
    atomicWriteFile(path, distJobText(dist));

    Job rebuilt;
    EXPECT_FALSE(rebuildJob(dist, rebuilt));

    // A spec-less worker claims it, refuses it, puts it back, and
    // exits instead of spinning.
    const WorkerReport report = runDistWorker(fastOpts(dir));
    EXPECT_EQ(report.executed, 0u);
    EXPECT_EQ(report.unrebuildable, 1u);
    EXPECT_EQ(jd.status().pending, 1u);
    EXPECT_EQ(jd.status().claimed, 0u);
}

TEST(Dist, SpeclessWorkerExecutesFromJobFilesAlone)
{
    const std::string dir = freshDir("eve_dist_specless");
    const auto jobs = smallGrid().jobs();
    JobsDir coordinator(fastOpts(dir));
    coordinator.materialize(jobs);

    // No local_jobs: everything is rebuilt from the claim files.
    const WorkerReport report = runDistWorker(fastOpts(dir));
    EXPECT_EQ(report.executed, 4u);
    EXPECT_TRUE(coordinator.status().complete());
    for (const auto& r : coordinator.merge(jobs))
        EXPECT_EQ(r.status, JobStatus::Ok) << r.label;
}

TEST(Dist, OrchestratorDegradesToSingleProcessAndFillsCache)
{
    const std::string jobs_dir = freshDir("eve_dist_degrade");
    const std::string cache_dir = freshDir("eve_dist_degrade_cache");
    const auto jobs = smallGrid().jobs();

    ResultCache cache(cache_dir);
    cache.load();

    DistOptions opts = fastOpts(jobs_dir);
    opts.lanes = 1;
    const auto results = runDistributed(jobs, opts, &cache);
    for (const auto& r : results)
        EXPECT_EQ(r.status, JobStatus::Ok) << r.label;
    EXPECT_EQ(cache.stores(), 4u);

    // A rerun is served entirely from the cache and never touches
    // the jobs directory (which still holds the completed state).
    ResultCache cache2(cache_dir);
    cache2.load();
    const auto again =
        runDistributed(jobs, fastOpts(jobs_dir), &cache2);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(again[i].status, JobStatus::Cached);
        EXPECT_EQ(resultToJson(again[i], /*include_host_time=*/false),
                  resultToJson(results[i],
                               /*include_host_time=*/false));
    }
}

TEST(Dist, ResumeOverCompletedDirectoryExecutesNothing)
{
    const std::string dir = freshDir("eve_dist_resume");
    const auto jobs = smallGrid().jobs();

    std::atomic<std::size_t> executed{0};
    DistOptions opts = fastOpts(dir);
    opts.lanes = 2;
    opts.progress = [&](const JobResult&, std::size_t, std::size_t) {
        ++executed;
    };
    runDistributed(jobs, opts);
    EXPECT_EQ(executed.load(), 4u);

    // Second orchestration over the same directory: materialize
    // skips every job (all terminal) and the lanes find nothing.
    executed = 0;
    const auto results = runDistributed(jobs, opts);
    EXPECT_EQ(executed.load(), 0u);
    for (const auto& r : results)
        EXPECT_EQ(r.status, JobStatus::Ok) << r.label;
}

TEST(Dist, MaterializeRefusesForeignGrid)
{
    const std::string dir = freshDir("eve_dist_foreign");
    JobsDir jd(fastOpts(dir));
    jd.materialize(smallGrid().jobs());

    SweepSpec other;
    SystemConfig o3;
    o3.kind = SystemKind::O3;
    other.system(o3).workloads({"vvadd"}, /*small=*/true);
    JobsDir jd2(fastOpts(dir));
    EXPECT_EXIT(jd2.materialize(other.jobs()),
                ::testing::ExitedWithCode(1), "different sweep");
}

TEST(Dist, MaterializeRefusesSkewedManifest)
{
    // A directory built under another simulator salt or protocol
    // version holds the same grid in name only: resuming it would
    // merge its done/ records, and cache them, as this binary's.
    const auto jobs = smallGrid().jobs();
    for (const std::string field : {"salt", "version"}) {
        SCOPED_TRACE(field);
        const std::string dir = freshDir("eve_dist_skew_" + field);
        JobsDir jd(fastOpts(dir));
        jd.materialize(jobs);

        std::string text;
        ASSERT_TRUE(readFile(jd.manifestPath(), text));
        const std::size_t at = text.find(field + "=");
        ASSERT_NE(at, std::string::npos);
        text.insert(at + field.size() + 1, "old-");
        atomicWriteFile(jd.manifestPath(), text);

        JobsDir jd2(fastOpts(dir));
        EXPECT_EXIT(jd2.materialize(jobs),
                    ::testing::ExitedWithCode(1),
                    "different sweep \\(manifest " + field);
    }
}

TEST(Dist, VariantGivesCustomExecutorJobsDistinctKeys)
{
    const auto jobs = smallGrid().jobs();
    Job solo = jobs[0];
    Job variant = jobs[0];
    variant.exec = [](const SystemConfig&) { return RunResult{}; };
    variant.variant = "cmp:neighbour=O3+EVE-8/vvadd";
    EXPECT_NE(jobKey(solo), jobKey(variant));
    // Empty variant leaves the pre-variant key scheme untouched.
    Job empty_variant = jobs[0];
    empty_variant.variant = "";
    EXPECT_EQ(jobKey(solo), jobKey(empty_variant));
}

TEST(Dist, StopMarkerHaltsWorkerPromptly)
{
    const std::string dir = freshDir("eve_dist_stop");
    JobsDir jd(fastOpts(dir));
    jd.materialize(smallGrid().jobs());
    jd.requestStop();

    const WorkerReport report = runDistWorker(fastOpts(dir));
    EXPECT_TRUE(report.stopped);
    EXPECT_EQ(report.executed, 0u);
    EXPECT_EQ(jd.status().pending, 4u);
}
