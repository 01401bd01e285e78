/**
 * @file
 * Distributed sweep protocol tests: job-file round trips, exclusive
 * claims, takeover of dead claims, abandonment after kMaxClaims dead
 * claims, ignored temp files, refusal of unrunnable jobs, a worker
 * process killed mid-job, and the byte-identity of merged distributed
 * results with a single-threaded run.
 *
 * Tests that count executions or compare payloads use a lease no
 * heartbeat misses under load. Only takeover tests use a 0.1 s lease,
 * and only against claimants that really are dead.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <thread>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

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

/** Options whose lease no live claimant misses under load. */
DistOptions
liveOpts(const std::string& dir)
{
    DistOptions opts;
    opts.jobs_dir = dir;
    opts.lease_timeout_s = 5;
    return opts;
}

/** Options that take over a dead claimant's job within 0.1 s. */
DistOptions
reclaimOpts(const std::string& dir)
{
    DistOptions opts;
    opts.jobs_dir = dir;
    opts.lease_timeout_s = 0.1;
    return opts;
}

std::string
claimPath(const std::string& dir, const std::string& key, unsigned n)
{
    return dir + "/claims/" + key + "." + std::to_string(n);
}

std::size_t
countFiles(const std::string& dir)
{
    std::size_t n = 0;
    for (const auto& e : std::filesystem::directory_iterator(dir))
        n += e.is_regular_file();
    return n;
}

void
sleepMs(int ms)
{
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

/** Wait up to @p seconds for @p pid; its exit status, or -1. */
int
waitExit(pid_t pid, double seconds)
{
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(seconds);
    while (std::chrono::steady_clock::now() < deadline) {
        int status = 0;
        if (::waitpid(pid, &status, WNOHANG) == pid)
            return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
        sleepMs(20);
    }
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
    return -1;
}

} // namespace

TEST(DistJob, TextRoundTripAndRejection)
{
    DistJob job;
    job.key = "0123456789abcdef";
    job.label = "O3+EVE-8/llc_mshrs=32/vvadd";
    job.workload = "vvadd";
    job.scale = "small";
    job.config = "kind=4;eve_pf=8;llc_mshrs=32;l2_mshrs=32;"
                 "llc_prefetch_lines=0;dtus=8;spawn_ready=0";
    job.remote = true;

    DistJob back;
    ASSERT_TRUE(parseDistJob(distJobText(job), back));
    EXPECT_EQ(back.key, job.key);
    EXPECT_EQ(back.label, job.label);
    EXPECT_EQ(back.workload, "vvadd");
    EXPECT_EQ(back.scale, "small");
    EXPECT_EQ(back.config, job.config);
    EXPECT_TRUE(back.remote);

    EXPECT_FALSE(parseDistJob("", back));
    EXPECT_FALSE(parseDistJob("key=0123456789abcdef\n", back));
    EXPECT_FALSE(parseDistJob(distJobText(job) + "extra=1\n", back));
    DistJob bad_key = job;
    bad_key.key = "short";
    EXPECT_FALSE(parseDistJob(distJobText(bad_key), back));
}

TEST(DistJob, SamplingRidesTheJobFile)
{
    DistJob job;
    job.key = "0123456789abcdef";
    job.label = "O3+EVE-8/mmult";
    job.workload = "mmult";
    job.scale = "paper";
    job.config = "kind=4;eve_pf=8;llc_mshrs=32;l2_mshrs=32;"
                 "llc_prefetch_lines=0;dtus=8;spawn_ready=0";
    job.sampling = "interval=1000;warmup=200;stride=8";
    job.remote = true;

    // The v3 job file is exactly 7 lines, sampling included — even
    // for exact jobs, whose sampling value is empty.
    const std::string text = distJobText(job);
    EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 7);
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
              7);
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

    JobsDir jd(liveOpts(dir));
    jd.materialize(jobs);

    DistStatus s = jd.status();
    EXPECT_EQ(s.total, 4u);
    EXPECT_EQ(s.pending, 4u);
    EXPECT_EQ(s.done, 0u);
    EXPECT_FALSE(s.complete());

    // Materializing again over the same directory is a no-op.
    jd.materialize(jobs);
    EXPECT_EQ(jd.status().pending, 4u);
    EXPECT_EQ(countFiles(dir + "/jobs"), 4u);

    // Every job file is named by its key, parses, and rebuilds into a
    // Job whose recomputed content key matches the recorded one.
    for (const Job& job : jobs) {
        std::string text;
        ASSERT_TRUE(
            readFile(dir + "/jobs/" + jobKey(job) + ".job", text));
        DistJob dist;
        ASSERT_TRUE(parseDistJob(text, dist));
        EXPECT_TRUE(dist.remote);
        EXPECT_EQ(dist.key, jobKey(job));
        Job rebuilt;
        ASSERT_TRUE(rebuildJob(dist, rebuilt));
        EXPECT_EQ(jobKey(rebuilt), jobKey(job));
        EXPECT_EQ(configCanonical(rebuilt.config),
                  configCanonical(job.config));
    }

    EXPECT_FALSE(jd.stopRequested());
    jd.requestStop();
    EXPECT_TRUE(jd.stopRequested());
    jd.clearStop();
    EXPECT_FALSE(jd.stopRequested());
}

TEST(Dist, DuplicateKeysShareOneJobFileAndRecord)
{
    const std::string dir = freshDir("eve_dist_duplicates");
    auto jobs = smallGrid().jobs();
    jobs.push_back(jobs[0]);
    jobs.back().index = jobs.size() - 1;

    DistOptions opts = liveOpts(dir);
    opts.lanes = 2;
    const auto results = runDistributed(jobs, opts);

    JobsDir jd(liveOpts(dir));
    EXPECT_EQ(jd.status().total, 4u);
    EXPECT_EQ(jd.status().done, 4u);
    EXPECT_EQ(countFiles(dir + "/jobs"), 4u);
    EXPECT_EQ(countFiles(dir + "/done"), 4u);

    ASSERT_EQ(results.size(), 5u);
    for (const auto& r : results)
        EXPECT_EQ(r.status, JobStatus::Ok) << r.label;
    JobResult twin = results[4];
    twin.index = results[0].index;
    EXPECT_EQ(resultToJson(twin, /*include_host_time=*/false),
              resultToJson(results[0], /*include_host_time=*/false));
}

TEST(Dist, ClaimIsExclusiveAndSkipsTerminalJobs)
{
    const std::string dir = freshDir("eve_dist_claim");
    const auto jobs = smallGrid().jobs();
    JobsDir a(liveOpts(dir));
    JobsDir b(liveOpts(dir));
    a.materialize(jobs);

    DistJob first;
    ASSERT_TRUE(a.claimNext(first));
    JobResult ok;
    ok.status = JobStatus::Ok;
    a.publishResult(first, ok);

    // The other three claims succeed across the two handles, the next
    // fails, and the finished job is never claimed again.
    DistJob j;
    std::size_t claims = 0;
    while (a.claimNext(j)) {
        EXPECT_NE(j.key, first.key);
        EXPECT_TRUE(fileExists(claimPath(dir, j.key, 0)));
        ++claims;
    }
    while (b.claimNext(j))
        ++claims;
    EXPECT_EQ(claims, 3u);
    EXPECT_EQ(countFiles(dir + "/claims"), 4u);
    const DistStatus s = a.status();
    EXPECT_EQ(s.done, 1u);
    EXPECT_EQ(s.claimed, 3u);
    EXPECT_EQ(s.pending, 0u);
}

TEST(Dist, TwoWorkersRaceNoJobLostOrDuplicated)
{
    const std::string dir = freshDir("eve_dist_race");
    const auto jobs = smallGrid().jobs();
    JobsDir coordinator(liveOpts(dir));
    coordinator.materialize(jobs);

    WorkerReport r1, r2;
    std::thread t1([&] { r1 = runDistWorker(liveOpts(dir), &jobs); });
    std::thread t2([&] { r2 = runDistWorker(liveOpts(dir), &jobs); });
    t1.join();
    t2.join();

    // Every job executed exactly once across the pair.
    EXPECT_EQ(r1.executed + r2.executed, 4u);
    const DistStatus s = coordinator.status();
    EXPECT_TRUE(s.complete());
    EXPECT_EQ(s.done, 4u);
    EXPECT_EQ(s.failed, 0u);
    EXPECT_EQ(s.pending, 0u);
    EXPECT_EQ(countFiles(dir + "/claims"), 4u);

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

    DistOptions opts = liveOpts(dir);
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
    // by destroying the JobsDir (its heartbeat stops; the claim file
    // stays on disk).
    std::string key;
    {
        JobsDir victim(reclaimOpts(dir));
        victim.materialize(jobs);
        DistJob j;
        ASSERT_TRUE(victim.claimNext(j));
        key = j.key;
    }
    const auto only = [&](const DistJob& d) { return d.key == key; };

    JobsDir reaper(reclaimOpts(dir));
    EXPECT_EQ(reaper.status().claimed, 1u);
    DistJob j;
    // The first pass only starts the staleness clock on claim 0.
    EXPECT_FALSE(reaper.claimNext(j, only));
    sleepMs(150);
    ASSERT_TRUE(reaper.claimNext(j, only));
    EXPECT_EQ(j.key, key);
    EXPECT_TRUE(fileExists(claimPath(dir, key, 1)));

    // The reaper's heartbeat keeps rewriting its claim...
    const std::string owner = reaper.owner() + " ";
    std::string first, now;
    ASSERT_TRUE(readFile(claimPath(dir, key, 1), first));
    EXPECT_EQ(first, owner + "0\n");
    for (int waited = 0; waited < 5000 && now.rfind(owner, 0) != 0;
         waited += 10) {
        sleepMs(10);
        readFile(claimPath(dir, key, 1), now);
        if (now == first)
            now.clear();
    }
    EXPECT_EQ(now.rfind(owner, 0), 0u) << now;

    // ...so an observer watching it for longer than its own lease
    // never takes it over.
    DistOptions watch = reclaimOpts(dir);
    watch.lease_timeout_s = 1;
    JobsDir observer(watch);
    for (int waited = 0; waited < 1500; waited += 50) {
        EXPECT_FALSE(observer.claimNext(j, only));
        sleepMs(50);
    }
    EXPECT_FALSE(fileExists(claimPath(dir, key, 2)));
}

TEST(Dist, RetryExhaustionAbandonsAndMergeReportsIt)
{
    const std::string dir = freshDir("eve_dist_abandon");
    const auto jobs = smallGrid().jobs();
    JobsDir jd(reclaimOpts(dir));
    jd.materialize(jobs);

    // kMaxClaims workers claimed the job in turn, and each died.
    const std::string key = jobKey(jobs[0]);
    for (unsigned n = 0; n < kMaxClaims; ++n)
        ASSERT_TRUE(createExclusive(claimPath(dir, key, n),
                                    "dead-" + std::to_string(n) +
                                        " 7\n"));

    // An observer that runs nothing (like a coordinate-only
    // orchestrator) abandons the job once the last claim is stale.
    JobsDir reaper(reclaimOpts(dir));
    const auto none = [](const DistJob&) { return false; };
    DistJob j;
    EXPECT_FALSE(reaper.claimNext(j, none)); // starts the clock
    sleepMs(150);
    EXPECT_FALSE(reaper.claimNext(j, none));
    EXPECT_FALSE(fileExists(claimPath(dir, key, kMaxClaims)));

    const DistStatus s = reaper.status();
    EXPECT_EQ(s.failed, 1u);
    EXPECT_EQ(s.claimed, 0u);
    EXPECT_EQ(s.pending, 3u);

    const auto merged = reaper.merge(jobs);
    std::size_t abandoned = 0;
    for (const auto& r : merged) {
        if (r.status == JobStatus::Failed) {
            ++abandoned;
            EXPECT_EQ(r.error.rfind("abandoned after 3 claims", 0), 0u)
                << r.error;
            EXPECT_NE(r.error.find("dead-2"), std::string::npos)
                << r.error;
        }
    }
    EXPECT_EQ(abandoned, 1u);
}

TEST(Dist, PartialResultFilesAreIgnored)
{
    const std::string dir = freshDir("eve_dist_partial");
    const auto jobs = smallGrid().jobs();
    JobsDir jd(liveOpts(dir));
    jd.materialize(jobs);

    // A result writer died mid-write: its temp file sits in done/.
    const std::string partial = dir + "/done/" + jobKey(jobs[0]) +
                                ".json.1234.0" + kTmpSuffix;
    const std::string torn = "{\"index\":0,\"trunc";
    {
        std::ofstream os(partial);
        os << torn;
    }
    // Temp files never count as results...
    EXPECT_EQ(jd.status().done, 0u);
    EXPECT_EQ(jd.status().pending, 4u);

    // ...and a worker runs the whole grid around one without
    // touching it.
    const WorkerReport report = runDistWorker(liveOpts(dir));
    EXPECT_EQ(report.executed, 4u);
    EXPECT_EQ(jd.status().done, 4u);
    std::string text;
    ASSERT_TRUE(readFile(partial, text));
    EXPECT_EQ(text, torn);
}

TEST(Dist, KeyMismatchRefusedAndNeverClaimed)
{
    const std::string dir = freshDir("eve_dist_refuse");
    SweepSpec spec;
    SystemConfig io;
    io.kind = SystemKind::IO;
    spec.system(io).workloads({"vvadd"}, /*small=*/true);
    const auto jobs = spec.jobs();

    JobsDir jd(liveOpts(dir));
    jd.materialize(jobs);

    // Tamper with the recorded config: a worker from a diverged binary
    // would see exactly this (the job it rebuilds hashes to another
    // key).
    const std::string path = dir + "/jobs/" + jobKey(jobs[0]) + ".job";
    std::string text;
    ASSERT_TRUE(readFile(path, text));
    DistJob dist;
    ASSERT_TRUE(parseDistJob(text, dist));
    SystemConfig diverged;
    ASSERT_TRUE(parseConfigCanonical(dist.config, diverged));
    diverged.llc_mshrs += 1;
    dist.config = configCanonical(diverged);
    atomicWriteFile(path, distJobText(dist));

    Job rebuilt;
    EXPECT_FALSE(rebuildJob(dist, rebuilt));

    // A spec-less worker refuses it without claiming it, and exits
    // instead of spinning.
    const WorkerReport report = runDistWorker(liveOpts(dir));
    EXPECT_EQ(report.executed, 0u);
    EXPECT_EQ(report.unrebuildable, 1u);
    EXPECT_EQ(jd.status().pending, 1u);
    EXPECT_EQ(jd.status().claimed, 0u);
    EXPECT_EQ(countFiles(dir + "/claims"), 0u);
}

TEST(Dist, SpeclessWorkerExecutesFromJobFilesAlone)
{
    const std::string dir = freshDir("eve_dist_specless");
    const auto jobs = smallGrid().jobs();
    JobsDir coordinator(liveOpts(dir));
    coordinator.materialize(jobs);

    // No local_jobs: everything is rebuilt from the job files.
    const WorkerReport report = runDistWorker(liveOpts(dir));
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

    DistOptions opts = liveOpts(jobs_dir);
    opts.lanes = 1;
    const auto results = runDistributed(jobs, opts, &cache);
    for (const auto& r : results)
        EXPECT_EQ(r.status, JobStatus::Ok) << r.label;
    EXPECT_EQ(cache.stores(), 4u);

    // A rerun is served entirely from the cache and never touches
    // the jobs directory (which still holds the completed state).
    ResultCache cache2(cache_dir);
    const auto again =
        runDistributed(jobs, liveOpts(jobs_dir), &cache2);
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
    DistOptions opts = liveOpts(dir);
    opts.lanes = 2;
    opts.progress = [&](const JobResult&, std::size_t, std::size_t) {
        ++executed;
    };
    runDistributed(jobs, opts);
    EXPECT_EQ(executed.load(), 4u);

    // Second orchestration over the same directory: every job is
    // finished, so the lanes find nothing to claim.
    executed = 0;
    const auto results = runDistributed(jobs, opts);
    EXPECT_EQ(executed.load(), 0u);
    for (const auto& r : results)
        EXPECT_EQ(r.status, JobStatus::Ok) << r.label;
}

TEST(Dist, LanesResumeADirectoryOfDeadClaims)
{
    const std::string dir = freshDir("eve_dist_dead_claims");
    const auto jobs = smallGrid().jobs();

    // Every job was claimed by a worker that then died.
    {
        JobsDir victim(reclaimOpts(dir));
        victim.materialize(jobs);
        DistJob j;
        while (victim.claimNext(j)) {
        }
    }
    EXPECT_EQ(countFiles(dir + "/claims"), 4u);

    // Three lanes of one process take the dead claims over at once;
    // no lane writes a file another created.
    DistOptions opts = reclaimOpts(dir);
    opts.lanes = 3;
    const auto results = runDistributed(jobs, opts);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(results[i].status, JobStatus::Ok) << results[i].label;
        EXPECT_TRUE(fileExists(claimPath(dir, jobKey(jobs[i]), 1)))
            << results[i].label;
    }
}

TEST(Dist, MaterializeRefusesForeignGrid)
{
    const std::string dir = freshDir("eve_dist_foreign");
    JobsDir jd(liveOpts(dir));
    jd.materialize(smallGrid().jobs());

    SweepSpec other;
    SystemConfig o3;
    o3.kind = SystemKind::O3;
    other.system(o3).workloads({"vvadd"}, /*small=*/true);
    JobsDir jd2(liveOpts(dir));
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
        const std::string manifest = dir + "/manifest.txt";
        JobsDir jd(liveOpts(dir));
        jd.materialize(jobs);

        std::string text;
        ASSERT_TRUE(readFile(manifest, text));
        const std::size_t at = text.find(field + "=");
        ASSERT_NE(at, std::string::npos);
        text.insert(at + field.size() + 1, "old-");
        atomicWriteFile(manifest, text);

        JobsDir jd2(liveOpts(dir));
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
    JobsDir jd(liveOpts(dir));
    jd.materialize(smallGrid().jobs());
    jd.requestStop();

    const WorkerReport report = runDistWorker(liveOpts(dir));
    EXPECT_TRUE(report.stopped);
    EXPECT_EQ(report.executed, 0u);
    EXPECT_EQ(jd.status().pending, 4u);
}

TEST(DistStress, WorkerProcessKilledMidJobLosesNothing)
{
    // Every fork happens before this process starts a thread, and
    // every child leaves through _exit.
    const std::string dir = freshDir("eve_dist_kill9");
    const auto jobs = smallGrid().jobs();
    DistOptions opts = liveOpts(dir);
    opts.lease_timeout_s = 1;
    {
        JobsDir jd(opts);
        jd.materialize(jobs);
    }

    // The victim claims one job, reports its key, and hangs with its
    // heartbeat running until it is killed (or, should this test fail
    // first, until its alarm ends it).
    int pipe_fds[2];
    ASSERT_EQ(::pipe(pipe_fds), 0);
    const pid_t victim = ::fork();
    ASSERT_GE(victim, 0);
    if (victim == 0) {
        ::alarm(120);
        ::close(pipe_fds[0]);
        JobsDir jd(opts);
        DistJob j;
        if (!jd.claimNext(j))
            ::_exit(1);
        if (::write(pipe_fds[1], j.key.data(), j.key.size()) !=
            static_cast<ssize_t>(j.key.size()))
            ::_exit(1);
        for (;;)
            ::pause();
    }
    ::close(pipe_fds[1]);
    char buf[16];
    const ssize_t got = ::read(pipe_fds[0], buf, sizeof(buf));
    ::close(pipe_fds[0]);
    if (got != static_cast<ssize_t>(sizeof(buf)))
        ::kill(victim, SIGKILL);
    ASSERT_EQ(got, static_cast<ssize_t>(sizeof(buf)));
    const std::string key(buf, sizeof(buf));

    pid_t workers[2];
    for (pid_t& w : workers) {
        w = ::fork();
        ASSERT_GE(w, 0);
        if (w == 0) {
            const WorkerReport report = runDistWorker(opts);
            ::_exit(report.joined && !report.stopped ? 0 : 1);
        }
    }

    // Kill the victim while the workers run the rest of the grid.
    sleepMs(300);
    ASSERT_EQ(::kill(victim, SIGKILL), 0);
    ::waitpid(victim, nullptr, 0);
    for (const pid_t w : workers)
        EXPECT_EQ(waitExit(w, 120), 0);

    // The victim's job ran again under claim 1, and the merged
    // results equal a serial run's, byte for byte.
    EXPECT_TRUE(fileExists(claimPath(dir, key, 1)));
    JobsDir jd(opts);
    EXPECT_TRUE(jd.status().complete());
    RunnerOptions serial;
    serial.threads = 1;
    const auto expected = Runner(serial).run(jobs);
    const auto merged = jd.merge(jobs);
    ASSERT_EQ(merged.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
        EXPECT_EQ(resultToJson(merged[i], /*include_host_time=*/false),
                  resultToJson(expected[i],
                               /*include_host_time=*/false));
}
