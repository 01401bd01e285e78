/**
 * @file
 * Experiment-runner subsystem tests: sweep expansion, thread-pool
 * determinism, failure policies, progress reporting, JSONL/CSV
 * serialization, the result cache, and the timing-parity golden
 * file.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/fs.hh"
#include "exp/exp.hh"
#include "exp/perf.hh"
#include "workloads/workload.hh"

#include "test_util.hh"

using namespace eve;
using namespace eve::exp;
using eve::test::freshDir;

namespace
{

/** A do-nothing workload (fast Runner jobs for scheduling tests). */
class NopWorkload : public Workload
{
  public:
    std::string name() const override { return "nop"; }
    std::string suite() const override { return "test"; }
    void init() override {}
    void emitScalar(InstrSink&) override {}
    void emitVector(InstrSink&, std::uint32_t) override {}
    std::uint64_t verify() const override { return 0; }
};

/** A workload whose init() always throws. */
class ThrowingWorkload : public Workload
{
  public:
    std::string name() const override { return "throwing"; }
    std::string suite() const override { return "test"; }
    void init() override
    {
        throw std::runtime_error("injected failure");
    }
    void emitScalar(InstrSink&) override {}
    void emitVector(InstrSink&, std::uint32_t) override {}
    std::uint64_t verify() const override { return 0; }
};

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

} // namespace

TEST(SweepSpec, CartesianExpansionOrderAndLabels)
{
    const auto jobs = smallGrid().jobs();
    ASSERT_EQ(jobs.size(), 4u); // 2 systems x 2 axis points x 1 wl

    // Systems outermost, axis next, workloads innermost.
    EXPECT_EQ(jobs[0].label, "IO/llc_mshrs=16/vvadd");
    EXPECT_EQ(jobs[1].label, "IO/llc_mshrs=32/vvadd");
    EXPECT_EQ(jobs[2].label, "O3+EVE-8/llc_mshrs=16/vvadd");
    EXPECT_EQ(jobs[3].label, "O3+EVE-8/llc_mshrs=32/vvadd");
    for (std::size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(jobs[i].index, i);

    EXPECT_EQ(jobs[0].config.llc_mshrs, 16u);
    EXPECT_EQ(jobs[1].config.llc_mshrs, 32u);
    EXPECT_EQ(jobs[3].config.kind, SystemKind::O3EVE);
    ASSERT_EQ(jobs[2].axes.size(), 1u);
    EXPECT_EQ(jobs[2].axes[0].first, "llc_mshrs");
    EXPECT_EQ(jobs[2].axes[0].second, "16");
}

TEST(SweepSpec, ExpandedSystemsMatchesJobGrid)
{
    const auto spec = smallGrid();
    const auto systems = spec.expandedSystems();
    ASSERT_EQ(systems.size(), 4u);
    EXPECT_EQ(spec.systemCount(), 4u);
    EXPECT_EQ(systems[0].llc_mshrs, 16u);
    EXPECT_EQ(systems[3].kind, SystemKind::O3EVE);
    const auto labels = spec.expandedSystemLabels();
    ASSERT_EQ(labels.size(), 4u);
    EXPECT_EQ(labels[0], "IO/llc_mshrs=16");
}

TEST(SweepSpec, TwoAxesMultiply)
{
    SweepSpec spec;
    SystemConfig cfg;
    cfg.kind = SystemKind::O3EVE;
    spec.system(cfg);
    spec.axis<unsigned>("pf", {4, 8},
                        [](SystemConfig& c, unsigned v) {
                            c.eve_pf = v;
                        });
    spec.axis<unsigned>("dtus", {4, 8, 16},
                        [](SystemConfig& c, unsigned v) {
                            c.dtus = v;
                        });
    spec.workload("w", [] { return makeWorkload("vvadd", true); });
    const auto jobs = spec.jobs();
    ASSERT_EQ(jobs.size(), 6u);
    // Second axis varies fastest.
    EXPECT_EQ(jobs[0].config.eve_pf, 4u);
    EXPECT_EQ(jobs[0].config.dtus, 4u);
    EXPECT_EQ(jobs[1].config.dtus, 8u);
    EXPECT_EQ(jobs[3].config.eve_pf, 8u);
    EXPECT_EQ(jobs[3].config.dtus, 4u);
}

TEST(NamedSystems, PfMultipliesOnlyEve)
{
    // The --systems/--pf spelling of the Table III grid yields its
    // ten systems, not one copy of every system per factor.
    std::vector<SystemConfig> systems;
    std::string unknown;
    ASSERT_TRUE(namedSystems({"IO", "O3", "O3IV", "O3DV", "O3EVE"},
                             {1, 2, 4, 8, 16, 32}, systems, unknown));
    const auto table = tableIIISystems();
    ASSERT_EQ(systems.size(), table.size());
    for (std::size_t i = 0; i < table.size(); ++i)
        EXPECT_EQ(configCanonical(systems[i]),
                  configCanonical(table[i]))
            << i;

    // Without factors, O3EVE keeps the default one; order is kept.
    ASSERT_TRUE(namedSystems({"O3EVE", "IO"}, {}, systems, unknown));
    ASSERT_EQ(systems.size(), 2u);
    EXPECT_EQ(systems[0].kind, SystemKind::O3EVE);
    EXPECT_EQ(systems[0].eve_pf, SystemConfig{}.eve_pf);
    EXPECT_EQ(systems[1].kind, SystemKind::IO);

    // An unknown kind is named and leaves the output untouched.
    EXPECT_FALSE(namedSystems({"IO", "O3EV"}, {8}, systems, unknown));
    EXPECT_EQ(unknown, "O3EV");
    EXPECT_EQ(systems.size(), 2u);
}

namespace
{

/** A hand-built Ok result: parity hashes its payload, not a run. */
JobResult
parityResult(SystemKind kind, const std::string& workload, double cycles)
{
    JobResult r;
    r.config.kind = kind;
    r.workload = workload;
    r.status = JobStatus::Ok;
    r.result.cycles = cycles;
    return r;
}

} // namespace

TEST(ParityFile, SaveLoadCheckRoundTrip)
{
    const std::vector<JobResult> results = {
        parityResult(SystemKind::IO, "vvadd", 100),
        parityResult(SystemKind::O3, "mmult", 200)};
    const std::string dir = freshDir("eve_parity");
    ParityFile::fromResults(results, "small").save(dir + "/a.txt");
    const ParityFile golden = ParityFile::load(dir + "/a.txt");
    EXPECT_EQ(golden.size(), 2u);
    EXPECT_TRUE(golden.check(results, "small").empty());

    // Saving what was loaded reproduces the file byte for byte.
    golden.save(dir + "/b.txt");
    std::string a, b;
    ASSERT_TRUE(readFile(dir + "/a.txt", a));
    ASSERT_TRUE(readFile(dir + "/b.txt", b));
    EXPECT_EQ(a, b);

    // A changed fingerprint, a job that did not run Ok, and a grid
    // point the goldens lack each diverge, in result order.
    std::vector<JobResult> drift = results;
    drift[0].result.cycles = 101;
    drift[1].status = JobStatus::Cached;
    drift.push_back(parityResult(SystemKind::O3DV, "vvadd", 300));
    const auto diffs = golden.check(drift, "small");
    ASSERT_EQ(diffs.size(), 3u);
    EXPECT_NE(diffs[0].find("!= golden"), std::string::npos);
    EXPECT_NE(diffs[1].find("job status 'cached'"), std::string::npos);
    EXPECT_NE(diffs[2].find("no golden fingerprint"), std::string::npos);

    // The input scale is part of every key.
    EXPECT_EQ(golden.check(results, "full").size(), 2u);
}

TEST(ParityFile, MalformedFingerprintIsAnErrorNamingTheLine)
{
    const std::string path = freshDir("eve_parity_bad") + "/golden.txt";
    for (const char* fp : {"not-hex-at-all!!", "12345678zzzzzzzz"}) {
        SCOPED_TRACE(fp);
        std::ofstream(path) << "# comment\n"
                            << fp << " IO|vvadd|small|cfg=0\n";
        EXPECT_EXIT(ParityFile::load(path), ::testing::ExitedWithCode(1),
                    "golden.txt:2: malformed line");
    }
}

TEST(Runner, ParallelMatchesSerialByteIdentical)
{
    const auto spec = smallGrid();

    RunnerOptions serial_opts;
    serial_opts.threads = 1;
    const auto serial = Runner(serial_opts).run(spec);

    RunnerOptions par_opts;
    par_opts.threads = 8;
    const auto parallel = Runner(par_opts).run(spec);

    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].status, JobStatus::Ok) << serial[i].label;
        // Timing-free payloads must be byte-identical: results are
        // keyed by job index and the simulation has no shared state.
        EXPECT_EQ(resultToJson(serial[i], false),
                  resultToJson(parallel[i], false))
            << serial[i].label;
    }
}

TEST(Runner, RecordPolicyKeepsSweeping)
{
    SweepSpec spec;
    SystemConfig cfg;
    cfg.kind = SystemKind::O3;
    spec.system(cfg);
    spec.workload("throwing",
                  [] { return std::make_unique<ThrowingWorkload>(); });
    spec.workload("vvadd", [] { return makeWorkload("vvadd", true); });

    RunnerOptions opts;
    opts.threads = 2;
    const auto results = Runner(opts).run(spec);

    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].status, JobStatus::Failed);
    EXPECT_NE(results[0].error.find("injected failure"),
              std::string::npos);
    EXPECT_EQ(results[1].status, JobStatus::Ok);
    EXPECT_GT(results[1].result.cycles, 0.0);
}

TEST(Runner, NullFactoryIsRecordedFailure)
{
    SweepSpec spec;
    spec.workloads({"no-such-workload"}, true);
    RunnerOptions opts;
    opts.threads = 1;
    const auto results = Runner(opts).run(spec);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].status, JobStatus::Failed);
    EXPECT_NE(results[0].error.find("no-such-workload"),
              std::string::npos);
}

TEST(Runner, AbortPolicyStopsSchedulingNewJobs)
{
    SweepSpec spec;
    SystemConfig cfg;
    cfg.kind = SystemKind::O3;
    spec.system(cfg);
    spec.workload("throwing",
                  [] { return std::make_unique<ThrowingWorkload>(); });
    spec.workload("vvadd", [] { return makeWorkload("vvadd", true); });

    RunnerOptions opts;
    opts.threads = 1;
    opts.on_failure = FailurePolicy::Abort;
    const auto results = Runner(opts).run(spec);

    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].status, JobStatus::Failed);
    EXPECT_EQ(results[1].status, JobStatus::Skipped);
    // Skipped entries keep their identity for reporting.
    EXPECT_EQ(results[1].workload, "vvadd");
    EXPECT_EQ(countStatus(results, JobStatus::Skipped), 1u);
}

TEST(Runner, ProgressIsSerializedAndMonotonic)
{
    const auto spec = smallGrid();
    std::vector<std::size_t> seen_done;
    RunnerOptions opts;
    opts.threads = 4;
    opts.progress = [&](const JobResult&, std::size_t done,
                        std::size_t total) {
        EXPECT_EQ(total, 4u);
        seen_done.push_back(done); // safe: callback is serialized
    };
    const auto results = Runner(opts).run(spec);
    ASSERT_EQ(results.size(), 4u);
    ASSERT_EQ(seen_done.size(), 4u);
    for (std::size_t i = 0; i < seen_done.size(); ++i)
        EXPECT_EQ(seen_done[i], i + 1);
}

TEST(Runner, ProgressStaysMonotonicUnderContention)
{
    // Many near-instant jobs on many threads: if the completion
    // counter were bumped outside the progress lock, two workers
    // could swap between increment and callback and a caller would
    // observe e.g. 5 before 4.
    SweepSpec spec;
    SystemConfig cfg;
    cfg.kind = SystemKind::IO;
    spec.system(cfg);
    for (int i = 0; i < 32; ++i) {
        spec.workload("nop" + std::to_string(i),
                      [] { return std::make_unique<NopWorkload>(); });
    }
    std::vector<std::size_t> seen_done;
    RunnerOptions opts;
    opts.threads = 8;
    opts.progress = [&](const JobResult&, std::size_t done,
                        std::size_t) { seen_done.push_back(done); };
    const auto results = Runner(opts).run(spec);
    EXPECT_EQ(countStatus(results, JobStatus::Ok), 32u);
    ASSERT_EQ(seen_done.size(), 32u);
    for (std::size_t i = 0; i < seen_done.size(); ++i)
        ASSERT_EQ(seen_done[i], i + 1) << "non-monotonic progress";
}

TEST(Sink, JsonLineHasSchemaFields)
{
    SweepSpec spec;
    SystemConfig cfg;
    cfg.kind = SystemKind::O3EVE;
    cfg.eve_pf = 8;
    spec.system(cfg).workloads({"vvadd"}, true);
    RunnerOptions opts;
    opts.threads = 1;
    const auto results = Runner(opts).run(spec);
    ASSERT_EQ(results.size(), 1u);

    const std::string json = resultToJson(results[0]);
    EXPECT_NE(json.find("\"system\":\"O3+EVE-8\""), std::string::npos);
    EXPECT_NE(json.find("\"workload\":\"vvadd\""), std::string::npos);
    EXPECT_NE(json.find("\"status\":\"ok\""), std::string::npos);
    EXPECT_NE(json.find("\"cycles\":"), std::string::npos);
    EXPECT_NE(json.find("\"seconds\":"), std::string::npos);
    EXPECT_NE(json.find("\"stats\":{"), std::string::npos);
    EXPECT_NE(json.find("\"wall_s\":"), std::string::npos);
    EXPECT_NE(json.find("\"breakdown\":{"), std::string::npos);
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');

    const std::string path =
        freshDir("eve_sink_json") + "/results.jsonl";
    writeJsonLines(results, path);
    std::string text;
    ASSERT_TRUE(readFile(path, text));
    EXPECT_EQ(text, json + "\n");
}

TEST(Sink, FailedJobJsonCarriesErrorNotStats)
{
    JobResult r;
    r.index = 7;
    r.label = "x";
    r.workload = "w";
    r.status = JobStatus::Failed;
    r.error = "boom \"quoted\"";
    const std::string json = resultToJson(r);
    EXPECT_NE(json.find("\"status\":\"failed\""), std::string::npos);
    EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
    EXPECT_EQ(json.find("\"stats\""), std::string::npos);
}

TEST(Sink, CsvUnionsStatColumns)
{
    JobResult a;
    a.index = 0;
    a.label = "a";
    a.workload = "w";
    a.status = JobStatus::Ok;
    a.result.cycles = 10;
    a.result.stats["core.instrs"] = 5;
    JobResult b;
    b.index = 1;
    b.label = "b,with comma";
    b.workload = "w";
    b.status = JobStatus::Ok;
    b.result.cycles = 20;
    b.result.stats["llc.misses"] = 3;

    const std::string csv = resultsToCsv({a, b});

    std::istringstream is(csv);
    std::string header, row_a, row_b;
    std::getline(is, header);
    std::getline(is, row_a);
    std::getline(is, row_b);
    EXPECT_NE(header.find("core.instrs"), std::string::npos);
    EXPECT_NE(header.find("llc.misses"), std::string::npos);
    EXPECT_NE(row_b.find("\"b,with comma\""), std::string::npos);
    // Row a has no llc.misses value: empty trailing field.
    EXPECT_NE(row_a.find(",5,"), std::string::npos);
}

TEST(Sink, CsvCarriesErrorColumn)
{
    JobResult ok;
    ok.index = 0;
    ok.label = "fine";
    ok.workload = "w";
    ok.status = JobStatus::Ok;
    JobResult bad;
    bad.index = 1;
    bad.label = "broken";
    bad.workload = "w";
    bad.status = JobStatus::Failed;
    bad.error = "spawn failed, tick 7";

    const std::string csv = resultsToCsv({ok, bad});

    std::istringstream is(csv);
    std::string header, row_ok, row_bad;
    std::getline(is, header);
    std::getline(is, row_ok);
    std::getline(is, row_bad);
    // The error column sits right after status, so Failed/Mismatch
    // rows keep their diagnosis in spreadsheet form.
    EXPECT_NE(header.find("status,error,"), std::string::npos);
    EXPECT_NE(row_bad.find("failed,\"spawn failed, tick 7\""),
              std::string::npos);
    EXPECT_NE(row_ok.find("ok,,"), std::string::npos);
}

// ---------------------------------------------------------------------
// Content-hash result cache
// ---------------------------------------------------------------------

namespace
{

/** Entries of cache directory @p dir; each must be a KEY.json record. */
std::size_t
recordFiles(const std::string& dir)
{
    std::size_t n = 0;
    std::error_code ec;
    for (const auto& e : std::filesystem::directory_iterator(dir, ec)) {
        EXPECT_EQ(e.path().extension(), ".json") << e.path();
        ++n;
    }
    return n;
}

} // namespace

TEST(ResultCacheKey, TracksContentNotLabels)
{
    const auto jobs = smallGrid().jobs();
    ASSERT_EQ(jobs.size(), 4u);

    // Same content, same key — independent of index/label.
    Job relabelled = jobs[0];
    relabelled.index = 99;
    relabelled.label = "renamed/axis=point/vvadd";
    relabelled.axes.clear();
    EXPECT_EQ(jobKey(jobs[0]), jobKey(relabelled));

    // Any config field, the workload, the scale, or the salt changes
    // the key.
    Job other = jobs[0];
    other.config.llc_mshrs += 1;
    EXPECT_NE(jobKey(jobs[0]), jobKey(other));
    other = jobs[0];
    other.workload = "mmult";
    EXPECT_NE(jobKey(jobs[0]), jobKey(other));
    other = jobs[0];
    other.scale = "full";
    EXPECT_NE(jobKey(jobs[0]), jobKey(other));
    EXPECT_NE(jobKey(jobs[0], "eve-sim-v3"), jobKey(jobs[0]));

    // Keys are 16 hex digits and distinct across the grid.
    for (const auto& job : jobs) {
        EXPECT_EQ(jobKey(job).size(), 16u);
        EXPECT_EQ(jobKey(job).find_first_not_of("0123456789abcdef"),
                  std::string::npos);
    }
    EXPECT_NE(jobKey(jobs[0]), jobKey(jobs[1]));
    EXPECT_NE(jobKey(jobs[0]), jobKey(jobs[2]));
}

TEST(ResultCacheKey, ScaleComesFromSweepSpec)
{
    SweepSpec small_spec;
    small_spec.workloads({"vvadd"}, /*small=*/true);
    SweepSpec full_spec;
    full_spec.workloads({"vvadd"}, /*small=*/false);
    EXPECT_EQ(small_spec.jobs()[0].scale, "small");
    EXPECT_EQ(full_spec.jobs()[0].scale, "full");
}

TEST(ResultCacheKey, SamplingScheduleSeparatesKeys)
{
    const auto jobs = smallGrid().jobs();

    // A sampled job never shares a key with its exact twin, so a
    // sampled sweep can never serve (or poison) exact cached records.
    Job sampled = jobs[0];
    ASSERT_TRUE(parseSamplingFlag("1000,200,8", sampled.sampling));
    EXPECT_NE(jobKey(jobs[0]), jobKey(sampled));

    // Two different schedules are two different keys.
    Job other_schedule = jobs[0];
    ASSERT_TRUE(
        parseSamplingFlag("500,100,8", other_schedule.sampling));
    EXPECT_NE(jobKey(sampled), jobKey(other_schedule));

    // The key depends on the schedule's content, not on how the
    // flag spelled it.
    Job canonical_spelling = jobs[0];
    ASSERT_TRUE(parseSamplingCanonical(
        "interval=1000;warmup=200;stride=8",
        canonical_spelling.sampling));
    EXPECT_EQ(jobKey(sampled), jobKey(canonical_spelling));
}

TEST(ResultCache, JsonRoundTripIsByteExact)
{
    SweepSpec spec;
    SystemConfig cfg;
    cfg.kind = SystemKind::O3EVE;
    cfg.eve_pf = 8;
    spec.system(cfg).workloads({"vvadd"}, true);
    RunnerOptions opts;
    opts.threads = 1;
    const auto results = Runner(opts).run(spec);
    ASSERT_EQ(results.size(), 1u);
    ASSERT_EQ(results[0].status, JobStatus::Ok);

    const std::string json = resultToJson(results[0]);
    JobResult parsed;
    ASSERT_TRUE(parseResultJson(json, parsed));
    EXPECT_EQ(parsed.status, JobStatus::Ok);
    EXPECT_EQ(parsed.workload, "vvadd");
    EXPECT_TRUE(parsed.result.has_breakdown);
    EXPECT_EQ(resultToJson(parsed), json);
    EXPECT_EQ(resultToJson(parsed, false),
              resultToJson(results[0], false));
}

TEST(ResultCache, StoreLoadLookupRestoresByteIdentically)
{
    const std::string dir = freshDir("eve_cache_roundtrip");
    const auto jobs = smallGrid().jobs();
    RunnerOptions opts;
    opts.threads = 2;
    const auto results = Runner(opts).run(jobs);

    {
        ResultCache cache(dir);
        for (std::size_t i = 0; i < jobs.size(); ++i)
            cache.store(jobs[i], results[i]);
        EXPECT_EQ(cache.stores(), jobs.size());
        // Duplicate stores are refused.
        cache.store(jobs[0], results[0]);
        EXPECT_EQ(cache.stores(), jobs.size());
    }

    EXPECT_EQ(recordFiles(dir), jobs.size()); // one file per key
    ResultCache cache(dir);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        JobResult restored;
        ASSERT_TRUE(cache.lookup(jobs[i], restored))
            << jobs[i].label;
        EXPECT_EQ(restored.status, JobStatus::Cached);
        EXPECT_EQ(restored.index, jobs[i].index);
        EXPECT_EQ(restored.label, jobs[i].label);
        // Serialized bytes — including the original host wall time —
        // are exactly the cold run's.
        EXPECT_EQ(resultToJson(restored), resultToJson(results[i]));
    }
    // A job outside the stored grid misses.
    Job edited = jobs[0];
    edited.config.llc_mshrs = 999;
    JobResult miss;
    EXPECT_FALSE(cache.lookup(edited, miss));
}

TEST(ResultCache, ResumedRunExecutesNothingAndMatchesByteForByte)
{
    const std::string dir = freshDir("eve_cache_resume");
    const auto spec = smallGrid();

    ResultCache cold_cache(dir);
    EXPECT_EQ(recordFiles(dir), 0u);
    RunnerOptions cold_opts;
    cold_opts.threads = 2;
    cold_opts.cache = &cold_cache;
    const auto cold = Runner(cold_opts).run(spec);
    EXPECT_EQ(countStatus(cold, JobStatus::Ok), cold.size());
    EXPECT_EQ(cold_cache.stores(), cold.size());

    // Resume with a fresh cache object over the same directory, at a
    // different thread count: zero executions, byte-identical JSONL.
    ResultCache warm_cache(dir);
    EXPECT_EQ(recordFiles(dir), cold.size());
    RunnerOptions warm_opts;
    warm_opts.threads = 4;
    warm_opts.cache = &warm_cache;
    const auto warm = Runner(warm_opts).run(spec);
    ASSERT_EQ(warm.size(), cold.size());
    EXPECT_EQ(countStatus(warm, JobStatus::Cached), warm.size());
    EXPECT_EQ(warm_cache.stores(), 0u);
    for (std::size_t i = 0; i < cold.size(); ++i)
        EXPECT_EQ(resultToJson(warm[i]), resultToJson(cold[i]))
            << cold[i].label;
}

TEST(ResultCache, EditedAxisRerunsOnlyAffectedJobs)
{
    const std::string dir = freshDir("eve_cache_edit");
    auto makeSpec = [](std::vector<unsigned> mshrs) {
        SweepSpec spec;
        SystemConfig io;
        io.kind = SystemKind::IO;
        SystemConfig o3eve;
        o3eve.kind = SystemKind::O3EVE;
        o3eve.eve_pf = 8;
        spec.system(io).system(o3eve);
        spec.axis<unsigned>("llc_mshrs", mshrs,
                            [](SystemConfig& c, unsigned m) {
                                c.llc_mshrs = m;
                            });
        spec.workloads({"vvadd"}, /*small=*/true);
        return spec;
    };

    ResultCache cache(dir);
    RunnerOptions opts;
    opts.threads = 2;
    opts.cache = &cache;
    Runner(opts).run(makeSpec({16, 32}));

    // Swap one axis point: only the two jobs touching the new value
    // simulate; the untouched half of the grid is served from cache.
    ResultCache cache2(dir);
    RunnerOptions opts2;
    opts2.threads = 2;
    opts2.cache = &cache2;
    const auto results = Runner(opts2).run(makeSpec({16, 48}));
    ASSERT_EQ(results.size(), 4u);
    EXPECT_EQ(countStatus(results, JobStatus::Cached), 2u);
    EXPECT_EQ(countStatus(results, JobStatus::Ok), 2u);
    EXPECT_EQ(cache2.stores(), 2u);
    EXPECT_EQ(recordFiles(dir), 6u);
    for (const auto& r : results) {
        const bool new_point = r.config.llc_mshrs == 48;
        EXPECT_EQ(r.status, new_point ? JobStatus::Ok
                                      : JobStatus::Cached)
            << r.label;
    }
}

TEST(ResultCache, FailedJobsAreNeverCached)
{
    const std::string dir = freshDir("eve_cache_failed");
    SweepSpec spec;
    SystemConfig cfg;
    cfg.kind = SystemKind::O3;
    spec.system(cfg);
    spec.workload("throwing",
                  [] { return std::make_unique<ThrowingWorkload>(); });

    ResultCache cache(dir);
    RunnerOptions opts;
    opts.threads = 1;
    opts.cache = &cache;
    const auto first = Runner(opts).run(spec);
    EXPECT_EQ(first[0].status, JobStatus::Failed);
    EXPECT_EQ(cache.stores(), 0u);

    // The rerun executes again (no poisoned cache entry).
    ResultCache cache2(dir);
    EXPECT_EQ(recordFiles(dir), 0u);
    RunnerOptions opts2 = opts;
    opts2.cache = &cache2;
    const auto second = Runner(opts2).run(spec);
    EXPECT_EQ(second[0].status, JobStatus::Failed);
}

TEST(ResultCache, SaltBumpInvalidatesEverything)
{
    const std::string dir = freshDir("eve_cache_salt");
    SweepSpec spec;
    SystemConfig cfg;
    cfg.kind = SystemKind::IO;
    spec.system(cfg).workloads({"vvadd"}, true);
    const auto jobs = spec.jobs();

    ResultCache cache(dir);
    RunnerOptions opts;
    opts.threads = 1;
    opts.cache = &cache;
    Runner(opts).run(jobs);
    EXPECT_EQ(cache.stores(), 1u);

    // Same directory, bumped simulator salt: every key misses, and
    // the old record stays where it was, unread.
    ResultCache bumped(dir, "eve-sim-v999");
    EXPECT_EQ(recordFiles(dir), 1u);
    JobResult restored;
    EXPECT_FALSE(bumped.lookup(jobs[0], restored));
}

TEST(ResultCache, ConcurrentSweepsSharingADirMatchSoloRuns)
{
    // Two sweeps over overlapping grids share one cache directory,
    // each through its own ResultCache, which holds no state of its
    // own: the two threads race for the shared key's record file
    // exactly as two processes would.
    const std::string dir = freshDir("eve_cache_shared");
    auto grid = [](std::vector<std::string> workloads) {
        SweepSpec spec;
        SystemConfig io;
        io.kind = SystemKind::IO;
        spec.system(io).workloads(workloads, /*small=*/true);
        return spec.jobs();
    };
    const std::vector<std::vector<Job>> grids = {
        grid({"vvadd", "fir"}), grid({"fir", "scan"})};

    auto payloads = [](const std::vector<JobResult>& results) {
        std::vector<std::string> out;
        for (const auto& r : results)
            out.push_back(resultToJson(r, /*include_host_time=*/false));
        return out;
    };
    std::vector<std::vector<std::string>> solo;
    for (const auto& jobs : grids) {
        RunnerOptions opts;
        opts.threads = 1;
        const auto results = Runner(opts).run(jobs);
        ASSERT_EQ(countStatus(results, JobStatus::Ok), jobs.size());
        solo.push_back(payloads(results));
    }

    std::vector<std::vector<JobResult>> shared(grids.size());
    std::vector<std::thread> sweeps;
    for (std::size_t g = 0; g < grids.size(); ++g) {
        sweeps.emplace_back([&, g] {
            ResultCache cache(dir);
            RunnerOptions opts;
            opts.threads = 1;
            opts.cache = &cache;
            shared[g] = Runner(opts).run(grids[g]);
        });
    }
    for (auto& t : sweeps)
        t.join();
    for (std::size_t g = 0; g < grids.size(); ++g)
        EXPECT_EQ(payloads(shared[g]), solo[g]) << "grid " << g;

    // The shared job may have run once per sweep, but the directory
    // holds one record file per key, and a replay executes nothing.
    EXPECT_EQ(recordFiles(dir), 3u);
    ResultCache replay(dir);
    for (std::size_t g = 0; g < grids.size(); ++g) {
        RunnerOptions opts;
        opts.threads = 1;
        opts.cache = &replay;
        const auto results = Runner(opts).run(grids[g]);
        EXPECT_EQ(countStatus(results, JobStatus::Cached),
                  grids[g].size());
        EXPECT_EQ(payloads(results), solo[g]) << "grid " << g;
    }
    EXPECT_EQ(replay.stores(), 0u);
}

TEST(ResultCache, TruncatedEntriesAreSkippedNotFatal)
{
    const std::string dir = freshDir("eve_cache_corrupt");
    SweepSpec spec;
    SystemConfig cfg;
    cfg.kind = SystemKind::IO;
    spec.system(cfg).workloads({"vvadd"}, true);
    const auto jobs = spec.jobs();

    ResultCache cache(dir);
    RunnerOptions opts;
    opts.threads = 1;
    opts.cache = &cache;
    const auto cold = Runner(opts).run(jobs);
    const std::string path = cache.recordPath(jobs[0]);
    std::string whole;
    ASSERT_TRUE(readFile(path, whole));

    // A torn record (a non-atomic copy, a full disk) and a line of
    // the retired cache.jsonl journal are misses, not fatal errors.
    for (const std::string& bad :
         {whole.substr(0, whole.size() / 2),
          "{\"key\":\"" + jobKey(jobs[0]) + "\",\"record\":" + whole +
              "}"}) {
        std::ofstream(path) << bad;
        JobResult miss;
        EXPECT_FALSE(cache.lookup(jobs[0], miss));
        EXPECT_EQ(miss.label, jobs[0].label);
    }

    // The rerun simulates the job again, and its store repairs the
    // record.
    ResultCache repair(dir);
    opts.cache = &repair;
    const auto rerun = Runner(opts).run(jobs);
    EXPECT_EQ(rerun[0].status, JobStatus::Ok);
    EXPECT_EQ(repair.stores(), 1u);
    JobResult restored;
    ASSERT_TRUE(repair.lookup(jobs[0], restored));
    EXPECT_EQ(resultToJson(restored, /*include_host_time=*/false),
              resultToJson(cold[0], /*include_host_time=*/false));
    EXPECT_EQ(recordFiles(dir), 1u);
}
