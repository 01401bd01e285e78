/**
 * @file
 * The one result-record reader, parseResultJson: its rejection rules
 * and a deterministic mutation test. The records it reads come from
 * files other processes write (cache directories, jobs directories,
 * sweep directories), so every input must either be refused or give
 * a record that serializes to a fixed point. The same mutants are
 * fed to the job-file parser, parseDistJob.
 */

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "exp/exp.hh"
#include "workloads/workload.hh"

using namespace eve;
using namespace eve::exp;

namespace
{

/** A workload whose init() always throws (a Failed record). */
class ThrowingWorkload : public Workload
{
  public:
    std::string name() const override { return "throwing"; }
    std::string suite() const override { return "test"; }
    void init() override { throw std::runtime_error("injected \"x\""); }
    void emitScalar(InstrSink&) override {}
    void emitVector(InstrSink&, std::uint32_t) override {}
    std::uint64_t verify() const override { return 0; }
};

/** A sampled O3+EVE-8 record with every count field present. */
std::string
sampledRecord()
{
    JobResult r;
    r.index = 3;
    r.label = "O3+EVE-8/vvadd";
    r.workload = "vvadd";
    r.status = JobStatus::Ok;
    r.result.system = "O3+EVE-8";
    r.result.instrs = 100;
    r.result.vecInstrs = 10;
    r.result.vecElemOps = 640;
    r.result.sampled = true;
    r.result.sample_windows = 2;
    r.result.sampled_measured_instrs = 50;
    r.result.sampled_measured_ticks = 700;
    return resultToJson(r);
}

/** @p text with the first `"field":<value>` value replaced. */
std::string
withValue(const std::string& text, const std::string& field,
          const std::string& value)
{
    const std::string key = "\"" + field + "\":";
    const std::size_t at = text.find(key);
    EXPECT_NE(at, std::string::npos) << field;
    const std::size_t begin = at + key.size();
    const std::size_t end = text.find_first_of(",}", begin);
    return text.substr(0, begin) + value + text.substr(end);
}

} // namespace

TEST(ResultJson, RequiresSystemWorkloadAndStatus)
{
    JobResult r;
    EXPECT_FALSE(parseResultJson("{\"status\":\"ok\"}", r));
    EXPECT_FALSE(parseResultJson(
        "{\"system\":\"IO\",\"workload\":\"vvadd\"}", r));
    EXPECT_FALSE(parseResultJson(
        "{\"system\":1,\"workload\":\"vvadd\",\"status\":\"ok\"}", r));
    EXPECT_FALSE(parseResultJson(
        "{\"system\":\"IO\",\"workload\":\"vvadd\",\"status\":\"done\"}",
        r));
    ASSERT_TRUE(parseResultJson(
        "{\"system\":\"IO\",\"workload\":\"vvadd\",\"status\":\"ok\"}",
        r));
    EXPECT_EQ(r.result.system, "IO");
    EXPECT_EQ(r.workload, "vvadd");
    EXPECT_EQ(r.status, JobStatus::Ok);
}

TEST(ResultJson, RejectsOutOfRangeCounts)
{
    const std::string good = sampledRecord();
    JobResult r;
    ASSERT_TRUE(parseResultJson(good, r));
    EXPECT_EQ(r.result.sampled_measured_ticks, 700u);

    // Every count must be an integer in [0, 2^64); a plain cast of
    // these would wrap (-1 -> 2^64-1) or be undefined (1e300).
    for (const char* field :
         {"index", "instrs", "mismatches", "vec_instrs", "vec_elem_ops",
          "sample_windows", "sampled_measured_instrs",
          "sampled_measured_ticks"}) {
        for (const char* bad : {"-1", "-5", "1.5", "1e300", "nan",
                                "18446744073709551616", "\"7\""}) {
            EXPECT_FALSE(parseResultJson(withValue(good, field, bad), r))
                << field << " = " << bad;
        }
    }
    // The largest count a double holds below 2^64 is still a count.
    ASSERT_TRUE(parseResultJson(
        withValue(good, "instrs", "18446744073709549568"), r));
    EXPECT_EQ(r.result.instrs, 18446744073709549568ull);

    // Other numbers must be finite; null (jsonNumber's rendering of
    // NaN and Inf) reads 0.
    for (const char* field : {"wall_s", "cycles", "seconds"})
        for (const char* bad : {"1e999", "-1e999", "nan", "inf"})
            EXPECT_FALSE(parseResultJson(withValue(good, field, bad), r))
                << field << " = " << bad;
    ASSERT_TRUE(parseResultJson(withValue(good, "cycles", "null"), r));
    EXPECT_EQ(r.result.cycles, 0.0);
}

TEST(ResultJson, MutantsFailOrReachAFixedPoint)
{
    // Seeds: real records (exact with breakdown and an axis, sampled,
    // failed) and one job file.
    SweepSpec spec;
    SystemConfig eve8;
    eve8.kind = SystemKind::O3EVE;
    eve8.eve_pf = 8;
    spec.system(eve8)
        .axis<unsigned>("llc_mshrs", {32},
                        [](SystemConfig& c, unsigned m) {
                            c.llc_mshrs = m;
                        })
        .workloads({"vvadd"}, /*small=*/true);
    std::vector<Job> jobs = spec.jobs();
    Job sampled = jobs[0];
    ASSERT_TRUE(parseSamplingFlag("100,20,4", sampled.sampling));
    Job failing = jobs[0];
    failing.workload = "throwing";
    failing.make = [] { return std::make_unique<ThrowingWorkload>(); };
    jobs.push_back(sampled);
    jobs.push_back(failing);
    RunnerOptions opts;
    opts.threads = 1;
    const auto results = Runner(opts).run(jobs);
    ASSERT_EQ(results[0].status, JobStatus::Ok);
    ASSERT_TRUE(results[1].result.sampled);
    ASSERT_EQ(results[2].status, JobStatus::Failed);

    std::vector<std::string> seeds;
    for (const auto& r : results)
        seeds.push_back(resultToJson(r));
    DistJob dist;
    dist.key = jobKey(sampled);
    dist.label = sampled.label;
    dist.workload = sampled.workload;
    dist.scale = sampled.scale;
    dist.config = configCanonical(sampled.config);
    dist.sampling = samplingCanonical(sampled.sampling);
    dist.remote = true;
    seeds.push_back(distJobText(dist));

    std::size_t records = 0, job_files = 0, broken = 0;
    std::string first_broken;
    auto check = [&](const std::string& text) {
        JobResult r;
        if (parseResultJson(text, r)) {
            ++records;
            const std::string once = resultToJson(r);
            JobResult again;
            if (!parseResultJson(once, again) ||
                resultToJson(again) != once) {
                if (broken++ == 0)
                    first_broken = text;
            }
        }
        DistJob job;
        if (parseDistJob(text, job)) {
            ++job_files;
            const std::string once = distJobText(job);
            DistJob again;
            if (!parseDistJob(once, again) ||
                distJobText(again) != once) {
                if (broken++ == 0)
                    first_broken = text;
            }
        }
    };

    for (const auto& seed : seeds)
        for (std::size_t n = 0; n <= seed.size(); ++n)
            check(seed.substr(0, n));

    // Seeded byte flips, inserts and deletes, biased towards the
    // bytes that steer a JSON parser.
    static const std::string kSyntax = "{}[]:,\"\\-+.eE019ntfu= \n";
    std::mt19937_64 rng(20261020);
    auto pick = [&](std::size_t n) { return std::size_t(rng() % n); };
    auto byte = [&]() {
        return pick(2) ? kSyntax[pick(kSyntax.size())] : char(rng());
    };
    for (int m = 0; m < 4000; ++m) {
        std::string text = seeds[pick(seeds.size())];
        for (std::size_t e = 1 + pick(3); e-- > 0 && !text.empty();) {
            const std::size_t at = pick(text.size());
            switch (pick(3)) {
              case 0: text[at] = byte(); break;
              case 1: text.insert(text.begin() + at, byte()); break;
              default: text.erase(at, 1); break;
            }
        }
        check(text);
    }

    EXPECT_EQ(broken, 0u) << "first input off its fixed point:\n"
                          << first_broken;
    // Both parsers must also accept plenty of mutants, or the fixed
    // point goes untested.
    EXPECT_GT(records, 1000u);
    EXPECT_GT(job_files, 100u);
}
