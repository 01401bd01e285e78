/**
 * @file
 * Tests for the RiVEC-style workload suite (axpy, blackscholes,
 * streamcluster, particlefilter): functional verification at several
 * hardware vector lengths, pinned golden memory checksums, signature
 * instruction classes, end-to-end runs on every vector system,
 * sampled-simulation runs, and result-cache key distinctness.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/bits.hh"
#include "driver/system.hh"
#include "exp/cache.hh"
#include "exp/sweep.hh"
#include "isa/functional.hh"
#include "isa/program.hh"
#include "workloads/workload.hh"

namespace eve
{
namespace
{

const char* const kRivec[] = {"axpy", "blackscholes", "streamcluster",
                              "particlefilter"};

// The kernel name is a std::string, not a const char*: gtest prints a
// pointer parameter as its address, which would put a per-process
// value into the listed test name.
class RivecFunctional
    : public testing::TestWithParam<std::tuple<std::string, unsigned>>
{
};

TEST_P(RivecFunctional, VectorProgramMatchesReference)
{
    const auto& [name, hw_vl] = GetParam();
    auto w = makeWorkload(name, /*small=*/true);
    ASSERT_NE(w, nullptr);
    w->init();
    VecMachine machine(w->memory(), hw_vl);
    w->emitVector(machine, hw_vl);
    EXPECT_EQ(w->verify(), 0u) << name << " at hw_vl=" << hw_vl;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RivecFunctional,
    testing::Combine(testing::ValuesIn(std::vector<std::string>(
                         std::begin(kRivec), std::end(kRivec))),
                     testing::Values(4u, 64u, 100u, 1024u)),
    [](const auto& info) {
        std::string name = std::get<0>(info.param);
        for (char& c : name)
            if (c == '-')
                c = '_';
        return name + "_vl" + std::to_string(std::get<1>(info.param));
    });

/**
 * Golden end-state checksums at small scale, hw_vl=64. These pin the
 * exact functional behaviour (inputs are seeded deterministically, so
 * the full memory image after the vector run is reproducible); any
 * change to a kernel's math or data layout must consciously update
 * its golden value.
 */
TEST(RivecWorkloads, GoldenMemoryChecksums)
{
    const struct
    {
        const char* name;
        std::uint64_t golden;
    } cases[] = {
        {"axpy", 0x20a01f2912e60ef9ull},
        {"blackscholes", 0x8c1378350269bdfbull},
        {"streamcluster", 0x93efe30db143c59eull},
        {"particlefilter", 0x3d9f3ce75eddae23ull},
    };
    for (const auto& c : cases) {
        auto w = makeWorkload(c.name, /*small=*/true);
        ASSERT_NE(w, nullptr);
        w->init();
        VecMachine machine(w->memory(), 64);
        w->emitVector(machine, 64);
        ASSERT_EQ(w->verify(), 0u) << c.name;
        const auto& bytes = w->memory().data();
        const std::uint64_t fp = fnv1a64(std::string_view(
            reinterpret_cast<const char*>(bytes.data()), bytes.size()));
        EXPECT_EQ(fp, c.golden) << c.name;
    }
}

TEST(RivecWorkloads, RunOnEverySystem)
{
    for (const char* name : kRivec) {
        for (SystemKind kind :
             {SystemKind::O3IV, SystemKind::O3DV, SystemKind::O3EVE}) {
            SystemConfig cfg;
            cfg.kind = kind;
            auto w = makeWorkload(name, true);
            const RunResult r = runWorkload(cfg, *w);
            EXPECT_EQ(r.mismatches, 0u) << name << " on " << r.system;
        }
    }
}

TEST(RivecWorkloads, SampledRunsStayFunctional)
{
    SamplingConfig sampling;
    sampling.interval = 100;
    sampling.warmup = 20;
    sampling.stride = 4;
    SystemConfig cfg;
    cfg.kind = SystemKind::O3EVE;
    for (const char* name : kRivec) {
        auto w = makeWorkload(name, true);
        SimOptions opts;
        opts.sampling = sampling;
        const RunResult r = runWorkload(cfg, *w, opts);
        EXPECT_EQ(r.mismatches, 0u) << name;
        EXPECT_TRUE(r.sampled) << name;
    }
}

TEST(RivecWorkloads, SignatureClasses)
{
    // axpy: pure streaming MAC — no gathers, no masking.
    auto axpy = makeWorkload("axpy", true);
    axpy->init();
    Characterizer ca;
    axpy->emitVector(ca, 64);
    EXPECT_GT(ca.us, 0u);
    EXPECT_GT(ca.imul, 0u);
    EXPECT_EQ(ca.idx, 0u);
    EXPECT_EQ(ca.predInstrs, 0u);

    // blackscholes: mask/branch-heavy, broadcast, no gathers.
    auto bs = makeWorkload("blackscholes", true);
    bs->init();
    Characterizer cb;
    bs->emitVector(cb, 64);
    EXPECT_GT(cb.predInstrs, 0u);
    EXPECT_GT(cb.imul, 0u);
    EXPECT_GT(cb.xe, 0u);
    EXPECT_EQ(cb.idx, 0u);

    // streamcluster: gather-heavy with strided feature access.
    auto sc = makeWorkload("streamcluster", true);
    sc->init();
    Characterizer cc;
    sc->emitVector(cc, 64);
    EXPECT_GT(cc.idx, 0u);
    EXPECT_GT(cc.st, 0u);
    EXPECT_GT(cc.xe, 0u);
    EXPECT_GT(cc.predInstrs, 0u);
    EXPECT_GT(cc.imul, 0u);

    // particlefilter: masked scatter + reductions.
    auto pf = makeWorkload("particlefilter", true);
    pf->init();
    Characterizer cp;
    pf->emitVector(cp, 64);
    EXPECT_GT(cp.idx, 0u);
    EXPECT_GT(cp.predInstrs, 0u);
    EXPECT_GT(cp.xe, 0u);
}

TEST(RivecWorkloads, DistinctCacheKeys)
{
    // Every (workload, scale) cell of an EVE sweep over the suite
    // must land on its own result-cache key, so sweeps over the new
    // kernels never collide with each other or with cached paper
    // results.
    exp::SweepSpec spec;
    SystemConfig cfg;
    cfg.kind = SystemKind::O3EVE;
    spec.system(cfg);
    spec.workloads({"axpy", "blackscholes", "streamcluster",
                    "particlefilter", "vvadd"},
                   /*small=*/true);
    std::set<std::string> keys;
    for (const auto& job : spec.jobs())
        keys.insert(exp::jobKey(job));
    EXPECT_EQ(keys.size(), 5u);

    // Small and full scales key separately too.
    exp::SweepSpec full;
    full.system(cfg);
    full.workloads({"axpy"}, /*small=*/false);
    EXPECT_FALSE(keys.count(exp::jobKey(full.jobs().front())));
}

} // namespace
} // namespace eve
