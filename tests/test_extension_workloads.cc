/**
 * @file
 * Tests for the extension workloads (spmv, fir, scan): functional
 * verification at several hardware vector lengths, signature
 * instruction classes, and end-to-end runs on every vector system.
 */

#include <gtest/gtest.h>

#include <string>

#include "driver/system.hh"
#include "isa/functional.hh"
#include "isa/program.hh"
#include "workloads/workload.hh"

namespace eve
{
namespace
{

// The kernel name is a std::string, not a const char*: gtest prints a
// pointer parameter as its address, which would put a per-process
// value into the listed test name.
class ExtensionFunctional
    : public testing::TestWithParam<std::tuple<std::string, unsigned>>
{
};

TEST_P(ExtensionFunctional, VectorProgramMatchesReference)
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
    Sweep, ExtensionFunctional,
    testing::Combine(testing::Values("spmv", "fir", "scan"),
                     testing::Values(4u, 64u, 100u, 1024u)),
    [](const auto& info) {
        return std::string(std::get<0>(info.param)) + "_vl" +
               std::to_string(std::get<1>(info.param));
    });

TEST(ExtensionWorkloads, RunOnEverySystem)
{
    for (const char* name : {"spmv", "fir", "scan"}) {
        for (SystemKind kind :
             {SystemKind::O3IV, SystemKind::O3DV, SystemKind::O3EVE}) {
            SystemConfig cfg;
            cfg.kind = kind;
            auto w = makeWorkload(name, true);
            const RunResult r = runWorkload(cfg, *w);
            EXPECT_EQ(r.mismatches, 0u)
                << name << " on " << r.system;
        }
    }
}

TEST(ExtensionWorkloads, SignatureClasses)
{
    auto spmv = makeWorkload("spmv", true);
    spmv->init();
    Characterizer cs;
    spmv->emitVector(cs, 64);
    EXPECT_GT(cs.idx, 0u);  // gathers of x
    EXPECT_GT(cs.imul, 0u);
    EXPECT_GT(cs.xe, 0u);   // reductions

    auto fir = makeWorkload("fir", true);
    fir->init();
    Characterizer cf;
    fir->emitVector(cf, 64);
    EXPECT_GT(cf.imul, 0u);
    EXPECT_GT(cf.us, 0u);
    EXPECT_EQ(cf.idx, 0u);

    auto scan = makeWorkload("scan", true);
    scan->init();
    Characterizer cc;
    scan->emitVector(cc, 64);
    EXPECT_GT(cc.xe, 0u);   // slides + broadcast gather
    EXPECT_GT(cc.ialu, 0u);
}

TEST(ExtensionWorkloads, ScanCarriesAcrossStrips)
{
    // Force many strips so the cross-strip carry path is exercised.
    auto w = makeWorkload("scan", true);
    w->init();
    VecMachine machine(w->memory(), 16);
    w->emitVector(machine, 16);
    EXPECT_EQ(w->verify(), 0u);
}

} // namespace
} // namespace eve
