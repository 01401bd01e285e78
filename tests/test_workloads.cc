/**
 * @file
 * Workload tests: every kernel's vector program must verify against
 * its reference at several hardware vector lengths (including odd
 * lengths that exercise partial strips), and each workload's
 * instruction mix must contain its signature classes.
 */

#include <gtest/gtest.h>

#include <string>

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
class WorkloadFunctional
    : public testing::TestWithParam<std::tuple<std::string, unsigned>>
{
};

TEST_P(WorkloadFunctional, VectorProgramMatchesReference)
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
    Sweep, WorkloadFunctional,
    testing::Combine(testing::Values("vvadd", "mmult", "k-means",
                                     "pathfinder", "jacobi-2d",
                                     "backprop", "sw"),
                     testing::Values(4u, 64u, 100u, 1024u)),
    [](const auto& info) {
        std::string n = std::get<0>(info.param);
        for (auto& c : n)
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return n + "_vl" + std::to_string(std::get<1>(info.param));
    });

TEST(WorkloadMix, SignatureClassesPresent)
{
    struct Expect
    {
        const char* name;
        bool idx, st, xe, prd, imul;
    };
    const Expect expects[] = {
        // name        idx    st     xe     prd    imul
        {"vvadd",      false, false, false, false, false},
        {"mmult",      false, false, true,  false, true},
        {"k-means",    true,  true,  true,  true,  true},
        {"pathfinder", false, false, true,  true,  false},
        {"jacobi-2d",  false, false, true,  false, true},
        {"backprop",   false, true,  true,  false, true},
        {"sw",         false, true,  true,  false, false},
    };
    for (const auto& e : expects) {
        auto w = makeWorkload(e.name, true);
        w->init();
        Characterizer c;
        w->emitVector(c, 64);
        EXPECT_EQ(c.idx > 0, e.idx) << e.name << " idx";
        EXPECT_EQ(c.st > 0, e.st) << e.name << " st";
        EXPECT_EQ(c.xe > 0, e.xe) << e.name << " xe";
        EXPECT_EQ(c.predInstrs > 0, e.prd) << e.name << " prd";
        EXPECT_EQ(c.imul > 0, e.imul) << e.name << " imul";
        EXPECT_GT(c.us, 0u) << e.name << " us";
        EXPECT_GT(c.vecOpPct(), 50.0) << e.name;
    }
}

TEST(WorkloadMix, ScalarVersionsAreScalarOnly)
{
    for (auto& w : makeAllWorkloads(true)) {
        w->init();
        Characterizer c;
        w->emitScalar(c);
        EXPECT_EQ(c.vecInstrs, 0u) << w->name();
        EXPECT_GT(c.dynInstrs, 1000u) << w->name();
    }
}

TEST(WorkloadMix, VectorVersionsShrinkDynamicInstructions)
{
    for (auto& w : makeAllWorkloads(true)) {
        w->init();
        CountingSink scalar;
        w->emitScalar(scalar);
        w->init();
        CountingSink vec;
        w->emitVector(vec, 64);
        EXPECT_LT(vec.total, scalar.total) << w->name();
    }
}

TEST(WorkloadMix, LogicalParallelismScalesWithVl)
{
    auto w = makeWorkload("vvadd", true);
    w->init();
    Characterizer c64;
    w->emitVector(c64, 64);
    w->init();
    Characterizer c4;
    w->emitVector(c4, 4);
    EXPECT_GT(c64.logicalParallelism(),
              3.0 * c4.logicalParallelism());
}

TEST(WorkloadFactory, UnknownNameReturnsNull)
{
    EXPECT_EQ(makeWorkload("nope", true), nullptr);
}

TEST(WorkloadFactory, AllSevenPresent)
{
    EXPECT_EQ(makeAllWorkloads(true).size(), 7u);
}

TEST(WorkloadDeterminism, ReEmissionIsIdentical)
{
    auto a = makeWorkload("sw", true);
    a->init();
    Characterizer ca;
    a->emitVector(ca, 64);
    auto b = makeWorkload("sw", true);
    b->init();
    Characterizer cb;
    b->emitVector(cb, 64);
    EXPECT_EQ(ca.dynInstrs, cb.dynInstrs);
    EXPECT_EQ(ca.totalOps, cb.totalOps);
}

} // namespace
} // namespace eve
