/**
 * @file
 * Tests for the deterministic threaded CMP co-run: byte-identical
 * results at several core-thread caps, and shared-uncore statistics
 * reported identically by every core.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "driver/cmp.hh"
#include "driver/system.hh"
#include "exp/perf.hh"
#include "exp/runner.hh"
#include "workloads/workload.hh"

namespace eve
{
namespace
{

std::uint64_t
fingerprintOf(RunResult r)
{
    exp::JobResult jr;
    jr.status = exp::JobStatus::Ok;
    jr.result = std::move(r);
    return exp::parityFingerprint(jr);
}

std::vector<std::uint64_t>
cmpFingerprints(unsigned max_threads)
{
    SystemConfig dv;
    dv.kind = SystemKind::O3DV;
    SystemConfig o3;
    o3.kind = SystemKind::O3;
    SystemConfig io;
    io.kind = SystemKind::IO;

    auto w0 = makeWorkload("vvadd", /*small=*/true);
    auto w1 = makeWorkload("pathfinder", /*small=*/true);
    auto w2 = makeWorkload("vvadd", /*small=*/true);
    EXPECT_NE(w0, nullptr);
    EXPECT_NE(w1, nullptr);
    EXPECT_NE(w2, nullptr);

    const std::vector<CmpCore> cores = {
        {dv, w0.get()}, {o3, w1.get()}, {io, w2.get()}};
    const std::vector<RunResult> results =
        runCmpParallel(cores, max_threads);
    EXPECT_EQ(results.size(), cores.size());

    std::vector<std::uint64_t> fps;
    for (const RunResult& r : results) {
        EXPECT_EQ(r.mismatches, 0u);
        fps.push_back(fingerprintOf(r));
    }
    return fps;
}

TEST(ThreadedCmp, ByteIdenticalAtOneTwoAndEightSimThreads)
{
    const auto at1 = cmpFingerprints(1);
    const auto at2 = cmpFingerprints(2);
    const auto at8 = cmpFingerprints(8);
    EXPECT_EQ(at1, at2);
    EXPECT_EQ(at1, at8);
}

TEST(ThreadedCmp, SharedUncoreStatsIdenticalAcrossCores)
{
    SystemConfig dv;
    dv.kind = SystemKind::O3DV;
    SystemConfig o3;
    o3.kind = SystemKind::O3;
    auto w0 = makeWorkload("vvadd", /*small=*/true);
    auto w1 = makeWorkload("pathfinder", /*small=*/true);
    ASSERT_NE(w0, nullptr);
    ASSERT_NE(w1, nullptr);
    const auto results = runCmpParallel(
        {{dv, w0.get()}, {o3, w1.get()}}, 2);
    ASSERT_EQ(results.size(), 2u);

    // Both cores report the *final* shared LLC traffic, and the co-run
    // saw both cores' accesses.
    const double llc_a = results[0].stat("llc.reads") +
                         results[0].stat("llc.writes");
    const double llc_b = results[1].stat("llc.reads") +
                         results[1].stat("llc.writes");
    EXPECT_EQ(llc_a, llc_b);
    EXPECT_GT(llc_a, 0.0);
}

} // namespace
} // namespace eve
