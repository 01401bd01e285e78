/**
 * @file
 * Unit tests for the memory system: cache hit/miss behaviour, LRU
 * replacement, writebacks, MSHR-limited miss parallelism and
 * secondary-miss merging, way masking (EVE reconfiguration), DRAM
 * latency/bandwidth, and the assembled Table III hierarchy.
 */

#include <gtest/gtest.h>

#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/hierarchy.hh"

namespace eve
{
namespace
{

CacheParams
tinyCache(unsigned size_kb = 1, unsigned assoc = 2, unsigned mshrs = 2)
{
    CacheParams p;
    p.name = "tiny";
    p.size_bytes = size_kb * 1024;
    p.assoc = assoc;
    p.hit_latency = 2;
    p.mshrs = mshrs;
    p.clock_ns = 1.0;
    return p;
}

DramParams
fastDram()
{
    DramParams p;
    p.latency_ns = 50.0;
    return p;
}

TEST(Dram, ChargesLatency)
{
    Dram dram(fastDram());
    const Tick done = dram.access(0, false, 1000);
    // Channel occupancy starts at arrival; latency ~50ns.
    EXPECT_GE(done, Tick{1000 + 50000});
    EXPECT_LT(done, Tick{1000 + 60000});
}

TEST(Dram, ChannelBandwidthSerializes)
{
    Dram dram(fastDram());
    // 64B at 19.2 GB/s = ~3.33ns per line; 100 simultaneous lines
    // must spread over ~333ns of channel time.
    Tick last = 0;
    for (int i = 0; i < 100; ++i)
        last = std::max(last, dram.access(Addr(i) * 64, false, 0));
    EXPECT_GT(last, Tick{330000});
}

TEST(Dram, WritesCompleteAtAcceptance)
{
    Dram dram(fastDram());
    const Tick w = dram.access(0, true, 0);
    const Tick r = dram.access(64, false, 0);
    EXPECT_LT(w, r);  // writes don't pay the read latency
}

TEST(Cache, MissThenHit)
{
    Dram dram(fastDram());
    Cache cache(tinyCache(), &dram);
    const Tick miss = cache.access(0x40, false, 0);
    EXPECT_GT(miss, Tick{50000});
    EXPECT_TRUE(cache.isCached(0x40));
    // A later access to the same line hits at hit latency.
    const Tick hit = cache.access(0x44, false, miss);
    EXPECT_LE(hit, miss + 2 * 1000 + 1000);
    EXPECT_EQ(cache.stats().get("hits"), 1.0);
    EXPECT_EQ(cache.stats().get("misses"), 1.0);
}

TEST(Cache, SecondaryMissMergesIntoMshr)
{
    Dram dram(fastDram());
    Cache cache(tinyCache(), &dram);
    const Tick first = cache.access(0x40, false, 0);
    // Another access to the same line while in flight completes with
    // the fill, without a second DRAM trip.
    const Tick second = cache.access(0x48, false, 100);
    EXPECT_EQ(second, first);
    EXPECT_EQ(cache.stats().get("mshr_merges"), 1.0);
    EXPECT_EQ(dram.stats().get("reads"), 1.0);
}

TEST(Cache, LruEvictsOldest)
{
    Dram dram(fastDram());
    CacheParams p = tinyCache(1, 2);  // 8 sets x 2 ways of 64B
    Cache cache(p, &dram);
    const unsigned set_stride = 8 * 64;  // same set
    cache.access(0 * set_stride, false, 0);
    cache.access(1 * set_stride, false, 1'000'000);
    // Touch line 0 so line 1 is LRU.
    cache.access(0 * set_stride, false, 2'000'000);
    cache.access(2 * set_stride, false, 3'000'000);
    EXPECT_TRUE(cache.isCached(0));
    EXPECT_FALSE(cache.isCached(set_stride));
    EXPECT_TRUE(cache.isCached(2 * set_stride));
}

TEST(Cache, DirtyVictimWritesBack)
{
    Dram dram(fastDram());
    Cache cache(tinyCache(1, 1), &dram);  // direct mapped, 16 sets
    const unsigned set_stride = 16 * 64;
    cache.access(0, true, 0);                       // dirty
    cache.access(set_stride, false, 1'000'000);     // evicts it
    EXPECT_EQ(cache.stats().get("writebacks"), 1.0);
    EXPECT_EQ(dram.stats().get("writes"), 1.0);
}

TEST(Cache, MshrLimitThrottlesMissStream)
{
    Dram dram(fastDram());
    Cache small(tinyCache(64, 4, /*mshrs=*/2), &dram);
    Dram dram2(fastDram());
    Cache big(tinyCache(64, 4, /*mshrs=*/16), &dram2);

    Tick small_done = 0, big_done = 0;
    for (int i = 0; i < 32; ++i) {
        const Addr a = Addr(i) * 64;
        const Tick t = Tick(i) * 1000;
        small_done = std::max(small_done, small.access(a, false, t));
        big_done = std::max(big_done, big.access(a, false, t));
    }
    // With 2 MSHRs the stream serializes into waves of 2.
    EXPECT_GT(small_done, big_done * 3 / 2);
    EXPECT_GT(small.stats().get("mshr_wait_ticks"), 0.0);
}

TEST(Cache, WayMaskingRestrictsCapacity)
{
    Dram dram(fastDram());
    Cache cache(tinyCache(1, 4), &dram);  // 4 sets x 4 ways
    cache.setActiveWays(2);
    const unsigned set_stride = 4 * 64;
    // Three lines mapping to set 0 with only 2 live ways: one evicts.
    cache.access(0 * set_stride, false, 0);
    cache.access(4 * set_stride, false, 1'000'000);
    cache.access(8 * set_stride, false, 2'000'000);
    int resident = cache.isCached(0) + cache.isCached(4 * set_stride) +
                   cache.isCached(8 * set_stride);
    EXPECT_EQ(resident, 2);
}

TEST(Cache, InvalidateWaysCountsValidAndDirty)
{
    Dram dram(fastDram());
    Cache cache(tinyCache(1, 4), &dram);
    cache.touch(0, true);          // way 0, dirty
    cache.touch(4 * 4 * 64, false);
    const InvalidateResult all = cache.invalidateWays(0, 4);
    EXPECT_EQ(all.valid_lines, 2u);
    EXPECT_EQ(all.dirty_lines, 1u);
    EXPECT_FALSE(cache.isCached(0));
}

TEST(Cache, TouchWarmsWithoutTiming)
{
    Dram dram(fastDram());
    Cache cache(tinyCache(), &dram);
    cache.touch(0x1000);
    EXPECT_TRUE(cache.isCached(0x1000));
    EXPECT_EQ(dram.stats().get("reads"), 0.0);
}


TEST(Cache, PrefetcherConvertsStreamMissesToHits)
{
    Dram dram_a(fastDram()), dram_b(fastDram());
    CacheParams base = tinyCache(64, 4, 8);
    Cache plain(base, &dram_a);
    base.prefetch_lines = 4;
    Cache pf(base, &dram_b);

    // Stream 64 consecutive lines through both.
    for (int i = 0; i < 64; ++i) {
        const Addr a = Addr(i) * 64;
        const Tick t = Tick(i) * 4000;
        plain.access(a, false, t);
        pf.access(a, false, t);
    }
    EXPECT_EQ(plain.stats().get("misses"), 64.0);
    EXPECT_LT(pf.stats().get("misses"), 20.0);
    EXPECT_GT(pf.stats().get("prefetches"), 40.0);
    // Same total fetch traffic: prefetching does not duplicate.
    EXPECT_NEAR(dram_b.stats().get("reads"),
                dram_a.stats().get("reads"), 6.0);
}

TEST(Cache, PrefetchHitStillWaitsForInFlightFill)
{
    Dram dram(fastDram());
    CacheParams p = tinyCache(64, 4, 8);
    p.prefetch_lines = 2;
    Cache cache(p, &dram);
    const Tick miss_done = cache.access(0, false, 0);
    // The prefetched next line is present but its fill is in flight:
    // an immediate demand access completes with the fill, not at hit
    // latency.
    const Tick next_done = cache.access(64, false, 100);
    EXPECT_GT(next_done, Tick{40000});
    EXPECT_LE(next_done, miss_done + 10000);
}

TEST(Cache, EvictionClearsInFlightFillState)
{
    Dram dram(fastDram());
    Cache cache(tinyCache(1, 1), &dram);  // direct mapped, 16 sets
    const unsigned set_stride = 16 * 64;
    // Line A misses at t=0; its fill completes ~50k ticks out.
    cache.access(0, false, 0);
    // Line B maps to the same set and evicts A while A's fill is
    // still in flight. The eviction must drop A's outstanding entry.
    cache.access(set_stride, false, 100);
    // Warm A back in (functional warm-up) and touch it: the access
    // must complete at hit latency, not merge against the stale
    // pre-eviction fill tick.
    cache.touch(0);
    const Tick hit = cache.access(0, false, 200);
    EXPECT_LE(hit, Tick{200 + 10'000});
    EXPECT_EQ(cache.stats().get("mshr_merges"), 0.0);
}

TEST(Cache, InvalidateWaysClearsInFlightFillState)
{
    Dram dram(fastDram());
    CacheParams p = tinyCache(1, 4);  // 4 sets x 4 ways
    p.prefetch_lines = 2;
    Cache cache(p, &dram);
    // A demand miss on line 0 also streams lines 1 and 2; all three
    // fills are in flight.
    cache.access(0, false, 0);
    EXPECT_EQ(cache.stats().get("prefetches"), 2.0);
    // EVE spawn carve-out: every way is invalidated through the
    // way-range API, as reconfiguration does.
    cache.invalidateWays(0, 4);
    // The same demand miss much later must re-prefetch lines 1-2
    // rather than being suppressed by stale outstanding entries.
    cache.access(0, false, 10'000'000);
    EXPECT_EQ(cache.stats().get("prefetches"), 4.0);
    EXPECT_TRUE(cache.isCached(1 * 64));
    EXPECT_TRUE(cache.isCached(2 * 64));
}

TEST(Cache, CarveOutHitDoesNotMergeStaleFill)
{
    Dram dram(fastDram());
    Cache cache(tinyCache(1, 4), &dram);
    // Line 0's fill is in flight when the ways are carved out.
    cache.access(0, false, 0);
    cache.invalidateWays(0, 4);
    // After the engine is freed the line is warmed back in; a demand
    // access must hit at hit latency, not wait for the pre-carve-out
    // fill tick.
    cache.touch(0);
    const Tick hit = cache.access(0, false, 500);
    EXPECT_LE(hit, Tick{500 + 10'000});
    EXPECT_EQ(cache.stats().get("mshr_merges"), 0.0);
}

TEST(Cache, WritebackLeavesAtMissIssue)
{
    // A dirty victim's writeback must not park a future reservation
    // on the DRAM channel (that would stall later demand reads).
    Dram dram(fastDram());
    Cache cache(tinyCache(1, 1), &dram);  // direct mapped, 16 sets
    const unsigned set_stride = 16 * 64;
    cache.access(0, true, 0);  // dirty line
    // Evict it with a read miss at t=1ms; the writeback and the
    // demand read both use the channel near t=1ms.
    const Tick done = cache.access(set_stride, false, 1'000'000);
    // A subsequent unrelated read arriving right after must not be
    // pushed behind a far-future writeback reservation.
    const Tick other = cache.access(2 * set_stride, false, 1'010'000);
    EXPECT_LT(other, done + 200'000);
}

TEST(Hierarchy, MissesPropagateThroughLevels)
{
    HierarchyParams hp;
    MemHierarchy mem(hp);
    mem.l1d().access(0x12340, false, 0);
    EXPECT_EQ(mem.l1d().stats().get("misses"), 1.0);
    EXPECT_EQ(mem.l2().stats().get("misses"), 1.0);
    EXPECT_EQ(mem.llc().stats().get("misses"), 1.0);
    EXPECT_EQ(mem.dram().stats().get("reads"), 1.0);

    // Second access: L1 hit, nothing deeper.
    mem.l1d().access(0x12344, false, 10'000'000);
    EXPECT_EQ(mem.l1d().stats().get("hits"), 1.0);
    EXPECT_EQ(mem.l2().stats().get("reads"), 1.0);
}

TEST(Hierarchy, VectorModeHalvesL2)
{
    HierarchyParams hp;
    hp.l2_vector_mode = true;
    MemHierarchy mem(hp);
    EXPECT_EQ(mem.l2().params().size_bytes, 256u * 1024u);
    EXPECT_EQ(mem.l2().params().assoc, 4u);
}

TEST(Hierarchy, L1HitFasterThanL2Hit)
{
    HierarchyParams hp;
    MemHierarchy mem(hp);
    mem.warmRange(0, 4096);
    const Tick l1 = mem.l1d().access(0, false, 0) - 0;
    // Evict nothing; access via L2 directly to compare.
    const Tick l2 = mem.l2().access(0, false, 0) - 0;
    EXPECT_LT(l1, l2);
}

} // namespace
} // namespace eve
