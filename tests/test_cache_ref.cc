/**
 * @file
 * Differential test of Cache against RefCache, the list-plus-map
 * reference: seeded access streams drive both on the hierarchy's
 * L1D, L2 and LLC geometries (4-, 8- and 16-way; 1 and 8 banks; 64-
 * and 128-byte lines; stream prefetch on and off), with way-mask
 * changes, ranged invalidations, EVE-style carve-outs and functional
 * warming (touch) mixed in. Every hit or miss, every evicted line,
 * every next-level read and dirty write-back address (seen by a
 * recording next level), the way mask and every InvalidateResult
 * must match. A second test replays the seven kernels' small-input
 * streams through both. Timing is not compared here: the parity
 * digests cover it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "isa/functional.hh"
#include "mem/cache.hh"
#include "vector/request_gen.hh"
#include "workloads/workload.hh"

#include "ref_cache.hh"

namespace eve
{
namespace
{

using test::RefCache;
using Access = std::pair<Addr, bool>;

/** Next level that records every access it is sent. */
class RecordingLevel : public MemObject
{
  public:
    Tick
    access(Addr addr, bool is_write, Tick t) override
    {
        log.emplace_back(addr, is_write);
        return t + 40;
    }

    StatGroup& stats() override { return group; }

    std::vector<Access> log;

  private:
    StatGroup group{"next"};
};

struct Geometry
{
    const char* name;
    std::uint64_t size_bytes;
    unsigned assoc;
    unsigned line_bytes;
    unsigned banks;
    unsigned prefetch_lines;
};

/** gtest prints the parameter in test names: the name, no pointer. */
void
PrintTo(const Geometry& g, std::ostream* os)
{
    *os << g.name;
}

CacheParams
paramsOf(const Geometry& g)
{
    CacheParams p;
    p.name = g.name;
    p.size_bytes = g.size_bytes;
    p.assoc = g.assoc;
    p.line_bytes = g.line_bytes;
    p.banks = g.banks;
    p.prefetch_lines = g.prefetch_lines;
    p.mshrs = 8;
    p.hit_latency = 2;
    return p;
}

/**
 * Random byte addresses over a cache of @p sets x @p assoc lines:
 * a hot quarter of the capacity (hits), a roaming region twice the
 * capacity (evictions), a few sets hammered by more tags than ways
 * (LRU order), a sequential stream (prefetches) and far lines.
 */
class AddrGen
{
  public:
    AddrGen(unsigned sets, unsigned assoc, unsigned line_bytes,
            std::uint64_t seed)
        : sets(sets), assoc(assoc), lineBytes(line_bytes),
          capacity(Addr(sets) * assoc), rng(seed)
    {
    }

    Addr
    next()
    {
        Addr line;
        const std::uint64_t pick = rng.below(20);
        if (pick < 8) {
            line = rng.below(capacity / 4);
        } else if (pick < 12) {
            line = rng.below(2 * capacity);
        } else if (pick < 16) {
            const Addr set = rng.below(std::min(sets, 8u));
            line = rng.below(2 * assoc + 2) * sets + set;
        } else if (pick < 19) {
            line = streamLine++;
        } else {
            line = (Addr{1} << 30) + rng.below(1u << 20);
        }
        return line * lineBytes + rng.below(lineBytes);
    }

    std::uint64_t below(std::uint64_t bound) { return rng.below(bound); }

  private:
    unsigned sets;
    unsigned assoc;
    unsigned lineBytes;
    Addr capacity;
    Rng rng;
    Addr streamLine = Addr{3} << 24;
};

class CacheRef : public testing::TestWithParam<Geometry>
{
};

TEST_P(CacheRef, TagStateMatchesReference)
{
    const Geometry& g = GetParam();
    const CacheParams params = paramsOf(g);
    RecordingLevel next, ref_next;
    Cache cache(params, &next);
    RefCache ref(params, ref_next);
    const unsigned sets = cache.numSets();
    AddrGen gen(sets, g.assoc, g.line_bytes,
                0xcac4e + g.size_bytes + g.assoc * 7 + g.line_bytes +
                    g.prefetch_lines);

    auto sameReachable = [&](const std::string& where) {
        for (Addr line : ref.reachableLines())
            ASSERT_TRUE(cache.isCached(line * g.line_bytes))
                << "line " << line << " missing " << where;
    };

    Tick t = 0;
    const unsigned steps = 60000;
    for (unsigned i = 0; i < steps; ++i) {
        const std::string at = "at step " + std::to_string(i);
        const std::uint64_t event = gen.below(2000);
        if (event < 4) {
            const unsigned ways = 1 + unsigned(gen.below(g.assoc));
            cache.setActiveWays(ways);
            ref.setActiveWays(ways);
            ASSERT_EQ(cache.activeWays(), ref.activeWays()) << at;
            sameReachable("after setActiveWays(" +
                          std::to_string(ways) + ") " + at);
            continue;
        }
        if (event < 7) {
            const unsigned b = unsigned(gen.below(g.assoc + 1));
            const unsigned e = b + unsigned(gen.below(g.assoc + 1 - b));
            const InvalidateResult got = cache.invalidateWays(b, e);
            const InvalidateResult want = ref.invalidateWays(b, e);
            ASSERT_EQ(got.valid_lines, want.valid_lines) << at;
            ASSERT_EQ(got.dirty_lines, want.dirty_lines) << at;
            continue;
        }
        if (event < 9) {
            // EVE carve-out: invalidate the engine's ways, mask them
            // off; the next carve-out event widens the mask again.
            if (cache.activeWays() == g.assoc) {
                const unsigned keep = 1 + unsigned(gen.below(g.assoc));
                const InvalidateResult got =
                    cache.invalidateWays(keep, g.assoc);
                const InvalidateResult want =
                    ref.invalidateWays(keep, g.assoc);
                ASSERT_EQ(got.valid_lines, want.valid_lines) << at;
                ASSERT_EQ(got.dirty_lines, want.dirty_lines) << at;
                cache.setActiveWays(keep);
                ref.setActiveWays(keep);
            } else {
                cache.setActiveWays(g.assoc);
                ref.setActiveWays(g.assoc);
            }
            continue;
        }

        const Addr addr = gen.next();
        if (event < 60) {
            const bool dirty = gen.below(2) == 0;
            cache.touch(addr, dirty);
            ref.touch(addr, dirty);
            ASSERT_TRUE(next.log.empty()) << "touch sent traffic " << at;
        } else {
            const bool write = gen.below(3) == 0;
            const double hits = cache.stats().get("hits");
            t += gen.below(20);
            cache.access(addr, write, t);
            const bool ref_hit = ref.access(addr, write);
            ASSERT_EQ(cache.stats().get("hits") - hits, ref_hit ? 1 : 0)
                << "addr " << addr << " " << at;
            ASSERT_EQ(next.log, ref_next.log) << "addr " << addr << " " << at;
        }
        ASSERT_TRUE(cache.isCached(addr)) << at;
        ASSERT_TRUE(ref.isCached(addr)) << at;
        for (Addr line : ref.evicted)
            ASSERT_EQ(cache.isCached(line * g.line_bytes),
                      ref.isCached(line * g.line_bytes))
                << "victim line " << line << " " << at;
        next.log.clear();
        ref_next.log.clear();
        if (i % 5000 == 4999)
            sameReachable(at);
    }

    const StatGroup& stats = cache.stats();
    EXPECT_EQ(stats.get("hits"), double(ref.hits));
    EXPECT_EQ(stats.get("misses"), double(ref.misses));
    EXPECT_EQ(stats.get("writebacks"), double(ref.writebacks));
    EXPECT_EQ(stats.get("prefetches"), double(ref.prefetches));
    EXPECT_GT(ref.writebacks, 0u);
    EXPECT_EQ(ref.prefetches > 0, g.prefetch_lines > 0);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheRef,
    testing::Values(
        Geometry{"l1d", 32 * 1024, 4, 64, 1, 0},
        Geometry{"l1d_pf2", 32 * 1024, 4, 64, 1, 2},
        Geometry{"l1d_line128", 32 * 1024, 4, 128, 1, 0},
        Geometry{"l2", 512 * 1024, 8, 64, 8, 0},
        Geometry{"l2_vector", 256 * 1024, 4, 64, 8, 1},
        Geometry{"llc", 2 * 1024 * 1024, 16, 64, 8, 0},
        Geometry{"llc_pf4", 2 * 1024 * 1024, 16, 64, 8, 4},
        Geometry{"llc_line128_pf2", 2 * 1024 * 1024, 16, 128, 8, 2}),
    [](const testing::TestParamInfo<Geometry>& info) {
        return std::string(info.param.name);
    });

/** Feeds a kernel's memory records, line by line, to both caches. */
class KernelFeed : public InstrSink
{
  public:
    explicit KernelFeed(const CacheParams& params)
        : cache(params, &next), ref(params, refNext),
          lineBytes(params.line_bytes)
    {
    }

    void
    consume(const Instr& instr) override
    {
        if (!isMemOp(instr.op))
            return;
        const bool write =
            instr.op == Op::SStore || isVecStore(instr.op);
        if (!isVectorOp(instr.op)) {
            step(instr.addr, write);
            return;
        }
        forEachRequestLine(instr, lineBytes,
                           [&](Addr line) { step(line, write); });
    }

    RecordingLevel next, refNext;
    Cache cache;
    RefCache ref;
    std::uint64_t accesses = 0, mismatches = 0;

  private:
    void
    step(Addr addr, bool write)
    {
        const double hits = cache.stats().get("hits");
        cache.access(addr, write, ++accesses);
        const bool ref_hit = ref.access(addr, write);
        if ((cache.stats().get("hits") - hits == 1) != ref_hit ||
            next.log != refNext.log)
            ++mismatches;
        next.log.clear();
        refNext.log.clear();
    }

    unsigned lineBytes;
};

TEST(CacheRefKernels, KernelStreamsMatchReference)
{
    // The seven kernels' small-input streams: scalar accesses into an
    // L1D-shaped cache, vector lines into an LLC-shaped one with a
    // stream prefetcher, both shrunk until the streams evict.
    std::uint64_t writebacks = 0;
    for (auto& workload : makeAllWorkloads(true)) {
        CacheParams l1d = paramsOf({"l1d", 4 * 1024, 4, 64, 1, 0});
        CacheParams llc = paramsOf({"llc", 32 * 1024, 16, 64, 8, 2});
        KernelFeed scalar(l1d), vector(llc);
        workload->init();
        workload->emitScalar(scalar);
        workload->init();
        VecMachine machine(workload->memory(), 64);
        TeeSink tee;
        tee.attach(&machine);
        tee.attach(&vector);
        workload->emitVector(tee, 64);
        for (KernelFeed* feed : {&scalar, &vector}) {
            EXPECT_GT(feed->accesses, 0u) << workload->name();
            EXPECT_EQ(feed->mismatches, 0u) << workload->name();
            EXPECT_EQ(feed->cache.stats().get("writebacks"),
                      double(feed->ref.writebacks))
                << workload->name();
            writebacks += feed->ref.writebacks;
        }
    }
    EXPECT_GT(writebacks, 0u);
}

} // namespace
} // namespace eve
