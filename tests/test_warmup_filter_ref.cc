/**
 * @file
 * Differential test of WarmupFilter against RefWarmupFilter, the
 * list-plus-hash-map reference: seeded streams of scalar, unit,
 * strided (up and down; sub-line and multi-line strides) and indexed
 * records drive both filters, and at every boundary the line counts
 * and the installed image (the hottest lines, coldest first, with
 * their dirty bits) must be identical. A second check installs both
 * images into identical cache pairs through applyTo() and compares
 * the timing and stats of a probe sequence run through each.
 */

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "common/rng.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "sim/sampling.hh"

#include "ref_warmup_filter.hh"

namespace eve
{
namespace
{

using test::RefWarmupFilter;
using Image = std::vector<std::pair<Addr, bool>>;

template <typename Filter>
Image
hottest(const Filter& filter, std::size_t n)
{
    Image image;
    filter.forHottest(n, [&](Addr line, bool dirty) {
        image.emplace_back(line, dirty);
    });
    return image;
}

/**
 * Random memory records over a working set of about 3/2 * @p bound
 * lines: half aim at a hot quarter of it (hits), the rest roam the
 * whole set (evictions), and a few land on far pages.
 */
class StreamGen
{
  public:
    StreamGen(std::size_t bound, unsigned line_bytes, std::uint64_t seed)
        : region(Addr(bound) * 3 / 2 * line_bytes),
          hot(region / 4 + line_bytes), rng(seed)
    {
    }

    Instr
    next()
    {
        Instr in;
        in.vl = 1 + std::uint32_t(rng.below(rng.below(4) ? 64 : 512));
        in.addr = base();
        const bool store = rng.below(3) == 0;
        switch (rng.below(8)) {
          case 0:
            in.op = store ? Op::SStore : Op::SLoad;
            break;
          case 1:
            in.op = store ? Op::VStore : Op::VLoad;
            break;
          case 2:
          case 3:
          case 4: {
            static const std::int64_t strides[] = {
                4, 8, 12, 60, 64, 136, 256, 4096, 64 * 4097,
                -4, -8, -64, -136, -256, 0};
            in.op = store ? Op::VStoreStrided : Op::VLoadStrided;
            in.stride = strides[rng.below(std::size(strides))];
            if (in.stride < 0)
                in.addr += Addr(-in.stride) * in.vl;
            break;
          }
          case 5:
          case 6:
            in.op = store ? Op::VStoreIndexed : Op::VLoadIndexed;
            indices.assign(in.vl, 0);
            for (auto& idx : indices)
                idx = std::uint32_t(rng.below(rng.below(2) ? 4096 : hot));
            in.indices = indices.data();
            break;
          default:
            in.op = Op::VAdd; // not a memory record
            break;
        }
        return in;
    }

  private:
    Addr
    base()
    {
        const std::uint64_t pick = rng.below(64);
        if (pick == 0) // a far page, to make pages come and go
            return (Addr(1 + rng.below(8)) << 34) + rng.below(1 << 20);
        if (pick < 32)
            return rng.below(hot);
        return rng.below(region);
    }

    Addr region;
    Addr hot;
    Rng rng;
    std::vector<std::uint32_t> indices;
};

class WarmupFilterRef
    : public testing::TestWithParam<std::tuple<std::size_t, unsigned>>
{
};

TEST_P(WarmupFilterRef, ImageMatchesReferenceAtEveryBoundary)
{
    const auto [bound, line_bytes] = GetParam();
    WarmupFilter filter(line_bytes, bound);
    RefWarmupFilter ref(line_bytes, bound);
    StreamGen gen(bound, line_bytes ? line_bytes : 64,
                  0xf117e5 + bound * 131 + line_bytes);
    const unsigned records = bound >= 65536 ? 6000 : 2500;
    const unsigned boundary = bound >= 65536 ? 1000 : 250;
    for (unsigned r = 1; r <= records; ++r) {
        const Instr in = gen.next();
        filter.observe(in);
        ref.observe(in);
        if (r % boundary != 0)
            continue;
        ASSERT_EQ(filter.lines(), ref.lines()) << "after record " << r;
        for (std::size_t n : {std::size_t(512), filter.lines(),
                              filter.lines() + 1}) {
            ASSERT_EQ(hottest(filter, n), hottest(ref, n))
                << "hottest " << n << " after record " << r;
        }
    }
    // The streams must have filled the bound and churned through it.
    EXPECT_EQ(filter.lines(), bound);
}

/** A cache over its own DRAM, so write-backs show in DRAM stats. */
struct CacheRig
{
    explicit CacheRig(const CacheParams& params)
        : dram(DramParams{}), cache(params, &dram)
    {
    }

    Dram dram;
    Cache cache;
};

TEST_P(WarmupFilterRef, AppliedImagesTimeProbesIdentically)
{
    const auto [bound, line_bytes] = GetParam();
    WarmupFilter filter(line_bytes, bound);
    RefWarmupFilter ref(line_bytes, bound);
    StreamGen gen(bound, line_bytes ? line_bytes : 64, 0xa991 + bound);
    for (unsigned r = 0; r < 1500; ++r) {
        const Instr in = gen.next();
        filter.observe(in);
        ref.observe(in);
    }

    // A level smaller than the image (only the hottest lines go in),
    // one larger, and one whose line size differs from the filter's.
    CacheParams small;
    small.size_bytes = 32 * 1024;
    small.assoc = 8;
    CacheParams large;
    large.size_bytes = 8 * 1024 * 1024;
    large.assoc = 16;
    CacheParams wide = small;
    wide.line_bytes = 128;
    for (const CacheParams& params : {small, large, wide}) {
        CacheRig a(params);
        CacheRig b(params);
        filter.applyTo(a.cache);
        ref.applyTo(b.cache);
        Rng probes(0x9b0be + bound);
        const Addr span = Addr(bound) * 2 * 64;
        for (unsigned i = 0; i < 4000; ++i) {
            const Addr addr = probes.below(span);
            const bool write = probes.below(2) == 0;
            const Tick t = Tick(i) * 1000;
            ASSERT_EQ(a.cache.access(addr, write, t),
                      b.cache.access(addr, write, t))
                << "probe " << i << " at 0x" << std::hex << addr;
        }
        EXPECT_EQ(a.cache.stats().sorted(), b.cache.stats().sorted());
        EXPECT_EQ(a.dram.stats().sorted(), b.dram.stats().sorted());
    }
}

INSTANTIATE_TEST_SUITE_P(
    Bounds, WarmupFilterRef,
    testing::Values(std::make_tuple(std::size_t(100), 64u),
                    std::make_tuple(std::size_t(5000), 64u),
                    std::make_tuple(std::size_t(65536), 64u),
                    std::make_tuple(std::size_t(100), 48u),
                    std::make_tuple(std::size_t(5000), 32u),
                    std::make_tuple(std::size_t(5000), 0u)),
    [](const auto& info) {
        return "lines" + std::to_string(std::get<0>(info.param)) +
               "_bytes" + std::to_string(std::get<1>(info.param));
    });

TEST(WarmupFilter, ZeroBoundKeepsNothing)
{
    WarmupFilter filter(64, 0);
    Instr load;
    load.op = Op::SLoad;
    load.addr = 640;
    filter.observe(load);
    EXPECT_EQ(filter.lines(), 0u);
    EXPECT_TRUE(hottest(filter, 16).empty());
}

} // namespace
} // namespace eve
