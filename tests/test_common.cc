/**
 * @file
 * Unit tests for the common substrate: bit utilities, the
 * deterministic RNG, statistics, the JSON parser, logging helpers,
 * clock domains, and atomic file writes.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdarg>
#include <filesystem>
#include <thread>
#include <vector>

#include "common/bits.hh"
#include "common/fs.hh"
#include "common/json.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/types.hh"

#include "test_util.hh"

namespace eve
{
namespace
{

TEST(Bits, BitExtraction)
{
    EXPECT_TRUE(bit(0b1010, 1));
    EXPECT_FALSE(bit(0b1010, 0));
    EXPECT_TRUE(bit(std::uint64_t{1} << 63, 63));
}

TEST(Bits, FieldExtraction)
{
    EXPECT_EQ(bits(0xdeadbeef, 8, 8), 0xbeu);
    EXPECT_EQ(bits(0xdeadbeef, 0, 32), 0xdeadbeefu);
    EXPECT_EQ(bits(~std::uint64_t{0}, 0, 64), ~std::uint64_t{0});
}

TEST(Bits, InsertBit)
{
    EXPECT_EQ(insertBit(0, 5, true), 32u);
    EXPECT_EQ(insertBit(0xff, 0, false), 0xfeu);
}

TEST(Bits, Pow2AndLog)
{
    EXPECT_TRUE(isPow2(1));
    EXPECT_TRUE(isPow2(256));
    EXPECT_FALSE(isPow2(0));
    EXPECT_FALSE(isPow2(3));
    EXPECT_EQ(log2i(1), 0u);
    EXPECT_EQ(log2i(32), 5u);
    EXPECT_EQ(log2i(1u << 31), 31u);
}

TEST(Bits, DivCeil)
{
    EXPECT_EQ(divCeil(0, 4), 0u);
    EXPECT_EQ(divCeil(1, 4), 1u);
    EXPECT_EQ(divCeil(8, 4), 2u);
    EXPECT_EQ(divCeil(9, 4), 3u);
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, RangeIsInclusive)
{
    Rng rng(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 5000; ++i) {
        const auto v = rng.range(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo = saw_lo || v == -3;
        saw_hi = saw_hi || v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Stats, AddAndGet)
{
    StatGroup g("grp");
    EXPECT_EQ(g.get("x"), 0.0);
    EXPECT_FALSE(g.has("x"));
    g.add("x", 2);
    g.add("x", 3);
    EXPECT_EQ(g.get("x"), 5.0);
    EXPECT_TRUE(g.has("x"));
    g.set("x", 1);
    EXPECT_EQ(g.get("x"), 1.0);
}

TEST(Stats, DumpContainsGroupPrefix)
{
    StatGroup g("cache");
    g.add("hits", 10);
    EXPECT_NE(g.dump().find("cache.hits = 10"), std::string::npos);
}

TEST(Stats, MergeAccumulates)
{
    StatGroup a("core");
    a.add("instrs", 10);
    a.add("cycles", 4);
    StatGroup b("core");
    b.add("instrs", 5);
    b.add("stalls", 2);
    a.merge(b);
    EXPECT_EQ(a.get("instrs"), 15.0);
    EXPECT_EQ(a.get("cycles"), 4.0);
    EXPECT_EQ(a.get("stalls"), 2.0);
    // merge() leaves the source untouched.
    EXPECT_EQ(b.get("instrs"), 5.0);
    EXPECT_FALSE(b.has("cycles"));
}

TEST(Stats, PreRegisteredIdsAreInvisibleUntilTouched)
{
    // The timing-parity requirement behind the Id fast path:
    // registering a handle in a constructor must not change what the
    // group reports — only actual updates may.
    StatGroup g("cache");
    const StatGroup::Id hits = g.id("hits");
    const StatGroup::Id misses = g.id("misses");
    EXPECT_FALSE(g.has("hits"));
    EXPECT_TRUE(g.sorted().empty());
    EXPECT_EQ(g.toJson(), "{}");

    g.add(hits, 3);
    EXPECT_TRUE(g.has("hits"));
    EXPECT_FALSE(g.has("misses"));
    EXPECT_EQ(g.toJson(), "{\"hits\":3}");

    // A zero delta still creates the counter, exactly like the
    // string path (and the map it replaced) always did.
    g.add(misses, 0);
    EXPECT_TRUE(g.has("misses"));
    EXPECT_EQ(g.toJson(), "{\"hits\":3,\"misses\":0}");
}

TEST(Stats, IdAndStringPathsAlias)
{
    StatGroup g;
    const StatGroup::Id x = g.id("x");
    g.add("x", 2);
    g.add(x, 3);
    EXPECT_EQ(g.get("x"), 5.0);
    // id() resolves one name to the same handle every time.
    EXPECT_EQ(g.id("x"), x);
}

TEST(Stats, ToJsonSortedAndTyped)
{
    StatGroup g("llc");
    g.add("misses", 3);
    g.add("hit_rate", 0.5);
    EXPECT_EQ(g.toJson(), "{\"hit_rate\":0.5,\"misses\":3}");
    EXPECT_EQ(StatGroup("empty").toJson(), "{}");
}

TEST(Stats, JsonHelpers)
{
    EXPECT_EQ(jsonNumber(42.0), "42");
    EXPECT_EQ(jsonNumber(-7.0), "-7");
    EXPECT_EQ(jsonNumber(0.25), "0.25");
    EXPECT_EQ(jsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    EXPECT_EQ(statsToJson({{"k", 1.0}}), "{\"k\":1}");
}

TEST(Json, ParseResetsReusedValue)
{
    // Regression: parseObject appends, so parsing a second document
    // into the same JsonValue used to keep the first document's
    // members, and find() returned the stale ones.
    JsonValue v;
    ASSERT_TRUE(parseJson(
        "{\"status\":\"ok\",\"index\":3,\"stats\":{\"a\":1}}", v));
    ASSERT_NE(v.find("index"), nullptr);
    EXPECT_EQ(v.find("status")->text, "ok");
    EXPECT_EQ(v.find("index")->number, 3);

    ASSERT_TRUE(parseJson("{\"status\":\"failed\",\"cycles\":2}", v));
    EXPECT_EQ(v.find("status")->text, "failed");
    EXPECT_EQ(v.find("cycles")->number, 2);
    EXPECT_EQ(v.find("index"), nullptr);
    EXPECT_EQ(v.find("stats"), nullptr);
    EXPECT_EQ(v.members.size(), 2u);
}

namespace
{
std::string
format(const char* fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string s = vformat(fmt, ap);
    va_end(ap);
    return s;
}
} // namespace

TEST(Log, VformatFormats)
{
    EXPECT_EQ(format("%d-%s", 42, "x"), "42-x");
    EXPECT_EQ(format("plain"), "plain");
}

TEST(ClockDomain, Conversions)
{
    ClockDomain clk(1.025);
    EXPECT_EQ(clk.period(), Tick{1025});
    EXPECT_EQ(clk.toTicks(10), Tick{10250});
    EXPECT_EQ(clk.toCycles(1025), Cycles{1});
    EXPECT_EQ(clk.toCycles(1026), Cycles{2});  // rounds up
    EXPECT_DOUBLE_EQ(clk.periodNs(), 1.025);
}

TEST(AtomicWrite, ConcurrentWritersOfOnePathAllSucceed)
{
    // Threads of one process writing one path (two sampled jobs
    // saving one checkpoint, two lanes publishing one key) must each
    // get their own temp file: a shared one is renamed away under the
    // other writer.
    const std::string dir = test::freshDir("atomic_write_race");
    const std::string path = dir + "/shared.txt";
    std::atomic<unsigned> failures{0};
    std::vector<std::thread> writers;
    for (unsigned t = 0; t < 4; ++t) {
        writers.emplace_back([&, t] {
            const std::string content =
                "writer " + std::to_string(t) + "\n";
            for (unsigned i = 0; i < 200; ++i)
                failures += !tryAtomicWriteFile(path, content, nullptr);
        });
    }
    for (auto& w : writers)
        w.join();
    EXPECT_EQ(failures.load(), 0u);

    // The target holds one writer's whole content, and no temp file
    // is left behind.
    std::string text;
    ASSERT_TRUE(readFile(path, text));
    EXPECT_EQ(text.rfind("writer ", 0), 0u);
    std::size_t files = 0;
    for (const auto& e : std::filesystem::directory_iterator(dir)) {
        ++files;
        EXPECT_EQ(e.path().filename(), "shared.txt");
    }
    EXPECT_EQ(files, 1u);
}

} // namespace
} // namespace eve
