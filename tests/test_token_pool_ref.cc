/**
 * @file
 * Differential test of TokenPool against RefTokenPool, the binary-
 * heap reference: seeded request streams drive both pools, and every
 * grant, every grantTime() probe and every inFlight() count must be
 * identical. The streams mix arrivals at equal ticks, arrivals that
 * step back in time, zero-latency releases, long releases followed
 * by short ones (so releases come due out of acquisition order), and
 * bursts of more same-tick requests than the pool has tokens.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "sim/resource.hh"

#include "ref_token_pool.hh"

namespace eve
{
namespace
{

using test::RefTokenPool;

/** Seeded request stream: arrival ticks and hold times. */
class RequestGen
{
  public:
    RequestGen(unsigned capacity, std::uint64_t seed)
        : capacity(capacity), rng(seed)
    {
    }

    /** Arrival tick of the next request. */
    Tick
    arrival()
    {
        if (burstLeft > 0) {
            --burstLeft;
            return now;  // a burst: all at one tick
        }
        switch (rng.below(16)) {
          case 0:
            // More same-tick requests than there are tokens.
            burstLeft = capacity + unsigned(rng.below(capacity + 4));
            return now;
          case 1:
            // A request from behind the stream's frontier.
            return now - std::min<Tick>(now, rng.below(200));
          case 2:
          case 3:
            return now;  // equal to the previous arrival
          default:
            now += rng.below(rng.below(4) ? 8 : 400);
            return now;
        }
    }

    /** How long the token is held after its grant. */
    Tick
    hold()
    {
        switch (rng.below(8)) {
          case 0:
            return 0;  // released at its own grant tick
          case 1:
            return 1000 + rng.below(5000);  // outlives later holds
          default:
            return 1 + rng.below(64);
        }
    }

    /** A probe tick near the frontier (sometimes behind it). */
    Tick probe() { return now + rng.below(300) - std::min<Tick>(now, 100); }

    bool coin(unsigned one_in) { return rng.below(one_in) == 0; }

  private:
    unsigned capacity;
    Rng rng;
    Tick now = 1000;
    unsigned burstLeft = 0;
};

class TokenPoolRef : public testing::TestWithParam<unsigned>
{
};

TEST_P(TokenPoolRef, GrantsAndInFlightMatchHeapPool)
{
    const unsigned capacity = GetParam();
    TokenPool pool(capacity);
    RefTokenPool ref(capacity);
    ASSERT_EQ(pool.count(), ref.count());
    RequestGen gen(capacity, 0x7043e9 + capacity);
    unsigned waited = 0;
    for (unsigned i = 0; i < 20000; ++i) {
        const Tick t = gen.arrival();
        const Tick hold = gen.hold();
        ASSERT_EQ(pool.grantTime(t), ref.grantTime(t)) << "request " << i;
        const Tick grant =
            pool.acquire(t, [&](Tick g) { return g + hold; });
        const Tick ref_grant =
            ref.acquire(t, [&](Tick g) { return g + hold; });
        ASSERT_EQ(grant, ref_grant) << "request " << i << " at " << t;
        waited += grant > t;
        if (gen.coin(4)) {
            const Tick p = gen.probe();
            ASSERT_EQ(pool.inFlight(p), ref.inFlight(p))
                << "probe at " << p << " after request " << i;
        }
    }
    // The stream must actually exhaust the pool, or it tests little.
    EXPECT_GT(waited, 100u);
    // Drain: past every release both pools are empty.
    EXPECT_EQ(pool.inFlight(~Tick{0}), 0u);
    EXPECT_EQ(ref.inFlight(~Tick{0}), 0u);
}

INSTANTIATE_TEST_SUITE_P(Capacities, TokenPoolRef,
                         testing::Values(1u, 2u, 16u, 32u, 64u, 256u),
                         [](const testing::TestParamInfo<unsigned>& info) {
                             return "cap" + std::to_string(info.param);
                         });

} // namespace
} // namespace eve
