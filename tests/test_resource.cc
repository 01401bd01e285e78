/**
 * @file
 * Unit tests for the reservation-timing primitives.
 */

#include <gtest/gtest.h>

#include "sim/resource.hh"

namespace eve
{
namespace
{

TEST(PipelinedUnits, SingleUnitSerializes)
{
    PipelinedUnits unit(1);
    EXPECT_EQ(unit.acquire(100, 10), Tick{100});
    EXPECT_EQ(unit.acquire(100, 10), Tick{110});
    EXPECT_EQ(unit.acquire(105, 10), Tick{120});
    // A late arrival is not delayed.
    EXPECT_EQ(unit.acquire(1000, 10), Tick{1000});
}

TEST(PipelinedUnits, MultipleUnitsOverlap)
{
    PipelinedUnits units(2);
    EXPECT_EQ(units.acquire(0, 100), Tick{0});
    EXPECT_EQ(units.acquire(0, 100), Tick{0});
    EXPECT_EQ(units.acquire(0, 100), Tick{100});
}

TEST(PipelinedUnits, EarliestStartDoesNotReserve)
{
    PipelinedUnits unit(1);
    unit.acquire(0, 50);
    EXPECT_EQ(unit.earliestStart(0), Tick{50});
    EXPECT_EQ(unit.earliestStart(60), Tick{60});
    // earliestStart must not have consumed capacity.
    EXPECT_EQ(unit.acquire(0, 1), Tick{50});
}

TEST(TokenPool, GrantsImmediatelyWhenFree)
{
    TokenPool pool(2);
    EXPECT_EQ(pool.grantTime(42), Tick{42});
    const Tick g = pool.acquire(42, [](Tick t) { return t + 100; });
    EXPECT_EQ(g, Tick{42});
}

TEST(TokenPool, BlocksWhenExhausted)
{
    TokenPool pool(2);
    pool.acquire(0, [](Tick t) { return t + 100; });
    pool.acquire(0, [](Tick t) { return t + 200; });
    // Third acquisition waits for the earliest release (tick 100).
    const Tick g = pool.acquire(10, [](Tick t) { return t + 50; });
    EXPECT_EQ(g, Tick{100});
}

TEST(TokenPool, ReleasesFreeTokens)
{
    TokenPool pool(1);
    pool.acquire(0, [](Tick t) { return t + 10; });
    // Arrives after the release: no wait.
    EXPECT_EQ(pool.acquire(20, [](Tick t) { return t + 10; }),
              Tick{20});
}

TEST(TokenPool, InFlightCountsOutstanding)
{
    TokenPool pool(4);
    pool.acquire(0, [](Tick t) { return t + 100; });
    pool.acquire(0, [](Tick t) { return t + 200; });
    EXPECT_EQ(pool.inFlight(50), 2u);
    EXPECT_EQ(pool.inFlight(150), 1u);
    EXPECT_EQ(pool.inFlight(250), 0u);
}

TEST(PipelinedUnits, ZeroBusyReserveDoesNotBlock)
{
    // A zero-latency reservation (e.g. a bypassed pipeline stage)
    // must not delay anything: the slot is consumed and immediately
    // free again.
    PipelinedUnits unit(1);
    EXPECT_EQ(unit.acquire(10, 0), Tick{10});
    EXPECT_EQ(unit.acquire(10, 0), Tick{10});
    EXPECT_EQ(unit.acquire(10, 5), Tick{10});
    EXPECT_EQ(unit.acquire(10, 5), Tick{15});
}

TEST(PipelinedUnits, SortedOrderSurvivesMixedBusyTimes)
{
    // Short reservations after long ones must not starve: with two
    // units, free ticks {100, 3} after the first two acquires, the
    // third consumes the earliest (3), not the first-constructed.
    PipelinedUnits units(2);
    EXPECT_EQ(units.acquire(0, 100), Tick{0});
    EXPECT_EQ(units.acquire(3, 7), Tick{3});
    EXPECT_EQ(units.acquire(5, 1), Tick{10});   // unit freed at 10
    EXPECT_EQ(units.acquire(5, 1), Tick{11});   // same unit again
    EXPECT_EQ(units.acquire(120, 1), Tick{120});
}

TEST(TokenPool, ReleaseAndAcquireAtSameTick)
{
    // A token released exactly at the arrival tick is granted to
    // that arrival without delay (release <= t retires).
    TokenPool pool(1);
    pool.acquire(0, [](Tick t) { return t + 10; });
    EXPECT_EQ(pool.acquire(10, [](Tick t) { return t + 10; }),
              Tick{10});
    // And when the pool is full, the waiter is granted exactly at
    // the earliest release tick, not one tick later.
    EXPECT_EQ(pool.acquire(10, [](Tick t) { return t + 5; }),
              Tick{20});
}

TEST(TokenPool, ExhaustionBoundsInFlight)
{
    // However many acquires race in, the in-flight population can
    // never exceed the capacity: each grant beyond it must first
    // wait out an earlier release.
    TokenPool pool(3);
    for (int i = 0; i < 50; ++i) {
        pool.acquire(Tick(i), [](Tick t) { return t + 40; });
        EXPECT_LE(pool.inFlight(Tick(i)), 3u);
    }
}

TEST(TokenPool, SingleTokenFullySerializes)
{
    TokenPool pool(1);
    Tick g1 = pool.acquire(0, [](Tick t) { return t + 7; });
    Tick g2 = pool.acquire(0, [](Tick t) { return t + 7; });
    Tick g3 = pool.acquire(0, [](Tick t) { return t + 7; });
    EXPECT_EQ(g1, Tick{0});
    EXPECT_EQ(g2, Tick{7});
    EXPECT_EQ(g3, Tick{14});
}

TEST(TokenPool, QueueBuildsUnderOversubscription)
{
    // Arrivals at rate 1/tick against service of 10 ticks and 2
    // tokens: sustained throughput must be 2 per 10 ticks.
    TokenPool pool(2);
    Tick last_grant = 0;
    for (int i = 0; i < 100; ++i)
        last_grant = pool.acquire(Tick(i), [](Tick t) {
            return t + 10;
        });
    // 100 requests, 2 in service per 10 ticks -> last grant ~ 490.
    EXPECT_NEAR(double(last_grant), 490.0, 15.0);
}

} // namespace
} // namespace eve
