/**
 * @file
 * Tests for the discrete-event engine.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"

namespace pddl {
namespace {

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(5.0, [&] { order.push_back(2); });
    q.schedule(1.0, [&] { order.push_back(0); });
    q.schedule(3.0, [&] { order.push_back(1); });
    q.runUntilEmpty();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    EXPECT_DOUBLE_EQ(q.now(), 5.0);
}

TEST(EventQueue, TiesBreakByInsertionOrder)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        q.schedule(2.0, [&order, i] { order.push_back(i); });
    q.runUntilEmpty();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, TiesBreakByInsertionAcrossInterleavedTimes)
{
    // Equal-timestamp events must fire in insertion order even when
    // their insertions are interleaved with other timestamps -- the
    // pattern a parallel-looking simulation produces.
    EventQueue q;
    std::vector<int> order;
    q.schedule(2.0, [&] { order.push_back(0); });
    q.schedule(1.0, [&] { order.push_back(10); });
    q.schedule(2.0, [&] { order.push_back(1); });
    q.schedule(3.0, [&] { order.push_back(20); });
    q.schedule(2.0, [&] { order.push_back(2); });
    q.runUntilEmpty();
    EXPECT_EQ(order, (std::vector<int>{10, 0, 1, 2, 20}));
}

TEST(EventQueue, TiesIncludeEventsScheduledWhileRunning)
{
    // An event scheduling another event at the *same* timestamp: the
    // new event runs after every previously inserted tie, never
    // before (insertion sequence keeps growing monotonically).
    EventQueue q;
    std::vector<int> order;
    q.schedule(1.0, [&] {
        order.push_back(0);
        q.scheduleAfter(0.0, [&] { order.push_back(3); });
    });
    q.schedule(1.0, [&] { order.push_back(1); });
    q.schedule(1.0, [&] { order.push_back(2); });
    q.runUntilEmpty();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_DOUBLE_EQ(q.now(), 1.0);
}

TEST(EventQueue, ManyTiesStaySorted)
{
    // Larger tie groups at several timestamps; each group must drain
    // in insertion order (a heap without a sequence number would
    // permute these).
    EventQueue q;
    std::vector<std::pair<double, int>> order;
    for (int i = 0; i < 50; ++i) {
        double t = static_cast<double>(i % 5);
        q.schedule(t, [&order, t, i] { order.emplace_back(t, i); });
    }
    q.runUntilEmpty();
    ASSERT_EQ(order.size(), 50u);
    for (size_t i = 1; i < order.size(); ++i) {
        if (order[i - 1].first == order[i].first) {
            EXPECT_LT(order[i - 1].second, order[i].second)
                << "tie at t=" << order[i].first << " reordered";
        } else {
            EXPECT_LT(order[i - 1].first, order[i].first);
        }
    }
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue q;
    int fired = 0;
    std::function<void()> chain = [&] {
        ++fired;
        if (fired < 5)
            q.scheduleAfter(1.0, chain);
    };
    q.schedule(0.0, chain);
    q.runUntilEmpty();
    EXPECT_EQ(fired, 5);
    EXPECT_DOUBLE_EQ(q.now(), 4.0);
}

TEST(EventQueue, RunOneReturnsFalseWhenEmpty)
{
    EventQueue q;
    EXPECT_FALSE(q.runOne());
    q.schedule(1.0, [] {});
    EXPECT_TRUE(q.runOne());
    EXPECT_FALSE(q.runOne());
}

TEST(EventQueue, RunUntilHonorsHorizon)
{
    EventQueue q;
    int fired = 0;
    q.schedule(1.0, [&] { ++fired; });
    q.schedule(2.0, [&] { ++fired; });
    q.schedule(10.0, [&] { ++fired; });
    q.runUntil(5.0);
    EXPECT_EQ(fired, 2);
    EXPECT_DOUBLE_EQ(q.now(), 5.0);
    EXPECT_EQ(q.pending(), 1u);
    q.runUntilEmpty();
    EXPECT_EQ(fired, 3);
}

TEST(EventQueue, SchedulingInThePastThrows)
{
    EventQueue q;
    q.schedule(5.0, [] {});
    q.runUntilEmpty();
    ASSERT_DOUBLE_EQ(q.now(), 5.0);
    EXPECT_THROW(q.schedule(4.0, [] {}), std::logic_error);
    // The failed call must not corrupt the queue.
    EXPECT_EQ(q.pending(), 0u);
    int fired = 0;
    q.schedule(5.0, [&] { ++fired; }); // now() itself is legal
    q.schedule(6.0, [&] { ++fired; });
    q.runUntilEmpty();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, SchedulingAtNaNThrows)
{
    // NaN compares false against everything, so a plain `when <
    // now()` check lets it in; it would then fire after +inf, set the
    // clock to NaN and let every later past-time request through.
    EventQueue q;
    const SimTime nan = std::nan("");
    EXPECT_THROW(q.schedule(nan, [] {}), std::logic_error);
    EXPECT_THROW(q.scheduleAfter(nan, [] {}), std::logic_error);
    EXPECT_EQ(q.pending(), 0u);
    q.schedule(5.0, [] {});
    q.runUntilEmpty();
    EXPECT_EQ(q.now(), 5.0);
    EXPECT_THROW(q.schedule(nan, [] {}), std::logic_error);
    EXPECT_THROW(q.schedule(1.0, [] {}), std::logic_error);
    EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, PastScheduleMessageReportsBothTimesExactly)
{
    EventQueue q;
    // Two times whose first six decimals coincide: std::to_string
    // would render both as "5.000000", hiding which was at fault.
    const SimTime now_time = 5.0000001;
    const SimTime past_time = 5.0;
    q.schedule(now_time, [] {});
    q.runUntilEmpty();
    try {
        q.schedule(past_time, [] {});
        FAIL() << "past schedule did not throw";
    } catch (const std::logic_error &error) {
        const std::string message = error.what();
        // The offending timestamp, the current simulated time and
        // the gap, each printed with round-trip precision.
        EXPECT_NE(message.find("event time 5 ms"), std::string::npos)
            << message;
        EXPECT_NE(message.find("current simulated time "
                               "5.0000001000000003 ms"),
                  std::string::npos)
            << message;
        EXPECT_NE(message.find("before"), std::string::npos)
            << message;
        char gap[64];
        std::snprintf(gap, sizeof(gap), "%.17g",
                      now_time - past_time);
        EXPECT_NE(message.find(gap), std::string::npos) << message;
    }
}

TEST(EventQueue, RunBeforeStopsAtTheWindowEdge)
{
    EventQueue q;
    std::vector<double> fired;
    for (double when : {1.0, 2.0, 3.0, 4.0})
        q.schedule(when, [&, when] { fired.push_back(when); });
    // Strictly-before semantics: the event at the edge belongs to
    // the next window, and the clock stays at the last fired event
    // (not the horizon) so a barrier can still deliver work at or
    // after now().
    q.runBefore(3.0);
    EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0}));
    EXPECT_DOUBLE_EQ(q.now(), 2.0);
    EXPECT_EQ(q.pending(), 2u);
    q.runBefore(10.0);
    EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0, 3.0, 4.0}));
}

TEST(EventQueue, NextEventTimeTracksTheRoot)
{
    EventQueue q;
    EXPECT_TRUE(std::isinf(q.nextEventTime()));
    q.schedule(7.0, [] {});
    q.schedule(3.0, [] {});
    EXPECT_DOUBLE_EQ(q.nextEventTime(), 3.0);
    q.runOne();
    EXPECT_DOUBLE_EQ(q.nextEventTime(), 7.0);
    q.runOne();
    EXPECT_TRUE(std::isinf(q.nextEventTime()));
}

TEST(EventQueue, HistoryDigestPinsTheDispatchSequence)
{
    auto run = [](bool reorder) {
        EventQueue q;
        q.enableHistoryDigest();
        for (double when : {3.0, 1.0, 2.0})
            q.schedule(reorder && when == 2.0 ? 2.5 : when, [] {});
        q.runUntilEmpty();
        return q.historyDigest();
    };
    EXPECT_EQ(run(false), run(false));
    EXPECT_NE(run(false), run(true));
    EventQueue silent;
    silent.schedule(1.0, [] {});
    silent.runUntilEmpty();
    EXPECT_EQ(silent.historyDigest(), 0u); // opt-in only
}

TEST(EventQueue, SchedulingInThePastThrowsFromInsideAnEvent)
{
    EventQueue q;
    bool threw = false;
    q.schedule(2.0, [&] {
        try {
            q.schedule(1.0, [] {});
        } catch (const std::logic_error &) {
            threw = true;
        }
    });
    q.runUntilEmpty();
    EXPECT_TRUE(threw);
}

TEST(EventQueue, NowAdvancesMonotonically)
{
    EventQueue q;
    SimTime last = -1.0;
    bool monotonic = true;
    for (int i = 0; i < 100; ++i)
        q.schedule((i * 37) % 100, [&] {
            monotonic = monotonic && q.now() >= last;
            last = q.now();
        });
    q.runUntilEmpty();
    EXPECT_TRUE(monotonic);
}

TEST(EventQueue, PoolGrowsUnderAFiringCallback)
{
    // The pool holds one slot when the first event fires; its callback
    // schedules 1000 more, reallocating the pool several times while
    // the callback runs. Every event must still fire, in (when, seq)
    // order.
    EventQueue q;
    std::vector<std::pair<SimTime, int>> fired;
    q.schedule(1.0, [&] {
        for (int i = 0; i < 1000; ++i) {
            const SimTime when = 2.0 + (i * 7919) % 13;
            q.schedule(when, [&fired, &q, i] {
                fired.emplace_back(q.now(), i);
            });
        }
    });
    q.runUntilEmpty();
    ASSERT_EQ(fired.size(), 1000u);
    for (size_t k = 1; k < fired.size(); ++k) {
        // Equal times keep scheduling order, i.e. ascending i.
        EXPECT_TRUE(fired[k - 1] < fired[k]) << "at " << k;
    }
}

TEST(EventQueue, TakesReadyMadeAndHeapBackedClosures)
{
    EventQueue q;
    std::vector<std::string> order;
    // A ready-made callback is moved into its slot.
    InlineCallback ready([&order] { order.push_back("ready"); });
    q.schedule(2.0, std::move(ready));
    EXPECT_FALSE(ready);
    // A closure too big for inline storage goes through the same
    // path to its heap cell.
    std::string big(200, 'x');
    auto heavy = [&order, big] { order.push_back(big.substr(0, 5)); };
    static_assert(!InlineCallback::storedInline<decltype(heavy)>());
    q.schedule(1.0, heavy);
    q.scheduleAfter(3.0, std::move(heavy));
    q.scheduleAfter(0.5, [&order] { order.push_back("inline"); });
    EXPECT_EQ(q.pending(), 4u);
    q.runUntilEmpty();
    const std::vector<std::string> expected{"inline", "xxxxx", "ready",
                                            "xxxxx"};
    EXPECT_EQ(order, expected);
}

} // namespace
} // namespace pddl
