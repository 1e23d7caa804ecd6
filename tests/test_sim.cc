#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <random>
#include <utility>
#include <vector>

#include "sim/queue_server.h"
#include "sim/simulation.h"

namespace mdsim {
namespace {

TEST(Simulation, ExecutesInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule(30, [&] { order.push_back(3); });
  sim.schedule(10, [&] { order.push_back(1); });
  sim.schedule(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulation, SameTimeFifo) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule(5, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulation, ClockAdvancesToEventTime) {
  Simulation sim;
  SimTime seen = 0;
  sim.schedule(42, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, 42u);
  EXPECT_EQ(sim.now(), 42u);
}

TEST(Simulation, RunUntilStopsAndAdvancesClock) {
  Simulation sim;
  int fired = 0;
  sim.schedule(10, [&] { ++fired; });
  sim.schedule(100, [&] { ++fired; });
  sim.run_until(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 50u);
  sim.run_until(200);
  EXPECT_EQ(fired, 2);
}

TEST(Simulation, NestedScheduling) {
  Simulation sim;
  std::vector<SimTime> times;
  sim.schedule(10, [&] {
    times.push_back(sim.now());
    sim.schedule(5, [&] { times.push_back(sim.now()); });
  });
  sim.run();
  EXPECT_EQ(times, (std::vector<SimTime>{10, 15}));
}

TEST(Simulation, CancelPreventsExecution) {
  Simulation sim;
  bool ran = false;
  EventHandle h = sim.schedule(10, [&] { ran = true; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  sim.run();
  EXPECT_FALSE(ran);
  EXPECT_FALSE(h.pending());
}

TEST(Simulation, CancelAfterFireIsNoop) {
  Simulation sim;
  int runs = 0;
  EventHandle h = sim.schedule(1, [&] { ++runs; });
  sim.run();
  h.cancel();
  EXPECT_EQ(runs, 1);
}

TEST(Simulation, EveryRepeatsUntilFalse) {
  Simulation sim;
  int ticks = 0;
  sim.every(10, 10, [&] { return ++ticks < 5; });
  sim.run();
  EXPECT_EQ(ticks, 5);
  EXPECT_EQ(sim.now(), 50u);
}

TEST(Simulation, EventCountTracked) {
  Simulation sim;
  for (int i = 0; i < 7; ++i) sim.schedule(i, [] {});
  sim.run();
  EXPECT_EQ(sim.events_executed(), 7u);
  EXPECT_EQ(sim.events_pending(), 0u);
}

TEST(Simulation, DefaultHandleIsInert) {
  EventHandle h;
  EXPECT_FALSE(h.pending());
  h.cancel();  // must not crash or touch any simulation
  h.cancel();
  EXPECT_FALSE(h.pending());
}

TEST(Simulation, StaleHandleCannotCancelSlotReuser) {
  Simulation sim;
  bool first = false;
  bool second = false;
  EventHandle h1 = sim.schedule(1, [&] { first = true; });
  sim.run();
  EXPECT_TRUE(first);
  EXPECT_FALSE(h1.pending());
  // The next event reuses h1's freed slot; the stale handle's generation
  // no longer matches, so it must not act on the new occupant.
  EventHandle h2 = sim.schedule(1, [&] { second = true; });
  h1.cancel();
  EXPECT_TRUE(h2.pending());
  sim.run();
  EXPECT_TRUE(second);
  EXPECT_EQ(sim.counters().cancelled, 0u);
}

TEST(Simulation, HandleInertDuringOwnExecution) {
  Simulation sim;
  EventHandle h;
  bool pending_inside = true;
  h = sim.schedule(5, [&] {
    pending_inside = h.pending();
    h.cancel();  // cancelling the event from inside itself is a no-op
  });
  sim.run();
  EXPECT_FALSE(pending_inside);
  const auto c = sim.counters();
  EXPECT_EQ(c.fired, 1u);
  EXPECT_EQ(c.cancelled, 0u);
}

TEST(Simulation, CancelTwiceCountsOnce) {
  Simulation sim;
  EventHandle h = sim.schedule(10, [] {});
  h.cancel();
  h.cancel();
  sim.run();
  const auto c = sim.counters();
  EXPECT_EQ(c.cancelled, 1u);
  EXPECT_EQ(c.fired, 0u);
}

TEST(Simulation, CountersTrackLifecycle) {
  Simulation sim;
  const auto c0 = sim.counters();
  EXPECT_EQ(c0.scheduled, 0u);
  EXPECT_EQ(c0.fired, 0u);
  EXPECT_EQ(c0.cancelled, 0u);
  EXPECT_EQ(c0.task_heap_fallbacks, 0u);

  EventHandle doomed = sim.schedule(10, [] {});
  sim.schedule(20, [] {});
  sim.schedule(30, [] {});
  doomed.cancel();
  EXPECT_EQ(sim.events_pending(), 2u);
  sim.run();

  const auto c = sim.counters();
  EXPECT_EQ(c.scheduled, 3u);
  EXPECT_EQ(c.fired, 2u);
  EXPECT_EQ(c.cancelled, 1u);
  // Every capture above fits the inline buffer: the steady-state promise.
  EXPECT_EQ(c.task_heap_fallbacks, 0u);
}

TEST(Simulation, OversizedCaptureFallsBackToHeapAndCounts) {
  Simulation sim;
  struct Big {
    char pad[InlineTask::kInlineSize + 64];
  };
  Big big{};
  big.pad[0] = 7;
  char seen = 0;
  sim.schedule(1, [big, &seen] { seen = big.pad[0]; });
  EXPECT_EQ(sim.counters().task_heap_fallbacks, 1u);
  sim.run();
  EXPECT_EQ(seen, 7);  // oversized callables still work, just slower
}

TEST(Simulation, HeapFallbacksAttributedToTheSchedulingEngine) {
  // Two engines on one thread (the sharded-cluster shape): each engine's
  // counter must reflect only its own events, not a process-wide total.
  Simulation a, b;
  struct Big {
    char pad[InlineTask::kInlineSize + 64];
  };
  Big big{};
  a.schedule(1, [big] { (void)big.pad; });
  b.schedule(1, [] {});
  EXPECT_EQ(a.counters().task_heap_fallbacks, 1u);
  EXPECT_EQ(b.counters().task_heap_fallbacks, 0u);
  a.run();
  b.run();
}

TEST(Simulation, MoveOnlyCaptureSupported) {
  Simulation sim;
  auto p = std::make_unique<int>(41);
  int got = 0;
  sim.schedule(1, [p = std::move(p), &got] { got = *p + 1; });
  sim.run();
  EXPECT_EQ(got, 42);
}

TEST(Simulation, SameInstantFifoSurvivesInterleavedCancels) {
  Simulation sim;
  std::vector<int> order;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 10; ++i) {
    handles.push_back(sim.schedule(5, [&order, i] { order.push_back(i); }));
  }
  handles[2].cancel();
  handles[5].cancel();
  handles[7].cancel();
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 3, 4, 6, 8, 9}));
}

TEST(Simulation, RunUntilBoundaryIsInclusive) {
  Simulation sim;
  int fired = 0;
  sim.schedule(10, [&] { ++fired; });
  sim.run_until(9);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.now(), 9u);
  sim.run_until(10);  // an event exactly at `until` fires
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 10u);
}

TEST(Simulation, StepExecutesExactlyOneEvent) {
  Simulation sim;
  int fired = 0;
  sim.schedule(1, [&] { ++fired; });
  sim.schedule(2, [&] { ++fired; });
  EXPECT_TRUE(sim.step(~SimTime{0}));
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step(~SimTime{0}));
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(sim.step(~SimTime{0}));
}

TEST(Simulation, EveryHonoursStartOffset) {
  Simulation sim;
  std::vector<SimTime> ticks;
  sim.every(10, 3, [&] {
    ticks.push_back(sim.now());
    return ticks.size() < 3;
  });
  sim.run();
  EXPECT_EQ(ticks, (std::vector<SimTime>{3, 13, 23}));
}

TEST(Simulation, SchedulingFromCallbackReusesSlabSafely) {
  // Deep chains churn slot reuse and chunk growth; the sum proves every
  // link ran exactly once with its capture intact.
  Simulation sim;
  int sum = 0;
  std::function<void(int)> spawn = [&](int depth) {
    if (depth == 0) return;
    sim.schedule(1, [&, depth] {
      sum += depth;
      spawn(depth - 1);
    });
  };
  spawn(600);  // deeper than two slot chunks
  sim.run();
  EXPECT_EQ(sum, 600 * 601 / 2);
  EXPECT_EQ(sim.counters().fired, 600u);
}

TEST(Simulation, RandomScheduleCancelMatchesSortedReference) {
  // A seeded mix of schedules (near and far future, same-instant ties
  // included), cancels from outside and from inside callbacks, and steps.
  // The reference model: every event not cancelled before it fired runs,
  // in (time, schedule order) order.
  Simulation sim;
  std::mt19937_64 rng(20261019);
  struct Ref {
    SimTime at;
    EventHandle h;
    bool cancelled = false;
    bool fired = false;
  };
  std::vector<Ref> refs;
  std::vector<std::size_t> fired;
  std::size_t live = 0;
  std::function<void(std::size_t)> on_fire;
  auto schedule_one = [&] {
    const SimTime delay = rng() % 4 == 0 ? 1'000'000 + rng() % 16
                                         : rng() % 8;
    const std::size_t id = refs.size();
    refs.push_back(Ref{sim.now() + delay, {}});
    refs[id].h = sim.schedule(delay, [&, id] { on_fire(id); });
    ++live;
  };
  auto cancel_one = [&] {
    if (refs.empty()) return;
    Ref& r = refs[rng() % refs.size()];
    const bool effective = !r.fired && !r.cancelled;
    r.h.cancel();  // a no-op on a fired, cancelled or running event
    if (!effective) return;
    r.cancelled = true;
    --live;
    EXPECT_LE(sim.counters().heap_keys, 2 * sim.events_pending());
  };
  on_fire = [&](std::size_t id) {
    ASSERT_FALSE(refs[id].cancelled);
    refs[id].fired = true;
    --live;
    fired.push_back(id);
    const auto r = rng() % 8;
    if (r < 3) schedule_one();
    if (r >= 2 && r < 6) cancel_one();
  };
  for (int i = 0; i < 20000; ++i) {
    const auto r = rng() % 10;
    if (r < 4) {
      schedule_one();
    } else if (r < 8) {
      cancel_one();
    } else {
      sim.step(~SimTime{0});
    }
    ASSERT_EQ(sim.events_pending(), live);
  }
  sim.run();

  std::vector<std::size_t> expect;
  for (std::size_t id = 0; id < refs.size(); ++id) {
    if (!refs[id].cancelled) expect.push_back(id);
  }
  std::stable_sort(expect.begin(), expect.end(),
                   [&](std::size_t a, std::size_t b) {
                     return refs[a].at < refs[b].at;
                   });
  EXPECT_EQ(fired, expect);
  EXPECT_EQ(sim.counters().heap_keys, 0u);
}

TEST(Simulation, ReArmedTimeoutKeepsHeapBounded) {
  // A cohort of one: every reply cancels a 60 s timeout and arms the next.
  // Without compaction each cancelled timeout would sit in the heap for a
  // full minute of simulated time.
  Simulation sim;
  EventHandle timeout;
  int timeouts_fired = 0;
  int replies = 0;
  std::function<void()> reply = [&] {
    ++replies;
    timeout.cancel();
    timeout = sim.schedule(60 * kSecond, [&] { ++timeouts_fired; });
    if (replies < 10000) sim.schedule(kMillisecond, reply);
  };
  for (int c = 0; c < 4; ++c) sim.schedule(c, [] {});  // other live work
  sim.schedule(kMillisecond, reply);
  while (sim.step(kSecond * 30)) {
    EXPECT_LE(sim.counters().heap_keys, 2 * sim.events_pending() + 1);
  }
  EXPECT_EQ(replies, 10000);
  EXPECT_EQ(timeouts_fired, 0);
  EXPECT_EQ(sim.events_pending(), 1u);  // the last timeout
  EXPECT_EQ(sim.counters().cancelled, 9999u);
  sim.run();
  EXPECT_EQ(timeouts_fired, 1);
}

TEST(Simulation, StaleHandlesStayInertAcrossCompaction) {
  Simulation sim;
  int fired = 0;
  sim.schedule(1, [&] { ++fired; });
  std::vector<EventHandle> stale;
  for (int i = 0; i < 64; ++i) {
    stale.push_back(sim.schedule(kSecond, [&] { fired += 1000; }));
  }
  // Cancelling all 64 compacts the heap at least once, freeing their
  // slots for the events scheduled next.
  for (EventHandle& h : stale) h.cancel();
  EXPECT_LE(sim.counters().heap_keys, 2u);
  std::vector<EventHandle> fresh;
  for (int i = 0; i < 64; ++i) {
    fresh.push_back(sim.schedule(2, [&] { ++fired; }));
  }
  for (EventHandle& h : stale) {
    EXPECT_FALSE(h.pending());
    h.cancel();  // must not reach whichever fresh event took the slot
  }
  for (const EventHandle& h : fresh) EXPECT_TRUE(h.pending());
  EXPECT_EQ(sim.counters().cancelled, 64u);
  sim.run();
  EXPECT_EQ(fired, 65);
}

// --- QueueServer --------------------------------------------------------

TEST(QueueServer, SerializesJobs) {
  Simulation sim;
  QueueServer q(sim, "disk");
  std::vector<SimTime> completions;
  for (int i = 0; i < 3; ++i) {
    q.submit(100, [&] { completions.push_back(sim.now()); });
  }
  sim.run();
  EXPECT_EQ(completions, (std::vector<SimTime>{100, 200, 300}));
  EXPECT_EQ(q.jobs_completed(), 3u);
}

TEST(QueueServer, AccessLatencyOutsideSerialization) {
  Simulation sim;
  QueueServer q(sim, "disk");
  q.set_access_latency(50);
  std::vector<SimTime> completions;
  q.submit(100, [&] { completions.push_back(sim.now()); });
  q.submit(100, [&] { completions.push_back(sim.now()); });
  sim.run();
  // Service ends at 100 and 200; each completion shifted by the latency.
  EXPECT_EQ(completions, (std::vector<SimTime>{150, 250}));
}

TEST(QueueServer, ThroughputBoundedByServiceTime) {
  Simulation sim;
  QueueServer q(sim, "cpu");
  int done = 0;
  // Offer far more work than one second of capacity at 1ms/job.
  for (int i = 0; i < 5000; ++i) {
    q.submit(kMillisecond, [&] { ++done; });
  }
  sim.run_until(kSecond);
  EXPECT_EQ(done, 1000);
}

TEST(QueueServer, UtilizationReflectsBusyTime) {
  Simulation sim;
  QueueServer q(sim, "disk");
  q.submit(400, [] {});
  sim.run_until(1000);
  EXPECT_NEAR(q.utilization(sim.now()), 0.4, 1e-9);
}

TEST(QueueServer, WaitTimesRecorded) {
  Simulation sim;
  QueueServer q(sim, "disk");
  q.submit(from_seconds(1), [] {});
  q.submit(from_seconds(1), [] {});
  sim.run();
  EXPECT_EQ(q.wait_times().count(), 2u);
  EXPECT_DOUBLE_EQ(q.wait_times().min(), 0.0);
  EXPECT_NEAR(q.wait_times().max(), 1.0, 1e-9);
}

TEST(QueueServer, ResubmissionFromCompletionQueuesBehind) {
  Simulation sim;
  QueueServer q(sim, "disk");
  std::vector<int> order;
  q.submit(10, [&] {
    order.push_back(1);
    q.submit(10, [&] { order.push_back(3); });
  });
  q.submit(10, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(QueueServer, MoveOnlyCompletionSupported) {
  Simulation sim;
  QueueServer q(sim, "disk");
  auto payload = std::make_unique<int>(5);
  int got = 0;
  q.submit(10, [p = std::move(payload), &got] { got = *p; });
  sim.run();
  EXPECT_EQ(got, 5);
}

TEST(QueueServer, ResetStatsZeroes) {
  Simulation sim;
  QueueServer q(sim, "disk");
  q.submit(100, [] {});
  sim.run();
  q.reset_stats(sim.now());
  EXPECT_EQ(q.jobs_completed(), 0u);
  EXPECT_EQ(q.utilization(sim.now() + 100), 0.0);
}

}  // namespace
}  // namespace mdsim
