// Unit tests for the discrete-event simulator: time, event queue, driver,
// timers.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <random>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/inline_function.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"
#include "sim/timer.hpp"
#include "util/check.hpp"

namespace cesrm::sim {
namespace {

// ----------------------------------------------------------------- time ----

TEST(SimTime, Constructors) {
  EXPECT_EQ(SimTime::millis(1).ns(), 1000000);
  EXPECT_EQ(SimTime::seconds(2).ns(), 2000000000);
  EXPECT_EQ(SimTime::micros(3).ns(), 3000);
  EXPECT_DOUBLE_EQ(SimTime::from_seconds(0.5).to_seconds(), 0.5);
  EXPECT_DOUBLE_EQ(SimTime::millis(250).to_seconds(), 0.25);
  EXPECT_DOUBLE_EQ(SimTime::millis(250).to_millis(), 250.0);
}

TEST(SimTime, Arithmetic) {
  const SimTime a = SimTime::millis(30);
  const SimTime b = SimTime::millis(20);
  EXPECT_EQ((a + b).ns(), SimTime::millis(50).ns());
  EXPECT_EQ((a - b).ns(), SimTime::millis(10).ns());
  EXPECT_EQ((a * 2.0).ns(), SimTime::millis(60).ns());
  EXPECT_EQ((0.5 * a).ns(), SimTime::millis(15).ns());
  EXPECT_EQ((a * std::int64_t{3}).ns(), SimTime::millis(90).ns());
  EXPECT_DOUBLE_EQ(a / b, 1.5);
}

TEST(SimTime, Comparisons) {
  EXPECT_LT(SimTime::millis(1), SimTime::millis(2));
  EXPECT_EQ(SimTime::zero(), SimTime::nanos(0));
  EXPECT_GT(SimTime::infinity(), SimTime::seconds(1000000));
  EXPECT_TRUE((SimTime::zero() - SimTime::millis(1)).is_negative());
}

// ---------------------------------------------------------- event queue ----

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(SimTime::millis(30), [&] { order.push_back(3); });
  q.schedule(SimTime::millis(10), [&] { order.push_back(1); });
  q.schedule(SimTime::millis(20), [&] { order.push_back(2); });
  SimTime when;
  EventQueue::Callback cb;
  EventId id;
  while (q.pop(when, cb, id)) cb();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, FifoAmongEqualTimes) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i)
    q.schedule(SimTime::millis(7), [&order, i] { order.push_back(i); });
  SimTime when;
  EventQueue::Callback cb;
  EventId id;
  while (q.pop(when, cb, id)) cb();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  const EventId id = q.schedule(SimTime::millis(5), [&] { ran = true; });
  EXPECT_TRUE(q.is_pending(id));
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.is_pending(id));
  EXPECT_TRUE(q.empty());
  SimTime when;
  EventQueue::Callback cb;
  EventId popped;
  EXPECT_FALSE(q.pop(when, cb, popped));
  EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelTwiceReturnsFalse) {
  EventQueue q;
  const EventId id = q.schedule(SimTime::millis(5), [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelAfterFireReturnsFalse) {
  EventQueue q;
  const EventId id = q.schedule(SimTime::millis(5), [] {});
  SimTime when;
  EventQueue::Callback cb;
  EventId popped;
  ASSERT_TRUE(q.pop(when, cb, popped));
  EXPECT_EQ(popped, id);
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelUnknownIdReturnsFalse) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(kInvalidEventId));
  EXPECT_FALSE(q.cancel(12345));
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  const EventId early = q.schedule(SimTime::millis(1), [] {});
  q.schedule(SimTime::millis(9), [] {});
  q.cancel(early);
  EXPECT_EQ(q.next_time(), SimTime::millis(9));
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, NextTimeOnEmptyIsInfinity) {
  EventQueue q;
  EXPECT_EQ(q.next_time(), SimTime::infinity());
}

TEST(EventQueue, NullCallbackRejected) {
  EventQueue q;
  EXPECT_THROW(q.schedule(SimTime::zero(), nullptr), util::CheckError);
}

TEST(EventQueue, StressInterleavedScheduleCancel) {
  EventQueue q;
  std::vector<EventId> ids;
  int executed = 0;
  for (int i = 0; i < 1000; ++i)
    ids.push_back(
        q.schedule(SimTime::millis(i % 100), [&executed] { ++executed; }));
  for (std::size_t i = 0; i < ids.size(); i += 2) q.cancel(ids[i]);
  SimTime when;
  EventQueue::Callback cb;
  EventId id;
  SimTime last = SimTime::zero();
  while (q.pop(when, cb, id)) {
    EXPECT_GE(when, last);
    last = when;
    cb();
  }
  EXPECT_EQ(executed, 500);
}

TEST(EventQueue, StaleIdAfterSlotReuseDoesNotCancelNewEvent) {
  // Cancelling frees the slot for reuse; the generation tag must keep the
  // old id from reaching through to whatever event now occupies the slot.
  EventQueue q;
  const EventId a = q.schedule(SimTime::millis(1), [] {});
  ASSERT_TRUE(q.cancel(a));
  const EventId b = q.schedule(SimTime::millis(2), [] {});  // reuses a's slot
  EXPECT_NE(a, b);
  EXPECT_FALSE(q.cancel(a));  // stale id must be a no-op...
  EXPECT_FALSE(q.is_pending(a));
  EXPECT_TRUE(q.is_pending(b));  // ...and must not have hit b
  EXPECT_TRUE(q.cancel(b));
}

TEST(EventQueue, StaleIdAfterFireAndReuseDoesNotCancelNewEvent) {
  // Same hazard via the fire path: pop frees the slot too.
  EventQueue q;
  const EventId a = q.schedule(SimTime::millis(1), [] {});
  SimTime when;
  EventQueue::Callback cb;
  EventId popped;
  ASSERT_TRUE(q.pop(when, cb, popped));
  ASSERT_EQ(popped, a);
  const EventId b = q.schedule(SimTime::millis(2), [] {});
  EXPECT_FALSE(q.cancel(a));
  EXPECT_TRUE(q.is_pending(b));
}

TEST(EventQueue, GenerationSurvivesManySlotReuses) {
  // A single slot recycled thousands of times: every retired id must stay
  // dead, and the current one live.
  EventQueue q;
  std::vector<EventId> retired;
  EventId current = q.schedule(SimTime::millis(1), [] {});
  for (int i = 0; i < 4096; ++i) {
    ASSERT_TRUE(q.cancel(current));
    retired.push_back(current);
    current = q.schedule(SimTime::millis(1), [] {});
  }
  EXPECT_TRUE(q.is_pending(current));
  for (const EventId id : retired) {
    EXPECT_FALSE(q.is_pending(id));
    EXPECT_FALSE(q.cancel(id));
  }
  EXPECT_TRUE(q.is_pending(current));
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, FifoAmongEqualTimesSurvivesCancelChurn) {
  // Deterministic pop order among equal-time events must not depend on
  // slot reuse: schedule at one tick, cancel some, schedule more at the
  // same tick (reusing freed slots), and expect schedule order among the
  // survivors.
  EventQueue q;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 8; ++i)
    ids.push_back(q.schedule(SimTime::millis(4), [&order, i] { order.push_back(i); }));
  for (int i = 0; i < 8; i += 2) q.cancel(ids[static_cast<std::size_t>(i)]);
  for (int i = 8; i < 12; ++i)
    q.schedule(SimTime::millis(4), [&order, i] { order.push_back(i); });
  SimTime when;
  EventQueue::Callback cb;
  EventId id;
  while (q.pop(when, cb, id)) cb();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 5, 7, 8, 9, 10, 11}));
}

TEST(EventQueue, PopOrderMatchesStableSortProperty) {
  // Randomized property: pop order is exactly (time, schedule order) —
  // i.e. a stable sort of the schedule sequence by time.
  std::mt19937 rng(20260806);
  std::uniform_int_distribution<int> coarse_time(0, 30);  // force many ties
  for (int round = 0; round < 20; ++round) {
    EventQueue q;
    std::vector<std::pair<int, int>> expected;  // (time, schedule index)
    std::vector<std::pair<int, int>> popped;
    std::vector<EventId> ids;
    for (int i = 0; i < 200; ++i) {
      const int t = coarse_time(rng);
      ids.push_back(q.schedule(SimTime::millis(t),
                               [&popped, t, i] { popped.push_back({t, i}); }));
      expected.push_back({t, i});
    }
    // Cancel a random third; they must vanish from the expected order.
    std::vector<char> cancelled(ids.size(), 0);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (rng() % 3 == 0) {
        ASSERT_TRUE(q.cancel(ids[i]));
        cancelled[i] = 1;
      }
    }
    std::vector<std::pair<int, int>> survivors;
    for (std::size_t i = 0; i < expected.size(); ++i)
      if (!cancelled[i]) survivors.push_back(expected[i]);
    std::stable_sort(survivors.begin(), survivors.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    SimTime when;
    EventQueue::Callback cb;
    EventId id;
    while (q.pop(when, cb, id)) cb();
    EXPECT_EQ(popped, survivors) << "round " << round;
  }
}

// ------------------------------------------------------- InlineFunction ----

TEST(InlineFunction, NullByDefaultAndAfterReset) {
  InlineFunction f;
  EXPECT_FALSE(static_cast<bool>(f));
  EXPECT_TRUE(f == nullptr);
  f = [] {};
  EXPECT_TRUE(f != nullptr);
  f.reset();
  EXPECT_TRUE(f == nullptr);
  InlineFunction g = nullptr;
  EXPECT_FALSE(static_cast<bool>(g));
}

TEST(InlineFunction, InvokesInlineCapture) {
  int hits = 0;
  InlineFunction f = [&hits] { ++hits; };
  f();
  f();  // repeatedly callable (Timer re-invokes its stored callback)
  EXPECT_EQ(hits, 2);
}

TEST(InlineFunction, HeapFallbackForOversizedCapture) {
  // A capture larger than the inline buffer must still work (heap path).
  std::array<std::int64_t, 32> big{};  // 256 bytes > kInlineCapacity
  big[0] = 7;
  big[31] = 35;
  std::int64_t sum = 0;
  InlineFunction f = [big, &sum] { sum = big[0] + big[31]; };
  static_assert(sizeof(big) > InlineFunction::kInlineCapacity);
  f();
  EXPECT_EQ(sum, 42);
}

TEST(InlineFunction, MoveTransfersCallableAndNullsSource) {
  int hits = 0;
  InlineFunction a = [&hits] { ++hits; };
  InlineFunction b = std::move(a);
  EXPECT_TRUE(a == nullptr);  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(b != nullptr);
  b();
  EXPECT_EQ(hits, 1);
  InlineFunction c;
  c = std::move(b);
  c();
  EXPECT_EQ(hits, 2);
}

TEST(InlineFunction, DestroysCapturesExactlyOnce) {
  // Captured owners must be released on reset/destruction and not leak or
  // double-free across moves — on both the inline and the heap path.
  const auto small_owner = std::make_shared<int>(1);
  const auto big_owner = std::make_shared<int>(2);
  {
    InlineFunction inline_fn = [p = small_owner] { (void)p; };
    std::array<char, 128> pad{};
    InlineFunction heap_fn = [p = big_owner, pad] { (void)p; (void)pad; };
    EXPECT_EQ(small_owner.use_count(), 2);
    EXPECT_EQ(big_owner.use_count(), 2);
    InlineFunction moved_inline = std::move(inline_fn);
    InlineFunction moved_heap = std::move(heap_fn);
    EXPECT_EQ(small_owner.use_count(), 2);  // move, not copy
    EXPECT_EQ(big_owner.use_count(), 2);
  }
  EXPECT_EQ(small_owner.use_count(), 1);
  EXPECT_EQ(big_owner.use_count(), 1);
}

TEST(InlineFunction, QueueReleasesCapturesOnCancel) {
  // The queue promises eager release of a cancelled event's captures
  // (free_slot resets the callback immediately, not at heap-drain time).
  EventQueue q;
  const auto owner = std::make_shared<int>(0);
  const EventId id = q.schedule(SimTime::millis(1), [p = owner] { (void)p; });
  EXPECT_EQ(owner.use_count(), 2);
  ASSERT_TRUE(q.cancel(id));
  EXPECT_EQ(owner.use_count(), 1);
}

// ------------------------------------------------------------ simulator ----

TEST(Simulator, ClockAdvancesWithEvents) {
  Simulator sim;
  std::vector<double> at;
  sim.schedule_in(SimTime::millis(10), [&] { at.push_back(sim.now().to_millis()); });
  sim.schedule_in(SimTime::millis(5), [&] { at.push_back(sim.now().to_millis()); });
  sim.run();
  EXPECT_EQ(at, (std::vector<double>{5.0, 10.0}));
  EXPECT_EQ(sim.now(), SimTime::millis(10));
  EXPECT_EQ(sim.events_executed(), 2u);
}

TEST(Simulator, NegativeDelayClampsToNow) {
  Simulator sim;
  bool ran = false;
  sim.schedule_in(SimTime::zero() - SimTime::millis(5), [&] { ran = true; });
  sim.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim.now(), SimTime::zero());
}

TEST(Simulator, ScheduleAtPastThrows) {
  Simulator sim;
  sim.schedule_in(SimTime::millis(10), [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(SimTime::millis(5), [] {}), util::CheckError);
}

TEST(Simulator, RunUntilLeavesLaterEventsPending) {
  Simulator sim;
  int ran = 0;
  sim.schedule_in(SimTime::millis(5), [&] { ++ran; });
  sim.schedule_in(SimTime::millis(15), [&] { ++ran; });
  sim.run_until(SimTime::millis(10));
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(sim.now(), SimTime::millis(10));
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_EQ(ran, 2);
}

TEST(Simulator, RunUntilIncludesBoundary) {
  Simulator sim;
  bool ran = false;
  sim.schedule_in(SimTime::millis(10), [&] { ran = true; });
  sim.run_until(SimTime::millis(10));
  EXPECT_TRUE(ran);
}

TEST(Simulator, StopHaltsRun) {
  Simulator sim;
  int ran = 0;
  sim.schedule_in(SimTime::millis(1), [&] {
    ++ran;
    sim.stop();
  });
  sim.schedule_in(SimTime::millis(2), [&] { ++ran; });
  sim.run();
  EXPECT_EQ(ran, 1);
  sim.run();  // resumes
  EXPECT_EQ(ran, 2);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 10) sim.schedule_in(SimTime::millis(1), chain);
  };
  sim.schedule_in(SimTime::zero(), chain);
  sim.run();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(sim.now(), SimTime::millis(9));
}

TEST(Simulator, CancelPendingEvent) {
  Simulator sim;
  bool ran = false;
  const EventId id = sim.schedule_in(SimTime::millis(5), [&] { ran = true; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(Simulator, StopInsideRunUntilKeepsPendingEventsRunnable) {
  // stop() ends run_until early. The clock must stay at the stopping event,
  // not jump to the horizon past the events still pending before it.
  Simulator sim;
  std::vector<double> at;
  sim.schedule_at(SimTime::millis(1), [&] {
    at.push_back(sim.now().to_millis());
    sim.stop();
  });
  for (int ms : {2, 3})
    sim.schedule_at(SimTime::millis(ms),
                    [&] { at.push_back(sim.now().to_millis()); });
  sim.run_until(SimTime::millis(5));
  EXPECT_EQ(sim.now(), SimTime::millis(1));
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.run_until(SimTime::millis(5));
  EXPECT_EQ(at, (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_EQ(sim.now(), SimTime::millis(5));
}

TEST(Simulator, EventIsNotPendingInsideItsOwnCallback) {
  // step() runs the callback in its slot, but retires the id first.
  Simulator sim;
  EventId id = kInvalidEventId;
  bool pending_inside = true;
  bool cancelled_inside = true;
  id = sim.schedule_in(SimTime::millis(1), [&] {
    pending_inside = sim.is_pending(id);
    cancelled_inside = sim.cancel(id);
  });
  EXPECT_TRUE(sim.is_pending(id));
  sim.run();
  EXPECT_FALSE(pending_inside);
  EXPECT_FALSE(cancelled_inside);
  EXPECT_EQ(sim.events_cancelled(), 0u);
  EXPECT_EQ(sim.events_executed(), 1u);
}

TEST(Simulator, ThrowingCallbackReleasesItsSlotAndCaptures) {
  Simulator sim;
  const auto owner = std::make_shared<int>(0);
  const EventId thrower = sim.schedule_in(SimTime::millis(1), [p = owner] {
    (void)p;
    throw util::CheckError("boom");
  });
  bool later_ran = false;
  sim.schedule_in(SimTime::millis(2), [&] { later_ran = true; });
  EXPECT_EQ(owner.use_count(), 2);
  EXPECT_THROW(sim.step(), util::CheckError);
  EXPECT_EQ(owner.use_count(), 1);
  EXPECT_EQ(sim.pending_events(), 1u);
  // The freed slot (low 32 bits of an id) is the next one handed out.
  const EventId reuse = sim.schedule_at(SimTime::millis(3), [] {});
  EXPECT_EQ(reuse & 0xffffffffu, thrower & 0xffffffffu);
  EXPECT_NE(reuse, thrower);
  sim.run();
  EXPECT_TRUE(later_ran);
  EXPECT_EQ(sim.now(), SimTime::millis(3));
}

// ---------------------------------------------------------------- timer ----

TEST(Timer, FiresOnce) {
  Simulator sim;
  int fired = 0;
  Timer t(sim, [&] { ++fired; });
  t.arm(SimTime::millis(3));
  EXPECT_TRUE(t.armed());
  EXPECT_EQ(t.expiry(), SimTime::millis(3));
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(t.armed());
  EXPECT_EQ(t.expiry(), SimTime::infinity());
}

TEST(Timer, CancelPreventsFire) {
  Simulator sim;
  int fired = 0;
  Timer t(sim, [&] { ++fired; });
  t.arm(SimTime::millis(3));
  t.cancel();
  sim.run();
  EXPECT_EQ(fired, 0);
}

TEST(Timer, RearmReplacesPendingExpiry) {
  Simulator sim;
  std::vector<double> fire_times;
  Timer t(sim, [&] { fire_times.push_back(sim.now().to_millis()); });
  t.arm(SimTime::millis(3));
  t.arm(SimTime::millis(8));  // re-arm before firing
  sim.run();
  EXPECT_EQ(fire_times, std::vector<double>{8.0});
}

TEST(Timer, RearmFromOwnCallback) {
  Simulator sim;
  int fired = 0;
  Timer t(sim, [&] {
    if (++fired < 3) t.arm(SimTime::millis(1));
  });
  t.arm(SimTime::millis(1));
  sim.run();
  EXPECT_EQ(fired, 3);
}

TEST(Timer, DestructionCancelsPendingExpiry) {
  Simulator sim;
  int fired = 0;
  {
    Timer t(sim, [&] { ++fired; });
    t.arm(SimTime::millis(3));
  }
  sim.run();
  EXPECT_EQ(fired, 0);
}

TEST(Timer, ArmAtAbsoluteTime) {
  Simulator sim;
  double fired_at = -1.0;
  Timer t(sim, [&] { fired_at = sim.now().to_millis(); });
  sim.schedule_in(SimTime::millis(2), [&] { t.arm_at(SimTime::millis(9)); });
  sim.run();
  EXPECT_DOUBLE_EQ(fired_at, 9.0);
}

TEST(Timer, DisableCancelsPendingExpiry) {
  Simulator sim;
  int fired = 0;
  Timer t(sim, [&] { ++fired; });
  t.arm(SimTime::millis(3));
  EXPECT_TRUE(t.armed());
  t.disable();
  EXPECT_TRUE(t.disabled());
  EXPECT_FALSE(t.armed());
  sim.run();
  EXPECT_EQ(fired, 0);
}

TEST(Timer, DisabledTimerIgnoresArm) {
  Simulator sim;
  int fired = 0;
  Timer t(sim, [&] { ++fired; });
  t.disable();
  t.arm(SimTime::millis(1));
  t.arm_at(SimTime::millis(5));
  EXPECT_FALSE(t.armed());
  sim.run();
  EXPECT_EQ(fired, 0);
}

TEST(Timer, DisableFromOwnCallbackStopsRearmLoop) {
  // A crash-stop mid-simulation disables timers from inside agent code that
  // may be running in the timer's own callback; the self-rearm must not
  // resurrect the timer afterwards.
  Simulator sim;
  int fired = 0;
  Timer t(sim, [&] {
    ++fired;
    if (fired == 2) t.disable();
    t.arm(SimTime::millis(1));
  });
  t.arm(SimTime::millis(1));
  sim.run();
  EXPECT_EQ(fired, 2);
  EXPECT_TRUE(t.disabled());
}

}  // namespace
}  // namespace cesrm::sim
