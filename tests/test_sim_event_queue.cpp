#include "moas/sim/event_queue.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <vector>

namespace moas::sim {
namespace {

/// Typed-event receiver whose records are labels: running one appends its
/// label to `order`. While fewer than `reschedule_until` records have been
/// scheduled in all, each run schedules a fresh one a second later.
class LabelSink final : public EventSink {
 public:
  LabelSink(EventQueue& queue, std::vector<int>& order) : queue_(queue), order_(order) {}

  void schedule(Time at, int label) {
    ++scheduled_;
    queue_.schedule_at(at, *this, labels_.put(label));
  }
  void reschedule_until(std::size_t total) { reschedule_until_ = total; }
  std::size_t capacity() const { return labels_.capacity(); }

  void run_event(std::uint32_t slot) override {
    const int label = labels_.take(slot);
    order_.push_back(label);
    if (scheduled_ < reschedule_until_) schedule(queue_.now() + 1.0, label);
  }

 private:
  EventQueue& queue_;
  std::vector<int>& order_;
  Slab<int> labels_;
  std::size_t scheduled_ = 0;
  std::size_t reschedule_until_ = 0;
};

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue queue;
  std::vector<int> order;
  queue.schedule_at(3.0, [&] { order.push_back(3); });
  queue.schedule_at(1.0, [&] { order.push_back(1); });
  queue.schedule_at(2.0, [&] { order.push_back(2); });
  queue.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(queue.now(), 3.0);
}

TEST(EventQueue, SameTimeIsFifo) {
  EventQueue queue;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    queue.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  queue.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, ScheduleAfterUsesCurrentTime) {
  EventQueue queue;
  double fired_at = -1.0;
  queue.schedule_at(5.0, [&] {
    queue.schedule_after(2.0, [&] { fired_at = queue.now(); });
  });
  queue.run();
  EXPECT_DOUBLE_EQ(fired_at, 7.0);
}

TEST(EventQueue, RejectsPastScheduling) {
  EventQueue queue;
  queue.schedule_at(5.0, [] {});
  queue.run();
  EXPECT_THROW(queue.schedule_at(1.0, [] {}), std::invalid_argument);
  EXPECT_THROW(queue.schedule_after(-1.0, [] {}), std::invalid_argument);
}

TEST(EventQueue, RejectsEmptyCallback) {
  EventQueue queue;
  EXPECT_THROW(queue.schedule_at(1.0, std::function<void()>()), std::invalid_argument);
}

TEST(EventQueue, TypedAndClosureEventsShareScheduleOrder) {
  EventQueue queue;
  std::vector<int> order;
  LabelSink sink(queue, order);
  sink.schedule(1.0, 0);
  queue.schedule_at(1.0, [&] { order.push_back(1); });
  sink.schedule(1.0, 2);
  queue.schedule_at(1.0, [&] { order.push_back(3); });
  sink.schedule(1.0, 4);
  sink.schedule(0.5, -1);  // scheduled last, but earlier in time
  EXPECT_EQ(queue.pending(), 6u);
  EXPECT_EQ(queue.run(), 6u);
  EXPECT_EQ(order, (std::vector<int>{-1, 0, 1, 2, 3, 4}));
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, RunUntilLeavesLaterTypedRecordQueued) {
  EventQueue queue;
  std::vector<int> order;
  LabelSink sink(queue, order);
  sink.schedule(1.0, 1);
  sink.schedule(5.0, 5);
  EXPECT_EQ(queue.run_until(2.0), 1u);
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(queue.pending(), 1u);
  EXPECT_FALSE(queue.empty());
  EXPECT_DOUBLE_EQ(queue.now(), 2.0);
  EXPECT_EQ(queue.run(), 1u);
  EXPECT_EQ(order, (std::vector<int>{1, 5}));
  EXPECT_DOUBLE_EQ(queue.now(), 5.0);
  EXPECT_EQ(queue.pending(), 0u);
}

TEST(EventQueue, SlabSlotsAreReusedAcrossDrain) {
  // Four typed chains and one closure chain, 10k events in all: a run
  // frees its slot before scheduling the next record, so neither slab grows
  // past the number of records in flight at once.
  EventQueue queue;
  std::vector<int> order;
  LabelSink sink(queue, order);
  constexpr std::size_t kTyped = 8000;
  constexpr std::size_t kClosures = 2000;
  sink.reschedule_until(kTyped);
  for (int chain = 0; chain < 4; ++chain) sink.schedule(0.0, chain);
  std::size_t ticks = 0;
  std::function<void()> tick = [&] {
    if (++ticks < kClosures) queue.schedule_after(0.25, tick);
  };
  queue.schedule_at(0.0, tick);
  queue.run();
  EXPECT_EQ(order.size(), kTyped);
  EXPECT_EQ(ticks, kClosures);
  EXPECT_EQ(queue.executed(), kTyped + kClosures);
  EXPECT_LE(sink.capacity(), 4u);
  EXPECT_EQ(queue.closure_capacity(), 1u);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, EventsCanScheduleMoreEvents) {
  EventQueue queue;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 50) queue.schedule_after(0.1, recurse);
  };
  queue.schedule_at(0.0, recurse);
  const std::size_t n = queue.run();
  EXPECT_EQ(n, 50u);
  EXPECT_EQ(depth, 50);
}

TEST(EventQueue, RunHonorsEventCap) {
  EventQueue queue;
  // A self-perpetuating event: run() must stop at the cap.
  std::function<void()> forever = [&] { queue.schedule_after(1.0, forever); };
  queue.schedule_at(0.0, forever);
  EXPECT_EQ(queue.run(100), 100u);
  EXPECT_FALSE(queue.empty());
}

TEST(EventQueue, RunUntilStopsAtBoundary) {
  EventQueue queue;
  std::vector<double> fired;
  for (double t : {1.0, 2.0, 3.0, 4.0}) {
    queue.schedule_at(t, [&fired, &queue] { fired.push_back(queue.now()); });
  }
  EXPECT_EQ(queue.run_until(2.5), 2u);
  EXPECT_DOUBLE_EQ(queue.now(), 2.5);
  EXPECT_EQ(queue.pending(), 2u);
  EXPECT_EQ(queue.run_until(10.0), 2u);
  EXPECT_EQ(fired.size(), 4u);
}

TEST(EventQueue, RunUntilInclusiveOfBoundary) {
  EventQueue queue;
  bool ran = false;
  queue.schedule_at(2.0, [&] { ran = true; });
  queue.run_until(2.0);
  EXPECT_TRUE(ran);
}

TEST(EventQueue, RunUntilAdvancesClockOnEmptyQueue) {
  EventQueue queue;
  queue.run_until(9.0);
  EXPECT_DOUBLE_EQ(queue.now(), 9.0);
}

TEST(EventQueue, ExecutedCounterAccumulates) {
  EventQueue queue;
  for (int i = 0; i < 5; ++i) queue.schedule_at(i, [] {});
  queue.run();
  for (int i = 6; i < 9; ++i) queue.schedule_at(i, [] {});
  queue.run();
  EXPECT_EQ(queue.executed(), 8u);
}

}  // namespace
}  // namespace moas::sim
