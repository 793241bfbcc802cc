#include "moas/sim/event_queue.h"

#include <algorithm>

#include "moas/util/assert.h"

namespace moas::sim {

void EventQueue::push(Time t, EventSink* sink, std::uint32_t slot) {
  heap_.push_back(Entry{t, next_id_++, sink, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void EventQueue::schedule_at(Time t, std::function<void()> fn) {
  MOAS_REQUIRE(t >= now_, "cannot schedule into the past");
  MOAS_REQUIRE(static_cast<bool>(fn), "event callback must be callable");
  push(t, nullptr, closures_.put(std::move(fn)));
}

void EventQueue::schedule_after(Time delay, std::function<void()> fn) {
  MOAS_REQUIRE(delay >= 0.0, "delay must be non-negative");
  schedule_at(now_ + delay, std::move(fn));
}

void EventQueue::schedule_at(Time t, EventSink& sink, std::uint32_t slot) {
  MOAS_REQUIRE(t >= now_, "cannot schedule into the past");
  push(t, &sink, slot);
}

void EventQueue::run_top() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Entry top = heap_.back();
  heap_.pop_back();
  now_ = top.at;
  ++executed_;
  if (top.sink != nullptr) {
    top.sink->run_event(top.slot);
  } else {
    // Taken out of the slab first: the closure may schedule more closures.
    closures_.take(top.slot)();
  }
}

bool EventQueue::step() {
  if (heap_.empty()) return false;
  run_top();
  return true;
}

std::size_t EventQueue::run(std::size_t max_events) {
  std::size_t n = 0;
  while (n < max_events && step()) ++n;
  return n;
}

std::size_t EventQueue::run_until(Time until) {
  MOAS_REQUIRE(until >= now_, "cannot run backwards");
  std::size_t n = 0;
  while (!heap_.empty() && heap_.front().at <= until) {
    run_top();
    ++n;
  }
  if (now_ < until) now_ = until;
  return n;
}

}  // namespace moas::sim
