// Discrete-event simulation engine.
//
// A single-threaded event queue with a virtual clock. Events pop in
// (time, schedule order): events scheduled for the same instant run in the
// order they were scheduled, which makes simulations deterministic for a
// fixed seed. Events may schedule further events while running.
//
// Two kinds of event share the one ordering:
//   - typed events name an EventSink and a slot; the sink owns a slab of
//     plain records (a BGP delivery, an MRAI flush) and runs the record in
//     that slot. This is the hot path: a heap sift and nothing else.
//   - closures (std::function) for the rare events (timers, fault
//     injection, origination). They live in a reused slab inside the queue.
//
// There is no cancellation. An event that may have been superseded checks a
// generation or epoch counter when it runs and returns if it is stale.
// A sink must outlive every queued record aimed at it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

namespace moas::sim {

/// Virtual time in seconds.
using Time = double;

/// Receiver of typed events. `slot` is whatever the sink passed to
/// EventQueue::schedule_at — typically the index of a record in its Slab.
class EventSink {
 public:
  virtual void run_event(std::uint32_t slot) = 0;

 protected:
  ~EventSink() = default;
};

/// Free-listed record storage for an EventSink: put() returns a slot that
/// stays valid until take() moves the record out and frees the slot for
/// reuse. Capacity only grows to the peak number of records held at once.
template <typename T>
class Slab {
 public:
  std::uint32_t put(T record) {
    if (free_.empty()) {
      records_.push_back(std::move(record));
      return static_cast<std::uint32_t>(records_.size() - 1);
    }
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    records_[slot] = std::move(record);
    return slot;
  }

  /// Moves the record out before freeing the slot, so the caller may put()
  /// again (and grow the slab) while it still uses the record.
  T take(std::uint32_t slot) {
    T record = std::move(records_[slot]);
    records_[slot] = T{};
    free_.push_back(slot);
    return record;
  }

  /// Records ever held at once (occupied plus free slots).
  std::size_t capacity() const { return records_.size(); }

 private:
  std::vector<T> records_;
  std::vector<std::uint32_t> free_;
};

class EventQueue {
 public:
  /// Current virtual time; advances as events are executed.
  Time now() const { return now_; }

  /// Schedule `fn` at absolute time `t` (must be >= now()).
  void schedule_at(Time t, std::function<void()> fn);

  /// Schedule `fn` at now() + delay (delay must be >= 0).
  void schedule_after(Time delay, std::function<void()> fn);

  /// Schedule a typed event: at `t` (must be >= now()), call
  /// `sink.run_event(slot)`.
  void schedule_at(Time t, EventSink& sink, std::uint32_t slot);

  /// Run the earliest pending event. Returns false if the queue is empty.
  bool step();

  /// Run events until the queue drains or `max_events` have executed.
  /// Returns the number of events executed. A simulation that fails to
  /// quiesce within the cap is a bug in the model; callers check the count.
  std::size_t run(std::size_t max_events = std::numeric_limits<std::size_t>::max());

  /// Run events with timestamps <= `until` (inclusive); later events stay
  /// queued and now() advances to `until`.
  std::size_t run_until(Time until);

  bool empty() const { return heap_.empty(); }
  std::size_t pending() const { return heap_.size(); }

  /// Total number of events executed over the queue's lifetime.
  std::uint64_t executed() const { return executed_; }

  /// Closure slots ever held at once (see Slab::capacity).
  std::size_t closure_capacity() const { return closures_.capacity(); }

 private:
  struct Entry {
    Time at;
    std::uint64_t id;  // schedule order: FIFO among same-time events
    EventSink* sink;   // nullptr: `slot` indexes closures_
    std::uint32_t slot;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.id > b.id;
    }
  };

  void push(Time t, EventSink* sink, std::uint32_t slot);
  /// Pops the heap top, advances the clock to it and runs it.
  void run_top();

  std::vector<Entry> heap_;  // binary min-heap on (at, id)
  Slab<std::function<void()>> closures_;
  Time now_ = 0.0;
  std::uint64_t next_id_ = 1;
  std::uint64_t executed_ = 0;
};

}  // namespace moas::sim
