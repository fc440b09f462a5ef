// Deterministic discrete-event simulator.
//
// Thunderbolt's distributed evaluation runs as a single-process simulation:
// replicas, network links and executor pools are event-driven objects that
// schedule callbacks on a shared virtual clock. This yields bit-exact
// reproducible runs (same seed -> same schedule) while exercising the real
// protocol logic. README.md "Determinism" covers what this guarantees.
#ifndef THUNDERBOLT_COMMON_SIMULATOR_H_
#define THUNDERBOLT_COMMON_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "common/types.h"

namespace thunderbolt::sim {

/// Handle used to cancel a scheduled event.
using EventId = uint64_t;

class Simulator {
 public:
  Simulator() = default;

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time in microseconds.
  SimTime Now() const { return now_; }

  /// Schedules `fn` to run at absolute virtual time `when` (clamped to be
  /// no earlier than Now()). Events scheduled for the same instant run in
  /// scheduling order (FIFO), which keeps runs deterministic.
  EventId ScheduleAt(SimTime when, std::function<void()> fn);

  /// Schedules `fn` to run `delay` after Now().
  EventId ScheduleAfter(SimTime delay, std::function<void()> fn) {
    return ScheduleAt(now_ + delay, std::move(fn));
  }

  /// Cancels a pending event. Returns false if the event already ran or was
  /// already cancelled.
  bool Cancel(EventId id);

  /// Runs events until the queue is empty or the clock passes `until`.
  /// Returns the number of events executed.
  uint64_t RunUntil(SimTime until);

  /// Runs all pending events (including ones scheduled while running).
  /// `max_events` guards against livelock in buggy protocols.
  uint64_t RunAll(uint64_t max_events = ~uint64_t{0});

  /// Executes exactly one event if available. Returns false when idle.
  bool Step();

  bool Idle() const { return live_events_ == 0; }
  uint64_t pending_events() const { return live_events_; }
  uint64_t executed_events() const { return executed_events_; }

 private:
  struct Event {
    SimTime when;
    uint64_t seq;  // FIFO tiebreak for identical timestamps.
    EventId id;
    std::function<void()> fn;
  };
  struct EventOrder {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Event, std::vector<Event>, EventOrder> queue_;
  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  EventId next_id_ = 1;
  uint64_t live_events_ = 0;
  uint64_t executed_events_ = 0;
  std::vector<EventId> cancelled_;  // Sorted lazily; typically tiny.

  bool IsCancelled(EventId id) const;
};

}  // namespace thunderbolt::sim

#endif  // THUNDERBOLT_COMMON_SIMULATOR_H_
