#include "common/simulator.h"

namespace thunderbolt::sim {

void Simulator::ScheduleAt(SimTime when, std::function<void()> fn) {
  if (when < now_) when = now_;
  queue_.push(Event{when, next_seq_++, std::move(fn)});
}

bool Simulator::Step() {
  if (queue_.empty()) return false;
  Event ev = std::move(const_cast<Event&>(queue_.top()));
  queue_.pop();
  now_ = ev.when;
  ++executed_events_;
  ev.fn();
  return true;
}

uint64_t Simulator::RunUntil(SimTime until) {
  uint64_t executed = 0;
  while (!queue_.empty() && queue_.top().when <= until) {
    Step();
    ++executed;
  }
  if (now_ < until) now_ = until;
  return executed;
}

uint64_t Simulator::RunAll(uint64_t max_events) {
  uint64_t executed = 0;
  while (executed < max_events && Step()) {
    ++executed;
  }
  return executed;
}

}  // namespace thunderbolt::sim
