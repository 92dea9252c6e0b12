#include "sim/simulator.hpp"

#include "util/check.hpp"

namespace cesrm::sim {

EventId Simulator::schedule_in(SimTime delay, EventQueue::Callback&& cb) {
  if (delay.is_negative()) delay = SimTime::zero();
  return queue_.schedule(now_ + delay, std::move(cb));
}

EventId Simulator::schedule_at(SimTime when, EventQueue::Callback&& cb) {
  CESRM_CHECK_MSG(when >= now_, "scheduling into the past: when=" << when
                                 << " now=" << now_);
  return queue_.schedule(when, std::move(cb));
}

EventId Simulator::schedule_at_tagged(SimTime when, std::uint64_t tag,
                                      EventQueue::Callback&& cb) {
  CESRM_CHECK_MSG(when >= now_, "scheduling into the past: when=" << when
                                 << " now=" << now_);
  return queue_.schedule_tagged(when, tag, std::move(cb));
}

bool Simulator::step() {
  return queue_.run_next([this](SimTime when) {
    CESRM_CHECK(when >= now_);
    now_ = when;
    ++executed_;
  });
}

void Simulator::run() {
  stopped_ = false;
  while (!stopped_ && step()) {
  }
}

void Simulator::run_window(SimTime end) {
  stopped_ = false;
  while (!stopped_) {
    const SimTime next = queue_.next_time();
    if (next >= end) break;
    step();
  }
}

void Simulator::run_until(SimTime until) {
  stopped_ = false;
  while (!stopped_) {
    const SimTime next = queue_.next_time();
    if (next > until) break;
    step();
  }
  // After stop() events at or before `until` may still be pending; the
  // clock must not pass them.
  if (!stopped_ && now_ < until) now_ = until;
}

}  // namespace cesrm::sim
