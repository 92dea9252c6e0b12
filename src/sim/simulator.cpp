#include "sim/simulator.hpp"

#include <chrono>

#include "util/check.hpp"

namespace cesrm::sim {

namespace {
double wall_now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

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
    if (profile_) profile_tick();
  });
}

void Simulator::enable_profiling(bool on) {
  profile_ = on;
  if (on) {
    profile_second_ = now_.ns() / SimTime::seconds(1).ns();
    profile_last_wall_ = wall_now_seconds();
  }
}

void Simulator::profile_tick() {
  // Attribute wall time to each completed whole sim-second as the clock
  // crosses its boundary.
  const std::int64_t sec = now_.ns() / SimTime::seconds(1).ns();
  while (profile_second_ < sec) {
    const double wall = wall_now_seconds();
    if (wall_per_sim_second_.size() <=
        static_cast<std::size_t>(profile_second_)) {
      wall_per_sim_second_.resize(
          static_cast<std::size_t>(profile_second_) + 1, 0.0);
    }
    wall_per_sim_second_[static_cast<std::size_t>(profile_second_)] +=
        wall - profile_last_wall_;
    profile_last_wall_ = wall;
    ++profile_second_;
  }
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
