// reactor.hpp — the epoll event loop binding a Simulator to wall time.
//
// One Reactor per agent thread. It owns a private sim::Simulator whose
// clock is slaved to a ClockSource: each loop iteration first executes
// every queued event whose time has come (run_until(wall now) — this is
// where Timer expirations and shim-delayed deliveries fire), then sleeps
// in epoll_wait until either a socket turns readable or the next queued
// event falls due. epoll_wait counts whole milliseconds, and the wait is
// rounded up to them, so unless a datagram wakes the loop first an event
// runs up to ~1 ms after its time. Events that fell due meanwhile then run
// back to back: ChainedSource schedules each send from the previous
// send's scheduled time, so a late wake-up sends the overdue packets in a
// burst. The protocol agents are oblivious: they arm the same
// sim::Timer objects and read the same sim.now() they do in simulation —
// the only difference is who advances the clock. Registered fd handlers
// run on the reactor's thread between simulator events, so agent state
// needs no locking.
#pragma once

#include <atomic>
#include <functional>
#include <vector>

#include "netio/clock.hpp"
#include "sim/simulator.hpp"

namespace cesrm::netio {

class Reactor {
 public:
  /// `clock` must outlive the reactor.
  explicit Reactor(ClockSource& clock);
  ~Reactor();
  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  sim::Simulator& sim() { return sim_; }
  ClockSource& clock() { return clock_; }

  /// Registers a level-triggered readability handler for a nonblocking
  /// `fd`. The handler must drain the fd (read until EAGAIN) — with
  /// level-triggered epoll an undrained socket re-fires immediately, but
  /// draining keeps the loop's sim/socket interleaving fair.
  void add_readable(int fd, std::function<void()> on_readable);

  /// Runs the wall-paced loop until clock().now() >= deadline or stop().
  /// Executes queued simulator events as their times arrive and
  /// dispatches socket readability in between.
  void run_until(sim::SimTime deadline);

  /// One loop iteration without wall pacing: executes events due at or
  /// before clock().now(), then polls the fds once, waiting at most
  /// `max_wait`. Deterministic under a FakeClock — the unit-test surface.
  void poll_once(sim::SimTime max_wait = sim::SimTime::zero());

  /// Makes run_until return after the current iteration. Callable from
  /// any thread (the harness's abort path) or from within a handler.
  void stop() { stop_.store(true, std::memory_order_relaxed); }
  bool stopped() const { return stop_.load(std::memory_order_relaxed); }

 private:
  /// epoll_wait bounded by `max_wait` rounded up to whole milliseconds
  /// (and capped for stop() responsiveness), then dispatch ready handlers.
  void poll_fds(sim::SimTime max_wait);

  ClockSource& clock_;
  sim::Simulator sim_;
  int epfd_ = -1;
  struct Handler {
    int fd;
    std::function<void()> fn;
  };
  std::vector<Handler> handlers_;
  std::atomic<bool> stop_{false};
};

}  // namespace cesrm::netio
