#include "netio/reactor.hpp"

#include <algorithm>

#include "util/check.hpp"

#if defined(__linux__)
#include <sys/epoll.h>
#include <unistd.h>
#endif

namespace cesrm::netio {

#if defined(__linux__)

namespace {
/// Stop-responsiveness bound: even with a far-off next event the loop
/// wakes this often to notice stop() from another thread.
constexpr int kMaxEpollWaitMs = 20;
}  // namespace

Reactor::Reactor(ClockSource& clock) : clock_(clock) {
  epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
  CESRM_CHECK_MSG(epfd_ >= 0, "epoll_create1 failed");
}

Reactor::~Reactor() {
  if (epfd_ >= 0) ::close(epfd_);
}

void Reactor::add_readable(int fd, std::function<void()> on_readable) {
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u32 = static_cast<std::uint32_t>(handlers_.size());
  CESRM_CHECK_MSG(::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev) == 0,
                  "epoll_ctl(ADD) failed for fd " << fd);
  handlers_.push_back(Handler{fd, std::move(on_readable)});
}

void Reactor::poll_fds(sim::SimTime max_wait) {
  const int timeout_ms = static_cast<int>(std::clamp<std::int64_t>(
      (max_wait.ns() + 999999) / 1000000, 0, kMaxEpollWaitMs));
  epoll_event events[16];
  const int n = ::epoll_wait(epfd_, events, 16, timeout_ms);
  for (int i = 0; i < n; ++i) {
    const auto idx = static_cast<std::size_t>(events[i].data.u32);
    CESRM_DCHECK(idx < handlers_.size());
    handlers_[idx].fn();
  }
}

void Reactor::run_until(sim::SimTime deadline) {
  while (!stopped()) {
    const sim::SimTime now = clock_.now();
    sim_.run_until(std::min(now, deadline));
    if (now >= deadline) break;
    // Sleep until the earlier of: next queued event, the deadline (at
    // millisecond resolution, rounded up). A readable socket interrupts
    // the sleep either way.
    const sim::SimTime next = std::min(sim_.next_event_time(), deadline);
    poll_fds(next > now ? next - now : sim::SimTime::zero());
  }
}

void Reactor::poll_once(sim::SimTime max_wait) {
  sim_.run_until(clock_.now());
  poll_fds(max_wait);
  sim_.run_until(clock_.now());
}

#else  // !__linux__

Reactor::Reactor(ClockSource& clock) : clock_(clock) {
  throw util::CheckError(
      "the netio reactor requires Linux epoll; this build targets another "
      "platform (valid platforms: linux)");
}
Reactor::~Reactor() = default;
void Reactor::add_readable(int, std::function<void()>) {}
void Reactor::poll_fds(sim::SimTime) {}
void Reactor::run_until(sim::SimTime) {}
void Reactor::poll_once(sim::SimTime) {}

#endif

}  // namespace cesrm::netio
