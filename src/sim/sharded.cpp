#include "sim/sharded.hpp"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <exception>
#include <mutex>
#include <thread>

#include "util/check.hpp"

namespace cesrm::sim {

namespace {
/// The running shard thread's index; -1 off the engine's threads. One
/// engine runs at a time per thread tree (each experiment spawns its own
/// workers), so a plain thread_local is unambiguous.
thread_local int tls_shard = -1;
}  // namespace

ShardedEngine::ShardedEngine(std::vector<int> shard_of_location, int shards,
                             SimTime lookahead)
    : shard_of_location_(std::move(shard_of_location)),
      shards_(shards),
      lookahead_(lookahead) {
  CESRM_CHECK_MSG(shards_ >= 1, "need at least one shard");
  CESRM_CHECK_MSG(lookahead_ > SimTime::zero(),
                  "conservative windows need a positive lookahead");
  CESRM_CHECK_MSG(
      static_cast<std::uint64_t>(shard_of_location_.size()) + 2 <
          (std::uint64_t{1} << (64 - kTagShift)),
      "too many locations for the tag encoding");
  for (int s : shard_of_location_)
    CESRM_CHECK_MSG(s >= 0 && s < shards_, "location mapped to bad shard");
  sims_.reserve(static_cast<std::size_t>(shards_));
  for (int s = 0; s < shards_; ++s)
    sims_.push_back(std::make_unique<Simulator>());
  tag_counter_.assign(shard_of_location_.size(), 0);
  mail_.resize(static_cast<std::size_t>(shards_) *
               static_cast<std::size_t>(shards_));
  shard_posts_.assign(static_cast<std::size_t>(shards_), 0);
}

ShardedEngine::~ShardedEngine() = default;

std::size_t ShardedEngine::current_shard_index() const {
  return tls_shard >= 0 ? static_cast<std::size_t>(tls_shard) : 0;
}

void ShardedEngine::schedule_from(int from, int dest, SimTime when,
                                  EventQueue::Callback&& cb) {
  const std::uint64_t tag = next_tag(from);
  const int dst = shard_of(dest);
  const std::size_t me = current_shard_index();
  if (dst == static_cast<int>(me)) {
    sims_[me]->schedule_at_tagged(when, tag, std::move(cb));
    return;
  }
  CESRM_CHECK_MSG(when >= window_end_,
                  "cross-shard event inside the lookahead window: when="
                      << when << " window_end=" << window_end_);
  mail_[me * static_cast<std::size_t>(shards_) +
        static_cast<std::size_t>(dst)]
      .push_back(Posted{when, tag, std::move(cb)});
  ++shard_posts_[me];
}

void ShardedEngine::drain_mailboxes(int me) {
  Simulator& sim = *sims_[static_cast<std::size_t>(me)];
  for (int src = 0; src < shards_; ++src) {
    auto& box = mail_[static_cast<std::size_t>(src) *
                          static_cast<std::size_t>(shards_) +
                      static_cast<std::size_t>(me)];
    for (Posted& p : box)
      sim.schedule_at_tagged(p.when, p.tag, std::move(p.cb));
    box.clear();
  }
}

void ShardedEngine::run_until(SimTime horizon) {
  done_ = false;
  std::vector<SimTime> local_next(static_cast<std::size_t>(shards_),
                                  SimTime::infinity());
  // An exception on any shard (a CHECK tripping inside an event) must not
  // terminate or deadlock the barrier crowd: the first one is captured,
  // every shard keeps arriving, the completion step shuts the run down,
  // and the exception rethrows on the caller's thread after the join.
  std::atomic<bool> failed{false};
  std::exception_ptr error;
  std::mutex error_mu;
  const auto capture = [&] {
    const std::lock_guard<std::mutex> lock(error_mu);
    if (!error) error = std::current_exception();
    failed.store(true, std::memory_order_relaxed);
  };

  // The completion function runs on exactly one thread while the rest
  // block, and the barrier's release sequences its writes before every
  // thread's next read — window_end_/done_ need no atomics.
  std::barrier sync(shards_, [this, &local_next, &failed, horizon]() noexcept {
    SimTime w0 = SimTime::infinity();
    for (SimTime t : local_next) w0 = std::min(w0, t);
    if (w0 > horizon || failed.load(std::memory_order_relaxed)) {
      done_ = true;
      return;
    }
    window_end_ = std::min(w0 + lookahead_, horizon + SimTime::nanos(1));
    ++windows_;
  });

  auto worker = [&](int me) {
    tls_shard = me;
    Simulator& sim = *sims_[static_cast<std::size_t>(me)];
    for (;;) {
      local_next[static_cast<std::size_t>(me)] = sim.next_event_time();
      sync.arrive_and_wait();  // completion picks the window (or done)
      if (done_) break;
      try {
        sim.run_window(window_end_);
      } catch (...) {
        capture();
      }
      sync.arrive_and_wait();  // all cross-shard posts are now visible
      try {
        drain_mailboxes(me);
      } catch (...) {
        capture();
      }
    }
    sim.advance_clock(horizon);
    tls_shard = -1;
  };

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(shards_));
  for (int s = 0; s < shards_; ++s) threads.emplace_back(worker, s);
  for (auto& t : threads) t.join();
  posts_ = 0;
  for (std::uint64_t n : shard_posts_) posts_ += n;
  if (error) std::rethrow_exception(error);
}

std::uint64_t ShardedEngine::events_executed() const {
  std::uint64_t n = 0;
  for (const auto& s : sims_) n += s->events_executed();
  return n;
}

}  // namespace cesrm::sim
