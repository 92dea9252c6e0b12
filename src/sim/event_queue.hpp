// event_queue.hpp — the simulator's pending-event set.
//
// A 4-ary implicit min-heap ordered by (time, tag, schedule sequence) so
// that events scheduled for the same tick fire in FIFO order — a property
// the SRM suppression logic relies on for determinism. The middle `tag`
// key is 0 for every plainly-scheduled event, so the default order is the
// historical (time, sequence) FIFO exactly; the sharded parallel engine
// schedules cross-shard arrivals through schedule_tagged() with a
// deterministic ⟨origin location, per-location counter⟩ tag so that
// same-instant ties resolve identically for any shard count (the schedule
// *sequence* is a per-queue artifact of execution interleaving and cannot
// be used across shards). Callbacks live in a generation-tagged slot pool:
// an EventId encodes ⟨generation, slot⟩, so cancel() and is_pending() are
// two array reads and a tag compare — no hashing, no per-event allocation
// (the callback's captures sit inline in the slot via InlineFunction).
// Cancellation stays lazy: the heap entry of a cancelled event is skipped
// at pop time when its generation tag no longer matches the slot. This
// keeps cancel() O(1), which matters because SRM suppression cancels a
// large fraction of all scheduled timers, and frees the cancelled
// callback's captures immediately. The simulator runs each popped
// callback where it sits in its slot (run_next): the id is retired first,
// and the slot returns to the free list only once the callback is done.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/inline_function.hpp"
#include "sim/time.hpp"
#include "util/check.hpp"

namespace cesrm::sim {

/// Identifier for a scheduled event; valid ids are non-zero. Encodes the
/// pool slot (low 32 bits) and its generation tag (high 32 bits).
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEventId = 0;

/// Min-heap of (time, callback) with O(1) allocation-free cancellation.
/// The schedule/cancel/pop hot path is defined inline below the class —
/// every packet hop goes through it, so cross-TU call overhead matters.
class EventQueue {
 public:
  using Callback = InlineFunction;

  /// Schedules `cb` at absolute time `when`; returns its id. Ties at the
  /// same instant fire in schedule order (tag 0, FIFO). Every scheduling
  /// entry point takes the callback as Callback&&, so a closure is
  /// relocated once on the way into its slot, not once per call layer.
  EventId schedule(SimTime when, Callback&& cb) {
    return schedule_tagged(when, 0, std::move(cb));
  }

  /// Schedules `cb` at `when` with an explicit ordering tag. Among events
  /// at the same instant, lower tags fire first (tag 0 — every plain
  /// schedule() — before all tagged events); equal tags fall back to
  /// schedule order. Tags let the sharded engine impose an execution-
  /// independent total order on cross-shard arrivals.
  EventId schedule_tagged(SimTime when, std::uint64_t tag, Callback&& cb);

  /// Cancels a pending event. Returns true if it was still pending;
  /// cancelling an already-fired or unknown id returns false.
  bool cancel(EventId id);

  /// True while `id` is scheduled and has neither fired nor been cancelled.
  bool is_pending(EventId id) const {
    const std::uint32_t slot = slot_of(id);
    if (slot >= slot_count_) return false;
    const Slot& s = slot_at(slot);
    return s.live && s.gen == gen_of(id);
  }

  /// True if no live (non-cancelled) events remain.
  bool empty() const { return live_ == 0; }
  /// Number of live pending events.
  std::size_t size() const { return live_; }

  /// Time of the earliest live event; infinity() when empty.
  SimTime next_time();

  /// Pops the earliest live event; fills `when`/`cb`/`id`. Returns false
  /// when the queue is empty.
  bool pop(SimTime& when, Callback& cb, EventId& id);

  /// Pops the earliest live event and runs its callback in its slot,
  /// without moving it out: calls `on_pop(when)` first (the simulator
  /// advances its clock there), then the callback. The event's id is
  /// retired before either runs, so the event is not pending inside its
  /// own callback and cancelling it is a no-op. The slot and the
  /// callback's captures are released when the callback returns or
  /// throws. Returns false when the queue is empty.
  template <typename OnPop>
  bool run_next(OnPop&& on_pop);

  /// Total events ever scheduled (diagnostics / micro-benchmarks).
  std::uint64_t scheduled_total() const { return scheduled_; }
  /// Total events cancelled before firing.
  std::uint64_t cancelled_total() const { return cancelled_; }
  /// Largest number of simultaneously-pending events seen so far.
  std::size_t high_water() const { return high_water_; }

 private:
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  struct Slot {
    Callback cb;
    std::uint32_t gen = 1;        ///< bumped on free; 0 is never valid
    std::uint32_t next_free = kNoSlot;
    bool live = false;
  };

  struct HeapEntry {
    SimTime when;
    std::uint64_t tag;  ///< cross-shard deterministic tie-break (0 = FIFO)
    std::uint64_t seq;  ///< monotonic schedule order — final tie-break
    std::uint32_t slot;
    std::uint32_t gen;
  };

  static std::uint32_t slot_of(EventId id) {
    return static_cast<std::uint32_t>(id & 0xffffffffu);
  }
  static std::uint32_t gen_of(EventId id) {
    return static_cast<std::uint32_t>(id >> 32);
  }

  static bool earlier(const HeapEntry& a, const HeapEntry& b) {
    if (a.when != b.when) return a.when < b.when;
    if (a.tag != b.tag) return a.tag < b.tag;
    return a.seq < b.seq;
  }

  /// True when the heap entry still refers to a live event (its slot has
  /// not been freed and reissued since the entry was pushed).
  bool entry_live(const HeapEntry& e) const {
    const Slot& s = slot_at(e.slot);
    return s.live && s.gen == e.gen;
  }

  /// Slots live in fixed-size chunks so growth never relocates a Slot
  /// (relocation would run InlineFunction move ctors for the whole pool).
  static constexpr std::uint32_t kChunkShift = 10;  // 1024 slots per chunk
  static constexpr std::uint32_t kChunkMask = (1u << kChunkShift) - 1;

  Slot& slot_at(std::uint32_t i) {
    return chunks_[i >> kChunkShift][i & kChunkMask];
  }
  const Slot& slot_at(std::uint32_t i) const {
    return chunks_[i >> kChunkShift][i & kChunkMask];
  }

  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  void drop_stale_top();
  /// Removes the earliest live entry from the heap into `e` and counts it
  /// out of the live set; its slot is untouched. False when empty.
  bool pop_entry(HeapEntry& e);
  /// Invalidates the slot's id: not live, generation bumped.
  static void retire(Slot& s);
  /// Destroys the slot's callback and returns the slot to the free list.
  void release(std::uint32_t slot);
  void free_slot(std::uint32_t slot);

  std::vector<HeapEntry> heap_;  ///< 4-ary implicit heap
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t slot_count_ = 0;
  std::uint32_t free_head_ = kNoSlot;
  std::uint64_t next_seq_ = 1;
  std::size_t live_ = 0;
  std::uint64_t scheduled_ = 0;
  std::uint64_t cancelled_ = 0;
  std::size_t high_water_ = 0;
};

// ---- hot path, kept inline (header) for cross-TU inlining ----

inline EventId EventQueue::schedule_tagged(SimTime when, std::uint64_t tag,
                                           Callback&& cb) {
  CESRM_CHECK_MSG(cb != nullptr, "null event callback");
  std::uint32_t slot;
  if (free_head_ != kNoSlot) {
    slot = free_head_;
    free_head_ = slot_at(slot).next_free;
  } else {
    slot = slot_count_++;
    if ((slot >> kChunkShift) == chunks_.size())
      chunks_.push_back(std::make_unique<Slot[]>(std::size_t{1}
                                                 << kChunkShift));
  }
  Slot& s = slot_at(slot);
  s.cb = std::move(cb);
  s.live = true;

  heap_.push_back(HeapEntry{when, tag, next_seq_++, slot, s.gen});
  sift_up(heap_.size() - 1);

  ++scheduled_;
  ++live_;
  if (live_ > high_water_) high_water_ = live_;
  return (static_cast<EventId>(s.gen) << 32) | slot;
}

inline bool EventQueue::cancel(EventId id) {
  const std::uint32_t slot = slot_of(id);
  if (slot >= slot_count_) return false;
  Slot& s = slot_at(slot);
  if (!s.live || s.gen != gen_of(id)) return false;
  free_slot(slot);  // the heap entry goes stale and is skipped at pop time
  --live_;
  ++cancelled_;
  return true;
}

inline void EventQueue::retire(Slot& s) {
  s.live = false;
  if (++s.gen == 0) s.gen = 1;  // 0 must never appear in a valid id
}

inline void EventQueue::release(std::uint32_t slot) {
  Slot& s = slot_at(slot);
  s.cb.reset();
  s.next_free = free_head_;
  free_head_ = slot;
}

inline void EventQueue::free_slot(std::uint32_t slot) {
  retire(slot_at(slot));
  release(slot);  // frees captures eagerly, not at heap-drain time
}

inline void EventQueue::sift_up(std::size_t i) {
  HeapEntry e = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!earlier(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

inline void EventQueue::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  HeapEntry e = heap_[i];
  for (;;) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t last = first + 4 < n ? first + 4 : n;
    for (std::size_t c = first + 1; c < last; ++c)
      if (earlier(heap_[c], heap_[best])) best = c;
    if (!earlier(heap_[best], e)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = e;
}

inline void EventQueue::drop_stale_top() {
  while (!heap_.empty() && !entry_live(heap_.front())) {
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0);
  }
}

inline bool EventQueue::pop_entry(HeapEntry& e) {
  drop_stale_top();
  if (heap_.empty()) return false;
  e = heap_.front();
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
  --live_;
  return true;
}

inline bool EventQueue::pop(SimTime& when, Callback& cb, EventId& id) {
  HeapEntry e;
  if (!pop_entry(e)) return false;
  when = e.when;
  id = (static_cast<EventId>(e.gen) << 32) | e.slot;
  cb = std::move(slot_at(e.slot).cb);
  free_slot(e.slot);
  return true;
}

template <typename OnPop>
inline bool EventQueue::run_next(OnPop&& on_pop) {
  HeapEntry e;
  if (!pop_entry(e)) return false;
  // Chunks never move, so the slot stays put while the callback schedules
  // more events; it joins the free list only when the guard releases it.
  Slot& s = slot_at(e.slot);
  retire(s);
  struct Release {
    EventQueue* queue;
    std::uint32_t slot;
    ~Release() { queue->release(slot); }
  } guard{this, e.slot};
  on_pop(e.when);
  s.cb();
  return true;
}

}  // namespace cesrm::sim
