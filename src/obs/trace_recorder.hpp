// trace_recorder.hpp — the run-wide sink for typed protocol events.
//
// One TraceRecorder serves one experiment run. The harness owns it and
// hands a raw pointer to the run's Simulator; every hook site in the
// protocol/network/fault layers is the two-instruction pattern
//
//   if (auto* rec = sim_.recorder()) rec->emit(...);
//
// so a run without observability (recorder == nullptr, the default) pays
// exactly one predictable-branch pointer test per hook — the overhead
// contract behind the "bench stdout stays byte-identical" guarantee.
//
// emit() always tallies the per-kind counter (the "events dispatched by
// type" profile); the full event stream is captured only when
// ObsConfig::trace asks for it. Everything recorded is sim-time and ids —
// deterministic by construction.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/sketch.hpp"

namespace cesrm::obs {

/// What an experiment run records. Default-constructed = everything off;
/// an all-off config makes the harness skip creating the recorder.
struct ObsConfig {
  bool trace = false;    ///< capture the full TraceEvent stream
  bool metrics = false;  ///< populate a MetricsSnapshot in the result
  bool stream = false;   ///< fold events into a constant-memory
                         ///< StreamingSketch instead of (or alongside)
                         ///< the full capture
  bool enabled() const { return trace || metrics || stream; }
};

class TraceRecorder {
 public:
  explicit TraceRecorder(ObsConfig config) : config_(config) {
    if (config_.stream) sketch_ = std::make_unique<StreamingSketch>();
  }

  void emit(sim::SimTime at, EventKind kind, net::NodeId node,
            net::NodeId source = net::kInvalidNode,
            net::SeqNo seq = net::kNoSeq,
            net::NodeId peer = net::kInvalidNode, std::int64_t detail = 0,
            std::int64_t aux = 0) {
    ++counts_[static_cast<std::size_t>(kind)];
    if (config_.trace || sketch_) {
      const TraceEvent e{at, kind, node, source, seq, peer, detail, aux};
      if (sketch_) sketch_->fold(e);
      if (config_.trace) events_.push_back(e);
    }
  }

  const ObsConfig& config() const { return config_; }
  std::uint64_t count(EventKind kind) const {
    return counts_[static_cast<std::size_t>(kind)];
  }
  const std::array<std::uint64_t, kEventKindCount>& counts() const {
    return counts_;
  }
  const std::vector<TraceEvent>& events() const { return events_; }
  std::vector<TraceEvent> take_events() { return std::move(events_); }
  /// Null unless config().stream.
  const StreamingSketch* sketch() const { return sketch_.get(); }
  std::unique_ptr<StreamingSketch> take_sketch() { return std::move(sketch_); }

 private:
  ObsConfig config_;
  std::array<std::uint64_t, kEventKindCount> counts_{};
  std::vector<TraceEvent> events_;
  std::unique_ptr<StreamingSketch> sketch_;
};

}  // namespace cesrm::obs
