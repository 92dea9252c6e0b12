// trace_generator.hpp — synthetic re-creation of the Yajnik et al. traces.
//
// Pipeline per TraceSpec: (1) generate a random multicast tree with the
// published receiver count and depth; (2) assign every link a
// Gilbert–Elliott loss process with a heterogeneous base rate (a few "hot"
// links dominate, mirroring MBone measurements) and a random mean burst
// length; (3) calibrate a global rate multiplier by bisection until the
// total receiver-loss count matches the published "# of Losses" within a
// tolerance; (4) emit the per-receiver binary loss sequences *and* the
// ground-truth per-packet drop links (which the paper could not observe —
// we use them to validate the §4.2 inference).
#pragma once

#include <memory>
#include <vector>

#include "net/ids.hpp"
#include "net/topology.hpp"
#include "trace/catalog.hpp"
#include "trace/drop_link_table.hpp"
#include "trace/loss_trace.hpp"
#include "util/rng.hpp"

namespace cesrm::trace {

/// A generated trace plus ground truth for inference validation.
struct GeneratedTrace {
  std::shared_ptr<LossTrace> loss;
  /// For each packet, the links on which it was dropped (links whose
  /// Gilbert chain was BAD *and* that the packet actually reached), in BFS
  /// order. Indexed by sequence number; no links = delivered everywhere.
  DropLinkTable true_drop_links;
  /// Per-link loss processes actually used after calibration, indexed by
  /// LinkId (= child node id); entry for the root is unused.
  std::vector<double> link_loss_rate;
  std::vector<double> link_mean_burst;
  /// Calibration diagnostics.
  double rate_multiplier = 1.0;
  int calibration_iters = 0;
};

/// Generates the trace for `spec`. Deterministic in spec.seed.
GeneratedTrace generate_trace(const TraceSpec& spec);

}  // namespace cesrm::trace
