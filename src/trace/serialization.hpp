// serialization.hpp — text round-trip for loss traces.
//
// A simple line-oriented format keeps generated traces inspectable and
// diffable. Per-receiver loss sequences are run-length encoded ("731x0
// 5x1 ...") — the sequences are bursty, so RLE keeps files small. The
// ground-truth drop links (synthetic traces only) are optional "truth"
// lines.
#pragma once

#include <iosfwd>
#include <string>

#include "trace/trace_generator.hpp"

namespace cesrm::trace {

/// Serialized trace bundle: the loss trace and (optionally) ground truth.
struct TraceFile {
  std::shared_ptr<LossTrace> loss;
  DropLinkTable true_drop_links;  // empty without truth lines
  bool has_truth() const { return !true_drop_links.empty(); }
};

/// Writes a trace (with ground truth when `truth` is non-null).
void write_trace(std::ostream& os, const LossTrace& trace,
                 const DropLinkTable* truth = nullptr);
void save_trace(const std::string& path, const LossTrace& trace,
                const DropLinkTable* truth = nullptr);

/// Parses a trace written by write_trace; truth lines may come in any seq
/// order. Throws util::CheckError on malformed input, including a second
/// loss line for one receiver, a second truth line for one packet, and a
/// truth link that is not a link of the file's tree.
TraceFile read_trace(std::istream& is);
TraceFile load_trace(const std::string& path);

}  // namespace cesrm::trace
