#include "infer/link_estimator.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace cesrm::infer {

LinkEstimate estimate_links_yajnik(const trace::LossTrace& trace) {
  const auto& tree = trace.tree();
  const auto n = tree.size();

  LinkEstimate out;
  out.loss_rate.assign(n, 0.0);
  out.samples.assign(n, 0);
  std::vector<std::uint64_t> drops(n, 0);

  // Post-order node list so children are evaluated before parents when
  // computing the arrival evidence.
  std::vector<net::NodeId> order;
  order.reserve(n);
  {
    std::vector<net::NodeId> stack{tree.root()};
    while (!stack.empty()) {
      const net::NodeId v = stack.back();
      stack.pop_back();
      order.push_back(v);
      for (net::NodeId c : tree.children(v)) stack.push_back(c);
    }
    // Reverse preorder = postorder for our purposes (children before
    // parents).
    std::reverse(order.begin(), order.end());
  }

  // Every packet with the same loss pattern yields the same arrival
  // evidence, so each distinct pattern is evaluated once and weighted by
  // its packet count. Pattern 0 (delivered everywhere) takes the rest.
  auto histogram = trace.pattern_histogram();
  std::uint64_t lossy = 0;
  for (const auto& [pattern, count] : histogram) lossy += count;
  histogram[0] = static_cast<std::uint64_t>(trace.packet_count()) - lossy;

  std::vector<std::uint8_t> arrived(n, 0);
  for (const auto& [pattern, count] : histogram) {
    for (net::NodeId v : order) {
      const auto vi = static_cast<std::size_t>(v);
      if (tree.is_leaf(v)) {
        arrived[vi] = (pattern >> trace.receiver_index(v)) & 1u ? 0 : 1;
      } else if (tree.is_root(v)) {
        arrived[vi] = 1;  // the source transmitted the packet
      } else {
        std::uint8_t any = 0;
        for (net::NodeId c : tree.children(v))
          any |= arrived[static_cast<std::size_t>(c)];
        arrived[vi] = any;
      }
    }
    for (net::LinkId l : tree.links()) {
      const auto li = static_cast<std::size_t>(l);
      const auto pi = static_cast<std::size_t>(tree.parent(l));
      if (arrived[pi]) {
        out.samples[li] += count;
        if (!arrived[li]) drops[li] += count;
      }
    }
  }

  for (net::LinkId l : tree.links()) {
    const auto li = static_cast<std::size_t>(l);
    out.loss_rate[li] = out.samples[li]
                            ? static_cast<double>(drops[li]) /
                                  static_cast<double>(out.samples[li])
                            : 0.0;
  }
  return out;
}

}  // namespace cesrm::infer
