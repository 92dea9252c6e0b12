#include "trace/serialization.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "net/topology_builder.hpp"
#include "util/check.hpp"
#include "util/strings.hpp"

namespace cesrm::trace {

namespace {
constexpr const char* kMagic = "# cesrm-trace v1";
}

void write_trace(std::ostream& os, const LossTrace& trace,
                 const DropLinkTable* truth) {
  os << kMagic << '\n';
  os << "name " << trace.name() << '\n';
  os << "period_ms " << static_cast<std::int64_t>(trace.period().to_millis())
     << '\n';
  os << "packets " << trace.packet_count() << '\n';
  os << "tree " << trace.tree().to_string() << '\n';
  for (std::size_t r = 0; r < trace.receiver_count(); ++r) {
    os << "loss " << r;
    // Run-length encode the binary sequence.
    net::SeqNo i = 0;
    while (i < trace.packet_count()) {
      const bool v = trace.lost(r, i);
      net::SeqNo j = i;
      while (j < trace.packet_count() && trace.lost(r, j) == v) ++j;
      os << ' ' << (j - i) << 'x' << (v ? 1 : 0);
      i = j;
    }
    os << '\n';
  }
  if (truth) {
    for (std::size_t i = 0; i < truth->size(); ++i) {
      if ((*truth)[i].empty()) continue;
      os << "truth " << i;
      for (net::LinkId l : (*truth)[i]) os << ' ' << l;
      os << '\n';
    }
  }
  os << "end\n";
}

void save_trace(const std::string& path, const LossTrace& trace,
                const DropLinkTable* truth) {
  std::ofstream out(path);
  CESRM_CHECK_MSG(out.good(), "cannot open for write: " << path);
  write_trace(out, trace, truth);
  CESRM_CHECK_MSG(out.good(), "write failed: " << path);
}

TraceFile read_trace(std::istream& is) {
  std::string line;
  CESRM_CHECK_MSG(std::getline(is, line) &&
                      util::trim(line) == std::string(kMagic),
                  "bad trace magic");

  std::string name;
  std::int64_t period_ms = -1;
  net::SeqNo packets = -1;
  std::shared_ptr<const net::MulticastTree> tree;
  std::vector<std::pair<std::size_t, std::string>> loss_lines;
  // Links stay 64-bit until the tree is known to bound them.
  std::vector<std::pair<net::SeqNo, std::vector<std::int64_t>>> truth_lines;
  bool saw_end = false;

  while (std::getline(is, line)) {
    const auto trimmed = std::string(util::trim(line));
    if (trimmed.empty() || trimmed[0] == '#') continue;
    if (trimmed == "end") {
      saw_end = true;
      break;
    }
    const auto sp = trimmed.find(' ');
    CESRM_CHECK_MSG(sp != std::string::npos, "malformed line: " << trimmed);
    const std::string key = trimmed.substr(0, sp);
    const std::string rest = std::string(util::trim(trimmed.substr(sp + 1)));
    if (key == "name") {
      name = rest;
    } else if (key == "period_ms") {
      const auto v = util::parse_int(rest);
      CESRM_CHECK_MSG(v && *v > 0, "bad period_ms: " << rest);
      period_ms = *v;
    } else if (key == "packets") {
      const auto v = util::parse_int(rest);
      CESRM_CHECK_MSG(v && *v > 0, "bad packets: " << rest);
      packets = *v;
    } else if (key == "tree") {
      tree = std::make_shared<net::MulticastTree>(net::parse_tree(rest));
    } else if (key == "loss") {
      const auto sp2 = rest.find(' ');
      CESRM_CHECK_MSG(sp2 != std::string::npos, "malformed loss line");
      const auto ridx = util::parse_int(rest.substr(0, sp2));
      CESRM_CHECK_MSG(ridx && *ridx >= 0, "bad receiver index");
      loss_lines.emplace_back(static_cast<std::size_t>(*ridx),
                              rest.substr(sp2 + 1));
    } else if (key == "truth") {
      const auto toks = util::split_ws(rest);
      CESRM_CHECK_MSG(!toks.empty(), "malformed truth line");
      const auto seq = util::parse_int(toks[0]);
      CESRM_CHECK_MSG(seq && *seq >= 0, "bad truth seq");
      std::vector<std::int64_t> links;
      for (std::size_t t = 1; t < toks.size(); ++t) {
        const auto l = util::parse_int(toks[t]);
        CESRM_CHECK_MSG(l, "bad truth link");
        links.push_back(*l);
      }
      truth_lines.emplace_back(*seq, std::move(links));
    } else {
      CESRM_CHECK_MSG(false, "unknown trace key: " << key);
    }
  }
  CESRM_CHECK_MSG(saw_end, "trace missing 'end' terminator");
  CESRM_CHECK_MSG(tree != nullptr, "trace missing tree");
  CESRM_CHECK_MSG(period_ms > 0 && packets > 0, "trace missing header fields");

  TraceFile out;
  out.loss = std::make_shared<LossTrace>(name, tree,
                                         sim::SimTime::millis(period_ms),
                                         packets);
  CESRM_CHECK_MSG(loss_lines.size() == out.loss->receiver_count(),
                  "loss line count mismatch");
  std::vector<bool> seen(out.loss->receiver_count(), false);
  for (const auto& [ridx, rle] : loss_lines) {
    CESRM_CHECK_MSG(ridx < out.loss->receiver_count(),
                    "bad receiver index " << ridx);
    CESRM_CHECK_MSG(!seen[ridx], "second loss line for receiver " << ridx);
    seen[ridx] = true;
    net::SeqNo pos = 0;
    for (const auto& tok : util::split_ws(rle)) {
      const auto x = tok.find('x');
      CESRM_CHECK_MSG(x != std::string::npos, "bad RLE token: " << tok);
      const auto count = util::parse_int(tok.substr(0, x));
      const auto value = util::parse_int(tok.substr(x + 1));
      CESRM_CHECK_MSG(count && *count > 0 && value &&
                          (*value == 0 || *value == 1),
                      "bad RLE token: " << tok);
      CESRM_CHECK_MSG(*count <= packets - pos,
                      "RLE runs past packet " << packets << " for receiver "
                                              << ridx);
      if (*value == 1)
        for (net::SeqNo i = 0; i < *count; ++i)
          out.loss->set_lost(ridx, pos + i);
      pos += *count;
    }
    CESRM_CHECK_MSG(pos == packets, "RLE length mismatch for receiver "
                                        << ridx << ": " << pos);
  }
  if (!truth_lines.empty()) {
    const LossTrace& loss = *out.loss;
    // The receivers below each link, as a loss pattern. A truth line
    // explains its packet when the receivers below its links are exactly
    // the receivers whose loss lines lost the packet.
    std::vector<LossPattern> below(tree->size(), 0);
    for (std::size_t r = 0; r < loss.receiver_count(); ++r)
      for (net::NodeId v = loss.receiver_node(r); v != net::kInvalidNode;
           v = tree->parent(v))
        below[static_cast<std::size_t>(v)] |= LossPattern{1} << r;
    const auto nodes = [&loss](LossPattern pattern) {
      std::ostringstream os;
      const char* sep = "";
      os << '{';
      for (std::size_t r = 0; r < loss.receiver_count(); ++r)
        if ((pattern >> r) & 1u) {
          os << sep << loss.receiver_node(r);
          sep = " ";
        }
      os << '}';
      return os.str();
    };
    std::sort(truth_lines.begin(), truth_lines.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    std::size_t total = 0;
    for (std::size_t k = 0; k < truth_lines.size(); ++k) {
      const auto& [seq, links] = truth_lines[k];
      CESRM_CHECK_MSG(seq < packets, "truth seq " << seq << " past the trace");
      CESRM_CHECK_MSG(k == 0 || truth_lines[k - 1].first != seq,
                      "second truth line for seq " << seq);
      LossPattern explained = 0;
      for (const std::int64_t l : links) {
        // is_ancestor and the link tables index by link: only the tree's
        // links (every node but the root) are valid.
        CESRM_CHECK_MSG(l >= 0 && static_cast<std::size_t>(l) < tree->size() &&
                            !tree->is_root(static_cast<net::NodeId>(l)),
                        "truth link " << l << " is not a link of the tree");
        explained |= below[static_cast<std::size_t>(l)];
      }
      const LossPattern lost = loss.pattern(seq);
      CESRM_CHECK_MSG(lost != 0, "truth line for packet "
                                     << seq << ", which no receiver lost");
      CESRM_CHECK_MSG(explained == lost,
                      "truth links of packet "
                          << seq << " drop it at receivers " << nodes(explained)
                          << ", but the loss lines lose it at "
                          << nodes(lost));
      total += links.size();
    }
    out.true_drop_links.reserve(static_cast<std::size_t>(packets), total);
    auto line = truth_lines.begin();
    for (net::SeqNo i = 0; i < packets; ++i) {
      if (line != truth_lines.end() && line->first == i) {
        for (const std::int64_t l : line->second)
          out.true_drop_links.add_link(static_cast<net::LinkId>(l));
        ++line;
      } else {
        CESRM_CHECK_MSG(loss.pattern(i) == 0,
                        "lossy packet " << i << " has no truth line (lost at "
                                        << nodes(loss.pattern(i)) << ")");
      }
      out.true_drop_links.end_packet();
    }
  }
  return out;
}

TraceFile load_trace(const std::string& path) {
  std::ifstream in(path);
  CESRM_CHECK_MSG(in.good(), "cannot open for read: " << path);
  return read_trace(in);
}

}  // namespace cesrm::trace
