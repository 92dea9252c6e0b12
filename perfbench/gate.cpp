#include "gate.hpp"

#include <cstdio>
#include <sstream>

namespace perfbench {

void Digest::add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xFF;
    h_ *= 0x100000001B3ULL;
  }
}

void Digest::add(std::string_view s) {
  add(s.size());
  for (unsigned char c : s) {
    h_ ^= c;
    h_ *= 0x100000001B3ULL;
  }
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

namespace {
constexpr std::size_t kMaxMessages = 5;
}  // namespace

void Gate::fail(const std::string& why) {
  ++failed_;
  if (messages_.size() < kMaxMessages) messages_.push_back("failed: " + why);
}

void Gate::mismatch(const std::string& why) {
  ++mismatches_;
  if (messages_.size() < kMaxMessages) messages_.push_back("mismatch: " + why);
}

std::optional<std::string> check_job(
    const cesrm::harness::ExperimentResult& result,
    std::uint64_t trace_losses) {
  std::ostringstream why;
  if (const auto n = result.total_unrecovered(); n > 0)
    why << n << " unrecovered losses";
  const std::uint64_t seen =
      result.total_losses_detected() + result.total_silent_repairs();
  if (seen != trace_losses)
    why << (why.tellp() > 0 ? "; " : "") << "losses detected + silently "
        << "repaired = " << seen << ", trace withheld " << trace_losses;
  if (why.tellp() == 0) return std::nullopt;
  return result.trace_name + " " + cesrm::protocol_name(result.protocol) +
         ": " + why.str();
}

std::optional<std::string> check_scale(
    const cesrm::harness::ScaleResult& result) {
  if (result.outstanding == 0 && result.window_overflows == 0 &&
      result.recovered == result.losses)
    return std::nullopt;
  std::ostringstream why;
  why << result.losses << " losses, " << result.recovered << " recovered, "
      << result.outstanding << " outstanding, " << result.window_overflows
      << " window overflows";
  return why.str();
}

std::optional<std::string> check_netio(
    const cesrm::netio::NetioRunResult& result, std::uint64_t packets) {
  const auto& r = result.experiment;
  std::ostringstream why;
  if (static_cast<std::uint64_t>(r.packets_sent) != packets)
    why << "source sent " << r.packets_sent << " of " << packets
        << " packets";
  if (const auto n = r.total_unrecovered(); n > 0)
    why << (why.tellp() > 0 ? "; " : "") << n << " unrecovered losses";
  if (why.tellp() == 0) return std::nullopt;
  return why.str();
}

void fold(Digest& d, const cesrm::harness::ExperimentResult& result) {
  d.add(result.trace_name);
  d.add(static_cast<std::uint64_t>(result.protocol));
  d.add(result.events_executed);
  d.add(static_cast<std::uint64_t>(result.sim_end.ns()));
  for (std::size_t t = 0; t < cesrm::net::kPacketTypeCount; ++t) {
    d.add(result.crossings.multicast[t]);
    d.add(result.crossings.unicast[t]);
    d.add(result.crossings.subcast[t]);
    d.add(result.crossings.dropped[t]);
  }
  for (const auto& m : result.members) {
    d.add(static_cast<std::uint64_t>(m.node));
    const auto& s = m.stats;
    for (std::uint64_t v :
         {s.data_sent, s.session_sent, s.requests_sent, s.replies_sent,
          s.exp_requests_sent, s.exp_replies_sent,
          s.duplicate_replies_received, s.losses_detected,
          s.repairs_before_detection, s.cache_hits, s.cache_misses})
      d.add(v);
    for (const auto& rec : s.recoveries) {
      d.add(static_cast<std::uint64_t>(rec.seq));
      d.add(static_cast<std::uint64_t>(rec.detect_time.ns()));
      d.add(static_cast<std::uint64_t>(rec.recover_time.ns()));
      d.add(std::uint64_t{rec.recovered} | std::uint64_t{rec.expedited} << 1);
      d.add(static_cast<std::uint64_t>(rec.rounds));
    }
  }
}

void fold(Digest& d, const cesrm::harness::ScaleResult& result) {
  for (std::uint64_t v :
       {result.receivers, result.blocks, result.tree_nodes,
        result.events_executed, result.losses, result.recovered,
        result.outstanding, result.window_overflows, result.requests_sent,
        static_cast<std::uint64_t>(result.recovery_p50_ns),
        static_cast<std::uint64_t>(result.recovery_p99_ns),
        result.session_rounds, result.session_crossings,
        result.member_state_bytes})
    d.add(v);
}

void accumulate(cesrm::net::CrossingStats& into,
                const cesrm::net::CrossingStats& from) {
  for (std::size_t t = 0; t < cesrm::net::kPacketTypeCount; ++t) {
    into.multicast[t] += from.multicast[t];
    into.unicast[t] += from.unicast[t];
    into.subcast[t] += from.subcast[t];
    into.dropped[t] += from.dropped[t];
    into.wire_bytes[t] += from.wire_bytes[t];
  }
}

std::uint64_t recovery_packets(const cesrm::net::CrossingStats& crossings) {
  using cesrm::net::PacketType;
  std::uint64_t n = 0;
  for (PacketType t : {PacketType::kRequest, PacketType::kReply,
                       PacketType::kExpRequest, PacketType::kExpReply})
    n += crossings.total_of(t);
  return n;
}

void HostTally::add(const cesrm::harness::ExperimentResult& result) {
  for (const auto& m : result.members) {
    const auto& s = m.stats;
    requests += s.requests_sent;
    replies += s.replies_sent;
    duplicate_replies += s.duplicate_replies_received;
    exp_requests += s.exp_requests_sent;
    exp_replies += s.exp_replies_sent;
    cache_hits += s.cache_hits;
    cache_misses += s.cache_misses;
  }
}

void report_host_tallies(Report& report, const HostTally& srm,
                         const HostTally& cesrm) {
  const auto pct = [](std::uint64_t part, std::uint64_t whole) {
    return whole ? 100.0 * static_cast<double>(part) /
                       static_cast<double>(whole)
                 : 0.0;
  };
  report.metric("srm.requests", static_cast<double>(srm.requests), "count");
  report.metric("srm.replies", static_cast<double>(srm.replies), "count");
  report.metric("srm.duplicate_replies",
                static_cast<double>(srm.duplicate_replies), "count");
  report.metric("cesrm.exp_requests", static_cast<double>(cesrm.exp_requests),
                "count");
  report.metric("cesrm.exp_success_pct",
                pct(cesrm.exp_replies, cesrm.exp_requests), "%");
  report.metric("cesrm.cache_hit_pct",
                pct(cesrm.cache_hits, cesrm.cache_hits + cesrm.cache_misses),
                "%");
}

}  // namespace perfbench
