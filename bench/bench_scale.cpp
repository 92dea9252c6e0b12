// bench_scale — the million-receiver scale sweep.
//
// Runs the struct-of-arrays scale driver (harness/scale.hpp) over
// population sizes 10³ → 10⁵ (10⁶ behind --million) for both protocols
// and prints one row per (protocol, population): receivers, leaf blocks,
// events executed, losses, recoveries, requests, the block-level recovery
// p50/p99, bytes of member state per receiver, session link crossings,
// and the savings against flat SRM's per-member session floods.
//
// Every printed value is deterministic. The engine runs one shard per
// hardware thread, and run_scale's results are identical for any shard
// count, so the output does not depend on the host; results/
// bench_scale.txt pins it. Wall time and throughput of the same path are
// perfbench's scale_population workload. A run that ends with unresolved
// losses or a forced window advance fails the binary (exit 1).

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "harness/scale.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace {

using namespace cesrm;

constexpr double kMemberLoss = 0.01;

harness::ScaleConfig config_for(Protocol protocol, std::uint64_t receivers,
                                std::uint32_t block_members,
                                net::SeqNo packets, std::uint64_t seed,
                                int shards) {
  harness::ScaleConfig cfg;
  cfg.protocol = protocol;
  cfg.receivers = receivers;
  cfg.block_members = block_members;
  // Keep the routing tree shallow for small populations and deep enough
  // to spread 10⁴+ blocks: depth follows the block count.
  const std::uint64_t blocks =
      (receivers + block_members - 1) / block_members;
  cfg.tree_depth = blocks <= 16 ? 3 : blocks <= 256 ? 4 : blocks <= 4096 ? 5
                                                                         : 6;
  cfg.packets = packets;
  cfg.member_loss = kMemberLoss;
  cfg.seed = seed;
  cfg.shards = shards;
  return cfg;
}

std::string ms(std::int64_t ns) {
  return util::fmt_fixed(static_cast<double>(ns) / 1e6, 3);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ::cesrm;

  util::CliFlags flags(
      "Million-receiver scale sweep (SoA receiver blocks, aggregated "
      "sessions, sharded engine); deterministic for any host");
  flags.add_int("packets", 150, "data packets per run");
  flags.add_int("block-members", 100, "members per leaf block");
  flags.add_int("seed", 1, "scale-run seed (loss + topology streams)");
  flags.add_bool("million", false, "also run the 10^6-receiver population");
  if (!flags.parse(argc, argv)) return 1;

  const auto packets = static_cast<net::SeqNo>(flags.get_int("packets"));
  const auto block_members =
      static_cast<std::uint32_t>(flags.get_int("block-members"));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  const int shards =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));

  std::vector<std::uint64_t> pops{1000, 10000, 100000};
  if (flags.get_bool("million")) pops.push_back(1000000);

  std::cout << "=== bench_scale — SoA receiver blocks, aggregated sessions "
               "===\n"
            << "packets: " << packets << "  block members: " << block_members
            << "  member loss: " << util::fmt_fixed(kMemberLoss, 2)
            << "  seed: " << seed << "\n\n";

  util::TextTable table;
  table.set_header({"protocol", "receivers", "blocks", "events", "losses",
                    "recovered", "requests", "recovery p50 (ms)",
                    "recovery p99 (ms)", "bytes/receiver",
                    "session crossings", "savings (x)"});
  table.set_align(0, util::Align::kLeft);
  for (const Protocol protocol : {Protocol::kSrm, Protocol::kCesrm}) {
    for (const std::uint64_t pop : pops) {
      const auto r = harness::run_scale(
          config_for(protocol, pop, block_members, packets, seed, shards));
      if (r.outstanding != 0 || r.window_overflows != 0) {
        std::cerr << "scale run left losses unresolved: pop=" << pop
                  << " outstanding=" << r.outstanding
                  << " overflows=" << r.window_overflows << "\n";
        return 1;
      }
      // Session-traffic savings of the aggregated path: how many times
      // fewer link crossings than flat SRM's per-member floods would have
      // cost for the same rounds.
      const double savings =
          r.session_crossings > 0
              ? static_cast<double>(r.flat_session_crossings) /
                    static_cast<double>(r.session_crossings)
              : 0.0;
      table.add_row({protocol_name(protocol), util::fmt_count(r.receivers),
                     util::fmt_count(r.blocks),
                     util::fmt_count(r.events_executed),
                     util::fmt_count(r.losses), util::fmt_count(r.recovered),
                     util::fmt_count(r.requests_sent),
                     ms(r.recovery_p50_ns), ms(r.recovery_p99_ns),
                     util::fmt_fixed(r.bytes_per_receiver, 1),
                     util::fmt_count(r.session_crossings),
                     util::fmt_fixed(savings, 1)});
    }
    table.add_rule();
  }
  table.print();
  return 0;
}
