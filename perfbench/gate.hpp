// gate.hpp — the benchmark's correctness gate and output digest.
//
// An operation is one sweep job, one run_scale call or one run_netio call.
// It fails when it throws (the invariant oracle, a socket bind) or when it
// ends with an unrecovered loss, an outstanding scale loss, a window
// overflow or broken loss accounting. The gate counts the failure and the
// workload carries on. Digests fold the simulated-time outputs (events,
// crossings, recovery records) so runs, worker counts and shard counts can
// be compared byte for byte. The tallies below sum the counters a run
// returns the same way for the simulated and the socket workloads.
#pragma once

#include <bit>
#include <cstdint>
#include <exception>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "bench.hpp"
#include "harness/experiment.hpp"
#include "harness/scale.hpp"
#include "netio/run.hpp"

namespace perfbench {

/// FNV-1a 64 over a stream of integers and strings.
class Digest {
 public:
  void add(std::uint64_t v);
  /// Folds the exact bit pattern of `v`.
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(std::string_view s);
  std::uint64_t value() const { return h_; }
  std::string hex() const;

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

class Gate {
 public:
  /// Runs `op`, which returns a failure reason or nullopt. A throw is a
  /// failure too. Returns true when the operation succeeded.
  template <class Fn>
  bool attempt(const std::string& what, Fn&& op) {
    ++attempted_;
    std::optional<std::string> reason;
    try {
      reason = op();
    } catch (const std::exception& e) {
      reason = std::string("threw: ") + e.what();
    }
    if (reason) fail(what + ": " + *reason);
    return !reason;
  }
  void fail(const std::string& why);
  /// Two outputs that must agree did not: the run is not correct.
  void mismatch(const std::string& why);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  bool correct() const { return failed_ == 0 && mismatches_ == 0; }
  /// The first few failure and mismatch messages.
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t mismatches_ = 0;
  std::vector<std::string> messages_;
};

/// A sweep job is correct when every detected loss was recovered and the
/// detected plus silently repaired losses equal the trace's losses.
std::optional<std::string> check_job(
    const cesrm::harness::ExperimentResult& result,
    std::uint64_t trace_losses);
/// A scale run is correct when every loss was recovered, none is
/// outstanding and no receive window overflowed.
std::optional<std::string> check_scale(
    const cesrm::harness::ScaleResult& result);
/// A netio run is correct when the source sent every packet and no
/// receiver holds an unrecovered loss (the oracle already threw if so).
std::optional<std::string> check_netio(
    const cesrm::netio::NetioRunResult& result, std::uint64_t packets);

void fold(Digest& d, const cesrm::harness::ExperimentResult& result);
void fold(Digest& d, const cesrm::harness::ScaleResult& result);

/// Adds every per-type counter of `from` into `into`.
void accumulate(cesrm::net::CrossingStats& into,
                const cesrm::net::CrossingStats& from);
/// Recovery packets (requests, replies and their expedited forms) counted
/// in `crossings`: link crossings in the simulator, datagrams on netio.
std::uint64_t recovery_packets(const cesrm::net::CrossingStats& crossings);

/// Recovery counters of HostStats summed over the members of runs.
struct HostTally {
  std::uint64_t requests = 0, replies = 0, duplicate_replies = 0;
  std::uint64_t exp_requests = 0, exp_replies = 0;
  std::uint64_t cache_hits = 0, cache_misses = 0;
  void add(const cesrm::harness::ExperimentResult& result);
};
/// The srm.* metrics from SRM runs' tally and the cesrm.* metrics from
/// CESRM runs' tally.
void report_host_tallies(Report& report, const HostTally& srm,
                         const HostTally& cesrm);

}  // namespace perfbench
