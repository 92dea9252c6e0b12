// config.hpp — SRM protocol parameters (§2, §4.3).
//
// The timer weights are constants: C1 = C2 = 2, C3 = 1.5, D1 = D2 = 1,
// D3 = 1.5, the paper's simulation settings, which in turn are the typical
// values of Floyd et al. SrmConfig's defaults are the paper's settings too
// (session period 1 s, fixed timers).
#pragma once

#include <cstddef>

#include "net/ids.hpp"
#include "sim/time.hpp"

namespace cesrm::srm {

struct SrmConfig {
  // --- session protocol (§2, §4.3) ---
  sim::SimTime session_period = sim::SimTime::seconds(1);
  /// When true, hosts read exact tree-path distances from the network
  /// instead of estimating them via session timing echoes. The paper's
  /// setup (lossless, pre-converged session exchange) makes the two
  /// equivalent; the oracle is faster and useful in unit tests.
  bool oracle_distances = false;

  /// Enables Floyd et al.'s dynamic timer-parameter adjustment (ToN 1997
  /// §V): each host adapts its request parameters (seeded from C1, C2)
  /// from observed duplicate requests and request delays, and its reply
  /// parameters (seeded from D1, D2) likewise. Off by default — the CESRM
  /// paper simulates the fixed "typical settings".
  bool adaptive_timers = false;
};

// --- request scheduling (§2.1) ---
/// Deterministic request suppression weight: requests are delayed at
/// least C1·d̂hs.
inline constexpr double kC1 = 2.0;
/// Probabilistic request suppression weight: the request interval width
/// is C2·d̂hs.
inline constexpr double kC2 = 2.0;
/// Back-off abstinence weight: after (re)scheduling a round-k request,
/// further requests heard within 2^k·C3·d̂hs do not back it off again.
inline constexpr double kC3 = 1.5;

// --- reply scheduling (§2.2) ---
/// Deterministic reply suppression weight (×d̂hh').
inline constexpr double kD1 = 1.0;
/// Probabilistic reply suppression weight (×d̂hh').
inline constexpr double kD2 = 1.0;
/// Reply abstinence weight: after sending/receiving a reply, requests
/// arriving within D3·d̂hh' are discarded.
inline constexpr double kD3 = 1.5;

/// Maximum request back-off exponent; 2^k growth is capped here to keep
/// timeouts bounded in pathological suppression storms (the paper does
/// not bound it; 16 rounds ≈ 65 000× the base interval, far beyond any
/// recovery observed).
inline constexpr int kMaxRequestBackoff = 16;

// --- crash-recovery catch-up pacing (§3.3 graceful degradation) ---
/// A rejoining member re-detects every packet it is missing, but releases
/// the detections in batches of kCatchUpBatch every kCatchUpInterval.
/// Unpaced, a member returning from a long outage arms hundreds of request
/// timers in one instant; the synchronized request burst and the reply
/// avalanche it triggers congest bandwidth-modeled links for tens of
/// simulated seconds. Pacing also lets multicast replies triggered by one
/// rejoining member silently repair the others before they ever request.
/// The pace is ~53 requests/s — well under the ~180 replies/s the paper's
/// 1.5 Mbps / 1 KB links can serialize, leaving headroom for the ongoing
/// transmission.
inline constexpr std::size_t kCatchUpBatch = 8;
inline constexpr sim::SimTime kCatchUpInterval = sim::SimTime::millis(150);

// --- ingress sequence bound ---
/// A member drops any packet, session advert or journaled horizon that
/// names a seq more than kSeqWindow above the highest seq it knows on any
/// stream, and counts it in HostStats::seq_beyond_window. The wire codec
/// admits seqs up to 2^48 - 1: one such DATA frame would size a stream's
/// reception bitmap to 2^48 bits, and one such advert would detect ~2^48
/// losses. The longest legitimate jump in the shipped fault scenarios is
/// crash-recover's: a member down for 30% of the data window rejoins
/// 0.3 × 148 970 ≈ 44 700 packets ahead on Table 1's longest trace
/// (trace 2, uncapped). 2^17 leaves a margin of ~2.9 over that.
inline constexpr net::SeqNo kSeqWindow = net::SeqNo{1} << 17;

}  // namespace cesrm::srm
