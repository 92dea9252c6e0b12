// gilbert_elliott.hpp — two-state Markov packet-loss process.
//
// The Gilbert(–Elliott) chain is the standard model of the bursty,
// temporally correlated losses Yajnik et al. measured on the MBone — the
// very phenomenon ("packet loss locality") CESRM exploits. State GOOD
// passes packets; state BAD drops them. The chain is parameterized by the
// stationary loss rate ρ = p_gb / (p_gb + p_bg) and the mean burst length
// B = 1 / p_bg, which are the two quantities the trace generator
// calibrates against Table 1.
#pragma once

#include <cstdint>

#include "util/rng.hpp"

namespace cesrm::trace {

class GilbertElliott {
 public:
  /// Constructs from transition probabilities: p_gb = P(GOOD→BAD),
  /// p_bg = P(BAD→GOOD); both in [0,1].
  GilbertElliott(double p_gb, double p_bg);

  /// Constructs from the stationary loss rate (in [0,1)) and the mean
  /// burst length (>= 1).
  static GilbertElliott from_rate_and_burst(double loss_rate,
                                            double mean_burst);

  /// Advances one packet slot; returns true if that packet is LOST.
  /// The state transition is sampled first, then the state decides.
  /// One draw per step, except where the transition probability is 0 or
  /// 1 (Rng::bernoulli draws nothing there).
  bool step(util::Rng& rng) {
    if (rng.bernoulli(bad_ ? p_bg_ : p_gb_)) bad_ = !bad_;
    return bad_;
  }

  bool in_bad_state() const { return bad_; }
  void reset(bool bad = false) { bad_ = bad; }

  double p_gb() const { return p_gb_; }
  double p_bg() const { return p_bg_; }
  /// Stationary loss probability of the chain.
  double stationary_loss_rate() const;
  /// Expected burst length 1/p_bg.
  double mean_burst_length() const;

 private:
  double p_gb_;
  double p_bg_;
  bool bad_ = false;
};

}  // namespace cesrm::trace
